//! Integration: the federated world is one deterministic machine.
//!
//! Acceptance contract for the sharding layer (`ovnes_orchestrator::
//! federation`): a multi-region run — including cross-region spill
//! admission over the backbone and combined control-plane + substrate
//! chaos inside every region — produces byte-identical summaries,
//! monitoring feeds, and dashboards at 1, 2, and 8 workers per shard, and
//! a federation snapshot cut mid-run under one worker count resumes
//! bit-for-bit under another; and a one-region federation *is* the demo
//! scenario, bitwise, even under combined chaos. CI runs this suite at
//! `OVNES_THREADS=1` and `=2` (the 2-workers-per-shard determinism gate).

use ovnes_api::{EndpointFaults, FaultPlan, SubstrateElement, SubstrateFaultPlan};
use ovnes_dashboard::{DashboardView, RegionsPanel};
use ovnes_model::LinkId;
use ovnes_orchestrator::{
    region_scenario_config, DemoScenario, FederationBroker, FederationConfig, FederationSummary,
    Orchestrator, WorldSnapshot,
};
use ovnes_sim::par::set_thread_override;
use ovnes_sim::{SimDuration, SimTime};
use std::path::PathBuf;
use std::sync::Mutex;

/// The worker override is process-global; runs that change it take this.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

fn config(seed: u64, regions: usize) -> FederationConfig {
    FederationConfig {
        seed,
        regions,
        // Heavy enough that home regions reject and the broker spills.
        arrivals_per_hour: 40.0,
        mean_duration: SimDuration::from_mins(45),
        horizon: SimDuration::from_hours(2),
        ..FederationConfig::default()
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ovnes-federation-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Everything a worker count could possibly perturb: the summary, every
/// region's rendered dashboard, and the byte-exact JSON of the
/// region-prefixed monitoring feed.
fn artifacts(fed: &FederationBroker, summary: &FederationSummary) -> Vec<String> {
    let mut out = vec![serde_json::to_string(summary).unwrap()];
    for r in 0..fed.region_count() {
        out.push(DashboardView::capture(fed.orchestrator(r)).render());
    }
    out.extend(
        fed.monitoring()
            .iter()
            .map(|m| serde_json::to_string(m).unwrap()),
    );
    out
}

#[test]
fn federated_run_is_byte_identical_at_1_2_and_8_workers_per_shard() {
    let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let run_at = |threads: usize| {
        set_thread_override(Some(threads));
        let mut fed = FederationBroker::build(config(1901, 3));
        let summary = fed.run();
        let arts = artifacts(&fed, &summary);
        set_thread_override(None);
        (summary, arts)
    };
    let (summary, reference) = run_at(1);
    assert!(summary.spilled > 0, "load should overflow home regions");
    assert_eq!(reference, run_at(2).1, "1 vs 2 workers per shard");
    assert_eq!(reference, run_at(8).1, "1 vs 8 workers per shard");
}

#[test]
fn chaotic_federation_stays_byte_identical_across_worker_counts() {
    let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let run_at = |threads: usize| {
        set_thread_override(Some(threads));
        let mut fed = FederationBroker::build(config(1902, 2));
        for r in 0..fed.region_count() {
            // Control-plane chaos: the monitoring path drops ~30% of
            // health polls; substrate chaos: the first transport link
            // flaps at random through the horizon. Seeds differ per
            // region so shards fail independently.
            fed.orchestrator_mut(r).set_fault_plan(
                FaultPlan::new(300 + r as u64)
                    .with_endpoint("ran/health", EndpointFaults::none().with_drop(0.3))
                    .with_endpoint("cloud/health", EndpointFaults::none().with_drop(0.2)),
            );
            fed.orchestrator_mut(r).set_substrate_plan(
                SubstrateFaultPlan::new(400 + r as u64).with_random_outages(
                    &[SubstrateElement::Link(LinkId::new(0))],
                    0.5,
                    SimDuration::from_mins(10),
                    SimDuration::from_hours(2),
                ),
            );
        }
        let summary = fed.run();
        let arts = artifacts(&fed, &summary);
        set_thread_override(None);
        arts
    };
    let reference = run_at(1);
    assert_eq!(reference, run_at(2), "chaos, 1 vs 2 workers per shard");
    assert_eq!(reference, run_at(8), "chaos, 1 vs 8 workers per shard");
}

#[test]
fn one_region_federation_is_the_demo_scenario_bitwise_under_combined_chaos() {
    // The cell the scenario wrappers used to hide: the broker and the demo
    // are the same run loop, so with the same control-plane *and* substrate
    // plans installed a one-region federation must reproduce the demo's
    // summary, dashboard, and monitoring JSON byte for byte.
    let install = |o: &mut Orchestrator| {
        o.set_fault_plan(
            FaultPlan::new(300)
                .with_endpoint("ran/health", EndpointFaults::none().with_drop(0.3))
                .with_endpoint("cloud/health", EndpointFaults::none().with_error(0.2)),
        );
        o.set_substrate_plan(SubstrateFaultPlan::new(400).with_outage(
            SubstrateElement::Link(LinkId::new(0)),
            SimTime::ZERO + SimDuration::from_mins(30),
            SimTime::ZERO + SimDuration::from_mins(60),
        ));
    };
    let monitoring_json = |o: &Orchestrator| -> Vec<String> {
        o.monitoring()
            .iter()
            .map(|m| serde_json::to_string(m).unwrap())
            .collect()
    };

    let mut demo = DemoScenario::build(region_scenario_config(&config(1905, 1)));
    install(demo.orchestrator_mut());
    demo.run();

    let mut fed = FederationBroker::build(config(1905, 1));
    install(fed.orchestrator_mut(0));
    let summary = fed.run();

    assert_eq!(summary.regions, vec![demo.summary()]);
    assert_eq!(summary.spill_admitted, 0, "nowhere to spill to");
    assert_eq!(
        DashboardView::capture(fed.orchestrator(0)).render(),
        DashboardView::capture(demo.orchestrator()).render(),
    );
    assert_eq!(
        monitoring_json(fed.orchestrator(0)),
        monitoring_json(demo.orchestrator())
    );
    // Both fault families actually bit.
    let chaos = demo.chaos_summary();
    assert!(chaos.control_retries > 0, "{chaos:?}");
    let substrate = demo.substrate_summary();
    assert!(substrate.element_failures > 0, "{substrate:?}");
}

#[test]
fn snapshot_cut_under_one_worker_count_resumes_under_another() {
    let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());

    set_thread_override(Some(1));
    let reference = FederationBroker::build(config(1903, 2)).run();
    set_thread_override(None);

    // Cut a snapshot mid-run at 2 workers per shard.
    set_thread_override(Some(2));
    let mut fed = FederationBroker::build(config(1903, 2));
    for _ in 0..25 {
        assert!(fed.step_epoch());
    }
    let snap = WorldSnapshot::open(scratch("resume")).unwrap();
    let manifest = snap.snapshot_federation(&fed.export_state()).unwrap();
    assert_eq!(manifest.epoch, 25);
    set_thread_override(None);

    // Resume it at 8: the finish must match the uninterrupted serial run.
    set_thread_override(Some(8));
    let state = snap.restore_federation(25).unwrap();
    let resumed = FederationBroker::from_state(&state).run();
    set_thread_override(None);
    assert_eq!(resumed, reference, "resume across worker counts diverged");
}

#[test]
fn regions_panel_folds_the_federated_monitoring_feed() {
    let mut fed = FederationBroker::build(config(1904, 3));
    for _ in 0..30 {
        assert!(fed.step_epoch());
    }
    let mut panel = RegionsPanel::new();
    let mut repaints = 0usize;
    for report in fed.monitoring() {
        repaints += panel.apply(report).len();
    }
    assert_eq!(panel.regions(), vec![0, 1, 2], "every shard reports");
    assert!(repaints > 0, "pushes must repaint scalar cells");
    let rendered = panel.render();
    for r in 0..3 {
        assert!(rendered.contains(&format!("r{r}")), "{rendered}");
    }
}
