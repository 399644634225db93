//! Integration: bit-for-bit reproducibility — the property the simulation
//! substrate exists to provide. Same seed → identical runs at every layer.

use ovnes_api::{EndpointFaults, FaultPlan, SubstrateElement, SubstrateFaultPlan};
use ovnes_dashboard::DashboardView;
use ovnes_model::{EnbId, LinkId};
use ovnes_orchestrator::{
    DemoScenario, ScenarioConfig, WorldSnapshot,
};
use ovnes_sim::{SimDuration, SimRng, SimTime};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn scratch(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ovnes-determinism-{}-{tag}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        seed,
        arrivals_per_hour: 25.0,
        horizon: SimDuration::from_hours(4),
        ..ScenarioConfig::default()
    }
}

/// A demo run under a control-plane fault plan.
fn chaos(config: ScenarioConfig, plan: FaultPlan) -> DemoScenario {
    let mut s = DemoScenario::build(config);
    s.orchestrator_mut().set_fault_plan(plan);
    s
}

/// A demo run under a substrate fault plan.
fn substrate(config: ScenarioConfig, plan: SubstrateFaultPlan) -> DemoScenario {
    let mut s = DemoScenario::build(config);
    s.orchestrator_mut().set_substrate_plan(plan);
    s
}

#[test]
fn same_seed_identical_summary() {
    let a = DemoScenario::build(config(123)).run();
    let b = DemoScenario::build(config(123)).run();
    assert_eq!(a, b);
}

#[test]
fn same_seed_identical_dashboard() {
    let render = |seed| {
        let mut s = DemoScenario::build(config(seed));
        s.run();
        DashboardView::capture(s.orchestrator()).render()
    };
    assert_eq!(render(99), render(99));
}

#[test]
fn same_seed_identical_ledger() {
    let ledger_digest = |seed| {
        let mut s = DemoScenario::build(config(seed));
        s.run();
        s.orchestrator()
            .ledger()
            .records()
            .iter()
            .map(|r| (r.at, r.slice, r.amount))
            .collect::<Vec<_>>()
    };
    assert_eq!(ledger_digest(7), ledger_digest(7));
}

#[test]
fn different_seeds_diverge() {
    let a = DemoScenario::build(config(1)).run();
    let b = DemoScenario::build(config(2)).run();
    assert_ne!(a, b, "distinct seeds should explore distinct workloads");
}

#[test]
fn same_seed_identical_under_active_fault_plan() {
    // Chaos must be as reproducible as the clean run: identical
    // (scenario seed, plan seed) pairs give identical summaries,
    // dashboards, and injected-fault accounting.
    let run = || {
        let plan = FaultPlan::new(4242)
            .with_endpoint("ran/health", EndpointFaults::none().with_drop(0.25))
            .with_endpoint(
                "cloud/health",
                EndpointFaults::none().with_error(0.15).with_outage(
                    SimTime::ZERO + SimDuration::from_mins(45),
                    SimTime::ZERO + SimDuration::from_mins(75),
                ),
            );
        let mut s = chaos(config(321), plan);
        s.run();
        let summary = s.chaos_summary();
        let dashboard = DashboardView::capture(s.orchestrator()).render();
        let stats = s.orchestrator().control().fault_stats().cloned();
        (summary, dashboard, stats)
    };
    let (sa, da, fa) = run();
    let (sb, db, fb) = run();
    assert_eq!(sa, sb);
    assert_eq!(da, db);
    assert_eq!(fa, fb);
    // The plan actually bit: this is a chaos run, not a trivially-equal one.
    assert!(sa.control_retries > 0, "{sa:?}");
}

fn stormy_substrate_plan(seed: u64) -> SubstrateFaultPlan {
    SubstrateFaultPlan::new(seed)
        .with_outage(
            SubstrateElement::Cell(EnbId::new(0)),
            SimTime::ZERO + SimDuration::from_mins(40),
            SimTime::ZERO + SimDuration::from_mins(70),
        )
        .with_flaps(
            SubstrateElement::Link(LinkId::new(4)),
            SimTime::ZERO + SimDuration::from_mins(90),
            SimDuration::from_mins(5),
            SimDuration::from_mins(20),
            3,
        )
}

#[test]
fn substrate_panel_identical_across_fresh_runs() {
    // Same (scenario seed, substrate plan seed) → two fresh runs render a
    // byte-identical SUBSTRATE panel (and whole dashboard): the detect →
    // assess → repair pipeline draws no randomness of its own.
    let capture = || {
        let mut s = substrate(config(606), stormy_substrate_plan(17));
        s.run();
        let summary = s.substrate_summary();
        let view = DashboardView::capture(s.orchestrator());
        let panel = view
            .sections()
            .iter()
            .find(|(title, _)| title == "SUBSTRATE")
            .map(|(_, body)| body.clone())
            .expect("substrate panel present");
        (summary, panel, view.render())
    };
    let (sa, pa, da) = capture();
    let (sb, pb, db) = capture();
    assert_eq!(pa, pb, "substrate panel moved between identical runs");
    assert_eq!(sa, sb);
    assert_eq!(da, db);
    // The plan actually bit: the panel shows real failures, not a no-op.
    assert!(sa.element_failures > 0, "{sa:?}");
}

#[test]
fn substrate_runs_identical_across_thread_counts_and_cache() {
    // The recovery loop runs in the sequential phase of the epoch, so the
    // worker count and the route cache must both be invisible even while
    // elements fail and slices are rerouted/re-attached mid-run.
    let run = |threads: usize, cached: bool| {
        ovnes_sim::par::set_thread_override(Some(threads));
        let mut s = substrate(config(909), stormy_substrate_plan(23));
        s.orchestrator_mut()
            .transport_mut()
            .set_route_cache_enabled(cached);
        s.run();
        let summary = s.substrate_summary();
        let dashboard = DashboardView::capture(s.orchestrator()).render();
        let monitoring: Vec<String> = s
            .orchestrator()
            .monitoring()
            .iter()
            .map(|r| serde_json::to_string(r).unwrap())
            .collect();
        ovnes_sim::par::set_thread_override(None);
        (summary, dashboard, monitoring)
    };
    let serial = run(1, true);
    assert_eq!(serial, run(2, true), "2 workers diverged under faults");
    assert_eq!(serial, run(8, true), "8 workers diverged under faults");
    assert_eq!(serial, run(1, false), "route cache visible under faults");
    assert!(serial.0.element_failures > 0, "{:?}", serial.0);
}

#[test]
fn same_seed_identical_across_thread_counts() {
    // The parallel epoch pipeline must be invisible in results: one seed,
    // one output, whether the per-slice and per-cell shards run on 1, 2, or
    // 8 workers. Compare the scenario summary, the rendered dashboard, and
    // the byte-exact JSON of every monitoring report.
    let run = |threads: usize| {
        ovnes_sim::par::set_thread_override(Some(threads));
        let mut s = DemoScenario::build(config(2024));
        let summary = s.run();
        let dashboard = DashboardView::capture(s.orchestrator()).render();
        let monitoring: Vec<String> = s
            .orchestrator()
            .monitoring()
            .iter()
            .map(|r| serde_json::to_string(r).unwrap())
            .collect();
        ovnes_sim::par::set_thread_override(None);
        (summary, dashboard, monitoring)
    };
    let serial = run(1);
    assert_eq!(serial, run(2), "2 workers diverged from serial");
    assert_eq!(serial, run(8), "8 workers diverged from serial");
}

#[test]
fn route_cache_is_invisible_in_results() {
    // The transport route cache is a pure memoization: one seed, one
    // output, cache on (the default) or off. Compare the summary, the
    // rendered dashboard, and the byte-exact JSON of every monitoring
    // report — cache hit/miss counters deliberately live outside the
    // metric registry so they cannot leak into any of these.
    let run = |cached: bool| {
        let mut s = DemoScenario::build(config(777));
        s.orchestrator_mut()
            .transport_mut()
            .set_route_cache_enabled(cached);
        let summary = s.run();
        let dashboard = DashboardView::capture(s.orchestrator()).render();
        let monitoring: Vec<String> = s
            .orchestrator()
            .monitoring()
            .iter()
            .map(|r| serde_json::to_string(r).unwrap())
            .collect();
        let stats = s.orchestrator().transport().route_cache().stats();
        (summary, dashboard, monitoring, stats)
    };
    let (summary_on, dash_on, mon_on, stats_on) = run(true);
    let (summary_off, dash_off, mon_off, stats_off) = run(false);
    assert_eq!(summary_on, summary_off, "summary moved with the cache");
    assert_eq!(dash_on, dash_off, "dashboard moved with the cache");
    assert_eq!(mon_on, mon_off, "monitoring JSON moved with the cache");
    // And the comparison was real: the cached run answered queries.
    assert!(stats_on.misses > 0, "cached run never consulted the cache");
    assert_eq!(
        stats_off.hits + stats_off.misses,
        0,
        "disabled cache must stay cold"
    );
}

#[test]
fn rolling_aggregates_match_scan_reference() {
    // Every TimeSeries keeps O(1) rolling aggregates; the full-scan
    // reference implementations stay in the tree as oracles. After a real
    // scenario, both views must agree bit-for-bit on every series in every
    // domain registry and every per-slice timeline.
    let mut s = DemoScenario::build(config(888));
    s.run();
    let orch = s.orchestrator();
    let mut checked = 0usize;
    let mut check = |name: &str, series: &ovnes_sim::TimeSeries| {
        assert_eq!(
            series.mean().map(f64::to_bits),
            series.scan_mean().map(f64::to_bits),
            "{name} mean"
        );
        assert_eq!(
            series.max().map(f64::to_bits),
            series.scan_max().map(f64::to_bits),
            "{name} max"
        );
        assert_eq!(
            series.min().map(f64::to_bits),
            series.scan_min().map(f64::to_bits),
            "{name} min"
        );
        assert_eq!(
            series.time_weighted_mean().map(f64::to_bits),
            series.scan_time_weighted_mean().map(f64::to_bits),
            "{name} time_weighted_mean"
        );
        checked += 1;
    };
    for registry in [
        orch.metrics(),
        orch.ran().metrics(),
        orch.transport().metrics(),
        orch.cloud().metrics(),
    ] {
        for name in registry.names() {
            if let Some(series) = registry.series_ref(&name) {
                check(&name, series);
            }
        }
    }
    let ids: Vec<_> = orch.records().map(|r| r.id).collect();
    for id in ids {
        if let Some(timeline) = orch.timeline(id) {
            check(&format!("{id} offered"), &timeline.offered);
            check(&format!("{id} delivered"), &timeline.delivered);
            check(&format!("{id} latency"), &timeline.latency);
        }
    }
    assert!(checked > 10, "expected a populated scenario, saw {checked}");
}

#[test]
fn restored_world_matches_uninterrupted_under_combined_chaos() {
    // The acceptance contract under the worst conditions: control-plane
    // faults AND substrate outages active, snapshot taken at an epoch drawn
    // from a seed (so reruns stay reproducible but the cut point is not
    // hand-picked), the live world dropped, and the restored world must
    // still finish with the identical summary, dashboard, and monitoring
    // JSON.
    let plan = || {
        FaultPlan::new(4242)
            .with_endpoint("ran/health", EndpointFaults::none().with_drop(0.25))
            .with_endpoint("transport/health", EndpointFaults::none().with_error(0.15))
    };
    let build = || {
        let mut s = chaos(config(321), plan());
        s.orchestrator_mut()
            .set_substrate_plan(stormy_substrate_plan(17));
        s
    };
    let (reference, ref_dash, ref_monitoring) = {
        let mut s = build();
        s.run();
        let summary = s.chaos_summary();
        let dash = DashboardView::capture(s.orchestrator()).render();
        let monitoring: Vec<String> = s
            .orchestrator()
            .monitoring()
            .iter()
            .map(|r| serde_json::to_string(r).unwrap())
            .collect();
        (summary, dash, monitoring)
    };

    let mut epoch_rng = SimRng::seed_from(0xE16);
    let cut = 1 + (epoch_rng.uniform_range(0.0, 1.0) * 40.0) as usize;
    let mut live = build();
    for _ in 0..cut {
        assert!(live.step_epoch());
    }
    let world = WorldSnapshot::open(scratch("combined-chaos")).unwrap();
    world.snapshot(&live.export_state()).unwrap();
    drop(live); // only the on-disk snapshot survives the "kill"

    let (epoch, state) = world.restore_latest().unwrap().unwrap();
    assert_eq!(epoch as usize, cut);
    let mut resumed = DemoScenario::from_state(&state);
    resumed.run();
    assert_eq!(
        resumed.chaos_summary(),
        reference,
        "summary diverged after restore"
    );
    assert_eq!(
        DashboardView::capture(resumed.orchestrator()).render(),
        ref_dash,
        "dashboard diverged after restore"
    );
    let monitoring: Vec<String> = resumed
        .orchestrator()
        .monitoring()
        .iter()
        .map(|r| serde_json::to_string(r).unwrap())
        .collect();
    assert_eq!(
        monitoring, ref_monitoring,
        "monitoring diverged after restore"
    );
    // Both fault families actually bit.
    assert!(reference.control_retries > 0, "{reference:?}");
}

#[test]
fn restored_substrate_run_matches_final_substrate_summary() {
    // Satellite of the same contract for physical faults: the
    // SubstrateSummary (repair-pipeline counters included) of a restored
    // run equals the uninterrupted one.
    let reference = {
        let mut s = substrate(config(606), stormy_substrate_plan(17));
        s.run();
        s.substrate_summary()
    };
    let mut live = substrate(config(606), stormy_substrate_plan(17));
    for _ in 0..33 {
        assert!(live.step_epoch());
    }
    let world = WorldSnapshot::open(scratch("substrate")).unwrap();
    world.snapshot(&live.export_state()).unwrap();
    drop(live);
    let (_, state) = world.restore_latest().unwrap().unwrap();
    let mut resumed = DemoScenario::from_state(&state);
    resumed.run();
    let summary = resumed.substrate_summary();
    assert_eq!(summary, reference);
    assert!(summary.element_failures > 0, "{summary:?}");
}

#[test]
fn restored_world_is_worker_count_invariant() {
    // restore(snapshot(a)).run(..b) must equal run(a..b) whatever the
    // worker count: resume the same snapshot under 1, 2, and 8 workers and
    // compare against the uninterrupted serial run.
    let (reference, ref_monitoring) = {
        ovnes_sim::par::set_thread_override(Some(1));
        let mut s = DemoScenario::build(config(2024));
        let summary = s.run();
        let monitoring: Vec<String> = s
            .orchestrator()
            .monitoring()
            .iter()
            .map(|r| serde_json::to_string(r).unwrap())
            .collect();
        ovnes_sim::par::set_thread_override(None);
        (summary, monitoring)
    };

    let mut live = DemoScenario::build(config(2024));
    for _ in 0..19 {
        assert!(live.step_epoch());
    }
    let world = WorldSnapshot::open(scratch("workers")).unwrap();
    world.snapshot(&live.export_state()).unwrap();
    drop(live);

    for threads in [1usize, 2, 8] {
        ovnes_sim::par::set_thread_override(Some(threads));
        let (_, state) = world.restore_latest().unwrap().unwrap();
        let mut resumed = DemoScenario::from_state(&state);
        let summary = resumed.run();
        let monitoring: Vec<String> = resumed
            .orchestrator()
            .monitoring()
            .iter()
            .map(|r| serde_json::to_string(r).unwrap())
            .collect();
        ovnes_sim::par::set_thread_override(None);
        assert_eq!(
            summary, reference,
            "{threads} workers diverged after restore"
        );
        assert_eq!(
            monitoring, ref_monitoring,
            "{threads}-worker monitoring diverged after restore"
        );
    }
}

#[test]
fn monitoring_reports_are_reproducible_across_the_wire() {
    // The REST/JSON boundary must not introduce nondeterminism (e.g. map
    // ordering): reports from identical runs must be byte-identical JSON.
    let reports = |seed| {
        let mut s = DemoScenario::build(config(seed));
        s.run();
        s.orchestrator()
            .monitoring()
            .iter()
            .map(|r| serde_json::to_string(r).unwrap())
            .collect::<Vec<_>>()
    };
    assert_eq!(reports(5), reports(5));
}
