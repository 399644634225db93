//! Integration: the chaos suite. A deterministic fault plan — drops, 5xx,
//! delays, corruption, and a scheduled controller outage — is injected into
//! the control plane of a full demo run. The orchestrator must survive
//! (no panics), keep serving slices (a control-plane fault is not a
//! data-plane outage), surface the fallout in its counters, and reproduce
//! the whole run bit-for-bit under the same seeds.

use ovnes_api::{EndpointFaults, FaultPlan, SubstrateElement, SubstrateFaultPlan};
use ovnes_dashboard::DashboardView;
use ovnes_model::{DcId, EnbId, HostId, LinkId, SwitchId};
use ovnes_orchestrator::{ChaosSummary, DemoScenario, ScenarioConfig, SliceState};
use ovnes_sim::{SimDuration, SimTime};

fn config(seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        seed,
        arrivals_per_hour: 25.0,
        horizon: SimDuration::from_hours(4),
        mean_duration: SimDuration::from_mins(60),
        ..ScenarioConfig::default()
    }
}

/// The acceptance plan: ≤0.3 drop probability on every health probe, some
/// transient 5xx and delay noise, response corruption on one monitoring
/// endpoint, and the transport controller dark for minutes [60, 90).
fn plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with_endpoint("ran/health", EndpointFaults::none().with_drop(0.3))
        .with_endpoint(
            "transport/health",
            EndpointFaults::none()
                .with_drop(0.2)
                .with_error(0.1)
                .with_outage(
                    SimTime::ZERO + SimDuration::from_mins(60),
                    SimTime::ZERO + SimDuration::from_mins(90),
                ),
        )
        .with_endpoint(
            "cloud/health",
            EndpointFaults::none().with_delay(0.2, SimDuration::from_millis(150)),
        )
        .with_endpoint(
            "cloud/monitoring",
            EndpointFaults::none().with_corrupt(0.2),
        )
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

fn run(seed: u64) -> (ChaosSummary, String) {
    let mut s = chaos(config(seed), plan(seed ^ 0xFA11));
    s.run();
    let summary = s.chaos_summary();
    let dashboard = DashboardView::capture(s.orchestrator()).render();
    (summary, dashboard)
}

#[test]
fn chaos_run_survives_and_serves() {
    let mut s = chaos(config(31), plan(31));
    s.run();
    let summary = s.chaos_summary();

    // The run completed (we got here) and slices were admitted and served.
    assert!(summary.demo.admitted > 0, "{summary:?}");
    assert!(summary.demo.slice_epochs > 0);
    // Slices reached Active: some have completed full lifetimes, and the
    // dashboard's state counts confirm activations happened.
    assert!(summary.demo.expired > 0, "slices lived through the chaos");
    let activated = s
        .orchestrator()
        .records()
        .filter(|r| r.active_at.is_some())
        .count();
    assert!(activated > 0, "slices reached Active under faults");
    // Degradations only ever happen through the Active state, so every
    // restoration is matched by an earlier degradation.
    assert!(summary.restorations <= summary.degradations);
    // Terminal states stayed clean: nothing ended in Degraded limbo.
    for r in s.orchestrator().records() {
        if r.state == SliceState::Degraded {
            // Legal only while a probe is failing at the horizon; a slice
            // stuck here must still carry its placement (serving).
            assert!(s.orchestrator().placement(r.id).is_some());
        }
    }
}

#[test]
fn chaos_counters_match_the_plan() {
    let mut s = chaos(config(32), plan(32));
    s.run();
    let summary = s.chaos_summary();

    // Drops/errors at these rates must provoke retries but, outside the
    // outage, almost never exhaust them.
    assert!(summary.control_retries > 0, "{summary:?}");
    // The scheduled outage forces probe failures and degradations...
    assert!(summary.control_failures > 0);
    assert!(summary.degradations > 0);
    // ...and recovery restores every degraded slice that didn't expire.
    assert!(summary.restorations > 0);

    // The injector's own accounting agrees: the outage endpoint rejected
    // calls, the noisy endpoints injected faults.
    let stats = s.orchestrator().control().fault_stats().expect("plan installed");
    assert!(stats["transport/health"].outage_rejections > 0);
    assert!(stats["ran/health"].drops > 0);
    assert!(stats["cloud/health"].delays > 0);
    assert!(stats["cloud/monitoring"].corruptions > 0);
}

#[test]
fn chaos_runs_are_bit_for_bit_reproducible() {
    let (summary_a, dash_a) = run(33);
    let (summary_b, dash_b) = run(33);
    assert_eq!(summary_a, summary_b);
    assert_eq!(dash_a, dash_b);
}

#[test]
fn chaos_dashboard_shows_control_plane_fallout() {
    let (_, dashboard) = run(34);
    assert!(dashboard.contains("CONTROL PLANE"), "{dashboard}");
    assert!(dashboard.contains("fault plan: seed"));
    // The events feed narrates the outage and the recovery.
    // (Events roll over, so check the cumulative counters instead.)
    assert!(dashboard.contains("retries"));
}

// ---- substrate faults: physical elements die, the pipeline self-heals ----

fn minutes(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_mins(n)
}

/// The substrate acceptance plan: one cell dark for half an hour, the
/// single agg→core fiber cut (no alternative path — forced degradations),
/// a core host crash, and a whole switch outage late in the run. Every
/// window closes before the 4 h horizon.
fn substrate_plan(seed: u64) -> SubstrateFaultPlan {
    SubstrateFaultPlan::new(seed)
        .with_outage(SubstrateElement::Cell(EnbId::new(0)), minutes(40), minutes(70))
        .with_outage(SubstrateElement::Link(LinkId::new(6)), minutes(100), minutes(125))
        .with_outage(
            SubstrateElement::Host(DcId::new(1), HostId::new(0)),
            minutes(140),
            minutes(160),
        )
        .with_outage(
            SubstrateElement::Switch(SwitchId::new(1)),
            minutes(180),
            minutes(200),
        )
}

#[test]
fn substrate_faults_survive_and_account() {
    let mut s = substrate(config(41), substrate_plan(41));
    s.run();
    let summary = s.substrate_summary();

    // The run completed and kept serving through four element outages.
    assert!(summary.demo.admitted > 0, "{summary:?}");
    assert_eq!(summary.element_failures, 4, "{summary:?}");
    assert_eq!(summary.element_recoveries, 4, "{summary:?}");
    // The pipeline acted: repairs landed and/or degradations were booked.
    assert!(
        summary.reroutes + summary.reattaches + summary.replacements + summary.degraded > 0,
        "{summary:?}"
    );
    // Every degradation was eventually repaired or restored; with all
    // elements back up, nothing is left in substrate limbo.
    assert_eq!(s.orchestrator().substrate_down().len(), 0);
    assert_eq!(s.orchestrator().substrate_degraded().len(), 0);

    // No silent reservations: every Active slice sits on live elements
    // only, and every substrate-degraded epoch paid its penalty.
    let o = s.orchestrator();
    for r in o.records().filter(|r| r.state == SliceState::Active) {
        if let Some(enb) = o.ran().placement(r.id) {
            assert!(o.ran().cell_is_up(enb), "{} active on a dead cell", r.id);
        }
        if let Some(res) = o.transport().reservation(r.id) {
            for &link in &res.path.links {
                assert!(o.transport().link_is_up(link), "{} active on dead {link}", r.id);
            }
        }
    }
    if summary.degraded > 0 {
        let violated: u64 = o.records().map(|r| r.epochs_violated).sum();
        assert!(violated > 0, "degradations booked no penalty epochs");
    }
}

#[test]
fn substrate_runs_are_bit_for_bit_reproducible() {
    let run = || {
        let mut s = substrate(config(42), substrate_plan(4242));
        s.run();
        let summary = s.substrate_summary();
        let dashboard = DashboardView::capture(s.orchestrator()).render();
        (summary, dashboard)
    };
    let (sa, da) = run();
    let (sb, db) = run();
    assert_eq!(sa, sb);
    assert_eq!(da, db);
    assert!(sa.element_failures > 0, "the plan must actually bite: {sa:?}");
}

#[test]
fn quiet_substrate_plan_is_a_no_op_end_to_end() {
    let plain = {
        let mut s = DemoScenario::build(config(43));
        let summary = s.run();
        (summary, DashboardView::capture(s.orchestrator()).render())
    };
    let quiet = {
        let mut s = substrate(config(43), SubstrateFaultPlan::new(5678));
        s.run();
        let summary = s.substrate_summary();
        (summary.demo.clone(), DashboardView::capture(s.orchestrator()).render())
    };
    assert_eq!(plain.0, quiet.0);
    // Dashboards differ only in the substrate-plan footer line.
    let strip = |s: &str| {
        s.lines()
            .filter(|l| !l.contains("substrate plan") && !l.contains("no substrate plan"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(strip(&plain.1), strip(&quiet.1));
}

#[test]
fn combined_control_and_substrate_chaos_is_survivable_and_reproducible() {
    // Control-plane faults and substrate faults at once: the restore path
    // must wait for domain connectivity, the repair path keeps working, and
    // the whole thing stays deterministic.
    let run = || {
        let mut s = chaos(config(44), plan(44));
        s.orchestrator_mut().set_substrate_plan(substrate_plan(44));
        s.run();
        let summary = s.chaos_summary();
        let dashboard = DashboardView::capture(s.orchestrator()).render();
        (summary, dashboard)
    };
    let (sa, da) = run();
    let (sb, db) = run();
    assert_eq!(sa, sb);
    assert_eq!(da, db);
    assert!(sa.demo.admitted > 0, "{sa:?}");
    assert!(sa.control_retries > 0, "{sa:?}");
}

#[test]
fn empty_plan_is_a_no_op_end_to_end() {
    let plain = {
        let mut s = DemoScenario::build(config(35));
        let summary = s.run();
        (summary, DashboardView::capture(s.orchestrator()).render())
    };
    let quiet = {
        let mut s = chaos(config(35), FaultPlan::new(1234));
        s.run();
        let summary = s.chaos_summary();
        (summary.demo.clone(), DashboardView::capture(s.orchestrator()).render())
    };
    assert_eq!(plain.0, quiet.0);
    // Dashboards differ only in the fault-plan footer line.
    let strip = |s: &str| {
        s.lines()
            .filter(|l| !l.contains("fault plan") && !l.contains("no fault plan"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(strip(&plain.1), strip(&quiet.1));
}
