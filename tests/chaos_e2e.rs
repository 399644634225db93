//! Integration: the chaos suite. A deterministic fault plan — drops, 5xx,
//! delays, corruption, and a scheduled controller outage — is injected into
//! the control plane of a full demo run. The orchestrator must survive
//! (no panics), keep serving slices (a control-plane fault is not a
//! data-plane outage) and surface the fallout in its counters. That the
//! whole run reproduces bit-for-bit under the same seeds is the
//! `acceptance-*` rows of `tests/identity_matrix.rs`, which run these same
//! plans.

use ovnes_api::{FaultPlan, SubstrateFaultPlan};
use ovnes_bench::identity::{Cell, Perturbation, Plans};
use ovnes_dashboard::DashboardView;
use ovnes_orchestrator::{DemoScenario, Orchestrator, SliceState};

/// The suite's world — 25 arrivals/h of hour-long slices over 4 h — under
/// the acceptance plans at `plan_seed`, built by the identity matrix's own
/// builder so both run the same thing.
fn world(seed: u64, perturbation: Perturbation, plan_seed: u64) -> DemoScenario {
    let plans = Plans::Acceptance(plan_seed, plan_seed);
    let cell = Cell {
        seed,
        mean_duration_mins: 60,
        perturbation,
        plans,
        ..Cell::CALM
    };
    cell.demo()
}

#[test]
fn chaos_run_survives_and_serves() {
    let mut s = world(31, Perturbation::Control, 31);
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
    let mut s = world(32, Perturbation::Control, 32);
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
fn chaos_dashboard_shows_control_plane_fallout() {
    let mut s = world(34, Perturbation::Control, 34 ^ 0xFA11);
    s.run();
    let dashboard = DashboardView::capture(s.orchestrator()).render();
    assert!(dashboard.contains("CONTROL PLANE"), "{dashboard}");
    assert!(dashboard.contains("fault plan: seed"));
    // The events feed narrates the outage and the recovery.
    // (Events roll over, so check the cumulative counters instead.)
    assert!(dashboard.contains("retries"));
}

// ---- substrate faults: physical elements die, the pipeline self-heals ----

#[test]
fn substrate_faults_survive_and_account() {
    let mut s = world(41, Perturbation::Substrate, 41);
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
    ovnes_bench::assert_no_silent_reservations(o);
    if summary.degraded > 0 {
        let violated: u64 = o.records().map(|r| r.epochs_violated).sum();
        assert!(violated > 0, "degradations booked no penalty epochs");
    }
}

/// A quiet plan must change nothing but its own dashboard footer line.
fn assert_quiet_plan_is_a_no_op(seed: u64, footer: &str, install: fn(&mut Orchestrator)) {
    let run = |install: fn(&mut Orchestrator)| {
        let mut s = world(seed, Perturbation::Calm, 0);
        install(s.orchestrator_mut());
        let summary = s.run();
        let dashboard = DashboardView::capture(s.orchestrator()).render();
        let rest: Vec<String> = dashboard
            .lines()
            .filter(|l| !l.contains(footer))
            .map(str::to_owned)
            .collect();
        (summary, rest)
    };
    assert_eq!(run(|_| {}), run(install));
}

#[test]
fn quiet_substrate_plan_is_a_no_op_end_to_end() {
    assert_quiet_plan_is_a_no_op(43, "substrate plan", |o| {
        o.set_substrate_plan(SubstrateFaultPlan::new(5678))
    });
}

#[test]
fn empty_plan_is_a_no_op_end_to_end() {
    assert_quiet_plan_is_a_no_op(35, "fault plan", |o| o.set_fault_plan(FaultPlan::new(1234)));
}
