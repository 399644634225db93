//! E14 — substrate faults and the self-healing pipeline.
//!
//! The demo's failure story: physical elements — transport links, switches,
//! cells, compute hosts — go down on a seeded schedule, and the
//! orchestrator's per-epoch recovery loop detects, reroutes, re-attaches,
//! re-places, and (when nothing works) degrades slices and books the SLA
//! penalty. This harness sweeps the element failure rate and measures:
//!
//! * **availability** — per-slice mean/worst availability vs. failure rate.
//! * **time-to-repair** — mean/p95/max of the repair-loop latency, from the
//!   `substrate.time_to_repair` series.
//! * **gain vs. penalty** — how the overbooking upside erodes as faults book
//!   degraded-epoch penalties.
//! * **no silent reservations** — after every run, no `Active` slice holds
//!   a reservation on a dead link, a dead cell, or a degraded stack
//!   (asserted; the visible exception path is `Degraded`).
//! * **determinism** — the matrix's stormy substrate cell repeated at 1/2/8
//!   workers and with the route cache on/off (`identity::observe`) must be
//!   byte-identical: summary, monitoring JSON, and the rendered dashboard.
//!
//! Results land in `BENCH_e14.json` at the working directory (the repo root
//! in CI, which archives it alongside `BENCH_e13.json`).
//!
//! `--smoke` shrinks the sweep to CI size; every assertion still runs.

use ovnes_api::{SubstrateElement, SubstrateFaultPlan};
use ovnes_bench::identity::{observe, Cell, Perturbation};
use ovnes_bench::{
    assert_no_silent_reservations, percentile, report_header, report_kv, report_results,
};
use ovnes_model::{DcId, EnbId, HostId, LinkId, SwitchId};
use ovnes_orchestrator::{DemoScenario, ScenarioConfig, SubstrateSummary};
use ovnes_sim::SimDuration;

struct Shape {
    rates: &'static [f64],
    horizon_hours: u64,
    arrivals_per_hour: f64,
    mean_repair_mins: u64,
    identity_minutes: u64,
    identity_threads: &'static [usize],
}

const FULL: Shape = Shape {
    rates: &[0.0, 0.25, 0.5, 1.0, 2.0],
    horizon_hours: 6,
    arrivals_per_hour: 20.0,
    mean_repair_mins: 15,
    identity_minutes: 120,
    identity_threads: &[1, 2, 8],
};

const SMOKE: Shape = Shape {
    rates: &[0.0, 1.0],
    horizon_hours: 2,
    arrivals_per_hour: 20.0,
    mean_repair_mins: 10,
    identity_minutes: 45,
    identity_threads: &[1, 2, 8],
};

/// Every failable element of the Fig. 2 testbed: all seven links, both
/// switches, both cells, and a few hosts in each DC.
fn testbed_elements() -> Vec<SubstrateElement> {
    let mut elements: Vec<SubstrateElement> = (0..7)
        .map(|l| SubstrateElement::Link(LinkId::new(l)))
        .collect();
    elements.extend((0..2).map(|s| SubstrateElement::Switch(SwitchId::new(s))));
    elements.extend((0..2).map(|e| SubstrateElement::Cell(EnbId::new(e))));
    elements.extend((0..2).map(|h| SubstrateElement::Host(DcId::new(0), HostId::new(h))));
    elements.extend((0..4).map(|h| SubstrateElement::Host(DcId::new(1), HostId::new(h))));
    elements
}

fn config(shape: &Shape, horizon: SimDuration) -> ScenarioConfig {
    ScenarioConfig {
        seed: 1414,
        arrivals_per_hour: shape.arrivals_per_hour,
        horizon,
        mean_duration: SimDuration::from_mins(60),
        ..ScenarioConfig::default()
    }
}

fn plan_for(shape: &Shape, rate: f64, horizon: SimDuration) -> SubstrateFaultPlan {
    SubstrateFaultPlan::new(1400).with_random_outages(
        &testbed_elements(),
        rate,
        SimDuration::from_mins(shape.mean_repair_mins),
        horizon,
    )
}

struct RateRow {
    summary: SubstrateSummary,
    mean_availability: f64,
    worst_availability: f64,
    ttr_count: usize,
    ttr_mean: f64,
    ttr_p95: f64,
    ttr_max: f64,
}

fn sweep_rate(shape: &Shape, rate: f64) -> RateRow {
    let horizon = SimDuration::from_hours(shape.horizon_hours);
    let mut s = DemoScenario::build(config(shape, horizon));
    s.orchestrator_mut()
        .set_substrate_plan(plan_for(shape, rate, horizon));
    s.run();
    let summary = s.substrate_summary();
    let o = s.orchestrator();
    assert_no_silent_reservations(o);

    let availabilities: Vec<f64> = o
        .records()
        .filter(|r| r.epochs_active > 0)
        .map(|r| r.availability())
        .collect();
    let mean_availability = if availabilities.is_empty() {
        1.0
    } else {
        availabilities.iter().sum::<f64>() / availabilities.len() as f64
    };
    let worst_availability = availabilities.iter().copied().fold(1.0, f64::min);

    let mut ttr: Vec<f64> = o
        .metrics()
        .series_ref("substrate.time_to_repair")
        .map(|s| s.values())
        .unwrap_or_default();
    ttr.sort_by(|a, b| a.partial_cmp(b).expect("repair times are finite"));
    let ttr_count = ttr.len();
    let ttr_mean = if ttr.is_empty() {
        0.0
    } else {
        ttr.iter().sum::<f64>() / ttr.len() as f64
    };
    let ttr_p95 = percentile(&ttr, 95.0);
    let ttr_max = ttr.last().copied().unwrap_or(0.0);

    RateRow {
        summary,
        mean_availability,
        worst_availability,
        ttr_count,
        ttr_mean,
        ttr_p95,
        ttr_max,
    }
}

/// One stormy configuration at several worker counts, route cache on and
/// off: the summary, the monitoring JSON, and the dashboard must all be
/// byte-identical.
fn identity_check(shape: &Shape) {
    let stormy = Cell {
        seed: 1414,
        arrivals_per_hour: shape.arrivals_per_hour,
        mean_duration_mins: 60,
        horizon_mins: shape.identity_minutes,
        perturbation: Perturbation::Substrate,
        workers: shape.identity_threads[0],
        ..Cell::CALM
    };
    let (baseline, witness) = observe(&stormy);
    assert!(
        witness.element_failures > 0,
        "the storm never bit: {witness:?}"
    );
    for &workers in &shape.identity_threads[1..] {
        assert_eq!(
            baseline.first_difference(&observe(&Cell { workers, ..stormy }).0),
            None,
            "substrate run moved with the worker count ({workers})"
        );
    }
    let uncached = Cell {
        route_cache: false,
        ..stormy
    };
    assert_eq!(
        baseline.first_difference(&observe(&uncached).0),
        None,
        "substrate run moved with the route cache"
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let shape = if smoke { &SMOKE } else { &FULL };
    report_header(
        "E14",
        "substrate faults and self-healing",
        "availability, time-to-repair, and gain-vs-penalty across element failure rates",
    );
    let mut results: Vec<(&str, String)> = Vec::new();

    println!();
    println!(
        "{:<10} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10} {:>10} {:>12} {:>12}",
        "rate/h", "failures", "reroutes", "reattach", "replace", "degraded", "avail", "worst",
        "ttr p95 s", "net",
    );
    for (i, &rate) in shape.rates.iter().enumerate() {
        let row = sweep_rate(shape, rate);
        println!(
            "{:<10} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9.1}% {:>9.1}% {:>12.0} {:>12}",
            format!("{rate:.2}"),
            row.summary.element_failures,
            row.summary.reroutes,
            row.summary.reattaches,
            row.summary.replacements,
            row.summary.degraded,
            row.mean_availability * 100.0,
            row.worst_availability * 100.0,
            row.ttr_p95,
            row.summary.demo.net_revenue,
        );
        if rate == 0.0 {
            assert_eq!(row.summary.element_failures, 0, "quiet plan injected faults");
            assert_eq!(row.summary.degraded, 0);
        } else {
            assert!(
                row.summary.element_failures > 0,
                "rate {rate}/h never fired on {} elements",
                testbed_elements().len()
            );
            // Every impacted slice left a trace: a repair action, a
            // degraded booking, or both.
            assert!(
                row.summary.reroutes
                    + row.summary.reattaches
                    + row.summary.replacements
                    + row.summary.degraded
                    > 0,
                "faults fired but the pipeline did nothing: {:?}",
                row.summary
            );
        }
        // Stable keys per sweep position, with the rate itself recorded.
        let key = |suffix: &str| -> &'static str {
            let name = format!("rate{i}_{suffix}");
            Box::leak(name.into_boxed_str())
        };
        results.push((key("failures_per_hour"), format!("{rate}")));
        results.push((key("element_failures"), row.summary.element_failures.to_string()));
        results.push((key("element_recoveries"), row.summary.element_recoveries.to_string()));
        results.push((key("reroutes"), row.summary.reroutes.to_string()));
        results.push((key("reattaches"), row.summary.reattaches.to_string()));
        results.push((key("replacements"), row.summary.replacements.to_string()));
        results.push((key("degraded"), row.summary.degraded.to_string()));
        results.push((key("repaired"), row.summary.repaired.to_string()));
        results.push((key("restored"), row.summary.restored.to_string()));
        results.push((key("mean_availability"), format!("{:.6}", row.mean_availability)));
        results.push((key("worst_availability"), format!("{:.6}", row.worst_availability)));
        results.push((key("ttr_count"), row.ttr_count.to_string()));
        results.push((key("ttr_mean_s"), format!("{:.3}", row.ttr_mean)));
        results.push((key("ttr_p95_s"), format!("{:.3}", row.ttr_p95)));
        results.push((key("ttr_max_s"), format!("{:.3}", row.ttr_max)));
        results.push((key("gross_income"), format!("{:.2}", row.summary.demo.gross_income.as_f64())));
        results.push((key("penalties"), format!("{:.2}", row.summary.demo.penalties.as_f64())));
        results.push((key("net_revenue"), format!("{:.2}", row.summary.demo.net_revenue.as_f64())));
        results.push((key("mean_savings"), format!("{:.4}", row.summary.demo.mean_savings)));
        results.push((key("admitted"), row.summary.demo.admitted.to_string()));
    }

    identity_check(shape);
    println!();
    report_kv(&[
        (
            "determinism",
            format!(
                "byte-identical at {:?} workers (asserted)",
                shape.identity_threads
            ),
        ),
        ("silent reservations", "none at any rate (asserted)".into()),
    ]);
    results.push(("identity_across_workers", "true".into()));

    report_results("e14", smoke, &results);
}
