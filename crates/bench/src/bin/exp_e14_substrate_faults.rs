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
//!
//! That a substrate run is byte-identical across worker counts and with the
//! route cache off is the `substrate-workers-2/8`, `substrate-cache-off` and
//! `fresh-substrate` rows of `tests/identity_matrix.rs`.

use ovnes_api::{SubstrateElement, SubstrateFaultPlan};
use ovnes_bench::{assert_no_silent_reservations, percentile, report_header, report_kv};
use ovnes_model::{DcId, EnbId, HostId, LinkId, SwitchId};
use ovnes_orchestrator::{DemoScenario, ScenarioConfig, SubstrateSummary};
use ovnes_sim::SimDuration;

/// Element failures per hour swept, over 6 h of the Fig. 2 testbed.
const RATES: [f64; 5] = [0.0, 0.25, 0.5, 1.0, 2.0];
const HORIZON_HOURS: u64 = 6;
const MEAN_REPAIR_MINS: u64 = 15;

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

fn config(horizon: SimDuration) -> ScenarioConfig {
    ScenarioConfig {
        seed: 1414,
        arrivals_per_hour: 20.0,
        horizon,
        mean_duration: SimDuration::from_mins(60),
        ..ScenarioConfig::default()
    }
}

fn plan_for(rate: f64, horizon: SimDuration) -> SubstrateFaultPlan {
    SubstrateFaultPlan::new(1400).with_random_outages(
        &testbed_elements(),
        rate,
        SimDuration::from_mins(MEAN_REPAIR_MINS),
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

fn sweep_rate(rate: f64) -> RateRow {
    let horizon = SimDuration::from_hours(HORIZON_HOURS);
    let mut s = DemoScenario::build(config(horizon));
    s.orchestrator_mut()
        .set_substrate_plan(plan_for(rate, horizon));
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

fn main() {
    report_header(
        "E14",
        "substrate faults and self-healing",
        "availability, time-to-repair, and gain-vs-penalty across element failure rates",
    );
    let rows: Vec<(f64, RateRow)> = RATES.iter().map(|&r| (r, sweep_rate(r))).collect();

    println!();
    println!(
        "{:<10} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10} {:>10}",
        "rate/h", "failures", "reroutes", "reattach", "replace", "degraded", "restored", "avail",
        "worst",
    );
    for (rate, row) in &rows {
        println!(
            "{:<10} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9.1}% {:>9.1}%",
            format!("{rate:.2}"),
            row.summary.element_failures,
            row.summary.reroutes,
            row.summary.reattaches,
            row.summary.replacements,
            row.summary.degraded,
            row.summary.restored,
            row.mean_availability * 100.0,
            row.worst_availability * 100.0,
        );
        if *rate == 0.0 {
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
    }

    println!();
    println!(
        "{:<10} {:>7} {:>10} {:>10} {:>10} {:>12} {:>12} {:>12} {:>9}",
        "rate/h", "repairs", "ttr mean s", "ttr p95 s", "ttr max s", "gross", "penalties", "net",
        "savings",
    );
    for (rate, row) in &rows {
        println!(
            "{:<10} {:>7} {:>10.0} {:>10.0} {:>10.0} {:>12} {:>12} {:>12} {:>8.1}%",
            format!("{rate:.2}"),
            row.ttr_count,
            row.ttr_mean,
            row.ttr_p95,
            row.ttr_max,
            row.summary.demo.gross_income.to_string(),
            row.summary.demo.penalties.to_string(),
            row.summary.demo.net_revenue.to_string(),
            row.summary.demo.mean_savings * 100.0,
        );
    }

    println!();
    report_kv(&[("silent reservations", "none at any rate (asserted)".into())]);
}
