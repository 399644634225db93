//! The four workloads and what they share: the run summary, the sim-side
//! counts, and the per-epoch bookkeeping the harness does between timed
//! iterations.

pub mod admit_churn;
pub mod fed_checkpoint;
pub mod socket_faults;
pub mod ue_dense;

use crate::harness::{Op, Rep};
use ovnes_model::Money;
use ovnes_orchestrator::{EpochReport, Orchestrator, RequestGenerator, SliceState};
use ovnes_sim::{MetricRegistry, SimTime};
use serde::Serialize;
use std::collections::BTreeMap;

/// What the dashboard would have shown at the end of the run. Sim-side
/// only, so it repeats bit-for-bit for a seed and feeds the digest.
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct Summary {
    pub submitted: u64,
    pub admitted: u64,
    pub rejected: u64,
    pub epochs: u64,
    pub slice_epochs: u64,
    pub violations: u64,
    pub active_sum: u64,
    pub reconfigured: u64,
    pub degraded: u64,
    pub restored: u64,
    pub control_failures: u64,
    pub savings_sum: f64,
    pub overbooking_sum: f64,
    pub expired: u64,
    pub gross_income: Money,
    pub penalties: Money,
    pub net_revenue: Money,
}

impl Summary {
    pub fn submitted(&mut self, admitted: bool) {
        self.submitted += 1;
        if admitted {
            self.admitted += 1;
        } else {
            self.rejected += 1;
        }
    }

    pub fn fold(&mut self, report: &EpochReport) {
        self.epochs += 1;
        self.slice_epochs += report.verdicts.len() as u64;
        self.violations += report.verdicts.iter().filter(|v| !v.met).count() as u64;
        self.active_sum += report.active as u64;
        self.reconfigured += report.reconfigured as u64;
        self.degraded += report.degraded.len() as u64;
        self.restored += report.restored.len() as u64;
        self.control_failures += report.control_failures;
        self.savings_sum += report.gain.savings_fraction;
        self.overbooking_sum += report.gain.overbooking_factor;
    }

    pub fn close(&mut self, orchestrator: &Orchestrator) {
        let ledger = orchestrator.ledger();
        self.expired = orchestrator.count_in_state(SliceState::Expired) as u64;
        self.gross_income = ledger.gross_income();
        self.penalties = ledger.total_penalties();
        self.net_revenue = ledger.net();
    }
}

/// The harness's request stream: Poisson arrivals in sim time, submitted
/// closed-loop (each `submit` is issued when the previous one returned).
pub struct Arrivals {
    generator: RequestGenerator,
    per_hour: f64,
    next: SimTime,
}

impl Arrivals {
    pub fn new(mut generator: RequestGenerator, per_hour: f64) -> Arrivals {
        let next = SimTime::ZERO + generator.next_interarrival(per_hour);
        Arrivals {
            generator,
            per_hour,
            next,
        }
    }

    /// Submit every request due by `now`, each timed; returns how many were
    /// submitted and how many of them admitted.
    pub fn deliver(
        &mut self,
        rep: &mut Rep<'_>,
        orchestrator: &mut Orchestrator,
        summary: &mut Summary,
        now: SimTime,
    ) -> (u64, u64) {
        let (mut submitted, mut admitted) = (0, 0);
        while self.next <= now {
            let request = self.generator.generate();
            let at = self.next;
            let ok = rep
                .timed(Op::Submit, || orchestrator.submit(at, request))
                .is_ok();
            summary.submitted(ok);
            submitted += 1;
            admitted += ok as u64;
            self.next += self.generator.next_interarrival(self.per_hour);
        }
        (submitted, admitted)
    }
}

/// Between two timed iterations: fold the epoch into the summary and the
/// digest, and apply the checks every epoch must pass. These workloads run a
/// calm control plane, so a control-plane failure is a failed operation.
pub fn after_epoch(
    rep: &mut Rep<'_>,
    summary: &mut Summary,
    orchestrator: &Orchestrator,
    report: &EpochReport,
) {
    summary.fold(report);
    rep.digest_json(&orchestrator.monitoring());
    if report.control_failures > 0 {
        rep.fail(format!(
            "epoch at {}: {} control-plane call(s) failed on a calm control plane",
            report.now, report.control_failures
        ));
    }
}

const COUNTERS: [(&str, &str); 11] = [
    ("core.submitted", "orchestrator.submitted"),
    ("core.admitted", "orchestrator.admitted"),
    ("core.rejected_policy", "orchestrator.rejected_policy"),
    ("core.rejected_resources", "orchestrator.rejected_resources"),
    ("core.reconfigurations", "orchestrator.reconfigurations"),
    ("core.degraded", "orchestrator.degraded"),
    ("core.restored", "orchestrator.restored"),
    ("control.calls", "control.calls"),
    ("control.retries", "control.retries"),
    ("control.failures", "control.failures"),
    ("transport.reroutes", "orchestrator.weather_reroutes"),
];

fn counter(registry: &MetricRegistry, name: &str) -> f64 {
    registry.counter_value(name).unwrap_or(0) as f64
}

/// The sim-side counts of one orchestrator, added into `counts` (so a
/// federation sums its regions).
pub fn add_counts(counts: &mut BTreeMap<String, f64>, orchestrator: &Orchestrator) {
    let metrics = orchestrator.metrics();
    for (name, source) in COUNTERS {
        *counts.entry(name.into()).or_insert(0.0) += counter(metrics, source);
    }
    let mut add = |name: &str, value: f64| *counts.entry(name.into()).or_insert(0.0) += value;
    add("transport.reroutes", counter(metrics, "substrate.reroutes"));
    add(
        "cloud.redeploys",
        counter(metrics, "substrate.replacements"),
    );
    add("sim.event_log_len", orchestrator.events().len() as f64);
    let active = orchestrator.count_in_state(SliceState::Active)
        + orchestrator.count_in_state(SliceState::Degraded);
    add("ran.slices_active", active as f64);
    let ues: usize = orchestrator
        .records()
        .filter(|r| matches!(r.state, SliceState::Active | SliceState::Degraded))
        .map(|r| orchestrator.ue_count(r.id))
        .sum();
    add("ran.ues_attached", ues as f64);
    add(
        "cloud.stacks_live",
        orchestrator
            .records()
            .filter(|r| orchestrator.cloud().stack_for_slice(r.id).is_some())
            .count() as f64,
    );
    let cache = orchestrator.transport().route_cache().stats();
    add("transport.route_cache_hits", cache.hits as f64);
    add(
        "transport.route_cache_lookups",
        (cache.hits + cache.misses) as f64,
    );
}

/// Counts that describe a run rather than one orchestrator.
pub fn close_counts(counts: &mut BTreeMap<String, f64>, summary: &Summary) {
    counts.insert("core.slice_epochs".into(), summary.slice_epochs as f64);
    counts.insert("core.violations".into(), summary.violations as f64);
    let lookups = counts
        .remove("transport.route_cache_lookups")
        .unwrap_or(0.0);
    let hits = counts.remove("transport.route_cache_hits").unwrap_or(0.0);
    let rate = if lookups > 0.0 { hits / lookups } else { 0.0 };
    counts.insert("transport.route_cache_hit_rate".into(), rate);
}

/// Output check 4: the program's books balance, agree with what the harness
/// saw, and the run did real work. `counts` are the orchestrators' own
/// counters ([`add_counts`]); `foreign_offers` is how many of their submits
/// the harness did not make itself (a federation offers a request its home
/// rejected to the other regions).
pub fn check_books(
    rep: &mut Rep<'_>,
    summary: &Summary,
    counts: &BTreeMap<String, f64>,
    foreign_offers: std::ops::RangeInclusive<u64>,
) {
    let count = |name: &str| counts.get(name).copied().unwrap_or(0.0) as u64;
    let submitted = count("core.submitted");
    let admitted = count("core.admitted");
    let rejected = count("core.rejected_policy") + count("core.rejected_resources");
    rep.check(admitted + rejected == submitted, || {
        format!("the program admitted {admitted} + rejected {rejected} != its {submitted} submits")
    });
    rep.check(admitted == summary.admitted, || {
        format!(
            "the program counts {admitted} admissions, the harness saw {}",
            summary.admitted
        )
    });
    let offers = submitted.wrapping_sub(summary.submitted);
    rep.check(foreign_offers.contains(&offers), || {
        format!(
            "the program counts {submitted} submits, the harness made {}: {offers} more, expected {foreign_offers:?}",
            summary.submitted
        )
    });
    rep.check(
        summary.admitted + summary.rejected == summary.submitted,
        || {
            format!(
                "admitted {} + rejected {} != submitted {}",
                summary.admitted, summary.rejected, summary.submitted
            )
        },
    );
    rep.check(summary.slice_epochs > 0, || {
        "no slice was ever observed in an epoch".into()
    });
}
