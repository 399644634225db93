//! SLA monitoring and penalty accounting.
//!
//! Each monitoring epoch, every active slice is judged on what the network
//! delivered against what its SLA commits: throughput (up to the committed
//! rate — a slice offering less traffic than it bought cannot be violated
//! on throughput) and end-to-end latency. Violations book the per-epoch
//! penalty the tenant negotiated on the dashboard; admissions book the
//! price. The resulting [`RevenueLedger`] *is* the demo dashboard's
//! "gains vs. penalties" display.

use crate::lifecycle::SliceRecord;
use ovnes_model::revenue::{RevenueKind, RevenueRecord};
use ovnes_model::{Latency, Money, RateMbps, RevenueLedger, SliceId};
use ovnes_sim::SimTime;
use serde::{Deserialize, Serialize};

/// The per-epoch judgement on one slice.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SlaVerdict {
    /// The slice.
    pub slice: SliceId,
    /// Throughput the slice was entitled to this epoch:
    /// `min(offered, committed)`.
    pub entitled: RateMbps,
    /// Throughput actually delivered.
    pub delivered: RateMbps,
    /// Measured end-to-end latency.
    pub latency: Latency,
    /// Whether the SLA was met.
    pub met: bool,
    /// Human-readable cause when violated.
    pub cause: Option<String>,
}

/// The SLA monitor: assessment rules + the revenue ledger. Plain data, so
/// the monitor is its own checkpoint.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SlaMonitor {
    ledger: RevenueLedger,
    /// Fractional throughput shortfall tolerated before declaring violation
    /// (measurement noise guard).
    tolerance: f64,
}

/// Serializable state of an [`SlaMonitor`]: the monitor itself.
pub type SlaMonitorState = SlaMonitor;

impl Default for SlaMonitor {
    fn default() -> Self {
        Self::new(0.01)
    }
}

impl SlaMonitor {
    /// Monitor tolerating a `tolerance` fractional shortfall (e.g. 0.01 =
    /// deliveries within 1% of entitlement still count as met).
    pub fn new(tolerance: f64) -> SlaMonitor {
        SlaMonitor {
            ledger: RevenueLedger::new(),
            tolerance: tolerance.clamp(0.0, 0.5),
        }
    }

    /// Judge one epoch of one slice.
    ///
    /// * Throughput axis: violated when `delivered < entitled × (1 − tol)`,
    ///   where `entitled = min(offered, committed)`. An idle slice is never
    ///   throughput-violated.
    /// * Latency axis: violated when `latency > max_latency` *and* the
    ///   slice had traffic (latency of an idle slice is vacuous).
    pub fn assess(
        &self,
        record: &SliceRecord,
        offered: RateMbps,
        delivered: RateMbps,
        latency: Latency,
    ) -> SlaVerdict {
        let sla = &record.request.sla;
        let entitled = offered.min(sla.throughput);
        let idle = entitled.value() < 1e-9;
        let tp_ok = idle || delivered.value() >= entitled.value() * (1.0 - self.tolerance);
        let lat_ok = idle || latency.value() <= sla.max_latency.value();
        let cause = match (tp_ok, lat_ok) {
            (true, true) => None,
            (false, true) => Some(format!("throughput {delivered} < entitled {entitled}")),
            (true, false) => Some(format!("latency {latency} > bound {}", sla.max_latency)),
            (false, false) => Some(format!(
                "throughput {delivered} < {entitled} and latency {latency} > {}",
                sla.max_latency
            )),
        };
        SlaVerdict {
            slice: record.id,
            entitled,
            delivered,
            latency,
            met: cause.is_none(),
            cause,
        }
    }

    /// Account one epoch: bump the record's counters and book the penalty
    /// if violated.
    pub fn book_epoch(&mut self, now: SimTime, record: &mut SliceRecord, verdict: &SlaVerdict) {
        debug_assert_eq!(record.id, verdict.slice);
        record.epochs_active += 1;
        if !verdict.met {
            record.epochs_violated += 1;
            self.ledger.book(RevenueRecord {
                at: now,
                slice: record.id,
                tenant: record.request.tenant,
                kind: RevenueKind::SlaPenalty,
                amount: -record.request.penalty,
            });
        }
    }

    /// Book the admission income for a freshly admitted slice.
    pub fn book_admission(&mut self, now: SimTime, record: &SliceRecord) {
        self.ledger.book(RevenueRecord {
            at: now,
            slice: record.id,
            tenant: record.request.tenant,
            kind: RevenueKind::AdmissionIncome,
            amount: record.request.price,
        });
    }

    /// Book a pro-rated refund for a slice the provider terminated early.
    pub fn book_early_termination(
        &mut self,
        now: SimTime,
        record: &SliceRecord,
        unused_fraction: f64,
    ) {
        let refund = record.request.price.scale(unused_fraction.clamp(0.0, 1.0));
        self.ledger.book(RevenueRecord {
            at: now,
            slice: record.id,
            tenant: record.request.tenant,
            kind: RevenueKind::EarlyTerminationRefund,
            amount: -refund,
        });
    }

    /// The gains-vs-penalties ledger.
    pub fn ledger(&self) -> &RevenueLedger {
        &self.ledger
    }

    /// Net revenue so far.
    pub fn net(&self) -> Money {
        self.ledger.net()
    }

    /// The monitor's complete serializable state: a copy of the monitor.
    pub fn export_state(&self) -> SlaMonitorState {
        self.clone()
    }

    /// A monitor rebuilt from [`SlaMonitor::export_state`].
    pub fn from_state(state: &SlaMonitorState) -> SlaMonitor {
        state.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovnes_model::{SliceClass, SliceRequest, TenantId};

    fn record() -> SliceRecord {
        let req = SliceRequest::builder(TenantId::new(1), SliceClass::Embb)
            .throughput(RateMbps::new(50.0))
            .max_latency(Latency::new(20.0))
            .price(Money::from_units(100))
            .penalty(Money::from_units(10))
            .build()
            .unwrap();
        SliceRecord::new(SliceId::new(1), req, SimTime::ZERO)
    }

    fn mbps(v: f64) -> RateMbps {
        RateMbps::new(v)
    }

    #[test]
    fn met_when_delivered_matches_entitled() {
        let m = SlaMonitor::default();
        let r = record();
        let v = m.assess(&r, mbps(30.0), mbps(30.0), Latency::new(10.0));
        assert!(v.met);
        assert_eq!(v.entitled, mbps(30.0));
        assert_eq!(v.cause, None);
    }

    #[test]
    fn entitlement_caps_at_committed_rate() {
        let m = SlaMonitor::default();
        let r = record();
        // Offered 80 exceeds the 50 committed: delivering 50 is enough.
        let v = m.assess(&r, mbps(80.0), mbps(50.0), Latency::new(10.0));
        assert!(v.met);
        assert_eq!(v.entitled, mbps(50.0));
    }

    #[test]
    fn throughput_shortfall_is_violation() {
        let m = SlaMonitor::default();
        let r = record();
        let v = m.assess(&r, mbps(40.0), mbps(30.0), Latency::new(10.0));
        assert!(!v.met);
        assert!(v.cause.unwrap().contains("throughput"));
    }

    #[test]
    fn tolerance_absorbs_measurement_noise() {
        let m = SlaMonitor::new(0.01);
        let r = record();
        // 0.5% short: met. 2% short: violated.
        assert!(m.assess(&r, mbps(40.0), mbps(39.8), Latency::new(10.0)).met);
        assert!(!m.assess(&r, mbps(40.0), mbps(39.2), Latency::new(10.0)).met);
    }

    #[test]
    fn latency_excess_is_violation() {
        let m = SlaMonitor::default();
        let r = record();
        let v = m.assess(&r, mbps(40.0), mbps(40.0), Latency::new(25.0));
        assert!(!v.met);
        assert!(v.cause.unwrap().contains("latency"));
    }

    #[test]
    fn both_axes_violated_reports_both() {
        let m = SlaMonitor::default();
        let r = record();
        let v = m.assess(&r, mbps(40.0), mbps(10.0), Latency::new(25.0));
        assert!(!v.met);
        let cause = v.cause.unwrap();
        assert!(cause.contains("throughput") && cause.contains("latency"));
    }

    #[test]
    fn idle_slice_is_never_violated() {
        let m = SlaMonitor::default();
        let r = record();
        let v = m.assess(&r, mbps(0.0), mbps(0.0), Latency::new(999.0));
        assert!(v.met, "no traffic, no violation");
    }

    #[test]
    fn booking_accumulates_penalties_and_counters() {
        let mut m = SlaMonitor::default();
        let mut r = record();
        m.book_admission(SimTime::ZERO, &r);
        for i in 0..5u64 {
            let delivered = if i < 2 { mbps(10.0) } else { mbps(40.0) };
            let v = m.assess(&r, mbps(40.0), delivered, Latency::new(10.0));
            m.book_epoch(SimTime::from_secs(i), &mut r, &v);
        }
        assert_eq!(r.epochs_active, 5);
        assert_eq!(r.epochs_violated, 2);
        assert_eq!(m.ledger().gross_income(), Money::from_units(100));
        assert_eq!(m.ledger().total_penalties(), Money::from_units(20));
        assert_eq!(m.net(), Money::from_units(80));
        assert_eq!(m.ledger().penalty_count(), 2);
    }

    #[test]
    fn early_termination_refunds_prorated() {
        let mut m = SlaMonitor::default();
        let r = record();
        m.book_admission(SimTime::ZERO, &r);
        m.book_early_termination(SimTime::from_secs(10), &r, 0.25);
        assert_eq!(m.net(), Money::from_units(75));
    }

    #[test]
    fn tolerance_is_clamped() {
        let m = SlaMonitor::new(5.0); // clamped to 0.5
        let r = record();
        // Even at clamp, a 60% shortfall violates.
        assert!(!m.assess(&r, mbps(40.0), mbps(15.0), Latency::new(10.0)).met);
    }
}
