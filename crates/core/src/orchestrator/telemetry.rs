//! Telemetry: the per-epoch series, control-plane call accounting, and the
//! monitoring reports that cross the JSON API boundary.

use super::Orchestrator;
use crate::control::ControlEpochStats;
use crate::overbooking::{GainReport, OverbookingEngine};
use ovnes_api::{encode, MonitoringReport, Status};
use ovnes_sim::SimTime;

impl Orchestrator {
    /// Count one occurrence under `counter` and put `line` on the
    /// dashboard's event feed as `component` — the pair every lifecycle
    /// and repair step books.
    pub(super) fn note(&mut self, now: SimTime, component: &str, counter: &str, line: String) {
        self.metrics.counter(counter).inc();
        self.events.log(now, component, line);
    }

    /// Phase: telemetry. Domain snapshots cross the JSON API boundary, as
    /// the testbed's REST monitoring did (reachable domains only; the
    /// control plane draws from its fault and jitter streams); the gain
    /// series and the epoch's control-plane call accounting are booked.
    pub(super) fn push_telemetry(
        &mut self,
        now: SimTime,
        unreachable_domains: &[String],
    ) -> (GainReport, ControlEpochStats) {
        self.transport.record_epoch(now);
        self.cloud.record_epoch(now);
        self.last_monitoring = self.collect_monitoring(now);

        let gain = OverbookingEngine::gain_report(&self.ran);
        self.metrics
            .series("orchestrator.overbooking_factor")
            .record(now, gain.overbooking_factor);
        self.metrics
            .series("orchestrator.savings_fraction")
            .record(now, gain.savings_fraction);
        self.metrics
            .series("orchestrator.net_revenue")
            .record(now, self.sla.net().as_f64());

        // Control-plane call accounting: per-epoch into the report,
        // cumulatively into the metrics the dashboard panels read.
        let cstats = self.control.take_epoch_stats();
        self.metrics.counter("control.calls").add(cstats.calls);
        self.metrics.counter("control.retries").add(cstats.retries);
        self.metrics
            .counter("control.failures")
            .add(cstats.failures);
        self.metrics
            .gauge("control.unreachable_domains")
            .set(unreachable_domains.len() as f64);
        (gain, cstats)
    }

    fn collect_monitoring(&mut self, now: SimTime) -> Vec<MonitoringReport> {
        let registries = [
            ("ran", self.ran.metrics()),
            ("transport", self.transport.metrics()),
            ("cloud", self.cloud.metrics()),
        ];
        let mut reports = Vec::with_capacity(3);
        for (domain, registry) in registries {
            // A domain the health probe lost this epoch loses its report
            // too — the dashboard shows a gap, exactly like the testbed's.
            if !self.reachable(domain) {
                continue;
            }
            let report = MonitoringReport {
                domain: domain.to_owned(),
                at: now,
                scalars: registry.scalar_snapshot(),
            };
            // The REST boundary, with retries. The endpoint's contract is
            // identity: an echo that is not byte for byte the report sent
            // is a corruption and retried; the report built is the one kept.
            let sent = encode(&report).expect("reports are serializable");
            let endpoint = format!("{domain}/monitoring");
            let accepted = self
                .control
                .call_checked(now, &endpoint, sent.clone(), |r| r.body.0 == sent);
            // A rejection comes back without passing the acceptor.
            if accepted.is_some_and(|r| r.status == Status::Ok) {
                reports.push(report);
            }
        }
        reports
    }
}
