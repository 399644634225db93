//! Control-plane health: the per-epoch probes of the three domain
//! controllers and the Degraded/restored transitions their reachability
//! drives.

use super::Orchestrator;
use crate::control::DOMAINS;
use crate::lifecycle::SliceState;
use crate::supervise::{HealthState, HealthTransition};
use ovnes_model::SliceId;
use ovnes_sim::SimTime;

impl Orchestrator {
    /// Phase: probe each domain controller's health endpoint (with
    /// retry/backoff) and fold the answers into the heartbeat machines.
    /// Reads the control plane (drawing from its fault and jitter streams
    /// only); writes `supervision` and, on a transition, the `supervise.*`
    /// telemetry and the control event line. A domain that stays
    /// unreachable is skipped for reconfiguration and monitoring this
    /// epoch, and its slices degrade. Returns the unreachable domains.
    pub(super) fn probe_health(&mut self, now: SimTime) -> Vec<String> {
        for domain in DOMAINS {
            let up = self.control.probe(now, domain);
            let health = self.supervision.get_mut(domain);
            // Transitions only — a faultless probe history books nothing,
            // so plan-less runs stay byte-identical.
            match health.expect("every domain is tracked").observe(now, up) {
                Some(HealthTransition::Suspected) => {
                    let line = format!("{domain} controller unreachable (retries exhausted)");
                    self.note(now, "control", "supervise.suspects", line);
                }
                Some(HealthTransition::WentDown) => {
                    self.metrics.counter("supervise.downs").inc();
                }
                Some(HealthTransition::Recovered { downtime }) => {
                    self.metrics
                        .series("supervise.time_to_repair")
                        .record(now, downtime.as_secs_f64());
                    let line = format!("{domain} controller reachable again");
                    self.note(now, "control", "supervise.repairs", line);
                }
                None => {}
            }
        }
        let unreachable = DOMAINS.iter().filter(|d| !self.reachable(d));
        unreachable.map(|d| (*d).to_owned()).collect()
    }

    /// Whether `domain`'s controller answered its last health probe: its
    /// heartbeat machine (Up → Suspect → Down → Up) is `Up`.
    pub(super) fn reachable(&self, domain: &str) -> bool {
        self.supervision[domain].state == HealthState::Up
    }

    /// Phase: degrade/restore on control-plane reachability. Every slice
    /// spans all three domains, so one unreachable controller degrades
    /// every active slice: the orchestrator can no longer reconfigure or
    /// monitor it end-to-end, though its data plane keeps forwarding.
    /// Reads `live` and the probe result; writes record states. Returns
    /// `(degraded, restored)`.
    pub(super) fn follow_reachability(
        &mut self,
        now: SimTime,
        live: &[SliceId],
        unreachable_domains: &[String],
    ) -> (Vec<SliceId>, Vec<SliceId>) {
        let state = |id: &SliceId| self.records[id].state;
        if unreachable_domains.is_empty() {
            // Slices held down by an unrepaired substrate fault are not
            // restored here: the substrate phase owns them until their
            // element recovers or a repair lands.
            let held = &self.substrate_degraded;
            let restorable =
                |id: &SliceId| state(id) == SliceState::Degraded && !held.contains_key(id);
            let restored: Vec<SliceId> = live.iter().copied().filter(restorable).collect();
            self.set_state(&restored, SliceState::Active);
            if !restored.is_empty() {
                let n = restored.len();
                self.metrics.counter("orchestrator.restored").add(n as u64);
                let line = format!("{n} slice(s) restored to active");
                self.events.log(now, "control", line);
            }
            (Vec::new(), restored)
        } else {
            let active = |id: &SliceId| state(id) == SliceState::Active;
            let degraded: Vec<SliceId> = live.iter().copied().filter(active).collect();
            self.set_state(&degraded, SliceState::Degraded);
            if !degraded.is_empty() {
                let n = degraded.len();
                self.metrics.counter("orchestrator.degraded").add(n as u64);
                let unreachable = unreachable_domains.join(", ");
                let line = format!("{n} slice(s) degraded: {unreachable} unreachable");
                self.events.log(now, "control", line);
            }
            (degraded, Vec::new())
        }
    }
}
