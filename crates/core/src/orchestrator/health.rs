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
    /// Phase 0a: probe each domain controller's health endpoint (with
    /// retry/backoff). A domain that stays unreachable is skipped for
    /// reconfiguration and monitoring this epoch, and its slices degrade.
    /// Returns the domains whose probe failed.
    pub(super) fn probe_health(&mut self, now: SimTime) -> Vec<String> {
        for domain in DOMAINS {
            let up = self.control.probe(now, domain);
            let health = (self.supervision.get_mut(domain)).expect("every domain is tracked");
            // Transitions only — a faultless probe history books nothing,
            // so plan-less runs stay byte-identical.
            match health.observe(now, up) {
                Some(HealthTransition::Suspected) => {
                    self.metrics.counter("supervise.suspects").inc();
                    self.events.log(
                        now,
                        "control",
                        format!("{domain} controller unreachable (retries exhausted)"),
                    );
                }
                Some(HealthTransition::WentDown) => {
                    self.metrics.counter("supervise.downs").inc();
                }
                Some(HealthTransition::Recovered { downtime }) => {
                    self.metrics.counter("supervise.repairs").inc();
                    self.metrics
                        .series("supervise.time_to_repair")
                        .record(now, downtime.as_secs_f64());
                    self.events.log(
                        now,
                        "control",
                        format!("{domain} controller reachable again"),
                    );
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

    /// Phase 2b: degrade/restore on control-plane reachability. Every slice
    /// spans all three domains, so one unreachable controller degrades
    /// every active slice: the orchestrator can no longer reconfigure or
    /// monitor it end-to-end, though its data plane keeps forwarding.
    /// Returns `(degraded, restored)`.
    pub(super) fn follow_reachability(
        &mut self,
        now: SimTime,
        unreachable_domains: &[String],
    ) -> (Vec<SliceId>, Vec<SliceId>) {
        let mut degraded: Vec<SliceId> = Vec::new();
        let mut restored: Vec<SliceId> = Vec::new();
        if unreachable_domains.is_empty() {
            // Slices held down by an unrepaired substrate fault are not
            // restored here: the recovery loop below owns them until their
            // element recovers or a repair lands.
            let ids: Vec<SliceId> = self
                .records
                .values()
                .filter(|r| {
                    r.state == SliceState::Degraded && !self.substrate_degraded.contains_key(&r.id)
                })
                .map(|r| r.id)
                .collect();
            for id in ids {
                self.records
                    .get_mut(&id)
                    .expect("listed above")
                    .transition(SliceState::Active)
                    .expect("degraded→active");
                restored.push(id);
            }
            if !restored.is_empty() {
                self.metrics
                    .counter("orchestrator.restored")
                    .add(restored.len() as u64);
                self.events.log(
                    now,
                    "control",
                    format!("{} slice(s) restored to active", restored.len()),
                );
            }
        } else {
            let ids: Vec<SliceId> = self
                .records
                .values()
                .filter(|r| r.state == SliceState::Active)
                .map(|r| r.id)
                .collect();
            for id in ids {
                self.records
                    .get_mut(&id)
                    .expect("listed above")
                    .transition(SliceState::Degraded)
                    .expect("active→degraded");
                degraded.push(id);
            }
            if !degraded.is_empty() {
                self.metrics
                    .counter("orchestrator.degraded")
                    .add(degraded.len() as u64);
                self.events.log(
                    now,
                    "control",
                    format!(
                        "{} slice(s) degraded: {} unreachable",
                        degraded.len(),
                        unreachable_domains.join(", ")
                    ),
                );
            }
        }
        (degraded, restored)
    }
}
