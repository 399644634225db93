//! Forecast-driven reconfiguration: on the configured cadence the
//! overbooking engine resizes reservations across RAN, transport and cloud.

use super::Orchestrator;
use ovnes_model::{SliceId, SliceRequest};

impl Orchestrator {
    /// Phase 6: periodic overbooked reconfiguration. Resizing reservations
    /// means commanding the RAN and transport controllers, so an
    /// unreachable one postpones the whole reconfiguration to a healthier
    /// epoch (graceful degradation, not a panic). Returns how many
    /// reservations changed.
    pub(super) fn reconfigure_on_cadence(&mut self, active_ids: &[SliceId]) -> usize {
        let mut reconfigured = 0;
        let reconfig_reachable = self.reachable("ran") && self.reachable("transport");
        if self.config.overbooking_enabled
            && self.epoch_count.is_multiple_of(self.config.reconfig_every)
            && reconfig_reachable
        {
            let slices: Vec<(SliceId, SliceRequest)> = active_ids
                .iter()
                .map(|&id| (id, self.records[&id].request.clone()))
                .collect();
            let applied = self.engine.reconfigure(
                &slices,
                self.allocator.config().planning_prb_rate,
                &mut self.ran,
                &mut self.transport,
            );
            reconfigured = applied.len();
            // Third domain: follow the radio resize with a Heat stack
            // update scaling the vEPC user plane to the new fraction — but
            // only if the cloud controller is answering.
            if self.reachable("cloud") {
                for (slice, _old, new_reserved) in applied {
                    if let Some(p) = self.placements.get(&slice) {
                        let fraction = new_reserved.ratio(p.nominal).clamp(0.0, 1.0);
                        let _ = self.cloud.scale_for_slice(slice, fraction);
                    }
                }
            }
            self.metrics
                .counter("orchestrator.reconfigurations")
                .add(reconfigured as u64);
        }
        reconfigured
    }
}
