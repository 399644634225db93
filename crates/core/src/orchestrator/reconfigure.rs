//! Forecast-driven reconfiguration: on the configured cadence the
//! overbooking engine resizes reservations across RAN, transport and cloud.

use super::Orchestrator;
use ovnes_model::{SliceId, SliceRequest};

impl Orchestrator {
    /// Phase: periodic overbooked reconfiguration of the `live` slices.
    /// Resizing reservations means commanding the RAN and transport
    /// controllers, so an unreachable one postpones the whole
    /// reconfiguration to a healthier epoch (graceful degradation, not a
    /// panic). Reads the forecasters; writes RAN and transport
    /// reservations and vEPC sizing. Draws nothing. Returns how many
    /// reservations changed.
    pub(super) fn reconfigure_on_cadence(&mut self, live: &[SliceId]) -> usize {
        let due = self.config.overbooking_enabled
            && self.epoch_count.is_multiple_of(self.config.reconfig_every);
        if !due || !self.reachable("ran") || !self.reachable("transport") {
            return 0;
        }
        let slices: Vec<(SliceId, SliceRequest)> = live
            .iter()
            .map(|&id| (id, self.records[&id].request.clone()))
            .collect();
        let applied = self.engine.reconfigure(
            &slices,
            self.allocator.config().planning_prb_rate,
            &mut self.ran,
            &mut self.transport,
        );
        let reconfigured = applied.len();
        // Third domain: follow the radio resize with a Heat stack update
        // scaling the vEPC user plane to the new fraction — but only if
        // the cloud controller is answering.
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
        reconfigured
    }
}
