//! The transport controller as a domain server: its side of the REST
//! contract (see `ovnes_api::domain` for everything around the command
//! `match`).

use crate::{TransportController, TransportControllerState};
use ovnes_api::{DomainController, TransportCommand, TransportReply};
use ovnes_sim::MetricRegistry;

impl DomainController for TransportController {
    const DOMAIN: &'static str = "transport";
    type Command = TransportCommand;
    type Reply = TransportReply;
    type State = TransportControllerState;

    fn apply(&mut self, command: TransportCommand) -> Result<TransportReply, String> {
        match command {
            TransportCommand::AllocatePath {
                slice,
                src,
                dst,
                bandwidth,
                max_delay,
            } => self
                .allocate(slice, src, dst, bandwidth, max_delay)
                .map(|a| TransportReply::PathAllocated {
                    hops: a.reservation.path.hops(),
                    delay: a.delay_at_allocation,
                }),
            TransportCommand::Resize { slice, bandwidth } => {
                self.resize(slice, bandwidth).map(|()| TransportReply::Done)
            }
            TransportCommand::Release { slice } => {
                self.release(slice).map(|_| TransportReply::Done)
            }
        }
        .map_err(|e| e.to_string())
    }

    fn metrics(&self) -> &MetricRegistry {
        TransportController::metrics(self)
    }

    fn export_state(&self) -> TransportControllerState {
        TransportController::export_state(self)
    }

    fn from_state(state: &TransportControllerState) -> TransportController {
        TransportController::from_state(state)
    }
}
