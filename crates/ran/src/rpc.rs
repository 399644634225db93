//! The RAN controller as a domain server: its side of the REST contract.
//! Everything around the command `match` — the router, `ran/monitoring`,
//! `ran/resync`, `serve`, `serve_resumed` — is generic in
//! `ovnes_api::domain`; the conformance suite (`tests/domain_conformance.rs`)
//! drives all three domains through it over a real socket.

use crate::{RanController, RanControllerState};
use ovnes_api::{DomainController, RanCommand, RanReply};
use ovnes_sim::MetricRegistry;

impl DomainController for RanController {
    const DOMAIN: &'static str = "ran";
    type Command = RanCommand;
    type Reply = RanReply;
    type State = RanControllerState;

    fn apply(&mut self, command: RanCommand) -> Result<RanReply, String> {
        match command {
            RanCommand::InstallPlmn {
                enb,
                slice,
                plmn,
                reserved,
                nominal,
            } => self
                .install(enb, slice, plmn, reserved, nominal)
                .map(|()| RanReply::Done),
            RanCommand::Resize { slice, reserved } => {
                self.resize(slice, reserved).map(|()| RanReply::Done)
            }
            RanCommand::Release { slice } => self.release(slice).map(|r| RanReply::Released {
                freed: r.reserved,
            }),
        }
        .map_err(|e| e.to_string())
    }

    fn metrics(&self) -> &MetricRegistry {
        RanController::metrics(self)
    }

    fn export_state(&self) -> RanControllerState {
        RanController::export_state(self)
    }

    fn from_state(state: &RanControllerState) -> RanController {
        RanController::from_state(state.clone())
    }
}
