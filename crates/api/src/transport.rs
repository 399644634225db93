//! The control seam: one call surface, two substrates.
//!
//! The orchestrator's control plane speaks request/response to named
//! endpoints. *How* those bytes travel is a deployment choice, not a
//! semantic one:
//!
//! * [`MessageBus`] — in-process dispatch through registered handlers. The
//!   deterministic test oracle: no sockets, no threads, byte-exact replay.
//! * [`SocketBus`] — the same calls carried over framed TCP to controller
//!   server tasks (see [`crate::rpc`]).
//!
//! [`ControlTransport`] is the one seam between them — the either-type the
//! control plane stores and [`FaultInjector::call`] takes, enum-dispatched
//! so scenario state stays serializable and nothing is `dyn` in the hot
//! path. Both arms honour one accounting contract, which is what makes a
//! run's exported summary **byte-identical** on either substrate:
//!
//! 1. A correlation id is consumed only by a call that dispatches — an
//!    unknown endpoint / unreachable route consumes nothing.
//! 2. `served` counts dispatched requests per endpoint.
//! 3. Fault *decisions* stay with the caller ([`FaultInjector`]); the
//!    socket arm additionally *realizes* a decided fault physically
//!    (connection teardown) via the `realize_*` hooks, which never perturb
//!    accounting. In-process a drop has no physical carrier.
//!
//! [`FaultInjector`]: crate::fault::FaultInjector
//! [`FaultInjector::call`]: crate::fault::FaultInjector::call

use crate::bus::{BusError, BusState, MessageBus};
use crate::envelope::Response;
use crate::rpc::SocketBus;

/// The concrete transport a control plane runs on: the in-process oracle
/// or the socket RPC plane. See the module docs for the contract.
pub enum ControlTransport {
    /// In-process dispatch (the deterministic oracle).
    InProcess(MessageBus),
    /// Framed TCP to controller servers (boxed: the socket client is far
    /// larger than the in-process bus).
    Socket(Box<SocketBus>),
}

impl ControlTransport {
    /// Issue `body` to `endpoint` and return the response.
    pub fn call(&mut self, endpoint: &str, body: Vec<u8>) -> Result<Response, BusError> {
        match self {
            ControlTransport::InProcess(bus) => bus.call(endpoint, body),
            ControlTransport::Socket(bus) => bus.call(endpoint, body),
        }
    }

    /// Requests served (dispatched) at `endpoint`, from this client's view.
    pub fn served(&self, endpoint: &str) -> u64 {
        match self {
            ControlTransport::InProcess(bus) => bus.served(endpoint),
            ControlTransport::Socket(bus) => bus.served(endpoint),
        }
    }

    /// The transport's serializable accounting (correlation-id counter and
    /// per-endpoint served counts).
    pub fn export_state(&self) -> BusState {
        match self {
            ControlTransport::InProcess(bus) => bus.export_state(),
            ControlTransport::Socket(bus) => bus.export_state(),
        }
    }

    /// Overwrite the accounting captured by [`ControlTransport::export_state`].
    pub fn restore_state(&mut self, state: &BusState) {
        match self {
            ControlTransport::InProcess(bus) => bus.restore_state(state),
            ControlTransport::Socket(bus) => bus.restore_state(state),
        }
    }

    /// Physically realize a *decided* request drop at `endpoint` (a
    /// mid-request connection reset on the socket plane). Consumes no
    /// correlation id and bumps no `served` count.
    pub fn realize_drop(&mut self, endpoint: &str) {
        if let ControlTransport::Socket(bus) = self {
            bus.realize_drop(endpoint);
        }
    }

    /// Physically realize a *decided* outage at `endpoint` (tear down the
    /// connection so the next attempt must reconnect). Same accounting
    /// rules as [`ControlTransport::realize_drop`].
    pub fn realize_outage(&mut self, endpoint: &str) {
        if let ControlTransport::Socket(bus) = self {
            bus.realize_outage(endpoint);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_process_arm_honours_the_contract() {
        let mut bus = MessageBus::new();
        bus.register("e", |req| Response::ok(req.id, req.body.0));
        let mut t = ControlTransport::InProcess(bus);
        let r = t.call("e", b"x".to_vec()).unwrap();
        assert_eq!(r.body.0, b"x");
        assert_eq!(t.served("e"), 1);
        assert_eq!(t.export_state().next_id, 1);
        // Realize hooks are accounting no-ops.
        let before = t.export_state();
        t.realize_drop("e");
        t.realize_outage("e");
        assert_eq!(t.export_state(), before);
    }
}
