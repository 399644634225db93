//! The in-process message bus.
//!
//! Registered handlers play the role of the controllers' REST servers; the
//! orchestrator plays the client. [`MessageBus::call`] serializes the
//! request envelope to bytes, hands the *bytes* to the handler, and returns
//! the handler's bytes deserialized — so both directions genuinely cross a
//! wire-format boundary, as in the physical testbed. The crossing is the
//! socket plane's: the same self-contained JSON envelope, its body one
//! base64 string ([`Body`]). Per body byte a call therefore writes 4⁄3
//! characters and reads them back, twice (request and response) — a few
//! nanoseconds, ≈ 3 ms for a 271 KB report echoed in full.

use crate::envelope::{Body, Request, Response};
use crate::rpc::Router;
use std::collections::BTreeMap;
use std::fmt;

/// Bus-level failures (distinct from domain rejections, which come back as
/// [`Status::Rejected`](crate::envelope::Status::Rejected) responses).
#[derive(Debug)]
pub enum BusError {
    /// No handler registered at the endpoint.
    NoSuchEndpoint(String),
    /// The envelope failed to (de)serialize.
    Envelope(serde_json::Error),
    /// The underlying socket transport failed (connect refused, reset,
    /// truncated stream). Never produced by the in-process bus.
    Transport(String),
    /// A wall-clock deadline expired before the transport produced a
    /// response (connect or read timeout against a hung server). Distinct
    /// from [`BusError::Transport`] so callers can tell "the server is
    /// gone" from "the server is stalled". Never produced by the
    /// in-process bus.
    Deadline(String),
}

impl fmt::Display for BusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BusError::NoSuchEndpoint(e) => write!(f, "no handler at {e:?}"),
            BusError::Envelope(e) => write!(f, "envelope: {e}"),
            BusError::Transport(e) => write!(f, "transport: {e}"),
            BusError::Deadline(e) => write!(f, "deadline: {e}"),
        }
    }
}

impl std::error::Error for BusError {}

/// Endpoint-dispatched request/response bus: a [`Router`] (the same
/// handler table a socket server dispatches against) plus the client-side
/// accounting. See module docs.
#[derive(Default)]
pub struct MessageBus {
    router: Router,
    next_id: u64,
    requests_served: BTreeMap<String, u64>,
}

impl MessageBus {
    /// An empty bus.
    pub fn new() -> MessageBus {
        Self::default()
    }

    /// Register (or replace) the handler at `endpoint`.
    pub fn register(
        &mut self,
        endpoint: &str,
        handler: impl FnMut(Request) -> Response + Send + 'static,
    ) {
        self.router.register(endpoint, handler);
    }

    /// The handler table, for wiring code that registers a whole surface
    /// at once (see [`register_control_endpoints`](crate::domain::register_control_endpoints)).
    pub fn router_mut(&mut self) -> &mut Router {
        &mut self.router
    }

    /// Issue a request: wrap `body` in an envelope, serialize it across the
    /// "wire", dispatch, and return the deserialized response.
    ///
    /// A correlation id is consumed only when the request actually reaches a
    /// handler: a call that fails before dispatch (unknown endpoint, request
    /// envelope failure) leaves the id counter — and therefore every later
    /// call's id — untouched, so failed calls are invisible in
    /// [`MessageBus::export_state`]. `requests_served` is bumped *at
    /// dispatch*: a handler that ran is a request the endpoint served, even
    /// if its response envelope later fails to (de)serialize.
    pub fn call(&mut self, endpoint: &str, body: Vec<u8>) -> Result<Response, BusError> {
        if !self.router.has_endpoint(endpoint) {
            return Err(BusError::NoSuchEndpoint(endpoint.to_owned()));
        }
        let request = Request {
            id: self.next_id,
            endpoint: endpoint.to_owned(),
            body: Body(body),
        };
        // Serialize → bytes → deserialize: the wire.
        let wire = serde_json::to_vec(&request).map_err(BusError::Envelope)?;
        let delivered: Request = serde_json::from_slice(&wire).map_err(BusError::Envelope)?;

        self.next_id += 1;
        *self.requests_served.entry(endpoint.to_owned()).or_insert(0) += 1;
        let response = self.router.dispatch(delivered);

        let wire_back = serde_json::to_vec(&response).map_err(BusError::Envelope)?;
        let response: Response = serde_json::from_slice(&wire_back).map_err(BusError::Envelope)?;
        Ok(response)
    }

    /// Requests served per endpoint (for the dashboard's API stats).
    pub fn served(&self, endpoint: &str) -> u64 {
        self.requests_served.get(endpoint).copied().unwrap_or(0)
    }

    /// The bus's serializable accounting (correlation-id counter and
    /// per-endpoint served counts). Handlers are closures and deliberately
    /// not part of this: a restored world re-registers them, and the repo's
    /// handlers are all self-contained, so re-registration is exact.
    pub fn export_state(&self) -> BusState {
        BusState {
            next_id: self.next_id,
            requests_served: self.requests_served.clone(),
        }
    }

    /// Overwrite the accounting captured by [`MessageBus::export_state`].
    /// Registered handlers are untouched.
    pub fn restore_state(&mut self, state: &BusState) {
        self.next_id = state.next_id;
        self.requests_served = state.requests_served.clone();
    }
}

/// Serializable accounting of a [`MessageBus`] (everything except the
/// handler closures — see [`MessageBus::export_state`]).
#[derive(Clone, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct BusState {
    /// Next correlation id to assign.
    pub next_id: u64,
    /// Requests served per endpoint.
    pub requests_served: BTreeMap<String, u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode, encode};
    use crate::envelope::Status;
    use std::sync::{Arc, Mutex};

    #[test]
    fn dispatches_to_registered_handler() {
        let mut bus = MessageBus::new();
        bus.register("echo", |req| Response::ok(req.id, req.body.0));
        let resp = bus.call("echo", b"payload".to_vec()).unwrap();
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.body.0, b"payload");
    }

    #[test]
    fn correlation_ids_increment_and_echo() {
        let mut bus = MessageBus::new();
        bus.register("e", |req| Response::ok(req.id, vec![]));
        let a = bus.call("e", vec![]).unwrap();
        let b = bus.call("e", vec![]).unwrap();
        assert_eq!(a.id, 0);
        assert_eq!(b.id, 1);
    }

    #[test]
    fn unknown_endpoint_errors() {
        let mut bus = MessageBus::new();
        assert!(matches!(
            bus.call("missing", vec![]),
            Err(BusError::NoSuchEndpoint(_))
        ));
    }

    #[test]
    fn typed_payloads_survive_the_wire() {
        use crate::messages::MonitoringReport;
        use ovnes_sim::SimTime;

        let mut bus = MessageBus::new();
        let log: Arc<Mutex<Vec<MonitoringReport>>> = Arc::new(Mutex::new(Vec::new()));
        let log_in = log.clone();
        bus.register("ran/monitoring", move |req| {
            match decode::<MonitoringReport>(&req.body.0) {
                Ok(report) => {
                    log_in.lock().unwrap().push(report);
                    Response::ok(req.id, req.body.0)
                }
                Err(e) => Response::error(req.id, &e.to_string()),
            }
        });

        let report = MonitoringReport {
            domain: "ran".into(),
            at: SimTime::from_secs(300),
            scalars: [("ran.installs".to_string(), 17.0)].into(),
        };
        let resp = bus.call("ran/monitoring", encode(&report).unwrap()).unwrap();
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(decode::<MonitoringReport>(&resp.body.0).unwrap(), report);
        assert_eq!(log.lock().unwrap().as_slice(), &[report]);
    }

    #[test]
    fn handler_decode_failure_becomes_error_status() {
        use crate::messages::MonitoringReport;
        let mut bus = MessageBus::new();
        bus.register("ran/monitoring", |req| {
            match decode::<MonitoringReport>(&req.body.0) {
                Ok(_) => Response::ok(req.id, vec![]),
                Err(e) => Response::error(req.id, &e.to_string()),
            }
        });
        let resp = bus.call("ran/monitoring", b"garbage".to_vec()).unwrap();
        assert_eq!(resp.status, Status::Error);
    }

    #[test]
    fn served_counts_per_endpoint() {
        let mut bus = MessageBus::new();
        bus.register("a", |req| Response::ok(req.id, vec![]));
        bus.register("b", |req| Response::ok(req.id, vec![]));
        bus.call("a", vec![]).unwrap();
        bus.call("a", vec![]).unwrap();
        bus.call("b", vec![]).unwrap();
        assert_eq!(bus.served("a"), 2);
        assert_eq!(bus.served("b"), 1);
        assert_eq!(bus.served("c"), 0);
    }

    #[test]
    fn failed_dispatch_leaves_state_unchanged() {
        // Regression: `call` used to increment `next_id` before checking the
        // endpoint existed, so a NoSuchEndpoint error leaked a correlation
        // id and shifted every later id.
        let mut bus = MessageBus::new();
        bus.register("real", |req| Response::ok(req.id, vec![]));
        bus.call("real", vec![]).unwrap();
        let before = bus.export_state();

        assert!(matches!(
            bus.call("missing", vec![]),
            Err(BusError::NoSuchEndpoint(_))
        ));
        assert_eq!(
            bus.export_state(),
            before,
            "a failed call must not consume a correlation id or count as served"
        );

        // The very next successful call gets the id the failed call would
        // have leaked.
        let resp = bus.call("real", vec![]).unwrap();
        assert_eq!(resp.id, 1);
        assert_eq!(bus.export_state().next_id, 2);
    }

    #[test]
    fn served_counts_every_dispatched_request() {
        // Regression: `requests_served` used to be bumped only after the
        // response survived re-serialization, so a handler that ran but
        // whose envelope round-trip failed was never counted. Serving is
        // counted at dispatch: the invariant is served == handler
        // invocations, across every status and around failed calls.
        let invocations = Arc::new(Mutex::new(0u64));
        let mut bus = MessageBus::new();
        let n = invocations.clone();
        bus.register("mixed", move |req| {
            *n.lock().unwrap() += 1;
            match req.body.0.first() {
                Some(0) => Response::ok(req.id, vec![]),
                Some(1) => Response::rejected(req.id, b"no capacity".to_vec()),
                _ => Response::error(req.id, "boom"),
            }
        });
        for byte in [0u8, 1, 2, 0, 1] {
            bus.call("mixed", vec![byte]).unwrap();
        }
        // Failed dispatches never reach the handler and never count.
        let _ = bus.call("absent", vec![]);
        assert_eq!(bus.served("mixed"), *invocations.lock().unwrap());
        assert_eq!(bus.served("mixed"), 5);
    }

    #[test]
    fn re_registering_replaces_handler() {
        let mut bus = MessageBus::new();
        bus.register("x", |req| Response::ok(req.id, b"v1".to_vec()));
        bus.register("x", |req| Response::ok(req.id, b"v2".to_vec()));
        assert_eq!(bus.call("x", vec![]).unwrap().body.0, b"v2");
    }
}
