//! One domain server: a controller behind a socket, written once.
//!
//! The paper's Fig. 1 is one orchestrator over three hierarchical
//! controllers speaking one REST contract. [`DomainController`] is that
//! contract from the controller's side; each domain crate implements it
//! (the command `match` is all that differs between RAN, transport and
//! cloud) and this module supplies everything around it:
//!
//! * the **control surface** — `{domain}/health` and `{domain}/monitoring`
//!   with canonical stateless handlers ([`register_control_endpoints`]).
//!   The in-process bus, every socket server and a supervisor's respawn
//!   all register it through that one function, so responses stay
//!   byte-identical across transports. [`serve_control`] serves exactly
//!   that surface on a loopback server task — what the deterministic
//!   scenario runs against over RPC.
//! * the **command surface** — [`command_router`] puts a live controller
//!   behind `{domain}/command` (decode → [`DomainController::apply`] →
//!   typed reply / rejection), answers `{domain}/monitoring` with its live
//!   metric scalars and `{domain}/resync` with its complete exported
//!   state; [`serve`] / [`serve_resumed`] run that router as a first or a
//!   restarted incarnation.

use crate::codec::{decode, encode};
use crate::envelope::{Request, Response};
use crate::messages::{MonitoringReport, ResyncReport};
use crate::rpc::{Router, RpcServer, ServerStats};
use ovnes_sim::{MetricRegistry, SimTime};
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::io;
use std::sync::{Arc, Mutex};

/// A domain controller as the REST boundary sees it.
pub trait DomainController: Send + Sized + 'static {
    /// The endpoint prefix this domain serves under (`"ran"`, …).
    const DOMAIN: &'static str;
    /// The domain's command schema (encoded by the client, decoded here).
    type Command: Serialize + DeserializeOwned;
    /// The domain's reply schema (encoded here, decoded by the client).
    type Reply: Serialize + DeserializeOwned;
    /// The controller's complete exported state.
    type State: Serialize + DeserializeOwned;

    /// Execute one command. `Err` is a *domain* refusal (no capacity,
    /// unknown slice, …) and travels back as a `Rejected` response.
    fn apply(&mut self, command: Self::Command) -> Result<Self::Reply, String>;
    /// The controller's live metrics (the `{domain}/monitoring` payload).
    fn metrics(&self) -> &MetricRegistry;
    /// The controller's complete serializable state.
    fn export_state(&self) -> Self::State;
    /// A controller rebuilt from [`DomainController::export_state`].
    fn from_state(state: &Self::State) -> Self;
}

/// The canonical `{domain}/health` handler: empty-body OK.
fn health_handler(req: Request) -> Response {
    Response::ok(req.id, Vec::new())
}

/// The canonical `{domain}/monitoring` handler: acknowledge by echoing the
/// posted report (so the payload demonstrably survived the wire).
fn monitoring_echo_handler(req: Request) -> Response {
    Response::ok(req.id, req.body)
}

/// Register the control-plane surface (`{domain}/health`,
/// `{domain}/monitoring`) on `router` using the canonical handlers.
pub fn register_control_endpoints(router: &mut Router, domain: &str) {
    router.register(&format!("{domain}/health"), health_handler);
    router.register(&format!("{domain}/monitoring"), monitoring_echo_handler);
}

/// Serve `domain`'s control surface on a loopback server task.
pub fn serve_control(domain: &str) -> io::Result<RpcServer> {
    let mut router = Router::new();
    register_control_endpoints(&mut router, domain);
    RpcServer::spawn(router)
}

/// The full router of a stateful domain server running as incarnation
/// `term` (baked into every `{domain}/resync` report so a supervisor can
/// prove which incarnation's state it replayed).
pub fn command_router<C: DomainController>(controller: C, term: u64) -> Router {
    let controller = Arc::new(Mutex::new(controller));
    let mut router = Router::new();
    register_control_endpoints(&mut router, C::DOMAIN);

    let c = controller.clone();
    router.register(&format!("{}/command", C::DOMAIN), move |req| {
        let command: C::Command = match decode(&req.body) {
            Ok(command) => command,
            Err(e) => return Response::error(req.id, &e.to_string()),
        };
        match c.lock().unwrap_or_else(|p| p.into_inner()).apply(command) {
            Ok(reply) => Response::ok(req.id, encode(&reply).expect("encodable")),
            Err(refusal) => Response::rejected(req.id, refusal.into_bytes()),
        }
    });

    // A live controller reports its own scalars instead of echoing.
    let c = controller.clone();
    router.register(&format!("{}/monitoring", C::DOMAIN), move |req| {
        let report = MonitoringReport {
            domain: C::DOMAIN.into(),
            at: SimTime::ZERO,
            scalars: c.lock().unwrap_or_else(|p| p.into_inner()).metrics().scalar_snapshot(),
        };
        Response::ok(req.id, encode(&report).expect("encodable"))
    });

    router.register(&format!("{}/resync", C::DOMAIN), move |req| {
        let state = controller.lock().unwrap_or_else(|p| p.into_inner()).export_state();
        let report = ResyncReport {
            domain: C::DOMAIN.into(),
            term,
            state: encode(&state).expect("encodable"),
        };
        Response::ok(req.id, encode(&report).expect("encodable"))
    });
    router
}

/// Serve `controller`'s full command surface on a loopback server task,
/// taking ownership of it (it now lives behind the socket, as in the
/// testbed).
pub fn serve<C: DomainController>(controller: C) -> io::Result<RpcServer> {
    RpcServer::spawn(command_router(controller, 1))
}

/// Restart a command server from a resynced state: a fresh incarnation
/// serving `term`, seeded from `state` and resuming `carry`'s lifetime
/// counters.
pub fn serve_resumed<C: DomainController>(
    state: &C::State,
    term: u64,
    carry: ServerStats,
) -> io::Result<RpcServer> {
    RpcServer::spawn_incarnation(command_router(C::from_state(state), term), term, carry)
}
