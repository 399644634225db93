//! One domain server: the control surface a domain exposes to the
//! orchestrator, written once.
//!
//! What crosses the paper's REST boundary *into* the orchestrator is health
//! and monitoring (§2: "the gathered monitoring information is promptly fed
//! to the end-to-end orchestrator through REST APIs"), and that is what a
//! domain server serves: `{domain}/health` answers an empty OK and
//! `{domain}/monitoring` acknowledges a pushed report by echoing it (the
//! [`RpcServer`] fans the same bytes out to the topic's subscribers). The
//! in-process bus, every socket server and a supervisor's respawn register
//! that surface through [`register_control_endpoints`], so responses are
//! byte-identical on both transports. Commands — install, allocate, deploy,
//! release — are method calls on controllers the orchestrator owns, not
//! messages. A server therefore holds no controller state, so a restart
//! carries its [`ServerStats`] and nothing else *by design*: there is
//! nothing to resync.

use crate::envelope::{Request, Response};
use crate::rpc::{Router, RpcServer, ServerStats};
use std::io;

/// The canonical `{domain}/health` handler: empty-body OK.
fn health_handler(req: Request) -> Response {
    Response::ok(req.id, Vec::new())
}

/// The canonical `{domain}/monitoring` handler: acknowledge by echoing the
/// posted report (so the payload demonstrably survived the wire).
fn monitoring_echo_handler(req: Request) -> Response {
    Response::ok(req.id, req.body.0)
}

/// Register the control-plane surface (`{domain}/health`,
/// `{domain}/monitoring`) on `router` using the canonical handlers.
pub fn register_control_endpoints(router: &mut Router, domain: &str) {
    router.register(&format!("{domain}/health"), health_handler);
    router.register(&format!("{domain}/monitoring"), monitoring_echo_handler);
}

/// Serve `domain`'s control surface on a loopback server task.
pub fn serve_control(domain: &str) -> io::Result<RpcServer> {
    serve_control_incarnation(domain, 1, ServerStats::default())
}

/// Serve `domain`'s control surface as incarnation `term`, resuming
/// `carry`'s lifetime counters — the restart half of a supervised crash.
pub fn serve_control_incarnation(
    domain: &str,
    term: u64,
    carry: ServerStats,
) -> io::Result<RpcServer> {
    let mut router = Router::new();
    register_control_endpoints(&mut router, domain);
    RpcServer::spawn_incarnation(router, term, carry)
}
