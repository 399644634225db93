//! # ovnes-api — the REST boundary between orchestrator and controllers
//!
//! In the demo, *"the gathered monitoring information is promptly fed to the
//! end-to-end orchestrator through REST APIs"* (§2). This crate preserves
//! that serialization boundary: health probes and monitoring reports cross
//! the [`bus`] as JSON bytes — encoded, transferred, decoded — exactly as a
//! REST payload would, so schema mismatches and encoding bugs surface in
//! tests rather than being papered over by shared memory. Resource commands
//! do **not** cross it: the orchestrator owns the three controllers and
//! calls them directly. Its decision code reaches them at about 60 call
//! sites through 41 methods, 13 of which hand back *borrowed* controller
//! state and three of which run once per active slice per epoch; behind a
//! socket that is ≈ 165 extra round trips per `admit_churn` epoch, so the
//! command/resync server that nothing ever drove was removed instead of
//! grown (DESIGN decision 11).
//!
//! * [`codec`] — the JSON wire codec with versioning.
//! * [`envelope`] — request/response envelopes with correlation ids and
//!   HTTP-like status.
//! * [`messages`] — the typed payload: the monitoring report each domain
//!   pushes upstream.
//! * [`bus`] — the in-process message bus with per-endpoint handlers and
//!   request accounting.
//! * [`rpc`] — the same boundary made *physical*: length-prefixed framed
//!   TCP servers for the controllers ([`rpc::RpcServer`]) and the
//!   [`rpc::SocketBus`] client with pipelining and push-telemetry
//!   subscriptions.
//! * [`domain`] — one domain server: the stateless `{domain}/health` +
//!   `{domain}/monitoring` surface ([`register_control_endpoints`]) and
//!   [`serve_control`] / [`serve_control_incarnation`], which put it behind
//!   a socket as a first or a restarted incarnation.
//! * [`transport`] — the one control seam, [`ControlTransport`]: either bus
//!   behind one call surface, pinning the accounting contract that keeps
//!   run summaries byte-identical in-process vs. over sockets.
//! * [`fault`] — deterministic control-plane fault injection and the retry
//!   machinery that survives it; on the socket arm decided drops/outages
//!   become real connection teardowns.
//! * [`substrate`] — deterministic *data-plane* fault schedules: link,
//!   switch, cell, and host outages the orchestrator's recovery pipeline
//!   reacts to.
//!
//! ## Fault injection in one example
//!
//! A [`FaultPlan`] declares, per endpoint, what the "network" does to
//! calls: drop them, delay them, answer 5xx, corrupt the payload, or go
//! dark on a schedule. The plan carries its own seed, so a chaos run is as
//! reproducible as a clean one:
//!
//! ```
//! use ovnes_api::{
//!     ControlTransport, EndpointFaults, FaultInjector, FaultPlan, MessageBus, Response,
//! };
//! use ovnes_sim::{SimDuration, SimTime};
//!
//! let mut bus = MessageBus::new();
//! bus.register("ran/health", |req| Response::ok(req.id, vec![]));
//! let mut bus = ControlTransport::InProcess(bus);
//!
//! let plan = FaultPlan::new(42).with_endpoint(
//!     "ran/health",
//!     EndpointFaults::none()
//!         .with_drop(0.2)
//!         .with_delay(0.1, SimDuration::from_millis(200))
//!         .with_outage(SimTime::from_secs(60), SimTime::from_secs(120)),
//! );
//! let mut injector = FaultInjector::new(plan);
//! // Dropped/delayed per the seeded schedule; down in minute two.
//! let _ = injector.call(&mut bus, SimTime::ZERO, "ran/health", vec![]);
//! ```
//!
//! Endpoints a plan leaves out (or configures with all-zero probabilities)
//! pass through byte-identically with no RNG draws, so a quiet plan is an
//! exact no-op. [`RetryPolicy`] is the client side: bounded attempts,
//! exponential backoff with deterministic jitter, per-call deadline.

pub mod bus;
pub mod codec;
pub mod domain;
pub mod envelope;
pub mod fault;
pub mod messages;
pub mod rpc;
pub mod snapshot;
pub mod substrate;
pub mod transport;

pub use bus::{BusError, BusState, MessageBus};
pub use codec::{decode, encode, CodecError, WIRE_VERSION};
pub use domain::{register_control_endpoints, serve_control, serve_control_incarnation};
pub use envelope::{Body, Request, Response, Status};
pub use fault::{
    CallFailure, CrashEvent, CrashPlan, EndpointFaults, EndpointStats, FaultInjector, FaultPlan,
    ProcessFault, RetryPolicy,
};
pub use rpc::{
    read_frame, write_frame, BusDeadlines, ResumeHandle, Router, RpcServer, ServerStats,
    SocketBus, WireFrame, MAX_FRAME_BYTES,
};
pub use messages::MonitoringReport;
pub use snapshot::{
    replay_bisect, sha256_hex, Divergence, SectionRef, SnapshotError, SnapshotManifest,
    SnapshotStore,
};
pub use substrate::{ElementSchedule, SubstrateElement, SubstrateFaultPlan};
pub use transport::ControlTransport;
