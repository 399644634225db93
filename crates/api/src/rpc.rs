//! The socket RPC plane: framed TCP between orchestrator and controllers.
//!
//! The paper's testbed runs the RAN, transport, and cloud controllers as
//! separate processes the orchestrator reaches over REST. This module is
//! that boundary made real with `std::net` only (threads + TCP — the
//! container has no crate registry, so no async runtime, and none is
//! needed at control-plane rates):
//!
//! * **Framing** — every message is a 4-byte big-endian length prefix
//!   followed by a JSON-serialized [`WireFrame`]. Length-prefixed framing
//!   makes message boundaries explicit on a byte stream, lets a reader
//!   reject oversized frames before allocating ([`MAX_FRAME_BYTES`]), and
//!   keeps the payload format identical to the in-process bus (the same
//!   [`Request`]/[`Response`] envelopes, the same [`crate::codec`] bodies).
//!   A body is one base64 string inside its envelope ([`Body`]), so the
//!   largest body a frame holds is ≈ 12 MiB (3⁄4 of the cap).
//! * **[`Router`] / [`RpcServer`]** — a server task: an accept loop plus a
//!   thread per connection, dispatching [`WireFrame::Request`] frames to
//!   registered handlers behind a mutex (controllers are stateful; calls
//!   serialize at the controller exactly as they would at a single-threaded
//!   REST worker).
//! * **[`SocketBus`]** — the client. Same call surface and accounting
//!   contract as [`MessageBus`](crate::bus::MessageBus) (see
//!   [`crate::transport`]), plus [`SocketBus::call_pipelined`]: many
//!   in-flight correlation ids on one connection, responses demultiplexed
//!   by id — the round-trip amortization `exp_e17_rpc_plane` measures.
//! * **Push telemetry** — a connection may [`WireFrame::Subscribe`] to a
//!   topic; after every successful dispatch to a `*/monitoring` endpoint
//!   the server pushes the report body to subscribers as
//!   [`WireFrame::Push`], so dashboards receive deltas instead of polling.
//! * **Chaos realization** — [`WireFrame::ChaosReset`] is a test directive
//!   (toxiproxy-style): the server drops the connection on the floor
//!   without replying, so a fault the [`FaultInjector`] *decided* becomes a
//!   connection the client *observes* dying — a real socket teardown, not a
//!   simulated error value. See [`SocketBus::realize_drop`].
//! * **Incarnation terms** — every `Response` frame is stamped with the
//!   serving incarnation's monotonically increasing fencing term
//!   ([`RpcServer::spawn_incarnation`]). The client tracks a per-domain
//!   minimum acceptable term ([`SocketBus::fence`]) and rejects anything
//!   older, so a zombie connection into a crashed-and-replaced server can
//!   never be believed.
//! * **Survivable clients** — connects, reads and writes run under
//!   wall-clock deadlines ([`BusDeadlines`], surfaced as
//!   [`BusError::Deadline`](crate::bus::BusError::Deadline)), and redials
//!   of a dead address back off on a seeded [`RetryPolicy`] schedule
//!   instead of storming the socket.
//!
//! [`FaultInjector`]: crate::fault::FaultInjector

use crate::bus::{BusError, BusState};
use crate::envelope::{Body, Request, Response, Status};
use crate::fault::RetryPolicy;
use ovnes_sim::SimRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Hard cap on a single frame's payload size. Large enough for any
/// monitoring report the repo produces (a body of up to ≈ 12 MiB: the
/// envelope spells it in base64, 4 characters per 3 bytes), small enough
/// that a corrupt or hostile length prefix cannot trigger a giant
/// allocation.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// Everything that can travel on an RPC connection, in both directions.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum WireFrame {
    /// Client → server: dispatch this request.
    Request(Request),
    /// Server → client: the answer to a request, matched by correlation id
    /// and stamped with the serving incarnation's fencing term.
    Response {
        /// The server incarnation's fencing term (see
        /// [`RpcServer::spawn_incarnation`]). Responses whose term is below
        /// the client's fenced minimum for the domain are stale and must
        /// not be believed.
        term: u64,
        /// The response envelope, byte-identical to what the in-process
        /// bus would return (terms live on the wire frame, not in the
        /// envelope, precisely to preserve that identity).
        response: Response,
    },
    /// Client → server: push future `Push` frames for `topic` on this
    /// connection. Acked with an empty-body OK [`Response`] echoing `id`.
    Subscribe {
        /// Correlation id for the ack.
        id: u64,
        /// Topic, by convention the monitoring endpoint path.
        topic: String,
    },
    /// Server → client: unsolicited telemetry for a subscribed topic.
    Push {
        /// The topic this body was published under.
        topic: String,
        /// The monitoring report bytes, exactly as posted.
        body: Body,
    },
    /// Client → server chaos directive: close this connection immediately
    /// without replying. Lets a deterministic fault plan realize a decided
    /// drop as a physical teardown the client then observes.
    ChaosReset,
}

/// Write `payload` as one length-prefixed frame.
pub fn write_frame_bytes(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds MAX_FRAME_BYTES", payload.len()),
        ));
    }
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one length-prefixed frame's payload. Errors with `UnexpectedEof`
/// on a truncated frame and `InvalidData` on an oversized length prefix.
pub fn read_frame_bytes(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_be_bytes(len) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME_BYTES"),
        ));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

/// Serialize and write one [`WireFrame`].
pub fn write_frame(w: &mut impl Write, frame: &WireFrame) -> io::Result<()> {
    let bytes = serde_json::to_vec(frame)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    write_frame_bytes(w, &bytes)
}

/// Read and deserialize one [`WireFrame`]. A frame whose payload is not
/// valid `WireFrame` JSON errors with `InvalidData`.
pub fn read_frame(r: &mut impl Read) -> io::Result<WireFrame> {
    let bytes = read_frame_bytes(r)?;
    serde_json::from_slice(&bytes)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

// `Send` because handlers run on connection threads, and so a world owning
// an in-process bus (orchestrator → control plane) can be sharded across the
// federation's worker threads; the repo's handlers are plain fns or closures
// over owned data, which satisfy it for free.
type Handler = Box<dyn FnMut(Request) -> Response + Send>;

/// Endpoint → handler table: what a socket server dispatches against and
/// what the in-process [`MessageBus`](crate::bus::MessageBus) owns as its
/// registry — one table type on both transports.
#[derive(Default)]
pub struct Router {
    handlers: BTreeMap<String, Handler>,
}

impl Router {
    /// An empty router.
    pub fn new() -> Router {
        Router::default()
    }

    /// Register (or replace) the handler at `endpoint`.
    pub fn register(
        &mut self,
        endpoint: &str,
        handler: impl FnMut(Request) -> Response + Send + 'static,
    ) {
        self.handlers.insert(endpoint.to_owned(), Box::new(handler));
    }

    /// True if `endpoint` has a handler.
    pub fn has_endpoint(&self, endpoint: &str) -> bool {
        self.handlers.contains_key(endpoint)
    }

    /// The registered endpoints, ascending.
    pub fn endpoints(&self) -> Vec<String> {
        self.handlers.keys().cloned().collect()
    }

    /// Dispatch `req` to its endpoint's handler. An unknown endpoint gets
    /// an error-status response (the server-side 404 — the *client* route
    /// table is what preserves the no-id-consumed contract for endpoints
    /// that do not exist anywhere).
    pub fn dispatch(&mut self, req: Request) -> Response {
        match self.handlers.get_mut(&req.endpoint) {
            Some(h) => h(req),
            None => Response::error(req.id, &format!("no handler at {:?}", req.endpoint)),
        }
    }
}

#[derive(Default)]
struct StatsInner {
    connections: AtomicU64,
    requests: AtomicU64,
    subscriptions: AtomicU64,
    pushes: AtomicU64,
    chaos_resets: AtomicU64,
}

impl StatsInner {
    /// Counters resumed from a prior incarnation's snapshot — the lifetime
    /// accounting is the control server's only state, so carrying it across
    /// a crash/restart is what makes the restart observably seamless.
    fn seeded(carry: ServerStats) -> StatsInner {
        StatsInner {
            connections: AtomicU64::new(carry.connections),
            requests: AtomicU64::new(carry.requests),
            subscriptions: AtomicU64::new(carry.subscriptions),
            pushes: AtomicU64::new(carry.pushes),
            chaos_resets: AtomicU64::new(carry.chaos_resets),
        }
    }
}

/// A snapshot of one server's lifetime counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: u64,
    /// Request frames dispatched.
    pub requests: u64,
    /// Subscriptions registered.
    pub subscriptions: u64,
    /// Telemetry frames pushed.
    pub pushes: u64,
    /// Connections torn down by a [`WireFrame::ChaosReset`] directive.
    pub chaos_resets: u64,
}

struct Subscriber {
    topic: String,
    writer: Arc<Mutex<TcpStream>>,
}

type Subscribers = Arc<Mutex<Vec<Subscriber>>>;

/// The pause gate connection threads park on before dispatching while the
/// server realizes a hung-process fault.
type PauseGate = Arc<(Mutex<bool>, Condvar)>;

/// A handle to the socket of every connection still being served, keyed by
/// accept order: `shutdown` force-closes each to get its thread off a
/// blocking read, and a thread that exits on its own takes its entry out.
type ConnStreams = Arc<Mutex<BTreeMap<usize, TcpStream>>>;

/// Lock `m`, recovering the guard if a panicking handler poisoned it: every
/// structure behind these mutexes is valid after each single update.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// A running RPC server task: accept loop + one thread per connection,
/// dispatching into a [`Router`]. Dropping the handle shuts the server
/// down (idempotently; [`RpcServer::shutdown`] does it explicitly).
pub struct RpcServer {
    addr: SocketAddr,
    term: u64,
    endpoints: Vec<String>,
    stats: Arc<StatsInner>,
    shutdown: Arc<AtomicBool>,
    pause: PauseGate,
    accept: Option<JoinHandle<()>>,
    conn_streams: ConnStreams,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl RpcServer {
    /// Bind a loopback listener on an OS-assigned port and serve `router`
    /// as the first incarnation (term 1, fresh counters).
    pub fn spawn(router: Router) -> io::Result<RpcServer> {
        RpcServer::spawn_incarnation(router, 1, ServerStats::default())
    }

    /// Serve `router` as incarnation `term` on a fresh OS-assigned port,
    /// resuming `carry`'s lifetime counters. This is how a supervisor
    /// restarts a crashed server: the counters are the server's exported
    /// state, and the (strictly higher) term stamps every response so the
    /// client's fence rejects anything still in flight from the dead
    /// incarnation.
    pub fn spawn_incarnation(router: Router, term: u64, carry: ServerStats) -> io::Result<RpcServer> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let endpoints = router.endpoints();
        let stats = Arc::new(StatsInner::seeded(carry));
        let shutdown = Arc::new(AtomicBool::new(false));
        let pause: PauseGate = Arc::new((Mutex::new(false), Condvar::new()));
        let subscribers: Subscribers = Arc::new(Mutex::new(Vec::new()));
        let router = Arc::new(Mutex::new(router));
        let conn_streams = ConnStreams::default();
        let conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::default();

        let accept_stats = stats.clone();
        let accept_shutdown = shutdown.clone();
        let accept_pause = pause.clone();
        let accept_streams = conn_streams.clone();
        let accept_threads = conn_threads.clone();
        let accept = std::thread::spawn(move || {
            for (conn, stream) in listener.incoming().enumerate() {
                if accept_shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                accept_stats.connections.fetch_add(1, Ordering::Relaxed);
                if let Ok(handle) = stream.try_clone() {
                    lock(&accept_streams).insert(conn, handle);
                }
                let router = router.clone();
                let subscribers = subscribers.clone();
                let stats = accept_stats.clone();
                let shutdown = accept_shutdown.clone();
                let pause = accept_pause.clone();
                let streams = accept_streams.clone();
                let thread = std::thread::spawn(move || {
                    serve_connection(&stream, term, router, subscribers, stats, shutdown, pause);
                    // Hang up for real. Dropping `stream` alone would not:
                    // the handle kept for `shutdown` (and any subscriber's
                    // writer) holds the socket open, and a peer waiting to
                    // witness the teardown would sit out its read deadline.
                    lock(&streams).remove(&conn);
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                });
                let mut threads = lock(&accept_threads);
                threads.retain(|t| !t.is_finished());
                threads.push(thread);
            }
        });

        Ok(RpcServer {
            addr,
            term,
            endpoints,
            stats,
            shutdown,
            pause,
            accept: Some(accept),
            conn_streams,
            conn_threads,
        })
    }

    /// The bound address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The fencing term stamped into every response this incarnation writes.
    pub fn term(&self) -> u64 {
        self.term
    }

    /// The endpoints the router serves (the client's route table).
    pub fn endpoints(&self) -> &[String] {
        &self.endpoints
    }

    /// Lifetime counters so tests can assert the physical story (accepted
    /// connections, chaos teardowns, pushes) actually happened.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            connections: self.stats.connections.load(Ordering::Relaxed),
            requests: self.stats.requests.load(Ordering::Relaxed),
            subscriptions: self.stats.subscriptions.load(Ordering::Relaxed),
            pushes: self.stats.pushes.load(Ordering::Relaxed),
            chaos_resets: self.stats.chaos_resets.load(Ordering::Relaxed),
        }
    }

    /// Realize a hung-process fault: connection threads park before their
    /// next dispatch until [`RpcServer::resume`]. Connections stay open
    /// and requests are still read off the wire — nothing answers, which
    /// is exactly the failure mode client read deadlines exist for.
    pub fn pause(&self) {
        *lock(&self.pause.0) = true;
    }

    /// End a hung-process fault started by [`RpcServer::pause`].
    pub fn resume(&self) {
        self.resume_handle().resume();
    }

    /// A handle that ends a pause from another thread — the supervisor's
    /// timed-resume path for hung-process faults, which must not borrow the
    /// server while the hold elapses.
    pub fn resume_handle(&self) -> ResumeHandle {
        ResumeHandle {
            pause: self.pause.clone(),
        }
    }

    /// Stop the server completely: no thread of this incarnation can
    /// answer after this returns. Joins the accept loop, then force-closes
    /// every per-connection socket and joins its thread — connection
    /// threads used to be detached here, which left them serving an
    /// already-"shut-down" server and made zombie responses a live hazard.
    pub fn shutdown(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake any dispatcher parked on the pause gate so it can observe
        // the shutdown flag and exit.
        self.resume();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for stream in std::mem::take(&mut *lock(&self.conn_streams)).values() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        for handle in std::mem::take(&mut *lock(&self.conn_threads)) {
            let _ = handle.join();
        }
    }
}

impl Drop for RpcServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Ends an [`RpcServer::pause`] from any thread, without holding a borrow
/// of the server itself (see [`RpcServer::resume_handle`]).
pub struct ResumeHandle {
    pause: PauseGate,
}

impl ResumeHandle {
    /// Lift the pause: parked dispatchers wake and resume serving.
    pub fn resume(&self) {
        let (flag, cvar) = &*self.pause;
        *lock(flag) = false;
        cvar.notify_all();
    }
}

fn serve_connection(
    stream: &TcpStream,
    term: u64,
    router: Arc<Mutex<Router>>,
    subscribers: Subscribers,
    stats: Arc<StatsInner>,
    shutdown: Arc<AtomicBool>,
    pause: PauseGate,
) {
    stream.set_nodelay(true).ok();
    let Ok(writer) = stream.try_clone() else {
        return;
    };
    let writer = Arc::new(Mutex::new(writer));
    let mut reader = stream;
    // A read error means the peer hung up or sent garbage: drop the conn.
    while let Ok(frame) = read_frame(&mut reader) {
        match frame {
            WireFrame::Request(req) => {
                // Hung-server realization: the request is off the wire,
                // but nothing dispatches until the pause lifts (shutdown
                // always gets through).
                {
                    let (flag, cvar) = &*pause;
                    let mut paused = lock(flag);
                    while *paused && !shutdown.load(Ordering::SeqCst) {
                        let (guard, _) = cvar
                            .wait_timeout(paused, Duration::from_millis(25))
                            .unwrap_or_else(|p| p.into_inner());
                        paused = guard;
                    }
                }
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                stats.requests.fetch_add(1, Ordering::Relaxed);
                let endpoint = req.endpoint.clone();
                // The fan-out copy: only monitoring posts are published.
                let report = endpoint.ends_with("/monitoring").then(|| req.body.clone());
                let dispatched = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    lock(&router).dispatch(req)
                }));
                let response = match dispatched {
                    Ok(r) => r,
                    // A panicking handler kills its connection (no reply —
                    // the peer sees a mid-batch teardown), not the server.
                    Err(_) => break,
                };
                let delivered = response.status == Status::Ok;
                if write_frame(&mut *lock(&writer), &WireFrame::Response { term, response }).is_err() {
                    break;
                }
                // Monitoring posts fan out to subscribers after the ack, so
                // a push is only ever observed for an accepted report.
                if let Some(body) = report.filter(|_| delivered) {
                    publish(&subscribers, &stats, &endpoint, body);
                }
            }
            WireFrame::Subscribe { id, topic } => {
                stats.subscriptions.fetch_add(1, Ordering::Relaxed);
                lock(&subscribers).push(Subscriber {
                    topic,
                    writer: writer.clone(),
                });
                let ack = WireFrame::Response {
                    term,
                    response: Response::ok(id, Vec::new()),
                };
                if write_frame(&mut *lock(&writer), &ack).is_err() {
                    break;
                }
            }
            WireFrame::ChaosReset => {
                stats.chaos_resets.fetch_add(1, Ordering::Relaxed);
                // Close without replying: the connection thread shuts the
                // socket down once this function returns, and the client's
                // pending read sees a real teardown.
                break;
            }
            // Server-bound connections never carry these; a peer that sends
            // them is confused, and the safe reaction is to hang up.
            WireFrame::Response { .. } | WireFrame::Push { .. } => break,
        }
    }
}

/// Push `body` to every subscriber of `topic`: one frame, serialized once
/// (and only if somebody listens), written to each.
fn publish(subscribers: &Subscribers, stats: &StatsInner, topic: &str, body: Body) {
    let mut subscribers = lock(subscribers);
    if !subscribers.iter().any(|sub| sub.topic == topic) {
        return;
    }
    let push = WireFrame::Push {
        topic: topic.to_owned(),
        body,
    };
    let Ok(frame) = serde_json::to_vec(&push) else {
        return;
    };
    subscribers.retain(|sub| {
        if sub.topic != topic {
            return true;
        }
        match write_frame_bytes(&mut *lock(&sub.writer), &frame) {
            Ok(()) => {
                stats.pushes.fetch_add(1, Ordering::Relaxed);
                true
            }
            // A dead subscriber is pruned on its first failed push.
            Err(_) => false,
        }
    });
}

/// Wall-clock deadlines bounding the socket client's blocking operations.
///
/// A hung server (process alive, dispatch stalled) used to stall the whole
/// control plane on a read that never returned — or, once both socket
/// buffers were full of frames nobody drained, on a write that never
/// did. With deadlines, a connect, read or write that exceeds its bound
/// surfaces as [`BusError::Deadline`](crate::bus::BusError::Deadline) — a
/// bounded, accounted delay instead of a forever-stall.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BusDeadlines {
    /// Deadline on establishing a connection.
    pub connect: Duration,
    /// Deadline on waiting for a response frame, and on each blocked
    /// write of a request frame.
    pub read: Duration,
}

impl Default for BusDeadlines {
    fn default() -> Self {
        BusDeadlines {
            connect: Duration::from_secs(1),
            read: Duration::from_secs(10),
        }
    }
}

/// Per-address redial state: how many dials have failed in a row and the
/// instant before which further dials are suppressed.
struct ConnectFailure {
    attempts: u32,
    retry_at: Instant,
}

/// The endpoint's domain prefix (`"ran/health"` → `"ran"`), the key
/// incarnation terms are fenced under — one controller process per domain.
fn domain_of(endpoint: &str) -> &str {
    endpoint.split('/').next().unwrap_or(endpoint)
}

/// The bus error for a failed socket operation on `what`: an expired
/// connect/read/write deadline (platform-dependently `WouldBlock` or
/// `TimedOut`) is a [`BusError::Deadline`], anything else a
/// [`BusError::Transport`].
fn io_failure(what: &str, e: &io::Error) -> BusError {
    if matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    ) {
        BusError::Deadline(format!("{what}: {e}"))
    } else {
        BusError::Transport(format!("{what}: {e}"))
    }
}

/// The slot error of a pipelined request whose connection went away with
/// its answer still owed.
fn lost_before_response(endpoint: &str) -> BusError {
    BusError::Transport(format!("{endpoint}: connection lost before response"))
}

/// The socket client: the same call surface and accounting contract as the
/// in-process bus (see [`crate::transport`]), carried over framed TCP.
///
/// Connections are opened lazily per server address and cached; an I/O
/// error tears the cached connection down so the next call reconnects —
/// which is exactly how the injected outage/drop faults become visible as
/// refused connects and mid-call resets. Connects and reads run under
/// [`BusDeadlines`]; redials of an address whose dial just failed back off
/// on a seeded [`RetryPolicy`] schedule; responses are term-fenced per
/// domain (see [`SocketBus::fence`]).
#[derive(Default)]
pub struct SocketBus {
    routes: BTreeMap<String, SocketAddr>,
    conns: BTreeMap<SocketAddr, TcpStream>,
    next_id: u64,
    requests_served: BTreeMap<String, u64>,
    pushed: Vec<(String, Vec<u8>)>,
    deadlines: BusDeadlines,
    reconnect_policy: RetryPolicy,
    reconnect_rng: Option<SimRng>,
    backoff: BTreeMap<SocketAddr, ConnectFailure>,
    connect_attempts: u64,
    min_terms: BTreeMap<String, u64>,
    stale_rejections: u64,
}

impl SocketBus {
    /// An empty client with no routes.
    pub fn new() -> SocketBus {
        SocketBus::default()
    }

    /// Route `endpoint` to the server at `addr`.
    pub fn route(&mut self, endpoint: &str, addr: SocketAddr) {
        self.routes.insert(endpoint.to_owned(), addr);
    }

    /// Route every endpoint `server` exposes to its address.
    pub fn attach(&mut self, server: &RpcServer) {
        for endpoint in server.endpoints() {
            self.route(endpoint, server.addr());
        }
    }

    /// Replace the wall-clock connect/read deadlines. Applies to
    /// connections opened after the call.
    pub fn set_deadlines(&mut self, deadlines: BusDeadlines) {
        self.deadlines = deadlines;
    }

    /// The wall-clock deadlines in force.
    pub fn deadlines(&self) -> BusDeadlines {
        self.deadlines
    }

    /// Replace the redial backoff policy and seed its jitter stream. After
    /// a failed dial, further dials of that address fail fast until the
    /// (jittered, exponentially growing) cooldown expires — a dead server
    /// costs one refused connect per backoff window, not one per call.
    pub fn set_reconnect_policy(&mut self, policy: RetryPolicy, seed: u64) {
        self.reconnect_policy = policy;
        self.reconnect_rng = Some(SimRng::seed_from(seed));
    }

    /// Dials attempted (successful or not) over this bus's lifetime. Lets
    /// tests pin that redials of a dead address are rate-limited.
    pub fn connect_attempts(&self) -> u64 {
        self.connect_attempts
    }

    /// Raise `domain`'s minimum acceptable incarnation term. A response
    /// stamped with an older term is rejected as stale: the call errors,
    /// the connection is abandoned, and nothing is accounted — a zombie
    /// connection into a dead incarnation can never be believed.
    pub fn fence(&mut self, domain: &str, term: u64) {
        let min = self.min_terms.entry(domain.to_owned()).or_insert(0);
        if term > *min {
            *min = term;
        }
    }

    /// The minimum incarnation term currently accepted for `domain` (0
    /// until fenced explicitly or ratcheted up by an observed response).
    pub fn fenced_term(&self, domain: &str) -> u64 {
        self.min_terms.get(domain).copied().unwrap_or(0)
    }

    /// Responses rejected because their incarnation term was stale.
    pub fn stale_rejections(&self) -> u64 {
        self.stale_rejections
    }

    fn ensure_conn(&mut self, addr: SocketAddr) -> Result<(), BusError> {
        if self.conns.contains_key(&addr) {
            return Ok(());
        }
        if let Some(fail) = self.backoff.get(&addr) {
            if Instant::now() < fail.retry_at {
                return Err(BusError::Transport(format!(
                    "connect {addr}: backing off after {} failed dial(s)",
                    fail.attempts
                )));
            }
        }
        self.connect_attempts += 1;
        match TcpStream::connect_timeout(&addr, self.deadlines.connect) {
            Ok(stream) => {
                stream.set_nodelay(true).ok();
                stream.set_read_timeout(Some(self.deadlines.read)).ok();
                stream.set_write_timeout(Some(self.deadlines.read)).ok();
                self.backoff.remove(&addr);
                self.conns.insert(addr, stream);
                Ok(())
            }
            Err(e) => {
                let attempts = self.backoff.get(&addr).map_or(0, |f| f.attempts) + 1;
                let wait = match self.reconnect_rng.as_mut() {
                    Some(rng) => self.reconnect_policy.jittered_backoff(attempts, rng),
                    None => self.reconnect_policy.backoff(attempts),
                };
                self.backoff.insert(
                    addr,
                    ConnectFailure {
                        attempts,
                        retry_at: Instant::now() + Duration::from_secs_f64(wait.as_secs_f64()),
                    },
                );
                Err(io_failure(&format!("connect {addr}"), &e))
            }
        }
    }

    /// One believed exchange on `endpoint`'s connection: send the frame
    /// `frame_for` builds around the next correlation id, wait for the
    /// answer, and commit the id only once a response is in hand whose
    /// incarnation term is not fenced off. An unrouted endpoint, a
    /// transport failure mid-call, or a stale answer consumes nothing (a
    /// retried call reuses the id — harmless, because the abandoned
    /// connection's responses can no longer be received).
    fn round_trip(
        &mut self,
        endpoint: &str,
        frame_for: impl FnOnce(u64) -> WireFrame,
    ) -> Result<Response, BusError> {
        let addr = *self
            .routes
            .get(endpoint)
            .ok_or_else(|| BusError::NoSuchEndpoint(endpoint.to_owned()))?;
        self.ensure_conn(addr)?;
        let id = self.next_id;
        let stream = self.conns.get_mut(&addr).expect("ensured above");
        match exchange(stream, &mut self.pushed, &frame_for(id), id) {
            Ok((term, response)) => {
                let min = self.fenced_term(domain_of(endpoint));
                if term < min {
                    // A zombie answer from a fenced-off incarnation: do not
                    // believe it, do not account it, abandon the conn.
                    self.stale_rejections += 1;
                    self.conns.remove(&addr);
                    return Err(BusError::Transport(format!(
                        "{endpoint}: stale incarnation term {term} (fenced at {min})"
                    )));
                }
                // Once a newer incarnation has answered, older terms are
                // stale even without an explicit fence.
                self.fence(domain_of(endpoint), term);
                self.next_id += 1;
                Ok(response)
            }
            Err(e) => {
                self.conns.remove(&addr);
                Err(io_failure(endpoint, &e))
            }
        }
    }

    /// Issue a request and wait for its response. Mirrors the in-process
    /// accounting exactly: the correlation id and the served count commit
    /// together, and only for a believed response: an unrouted endpoint, a
    /// transport failure mid-call, or a stale answer leaves `export_state`
    /// unchanged.
    pub fn call(&mut self, endpoint: &str, body: Vec<u8>) -> Result<Response, BusError> {
        let response = self.round_trip(endpoint, |id| {
            WireFrame::Request(Request {
                id,
                endpoint: endpoint.to_owned(),
                body: Body(body),
            })
        })?;
        *self
            .requests_served
            .entry(endpoint.to_owned())
            .or_insert(0) += 1;
        Ok(response)
    }

    /// Issue many requests with all of them in flight before the first
    /// response is read — per-connection pipelining. Requests are written
    /// in order (ids ascend in call order); responses are demultiplexed by
    /// correlation id per connection. One failed slot does not fail the
    /// batch.
    ///
    /// Nothing is read while the batch is written, so a batch whose
    /// answers outgrow the socket buffers stalls both ends; the write
    /// deadline ([`BusDeadlines::read`]) turns that stall into a failed
    /// write, which abandons the connection, fails the slots in flight on
    /// it, and lets the rest of the batch redial.
    ///
    /// Accounting: a pipelined request's id commits at *send* (it reached
    /// a server and will dispatch), and its served count at response
    /// receipt — use [`SocketBus::call`] where oracle-exact accounting
    /// matters; pipelining is the throughput path.
    pub fn call_pipelined(
        &mut self,
        calls: Vec<(String, Vec<u8>)>,
    ) -> Vec<Result<Response, BusError>> {
        struct Pending {
            slot: usize,
            endpoint: String,
        }
        let mut results: Vec<Option<Result<Response, BusError>>> =
            calls.iter().map(|_| None).collect();
        let mut per_addr: BTreeMap<SocketAddr, BTreeMap<u64, Pending>> = BTreeMap::new();

        // Send phase: every routable request goes out before any read.
        for (slot, (endpoint, body)) in calls.into_iter().enumerate() {
            let Some(&addr) = self.routes.get(&endpoint) else {
                results[slot] = Some(Err(BusError::NoSuchEndpoint(endpoint)));
                continue;
            };
            if let Err(e) = self.ensure_conn(addr) {
                results[slot] = Some(Err(e));
                continue;
            }
            let id = self.next_id;
            let frame = WireFrame::Request(Request {
                id,
                endpoint: endpoint.clone(),
                body: Body(body),
            });
            let stream = self.conns.get_mut(&addr).expect("ensured above");
            match write_frame(stream, &frame) {
                Ok(()) => {
                    self.next_id += 1;
                    per_addr
                        .entry(addr)
                        .or_default()
                        .insert(id, Pending { slot, endpoint });
                }
                Err(e) => {
                    // A frame cut short desynchronizes the stream: the
                    // connection goes, and with it every answer still owed
                    // on it.
                    self.conns.remove(&addr);
                    for (_, p) in per_addr.remove(&addr).unwrap_or_default() {
                        results[p.slot] = Some(Err(lost_before_response(&p.endpoint)));
                    }
                    results[slot] = Some(Err(io_failure(&endpoint, &e)));
                }
            }
        }

        // Receive phase: drain each connection, matching responses by id.
        let conns = &mut self.conns;
        let pushed = &mut self.pushed;
        let served = &mut self.requests_served;
        let min_terms = &mut self.min_terms;
        let stale = &mut self.stale_rejections;
        for (addr, mut pending) in per_addr {
            while !pending.is_empty() {
                let Some(stream) = conns.get_mut(&addr) else {
                    break;
                };
                match read_frame(stream) {
                    Ok(WireFrame::Push { topic, body }) => pushed.push((topic, body.0)),
                    Ok(WireFrame::Response { term, response }) => {
                        let Some(p) = pending.remove(&response.id) else {
                            // A response nobody asked for: the stream is
                            // desynchronized; abandon the connection.
                            conns.remove(&addr);
                            break;
                        };
                        let domain = domain_of(&p.endpoint);
                        let min = min_terms.get(domain).copied().unwrap_or(0);
                        if term < min {
                            // The whole connection talks to a fenced-off
                            // incarnation: reject this slot, abandon the
                            // conn (remaining slots report it lost below).
                            *stale += 1;
                            results[p.slot] = Some(Err(BusError::Transport(format!(
                                "{}: stale incarnation term {term} (fenced at {min})",
                                p.endpoint
                            ))));
                            conns.remove(&addr);
                            break;
                        }
                        let noted = min_terms.entry(domain.to_owned()).or_insert(0);
                        if term > *noted {
                            *noted = term;
                        }
                        *served.entry(p.endpoint).or_insert(0) += 1;
                        results[p.slot] = Some(Ok(response));
                    }
                    Ok(_) | Err(_) => {
                        conns.remove(&addr);
                        break;
                    }
                }
            }
            for (_, p) in pending {
                results[p.slot] = Some(Err(lost_before_response(&p.endpoint)));
            }
        }

        results
            .into_iter()
            .map(|r| r.expect("every slot is filled in send or receive phase"))
            .collect()
    }

    /// Subscribe this client's connection to `topic` (a monitoring
    /// endpoint). Pushed frames accumulate as calls drain the connection;
    /// collect them with [`SocketBus::take_pushed`].
    pub fn subscribe(&mut self, topic: &str) -> Result<(), BusError> {
        let subscribe = |id| WireFrame::Subscribe {
            id,
            topic: topic.to_owned(),
        };
        self.round_trip(topic, subscribe).map(|_ack| ())
    }

    /// Drain the telemetry frames pushed on this client's connections
    /// since the last call.
    pub fn take_pushed(&mut self) -> Vec<(String, Vec<u8>)> {
        std::mem::take(&mut self.pushed)
    }

    /// Requests served (responses received) at `endpoint`.
    pub fn served(&self, endpoint: &str) -> u64 {
        self.requests_served.get(endpoint).copied().unwrap_or(0)
    }

    /// The client-side accounting, shape-identical to the in-process
    /// bus's ([`BusState`]) so summaries can compare across transports.
    pub fn export_state(&self) -> BusState {
        BusState {
            next_id: self.next_id,
            requests_served: self.requests_served.clone(),
        }
    }

    /// Overwrite the accounting captured by [`SocketBus::export_state`].
    /// Routes and live connections are untouched.
    pub fn restore_state(&mut self, state: &BusState) {
        self.next_id = state.next_id;
        self.requests_served = state.requests_served.clone();
    }

    /// Physically realize a decided request drop: send the server the
    /// [`WireFrame::ChaosReset`] directive and *witness* the teardown (the
    /// read below returns EOF/reset once the server closes without
    /// replying). No id is consumed and nothing is counted as served —
    /// the dropped request never dispatched, matching the in-process
    /// oracle where a drop is pure absence.
    pub fn realize_drop(&mut self, endpoint: &str) {
        let Some(&addr) = self.routes.get(endpoint) else {
            return;
        };
        if self.ensure_conn(addr).is_err() {
            return; // connect refused: the drop is already physical
        }
        let stream = self.conns.get_mut(&addr).expect("ensured above");
        let _ = write_frame(stream, &WireFrame::ChaosReset);
        let mut sink = [0u8; 64];
        let _ = stream.read(&mut sink); // blocks until the server hangs up
        self.conns.remove(&addr);
    }

    /// Physically realize a decided outage: shut down and forget the
    /// cached connection, so the next attempt has to reconnect from
    /// scratch (and, against a stopped server, gets a refused connect).
    pub fn realize_outage(&mut self, endpoint: &str) {
        let Some(&addr) = self.routes.get(endpoint) else {
            return;
        };
        if let Some(stream) = self.conns.remove(&addr) {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
    }
}

/// Write `frame`, then read until the response correlated with `want_id`
/// arrives, buffering any telemetry pushes that interleave. Returns the
/// response together with the incarnation term it was stamped with; the
/// caller decides whether that term is still believable.
fn exchange(
    stream: &mut TcpStream,
    pushed: &mut Vec<(String, Vec<u8>)>,
    frame: &WireFrame,
    want_id: u64,
) -> io::Result<(u64, Response)> {
    write_frame(stream, frame)?;
    loop {
        match read_frame(stream)? {
            WireFrame::Push { topic, body } => pushed.push((topic, body.0)),
            WireFrame::Response { term, response } if response.id == want_id => {
                return Ok((term, response))
            }
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unexpected frame awaiting response {want_id}: {other:?}"),
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::register_control_endpoints;

    fn echo_server() -> RpcServer {
        let mut router = Router::new();
        router.register("echo", |req: Request| Response::ok(req.id, req.body.0));
        register_control_endpoints(&mut router, "ran");
        RpcServer::spawn(router).expect("bind loopback")
    }

    #[test]
    fn frame_bytes_round_trip() {
        let mut buf = Vec::new();
        write_frame_bytes(&mut buf, b"hello").unwrap();
        assert_eq!(&buf[..4], &5u32.to_be_bytes());
        let mut r = &buf[..];
        assert_eq!(read_frame_bytes(&mut r).unwrap(), b"hello");
    }

    #[test]
    fn truncated_frame_is_unexpected_eof() {
        let mut buf = Vec::new();
        write_frame_bytes(&mut buf, b"hello").unwrap();
        buf.truncate(buf.len() - 2);
        let mut r = &buf[..];
        let err = read_frame_bytes(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut buf = (u32::MAX).to_be_bytes().to_vec();
        buf.extend_from_slice(b"junk");
        let mut r = &buf[..];
        let err = read_frame_bytes(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn call_round_trips_over_a_real_socket() {
        let server = echo_server();
        let mut bus = SocketBus::new();
        bus.attach(&server);
        let resp = bus.call("echo", b"over tcp".to_vec()).unwrap();
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.body.0, b"over tcp");
        assert_eq!(resp.id, 0);
        assert_eq!(bus.served("echo"), 1);
        assert!(server.stats().connections >= 1);
    }

    #[test]
    fn unrouted_endpoint_consumes_no_id() {
        let server = echo_server();
        let mut bus = SocketBus::new();
        bus.attach(&server);
        bus.call("echo", vec![]).unwrap();
        let before = bus.export_state();
        assert!(matches!(
            bus.call("missing", vec![]),
            Err(BusError::NoSuchEndpoint(_))
        ));
        assert_eq!(bus.export_state(), before);
        assert_eq!(bus.call("echo", vec![]).unwrap().id, 1);
    }

    #[test]
    fn pipelined_responses_come_back_in_request_order() {
        let server = echo_server();
        let mut bus = SocketBus::new();
        bus.attach(&server);
        let calls: Vec<(String, Vec<u8>)> =
            (0..32u8).map(|i| ("echo".to_owned(), vec![i])).collect();
        let results = bus.call_pipelined(calls);
        assert_eq!(results.len(), 32);
        for (i, r) in results.into_iter().enumerate() {
            let resp = r.unwrap();
            assert_eq!(resp.body.0, vec![i as u8]);
            assert_eq!(resp.id, i as u64);
        }
        assert_eq!(bus.served("echo"), 32);
    }

    #[test]
    fn pipelined_batch_isolates_a_bad_slot() {
        let server = echo_server();
        let mut bus = SocketBus::new();
        bus.attach(&server);
        let results = bus.call_pipelined(vec![
            ("echo".to_owned(), b"a".to_vec()),
            ("nowhere".to_owned(), vec![]),
            ("echo".to_owned(), b"b".to_vec()),
        ]);
        assert_eq!(results[0].as_ref().unwrap().body.0, b"a");
        assert!(matches!(results[1], Err(BusError::NoSuchEndpoint(_))));
        assert_eq!(results[2].as_ref().unwrap().body.0, b"b");
    }

    #[test]
    fn subscription_receives_monitoring_pushes() {
        let server = echo_server();
        let mut subscriber = SocketBus::new();
        subscriber.attach(&server);
        subscriber.subscribe("ran/monitoring").unwrap();

        let mut poster = SocketBus::new();
        poster.attach(&server);
        poster.call("ran/monitoring", b"report-1".to_vec()).unwrap();
        // The server publishes after the ack, on the poster's connection
        // thread: once that thread answers again, the push is written.
        poster.call("ran/health", vec![]).unwrap();

        // The push lands on the subscriber's connection; a call drains it.
        let resp = subscriber.call("ran/health", vec![]).unwrap();
        assert_eq!(resp.status, Status::Ok);
        let pushed = subscriber.take_pushed();
        assert_eq!(
            pushed,
            vec![("ran/monitoring".to_owned(), b"report-1".to_vec())]
        );
        assert_eq!(server.stats().pushes, 1);
        assert_eq!(server.stats().subscriptions, 1);
    }

    #[test]
    fn chaos_reset_is_a_real_teardown_and_leaves_accounting_alone() {
        let server = echo_server();
        let mut bus = SocketBus::new();
        bus.attach(&server);
        bus.call("echo", vec![]).unwrap();
        let before = bus.export_state();
        let conns_before = server.stats().connections;

        bus.realize_drop("echo");
        assert_eq!(server.stats().chaos_resets, 1);
        assert_eq!(bus.export_state(), before, "drops dispatch nothing");

        // The connection really died: the next call transparently
        // reconnects (a new accepted connection on the server side).
        let resp = bus.call("echo", b"after".to_vec()).unwrap();
        assert_eq!(resp.body.0, b"after");
        assert!(server.stats().connections > conns_before);
    }

    #[test]
    fn realized_drops_are_witnessed_promptly_and_leave_no_connection_behind() {
        // Regression: the accept loop kept a clone of every accepted socket
        // (so `shutdown` can unblock readers) and nothing ever closed it, so
        // after `ChaosReset` the fd stayed open, the client's witnessing
        // read sat out the full 10 s read deadline, and the server's
        // connection tables grew by one entry per connection forever.
        let server = echo_server();
        let mut bus = SocketBus::new();
        bus.attach(&server);
        assert_eq!(bus.deadlines(), BusDeadlines::default());
        bus.call("echo", vec![]).unwrap();

        let t0 = Instant::now();
        bus.realize_drop("echo");
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "the teardown was waited out, not witnessed: {:?}",
            t0.elapsed()
        );

        for i in 0..100u8 {
            bus.realize_drop("echo");
            assert_eq!(bus.call("echo", vec![i]).unwrap().body.0, vec![i]);
        }
        assert_eq!(server.stats().chaos_resets, 101);
        // A connection thread takes its socket out of the table before it
        // hangs up, and the client has witnessed every hang-up but the
        // live connection's.
        assert!(lock(&server.conn_streams).len() <= 1);
        assert!(
            lock(&server.conn_threads).len() <= 8,
            "finished connection threads are pruned at the next accept"
        );
    }

    #[test]
    fn outage_realization_forces_reconnect_and_refused_connect_when_down() {
        let mut server = echo_server();
        let mut bus = SocketBus::new();
        bus.attach(&server);
        bus.call("echo", vec![]).unwrap();

        bus.realize_outage("echo");
        // Server still up: next call reconnects fine.
        bus.call("echo", vec![]).unwrap();

        // Server gone: the reconnect is *refused* — the outage is physical.
        let addr = server.addr();
        server.shutdown();
        drop(server);
        bus.realize_outage("echo");
        match bus.call("echo", vec![]) {
            Err(BusError::Transport(msg)) => {
                assert!(msg.contains(&addr.port().to_string()) || msg.contains("echo"))
            }
            other => panic!("expected transport error, got {other:?}"),
        }
    }

    #[test]
    fn canonical_handlers_match_in_process_registrations() {
        use crate::bus::MessageBus;
        let mut bus = MessageBus::new();
        register_control_endpoints(bus.router_mut(), "ran");
        let server = echo_server();
        let mut sock = SocketBus::new();
        sock.attach(&server);

        let a = bus.call("ran/health", vec![]).unwrap();
        let b = sock.call("ran/health", vec![]).unwrap();
        assert_eq!(a, b);
        let a = bus.call("ran/monitoring", b"m".to_vec()).unwrap();
        let b = sock.call("ran/monitoring", b"m".to_vec()).unwrap();
        assert_eq!(a, b);
        assert_eq!(bus.export_state(), sock.export_state());
    }

    #[test]
    fn wire_frame_serde_round_trips() {
        let frames = vec![
            WireFrame::Request(Request {
                id: 1,
                endpoint: "e".into(),
                body: Body(vec![1, 2]),
            }),
            WireFrame::Response {
                term: 7,
                response: Response::ok(1, vec![3]),
            },
            WireFrame::Subscribe {
                id: 2,
                topic: "t".into(),
            },
            WireFrame::Push {
                topic: "t".into(),
                body: Body(vec![4]),
            },
            WireFrame::ChaosReset,
        ];
        let mut buf = Vec::new();
        for f in &frames {
            write_frame(&mut buf, f).unwrap();
        }
        let mut r = &buf[..];
        for f in &frames {
            assert_eq!(&read_frame(&mut r).unwrap(), f);
        }
        assert!(read_frame(&mut r).is_err(), "stream exhausted");
    }

    #[test]
    fn shutdown_silences_held_open_connections() {
        // Regression: shutdown() joined only the accept loop; connection
        // threads were detached and kept serving an already-"shut-down"
        // server, so a held-open connection still got responses.
        let mut server = echo_server();
        let mut bus = SocketBus::new();
        bus.attach(&server);
        bus.call("echo", vec![]).unwrap(); // live connection thread
        let before = bus.export_state();

        server.shutdown();

        // The cached connection is still held open client-side. No
        // response may ever arrive on it now.
        let err = bus.call("echo", b"zombie?".to_vec());
        assert!(err.is_err(), "a dead server answered: {err:?}");
        assert_eq!(
            bus.export_state(),
            before,
            "the failed call must not consume accounting"
        );
    }

    #[test]
    fn paused_server_times_out_as_a_deadline_not_a_stall() {
        let server = echo_server();
        server.pause();
        let mut bus = SocketBus::new();
        bus.set_deadlines(BusDeadlines {
            connect: Duration::from_secs(1),
            read: Duration::from_millis(200),
        });
        bus.attach(&server);

        let t0 = Instant::now();
        match bus.call("echo", vec![]) {
            Err(BusError::Deadline(msg)) => assert!(msg.contains("echo"), "{msg}"),
            other => panic!("expected deadline error from hung server, got {other:?}"),
        }
        // Bounded: the stall costs roughly the read deadline, not forever.
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "hung server stalled the client for {:?}",
            t0.elapsed()
        );

        server.resume();
        let resp = bus.call("echo", b"alive".to_vec()).unwrap();
        assert_eq!(resp.body.0, b"alive");
    }

    #[test]
    fn pipelined_large_echoes_end_in_a_deadline_not_a_deadlock() {
        // Regression: the batch is written in full before anything is
        // read, the server blocks writing echoes nobody drains, both socket
        // buffers fill, and the client's `write_all` had no deadline — 4 ×
        // 1 MiB to an echoing endpoint never returned.
        let server = echo_server();
        let mut bus = SocketBus::new();
        bus.set_deadlines(BusDeadlines {
            read: Duration::from_millis(250),
            ..BusDeadlines::default()
        });
        bus.attach(&server);
        let calls: Vec<(String, Vec<u8>)> = (0..16u8)
            .map(|i| ("ran/monitoring".to_owned(), vec![i; 1 << 20]))
            .collect();

        let t0 = Instant::now();
        let results = bus.call_pipelined(calls);
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "the batch stalled for {:?}",
            t0.elapsed()
        );
        assert_eq!(results.len(), 16);
        for (i, r) in results.iter().enumerate() {
            match r {
                Ok(resp) => assert_eq!(resp.body.0, vec![i as u8; 1 << 20], "slot {i}"),
                Err(BusError::Deadline(_) | BusError::Transport(_)) => {}
                Err(other) => panic!("slot {i}: {other:?}"),
            }
        }

        // Whatever the batch did to its connections, the bus redials.
        let resp = bus.call("echo", b"after".to_vec()).unwrap();
        assert_eq!(resp.body.0, b"after");
    }

    #[test]
    fn dead_address_redials_are_rate_limited() {
        let mut server = echo_server();
        let mut bus = SocketBus::new();
        bus.attach(&server);
        // A huge base backoff makes the attempt count exact: after the
        // first refused dial, every later call fails fast without dialing.
        bus.set_reconnect_policy(
            RetryPolicy {
                base_backoff: ovnes_sim::SimDuration::from_secs(60),
                max_backoff: ovnes_sim::SimDuration::from_secs(120),
                ..RetryPolicy::default()
            },
            99,
        );
        server.shutdown();
        drop(server);

        for _ in 0..10 {
            assert!(bus.call("echo", vec![]).is_err());
        }
        assert_eq!(
            bus.connect_attempts(),
            1,
            "redials of a dead address must back off, not storm"
        );
    }

    #[test]
    fn server_death_mid_pipelined_batch_fails_exact_slots() {
        use std::sync::atomic::AtomicU64;
        // A handler that serves two requests and then dies (the panic
        // kills the connection thread without a reply — a crash landing
        // mid-batch).
        let flaky_router = |deaths: Arc<AtomicU64>| {
            let mut router = Router::new();
            router.register("flaky/op", move |req: Request| {
                if deaths.fetch_add(1, Ordering::SeqCst) == 2 {
                    panic!("injected crash mid-batch");
                }
                Response::ok(req.id, req.body.0)
            });
            router
        };
        let hits = Arc::new(AtomicU64::new(0));
        let server = RpcServer::spawn(flaky_router(hits.clone())).unwrap();
        let mut bus = SocketBus::new();
        bus.attach(&server);

        let calls: Vec<(String, Vec<u8>)> =
            (0..5u8).map(|i| ("flaky/op".to_owned(), vec![i])).collect();
        let results = bus.call_pipelined(calls);

        // Already-received slots stay Ok; unfilled slots report Transport
        // errors at exactly the right indices.
        for (i, r) in results.iter().enumerate().take(2) {
            assert_eq!(r.as_ref().unwrap().body.0, vec![i as u8], "slot {i}");
        }
        for (i, r) in results.iter().enumerate().skip(2) {
            assert!(
                matches!(r, Err(BusError::Transport(_))),
                "slot {i}: {r:?}"
            );
        }

        // Pipelined ids commit at send, served counts at receipt: all 5
        // writes reached a server, 2 responses came back.
        assert_eq!(bus.export_state().next_id, 5);
        assert_eq!(bus.served("flaky/op"), 2);

        // A retry of the unfilled tail against a restarted server finds
        // the accounting consistent: fresh ids continue from 5.
        let retry_hits = Arc::new(AtomicU64::new(u64::MAX / 2)); // never dies
        let server2 = RpcServer::spawn(flaky_router(retry_hits)).unwrap();
        bus.attach(&server2); // re-route flaky/op to the new incarnation
        let retry: Vec<(String, Vec<u8>)> =
            (2..5u8).map(|i| ("flaky/op".to_owned(), vec![i])).collect();
        let results = bus.call_pipelined(retry);
        for (k, r) in results.iter().enumerate() {
            let resp = r.as_ref().unwrap();
            assert_eq!(resp.id, 5 + k as u64);
            assert_eq!(resp.body.0, vec![2 + k as u8]);
        }
        assert_eq!(bus.export_state().next_id, 8);
        assert_eq!(bus.served("flaky/op"), 5);
    }

    #[test]
    fn stale_incarnation_responses_are_fenced_off() {
        let server = echo_server(); // incarnation term 1
        assert_eq!(server.term(), 1);
        let mut bus = SocketBus::new();
        bus.attach(&server);
        bus.call("echo", vec![]).unwrap();
        // Accepting a response ratchets the observed term.
        assert_eq!(bus.fenced_term("echo"), 1);
        let before = bus.export_state();

        // A lease transfer happened elsewhere: term 2 is now the minimum.
        // The cached connection still reaches the old incarnation, whose
        // answer arrives stamped term 1 — a zombie that must be rejected.
        bus.fence("echo", 2);
        match bus.call("echo", b"zombie".to_vec()) {
            Err(BusError::Transport(msg)) => {
                assert!(msg.contains("stale incarnation term 1"), "{msg}")
            }
            other => panic!("stale response was believed: {other:?}"),
        }
        assert_eq!(bus.stale_rejections(), 1);
        assert_eq!(
            bus.export_state(),
            before,
            "a rejected zombie consumes no accounting"
        );

        // The term-2 incarnation (counters carried over) is believed.
        let mut router = Router::new();
        router.register("echo", |req: Request| Response::ok(req.id, req.body.0));
        let next = RpcServer::spawn_incarnation(router, 2, server.stats()).unwrap();
        bus.attach(&next);
        let resp = bus.call("echo", b"fresh".to_vec()).unwrap();
        assert_eq!(resp.body.0, b"fresh");
        assert_eq!(bus.fenced_term("echo"), 2);
    }

    #[test]
    fn incarnation_resumes_carried_stats() {
        let server = echo_server();
        let mut bus = SocketBus::new();
        bus.attach(&server);
        bus.call("echo", vec![]).unwrap();
        bus.call("echo", vec![]).unwrap();
        let carried = server.stats();
        assert_eq!(carried.requests, 2);

        let mut router = Router::new();
        router.register("echo", |req: Request| Response::ok(req.id, req.body.0));
        let next = RpcServer::spawn_incarnation(router, 5, carried).unwrap();
        assert_eq!(next.term(), 5);
        assert_eq!(next.stats(), carried, "restart restores the snapshot");
        let mut bus2 = SocketBus::new();
        bus2.attach(&next);
        bus2.call("echo", vec![]).unwrap();
        assert_eq!(next.stats().requests, 3, "counters continue, not reset");
        assert_eq!(bus2.fenced_term("echo"), 5);
    }
}
