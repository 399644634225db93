//! The orchestrator's control plane: the REST boundary it drives domain
//! controllers over, made survivable.
//!
//! In the testbed, the orchestrator's health probes, commands, and
//! monitoring pulls are HTTP calls that can be dropped, delayed, or
//! answered 5xx. [`ControlPlane`] reproduces that boundary over the one
//! control seam, [`ControlTransport`]: by default an in-process
//! [`MessageBus`] hosting one `health` and one `monitoring` endpoint per
//! domain (the deterministic oracle), or — after
//! [`ControlPlane::install_socket`] — a [`SocketBus`] reaching real
//! controller server tasks over framed TCP.
//! Either way, an optional [`FaultInjector`] perturbs calls per a seeded
//! [`FaultPlan`] (realizing decided drops/outages as physical connection
//! teardowns on the socket plane), and a [`RetryPolicy`] drives bounded
//! retries with exponential, deterministically-jittered backoff under a
//! per-call deadline.
//!
//! With no fault plan installed (or with a quiet plan) every call succeeds
//! on the first attempt, makes no RNG draw, and is byte-identical to
//! calling the bus directly — chaos machinery costs nothing when idle.
//! Both transports get their control surface from the one
//! [`register_control_endpoints`], so run summaries are byte-identical
//! in-process vs. over RPC.

use ovnes_api::{
    register_control_endpoints, serve_control, BusState, ControlTransport, FaultInjector,
    FaultPlan, MessageBus, Response, RetryPolicy, SocketBus, Status,
};
use ovnes_sim::{SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The domains the orchestrator supervises, in probe order.
pub const DOMAINS: [&str; 3] = ["ran", "transport", "cloud"];

/// Per-epoch control-plane call accounting, drained by the orchestrator at
/// the end of each epoch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ControlEpochStats {
    /// Logical calls issued (each may span several attempts).
    pub calls: u64,
    /// Extra attempts beyond the first, across all calls.
    pub retries: u64,
    /// Calls that exhausted their retry budget or deadline.
    pub failures: u64,
}

/// The survivable REST boundary between orchestrator and controllers. See
/// module docs.
pub struct ControlPlane {
    transport: ControlTransport,
    injector: Option<FaultInjector>,
    retry: RetryPolicy,
    /// Jitter stream, created with the fault plan so that a plan-free
    /// control plane owns no RNG at all.
    jitter_rng: Option<SimRng>,
    epoch: ControlEpochStats,
}

impl ControlPlane {
    /// A control plane with `health` and `monitoring` endpoints registered
    /// for every domain, no faults, and the default retry policy.
    pub fn new() -> ControlPlane {
        let mut bus = MessageBus::new();
        for domain in DOMAINS {
            register_control_endpoints(bus.router_mut(), domain);
        }
        ControlPlane {
            transport: ControlTransport::InProcess(bus),
            injector: None,
            retry: RetryPolicy::default(),
            jitter_rng: None,
            epoch: ControlEpochStats::default(),
        }
    }

    /// Swap the transport to `socket`, carrying the current accounting
    /// over so correlation ids and served counts continue seamlessly.
    /// From here on, every probe and monitoring push crosses a real TCP
    /// connection to whatever server tasks the socket bus routes to.
    pub fn install_socket(&mut self, mut socket: SocketBus) {
        socket.restore_state(&self.transport.export_state());
        self.transport = ControlTransport::Socket(Box::new(socket));
    }

    /// True when calls travel over sockets rather than in-process.
    pub fn is_socket(&self) -> bool {
        matches!(self.transport, ControlTransport::Socket(_))
    }

    /// The socket bus, when calls travel over sockets. The supervision
    /// layer uses this to re-route endpoints to a restarted incarnation
    /// and to fence off the dead one's term.
    pub fn socket_mut(&mut self) -> Option<&mut SocketBus> {
        match &mut self.transport {
            ControlTransport::Socket(socket) => Some(socket),
            ControlTransport::InProcess(_) => None,
        }
    }

    /// Responses rejected as stale by incarnation-term fencing (0 on the
    /// in-process transport, where no zombie connection can exist).
    pub fn stale_rejections(&self) -> u64 {
        match &self.transport {
            ControlTransport::Socket(socket) => socket.stale_rejections(),
            ControlTransport::InProcess(_) => 0,
        }
    }

    /// Install a fault plan. The injector and the retry jitter stream are
    /// both seeded from the plan's own seed, so chaos runs reproduce
    /// bit-for-bit and never perturb the simulation's other RNG streams.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        // Jitter gets an independent stream derived from the plan seed.
        self.jitter_rng = Some(SimRng::seed_from(plan.seed() ^ 0x9E37_79B9_7F4A_7C15));
        self.injector = Some(FaultInjector::new(plan));
    }

    /// The retry policy in force.
    pub fn retry_policy(&self) -> &RetryPolicy {
        &self.retry
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.injector.as_ref().map(FaultInjector::plan)
    }

    /// Per-endpoint injected-fault stats (empty when no plan is installed).
    pub fn fault_stats(&self) -> Option<&BTreeMap<String, ovnes_api::EndpointStats>> {
        self.injector.as_ref().map(FaultInjector::stats)
    }

    /// Requests served by `endpoint` (successful dispatches only).
    pub fn served(&self, endpoint: &str) -> u64 {
        self.transport.served(endpoint)
    }

    /// Drain this epoch's call accounting.
    pub fn take_epoch_stats(&mut self) -> ControlEpochStats {
        std::mem::take(&mut self.epoch)
    }

    /// Probe a domain's health endpoint with retries. `true` means the
    /// domain is reachable this epoch.
    pub fn probe(&mut self, now: SimTime, domain: &str) -> bool {
        let endpoint = format!("{domain}/health");
        self.call_checked(now, &endpoint, Vec::new(), |r| r.status == Status::Ok)
            .is_some()
    }

    /// Issue `body` to `endpoint` with retries; a response is accepted only
    /// if `accept` holds (letting callers reject corrupted payloads and
    /// retry them). Returns `None` once attempts or the deadline run out.
    pub fn call_checked(
        &mut self,
        now: SimTime,
        endpoint: &str,
        body: Vec<u8>,
        mut accept: impl FnMut(&Response) -> bool,
    ) -> Option<Response> {
        self.epoch.calls += 1;
        let mut elapsed = SimDuration::ZERO;
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            if attempt > 1 {
                self.epoch.retries += 1;
            }
            let outcome = match self.injector.as_mut() {
                Some(inj) => inj.call(&mut self.transport, now + elapsed, endpoint, body.clone()),
                None => self
                    .transport
                    .call(endpoint, body.clone())
                    .map(|r| (r, SimDuration::ZERO))
                    .map_err(|e| ovnes_api::CallFailure::Bus(e.to_string())),
            };
            if let Ok((response, latency)) = outcome {
                elapsed += latency;
                // A 4xx rejection is a domain decision, not a transport
                // fault: retrying would not change it.
                if response.status == Status::Rejected {
                    return Some(response);
                }
                if response.status == Status::Ok
                    && accept(&response)
                    && elapsed <= self.retry.deadline
                {
                    return Some(response);
                }
            }
            if attempt >= self.retry.max_attempts {
                break;
            }
            let backoff = match self.jitter_rng.as_mut() {
                Some(rng) => self.retry.jittered_backoff(attempt, rng),
                None => self.retry.backoff(attempt),
            };
            if elapsed + backoff > self.retry.deadline {
                break;
            }
            elapsed += backoff;
        }
        self.epoch.failures += 1;
        None
    }

    /// The control plane's complete serializable state. The bus's handler
    /// closures are excluded: [`ControlPlane::new`] re-registers the same
    /// self-contained `health`/`monitoring` handlers, so restoration is
    /// exact (see [`MessageBus::export_state`]).
    pub fn export_state(&self) -> ControlPlaneState {
        ControlPlaneState {
            bus: self.transport.export_state(),
            injector: self.injector.clone(),
            retry: self.retry,
            jitter_rng: self.jitter_rng.clone(),
            epoch: self.epoch,
        }
    }

    /// A control plane rebuilt from [`ControlPlane::export_state`]: fresh
    /// handlers, restored accounting, fault injector mid-schedule, and the
    /// jitter stream at its exact position. Always rebuilds on the
    /// in-process transport — sockets are live resources, not state; a
    /// restored world that wants them calls [`ControlPlane::install_socket`]
    /// again (the carried-over accounting makes the swap seamless).
    pub fn from_state(state: &ControlPlaneState) -> ControlPlane {
        let mut cp = ControlPlane::new();
        cp.transport.restore_state(&state.bus);
        cp.injector = state.injector.clone();
        cp.retry = state.retry;
        cp.jitter_rng = state.jitter_rng.clone();
        cp.epoch = state.epoch;
        cp
    }
}

/// Spawn the three domain controllers' control surfaces as separate
/// server tasks — one loopback TCP server per domain, each serving the
/// canonical `health`/`monitoring` handlers — and a [`SocketBus`] routed
/// to all of them. This is the multi-process control plane: hand the bus
/// to [`ControlPlane::install_socket`] (or
/// [`Orchestrator::set_control_socket`](crate::Orchestrator::set_control_socket))
/// and keep the servers alive for the duration of the run.
pub fn spawn_domain_control_servers() -> std::io::Result<(Vec<ovnes_api::RpcServer>, SocketBus)> {
    let servers = DOMAINS
        .into_iter()
        .map(serve_control)
        .collect::<std::io::Result<Vec<_>>>()?;
    let mut socket = SocketBus::new();
    for server in &servers {
        socket.attach(server);
    }
    Ok((servers, socket))
}

/// Serializable state of a [`ControlPlane`] (everything except the bus's
/// handler closures — see [`ControlPlane::export_state`]).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ControlPlaneState {
    /// Bus accounting (correlation ids, served counts).
    pub bus: BusState,
    /// Fault injector with its plan, RNG position, and stats, if installed.
    pub injector: Option<FaultInjector>,
    /// Retry policy in force.
    pub retry: RetryPolicy,
    /// Backoff-jitter stream position, if a plan is installed.
    pub jitter_rng: Option<SimRng>,
    /// Call accounting of the epoch in progress.
    pub epoch: ControlEpochStats,
}

impl Default for ControlPlane {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovnes_api::EndpointFaults;

    #[test]
    fn clean_probes_succeed_without_retries() {
        let mut cp = ControlPlane::new();
        for domain in DOMAINS {
            assert!(cp.probe(SimTime::ZERO, domain));
        }
        let stats = cp.take_epoch_stats();
        assert_eq!(
            stats,
            ControlEpochStats {
                calls: 3,
                retries: 0,
                failures: 0
            }
        );
        // Drained: the next read starts from zero.
        assert_eq!(cp.take_epoch_stats(), ControlEpochStats::default());
    }

    #[test]
    fn unknown_domain_fails_after_bounded_retries() {
        let mut cp = ControlPlane::new();
        assert!(!cp.probe(SimTime::ZERO, "atm"));
        let stats = cp.take_epoch_stats();
        assert_eq!(stats.failures, 1);
        assert_eq!(stats.retries, cp.retry_policy().max_attempts as u64 - 1);
    }

    #[test]
    fn outage_downs_exactly_one_domain() {
        let mut cp = ControlPlane::new();
        cp.set_fault_plan(FaultPlan::new(3).with_endpoint(
            "cloud/health",
            EndpointFaults::none().with_outage(SimTime::from_secs(60), SimTime::from_secs(120)),
        ));
        assert!(cp.probe(SimTime::from_secs(90), "ran"));
        assert!(cp.probe(SimTime::from_secs(90), "transport"));
        assert!(!cp.probe(SimTime::from_secs(90), "cloud"));
        assert!(cp.probe(SimTime::from_secs(121), "cloud"));
    }

    #[test]
    fn drops_are_retried_through() {
        // 50% drops: with 4 attempts a probe fails only 1/16 of the time,
        // so across 40 probes we expect successes *and* nonzero retries.
        let mut cp = ControlPlane::new();
        cp.set_fault_plan(
            FaultPlan::new(5).with_endpoint("ran/health", EndpointFaults::none().with_drop(0.5)),
        );
        let mut ok = 0;
        for i in 0..40u64 {
            if cp.probe(SimTime::from_secs(i), "ran") {
                ok += 1;
            }
        }
        let stats = cp.take_epoch_stats();
        assert!(ok >= 30, "retries should mask most drops: {ok}/40");
        assert!(stats.retries > 0);
    }

    #[test]
    fn corrupt_responses_are_rejected_by_the_acceptor() {
        let mut cp = ControlPlane::new();
        cp.set_fault_plan(
            FaultPlan::new(6)
                .with_endpoint("ran/monitoring", EndpointFaults::none().with_corrupt(1.0)),
        );
        let body = ovnes_api::encode(&42u32).unwrap();
        // Every response is corrupted, so the decode check rejects all
        // attempts and the call fails.
        let got = cp.call_checked(SimTime::ZERO, "ran/monitoring", body, |r| {
            ovnes_api::decode::<u32>(&r.body.0).is_ok()
        });
        assert!(got.is_none());
        assert_eq!(cp.take_epoch_stats().failures, 1);
    }

    #[test]
    fn quiet_plan_changes_nothing() {
        let mut clean = ControlPlane::new();
        let mut planned = ControlPlane::new();
        planned.set_fault_plan(FaultPlan::new(7));
        for i in 0..10u64 {
            for domain in DOMAINS {
                assert_eq!(
                    clean.probe(SimTime::from_secs(i), domain),
                    planned.probe(SimTime::from_secs(i), domain)
                );
            }
        }
        assert_eq!(clean.take_epoch_stats(), planned.take_epoch_stats());
        for domain in DOMAINS {
            let e = format!("{domain}/health");
            assert_eq!(clean.served(&e), planned.served(&e));
        }
    }

    #[test]
    fn state_round_trip_resumes_chaos_mid_schedule() {
        let plan = || {
            FaultPlan::new(9).with_endpoint(
                "transport/health",
                EndpointFaults::none().with_drop(0.4).with_error(0.2),
            )
        };
        // Uninterrupted reference.
        let mut reference = ControlPlane::new();
        reference.set_fault_plan(plan());
        let full: Vec<bool> = (0..100u64)
            .map(|i| reference.probe(SimTime::from_secs(i), "transport"))
            .collect();

        // Same run, snapshotted at epoch 40 and resumed from the state.
        let mut first = ControlPlane::new();
        first.set_fault_plan(plan());
        let mut resumed_outcomes: Vec<bool> = (0..40u64)
            .map(|i| first.probe(SimTime::from_secs(i), "transport"))
            .collect();
        let state = first.export_state();
        let json = serde_json::to_string(&state).unwrap();
        let back: ControlPlaneState = serde_json::from_str(&json).unwrap();
        assert_eq!(back, state);
        let mut resumed = ControlPlane::from_state(&back);
        resumed_outcomes
            .extend((40..100u64).map(|i| resumed.probe(SimTime::from_secs(i), "transport")));

        assert_eq!(resumed_outcomes, full);
        assert_eq!(resumed.export_state(), reference.export_state());
    }

    #[test]
    fn socket_transport_is_byte_identical_to_in_process() {
        use ovnes_api::{Router, RpcServer};

        let mut router = Router::new();
        for domain in DOMAINS {
            register_control_endpoints(&mut router, domain);
        }
        let server = RpcServer::spawn(router).unwrap();
        let mut socket = SocketBus::new();
        socket.attach(&server);

        let mut oracle = ControlPlane::new();
        let mut rpc = ControlPlane::new();
        rpc.install_socket(socket);
        assert!(rpc.is_socket() && !oracle.is_socket());

        for i in 0..5u64 {
            for domain in DOMAINS {
                assert_eq!(
                    oracle.probe(SimTime::from_secs(i), domain),
                    rpc.probe(SimTime::from_secs(i), domain)
                );
            }
            let body = ovnes_api::encode(&i).unwrap();
            let a = oracle.call_checked(SimTime::from_secs(i), "ran/monitoring", body.clone(), |_| true);
            let b = rpc.call_checked(SimTime::from_secs(i), "ran/monitoring", body, |_| true);
            assert_eq!(a, b);
        }
        assert_eq!(oracle.export_state(), rpc.export_state());
        assert_eq!(oracle.take_epoch_stats(), rpc.take_epoch_stats());
    }

    #[test]
    fn deterministic_under_identical_plans() {
        let run = || {
            let mut cp = ControlPlane::new();
            cp.set_fault_plan(FaultPlan::new(9).with_endpoint(
                "transport/health",
                EndpointFaults::none().with_drop(0.4).with_error(0.2),
            ));
            let outcomes: Vec<bool> = (0..100u64)
                .map(|i| cp.probe(SimTime::from_secs(i), "transport"))
                .collect();
            (outcomes, cp.take_epoch_stats())
        };
        assert_eq!(run(), run());
    }
}
