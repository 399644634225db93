//! Deterministic control-plane fault injection.
//!
//! The physical demo's orchestrator speaks REST to the RAN, transport, and
//! cloud controllers — calls that in practice get dropped, delayed,
//! corrupted, or answered 5xx by a flapping controller. This module makes
//! those failure modes injectable on either arm of the [`ControlTransport`]
//! — the in-process [`MessageBus`](crate::bus::MessageBus) or the socket RPC
//! plane — without giving up bit-for-bit reproducibility:
//!
//! * [`FaultPlan`] — a declarative, serializable description of what goes
//!   wrong per endpoint: drop/transient-error/delay/corruption
//!   probabilities plus scheduled outage windows. The plan carries its own
//!   RNG seed, so fault realizations never perturb the simulation's other
//!   random streams.
//! * [`FaultInjector`] — wraps [`ControlTransport::call`] and applies one
//!   plan.
//!   An endpoint the plan doesn't mention (or mentions with all-zero
//!   probabilities) is passed through untouched — the zero-fault path makes
//!   **no** RNG draws and is byte-identical to the unwrapped bus. On a
//!   socket transport, decided drops and outages are additionally
//!   *realized* as physical connection teardowns (see [`crate::rpc`]).
//! * [`RetryPolicy`] — the client-side survival kit: bounded attempts,
//!   exponential backoff with deterministic jitter, and a per-call
//!   deadline.
//!
//! Fault precedence per attempt: scheduled outage (no draw) → drop →
//! transient error → delay → dispatch → response corruption. Every draw is
//! conditional on its probability being positive, which is what keeps the
//! quiet path draw-free.

use crate::bus::BusError;
use crate::envelope::Response;
use crate::transport::ControlTransport;
use ovnes_sim::{SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Why an injected call did not complete.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CallFailure {
    /// The endpoint was inside a scheduled outage window.
    Down,
    /// The request was dropped before reaching the handler (timeout from
    /// the caller's point of view).
    Dropped,
    /// The endpoint answered with a transient 5xx-style failure.
    Transient,
    /// The underlying bus failed (no handler, envelope error).
    Bus(String),
}

impl fmt::Display for CallFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CallFailure::Down => f.write_str("endpoint down (scheduled outage)"),
            CallFailure::Dropped => f.write_str("request dropped"),
            CallFailure::Transient => f.write_str("transient endpoint error"),
            CallFailure::Bus(e) => write!(f, "bus: {e}"),
        }
    }
}

impl std::error::Error for CallFailure {}

/// Fault configuration for one endpoint. All probabilities default to zero
/// and are clamped to `[0, 1]` at draw time.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EndpointFaults {
    /// Probability a request vanishes before dispatch.
    pub drop_prob: f64,
    /// Probability the endpoint answers with a transient 5xx-style error.
    pub error_prob: f64,
    /// Probability the response is delayed by [`EndpointFaults::delay`].
    pub delay_prob: f64,
    /// The injected response delay (counts against the caller's deadline).
    pub delay: SimDuration,
    /// Probability the response payload is corrupted on the wire.
    pub corrupt_prob: f64,
    /// Scheduled outage windows `[from, until)` during which every call
    /// fails immediately with [`CallFailure::Down`].
    pub outages: Vec<(SimTime, SimTime)>,
}

impl Default for EndpointFaults {
    fn default() -> Self {
        EndpointFaults {
            drop_prob: 0.0,
            error_prob: 0.0,
            delay_prob: 0.0,
            delay: SimDuration::ZERO,
            corrupt_prob: 0.0,
            outages: Vec::new(),
        }
    }
}

impl EndpointFaults {
    /// No faults at all (the explicit no-op).
    pub fn none() -> Self {
        Self::default()
    }

    /// Set the request-drop probability.
    pub fn with_drop(mut self, p: f64) -> Self {
        self.drop_prob = p;
        self
    }

    /// Set the transient-error probability.
    pub fn with_error(mut self, p: f64) -> Self {
        self.error_prob = p;
        self
    }

    /// Delay responses by `delay` with probability `p`.
    pub fn with_delay(mut self, p: f64, delay: SimDuration) -> Self {
        self.delay_prob = p;
        self.delay = delay;
        self
    }

    /// Set the response-corruption probability.
    pub fn with_corrupt(mut self, p: f64) -> Self {
        self.corrupt_prob = p;
        self
    }

    /// Schedule an outage window `[from, until)`.
    pub fn with_outage(mut self, from: SimTime, until: SimTime) -> Self {
        self.outages.push((from, until));
        self
    }

    /// True when this configuration can never inject anything.
    pub fn is_quiet(&self) -> bool {
        self.drop_prob <= 0.0
            && self.error_prob <= 0.0
            && self.delay_prob <= 0.0
            && self.corrupt_prob <= 0.0
            && self.outages.is_empty()
    }

    /// True when `now` falls inside a scheduled outage window.
    pub fn down_at(&self, now: SimTime) -> bool {
        self.outages
            .iter()
            .any(|&(from, until)| from <= now && now < until)
    }
}

/// A seeded, per-endpoint fault schedule for a whole run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    seed: u64,
    endpoints: BTreeMap<String, EndpointFaults>,
}

impl FaultPlan {
    /// An empty plan (injects nothing) with its own RNG seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            endpoints: BTreeMap::new(),
        }
    }

    /// Builder-style: attach `faults` to `endpoint`.
    pub fn with_endpoint(mut self, endpoint: &str, faults: EndpointFaults) -> FaultPlan {
        self.endpoints.insert(endpoint.to_owned(), faults);
        self
    }

    /// Attach (or replace) `faults` at `endpoint`.
    pub fn set(&mut self, endpoint: &str, faults: EndpointFaults) {
        self.endpoints.insert(endpoint.to_owned(), faults);
    }

    /// The faults configured for `endpoint`, if any.
    pub fn get(&self, endpoint: &str) -> Option<&EndpointFaults> {
        self.endpoints.get(endpoint)
    }

    /// The plan's own RNG seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// True when no endpoint can ever see a fault.
    pub fn is_quiet(&self) -> bool {
        self.endpoints.values().all(EndpointFaults::is_quiet)
    }

    /// The configured endpoints and their fault settings.
    pub fn endpoints(&self) -> impl Iterator<Item = (&str, &EndpointFaults)> {
        self.endpoints.iter().map(|(k, v)| (k.as_str(), v))
    }
}

/// What the injector did to one endpoint, cumulatively.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EndpointStats {
    /// Attempts that reached the injector for this endpoint.
    pub attempts: u64,
    /// Attempts rejected by a scheduled outage.
    pub outage_rejections: u64,
    /// Requests dropped before dispatch.
    pub drops: u64,
    /// Transient 5xx-style errors returned.
    pub transient_errors: u64,
    /// Responses delayed.
    pub delays: u64,
    /// Response payloads corrupted.
    pub corruptions: u64,
}

impl EndpointStats {
    /// Total faults injected at this endpoint.
    pub fn injected(&self) -> u64 {
        self.outage_rejections + self.drops + self.transient_errors + self.delays + self.corruptions
    }
}

/// Applies one [`FaultPlan`] to calls over a [`ControlTransport`]. See module docs.
///
/// Serializable in full (plan, RNG position, stats): restoring a serialized
/// injector resumes the exact fault schedule the original would have run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: SimRng,
    stats: BTreeMap<String, EndpointStats>,
}

impl FaultInjector {
    /// An injector for `plan`, seeded from the plan's own seed.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        let rng = SimRng::seed_from(plan.seed);
        FaultInjector {
            plan,
            rng,
            stats: BTreeMap::new(),
        }
    }

    /// The plan in force.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Cumulative per-endpoint injection stats.
    pub fn stats(&self) -> &BTreeMap<String, EndpointStats> {
        &self.stats
    }

    /// Issue `body` to `endpoint` at simulated instant `now`, applying the
    /// plan. On success, returns the response plus the injected latency
    /// (zero unless a delay fired). Endpoints the plan leaves quiet pass
    /// through without any RNG draw.
    ///
    /// Fault *decisions* (every RNG draw, in a fixed order) happen here,
    /// identically on either transport arm, which is what keeps chaos runs
    /// byte-identical in-process vs. over sockets. The transport
    /// additionally *realizes* a decided drop/outage physically via its
    /// `realize_*` hooks — a connection reset or teardown on the socket
    /// plane, a no-op on the in-process oracle — without perturbing
    /// accounting or the draw sequence.
    pub fn call(
        &mut self,
        bus: &mut ControlTransport,
        now: SimTime,
        endpoint: &str,
        body: Vec<u8>,
    ) -> Result<(Response, SimDuration), CallFailure> {
        let passthrough = match self.plan.endpoints.get(endpoint) {
            None => true,
            Some(f) => f.is_quiet(),
        };
        if passthrough {
            return bus
                .call(endpoint, body)
                .map(|r| (r, SimDuration::ZERO))
                .map_err(bus_failure);
        }
        let faults = self
            .plan
            .endpoints
            .get(endpoint)
            .expect("checked above")
            .clone();
        let stats = self.stats.entry(endpoint.to_owned()).or_default();
        stats.attempts += 1;
        if faults.down_at(now) {
            stats.outage_rejections += 1;
            bus.realize_outage(endpoint);
            return Err(CallFailure::Down);
        }
        if faults.drop_prob > 0.0 && self.rng.chance(faults.drop_prob) {
            stats.drops += 1;
            bus.realize_drop(endpoint);
            return Err(CallFailure::Dropped);
        }
        if faults.error_prob > 0.0 && self.rng.chance(faults.error_prob) {
            stats.transient_errors += 1;
            return Err(CallFailure::Transient);
        }
        let latency = if faults.delay_prob > 0.0 && self.rng.chance(faults.delay_prob) {
            stats.delays += 1;
            faults.delay
        } else {
            SimDuration::ZERO
        };
        let mut response = bus.call(endpoint, body).map_err(bus_failure)?;
        if faults.corrupt_prob > 0.0 && self.rng.chance(faults.corrupt_prob) {
            stats.corruptions += 1;
            if response.body.0.is_empty() {
                response.body.0.push(0xFF);
            } else {
                let i = self.rng.uniform_usize(0, response.body.0.len());
                response.body.0[i] ^= 0xFF;
            }
        }
        Ok((response, latency))
    }
}

fn bus_failure(e: BusError) -> CallFailure {
    CallFailure::Bus(e.to_string())
}

/// A process-level fault against one domain controller server, physically
/// realized by the supervisor (`ovnes_core::supervise`): the difference
/// from [`EndpointFaults`] is that these kill, hang, or replace the server
/// *process*, not individual calls.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProcessFault {
    /// Kill the server — connections die, the port is released — and
    /// restart a fresh incarnation from its exported state on a new port.
    Crash,
    /// Crash with a request in flight: the incarnation term is fenced
    /// first, a doomed request still reaches the old server, and its
    /// stale-term response must be generated and rejected before the
    /// teardown — the zombie-connection hazard, made provable.
    CrashMidRequest,
    /// The process hangs (dispatch stalls, connections stay open) for a
    /// bounded wall-clock hold, then resumes. No state is lost, but every
    /// call in the window runs into its read deadline.
    Hang {
        /// Wall-clock hold in milliseconds.
        hold_ms: u64,
    },
}

/// One scheduled process fault: which domain's controller, at which epoch
/// boundary (before the epoch with that index runs), and what happens.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashEvent {
    /// The domain whose controller is hit (`"ran"`, `"transport"`, …).
    pub domain: String,
    /// Epoch index (completed-epoch count) at which the fault fires.
    pub epoch: u64,
    /// What happens to the process.
    pub fault: ProcessFault,
}

/// A seeded, serializable schedule of process-level faults — the
/// [`FaultPlan`] family extended from call-level to process-level chaos.
/// Like its sibling, the plan is pure data: the supervisor realizes it,
/// and the same seed always produces the same storm.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashPlan {
    seed: u64,
    events: Vec<CrashEvent>,
}

impl CrashPlan {
    /// An empty plan (no process ever faults) with its own RNG seed.
    pub fn new(seed: u64) -> CrashPlan {
        CrashPlan {
            seed,
            events: Vec::new(),
        }
    }

    /// Builder-style: schedule `fault` against `domain` at `epoch`.
    pub fn with_fault(mut self, domain: &str, epoch: u64, fault: ProcessFault) -> CrashPlan {
        self.events.push(CrashEvent {
            domain: domain.to_owned(),
            epoch,
            fault,
        });
        self.events
            .sort_by(|a, b| (a.epoch, a.domain.as_str()).cmp(&(b.epoch, b.domain.as_str())));
        self
    }

    /// Schedule a clean kill-and-restart of `domain` at `epoch`.
    pub fn with_crash(self, domain: &str, epoch: u64) -> CrashPlan {
        self.with_fault(domain, epoch, ProcessFault::Crash)
    }

    /// Schedule a crash of `domain` at `epoch` landing mid-request.
    pub fn with_crash_mid_request(self, domain: &str, epoch: u64) -> CrashPlan {
        self.with_fault(domain, epoch, ProcessFault::CrashMidRequest)
    }

    /// Schedule a `hold_ms`-millisecond hang of `domain` at `epoch`.
    pub fn with_hang(self, domain: &str, epoch: u64, hold_ms: u64) -> CrashPlan {
        self.with_fault(domain, epoch, ProcessFault::Hang { hold_ms })
    }

    /// Seed a crash storm: `crashes_per_domain` kill-and-restarts of every
    /// domain at epochs drawn uniformly from `[first_epoch, last_epoch]`,
    /// with the first domain's earliest crash landing mid-request. Drawn
    /// from the plan's own seed, so the storm is as reproducible as a
    /// clean run.
    ///
    /// # Panics
    /// Panics if the epoch range cannot hold `crashes_per_domain` distinct
    /// epochs.
    pub fn with_random_storm(
        mut self,
        domains: &[&str],
        crashes_per_domain: usize,
        first_epoch: u64,
        last_epoch: u64,
    ) -> CrashPlan {
        assert!(last_epoch >= first_epoch, "empty storm window");
        let span = (last_epoch - first_epoch + 1) as usize;
        assert!(
            span >= crashes_per_domain,
            "storm window of {span} epochs cannot hold {crashes_per_domain} distinct crashes"
        );
        let mut rng = SimRng::seed_from(self.seed ^ 0xC4A_5405_704A_11E5);
        for (d, domain) in domains.iter().enumerate() {
            let mut epochs: Vec<u64> = Vec::new();
            while epochs.len() < crashes_per_domain {
                let e = first_epoch + rng.uniform_usize(0, span) as u64;
                if !epochs.contains(&e) {
                    epochs.push(e);
                }
            }
            epochs.sort_unstable();
            for (k, &epoch) in epochs.iter().enumerate() {
                let fault = if d == 0 && k == 0 {
                    ProcessFault::CrashMidRequest
                } else {
                    ProcessFault::Crash
                };
                self.events.push(CrashEvent {
                    domain: (*domain).to_owned(),
                    epoch,
                    fault,
                });
            }
        }
        self.events
            .sort_by(|a, b| (a.epoch, a.domain.as_str()).cmp(&(b.epoch, b.domain.as_str())));
        self
    }

    /// The plan's own RNG seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Every scheduled event, ascending by (epoch, domain).
    pub fn events(&self) -> &[CrashEvent] {
        &self.events
    }

    /// The events due at `epoch`, in schedule order.
    pub fn events_at(&self, epoch: u64) -> impl Iterator<Item = &CrashEvent> {
        self.events.iter().filter(move |e| e.epoch == epoch)
    }

    /// True when no process ever faults.
    pub fn is_quiet(&self) -> bool {
        self.events.is_empty()
    }
}

/// Client-side retry policy for control-plane calls: bounded attempts,
/// exponential backoff with optional deterministic jitter, and a per-call
/// deadline the cumulative elapsed time (injected latencies + backoffs)
/// must respect.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Maximum attempts per call (≥ 1; the first attempt counts).
    pub max_attempts: u32,
    /// Backoff before the second attempt.
    pub base_backoff: SimDuration,
    /// Backoff growth factor per retry (values below 1 are treated as 1).
    pub multiplier: f64,
    /// Cap on any single backoff.
    pub max_backoff: SimDuration,
    /// Per-call deadline on cumulative elapsed time.
    pub deadline: SimDuration,
    /// Jitter fraction: the waited backoff is drawn uniformly from
    /// `[b, b·(1+jitter)]` (clamped to `[0, 1]`).
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: SimDuration::from_millis(100),
            multiplier: 2.0,
            max_backoff: SimDuration::from_secs(2),
            deadline: SimDuration::from_secs(10),
            jitter: 0.1,
        }
    }
}

impl RetryPolicy {
    /// The nominal (un-jittered) backoff after `attempt` failures
    /// (`attempt ≥ 1`): `min(base · multiplier^(attempt-1), max_backoff)`.
    /// Monotone non-decreasing in `attempt`.
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        let n = attempt.max(1) - 1;
        let grown = self.base_backoff.as_secs_f64() * self.multiplier.max(1.0).powi(n as i32);
        SimDuration::from_secs_f64(grown).min(self.max_backoff)
    }

    /// The backoff actually waited after `attempt` failures: the nominal
    /// backoff stretched by a deterministic jitter draw from `rng`.
    pub fn jittered_backoff(&self, attempt: u32, rng: &mut SimRng) -> SimDuration {
        let b = self.backoff(attempt);
        let extra = b.as_secs_f64() * self.jitter.clamp(0.0, 1.0) * rng.uniform();
        b + SimDuration::from_secs_f64(extra)
    }

    /// The nominal backoff waits a maximally unlucky call performs: one
    /// entry per retry that fits both the attempt bound and the deadline.
    pub fn nominal_schedule(&self) -> Vec<SimDuration> {
        let mut waits = Vec::new();
        let mut elapsed = SimDuration::ZERO;
        for attempt in 1..self.max_attempts {
            let b = self.backoff(attempt);
            if elapsed + b > self.deadline {
                break;
            }
            elapsed += b;
            waits.push(b);
        }
        waits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::MessageBus;
    use crate::envelope::Status;

    fn echo_bus() -> ControlTransport {
        let mut bus = MessageBus::new();
        bus.register("echo", |req| Response::ok(req.id, req.body.0));
        ControlTransport::InProcess(bus)
    }

    #[test]
    fn quiet_plan_is_a_passthrough() {
        let mut plain = echo_bus();
        let mut wrapped = echo_bus();
        let mut inj =
            FaultInjector::new(FaultPlan::new(1).with_endpoint("echo", EndpointFaults::none()));
        for i in 0..20u8 {
            let body = vec![i, i + 1];
            let a = plain.call("echo", body.clone()).unwrap();
            let (b, lat) = inj
                .call(&mut wrapped, SimTime::from_secs(i as u64), "echo", body)
                .unwrap();
            assert_eq!(a, b);
            assert_eq!(lat, SimDuration::ZERO);
        }
        assert_eq!(plain.served("echo"), wrapped.served("echo"));
        assert!(inj.stats().is_empty(), "no draws, no stats");
    }

    #[test]
    fn outage_window_is_exact_and_drawless() {
        let plan = FaultPlan::new(2).with_endpoint(
            "echo",
            EndpointFaults::none().with_outage(SimTime::from_secs(10), SimTime::from_secs(20)),
        );
        let mut inj = FaultInjector::new(plan);
        let mut bus = echo_bus();
        assert!(inj
            .call(&mut bus, SimTime::from_secs(9), "echo", vec![])
            .is_ok());
        assert_eq!(
            inj.call(&mut bus, SimTime::from_secs(10), "echo", vec![]),
            Err(CallFailure::Down)
        );
        assert_eq!(
            inj.call(&mut bus, SimTime::from_secs(19), "echo", vec![]),
            Err(CallFailure::Down)
        );
        assert!(inj
            .call(&mut bus, SimTime::from_secs(20), "echo", vec![])
            .is_ok());
        assert_eq!(inj.stats()["echo"].outage_rejections, 2);
        // Down requests never reached the handler.
        assert_eq!(bus.served("echo"), 2);
    }

    #[test]
    fn drops_and_errors_happen_at_roughly_the_configured_rate() {
        let plan = FaultPlan::new(3).with_endpoint(
            "echo",
            EndpointFaults::none().with_drop(0.3).with_error(0.2),
        );
        let mut inj = FaultInjector::new(plan);
        let mut bus = echo_bus();
        let mut drops = 0;
        let mut errors = 0;
        let n = 2000;
        for i in 0..n {
            match inj.call(&mut bus, SimTime::from_secs(i), "echo", vec![]) {
                Err(CallFailure::Dropped) => drops += 1,
                Err(CallFailure::Transient) => errors += 1,
                Err(e) => panic!("unexpected {e}"),
                Ok(_) => {}
            }
        }
        let drop_rate = drops as f64 / n as f64;
        // Errors are drawn only on the ~70% of attempts that survive the drop.
        let error_rate = errors as f64 / (n - drops) as f64;
        assert!((drop_rate - 0.3).abs() < 0.04, "drop rate {drop_rate}");
        assert!((error_rate - 0.2).abs() < 0.04, "error rate {error_rate}");
        assert_eq!(bus.served("echo"), n - drops - errors as u64);
    }

    #[test]
    fn injection_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let plan = FaultPlan::new(seed).with_endpoint(
                "echo",
                EndpointFaults::none()
                    .with_drop(0.25)
                    .with_delay(0.25, SimDuration::from_millis(50))
                    .with_corrupt(0.1),
            );
            let mut inj = FaultInjector::new(plan);
            let mut bus = echo_bus();
            (0..200u64)
                .map(|i| {
                    format!(
                        "{:?}",
                        inj.call(&mut bus, SimTime::from_secs(i), "echo", vec![i as u8])
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn corruption_mangles_the_payload() {
        let plan =
            FaultPlan::new(4).with_endpoint("echo", EndpointFaults::none().with_corrupt(1.0));
        let mut inj = FaultInjector::new(plan);
        let mut bus = echo_bus();
        let (resp, _) = inj
            .call(&mut bus, SimTime::ZERO, "echo", b"payload".to_vec())
            .unwrap();
        assert_eq!(resp.status, Status::Ok);
        assert_ne!(resp.body.0, b"payload", "exactly one byte flipped");
        assert_eq!(resp.body.0.len(), b"payload".len());
        // Empty bodies still end up visibly corrupt.
        let (resp, _) = inj.call(&mut bus, SimTime::ZERO, "echo", vec![]).unwrap();
        assert_eq!(resp.body.0, vec![0xFF]);
    }

    #[test]
    fn delay_reports_injected_latency() {
        let d = SimDuration::from_millis(250);
        let plan =
            FaultPlan::new(5).with_endpoint("echo", EndpointFaults::none().with_delay(1.0, d));
        let mut inj = FaultInjector::new(plan);
        let mut bus = echo_bus();
        let (_, lat) = inj.call(&mut bus, SimTime::ZERO, "echo", vec![]).unwrap();
        assert_eq!(lat, d);
        assert_eq!(inj.stats()["echo"].delays, 1);
    }

    #[test]
    fn backoff_is_monotone_and_capped() {
        let p = RetryPolicy::default();
        let mut prev = SimDuration::ZERO;
        for attempt in 1..=16 {
            let b = p.backoff(attempt);
            assert!(b >= prev, "attempt {attempt}: {b:?} < {prev:?}");
            assert!(b <= p.max_backoff);
            prev = b;
        }
        assert_eq!(p.backoff(1), SimDuration::from_millis(100));
        assert_eq!(p.backoff(2), SimDuration::from_millis(200));
        assert_eq!(p.backoff(10), p.max_backoff);
    }

    #[test]
    fn jittered_backoff_stays_in_band() {
        let p = RetryPolicy::default();
        let mut rng = SimRng::seed_from(11);
        for attempt in 1..=8 {
            let b = p.backoff(attempt);
            let j = p.jittered_backoff(attempt, &mut rng);
            assert!(j >= b);
            assert!(j.as_secs_f64() <= b.as_secs_f64() * (1.0 + p.jitter) + 1e-6);
        }
    }

    #[test]
    fn nominal_schedule_respects_attempts_and_deadline() {
        let p = RetryPolicy {
            max_attempts: 10,
            deadline: SimDuration::from_millis(500),
            ..RetryPolicy::default()
        };
        let waits = p.nominal_schedule();
        // 100 + 200 = 300 fits; +400 would blow the 500 ms deadline.
        assert_eq!(waits.len(), 2);
        let total: u64 = waits.iter().map(|w| w.as_micros()).sum();
        assert!(total <= p.deadline.as_micros());
    }

    #[test]
    fn crash_plan_storm_is_deterministic_and_covers_every_domain() {
        let storm = |seed: u64| {
            CrashPlan::new(seed).with_random_storm(&["ran", "transport", "cloud"], 2, 3, 20)
        };
        assert_eq!(storm(42), storm(42), "same seed, same storm");
        assert_ne!(storm(42), storm(43));

        let plan = storm(42);
        assert_eq!(plan.events().len(), 6);
        for domain in ["ran", "transport", "cloud"] {
            let kills = plan.events().iter().filter(|e| e.domain == domain).count();
            assert!(kills >= 2, "{domain} must be killed at least twice");
        }
        let mid = plan
            .events()
            .iter()
            .filter(|e| e.fault == ProcessFault::CrashMidRequest)
            .count();
        assert_eq!(mid, 1, "exactly one crash lands mid-request");
        for e in plan.events() {
            assert!((3..=20).contains(&e.epoch));
        }
        // Sorted by (epoch, domain) so realization order is canonical.
        let keys: Vec<_> = plan
            .events()
            .iter()
            .map(|e| (e.epoch, e.domain.clone()))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn crash_plan_builders_and_epoch_lookup() {
        let plan = CrashPlan::new(7)
            .with_crash("cloud", 9)
            .with_hang("ran", 4, 250)
            .with_crash_mid_request("transport", 4);
        assert!(!plan.is_quiet());
        assert!(CrashPlan::new(7).is_quiet());
        assert_eq!(plan.events_at(3).count(), 0);
        let at4: Vec<_> = plan.events_at(4).collect();
        assert_eq!(at4.len(), 2);
        // Canonical order within an epoch is by domain.
        assert_eq!(at4[0].domain, "ran");
        assert_eq!(at4[0].fault, ProcessFault::Hang { hold_ms: 250 });
        assert_eq!(at4[1].domain, "transport");
        assert_eq!(plan.events_at(9).next().unwrap().fault, ProcessFault::Crash);

        let j = serde_json::to_string(&plan).unwrap();
        assert_eq!(serde_json::from_str::<CrashPlan>(&j).unwrap(), plan);
    }

    #[test]
    fn plan_serde_round_trips() {
        let plan = FaultPlan::new(9).with_endpoint(
            "ran/health",
            EndpointFaults::none()
                .with_drop(0.2)
                .with_outage(SimTime::from_secs(60), SimTime::from_secs(120)),
        );
        let j = serde_json::to_string(&plan).unwrap();
        assert_eq!(serde_json::from_str::<FaultPlan>(&j).unwrap(), plan);
        assert!(!plan.is_quiet());
        assert!(FaultPlan::new(1).is_quiet());
    }
}
