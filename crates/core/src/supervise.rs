//! Supervision: domain controller servers that can die without the run
//! noticing.
//!
//! The demo's pitch is that the end-to-end orchestration loop keeps its
//! promises while the world misbehaves. The chaos layers so far injected
//! faults *into calls* ([`ovnes_api::fault`]) and *into the substrate*
//! ([`ovnes_api::substrate`]); this module injects them into the control
//! plane's **processes**: a [`Supervisor`] realizes a seeded [`CrashPlan`]
//! by physically tearing down a domain controller's [`RpcServer`] — port
//! released, every connection thread joined — and restoring a fresh
//! incarnation on a new port, with its lifetime counters carried over and
//! a strictly higher fencing term stamping every response it writes. The
//! servers are stateless by design (see [`ovnes_api::domain`]), so there is
//! no state to recover: what a supervised run proves is that the *client*
//! detects and survives the faults a socket peer really produces — a
//! zombie connection, a hung process, a dead port.
//!
//! Two invariants make a supervised run trustworthy:
//!
//! 1. **Invisibility.** Restarts complete synchronously between epochs, so
//!    the orchestrator's probes never observe a dead server and the run
//!    summary is byte-identical to an undisturbed run — the property the
//!    `failover` suite asserts at 1/2/8 workers.
//! 2. **Fencing.** The dying incarnation's term is fenced off *before* the
//!    teardown, and a [`ProcessFault::CrashMidRequest`] proves the hazard
//!    is real: a doomed request still reaches the old server, its
//!    stale-term answer is generated on the wire, and the
//!    [`SocketBus`](ovnes_api::SocketBus) rejects it without consuming any
//!    accounting.
//!
//! Orthogonally, [`DomainHealth`] is the orchestrator-side heartbeat
//! classifier (Up → Suspect → Down → Up) layered over the raw
//! probe loop as telemetry: it books `supervise.*` counters and the
//! `supervise.time_to_repair` distribution for *unsupervised* outages,
//! while leaving the pinned degrade/restore mitigation timing untouched.

use crate::orchestrator::Orchestrator;
use ovnes_api::{serve_control_incarnation, CrashEvent, CrashPlan, ProcessFault, RpcServer};
use ovnes_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::thread::JoinHandle;
use std::time::Duration;

/// Heartbeat health of one domain controller, as the orchestrator sees it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum HealthState {
    /// Probes succeed.
    #[default]
    Up,
    /// One failed probe: not yet declared down (a single miss is routinely
    /// a transient under chaos plans).
    Suspect,
    /// Two or more consecutive failed probes: the controller is down.
    Down,
}

impl std::fmt::Display for HealthState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            HealthState::Up => "up",
            HealthState::Suspect => "suspect",
            HealthState::Down => "down",
        })
    }
}

/// A state-machine transition reported by [`DomainHealth::observe`]. The
/// orchestrator books telemetry only on transitions, so a faultless probe
/// history records nothing and plan-less runs stay byte-identical.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum HealthTransition {
    /// First failed probe: Up → Suspect.
    Suspected,
    /// Second consecutive failed probe: Suspect → Down.
    WentDown,
    /// First successful probe after an incident: back to Up. `downtime`
    /// spans from the incident's first failed probe to this probe.
    Recovered {
        /// Time from the first failed probe to the recovering probe.
        downtime: SimDuration,
    },
}

/// The per-domain heartbeat health machine (see [`HealthState`]). The
/// default is a healthy machine with no history.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct DomainHealth {
    /// Current classification.
    pub state: HealthState,
    /// When the current state was entered — for an incident, anchored at
    /// the *first* failed probe so time-to-repair spans the whole outage.
    pub since: SimTime,
    /// Lifetime failed probes.
    pub failed_probes: u64,
    /// Incidents opened (Up → Suspect edges).
    pub incidents: u64,
    /// Incidents closed (recoveries back to Up).
    pub repairs: u64,
}

impl DomainHealth {
    /// One fresh machine per known domain, keyed by name — the
    /// orchestrator's initial supervision map.
    pub fn tracking_all() -> BTreeMap<String, DomainHealth> {
        crate::control::DOMAINS
            .iter()
            .map(|d| ((*d).to_owned(), DomainHealth::default()))
            .collect()
    }

    /// Fold in one probe result at `now`; returns the transition taken, if
    /// any. See [`HealthTransition`] for the edges.
    pub fn observe(&mut self, now: SimTime, up: bool) -> Option<HealthTransition> {
        if up {
            return match self.state {
                HealthState::Up => None,
                HealthState::Suspect | HealthState::Down => {
                    let downtime = now.saturating_duration_since(self.since);
                    self.state = HealthState::Up;
                    self.since = now;
                    self.repairs += 1;
                    Some(HealthTransition::Recovered { downtime })
                }
            };
        }
        self.failed_probes += 1;
        match self.state {
            HealthState::Up => {
                self.state = HealthState::Suspect;
                self.since = now;
                self.incidents += 1;
                Some(HealthTransition::Suspected)
            }
            HealthState::Suspect => {
                self.state = HealthState::Down;
                Some(HealthTransition::WentDown)
            }
            HealthState::Down => None,
        }
    }
}

/// Supervises the domain controller [`RpcServer`]s of a socket-control
/// run, realizing a [`CrashPlan`] physically: kills with restart
/// ([`ProcessFault::Crash`]), kills with a provably-rejected zombie
/// response ([`ProcessFault::CrashMidRequest`]), and bounded hangs
/// ([`ProcessFault::Hang`]). See the module docs for the invariants.
pub struct Supervisor {
    plan: CrashPlan,
    servers: BTreeMap<String, RpcServer>,
    resume_threads: Vec<JoinHandle<()>>,
    crashes: u64,
    mid_request_crashes: u64,
    hangs: u64,
    stale_rejections_provoked: u64,
}

impl Supervisor {
    /// Take charge of `servers` (one per domain, as
    /// [`spawn_domain_control_servers`](crate::control::spawn_domain_control_servers)
    /// returns them) under `plan`.
    ///
    /// # Panics
    /// Panics if a server exposes no endpoints (its domain would be
    /// unaddressable).
    pub fn new(servers: Vec<RpcServer>, plan: CrashPlan) -> Supervisor {
        let servers = servers
            .into_iter()
            .map(|server| {
                let endpoint = server
                    .endpoints()
                    .first()
                    .unwrap_or_else(|| panic!("supervised server exposes no endpoints"));
                let domain = endpoint
                    .split('/')
                    .next()
                    .expect("split yields at least one piece")
                    .to_owned();
                (domain, server)
            })
            .collect();
        Supervisor {
            plan,
            servers,
            resume_threads: Vec::new(),
            crashes: 0,
            mid_request_crashes: 0,
            hangs: 0,
            stale_rejections_provoked: 0,
        }
    }

    /// Fire every fault the plan schedules for `epoch`, before that epoch
    /// runs. Crashes complete synchronously — old server torn down, fresh
    /// incarnation routed — so the epoch's probes land on a live server
    /// and the run stays byte-identical to an undisturbed one.
    ///
    /// # Panics
    /// Panics if the orchestrator's control plane is not on the socket
    /// transport (there is no process to kill in-process), or if a
    /// fenced-off incarnation's response is believed.
    pub fn tick(&mut self, epoch: u64, orchestrator: &mut Orchestrator) {
        self.resume_threads.retain(|h| !h.is_finished());
        let events: Vec<CrashEvent> = self.plan.events_at(epoch).cloned().collect();
        for event in events {
            match event.fault {
                ProcessFault::Crash => self.crash(&event.domain, false, orchestrator),
                ProcessFault::CrashMidRequest => self.crash(&event.domain, true, orchestrator),
                ProcessFault::Hang { hold_ms } => self.hang(&event.domain, hold_ms),
            }
        }
    }

    fn crash(&mut self, domain: &str, mid_request: bool, orchestrator: &mut Orchestrator) {
        let mut old = self
            .servers
            .remove(domain)
            .unwrap_or_else(|| panic!("no supervised server for domain {domain:?}"));
        let next_term = old.term() + 1;
        let bus = orchestrator
            .control_mut()
            .socket_mut()
            .expect("supervision requires the socket control plane");
        // Fence before the kill: from this instant no response of the
        // dying incarnation can be believed, even one already in flight.
        bus.fence(domain, next_term);
        if mid_request {
            // The route still points at the dying server: issue one doomed
            // request so a stale-term response is provably generated on
            // the wire and rejected without consuming any accounting.
            let before = bus.export_state();
            let doomed = bus.call(&format!("{domain}/health"), Vec::new());
            assert!(
                doomed.is_err(),
                "fenced-off incarnation of {domain} was believed"
            );
            assert_eq!(
                bus.export_state(),
                before,
                "a rejected zombie response must consume no accounting"
            );
            self.stale_rejections_provoked += 1;
            self.mid_request_crashes += 1;
        }
        // Physical teardown: port released, every connection thread joined.
        let carry = old.stats();
        old.shutdown();
        drop(old);
        // Fresh incarnation of the same control surface on a new port,
        // lifetime counters carried over, term strictly higher.
        let fresh = serve_control_incarnation(domain, next_term, carry)
            .expect("respawn domain controller server");
        orchestrator
            .control_mut()
            .socket_mut()
            .expect("supervision requires the socket control plane")
            .attach(&fresh);
        self.servers.insert(domain.to_owned(), fresh);
        self.crashes += 1;
    }

    fn hang(&mut self, domain: &str, hold_ms: u64) {
        let server = self
            .servers
            .get(domain)
            .unwrap_or_else(|| panic!("no supervised server for domain {domain:?}"));
        server.pause();
        let handle = server.resume_handle();
        self.resume_threads.push(std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(hold_ms));
            handle.resume();
        }));
        self.hangs += 1;
    }

    /// The live server for `domain`, if supervised.
    pub fn server(&self, domain: &str) -> Option<&RpcServer> {
        self.servers.get(domain)
    }

    /// Current incarnation term per domain, ascending by name.
    pub fn terms(&self) -> BTreeMap<String, u64> {
        self.servers
            .iter()
            .map(|(d, s)| (d.clone(), s.term()))
            .collect()
    }

    /// The plan being realized.
    pub fn plan(&self) -> &CrashPlan {
        &self.plan
    }

    /// Kill-and-restart cycles completed (including mid-request ones).
    pub fn crashes(&self) -> u64 {
        self.crashes
    }

    /// Crashes that provably generated and rejected a zombie response.
    pub fn mid_request_crashes(&self) -> u64 {
        self.mid_request_crashes
    }

    /// Hangs realized.
    pub fn hangs(&self) -> u64 {
        self.hangs
    }

    /// Stale responses this supervisor deliberately provoked (a lower
    /// bound on the bus's own `stale_rejections` counter).
    pub fn stale_rejections_provoked(&self) -> u64 {
        self.stale_rejections_provoked
    }

    /// Tear everything down: timed-resume threads joined, every supervised
    /// server shut down.
    pub fn shutdown(&mut self) {
        for handle in self.resume_threads.drain(..) {
            let _ = handle.join();
        }
        for (_, server) in self.servers.iter_mut() {
            server.shutdown();
        }
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::spawn_domain_control_servers;
    use crate::scenario::{DemoScenario, ScenarioConfig};

    fn minute(m: u64) -> SimTime {
        SimTime::from_secs(m * 60)
    }

    #[test]
    fn domain_health_machine_transitions() {
        let mut h = DomainHealth::default();
        assert_eq!(h.state, HealthState::Up);
        assert_eq!(h.observe(minute(1), true), None);

        // One miss suspects, a second declares down, further misses are
        // not new transitions.
        assert_eq!(h.observe(minute(2), false), Some(HealthTransition::Suspected));
        assert_eq!(h.state, HealthState::Suspect);
        assert_eq!(h.observe(minute(3), false), Some(HealthTransition::WentDown));
        assert_eq!(h.state, HealthState::Down);
        assert_eq!(h.observe(minute(4), false), None);

        // Recovery books downtime from the first miss.
        assert_eq!(
            h.observe(minute(5), true),
            Some(HealthTransition::Recovered {
                downtime: SimDuration::from_mins(3)
            })
        );
        assert_eq!(h.state, HealthState::Up);
        assert_eq!(h.failed_probes, 3);
        assert_eq!(h.incidents, 1);
        assert_eq!(h.repairs, 1);

        // A single-miss blip recovers straight from Suspect.
        assert_eq!(h.observe(minute(6), false), Some(HealthTransition::Suspected));
        assert_eq!(
            h.observe(minute(7), true),
            Some(HealthTransition::Recovered {
                downtime: SimDuration::from_mins(1)
            })
        );
        assert_eq!(h.incidents, 2);
        assert_eq!(h.repairs, 2);
    }

    #[test]
    fn crashes_and_restarts_are_invisible_to_the_run() {
        let config = ScenarioConfig {
            seed: 77,
            arrivals_per_hour: 25.0,
            horizon: SimDuration::from_hours(1),
            mean_duration: SimDuration::from_mins(30),
            ..ScenarioConfig::default()
        };

        // Reference: the undisturbed in-process run.
        let mut reference = DemoScenario::build(config.clone());
        while reference.step_epoch() {}
        let expected = reference.summary();

        // Supervised: socket control plane, every domain hit.
        let mut scenario = DemoScenario::build(config);
        let (servers, socket) = spawn_domain_control_servers().unwrap();
        scenario.orchestrator_mut().set_control_socket(socket);
        let plan = CrashPlan::new(9)
            .with_crash("ran", 3)
            .with_crash_mid_request("cloud", 7)
            .with_hang("transport", 11, 50);
        let mut supervisor = Supervisor::new(servers, plan);
        loop {
            supervisor.tick(scenario.epochs_completed() + 1, scenario.orchestrator_mut());
            if !scenario.step_epoch() {
                break;
            }
        }

        assert_eq!(scenario.summary(), expected, "supervised faults leaked into the run");
        assert_eq!(supervisor.crashes(), 2);
        assert_eq!(supervisor.mid_request_crashes(), 1);
        assert_eq!(supervisor.hangs(), 1);
        assert!(supervisor.stale_rejections_provoked() >= 1);
        assert!(
            scenario.orchestrator().control().stale_rejections() >= 1,
            "the zombie response must be generated and rejected on the wire"
        );

        let terms = supervisor.terms();
        assert_eq!(terms["ran"], 2);
        assert_eq!(terms["cloud"], 2);
        assert_eq!(terms["transport"], 1, "a hang is not a new incarnation");

        // The health machines saw nothing: every restart completed before
        // the epoch's probes ran.
        for (domain, health) in scenario.orchestrator().supervision() {
            assert_eq!(health.state, HealthState::Up, "{domain}");
            assert_eq!(health.incidents, 0, "{domain}");
        }
    }
}
