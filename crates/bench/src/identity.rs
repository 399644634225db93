//! The identity comparison, once.
//!
//! The repo's oracles all have one shape: run two configurations, compare
//! the run summary, the rendered dashboard, the monitoring JSON and the
//! orchestrator's metric registry byte for byte. A [`Cell`] names a
//! configuration along the axes the suites vary,
//! [`observe`] is the only code that builds the world, installs the plans,
//! sockets and supervisor, cuts and restores, and pins the workers while
//! the epochs run; [`Observed`] is those artefacts as bytes and
//! [`Witness`] what proves the perturbation actually bit.
//! `tests/identity_matrix.rs` walks one table of cell pairs through it.

use ovnes_api::{
    CrashPlan, EndpointFaults, FaultPlan, RpcServer, SubstrateElement, SubstrateFaultPlan,
};
use ovnes_dashboard::DashboardView;
use ovnes_model::{DcId, EnbId, HostId, LinkId, SwitchId};
use ovnes_orchestrator::{
    region_scenario_config, spawn_domain_control_servers, DemoScenario, FederationBroker,
    FederationConfig, Orchestrator, OrchestratorConfig, Supervisor, DOMAINS,
};
use ovnes_sim::par::{current_threads, pin_threads};
use ovnes_sim::{SimDuration, SimRng, SimTime};

/// How the orchestrator reaches its domain controllers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Control {
    /// The in-process `MessageBus` — the deterministic oracle.
    Bus,
    /// Loopback TCP to one server task per domain.
    Socket,
}

/// Which fault-plan families are installed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Perturbation {
    Calm,
    /// A control-plane [`FaultPlan`].
    Control,
    /// A [`SubstrateFaultPlan`].
    Substrate,
    /// Both.
    Combined,
}

/// Which pair of plan definitions a non-calm [`Perturbation`] installs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Plans {
    /// [`control_plan`] (seed 4242) and [`stormy_substrate_plan`] at this seed.
    Stormy(u64),
    /// [`acceptance_control_plan`] and [`acceptance_substrate_plan`] at
    /// these (control, substrate) seeds.
    Acceptance(u64, u64),
    /// Per region `r`: health probes dropped under seed `300 + r`, link 0
    /// failing at random (0.5/h, 10 min mean repair) under seed `400 + r`.
    Regional,
    /// Seeds 300/400 with link 0 dark for minutes [30, 60): a substrate
    /// fault that bites whatever the RNG, for comparing across drivers.
    LinkZero,
}

/// Process-level faults a [`Supervisor`] realizes on the domain servers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ProcessFaults {
    None,
    /// Every domain killed and restarted this many times, the first crash
    /// mid-request, at epochs drawn from the cell's seed in
    /// `[5, horizon − 20]`.
    CrashStorm(usize),
    /// Each domain paused once for 50 ms (epochs 10, 40, 70).
    Hang,
}

/// Which driver runs the world.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Regions {
    /// One world under a `DemoScenario`.
    Demo,
    /// This many regions under a `FederationBroker`.
    Federated(usize),
}

/// Where the run is snapshotted, dropped and restored from disk.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Cut {
    /// After this many epochs.
    At(u64),
    /// After `1 + ⌊40·u⌋` epochs, `u` the first uniform draw of this seed.
    Seeded(u64),
}

impl Cut {
    fn epoch(self) -> u64 {
        match self {
            Cut::At(epoch) => epoch,
            Cut::Seeded(seed) => {
                1 + (SimRng::seed_from(seed).uniform_range(0.0, 1.0) * 40.0) as u64
            }
        }
    }
}

/// One configuration of the identity matrix.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Cell {
    pub seed: u64,
    pub arrivals_per_hour: f64,
    pub mean_duration_mins: u64,
    pub horizon_mins: u64,
    /// Worker count pinned while the epochs run (after the cut, if any).
    pub workers: usize,
    pub control: Control,
    pub perturbation: Perturbation,
    pub plans: Plans,
    pub process: ProcessFaults,
    pub cut: Option<Cut>,
    /// Worker count pinned for the leg before the cut.
    pub cut_workers: usize,
    pub regions: Regions,
    pub route_cache: bool,
    /// The epoch phases the default config leaves off: the Markov weather
    /// process (fade → reroute) and the per-UE PF fairness split.
    pub dynamic: bool,
}

impl Cell {
    /// The undisturbed serial demo run every suite starts from: 25
    /// arrivals/h over 4 h of the Fig. 2 testbed.
    pub const CALM: Cell = Cell {
        seed: 0,
        arrivals_per_hour: 25.0,
        mean_duration_mins: 120,
        horizon_mins: 240,
        workers: 1,
        control: Control::Bus,
        perturbation: Perturbation::Calm,
        plans: Plans::Stormy(17),
        process: ProcessFaults::None,
        cut: None,
        cut_workers: 1,
        regions: Regions::Demo,
        route_cache: true,
        dynamic: false,
    };

    fn horizon(&self) -> SimDuration {
        SimDuration::from_mins(self.horizon_mins)
    }

    /// Install this cell's plans and route-cache setting on region `r`.
    fn install(&self, r: usize, o: &mut Orchestrator) {
        use Perturbation::*;
        if matches!(self.perturbation, Control | Combined) {
            o.set_fault_plan(match self.plans {
                Plans::Stormy(_) => control_plan(),
                Plans::Acceptance(seed, _) => acceptance_control_plan(seed),
                Plans::Regional => FaultPlan::new(300 + r as u64)
                    .with_endpoint("ran/health", EndpointFaults::none().with_drop(0.3))
                    .with_endpoint("cloud/health", EndpointFaults::none().with_drop(0.2)),
                Plans::LinkZero => FaultPlan::new(300)
                    .with_endpoint("ran/health", EndpointFaults::none().with_drop(0.3))
                    .with_endpoint("cloud/health", EndpointFaults::none().with_error(0.2)),
            });
        }
        if matches!(self.perturbation, Substrate | Combined) {
            let link0 = SubstrateElement::Link(LinkId::new(0));
            o.set_substrate_plan(match self.plans {
                Plans::Stormy(seed) => stormy_substrate_plan(seed),
                Plans::Acceptance(_, seed) => acceptance_substrate_plan(seed),
                Plans::Regional => SubstrateFaultPlan::new(400 + r as u64).with_random_outages(
                    &[link0],
                    0.5,
                    SimDuration::from_mins(10),
                    self.horizon(),
                ),
                Plans::LinkZero => {
                    SubstrateFaultPlan::new(400).with_outage(link0, minutes(30), minutes(60))
                }
            });
        }
        if !self.route_cache {
            o.transport_mut().set_route_cache_enabled(false);
        }
    }

    fn config(&self, regions: usize) -> FederationConfig {
        FederationConfig {
            seed: self.seed,
            regions,
            arrivals_per_hour: self.arrivals_per_hour,
            mean_duration: SimDuration::from_mins(self.mean_duration_mins),
            horizon: self.horizon(),
            orchestrator: OrchestratorConfig {
                weather_enabled: self.dynamic,
                ue_fairness_tracking: self.dynamic,
                ..OrchestratorConfig::default()
            },
            ..FederationConfig::default()
        }
    }

    /// The single-world scenario of this cell, plans installed, not yet
    /// stepped.
    pub fn demo(&self) -> DemoScenario {
        let mut s = DemoScenario::build(region_scenario_config(&self.config(1)));
        self.install(0, s.orchestrator_mut());
        s
    }

    fn world(&self) -> World {
        let Regions::Federated(regions) = self.regions else {
            return World::Demo(Box::new(self.demo()));
        };
        let mut fed = FederationBroker::build(self.config(regions));
        for r in 0..regions {
            self.install(r, fed.orchestrator_mut(r));
        }
        World::Federated(Box::new(fed))
    }
}

fn minutes(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_mins(n)
}

/// The seed-4242 control plan: a quarter of RAN health probes dropped, the
/// cloud controller erroring 15 % of the time and dark for minutes [45, 75).
pub fn control_plan() -> FaultPlan {
    FaultPlan::new(4242)
        .with_endpoint("ran/health", EndpointFaults::none().with_drop(0.25))
        .with_endpoint(
            "cloud/health",
            EndpointFaults::none()
                .with_error(0.15)
                .with_outage(minutes(45), minutes(75)),
        )
}

/// The stormy substrate plan (seed 17 wherever it is not swept): cell 0
/// dark for minutes [40, 70), link 4 flapping three times from minute 90.
pub fn stormy_substrate_plan(seed: u64) -> SubstrateFaultPlan {
    SubstrateFaultPlan::new(seed)
        .with_outage(
            SubstrateElement::Cell(EnbId::new(0)),
            minutes(40),
            minutes(70),
        )
        .with_flaps(
            SubstrateElement::Link(LinkId::new(4)),
            minutes(90),
            SimDuration::from_mins(5),
            SimDuration::from_mins(20),
            3,
        )
}

/// The chaos suite's acceptance plan: ≤0.3 drop probability on every health
/// probe, some transient 5xx and delay noise, response corruption on one
/// monitoring endpoint, and the transport controller dark for minutes
/// [60, 90).
fn acceptance_control_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with_endpoint("ran/health", EndpointFaults::none().with_drop(0.3))
        .with_endpoint(
            "transport/health",
            EndpointFaults::none()
                .with_drop(0.2)
                .with_error(0.1)
                .with_outage(minutes(60), minutes(90)),
        )
        .with_endpoint(
            "cloud/health",
            EndpointFaults::none().with_delay(0.2, SimDuration::from_millis(150)),
        )
        .with_endpoint("cloud/monitoring", EndpointFaults::none().with_corrupt(0.2))
}

/// The chaos suite's substrate acceptance plan: one cell dark for half an
/// hour, the single agg→core fiber cut (no alternative path — forced
/// degradations), a core host crash, and a whole switch outage late in the
/// run. Every window closes before a 4 h horizon.
fn acceptance_substrate_plan(seed: u64) -> SubstrateFaultPlan {
    SubstrateFaultPlan::new(seed)
        .with_outage(
            SubstrateElement::Cell(EnbId::new(0)),
            minutes(40),
            minutes(70),
        )
        .with_outage(
            SubstrateElement::Link(LinkId::new(6)),
            minutes(100),
            minutes(125),
        )
        .with_outage(
            SubstrateElement::Host(DcId::new(1), HostId::new(0)),
            minutes(140),
            minutes(160),
        )
        .with_outage(
            SubstrateElement::Switch(SwitchId::new(1)),
            minutes(180),
            minutes(200),
        )
}

/// The artefacts the oracles compare, rendered to bytes.
#[derive(Clone, Debug, PartialEq)]
pub struct Observed {
    /// One `DemoSummary` per region, as JSON.
    pub summaries: Vec<String>,
    /// The driver that produced `totals` (`""` for a bare orchestrator).
    pub driver: &'static str,
    /// What the driver reports on top of the per-region summaries: a demo
    /// run's `chaos_summary`, `substrate_summary` and injector stats; a
    /// federation's `FederationSummary`.
    pub totals: Vec<String>,
    /// Every region's rendered dashboard.
    pub dashboards: Vec<String>,
    /// Every monitoring report of every region, as JSON, region order.
    pub monitoring: Vec<String>,
    /// Every region's orchestrator metric registry, as JSON — the only
    /// artefact the per-UE fairness series reach.
    pub telemetry: Vec<String>,
}

macro_rules! json {
    ($value:expr) => {
        serde_json::to_string($value).expect("artefacts serialize")
    };
}

impl Observed {
    /// The dashboard, monitoring and metrics JSON of one orchestrator — the
    /// one place these are rendered for comparison.
    fn of(orchestrator: &Orchestrator) -> Observed {
        Observed {
            summaries: Vec::new(),
            driver: "",
            totals: Vec::new(),
            dashboards: vec![DashboardView::capture(orchestrator).render()],
            monitoring: orchestrator.monitoring().iter().map(|r| json!(r)).collect(),
            telemetry: vec![json!(orchestrator.metrics())],
        }
    }

    /// Everything a demo run shows.
    fn of_demo(s: &DemoScenario) -> Observed {
        Observed {
            summaries: vec![json!(&s.summary())],
            driver: "demo",
            totals: vec![
                json!(&s.chaos_summary()),
                json!(&s.substrate_summary()),
                json!(&s.orchestrator().control().fault_stats()),
            ],
            ..Observed::of(s.orchestrator())
        }
    }

    fn of_federation(fed: &FederationBroker) -> Observed {
        let summary = fed.summary();
        let mut out = Observed {
            summaries: summary.regions.iter().map(|s| json!(s)).collect(),
            driver: "federation",
            totals: vec![json!(&summary)],
            dashboards: Vec::new(),
            monitoring: Vec::new(),
            telemetry: Vec::new(),
        };
        for r in 0..fed.region_count() {
            let region = Observed::of(fed.orchestrator(r));
            out.dashboards.extend(region.dashboards);
            out.monitoring.extend(region.monitoring);
            out.telemetry.extend(region.telemetry);
        }
        out
    }

    /// The first artefact on which `self` and `other` differ, described;
    /// `None` when they are byte-identical. `totals` have no counterpart
    /// across drivers (a one-region federation against the demo), so they
    /// are compared between runs of the same driver only.
    pub fn first_difference(&self, other: &Observed) -> Option<String> {
        let same_driver = self.driver == other.driver;
        differ("summary", &self.summaries, &other.summaries)
            .or_else(|| differ("totals", &self.totals, &other.totals).filter(|_| same_driver))
            .or_else(|| differ("dashboard", &self.dashboards, &other.dashboards))
            .or_else(|| differ("monitoring report", &self.monitoring, &other.monitoring))
            .or_else(|| differ("telemetry", &self.telemetry, &other.telemetry))
    }
}

/// Where two renderings of one artefact first part ways, if they do.
fn differ(what: &str, a: &[String], b: &[String]) -> Option<String> {
    if a.len() != b.len() {
        return Some(format!("{what}: {} vs {} entries", a.len(), b.len()));
    }
    let i = a.iter().zip(b).position(|(x, y)| x != y)?;
    let (x, y) = (a[i].lines().zip(b[i].lines()).find(|(x, y)| x != y))
        .unwrap_or((a[i].as_str(), b[i].as_str()));
    // A registry's JSON is one long line: show the neighbourhood of the
    // first differing byte, not all of it.
    let at = x.bytes().zip(y.bytes()).position(|(p, q)| p != q);
    let lo = at.unwrap_or(x.len().min(y.len())).saturating_sub(120);
    let near = |s: &str| s.get(lo..).map_or(s, |t| t.get(..240).unwrap_or(t)).to_owned();
    let (x, y) = (near(x), near(y));
    Some(format!("{what} {i}, byte {lo}:\n  reference: {x}\n  variant:   {y}"))
}

/// What proves a cell's perturbation happened: counters that must move (or
/// must not) for the comparison to mean what its row says.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Witness {
    pub admitted: u64,
    pub control_retries: u64,
    pub element_failures: u64,
    /// Slices the weather phase moved off a faded mmWave link.
    pub weather_reroutes: u64,
    /// Samples in the `orchestrator.<slice>.ue_fairness` series, all slices.
    pub fairness_samples: u64,
    /// Route-cache lookups (hits + misses), all regions.
    pub route_cache_queries: u64,
    /// Requests the domain servers dispatched, all incarnations and legs,
    /// and telemetry frames they pushed to subscribers.
    pub socket_requests: u64,
    pub socket_pushes: u64,
    /// The RAN server: connections torn down on a realized drop, and
    /// connections accepted.
    pub ran_chaos_resets: u64,
    pub ran_connections: u64,
    pub crashes: u64,
    pub mid_request_crashes: u64,
    pub hangs: u64,
    pub stale_provoked: u64,
    pub stale_rejections: u64,
    /// Final incarnation term per domain.
    pub terms: Vec<u64>,
    /// Times any domain's heartbeat health machine left `Up`.
    pub health_incidents: u64,
    pub spilled: u64,
    pub spill_admitted: u64,
}

enum World {
    Demo(Box<DemoScenario>),
    Federated(Box<FederationBroker>),
}

impl World {
    fn orchestrators(&self) -> Vec<&Orchestrator> {
        match self {
            World::Demo(s) => vec![s.orchestrator()],
            World::Federated(fed) => (0..fed.region_count())
                .map(|r| fed.orchestrator(r))
                .collect(),
        }
    }

    /// The one orchestrator whose control plane goes on sockets.
    fn socketed(&mut self) -> &mut Orchestrator {
        match self {
            World::Demo(s) => s.orchestrator_mut(),
            World::Federated(_) => panic!("sockets are wired for the demo driver only"),
        }
    }

    fn epochs(&self) -> u64 {
        match self {
            World::Demo(s) => s.epochs_completed(),
            World::Federated(fed) => fed.epochs_completed(),
        }
    }

    fn step_epoch(&mut self) -> bool {
        match self {
            World::Demo(s) => s.step_epoch(),
            World::Federated(fed) => fed.step_epoch(),
        }
    }

    /// Snapshot to disk, drop the live world, restore from the snapshot.
    fn cut(self) -> World {
        let store = crate::ScratchWorld::open("identity");
        let epoch = self.epochs();
        match self {
            World::Demo(s) => {
                store.snapshot(&s.export_state()).expect("snapshot writes");
                drop(s); // only the on-disk snapshot survives the "kill"
                let state = store.restore(epoch).expect("restore");
                World::Demo(Box::new(DemoScenario::from_state(&state)))
            }
            World::Federated(fed) => {
                store
                    .snapshot_federation(&fed.export_state())
                    .expect("snapshot writes");
                drop(fed);
                let state = store.restore_federation(epoch).expect("restore");
                World::Federated(Box::new(FederationBroker::from_state(&state)))
            }
        }
    }
}

/// Put the world's control plane on fresh sockets, under a supervisor whose
/// plan stays quiet unless the cell asks for process faults. `None` on the
/// bus.
fn wire_up(cell: &Cell, world: &mut World, tap: impl FnOnce(&[RpcServer])) -> Option<Supervisor> {
    if cell.control == Control::Bus {
        assert!(
            cell.process == ProcessFaults::None,
            "process faults need sockets: {cell:?}"
        );
        return None;
    }
    assert!(
        cell.process == ProcessFaults::None || cell.cut.is_none(),
        "process faults are wired for an uncut run: {cell:?}"
    );
    let (servers, socket) = spawn_domain_control_servers().expect("spawn servers");
    world.socketed().set_control_socket(socket);
    tap(&servers);
    let plan = CrashPlan::new(cell.seed);
    let plan = match cell.process {
        ProcessFaults::None => plan,
        ProcessFaults::CrashStorm(per_domain) => {
            plan.with_random_storm(&DOMAINS, per_domain, 5, cell.horizon_mins - 20)
        }
        ProcessFaults::Hang => plan
            .with_hang("ran", 10, 50)
            .with_hang("transport", 40, 50)
            .with_hang("cloud", 70, 50),
    };
    Some(Supervisor::new(servers, plan))
}

/// Tear the sockets down (joining the connection threads, so the counters
/// are final), booking what they saw.
fn wire_down(wire: Option<Supervisor>, witness: &mut Witness) {
    let Some(mut supervisor) = wire else { return };
    supervisor.shutdown();
    for domain in DOMAINS {
        let stats = supervisor.server(domain).expect("supervised").stats();
        witness.socket_requests += stats.requests;
        witness.socket_pushes += stats.pushes;
        if domain == "ran" {
            witness.ran_chaos_resets += stats.chaos_resets;
            witness.ran_connections += stats.connections;
        }
    }
    witness.crashes = supervisor.crashes();
    witness.mid_request_crashes = supervisor.mid_request_crashes();
    witness.hangs = supervisor.hangs();
    witness.stale_provoked = supervisor.stale_rejections_provoked();
    witness.terms = supervisor.terms().into_values().collect();
}

/// Run `cell` to its horizon and render what it shows.
pub fn observe(cell: &Cell) -> (Observed, Witness) {
    observe_with(cell, |_| {})
}

/// [`observe`], handing the freshly spawned domain servers of a socket cell
/// to `on_sockets_up` before the first epoch (`tests/rpc_plane.rs`
/// subscribes its telemetry feeds there).
pub fn observe_with(cell: &Cell, on_sockets_up: impl FnOnce(&[RpcServer])) -> (Observed, Witness) {
    let cut_at = cell.cut.map(Cut::epoch);
    let mut workers = cut_at.map_or(cell.workers, |_| cell.cut_workers);
    let mut _pin = pin_threads(workers);
    let mut witness = Witness::default();
    let mut world = cell.world();
    let mut wire = wire_up(cell, &mut world, on_sockets_up);
    let mut restored = false;
    loop {
        if let Some(supervisor) = wire.as_mut() {
            supervisor.tick(world.epochs() + 1, world.socketed());
        }
        assert_eq!(
            current_threads(),
            workers,
            "the worker pin moved under {cell:?}"
        );
        if !world.step_epoch() {
            break;
        }
        if Some(world.epochs()) == cut_at {
            wire_down(wire, &mut witness); // the sockets die with the world
            world = world.cut();
            drop(_pin);
            workers = cell.workers;
            _pin = pin_threads(workers);
            wire = wire_up(cell, &mut world, |_| {});
            restored = true;
        }
    }
    assert!(
        cut_at.is_none() || restored,
        "the horizon ended before the cut of {cell:?}"
    );

    let counter = |o: &Orchestrator, name: &str| o.metrics().counter_value(name).unwrap_or(0);
    for o in world.orchestrators() {
        witness.control_retries += counter(o, "control.retries");
        witness.element_failures += counter(o, "substrate.element_failures");
        witness.weather_reroutes += counter(o, "orchestrator.weather_reroutes");
        for record in o.records() {
            let name = format!("orchestrator.{}.ue_fairness", record.id);
            let series = o.metrics().series_ref(&name);
            witness.fairness_samples += series.map_or(0, |s| s.len() as u64);
        }
        let cache = o.transport().route_cache().stats();
        witness.route_cache_queries += cache.hits + cache.misses;
        witness.stale_rejections += o.control().stale_rejections();
        witness.health_incidents += o.supervision().values().map(|h| h.incidents).sum::<u64>();
    }
    wire_down(wire, &mut witness);
    let observed = match &world {
        World::Demo(s) => {
            witness.admitted = s.summary().admitted;
            Observed::of_demo(s)
        }
        World::Federated(fed) => {
            let summary = fed.summary();
            witness.admitted = summary.admitted;
            witness.spilled = summary.spilled;
            witness.spill_admitted = summary.spill_admitted;
            Observed::of_federation(fed)
        }
    };
    (observed, witness)
}
