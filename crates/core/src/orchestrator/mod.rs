//! The end-to-end orchestrator: admission → multi-domain allocation →
//! monitoring → forecasting → overbooked reconfiguration, over the three
//! domain controllers.
//!
//! The orchestrator is driven by two calls, mirroring how the demo operates:
//!
//! * [`Orchestrator::submit`] — a dashboard request arrives: the admission
//!   policy decides, the allocator places it across RAN/transport/cloud
//!   (with rollback), income is booked, and the slice starts *deploying*
//!   (vEPC boot + PLMN activation take "a few seconds" of virtual time).
//! * [`Orchestrator::run_epoch`] — one monitoring epoch elapses: slices
//!   whose deployment completed activate; expired slices tear down; traffic
//!   is generated and scheduled in the RAN; end-to-end latency is measured;
//!   SLA verdicts book penalties; demand observations feed the forecasting
//!   engine; and, on the configured cadence, the overbooking engine
//!   reconfigures reservations. Domain telemetry is pulled through the
//!   JSON API boundary exactly as the testbed's REST monitoring was.
//!
//! `run_epoch` is a list of phases, each a `&mut self` function in the file
//! of its kind: `admission` (submit, batch decision, activate, expire,
//! teardown), `health` (probes, reachability degrade/restore), `substrate`
//! (weather, fault detect-assess-heal, host-failure injection),
//! `dataplane` (traffic and radio sampling, RAN epoch, SLA judgement,
//! forecaster feed), `reconfigure`, `telemetry` (series, monitoring push)
//! and `state` (checkpoint/restore and the snapshot sections).

mod admission;
mod dataplane;
mod health;
mod reconfigure;
mod state;
mod substrate;
mod telemetry;

pub use state::{OrchestratorState, SliceSimSnapshot};

use crate::admission::{AdmissionPolicy, PolicyKind};
use crate::allocator::{AllocatorConfig, MultiDomainAllocator, Placement};
use crate::control::ControlPlane;
use crate::lifecycle::{SliceRecord, SliceState};
use crate::overbooking::{GainReport, OverbookingConfig, OverbookingEngine};
use crate::sla::{SlaMonitor, SlaVerdict};
use crate::supervise::DomainHealth;
use dataplane::{EpochScratch, SliceSimState};
use ovnes_api::{FaultPlan, MonitoringReport, SubstrateElement, SubstrateFaultPlan};
use ovnes_cloud::CloudController;
use ovnes_model::ids::IdAllocator;
use ovnes_model::{Money, PlmnId, SliceId, SliceRequest};
use ovnes_ran::{CellConfig, ChannelModel, MobilityModel, PfState, RanController};
use ovnes_sim::{EventLog, MetricRegistry, SimDuration, SimRng, SimTime, TimeSeries};
use ovnes_transport::{Sky, TransportController, WeatherProcess};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Orchestrator tunables.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct OrchestratorConfig {
    /// Monitoring epoch length.
    pub epoch: SimDuration,
    /// Reconfigure (overbook) every this many epochs.
    pub reconfig_every: u64,
    /// Admission policy.
    pub policy: PolicyKind,
    /// Overbooking engine settings.
    pub overbooking: OverbookingConfig,
    /// Allocation settings.
    pub allocator: AllocatorConfig,
    /// Master switch: with overbooking off, reservations stay at SLA peak —
    /// the baseline every experiment compares against.
    pub overbooking_enabled: bool,
    /// Batch-broker mode (ref \[3\]): when `Some(n)`, requests submitted via
    /// [`Orchestrator::enqueue`] are held and decided together every `n`
    /// epochs by an exact 0/1 knapsack over the free PRB budget, maximizing
    /// admitted price. `None` keeps the broker purely online.
    pub batch_window: Option<u64>,
    /// UEs attached per slice (drives the radio channel sampling).
    pub ues_per_slice: usize,
    /// UE distance range from the serving eNB, meters.
    pub ue_distance_range: (f64, f64),
    /// Per-epoch UE mobility (link quality drifts over a slice's lifetime).
    pub mobility: MobilityModel,
    /// Enable the Markov weather process over the mmWave transport; on a
    /// fade the orchestrator reroutes oversubscribed slices over µwave.
    pub weather_enabled: bool,
    /// Track per-UE fairness: each epoch, every slice's allocated PRBs are
    /// divided among its UEs by proportional fair and the per-slice Jain
    /// index is recorded (`orchestrator.<slice>.ue_fairness` series).
    pub ue_fairness_tracking: bool,
}

impl Default for OrchestratorConfig {
    fn default() -> Self {
        OrchestratorConfig {
            epoch: SimDuration::from_mins(1),
            reconfig_every: 5,
            policy: PolicyKind::OverbookingAware,
            overbooking: OverbookingConfig::default(),
            allocator: AllocatorConfig::default(),
            overbooking_enabled: true,
            batch_window: None,
            ues_per_slice: 4,
            ue_distance_range: (20.0, 250.0),
            mobility: MobilityModel::pedestrian(),
            weather_enabled: false,
            ue_fairness_tracking: false,
        }
    }
}

/// What one monitoring epoch produced — the dashboard's refresh payload.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EpochReport {
    /// When the epoch closed.
    pub now: SimTime,
    /// Slices serving traffic this epoch.
    pub active: usize,
    /// Per-slice SLA verdicts.
    pub verdicts: Vec<SlaVerdict>,
    /// Multiplexing-gain report.
    pub gain: GainReport,
    /// Net revenue to date (gains minus penalties).
    pub net_revenue: Money,
    /// Reservations changed by reconfiguration this epoch.
    pub reconfigured: usize,
    /// Slices that became active this epoch.
    pub activated: Vec<SliceId>,
    /// Slices that expired this epoch.
    pub expired: Vec<SliceId>,
    /// Slices admitted by this epoch's batch-broker decision (empty unless
    /// batch mode fired this epoch).
    pub batch_admitted: Vec<SliceId>,
    /// Requests rejected by this epoch's batch decision.
    pub batch_rejected: usize,
    /// Sky condition this epoch (`None` when the weather process is off).
    pub sky: Option<Sky>,
    /// Control-plane retries (attempts beyond the first) this epoch.
    pub control_retries: u64,
    /// Control-plane calls that exhausted retries/deadline this epoch.
    pub control_failures: u64,
    /// Slices marked `Degraded` this epoch — the control plane lost a
    /// domain, or a substrate fault could not be repaired.
    pub degraded: Vec<SliceId>,
    /// Slices restored `Degraded → Active` this epoch.
    pub restored: Vec<SliceId>,
    /// Domains whose health probe failed this epoch, after retries.
    pub unreachable_domains: Vec<String>,
    /// Substrate elements currently failed (always empty without a
    /// substrate fault plan).
    pub substrate_down: Vec<SubstrateElement>,
}

/// Per-slice measurement history, recorded every active epoch — the data
/// behind the dashboard's per-slice charts and the CSV exports.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SliceTimeline {
    /// Offered traffic per epoch (Mbps).
    pub offered: TimeSeries,
    /// Delivered throughput per epoch (Mbps).
    pub delivered: TimeSeries,
    /// Measured end-to-end latency per epoch (ms).
    pub latency: TimeSeries,
}

/// Why a submission was rejected.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Rejection {
    /// The id minted for the (now rejected) request.
    pub slice: SliceId,
    /// Dashboard-visible reason.
    pub reason: String,
}

/// The end-to-end orchestrator. See module docs.
pub struct Orchestrator {
    config: OrchestratorConfig,
    ran: RanController,
    transport: TransportController,
    cloud: CloudController,
    /// Cell profile shared by the demo's identical eNBs (used to translate
    /// sampled CQI into a per-PRB rate).
    cell: CellConfig,
    allocator: MultiDomainAllocator,
    policy: Box<dyn AdmissionPolicy>,
    engine: OverbookingEngine,
    sla: SlaMonitor,
    records: BTreeMap<SliceId, SliceRecord>,
    placements: BTreeMap<SliceId, Placement>,
    /// Requests awaiting the next batch-broker decision.
    pending: Vec<SliceRequest>,
    ready_at: BTreeMap<SliceId, SimTime>,
    /// Slices whose vEPC is redeploying after a host failure: total service
    /// outage until the instant recorded here.
    epc_down_until: BTreeMap<SliceId, SimTime>,
    /// Per-slice measurement history, kept after the slice ends for
    /// post-run analysis. Each series is a `SERIES_WINDOW` window but the
    /// map itself never sheds an ended slice: with `records` it grows by a
    /// measured ≈ 5 KB of checkpoint per `admit_churn` epoch (ROADMAP 1).
    timelines: BTreeMap<SliceId, SliceTimeline>,
    /// Proportional-fair state per slice (only when fairness tracking is on).
    pf: BTreeMap<SliceId, PfState>,
    /// Traffic process + UEs + private RNG stream per slice, keyed (and
    /// therefore iterated) in slice-id order — the order the parallel epoch
    /// phase shards and reduces in.
    sim_state: BTreeMap<SliceId, SliceSimState>,
    /// Epoch hot-path buffers, reused across epochs (see [`EpochScratch`]).
    epoch_scratch: EpochScratch,
    channel: ChannelModel,
    rng: SimRng,
    ids: IdAllocator,
    ue_ids: IdAllocator,
    free_plmns: Vec<PlmnId>,
    next_plmn: u64,
    metrics: MetricRegistry,
    epoch_count: u64,
    /// When the last epoch closed; `run_epoch` rejects a clock that runs
    /// backwards (it would corrupt event-log ordering and SLA accounting).
    last_epoch_at: Option<SimTime>,
    last_monitoring: Vec<MonitoringReport>,
    weather: WeatherProcess,
    /// Dedicated stream so enabling weather never perturbs the radio/
    /// traffic realizations (clear-sky and rainy runs stay comparable).
    weather_rng: SimRng,
    last_sky: Sky,
    events: EventLog,
    /// The REST boundary to the domain controllers, with optional fault
    /// injection and retry/backoff (see [`crate::control`]).
    control: ControlPlane,
    /// Deterministic data-plane fault schedule. `None` (or a quiet plan)
    /// leaves every epoch byte-identical to a plan-less run.
    substrate_plan: Option<SubstrateFaultPlan>,
    /// Substrate elements currently applied as failed (the recovery loop
    /// edge-triggers against this set each epoch).
    substrate_down: BTreeSet<SubstrateElement>,
    /// Slices an unrepaired substrate fault is keeping out of service,
    /// with the time the outage was first detected (feeds the
    /// `substrate.time_to_repair` distribution).
    substrate_degraded: BTreeMap<SliceId, SimTime>,
    /// Per-domain heartbeat health machines (Up → Suspect → Down → Up),
    /// one per entry of `DOMAINS`. A domain is reachable while its machine
    /// is `Up`: leaving and re-entering `Up` are the edges the events and
    /// the Degraded/restored transitions trigger on.
    supervision: BTreeMap<String, DomainHealth>,
}

impl Orchestrator {
    /// Compose an orchestrator over the three controllers.
    ///
    /// `cell` must describe the (identical) cells the RAN controller
    /// manages; `rng` seeds all traffic and channel stochastics.
    pub fn new(
        config: OrchestratorConfig,
        ran: RanController,
        transport: TransportController,
        cloud: CloudController,
        cell: CellConfig,
        mut rng: SimRng,
    ) -> Orchestrator {
        let mut rng = rng.fork("orchestrator");
        let weather_rng = rng.fork("weather");
        Orchestrator {
            allocator: MultiDomainAllocator::new(config.allocator.clone()),
            policy: config.policy.build(),
            engine: OverbookingEngine::new(config.overbooking.clone()),
            config,
            ran,
            transport,
            cloud,
            cell,
            sla: SlaMonitor::default(),
            records: BTreeMap::new(),
            placements: BTreeMap::new(),
            pending: Vec::new(),
            ready_at: BTreeMap::new(),
            epc_down_until: BTreeMap::new(),
            timelines: BTreeMap::new(),
            pf: BTreeMap::new(),
            sim_state: BTreeMap::new(),
            epoch_scratch: EpochScratch::default(),
            channel: ChannelModel::urban_small_cell(),
            rng,
            ids: IdAllocator::new(),
            ue_ids: IdAllocator::new(),
            free_plmns: Vec::new(),
            next_plmn: 0,
            metrics: MetricRegistry::new(),
            epoch_count: 0,
            last_epoch_at: None,
            last_monitoring: Vec::new(),
            weather: WeatherProcess::temperate(),
            weather_rng,
            last_sky: Sky::Clear,
            events: EventLog::new(512),
            control: ControlPlane::new(),
            substrate_plan: None,
            substrate_down: BTreeSet::new(),
            substrate_degraded: BTreeMap::new(),
            supervision: DomainHealth::tracking_all(),
        }
    }

    /// Install a control-plane fault plan (chaos testing). The plan brings
    /// its own seed, so the orchestrator's simulation streams are
    /// untouched; a quiet plan is an exact no-op.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.control.set_fault_plan(plan);
    }

    /// Swap the control plane onto a socket transport: probes and
    /// monitoring pushes now cross real TCP connections to controller
    /// server tasks (see [`ControlPlane::install_socket`]). Accounting
    /// carries over, so a run that swaps at build time stays
    /// byte-identical to the in-process oracle.
    pub fn set_control_socket(&mut self, socket: ovnes_api::SocketBus) {
        self.control.install_socket(socket);
    }

    /// The control plane (for endpoint/retry stats in dashboards/benches).
    pub fn control(&self) -> &ControlPlane {
        &self.control
    }

    /// Mutable control plane — the supervisor re-points routes and bumps
    /// fencing terms on the socket bus after a restart.
    pub fn control_mut(&mut self) -> &mut ControlPlane {
        &mut self.control
    }

    /// Every tracked domain's health machine, ascending by domain.
    pub fn supervision(&self) -> &BTreeMap<String, DomainHealth> {
        &self.supervision
    }

    /// Advance one monitoring epoch ending at `now`.
    ///
    /// # Panics
    /// Panics if `now` precedes the previous epoch's close — a monitoring
    /// clock that runs backwards would corrupt event-log ordering and SLA
    /// accounting, so it is treated as a harness bug. Equal timestamps are
    /// allowed (a zero-length epoch re-measures the same instant).
    pub fn run_epoch(&mut self, now: SimTime) -> EpochReport {
        if let Some(last) = self.last_epoch_at {
            assert!(
                now >= last,
                "run_epoch clock went backwards: {now} after epoch at {last}"
            );
        }
        self.last_epoch_at = Some(now);
        self.epoch_count += 1;

        let unreachable_domains = self.probe_health(now);
        let (batch_admitted, batch_rejected) = self.decide_batch(now);
        let sky = self.step_weather(now);
        let activated = self.activate_deployed(now);
        let (expired, live) = self.expire_due(now);
        let (mut degraded, mut restored) =
            self.follow_reachability(now, &live, &unreachable_domains);
        self.heal_substrate(now, &mut degraded, &mut restored);
        let (loads, fractions) = self.sample_slices(&live);
        self.schedule_ran(now, &loads);
        let verdicts = self.measure_and_judge(now, &loads, &fractions);
        let reconfigured = self.reconfigure_on_cadence(&live);
        let (gain, control) = self.push_telemetry(now, &unreachable_domains);

        EpochReport {
            now,
            active: live.len(),
            verdicts,
            gain,
            net_revenue: self.sla.net(),
            reconfigured,
            activated,
            expired,
            batch_admitted,
            batch_rejected,
            sky,
            control_retries: control.retries,
            control_failures: control.failures,
            degraded,
            restored,
            unreachable_domains,
            substrate_down: self.substrate_down.iter().copied().collect(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &OrchestratorConfig {
        &self.config
    }

    /// All slice records (every state, including rejected/expired).
    pub fn records(&self) -> impl Iterator<Item = &SliceRecord> {
        self.records.values()
    }

    /// One slice's record.
    pub fn record(&self, id: SliceId) -> Option<&SliceRecord> {
        self.records.get(&id)
    }

    /// One slice's placement (present while deploying/active).
    pub fn placement(&self, id: SliceId) -> Option<&Placement> {
        self.placements.get(&id)
    }

    /// Slices currently in the given state.
    pub fn count_in_state(&self, state: SliceState) -> usize {
        self.records.values().filter(|r| r.state == state).count()
    }

    /// The gains-vs-penalties ledger.
    pub fn ledger(&self) -> &ovnes_model::RevenueLedger {
        self.sla.ledger()
    }

    /// The most recent monitoring reports (one per domain), as received
    /// across the API boundary.
    pub fn monitoring(&self) -> &[MonitoringReport] {
        &self.last_monitoring
    }

    /// The dashboard's event feed.
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// One slice's measurement history (available while active and kept
    /// after it ends).
    pub fn timeline(&self, slice: SliceId) -> Option<&SliceTimeline> {
        self.timelines.get(&slice)
    }

    /// Orchestrator-level metrics.
    pub fn metrics(&self) -> &MetricRegistry {
        &self.metrics
    }

    /// The RAN controller (for snapshots in dashboards/benches).
    pub fn ran(&self) -> &RanController {
        &self.ran
    }

    /// The transport controller.
    pub fn transport(&self) -> &TransportController {
        &self.transport
    }

    /// Mutable transport controller access, for cache A/B toggles in
    /// benches and the determinism suite.
    pub fn transport_mut(&mut self) -> &mut TransportController {
        &mut self.transport
    }

    /// The cloud controller.
    pub fn cloud(&self) -> &CloudController {
        &self.cloud
    }

    /// Monitoring epochs run so far.
    pub fn epochs(&self) -> u64 {
        self.epoch_count
    }
}

#[cfg(test)]
mod tests;
