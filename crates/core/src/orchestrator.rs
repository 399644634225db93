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

use crate::admission::{AdmissionDecision, AdmissionPolicy, PolicyKind, ResourceView};
use crate::allocator::{AllocatorConfig, MultiDomainAllocator, Placement};
use crate::control::{ControlPlane, DOMAINS};
use crate::lifecycle::{SliceRecord, SliceState};
use crate::overbooking::{GainReport, OverbookingConfig, OverbookingEngine};
use crate::sla::{SlaMonitor, SlaVerdict};
use crate::supervise::{DomainHealth, HealthTransition};
use ovnes_api::{
    decode, encode, FaultPlan, MonitoringReport, RetryPolicy, Status, SubstrateElement,
    SubstrateFaultPlan,
};
use ovnes_cloud::{epc_template, CloudController, DeployedStack, EpcSizing, StackState};
use ovnes_forecast::{TraceGenerator, TraceSpec};
use ovnes_model::ids::IdAllocator;
use ovnes_model::{
    Latency, Money, PlmnId, Prbs, RateMbps, SliceClass, SliceId, SliceRequest, UeId,
};
use ovnes_ran::controller::OfferedLoad;
use ovnes_ran::{
    jain_index, CellConfig, ChannelModel, MobilityModel, PfScratch, PfState, RanController,
    SliceScheduleOutcome, Ue, UeChannel, UePopulation, UeShare,
};
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

/// Per-slice simulation state mutated by the epoch hot path: the traffic
/// process, the UE population, and the slice's private radio RNG stream.
/// Grouped in one struct so the parallel compute phase can hand each slice
/// to a worker as a single disjoint `&mut` borrow.
struct SliceSimState {
    traffic: TraceGenerator,
    ues: UePopulation,
    /// This epoch's per-UE channel draws for the PF fairness split, written
    /// by the parallel compute phase and read by the serial apply (empty
    /// unless fairness tracking is on). Persistent so steady-state epochs
    /// reuse its capacity instead of allocating a fresh vector per slice.
    channels: Vec<UeChannel>,
    /// Every draw the epoch hot path makes for this slice (mobility, CQI,
    /// fairness channels) comes from this stream. It is forked at admission
    /// under a label keyed by the slice's id, so what a slice draws is a
    /// function of its identity — never of shard or thread scheduling order.
    rng: SimRng,
}

/// What the parallel compute phase produces per active slice; applied
/// serially afterwards in id order. (The fairness channel samples stay in
/// the slice's [`SliceSimState::channels`] buffer rather than moving
/// through here.)
struct SliceEpochSample {
    slice: SliceId,
    demand_fraction: f64,
    offered: RateMbps,
    prb_rate: RateMbps,
}

/// Reusable buffers for the epoch hot path, threaded through every
/// [`Orchestrator::run_epoch`] so the steady state re-spends capacity
/// grown in earlier epochs instead of allocating: the RAN schedule
/// outcomes, the PF grant-loop scratch, and the share/rate vectors the
/// fairness telemetry reduces over.
#[derive(Default)]
struct EpochScratch {
    outcomes: Vec<SliceScheduleOutcome>,
    shares: Vec<UeShare>,
    rates: Vec<f64>,
    pf: PfScratch,
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
    /// Per-slice measurement history (kept after the slice ends, for
    /// post-run analysis; bounded by the retention window below).
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
    /// Domains whose last health probe failed (edge-triggers the events
    /// and the Degraded/restored transitions).
    down_domains: BTreeSet<&'static str>,
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
    /// layered over `down_domains` as classification/telemetry only — the
    /// degrade/restore mitigation stays edge-triggered on raw probes.
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
        let channel = ChannelModel::urban_small_cell();
        let policy = config.policy.build();
        let engine = OverbookingEngine::new(config.overbooking.clone());
        let allocator = MultiDomainAllocator::new(config.allocator.clone());
        let mut rng = rng.fork("orchestrator");
        let weather_rng = rng.fork("weather");
        Orchestrator {
            config,
            ran,
            transport,
            cloud,
            cell,
            allocator,
            policy,
            engine,
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
            channel,
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
            down_domains: BTreeSet::new(),
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

    /// Replace the control-plane retry policy.
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.control.set_retry_policy(retry);
    }

    /// Swap the control plane onto a socket transport: probes and
    /// monitoring pushes now cross real TCP connections to controller
    /// server tasks (see [`ControlPlane::install_socket`]). Accounting
    /// carries over, so a run that swaps at build time stays
    /// byte-identical to the in-process oracle.
    pub fn set_control_socket(&mut self, socket: ovnes_api::SocketBus) {
        self.control.install_socket(socket);
    }

    /// Install a substrate (data-plane) fault plan. The plan carries its
    /// own precomputed schedule, so the orchestrator's simulation streams
    /// are untouched; a quiet plan is an exact no-op.
    pub fn set_substrate_plan(&mut self, plan: SubstrateFaultPlan) {
        self.substrate_plan = Some(plan);
    }

    /// The installed substrate fault plan, if any.
    pub fn substrate_plan(&self) -> Option<&SubstrateFaultPlan> {
        self.substrate_plan.as_ref()
    }

    /// Substrate elements currently failed, ascending.
    pub fn substrate_down(&self) -> Vec<SubstrateElement> {
        self.substrate_down.iter().copied().collect()
    }

    /// Slices currently out of service behind an unrepaired substrate
    /// fault, ascending.
    pub fn substrate_degraded(&self) -> Vec<SliceId> {
        self.substrate_degraded.keys().copied().collect()
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

    /// The heartbeat health machine for `domain`, if tracked.
    pub fn domain_health(&self, domain: &str) -> Option<&DomainHealth> {
        self.supervision.get(domain)
    }

    /// Every tracked domain's health machine, ascending by domain.
    pub fn supervision(&self) -> &BTreeMap<String, DomainHealth> {
        &self.supervision
    }

    // ---- submission -------------------------------------------------------

    /// Submit a dashboard request at `now`. On admission the slice id is
    /// returned and deployment begins; otherwise the rejection reason is
    /// recorded and returned.
    pub fn submit(&mut self, now: SimTime, request: SliceRequest) -> Result<SliceId, Rejection> {
        let id: SliceId = self.ids.next();
        let mut record = SliceRecord::new(id, request.clone(), now);
        self.metrics.counter("orchestrator.submitted").inc();

        let view = self.resource_view();
        let decision = self.policy.decide(&request, &view);
        let reserved = match decision {
            AdmissionDecision::Reject { reason } => {
                record
                    .transition(SliceState::Rejected)
                    .expect("requested→rejected");
                self.records.insert(id, record);
                self.metrics.counter("orchestrator.rejected_policy").inc();
                return Err(Rejection { slice: id, reason });
            }
            AdmissionDecision::Admit { reserved } => {
                if self.config.overbooking_enabled {
                    reserved
                } else {
                    // Baseline mode: always reserve the SLA peak.
                    self.allocator.nominal_prbs(&request)
                }
            }
        };
        self.admit_and_allocate(now, id, record, request, reserved)
    }

    /// Queue a request for the next batch-broker decision (requires
    /// [`OrchestratorConfig::batch_window`]). The decision and its outcome
    /// surface in the [`EpochReport`] of the deciding epoch.
    ///
    /// # Panics
    /// Panics when the orchestrator is not in batch mode — queuing a
    /// request that will never be decided is a harness bug.
    pub fn enqueue(&mut self, request: SliceRequest) {
        assert!(
            self.config.batch_window.is_some(),
            "enqueue requires batch_window to be configured"
        );
        self.metrics.counter("orchestrator.submitted").inc();
        self.pending.push(request);
    }

    /// Number of requests waiting for the next batch decision.
    pub fn pending_requests(&self) -> usize {
        self.pending.len()
    }

    /// The batch-broker decision: exact knapsack over the free PRB budget
    /// (ref \[3\]), then the usual multi-domain allocation per winner.
    fn decide_batch(&mut self, now: SimTime) -> (Vec<SliceId>, usize) {
        let window = std::mem::take(&mut self.pending);
        if window.is_empty() {
            return (Vec::new(), 0);
        }
        let view = self.resource_view();
        let sized: Vec<Prbs> = window
            .iter()
            .map(|r| {
                let fraction = if self.config.overbooking_enabled {
                    view.class_demand
                        .get(r.class)
                        .unwrap_or(1.0)
                        .clamp(0.3, 1.0)
                } else {
                    1.0
                };
                view.prbs_needed(r.sla.throughput * fraction)
                    .max(Prbs::new(1))
            })
            .collect();
        // Budget: every unreserved PRB in the RAN (the knapsack is a radio
        // budget decision; transport/cloud still veto at allocation).
        let snap = self.ran.snapshot();
        let budget: Prbs = snap
            .enbs
            .iter()
            .map(|r| r.total.saturating_sub(r.reserved))
            .sum();
        let items: Vec<(Prbs, Money)> = sized
            .iter()
            .zip(&window)
            .map(|(&p, r)| (p, r.price))
            .collect();
        let chosen = crate::admission::knapsack_select(&items, budget);

        let mut admitted = Vec::new();
        let mut rejected = 0usize;
        for (i, request) in window.into_iter().enumerate() {
            let id: SliceId = self.ids.next();
            let record = SliceRecord::new(id, request.clone(), now);
            if chosen.contains(&i) {
                match self.admit_and_allocate(now, id, record, request, sized[i]) {
                    Ok(id) => admitted.push(id),
                    Err(_) => rejected += 1,
                }
            } else {
                let mut record = record;
                record
                    .transition(SliceState::Rejected)
                    .expect("requested→rejected");
                self.records.insert(id, record);
                self.metrics.counter("orchestrator.rejected_policy").inc();
                rejected += 1;
            }
        }
        (admitted, rejected)
    }

    /// Shared tail of online and batch admission: assign a PLMN, run the
    /// two-phase allocator, and register the slice's traffic/UE state.
    fn admit_and_allocate(
        &mut self,
        now: SimTime,
        id: SliceId,
        mut record: SliceRecord,
        request: SliceRequest,
        reserved: Prbs,
    ) -> Result<SliceId, Rejection> {
        let Some(plmn) = self.allocate_plmn() else {
            record
                .transition(SliceState::Rejected)
                .expect("requested→rejected");
            self.records.insert(id, record);
            self.metrics
                .counter("orchestrator.rejected_resources")
                .inc();
            return Err(Rejection {
                slice: id,
                reason: "PLMN pool exhausted".into(),
            });
        };

        match self.allocator.allocate(
            id,
            plmn,
            &request,
            reserved,
            &mut self.ran,
            &mut self.transport,
            &mut self.cloud,
        ) {
            Ok(placement) => {
                record
                    .transition(SliceState::Deploying)
                    .expect("requested→deploying");
                record.plmn = Some(plmn);
                self.ready_at.insert(id, now + placement.deploy_time);
                self.sla.book_admission(now, &record);
                self.metrics.counter("orchestrator.admitted").inc();
                self.events.log(
                    now,
                    "orchestrator",
                    format!(
                        "{id} admitted as {plmn}: {} on {}, {} hops to {}, deploys in {}",
                        placement.reserved,
                        placement.enb,
                        placement.path_hops,
                        placement.dc,
                        placement.deploy_time
                    ),
                );

                // Per-slice traffic process and UE population.
                let spec = match request.class {
                    SliceClass::Embb => TraceSpec::embb(self.config.overbooking.season_period),
                    SliceClass::Urllc => TraceSpec::urllc(self.config.overbooking.season_period),
                    SliceClass::Mmtc => TraceSpec::mmtc(self.config.overbooking.season_period),
                };
                // Streams are keyed by the slice's id, so each slice's
                // realization depends only on its identity (admission itself
                // is serial, keeping the parent stream deterministic).
                let trace_rng = self.rng.fork(&format!("traffic-{id}"));
                let radio_rng = self.rng.fork(&format!("radio-{id}"));
                let (lo, hi) = self.config.ue_distance_range;
                let mut ues = UePopulation::new(plmn);
                for _ in 0..self.config.ues_per_slice {
                    let ue_id: UeId = self.ue_ids.next();
                    ues.push(Ue::new(ue_id, plmn, self.rng.uniform_range(lo, hi)));
                }
                self.sim_state.insert(
                    id,
                    SliceSimState {
                        traffic: TraceGenerator::new(spec, trace_rng),
                        ues,
                        channels: Vec::new(),
                        rng: radio_rng,
                    },
                );
                self.engine.track(id, request.class);
                self.placements.insert(id, placement);
                self.records.insert(id, record);
                Ok(id)
            }
            Err(e) => {
                self.free_plmns.push(plmn);
                record
                    .transition(SliceState::Rejected)
                    .expect("requested→rejected");
                self.events
                    .log(now, "orchestrator", format!("{id} rejected: {e}"));
                self.records.insert(id, record);
                self.metrics
                    .counter("orchestrator.rejected_resources")
                    .inc();
                Err(Rejection {
                    slice: id,
                    reason: e.to_string(),
                })
            }
        }
    }

    fn allocate_plmn(&mut self) -> Option<PlmnId> {
        if let Some(p) = self.free_plmns.pop() {
            return Some(p);
        }
        if self.next_plmn >= 99 {
            return None;
        }
        let p = PlmnId::test_slice_plmn(self.next_plmn);
        self.next_plmn += 1;
        Some(p)
    }

    /// The admission policy's view of current resources.
    fn resource_view(&self) -> ResourceView {
        let snap = self.ran.snapshot();
        let available = snap
            .enbs
            .iter()
            .map(|r| r.total.saturating_sub(r.reserved))
            .max()
            .unwrap_or(Prbs::ZERO);
        let grid: Prbs = snap.enbs.iter().map(|r| r.total).sum();
        let reserved: Prbs = snap.enbs.iter().map(|r| r.reserved).sum();
        ResourceView {
            available_prbs: available,
            ran_utilization: reserved.ratio(grid),
            planning_prb_rate: self.allocator.config().planning_prb_rate,
            class_demand: if self.config.overbooking_enabled {
                self.engine.class_demand()
            } else {
                crate::admission::ClassDemand::empty()
            },
        }
    }

    // ---- the monitoring epoch ---------------------------------------------

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

        // 0a. Control plane: probe each domain controller's health endpoint
        //     (with retry/backoff). A domain that stays unreachable is
        //     skipped for reconfiguration and monitoring this epoch, and
        //     its slices degrade below.
        let mut unreachable_domains: Vec<String> = Vec::new();
        for domain in DOMAINS {
            let up = self.control.probe(now, domain);
            let was_down = self.down_domains.contains(domain);
            if up && was_down {
                self.down_domains.remove(domain);
                self.events.log(
                    now,
                    "control",
                    format!("{domain} controller reachable again"),
                );
            } else if !up && !was_down {
                self.down_domains.insert(domain);
                self.events.log(
                    now,
                    "control",
                    format!("{domain} controller unreachable (retries exhausted)"),
                );
            }
            if !up {
                unreachable_domains.push(domain.to_owned());
            }
            // Health machine: classification and repair telemetry layered
            // over the raw probe. Transitions only — a faultless probe
            // history books nothing, so plan-less runs stay byte-identical.
            if let Some(health) = self.supervision.get_mut(domain) {
                match health.observe(now, up) {
                    Some(HealthTransition::Suspected) => {
                        self.metrics.counter("supervise.suspects").inc();
                    }
                    Some(HealthTransition::WentDown) => {
                        self.metrics.counter("supervise.downs").inc();
                    }
                    Some(HealthTransition::Recovered { downtime }) => {
                        self.metrics.counter("supervise.repairs").inc();
                        self.metrics
                            .series("supervise.time_to_repair")
                            .record(now, downtime.as_secs_f64());
                    }
                    None => {}
                }
            }
        }

        // 0. Batch-broker decision on the configured cadence.
        let (batch_admitted, batch_rejected) = match self.config.batch_window {
            Some(w) if self.epoch_count.is_multiple_of(w) => self.decide_batch(now),
            _ => (Vec::new(), 0),
        };

        // 0b. Weather over the wireless transport: on a change of sky,
        //     re-degrade every mmWave link and reroute whoever no longer
        //     fits — the testbed's µwave hops exist for exactly this.
        let sky = if self.config.weather_enabled {
            let sky = self.weather.step(&mut self.weather_rng);
            if sky != self.last_sky {
                self.last_sky = sky;
                self.events.log(now, "weather", format!("sky now {sky}"));
                let factor = sky.mmwave_factor();
                let links = WeatherProcess::sensitive_links(self.transport.topology());
                let mut affected = Vec::new();
                for link in links {
                    affected.extend(self.transport.degrade_link(link, factor));
                }
                affected.sort();
                affected.dedup();
                for slice in affected {
                    if self.transport.reroute(slice) == Ok(true) {
                        self.metrics.counter("orchestrator.weather_reroutes").inc();
                        self.events.log(
                            now,
                            "transport",
                            format!("{slice} rerouted off faded mmWave"),
                        );
                    }
                }
            }
            Some(sky)
        } else {
            None
        };

        // Outages that ended before this epoch are over.
        self.epc_down_until.retain(|_, &mut t| t > now);

        // 1. Activate slices whose deployment completed.
        let activated: Vec<SliceId> = self
            .ready_at
            .iter()
            .filter(|&(_, &t)| t <= now)
            .map(|(&id, _)| id)
            .collect();
        for id in &activated {
            self.ready_at.remove(id);
            let record = self
                .records
                .get_mut(id)
                .expect("deploying slice has a record");
            record.activate(now).expect("deploying→active");
            self.sim_state
                .get_mut(id)
                .expect("slice has UEs")
                .ues
                .attach_all();
            self.metrics.counter("orchestrator.activated").inc();
            self.events
                .log(now, "orchestrator", format!("{id} active: UEs attached"));
        }

        // 2. Expire slices that ran their duration (degraded ones too: the
        //    data plane kept serving through the control-plane outage).
        let expired: Vec<SliceId> = self
            .records
            .values()
            .filter(|r| {
                matches!(r.state, SliceState::Active | SliceState::Degraded)
                    && r.expires_at.is_some_and(|t| t <= now)
            })
            .map(|r| r.id)
            .collect();
        for id in &expired {
            self.teardown(*id, SliceState::Expired);
            self.events.log(
                now,
                "orchestrator",
                format!("{id} expired, resources reclaimed"),
            );
        }

        // 2b. Degrade/restore on control-plane reachability. Every slice
        //     spans all three domains, so one unreachable controller
        //     degrades every active slice: the orchestrator can no longer
        //     reconfigure or monitor it end-to-end, though its data plane
        //     keeps forwarding.
        let mut degraded: Vec<SliceId> = Vec::new();
        let mut restored: Vec<SliceId> = Vec::new();
        if self.down_domains.is_empty() {
            // Slices held down by an unrepaired substrate fault are not
            // restored here: the recovery loop below owns them until their
            // element recovers or a repair lands.
            let ids: Vec<SliceId> = self
                .records
                .values()
                .filter(|r| {
                    r.state == SliceState::Degraded && !self.substrate_degraded.contains_key(&r.id)
                })
                .map(|r| r.id)
                .collect();
            for id in ids {
                self.records
                    .get_mut(&id)
                    .expect("listed above")
                    .transition(SliceState::Active)
                    .expect("degraded→active");
                restored.push(id);
            }
            if !restored.is_empty() {
                self.metrics
                    .counter("orchestrator.restored")
                    .add(restored.len() as u64);
                self.events.log(
                    now,
                    "control",
                    format!("{} slice(s) restored to active", restored.len()),
                );
            }
        } else {
            let ids: Vec<SliceId> = self
                .records
                .values()
                .filter(|r| r.state == SliceState::Active)
                .map(|r| r.id)
                .collect();
            for id in ids {
                self.records
                    .get_mut(&id)
                    .expect("listed above")
                    .transition(SliceState::Degraded)
                    .expect("active→degraded");
                degraded.push(id);
            }
            if !degraded.is_empty() {
                self.metrics
                    .counter("orchestrator.degraded")
                    .add(degraded.len() as u64);
                self.events.log(
                    now,
                    "control",
                    format!(
                        "{} slice(s) degraded: {} unreachable",
                        degraded.len(),
                        unreachable_domains.join(", ")
                    ),
                );
            }
        }

        // 2c. Substrate self-healing: apply the fault plan's schedule, then
        //     detect → assess → repair → degrade → account. Skipped entirely
        //     (no state, no telemetry) without an active plan, so plan-less
        //     and quiet-plan runs stay byte-identical.
        let substrate_active = self.substrate_plan.as_ref().is_some_and(|p| !p.is_quiet());
        if substrate_active {
            self.run_substrate_recovery(now, &mut degraded, &mut restored);
        }

        // 3. Generate traffic and sample radio quality for active slices
        //    (degraded slices keep serving: the outage is control, not data).
        //
        //    This is the epoch hot path, run as collect → par-compute →
        //    ordered-apply. Collect: shard the per-slice sim state in
        //    ascending slice-id order (each shard is a disjoint `&mut`).
        //    Par-compute: mobility, traffic, and channel sampling per slice,
        //    each drawing only from that slice's private RNG stream — no
        //    shard touches shared state, so thread count cannot change any
        //    draw. Ordered-apply: fold results back in the same id order.
        let active_ids: Vec<SliceId> = self
            .records
            .values()
            .filter(|r| matches!(r.state, SliceState::Active | SliceState::Degraded))
            .map(|r| r.id)
            .collect();
        let active: BTreeSet<SliceId> = active_ids.iter().copied().collect();
        let mobility = self.config.mobility;
        let cell = self.cell;
        // Per-PRB rates precomputed once per epoch; lookups are
        // bit-identical to computing `cell.prb_rate(cqi)` per UE.
        let rate_table = cell.rate_table();
        let channel = &self.channel;
        let records = &self.records;
        let fairness = self.config.ue_fairness_tracking;
        let shards: Vec<(SliceId, &mut SliceSimState)> = self
            .sim_state
            .iter_mut()
            .filter(|(id, _)| active.contains(id))
            .map(|(&id, state)| (id, state))
            .collect();
        let samples = ovnes_sim::par::par_map(shards, move |(id, state)| {
            // UEs drift before this epoch's channel sampling.
            state.ues.step_all(&mobility, &mut state.rng);
            let demand_fraction = state.traffic.next_demand();
            let committed = records[&id].request.sla.throughput;
            let prb_rate = state
                .ues
                .average_cqi(channel, &mut state.rng)
                .map(|cqi| cell.prb_rate(cqi))
                .unwrap_or(RateMbps::ZERO);
            // Per-UE channel draws for the PF fairness split; sampled here
            // (from this slice's stream, into the slice's persistent
            // buffer) so the serial apply phase below needs no RNG at all.
            if fairness {
                state.ues.sample_channels_into(
                    channel,
                    &rate_table,
                    &mut state.rng,
                    &mut state.channels,
                );
            } else {
                state.channels.clear();
            }
            SliceEpochSample {
                slice: id,
                demand_fraction,
                offered: committed * demand_fraction,
                prb_rate,
            }
        });
        let mut offered_loads = Vec::with_capacity(samples.len());
        let mut fractions: BTreeMap<SliceId, f64> = BTreeMap::new();
        for sample in samples {
            fractions.insert(sample.slice, sample.demand_fraction);
            offered_loads.push(OfferedLoad {
                slice: sample.slice,
                offered: sample.offered,
                prb_rate: sample.prb_rate,
            });
        }

        // 4. Schedule the RAN (into the reused outcome buffer).
        let outcomes = &mut self.epoch_scratch.outcomes;
        self.ran.run_epoch_into(now, &offered_loads, outcomes);
        let outcome_by_slice: BTreeMap<SliceId, SliceScheduleOutcome> =
            outcomes.iter().map(|o| (o.slice, o.clone())).collect();

        // 5. Measure, judge, book, and feed the forecaster.
        let mut verdicts = Vec::with_capacity(active_ids.len());
        for load in &offered_loads {
            let id = load.slice;
            // The radio outcome is missing when the serving cell is down:
            // the scheduler dropped the load, so nothing crossed the air.
            let (radio_allocated, radio_delivered, radio_unserved) = match outcome_by_slice.get(&id)
            {
                Some(o) => (o.allocated, o.delivered, o.unserved),
                None => (Prbs::ZERO, RateMbps::ZERO, load.offered),
            };
            // A slice whose vEPC is redeploying after a host failure serves
            // nothing, whatever the radio delivered.
            let epc_down = self.epc_down_until.get(&id).is_some_and(|&t| t > now);
            // Same for a slice an unrepaired substrate fault holds down.
            let substrate_out = self.substrate_degraded.contains_key(&id);
            // A faded/oversubscribed transport path caps what the radio
            // delivered: the slice's share of its bottleneck link.
            let delivered = if epc_down || substrate_out {
                RateMbps::ZERO
            } else {
                match self.transport.capacity_share(id) {
                    Some(share) if share < 1.0 => {
                        let res_bw = self
                            .transport
                            .reservation(id)
                            .expect("share implies a reservation")
                            .bandwidth;
                        radio_delivered.min(res_bw * share)
                    }
                    _ => radio_delivered,
                }
            };
            let transport_unserved = radio_unserved + radio_delivered.saturating_sub(delivered);
            let latency = self.end_to_end_latency(id, load, transport_unserved);
            let record = self
                .records
                .get_mut(&id)
                .expect("active slice has a record");
            let mut verdict = self.sla.assess(record, load.offered, delivered, latency);
            if substrate_out {
                // A degraded epoch is a penalty epoch even when the tenant
                // offered no traffic: the slice itself is out of service,
                // not merely underserved.
                verdict.met = false;
                verdict.cause = Some("substrate outage".into());
            }
            self.sla.book_epoch(now, record, &verdict);
            let timeline = self.timelines.entry(id).or_insert_with(|| SliceTimeline {
                offered: TimeSeries::with_capacity_limit(4096),
                delivered: TimeSeries::with_capacity_limit(4096),
                latency: TimeSeries::with_capacity_limit(4096),
            });
            timeline.offered.record(now, load.offered.value());
            timeline.delivered.record(now, delivered.value());
            timeline.latency.record(now, latency.value());
            verdicts.push(verdict);
            self.engine.observe(id, fractions[&id]);

            // Optional: intra-slice PF split of the allocated PRBs, for the
            // per-UE fairness the demo's verticals care about (every device
            // in a fleet must work, not just the aggregate). The channels
            // were sampled in the parallel phase from this slice's stream;
            // PF state mutation stays here in the serial apply.
            if self.config.ue_fairness_tracking {
                let channels: &[UeChannel] = self
                    .sim_state
                    .get(&id)
                    .map(|s| s.channels.as_slice())
                    .unwrap_or(&[]);
                let pf = self.pf.entry(id).or_default();
                let scratch = &mut self.epoch_scratch;
                pf.schedule_into(
                    radio_allocated,
                    channels,
                    0.1,
                    &mut scratch.pf,
                    &mut scratch.shares,
                );
                scratch.rates.clear();
                scratch
                    .rates
                    .extend(scratch.shares.iter().map(|sh| sh.rate.value()));
                let jain = jain_index(&scratch.rates);
                let name = format!("orchestrator.{id}.ue_fairness");
                match self.metrics.series_mut(&name) {
                    Some(series) => series.record(now, jain),
                    None => self.metrics.series(&name).record(now, jain),
                }
            }
        }

        // 6. Periodic overbooked reconfiguration. Resizing reservations
        //    means commanding the RAN and transport controllers, so an
        //    unreachable one postpones the whole reconfiguration to a
        //    healthier epoch (graceful degradation, not a panic).
        let mut reconfigured = 0;
        let reconfig_reachable =
            !self.down_domains.contains("ran") && !self.down_domains.contains("transport");
        if self.config.overbooking_enabled
            && self.epoch_count.is_multiple_of(self.config.reconfig_every)
            && reconfig_reachable
        {
            let slices: Vec<(SliceId, SliceRequest)> = active_ids
                .iter()
                .map(|&id| (id, self.records[&id].request.clone()))
                .collect();
            let applied = self.engine.reconfigure(
                &slices,
                self.allocator.config().planning_prb_rate,
                &mut self.ran,
                &mut self.transport,
            );
            reconfigured = applied.len();
            // Third domain: follow the radio resize with a Heat stack
            // update scaling the vEPC user plane to the new fraction — but
            // only if the cloud controller is answering.
            if !self.down_domains.contains("cloud") {
                for (slice, _old, new_reserved) in applied {
                    if let Some(p) = self.placements.get(&slice) {
                        let fraction = new_reserved.ratio(p.nominal).clamp(0.0, 1.0);
                        let _ = self.cloud.scale_for_slice(slice, fraction);
                    }
                }
            }
            self.metrics
                .counter("orchestrator.reconfigurations")
                .add(reconfigured as u64);
        }

        // 7. Telemetry: domain snapshots cross the JSON API boundary, as the
        //    testbed's REST monitoring did.
        self.transport.record_epoch(now);
        self.cloud.record_epoch(now);
        self.last_monitoring = self.collect_monitoring(now);

        let gain = OverbookingEngine::gain_report(&self.ran);
        self.metrics
            .series("orchestrator.overbooking_factor")
            .record(now, gain.overbooking_factor);
        self.metrics
            .series("orchestrator.savings_fraction")
            .record(now, gain.savings_fraction);
        self.metrics
            .series("orchestrator.net_revenue")
            .record(now, self.sla.net().as_f64());

        // Control-plane call accounting: per-epoch into the report,
        // cumulatively into the metrics the dashboard panels read.
        let cstats = self.control.take_epoch_stats();
        self.metrics.counter("control.calls").add(cstats.calls);
        self.metrics.counter("control.retries").add(cstats.retries);
        self.metrics
            .counter("control.failures")
            .add(cstats.failures);
        self.metrics
            .gauge("control.unreachable_domains")
            .set(unreachable_domains.len() as f64);

        EpochReport {
            now,
            active: active_ids.len(),
            verdicts,
            gain,
            net_revenue: self.sla.net(),
            reconfigured,
            activated,
            expired,
            batch_admitted,
            batch_rejected,
            sky,
            control_retries: cstats.retries,
            control_failures: cstats.failures,
            degraded,
            restored,
            unreachable_domains,
            substrate_down: self.substrate_down.iter().copied().collect(),
        }
    }

    /// Substrate self-healing, phase 2c of the epoch.
    ///
    /// Detect: diff the plan's schedule at `now` against the applied outage
    /// set and forward the edges to the domain controllers (link/switch →
    /// transport, cell → RAN, host → cloud), collecting the slices each
    /// failure touches. Assess + repair: for every touched or still-degraded
    /// slice, fix each broken leg in priority order — transport reroute via
    /// the virtual-release machinery, cell re-attach, vEPC re-placement.
    /// Degrade what stays broken and restore it (with a time-to-repair
    /// sample) once repairs land or the element recovers.
    ///
    /// Every set here is a `BTreeSet`/`BTreeMap` iterated in ascending
    /// element/slice order and nothing draws from an RNG, so the pipeline
    /// is a pure function of the plan and the epoch clock — bitwise
    /// identical at any worker count.
    fn run_substrate_recovery(
        &mut self,
        now: SimTime,
        degraded: &mut Vec<SliceId>,
        restored: &mut Vec<SliceId>,
    ) {
        let plan = self
            .substrate_plan
            .as_ref()
            .expect("phase is gated on a plan");
        let desired: BTreeSet<SubstrateElement> = plan.down_elements_at(now).into_iter().collect();

        // Detect: edge-trigger failures and recoveries.
        let newly_down: Vec<SubstrateElement> =
            desired.difference(&self.substrate_down).copied().collect();
        let newly_up: Vec<SubstrateElement> =
            self.substrate_down.difference(&desired).copied().collect();
        let mut touched: BTreeSet<SliceId> = self.substrate_degraded.keys().copied().collect();
        for element in newly_down {
            let slices = match element {
                SubstrateElement::Link(l) => self.transport.fail_link(l),
                SubstrateElement::Switch(s) => self.transport.fail_switch(s),
                SubstrateElement::Cell(e) => self.ran.fail_cell(e),
                SubstrateElement::Host(dc, h) => self.cloud.fail_host(dc, h),
            };
            self.metrics.counter("substrate.element_failures").inc();
            self.events.log(
                now,
                "substrate",
                format!("{element} down; {} slice(s) impacted", slices.len()),
            );
            touched.extend(slices);
        }
        for element in newly_up {
            match element {
                SubstrateElement::Link(l) => {
                    self.transport.revive_link(l);
                }
                SubstrateElement::Switch(s) => self.transport.revive_switch(s),
                SubstrateElement::Cell(e) => {
                    self.ran.revive_cell(e);
                }
                SubstrateElement::Host(dc, h) => self.cloud.revive_host(dc, h),
            }
            self.metrics.counter("substrate.element_recoveries").inc();
            self.events
                .log(now, "substrate", format!("{element} back in service"));
        }
        self.substrate_down = desired;

        // Assess + repair, ascending slice id.
        for id in touched {
            let request = match self.records.get(&id) {
                Some(r) if !r.state.is_terminal() => r.request.clone(),
                _ => {
                    // The slice ended (expired/terminated) while degraded;
                    // its resources are already reclaimed.
                    self.substrate_degraded.remove(&id);
                    continue;
                }
            };
            let mut impacted = false;
            let mut healthy = true;

            // Transport: a reservation crossing a dead link. Mass reroute
            // through the virtual-release machinery; dead links are
            // rejected during cache revalidation and fresh searches alike.
            let path_dead = self
                .transport
                .reservation(id)
                .is_some_and(|r| r.path.links.iter().any(|&l| !self.transport.link_is_up(l)));
            if path_dead {
                impacted = true;
                if self.transport.reroute(id) == Ok(true) {
                    self.metrics.counter("substrate.reroutes").inc();
                    self.events.log(
                        now,
                        "substrate",
                        format!("{id} rerouted around a dead link"),
                    );
                } else {
                    healthy = false;
                }
            }

            // RAN: the serving cell is down. Re-attach the slice's PLMN to
            // the best surviving cell that fits its reservation.
            let cell_dead = self
                .ran
                .placement(id)
                .is_some_and(|enb| !self.ran.cell_is_up(enb));
            if cell_dead {
                impacted = true;
                match self.ran.reattach(id) {
                    Ok(target) => {
                        if let Some(p) = self.placements.get_mut(&id) {
                            p.enb = target;
                        }
                        self.metrics.counter("substrate.reattaches").inc();
                        self.events.log(
                            now,
                            "substrate",
                            format!("{id} re-attached to surviving cell {target}"),
                        );
                    }
                    Err(_) => healthy = false,
                }
            }

            // Cloud: the vEPC lost a VM to a host crash — or an earlier
            // re-placement deleted the corpse and then found no capacity,
            // leaving the slice with no stack at all. Redeploy; the fresh
            // stack's deploy time is a real service interruption booked
            // through `epc_down_until`.
            let stack_bad = match self.cloud.stack_for_slice(id) {
                Some(stack) => stack.state == StackState::Degraded,
                None => true,
            };
            if stack_bad {
                impacted = true;
                let template = epc_template(id, &request.compute_demand(), &EpcSizing::default());
                let fresh: Option<DeployedStack> = if self.cloud.stack_for_slice(id).is_some() {
                    self.cloud.redeploy_for_slice(id, &template).ok()
                } else {
                    let kind = self
                        .placements
                        .get(&id)
                        .and_then(|p| self.cloud.dc(p.dc))
                        .map(|dc| dc.kind());
                    let target = kind.and_then(|k| self.cloud.find_dc(k, &template));
                    target.and_then(|dc| self.cloud.deploy(id, dc, &template).ok())
                };
                match fresh {
                    Some(stack) => {
                        self.epc_down_until.insert(id, now + stack.deploy_time);
                        self.metrics.counter("substrate.replacements").inc();
                        self.events.log(
                            now,
                            "substrate",
                            format!(
                                "{id} vEPC re-placed on {}; boots in {}",
                                stack.dc, stack.deploy_time
                            ),
                        );
                    }
                    None => healthy = false,
                }
            }

            if healthy {
                if let Some(since) = self.substrate_degraded.remove(&id) {
                    let ttr = now.saturating_duration_since(since).as_secs_f64();
                    self.metrics
                        .series("substrate.time_to_repair")
                        .record(now, ttr);
                    self.metrics.counter("substrate.repaired").inc();
                    if self.records[&id].state == SliceState::Degraded
                        && self.down_domains.is_empty()
                    {
                        self.records
                            .get_mut(&id)
                            .expect("checked above")
                            .transition(SliceState::Active)
                            .expect("degraded→active");
                        restored.push(id);
                        self.metrics.counter("substrate.restored").inc();
                        self.events.log(
                            now,
                            "substrate",
                            format!("{id} restored: substrate fault cleared"),
                        );
                    }
                } else if impacted {
                    // Repaired within the epoch the fault was detected.
                    self.metrics
                        .series("substrate.time_to_repair")
                        .record(now, 0.0);
                    self.metrics.counter("substrate.repaired").inc();
                }
            } else {
                if !self.substrate_degraded.contains_key(&id) {
                    self.substrate_degraded.insert(id, now);
                    self.metrics.counter("substrate.degraded").inc();
                    self.events.log(
                        now,
                        "substrate",
                        format!("{id} degraded: substrate fault not repairable"),
                    );
                }
                if self.records[&id].state == SliceState::Active {
                    self.records
                        .get_mut(&id)
                        .expect("checked above")
                        .transition(SliceState::Degraded)
                        .expect("active→degraded");
                    degraded.push(id);
                }
            }
        }
        self.metrics
            .gauge("substrate.elements_down")
            .set(self.substrate_down.len() as f64);
    }

    /// End-to-end latency of a slice this epoch: air interface (inflated
    /// when the slice's demand outran its allocation) + transport path
    /// (load-dependent) + EPC processing.
    fn end_to_end_latency(&self, id: SliceId, load: &OfferedLoad, unserved: RateMbps) -> Latency {
        let congested = !load.offered.is_zero() && unserved.value() > load.offered.value() * 0.05;
        let ran_latency = if congested {
            Latency::new(6.0) // HARQ + scheduling queue under saturation
        } else {
            Latency::new(1.0)
        };
        let transport = self.transport.path_delay(id).unwrap_or(Latency::ZERO);
        let epc = self.allocator.config().epc_latency_budget;
        ran_latency + transport + epc
    }

    /// Detach one UE from a slice: it leaves the population (no further
    /// mobility/channel draws) and its proportional-fair average is evicted
    /// immediately, so fairness state no longer outlives the device.
    /// Returns `false` when the slice has no sim state or the UE is not a
    /// member.
    pub fn detach_ue(&mut self, slice: SliceId, ue: UeId) -> bool {
        let Some(state) = self.sim_state.get_mut(&slice) else {
            return false;
        };
        if state.ues.remove(ue).is_none() {
            return false;
        }
        if let Some(pf) = self.pf.get_mut(&slice) {
            pf.evict(ue);
        }
        true
    }

    /// Number of UEs currently in a slice's population (0 when unknown).
    pub fn ue_count(&self, slice: SliceId) -> usize {
        self.sim_state.get(&slice).map(|s| s.ues.len()).unwrap_or(0)
    }

    /// Number of UEs the proportional-fair tracker holds state for (0 when
    /// the slice is unknown or fairness tracking never ran for it).
    pub fn pf_tracked(&self, slice: SliceId) -> usize {
        self.pf.get(&slice).map(|pf| pf.tracked()).unwrap_or(0)
    }

    fn teardown(&mut self, id: SliceId, end_state: SliceState) {
        self.allocator
            .release(id, &mut self.ran, &mut self.transport, &mut self.cloud);
        if let Some(record) = self.records.get_mut(&id) {
            record.transition(end_state).expect("active slice can end");
            if let Some(plmn) = record.plmn {
                self.free_plmns.push(plmn);
            }
        }
        self.sim_state.remove(&id);
        self.epc_down_until.remove(&id);
        self.substrate_degraded.remove(&id);
        self.pf.remove(&id);
        self.engine.forget(id);
        self.placements.remove(&id);
        let ended = match end_state {
            SliceState::Terminated => "orchestrator.terminated",
            _ => "orchestrator.expired",
        };
        self.metrics.counter(ended).inc();
    }

    /// Terminate an active or deploying slice early (operator action),
    /// refunding the unused fraction of its price.
    pub fn terminate(&mut self, now: SimTime, id: SliceId) -> bool {
        let Some(record) = self.records.get(&id) else {
            return false;
        };
        if record.state.is_terminal() || record.state == SliceState::Requested {
            return false;
        }
        let unused = match (record.active_at, record.expires_at) {
            (Some(start), Some(end)) if end > start => {
                let total = (end - start).as_secs_f64();
                let used = now.saturating_duration_since(start).as_secs_f64();
                (1.0 - used / total).clamp(0.0, 1.0)
            }
            _ => 1.0, // never activated: full refund
        };
        let record = self.records.get(&id).expect("checked").clone();
        self.sla.book_early_termination(now, &record, unused);
        self.ready_at.remove(&id);
        self.teardown(id, SliceState::Terminated);
        true
    }

    fn collect_monitoring(&mut self, now: SimTime) -> Vec<MonitoringReport> {
        let mut reports = Vec::with_capacity(3);
        for (domain, scalars) in [
            ("ran", self.ran.metrics().scalar_snapshot()),
            ("transport", self.transport.metrics().scalar_snapshot()),
            ("cloud", self.cloud.metrics().scalar_snapshot()),
        ] {
            // A domain the health probe lost this epoch loses its report
            // too — the dashboard shows a gap, exactly like the testbed's.
            if self.down_domains.contains(domain) {
                continue;
            }
            let report = MonitoringReport {
                domain: domain.to_owned(),
                at: now,
                scalars,
            };
            // Round-trip through the wire format with retries — the REST
            // boundary. Corrupted echoes fail the decode check and retry.
            let bytes = encode(&report).expect("reports are serializable");
            let endpoint = format!("{domain}/monitoring");
            let mut echoed = None;
            let accepted = self.control.call_checked(now, &endpoint, bytes, |r| {
                echoed = decode::<MonitoringReport>(&r.body).ok();
                echoed.is_some()
            });
            // A rejection comes back without passing the acceptor.
            if accepted.is_some_and(|r| r.status == Status::Ok) {
                reports.extend(echoed);
            }
        }
        reports
    }

    // ---- accessors ---------------------------------------------------------

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

    // ---- fault injection ----------------------------------------------------

    /// Fault injection: degrade a transport link to `factor` of nominal
    /// capacity *without* triggering the orchestrator's reroute reaction.
    /// Returns the slices left oversubscribed. Experiments use this to
    /// measure the counterfactual where no µwave fallback exists.
    pub fn inject_link_degradation(
        &mut self,
        link: ovnes_model::LinkId,
        factor: f64,
    ) -> Vec<SliceId> {
        self.transport.degrade_link(link, factor)
    }

    /// Fault injection: restore a previously degraded link.
    pub fn restore_link(&mut self, link: ovnes_model::LinkId) {
        self.transport.restore_link(link);
    }

    /// Ask the orchestrator to reroute one slice's transport path now
    /// (operator action / fault recovery). Returns `true` if it moved.
    pub fn reroute_slice(&mut self, slice: SliceId) -> bool {
        self.transport.reroute(slice) == Ok(true)
    }

    /// Fault injection: a compute host dies at `now`. Every slice whose
    /// vEPC lost a VM is redeployed (same sizing, same or same-kind DC) and
    /// suffers a total outage until the fresh stack completes; slices whose
    /// vEPC cannot be re-placed anywhere are terminated with a pro-rated
    /// refund. Returns `(redeployed, lost)`.
    pub fn inject_host_failure(
        &mut self,
        now: SimTime,
        dc: ovnes_model::DcId,
        host: ovnes_model::HostId,
    ) -> (Vec<SliceId>, Vec<SliceId>) {
        let affected = self.cloud.fail_host(dc, host);
        let mut redeployed = Vec::new();
        let mut lost = Vec::new();
        for slice in affected {
            let Some(record) = self.records.get(&slice) else {
                continue;
            };
            let template = epc_template(
                slice,
                &record.request.compute_demand(),
                &EpcSizing::default(),
            );
            match self.cloud.redeploy_for_slice(slice, &template) {
                Ok(stack) => {
                    self.epc_down_until.insert(slice, now + stack.deploy_time);
                    self.events.log(
                        now,
                        "cloud",
                        format!(
                            "{slice} vEPC lost to host failure; redeployed in {} ({})",
                            stack.deploy_time, stack.dc
                        ),
                    );
                    redeployed.push(slice);
                }
                Err(e) => {
                    self.events.log(
                        now,
                        "cloud",
                        format!("{slice} vEPC unrecoverable after host failure: {e}"),
                    );
                    self.terminate(now, slice);
                    lost.push(slice);
                }
            }
        }
        (redeployed, lost)
    }

    /// Fault injection: return a failed compute host to service.
    pub fn revive_host(&mut self, dc: ovnes_model::DcId, host: ovnes_model::HostId) {
        self.cloud.revive_host(dc, host);
    }

    // ---- checkpoint / restore ----------------------------------------------

    /// The orchestrator's complete serializable state: every domain
    /// controller, the overbooking engine (forecasters mid-warm-up), the
    /// SLA ledger, per-slice traffic/UE/RNG streams, the control plane with
    /// any chaos plan mid-schedule, and all accounting.
    ///
    /// Deliberately excluded (see `DESIGN.md` decision 10): the epoch
    /// scratch buffers and per-slice channel sample buffers (pure
    /// workspace, rewritten before every read), the admission policy object
    /// (a pure function of `config.policy`), and memoized route-cache
    /// entries (provably answer-preserving to drop).
    pub fn export_state(&self) -> OrchestratorState {
        OrchestratorState {
            config: self.config.clone(),
            cell: self.cell,
            ran: self.ran.export_state(),
            transport: self.transport.export_state(),
            cloud: self.cloud.export_state(),
            engine: self.engine.export_state(),
            sla: self.sla.export_state(),
            records: self.records.clone(),
            placements: self.placements.clone(),
            pending: self.pending.clone(),
            ready_at: self.ready_at.clone(),
            epc_down_until: self.epc_down_until.clone(),
            timelines: self.timelines.clone(),
            pf: self.pf.clone(),
            sim_state: self
                .sim_state
                .iter()
                .map(|(&id, s)| {
                    (
                        id,
                        SliceSimSnapshot {
                            traffic: s.traffic.clone(),
                            ues: s.ues.clone(),
                            rng: s.rng.clone(),
                        },
                    )
                })
                .collect(),
            channel: self.channel.clone(),
            rng: self.rng.clone(),
            ids: self.ids.clone(),
            ue_ids: self.ue_ids.clone(),
            free_plmns: self.free_plmns.clone(),
            next_plmn: self.next_plmn,
            metrics: self.metrics.clone(),
            epoch_count: self.epoch_count,
            last_epoch_at: self.last_epoch_at,
            last_monitoring: self.last_monitoring.clone(),
            weather: self.weather.clone(),
            weather_rng: self.weather_rng.clone(),
            last_sky: self.last_sky,
            events: self.events.clone(),
            control: self.control.export_state(),
            down_domains: self.down_domains.iter().map(|d| (*d).to_owned()).collect(),
            substrate_plan: self.substrate_plan.clone(),
            substrate_down: self.substrate_down.clone(),
            substrate_degraded: self.substrate_degraded.clone(),
            supervision: self.supervision.clone(),
        }
    }

    /// An orchestrator rebuilt from [`Orchestrator::export_state`]. From
    /// the captured instant onward it behaves bit-for-bit like the original
    /// would have: every RNG stream resumes at its exact position, every
    /// forecaster at its exact warm-up, every chaos schedule mid-outage.
    ///
    /// # Panics
    /// Panics if a recorded down-domain names no known domain — that only
    /// happens on a corrupt snapshot.
    pub fn from_state(state: &OrchestratorState) -> Orchestrator {
        Orchestrator {
            config: state.config.clone(),
            ran: RanController::from_state(state.ran.clone()),
            transport: TransportController::from_state(&state.transport),
            cloud: CloudController::from_state(&state.cloud),
            cell: state.cell,
            allocator: MultiDomainAllocator::new(state.config.allocator.clone()),
            policy: state.config.policy.build(),
            engine: OverbookingEngine::from_state(&state.engine),
            sla: SlaMonitor::from_state(&state.sla),
            records: state.records.clone(),
            placements: state.placements.clone(),
            pending: state.pending.clone(),
            ready_at: state.ready_at.clone(),
            epc_down_until: state.epc_down_until.clone(),
            timelines: state.timelines.clone(),
            pf: state.pf.clone(),
            sim_state: state
                .sim_state
                .iter()
                .map(|(&id, s)| {
                    (
                        id,
                        SliceSimState {
                            traffic: s.traffic.clone(),
                            ues: s.ues.clone(),
                            channels: Vec::new(),
                            rng: s.rng.clone(),
                        },
                    )
                })
                .collect(),
            epoch_scratch: EpochScratch::default(),
            channel: state.channel.clone(),
            rng: state.rng.clone(),
            ids: state.ids.clone(),
            ue_ids: state.ue_ids.clone(),
            free_plmns: state.free_plmns.clone(),
            next_plmn: state.next_plmn,
            metrics: state.metrics.clone(),
            epoch_count: state.epoch_count,
            last_epoch_at: state.last_epoch_at,
            last_monitoring: state.last_monitoring.clone(),
            weather: state.weather.clone(),
            weather_rng: state.weather_rng.clone(),
            last_sky: state.last_sky,
            events: state.events.clone(),
            control: ControlPlane::from_state(&state.control),
            down_domains: state
                .down_domains
                .iter()
                .map(|d| {
                    DOMAINS
                        .iter()
                        .copied()
                        .find(|k| *k == d.as_str())
                        .unwrap_or_else(|| panic!("unknown domain {d:?} in snapshot"))
                })
                .collect(),
            substrate_plan: state.substrate_plan.clone(),
            substrate_down: state.substrate_down.clone(),
            substrate_degraded: state.substrate_degraded.clone(),
            supervision: state.supervision.clone(),
        }
    }
}

/// Serializable state of one slice's simulation loop: the traffic process,
/// the UE population, and the slice's private radio RNG stream at its exact
/// position. The per-epoch channel sample buffer is scratch and excluded.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SliceSimSnapshot {
    /// The slice's traffic trace process.
    pub traffic: TraceGenerator,
    /// The slice's UE population (positions, attachment, CQI state).
    pub ues: UePopulation,
    /// The slice's private radio RNG stream.
    pub rng: SimRng,
}

/// Serializable state of an [`Orchestrator`] — see
/// [`Orchestrator::export_state`] for the capture/exclusion contract.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct OrchestratorState {
    /// Orchestrator tunables (also rebuilds the admission policy and the
    /// allocator, both pure functions of the config).
    pub config: OrchestratorConfig,
    /// Shared cell profile.
    pub cell: CellConfig,
    /// RAN domain state.
    pub ran: ovnes_ran::RanControllerState,
    /// Transport domain state.
    pub transport: ovnes_transport::TransportControllerState,
    /// Cloud domain state.
    pub cloud: ovnes_cloud::CloudControllerState,
    /// Overbooking engine (forecasters, residuals, class stats).
    pub engine: crate::overbooking::OverbookingEngineState,
    /// SLA monitor (revenue ledger, tolerance).
    pub sla: crate::sla::SlaMonitorState,
    /// Every slice record, in every lifecycle state.
    pub records: BTreeMap<SliceId, SliceRecord>,
    /// Multi-domain placements of live slices.
    pub placements: BTreeMap<SliceId, Placement>,
    /// Requests awaiting the next batch-broker decision.
    pub pending: Vec<SliceRequest>,
    /// Deployment completion times of deploying slices.
    pub ready_at: BTreeMap<SliceId, SimTime>,
    /// vEPC redeployment outages in progress.
    pub epc_down_until: BTreeMap<SliceId, SimTime>,
    /// Per-slice measurement history.
    pub timelines: BTreeMap<SliceId, SliceTimeline>,
    /// Proportional-fair state per slice.
    pub pf: BTreeMap<SliceId, PfState>,
    /// Per-slice traffic/UE/RNG simulation state.
    pub sim_state: BTreeMap<SliceId, SliceSimSnapshot>,
    /// Radio channel model.
    pub channel: ChannelModel,
    /// The orchestrator's root RNG stream position.
    pub rng: SimRng,
    /// Slice id allocator position.
    pub ids: IdAllocator,
    /// UE id allocator position.
    pub ue_ids: IdAllocator,
    /// Recycled PLMNs, in pop order.
    pub free_plmns: Vec<PlmnId>,
    /// Next fresh PLMN index.
    pub next_plmn: u64,
    /// Orchestrator-level telemetry.
    pub metrics: MetricRegistry,
    /// Monitoring epochs run so far.
    pub epoch_count: u64,
    /// When the last epoch closed.
    pub last_epoch_at: Option<SimTime>,
    /// Most recent per-domain monitoring reports.
    pub last_monitoring: Vec<MonitoringReport>,
    /// Markov weather process state.
    pub weather: WeatherProcess,
    /// Weather RNG stream position.
    pub weather_rng: SimRng,
    /// Sky condition at capture.
    pub last_sky: Sky,
    /// Dashboard event feed (ring buffer, capacity included).
    pub events: EventLog,
    /// Control plane state (bus accounting, fault injector, jitter stream).
    pub control: crate::control::ControlPlaneState,
    /// Domains whose last health probe failed, by name.
    pub down_domains: Vec<String>,
    /// Substrate fault schedule, if installed.
    pub substrate_plan: Option<SubstrateFaultPlan>,
    /// Substrate elements currently applied as failed.
    pub substrate_down: BTreeSet<SubstrateElement>,
    /// Slices degraded behind unrepaired substrate faults, with detection
    /// times.
    pub substrate_degraded: BTreeMap<SliceId, SimTime>,
    /// Per-domain heartbeat health state machines.
    pub supervision: BTreeMap<String, DomainHealth>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovnes_cloud::host::HostCapacity;
    use ovnes_cloud::{DataCenter, DcKind, PlacementStrategy};
    use ovnes_model::{DcId, DiskGb, EnbId, MemMb, TenantId, VCpus};
    use ovnes_ran::Enb;
    use ovnes_transport::Topology;

    fn cap(v: u32, m: u64, d: u64) -> HostCapacity {
        HostCapacity {
            vcpus: VCpus::new(v),
            mem: MemMb::new(m),
            disk: DiskGb::new(d),
        }
    }

    fn orchestrator(config: OrchestratorConfig) -> Orchestrator {
        let cell = CellConfig::default_20mhz();
        let ran = RanController::new(vec![
            Enb::new(EnbId::new(0), cell),
            Enb::new(EnbId::new(1), cell),
        ]);
        let transport = TransportController::new(Topology::testbed(), 1024);
        let cloud = CloudController::new(vec![
            DataCenter::homogeneous(
                DcId::new(0),
                DcKind::Edge,
                2,
                cap(16, 32768, 200),
                PlacementStrategy::WorstFit,
            ),
            DataCenter::homogeneous(
                DcId::new(1),
                DcKind::Core,
                8,
                cap(32, 65536, 500),
                PlacementStrategy::WorstFit,
            ),
        ]);
        Orchestrator::new(config, ran, transport, cloud, cell, SimRng::seed_from(7))
    }

    fn embb(tp: f64) -> SliceRequest {
        SliceRequest::builder(TenantId::new(1), SliceClass::Embb)
            .throughput(RateMbps::new(tp))
            .duration(SimDuration::from_mins(30))
            .price(Money::from_units(100))
            .penalty(Money::from_units(5))
            .build()
            .unwrap()
    }

    fn minute(n: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_mins(n)
    }

    #[test]
    fn submit_admits_and_deploys() {
        let mut o = orchestrator(OrchestratorConfig::default());
        let id = o.submit(SimTime::ZERO, embb(25.0)).unwrap();
        assert_eq!(o.record(id).unwrap().state, SliceState::Deploying);
        assert!(o.placement(id).is_some());
        assert_eq!(o.count_in_state(SliceState::Deploying), 1);
        // Income booked at admission.
        assert_eq!(o.ledger().gross_income(), Money::from_units(100));
    }

    #[test]
    fn slice_activates_after_deploy_time() {
        let mut o = orchestrator(OrchestratorConfig::default());
        let id = o.submit(SimTime::ZERO, embb(25.0)).unwrap();
        let deploy = o.placement(id).unwrap().deploy_time;
        assert!(deploy > SimDuration::from_secs(5), "a few seconds");
        // First epoch at 1 min: deployment (≈14 s) completed.
        let report = o.run_epoch(minute(1));
        assert_eq!(report.activated, vec![id]);
        assert_eq!(o.record(id).unwrap().state, SliceState::Active);
        assert_eq!(report.active, 1);
        assert_eq!(report.verdicts.len(), 1);
    }

    #[test]
    fn slice_expires_after_duration() {
        let mut o = orchestrator(OrchestratorConfig::default());
        let id = o.submit(SimTime::ZERO, embb(25.0)).unwrap();
        for e in 1..=31 {
            o.run_epoch(minute(e));
        }
        // Active at minute 1, 30-minute duration → expired by minute 31.
        assert_eq!(o.record(id).unwrap().state, SliceState::Expired);
        assert!(o.placement(id).is_none());
        assert_eq!(o.count_in_state(SliceState::Active), 0);
        // All domain resources freed.
        assert!(o.ran().snapshot().enbs.iter().all(|r| r.reserved.is_zero()));
        assert_eq!(o.transport().snapshot().paths, 0);
        assert_eq!(o.cloud().snapshot().stacks, 0);
    }

    #[test]
    fn epochs_report_sla_verdicts_and_gain() {
        // Short season so the Holt–Winters warm-up (2 seasons + residuals)
        // fits inside the test horizon.
        let config = OrchestratorConfig {
            overbooking: OverbookingConfig {
                season_period: 6,
                min_residuals: 4,
                ..OverbookingConfig::default()
            },
            reconfig_every: 2,
            ..OrchestratorConfig::default()
        };
        let mut o = orchestrator(config);
        o.submit(SimTime::ZERO, embb(25.0)).unwrap();
        o.submit(SimTime::ZERO, embb(30.0)).unwrap();
        let mut saw_gain = false;
        for e in 1..=30 {
            let report = o.run_epoch(minute(e));
            if report.gain.savings_fraction > 0.0 {
                saw_gain = true;
            }
            assert_eq!(report.verdicts.len(), report.active);
        }
        assert!(
            saw_gain,
            "overbooking reconfiguration should shrink reservations"
        );
    }

    #[test]
    fn overbooking_disabled_keeps_peak_reservations() {
        let config = OrchestratorConfig {
            overbooking_enabled: false,
            policy: PolicyKind::Fcfs,
            ..OrchestratorConfig::default()
        };
        let mut o = orchestrator(config);
        let id = o.submit(SimTime::ZERO, embb(25.0)).unwrap();
        for e in 1..=20 {
            let report = o.run_epoch(minute(e));
            assert_eq!(report.reconfigured, 0);
            assert_eq!(report.gain.savings_fraction, 0.0);
        }
        let p = o.placement(id).unwrap();
        assert_eq!(p.reserved, p.nominal);
    }

    #[test]
    fn rejection_when_ran_exhausted() {
        let config = OrchestratorConfig {
            policy: PolicyKind::Fcfs,
            overbooking_enabled: false,
            ..OrchestratorConfig::default()
        };
        let mut o = orchestrator(config);
        // Each 45 Mbps slice needs 90 PRBs: one per cell, third rejected.
        assert!(o.submit(SimTime::ZERO, embb(45.0)).is_ok());
        assert!(o.submit(SimTime::ZERO, embb(45.0)).is_ok());
        let rej = o.submit(SimTime::ZERO, embb(45.0)).unwrap_err();
        assert!(rej.reason.contains("needs"), "{}", rej.reason);
        assert_eq!(o.count_in_state(SliceState::Rejected), 1);
        assert_eq!(
            o.metrics().counter_value("orchestrator.rejected_policy"),
            Some(1)
        );
    }

    #[test]
    fn overbooking_admits_more_than_peak_baseline() {
        // The demo's headline: with overbooking, the same infrastructure
        // hosts more slices. Warm the system, then compare admission counts.
        let mut with_ob = orchestrator(OrchestratorConfig::default());
        let mut without = orchestrator(OrchestratorConfig {
            overbooking_enabled: false,
            policy: PolicyKind::Fcfs,
            ..OrchestratorConfig::default()
        });

        let mut admitted = (0, 0);
        for step in 0..60u64 {
            let now = minute(step);
            // One request every 4 minutes, long-lived so they accumulate.
            if step % 4 == 0 {
                let req = SliceRequest::builder(TenantId::new(step), SliceClass::Embb)
                    .throughput(RateMbps::new(20.0))
                    .duration(SimDuration::from_hours(10))
                    .build()
                    .unwrap();
                if with_ob.submit(now, req.clone()).is_ok() {
                    admitted.0 += 1;
                }
                if without.submit(now, req).is_ok() {
                    admitted.1 += 1;
                }
            }
            with_ob.run_epoch(now + SimDuration::from_secs(30));
            without.run_epoch(now + SimDuration::from_secs(30));
        }
        assert!(
            admitted.0 > admitted.1,
            "overbooked {} vs peak {}",
            admitted.0,
            admitted.1
        );
    }

    #[test]
    fn terminate_refunds_and_frees() {
        let mut o = orchestrator(OrchestratorConfig::default());
        let id = o.submit(SimTime::ZERO, embb(25.0)).unwrap();
        o.run_epoch(minute(1)); // activates
                                // Terminate at half the 30-min lifetime (active at minute 1).
        assert!(o.terminate(minute(16), id));
        assert_eq!(o.record(id).unwrap().state, SliceState::Terminated);
        assert_eq!(o.transport().snapshot().paths, 0);
        // A termination is not an expiry.
        assert_eq!(o.metrics().counter_value("orchestrator.terminated"), Some(1));
        assert_eq!(o.metrics().counter_value("orchestrator.expired"), None);
        // Refund is half the price (±epoch rounding).
        let net = o.ledger().net().as_f64();
        assert!((net - 50.0).abs() < 5.0, "net {net}");
        // Idempotent-ish: a second terminate is a no-op.
        assert!(!o.terminate(minute(17), id));
        assert!(!o.terminate(minute(17), SliceId::new(999)));
    }

    #[test]
    fn plmns_are_recycled() {
        let mut o = orchestrator(OrchestratorConfig::default());
        let id = o.submit(SimTime::ZERO, embb(25.0)).unwrap();
        let plmn = o.record(id).unwrap().plmn.unwrap();
        o.run_epoch(minute(1));
        o.terminate(minute(2), id);
        let id2 = o.submit(minute(3), embb(25.0)).unwrap();
        assert_eq!(o.record(id2).unwrap().plmn, Some(plmn), "PLMN reused");
    }

    #[test]
    fn monitoring_reports_cross_api_boundary() {
        let mut o = orchestrator(OrchestratorConfig::default());
        o.submit(SimTime::ZERO, embb(25.0)).unwrap();
        o.run_epoch(minute(1));
        let reports = o.monitoring();
        assert_eq!(reports.len(), 3);
        let domains: Vec<&str> = reports.iter().map(|r| r.domain.as_str()).collect();
        assert_eq!(domains, vec!["ran", "transport", "cloud"]);
        assert!(reports
            .iter()
            .any(|r| r.scalars.keys().any(|k| k.contains("utilization"))));
    }

    #[test]
    fn batch_broker_decides_on_window() {
        let config = OrchestratorConfig {
            batch_window: Some(2),
            overbooking_enabled: false,
            ..OrchestratorConfig::default()
        };
        let mut o = orchestrator(config);
        // Three large requests: only two fit the 200-PRB RAN at peak.
        for (tenant, price) in [(1u64, 50i64), (2, 300), (3, 200)] {
            let req = SliceRequest::builder(TenantId::new(tenant), SliceClass::Embb)
                .throughput(RateMbps::new(45.0)) // 90 PRBs each
                .price(Money::from_units(price))
                .build()
                .unwrap();
            o.enqueue(req);
        }
        assert_eq!(o.pending_requests(), 3);
        // Epoch 1: no decision (window = 2).
        let r1 = o.run_epoch(minute(1));
        assert!(r1.batch_admitted.is_empty());
        assert_eq!(o.pending_requests(), 3);
        // Epoch 2: knapsack picks the two highest-value requests.
        let r2 = o.run_epoch(minute(2));
        assert_eq!(r2.batch_admitted.len(), 2);
        assert_eq!(r2.batch_rejected, 1);
        assert_eq!(o.pending_requests(), 0);
        // The cheap request (tenant 1, price 50) is the one rejected.
        let admitted_prices: Vec<i64> = r2
            .batch_admitted
            .iter()
            .map(|&id| o.record(id).unwrap().request.price.units())
            .collect();
        assert!(admitted_prices.contains(&300) && admitted_prices.contains(&200));
        assert_eq!(o.ledger().gross_income(), Money::from_units(500));
    }

    #[test]
    #[should_panic(expected = "batch_window")]
    fn enqueue_without_batch_mode_panics() {
        let mut o = orchestrator(OrchestratorConfig::default());
        o.enqueue(embb(10.0));
    }

    #[test]
    fn weather_reports_sky_and_survives_fades() {
        let config = OrchestratorConfig {
            weather_enabled: true,
            ..OrchestratorConfig::default()
        };
        let mut o = orchestrator(config);
        o.submit(SimTime::ZERO, embb(30.0)).unwrap();
        let mut skies = std::collections::BTreeSet::new();
        for e in 1..=600u64 {
            let report = o.run_epoch(minute(e));
            skies.insert(format!("{:?}", report.sky.expect("weather on")));
            // Through fades the slice stays placed (rerouted or riding it
            // out) until its 30-minute lifetime ends.
            if e < 29 {
                assert_eq!(report.active, 1, "epoch {e}");
            }
        }
        assert!(skies.len() >= 2, "weather moved at least once: {skies:?}");
    }

    #[test]
    fn weather_off_reports_no_sky() {
        let mut o = orchestrator(OrchestratorConfig::default());
        let report = o.run_epoch(minute(1));
        assert_eq!(report.sky, None);
    }

    #[test]
    fn ue_fairness_tracking_records_jain_series() {
        let config = OrchestratorConfig {
            ue_fairness_tracking: true,
            ..OrchestratorConfig::default()
        };
        let mut o = orchestrator(config);
        let id = o.submit(SimTime::ZERO, embb(25.0)).unwrap();
        for e in 1..=10 {
            o.run_epoch(minute(e));
        }
        let series = o
            .metrics()
            .series_ref(&format!("orchestrator.{id}.ue_fairness"))
            .expect("fairness series recorded");
        assert!(series.len() >= 9, "one sample per active epoch");
        // Jain's index over n = 4 UEs lies in [1/n, 1]; 1/n means one UE
        // took everything, which PF's 1/average-rate weighting rules out
        // over any stretch of epochs.
        for &(_, jain) in series.points() {
            assert!((0.25 - 1e-9..=1.0 + 1e-9).contains(&jain), "jain {jain}");
        }
        assert!(series.mean().unwrap() > 0.25, "{}", series.mean().unwrap());
    }

    #[test]
    fn detaching_a_ue_evicts_its_fairness_state() {
        // Regression for the PfState leak: fairness state used to outlive
        // the device, so churned fleets grew the map monotonically.
        let config = OrchestratorConfig {
            ue_fairness_tracking: true,
            ..OrchestratorConfig::default()
        };
        let mut o = orchestrator(config);
        let id = o.submit(SimTime::ZERO, embb(25.0)).unwrap();
        for e in 1..=3 {
            o.run_epoch(minute(e));
        }
        let fleet = o.ue_count(id);
        assert_eq!(fleet, 4, "default ues_per_slice");
        assert_eq!(o.pf_tracked(id), fleet, "PF tracks the whole fleet");
        let victim = o.sim_state.get(&id).unwrap().ues.ids()[0];
        assert!(o.detach_ue(id, victim));
        assert!(!o.detach_ue(id, victim), "already detached");
        assert_eq!(o.ue_count(id), fleet - 1);
        assert_eq!(o.pf_tracked(id), fleet - 1, "evicted on detach");
        // Further epochs never resurrect the departed UE's state.
        for e in 4..=6 {
            o.run_epoch(minute(e));
        }
        assert_eq!(o.pf_tracked(id), fleet - 1);
        // Unknown slice / unknown UE are clean no-ops.
        assert!(!o.detach_ue(SliceId::new(9999), victim));
        assert_eq!(o.ue_count(SliceId::new(9999)), 0);
        assert_eq!(o.pf_tracked(SliceId::new(9999)), 0);
    }

    #[test]
    fn fairness_off_records_nothing() {
        let mut o = orchestrator(OrchestratorConfig::default());
        let id = o.submit(SimTime::ZERO, embb(25.0)).unwrap();
        o.run_epoch(minute(1));
        assert!(o
            .metrics()
            .series_ref(&format!("orchestrator.{id}.ue_fairness"))
            .is_none());
    }

    #[test]
    fn timeline_records_measurements() {
        let mut o = orchestrator(OrchestratorConfig::default());
        let id = o.submit(SimTime::ZERO, embb(25.0)).unwrap();
        assert!(o.timeline(id).is_none(), "no epochs served yet");
        for e in 1..=5 {
            o.run_epoch(minute(e));
        }
        let t = o.timeline(id).expect("served epochs");
        assert_eq!(t.offered.len(), 5);
        assert_eq!(t.delivered.len(), 5);
        assert_eq!(t.latency.len(), 5);
        assert!(t.latency.min().unwrap() > 0.0);
        // Timeline survives expiry (kept for post-run analysis).
        for e in 6..=35 {
            o.run_epoch(minute(e));
        }
        assert_eq!(o.record(id).unwrap().state, SliceState::Expired);
        assert!(o.timeline(id).is_some());
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut o = orchestrator(OrchestratorConfig::default());
            o.submit(SimTime::ZERO, embb(25.0)).unwrap();
            o.submit(SimTime::ZERO, embb(30.0)).unwrap();
            let mut digest = Vec::new();
            for e in 1..=15 {
                let r = o.run_epoch(minute(e));
                digest.push((r.active, r.net_revenue, r.gain.reserved_prbs));
            }
            digest
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn epoch_reports_identical_at_any_thread_count() {
        // The tentpole invariant: the parallel epoch pipeline must be
        // bit-for-bit independent of the worker count, including the
        // fairness channel sampling and the per-slice RNG streams.
        let run = |threads: usize| {
            let _pin = ovnes_sim::par::pin_threads(threads);
            let mut o = orchestrator(OrchestratorConfig {
                ue_fairness_tracking: true,
                ..OrchestratorConfig::default()
            });
            // 20+30+40+50+40 PRB, sized to be admitted in full on the
            // fixture's two 100-PRB cells: a rejected submit here would mean
            // the oracle below compares nothing.
            for tp in [10.0, 15.0, 20.0, 25.0, 20.0] {
                o.submit(SimTime::ZERO, embb(tp)).unwrap();
            }
            let reports: Vec<EpochReport> = (1..=12).map(|e| o.run_epoch(minute(e))).collect();
            let fairness: Vec<Vec<(SimTime, f64)>> = o
                .records()
                .map(|r| r.id)
                .filter_map(|id| {
                    o.metrics()
                        .series_ref(&format!("orchestrator.{id}.ue_fairness"))
                        .map(|s| s.points().to_vec())
                })
                .collect();
            (reports, fairness)
        };
        let serial = run(1);
        assert_eq!(serial, run(2));
        assert_eq!(serial, run(8));
    }

    #[test]
    #[should_panic(expected = "went backwards")]
    fn epoch_clock_cannot_go_backwards() {
        let mut o = orchestrator(OrchestratorConfig::default());
        o.run_epoch(minute(2));
        o.run_epoch(minute(1));
    }

    #[test]
    fn epoch_at_the_same_instant_is_allowed() {
        let mut o = orchestrator(OrchestratorConfig::default());
        o.submit(SimTime::ZERO, embb(25.0)).unwrap();
        o.run_epoch(minute(1));
        // Zero-length epoch: legal (re-measures the same instant).
        let r = o.run_epoch(minute(1));
        assert_eq!(r.now, minute(1));
    }

    #[test]
    fn faultless_epochs_report_a_clean_control_plane() {
        let mut o = orchestrator(OrchestratorConfig::default());
        o.submit(SimTime::ZERO, embb(25.0)).unwrap();
        for e in 1..=5 {
            let r = o.run_epoch(minute(e));
            assert_eq!(r.control_retries, 0);
            assert_eq!(r.control_failures, 0);
            assert!(r.unreachable_domains.is_empty());
            assert!(r.degraded.is_empty());
        }
        // 3 health probes + 3 monitoring pushes per epoch.
        assert_eq!(o.metrics().counter_value("control.calls"), Some(30));
        assert_eq!(o.metrics().counter_value("control.failures"), Some(0));
    }

    #[test]
    fn ran_outage_degrades_then_restores_slices() {
        use ovnes_api::EndpointFaults;
        let mut o = orchestrator(OrchestratorConfig::default());
        // RAN controller dark for minutes [5, 8).
        o.set_fault_plan(FaultPlan::new(11).with_endpoint(
            "ran/health",
            EndpointFaults::none().with_outage(minute(5), minute(8)),
        ));
        let id = o.submit(SimTime::ZERO, embb(25.0)).unwrap();

        for e in 1..=4 {
            let r = o.run_epoch(minute(e));
            assert!(r.unreachable_domains.is_empty(), "epoch {e}");
        }
        assert_eq!(o.record(id).unwrap().state, SliceState::Active);

        // Outage starts: probe exhausts its retries, the slice degrades,
        // and reconfiguration is suspended (RAN commands can't land).
        let r5 = o.run_epoch(minute(5));
        assert_eq!(r5.unreachable_domains, vec!["ran".to_string()]);
        assert_eq!(r5.degraded, vec![id]);
        assert_eq!(r5.reconfigured, 0);
        assert!(r5.control_failures > 0);
        assert!(r5.control_retries > 0);
        assert_eq!(o.record(id).unwrap().state, SliceState::Degraded);
        assert_eq!(o.count_in_state(SliceState::Degraded), 1);
        // Monitoring skips the dark domain but the other two still report.
        let domains: Vec<&str> = o.monitoring().iter().map(|m| m.domain.as_str()).collect();
        assert_eq!(domains, vec!["transport", "cloud"]);

        // Mid-outage: already degraded, so no new transition is reported,
        // but the slice keeps serving (data plane is unaffected).
        let r6 = o.run_epoch(minute(6));
        assert!(r6.degraded.is_empty());
        assert_eq!(r6.active, 1);
        assert_eq!(r6.verdicts.len(), 1);

        // Outage ends at minute 8: the probe succeeds and the slice is
        // restored to Active.
        o.run_epoch(minute(7));
        let r8 = o.run_epoch(minute(8));
        assert!(r8.unreachable_domains.is_empty());
        assert_eq!(r8.restored, vec![id]);
        assert_eq!(o.record(id).unwrap().state, SliceState::Active);
        assert_eq!(o.monitoring().len(), 3);
        assert_eq!(o.metrics().counter_value("orchestrator.degraded"), Some(1));
        assert_eq!(o.metrics().counter_value("orchestrator.restored"), Some(1));
    }

    #[test]
    fn health_machine_classifies_outages_with_hysteresis() {
        use crate::supervise::HealthState;
        use ovnes_api::EndpointFaults;
        let mut o = orchestrator(OrchestratorConfig::default());
        // RAN controller dark for minutes [5, 9).
        o.set_fault_plan(FaultPlan::new(23).with_endpoint(
            "ran/health",
            EndpointFaults::none().with_outage(minute(5), minute(9)),
        ));

        for e in 1..=4 {
            o.run_epoch(minute(e));
        }
        assert_eq!(o.domain_health("ran").unwrap().state, HealthState::Up);

        // First failed probe: Suspect, not yet Down.
        o.run_epoch(minute(5));
        assert_eq!(o.domain_health("ran").unwrap().state, HealthState::Suspect);
        assert_eq!(o.metrics().counter_value("supervise.suspects"), Some(1));
        assert_eq!(o.metrics().counter_value("supervise.downs"), None);

        // Second consecutive failure confirms the outage.
        o.run_epoch(minute(6));
        assert_eq!(o.domain_health("ran").unwrap().state, HealthState::Down);
        assert_eq!(o.metrics().counter_value("supervise.downs"), Some(1));

        o.run_epoch(minute(7));
        o.run_epoch(minute(8));
        assert_eq!(o.domain_health("ran").unwrap().state, HealthState::Down);

        // First successful probe repairs; downtime spans from the first
        // failed probe (minute 5) to the recovery probe (minute 9).
        o.run_epoch(minute(9));
        let health = o.domain_health("ran").unwrap();
        assert_eq!(health.state, HealthState::Up);
        assert_eq!(health.incidents, 1);
        assert_eq!(health.repairs, 1);
        assert_eq!(health.failed_probes, 4);
        assert_eq!(o.metrics().counter_value("supervise.repairs"), Some(1));
        let ttr = o.metrics().series_ref("supervise.time_to_repair").unwrap();
        assert_eq!(ttr.values(), vec![240.0]);

        // The other two domains never left Up and booked nothing.
        assert_eq!(
            o.domain_health("transport").unwrap().state,
            HealthState::Up
        );
        assert_eq!(o.domain_health("cloud").unwrap().incidents, 0);
    }

    #[test]
    fn degraded_slices_still_expire_on_schedule() {
        use ovnes_api::EndpointFaults;
        let mut o = orchestrator(OrchestratorConfig::default());
        // Outage spans the slice's whole 30-minute life and beyond.
        o.set_fault_plan(FaultPlan::new(13).with_endpoint(
            "transport/health",
            EndpointFaults::none().with_outage(minute(2), minute(90)),
        ));
        let id = o.submit(SimTime::ZERO, embb(25.0)).unwrap();
        for e in 1..=40 {
            o.run_epoch(minute(e));
        }
        assert_eq!(o.record(id).unwrap().state, SliceState::Expired);
        assert_eq!(o.count_in_state(SliceState::Degraded), 0);
        assert!(o.placement(id).is_none(), "resources freed at expiry");
    }

    #[test]
    fn chaos_runs_with_drops_stay_deterministic() {
        use ovnes_api::EndpointFaults;
        let run = || {
            let mut o = orchestrator(OrchestratorConfig::default());
            o.set_fault_plan(
                FaultPlan::new(17)
                    .with_endpoint("ran/health", EndpointFaults::none().with_drop(0.3))
                    .with_endpoint("cloud/monitoring", EndpointFaults::none().with_error(0.2)),
            );
            o.submit(SimTime::ZERO, embb(25.0)).unwrap();
            let mut digest = Vec::new();
            for e in 1..=20 {
                let r = o.run_epoch(minute(e));
                digest.push((
                    r.active,
                    r.control_retries,
                    r.control_failures,
                    r.unreachable_domains.clone(),
                    r.net_revenue,
                ));
            }
            digest
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b);
        // The plan is noisy enough that retries actually happened.
        assert!(a.iter().any(|(_, retries, ..)| *retries > 0));
    }
}
