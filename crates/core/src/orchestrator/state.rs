//! Checkpoint state: what an [`Orchestrator`] serializes to, how it is
//! captured and rebuilt, and which snapshot section each field lands in.

// The state mirrors the `Orchestrator` struct field for field, so it
// names the same types the parent module already imports.
use super::*;
use crate::control::DOMAINS;
use crate::snapshot::{RawFields, SectionWriter};
use ovnes_api::SnapshotError;
use ovnes_forecast::TraceGenerator;
use ovnes_ran::UePopulation;

impl Orchestrator {
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
                .map(|(&id, s)| (id, s.durable.clone()))
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
                .map(|(&id, durable)| {
                    let (durable, channels) = (durable.clone(), Vec::new());
                    (id, SliceSimState { durable, channels })
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
            substrate_plan: state.substrate_plan.clone(),
            substrate_down: state.substrate_down.clone(),
            substrate_degraded: state.substrate_degraded.clone(),
            // Exactly the known domains, whatever the snapshot names.
            supervision: DOMAINS
                .iter()
                .map(|d| {
                    let health = state.supervision.get(*d).copied().unwrap_or_default();
                    ((*d).to_owned(), health)
                })
                .collect(),
        }
    }
}

/// Serializable state of one slice's simulation loop: the traffic process,
/// the UE population, and the slice's private radio RNG stream at its exact
/// position. The live orchestrator holds exactly this per slice, next to a
/// per-epoch channel sample buffer that is scratch and excluded.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SliceSimSnapshot {
    /// The slice's traffic trace process.
    pub traffic: TraceGenerator,
    /// The slice's UE population (positions, attachment, CQI state).
    pub ues: UePopulation,
    /// The slice's private radio RNG stream. Every draw the epoch hot path
    /// makes for this slice (mobility, CQI, fairness channels) comes from
    /// it. It is forked at admission under a label keyed by the slice's id,
    /// so what a slice draws is a function of its identity — never of shard
    /// or thread scheduling order.
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

/// Which snapshot section each field of [`OrchestratorState`] is stored in
/// — the granularity `replay_bisect` names divergences at — and, from that
/// one table, both directions of the split: [`OrchestratorState::to_sections`]
/// writes every section's JSON object straight from the typed fields, in the
/// order listed, and [`OrchestratorState::from_fields`] parses every field
/// back into its type.
///
/// Both expansions name every field without a `..` (a destructuring `let`
/// and a struct literal), so a field added to the struct does not compile
/// until it is listed here: it can neither be dropped from snapshots nor
/// land in a section by accident.
macro_rules! orchestrator_sections {
    ($($section:literal { $($field:ident),+ $(,)? })+) => {
        impl OrchestratorState {
            /// Every snapshot section of this state as `(name, JSON bytes)`.
            pub(crate) fn to_sections(
                &self,
            ) -> Result<Vec<(&'static str, Vec<u8>)>, serde_json::Error> {
                let OrchestratorState { $($($field,)+)+ } = self;
                Ok(vec![$({
                    let mut section = SectionWriter::default();
                    $(section.field(stringify!($field), $field)?;)+
                    ($section, section.finish())
                },)+])
            }

            /// The state whose fields are `fields`, however they were
            /// grouped into sections when written.
            pub(crate) fn from_fields(fields: &RawFields<'_>) -> Result<Self, SnapshotError> {
                Ok(OrchestratorState {
                    $($($field: fields.parse(stringify!($field))?,)+)+
                })
            }
        }
    };
}

orchestrator_sections! {
    "orchestrator" {
        config, cell, channel, epoch_count, last_epoch_at, last_monitoring, supervision,
    }
    "ran" { ran }
    "transport" { transport }
    "cloud" { cloud }
    "forecast" { engine }
    "sla" { sla }
    "slices" {
        records, placements, pending, ready_at, epc_down_until, timelines, pf, sim_state, ids,
        ue_ids, free_plmns, next_plmn,
    }
    "rng" { rng }
    "telemetry" { metrics, events }
    "environment" {
        weather, weather_rng, last_sky, substrate_plan, substrate_down, substrate_degraded,
    }
    "control" { control }
}
