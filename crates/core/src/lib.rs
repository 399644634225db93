//! # ovnes-orchestrator — the end-to-end network slicing orchestrator
//!
//! The paper's primary contribution: an orchestration solution that blends
//! *(i) an admission control engine able to handle heterogeneous network
//! slice requests, (ii) a resource allocation solution across multiple
//! network domains: radio access, edge, transport and core networks, and
//! (iii) a monitoring, forecasting and dynamic configuration solution that
//! maximizes the statistical multiplexing of network slices resources* —
//! i.e. **overbooking**.
//!
//! * [`lifecycle`] — the slice state machine from dashboard request to
//!   expiry.
//! * [`admission`] — admission control policies: FCFS, greedy revenue,
//!   knapsack revenue maximization (ref \[3\]), and the overbooking-aware
//!   expected-net-revenue policy.
//! * [`allocator`] — two-phase multi-domain allocation: RAN → transport →
//!   cloud with full rollback on any failure.
//! * [`overbooking`] — the engine that shrinks reservations to forecast
//!   quantiles and reports the achieved multiplexing gain.
//! * [`sla`] — per-epoch SLA monitoring and penalty accounting (the
//!   dashboard's "gains vs. penalties").
//! * [`orchestrator`] — the event-driven composition of all of the above
//!   over the three domain controllers. A directory module: `run_epoch` is
//!   a list of phases, each in the file of its kind — `admission` (submit,
//!   batch, activate, expire, teardown), `health` (probes, reachability),
//!   `substrate` (weather, self-healing, host failures), `dataplane`
//!   (sampling, RAN epoch, SLA, forecaster feed), `reconfigure`,
//!   `telemetry` (series, monitoring push), `state` (checkpoint/restore).
//! * [`control`] — the survivable REST boundary: health probes, monitoring
//!   pushes, retry/backoff, and deterministic fault injection — over the
//!   one [`ControlTransport`](ovnes_api::ControlTransport) seam: in-process
//!   (the deterministic oracle) or framed TCP to per-domain controller
//!   server tasks (`spawn_domain_control_servers`).
//! * [`scenario`] — the one run loop: [`DemoScenario`] drives a world (by
//!   default the Fig. 2 testbed) under heterogeneous tenant request
//!   generators, epoch by epoch, resumably. Chaos is configuration, not a
//!   wrapper: install a control-plane or substrate fault plan (or both) on
//!   `orchestrator_mut()` and read `chaos_summary()` /
//!   `substrate_summary()` off the same run.
//! * [`federation`] — region/edge-zone sharding: a [`FederationBroker`]
//!   holds one [`DemoScenario`] per region, federates admission and
//!   inter-region transport between their arrival and epoch phases, runs
//!   shard epochs in parallel, and merges summaries in deterministic shard
//!   order.
//! * [`snapshot`] — whole-world checkpoint/restore over a content-addressed
//!   store, with manifest-chain bisection for divergence hunting.
//! * [`supervise`] — process-level chaos with repair: a [`Supervisor`]
//!   fences, kills, hangs, and respawns the (stateless) domain control
//!   servers on a seeded [`CrashPlan`](ovnes_api::CrashPlan) with no
//!   observable effect on the run, plus the per-domain heartbeat health
//!   machine (Up → Suspect → Down → Up) the orchestrator layers
//!   over its probe loop.

pub mod admission;
pub mod allocator;
pub mod control;
pub mod federation;
pub mod lifecycle;
pub mod orchestrator;
pub mod overbooking;
pub mod scenario;
pub mod sla;
pub mod snapshot;
pub mod supervise;

pub use admission::{AdmissionDecision, AdmissionPolicy, PolicyKind, ResourceView};
pub use allocator::{AllocationError, MultiDomainAllocator, Placement};
pub use control::{
    spawn_domain_control_servers, ControlEpochStats, ControlPlane, ControlPlaneState, DOMAINS,
};
pub use federation::{
    region_scenario_config, FederationBroker, FederationConfig, FederationCursor, FederationState,
    FederationSummary, SpillRoute,
};
pub use lifecycle::{SliceRecord, SliceState};
pub use orchestrator::{
    EpochReport, Orchestrator, OrchestratorConfig, OrchestratorState, SliceSimSnapshot,
    SliceTimeline,
};
pub use overbooking::{
    GainReport, OverbookingConfig, OverbookingEngine, OverbookingEngineState, SliceTrackerState,
};
pub use scenario::{
    ChaosSummary, DemoScenario, DemoSummary, RegionWorld, RequestGenerator, RequestMix, RunCursor,
    ScenarioConfig, ScenarioState, SubstrateSummary,
};
pub use sla::{SlaMonitor, SlaMonitorState, SlaVerdict};
pub use snapshot::{replay_bisect, WorldSnapshot};
pub use supervise::{DomainHealth, HealthState, HealthTransition, Supervisor};
