//! Multi-region federation: shard the world into N regional orchestrators
//! under one broker.
//!
//! Each region *is* a [`DemoScenario`] — its own cells, DCs, topology
//! slice, request generator, run cursor, and orchestrator running the
//! existing epoch pipeline unchanged; the broker calls the scenario's own
//! arrival delivery and epoch fold rather than restating them. The
//! [`FederationBroker`] federates two things across them:
//!
//! * **Admission.** Arrivals are delivered to their home region; a request
//!   the home region rejects is queued and *spilled* to sibling regions at
//!   the epoch boundary, in canonical `(region, arrival)` order. A spill
//!   that lands in a foreign region books an inter-region transport leg on
//!   the broker's backbone graph (home gateway ↔ host gateway), released
//!   when the slice expires.
//! * **Epochs.** All regional epochs run in parallel via
//!   [`par_map`](ovnes_sim::par::par_map), each folding its report into its
//!   own region's cursor; the reports come back **in region order** and
//!   backbone legs are retired serially from them, so every summary,
//!   monitoring feed, and snapshot is byte-identical at any worker count.
//!
//! Determinism argument (DESIGN.md decision 13): regions never share RNG
//! streams — region 0 derives exactly as the single-region demo (making a
//! one-region federation the bitwise oracle for the federated pipeline) and
//! region `r ≥ 1` forks the label `region-{r}` from the master seed. The
//! parallel phase only runs per-region epochs, which touch region-local
//! state; everything cross-region (arrival delivery, spill placement,
//! backbone booking and release) happens serially in region order.

use crate::orchestrator::Orchestrator;
use crate::scenario::{
    DemoScenario, DemoSummary, RegionWorld, RequestMix, ScenarioConfig, ScenarioState,
};
use ovnes_api::MonitoringReport;
use ovnes_model::{Latency, Money, NodeId, RateMbps, SliceId, SliceRequest};
use ovnes_sim::par::par_map;
use ovnes_sim::{SimDuration, SimRng, SimTime};
use ovnes_transport::{star, TransportController, TransportControllerState};
use serde::{Deserialize, Serialize};

/// Federation parameters. Every region runs the same arrival process and
/// orchestrator settings (sharding splits the *world*, not the workload
/// model); `arrivals_per_hour` is therefore a **per-region** rate.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FederationConfig {
    /// Master seed; every region's streams derive from it.
    pub seed: u64,
    /// Number of regional shards (≥ 1).
    pub regions: usize,
    /// Mean slice request arrivals per hour *per region* (Poisson).
    pub arrivals_per_hour: f64,
    /// Diurnal arrival profile (see [`ScenarioConfig::diurnal_arrivals`]).
    pub diurnal_arrivals: bool,
    /// Class mix.
    pub mix: RequestMix,
    /// Mean slice lifetime.
    pub mean_duration: SimDuration,
    /// Total simulated horizon.
    pub horizon: SimDuration,
    /// Orchestrator settings, applied to every region.
    pub orchestrator: crate::orchestrator::OrchestratorConfig,
    /// When true, requests rejected at home are spilled to sibling regions
    /// (booking a backbone leg); when false the broker is pure sharding.
    pub federated_admission: bool,
    /// Capacity of each backbone gateway link.
    pub backbone_capacity: RateMbps,
    /// Propagation delay of each backbone gateway link.
    pub backbone_delay: Latency,
}

impl Default for FederationConfig {
    fn default() -> Self {
        FederationConfig {
            seed: 42,
            regions: 2,
            arrivals_per_hour: 12.0,
            diurnal_arrivals: false,
            mix: RequestMix::default(),
            mean_duration: SimDuration::from_hours(2),
            horizon: SimDuration::from_hours(12),
            orchestrator: crate::orchestrator::OrchestratorConfig::default(),
            federated_admission: true,
            backbone_capacity: RateMbps::new(10_000.0),
            backbone_delay: Latency::new(1.0),
        }
    }
}

/// A spilled slice's inter-region booking: the backbone leg lives exactly
/// as long as the slice it carries.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SpillRoute {
    /// Region the slice actually runs in.
    pub host: usize,
    /// The slice's id *in the host region's orchestrator*.
    pub slice: SliceId,
    /// The backbone reservation id.
    pub backbone: SliceId,
}

/// Broker-level run progress: the shared epoch clock plus federated
/// admission accounting (per-region accounting lives in each region's
/// [`RunCursor`](crate::scenario::RunCursor)).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FederationCursor {
    /// The shared epoch clock (time of the last completed epoch).
    pub now: SimTime,
    /// Epochs completed.
    pub epochs: u64,
    /// Requests rejected at home and offered to siblings.
    pub spilled: u64,
    /// Spills admitted by a sibling (with a backbone leg booked).
    pub spill_admitted: u64,
    /// Spills no sibling (or the backbone) could take.
    pub spill_rejected: u64,
}

/// Aggregate result of a federated run: per-region demo summaries in
/// region order plus federation-level totals.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FederationSummary {
    /// Per-region summaries, indexed by region.
    pub regions: Vec<DemoSummary>,
    /// Epochs completed (shared clock).
    pub epochs: u64,
    /// Total requests submitted across regions.
    pub submitted: u64,
    /// Total admissions: home admissions plus spills placed elsewhere.
    pub admitted: u64,
    /// Requests no region took.
    pub rejected: u64,
    /// Slices that completed their lifetime, across regions.
    pub expired: u64,
    /// Violated slice-epochs across regions.
    pub violations: u64,
    /// Observed slice-epochs across regions.
    pub slice_epochs: u64,
    /// Admission income across regions.
    pub gross_income: Money,
    /// Penalties across regions.
    pub penalties: Money,
    /// Net revenue across regions.
    pub net_revenue: Money,
    /// Mean concurrently-active slices, summed over regions.
    pub mean_active: f64,
    /// Requests rejected at home and offered to siblings.
    pub spilled: u64,
    /// Spills a sibling admitted.
    pub spill_admitted: u64,
    /// Spills nobody took.
    pub spill_rejected: u64,
}

/// Complete serializable state of a [`FederationBroker`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FederationState {
    /// Federation parameters.
    pub config: FederationConfig,
    /// Broker-level run progress.
    pub cursor: FederationCursor,
    /// The backbone transport controller.
    pub backbone: TransportControllerState,
    /// Next backbone reservation id to mint.
    pub next_backbone_id: u64,
    /// Live inter-region legs.
    pub spill_routes: Vec<SpillRoute>,
    /// Per-region scenario states, in region order.
    pub regions: Vec<ScenarioState>,
}

/// The top-level federation broker. See the module docs for the phase
/// structure and the determinism argument.
pub struct FederationBroker {
    config: FederationConfig,
    regions: Vec<DemoScenario>,
    /// Inter-region transport: a star of gateway switches (node 0 is the
    /// hub, node `r + 1` region `r`'s gateway).
    backbone: TransportController,
    next_backbone_id: u64,
    spill_routes: Vec<SpillRoute>,
    cursor: FederationCursor,
}

/// A queued spill: a request its home region rejected, awaiting the
/// epoch-boundary placement pass.
struct Spill {
    home: usize,
    request: SliceRequest,
}

/// The scenario config each region of a federation runs under (all regions
/// share it; it is also what their exported [`ScenarioState`]s report).
pub fn region_scenario_config(config: &FederationConfig) -> ScenarioConfig {
    ScenarioConfig {
        seed: config.seed,
        arrivals_per_hour: config.arrivals_per_hour,
        diurnal_arrivals: config.diurnal_arrivals,
        mix: config.mix,
        mean_duration: config.mean_duration,
        horizon: config.horizon,
        orchestrator: config.orchestrator.clone(),
    }
}

impl FederationBroker {
    /// Build a federation of `config.regions` testbed worlds.
    pub fn build(config: FederationConfig) -> FederationBroker {
        Self::build_with_worlds(config, |_| RegionWorld::testbed())
    }

    /// Build a federation over caller-supplied region worlds (benches shard
    /// large [`scaling worlds`](ovnes_transport::Topology) this way).
    ///
    /// Region 0's RNG streams derive exactly as
    /// [`DemoScenario::build`](crate::scenario::DemoScenario::build)'s, so a
    /// one-region federation over the testbed world reproduces the demo
    /// scenario bit-for-bit — the single-region oracle the federation tests
    /// assert against. Regions `r ≥ 1` fork the label `region-{r}`.
    ///
    /// # Panics
    /// Panics if `config.regions == 0`.
    pub fn build_with_worlds(
        config: FederationConfig,
        world: impl Fn(usize) -> RegionWorld,
    ) -> FederationBroker {
        assert!(config.regions >= 1, "a federation needs at least one region");
        let mut master = SimRng::seed_from(config.seed);
        let regions = (0..config.regions)
            .map(|r| {
                let scenario = region_scenario_config(&config);
                if r == 0 {
                    DemoScenario::with_world(scenario, world(r), &mut master)
                } else {
                    let mut region_rng = master.fork(&format!("region-{r}"));
                    DemoScenario::with_world(scenario, world(r), &mut region_rng)
                }
            })
            .collect();
        let backbone = TransportController::new(
            star(config.regions + 1, config.backbone_capacity, config.backbone_delay),
            4096,
        );
        FederationBroker {
            config,
            regions,
            backbone,
            next_backbone_id: 0,
            spill_routes: Vec::new(),
            cursor: FederationCursor::default(),
        }
    }

    /// Number of regional shards.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Region `r`'s orchestrator (for post-run inspection).
    pub fn orchestrator(&self, r: usize) -> &Orchestrator {
        self.regions[r].orchestrator()
    }

    /// Mutable access to region `r`'s orchestrator — for pre-run
    /// configuration such as per-region fault plans (control-plane chaos
    /// and substrate outages compose with federation exactly as they do
    /// with a single-region run).
    pub fn orchestrator_mut(&mut self, r: usize) -> &mut Orchestrator {
        self.regions[r].orchestrator_mut()
    }

    /// The backbone transport controller (for inspecting inter-region legs).
    pub fn backbone(&self) -> &TransportController {
        &self.backbone
    }

    /// Live inter-region legs, in booking order.
    pub fn spill_routes(&self) -> &[SpillRoute] {
        &self.spill_routes
    }

    /// Epochs completed (0 before the first [`FederationBroker::step_epoch`]).
    pub fn epochs_completed(&self) -> u64 {
        self.cursor.epochs
    }

    /// Broker-level run progress.
    pub fn cursor(&self) -> &FederationCursor {
        &self.cursor
    }

    /// Region `r`'s gateway node on the backbone graph.
    fn gateway(&self, r: usize) -> NodeId {
        self.backbone.topology().nodes()[r + 1].id
    }

    /// Advance the whole federation by one monitoring epoch. Returns
    /// `false` (without advancing) once the horizon is reached.
    ///
    /// Four phases: (A) serial arrival delivery per region in region order,
    /// queuing home rejections as spills; (B) serial spill placement in
    /// canonical order, booking backbone legs; (C) parallel per-region
    /// epochs via `par_map`, each folding into its own cursor; (D) serial
    /// backbone-leg expiry in region order. Only phase C is parallel, and
    /// it touches region-local state exclusively — so the run is
    /// byte-identical at any worker count.
    pub fn step_epoch(&mut self) -> bool {
        if self.cursor.now >= SimTime::ZERO + self.config.horizon {
            return false;
        }
        let now = self.cursor.now + self.config.orchestrator.epoch;

        // Phase A: deliver each region's Poisson arrivals, home-first.
        let mut spills: Vec<Spill> = Vec::new();
        // A spill is an offer to a sibling: a lone region has none to make.
        let federated = self.config.federated_admission && self.regions.len() > 1;
        for (home, region) in self.regions.iter_mut().enumerate() {
            region.deliver_arrivals(now, |request| {
                if federated {
                    spills.push(Spill { home, request });
                }
            });
        }

        // Phase B: place spills at the epoch boundary, canonical order —
        // ascending home region, then arrival order within it (the order
        // `spills` was filled in). Candidate hosts are tried in ascending
        // region order; the backbone leg is booked before the foreign
        // submit and rolled back if the host also rejects.
        for spill in spills {
            self.cursor.spilled += 1;
            let mut placed = false;
            for host in (0..self.regions.len()).filter(|&h| h != spill.home) {
                let leg = SliceId::new(self.next_backbone_id);
                let (src, dst) = (self.gateway(spill.home), self.gateway(host));
                if self
                    .backbone
                    .allocate(leg, src, dst, spill.request.sla.throughput, spill.request.sla.max_latency)
                    .is_err()
                {
                    continue;
                }
                match self.regions[host].orchestrator_mut().submit(now, spill.request.clone()) {
                    Ok(slice) => {
                        self.next_backbone_id += 1;
                        self.spill_routes.push(SpillRoute {
                            host,
                            slice,
                            backbone: leg,
                        });
                        self.cursor.spill_admitted += 1;
                        placed = true;
                        break;
                    }
                    Err(_) => {
                        self.backbone.release(leg).expect("leg was just booked");
                    }
                }
            }
            if !placed {
                self.cursor.spill_rejected += 1;
            }
        }

        // Phase C: every region's epoch (run + fold into its own cursor), in
        // parallel. `par_map` joins in input order regardless of worker
        // count, and each closure touches only its own region.
        let reports = par_map(self.regions.iter_mut().collect(), |region: &mut DemoScenario| {
            region.run_epoch(now)
        });

        // Phase D: retire backbone legs of expired spills, in region order.
        self.cursor.now = now;
        self.cursor.epochs += 1;
        for (r, report) in reports.iter().enumerate() {
            for &expired in &report.expired {
                if let Some(pos) = self
                    .spill_routes
                    .iter()
                    .position(|s| s.host == r && s.slice == expired)
                {
                    let route = self.spill_routes.remove(pos);
                    self.backbone
                        .release(route.backbone)
                        .expect("expired spill held a leg");
                }
            }
        }
        true
    }

    /// Run to the horizon and summarize.
    pub fn run(&mut self) -> FederationSummary {
        while self.step_epoch() {}
        self.summary()
    }

    /// Summarize the run so far: per-region demo summaries in region order
    /// plus federated totals. Spill admissions count toward the federation
    /// total but not toward any region's `submitted`/`admitted` (those
    /// track home arrivals), so each region's summary remains internally
    /// consistent.
    pub fn summary(&self) -> FederationSummary {
        let regions: Vec<DemoSummary> = self.regions.iter().map(DemoScenario::summary).collect();
        let submitted: u64 = regions.iter().map(|s| s.submitted).sum();
        let home_admitted: u64 = regions.iter().map(|s| s.admitted).sum();
        let admitted = home_admitted + self.cursor.spill_admitted;
        FederationSummary {
            epochs: self.cursor.epochs,
            submitted,
            admitted,
            rejected: submitted - admitted,
            expired: regions.iter().map(|s| s.expired).sum(),
            violations: regions.iter().map(|s| s.violations).sum(),
            slice_epochs: regions.iter().map(|s| s.slice_epochs).sum(),
            gross_income: regions.iter().map(|s| s.gross_income).sum(),
            penalties: regions.iter().map(|s| s.penalties).sum(),
            net_revenue: regions.iter().map(|s| s.net_revenue).sum(),
            mean_active: regions.iter().map(|s| s.mean_active).sum(),
            spilled: self.cursor.spilled,
            spill_admitted: self.cursor.spill_admitted,
            spill_rejected: self.cursor.spill_rejected,
            regions,
        }
    }

    /// Every region's latest monitoring reports, region order, with the
    /// domain rewritten to `r{region}/{domain}` — the delta feed the
    /// dashboard's REGIONS panel folds.
    pub fn monitoring(&self) -> Vec<MonitoringReport> {
        let mut out = Vec::new();
        for (r, region) in self.regions.iter().enumerate() {
            for report in region.orchestrator().monitoring() {
                let mut m = report.clone();
                m.domain = format!("r{r}/{}", m.domain);
                out.push(m);
            }
        }
        out
    }

    /// The federation's complete serializable state: broker bookkeeping,
    /// backbone, and one full [`ScenarioState`] per region.
    pub fn export_state(&self) -> FederationState {
        FederationState {
            config: self.config.clone(),
            cursor: self.cursor.clone(),
            backbone: self.backbone.export_state(),
            next_backbone_id: self.next_backbone_id,
            spill_routes: self.spill_routes.clone(),
            regions: self.regions.iter().map(DemoScenario::export_state).collect(),
        }
    }

    /// A federation rebuilt from [`FederationBroker::export_state`],
    /// resuming bit-for-bit.
    pub fn from_state(state: &FederationState) -> FederationBroker {
        FederationBroker {
            config: state.config.clone(),
            regions: state.regions.iter().map(DemoScenario::from_state).collect(),
            backbone: TransportController::from_state(&state.backbone),
            next_backbone_id: state.next_backbone_id,
            spill_routes: state.spill_routes.clone(),
            cursor: state.cursor.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{DemoScenario, ScenarioConfig};
    use ovnes_api::{EndpointFaults, FaultPlan, SubstrateElement, SubstrateFaultPlan};
    use ovnes_sim::par::{current_threads, pin_threads};

    fn quick_config(seed: u64, regions: usize) -> FederationConfig {
        FederationConfig {
            seed,
            regions,
            arrivals_per_hour: 20.0,
            horizon: SimDuration::from_hours(3),
            mean_duration: SimDuration::from_mins(60),
            ..FederationConfig::default()
        }
    }

    #[test]
    fn single_region_federation_matches_demo_scenario_bitwise() {
        // Region 0 derives its RNG streams exactly as the demo scenario, so
        // a one-region federation *is* the single-region oracle.
        let demo = DemoScenario::build(ScenarioConfig {
            seed: 7,
            arrivals_per_hour: 20.0,
            horizon: SimDuration::from_hours(3),
            mean_duration: SimDuration::from_mins(60),
            ..ScenarioConfig::default()
        })
        .run();
        let fed = FederationBroker::build(quick_config(7, 1)).run();
        assert_eq!(fed.regions[0], demo);
        assert_eq!(fed.submitted, demo.submitted);
        assert_eq!(fed.admitted, demo.admitted, "nowhere to spill to");
        assert_eq!(fed.spill_admitted, 0);
    }

    #[test]
    fn federated_runs_are_deterministic() {
        let a = FederationBroker::build(quick_config(3, 3)).run();
        let b = FederationBroker::build(quick_config(3, 3)).run();
        assert_eq!(a, b);
    }

    #[test]
    fn worker_count_does_not_change_the_run() {
        let run_at = |threads: usize| {
            let _pin = pin_threads(threads);
            FederationBroker::build(quick_config(11, 4)).run()
        };
        let one = run_at(1);
        let two = run_at(2);
        let eight = run_at(8);
        assert_eq!(one, two, "1 vs 2 workers per shard");
        assert_eq!(one, eight, "1 vs 8 workers per shard");
        assert!(current_threads() >= 1);
    }

    #[test]
    fn spills_land_in_sibling_regions_with_backbone_legs() {
        // Pressure region arrivals so the home region saturates and spills.
        let mut cfg = quick_config(5, 2);
        cfg.arrivals_per_hour = 60.0;
        let mut fed = FederationBroker::build(cfg);
        let summary = fed.run();
        assert!(summary.spilled > 0, "{summary:?}");
        assert!(summary.spill_admitted > 0, "{summary:?}");
        assert_eq!(
            summary.admitted,
            summary.regions.iter().map(|r| r.admitted).sum::<u64>() + summary.spill_admitted
        );
        // Every live leg belongs to a live spilled slice; expired spills
        // released theirs.
        let booked = fed
            .backbone()
            .metrics()
            .counter_value("transport.allocations")
            .unwrap_or(0);
        let released = fed
            .backbone()
            .metrics()
            .counter_value("transport.releases")
            .unwrap_or(0);
        assert!(booked >= released);
        assert_eq!(
            booked - released,
            fed.spill_routes().len() as u64,
            "legs outlive exactly the live spills"
        );
    }

    #[test]
    fn disabling_federated_admission_keeps_regions_isolated() {
        let mut cfg = quick_config(5, 2);
        cfg.arrivals_per_hour = 60.0;
        cfg.federated_admission = false;
        let summary = FederationBroker::build(cfg).run();
        assert_eq!(summary.spilled, 0);
        assert_eq!(summary.spill_admitted, 0);
        assert_eq!(
            summary.admitted,
            summary.regions.iter().map(|r| r.admitted).sum::<u64>()
        );
    }

    #[test]
    fn resume_from_mid_run_state_matches_uninterrupted() {
        let reference = FederationBroker::build(quick_config(13, 2)).run();
        let mut first = FederationBroker::build(quick_config(13, 2));
        for _ in 0..17 {
            assert!(first.step_epoch());
        }
        let state = first.export_state();
        let json = serde_json::to_string(&state).unwrap();
        let decoded: FederationState = serde_json::from_str(&json).unwrap();
        assert_eq!(decoded, state);
        let mut resumed = FederationBroker::from_state(&decoded);
        assert_eq!(resumed.run(), reference);
    }

    #[test]
    fn chaos_per_region_stays_deterministic_across_worker_counts() {
        let run_at = |threads: usize| {
            let _pin = pin_threads(threads);
            let mut fed = FederationBroker::build(quick_config(4, 2));
            for r in 0..fed.region_count() {
                fed.orchestrator_mut(r).set_fault_plan(
                    FaultPlan::new(70 + r as u64)
                        .with_endpoint("ran/health", EndpointFaults::none().with_drop(0.3)),
                );
                fed.orchestrator_mut(r).set_substrate_plan(
                    SubstrateFaultPlan::new(90 + r as u64).with_random_outages(
                        &[SubstrateElement::Link(ovnes_model::LinkId::new(0))],
                        0.5,
                        SimDuration::from_mins(10),
                        SimDuration::from_hours(3),
                    ),
                );
            }
            fed.run()
        };
        let one = run_at(1);
        assert_eq!(one, run_at(2), "combined chaos, 1 vs 2 workers");
        assert_eq!(one, run_at(8), "combined chaos, 1 vs 8 workers");
    }

    #[test]
    fn monitoring_feed_is_region_prefixed_and_worker_invariant() {
        let feed_at = |threads: usize| {
            let _pin = pin_threads(threads);
            let mut fed = FederationBroker::build(quick_config(9, 3));
            for _ in 0..20 {
                assert!(fed.step_epoch());
            }
            fed.monitoring()
        };
        let feed = feed_at(1);
        assert!(!feed.is_empty());
        assert!(feed.iter().all(|m| m.domain.starts_with('r')));
        assert!(feed.iter().any(|m| m.domain.starts_with("r0/")));
        assert!(feed.iter().any(|m| m.domain.starts_with("r2/")));
        assert_eq!(feed, feed_at(2), "monitoring feed, 1 vs 2 workers");
    }
}
