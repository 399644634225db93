//! The one run loop: a world, its orchestrator, a tenant request generator
//! and a resumable cursor, advanced one monitoring epoch at a time to a
//! summary — the programmatic equivalent of operating the demo's dashboard
//! for a day.
//!
//! [`DemoScenario`] is the only driver. [`DemoScenario::build`] wires the
//! Fig. 2 testbed ([`RegionWorld::testbed`]); a
//! [`FederationBroker`](crate::federation::FederationBroker) holds one per
//! region and calls the same arrival delivery and epoch fold
//! (`DemoScenario::deliver_arrivals`, `DemoScenario::run_epoch`) between
//! its own spill phases, so a one-region federation *is* the demo. Chaos is
//! not a different driver: a control-plane [`FaultPlan`](ovnes_api::FaultPlan)
//! or a [`SubstrateFaultPlan`](ovnes_api::SubstrateFaultPlan) is installed
//! on [`DemoScenario::orchestrator_mut`] (both travel inside the
//! orchestrator state), and [`ChaosSummary`] / [`SubstrateSummary`] are read
//! off the same run's counters.

use crate::lifecycle::SliceState;
use crate::orchestrator::{EpochReport, Orchestrator, OrchestratorConfig};
use ovnes_cloud::host::HostCapacity;
use ovnes_cloud::{CloudController, DataCenter, DcKind, PlacementStrategy};
use ovnes_model::{
    DcId, DiskGb, EnbId, Latency, MemMb, Money, RateMbps, SliceClass, SliceRequest, TenantId, VCpus,
};
use ovnes_ran::{CellConfig, Enb, RanController};
use ovnes_sim::{SimDuration, SimRng, SimTime};
use ovnes_transport::{Topology, TransportController};
use serde::{Deserialize, Serialize};

/// Probability mix of slice classes among arriving requests.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RequestMix {
    /// Weight of eMBB requests.
    pub embb: f64,
    /// Weight of URLLC requests.
    pub urllc: f64,
    /// Weight of mMTC requests.
    pub mmtc: f64,
}

impl Default for RequestMix {
    fn default() -> Self {
        // The demo's vertical mix: media-heavy, some automotive/e-health,
        // some metering.
        RequestMix {
            embb: 0.5,
            urllc: 0.3,
            mmtc: 0.2,
        }
    }
}

/// Scenario parameters.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// Master seed; everything derives from it.
    pub seed: u64,
    /// Mean slice request arrivals per hour (Poisson).
    pub arrivals_per_hour: f64,
    /// When true, the arrival intensity follows a diurnal profile:
    /// `rate(t) = arrivals_per_hour × (1 + 0.6·sin(2πt/24h))`, realized by
    /// Poisson thinning. Business-hours request storms are exactly when
    /// overbooked capacity is scarcest.
    pub diurnal_arrivals: bool,
    /// Class mix.
    pub mix: RequestMix,
    /// Mean slice lifetime (exponential, floored at 10 min).
    pub mean_duration: SimDuration,
    /// Total simulated horizon.
    pub horizon: SimDuration,
    /// Orchestrator settings.
    pub orchestrator: OrchestratorConfig,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            seed: 42,
            arrivals_per_hour: 12.0,
            diurnal_arrivals: false,
            mix: RequestMix::default(),
            mean_duration: SimDuration::from_hours(2),
            horizon: SimDuration::from_hours(12),
            orchestrator: OrchestratorConfig::default(),
        }
    }
}

impl ScenarioConfig {
    /// The instantaneous arrival rate at `now` (constant or diurnal).
    fn arrival_rate_at(&self, now: SimTime) -> f64 {
        if !self.diurnal_arrivals {
            return self.arrivals_per_hour;
        }
        let day_fraction = (now.as_secs_f64() / 86_400.0).fract();
        self.arrivals_per_hour * (1.0 + 0.6 * (std::f64::consts::TAU * day_fraction).sin())
    }

    /// Peak rate of the (possibly diurnal) arrival process, for thinning.
    fn peak_rate(&self) -> f64 {
        if self.diurnal_arrivals {
            self.arrivals_per_hour * 1.6
        } else {
            self.arrivals_per_hour
        }
    }
}

/// Generates dashboard-style heterogeneous slice requests.
///
/// Fully serializable: a snapshot captures the RNG stream position and the
/// tenant counter, so a restored generator produces the exact request
/// sequence the original would have.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RequestGenerator {
    rng: SimRng,
    mix: RequestMix,
    mean_duration: SimDuration,
    next_tenant: u64,
}

impl RequestGenerator {
    /// A generator with its own RNG stream.
    pub fn new(mix: RequestMix, mean_duration: SimDuration, rng: SimRng) -> RequestGenerator {
        RequestGenerator {
            rng,
            mix,
            mean_duration,
            next_tenant: 0,
        }
    }

    /// Sample the time until the next arrival at `per_hour` mean rate.
    pub fn next_interarrival(&mut self, per_hour: f64) -> SimDuration {
        let hours = self.rng.exponential(per_hour.max(1e-9));
        SimDuration::from_secs_f64(hours * 3600.0)
    }

    /// Bernoulli acceptance draw for Poisson thinning of an inhomogeneous
    /// arrival process.
    pub fn thin(&mut self, accept_probability: f64) -> bool {
        self.rng.chance(accept_probability)
    }

    /// Generate one request: class by mix, SLA around the class template,
    /// duration exponential, price ∝ throughput×duration with ±30% spread,
    /// penalty 2–10% of price.
    pub fn generate(&mut self) -> SliceRequest {
        let class = match self
            .rng
            .weighted_index(&[self.mix.embb, self.mix.urllc, self.mix.mmtc])
        {
            0 => SliceClass::Embb,
            1 => SliceClass::Urllc,
            _ => SliceClass::Mmtc,
        };
        let tenant = TenantId::new(self.next_tenant);
        self.next_tenant += 1;

        let template = class.default_sla();
        let tp = template.throughput.value() * self.rng.uniform_range(0.6, 1.6);
        let latency = template.max_latency.value() * self.rng.uniform_range(0.8, 1.2);
        let duration_s = self
            .rng
            .exponential(1.0 / self.mean_duration.as_secs_f64())
            .max(600.0);
        let duration = SimDuration::from_secs_f64(duration_s);

        // Price: ~2 units per Mbit-hour ±30%.
        let mbit_hours = tp * duration_s / 3600.0;
        let price = Money::from_cents(
            (mbit_hours * 2.0 * self.rng.uniform_range(0.7, 1.3) * 100.0).round() as i64,
        )
        .max(Money::from_units(5));
        // Penalty is per violated monitoring epoch (minutes), so it must be
        // a small slice of the price: 0.2–1%. A slice violated in 10% of a
        // 2 h lifetime then pays back ~2–12% of its price.
        let penalty = price.scale(self.rng.uniform_range(0.002, 0.01));

        SliceRequest::builder(tenant, class)
            .throughput(RateMbps::new(tp))
            .max_latency(Latency::new(latency))
            .duration(duration)
            .price(price)
            .penalty(penalty)
            .build()
            .expect("generated parameters are positive")
    }
}

/// Aggregate result of a scenario run — what the dashboard would have
/// shown at the end of the day.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DemoSummary {
    /// Requests submitted.
    pub submitted: u64,
    /// Requests admitted.
    pub admitted: u64,
    /// Requests rejected (policy or resources).
    pub rejected: u64,
    /// Slices that completed their lifetime.
    pub expired: u64,
    /// Monitoring epochs simulated.
    pub epochs: u64,
    /// Epoch-slice pairs in violation.
    pub violations: u64,
    /// Epoch-slice pairs observed.
    pub slice_epochs: u64,
    /// Admission income booked.
    pub gross_income: Money,
    /// Penalties paid.
    pub penalties: Money,
    /// Net revenue.
    pub net_revenue: Money,
    /// Mean savings fraction (capacity released by overbooking) over epochs
    /// with at least one active slice.
    pub mean_savings: f64,
    /// Mean overbooking factor over such epochs.
    pub mean_overbooking_factor: f64,
    /// Peak overbooking factor seen.
    pub peak_overbooking_factor: f64,
    /// Mean number of concurrently active slices.
    pub mean_active: f64,
}

impl DemoSummary {
    /// Violation rate across all observed slice-epochs.
    pub fn violation_rate(&self) -> f64 {
        if self.slice_epochs == 0 {
            0.0
        } else {
            self.violations as f64 / self.slice_epochs as f64
        }
    }

    /// Admission rate across submissions.
    pub fn admission_rate(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            self.admitted as f64 / self.submitted as f64
        }
    }
}

/// Mid-run progress of a scenario: the epoch clock, the pending arrival,
/// and every summary accumulator. Snapshotting the cursor (with the
/// orchestrator and generator) is sufficient to resume a run bit-for-bit.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RunCursor {
    /// The epoch clock (time of the last completed epoch).
    pub now: SimTime,
    /// Next Poisson arrival not yet delivered.
    pub next_arrival: SimTime,
    /// Requests submitted so far.
    pub submitted: u64,
    /// Requests admitted so far.
    pub admitted: u64,
    /// Violated slice-epochs so far.
    pub violations: u64,
    /// Observed slice-epochs so far.
    pub slice_epochs: u64,
    /// Sum of per-epoch savings fractions over busy epochs.
    pub savings_sum: f64,
    /// Sum of per-epoch overbooking factors over busy epochs.
    pub ob_sum: f64,
    /// Peak overbooking factor seen.
    pub ob_peak: f64,
    /// Epochs with at least one active slice.
    pub busy_epochs: u64,
    /// Sum of active-slice counts over all epochs.
    pub active_sum: u64,
    /// Epochs completed.
    pub epochs: u64,
}

/// The world one orchestrator runs: its three controllers and cell
/// profile. [`FederationBroker::build_with_worlds`](crate::federation::FederationBroker::build_with_worlds)
/// takes a constructor of these so benches can shard arbitrarily large
/// worlds.
pub struct RegionWorld {
    /// The RAN controller (the world's cells).
    pub ran: RanController,
    /// The transport controller (the world's topology).
    pub transport: TransportController,
    /// The cloud controller (the world's DCs).
    pub cloud: CloudController,
    /// The cell profile shared by the world's eNBs.
    pub cell: CellConfig,
}

impl RegionWorld {
    /// The Fig. 2 testbed: two 20 MHz MOCN eNBs, the wireless+wired
    /// transport with the PF5240-class switch, one edge and one core
    /// OpenStack-style DC.
    pub fn testbed() -> RegionWorld {
        // The physical demo broadcasts at most 6 PLMNs per cell (the SIB1
        // limit), which caps it at 6 concurrent slices per eNB — fine for a
        // conference booth. Our experiments sweep dozens of concurrent
        // slices so the radio *grid* must be the binding resource, as in
        // refs [1]/[3]; we therefore relax the per-cell PLMN budget (see
        // DESIGN.md, substitution table).
        let cell = CellConfig {
            max_plmns: 32,
            ..CellConfig::default_20mhz()
        };
        let ran = RanController::new(vec![
            Enb::new(EnbId::new(0), cell),
            Enb::new(EnbId::new(1), cell),
        ]);
        let transport = TransportController::new(Topology::testbed(), 4096);
        let host = HostCapacity {
            vcpus: VCpus::new(32),
            mem: MemMb::new(65_536),
            disk: DiskGb::new(500),
        };
        let edge_host = HostCapacity {
            vcpus: VCpus::new(16),
            mem: MemMb::new(32_768),
            disk: DiskGb::new(250),
        };
        let cloud = CloudController::new(vec![
            DataCenter::homogeneous(
                DcId::new(0),
                DcKind::Edge,
                4,
                edge_host,
                PlacementStrategy::WorstFit,
            ),
            DataCenter::homogeneous(
                DcId::new(1),
                DcKind::Core,
                16,
                host,
                PlacementStrategy::WorstFit,
            ),
        ]);
        RegionWorld {
            ran,
            transport,
            cloud,
            cell,
        }
    }
}

/// One world under one orchestrator, driven epoch by epoch. See the module
/// docs: this is the only run loop, held once by a demo run and once per
/// region by a federation.
pub struct DemoScenario {
    config: ScenarioConfig,
    orchestrator: Orchestrator,
    generator: RequestGenerator,
    /// Run progress; `None` until the first epoch (the cursor's
    /// initialization draws the first inter-arrival, so it is deferred to
    /// keep construction draw-free).
    cursor: Option<RunCursor>,
}

impl DemoScenario {
    /// Build the Fig. 2 world ([`RegionWorld::testbed`]) under `config`.
    pub fn build(config: ScenarioConfig) -> DemoScenario {
        let mut rng = SimRng::seed_from(config.seed);
        DemoScenario::with_world(config, RegionWorld::testbed(), &mut rng)
    }

    /// Wire `world` under `config`, forking the `requests` and
    /// `orchestrator` streams (in that order) off `rng`.
    pub(crate) fn with_world(
        config: ScenarioConfig,
        world: RegionWorld,
        rng: &mut SimRng,
    ) -> DemoScenario {
        let generator =
            RequestGenerator::new(config.mix, config.mean_duration, rng.fork("requests"));
        let orchestrator = Orchestrator::new(
            config.orchestrator.clone(),
            world.ran,
            world.transport,
            world.cloud,
            world.cell,
            rng.fork("orchestrator"),
        );
        DemoScenario {
            config,
            orchestrator,
            generator,
            cursor: None,
        }
    }

    /// The orchestrator under test (for post-run inspection).
    pub fn orchestrator(&self) -> &Orchestrator {
        &self.orchestrator
    }

    /// Mutable access to the orchestrator: pre-run configuration (a fault
    /// plan, a substrate plan, the socket control plane — any combination)
    /// and mid-run fault injection.
    pub fn orchestrator_mut(&mut self) -> &mut Orchestrator {
        &mut self.orchestrator
    }

    /// Epochs stepped so far (0 before the first [`DemoScenario::step_epoch`]).
    /// A supervisor keys its crash schedule on this: events planned for
    /// epoch `n` fire before the `n`-th epoch runs.
    pub fn epochs_completed(&self) -> u64 {
        self.cursor.as_ref().map_or(0, |c| c.epochs)
    }

    /// The run cursor, initialized on first use by drawing the first
    /// inter-arrival — the draw `run` made up front before the loop was
    /// resumable, so draw order is unchanged. Takes the fields it needs so
    /// callers keep the rest of the scenario borrowable.
    fn started<'a>(
        cursor: &'a mut Option<RunCursor>,
        generator: &mut RequestGenerator,
        peak: f64,
    ) -> &'a mut RunCursor {
        cursor.get_or_insert_with(|| RunCursor {
            next_arrival: SimTime::ZERO + generator.next_interarrival(peak),
            ..RunCursor::default()
        })
    }

    /// Deliver every Poisson arrival due by the epoch boundary `now`, in
    /// arrival order, and move the cursor's clock there. With a diurnal
    /// profile, candidate arrivals at the peak rate are thinned down to the
    /// instantaneous rate. `on_reject` receives each request the
    /// orchestrator refused (a federation queues those as spills).
    pub(crate) fn deliver_arrivals(
        &mut self,
        now: SimTime,
        mut on_reject: impl FnMut(SliceRequest),
    ) {
        let peak = self.config.peak_rate();
        let cursor = Self::started(&mut self.cursor, &mut self.generator, peak);
        while cursor.next_arrival <= now {
            let accept_p = self.config.arrival_rate_at(cursor.next_arrival) / peak;
            if self.generator.thin(accept_p) {
                let request = self.generator.generate();
                cursor.submitted += 1;
                match self.orchestrator.submit(cursor.next_arrival, request.clone()) {
                    Ok(_) => cursor.admitted += 1,
                    Err(_) => on_reject(request),
                }
            }
            cursor.next_arrival += self.generator.next_interarrival(peak);
        }
        cursor.now = now;
    }

    /// Run the orchestrator's epoch closing at `now` and fold its report
    /// into the cursor. Touches nothing outside this scenario, so a
    /// federation runs its regions' epochs in parallel.
    pub(crate) fn run_epoch(&mut self, now: SimTime) -> EpochReport {
        let report = self.orchestrator.run_epoch(now);
        let cursor = self.cursor.as_mut().expect("arrivals are delivered before the epoch runs");
        cursor.epochs += 1;
        cursor.slice_epochs += report.verdicts.len() as u64;
        cursor.violations += report.verdicts.iter().filter(|v| !v.met).count() as u64;
        cursor.active_sum += report.active as u64;
        if report.active > 0 {
            cursor.busy_epochs += 1;
            cursor.savings_sum += report.gain.savings_fraction;
            cursor.ob_sum += report.gain.overbooking_factor;
            cursor.ob_peak = cursor.ob_peak.max(report.gain.overbooking_factor);
        }
        report
    }

    /// Advance the run by one monitoring epoch: deliver every arrival due
    /// before the next epoch boundary, run the epoch, fold the report into
    /// the cursor. Returns `false` (without advancing) once the horizon is
    /// reached.
    pub fn step_epoch(&mut self) -> bool {
        let peak = self.config.peak_rate();
        let now = Self::started(&mut self.cursor, &mut self.generator, peak).now;
        if now >= SimTime::ZERO + self.config.horizon {
            return false;
        }
        let now = now + self.config.orchestrator.epoch;
        self.deliver_arrivals(now, |_| {});
        self.run_epoch(now);
        true
    }

    /// Summarize the run so far (the full-run summary once `step_epoch`
    /// returns `false`).
    pub fn summary(&self) -> DemoSummary {
        let zero = RunCursor::default();
        let c = self.cursor.as_ref().unwrap_or(&zero);
        let ledger = self.orchestrator.ledger();
        let mean = |sum: f64, n: u64| if n > 0 { sum / n as f64 } else { 0.0 };
        DemoSummary {
            submitted: c.submitted,
            admitted: c.admitted,
            rejected: c.submitted - c.admitted,
            expired: self.orchestrator.count_in_state(SliceState::Expired) as u64,
            epochs: c.epochs,
            violations: c.violations,
            slice_epochs: c.slice_epochs,
            gross_income: ledger.gross_income(),
            penalties: ledger.total_penalties(),
            net_revenue: ledger.net(),
            mean_savings: mean(c.savings_sum, c.busy_epochs),
            mean_overbooking_factor: mean(c.ob_sum, c.busy_epochs),
            peak_overbooking_factor: c.ob_peak,
            mean_active: mean(c.active_sum as f64, c.epochs),
        }
    }

    /// A run-lifetime orchestrator counter (0 if it never moved).
    fn counter(&self, name: &str) -> u64 {
        self.orchestrator.metrics().counter_value(name).unwrap_or(0)
    }

    /// The run so far plus what the control plane went through — the
    /// summary of a run under a [`FaultPlan`](ovnes_api::FaultPlan).
    pub fn chaos_summary(&self) -> ChaosSummary {
        ChaosSummary {
            demo: self.summary(),
            control_calls: self.counter("control.calls"),
            control_retries: self.counter("control.retries"),
            control_failures: self.counter("control.failures"),
            degradations: self.counter("orchestrator.degraded"),
            restorations: self.counter("orchestrator.restored"),
        }
    }

    /// The run so far plus what the self-healing pipeline did — the summary
    /// of a run under a [`SubstrateFaultPlan`](ovnes_api::SubstrateFaultPlan).
    pub fn substrate_summary(&self) -> SubstrateSummary {
        SubstrateSummary {
            demo: self.summary(),
            element_failures: self.counter("substrate.element_failures"),
            element_recoveries: self.counter("substrate.element_recoveries"),
            reroutes: self.counter("substrate.reroutes"),
            reattaches: self.counter("substrate.reattaches"),
            replacements: self.counter("substrate.replacements"),
            degraded: self.counter("substrate.degraded"),
            repaired: self.counter("substrate.repaired"),
            restored: self.counter("substrate.restored"),
        }
    }

    /// Run to the horizon, interleaving Poisson arrivals with monitoring
    /// epochs, and summarize.
    pub fn run(&mut self) -> DemoSummary {
        while self.step_epoch() {}
        self.summary()
    }

    /// The scenario's complete serializable state: config, orchestrator
    /// (every controller, forecaster, RNG stream, and any installed fault
    /// plan), request generator, and run cursor.
    pub fn export_state(&self) -> ScenarioState {
        ScenarioState {
            config: self.config.clone(),
            orchestrator: self.orchestrator.export_state(),
            generator: self.generator.clone(),
            cursor: self.cursor.clone(),
        }
    }

    /// A scenario rebuilt from [`DemoScenario::export_state`], resuming the
    /// run bit-for-bit from the captured epoch.
    pub fn from_state(state: &ScenarioState) -> DemoScenario {
        DemoScenario {
            config: state.config.clone(),
            orchestrator: Orchestrator::from_state(&state.orchestrator),
            generator: state.generator.clone(),
            cursor: state.cursor.clone(),
        }
    }
}

/// Serializable state of a [`DemoScenario`] (fault plans live inside the
/// orchestrator state).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScenarioState {
    /// Scenario parameters.
    pub config: ScenarioConfig,
    /// The orchestrator and all three domain controllers.
    pub orchestrator: crate::orchestrator::OrchestratorState,
    /// The request generator (RNG position + tenant counter).
    pub generator: RequestGenerator,
    /// Run progress; `None` before the first epoch.
    pub cursor: Option<RunCursor>,
}

/// Aggregate result of a chaos run: the demo summary plus what the control
/// plane went through. Deterministic per `(config.seed, plan.seed())` pair.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ChaosSummary {
    /// The plain scenario summary.
    pub demo: DemoSummary,
    /// Control-plane calls issued over the run.
    pub control_calls: u64,
    /// Retries (attempts beyond the first) over the run.
    pub control_retries: u64,
    /// Calls that exhausted retries/deadline over the run.
    pub control_failures: u64,
    /// Slice-epochs spent transitioning into `Degraded`.
    pub degradations: u64,
    /// Slice-epochs spent transitioning back to `Active`.
    pub restorations: u64,
}

/// Aggregate result of a substrate-fault run: the demo summary plus what
/// the self-healing pipeline did about the injected element outages.
/// Deterministic per `(config.seed, plan.seed())` pair.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SubstrateSummary {
    /// The plain scenario summary.
    pub demo: DemoSummary,
    /// Substrate elements that went down over the run.
    pub element_failures: u64,
    /// Substrate elements that came back over the run.
    pub element_recoveries: u64,
    /// Slices moved onto an alternative transport path.
    pub reroutes: u64,
    /// Slices re-attached to a healthy cell.
    pub reattaches: u64,
    /// vEPC stacks re-placed on a healthy host.
    pub replacements: u64,
    /// Slices the pipeline could not repair (first entries into the
    /// substrate-degraded set).
    pub degraded: u64,
    /// Substrate-degraded slices repaired or restored by element recovery.
    pub repaired: u64,
    /// Slices transitioned back to `Active` after a substrate outage.
    pub restored: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::PolicyKind;
    use ovnes_api::{EndpointFaults, FaultPlan, SubstrateElement, SubstrateFaultPlan};

    fn quick_config(seed: u64) -> ScenarioConfig {
        ScenarioConfig {
            seed,
            arrivals_per_hour: 20.0,
            horizon: SimDuration::from_hours(3),
            mean_duration: SimDuration::from_mins(60),
            ..ScenarioConfig::default()
        }
    }

    fn chaos(config: ScenarioConfig, plan: FaultPlan) -> DemoScenario {
        let mut s = DemoScenario::build(config);
        s.orchestrator_mut().set_fault_plan(plan);
        s
    }

    fn substrate(config: ScenarioConfig, plan: SubstrateFaultPlan) -> DemoScenario {
        let mut s = DemoScenario::build(config);
        s.orchestrator_mut().set_substrate_plan(plan);
        s
    }

    fn run_chaos(config: ScenarioConfig, plan: FaultPlan) -> ChaosSummary {
        let mut s = chaos(config, plan);
        s.run();
        s.chaos_summary()
    }

    #[test]
    fn epochs_completed_counts_steps() {
        let mut s = DemoScenario::build(quick_config(5));
        assert_eq!(s.epochs_completed(), 0);
        assert!(s.step_epoch());
        assert_eq!(s.epochs_completed(), 1);
        assert!(s.step_epoch());
        assert!(s.step_epoch());
        assert_eq!(s.epochs_completed(), 3);
        while s.step_epoch() {}
        // 3-hour horizon at the default 1-minute epoch.
        assert_eq!(s.epochs_completed(), 180);
        // Stepping past the horizon changes nothing.
        assert!(!s.step_epoch());
        assert_eq!(s.epochs_completed(), 180);
    }

    #[test]
    fn generator_produces_valid_heterogeneous_requests() {
        let mut g = RequestGenerator::new(
            RequestMix::default(),
            SimDuration::from_hours(1),
            SimRng::seed_from(1),
        );
        let mut classes = [0usize; 3];
        for _ in 0..300 {
            let r = g.generate();
            assert!(r.sla.throughput.value() > 0.0);
            assert!(r.duration >= SimDuration::from_mins(10));
            assert!(r.price.cents() > 0);
            assert!(r.penalty.cents() >= 0);
            assert!(r.penalty < r.price);
            match r.class {
                SliceClass::Embb => classes[0] += 1,
                SliceClass::Urllc => classes[1] += 1,
                SliceClass::Mmtc => classes[2] += 1,
            }
        }
        assert!(
            classes.iter().all(|&c| c > 20),
            "all classes appear: {classes:?}"
        );
        assert!(classes[0] > classes[2], "mix weights respected");
    }

    #[test]
    fn interarrival_mean_matches_rate() {
        let mut g = RequestGenerator::new(
            RequestMix::default(),
            SimDuration::from_hours(1),
            SimRng::seed_from(2),
        );
        let n = 5000;
        let total: f64 = (0..n)
            .map(|_| g.next_interarrival(12.0).as_secs_f64())
            .sum();
        let mean_s = total / n as f64;
        assert!(
            (mean_s - 300.0).abs() < 15.0,
            "12/hour → 300 s, got {mean_s}"
        );
    }

    #[test]
    fn scenario_runs_and_admits() {
        let mut s = DemoScenario::build(quick_config(3));
        let summary = s.run();
        assert!(summary.submitted > 30, "{summary:?}");
        assert!(summary.admitted > 0);
        assert_eq!(summary.rejected, summary.submitted - summary.admitted);
        assert!(summary.epochs > 0);
        assert!(summary.gross_income.cents() > 0);
        assert!(summary.mean_active > 0.0);
        assert!(summary.admission_rate() > 0.0 && summary.admission_rate() <= 1.0);
    }

    #[test]
    fn scenario_is_deterministic() {
        let a = DemoScenario::build(quick_config(7)).run();
        let b = DemoScenario::build(quick_config(7)).run();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = DemoScenario::build(quick_config(1)).run();
        let b = DemoScenario::build(quick_config(2)).run();
        assert_ne!(a, b);
    }

    #[test]
    fn overbooking_beats_baseline_on_admissions() {
        let mut ob_cfg = quick_config(11);
        ob_cfg.arrivals_per_hour = 40.0; // pressure the RAN
        let mut base_cfg = ob_cfg.clone();
        base_cfg.orchestrator.overbooking_enabled = false;
        base_cfg.orchestrator.policy = PolicyKind::Fcfs;

        let ob = DemoScenario::build(ob_cfg).run();
        let base = DemoScenario::build(base_cfg).run();
        assert!(
            ob.admitted > base.admitted,
            "overbooked {} vs baseline {}",
            ob.admitted,
            base.admitted
        );
        assert!(ob.mean_savings > 0.0);
        assert!(base.mean_savings == 0.0);
        assert!(ob.peak_overbooking_factor > base.peak_overbooking_factor);
    }

    #[test]
    fn violation_rate_stays_moderate_at_default_quantile() {
        let mut cfg = quick_config(5);
        cfg.arrivals_per_hour = 30.0;
        let s = DemoScenario::build(cfg).run();
        // q = 0.95 with scheduler lending: well under 20% violated epochs.
        assert!(
            s.violation_rate() < 0.20,
            "violation rate {}",
            s.violation_rate()
        );
    }

    #[test]
    fn diurnal_arrivals_thin_to_the_profile() {
        // Compare submission counts in the profile's trough vs its crest by
        // running two 6 h windows: hours 6–12 contain the crest (sin peaks
        // at t = 6 h), hours 12–18 the decline toward the trough.
        let run_window = |diurnal: bool| {
            let cfg = ScenarioConfig {
                seed: 99,
                arrivals_per_hour: 30.0,
                diurnal_arrivals: diurnal,
                horizon: SimDuration::from_hours(24),
                ..ScenarioConfig::default()
            };
            DemoScenario::build(cfg).run().submitted
        };
        let flat = run_window(false);
        let diurnal = run_window(true);
        // Over a whole day the diurnal profile integrates to the same mean
        // rate; counts should be in the same ballpark (not, say, 1.6x).
        let ratio = diurnal as f64 / flat as f64;
        assert!((0.8..1.25).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn diurnal_runs_stay_deterministic() {
        let cfg = || ScenarioConfig {
            seed: 5,
            diurnal_arrivals: true,
            horizon: SimDuration::from_hours(4),
            ..ScenarioConfig::default()
        };
        assert_eq!(
            DemoScenario::build(cfg()).run(),
            DemoScenario::build(cfg()).run()
        );
    }

    #[test]
    fn summary_rates_handle_zero_division() {
        let s = DemoSummary {
            submitted: 0,
            admitted: 0,
            rejected: 0,
            expired: 0,
            epochs: 0,
            violations: 0,
            slice_epochs: 0,
            gross_income: Money::ZERO,
            penalties: Money::ZERO,
            net_revenue: Money::ZERO,
            mean_savings: 0.0,
            mean_overbooking_factor: 0.0,
            peak_overbooking_factor: 0.0,
            mean_active: 0.0,
        };
        assert_eq!(s.violation_rate(), 0.0);
        assert_eq!(s.admission_rate(), 0.0);
    }

    #[test]
    fn chaos_with_quiet_plan_matches_plain_run() {
        // A fault plan that injects nothing must leave the run
        // byte-identical to the plan-free scenario.
        let plain = DemoScenario::build(quick_config(21)).run();
        let chaos = run_chaos(quick_config(21), FaultPlan::new(999));
        assert_eq!(chaos.demo, plain);
        assert_eq!(chaos.control_retries, 0);
        assert_eq!(chaos.control_failures, 0);
        assert_eq!(chaos.degradations, 0);
    }

    #[test]
    fn chaos_runs_are_deterministic() {
        let run = || {
            let plan = FaultPlan::new(77)
                .with_endpoint("ran/health", EndpointFaults::none().with_drop(0.3));
            run_chaos(quick_config(4), plan)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn substrate_with_quiet_plan_matches_plain_run() {
        // A substrate plan that schedules nothing must leave the run
        // byte-identical to the plan-free scenario.
        let plain = DemoScenario::build(quick_config(21)).run();
        let mut s = substrate(quick_config(21), SubstrateFaultPlan::new(999));
        s.run();
        let summary = s.substrate_summary();
        assert_eq!(summary.demo, plain);
        assert_eq!(summary.element_failures, 0);
        assert_eq!(summary.degraded, 0);
        assert_eq!(summary.restored, 0);
    }

    #[test]
    fn substrate_runs_are_deterministic() {
        let run = || {
            let elements: Vec<SubstrateElement> = (0..7)
                .map(|l| SubstrateElement::Link(ovnes_model::LinkId::new(l)))
                .chain((0..2).map(|e| SubstrateElement::Cell(ovnes_model::EnbId::new(e))))
                .collect();
            let plan = SubstrateFaultPlan::new(77).with_random_outages(
                &elements,
                0.5,
                SimDuration::from_mins(10),
                SimDuration::from_hours(3),
            );
            let mut s = substrate(quick_config(4), plan);
            s.run();
            s.substrate_summary()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn substrate_faults_surface_in_summary() {
        // Take a cell down for half an hour mid-run: every slice attached
        // to it is either re-attached to the surviving cell or booked as
        // degraded — the repair pipeline must leave a visible trace.
        let plan = SubstrateFaultPlan::new(5).with_outage(
            SubstrateElement::Cell(EnbId::new(0)),
            SimTime::ZERO + SimDuration::from_mins(60),
            SimTime::ZERO + SimDuration::from_mins(90),
        );
        let mut s = substrate(quick_config(6), plan);
        s.run();
        let summary = s.substrate_summary();
        assert_eq!(summary.element_failures, 1, "{summary:?}");
        assert_eq!(summary.element_recoveries, 1, "{summary:?}");
        assert!(
            summary.reattaches + summary.degraded > 0,
            "no repair activity: {summary:?}"
        );
        // Whatever went substrate-degraded was repaired or restored by the
        // time the cell came back; nothing may stay degraded to the horizon.
        assert_eq!(
            s.orchestrator().substrate_degraded().len(),
            0,
            "{summary:?}"
        );
    }

    #[test]
    fn stepped_run_equals_monolithic_run() {
        let reference = DemoScenario::build(quick_config(31)).run();
        let mut stepped = DemoScenario::build(quick_config(31));
        while stepped.step_epoch() {}
        assert_eq!(stepped.summary(), reference);
    }

    #[test]
    fn resume_from_mid_run_state_matches_uninterrupted() {
        let reference = DemoScenario::build(quick_config(33)).run();

        let mut first = DemoScenario::build(quick_config(33));
        for _ in 0..17 {
            assert!(first.step_epoch());
        }
        let state = first.export_state();
        // Serde round-trip the state to prove resume survives the wire, not
        // just an in-memory clone.
        let json = serde_json::to_string(&state).unwrap();
        let decoded: ScenarioState = serde_json::from_str(&json).unwrap();
        assert_eq!(decoded, state);

        let mut resumed = DemoScenario::from_state(&decoded);
        let summary = resumed.run();
        assert_eq!(summary, reference);
    }

    #[test]
    fn resume_mid_chaos_run_matches_uninterrupted() {
        let plan = || {
            FaultPlan::new(77)
                .with_endpoint("transport/health", EndpointFaults::none().with_drop(0.4))
                .with_endpoint("ran/health", EndpointFaults::none().with_error(0.2))
        };
        let reference = run_chaos(quick_config(4), plan());

        let mut first = chaos(quick_config(4), plan());
        for _ in 0..11 {
            assert!(first.step_epoch());
        }
        let state = first.export_state();
        let mut resumed = DemoScenario::from_state(&state);
        resumed.run();
        assert_eq!(resumed.chaos_summary(), reference);
    }

    #[test]
    fn chaos_drops_surface_as_retries() {
        let plan = FaultPlan::new(13)
            .with_endpoint("transport/health", EndpointFaults::none().with_drop(0.3));
        let s = run_chaos(quick_config(6), plan);
        assert!(s.control_retries > 0, "{s:?}");
        assert!(s.control_calls > 0);
        // Retries mask most 30% drops (p(fail) ≈ 0.8%), so the run itself
        // proceeds normally.
        assert!(s.demo.admitted > 0);
    }
}
