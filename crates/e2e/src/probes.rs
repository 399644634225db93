//! Layer probes: what one call into each layer costs, on the live state.
//!
//! The traced repetition stops about ten times, between timed iterations,
//! exports the world's state and runs every probe on owned copies rebuilt
//! through the public `from_state` constructors. Nothing here runs inside a
//! timed span and nothing touches the world being measured. A probe's value
//! is the median over the rounds; `probe time × calls per operation` gives
//! the phase-share table, and what is left over is `core.unattributed_share`.

use crate::harness::{Opts, Rep, RepOutcome};
use crate::metrics::PER_LAYER;
use crate::report::{MetricValue, ShareRow};
use crate::stats::{drift_ratio, median, percentile};
use crate::trace::Tracer;
use crate::{Workload, WorkloadResult};
use ovnes_api::{decode, encode, MonitoringReport, SnapshotError, SnapshotManifest};
use ovnes_cloud::{epc_template, CloudController, DcKind, EpcSizing};
use ovnes_dashboard::DashboardView;
use ovnes_model::{
    Latency, Money, NodeId, PlmnId, Prbs, RateMbps, SliceClass, SliceId, SliceRequest, TenantId,
};
use ovnes_orchestrator::control::ControlPlane;
use ovnes_orchestrator::{
    spawn_domain_control_servers, FederationBroker, Orchestrator, OrchestratorState,
    OverbookingEngine, RequestGenerator, RequestMix, ResourceView, RunCursor, ScenarioConfig,
    ScenarioState, SlaMonitor, SliceState, WorldSnapshot,
};
use ovnes_ran::controller::OfferedLoad;
use ovnes_ran::{ChannelModel, PfScratch, PfState, RanController, UeChannel};
use ovnes_sim::par::{current_threads, par_map};
use ovnes_sim::{SimDuration, SimRng, SimTime};
use ovnes_transport::{cspf_with, RoutingScratch, TransportController};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Probe rounds per traced repetition.
pub const ROUNDS: u64 = 10;

/// The world a workload drives.
pub enum World<'a> {
    Single(&'a Orchestrator),
    Federation(&'a FederationBroker),
}

fn time_ns<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_nanos() as f64, out)
}

/// Median wall-clock of `n` calls of `f`, in nanoseconds.
fn median_ns(n: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..n).map(|_| time_ns(&mut f).0).collect();
    median(&mut samples)
}

pub struct Probes {
    /// Per metric, one value per round (in the metric's unit).
    rounds: BTreeMap<&'static str, Vec<f64>>,
    /// Samples pooled over all rounds, for metrics quoted as a percentile.
    pooled: BTreeMap<&'static str, Vec<f64>>,
    /// Numbers the phase-share table needs that are not metrics.
    facts: BTreeMap<&'static str, f64>,
    round_no: u64,
    store: Option<WorldSnapshot>,
    /// Logical bytes handed to the probe store, for the dedup ratio.
    logical_bytes: u64,
    /// Bytes of the `put_object` probe's own objects in the store.
    probe_object_bytes: u64,
    bus: ControlPlane,
    /// Three loopback servers and a control plane routed to them, spawned
    /// once and reused by every round.
    sockets: Option<(Vec<ovnes_api::RpcServer>, ControlPlane)>,
    pub failures: Vec<String>,
}

impl Probes {
    pub fn new(opts: &Opts) -> Probes {
        let mut failures = Vec::new();
        let store = WorldSnapshot::open(opts.scratch_dir().join("probes"))
            .map_err(|e| failures.push(format!("probe store: {e}")))
            .ok();
        let sockets = spawn_domain_control_servers()
            .map(|(servers, socket)| {
                let mut plane = ControlPlane::new();
                plane.install_socket(socket);
                (servers, plane)
            })
            .map_err(|e| failures.push(format!("probe servers: {e}")))
            .ok();
        Probes {
            rounds: BTreeMap::new(),
            pooled: BTreeMap::new(),
            facts: BTreeMap::new(),
            round_no: 0,
            store,
            logical_bytes: 0,
            probe_object_bytes: 0,
            bus: ControlPlane::new(),
            sockets,
            failures,
        }
    }

    fn put(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not a metric"
        );
        self.rounds.entry(name).or_default().push(value);
    }

    fn pool(&mut self, name: &'static str, value: f64) {
        self.pooled.entry(name).or_default().push(value);
    }

    fn fact(&mut self, name: &'static str, value: f64) {
        self.facts.insert(name, value);
    }

    /// Run a round after timed epoch `epoch` (0-based) if one is due.
    pub fn maybe_round(&mut self, epoch: u64, epochs: u64, world: &World<'_>) {
        let every = (epochs / ROUNDS).max(1);
        if (epoch + 1).is_multiple_of(every) {
            self.round(world);
        }
    }

    fn round(&mut self, world: &World<'_>) {
        self.round_no += 1;
        match world {
            World::Single(orchestrator) => {
                let (ns, state) = time_ns(|| orchestrator.export_state());
                self.put("core.export_state_ms", ns / 1e6);
                self.orchestrator_round(orchestrator, &state);
                self.checkpoint_single(&state);
            }
            World::Federation(broker) => {
                let (ns, state) = time_ns(|| broker.export_state());
                self.put("federation.export_state_ms", ns / 1e6);
                let region = &state.regions[0].orchestrator;
                let (ns, _) = time_ns(|| broker.orchestrator(0).export_state());
                self.put("core.export_state_ms", ns / 1e6);
                self.orchestrator_round(broker.orchestrator(0), region);
                // One region rebuilt from state and stepped alone.
                let mut alone = Orchestrator::from_state(region);
                let epoch = region.config.epoch;
                let mut now = region.last_epoch_at.unwrap_or(SimTime::ZERO);
                let ns = median_ns(3, || {
                    now += epoch;
                    black_box(alone.run_epoch(now));
                });
                self.put("federation.region_epoch_ms_p50", ns / 1e6);
                self.fact("regions", state.regions.len() as f64);
                self.serialize_probe(&state);
                let written = self.store.as_ref().map(|s| s.snapshot_federation(&state));
                self.book_checkpoint(written);
            }
        }
    }

    /// Checkpoint a single world into the probe store as a scenario state.
    fn checkpoint_single(&mut self, state: &OrchestratorState) {
        self.serialize_probe(state);
        let scenario = ScenarioState {
            config: ScenarioConfig {
                orchestrator: state.config.clone(),
                ..ScenarioConfig::default()
            },
            orchestrator: state.clone(),
            generator: RequestGenerator::new(
                RequestMix::default(),
                SimDuration::from_hours(1),
                SimRng::seed_from(0),
            ),
            // The store orders checkpoints by the cursor's epoch count.
            cursor: Some(RunCursor {
                now: state.last_epoch_at.unwrap_or(SimTime::ZERO),
                next_arrival: SimTime::ZERO,
                submitted: 0,
                admitted: 0,
                violations: 0,
                slice_epochs: 0,
                savings_sum: 0.0,
                ob_sum: 0.0,
                ob_peak: 0.0,
                busy_epochs: 0,
                active_sum: 0,
                epochs: self.round_no,
            }),
        };
        let written = self.store.as_ref().map(|s| s.snapshot(&scenario));
        self.book_checkpoint(written);
    }

    /// Add a probe checkpoint's logical bytes to the dedup ratio's numerator.
    fn book_checkpoint(&mut self, written: Option<Result<SnapshotManifest, SnapshotError>>) {
        match written {
            Some(Ok(manifest)) => {
                self.logical_bytes += manifest.sections.values().map(|s| s.bytes).sum::<u64>();
            }
            Some(Err(e)) => self.failures.push(format!("probe checkpoint: {e}")),
            None => {}
        }
    }

    /// `core.snapshot` and the hashing and storing under it.
    fn serialize_probe<T: serde::Serialize>(&mut self, state: &T) {
        // The store renders the state to a JSON tree and then to bytes.
        let (ns, bytes) = time_ns(|| {
            serde_json::to_value(state)
                .and_then(|tree| serde_json::to_vec(&tree))
                .unwrap_or_default()
        });
        self.put("snapshot.serialize_ms", ns / 1e6);
        self.put("snapshot.bytes", bytes.len() as f64);
        let (ns, hash) = time_ns(|| ovnes_api::snapshot::sha256(&bytes));
        black_box(hash);
        self.put("api.sha256_mb_per_s", bytes.len() as f64 / 1e6 / (ns / 1e9));
        if let Some(store) = &self.store {
            // A 64 KiB object nobody stored before: the round number salts it.
            let mut object = self.round_no.to_le_bytes().to_vec();
            object.extend(bytes.iter().cycle().take(64 * 1024));
            let (ns, put) = time_ns(|| store.store().put_object(&object));
            match put {
                Ok(_) => {
                    self.probe_object_bytes += object.len() as u64;
                    self.put("api.put_object_us", ns / 1e3);
                }
                Err(e) => self.failures.push(format!("probe put_object: {e}")),
            }
        }
    }

    fn orchestrator_round(&mut self, live: &Orchestrator, state: &OrchestratorState) {
        let now = state.last_epoch_at.unwrap_or(SimTime::ZERO);
        let (ns, mut copy) = time_ns(|| Orchestrator::from_state(state));
        self.put("core.from_state_ms", ns / 1e6);
        let active: Vec<SliceId> = state
            .records
            .values()
            .filter(|r| matches!(r.state, SliceState::Active | SliceState::Degraded))
            .map(|r| r.id)
            .collect();
        self.fact("slices_active", active.len() as f64);
        self.fact("reconfig_every", state.config.reconfig_every as f64);
        self.fact("fairness", state.config.ue_fairness_tracking as u8 as f64);

        self.sim_probes(live);
        let loads = self.ran_probes(live, state, &active, now);
        self.transport_probes(state, now);
        self.cloud_probes(state, now);
        self.forecast_probes(state, &active);
        self.core_probes(state, &active, now, &mut copy);
        self.api_probes(live, now);
        self.dashboard_probes(live);
        black_box(loads);
    }

    fn sim_probes(&mut self, live: &Orchestrator) {
        let workers = current_threads();
        let ns = median_ns(50, || {
            black_box(par_map(vec![0u8; workers], |x| x));
        });
        self.put("sim.par_map_overhead_us", ns / 1e3);
        let mut rng = SimRng::seed_from(self.round_no);
        let draws = 100_000;
        let (ns, sum) = time_ns(|| (0..draws).map(|_| rng.uniform()).sum::<f64>());
        black_box(sum);
        self.put("sim.rng_draw_ns", ns / draws as f64);
        // The three registries an epoch snapshots for its monitoring pushes.
        let ns = median_ns(5, || {
            black_box(live.ran().metrics().scalar_snapshot());
            black_box(live.transport().metrics().scalar_snapshot());
            black_box(live.cloud().metrics().scalar_snapshot());
        });
        self.put("sim.scalar_snapshot_us", ns / 1e3);
    }

    /// The UE plane on copies of the live populations, then the slice
    /// scheduler on loads rebuilt from the last timeline points.
    fn ran_probes(
        &mut self,
        live: &Orchestrator,
        state: &OrchestratorState,
        active: &[SliceId],
        now: SimTime,
    ) -> Vec<OfferedLoad> {
        let channel = ChannelModel::urban_small_cell();
        let rates = state.cell.rate_table();
        let mobility = state.config.mobility;
        let (mut step, mut cqi_ns, mut chan, mut pf_ns) = (0.0, 0.0, 0.0, Vec::new());
        let mut ues = 0usize;
        let mut loads = Vec::with_capacity(active.len());
        let mut channels: Vec<UeChannel> = Vec::new();
        let mut scratch = PfScratch::new();
        let mut shares = Vec::new();
        for id in active {
            let Some(sim) = state.sim_state.get(id) else {
                continue;
            };
            let mut population = sim.ues.clone();
            let mut rng = sim.rng.clone();
            ues += population.len();
            step += time_ns(|| population.step_all(&mobility, &mut rng)).0;
            let (ns, cqi) = time_ns(|| population.average_cqi(&channel, &mut rng));
            cqi_ns += ns;
            chan += time_ns(|| {
                population.sample_channels_into(&channel, &rates, &mut rng, &mut channels)
            })
            .0;
            let reserved = live
                .ran()
                .reservation(*id)
                .map_or(Prbs::new(8), |r| r.reserved);
            let mut pf: PfState = state.pf.get(id).cloned().unwrap_or_default();
            pf_ns.push(
                time_ns(|| pf.schedule_into(reserved, &channels, 0.1, &mut scratch, &mut shares)).0,
            );
            let offered = state
                .timelines
                .get(id)
                .and_then(|t| t.offered.last())
                .map_or(RateMbps::ZERO, |(_, v)| RateMbps::new(v));
            loads.push(OfferedLoad {
                slice: *id,
                offered,
                prb_rate: cqi.map_or(RateMbps::ZERO, |c| state.cell.prb_rate(c)),
            });
        }
        self.fact("ues_attached", ues as f64);
        if ues > 0 {
            self.put("ran.ue_step_ns_per_ue", step / ues as f64);
            self.put("ran.cqi_sample_ns_per_ue", cqi_ns / ues as f64);
            self.put("ran.channel_sample_ns_per_ue", chan / ues as f64);
            self.put("ran.pf_schedule_us_per_slice", median(&mut pf_ns) / 1e3);
        }

        let mut ran = RanController::from_state(state.ran.clone());
        let mut outcomes = Vec::new();
        let ns = median_ns(3, || ran.run_epoch_into(now, &loads, &mut outcomes));
        self.put("ran.slice_schedule_us", ns / 1e3);
        let snapshot = ran.snapshot();
        let total: u32 = snapshot.enbs.iter().map(|r| r.total.value()).sum();
        let reserved: u32 = snapshot.enbs.iter().map(|r| r.reserved.value()).sum();
        self.put("ran.prb_utilization", reserved as f64 / total.max(1) as f64);
        // Install and release one PRB on whichever cell still takes a PLMN.
        let probe = SliceId::new(u64::MAX - self.round_no);
        let room = snapshot
            .enbs
            .iter()
            .find(|r| r.up && r.plmns < state.cell.max_plmns && r.reserved < r.total);
        if let Some(row) = room {
            let (ns, done) = time_ns(|| {
                ran.install(
                    row.enb,
                    probe,
                    PlmnId::test_slice_plmn(98),
                    Prbs::new(1),
                    Prbs::new(1),
                )
                .and_then(|()| ran.release(probe))
            });
            if done.is_ok() {
                self.put("ran.install_release_us", ns / 1e3);
            }
        }
        loads
    }

    fn transport_probes(&mut self, state: &OrchestratorState, now: SimTime) {
        let mut cached = TransportController::from_state(&state.transport);
        let topo = cached.topology();
        self.put("transport.nodes", topo.node_count() as f64);
        self.put("transport.links", topo.link_count() as f64);
        // Endpoints of the live paths; on an idle world, first site to first DC.
        let mut pairs: Vec<(SliceId, NodeId, NodeId)> = state
            .placements
            .keys()
            .filter_map(|&id| {
                let path = &cached.reservation(id)?.path;
                Some((id, *path.nodes.first()?, *path.nodes.last()?))
            })
            .take(16)
            .collect();
        if pairs.is_empty() {
            let site = topo
                .nodes()
                .iter()
                .find(|n| matches!(n.kind, ovnes_transport::NodeKind::RadioSite(_)));
            let dc = topo
                .nodes()
                .iter()
                .find(|n| matches!(n.kind, ovnes_transport::NodeKind::DataCenter(_)));
            if let (Some(site), Some(dc)) = (site, dc) {
                pairs.push((SliceId::new(0), site.id, dc.id));
            }
        }
        let mut scratch = RoutingScratch::new();
        let mut cspf: Vec<f64> = pairs
            .iter()
            .map(|&(_, src, dst)| {
                time_ns(|| {
                    black_box(cspf_with(
                        &mut scratch,
                        topo,
                        src,
                        dst,
                        |_| true,
                        |l| topo.link(l).delay,
                        Latency::new(1e9),
                    ))
                })
                .0
            })
            .collect();
        self.put("transport.cspf_us_p50", median(&mut cspf) / 1e3);

        let mut uncached = TransportController::from_state(&state.transport);
        uncached.set_route_cache_enabled(false);
        let (bandwidth, budget) = (RateMbps::new(1.0), Latency::new(1e6));
        let (mut miss, mut hit, mut release) = (Vec::new(), Vec::new(), Vec::new());
        for (i, &(_, src, dst)) in pairs.iter().enumerate() {
            let first = SliceId::new(u64::MAX - 2 * i as u64);
            let second = SliceId::new(u64::MAX - 2 * i as u64 - 1);
            let (ns, done) = time_ns(|| uncached.allocate(first, src, dst, bandwidth, budget));
            if done.is_ok() {
                miss.push(ns);
                release.push(time_ns(|| uncached.release(first)).0);
            }
            // Same key twice with no release between: the second is a hit.
            if cached.allocate(first, src, dst, bandwidth, budget).is_ok() {
                let (ns, done) = time_ns(|| cached.allocate(second, src, dst, bandwidth, budget));
                if done.is_ok() {
                    hit.push(ns);
                    let _ = cached.release(second);
                }
                let _ = cached.release(first);
            }
        }
        if !miss.is_empty() {
            self.put("transport.allocate_miss_us", median(&mut miss) / 1e3);
            self.put("transport.release_us", median(&mut release) / 1e3);
        }
        if !hit.is_empty() {
            self.put("transport.allocate_hit_us", median(&mut hit) / 1e3);
        }
        let mut reroute: Vec<f64> = pairs
            .iter()
            .filter_map(|&(id, _, _)| {
                cached.reservation(id)?;
                Some(time_ns(|| black_box(cached.reroute(id))).0)
            })
            .collect();
        if !reroute.is_empty() {
            self.put("transport.reroute_us_p50", median(&mut reroute) / 1e3);
        }
        let ns = median_ns(3, || cached.record_epoch(now));
        self.put("transport.record_epoch_us", ns / 1e3);
    }

    fn cloud_probes(&mut self, state: &OrchestratorState, now: SimTime) {
        let mut cloud = CloudController::from_state(&state.cloud);
        let request = state
            .records
            .values()
            .next_back()
            .map_or_else(|| typical_request(0), |r| r.request.clone());
        let kind = if request.needs_edge {
            DcKind::Edge
        } else {
            DcKind::Core
        };
        let (mut deploy, mut scale, mut redeploy, mut delete) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for i in 0..8 {
            let id = SliceId::new(u64::MAX - i);
            let template = epc_template(id, &request.compute_demand(), &EpcSizing::default());
            let Some(dc) = cloud.find_dc(kind, &template) else {
                break;
            };
            let (ns, done) = time_ns(|| cloud.deploy(id, dc, &template));
            if done.is_err() {
                break;
            }
            deploy.push(ns);
            scale.push(time_ns(|| black_box(cloud.scale_for_slice(id, 0.5))).0);
            redeploy.push(time_ns(|| black_box(cloud.redeploy_for_slice(id, &template).is_ok())).0);
            delete.push(time_ns(|| black_box(cloud.delete_for_slice(id).is_ok())).0);
        }
        if !deploy.is_empty() {
            self.put("cloud.deploy_us_p50", median(&mut deploy) / 1e3);
            self.put("cloud.scale_us", median(&mut scale) / 1e3);
            self.put("cloud.redeploy_us", median(&mut redeploy) / 1e3);
            self.put("cloud.delete_us", median(&mut delete) / 1e3);
        }
        let ns = median_ns(3, || cloud.record_epoch(now));
        self.put("cloud.record_epoch_us", ns / 1e3);
    }

    fn forecast_probes(&mut self, state: &OrchestratorState, active: &[SliceId]) {
        let mut engine = OverbookingEngine::from_state(&state.engine);
        if !active.is_empty() {
            let (ns, ()) = time_ns(|| active.iter().for_each(|&id| engine.observe(id, 0.5)));
            self.put("forecast.observe_ns_per_slice", ns / active.len() as f64);
            let (ns, ()) = time_ns(|| {
                active.iter().for_each(|&id| {
                    black_box(engine.target_fraction(id));
                })
            });
            self.put("forecast.quantile_ns", ns / active.len() as f64);
        }
        let ns = median_ns(20, || {
            black_box(engine.class_demand());
        });
        self.put("forecast.class_demand_us", ns / 1e3);
        let slices: Vec<(SliceId, SliceRequest)> = active
            .iter()
            .filter_map(|id| Some((*id, state.records.get(id)?.request.clone())))
            .collect();
        let mut ran = RanController::from_state(state.ran.clone());
        let mut transport = TransportController::from_state(&state.transport);
        let rate = state.config.allocator.planning_prb_rate;
        let (ns, applied) = time_ns(|| engine.reconfigure(&slices, rate, &mut ran, &mut transport));
        self.put("forecast.reconfigure_us", ns / 1e3);
        self.fact("reconfigured_per_round", applied.len() as f64);
    }

    fn core_probes(
        &mut self,
        state: &OrchestratorState,
        active: &[SliceId],
        now: SimTime,
        copy: &mut Orchestrator,
    ) {
        let engine = OverbookingEngine::from_state(&state.engine);
        let view = ResourceView {
            available_prbs: Prbs::new(50),
            ran_utilization: 0.5,
            planning_prb_rate: state.config.allocator.planning_prb_rate,
            class_demand: engine.class_demand(),
        };
        let mut policy = state.config.policy.build();
        let request = typical_request(1);
        let calls = 1000;
        let (ns, ()) = time_ns(|| {
            (0..calls).for_each(|_| {
                black_box(policy.decide(&request, &view));
            })
        });
        self.put("core.policy_decide_ns", ns / calls as f64);

        let mut sla = SlaMonitor::from_state(&state.sla);
        let mut records: Vec<_> = active
            .iter()
            .filter_map(|id| state.records.get(id).cloned())
            .collect();
        if !records.is_empty() {
            let (ns, ()) = time_ns(|| {
                for record in &mut records {
                    let offered = record.request.sla.throughput;
                    let verdict = sla.assess(record, offered, offered, Latency::new(1.0));
                    sla.book_epoch(now, record, &verdict);
                }
            });
            self.put("core.sla_assess_ns_per_slice", ns / records.len() as f64);
        }

        // Request → decision on the copy: one request any world admits, one
        // no world can, and eight of the demo's mix.
        let mut generator = RequestGenerator::new(
            RequestMix::default(),
            SimDuration::from_mins(30),
            SimRng::seed_from(self.round_no),
        );
        let mut requests = vec![probe_request(0.2), probe_request(1e6)];
        requests.extend((0..8).map(|_| generator.generate()));
        for request in requests {
            let (ns, decision) = time_ns(|| copy.submit(now, request));
            self.pool("core.submit_us_p95", ns / 1e3);
            self.pool(
                if decision.is_ok() {
                    "core.submit_admit_us_p50"
                } else {
                    "core.submit_reject_us_p50"
                },
                ns / 1e3,
            );
        }
    }

    /// The codec and the two transports, on the three reports the last
    /// epoch pushed. The metrics quote the largest report; the phase-share
    /// table needs the sum over all three (`*_all_us` facts).
    fn api_probes(&mut self, live: &Orchestrator, now: SimTime) {
        let mut largest: Option<(usize, f64, f64)> = None;
        let (mut encode_all, mut decode_all, mut bus_all, mut socket_all) = (0.0, 0.0, 0.0, 0.0);
        for report in live.monitoring() {
            let Ok(bytes) = encode(report) else {
                continue;
            };
            let encode_ns = median_ns(5, || {
                black_box(encode(report).is_ok());
            });
            let decode_ns = median_ns(5, || {
                black_box(decode::<MonitoringReport>(&bytes).is_ok());
            });
            encode_all += encode_ns / 1e3;
            decode_all += decode_ns / 1e3;
            if largest.is_none_or(|(len, _, _)| bytes.len() > len) {
                largest = Some((bytes.len(), encode_ns, decode_ns));
            }
            let endpoint = format!("{}/monitoring", report.domain);
            let bus = &mut self.bus;
            bus_all += median_ns(5, || {
                black_box(
                    bus.call_checked(now, &endpoint, bytes.clone(), |_| true)
                        .is_some(),
                );
            }) / 1e3;
            if let Some((_, plane)) = self.sockets.as_mut() {
                let push = median_ns(5, || {
                    black_box(
                        plane
                            .call_checked(now, &endpoint, bytes.clone(), |_| true)
                            .is_some(),
                    );
                }) / 1e3;
                socket_all += push;
                if largest.is_some_and(|(len, _, _)| len == bytes.len()) {
                    self.put("api.socket_monitoring_rtt_us_p50", push);
                }
            }
        }
        if let Some((len, encode_ns, decode_ns)) = largest {
            self.put("api.report_bytes", len as f64);
            self.put("api.encode_us", encode_ns / 1e3);
            self.put("api.decode_us", decode_ns / 1e3);
        }
        self.fact("encode_all_us", encode_all);
        self.fact("decode_all_us", decode_all);
        self.fact("bus_push_all_us", bus_all);
        self.fact("socket_push_all_us", socket_all);

        let bus = &mut self.bus;
        let ns = median_ns(50, || {
            black_box(bus.probe(now, "ran"));
        });
        self.put("api.bus_call_us_p50", ns / 1e3);

        let Some((_, plane)) = self.sockets.as_mut() else {
            return;
        };
        let mut rtts: Vec<f64> = (0..100)
            .map(|_| time_ns(|| black_box(plane.probe(now, "ran"))).0 / 1e3)
            .collect();
        let batch = 200;
        let calls: Vec<(String, Vec<u8>)> = (0..batch)
            .map(|_| ("ran/health".to_string(), Vec::new()))
            .collect();
        let pipelined = plane
            .socket_mut()
            .map(|socket| time_ns(|| socket.call_pipelined(calls)));
        for rtt in &rtts {
            self.pool("api.socket_rtt_us_p95", *rtt);
        }
        self.put("api.socket_rtt_us_p50", median(&mut rtts));
        if let Some((ns, answers)) = pipelined {
            if answers.iter().all(Result::is_ok) {
                self.put("api.pipelined_calls_per_s", batch as f64 / (ns / 1e9));
            } else {
                self.failures.push("a pipelined probe call failed".into());
            }
        }
    }

    fn dashboard_probes(&mut self, live: &Orchestrator) {
        let mut bytes = 0;
        let ns = median_ns(3, || {
            bytes = black_box(DashboardView::capture(live).render()).len();
        });
        self.put("dashboard.capture_render_us_p50", ns / 1e3);
        self.put("dashboard.render_bytes", bytes as f64);
    }

    /// Median over the rounds of every probe, by metric name.
    fn medians(&mut self) -> BTreeMap<&'static str, (f64, u64)> {
        let mut out = BTreeMap::new();
        for (name, values) in &mut self.rounds {
            out.insert(*name, (median(values), values.len() as u64));
        }
        for (name, values) in &mut self.pooled {
            values.sort_by(f64::total_cmp);
            let p = if name.ends_with("p95") { 95.0 } else { 50.0 };
            out.insert(*name, (percentile(values, p), values.len() as u64));
        }
        if let Some(store) = &self.store {
            if let (Ok(bytes), Ok(objects)) =
                (store.store().object_bytes(), store.store().object_count())
            {
                out.insert("snapshot.store_bytes", (bytes as f64, 1));
                out.insert("snapshot.objects", (objects as f64, 1));
                let checkpoints = bytes.saturating_sub(self.probe_object_bytes);
                if checkpoints > 0 {
                    out.insert(
                        "snapshot.dedup_ratio",
                        (
                            self.logical_bytes as f64 / checkpoints as f64,
                            self.round_no,
                        ),
                    );
                }
                // One of each round's objects is the `put_object` probe's.
                let new_per_round = objects as f64 / self.round_no.max(1) as f64 - 1.0;
                self.facts
                    .insert("new_objects_per_snapshot", new_per_round.max(0.0));
            }
        }
        out
    }
}

fn typical_request(tenant: u64) -> SliceRequest {
    SliceRequest::builder(TenantId::new(tenant), SliceClass::Embb)
        .throughput(RateMbps::new(20.0))
        .duration(SimDuration::from_mins(30))
        .price(Money::from_units(80))
        .penalty(Money::from_units(1))
        .build()
        .expect("positive parameters")
}

fn probe_request(throughput: f64) -> SliceRequest {
    SliceRequest::builder(TenantId::new(u64::MAX), SliceClass::Mmtc)
        .throughput(RateMbps::new(throughput))
        .duration(SimDuration::from_mins(10))
        .price(Money::from_units(5))
        .penalty(Money::from_units(1))
        .build()
        .expect("positive parameters")
}

fn share_rows(of: &str, total_us: f64, parts: &[(&str, f64)]) -> Vec<ShareRow> {
    let attributed: f64 = parts.iter().map(|(_, us)| us).sum();
    parts
        .iter()
        .copied()
        .chain([("unattributed", total_us - attributed)])
        .map(|(layer, us_per_op)| ShareRow {
            of: of.into(),
            layer: layer.into(),
            us_per_op,
            share: if total_us > 0.0 {
                us_per_op / total_us
            } else {
                0.0
            },
        })
        .collect()
}

/// One untraced repetition came first (`outcomes`); now run one with the
/// span recorder and the probes, and fill `result.per_layer` and the
/// phase-share table.
pub fn traced_repetition(
    workload: Workload,
    opts: &Opts,
    outcomes: &[RepOutcome],
    result: &mut WorkloadResult,
) {
    let untraced = &outcomes[0];
    let mut tracer = Tracer::with_capacity(1 << 16);
    let mut probes = Probes::new(opts);
    let traced = workload.run_rep(opts, Rep::new(Some(&mut tracer), Some(&mut probes)));
    let trace_path = opts
        .out_dir
        .join(format!("trace-{}.jsonl", workload.name()));
    if let Err(e) = tracer.write_jsonl(&trace_path) {
        result.add_failure(format!("cannot write {}: {e}", trace_path.display()));
    }
    for failure in traced.failures.iter().chain(&probes.failures) {
        result.add_failure(format!("traced repetition: {failure}"));
    }
    if traced.sim_digest != untraced.sim_digest {
        result.add_failure(format!(
            "traced repetition digest {} != untraced {}",
            traced.sim_digest, untraced.sim_digest
        ));
    }

    let probed = probes.medians();
    let facts = probes.facts.clone();
    let get = |name: &str| probed.get(name).map_or(0.0, |(v, _)| *v);
    let fact = |name: &str| facts.get(name).copied().unwrap_or(0.0);
    let count = |name: &str| traced.counts.get(name).copied().unwrap_or(0.0);
    let mut values: BTreeMap<&'static str, (f64, u64)> = probed.clone();

    // From the timed loop of the traced repetition.
    let traced_epoch_ms = traced.series.epoch_ms();
    let mut sorted = traced_epoch_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let epochs = sorted.len() as u64;
    values.insert("core.epoch_ms_p95", (percentile(&sorted, 95.0), epochs));
    values.insert(
        "core.epoch_ms_max",
        (sorted.last().copied().unwrap_or(0.0), epochs),
    );
    values.insert(
        "core.epoch_drift_ratio",
        (drift_ratio(&traced_epoch_ms).unwrap_or(0.0), epochs),
    );
    // Sim-side counts read from public accessors.
    for metric in PER_LAYER
        .iter()
        .filter(|m| m.unit == "count" || m.name == "transport.route_cache_hit_rate")
    {
        if let Some(value) = traced.counts.get(metric.name) {
            values.entry(metric.name).or_insert((*value, 1));
        }
    }
    // The workload's own end-to-end numbers, from the untraced repetition.
    for (name, key) in [
        ("e2e.submit_us_p50", "submit_us_p50"),
        ("e2e.socket_over_bus_ratio", "socket_over_bus_ratio"),
        ("e2e.snapshot_ms_p50", "snapshot_ms_p50"),
        ("e2e.restore_ms_p50", "restore_ms_p50"),
    ] {
        let found = result.end_to_end.get(key);
        values.insert(name, found.map_or((0.0, 0), |v| (v.value, v.samples)));
    }
    let overhead = (untraced.series.epochs_per_s() / traced.series.epochs_per_s() - 1.0) * 100.0;
    values.insert("e2e.trace_overhead_pct", (overhead, 1));

    // ---- phase shares -----------------------------------------------------
    // Calls per epoch follow `Orchestrator::run_epoch`. Work that `par_map`
    // spreads over the workers is divided by their number, because an epoch
    // waits for its slowest chunk — unless the workload is confined to one
    // CPU, where the chunks run one after the other and the epoch costs their
    // sum. A federation steps its regions in parallel the same way.
    let workers = if result.cpu.is_some() {
        1.0
    } else {
        result.workers as f64
    };
    let regions = fact("regions").max(1.0);
    let lanes = if regions > 1.0 {
        regions / workers.min(regions)
    } else {
        1.0
    };
    let slices = fact("slices_active");
    let ues = fact("ues_attached");
    let fairness = fact("fairness");
    let total_epochs = traced.series.epochs().max(1) as f64;
    let over_sockets = workload == Workload::SocketFaults;
    // Three health probes, then per report: encode, push, and two decodes
    // (the acceptance check and the copy the orchestrator keeps).
    let (call_us, push_all_us) = if over_sockets {
        (get("api.socket_rtt_us_p50"), fact("socket_push_all_us"))
    } else {
        (get("api.bus_call_us_p50"), fact("bus_push_all_us"))
    };
    let ue_ns = get("ran.ue_step_ns_per_ue")
        + get("ran.cqi_sample_ns_per_ue")
        + fairness * get("ran.channel_sample_ns_per_ue");
    let ue_split = if regions > 1.0 { 1.0 } else { workers };
    let ran_us = ues * ue_ns / 1e3 / ue_split
        + fairness * slices * get("ran.pf_schedule_us_per_slice")
        + get("ran.slice_schedule_us");
    let reconfigs = count("core.reconfigurations") / regions / total_epochs;
    let parts = [
        ("ran", ran_us * lanes),
        (
            "sim",
            (get("sim.scalar_snapshot_us") + 2.0 * get("sim.par_map_overhead_us")) * lanes,
        ),
        (
            "api",
            (fact("encode_all_us") + 2.0 * fact("decode_all_us") + 3.0 * call_us + push_all_us)
                * lanes,
        ),
        (
            "transport",
            (get("transport.record_epoch_us")
                + count("transport.reroutes") / regions / total_epochs
                    * get("transport.reroute_us_p50"))
                * lanes,
        ),
        (
            "cloud",
            (get("cloud.record_epoch_us")
                + reconfigs * get("cloud.scale_us")
                + count("cloud.redeploys") / regions / total_epochs * get("cloud.redeploy_us"))
                * lanes,
        ),
        (
            "forecast",
            (slices * get("forecast.observe_ns_per_slice") / 1e3
                + (get("forecast.reconfigure_us") + slices * get("forecast.quantile_ns") / 1e3)
                    / fact("reconfig_every").max(1.0))
                * lanes,
        ),
        (
            "core",
            slices * get("core.sla_assess_ns_per_slice") / 1e3 * lanes,
        ),
    ];
    let epoch_mean_us = traced_epoch_ms.iter().sum::<f64>() / total_epochs * 1e3;
    let mut shares = share_rows("epoch", epoch_mean_us, &parts);
    let unattributed = shares.last().map_or(0.0, |row| row.share);
    values.insert("core.unattributed_share", (unattributed, epochs));

    let hit_rate = count("transport.route_cache_hit_rate");
    let submit_us = get("core.submit_admit_us_p50");
    shares.extend(share_rows(
        "submit",
        submit_us,
        &[
            (
                "core",
                get("core.policy_decide_ns") / 1e3 + get("forecast.class_demand_us"),
            ),
            ("ran", get("ran.install_release_us") / 2.0),
            (
                "transport",
                hit_rate * get("transport.allocate_hit_us")
                    + (1.0 - hit_rate) * get("transport.allocate_miss_us"),
            ),
            ("cloud", get("cloud.deploy_us_p50")),
        ],
    ));
    let snapshot_us = result
        .end_to_end
        .get("snapshot_ms_p50")
        .map_or(0.0, |v| v.value * 1e3);
    if snapshot_us > 0.0 {
        let bytes = get("snapshot.bytes");
        shares.extend(share_rows(
            "snapshot",
            snapshot_us,
            &[
                ("core", get("federation.export_state_ms") * 1e3),
                ("core.snapshot", get("snapshot.serialize_ms") * 1e3),
                ("api.sha256", bytes / get("api.sha256_mb_per_s").max(1e-9)),
                // Sections already in the store are hashed but not written.
                (
                    "api.put_object",
                    fact("new_objects_per_snapshot")
                        * (get("api.put_object_us")
                            - 65_536.0 / get("api.sha256_mb_per_s").max(1e-9))
                        .max(0.0),
                ),
            ],
        ));
    }
    result.phase_share = shares;

    for metric in PER_LAYER {
        let (value, samples) = values.get(metric.name).copied().unwrap_or((0.0, 0));
        result.per_layer.insert(
            metric.name.into(),
            MetricValue::single(value, metric.unit, samples),
        );
    }
}
