//! The data plane of an epoch: per-slice traffic and radio sampling (the
//! parallel hot path), the RAN schedule, then measurement, SLA judgement
//! and the forecaster feed, serially in slice-id order.

use super::{Orchestrator, SliceSimSnapshot, SliceTimeline};
use crate::sla::SlaVerdict;
use ovnes_model::{Latency, Prbs, RateMbps, SliceId, UeId};
use ovnes_ran::controller::OfferedLoad;
use ovnes_ran::{jain_index, PfScratch, SliceScheduleOutcome, UeChannel, UeShare};
use ovnes_sim::{SimTime, TimeSeries, SERIES_WINDOW};

/// Per-slice simulation state mutated by the epoch hot path. Grouped in one
/// struct so the parallel compute phase can hand each slice to a worker as
/// a single disjoint `&mut` borrow.
pub(super) struct SliceSimState {
    /// The checkpointed part: traffic process, UE population and the
    /// slice's private radio RNG stream.
    pub(super) durable: SliceSimSnapshot,
    /// This epoch's per-UE channel draws for the PF fairness split, written
    /// by the parallel compute phase and read by the serial apply (empty
    /// unless fairness tracking is on). Persistent so steady-state epochs
    /// reuse its capacity instead of allocating a fresh vector per slice.
    pub(super) channels: Vec<UeChannel>,
}

/// Reusable buffers for the epoch hot path, threaded through every
/// [`Orchestrator::run_epoch`] so the steady state re-spends capacity
/// grown in earlier epochs instead of allocating: the RAN schedule
/// outcomes, the PF grant-loop scratch, and the share/rate vectors the
/// fairness telemetry reduces over.
#[derive(Default)]
pub(super) struct EpochScratch {
    outcomes: Vec<SliceScheduleOutcome>,
    shares: Vec<UeShare>,
    rates: Vec<f64>,
    pf: PfScratch,
}

impl Orchestrator {
    /// Phase: generate traffic and sample radio quality for the `live`
    /// slices (degraded ones keep serving: the outage is control, not
    /// data). Returns their offered loads and demand fractions, both in
    /// `live`'s ascending slice-id order.
    ///
    /// This is the epoch hot path, run as collect → par-compute →
    /// ordered-apply. Collect: shard the per-slice sim state in ascending
    /// slice-id order (each shard is a disjoint `&mut`). Par-compute:
    /// mobility, traffic, and channel sampling per slice, each drawing only
    /// from that slice's private RNG stream — no shard touches shared
    /// state, so thread count cannot change any draw. Ordered-apply: the
    /// results come back in the same id order.
    pub(super) fn sample_slices(&mut self, live: &[SliceId]) -> (Vec<OfferedLoad>, Vec<f64>) {
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
            .filter(|(id, _)| live.binary_search(id).is_ok())
            .map(|(&id, state)| (id, state))
            .collect();
        let samples = ovnes_sim::par::par_map(shards, move |(id, state)| {
            let SliceSimState {
                durable: sim,
                channels,
            } = state;
            // UEs drift before this epoch's channel sampling.
            sim.ues.step_all(&mobility, &mut sim.rng);
            let demand_fraction = sim.traffic.next_demand();
            let committed = records[&id].request.sla.throughput;
            let prb_rate = sim
                .ues
                .average_cqi(channel, &mut sim.rng)
                .map(|cqi| cell.prb_rate(cqi))
                .unwrap_or(RateMbps::ZERO);
            // Per-UE channel draws for the PF fairness split; sampled here
            // (from this slice's stream, into the slice's persistent
            // buffer) so the serial apply phase needs no RNG at all.
            if fairness {
                sim.ues
                    .sample_channels_into(channel, &rate_table, &mut sim.rng, channels);
            } else {
                channels.clear();
            }
            let offered = committed * demand_fraction;
            (
                OfferedLoad {
                    slice: id,
                    offered,
                    prb_rate,
                },
                demand_fraction,
            )
        });
        samples.into_iter().unzip()
    }

    /// Phase: the RAN epoch. Schedules `loads` cell by cell into the reused
    /// outcome buffer, then sorts it by slice for the measurement phase to
    /// search. Draws nothing.
    pub(super) fn schedule_ran(&mut self, now: SimTime, loads: &[OfferedLoad]) {
        let outcomes = &mut self.epoch_scratch.outcomes;
        self.ran.run_epoch_into(now, loads, outcomes);
        outcomes.sort_unstable_by_key(|o| o.slice);
    }

    /// Phase: measure, judge, book, and feed the forecaster, slice by slice
    /// in id order. Reads the RAN outcomes, the transport shares and the
    /// outage books; writes SLA accounting, timelines, forecaster
    /// observations and (fairness on) PF state and the Jain series. Draws
    /// nothing: the fairness channels were sampled in the parallel phase.
    pub(super) fn measure_and_judge(
        &mut self,
        now: SimTime,
        loads: &[OfferedLoad],
        fractions: &[f64],
    ) -> Vec<SlaVerdict> {
        let mut verdicts = Vec::with_capacity(loads.len());
        for (load, &fraction) in loads.iter().zip(fractions) {
            let id = load.slice;
            // The radio outcome is missing when the serving cell is down:
            // the scheduler dropped the load, so nothing crossed the air.
            let outcomes = &self.epoch_scratch.outcomes;
            let (radio_allocated, radio_delivered, radio_unserved) =
                match outcomes.binary_search_by_key(&id, |o| o.slice) {
                    Ok(i) => (
                        outcomes[i].allocated,
                        outcomes[i].delivered,
                        outcomes[i].unserved,
                    ),
                    Err(_) => (Prbs::ZERO, RateMbps::ZERO, load.offered),
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
                offered: TimeSeries::with_capacity_limit(SERIES_WINDOW),
                delivered: TimeSeries::with_capacity_limit(SERIES_WINDOW),
                latency: TimeSeries::with_capacity_limit(SERIES_WINDOW),
            });
            timeline.offered.record(now, load.offered.value());
            timeline.delivered.record(now, delivered.value());
            timeline.latency.record(now, latency.value());
            verdicts.push(verdict);
            self.engine.observe(id, fraction);

            // Optional: intra-slice PF split of the allocated PRBs, for the
            // per-UE fairness the demo's verticals care about (every device
            // in a fleet must work, not just the aggregate). PF state
            // mutation stays here in the serial apply.
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
        verdicts
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
        if state.durable.ues.remove(ue).is_none() {
            return false;
        }
        if let Some(pf) = self.pf.get_mut(&slice) {
            pf.evict(ue);
        }
        true
    }

    /// Number of UEs currently in a slice's population (0 when unknown).
    pub fn ue_count(&self, slice: SliceId) -> usize {
        self.sim_state
            .get(&slice)
            .map_or(0, |s| s.durable.ues.len())
    }

    /// Number of UEs the proportional-fair tracker holds state for (0 when
    /// the slice is unknown or fairness tracking never ran for it).
    pub fn pf_tracked(&self, slice: SliceId) -> usize {
        self.pf.get(&slice).map(|pf| pf.tracked()).unwrap_or(0)
    }
}
