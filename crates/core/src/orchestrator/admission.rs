//! Admission and teardown: the online and batch brokers, the two-phase
//! allocation behind both, and the lifecycle edges of the epoch — deployed
//! slices activate, slices past their duration expire, operators terminate.

use super::dataplane::SliceSimState;
use super::{Orchestrator, Rejection, SliceSimSnapshot};
use crate::admission::{AdmissionDecision, ResourceView};
use crate::lifecycle::{SliceRecord, SliceState};
use ovnes_forecast::{TraceGenerator, TraceSpec};
use ovnes_model::{Money, PlmnId, Prbs, SliceClass, SliceId, SliceRequest, UeId};
use ovnes_ran::{RanSnapshot, Ue, UePopulation};
use ovnes_sim::SimTime;

impl Orchestrator {
    /// Submit a dashboard request at `now`. On admission the slice id is
    /// returned and deployment begins; otherwise the rejection reason is
    /// recorded and returned.
    pub fn submit(&mut self, now: SimTime, request: SliceRequest) -> Result<SliceId, Rejection> {
        let record = SliceRecord::new(self.ids.next(), request, now);
        self.metrics.counter("orchestrator.submitted").inc();

        let view = self.resource_view();
        let reserved = match self.policy.decide(&record.request, &view) {
            AdmissionDecision::Reject { reason } => {
                return Err(self.reject(record, "orchestrator.rejected_policy", reason));
            }
            AdmissionDecision::Admit { reserved } if self.config.overbooking_enabled => reserved,
            // Baseline mode: always reserve the SLA peak.
            AdmissionDecision::Admit { .. } => self.allocator.nominal_prbs(&record.request),
        };
        self.admit_and_allocate(now, record, reserved)
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

    /// Phase: the batch-broker decision, on the configured cadence — an
    /// exact knapsack over the free PRB budget (ref \[3\]), then the usual
    /// multi-domain allocation per winner. Reads the pending window, the
    /// RAN snapshot and the class forecasts; writes what admission writes.
    /// Returns the admitted ids and the number rejected.
    pub(super) fn decide_batch(&mut self, now: SimTime) -> (Vec<SliceId>, usize) {
        let due = self
            .config
            .batch_window
            .is_some_and(|w| self.epoch_count.is_multiple_of(w));
        if !due || self.pending.is_empty() {
            return (Vec::new(), 0);
        }
        let window = std::mem::take(&mut self.pending);
        // Sized at the class's observed demand (no history, or overbooking
        // off: the SLA peak).
        let view = self.resource_view();
        let items: Vec<(Prbs, Money)> = window
            .iter()
            .map(|r| {
                let fraction = view.class_demand.get(r.class).unwrap_or(1.0);
                let prbs = view.prbs_needed(r.sla.throughput * fraction.clamp(0.3, 1.0));
                (prbs.max(Prbs::new(1)), r.price)
            })
            .collect();
        // Budget: every unreserved PRB in the RAN (the knapsack is a radio
        // budget decision; transport/cloud still veto at allocation).
        let budget: Prbs = free_prbs(&self.ran.snapshot()).sum();
        let chosen = crate::admission::knapsack_select(&items, budget);

        let mut admitted = Vec::new();
        for (i, request) in window.into_iter().enumerate() {
            let record = SliceRecord::new(self.ids.next(), request, now);
            if !chosen.contains(&i) {
                let reason = "outbid for this window's PRB budget".into();
                self.reject(record, "orchestrator.rejected_policy", reason);
            } else if let Ok(id) = self.admit_and_allocate(now, record, items[i].0) {
                admitted.push(id);
            }
        }
        let rejected = items.len() - admitted.len();
        (admitted, rejected)
    }

    /// File `record` as rejected, counted under `counter`.
    fn reject(&mut self, mut record: SliceRecord, counter: &str, reason: String) -> Rejection {
        record
            .transition(SliceState::Rejected)
            .expect("requested→rejected");
        let slice = record.id;
        self.records.insert(slice, record);
        self.metrics.counter(counter).inc();
        Rejection { slice, reason }
    }

    /// Shared tail of online and batch admission: assign a PLMN, run the
    /// two-phase allocator, and register the slice's traffic/UE state.
    fn admit_and_allocate(
        &mut self,
        now: SimTime,
        mut record: SliceRecord,
        reserved: Prbs,
    ) -> Result<SliceId, Rejection> {
        const NO_RESOURCES: &str = "orchestrator.rejected_resources";
        let id = record.id;
        let Some(plmn) = self.allocate_plmn() else {
            return Err(self.reject(record, NO_RESOURCES, "PLMN pool exhausted".into()));
        };
        let placement = match self.allocator.allocate(
            id,
            plmn,
            &record.request,
            reserved,
            &mut self.ran,
            &mut self.transport,
            &mut self.cloud,
        ) {
            Ok(placement) => placement,
            Err(e) => {
                self.free_plmns.push(plmn);
                self.events
                    .log(now, "orchestrator", format!("{id} rejected: {e}"));
                return Err(self.reject(record, NO_RESOURCES, e.to_string()));
            }
        };
        record
            .transition(SliceState::Deploying)
            .expect("requested→deploying");
        record.plmn = Some(plmn);
        self.ready_at.insert(id, now + placement.deploy_time);
        self.sla.book_admission(now, &record);
        let line = format!(
            "{id} admitted as {plmn}: {} on {}, {} hops to {}, deploys in {}",
            placement.reserved,
            placement.enb,
            placement.path_hops,
            placement.dc,
            placement.deploy_time
        );
        self.note(now, "orchestrator", "orchestrator.admitted", line);

        // Per-slice traffic process and UE population.
        let period = self.config.overbooking.season_period;
        let spec = match record.request.class {
            SliceClass::Embb => TraceSpec::embb(period),
            SliceClass::Urllc => TraceSpec::urllc(period),
            SliceClass::Mmtc => TraceSpec::mmtc(period),
        };
        // Streams are keyed by the slice's id, so each slice's realization
        // depends only on its identity (admission itself is serial, keeping
        // the parent stream deterministic).
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
                durable: SliceSimSnapshot {
                    traffic: TraceGenerator::new(spec, trace_rng),
                    ues,
                    rng: radio_rng,
                },
                channels: Vec::new(),
            },
        );
        self.engine.track(id, record.request.class);
        self.placements.insert(id, placement);
        self.records.insert(id, record);
        Ok(id)
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
        let grid: Prbs = snap.enbs.iter().map(|r| r.total).sum();
        let reserved: Prbs = snap.enbs.iter().map(|r| r.reserved).sum();
        ResourceView {
            available_prbs: free_prbs(&snap).max().unwrap_or(Prbs::ZERO),
            ran_utilization: reserved.ratio(grid),
            planning_prb_rate: self.allocator.config().planning_prb_rate,
            class_demand: if self.config.overbooking_enabled {
                self.engine.class_demand()
            } else {
                crate::admission::ClassDemand::empty()
            },
        }
    }

    /// Phase: activate the slices whose deployment completed by `now`.
    /// Reads `ready_at`; writes their records and attaches their UEs.
    pub(super) fn activate_deployed(&mut self, now: SimTime) -> Vec<SliceId> {
        let ready = self.ready_at.iter().filter(|&(_, &t)| t <= now);
        let activated: Vec<SliceId> = ready.map(|(&id, _)| id).collect();
        for &id in &activated {
            self.ready_at.remove(&id);
            let record = self
                .records
                .get_mut(&id)
                .expect("deploying slice has a record");
            record.activate(now).expect("deploying→active");
            let sim = self.sim_state.get_mut(&id).expect("slice has UEs");
            sim.durable.ues.attach_all();
            let line = format!("{id} active: UEs attached");
            self.note(now, "orchestrator", "orchestrator.activated", line);
        }
        activated
    }

    /// Phase: expire the slices that ran their duration (degraded ones too:
    /// the data plane kept serving through the control-plane outage) and
    /// reclaim their resources. Takes the epoch's one listing, over
    /// `placements` (the live set — the ended are never walked); returns
    /// `(expired, live)` — `live` being every slice still `Active` or
    /// `Degraded`, ascending, which the later phases share.
    pub(super) fn expire_due(&mut self, now: SimTime) -> (Vec<SliceId>, Vec<SliceId>) {
        use SliceState::{Active, Degraded};
        let serving = self.placements.keys().copied();
        let serving = serving.filter(|id| matches!(self.records[id].state, Active | Degraded));
        let (expired, live): (Vec<SliceId>, Vec<SliceId>) =
            serving.partition(|id| self.records[id].expires_at.is_some_and(|t| t <= now));
        for &id in &expired {
            self.teardown(id, SliceState::Expired);
            let line = format!("{id} expired, resources reclaimed");
            self.events.log(now, "orchestrator", line);
        }
        (expired, live)
    }

    /// Flip every slice of `ids` to `to` — the `Active ↔ Degraded` edges.
    pub(super) fn set_state(&mut self, ids: &[SliceId], to: SliceState) {
        for id in ids {
            let record = self.records.get_mut(id).expect("listed from the records");
            record.transition(to).expect("active↔degraded");
        }
    }

    pub(super) fn teardown(&mut self, id: SliceId, end_state: SliceState) {
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
        self.sla.book_early_termination(now, record, unused);
        self.ready_at.remove(&id);
        self.teardown(id, SliceState::Terminated);
        true
    }
}

/// Unreserved PRBs of every cell, ascending eNB id.
fn free_prbs(snap: &RanSnapshot) -> impl Iterator<Item = Prbs> + '_ {
    snap.enbs.iter().map(|r| r.total.saturating_sub(r.reserved))
}
