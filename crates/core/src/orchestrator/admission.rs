//! Admission and teardown: the online and batch brokers, the two-phase
//! allocation behind both, and the lifecycle edges of the epoch — deployed
//! slices activate, slices past their duration expire, operators terminate.

use super::dataplane::SliceSimState;
use super::{Orchestrator, Rejection};
use crate::admission::{AdmissionDecision, ResourceView};
use crate::lifecycle::{SliceRecord, SliceState};
use ovnes_forecast::{TraceGenerator, TraceSpec};
use ovnes_model::{Money, PlmnId, Prbs, SliceClass, SliceId, SliceRequest, UeId};
use ovnes_ran::{Ue, UePopulation};
use ovnes_sim::SimTime;

impl Orchestrator {
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
    pub(super) fn decide_batch(&mut self, now: SimTime) -> (Vec<SliceId>, usize) {
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

    /// Phase 1: activate slices whose deployment completed.
    pub(super) fn activate_deployed(&mut self, now: SimTime) -> Vec<SliceId> {
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
        activated
    }

    /// Phase 2: expire slices that ran their duration (degraded ones too:
    /// the data plane kept serving through the control-plane outage).
    pub(super) fn expire_due(&mut self, now: SimTime) -> Vec<SliceId> {
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
        expired
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
        let record = self.records.get(&id).expect("checked").clone();
        self.sla.book_early_termination(now, &record, unused);
        self.ready_at.remove(&id);
        self.teardown(id, SliceState::Terminated);
        true
    }
}
