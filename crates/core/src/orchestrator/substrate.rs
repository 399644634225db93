//! The substrate under the slices: weather over the wireless transport,
//! the fault plan's detect → assess → heal loop, and operator-injected
//! host failures.

use super::Orchestrator;
use crate::control::DOMAINS;
use crate::lifecycle::SliceState;
use ovnes_api::{SubstrateElement, SubstrateFaultPlan};
use ovnes_cloud::{epc_template, CloudError, DeployedStack, EpcSizing, StackState};
use ovnes_model::{DcId, HostId, SliceId};
use ovnes_sim::SimTime;
use ovnes_transport::{Sky, WeatherProcess};
use std::collections::btree_map::Entry;
use std::collections::BTreeSet;

impl Orchestrator {
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

    /// Phase: weather over the wireless transport. On a change of sky,
    /// re-degrade every mmWave link and reroute whoever no longer fits —
    /// the testbed's µwave hops exist for exactly this. Draws one step from
    /// `weather_rng` (a stream of its own, so clear-sky and rainy runs stay
    /// comparable); writes link capacities and transport reservations.
    /// `None`, and no draw, when the weather process is off.
    pub(super) fn step_weather(&mut self, now: SimTime) -> Option<Sky> {
        if !self.config.weather_enabled {
            return None;
        }
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
                    let line = format!("{slice} rerouted off faded mmWave");
                    self.note(now, "transport", "orchestrator.weather_reroutes", line);
                }
            }
        }
        Some(sky)
    }

    /// Phase: substrate self-healing. Applies the fault plan's schedule,
    /// then detect → assess → repair → degrade → account, pushing the
    /// slices it degrades or restores onto the epoch's lists. Without an
    /// active plan only the vEPC outage sweep runs (no state, no
    /// telemetry), so plan-less and quiet-plan runs stay byte-identical.
    ///
    /// Detect: diff the plan's schedule at `now` against the applied outage
    /// set and forward the edges to the domain controllers (link/switch →
    /// transport, cell → RAN, host → cloud), collecting the slices each
    /// failure touches. Assess + repair: see [`Self::repair_legs`], for
    /// every touched or still-degraded slice. Degrade what stays broken and
    /// restore it (with a time-to-repair sample) once repairs land or the
    /// element recovers.
    ///
    /// Every set here is a `BTreeSet`/`BTreeMap` iterated in ascending
    /// element/slice order and nothing draws from an RNG, so the pipeline
    /// is a pure function of the plan and the epoch clock — bitwise
    /// identical at any worker count.
    pub(super) fn heal_substrate(
        &mut self,
        now: SimTime,
        degraded: &mut Vec<SliceId>,
        restored: &mut Vec<SliceId>,
    ) {
        // Outages that ended before this epoch are over.
        self.epc_down_until.retain(|_, &mut t| t > now);
        let Some(plan) = self.substrate_plan.as_ref().filter(|p| !p.is_quiet()) else {
            return;
        };
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
            let line = format!("{element} down; {} slice(s) impacted", slices.len());
            self.note(now, "substrate", "substrate.element_failures", line);
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
            let line = format!("{element} back in service");
            self.note(now, "substrate", "substrate.element_recoveries", line);
        }
        self.substrate_down = desired;

        // Assess + repair, ascending slice id.
        for id in touched {
            if self.records.get(&id).is_none_or(|r| r.state.is_terminal()) {
                // The slice ended (expired/terminated) while degraded; its
                // resources are already reclaimed.
                self.substrate_degraded.remove(&id);
                continue;
            }
            let (impacted, healthy) = self.repair_legs(now, id);
            if healthy {
                let since = self.substrate_degraded.remove(&id);
                if since.is_some() || impacted {
                    // Repaired — within the epoch the fault was detected,
                    // unless the slice sat degraded since an earlier one.
                    let ttr = since.map_or(0.0, |since| {
                        now.saturating_duration_since(since).as_secs_f64()
                    });
                    self.metrics
                        .series("substrate.time_to_repair")
                        .record(now, ttr);
                    self.metrics.counter("substrate.repaired").inc();
                }
                let control_up = DOMAINS.iter().all(|d| self.reachable(d));
                let held = since.is_some() && self.records[&id].state == SliceState::Degraded;
                if held && control_up {
                    self.set_state(&[id], SliceState::Active);
                    restored.push(id);
                    let line = format!("{id} restored: substrate fault cleared");
                    self.note(now, "substrate", "substrate.restored", line);
                }
            } else {
                if let Entry::Vacant(first_seen) = self.substrate_degraded.entry(id) {
                    first_seen.insert(now);
                    let line = format!("{id} degraded: substrate fault not repairable");
                    self.note(now, "substrate", "substrate.degraded", line);
                }
                if self.records[&id].state == SliceState::Active {
                    self.set_state(&[id], SliceState::Degraded);
                    degraded.push(id);
                }
            }
        }
        self.metrics
            .gauge("substrate.elements_down")
            .set(self.substrate_down.len() as f64);
    }

    /// Assess one live slice's three legs and repair each broken one, in
    /// priority order: transport reroute via the virtual-release machinery,
    /// cell re-attach, vEPC re-placement. Returns `(impacted, healthy)`:
    /// whether any leg was broken, and whether none still is.
    fn repair_legs(&mut self, now: SimTime, id: SliceId) -> (bool, bool) {
        let mut healthy = true;

        // Transport: a reservation crossing a dead link. Mass reroute
        // through the virtual-release machinery; dead links are rejected
        // during cache revalidation and fresh searches alike.
        let path_dead = self
            .transport
            .reservation(id)
            .is_some_and(|r| r.path.links.iter().any(|&l| !self.transport.link_is_up(l)));
        if path_dead {
            if self.transport.reroute(id) == Ok(true) {
                let line = format!("{id} rerouted around a dead link");
                self.note(now, "substrate", "substrate.reroutes", line);
            } else {
                healthy = false;
            }
        }

        // RAN: the serving cell is down. Re-attach the slice's PLMN to the
        // best surviving cell that fits its reservation.
        let cell_dead = self
            .ran
            .placement(id)
            .is_some_and(|enb| !self.ran.cell_is_up(enb));
        if cell_dead {
            match self.ran.reattach(id) {
                Ok(target) => {
                    if let Some(p) = self.placements.get_mut(&id) {
                        p.enb = target;
                    }
                    let line = format!("{id} re-attached to surviving cell {target}");
                    self.note(now, "substrate", "substrate.reattaches", line);
                }
                Err(_) => healthy = false,
            }
        }

        // Cloud: the vEPC lost a VM to a host crash — or an earlier
        // re-placement deleted the corpse and then found no capacity,
        // leaving the slice with no stack at all.
        let stack_bad = self
            .cloud
            .stack_for_slice(id)
            .is_none_or(|stack| stack.state == StackState::Degraded);
        if stack_bad {
            match self.redeploy_vepc(now, id) {
                Ok(stack) => {
                    let (dc, boot) = (stack.dc, stack.deploy_time);
                    let line = format!("{id} vEPC re-placed on {dc}; boots in {boot}");
                    self.note(now, "substrate", "substrate.replacements", line);
                }
                Err(_) => healthy = false,
            }
        }
        (path_dead || cell_dead || stack_bad, healthy)
    }

    /// Redeploy `id`'s vEPC at its original sizing — in place, or on a
    /// same-kind DC when the stack is gone altogether. The fresh stack's
    /// deploy time is a real service interruption, booked through
    /// `epc_down_until`.
    fn redeploy_vepc(&mut self, now: SimTime, id: SliceId) -> Result<DeployedStack, CloudError> {
        let demand = self.records[&id].request.compute_demand();
        let template = epc_template(id, &demand, &EpcSizing::default());
        let stack = if self.cloud.stack_for_slice(id).is_some() {
            self.cloud.redeploy_for_slice(id, &template)?
        } else {
            let home = self.placements.get(&id).and_then(|p| self.cloud.dc(p.dc));
            let target = home.and_then(|dc| self.cloud.find_dc(dc.kind(), &template));
            let dc = target.ok_or_else(|| CloudError::PlacementFailed {
                resource: "no capacity for redeploy".into(),
            })?;
            self.cloud.deploy(id, dc, &template)?
        };
        self.epc_down_until.insert(id, now + stack.deploy_time);
        Ok(stack)
    }

    /// Fault injection: a compute host dies at `now`. Every slice whose
    /// vEPC lost a VM is redeployed (same sizing, same or same-kind DC) and
    /// suffers a total outage until the fresh stack completes; slices whose
    /// vEPC cannot be re-placed anywhere are terminated with a pro-rated
    /// refund. Returns `(redeployed, lost)`.
    pub fn inject_host_failure(
        &mut self,
        now: SimTime,
        dc: DcId,
        host: HostId,
    ) -> (Vec<SliceId>, Vec<SliceId>) {
        let mut redeployed = Vec::new();
        let mut lost = Vec::new();
        for slice in self.cloud.fail_host(dc, host) {
            if !self.records.contains_key(&slice) {
                continue;
            }
            match self.redeploy_vepc(now, slice) {
                Ok(stack) => {
                    let (dc, boot) = (stack.dc, stack.deploy_time);
                    let line =
                        format!("{slice} vEPC lost to host failure; redeployed in {boot} ({dc})");
                    self.events.log(now, "cloud", line);
                    redeployed.push(slice);
                }
                Err(e) => {
                    let line = format!("{slice} vEPC unrecoverable after host failure: {e}");
                    self.events.log(now, "cloud", line);
                    self.terminate(now, slice);
                    lost.push(slice);
                }
            }
        }
        (redeployed, lost)
    }

    /// Fault injection: return a failed compute host to service.
    pub fn revive_host(&mut self, dc: DcId, host: HostId) {
        self.cloud.revive_host(dc, host);
    }
}
