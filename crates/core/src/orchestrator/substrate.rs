//! The substrate under the slices: weather over the wireless transport,
//! the fault plan's detect → assess → heal loop, and operator-injected
//! host failures.

use super::Orchestrator;
use crate::control::DOMAINS;
use crate::lifecycle::SliceState;
use ovnes_api::SubstrateElement;
use ovnes_cloud::{epc_template, DeployedStack, EpcSizing, StackState};
use ovnes_model::SliceId;
use ovnes_sim::SimTime;
use ovnes_transport::{Sky, WeatherProcess};
use std::collections::BTreeSet;

impl Orchestrator {
    /// Phase 0b: weather over the wireless transport. On a change of sky,
    /// re-degrade every mmWave link and reroute whoever no longer fits —
    /// the testbed's µwave hops exist for exactly this. `None` when the
    /// weather process is off.
    pub(super) fn step_weather(&mut self, now: SimTime) -> Option<Sky> {
        if self.config.weather_enabled {
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
        }
    }

    /// Phase 2c: substrate self-healing. Applies the fault plan's schedule,
    /// then detect → assess → repair → degrade → account. Skipped entirely
    /// (no state, no telemetry) without an active plan, so plan-less and
    /// quiet-plan runs stay byte-identical.
    pub(super) fn heal_substrate(
        &mut self,
        now: SimTime,
        degraded: &mut Vec<SliceId>,
        restored: &mut Vec<SliceId>,
    ) {
        // Outages that ended before this epoch are over.
        self.epc_down_until.retain(|_, &mut t| t > now);
        let substrate_active = self.substrate_plan.as_ref().is_some_and(|p| !p.is_quiet());
        if substrate_active {
            self.run_substrate_recovery(now, degraded, restored);
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
                        && DOMAINS.iter().all(|d| self.reachable(d))
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
}
