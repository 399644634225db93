//! The transport domain controller.
//!
//! Executes the orchestrator's path allocation requests ("a dedicated path
//! guaranteeing the required delay and capacity", §3), programs the
//! OpenFlow switches along each chosen path, accounts bandwidth per link,
//! reacts to mmWave degradation by rerouting affected slices, and publishes
//! utilization telemetry.

use crate::cache::{RouteCache, RouteKey};
use crate::reservation::{effective_delay, LinkUsage, PathReservation};
use crate::routing::{cspf_with, Path, RoutingScratch};
use crate::switch::{FlowAction, FlowMatch, FlowRule, FlowTable, SwitchError};
use crate::topology::{NodeKind, Topology};
use ovnes_model::{Latency, LinkId, NodeId, RateMbps, SliceId, SwitchId};
use ovnes_sim::{MetricRegistry, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Errors from transport allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// No path satisfies the capacity + delay constraints.
    NoFeasiblePath,
    /// The slice already holds a path.
    AlreadyAllocated(SliceId),
    /// No reservation for this slice.
    NotAllocated(SliceId),
    /// A switch on the chosen path ran out of flow table space.
    FlowTable(SwitchError),
    /// Growing the reservation would oversubscribe a link on the path.
    InsufficientLinkCapacity(LinkId),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::NoFeasiblePath => f.write_str("no feasible path"),
            TransportError::AlreadyAllocated(s) => write!(f, "slice {s} already has a path"),
            TransportError::NotAllocated(s) => write!(f, "slice {s} has no path"),
            TransportError::FlowTable(e) => write!(f, "flow table: {e}"),
            TransportError::InsufficientLinkCapacity(l) => {
                write!(f, "link {l} cannot absorb the resize")
            }
        }
    }
}

impl std::error::Error for TransportError {}

impl From<SwitchError> for TransportError {
    fn from(e: SwitchError) -> Self {
        TransportError::FlowTable(e)
    }
}

/// The result of a successful allocation.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PathAllocation {
    /// The reservation installed.
    pub reservation: PathReservation,
    /// Delay of the path at allocation time (effective, load-dependent).
    pub delay_at_allocation: Latency,
}

/// Telemetry snapshot of the transport domain.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TransportSnapshot {
    /// Per-link rows.
    pub links: Vec<LinkRow>,
    /// Number of installed path reservations.
    pub paths: usize,
}

/// One link's row in a [`TransportSnapshot`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LinkRow {
    /// The link.
    pub link: LinkId,
    /// Effective (degraded) capacity.
    pub effective_capacity: RateMbps,
    /// Reserved bandwidth.
    pub reserved: RateMbps,
    /// Utilization of effective capacity.
    pub utilization: f64,
    /// Degradation factor currently applied.
    pub degradation: f64,
    /// False while the link is failed (fiber cut / switch outage).
    pub up: bool,
}

/// The transport domain controller. See module docs.
pub struct TransportController {
    topo: Topology,
    usage: Vec<LinkUsage>,
    /// Per-link count of independent down-reasons (own failure, incident
    /// switch outage, …). A link forwards only while its count is zero —
    /// reviving a link a dead switch also holds down must not resurrect it.
    down_reasons: Vec<u32>,
    tables: BTreeMap<SwitchId, FlowTable>,
    reservations: BTreeMap<SliceId, PathReservation>,
    metrics: MetricRegistry,
    /// Name of each link's utilization gauge, indexed by link id: derived
    /// from the topology (which never grows), so not part of the state.
    utilization_gauges: Vec<String>,
    scratch: RoutingScratch,
    route_cache: RouteCache,
}

fn utilization_gauges(topo: &Topology) -> Vec<String> {
    topo.links()
        .iter()
        .map(|l| format!("transport.{}.utilization", l.id))
        .collect()
}

impl TransportController {
    /// A controller over `topo` with per-switch flow tables of
    /// `flow_table_capacity` rules.
    pub fn new(topo: Topology, flow_table_capacity: usize) -> TransportController {
        let usage: Vec<LinkUsage> = topo
            .links()
            .iter()
            .map(|l| LinkUsage::new(l.capacity))
            .collect();
        let tables = topo
            .nodes()
            .iter()
            .filter_map(|n| match n.kind {
                NodeKind::Switch(id) => Some((id, FlowTable::new(flow_table_capacity))),
                _ => None,
            })
            .collect();
        let down_reasons = vec![0; usage.len()];
        TransportController {
            utilization_gauges: utilization_gauges(&topo),
            topo,
            usage,
            down_reasons,
            tables,
            reservations: BTreeMap::new(),
            metrics: MetricRegistry::new(),
            scratch: RoutingScratch::new(),
            route_cache: RouteCache::default(),
        }
    }

    /// Turn the route cache on or off (on by default). Cached and uncached
    /// controllers return identical answers; disabling exists for A/B
    /// benchmarking and for the determinism suite.
    pub fn set_route_cache_enabled(&mut self, on: bool) {
        self.route_cache.set_enabled(on);
    }

    /// The route cache (hit/miss stats live here, outside the metric
    /// registry, so monitoring output is cache-invariant).
    pub fn route_cache(&self) -> &RouteCache {
        &self.route_cache
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Current usage of `link`.
    pub fn link_usage(&self, link: LinkId) -> &LinkUsage {
        &self.usage[link.value() as usize]
    }

    /// Effective (load- and degradation-aware) delay of `link` now.
    pub fn link_delay(&self, link: LinkId) -> Latency {
        let usage = self.link_usage(link);
        effective_delay(self.topo.link(link).delay, usage.utilization())
    }

    /// The reservation held by `slice`, if any.
    pub fn reservation(&self, slice: SliceId) -> Option<&PathReservation> {
        self.reservations.get(&slice)
    }

    /// True while `link` is in service (not failed).
    pub fn link_is_up(&self, link: LinkId) -> bool {
        self.down_reasons[link.value() as usize] == 0
    }

    /// All currently failed links, ascending.
    pub fn down_links(&self) -> Vec<LinkId> {
        self.topo
            .links()
            .iter()
            .filter(|l| !self.link_is_up(l.id))
            .map(|l| l.id)
            .collect()
    }

    /// The slices whose installed paths traverse `link`, ascending.
    pub fn slices_on_link(&self, link: LinkId) -> Vec<SliceId> {
        self.reservations
            .values()
            .filter(|r| r.uses_link(link))
            .map(|r| r.slice)
            .collect()
    }

    /// Substrate fault: `link` goes dark (fiber cut, radio hardware loss).
    /// Taking capacity away is shrink-like for the route cache — cached
    /// paths are rejected link-wise at revalidation time — so no
    /// generation bump happens here. Returns the slices whose paths
    /// traverse the link (ascending) when this call took it down; an
    /// already-down link accrues another down-reason and returns nothing
    /// new.
    pub fn fail_link(&mut self, link: LinkId) -> Vec<SliceId> {
        let i = link.value() as usize;
        self.down_reasons[i] += 1;
        if self.down_reasons[i] > 1 {
            return Vec::new();
        }
        self.metrics.counter("transport.link_failures").inc();
        self.slices_on_link(link)
    }

    /// Substrate repair: drop one down-reason from `link`. When the last
    /// reason clears the link rejoins the topology — a growth event, so
    /// the route cache generation is bumped (a cached "no path"/detour
    /// answer may now be beatable). Returns true when the link came back
    /// into service.
    pub fn revive_link(&mut self, link: LinkId) -> bool {
        let i = link.value() as usize;
        if self.down_reasons[i] == 0 {
            return false;
        }
        self.down_reasons[i] -= 1;
        if self.down_reasons[i] > 0 {
            return false;
        }
        self.route_cache.note_growth();
        self.metrics.counter("transport.link_recoveries").inc();
        true
    }

    /// Substrate fault: `switch` goes dark, taking every incident link
    /// down with it. Returns the union of slices whose paths traverse any
    /// newly-down incident link, ascending and deduplicated.
    pub fn fail_switch(&mut self, switch: SwitchId) -> Vec<SliceId> {
        let mut affected = Vec::new();
        for link in self.incident_links(switch) {
            affected.extend(self.fail_link(link));
        }
        self.metrics.counter("transport.switch_failures").inc();
        affected.sort();
        affected.dedup();
        affected
    }

    /// Substrate repair: `switch` returns to service, releasing its hold
    /// on every incident link.
    pub fn revive_switch(&mut self, switch: SwitchId) {
        for link in self.incident_links(switch) {
            self.revive_link(link);
        }
    }

    /// The links incident to `switch`'s node, ascending.
    fn incident_links(&self, switch: SwitchId) -> Vec<LinkId> {
        let Some(node) = self
            .topo
            .find_node(|n| matches!(n.kind, NodeKind::Switch(s) if s == switch))
            .map(|n| n.id)
        else {
            return Vec::new();
        };
        self.topo
            .links()
            .iter()
            .filter(|l| l.a == node || l.b == node)
            .map(|l| l.id)
            .collect()
    }

    /// Fraction of `slice`'s reserved bandwidth its path can actually carry
    /// right now: 1.0 on healthy links; on an oversubscribed link (fade or
    /// failure pushed effective capacity below reservations) every
    /// reservation is scaled back proportionally, and the slice's share is
    /// its worst link's. `None` when the slice holds no path.
    pub fn capacity_share(&self, slice: SliceId) -> Option<f64> {
        let res = self.reservations.get(&slice)?;
        let share = res
            .path
            .links
            .iter()
            .map(|&l| {
                if !self.link_is_up(l) {
                    return 0.0; // a dead link carries nothing
                }
                let util = self.usage[l.value() as usize].utilization();
                if util > 1.0 {
                    1.0 / util
                } else {
                    1.0
                }
            })
            .fold(1.0f64, f64::min);
        Some(share)
    }

    /// Current end-to-end effective delay of `slice`'s path.
    pub fn path_delay(&self, slice: SliceId) -> Option<Latency> {
        let res = self.reservations.get(&slice)?;
        Some(
            res.path
                .links
                .iter()
                .map(|&l| self.link_delay(l))
                .sum::<Latency>(),
        )
    }

    /// Allocate a path for `slice` from `src` to `dst` carrying `bandwidth`
    /// within `max_delay`. CSPF over residual capacities with base delays
    /// (reservation-time delays are the committed ones; queueing shows up in
    /// monitoring).
    pub fn allocate(
        &mut self,
        slice: SliceId,
        src: NodeId,
        dst: NodeId,
        bandwidth: RateMbps,
        max_delay: Latency,
    ) -> Result<PathAllocation, TransportError> {
        if self.reservations.contains_key(&slice) {
            return Err(TransportError::AlreadyAllocated(slice));
        }
        let key = RouteKey::allocation(src, dst, bandwidth, max_delay);
        let path = self
            .cached_cspf(key, max_delay, |usage, l| {
                usage[l.value() as usize].available().value() >= bandwidth.value()
            })
            .ok_or(TransportError::NoFeasiblePath)?;

        self.install_rules(slice, &path.nodes, &path.links)?;
        for &l in &path.links {
            self.usage[l.value() as usize].reserved += bandwidth;
        }
        let reservation = PathReservation {
            slice,
            path,
            bandwidth,
            max_delay,
        };
        let delay_at_allocation = reservation
            .path
            .links
            .iter()
            .map(|&l| self.link_delay(l))
            .sum::<Latency>();
        self.reservations.insert(slice, reservation.clone());
        self.metrics.counter("transport.allocations").inc();
        Ok(PathAllocation {
            reservation,
            delay_at_allocation,
        })
    }

    /// CSPF through the route cache: answer from the cache when provably
    /// still correct, otherwise run the shared-scratch CSPF and memoize the
    /// result (including infeasibility). `usable` is the capacity predicate
    /// over the current link usage table; it must depend only on the usage
    /// state and the constraint class encoded in `key`. A failed link is
    /// never usable: the check is layered in here so both cache
    /// revalidation and fresh searches reject dead hops — link-down is
    /// shrink-like (it removes reachability), so a cached path crossing a
    /// downed link fails revalidation and a cached `None` stays valid.
    fn cached_cspf(
        &mut self,
        key: RouteKey,
        max_delay: Latency,
        usable: impl Fn(&[LinkUsage], LinkId) -> bool,
    ) -> Option<Path> {
        let usage = &self.usage;
        let down = &self.down_reasons;
        let ok = |l: LinkId| down[l.value() as usize] == 0 && usable(usage, l);
        if let Some(answer) = self.route_cache.lookup(&key, ok) {
            return answer;
        }
        let topo = &self.topo;
        let fresh = cspf_with(
            &mut self.scratch,
            topo,
            key.src,
            key.dst,
            ok,
            |l| topo.link(l).delay,
            max_delay,
        );
        self.route_cache.insert(key, fresh.clone());
        fresh
    }

    /// Install per-switch flow rules along a path; rolls back on failure.
    fn install_rules(
        &mut self,
        slice: SliceId,
        nodes: &[NodeId],
        links: &[LinkId],
    ) -> Result<(), TransportError> {
        let mut installed: Vec<SwitchId> = Vec::new();
        for (i, &node) in nodes.iter().enumerate() {
            let NodeKind::Switch(sw) = self.topo.node(node).kind else {
                continue;
            };
            // Interior switch: in-link is links[i-1], out-link links[i].
            // A switch can also be an endpoint; endpoints need no rule.
            if i == 0 || i == nodes.len() - 1 {
                continue;
            }
            let rule = FlowRule {
                priority: 100,
                matches: FlowMatch {
                    slice: Some(slice),
                    in_link: Some(links[i - 1]),
                },
                action: FlowAction::Output(links[i]),
            };
            let table = self.tables.get_mut(&sw).expect("switch has a table");
            match table.install(rule) {
                Ok(()) => installed.push(sw),
                Err(e) => {
                    for sw in installed {
                        self.tables
                            .get_mut(&sw)
                            .expect("switch has a table")
                            .remove_slice(slice);
                    }
                    self.metrics
                        .counter("transport.flow_table_rejections")
                        .inc();
                    return Err(e.into());
                }
            }
        }
        Ok(())
    }

    /// Release `slice`'s path, freeing bandwidth and flow rules.
    pub fn release(&mut self, slice: SliceId) -> Result<PathReservation, TransportError> {
        let res = self
            .reservations
            .remove(&slice)
            .ok_or(TransportError::NotAllocated(slice))?;
        for &l in &res.path.links {
            self.usage[l.value() as usize].reserved = self.usage[l.value() as usize]
                .reserved
                .saturating_sub(res.bandwidth);
        }
        for table in self.tables.values_mut() {
            table.remove_slice(slice);
        }
        self.route_cache.note_growth();
        self.metrics.counter("transport.releases").inc();
        Ok(res)
    }

    /// Resize `slice`'s reservation in place (same path). Fails with
    /// [`TransportError::InsufficientLinkCapacity`] if any link cannot absorb
    /// the growth.
    pub fn resize(&mut self, slice: SliceId, bandwidth: RateMbps) -> Result<(), TransportError> {
        let res = self
            .reservations
            .get(&slice)
            .ok_or(TransportError::NotAllocated(slice))?;
        let old = res.bandwidth;
        let links = res.path.links.clone();
        if bandwidth.value() > old.value() {
            let extra = bandwidth - old;
            for &l in &links {
                if self.usage[l.value() as usize].available().value() < extra.value() {
                    return Err(TransportError::InsufficientLinkCapacity(l));
                }
            }
        }
        for &l in &links {
            let u = &mut self.usage[l.value() as usize];
            u.reserved = u.reserved.saturating_sub(old) + bandwidth;
        }
        if bandwidth.value() < old.value() {
            // Shrinking a reservation grows headroom on its links.
            self.route_cache.note_growth();
        }
        self.reservations
            .get_mut(&slice)
            .expect("checked above")
            .bandwidth = bandwidth;
        self.metrics.counter("transport.resizes").inc();
        Ok(())
    }

    /// Apply a degradation factor to `link` (e.g. rain fade on mmWave).
    /// Returns the slices whose paths traverse the link and are now
    /// oversubscribed (candidates for reroute).
    pub fn degrade_link(&mut self, link: LinkId, factor: f64) -> Vec<SliceId> {
        let factor = factor.clamp(0.0, 1.0);
        if factor > self.usage[link.value() as usize].degradation {
            // Partial recovery is still growth; re-applying the same or a
            // deeper fade (the every-epoch weather update) is not.
            self.route_cache.note_growth();
        }
        self.usage[link.value() as usize].degradation = factor;
        self.metrics.counter("transport.degradations").inc();
        if self.usage[link.value() as usize].utilization() <= 1.0 {
            return Vec::new();
        }
        self.reservations
            .values()
            .filter(|r| r.uses_link(link))
            .map(|r| r.slice)
            .collect()
    }

    /// Restore `link` to full health.
    pub fn restore_link(&mut self, link: LinkId) {
        if self.usage[link.value() as usize].degradation < 1.0 {
            self.route_cache.note_growth();
        }
        self.usage[link.value() as usize].degradation = 1.0;
    }

    /// Re-route `slice` onto a new feasible path avoiding its current one's
    /// bottleneck; keeps the old path if no better one exists.
    ///
    /// Returns `Ok(true)` if the slice moved, `Ok(false)` if it stayed.
    pub fn reroute(&mut self, slice: SliceId) -> Result<bool, TransportError> {
        let res = self
            .reservations
            .get(&slice)
            .cloned()
            .ok_or(TransportError::NotAllocated(slice))?;
        let src = res.path.nodes[0];
        let dst = *res.path.nodes.last().expect("paths are non-empty");
        // Search as if our own reservation were released, so healthy parts
        // of our own path can be reused — but without touching the usage
        // table: a stay-put reroute then mutates nothing, which keeps the
        // cache warm through a fade that offers no alternative.
        let own = res.path.links.clone();
        let bw = res.bandwidth;
        let key = RouteKey {
            src,
            dst,
            bandwidth_bits: bw.value().to_bits(),
            max_delay_bits: res.max_delay.value().to_bits(),
            reclaim: own.clone(),
        };
        let candidate = self.cached_cspf(key, res.max_delay, move |usage, l| {
            let u = &usage[l.value() as usize];
            let reserved = if own.contains(&l) {
                u.reserved.saturating_sub(bw)
            } else {
                u.reserved
            };
            u.effective_capacity().saturating_sub(reserved).value() >= bw.value()
        });
        match candidate {
            Some(path) if path != res.path => {
                for table in self.tables.values_mut() {
                    table.remove_slice(slice);
                }
                if let Err(e) = self.install_rules(slice, &path.nodes, &path.links) {
                    // Roll back to the old rules; bandwidth never moved.
                    let _ = self.install_rules(slice, &res.path.nodes, &res.path.links);
                    return Err(e);
                }
                for &l in &res.path.links {
                    self.usage[l.value() as usize].reserved = self.usage[l.value() as usize]
                        .reserved
                        .saturating_sub(res.bandwidth);
                }
                for &l in &path.links {
                    self.usage[l.value() as usize].reserved += res.bandwidth;
                }
                // The old path's links just gained headroom.
                self.route_cache.note_growth();
                self.reservations.get_mut(&slice).expect("present").path = path;
                self.metrics.counter("transport.reroutes").inc();
                Ok(true)
            }
            _ => {
                // Stay put (possibly oversubscribed until the fade passes).
                Ok(false)
            }
        }
    }

    /// Record per-link utilization telemetry: one gauge per link, because
    /// the reports and the dashboard read the current value only (the
    /// link table's rows come from [`snapshot`](Self::snapshot)). A gauge
    /// holds no timestamp; `_now` stays for the callers.
    pub fn record_epoch(&mut self, _now: SimTime) {
        for (usage, name) in self.usage.iter().zip(&self.utilization_gauges) {
            let util = usage.utilization();
            let util = if util.is_finite() { util } else { 1.0 };
            match self.metrics.gauge_mut(name) {
                Some(gauge) => gauge.set(util),
                // First epoch: the gauge does not exist until set.
                None => self.metrics.gauge(name).set(util),
            }
        }
    }

    /// Domain snapshot for the orchestrator/dashboard.
    pub fn snapshot(&self) -> TransportSnapshot {
        TransportSnapshot {
            links: self
                .topo
                .links()
                .iter()
                .map(|l| {
                    let u = &self.usage[l.id.value() as usize];
                    LinkRow {
                        link: l.id,
                        effective_capacity: u.effective_capacity(),
                        reserved: u.reserved,
                        utilization: u.utilization(),
                        degradation: u.degradation,
                        up: self.link_is_up(l.id),
                    }
                })
                .collect(),
            paths: self.reservations.len(),
        }
    }

    /// Flow table of `switch` (for tests/inspection).
    pub fn flow_table(&self, switch: SwitchId) -> Option<&FlowTable> {
        self.tables.get(&switch)
    }

    /// The controller's telemetry registry.
    pub fn metrics(&self) -> &MetricRegistry {
        &self.metrics
    }

    /// The domain's complete serializable state. Routing scratch buffers
    /// are excluded (pure workspace, rebuilt empty on restore) and the
    /// route cache contributes only its configuration and counters — see
    /// [`RouteCache::export_state`] for why dropping the memoized entries
    /// cannot change any routing answer.
    pub fn export_state(&self) -> TransportControllerState {
        TransportControllerState {
            topo: self.topo.clone(),
            usage: self.usage.clone(),
            down_reasons: self.down_reasons.clone(),
            tables: self.tables.clone(),
            reservations: self.reservations.clone(),
            metrics: self.metrics.clone(),
            route_cache: self.route_cache.export_state(),
        }
    }

    /// A controller rebuilt from [`TransportController::export_state`]:
    /// identical decisions and telemetry from the captured point onward.
    pub fn from_state(state: &TransportControllerState) -> TransportController {
        TransportController {
            topo: state.topo.clone(),
            usage: state.usage.clone(),
            down_reasons: state.down_reasons.clone(),
            tables: state.tables.clone(),
            reservations: state.reservations.clone(),
            metrics: state.metrics.clone(),
            utilization_gauges: utilization_gauges(&state.topo),
            scratch: RoutingScratch::new(),
            route_cache: RouteCache::from_state(&state.route_cache),
        }
    }
}

/// Serializable state of a [`TransportController`] (everything except
/// routing scratch and memoized cache entries — see
/// [`TransportController::export_state`]).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TransportControllerState {
    /// The substrate topology.
    pub topo: Topology,
    /// Per-link reservation/degradation accounting, indexed by link id.
    pub usage: Vec<LinkUsage>,
    /// Per-link count of independent down-reasons.
    pub down_reasons: Vec<u32>,
    /// Per-switch flow tables.
    pub tables: BTreeMap<SwitchId, FlowTable>,
    /// Installed path reservations by slice.
    pub reservations: BTreeMap<SliceId, PathReservation>,
    /// Telemetry registry of the domain.
    pub metrics: MetricRegistry,
    /// Route cache configuration and counters.
    pub route_cache: crate::cache::RouteCacheState,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovnes_model::{DcId, EnbId};
    use ovnes_sim::SimRng;

    fn testbed_controller() -> TransportController {
        TransportController::new(Topology::testbed(), 1024)
    }

    fn endpoints(c: &TransportController) -> (NodeId, NodeId, NodeId) {
        let t = c.topology();
        (
            t.radio_site(EnbId::new(0)).unwrap(),
            t.dc_node(DcId::new(0)).unwrap(),
            t.dc_node(DcId::new(1)).unwrap(),
        )
    }

    #[test]
    fn allocate_picks_min_delay_feasible_path() {
        let mut c = testbed_controller();
        let (src, edge, _) = endpoints(&c);
        let alloc = c
            .allocate(
                SliceId::new(1),
                src,
                edge,
                RateMbps::new(100.0),
                Latency::new(5.0),
            )
            .unwrap();
        // mmWave (0.5) + fiber (0.2) beats µwave (1.0) + fiber.
        assert_eq!(alloc.delay_at_allocation, Latency::new(0.7));
        assert_eq!(alloc.reservation.path.hops(), 2);
        // Bandwidth accounted on both links.
        for &l in &alloc.reservation.path.links {
            assert_eq!(c.link_usage(l).reserved.value(), 100.0);
        }
    }

    #[test]
    fn allocate_installs_flow_rules_on_interior_switches() {
        let mut c = testbed_controller();
        let (src, _, core) = endpoints(&c);
        c.allocate(
            SliceId::new(1),
            src,
            core,
            RateMbps::new(50.0),
            Latency::new(10.0),
        )
        .unwrap();
        // Path crosses pf5240 (sw 0) and core-agg (sw 1): one rule each.
        assert_eq!(c.flow_table(SwitchId::new(0)).unwrap().len(), 1);
        assert_eq!(c.flow_table(SwitchId::new(1)).unwrap().len(), 1);
    }

    #[test]
    fn infeasible_capacity_is_rejected() {
        let mut c = testbed_controller();
        let (src, edge, _) = endpoints(&c);
        // 5 Gbps exceeds even mmWave.
        assert_eq!(
            c.allocate(
                SliceId::new(1),
                src,
                edge,
                RateMbps::new(5000.0),
                Latency::new(50.0)
            ),
            Err(TransportError::NoFeasiblePath)
        );
    }

    #[test]
    fn infeasible_delay_is_rejected() {
        let mut c = testbed_controller();
        let (src, _, core) = endpoints(&c);
        assert_eq!(
            c.allocate(
                SliceId::new(1),
                src,
                core,
                RateMbps::new(10.0),
                Latency::new(0.1)
            ),
            Err(TransportError::NoFeasiblePath)
        );
    }

    #[test]
    fn double_allocation_rejected() {
        let mut c = testbed_controller();
        let (src, edge, _) = endpoints(&c);
        c.allocate(
            SliceId::new(1),
            src,
            edge,
            RateMbps::new(10.0),
            Latency::new(5.0),
        )
        .unwrap();
        assert_eq!(
            c.allocate(
                SliceId::new(1),
                src,
                edge,
                RateMbps::new(10.0),
                Latency::new(5.0)
            ),
            Err(TransportError::AlreadyAllocated(SliceId::new(1)))
        );
    }

    #[test]
    fn release_frees_bandwidth_and_rules() {
        let mut c = testbed_controller();
        let (src, _, core) = endpoints(&c);
        let alloc = c
            .allocate(
                SliceId::new(1),
                src,
                core,
                RateMbps::new(50.0),
                Latency::new(10.0),
            )
            .unwrap();
        c.release(SliceId::new(1)).unwrap();
        for &l in &alloc.reservation.path.links {
            assert_eq!(c.link_usage(l).reserved, RateMbps::ZERO);
        }
        assert!(c.flow_table(SwitchId::new(0)).unwrap().is_empty());
        assert_eq!(
            c.release(SliceId::new(1)),
            Err(TransportError::NotAllocated(SliceId::new(1)))
        );
    }

    #[test]
    fn capacity_exhaustion_falls_back_to_secondary_path() {
        let mut c = testbed_controller();
        let (src, edge, _) = endpoints(&c);
        // Fill the mmWave uplink (1000 Mbps).
        c.allocate(
            SliceId::new(1),
            src,
            edge,
            RateMbps::new(950.0),
            Latency::new(5.0),
        )
        .unwrap();
        // Next slice cannot fit on mmWave; must take µwave (delay 1.0 + 0.2).
        let alloc = c
            .allocate(
                SliceId::new(2),
                src,
                edge,
                RateMbps::new(100.0),
                Latency::new(5.0),
            )
            .unwrap();
        assert_eq!(alloc.delay_at_allocation, Latency::new(1.2));
    }

    #[test]
    fn resize_up_and_down() {
        let mut c = testbed_controller();
        let (src, edge, _) = endpoints(&c);
        let alloc = c
            .allocate(
                SliceId::new(1),
                src,
                edge,
                RateMbps::new(100.0),
                Latency::new(5.0),
            )
            .unwrap();
        c.resize(SliceId::new(1), RateMbps::new(300.0)).unwrap();
        let l0 = alloc.reservation.path.links[0];
        assert_eq!(c.link_usage(l0).reserved.value(), 300.0);
        c.resize(SliceId::new(1), RateMbps::new(50.0)).unwrap();
        assert_eq!(c.link_usage(l0).reserved.value(), 50.0);
        // Growing past mmWave capacity fails.
        assert!(matches!(
            c.resize(SliceId::new(1), RateMbps::new(2000.0)),
            Err(TransportError::InsufficientLinkCapacity(_))
        ));
        assert!(c.resize(SliceId::new(9), RateMbps::new(1.0)).is_err());
    }

    #[test]
    fn degrade_reports_oversubscribed_slices_and_reroute_moves_them() {
        let mut c = testbed_controller();
        let (src, edge, _) = endpoints(&c);
        let alloc = c
            .allocate(
                SliceId::new(1),
                src,
                edge,
                RateMbps::new(300.0),
                Latency::new(5.0),
            )
            .unwrap();
        let mm = alloc.reservation.path.links[0];
        // Rain fade: mmWave down to 20% → 200 Mbps < 300 reserved.
        let affected = c.degrade_link(mm, 0.2);
        assert_eq!(affected, vec![SliceId::new(1)]);
        // Reroute moves the slice to the µwave path.
        assert_eq!(c.reroute(SliceId::new(1)), Ok(true));
        let new_path = &c.reservation(SliceId::new(1)).unwrap().path;
        assert!(!new_path.links.contains(&mm));
        assert_eq!(c.link_usage(mm).reserved, RateMbps::ZERO);
        // Restore and note a mild degradation doesn't flag anyone.
        c.restore_link(mm);
        assert!(c.degrade_link(mm, 0.9).is_empty());
    }

    #[test]
    fn reroute_stays_put_when_no_alternative() {
        let mut c = testbed_controller();
        let (src, edge, _) = endpoints(&c);
        let alloc = c
            .allocate(
                SliceId::new(1),
                src,
                edge,
                RateMbps::new(500.0),
                Latency::new(5.0),
            )
            .unwrap();
        let mm = alloc.reservation.path.links[0];
        // µwave is only 400 Mbps: a 500 Mbps slice cannot move.
        c.degrade_link(mm, 0.1);
        assert_eq!(c.reroute(SliceId::new(1)), Ok(false));
        assert_eq!(
            c.reservation(SliceId::new(1)).unwrap().path,
            alloc.reservation.path
        );
        assert!(c.reroute(SliceId::new(9)).is_err());
    }

    #[test]
    fn path_delay_reflects_load() {
        let mut c = testbed_controller();
        let (src, edge, _) = endpoints(&c);
        c.allocate(
            SliceId::new(1),
            src,
            edge,
            RateMbps::new(100.0),
            Latency::new(5.0),
        )
        .unwrap();
        let light = c.path_delay(SliceId::new(1)).unwrap();
        // Load the mmWave link to 95% with another slice.
        c.allocate(
            SliceId::new(2),
            src,
            edge,
            RateMbps::new(850.0),
            Latency::new(5.0),
        )
        .unwrap();
        let heavy = c.path_delay(SliceId::new(1)).unwrap();
        assert!(heavy.value() > light.value(), "{heavy} vs {light}");
        assert_eq!(c.path_delay(SliceId::new(9)), None);
    }

    #[test]
    fn flow_table_exhaustion_rolls_back() {
        let mut c = TransportController::new(Topology::testbed(), 1);
        let (src, _, core) = endpoints(&c);
        // Path src→core needs 2 interior rules (pf + agg); table cap 1 per
        // switch is fine (one rule per switch). Fill pf's table first.
        let (_, edge, _) = endpoints(&c);
        c.allocate(
            SliceId::new(1),
            src,
            edge,
            RateMbps::new(10.0),
            Latency::new(5.0),
        )
        .unwrap();
        let t1 = c.topology().radio_site(EnbId::new(1)).unwrap();
        let err = c
            .allocate(
                SliceId::new(2),
                t1,
                core,
                RateMbps::new(10.0),
                Latency::new(10.0),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            TransportError::FlowTable(SwitchError::TableFull { .. })
        ));
        // Rollback: no orphan rules for slice 2, no bandwidth leaked.
        assert_eq!(c.flow_table(SwitchId::new(1)).unwrap().len(), 0);
        let snap = c.snapshot();
        let leaked: f64 = snap.links.iter().map(|r| r.reserved.value()).sum::<f64>();
        assert_eq!(leaked, 20.0, "only slice 1's two links carry reservations");
    }

    #[test]
    fn snapshot_and_epoch_telemetry() {
        let mut c = testbed_controller();
        let (src, edge, _) = endpoints(&c);
        c.allocate(
            SliceId::new(1),
            src,
            edge,
            RateMbps::new(500.0),
            Latency::new(5.0),
        )
        .unwrap();
        c.record_epoch(SimTime::from_secs(1));
        let snap = c.snapshot();
        assert_eq!(snap.paths, 1);
        let mm_row = snap
            .links
            .iter()
            .find(|r| r.reserved.value() > 0.0)
            .unwrap();
        assert!((mm_row.utilization - 0.5).abs() < 1e-9);
        assert_eq!(c.metrics().counter_value("transport.allocations"), Some(1));
        assert_eq!(
            c.metrics()
                .gauge_value(&format!("transport.{}.utilization", mm_row.link)),
            Some(mm_row.utilization)
        );
    }

    /// Nothing reads a link's history, so none is kept: the registry is the
    /// same size after 200 epochs as after one, and the report still carries
    /// every link's current utilization (non-finite → 1.0).
    #[test]
    fn epoch_telemetry_is_a_gauge_per_link_and_does_not_grow() {
        let mut c = testbed_controller();
        let (src, edge, _) = endpoints(&c);
        c.allocate(
            SliceId::new(1),
            src,
            edge,
            RateMbps::new(500.0),
            Latency::new(5.0),
        )
        .unwrap();
        let registry_len =
            |c: &TransportController| serde_json::to_vec(&c.export_state().metrics).unwrap().len();
        c.record_epoch(SimTime::from_secs(60));
        let after_one = registry_len(&c);
        for epoch in 2..=200u64 {
            c.record_epoch(SimTime::from_secs(60 * epoch));
        }
        assert_eq!(registry_len(&c), after_one);

        // A reserved link faded to nothing reads infinite utilization.
        let snap = c.snapshot();
        let faded = snap.links.iter().find(|r| r.reserved.value() > 0.0);
        let faded = faded.unwrap().link;
        c.degrade_link(faded, 0.0);
        assert!(c.link_usage(faded).utilization().is_infinite());
        c.record_epoch(SimTime::from_secs(60 * 201));
        let scalars = c.metrics().scalar_snapshot();
        for link in c.topology().links() {
            let util = c.link_usage(link.id).utilization();
            let booked = if util.is_finite() { util } else { 1.0 };
            assert_eq!(
                scalars[&format!("transport.{}.utilization", link.id)].to_bits(),
                booked.to_bits(),
                "{}",
                link.id
            );
        }
    }

    #[test]
    fn allocation_counter_tracks() {
        let mut c = testbed_controller();
        let (src, edge, _) = endpoints(&c);
        for i in 0..3 {
            c.allocate(
                SliceId::new(i),
                src,
                edge,
                RateMbps::new(10.0),
                Latency::new(5.0),
            )
            .unwrap();
        }
        assert_eq!(c.metrics().counter_value("transport.allocations"), Some(3));
        assert_eq!(c.snapshot().paths, 3);
    }

    #[test]
    fn steady_state_allocations_hit_the_route_cache() {
        let mut c = testbed_controller();
        let (src, edge, _) = endpoints(&c);
        // Five same-class slices: one cold CSPF, four cache hits, all on
        // the mmWave path (1000 Mbps absorbs 5 × 200).
        let first = c
            .allocate(
                SliceId::new(0),
                src,
                edge,
                RateMbps::new(200.0),
                Latency::new(5.0),
            )
            .unwrap();
        for i in 1..5 {
            let a = c
                .allocate(
                    SliceId::new(i),
                    src,
                    edge,
                    RateMbps::new(200.0),
                    Latency::new(5.0),
                )
                .unwrap();
            assert_eq!(a.reservation.path, first.reservation.path);
        }
        let stats = c.route_cache().stats();
        assert_eq!((stats.hits, stats.misses), (4, 1));
        // mmWave is now full: revalidation fails, a fresh CSPF falls back
        // to µwave — the cache never serves an infeasible path.
        let sixth = c
            .allocate(
                SliceId::new(5),
                src,
                edge,
                RateMbps::new(200.0),
                Latency::new(5.0),
            )
            .unwrap();
        assert_ne!(sixth.reservation.path, first.reservation.path);
        assert_eq!(c.route_cache().stats().misses, 2);
    }

    #[test]
    fn route_cache_matches_uncached_controller() {
        // Generation invalidation is never stale: a cached controller and a
        // cache-disabled twin stay observably identical — same results, same
        // reservations, same link usage — after every op of seeded
        // allocate / resize / release / degrade / restore / reroute
        // interleavings. Two more cases script the shapes the cache exists
        // for: allocate/release churn over 16 constraint classes, and fade →
        // reroute-everyone → restore rounds on enb0's mmWave link.
        const SEEDED: u64 = 256;
        let bws = [50.0, 120.0, 300.0, 500.0];
        let factors = [0.1, 0.35, 0.7, 1.0];
        for case in 0..SEEDED + 2 {
            let mut rng = SimRng::seed_from(case);
            // (op, a, c): 0 allocate · 1 resize · 2 release · 3 degrade ·
            // 4 restore · 5 reroute; `a` picks endpoints, slice or link, `c`
            // the bandwidth or fade factor.
            let mut ops: Vec<(usize, usize, usize)> = Vec::new();
            if case < SEEDED {
                for _ in 0..rng.uniform_usize(1, 60) {
                    let op = rng.uniform_usize(0, 6);
                    ops.push((op, rng.uniform_usize(0, 16), rng.uniform_usize(0, 4)));
                }
            } else if case == SEEDED {
                for _ in 0..10 {
                    ops.extend((0..48).map(|i| (0, i % 4, i / 4 % 4)));
                    ops.extend((0..48).map(|_| (2, 0, 0)));
                }
            } else {
                ops.extend((0..6).map(|_| (0, 0, 1)));
                for _ in 0..3 {
                    ops.push((3, 0, 0));
                    ops.extend((0..12).map(|i| (5, i, 0)));
                    ops.push((4, 0, 0));
                }
            }

            let mut cached = testbed_controller();
            let mut plain = testbed_controller();
            plain.set_route_cache_enabled(false);
            let (srcs, dsts, link_count) = {
                let t = cached.topology();
                (
                    [0, 1].map(|e| t.radio_site(EnbId::new(e)).unwrap()),
                    [0, 1].map(|d| t.dc_node(DcId::new(d)).unwrap()),
                    t.link_count(),
                )
            };
            let mut next_slice = 0u64;
            let mut live: Vec<SliceId> = Vec::new();
            for (i, &(op, a, c)) in ops.iter().enumerate() {
                let at = format!("case {case}, op {i}: {:?}", (op, a, c));
                let link = LinkId::new((a % link_count) as u64);
                let bw = RateMbps::new(bws[c]);
                match op {
                    0 => {
                        let id = SliceId::new(next_slice);
                        next_slice += 1;
                        let (src, dst) = (srcs[a % 2], dsts[a / 2 % 2]);
                        let got = cached.allocate(id, src, dst, bw, Latency::new(10.0));
                        assert_eq!(got, plain.allocate(id, src, dst, bw, Latency::new(10.0)), "{at}");
                        if got.is_ok() {
                            live.push(id);
                        }
                    }
                    3 => assert_eq!(
                        cached.degrade_link(link, factors[c]),
                        plain.degrade_link(link, factors[c]),
                        "{at}"
                    ),
                    4 => {
                        cached.restore_link(link);
                        plain.restore_link(link);
                    }
                    _ if live.is_empty() => {}
                    1 => {
                        let id = live[a % live.len()];
                        assert_eq!(cached.resize(id, bw), plain.resize(id, bw), "{at}");
                    }
                    2 => {
                        let id = live.remove(a % live.len());
                        assert_eq!(cached.release(id), plain.release(id), "{at}");
                    }
                    _ => {
                        let id = live[a % live.len()];
                        assert_eq!(cached.reroute(id), plain.reroute(id), "{at}");
                        assert_eq!(cached.reservation(id), plain.reservation(id), "{at}");
                    }
                }
                assert_eq!(cached.snapshot(), plain.snapshot(), "{at}");
            }
            assert_eq!(plain.route_cache().stats().hits, 0, "case {case}");
            if case >= SEEDED {
                let stats = cached.route_cache().stats();
                assert!(stats.hits > 0, "case {case} never hit the cache: {stats:?}");
            }
        }
    }

    #[test]
    fn release_invalidates_cached_routes() {
        let mut c = testbed_controller();
        let (src, edge, _) = endpoints(&c);
        c.allocate(
            SliceId::new(0),
            src,
            edge,
            RateMbps::new(100.0),
            Latency::new(5.0),
        )
        .unwrap();
        c.release(SliceId::new(0)).unwrap();
        c.allocate(
            SliceId::new(1),
            src,
            edge,
            RateMbps::new(100.0),
            Latency::new(5.0),
        )
        .unwrap();
        let stats = c.route_cache().stats();
        assert_eq!((stats.hits, stats.misses), (0, 2));
    }

    #[test]
    fn degradation_churn_invalidates_only_on_recovery() {
        let mut c = testbed_controller();
        let (src, edge, _) = endpoints(&c);
        let alloc = c
            .allocate(
                SliceId::new(0),
                src,
                edge,
                RateMbps::new(100.0),
                Latency::new(5.0),
            )
            .unwrap();
        let mm = alloc.reservation.path.links[0];
        // Deeper fade = shrink: cached path revalidates and still hits.
        c.degrade_link(mm, 0.5);
        c.allocate(
            SliceId::new(1),
            src,
            edge,
            RateMbps::new(100.0),
            Latency::new(5.0),
        )
        .unwrap();
        // Re-applying the same factor (every-epoch weather) stays a hit.
        c.degrade_link(mm, 0.5);
        c.allocate(
            SliceId::new(2),
            src,
            edge,
            RateMbps::new(100.0),
            Latency::new(5.0),
        )
        .unwrap();
        assert_eq!(c.route_cache().stats().hits, 2);
        // Recovery is growth: the next query recomputes.
        c.restore_link(mm);
        c.allocate(
            SliceId::new(3),
            src,
            edge,
            RateMbps::new(100.0),
            Latency::new(5.0),
        )
        .unwrap();
        let stats = c.route_cache().stats();
        assert_eq!((stats.hits, stats.misses), (2, 2));
    }

    #[test]
    fn cached_path_through_a_dead_middle_link_is_rejected() {
        let mut c = testbed_controller();
        let (src, _, core) = endpoints(&c);
        // Warm the cache on the enb0 → pf → agg → core path.
        let first = c
            .allocate(
                SliceId::new(0),
                src,
                core,
                RateMbps::new(50.0),
                Latency::new(10.0),
            )
            .unwrap();
        c.allocate(
            SliceId::new(1),
            src,
            core,
            RateMbps::new(50.0),
            Latency::new(10.0),
        )
        .unwrap();
        assert_eq!(
            (c.route_cache().stats().hits, c.route_cache().stats().misses),
            (1, 1)
        );
        // The middle hop (pf → agg fiber) dies. Both slices traverse it.
        let middle = first.reservation.path.links[1];
        let affected = c.fail_link(middle);
        assert_eq!(affected, vec![SliceId::new(0), SliceId::new(1)]);
        assert!(!c.link_is_up(middle));
        assert_eq!(c.down_links(), vec![middle]);
        // Revalidation must reject the cached path link-wise: there is no
        // alternative to the core, so the fresh search finds nothing — the
        // cache never serves a route through a dead hop.
        assert_eq!(
            c.allocate(
                SliceId::new(2),
                src,
                core,
                RateMbps::new(50.0),
                Latency::new(10.0)
            ),
            Err(TransportError::NoFeasiblePath)
        );
        assert_eq!(c.route_cache().stats().misses, 2);
        // Paths through the dead link deliver nothing.
        assert_eq!(c.capacity_share(SliceId::new(0)), Some(0.0));
        // Flap-up is a growth event: the cached `None` goes stale and the
        // old path is found again.
        assert!(c.revive_link(middle));
        let again = c
            .allocate(
                SliceId::new(3),
                src,
                core,
                RateMbps::new(50.0),
                Latency::new(10.0),
            )
            .unwrap();
        assert_eq!(again.reservation.path, first.reservation.path);
        assert_eq!(c.route_cache().stats().misses, 3);
        assert_eq!(c.capacity_share(SliceId::new(0)), Some(1.0));
    }

    #[test]
    fn failed_link_reroutes_onto_the_surviving_path() {
        let mut c = testbed_controller();
        let (src, edge, _) = endpoints(&c);
        let alloc = c
            .allocate(
                SliceId::new(1),
                src,
                edge,
                RateMbps::new(100.0),
                Latency::new(5.0),
            )
            .unwrap();
        let mm = alloc.reservation.path.links[0];
        assert_eq!(c.fail_link(mm), vec![SliceId::new(1)]);
        // The virtual-release reroute must avoid the dead mmWave link.
        assert_eq!(c.reroute(SliceId::new(1)), Ok(true));
        let path = &c.reservation(SliceId::new(1)).unwrap().path;
        assert!(!path.links.contains(&mm));
        assert_eq!(c.link_usage(mm).reserved, RateMbps::ZERO);
        assert_eq!(c.capacity_share(SliceId::new(1)), Some(1.0));
    }

    #[test]
    fn down_reasons_stack_across_link_and_switch_failures() {
        let mut c = testbed_controller();
        let (src, edge, _) = endpoints(&c);
        c.allocate(
            SliceId::new(1),
            src,
            edge,
            RateMbps::new(10.0),
            Latency::new(5.0),
        )
        .unwrap();
        let mm = c.reservation(SliceId::new(1)).unwrap().path.links[0];
        // The pf switch outage downs every incident link.
        let affected = c.fail_switch(SwitchId::new(0));
        assert_eq!(affected, vec![SliceId::new(1)]);
        assert!(c.down_links().len() >= 5, "{:?}", c.down_links());
        // Fail the mmWave link on its own schedule too, then revive the
        // switch: the link must stay down until its own reason clears.
        assert!(c.fail_link(mm).is_empty(), "already down, nothing new");
        c.revive_switch(SwitchId::new(0));
        assert!(!c.link_is_up(mm));
        assert!(c.revive_link(mm));
        assert!(c.link_is_up(mm));
        assert!(c.down_links().is_empty());
        // Reviving an up link is a no-op.
        assert!(!c.revive_link(mm));
    }

    #[test]
    fn snapshot_reports_link_health() {
        let mut c = testbed_controller();
        let dead = LinkId::new(4);
        c.fail_link(dead);
        let snap = c.snapshot();
        for row in &snap.links {
            assert_eq!(row.up, row.link != dead, "{row:?}");
        }
        assert_eq!(
            c.metrics().counter_value("transport.link_failures"),
            Some(1)
        );
    }

    #[test]
    fn stay_put_reroutes_keep_the_cache_warm() {
        let mut c = testbed_controller();
        let (src, edge, _) = endpoints(&c);
        let alloc = c
            .allocate(
                SliceId::new(1),
                src,
                edge,
                RateMbps::new(500.0),
                Latency::new(5.0),
            )
            .unwrap();
        let mm = alloc.reservation.path.links[0];
        // µwave (400 Mbps) cannot take 500: every reroute stays put, and
        // after the first miss the identical query is served cached.
        c.degrade_link(mm, 0.1);
        assert_eq!(c.reroute(SliceId::new(1)), Ok(false));
        assert_eq!(c.reroute(SliceId::new(1)), Ok(false));
        assert_eq!(c.reroute(SliceId::new(1)), Ok(false));
        let stats = c.route_cache().stats();
        assert_eq!((stats.hits, stats.misses), (2, 2));
        assert_eq!(
            c.reservation(SliceId::new(1)).unwrap().path,
            alloc.reservation.path
        );
    }
}
