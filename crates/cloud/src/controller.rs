//! The cloud domain controller.
//!
//! Executes the orchestrator's stack deployments ("OpenEPC instances are
//! deployed … to provide connectivity to the end-users", §3): validates the
//! Heat template, places every VM in dependency order, rolls the whole stack
//! back if any placement fails (Heat's CREATE_FAILED semantics), and
//! publishes per-DC utilization telemetry.

use crate::datacenter::{DataCenter, DcKind};
use crate::host::HostCapacity;
use crate::stack::{StackState, StackTemplate, TemplateError};
use ovnes_model::ids::IdAllocator;
use ovnes_model::{DcId, HostId, SliceId, StackId, VmId};
use ovnes_sim::{MetricRegistry, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A VM successfully placed as part of a stack.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PlacedVm {
    /// The VM.
    pub vm: VmId,
    /// Resource name from the template (`"mme"`, …).
    pub name: String,
    /// Host it landed on.
    pub host: HostId,
    /// Capacity granted at deployment (the sizing baseline scaling works
    /// against).
    pub demand: HostCapacity,
    /// Capacity currently held (equals `demand` until the stack is scaled).
    pub current: HostCapacity,
}

/// A deployed (or rolled-back) stack.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DeployedStack {
    /// Identifier.
    pub id: StackId,
    /// The slice this stack serves.
    pub slice: SliceId,
    /// The DC it was placed in.
    pub dc: DcId,
    /// Placed VMs in boot order.
    pub vms: Vec<PlacedVm>,
    /// Lifecycle state.
    pub state: StackState,
    /// Time from create call to CREATE_COMPLETE (critical path of the
    /// template's dependency DAG).
    pub deploy_time: SimDuration,
}

/// Errors from cloud operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CloudError {
    /// The template failed validation.
    Template(TemplateError),
    /// No managed DC has that id.
    UnknownDc(DcId),
    /// A resource could not be placed; the stack was rolled back.
    PlacementFailed {
        /// Which resource (template name) failed.
        resource: String,
    },
    /// No stack with that id.
    UnknownStack(StackId),
    /// The slice already has a stack deployed.
    AlreadyDeployed(SliceId),
}

impl fmt::Display for CloudError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CloudError::Template(e) => write!(f, "invalid template: {e}"),
            CloudError::UnknownDc(d) => write!(f, "unknown data center {d}"),
            CloudError::PlacementFailed { resource } => {
                write!(
                    f,
                    "could not place resource {resource:?}; stack rolled back"
                )
            }
            CloudError::UnknownStack(s) => write!(f, "unknown stack {s}"),
            CloudError::AlreadyDeployed(s) => write!(f, "slice {s} already has a stack"),
        }
    }
}

impl std::error::Error for CloudError {}

impl From<TemplateError> for CloudError {
    fn from(e: TemplateError) -> Self {
        CloudError::Template(e)
    }
}

/// Telemetry snapshot of the cloud domain.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CloudSnapshot {
    /// Per-DC rows.
    pub dcs: Vec<DcRow>,
    /// Live stacks.
    pub stacks: usize,
}

/// One DC's row in a [`CloudSnapshot`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DcRow {
    /// The DC.
    pub dc: DcId,
    /// Edge or core.
    pub kind: DcKind,
    /// Dominant utilization (max of CPU/RAM/disk fractions).
    pub utilization: f64,
    /// VMs running.
    pub vms: usize,
}

/// The cloud domain controller. See module docs.
///
/// Plain data with no scratch buffers or closures, so the controller is its
/// own checkpoint: it serializes as it stands.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CloudController {
    dcs: BTreeMap<DcId, DataCenter>,
    stacks: BTreeMap<StackId, DeployedStack>,
    by_slice: BTreeMap<SliceId, StackId>,
    vm_ids: IdAllocator,
    stack_ids: IdAllocator,
    metrics: MetricRegistry,
}

/// Serializable state of a [`CloudController`]: the controller itself.
pub type CloudControllerState = CloudController;

impl CloudController {
    /// A controller managing `dcs`.
    ///
    /// # Panics
    /// Panics if two DCs share an id.
    pub fn new(dcs: Vec<DataCenter>) -> CloudController {
        let mut map = BTreeMap::new();
        for dc in dcs {
            let prev = map.insert(dc.id(), dc);
            assert!(prev.is_none(), "duplicate DC id");
        }
        CloudController {
            dcs: map,
            stacks: BTreeMap::new(),
            by_slice: BTreeMap::new(),
            vm_ids: IdAllocator::new(),
            stack_ids: IdAllocator::new(),
            metrics: MetricRegistry::new(),
        }
    }

    /// Ids of managed DCs.
    pub fn dc_ids(&self) -> Vec<DcId> {
        self.dcs.keys().copied().collect()
    }

    /// The DC of the given kind with the lowest utilization that can fit
    /// `demand` on a single host per resource (approximated by the largest
    /// single resource), or `None`.
    pub fn find_dc(&self, kind: DcKind, template: &StackTemplate) -> Option<DcId> {
        self.dcs
            .values()
            .filter(|dc| dc.kind() == kind)
            .filter(|dc| {
                // Quick feasibility: every resource must fit on some host
                // of a hypothetical empty copy — approximate by checking the
                // current DC can fit each resource one at a time.
                template.resources.iter().all(|r| dc.can_fit(&r.demand))
            })
            .min_by(|a, b| {
                a.utilization()
                    .partial_cmp(&b.utilization())
                    .expect("utilizations are finite")
                    .then(a.id().cmp(&b.id()))
            })
            .map(|dc| dc.id())
    }

    /// Deploy `template` for `slice` into `dc`.
    ///
    /// Places resources in dependency order; if any placement fails, every
    /// already-placed VM is freed and the error names the failing resource
    /// (Heat rollback). On success the returned stack is CREATE_COMPLETE
    /// with its critical-path deploy time.
    pub fn deploy(
        &mut self,
        slice: SliceId,
        dc_id: DcId,
        template: &StackTemplate,
    ) -> Result<DeployedStack, CloudError> {
        if self.by_slice.contains_key(&slice) {
            return Err(CloudError::AlreadyDeployed(slice));
        }
        template.validate()?;
        let order = template
            .topological_order()
            .expect("validated template has an order");
        let deploy_time = template.deployment_time();

        let dc = self
            .dcs
            .get_mut(&dc_id)
            .ok_or(CloudError::UnknownDc(dc_id))?;
        let mut placed: Vec<PlacedVm> = Vec::with_capacity(order.len());
        for &i in &order {
            let spec = &template.resources[i];
            let vm: VmId = self.vm_ids.next();
            match dc.place(vm, spec.demand) {
                Some(host) => placed.push(PlacedVm {
                    vm,
                    name: spec.name.clone(),
                    host,
                    demand: spec.demand,
                    current: spec.demand,
                }),
                None => {
                    for p in &placed {
                        dc.free_vm(p.vm);
                    }
                    self.metrics.counter("cloud.rollbacks").inc();
                    return Err(CloudError::PlacementFailed {
                        resource: spec.name.clone(),
                    });
                }
            }
        }
        let id: StackId = self.stack_ids.next();
        let stack = DeployedStack {
            id,
            slice,
            dc: dc_id,
            vms: placed,
            state: StackState::CreateComplete,
            deploy_time,
        };
        self.stacks.insert(id, stack.clone());
        self.by_slice.insert(slice, id);
        self.metrics.counter("cloud.deployments").inc();
        Ok(stack)
    }

    /// Delete `slice`'s stack, freeing all its VMs.
    pub fn delete_for_slice(&mut self, slice: SliceId) -> Result<DeployedStack, CloudError> {
        let stack_id = self
            .by_slice
            .remove(&slice)
            .ok_or(CloudError::UnknownStack(StackId::new(u64::MAX)))?;
        let mut stack = self
            .stacks
            .remove(&stack_id)
            .expect("by_slice and stacks are in sync");
        let dc = self
            .dcs
            .get_mut(&stack.dc)
            .expect("stack points at a managed DC");
        for vm in &stack.vms {
            dc.free_vm(vm.vm);
        }
        stack.state = StackState::Deleted;
        self.metrics.counter("cloud.deletions").inc();
        Ok(stack)
    }

    /// Vertically scale `slice`'s user-plane VNFs (SGW/PGW) to `fraction`
    /// of their deployed sizing — the cloud leg of an overbooking
    /// reconfiguration (a Heat stack *update* in the real testbed). Control-
    /// plane components keep their size; every axis floors at 1 vCPU /
    /// 256 MB / 2 GB. Returns how many VMs changed; growth a host cannot
    /// absorb leaves that VM unchanged.
    pub fn scale_for_slice(&mut self, slice: SliceId, fraction: f64) -> Result<usize, CloudError> {
        let stack_id = *self
            .by_slice
            .get(&slice)
            .ok_or(CloudError::UnknownStack(StackId::new(u64::MAX)))?;
        let stack = self.stacks.get_mut(&stack_id).expect("indexes in sync");
        let dc = self
            .dcs
            .get_mut(&stack.dc)
            .expect("stack points at a managed DC");
        let f = fraction.clamp(0.0, 1.0);
        let mut changed = 0;
        for vm in stack.vms.iter_mut() {
            if vm.name != "sgw" && vm.name != "pgw" {
                continue;
            }
            let target = HostCapacity {
                vcpus: ovnes_model::VCpus::new(
                    (((vm.demand.vcpus.value() as f64) * f).ceil() as u32).max(1),
                ),
                mem: ovnes_model::MemMb::new(
                    (((vm.demand.mem.value() as f64) * f).ceil() as u64).max(256),
                ),
                disk: vm.demand.disk, // storage does not shrink with load
            };
            if target == vm.current {
                continue;
            }
            if dc.resize_vm(vm.vm, target) {
                vm.current = target;
                changed += 1;
            }
        }
        if changed > 0 {
            self.metrics.counter("cloud.scalings").inc();
        }
        Ok(changed)
    }

    /// Fault injection: a host dies, taking its VMs with it. Every stack
    /// that lost a VM is marked [`StackState::Degraded`]; the affected
    /// slices are returned so the orchestrator can redeploy or terminate.
    pub fn fail_host(&mut self, dc_id: DcId, host: HostId) -> Vec<SliceId> {
        let Some(dc) = self.dcs.get_mut(&dc_id) else {
            return Vec::new();
        };
        let dead = dc.fail_host(host);
        if dead.is_empty() {
            return Vec::new();
        }
        let mut affected = Vec::new();
        for stack in self.stacks.values_mut() {
            if stack.dc == dc_id && stack.vms.iter().any(|v| dead.contains(&v.vm)) {
                stack.state = StackState::Degraded;
                affected.push(stack.slice);
            }
        }
        self.metrics.counter("cloud.host_failures").inc();
        affected.sort();
        affected
    }

    /// Return a failed host to service (hardware replaced), empty.
    pub fn revive_host(&mut self, dc_id: DcId, host: HostId) {
        if let Some(dc) = self.dcs.get_mut(&dc_id) {
            dc.revive_host(host);
        }
    }

    /// Recover a degraded slice: free the surviving VMs and redeploy the
    /// whole stack from its original sizing, preferring the same DC and
    /// falling back to any DC of the same kind. Returns the fresh stack
    /// (with its new deploy time — the service interruption).
    pub fn redeploy_for_slice(
        &mut self,
        slice: SliceId,
        template: &StackTemplate,
    ) -> Result<DeployedStack, CloudError> {
        let old = self.delete_for_slice(slice)?;
        let kind = self.dcs[&old.dc].kind();
        // Prefer the original DC; otherwise any same-kind DC that fits.
        let target = if self
            .dcs
            .get(&old.dc)
            .is_some_and(|dc| template.resources.iter().all(|r| dc.can_fit(&r.demand)))
        {
            Some(old.dc)
        } else {
            self.find_dc(kind, template)
        };
        let Some(dc) = target else {
            return Err(CloudError::PlacementFailed {
                resource: "no capacity for redeploy".into(),
            });
        };
        let stack = self.deploy(slice, dc, template)?;
        self.metrics.counter("cloud.redeployments").inc();
        Ok(stack)
    }

    /// The stack serving `slice`, if any.
    pub fn stack_for_slice(&self, slice: SliceId) -> Option<&DeployedStack> {
        self.by_slice.get(&slice).and_then(|id| self.stacks.get(id))
    }

    /// Utilization of the DC hosting `slice`'s stack (drives attach latency).
    pub fn slice_dc_utilization(&self, slice: SliceId) -> Option<f64> {
        let stack = self.stack_for_slice(slice)?;
        Some(self.dcs[&stack.dc].utilization())
    }

    /// A managed DC by id.
    pub fn dc(&self, id: DcId) -> Option<&DataCenter> {
        self.dcs.get(&id)
    }

    /// Record per-DC utilization telemetry: one gauge per DC, because the
    /// reports and the dashboard read the current value only. A gauge
    /// holds no timestamp; `_now` stays for the callers.
    pub fn record_epoch(&mut self, _now: SimTime) {
        for (id, dc) in &self.dcs {
            self.metrics
                .gauge(&format!("cloud.{id}.utilization"))
                .set(dc.utilization());
        }
    }

    /// Domain snapshot for the orchestrator/dashboard.
    pub fn snapshot(&self) -> CloudSnapshot {
        CloudSnapshot {
            dcs: self
                .dcs
                .values()
                .map(|dc| DcRow {
                    dc: dc.id(),
                    kind: dc.kind(),
                    utilization: dc.utilization(),
                    vms: dc.hosts().iter().map(|h| h.vm_count()).sum(),
                })
                .collect(),
            stacks: self.stacks.len(),
        }
    }

    /// The domain's complete serializable state: a copy of the controller.
    pub fn export_state(&self) -> CloudControllerState {
        self.clone()
    }

    /// A controller rebuilt from [`CloudController::export_state`].
    pub fn from_state(state: &CloudControllerState) -> CloudController {
        state.clone()
    }

    /// The controller's telemetry registry.
    pub fn metrics(&self) -> &MetricRegistry {
        &self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datacenter::PlacementStrategy;
    use crate::epc::{epc_template, EpcSizing};
    use ovnes_model::slice::SliceClass;
    use ovnes_model::{DiskGb, MemMb, RateMbps, VCpus};

    fn cap(v: u32, m: u64, d: u64) -> HostCapacity {
        HostCapacity {
            vcpus: VCpus::new(v),
            mem: MemMb::new(m),
            disk: DiskGb::new(d),
        }
    }

    fn controller() -> CloudController {
        CloudController::new(vec![
            DataCenter::homogeneous(
                DcId::new(0),
                DcKind::Edge,
                2,
                cap(16, 32_768, 200),
                PlacementStrategy::WorstFit,
            ),
            DataCenter::homogeneous(
                DcId::new(1),
                DcKind::Core,
                8,
                cap(32, 65_536, 500),
                PlacementStrategy::WorstFit,
            ),
        ])
    }

    fn template(slice: u64) -> StackTemplate {
        epc_template(
            SliceId::new(slice),
            &SliceClass::Embb.compute_demand(RateMbps::new(50.0)),
            &EpcSizing::default(),
        )
    }

    #[test]
    fn deploy_places_all_vms() {
        let mut c = controller();
        let stack = c
            .deploy(SliceId::new(1), DcId::new(1), &template(1))
            .unwrap();
        assert_eq!(stack.state, StackState::CreateComplete);
        assert_eq!(stack.vms.len(), 4);
        assert!(stack.deploy_time >= SimDuration::from_secs(10));
        assert_eq!(c.snapshot().stacks, 1);
        assert_eq!(c.metrics().counter_value("cloud.deployments"), Some(1));
        // VM names follow the boot order hss → mme → sgw → pgw.
        let names: Vec<&str> = stack.vms.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(names, vec!["hss", "mme", "sgw", "pgw"]);
    }

    #[test]
    fn deploy_into_unknown_dc_fails() {
        let mut c = controller();
        assert_eq!(
            c.deploy(SliceId::new(1), DcId::new(9), &template(1)),
            Err(CloudError::UnknownDc(DcId::new(9)))
        );
    }

    #[test]
    fn double_deploy_rejected() {
        let mut c = controller();
        c.deploy(SliceId::new(1), DcId::new(1), &template(1))
            .unwrap();
        assert_eq!(
            c.deploy(SliceId::new(1), DcId::new(0), &template(1)),
            Err(CloudError::AlreadyDeployed(SliceId::new(1)))
        );
    }

    #[test]
    fn placement_failure_rolls_back_everything() {
        // A tiny edge DC that can fit the first resources but not the SGW.
        let mut c = CloudController::new(vec![DataCenter::homogeneous(
            DcId::new(0),
            DcKind::Edge,
            1,
            cap(3, 8_192, 100),
            PlacementStrategy::FirstFit,
        )]);
        // eMBB@200 Mbps: sgw/pgw demand several vCPUs each.
        let t = epc_template(
            SliceId::new(1),
            &SliceClass::Embb.compute_demand(RateMbps::new(200.0)),
            &EpcSizing::default(),
        );
        let err = c.deploy(SliceId::new(1), DcId::new(0), &t).unwrap_err();
        assert!(matches!(err, CloudError::PlacementFailed { .. }));
        // Everything freed.
        let snap = c.snapshot();
        assert_eq!(snap.stacks, 0);
        assert_eq!(snap.dcs[0].vms, 0);
        assert_eq!(snap.dcs[0].utilization, 0.0);
        assert_eq!(c.metrics().counter_value("cloud.rollbacks"), Some(1));
        // The slice can be deployed elsewhere afterwards.
        assert!(c.stack_for_slice(SliceId::new(1)).is_none());
    }

    #[test]
    fn delete_frees_resources() {
        let mut c = controller();
        c.deploy(SliceId::new(1), DcId::new(0), &template(1))
            .unwrap();
        assert!(c.dc(DcId::new(0)).unwrap().utilization() > 0.0);
        let deleted = c.delete_for_slice(SliceId::new(1)).unwrap();
        assert_eq!(deleted.state, StackState::Deleted);
        assert_eq!(c.dc(DcId::new(0)).unwrap().utilization(), 0.0);
        assert_eq!(c.snapshot().stacks, 0);
        assert!(c.delete_for_slice(SliceId::new(1)).is_err());
    }

    #[test]
    fn find_dc_honors_kind_and_load() {
        let mut c = controller();
        let t = template(1);
        assert_eq!(c.find_dc(DcKind::Edge, &t), Some(DcId::new(0)));
        assert_eq!(c.find_dc(DcKind::Core, &t), Some(DcId::new(1)));
        // Fill the edge DC so it cannot take another vEPC of this size.
        for i in 0..6 {
            if c.find_dc(DcKind::Edge, &t).is_none() {
                break;
            }
            let _ = c.deploy(SliceId::new(100 + i), DcId::new(0), &template(100 + i));
        }
        // Eventually the edge DC stops fitting; core remains.
        assert_eq!(c.find_dc(DcKind::Core, &t), Some(DcId::new(1)));
    }

    #[test]
    fn slice_dc_utilization_tracks_stack() {
        let mut c = controller();
        assert_eq!(c.slice_dc_utilization(SliceId::new(1)), None);
        c.deploy(SliceId::new(1), DcId::new(0), &template(1))
            .unwrap();
        assert!(c.slice_dc_utilization(SliceId::new(1)).unwrap() > 0.0);
    }

    #[test]
    fn epoch_telemetry_recorded() {
        let mut c = controller();
        c.deploy(SliceId::new(1), DcId::new(0), &template(1))
            .unwrap();
        c.record_epoch(SimTime::from_secs(5));
        let registry_len =
            |c: &CloudController| serde_json::to_vec(&c.export_state().metrics).unwrap().len();
        let after_one = registry_len(&c);
        for epoch in 2..=200u64 {
            c.record_epoch(SimTime::from_secs(5 * epoch));
        }
        assert_eq!(registry_len(&c), after_one, "no history is kept");
        let scalars = c.metrics().scalar_snapshot();
        assert!(scalars["cloud.dc-0.utilization"] > 0.0);
        for id in [DcId::new(0), DcId::new(1)] {
            assert_eq!(
                scalars[&format!("cloud.{id}.utilization")].to_bits(),
                c.dc(id).unwrap().utilization().to_bits()
            );
        }
    }

    #[test]
    fn scale_shrinks_user_plane_only() {
        let mut c = controller();
        c.deploy(SliceId::new(1), DcId::new(1), &template(1))
            .unwrap();
        let before = c.dc(DcId::new(1)).unwrap().used();
        let changed = c.scale_for_slice(SliceId::new(1), 0.4).unwrap();
        assert_eq!(changed, 2, "sgw + pgw scaled");
        let after = c.dc(DcId::new(1)).unwrap().used();
        assert!(after.vcpus < before.vcpus, "{after:?} vs {before:?}");
        // Control plane untouched, user plane shrunk.
        let stack = c.stack_for_slice(SliceId::new(1)).unwrap();
        for vm in &stack.vms {
            match vm.name.as_str() {
                "sgw" | "pgw" => assert!(vm.current.vcpus <= vm.demand.vcpus),
                _ => assert_eq!(vm.current, vm.demand),
            }
        }
        assert_eq!(c.metrics().counter_value("cloud.scalings"), Some(1));
    }

    #[test]
    fn scale_back_up_restores_deploy_sizing() {
        let mut c = controller();
        c.deploy(SliceId::new(1), DcId::new(0), &template(1))
            .unwrap();
        let base = c.dc(DcId::new(0)).unwrap().used();
        c.scale_for_slice(SliceId::new(1), 0.3).unwrap();
        c.scale_for_slice(SliceId::new(1), 1.0).unwrap();
        assert_eq!(c.dc(DcId::new(0)).unwrap().used(), base);
    }

    #[test]
    fn scale_floors_at_minimum_and_is_idempotent() {
        let mut c = controller();
        c.deploy(SliceId::new(1), DcId::new(1), &template(1))
            .unwrap();
        c.scale_for_slice(SliceId::new(1), 0.0).unwrap();
        let stack = c.stack_for_slice(SliceId::new(1)).unwrap();
        for vm in stack
            .vms
            .iter()
            .filter(|v| v.name == "sgw" || v.name == "pgw")
        {
            assert!(vm.current.vcpus >= ovnes_model::VCpus::new(1));
            assert!(vm.current.mem >= ovnes_model::MemMb::new(256));
            assert_eq!(vm.current.disk, vm.demand.disk, "storage never shrinks");
        }
        // Same fraction again: nothing to change.
        assert_eq!(c.scale_for_slice(SliceId::new(1), 0.0).unwrap(), 0);
    }

    #[test]
    fn scale_unknown_slice_errors() {
        let mut c = controller();
        assert!(c.scale_for_slice(SliceId::new(9), 0.5).is_err());
    }

    #[test]
    fn fail_host_degrades_affected_stacks() {
        let mut c = controller();
        c.deploy(SliceId::new(1), DcId::new(1), &template(1))
            .unwrap();
        c.deploy(SliceId::new(2), DcId::new(1), &template(2))
            .unwrap();
        // Find a host carrying slice 1's VMs.
        let host = c.stack_for_slice(SliceId::new(1)).unwrap().vms[0].host;
        let affected = c.fail_host(DcId::new(1), host);
        assert!(affected.contains(&SliceId::new(1)));
        assert_eq!(
            c.stack_for_slice(SliceId::new(1)).unwrap().state,
            StackState::Degraded
        );
        // Unaffected stacks stay complete.
        for s in &affected {
            assert_ne!(
                c.stack_for_slice(*s).unwrap().state,
                StackState::CreateComplete
            );
        }
        assert_eq!(c.metrics().counter_value("cloud.host_failures"), Some(1));
    }

    #[test]
    fn fail_host_on_unknown_targets_is_noop() {
        let mut c = controller();
        assert!(c.fail_host(DcId::new(9), HostId::new(0)).is_empty());
        assert!(c.fail_host(DcId::new(1), HostId::new(99)).is_empty());
    }

    #[test]
    fn redeploy_recovers_a_degraded_slice() {
        let mut c = controller();
        c.deploy(SliceId::new(1), DcId::new(1), &template(1))
            .unwrap();
        let host = c.stack_for_slice(SliceId::new(1)).unwrap().vms[0].host;
        let old_stack_id = c.stack_for_slice(SliceId::new(1)).unwrap().id;
        c.fail_host(DcId::new(1), host);
        let fresh = c.redeploy_for_slice(SliceId::new(1), &template(1)).unwrap();
        assert_eq!(fresh.state, StackState::CreateComplete);
        assert_ne!(fresh.id, old_stack_id, "a fresh stack, not the corpse");
        assert_eq!(fresh.vms.len(), 4);
        assert!(fresh.deploy_time.as_secs_f64() > 10.0, "the outage is real");
        assert_eq!(c.metrics().counter_value("cloud.redeployments"), Some(1));
        // No leaked VMs from the degraded stack.
        let vm_total: usize = c.snapshot().dcs.iter().map(|d| d.vms).sum();
        assert_eq!(vm_total, 4);
    }

    #[test]
    fn redeploy_falls_back_to_same_kind_dc() {
        // Two core DCs; kill every host of the first after deploying there.
        let mut c = CloudController::new(vec![
            DataCenter::homogeneous(
                DcId::new(1),
                DcKind::Core,
                1,
                cap(32, 65536, 500),
                PlacementStrategy::WorstFit,
            ),
            DataCenter::homogeneous(
                DcId::new(2),
                DcKind::Core,
                1,
                cap(32, 65536, 500),
                PlacementStrategy::WorstFit,
            ),
        ]);
        c.deploy(SliceId::new(1), DcId::new(1), &template(1))
            .unwrap();
        c.fail_host(DcId::new(1), HostId::new(0));
        // DC 1's only host is dead: nothing can be placed there anymore.
        assert_eq!(c.dc(DcId::new(1)).unwrap().alive_hosts(), 0);
        let fresh = c.redeploy_for_slice(SliceId::new(1), &template(1)).unwrap();
        assert_eq!(fresh.dc, DcId::new(2), "spilled to the sibling core DC");
    }

    #[test]
    fn invalid_template_rejected() {
        let mut c = controller();
        let bad = StackTemplate {
            name: "bad".into(),
            resources: vec![],
        };
        assert!(matches!(
            c.deploy(SliceId::new(1), DcId::new(0), &bad),
            Err(CloudError::Template(TemplateError::Empty))
        ));
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_dc_ids_rejected() {
        CloudController::new(vec![
            DataCenter::homogeneous(
                DcId::new(0),
                DcKind::Edge,
                1,
                cap(1, 1024, 10),
                PlacementStrategy::FirstFit,
            ),
            DataCenter::homogeneous(
                DcId::new(0),
                DcKind::Core,
                1,
                cap(1, 1024, 10),
                PlacementStrategy::FirstFit,
            ),
        ]);
    }
}
