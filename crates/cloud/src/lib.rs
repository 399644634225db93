//! # ovnes-cloud — the edge/core cloud domain of the testbed
//!
//! Simulated counterpart of the demo's *two different data centers
//! configured on top of OpenStack deployments to host mobile edge and core
//! networks*, with *dynamic configurations of computational resources
//! performed through Heat* and *the EPC realized with OpenEPC 7 placed as a
//! virtualized instance* (§2 of the paper).
//!
//! * [`host`] — compute hosts with exact vCPU/RAM/disk accounting.
//! * [`datacenter`] — edge/core data centers and VM placement strategies
//!   (first-fit, best-fit, worst-fit).
//! * [`stack`] — Heat-style orchestration stacks: dependency-ordered
//!   resource creation with per-VM boot latency, rollback on failure, and
//!   the resulting deployment-time model.
//! * [`epc`] — the per-slice virtualized EPC (MME/HSS/SGW/PGW) template and
//!   its attach-latency model.
//! * [`controller`] — the cloud domain controller: deploy/scale/delete
//!   slice stacks, utilization telemetry.

//! ## Example: deploy a slice's vEPC into the core DC
//!
//! ```
//! use ovnes_cloud::host::HostCapacity;
//! use ovnes_cloud::{epc_template, CloudController, DataCenter, DcKind, EpcSizing, PlacementStrategy};
//! use ovnes_model::{DcId, DiskGb, MemMb, RateMbps, SliceClass, SliceId, VCpus};
//!
//! let host = HostCapacity {
//!     vcpus: VCpus::new(32),
//!     mem: MemMb::new(65_536),
//!     disk: DiskGb::new(500),
//! };
//! let mut cloud = CloudController::new(vec![DataCenter::homogeneous(
//!     DcId::new(1), DcKind::Core, 4, host, PlacementStrategy::WorstFit,
//! )]);
//!
//! // "OpenEPC instances are deployed … to provide connectivity" (§3)
//! let demand = SliceClass::Embb.compute_demand(RateMbps::new(50.0));
//! let template = epc_template(SliceId::new(1), &demand, &EpcSizing::default());
//! let stack = cloud.deploy(SliceId::new(1), DcId::new(1), &template).unwrap();
//! assert_eq!(stack.vms.len(), 4); // hss, mme, sgw, pgw in boot order
//! assert!(stack.deploy_time.as_secs_f64() > 10.0, "a few seconds");
//!
//! // Overbooking reconfiguration scales the user plane down…
//! cloud.scale_for_slice(SliceId::new(1), 0.5).unwrap();
//! // …and teardown releases every VM.
//! cloud.delete_for_slice(SliceId::new(1)).unwrap();
//! assert_eq!(cloud.snapshot().stacks, 0);
//! ```

pub mod controller;
pub mod datacenter;
pub mod epc;
pub mod host;
pub mod stack;

pub use controller::{
    CloudController, CloudControllerState, CloudError, CloudSnapshot, DeployedStack,
};
pub use datacenter::{DataCenter, DcKind, PlacementStrategy};
pub use epc::{attach_latency, epc_template, EpcSizing};
pub use host::{Host, HostCapacity};
pub use stack::{StackState, StackTemplate, VmSpec};
