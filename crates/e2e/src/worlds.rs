//! Frozen fixtures: the worlds and request builders the workloads run on.
//!
//! These are this crate's own copies (of `ovnes-bench`'s E12 scaling world
//! and of `DemoScenario::build`'s Fig. 2 testbed) so that rewriting those
//! crates cannot silently change a workload. The tests below pin their sizes.

use ovnes_api::SubstrateElement;
use ovnes_cloud::{CloudController, DataCenter, DcKind, HostCapacity, PlacementStrategy};
use ovnes_model::{
    DcId, DiskGb, EnbId, HostId, Latency, MemMb, Money, RateMbps, SliceClass, SliceRequest,
    SwitchId, TenantId, VCpus,
};
use ovnes_orchestrator::RegionWorld;
use ovnes_ran::{CellConfig, Enb, RanController};
use ovnes_sim::{SimDuration, SimRng};
use ovnes_transport::{LinkKind, NodeKind, Topology, TransportController};

/// Flow rules per switch, as everywhere else in the repository.
const FLOW_TABLE_CAPACITY: usize = 4096;

fn core_host() -> HostCapacity {
    HostCapacity {
        vcpus: VCpus::new(32),
        mem: MemMb::new(65_536),
        disk: DiskGb::new(500),
    }
}

fn edge_host() -> HostCapacity {
    HostCapacity {
        vcpus: VCpus::new(16),
        mem: MemMb::new(32_768),
        disk: DiskGb::new(250),
    }
}

fn dc(id: u64, kind: DcKind, hosts: usize) -> DataCenter {
    let host = match kind {
        DcKind::Edge => edge_host(),
        DcKind::Core => core_host(),
    };
    DataCenter::homogeneous(
        DcId::new(id),
        kind,
        hosts,
        host,
        PlacementStrategy::WorstFit,
    )
}

fn cells(count: usize, cell: CellConfig) -> RanController {
    RanController::new(
        (0..count)
            .map(|i| Enb::new(EnbId::new(i as u64), cell))
            .collect(),
    )
}

/// The star world: `cells` eNBs wired into one packet fabric that uplinks to
/// an edge DC directly and to a core DC through an aggregation switch. All
/// links are wired, cells take 12 PLMNs, and the DC pools grow with the cell
/// count so compute never binds.
pub fn star_world(cell_count: usize) -> RegionWorld {
    let cell = CellConfig {
        max_plmns: 12,
        ..CellConfig::default_20mhz()
    };
    let mut b = Topology::builder();
    let fabric = b.add_node(NodeKind::Switch(SwitchId::new(0)), "pf-fabric");
    for i in 0..cell_count {
        let site = b.add_node(
            NodeKind::RadioSite(EnbId::new(i as u64)),
            &format!("enb{i}-site"),
        );
        b.add_default_link(site, fabric, LinkKind::Wired);
    }
    let edge = b.add_node(NodeKind::DataCenter(DcId::new(0)), "edge-dc");
    let agg = b.add_node(NodeKind::Switch(SwitchId::new(1)), "agg-switch");
    let core = b.add_node(NodeKind::DataCenter(DcId::new(1)), "core-dc");
    b.add_default_link(fabric, edge, LinkKind::Wired);
    b.add_default_link(fabric, agg, LinkKind::Wired);
    b.add_link(
        agg,
        core,
        LinkKind::Wired,
        LinkKind::Wired.default_capacity(),
        Latency::new(4.0),
    );
    RegionWorld {
        ran: cells(cell_count, cell),
        transport: TransportController::new(b.build(), FLOW_TABLE_CAPACITY),
        cloud: CloudController::new(vec![
            dc(0, DcKind::Edge, cell_count.max(2)),
            dc(1, DcKind::Core, (cell_count * 4).max(12)),
        ]),
        cell,
    }
}

/// Sizes of the mesh world.
pub const MESH_CELLS: usize = 64;
pub const MESH_SWITCHES: usize = 2000;
pub const MESH_CHORDS: usize = 4000;

/// The mesh world: 64 cells whose transport is a ring of 2 000 switches plus
/// 4 000 chords drawn from `rng`, with the radio sites and two edge and two
/// core DCs hung on the ring at even spacing. Every link is wired, with a
/// delay in `[0.05, 0.4]` ms: low enough that a URLLC budget of two to four
/// milliseconds reaches an edge DC from any site, so routing, not a hopeless
/// delay bound, decides admission.
pub fn mesh_world(rng: &mut SimRng) -> RegionWorld {
    let cell = CellConfig {
        max_plmns: 12,
        ..CellConfig::default_20mhz()
    };
    let capacity = LinkKind::Wired.default_capacity();
    let delay = |rng: &mut SimRng| Latency::new(rng.uniform_range(0.05, 0.4));
    let mut b = Topology::builder();
    let switches: Vec<_> = (0..MESH_SWITCHES)
        .map(|i| b.add_node(NodeKind::Switch(SwitchId::new(i as u64)), &format!("sw{i}")))
        .collect();
    for i in 0..MESH_SWITCHES {
        let d = delay(rng);
        b.add_link(
            switches[i],
            switches[(i + 1) % MESH_SWITCHES],
            LinkKind::Wired,
            capacity,
            d,
        );
    }
    let mut chords = 0;
    while chords < MESH_CHORDS {
        let a = rng.uniform_usize(0, MESH_SWITCHES);
        let c = rng.uniform_usize(0, MESH_SWITCHES);
        if a != c {
            let d = delay(rng);
            b.add_link(switches[a], switches[c], LinkKind::Wired, capacity, d);
            chords += 1;
        }
    }
    for i in 0..MESH_CELLS {
        let site = b.add_node(
            NodeKind::RadioSite(EnbId::new(i as u64)),
            &format!("enb{i}-site"),
        );
        b.add_default_link(
            site,
            switches[i * MESH_SWITCHES / MESH_CELLS],
            LinkKind::Wired,
        );
    }
    // DCs sit between radio sites, edge and core alternating round the ring.
    let dcs = [
        (0, DcKind::Edge, 16, "edge-dc0"),
        (1, DcKind::Core, 32, "core-dc0"),
        (2, DcKind::Edge, 16, "edge-dc1"),
        (3, DcKind::Core, 32, "core-dc1"),
    ];
    for (id, _, _, name) in dcs {
        let node = b.add_node(NodeKind::DataCenter(DcId::new(id)), name);
        let at = id as usize * MESH_SWITCHES / dcs.len() + MESH_SWITCHES / MESH_CELLS / 2;
        b.add_default_link(node, switches[at], LinkKind::Wired);
    }
    RegionWorld {
        ran: cells(MESH_CELLS, cell),
        transport: TransportController::new(b.build(), FLOW_TABLE_CAPACITY),
        cloud: CloudController::new(
            dcs.iter()
                .map(|&(id, kind, hosts, _)| dc(id, kind, hosts))
                .collect(),
        ),
        cell,
    }
}

/// The Fig. 2 testbed as `DemoScenario::build` wires it: two 20 MHz cells
/// (32 PLMNs each), the wireless-plus-wired transport, a 4-host edge DC and
/// a 16-host core DC.
pub fn testbed_world() -> RegionWorld {
    let cell = CellConfig {
        max_plmns: 32,
        ..CellConfig::default_20mhz()
    };
    RegionWorld {
        ran: cells(2, cell),
        transport: TransportController::new(Topology::testbed(), FLOW_TABLE_CAPACITY),
        cloud: CloudController::new(vec![dc(0, DcKind::Edge, 4), dc(1, DcKind::Core, 16)]),
        cell,
    }
}

/// Every link, cell and host of `world`: the candidates of a substrate fault
/// plan (switches are left out: one switch downs the whole testbed).
pub fn failable_elements(world: &RegionWorld) -> Vec<SubstrateElement> {
    let mut elements: Vec<SubstrateElement> = world
        .transport
        .topology()
        .links()
        .iter()
        .map(|l| SubstrateElement::Link(l.id))
        .collect();
    elements.extend(world.ran.enb_ids().into_iter().map(SubstrateElement::Cell));
    for dc_id in world.cloud.dc_ids() {
        let hosts = world.cloud.dc(dc_id).map_or(0, |dc| dc.hosts().len());
        elements.extend((0..hosts).map(|h| SubstrateElement::Host(dc_id, HostId::new(h as u64))));
    }
    elements
}

/// An eMBB request of `throughput` Mbps for `duration`, priced like
/// `ovnes-bench`'s standard request.
pub fn embb_request(tenant: u64, throughput: f64, duration: SimDuration) -> SliceRequest {
    SliceRequest::builder(TenantId::new(tenant), SliceClass::Embb)
        .throughput(RateMbps::new(throughput))
        .duration(duration)
        .price(Money::from_units((throughput * 4.0) as i64))
        .penalty(Money::from_units((throughput * 0.2).max(1.0) as i64))
        .build()
        .expect("positive parameters")
}

/// The `ue_dense` prefill: `count` day-long eMBB slices of 3–5 Mbps.
pub fn dense_prefill(count: usize, rng: &mut SimRng) -> Vec<SliceRequest> {
    (0..count)
        .map(|i| {
            embb_request(
                i as u64,
                rng.uniform_range(3.0, 5.0),
                SimDuration::from_hours(24),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovnes_orchestrator::{Orchestrator, OrchestratorConfig, PolicyKind};
    use ovnes_sim::SimTime;

    fn sizes(world: &RegionWorld) -> (usize, usize, usize, usize) {
        (
            world.transport.topology().node_count(),
            world.transport.topology().link_count(),
            world.ran.enb_ids().len(),
            world.cloud.dc_ids().len(),
        )
    }

    #[test]
    fn star_world_sizes_are_pinned() {
        // fabric + agg + 2 DCs + one site per cell; one access link per cell
        // plus fabric→edge, fabric→agg, agg→core.
        assert_eq!(sizes(&star_world(16)), (20, 19, 16, 2));
        assert_eq!(sizes(&star_world(4)), (8, 7, 4, 2));
        let world = star_world(16);
        assert_eq!(world.cell.max_plmns, 12);
        assert_eq!(world.cloud.dc(DcId::new(0)).unwrap().hosts().len(), 16);
        assert_eq!(world.cloud.dc(DcId::new(1)).unwrap().hosts().len(), 64);
    }

    #[test]
    fn mesh_world_sizes_are_pinned_for_any_seed() {
        for seed in [11, 12] {
            let world = mesh_world(&mut SimRng::seed_from(seed));
            assert_eq!(
                sizes(&world),
                (
                    MESH_SWITCHES + MESH_CELLS + 4,
                    MESH_SWITCHES + MESH_CHORDS + MESH_CELLS + 4,
                    MESH_CELLS,
                    4
                )
            );
        }
    }

    #[test]
    fn testbed_world_sizes_are_pinned() {
        let world = testbed_world();
        assert_eq!(sizes(&world), (6, 7, 2, 2));
        assert_eq!(world.cell.max_plmns, 32);
        // 7 links + 2 cells + 4 edge hosts + 16 core hosts.
        assert_eq!(failable_elements(&world).len(), 29);
    }

    #[test]
    fn dense_prefill_is_admitted_whole() {
        let world = star_world(16);
        let config = OrchestratorConfig {
            policy: PolicyKind::Fcfs,
            ues_per_slice: 2,
            ..OrchestratorConfig::default()
        };
        let mut orchestrator = Orchestrator::new(
            config,
            world.ran,
            world.transport,
            world.cloud,
            world.cell,
            SimRng::seed_from(11),
        );
        let requests = dense_prefill(96, &mut SimRng::seed_from(11));
        assert!(requests
            .iter()
            .all(|r| (3.0..5.0).contains(&r.sla.throughput.value())));
        let admitted = requests
            .into_iter()
            .filter(|r| orchestrator.submit(SimTime::ZERO, r.clone()).is_ok())
            .count();
        assert_eq!(admitted, 96);
    }
}
