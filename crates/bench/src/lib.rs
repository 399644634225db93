//! # ovnes-bench — experiment harnesses and shared fixtures
//!
//! One binary per quantity the paper's dashboard displays (see DESIGN.md's
//! experiment index: E1–E11, A1, A2, E14). This library holds the fixtures
//! the binaries and the root `tests/` share — standard worlds, standard
//! requests, [`identity`] — and a tiny report-printing layer so every
//! experiment emits the same table shape EXPERIMENTS.md records. Nothing
//! here keeps time: wall-clock is measured by `ovnes-e2e` (`crates/e2e`).

use ovnes_cloud::host::HostCapacity;
use ovnes_cloud::{CloudController, DataCenter, DcKind, PlacementStrategy};
use ovnes_model::{
    DcId, DiskGb, EnbId, Latency, MemMb, Money, RateMbps, SliceClass, SliceRequest, TenantId,
    VCpus,
};
use ovnes_orchestrator::{Orchestrator, OrchestratorConfig, WorldSnapshot};
use ovnes_ran::{CellConfig, Enb, RanController};
use ovnes_sim::{SimDuration, SimRng};
use ovnes_transport::{Topology, TransportController};
use std::sync::atomic::{AtomicU64, Ordering};

pub mod identity;

#[cfg(feature = "alloc-count")]
pub mod alloc_count {
    //! A counting global allocator, for making "this path allocates
    //! nothing" a testable property (the `alloc_count` integration test).
    //!
    //! The counter is thread-local, so concurrent test threads (libtest
    //! runs tests in parallel) never perturb each other's counts; what a
    //! worker thread allocates is deliberately *not* charged to the caller.
    //! Zero-allocation claims are therefore asserted at one worker, where
    //! the whole epoch runs on the calling thread.

    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        // const-init keeps the TLS access itself allocation-free.
        static ALLOCS: Cell<u64> = const { Cell::new(0) };
    }

    /// [`System`], with every `alloc`/`alloc_zeroed`/`realloc` on the
    /// current thread counted. `dealloc` is free — releasing capacity is
    /// not an allocation.
    pub struct CountingAllocator;

    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            // try_with: TLS may be gone during thread teardown; counting
            // must never turn an allocation into a panic.
            let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
            unsafe { System.alloc_zeroed(layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAllocator = CountingAllocator;

    /// Allocations the current thread has made so far.
    pub fn allocations() -> u64 {
        ALLOCS.try_with(Cell::get).unwrap_or(0)
    }

    /// Run `f`, returning how many allocations the current thread made
    /// during it alongside `f`'s result.
    pub fn count<R>(f: impl FnOnce() -> R) -> (u64, R) {
        let before = allocations();
        let result = f();
        (allocations() - before, result)
    }
}

/// The standard host profile of the core DC.
pub fn core_host() -> HostCapacity {
    HostCapacity {
        vcpus: VCpus::new(32),
        mem: MemMb::new(65_536),
        disk: DiskGb::new(500),
    }
}

/// The standard host profile of the edge DC.
pub fn edge_host() -> HostCapacity {
    HostCapacity {
        vcpus: VCpus::new(16),
        mem: MemMb::new(32_768),
        disk: DiskGb::new(250),
    }
}

/// The Fig. 2 world: 2 eNBs, testbed transport, edge + core DCs.
pub fn testbed_world() -> (RanController, TransportController, CloudController, CellConfig) {
    let cell = CellConfig::default_20mhz();
    let ran = RanController::new(vec![
        Enb::new(EnbId::new(0), cell),
        Enb::new(EnbId::new(1), cell),
    ]);
    let transport = TransportController::new(Topology::testbed(), 4096);
    let cloud = CloudController::new(vec![
        DataCenter::homogeneous(DcId::new(0), DcKind::Edge, 3, edge_host(), PlacementStrategy::WorstFit),
        DataCenter::homogeneous(DcId::new(1), DcKind::Core, 12, core_host(), PlacementStrategy::WorstFit),
    ]);
    (ran, transport, cloud, cell)
}

/// An orchestrator over the standard world.
pub fn testbed_orchestrator(config: OrchestratorConfig, seed: u64) -> Orchestrator {
    let (ran, transport, cloud, cell) = testbed_world();
    Orchestrator::new(config, ran, transport, cloud, cell, SimRng::seed_from(seed))
}

/// A standard eMBB request of `tp` Mbps.
pub fn embb_request(tenant: u64, tp: f64) -> SliceRequest {
    SliceRequest::builder(TenantId::new(tenant), SliceClass::Embb)
        .throughput(RateMbps::new(tp))
        .duration(SimDuration::from_hours(2))
        .price(Money::from_units((tp * 4.0) as i64))
        .penalty(Money::from_units((tp * 0.2).max(1.0) as i64))
        .build()
        .expect("positive parameters")
}

/// A standard URLLC request (automotive/e-health class).
pub fn urllc_request(tenant: u64) -> SliceRequest {
    SliceRequest::builder(TenantId::new(tenant), SliceClass::Urllc)
        .max_latency(Latency::new(5.0))
        .duration(SimDuration::from_hours(2))
        .price(Money::from_units(80))
        .penalty(Money::from_units(8))
        .build()
        .expect("positive parameters")
}

/// The `p`-th percentile (0–100, nearest rank) of an ascending slice; 0 when
/// empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// What an operator does about a dead, unsupervised controller of `domain`:
/// a fresh incarnation (`term`) of its control surface on a new port with
/// the dead server's counters carried over, the orchestrator's socket bus
/// re-routed and fenced to it.
pub fn repair_by_hand(
    orchestrator: &mut Orchestrator,
    domain: &str,
    term: u64,
    carry: ovnes_api::ServerStats,
) -> ovnes_api::RpcServer {
    let restarted = ovnes_api::serve_control_incarnation(domain, term, carry).expect("restart");
    let control = orchestrator.control_mut();
    let bus = control.socket_mut().expect("socket control plane");
    bus.attach(&restarted);
    bus.fence(domain, term);
    restarted
}

/// A [`WorldSnapshot`] store in a fresh directory under the system temp
/// directory, removed again when dropped.
pub struct ScratchWorld(WorldSnapshot);

impl ScratchWorld {
    /// Open an empty store; `tag` only names the directory.
    pub fn open(tag: &str) -> ScratchWorld {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ovnes-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchWorld(WorldSnapshot::open(dir).expect("open snapshot store"))
    }
}

impl std::ops::Deref for ScratchWorld {
    type Target = WorldSnapshot;
    fn deref(&self) -> &WorldSnapshot {
        &self.0
    }
}

impl Drop for ScratchWorld {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(self.0.store().root());
    }
}

/// No `Active` slice may silently hold a reservation through a dead
/// element — the only sanctioned way to sit on one is the `Degraded` state,
/// which books a penalty every epoch.
pub fn assert_no_silent_reservations(o: &Orchestrator) {
    for r in o.records().filter(|r| r.state == ovnes_orchestrator::SliceState::Active) {
        if let Some(res) = o.transport().reservation(r.id) {
            for &link in &res.path.links {
                assert!(
                    o.transport().link_is_up(link),
                    "{} is Active on dead {link}",
                    r.id
                );
            }
        }
        if let Some(enb) = o.ran().placement(r.id) {
            assert!(o.ran().cell_is_up(enb), "{} is Active on dead {enb}", r.id);
        }
        if let Some(stack) = o.cloud().stack_for_slice(r.id) {
            assert!(
                stack.state != ovnes_cloud::StackState::Degraded,
                "{} is Active on a degraded stack",
                r.id
            );
        }
    }
}

/// Print the standard experiment header.
pub fn report_header(id: &str, artifact: &str, what: &str) {
    println!("================================================================");
    println!("{id} — {artifact}");
    println!("{what}");
    println!("================================================================");
}

/// Print a row of `name = value` pairs in a stable format.
pub fn report_kv(pairs: &[(&str, String)]) {
    for (k, v) in pairs {
        println!("  {k:<38} {v}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_builds() {
        let (ran, transport, cloud, _) = testbed_world();
        assert_eq!(ran.enb_ids().len(), 2);
        assert_eq!(transport.topology().link_count(), 7);
        assert_eq!(cloud.dc_ids().len(), 2);
    }

    #[test]
    fn requests_are_valid() {
        let e = embb_request(1, 50.0);
        assert_eq!(e.sla.throughput, RateMbps::new(50.0));
        assert!(e.price.cents() > 0);
        let u = urllc_request(2);
        assert!(u.needs_edge);
    }
}
