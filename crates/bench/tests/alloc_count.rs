//! Zero-allocation guarantees of the UE-plane epoch (and of the per-link
//! telemetry that closes every epoch), asserted under the
//! counting global allocator (`--features alloc-count`; without it this
//! file compiles to an empty test binary).
//!
//! "Steady state" means: scratch buffers warmed by one prior epoch, and a
//! roster the same size as the epoch before. The counter is thread-local;
//! nothing measured here leaves the calling thread.

#![cfg(feature = "alloc-count")]

use ovnes_bench::alloc_count;
use ovnes_model::{EnbId, PlmnId, Prbs, RateMbps, SliceId, UeId};
use ovnes_ran::controller::OfferedLoad;
use ovnes_ran::{
    schedule_epoch_into, CellConfig, Cqi, Enb, PfScratch, PfState, RanController, SliceLoad,
    SliceScratch, UeChannel,
};
use ovnes_sim::SimTime;
use ovnes_transport::{Topology, TransportController};

fn channels(n: u64) -> Vec<UeChannel> {
    (0..n)
        .map(|i| {
            let cqi = Cqi::new(1 + (i % 15) as u8);
            UeChannel {
                ue: UeId::new(i),
                cqi,
                prb_rate: RateMbps::new(0.5 + (i % 7) as f64 * 0.1),
            }
        })
        .collect()
}

#[test]
fn pf_schedule_into_steady_state_allocates_nothing() {
    let channels = channels(64);
    let mut pf = PfState::new();
    let mut scratch = PfScratch::new();
    let mut out = Vec::new();
    // Warm-up epoch: slab insertions and scratch growth happen here.
    pf.schedule_into(Prbs::new(100), &channels, 0.1, &mut scratch, &mut out);
    let (allocs, ()) = alloc_count::count(|| {
        for _ in 0..10 {
            pf.schedule_into(Prbs::new(100), &channels, 0.1, &mut scratch, &mut out);
        }
    });
    assert_eq!(allocs, 0, "steady-state PF epochs allocated");
}

#[test]
fn slice_schedule_epoch_into_steady_state_allocates_nothing() {
    let loads: Vec<SliceLoad> = (0..12)
        .map(|i| SliceLoad {
            slice: SliceId::new(i),
            reserved: Prbs::new(8),
            offered: RateMbps::new(2.0 + (i % 9) as f64),
            prb_rate: RateMbps::new(0.5),
        })
        .collect();
    let mut scratch = SliceScratch::new();
    let mut out = Vec::new();
    schedule_epoch_into(Prbs::new(100), &loads, &mut scratch, &mut out);
    let (allocs, ()) = alloc_count::count(|| {
        for _ in 0..10 {
            schedule_epoch_into(Prbs::new(100), &loads, &mut scratch, &mut out);
        }
    });
    assert_eq!(allocs, 0, "steady-state slice schedules allocated");
}

#[test]
fn ran_controller_epoch_steady_state_allocates_nothing() {
    // The RAN epoch forks nothing: at any worker count it runs on this
    // thread, where the thread-local counter sees every allocation.
    for workers in [1, 2] {
        let _pin = ovnes_sim::par::pin_threads(workers);
        let cell = CellConfig::default_20mhz();
        let mut ran = RanController::new(vec![
            Enb::new(EnbId::new(0), cell),
            Enb::new(EnbId::new(1), cell),
        ]);
        for (i, enb) in [(0u64, 0u64), (1, 0), (2, 1), (3, 1)] {
            ran.install(
                EnbId::new(enb),
                SliceId::new(i),
                PlmnId::test_slice_plmn(i),
                Prbs::new(20),
                Prbs::new(40),
            )
            .expect("capacity fits");
        }
        let offered: Vec<OfferedLoad> = (0..4)
            .map(|i| OfferedLoad {
                slice: SliceId::new(i),
                offered: RateMbps::new(5.0 + i as f64 * 3.0),
                prb_rate: RateMbps::new(0.5),
            })
            .collect();
        let mut out = Vec::new();
        // Warm-up: batch buffers grow, telemetry series pre-exist from new().
        ran.run_epoch_into(SimTime::from_secs(0), &offered, &mut out);
        let (allocs, ()) = alloc_count::count(|| {
            for e in 1..=10u64 {
                ran.run_epoch_into(SimTime::from_secs(e * 60), &offered, &mut out);
            }
        });
        assert_eq!(
            allocs, 0,
            "steady-state RAN epochs allocated at {workers} workers"
        );
    }
}

#[test]
fn transport_record_epoch_steady_state_allocates_nothing() {
    // Per-link utilization is a gauge set in place: after the first epoch
    // created them, an epoch of telemetry is lookups only, however many links.
    let mut transport = TransportController::new(Topology::testbed(), 64);
    transport.record_epoch(SimTime::from_secs(0));
    let (allocs, ()) = alloc_count::count(|| {
        for e in 1..=10u64 {
            transport.record_epoch(SimTime::from_secs(e * 60));
        }
    });
    assert_eq!(allocs, 0, "steady-state link telemetry allocated");
}
