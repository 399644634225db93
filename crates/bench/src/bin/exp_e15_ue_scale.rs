//! E15 — UE-plane scale: heap-based proportional fair over dense slabs,
//! with a zero-allocation steady-state epoch.
//!
//! PR 5 rebuilt the per-UE plane: PF state moved from a `BTreeMap` onto
//! dense struct-of-arrays slabs, the per-PRB argmax grant loop became a
//! max-heap (O(PRBs·log UEs)), and reusable scratch buffers now thread
//! through the whole epoch. The old per-PRB loop survives as
//! [`PfState::schedule_reference`], the oracle this harness measures
//! against. Three claims are checked:
//!
//! * **identity** — heap and oracle twins run the same epochs (including
//!   roster churn, outages, and metric ties) and must never diverge by a
//!   single bit: shares, PRB counts, and the persistent averages.
//! * **speed** — epoch wall-time swept over 100 → 100k UEs per cell, heap
//!   vs. oracle; the full run asserts ≥5x at 10k UEs and beyond.
//! * **allocation** — with `--features alloc-count`, the steady-state heap
//!   epoch (warm scratch, stable roster) must allocate exactly zero times;
//!   without the feature the column reports `n/a`.
//!
//! A fourth check runs the whole orchestrator with fairness tracking on at
//! 1, 2 and 8 workers: monitoring JSON and every fairness series must be
//! byte-identical, so the scale work stays invisible to determinism.
//!
//! Results land in `BENCH_e15.json` at the working directory (the repo
//! root in CI, which archives it to track the perf trajectory).
//!
//! `--smoke` shrinks the sweep to CI size; identity and zero-allocation
//! assertions still run, wall-clock expectations do not.

use ovnes_bench::identity::Observed;
use ovnes_bench::{embb_request, report_header, report_kv, report_results, testbed_orchestrator};
use ovnes_model::{Prbs, RateMbps, UeId};
use ovnes_orchestrator::OrchestratorConfig;
use ovnes_ran::{CellConfig, Cqi, PfScratch, PfState, UeChannel, UeShare};
use ovnes_sim::{SimRng, SimTime};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

struct Shape {
    ue_counts: &'static [usize],
    prbs: u32,
    epochs: usize,
    identity_epochs: usize,
    oracle_epoch_cap: usize,
    e2e_epochs: u64,
    e2e_slices: u64,
    e2e_ues_per_slice: usize,
}

const FULL: Shape = Shape {
    ue_counts: &[100, 1_000, 10_000, 100_000],
    prbs: 100,
    epochs: 50,
    identity_epochs: 25,
    oracle_epoch_cap: 5,
    e2e_epochs: 40,
    e2e_slices: 5,
    e2e_ues_per_slice: 40,
};

const SMOKE: Shape = Shape {
    ue_counts: &[100, 1_000],
    prbs: 100,
    epochs: 10,
    identity_epochs: 10,
    oracle_epoch_cap: 3,
    e2e_epochs: 10,
    e2e_slices: 3,
    e2e_ues_per_slice: 8,
};

#[cfg(feature = "alloc-count")]
fn count_allocs<R>(f: impl FnOnce() -> R) -> (Option<u64>, R) {
    let (n, r) = ovnes_bench::alloc_count::count(f);
    (Some(n), r)
}

#[cfg(not(feature = "alloc-count"))]
fn count_allocs<R>(f: impl FnOnce() -> R) -> (Option<u64>, R) {
    (None, f())
}

/// A deterministic roster of `ues` channels: CQIs drawn uniformly from the
/// 15 discrete classes (so metric ties are common), ~3% of the fleet in
/// outage, per-PRB rates from the standard cell's precomputed table.
fn roster(ues: usize, rng: &mut SimRng) -> Vec<UeChannel> {
    let table = CellConfig::default_20mhz().rate_table();
    (0..ues)
        .map(|i| {
            let cqi = if rng.uniform_range(0.0, 1.0) < 0.03 {
                None
            } else {
                Cqi::new(rng.uniform_range(1.0, 15.999) as u8)
            };
            UeChannel {
                ue: UeId::new(i as u64),
                cqi,
                prb_rate: cqi.map(|c| table.rate(c)).unwrap_or(RateMbps::ZERO),
            }
        })
        .collect()
}

fn assert_bitwise_eq(a: &[UeShare], b: &[UeShare], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: share counts differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.ue, y.ue, "{what}: grant order diverged");
        assert_eq!(x.prbs, y.prbs, "{what}: PRBs diverged for {}", x.ue);
        assert_eq!(
            x.rate.value().to_bits(),
            y.rate.value().to_bits(),
            "{what}: rates diverged for {}",
            x.ue
        );
    }
}

/// Heap and oracle twins through `identity_epochs` epochs of the same
/// channel realizations, with periodic roster churn (a UE departs, then a
/// fresh one arrives) so eviction is exercised too.
fn identity_phase(shape: &Shape, ues: usize) {
    let mut rng = SimRng::seed_from(1500 + ues as u64);
    let mut channels = roster(ues, &mut rng);
    let prbs = Prbs::new(shape.prbs);
    let mut heap = PfState::new();
    let mut oracle = PfState::new();
    let mut scratch = PfScratch::new();
    let mut shares = Vec::new();
    let mut oracle_scratch = PfScratch::new();
    let mut oracle_shares = Vec::new();
    let mut stash: Option<UeChannel> = None;
    for epoch in 0..shape.identity_epochs {
        match epoch % 7 {
            3 => stash = channels.pop(),
            4 => {
                if let Some(c) = stash.take() {
                    channels.push(c);
                }
            }
            _ => {}
        }
        heap.schedule_into(prbs, &channels, 0.1, &mut scratch, &mut shares);
        oracle.schedule_reference_into(
            prbs,
            &channels,
            0.1,
            &mut oracle_scratch,
            &mut oracle_shares,
        );
        assert_bitwise_eq(&shares, &oracle_shares, &format!("{ues} UEs, epoch {epoch}"));
        for c in &channels {
            assert_eq!(
                heap.average(c.ue).to_bits(),
                oracle.average(c.ue).to_bits(),
                "averages diverged at {ues} UEs, epoch {epoch}"
            );
        }
    }
    assert_eq!(heap.tracked(), oracle.tracked(), "slab sizes diverged");
}

struct SweepRow {
    ues: usize,
    heap_epoch_s: f64,
    oracle_epoch_s: f64,
    speedup: f64,
    allocs_per_epoch: Option<u64>,
}

/// Time both paths over a stable roster. The oracle is O(PRBs·UEs) per
/// epoch, so it runs a capped epoch count and scales; the heap path runs
/// the full schedule. The last heap epoch runs under the allocation
/// counter (a steady-state epoch: warm scratch, stable roster).
fn sweep(shape: &Shape, ues: usize) -> SweepRow {
    let mut rng = SimRng::seed_from(1500 + ues as u64);
    let channels = roster(ues, &mut rng);
    let prbs = Prbs::new(shape.prbs);

    let mut heap = PfState::new();
    let mut scratch = PfScratch::new();
    let mut shares = Vec::new();
    // Warm the scratch and the slab before the timed (and counted) epochs.
    heap.schedule_into(prbs, &channels, 0.1, &mut scratch, &mut shares);
    let start = Instant::now();
    for _ in 0..shape.epochs {
        heap.schedule_into(prbs, &channels, 0.1, &mut scratch, &mut shares);
    }
    let heap_epoch_s = start.elapsed().as_secs_f64().max(1e-9) / shape.epochs as f64;
    let (allocs_per_epoch, ()) = count_allocs(|| {
        heap.schedule_into(prbs, &channels, 0.1, &mut scratch, &mut shares);
    });
    black_box(&shares);

    let mut oracle = PfState::new();
    let mut oracle_scratch = PfScratch::new();
    let mut oracle_shares = Vec::new();
    oracle.schedule_reference_into(prbs, &channels, 0.1, &mut oracle_scratch, &mut oracle_shares);
    let oracle_epochs = shape.epochs.min(shape.oracle_epoch_cap).max(1);
    let start = Instant::now();
    for _ in 0..oracle_epochs {
        oracle.schedule_reference_into(
            prbs,
            &channels,
            0.1,
            &mut oracle_scratch,
            &mut oracle_shares,
        );
    }
    let oracle_epoch_s = start.elapsed().as_secs_f64().max(1e-9) / oracle_epochs as f64;
    black_box(&oracle_shares);

    SweepRow {
        ues,
        heap_epoch_s,
        oracle_epoch_s,
        speedup: oracle_epoch_s / heap_epoch_s,
        allocs_per_epoch,
    }
}

/// Full orchestrator with fairness tracking at 1, 2 and 8 workers: the
/// dashboard, the monitoring JSON and every per-slice fairness series must
/// be byte-identical, whatever the worker count.
fn worker_identity(shape: &Shape) {
    let digest = |threads: usize| -> (Observed, String) {
        let _pin = ovnes_sim::par::pin_threads(threads);
        let mut o = testbed_orchestrator(
            OrchestratorConfig {
                ue_fairness_tracking: true,
                ues_per_slice: shape.e2e_ues_per_slice,
                ..OrchestratorConfig::default()
            },
            1515,
        );
        let ids: Vec<_> = (0..shape.e2e_slices)
            .map(|i| {
                o.submit(SimTime::ZERO, embb_request(i, 10.0 + 4.0 * i as f64))
                    .expect("uncontended world admits")
            })
            .collect();
        for e in 1..=shape.e2e_epochs {
            o.run_epoch(SimTime::from_secs(e * 60));
        }
        let mut d = String::new();
        for id in &ids {
            let series = o
                .metrics()
                .series_ref(&format!("orchestrator.{id}.ue_fairness"))
                .expect("fairness tracked");
            for &(t, v) in series.points() {
                let _ = write!(d, "{t:?}={};", v.to_bits());
            }
        }
        (Observed::of(&o), d)
    };
    let one = digest(1);
    assert_eq!(one, digest(2), "2 workers diverged from 1");
    assert_eq!(one, digest(8), "8 workers diverged from 1");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let shape = if smoke { &SMOKE } else { &FULL };
    report_header(
        "E15",
        "UE-plane scale",
        "heap PF over dense slabs vs. the per-PRB oracle, 100 → 100k UEs",
    );
    let mut results: Vec<(&str, String)> = Vec::new();
    results.push(("prbs_per_epoch", shape.prbs.to_string()));

    println!();
    println!(
        "{:<12} {:>14} {:>14} {:>9} {:>13}",
        "UEs", "heap epoch s", "oracle epoch s", "speedup", "allocs/epoch"
    );
    let mut rows = Vec::new();
    for &ues in shape.ue_counts {
        identity_phase(shape, ues);
        let row = sweep(shape, ues);
        println!(
            "{:<12} {:>14.6} {:>14.6} {:>8.1}x {:>13}",
            row.ues,
            row.heap_epoch_s,
            row.oracle_epoch_s,
            row.speedup,
            row.allocs_per_epoch.map_or("n/a".into(), |n| n.to_string()),
        );
        results.push((
            match ues {
                100 => "heap_epoch_us_100",
                1_000 => "heap_epoch_us_1k",
                10_000 => "heap_epoch_us_10k",
                100_000 => "heap_epoch_us_100k",
                _ => "heap_epoch_us_other",
            },
            format!("{:.2}", row.heap_epoch_s * 1e6),
        ));
        results.push((
            match ues {
                100 => "speedup_100",
                1_000 => "speedup_1k",
                10_000 => "speedup_10k",
                100_000 => "speedup_100k",
                _ => "speedup_other",
            },
            format!("{:.2}", row.speedup),
        ));
        rows.push(row);
    }
    results.push((
        "allocs_per_epoch",
        rows.iter()
            .filter_map(|r| r.allocs_per_epoch)
            .max()
            .map_or("n/a".into(), |n| n.to_string()),
    ));

    for row in &rows {
        if let Some(n) = row.allocs_per_epoch {
            assert_eq!(
                n, 0,
                "steady-state heap epoch allocated {n} times at {} UEs",
                row.ues
            );
        }
    }
    if !smoke {
        for row in &rows {
            if row.ues >= 10_000 {
                assert!(
                    row.speedup >= 5.0,
                    "heap speedup {:.1}x at {} UEs below the 5x target",
                    row.speedup,
                    row.ues
                );
            }
        }
    }

    worker_identity(shape);
    println!();
    report_kv(&[
        (
            "identity",
            "heap == oracle bit-for-bit, incl. churn + ties (asserted)".into(),
        ),
        (
            "workers",
            "1/2/8-worker runs byte-identical, fairness on (asserted)".into(),
        ),
        (
            "alloc counting",
            if cfg!(feature = "alloc-count") {
                "on: steady-state epoch == 0 allocations (asserted)".into()
            } else {
                "off (build with --features alloc-count)".into()
            },
        ),
    ]);
    results.push(("workers_identical", "true".into()));

    report_results("e15", smoke, &results);
}
