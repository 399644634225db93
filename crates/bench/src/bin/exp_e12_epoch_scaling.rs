//! E12 — scaling of the deterministic parallel epoch pipeline.
//!
//! The epoch hot path (per-UE mobility + channel sampling, per-slice
//! traffic generation, per-cell PRB scheduling) runs as independent shards
//! over a deterministic fork/join (`ovnes_sim::par`). Because every shard
//! draws from its own entity-keyed RNG stream and results are applied in
//! id-sorted order, the worker count is a pure throughput knob: same seed,
//! byte-identical output at any thread count.
//!
//! This harness proves both halves of that claim on a scaled-up world
//! (16 cells / ~90 slices / ~10k UEs by default): it sweeps the worker
//! count, reports epochs/sec and speedup vs. serial, and asserts that the
//! dashboard and the serialized monitoring reports of every run
//! (`identity::Observed`) are byte-identical.
//!
//! `--smoke` shrinks the world to a CI-sized single-epoch check (threads
//! 1 and 2, determinism still asserted, no speedup expectation).

use ovnes_bench::identity::Observed;
use ovnes_bench::{prefill, report_header, report_kv, scaling_orchestrator};
use ovnes_orchestrator::{Orchestrator, OrchestratorConfig, PolicyKind};
use ovnes_sim::{par, SimDuration, SimTime};
use std::time::Instant;

struct Shape {
    cells: usize,
    slices: u64,
    ues_per_slice: usize,
    warmup_epochs: u64,
    timed_epochs: u64,
    threads: &'static [usize],
}

const FULL: Shape = Shape {
    cells: 16,
    slices: 90,
    ues_per_slice: 112, // 90 × 112 = 10,080 UEs
    warmup_epochs: 2,
    timed_epochs: 20,
    threads: &[1, 2, 4, 8],
};

const SMOKE: Shape = Shape {
    cells: 4,
    slices: 12,
    ues_per_slice: 8,
    warmup_epochs: 1,
    timed_epochs: 1,
    threads: &[1, 2],
};

fn build(shape: &Shape) -> (Orchestrator, usize) {
    let config = OrchestratorConfig {
        // Admission is not under test: FCFS admits everything that fits,
        // so every sweep point exercises the same fully-loaded world.
        policy: PolicyKind::Fcfs,
        ues_per_slice: shape.ues_per_slice,
        ..OrchestratorConfig::default()
    };
    let mut orch = scaling_orchestrator(shape.cells, config, 42);
    let admitted = prefill(&mut orch, shape.slices);
    (orch, admitted)
}

/// One full run at a fixed worker count: returns (epochs/sec over the
/// timed window, the artefacts the run shows, slices admitted).
fn run_once(shape: &Shape, threads: usize) -> (f64, Observed, usize) {
    let _pin = par::pin_threads(threads);
    let (mut orch, admitted) = build(shape);
    let minute = |m: u64| SimTime::ZERO + SimDuration::from_mins(m);
    // Warmup: vEPC deployment (~14 s) completes and UEs attach, so the
    // timed window measures the steady-state hot path only.
    for e in 0..shape.warmup_epochs {
        orch.run_epoch(minute(1 + e));
    }
    let start = Instant::now();
    for e in 0..shape.timed_epochs {
        orch.run_epoch(minute(1 + shape.warmup_epochs + e));
    }
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    (
        shape.timed_epochs as f64 / secs,
        Observed::of(&orch),
        admitted,
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let shape = if smoke { &SMOKE } else { &FULL };
    report_header(
        "E12",
        "deterministic parallel epoch pipeline",
        "sweep worker count over one fully-loaded world; output must not move",
    );
    report_kv(&[
        ("mode", if smoke { "smoke".into() } else { "full".into() }),
        ("cells", shape.cells.to_string()),
        ("slices submitted", shape.slices.to_string()),
        ("UEs per slice", shape.ues_per_slice.to_string()),
        (
            "UEs total",
            (shape.slices as usize * shape.ues_per_slice).to_string(),
        ),
        ("timed epochs", shape.timed_epochs.to_string()),
    ]);
    println!();
    println!(
        "{:<10} {:>12} {:>10} {:>14}",
        "threads", "epochs/sec", "speedup", "deterministic"
    );

    let mut serial_rate = 0.0;
    let mut serial = None;
    for (i, &threads) in shape.threads.iter().enumerate() {
        let (rate, observed, admitted) = run_once(shape, threads);
        if i == 0 {
            if (admitted as u64) < shape.slices {
                println!(
                    "  note: {admitted}/{} slices admitted (world smaller than nominal)",
                    shape.slices
                );
            }
            serial_rate = rate;
        }
        // The whole point: worker count is a throughput knob, not a
        // semantics knob. Byte-compare against the serial run.
        match &serial {
            None => serial = Some(observed),
            Some(serial) => assert_eq!(
                serial.first_difference(&observed),
                None,
                "{threads}-worker run diverged from serial output"
            ),
        }
        println!(
            "{:<10} {:>12.2} {:>9.2}x {:>14}",
            threads,
            rate,
            rate / serial_rate,
            "yes"
        );
    }

    if !smoke {
        println!();
        println!("expectation: ≥1.5x epochs/sec at 4 threads on the 16-cell/10k-UE");
        println!("world; all rows byte-identical (asserted above, run aborts on drift).");
    }
}
