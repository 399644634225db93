//! E16 — checkpoint/restore soak: a long overbooked run that is killed and
//! resumed from disk twice, with snapshot/restore latency and on-disk
//! footprint measured along the way.
//!
//! The run checkpoints every K epochs into a content-addressed
//! [`WorldSnapshot`] store. Twice during the horizon the live world is
//! dropped outright — simulating an orchestrator crash — and rebuilt from
//! the latest on-disk checkpoint. The soak asserts the end-to-end contract
//! from the determinism suite at experiment scale:
//!
//! * **identity** — the twice-killed, twice-restored run finishes showing
//!   byte for byte what `identity::observe` shows for the same cell run
//!   uninterrupted: summary, dashboard, monitoring JSON.
//! * **chains agree** — the reference run checkpoints into its own store on
//!   the same epochs; `replay_bisect` across the two chains must find no
//!   divergence.
//! * **cost** — per-checkpoint snapshot latency, restore latency, and the
//!   store's deduplicated on-disk size are reported; content addressing
//!   must keep total stored bytes below the naive `checkpoints ×
//!   world-size` product.
//!
//! Results land in `BENCH_e16.json` at the working directory (the repo
//! root in CI, which archives it). `--smoke` shrinks the horizon to CI
//! size; the identity and bisect assertions still run.

use ovnes_bench::identity::{observe, Cell, Observed, Perturbation};
use ovnes_orchestrator::{replay_bisect, DemoScenario, ScenarioState, WorldSnapshot};
use std::path::PathBuf;
use std::time::Instant;

struct Shape {
    horizon_hours: u64,
    arrivals_per_hour: f64,
    checkpoint_every: u64,
    kill_points: [u64; 2],
}

// Kill points deliberately fall *between* checkpoints, so each restore must
// also replay the epochs lost since the last snapshot.
const FULL: Shape = Shape {
    horizon_hours: 8,
    arrivals_per_hour: 25.0,
    checkpoint_every: 10,
    kill_points: [153, 337],
};

const SMOKE: Shape = Shape {
    horizon_hours: 1,
    arrivals_per_hour: 25.0,
    checkpoint_every: 5,
    kill_points: [23, 47],
};

/// The soak's world: the demo testbed under the seed-4242 control plan.
fn cell(shape: &Shape) -> Cell {
    Cell {
        seed: 1616,
        arrivals_per_hour: shape.arrivals_per_hour,
        mean_duration_mins: 50,
        horizon_mins: shape.horizon_hours * 60,
        perturbation: Perturbation::Control,
        ..Cell::CALM
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ovnes-e16-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[derive(Default)]
struct Costs {
    snapshot_s: Vec<f64>,
    restore_s: Vec<f64>,
    state_bytes: u64,
}

fn checkpoint(world: &WorldSnapshot, state: &ScenarioState, costs: &mut Costs) {
    let start = Instant::now();
    world.snapshot(state).expect("snapshot writes");
    costs.snapshot_s.push(start.elapsed().as_secs_f64());
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

fn peak(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let shape = if smoke { &SMOKE } else { &FULL };
    ovnes_bench::report_header(
        "E16",
        "checkpoint/restore soak",
        "kill the overbooked run twice, resume from disk, finish identical",
    );

    // The oracle: the same cell, uninterrupted and never checkpointed.
    let cell = cell(shape);
    let (oracle, witness) = observe(&cell);

    // An uninterrupted run checkpointing on the soak's cadence into its own
    // store, so the two manifest chains can be bisected afterwards.
    let ref_world = WorldSnapshot::open(scratch("reference")).expect("open reference store");
    let mut reference = cell.demo();
    let mut ref_costs = Costs::default();
    let mut epoch = 0u64;
    while reference.step_epoch() {
        epoch += 1;
        if epoch % shape.checkpoint_every == 0 {
            checkpoint(&ref_world, &reference.export_state(), &mut ref_costs);
        }
    }
    let total_epochs = epoch;

    // The soak run: same scenario, same checkpoint cadence, but the live
    // world is dropped at each kill point and rebuilt from the store.
    let world = WorldSnapshot::open(scratch("soak")).expect("open soak store");
    let mut costs = Costs::default();
    let mut live = cell.demo();
    let mut restores = 0u32;
    let mut epoch = 0u64;
    loop {
        if shape.kill_points.contains(&epoch) {
            drop(live); // the crash: only the on-disk store survives
            let start = Instant::now();
            let (at, state) = world
                .restore_latest()
                .expect("restore reads")
                .expect("a checkpoint exists before each kill point");
            live = DemoScenario::from_state(&state);
            costs.restore_s.push(start.elapsed().as_secs_f64());
            restores += 1;
            // Replay the epochs lost since the last checkpoint.
            for _ in at..epoch {
                assert!(live.step_epoch(), "replay ran past the horizon");
            }
        }
        if !live.step_epoch() {
            break;
        }
        epoch += 1;
        if epoch % shape.checkpoint_every == 0 {
            let state = live.export_state();
            costs.state_bytes = serde_json::to_vec(&state).expect("state serializes").len() as u64;
            checkpoint(&world, &state, &mut costs);
        }
    }
    assert_eq!(restores, 2, "both kill points must fire");

    // Identity: the twice-restored run finished exactly where the
    // uninterrupted one did.
    assert_eq!(
        oracle.first_difference(&Observed::of_demo(&live)),
        None,
        "soak diverged from the uninterrupted oracle"
    );
    assert!(
        witness.admitted > 0 && witness.control_retries > 0,
        "soak must exercise a real overbooked chaos run: {witness:?}"
    );

    // Chains agree: no divergence anywhere across the common checkpoints.
    let divergence = replay_bisect(&ref_world, &world).expect("bisect reads both stores");
    assert_eq!(
        divergence, None,
        "reference and soak chains diverged: {divergence:?}"
    );

    let checkpoints = world.epochs().expect("list checkpoints").len() as u64;
    let stored = world.store().object_bytes().expect("size the store");
    let objects = world.store().object_count().expect("count objects");
    let naive = costs.state_bytes * checkpoints;
    assert!(
        checkpoints >= 2 && stored < naive,
        "content addressing must beat naive storage: {stored} vs {naive}"
    );

    let results = [
        ("epochs", total_epochs.to_string()),
        ("checkpoints", checkpoints.to_string()),
        ("restores", restores.to_string()),
        (
            "snapshot_mean_ms",
            format!("{:.4}", mean(&costs.snapshot_s) * 1e3),
        ),
        (
            "snapshot_peak_ms",
            format!("{:.4}", peak(&costs.snapshot_s) * 1e3),
        ),
        (
            "restore_mean_ms",
            format!("{:.4}", mean(&costs.restore_s) * 1e3),
        ),
        ("world_bytes", costs.state_bytes.to_string()),
        ("store_bytes", stored.to_string()),
        ("store_objects", objects.to_string()),
        ("naive_bytes", naive.to_string()),
        (
            "dedup_ratio",
            format!("{:.3}", naive as f64 / stored as f64),
        ),
        ("identity_after_two_restores", "true".to_string()),
        ("chains_bisect_clean", "true".to_string()),
    ];
    println!();
    ovnes_bench::report_kv(&results);
    ovnes_bench::report_results("e16", smoke, &results);
}
