//! E19 — shard the world: multi-region federation to 1M+ UEs on a CSR
//! transport graph.
//!
//! Two perf measurements from the federation PR:
//!
//! * **CSR routing** — `Topology` adjacency is one CSR flattening (offsets
//!   and packed `(LinkId, NodeId)` pairs), so Dijkstra walks contiguous
//!   memory. This harness runs the same loop over the CSR and over nested
//!   per-node rows (`Topology::adjacency_rows`, `dijkstra_over_rows`) on a
//!   ≥10k-node random mesh, asserts every path bit-identical, and reports
//!   the ratio.
//! * **Shard scaling** — a `FederationBroker` over R identical regional
//!   worlds (16 cells, ~90 slices, 1500 UEs/slice each) runs its shard
//!   epochs in parallel via `par_map`. The sweep R = 1/2/4/8 reaches
//!   100k → 1M+ total UEs; with ≥8 cores the full run asserts ≥0.8×
//!   per-shard efficiency at 8 shards vs 1 (weak scaling: per-epoch wall
//!   time should barely move as shards are added).
//!
//! A third check runs a spill-heavy 2-region federation at 1 and 2 workers
//! per shard through `identity::observe` and byte-compares summaries,
//! dashboards and monitoring — the worker count must be a pure throughput
//! knob.
//!
//! Results land in `BENCH_e19.json`. `--smoke` shrinks the mesh and the
//! sweep to CI size (assertions on identity still run; wall-clock
//! expectations do not).

use ovnes_bench::identity::{observe, Cell, Regions};
use ovnes_bench::{prefill, report_header, report_kv, report_results, scaling_world};
use ovnes_model::RateMbps;
use ovnes_orchestrator::{FederationBroker, FederationConfig, RegionWorld};
use ovnes_orchestrator::{OrchestratorConfig, PolicyKind};
use ovnes_sim::{SimDuration, SimRng};
use ovnes_transport::{dijkstra_over_rows, dijkstra_with, random_mesh, RoutingScratch};
use std::hint::black_box;
use std::time::Instant;

struct Shape {
    mesh_nodes: usize,
    mesh_pairs: usize,
    mesh_reps: usize,
    shards: &'static [usize],
    cells: usize,
    slices_per_shard: u64,
    ues_per_slice: usize,
    warmup_epochs: u64,
    timed_epochs: u64,
    identity_horizon_mins: u64,
}

const FULL: Shape = Shape {
    mesh_nodes: 10_000,
    mesh_pairs: 24,
    mesh_reps: 3,
    shards: &[1, 2, 4, 8],
    cells: 16,
    slices_per_shard: 96,
    ues_per_slice: 1_500, // ~90 admitted × 1500 × 8 shards ⇒ >1M UEs
    warmup_epochs: 2,
    timed_epochs: 6,
    identity_horizon_mins: 60,
};

const SMOKE: Shape = Shape {
    mesh_nodes: 1_000,
    mesh_pairs: 6,
    mesh_reps: 1,
    shards: &[1, 2],
    cells: 4,
    slices_per_shard: 10,
    ues_per_slice: 40,
    warmup_epochs: 1,
    timed_epochs: 2,
    identity_horizon_mins: 20,
};

/// CSR-vs-nested routing phase: identical paths asserted pair by pair,
/// then wall-time over the same pair set. Returns the CSR walk's speedup
/// over the same loop on nested rows.
fn csr_phase(shape: &Shape) -> f64 {
    let mut rng = SimRng::seed_from(1900);
    let topo = random_mesh(
        shape.mesh_nodes,
        shape.mesh_nodes * 2,
        RateMbps::new(10_000.0),
        &mut rng,
    );
    let rows = topo.adjacency_rows();
    let nodes = topo.nodes();
    let pairs: Vec<_> = (0..shape.mesh_pairs)
        .map(|i| {
            let s = nodes[rng.uniform_usize(0, nodes.len())].id;
            let t = nodes[(i * 97 + 13) % nodes.len()].id;
            (s, t)
        })
        .collect();
    let delay = |l| topo.link(l).delay;

    let mut scratch = RoutingScratch::new();
    // Identity first: the two walks must agree bitwise on every pair.
    for &(s, t) in &pairs {
        let nested = dijkstra_over_rows(&mut scratch, &rows, s, t, |_| true, delay);
        let csr = dijkstra_with(&mut scratch, &topo, s, t, |_| true, delay);
        assert_eq!(nested, csr, "CSR walk diverged from the nested rows");
    }

    fn timed(reps: usize, mut f: impl FnMut()) -> f64 {
        let start = Instant::now();
        for _ in 0..reps {
            f();
        }
        start.elapsed().as_secs_f64().max(1e-9) / reps as f64
    }
    let nested_s = timed(shape.mesh_reps, || {
        for &(s, t) in &pairs {
            black_box(dijkstra_over_rows(
                &mut scratch,
                &rows,
                s,
                t,
                |_| true,
                delay,
            ));
        }
    });
    let mut scratch = RoutingScratch::new();
    let csr_s = timed(shape.mesh_reps, || {
        for &(s, t) in &pairs {
            black_box(dijkstra_with(&mut scratch, &topo, s, t, |_| true, delay));
        }
    });
    nested_s / csr_s
}

/// Build an R-shard federation of identical scaling worlds, prefilled with
/// `slices_per_shard` eMBB slices each (arrivals off: the sweep times the
/// epoch pipeline, not admission). Returns the broker and slices admitted
/// per shard.
fn build_federation(shape: &Shape, shards: usize) -> (FederationBroker, usize) {
    let config = FederationConfig {
        seed: 1919,
        regions: shards,
        arrivals_per_hour: 0.0,
        federated_admission: false,
        horizon: SimDuration::from_mins(shape.warmup_epochs + shape.timed_epochs + 2),
        orchestrator: OrchestratorConfig {
            policy: PolicyKind::Fcfs,
            ues_per_slice: shape.ues_per_slice,
            ..OrchestratorConfig::default()
        },
        ..FederationConfig::default()
    };
    let cells = shape.cells;
    let mut fed = FederationBroker::build_with_worlds(config, |_| {
        let (ran, transport, cloud, cell) = scaling_world(cells);
        RegionWorld {
            ran,
            transport,
            cloud,
            cell,
        }
    });
    let admitted: Vec<usize> = (0..shards)
        .map(|r| prefill(fed.orchestrator_mut(r), shape.slices_per_shard))
        .collect();
    (fed, admitted[0])
}

struct SweepRow {
    shards: usize,
    epoch_s: f64,
    total_ues: usize,
}

/// One sweep point: warm the federation (vEPC deploys, UEs attach), then
/// time the steady-state epochs.
fn sweep(shape: &Shape, shards: usize) -> (SweepRow, usize) {
    let (mut fed, admitted) = build_federation(shape, shards);
    for _ in 0..shape.warmup_epochs {
        assert!(fed.step_epoch());
    }
    let start = Instant::now();
    for _ in 0..shape.timed_epochs {
        assert!(fed.step_epoch());
    }
    let epoch_s = start.elapsed().as_secs_f64().max(1e-9) / shape.timed_epochs as f64;
    let total_ues = fed.total_ues();
    (
        SweepRow {
            shards,
            epoch_s,
            total_ues,
        },
        admitted,
    )
}

/// The spill-heavy 2-region federation phase 3 runs at 1 and 2 workers.
fn identity_cell(shape: &Shape, workers: usize) -> Cell {
    Cell {
        seed: 19,
        regions: Regions::Federated(2),
        arrivals_per_hour: 60.0,
        mean_duration_mins: 45,
        horizon_mins: shape.identity_horizon_mins,
        workers,
        ..Cell::CALM
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let shape = if smoke { &SMOKE } else { &FULL };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    report_header(
        "E19",
        "multi-region federation + CSR transport graph",
        "shard epochs across regions via par_map; route on packed CSR adjacency",
    );
    let mut results: Vec<(&str, String)> = Vec::new();
    results.push(("cores", cores.to_string()));

    // Phase 1: CSR routing on a big mesh.
    let csr_speedup = csr_phase(shape);
    println!();
    report_kv(&[
        ("mesh nodes", shape.mesh_nodes.to_string()),
        ("CSR vs nested rows", format!("{csr_speedup:.2}x")),
        ("paths", "bit-identical across both walks (asserted)".into()),
    ]);
    results.push(("mesh_nodes", shape.mesh_nodes.to_string()));
    results.push(("csr_closure_speedup", format!("{csr_speedup:.2}")));

    // Phase 2: shard sweep, 100k → 1M+ UEs.
    println!();
    println!(
        "{:<8} {:>12} {:>12} {:>12} {:>11}",
        "shards", "total UEs", "epoch s", "per-shard s", "efficiency"
    );
    let mut rows: Vec<SweepRow> = Vec::new();
    let mut admitted_per_shard = 0usize;
    for &shards in shape.shards {
        let (row, admitted) = sweep(shape, shards);
        admitted_per_shard = admitted;
        let efficiency = rows.first().map_or(1.0, |base| base.epoch_s / row.epoch_s);
        println!(
            "{:<8} {:>12} {:>12.4} {:>12.4} {:>10.2}x",
            row.shards,
            row.total_ues,
            row.epoch_s,
            row.epoch_s / row.shards as f64,
            efficiency
        );
        results.push((
            match shards {
                1 => "epoch_s_1",
                2 => "epoch_s_2",
                4 => "epoch_s_4",
                _ => "epoch_s_8",
            },
            format!("{:.5}", row.epoch_s),
        ));
        rows.push(row);
    }
    let max_ues = rows.iter().map(|r| r.total_ues).max().unwrap_or(0);
    results.push(("admitted_per_shard", admitted_per_shard.to_string()));
    results.push(("max_total_ues", max_ues.to_string()));
    let efficiency_8 = match (rows.first(), rows.last()) {
        (Some(first), Some(last)) if last.shards > first.shards => first.epoch_s / last.epoch_s,
        _ => 1.0,
    };
    results.push(("efficiency_at_max_shards", format!("{efficiency_8:.3}")));
    if !smoke {
        assert!(
            max_ues >= 1_000_000,
            "federation peaked at {max_ues} UEs, below the 1M target"
        );
        if cores >= 8 {
            assert!(
                efficiency_8 >= 0.8,
                "per-shard efficiency {efficiency_8:.2} at 8 shards below the \
                 0.8 target on {cores} cores"
            );
        } else {
            println!("  note: {cores} cores < 8, efficiency target not asserted");
        }
    }

    // Phase 3: worker-count identity on a spill-heavy federation.
    let (one, witness) = observe(&identity_cell(shape, 1));
    let (two, _) = observe(&identity_cell(shape, 2));
    assert_eq!(
        one.first_difference(&two),
        None,
        "2-workers-per-shard run diverged from 1"
    );
    println!();
    report_kv(&[(
        "workers",
        format!(
            "1- and 2-worker federated runs byte-identical, {} spills (asserted)",
            witness.spilled
        ),
    )]);
    results.push(("workers_identical", "true".into()));

    report_results("e19", smoke, &results);
}
