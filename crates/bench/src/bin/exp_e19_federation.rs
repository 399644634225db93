//! E19 — shard the world: multi-region federation to 1M+ UEs on a CSR
//! transport graph.
//!
//! Two perf claims from the federation PR, measured and asserted:
//!
//! * **CSR routing** — `Topology` adjacency is flattened to CSR (offsets +
//!   packed `(LinkId, NodeId)` pairs + packed integer-µs base delays), so
//!   Dijkstra walks contiguous memory. The nested per-node rows survive as
//!   the bitwise oracle (`dijkstra_nested_with`); this harness runs both
//!   over a ≥10k-node random mesh, asserts every path bit-identical, and
//!   asserts the packed CSR walk (`dijkstra_base_with`) is ≥1.5× faster
//!   than the oracle in full mode.
//! * **Shard scaling** — a `FederationBroker` over R identical regional
//!   worlds (16 cells, ~90 slices, 1500 UEs/slice each) runs its shard
//!   epochs in parallel via `par_map`. The sweep R = 1/2/4/8 reaches
//!   100k → 1M+ total UEs; with ≥8 cores the full run asserts ≥0.8×
//!   per-shard efficiency at 8 shards vs 1 (weak scaling: per-epoch wall
//!   time should barely move as shards are added).
//!
//! A third check runs a spill-heavy 2-region federation at 1 and 2 workers
//! per shard and byte-compares summaries and the region-prefixed
//! monitoring feed — the worker count must be a pure throughput knob.
//!
//! Results land in `BENCH_e19.json`. `--smoke` shrinks the mesh and the
//! sweep to CI size (assertions on identity still run; wall-clock
//! expectations do not).

use ovnes_bench::{embb_request, report_header, report_json, report_kv, scaling_world};
use ovnes_model::RateMbps;
use ovnes_orchestrator::{FederationBroker, FederationConfig, RegionWorld};
use ovnes_orchestrator::{OrchestratorConfig, PolicyKind};
use ovnes_sim::{par, SimDuration, SimRng, SimTime};
use ovnes_transport::{
    dijkstra_base_with, dijkstra_nested_with, dijkstra_with, random_mesh, RoutingScratch,
};
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
/// then wall-time over the same pair set. Returns (packed speedup,
/// closure-CSR speedup) over the nested oracle.
fn csr_phase(shape: &Shape) -> (f64, f64) {
    let mut rng = SimRng::seed_from(1900);
    let topo = random_mesh(
        shape.mesh_nodes,
        shape.mesh_nodes * 2,
        RateMbps::new(10_000.0),
        &mut rng,
    );
    let nodes = topo.nodes();
    let pairs: Vec<_> = (0..shape.mesh_pairs)
        .map(|i| {
            let s = nodes[rng.uniform_usize(0, nodes.len())].id;
            let t = nodes[(i * 97 + 13) % nodes.len()].id;
            (s, t)
        })
        .collect();

    let mut scratch = RoutingScratch::new();
    // Identity first: the three walks must agree bitwise on every pair.
    for &(s, t) in &pairs {
        let oracle = dijkstra_nested_with(&mut scratch, &topo, s, t, |_| true, |l| {
            topo.link(l).delay
        });
        let csr = dijkstra_with(&mut scratch, &topo, s, t, |_| true, |l| topo.link(l).delay);
        let packed = dijkstra_base_with(&mut scratch, &topo, s, t);
        assert_eq!(oracle, csr, "CSR closure walk diverged from the oracle");
        assert_eq!(oracle, packed, "packed CSR walk diverged from the oracle");
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
            black_box(dijkstra_nested_with(&mut scratch, &topo, s, t, |_| true, |l| {
                topo.link(l).delay
            }));
        }
    });
    let mut scratch = RoutingScratch::new();
    let closure_s = timed(shape.mesh_reps, || {
        for &(s, t) in &pairs {
            black_box(dijkstra_with(&mut scratch, &topo, s, t, |_| true, |l| {
                topo.link(l).delay
            }));
        }
    });
    let mut scratch = RoutingScratch::new();
    let packed_s = timed(shape.mesh_reps, || {
        for &(s, t) in &pairs {
            black_box(dijkstra_base_with(&mut scratch, &topo, s, t));
        }
    });
    (nested_s / packed_s, nested_s / closure_s)
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
    let mut admitted_first = 0usize;
    for r in 0..shards {
        let mut admitted = 0usize;
        for t in 0..shape.slices_per_shard {
            let tp = 3.0 + (t % 5) as f64 * 0.5;
            if fed
                .orchestrator_mut(r)
                .submit(SimTime::ZERO, embb_request(t, tp))
                .is_ok()
            {
                admitted += 1;
            }
        }
        if r == 0 {
            admitted_first = admitted;
        }
    }
    (fed, admitted_first)
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

/// Spill-heavy 2-region federation at a fixed worker count: returns the
/// serialized summary plus the region-prefixed monitoring feed.
fn identity_digest(shape: &Shape, threads: usize) -> String {
    par::set_thread_override(Some(threads));
    let mut fed = FederationBroker::build(FederationConfig {
        seed: 19,
        regions: 2,
        arrivals_per_hour: 60.0,
        horizon: SimDuration::from_mins(shape.identity_horizon_mins),
        mean_duration: SimDuration::from_mins(45),
        ..FederationConfig::default()
    });
    let summary = fed.run();
    let mut digest = serde_json::to_string(&summary).expect("summary serializes");
    for report in fed.monitoring() {
        digest.push_str(&serde_json::to_string(&report).expect("reports serialize"));
    }
    par::set_thread_override(None);
    digest
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
    let mut results: Vec<(&str, String)> =
        vec![("mode", if smoke { "smoke".into() } else { "full".into() })];
    results.push(("cores", cores.to_string()));

    // Phase 1: CSR routing speedup on a big mesh.
    let (packed_speedup, closure_speedup) = csr_phase(shape);
    println!();
    report_kv(&[
        ("mesh nodes", shape.mesh_nodes.to_string()),
        (
            "CSR packed vs nested oracle",
            format!("{packed_speedup:.2}x"),
        ),
        (
            "CSR closure vs nested oracle",
            format!("{closure_speedup:.2}x"),
        ),
        ("paths", "bit-identical across all three walks (asserted)".into()),
    ]);
    results.push(("mesh_nodes", shape.mesh_nodes.to_string()));
    results.push(("csr_packed_speedup", format!("{packed_speedup:.2}")));
    results.push(("csr_closure_speedup", format!("{closure_speedup:.2}")));
    if !smoke {
        assert!(
            packed_speedup >= 1.5,
            "packed CSR walk {packed_speedup:.2}x below the 1.5x target on a \
             {}-node mesh",
            shape.mesh_nodes
        );
    }

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
    let one = identity_digest(shape, 1);
    assert_eq!(
        one,
        identity_digest(shape, 2),
        "2-workers-per-shard run diverged from 1"
    );
    println!();
    report_kv(&[(
        "workers",
        "1- and 2-worker federated runs byte-identical, spills on (asserted)".into(),
    )]);
    results.push(("workers_identical", "true".into()));

    report_json("BENCH_e19.json", &results).expect("write BENCH_e19.json");
    println!();
    println!("wrote BENCH_e19.json");
}
