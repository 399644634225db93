//! Criterion: transport path computation — Dijkstra, CSPF and Yen's KSP on
//! the testbed and on a larger synthetic mesh.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ovnes_model::{Latency, LinkId, RateMbps};
use ovnes_sim::SimRng;
use ovnes_transport::{
    cspf, dijkstra, dijkstra_over_rows, dijkstra_with, k_shortest_paths, random_mesh,
    RoutingScratch, Topology,
};
use std::hint::black_box;

/// A random connected mesh of `n` switches with ~3n links.
fn mesh(n: usize, seed: u64) -> Topology {
    let mut rng = SimRng::seed_from(seed);
    random_mesh(n, n * 2, RateMbps::new(10_000.0), &mut rng)
}

fn bench_routing(c: &mut Criterion) {
    let mut group = c.benchmark_group("routing");

    let testbed = Topology::testbed();
    let src = testbed.radio_site(ovnes_model::EnbId::new(0)).unwrap();
    let dst = testbed.dc_node(ovnes_model::DcId::new(1)).unwrap();
    group.bench_function("dijkstra_testbed", |b| {
        b.iter(|| {
            black_box(dijkstra(
                black_box(&testbed),
                src,
                dst,
                |_| true,
                |l| testbed.link(l).delay,
            ))
        })
    });
    group.bench_function("cspf_testbed", |b| {
        b.iter(|| {
            black_box(cspf(
                black_box(&testbed),
                src,
                dst,
                |l: LinkId| testbed.link(l).capacity.value() >= 100.0,
                |l| testbed.link(l).delay,
                Latency::new(8.0),
            ))
        })
    });

    for n in [16usize, 64, 256] {
        let topo = mesh(n, 7);
        let s = topo.nodes()[0].id;
        let t = topo.nodes()[n / 2].id;
        group.bench_with_input(BenchmarkId::new("dijkstra_mesh", n), &topo, |b, topo| {
            b.iter(|| black_box(dijkstra(topo, s, t, |_| true, |l| topo.link(l).delay)))
        });
        group.bench_with_input(BenchmarkId::new("yen_k4_mesh", n), &topo, |b, topo| {
            b.iter(|| {
                black_box(k_shortest_paths(
                    topo,
                    s,
                    t,
                    4,
                    |_| true,
                    |l| topo.link(l).delay,
                ))
            })
        });
    }
    group.finish();
}

/// CSR flat walk vs. the same loop over nested adjacency rows, on meshes
/// large enough that memory layout dominates. Both variants share one
/// scratch and one delay closure; only the neighbour source differs.
fn bench_csr_vs_nested(c: &mut Criterion) {
    let mut group = c.benchmark_group("routing_csr");
    group.sample_size(20);
    for n in [1_000usize, 10_000] {
        let topo = mesh(n, 19);
        let s = topo.nodes()[0].id;
        let t = topo.nodes()[n / 2].id;
        let rows = topo.adjacency_rows();
        let mut scratch = RoutingScratch::new();
        group.bench_with_input(BenchmarkId::new("nested_rows", n), &topo, |b, topo| {
            b.iter(|| {
                black_box(dijkstra_over_rows(
                    &mut scratch,
                    &rows,
                    s,
                    t,
                    |_| true,
                    |l| topo.link(l).delay,
                ))
            })
        });
        group.bench_with_input(BenchmarkId::new("csr_closure", n), &topo, |b, topo| {
            b.iter(|| {
                black_box(dijkstra_with(
                    &mut scratch,
                    topo,
                    s,
                    t,
                    |_| true,
                    |l| topo.link(l).delay,
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_routing, bench_csr_vs_nested);
criterion_main!(benches);
