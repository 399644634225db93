//! E13 — incremental decision plane: streaming quantiles, O(1) telemetry
//! aggregates, and the generation-stamped route cache.
//!
//! Three hot paths of the forecasting → overbooking → routing pipeline got
//! incremental implementations in place of recompute-from-scratch ones,
//! with the old code kept as oracles. This harness measures each speedup
//! and — more importantly — proves the optimizations are invisible:
//!
//! * **quantile** — `ResidualWindow` (sorted ring, O(1) interpolated query)
//!   vs. the clone-and-sort reference, swept over window sizes.
//! * **aggregates** — `TimeSeries` rolling `mean`/`max`/`min`/
//!   `time_weighted_mean` vs. the full-history scan oracles, swept over
//!   history lengths.
//! * **route cache** — a steady-state allocate/release churn and a
//!   post-fade reroute storm on the scaling world, cache on vs. off:
//!   byte-identical allocation digests, hit rates reported.
//! * **end-to-end** — a full demo run with the cache on vs. off
//!   (`identity::observe` on the matrix's `cache-off` cells) must produce a
//!   byte-identical summary, dashboard and monitoring JSON.
//!
//! Results land in `BENCH_e13.json` at the working directory (the repo
//! root in CI, which archives it to track the perf trajectory).
//!
//! `--smoke` shrinks every sweep to CI size; correctness and hit-rate
//! assertions still run, wall-clock expectations do not.

use ovnes_bench::identity::{observe, Cell};
use ovnes_bench::{report_header, report_kv, report_results, scaling_world};
use ovnes_forecast::ResidualWindow;
use ovnes_model::{DcId, EnbId, Latency, LinkId, RateMbps, SliceId};
use ovnes_sim::{SimRng, SimTime, TimeSeries};
use ovnes_transport::{RouteCacheStats, TransportController};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

struct Shape {
    quantile_windows: &'static [usize],
    quantile_iters: usize,
    agg_histories: &'static [usize],
    agg_queries: usize,
    route_cells: usize,
    route_classes: usize,
    route_batch: usize,
    route_epochs: usize,
    storm_rounds: usize,
    demo_minutes: u64,
}

const FULL: Shape = Shape {
    quantile_windows: &[64, 256, 1024],
    quantile_iters: 20_000,
    agg_histories: &[1_000, 10_000, 100_000],
    agg_queries: 50_000,
    route_cells: 8,
    route_classes: 8,
    route_batch: 12,
    route_epochs: 40,
    storm_rounds: 5,
    demo_minutes: 120,
};

const SMOKE: Shape = Shape {
    quantile_windows: &[64, 256],
    quantile_iters: 2_000,
    agg_histories: &[1_000, 5_000],
    agg_queries: 2_000,
    route_cells: 4,
    route_classes: 4,
    route_batch: 12,
    route_epochs: 4,
    storm_rounds: 2,
    demo_minutes: 30,
};

/// Streaming vs. clone-and-sort residual quantile at one window size.
/// Returns (streaming seconds, reference seconds).
fn quantile_bench(window: usize, iters: usize) -> (f64, f64) {
    let mut rng = SimRng::seed_from(13);
    let values: Vec<f64> = (0..window + iters)
        .map(|_| rng.uniform_range(-50.0, 50.0))
        .collect();

    // Correctness spot-check before timing anything.
    let mut check = ResidualWindow::new(window);
    for (i, &v) in values.iter().enumerate().take(window + 64) {
        check.push(v);
        if i % 7 == 0 {
            for q in [0.05, 0.5, 0.95] {
                assert_eq!(
                    check.quantile(q).map(f64::to_bits),
                    check.quantile_reference(q).map(f64::to_bits),
                    "streaming quantile diverged from oracle (window {window}, q {q})"
                );
            }
        }
    }

    let run = |reference: bool| {
        let mut w = ResidualWindow::new(window);
        for &v in &values[..window] {
            w.push(v);
        }
        let start = Instant::now();
        let mut acc = 0.0f64;
        for &v in &values[window..] {
            w.push(v);
            let q = if reference {
                w.quantile_reference(0.95)
            } else {
                w.quantile(0.95)
            };
            acc += q.expect("warm window");
        }
        black_box(acc);
        start.elapsed().as_secs_f64().max(1e-9)
    };
    (run(false), run(true))
}

/// O(1) rolling aggregates vs. full-history scans at one history length.
/// Returns (rolling seconds, scan seconds).
fn aggregates_bench(history: usize, queries: usize) -> (f64, f64) {
    let mut rng = SimRng::seed_from(17);
    let mut series = TimeSeries::new();
    for i in 0..history {
        series.record(SimTime::from_secs(i as u64), rng.uniform_range(0.0, 100.0));
    }
    for (fast, slow, what) in [
        (series.mean(), series.scan_mean(), "mean"),
        (series.max(), series.scan_max(), "max"),
        (series.min(), series.scan_min(), "min"),
        (
            series.time_weighted_mean(),
            series.scan_time_weighted_mean(),
            "time_weighted_mean",
        ),
    ] {
        assert_eq!(
            fast.map(f64::to_bits),
            slow.map(f64::to_bits),
            "rolling {what} diverged from scan oracle at history {history}"
        );
    }

    let rolling = {
        let start = Instant::now();
        let mut acc = 0.0f64;
        for _ in 0..queries {
            acc += series.mean().unwrap_or(0.0)
                + series.max().unwrap_or(0.0)
                + series.min().unwrap_or(0.0)
                + series.time_weighted_mean().unwrap_or(0.0);
        }
        black_box(acc);
        start.elapsed().as_secs_f64().max(1e-9)
    };
    // Scans are O(history) per query: sample enough to measure, then scale.
    let scan_queries = queries.min(200).max(1);
    let scan = {
        let start = Instant::now();
        let mut acc = 0.0f64;
        for _ in 0..scan_queries {
            acc += series.scan_mean().unwrap_or(0.0)
                + series.scan_max().unwrap_or(0.0)
                + series.scan_min().unwrap_or(0.0)
                + series.scan_time_weighted_mean().unwrap_or(0.0);
        }
        black_box(acc);
        start.elapsed().as_secs_f64().max(1e-9) * (queries as f64 / scan_queries as f64)
    };
    (rolling, scan)
}

struct RouteWorld {
    transport: TransportController,
    sites: Vec<ovnes_model::NodeId>,
    edge: ovnes_model::NodeId,
    core: ovnes_model::NodeId,
}

fn route_world(shape: &Shape, cached: bool) -> RouteWorld {
    let (_, mut transport, _, _) = scaling_world(shape.route_cells);
    transport.set_route_cache_enabled(cached);
    let (sites, edge, core) = {
        let t = transport.topology();
        (
            (0..shape.route_cells)
                .map(|i| t.radio_site(EnbId::new(i as u64)).expect("site exists"))
                .collect::<Vec<_>>(),
            t.dc_node(DcId::new(0)).expect("edge dc"),
            t.dc_node(DcId::new(1)).expect("core dc"),
        )
    };
    RouteWorld {
        transport,
        sites,
        edge,
        core,
    }
}

/// Steady-state churn: every epoch allocates `batch` slices in each of
/// `classes` constraint classes, then releases them all. Returns
/// (seconds, digest of every allocation, cache stats).
fn steady_state(shape: &Shape, cached: bool) -> (f64, String, RouteCacheStats) {
    let mut w = route_world(shape, cached);
    let mut digest = String::new();
    let mut next = 0u64;
    let start = Instant::now();
    for _ in 0..shape.route_epochs {
        let mut batch: Vec<SliceId> = Vec::new();
        for class in 0..shape.route_classes {
            let src = w.sites[class % w.sites.len()];
            let dst = if class % 2 == 0 { w.edge } else { w.core };
            let bw = RateMbps::new(60.0 + class as f64 * 7.0);
            for _ in 0..shape.route_batch {
                let id = SliceId::new(next);
                next += 1;
                match w.transport.allocate(id, src, dst, bw, Latency::new(10.0)) {
                    Ok(a) => {
                        batch.push(id);
                        let _ = write!(
                            digest,
                            "{}:{:?};",
                            a.delay_at_allocation.value().to_bits(),
                            a.reservation.path.links
                        );
                    }
                    Err(e) => {
                        let _ = write!(digest, "!{e};");
                    }
                }
            }
        }
        for id in batch {
            w.transport.release(id).expect("allocated this epoch");
        }
    }
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    digest.push_str(&serde_json::to_string(&w.transport.snapshot()).expect("snapshot serializes"));
    (secs, digest, w.transport.route_cache().stats())
}

/// Post-fade reroute storm: fill one access link, fade it so no alternative
/// exists, and reroute every slice for several rounds — cached and uncached
/// twins must agree at each step. Returns the cached run's hit rate over
/// the reroute queries alone.
fn reroute_storm(shape: &Shape) -> f64 {
    let mut cached = route_world(shape, true);
    let mut plain = route_world(shape, false);
    let slices: Vec<SliceId> = (0..shape.route_batch as u64).map(SliceId::new).collect();
    for &id in &slices {
        for w in [&mut cached, &mut plain] {
            w.transport
                .allocate(id, w.sites[0], w.edge, RateMbps::new(100.0), Latency::new(10.0))
                .expect("uncontended world");
        }
    }
    let access = LinkId::new(0); // site 0's only uplink in the star world
    let affected_cached = cached.transport.degrade_link(access, 0.05);
    let affected_plain = plain.transport.degrade_link(access, 0.05);
    assert_eq!(affected_cached, affected_plain);
    assert_eq!(affected_cached.len(), slices.len(), "fade oversubscribes all");

    let before = cached.transport.route_cache().stats();
    for _ in 0..shape.storm_rounds {
        for &id in &slices {
            let a = cached.transport.reroute(id);
            let b = plain.transport.reroute(id);
            assert_eq!(a, b, "reroute diverged under cache");
            assert_eq!(a, Ok(false), "star world offers no alternative path");
        }
    }
    let after = cached.transport.route_cache().stats();
    cached.transport.restore_link(access);
    plain.transport.restore_link(access);
    assert_eq!(cached.transport.snapshot(), plain.transport.snapshot());

    let queries = (after.hits + after.misses) - (before.hits + before.misses);
    if queries == 0 {
        return 0.0;
    }
    (after.hits - before.hits) as f64 / queries as f64
}

/// Full scenario, cache on vs. off: summary, dashboard and monitoring JSON
/// must be byte-identical, and only the cached run may consult the cache.
fn demo_identity(shape: &Shape) {
    let cached = Cell {
        seed: 4242,
        horizon_mins: shape.demo_minutes,
        ..Cell::CALM
    };
    let (on, on_witness) = observe(&cached);
    let (off, off_witness) = observe(&Cell {
        route_cache: false,
        ..cached
    });
    assert_eq!(
        on.first_difference(&off),
        None,
        "orchestrator output moved with the route cache"
    );
    assert!(
        on_witness.route_cache_queries > 0,
        "cached run never consulted the cache"
    );
    assert_eq!(
        off_witness.route_cache_queries, 0,
        "disabled cache must stay cold"
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let shape = if smoke { &SMOKE } else { &FULL };
    report_header(
        "E13",
        "incremental decision plane",
        "streaming quantiles, O(1) aggregates, generation-stamped route cache",
    );
    let mut results: Vec<(&str, String)> = Vec::new();

    println!();
    println!("{:<28} {:>12} {:>12} {:>10}", "quantile window", "stream s", "sort s", "speedup");
    let mut speedup_at = Vec::new();
    for &window in shape.quantile_windows {
        let (stream, sorted) = quantile_bench(window, shape.quantile_iters);
        let speedup = sorted / stream;
        speedup_at.push((window, speedup));
        println!("{:<28} {:>12.4} {:>12.4} {:>9.1}x", window, stream, sorted, speedup);
        results.push((
            match window {
                64 => "quantile_speedup_w64",
                256 => "quantile_speedup_w256",
                1024 => "quantile_speedup_w1024",
                _ => "quantile_speedup_other",
            },
            format!("{speedup:.2}"),
        ));
    }

    println!();
    println!("{:<28} {:>12} {:>12} {:>10}", "aggregates history", "rolling s", "scan s", "speedup");
    for (i, &history) in shape.agg_histories.iter().enumerate() {
        let (rolling, scan) = aggregates_bench(history, shape.agg_queries);
        let speedup = scan / rolling;
        println!("{:<28} {:>12.4} {:>12.4} {:>9.1}x", history, rolling, scan, speedup);
        results.push((
            match i {
                0 => "aggregate_speedup_short",
                1 => "aggregate_speedup_mid",
                _ => "aggregate_speedup_long",
            },
            format!("{speedup:.2}"),
        ));
    }

    println!();
    let (cached_secs, cached_digest, stats) = steady_state(shape, true);
    let (plain_secs, plain_digest, _) = steady_state(shape, false);
    assert_eq!(
        cached_digest, plain_digest,
        "steady-state allocations moved with the route cache"
    );
    let hit_rate = stats.hit_rate();
    let storm_hit_rate = reroute_storm(shape);
    report_kv(&[
        (
            "steady-state queries",
            format!("{} ({} hits / {} misses)", stats.hits + stats.misses, stats.hits, stats.misses),
        ),
        ("steady-state hit rate", format!("{:.1}%", hit_rate * 100.0)),
        ("steady-state cached s", format!("{cached_secs:.4}")),
        ("steady-state uncached s", format!("{plain_secs:.4}")),
        ("route compute speedup", format!("{:.2}x", plain_secs / cached_secs)),
        ("reroute-storm hit rate", format!("{:.1}%", storm_hit_rate * 100.0)),
        ("allocation digests", "identical (asserted)".into()),
    ]);
    results.push(("route_cache_hit_rate", format!("{hit_rate:.4}")));
    results.push(("route_cache_storm_hit_rate", format!("{storm_hit_rate:.4}")));
    results.push(("route_cache_speedup", format!("{:.2}", plain_secs / cached_secs)));
    results.push(("route_epochs", shape.route_epochs.to_string()));
    results.push(("route_classes", shape.route_classes.to_string()));
    results.push(("route_batch", shape.route_batch.to_string()));

    demo_identity(shape);
    println!();
    println!("end-to-end: summary + dashboard + monitoring byte-identical, cache on vs off (asserted)");
    results.push(("e2e_identical", "true".into()));

    assert!(
        hit_rate >= 0.90,
        "steady-state hit rate {hit_rate:.3} below the 90% target"
    );
    if !smoke {
        for (window, speedup) in speedup_at {
            if window >= 256 {
                assert!(
                    speedup >= 5.0,
                    "quantile speedup {speedup:.1}x at window {window} below the 5x target"
                );
            }
        }
    }

    report_results("e13", smoke, &results);
}
