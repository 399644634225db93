//! E17 — the socket RPC control plane: cost, pipelining, and identity.
//!
//! PR 7 split the control hierarchy into real processes-on-sockets: the
//! three domain controllers serve a length-prefixed framed protocol over
//! loopback TCP and the orchestrator talks to them through a `SocketBus`.
//! This harness prices that boundary and re-asserts the contract that makes
//! it safe to deploy:
//!
//! * **RTT** — the distribution (p50/p95/p99) of a single health probe
//!   round trip through a real socket, connection reused.
//! * **pipelining** — the same batch of probes issued serially
//!   (write→read→write→read) vs pipelined (all writes, then demultiplex
//!   responses by correlation id). The framed protocol must buy ≥2×
//!   throughput from pipelining alone — that is an assertion, not a plot.
//! * **identity** — a full overbooked demo run over the socket plane
//!   (`identity::observe` on the matrix's `socket-workers` cells) finishes
//!   with the byte-identical summary, dashboard and monitoring JSON as the
//!   same seed on the in-process bus (the deterministic oracle), while a
//!   subscribed telemetry feed receives the run's monitoring pushes instead
//!   of polling for them.
//!
//! Results land in `BENCH_e17.json` at the working directory (the repo root
//! in CI, which archives it). `--smoke` shrinks the sample counts and the
//! horizon to CI size; every assertion still runs.

use ovnes_bench::identity::{observe, observe_with, Cell, Control};
use ovnes_bench::percentile;
use ovnes_dashboard::{FeedState, TelemetryFeed};
use ovnes_orchestrator::spawn_domain_control_servers;
use std::time::{Duration, Instant};

struct Shape {
    rtt_samples: usize,
    batch: usize,
    horizon_hours: u64,
}

const FULL: Shape = Shape {
    rtt_samples: 2000,
    batch: 2000,
    horizon_hours: 4,
};

const SMOKE: Shape = Shape {
    rtt_samples: 300,
    batch: 400,
    horizon_hours: 1,
};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let shape = if smoke { &SMOKE } else { &FULL };
    ovnes_bench::report_header(
        "E17",
        "socket RPC control plane",
        "probe RTT, pipelined vs serial throughput, over-RPC run identity",
    );

    // ---- RTT distribution of one probe over a reused connection ----------
    let (servers, mut socket) = spawn_domain_control_servers().expect("spawn control servers");
    let _ = socket.call("ran/health", Vec::new()).expect("warm up");
    let mut rtts_us: Vec<f64> = (0..shape.rtt_samples)
        .map(|_| {
            let start = Instant::now();
            socket.call("ran/health", Vec::new()).expect("probe");
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    rtts_us.sort_by(|a, b| a.total_cmp(b));
    let (p50, p95, p99) = (
        percentile(&rtts_us, 50.0),
        percentile(&rtts_us, 95.0),
        percentile(&rtts_us, 99.0),
    );

    // ---- pipelined vs serial throughput on one connection -----------------
    let start = Instant::now();
    for _ in 0..shape.batch {
        socket.call("ran/health", Vec::new()).expect("serial probe");
    }
    let serial_s = start.elapsed().as_secs_f64();

    let calls: Vec<(String, Vec<u8>)> = (0..shape.batch)
        .map(|_| ("ran/health".to_owned(), Vec::new()))
        .collect();
    let start = Instant::now();
    let results = socket.call_pipelined(calls);
    let pipelined_s = start.elapsed().as_secs_f64();
    assert!(
        results.iter().all(|r| r.is_ok()),
        "pipelined batch must fully succeed"
    );
    let serial_rate = shape.batch as f64 / serial_s;
    let pipelined_rate = shape.batch as f64 / pipelined_s;
    let speedup = pipelined_rate / serial_rate;
    assert!(
        speedup >= 2.0,
        "pipelining must beat serial by ≥2×, got {speedup:.2}× \
         ({serial_rate:.0}/s vs {pipelined_rate:.0}/s)"
    );
    drop(socket);
    drop(servers);

    // ---- identity: over-RPC run == in-process oracle, pushes flowing ------
    let in_process = Cell {
        seed: 1717,
        horizon_mins: shape.horizon_hours * 60,
        ..Cell::CALM
    };
    let (oracle, _) = observe(&in_process);

    // The dashboard side: one feed per domain server, subscribed to its
    // monitoring topic before the run starts.
    let mut feeds: Vec<TelemetryFeed> = Vec::new();
    let over_rpc = Cell {
        control: Control::Socket,
        ..in_process
    };
    let (observed, witness) = observe_with(&over_rpc, |servers| {
        for server in servers {
            let mut feed = TelemetryFeed::connect(server.addr()).expect("feed connects");
            let topic = server
                .endpoints()
                .iter()
                .find(|e| e.ends_with("/monitoring"))
                .expect("every domain server exposes monitoring");
            feed.subscribe(topic).expect("subscribe");
            feeds.push(feed);
        }
    });
    assert_eq!(
        oracle.first_difference(&observed),
        None,
        "over-RPC run diverged from the in-process oracle"
    );
    assert!(witness.admitted > 0, "the run must be a real workload");
    assert!(
        witness.socket_requests > 0,
        "no request ever crossed a socket"
    );

    // Drain the feeds (until quiet, or closed behind the finished run): the
    // run's monitoring traffic arrived as pushes.
    let mut feed_state = FeedState::new();
    for feed in &mut feeds {
        while let Ok(Some((_, body))) = feed.poll(Duration::from_millis(200)) {
            feed_state.apply_push(&body).expect("pushed report decodes");
        }
    }
    assert!(
        feed_state.updates() > 0,
        "subscribed feeds must receive monitoring pushes"
    );

    let results = [
        ("rtt_samples", shape.rtt_samples.to_string()),
        ("rtt_p50_us", format!("{p50:.2}")),
        ("rtt_p95_us", format!("{p95:.2}")),
        ("rtt_p99_us", format!("{p99:.2}")),
        ("batch", shape.batch.to_string()),
        ("serial_calls_per_s", format!("{serial_rate:.1}")),
        ("pipelined_calls_per_s", format!("{pipelined_rate:.1}")),
        ("pipelining_speedup", format!("{speedup:.3}")),
        ("identity_in_process_vs_rpc", "true".to_string()),
        (
            "monitoring_pushes_received",
            feed_state.updates().to_string(),
        ),
        ("monitoring_pushes_sent", witness.socket_pushes.to_string()),
    ];
    println!();
    ovnes_bench::report_kv(&results);
    ovnes_bench::report_kv(&[("domains heard from", feed_state.domains().join(", "))]);
    ovnes_bench::report_results("e17", smoke, &results);
}
