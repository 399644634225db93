//! E18 — supervised failover: crash storms, repair time, and availability.
//!
//! PR 9 added a supervision layer (`ovnes_orchestrator::supervise`) that can
//! kill and restart any domain controller server at any epoch with no
//! observable effect on the run. This harness prices that promise:
//!
//! * **invisibility** — a seeded crash storm (every controller killed and
//!   restarted `crashes_per_domain` times, the first crash landing
//!   mid-request so a zombie response is provably generated and fenced)
//!   leaves the run summary, dashboard and monitoring JSON byte-identical
//!   to an undisturbed in-process run (`identity::observe` on the matrix's
//!   `storm-workers` cells). That is an assertion, not a plot.
//! * **MTTR** — the wall-clock distribution (p50/p95/max) of one supervised
//!   kill-and-restart cycle: fence, resync, shutdown, fresh incarnation on a
//!   new port, reroute.
//! * **availability** — the same outage *without* a supervisor walks the
//!   orchestrator's heartbeat health machine instead: the run completes, but
//!   epochs are spent degraded. Supervised availability is 1.0 by
//!   construction; the unsupervised arm reports what the health machine saw.
//! * **bounded hang** — a hung (paused, not dead) server surfaces as a
//!   deadline expiry on the client within the configured read deadline,
//!   not a forever-stall.
//!
//! Results land in `BENCH_e18.json` at the working directory (the repo root
//! in CI, which archives it). `--smoke` shrinks the horizon and the storm to
//! CI size; every assertion still runs.

use ovnes_api::{BusDeadlines, BusError};
use ovnes_bench::identity::{observe, Cell, Control, ProcessFaults};
use ovnes_bench::percentile;
use ovnes_orchestrator::{
    spawn_domain_control_servers, DemoScenario, HealthState, ScenarioConfig, DOMAINS,
};
use ovnes_sim::SimDuration;
use std::time::{Duration, Instant};

struct Shape {
    horizon_hours: u64,
    crashes_per_domain: usize,
}

const FULL: Shape = Shape {
    horizon_hours: 4,
    crashes_per_domain: 3,
};

const SMOKE: Shape = Shape {
    horizon_hours: 1,
    crashes_per_domain: 2,
};

fn config(shape: &Shape) -> ScenarioConfig {
    ScenarioConfig {
        seed: 1818,
        arrivals_per_hour: 25.0,
        horizon: SimDuration::from_hours(shape.horizon_hours),
        ..ScenarioConfig::default()
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let shape = if smoke { &SMOKE } else { &FULL };
    let horizon_epochs = shape.horizon_hours * 60;
    ovnes_bench::report_header(
        "E18",
        "supervised failover",
        "crash-storm invisibility, repair time, availability, bounded hangs",
    );

    // ---- the oracle: one undisturbed in-process run -----------------------
    let undisturbed = Cell {
        seed: 1818,
        horizon_mins: horizon_epochs,
        ..Cell::CALM
    };
    let (oracle, oracle_witness) = observe(&undisturbed);
    assert!(
        oracle_witness.admitted > 0,
        "the run must be a real workload"
    );

    // ---- arm 1: supervised crash storm is byte-invisible ------------------
    let (stormed, witness) = observe(&Cell {
        control: Control::Socket,
        process: ProcessFaults::CrashStorm(shape.crashes_per_domain),
        ..undisturbed
    });
    assert_eq!(
        oracle.first_difference(&stormed),
        None,
        "crash-storm run diverged from the undisturbed oracle"
    );
    assert_eq!(
        witness.crashes,
        DOMAINS.len() as u64 * shape.crashes_per_domain as u64
    );
    assert!(witness.mid_request_crashes >= 1);
    assert!(
        witness.stale_provoked >= 1 && witness.stale_rejections >= 1,
        "no zombie response was generated and fenced"
    );
    assert_eq!(
        witness.health_incidents, 0,
        "a supervised restart must never trip the health machine"
    );
    let mut mttr_ms: Vec<f64> = witness
        .mttr_wall_secs
        .iter()
        .map(|secs| secs * 1e3)
        .collect();
    mttr_ms.sort_by(|a, b| a.total_cmp(b));
    let (mttr_p50, mttr_p95, mttr_max) = (
        percentile(&mttr_ms, 50.0),
        percentile(&mttr_ms, 95.0),
        mttr_ms.last().copied().unwrap_or(0.0),
    );

    // ---- arm 2: the same outage unsupervised costs availability -----------
    // Kill the RAN server with nobody watching; repair it by hand five
    // epochs later. Every epoch any domain is off `Up` is a degraded epoch.
    let (mut servers, socket) = spawn_domain_control_servers().expect("spawn control servers");
    let mut s = DemoScenario::build(config(shape));
    s.orchestrator_mut().set_control_socket(socket);
    let (kill_at, repair_at) = (10u64, 15u64);
    let mut carry = None;
    let mut degraded_epochs = 0u64;
    let mut epochs = 0u64;
    for epoch in 1..=horizon_epochs {
        if epoch == kill_at {
            let mut ran = servers.remove(0);
            carry = Some(ran.stats());
            ran.shutdown();
        }
        if epoch == repair_at {
            let carry = carry.take().expect("killed first");
            let restarted = ovnes_bench::repair_by_hand(s.orchestrator_mut(), "ran", 2, carry);
            servers.push(restarted);
        }
        if !s.step_epoch() {
            break;
        }
        epochs += 1;
        let degraded = DOMAINS
            .iter()
            .any(|d| s.orchestrator().domain_health(d).expect("tracked").state != HealthState::Up);
        if degraded {
            degraded_epochs += 1;
        }
    }
    let health = s.orchestrator().domain_health("ran").expect("tracked");
    assert_eq!(
        health.incidents, 1,
        "the outage must trip the health machine"
    );
    assert_eq!(health.repairs, 1, "the manual repair must be booked");
    assert!(degraded_epochs > 0);
    let unsupervised_availability = 1.0 - degraded_epochs as f64 / epochs as f64;
    drop(servers);

    // ---- arm 3: a hung server is a bounded deadline, not a stall ----------
    let (servers, mut socket) = spawn_domain_control_servers().expect("spawn control servers");
    socket.set_deadlines(BusDeadlines {
        connect: Duration::from_secs(1),
        read: Duration::from_millis(500),
    });
    socket.call("ran/health", Vec::new()).expect("warm up");
    let ran = &servers[0];
    let resume = ran.resume_handle();
    ran.pause();
    let start = Instant::now();
    let hung = socket.call("ran/health", Vec::new());
    let hung_ms = start.elapsed().as_secs_f64() * 1e3;
    assert!(
        matches!(hung, Err(BusError::Deadline(_))),
        "a hung server must surface as a deadline expiry, got {hung:?}"
    );
    assert!(
        hung_ms < 5_000.0,
        "deadline must bound the stall, took {hung_ms:.0} ms"
    );
    resume.resume();
    socket
        .call("ran/health", Vec::new())
        .expect("resumed server answers again");
    drop(socket);
    drop(servers);

    let results = [
        ("horizon_epochs", horizon_epochs.to_string()),
        ("crashes", witness.crashes.to_string()),
        (
            "mid_request_crashes",
            witness.mid_request_crashes.to_string(),
        ),
        ("stale_rejections", witness.stale_rejections.to_string()),
        ("mttr_p50_ms", format!("{mttr_p50:.3}")),
        ("mttr_p95_ms", format!("{mttr_p95:.3}")),
        ("mttr_max_ms", format!("{mttr_max:.3}")),
        ("supervised_availability", "1.0".to_string()),
        (
            "unsupervised_availability",
            format!("{unsupervised_availability:.4}"),
        ),
        ("degraded_epochs_unsupervised", degraded_epochs.to_string()),
        ("hung_call_latency_ms", format!("{hung_ms:.1}")),
        ("identity_storm_vs_oracle", "true".to_string()),
    ];
    println!();
    ovnes_bench::report_kv(&results);
    ovnes_bench::report_results("e18", smoke, &results);
}
