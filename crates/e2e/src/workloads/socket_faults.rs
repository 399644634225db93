//! `socket_faults`: the same layers, used differently.
//!
//! The Fig. 2 testbed under weather and a seeded substrate fault plan over
//! its links, cells and hosts, with the dashboard rendered every ten epochs.
//! `transport` is exercised through `degrade_link`/`reroute`/repair instead
//! of first allocation, `cloud` through redeploy instead of deploy, `api`
//! through frames and sockets instead of function calls. The simulation per
//! epoch is tiny, so the three probes and three monitoring pushes (JSON
//! encode, frame, round trip, decode), `scalar_snapshot` and the per-epoch
//! thread spawn of `par_map` dominate.
//!
//! Each repetition runs twice in one process: phase A on the in-process
//! `MessageBus`, phase B over loopback TCP to three domain servers (one
//! caller, one call in flight). End-to-end numbers come from phase B; phase
//! A is the base of `socket_over_bus_ratio` and, bit for bit, the oracle of
//! phase B's outputs (the E17 contract).

use super::{add_counts, after_epoch, check_books, close_counts, Arrivals, Summary};
use crate::harness::{finish, Op, Opts, Rep, RepOutcome};
use crate::probes::World;
use crate::worlds::{failable_elements, testbed_world};
use ovnes_api::SubstrateFaultPlan;
use ovnes_dashboard::DashboardView;
use ovnes_orchestrator::{
    spawn_domain_control_servers, Orchestrator, OrchestratorConfig, RequestGenerator, RequestMix,
};
use ovnes_sim::{SimDuration, SimRng, SimTime};
use std::collections::BTreeMap;
use std::hint::black_box;

pub const ARRIVALS_PER_HOUR: f64 = 25.0;
pub const MEAN_DURATION: SimDuration = SimDuration::from_mins(50);
pub const WARMUP_EPOCHS: u64 = 30;
/// Per phase. Both phases together take about 2 s on the 2-core reference
/// box (README, "How the sizes were chosen").
pub const TIMED_EPOCHS: u64 = 2000;
pub const RENDER_EVERY: u64 = 10;
/// Per element and hour; with 29 elements about 1.5 outages per sim hour.
pub const FAILURES_PER_HOUR: f64 = 0.05;
pub const MEAN_REPAIR: SimDuration = SimDuration::from_mins(10);

pub fn config() -> OrchestratorConfig {
    OrchestratorConfig {
        weather_enabled: true,
        ..OrchestratorConfig::default()
    }
}

/// One phase: the same seeded world and request stream, on the in-process
/// bus or over sockets.
fn phase(opts: &Opts, rep: &mut Rep<'_>, over_sockets: bool, epochs: u64) -> BTreeMap<String, f64> {
    let mut rng = SimRng::seed_from(opts.seed);
    let world = testbed_world();
    let horizon = SimDuration::from_mins(WARMUP_EPOCHS + epochs);
    let plan = SubstrateFaultPlan::new(rng.fork("socket_faults-plan").next_u64())
        .with_random_outages(
            &failable_elements(&world),
            FAILURES_PER_HOUR,
            MEAN_REPAIR,
            horizon,
        );
    let generator = RequestGenerator::new(
        RequestMix::default(),
        MEAN_DURATION,
        rng.fork("socket_faults-requests"),
    );
    let mut arrivals = Arrivals::new(generator, ARRIVALS_PER_HOUR);
    let config = config();
    let epoch_len = config.epoch;
    let mut orchestrator = Orchestrator::new(
        config,
        world.ran,
        world.transport,
        world.cloud,
        world.cell,
        rng.fork("socket_faults-world"),
    );
    orchestrator.set_substrate_plan(plan);
    // The servers live as long as the phase; dropping them joins their threads.
    let servers = if over_sockets {
        match spawn_domain_control_servers() {
            Ok((servers, socket)) => {
                orchestrator.set_control_socket(socket);
                servers
            }
            Err(e) => {
                rep.fail(format!("cannot spawn the domain control servers: {e}"));
                Vec::new()
            }
        }
    } else {
        Vec::new()
    };

    let mut summary = Summary::default();
    let mut render_bytes = 0;
    let mut now = SimTime::ZERO;
    rep.reserve(
        epochs as usize,
        (ARRIVALS_PER_HOUR / 60.0 * epochs as f64 * 1.5) as usize,
    );
    for epoch in 0..WARMUP_EPOCHS + epochs {
        let timed = epoch >= WARMUP_EPOCHS;
        now += epoch_len;
        let mut iteration = |rep: &mut Rep<'_>| {
            arrivals.deliver(rep, &mut orchestrator, &mut summary, now);
            let report = rep.timed(Op::Epoch, || orchestrator.run_epoch(now));
            if epoch % RENDER_EVERY == 0 {
                let text = rep.timed(Op::Render, || {
                    DashboardView::capture(&orchestrator).render()
                });
                render_bytes = black_box(text).len();
            }
            report
        };
        let report = if timed {
            rep.step(iteration)
        } else {
            iteration(rep)
        };
        after_epoch(rep, &mut summary, &orchestrator, &report);
        if timed {
            if let Some(probes) = rep.probes.as_deref_mut() {
                probes.maybe_round(epoch - WARMUP_EPOCHS, epochs, &World::Single(&orchestrator));
            }
        }
    }

    summary.close(&orchestrator);
    rep.digest_json(&summary);
    let mut counts = BTreeMap::new();
    add_counts(&mut counts, &orchestrator);
    check_books(rep, &summary, &counts, 0..=0);
    close_counts(&mut counts, &summary);
    // Part of the digest, so a socket that changed an outcome shows.
    rep.digest_json(&counts);
    counts.insert(
        "api.server_requests".into(),
        servers.iter().map(|s| s.stats().requests).sum::<u64>() as f64,
    );
    let connects = orchestrator
        .control_mut()
        .socket_mut()
        .map_or(0, |socket| socket.connect_attempts());
    counts.insert("api.connect_attempts".into(), connects as f64);
    counts.insert("dashboard.render_bytes".into(), render_bytes as f64);
    counts
}

pub fn run(opts: &Opts, mut rep: Rep<'_>) -> RepOutcome {
    let epochs = opts.timed_epochs(TIMED_EPOCHS);

    // Phase A: the in-process oracle, recorded apart.
    let mut bus = Rep::new(None, None);
    phase(opts, &mut bus, false, epochs);
    let bus_digest = bus.digest_hex();
    rep.series.bus_epoch = std::mem::take(&mut bus.series.epoch);
    rep.ops_attempted += bus.ops_attempted;
    for failure in std::mem::take(&mut bus.failures) {
        rep.fail(format!("phase A: {failure}"));
    }

    // Phase B: over sockets. Its set-up is the workload's `setup_s`.
    rep.restart_clock();
    let counts = phase(opts, &mut rep, true, epochs);
    let socket_digest = rep.digest_hex();
    rep.check(socket_digest == bus_digest, || {
        format!("phase B digest {socket_digest} != phase A digest {bus_digest}")
    });
    finish(rep, counts)
}
