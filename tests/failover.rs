//! Integration: supervised process-level chaos against the undisturbed run.
//!
//! The acceptance contract for the supervision layer (`ovnes_orchestrator::
//! supervise`): a seeded crash storm that kills and restarts every domain
//! controller server — at least once mid-request, with the zombie response
//! provably generated and rejected — leaves the run summary, dashboard,
//! and monitoring JSON **byte-identical** to a run with no supervisor at
//! all, at 1, 2, and 8 workers. Unsupervised outages, by contrast, must
//! walk the orchestrator's heartbeat health machine and book repair
//! telemetry.

use ovnes_api::{register_control_endpoints, Router, RpcServer};
use ovnes_api::CrashPlan;
use ovnes_dashboard::DashboardView;
use ovnes_orchestrator::{
    run_supervised, spawn_domain_control_servers, DemoScenario, HealthState, ScenarioConfig,
    Supervisor, DOMAINS,
};
use ovnes_sim::SimDuration;

fn config(seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        seed,
        arrivals_per_hour: 25.0,
        horizon: SimDuration::from_hours(2),
        ..ScenarioConfig::default()
    }
}

/// Everything a supervisor could possibly perturb: the run summary, the
/// rendered dashboard, and the byte-exact JSON of every monitoring report.
fn artifacts(orch: &ovnes_orchestrator::Orchestrator) -> (String, Vec<String>) {
    let dashboard = DashboardView::capture(orch).render();
    let monitoring = orch
        .monitoring()
        .iter()
        .map(|r| serde_json::to_string(r).unwrap())
        .collect();
    (dashboard, monitoring)
}

#[test]
fn crash_storm_is_byte_invisible_at_every_worker_count() {
    // The oracle: one serial, unsupervised, in-process run.
    let (reference, ref_dash, ref_monitoring) = {
        ovnes_sim::par::set_thread_override(Some(1));
        let mut s = DemoScenario::build(config(404));
        let summary = s.run();
        let (dash, monitoring) = artifacts(s.orchestrator());
        ovnes_sim::par::set_thread_override(None);
        (summary, dash, monitoring)
    };

    for threads in [1usize, 2, 8] {
        ovnes_sim::par::set_thread_override(Some(threads));
        let (servers, socket) = spawn_domain_control_servers().unwrap();
        let mut s = DemoScenario::build(config(404));
        s.orchestrator_mut().set_control_socket(socket);
        // Every controller killed and restarted twice, the first ran crash
        // landing mid-request, all drawn from the plan's own seed.
        let plan =
            CrashPlan::new(404).with_random_storm(&["ran", "transport", "cloud"], 2, 5, 100);
        let mut supervisor = Supervisor::new(servers, plan);
        let summary = run_supervised(&mut s, &mut supervisor);
        let (dash, monitoring) = artifacts(s.orchestrator());
        ovnes_sim::par::set_thread_override(None);

        assert_eq!(
            summary, reference,
            "{threads}-worker crash-storm summary diverged from undisturbed run"
        );
        assert_eq!(dash, ref_dash, "{threads}-worker crash-storm dashboard diverged");
        assert_eq!(
            monitoring, ref_monitoring,
            "{threads}-worker crash-storm monitoring JSON diverged"
        );

        // The storm was real: six kill-and-restart cycles, one of them with
        // a provably generated-and-rejected zombie response.
        assert_eq!(supervisor.crashes(), 6);
        assert_eq!(supervisor.mid_request_crashes(), 1);
        assert!(supervisor.stale_rejections_provoked() >= 1);
        assert!(
            s.orchestrator().control().stale_rejections() >= 1,
            "no stale response was rejected on the wire"
        );
        assert_eq!(supervisor.mttr_wall_secs().len(), 6);
        // Two crashes per domain: every server is its third incarnation.
        for (domain, term) in supervisor.terms() {
            assert_eq!(term, 3, "{domain}");
        }
    }
}

#[test]
fn hung_servers_stay_invisible_within_the_read_deadline() {
    let (reference, ref_dash, ref_monitoring) = {
        let mut s = DemoScenario::build(config(505));
        let summary = s.run();
        let (dash, monitoring) = artifacts(s.orchestrator());
        (summary, dash, monitoring)
    };

    let (servers, socket) = spawn_domain_control_servers().unwrap();
    let mut s = DemoScenario::build(config(505));
    s.orchestrator_mut().set_control_socket(socket);
    // Each domain hangs for 50 ms — well under the client read deadline,
    // so every probe in the window just takes longer and still succeeds.
    let plan = CrashPlan::new(505)
        .with_hang("ran", 10, 50)
        .with_hang("transport", 40, 50)
        .with_hang("cloud", 70, 50);
    let mut supervisor = Supervisor::new(servers, plan);
    let summary = run_supervised(&mut s, &mut supervisor);
    let (dash, monitoring) = artifacts(s.orchestrator());

    assert_eq!(summary, reference, "hung-server summary diverged");
    assert_eq!(dash, ref_dash, "hung-server dashboard diverged");
    assert_eq!(monitoring, ref_monitoring, "hung-server monitoring diverged");
    assert_eq!(supervisor.hangs(), 3);
    assert_eq!(supervisor.crashes(), 0);
    // No incarnation changed: a hang is not a crash.
    for (domain, term) in supervisor.terms() {
        assert_eq!(term, 1, "{domain}");
    }
}

#[test]
fn unsupervised_outage_walks_the_health_machine() {
    let (mut servers, socket) = spawn_domain_control_servers().unwrap();
    let mut s = DemoScenario::build(ScenarioConfig {
        seed: 606,
        arrivals_per_hour: 25.0,
        horizon: SimDuration::from_hours(1),
        ..ScenarioConfig::default()
    });
    s.orchestrator_mut().set_control_socket(socket);

    for _ in 0..5 {
        assert!(s.step_epoch());
    }
    for domain in DOMAINS {
        assert_eq!(
            s.orchestrator().domain_health(domain).unwrap().state,
            HealthState::Up
        );
    }

    // Kill the RAN controller server with nobody supervising it.
    let mut ran = servers.remove(0);
    let carry = ran.stats();
    ran.shutdown();
    drop(ran);

    // One failed probe suspects, a second declares the domain down.
    assert!(s.step_epoch());
    assert_eq!(
        s.orchestrator().domain_health("ran").unwrap().state,
        HealthState::Suspect
    );
    assert!(s.step_epoch());
    let health = *s.orchestrator().domain_health("ran").unwrap();
    assert_eq!(health.state, HealthState::Down);
    assert_eq!(health.incidents, 1);

    // Operator repair: a fresh incarnation on a new port, routed and
    // fenced, with the resync marked on the health machine.
    let mut router = Router::new();
    register_control_endpoints(&mut router, "ran");
    let restarted = RpcServer::spawn_incarnation(router, 2, carry).unwrap();
    {
        let bus = s
            .orchestrator_mut()
            .control_mut()
            .socket_mut()
            .expect("socket control plane");
        bus.attach(&restarted);
        bus.fence("ran", 2);
    }
    s.orchestrator_mut().mark_resyncing("ran");
    assert_eq!(
        s.orchestrator().domain_health("ran").unwrap().state,
        HealthState::Resyncing
    );

    // The next successful probe books the repair: two minutes of downtime
    // from the first failed probe to the recovering one.
    assert!(s.step_epoch());
    let health = *s.orchestrator().domain_health("ran").unwrap();
    assert_eq!(health.state, HealthState::Up);
    assert_eq!(health.repairs, 1);
    assert_eq!(health.failed_probes, 2);

    let m = s.orchestrator().metrics();
    assert_eq!(m.counter_value("supervise.suspects"), Some(1));
    assert_eq!(m.counter_value("supervise.downs"), Some(1));
    assert_eq!(m.counter_value("supervise.repairs"), Some(1));
    let ttr = m.series_ref("supervise.time_to_repair").unwrap();
    assert_eq!(ttr.values(), vec![120.0]);

    // The repair shows on the dashboard's SUPERVISION panel.
    let rendered = DashboardView::capture(s.orchestrator()).render();
    assert!(
        rendered.contains("suspects 1   downs 1   repairs 1"),
        "{rendered}"
    );
    assert!(
        rendered.contains("time to repair: mean 120 s over 1 incident(s)"),
        "{rendered}"
    );
}
