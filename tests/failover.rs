//! Integration: what an outage costs when nobody supervises it.
//!
//! The supervision layer's acceptance contract — a seeded crash storm, and
//! bounded hangs, leave the run byte-identical to an undisturbed one at 1,
//! 2 and 8 workers — is the `storm-*` and `hang` rows of
//! `tests/identity_matrix.rs`. Unsupervised outages, by contrast, must walk
//! the orchestrator's heartbeat health machine and book repair telemetry.

use ovnes_dashboard::DashboardView;
use ovnes_orchestrator::{
    spawn_domain_control_servers, DemoScenario, HealthState, ScenarioConfig, DOMAINS,
};
use ovnes_sim::SimDuration;

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
            s.orchestrator().supervision()[domain].state,
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
        s.orchestrator().supervision()["ran"].state,
        HealthState::Suspect
    );
    assert!(s.step_epoch());
    let health = s.orchestrator().supervision()["ran"];
    assert_eq!(health.state, HealthState::Down);
    assert_eq!(health.incidents, 1);

    // Operator repair: a fresh incarnation on a new port, routed and fenced.
    let _restarted = ovnes_bench::repair_by_hand(s.orchestrator_mut(), "ran", 2, carry);

    // The next successful probe books the repair: two minutes of downtime
    // from the first failed probe to the recovering one.
    assert!(s.step_epoch());
    let health = s.orchestrator().supervision()["ran"];
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
