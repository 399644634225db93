//! Integration: the socket RPC control plane against the in-process oracle.
//!
//! The in-process `MessageBus` is the deterministic reference; the framed
//! TCP plane (`spawn_domain_control_servers` + `SocketBus`) is the real
//! deployment shape. These tests pin the acceptance contract: a run whose
//! control plane crosses real sockets finishes with the **byte-identical**
//! summary, dashboard, and monitoring JSON as the same seed in-process —
//! at 1, 2, and 8 workers, and with combined control-plane + substrate
//! chaos active — and the chaos is physically real on the wire (server-side
//! connection teardowns, client reconnects), not just simulated bookkeeping.

use ovnes_api::{EndpointFaults, FaultPlan, SubstrateElement, SubstrateFaultPlan};
use ovnes_dashboard::DashboardView;
use ovnes_model::{EnbId, LinkId};
use ovnes_orchestrator::{
    spawn_domain_control_servers, ChaosSummary, DemoScenario, DemoSummary, ScenarioConfig,
};
use ovnes_sim::{SimDuration, SimTime};

fn config(seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        seed,
        arrivals_per_hour: 25.0,
        horizon: SimDuration::from_hours(4),
        ..ScenarioConfig::default()
    }
}

/// Everything a transport could possibly perturb: the run summary, the
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
fn socket_control_matches_in_process_at_every_worker_count() {
    // The oracle: one serial in-process run.
    let (reference, ref_dash, ref_monitoring) = {
        ovnes_sim::par::set_thread_override(Some(1));
        let mut s = DemoScenario::build(config(2024));
        let summary = s.run();
        let (dash, monitoring) = artifacts(s.orchestrator());
        ovnes_sim::par::set_thread_override(None);
        (summary, dash, monitoring)
    };

    for threads in [1usize, 2, 8] {
        ovnes_sim::par::set_thread_override(Some(threads));
        let (servers, socket) = spawn_domain_control_servers().unwrap();
        let mut s = DemoScenario::build(config(2024));
        s.orchestrator_mut().set_control_socket(socket);
        let summary: DemoSummary = s.run();
        let (dash, monitoring) = artifacts(s.orchestrator());
        ovnes_sim::par::set_thread_override(None);

        assert_eq!(
            summary, reference,
            "{threads}-worker over-RPC summary diverged from in-process"
        );
        assert_eq!(
            dash, ref_dash,
            "{threads}-worker over-RPC dashboard diverged"
        );
        assert_eq!(
            monitoring, ref_monitoring,
            "{threads}-worker over-RPC monitoring JSON diverged"
        );
        // The comparison was real: the control plane went over the wire.
        assert!(s.orchestrator().control().is_socket());
        let served: u64 = servers.iter().map(|srv| srv.stats().requests).sum();
        assert!(served > 0, "no request ever crossed a socket");
    }
}

fn control_plan() -> FaultPlan {
    FaultPlan::new(4242)
        .with_endpoint("ran/health", EndpointFaults::none().with_drop(0.25))
        .with_endpoint(
            "cloud/health",
            EndpointFaults::none().with_error(0.15).with_outage(
                SimTime::ZERO + SimDuration::from_mins(45),
                SimTime::ZERO + SimDuration::from_mins(75),
            ),
        )
}

fn substrate_plan() -> SubstrateFaultPlan {
    SubstrateFaultPlan::new(17)
        .with_outage(
            SubstrateElement::Cell(EnbId::new(0)),
            SimTime::ZERO + SimDuration::from_mins(40),
            SimTime::ZERO + SimDuration::from_mins(70),
        )
        .with_flaps(
            SubstrateElement::Link(LinkId::new(4)),
            SimTime::ZERO + SimDuration::from_mins(90),
            SimDuration::from_mins(5),
            SimDuration::from_mins(20),
            3,
        )
}

#[test]
fn socket_chaos_run_matches_in_process_and_the_faults_are_physical() {
    // Combined control-plane + substrate chaos, the worst case the
    // acceptance contract names. Fault *decisions* come from the plan's RNG
    // on the client; over sockets each drop is additionally *realized* as a
    // server-side connection teardown the client must survive.
    let build = || {
        let mut s = DemoScenario::build(config(321));
        s.orchestrator_mut().set_fault_plan(control_plan());
        s.orchestrator_mut().set_substrate_plan(substrate_plan());
        s
    };

    let (reference, ref_dash, ref_monitoring) = {
        let mut s = build();
        s.run();
        let (dash, monitoring) = artifacts(s.orchestrator());
        (s.chaos_summary(), dash, monitoring)
    };
    // The plan actually bit in the oracle run.
    assert!(reference.control_retries > 0, "{reference:?}");

    let (servers, socket) = spawn_domain_control_servers().unwrap();
    let mut s = build();
    s.orchestrator_mut().set_control_socket(socket);
    s.run();
    let summary: ChaosSummary = s.chaos_summary();
    let (dash, monitoring) = artifacts(s.orchestrator());

    assert_eq!(summary, reference, "over-RPC chaos summary diverged");
    assert_eq!(dash, ref_dash, "over-RPC chaos dashboard diverged");
    assert_eq!(monitoring, ref_monitoring, "over-RPC chaos monitoring diverged");

    // The chaos was real on the wire. Every dropped probe tore down the
    // RAN server's connection (a ChaosReset followed by a close the client
    // witnessed)...
    let ran = &servers[0];
    let stats = ran.stats();
    assert!(stats.chaos_resets > 0, "no drop was realized on the socket");
    // ...and the client transparently reconnected afterwards. Every reset
    // consumes one established connection and at most one (the last) can
    // still be live at the horizon, so the accepted-connection count is
    // pinned by the teardown count.
    assert!(
        stats.connections > 1,
        "teardowns without reconnects: {stats:?}"
    );
    assert!(
        stats.connections >= stats.chaos_resets
            && stats.connections <= stats.chaos_resets + 1,
        "connection churn must be exactly the teardown churn: {stats:?}"
    );
}

#[test]
fn pipelining_spans_all_three_domain_servers() {
    // One SocketBus, three servers: a pipelined batch interleaving all
    // domains comes back fully, in request order, with per-endpoint served
    // counts intact.
    let (servers, mut socket) = spawn_domain_control_servers().unwrap();
    let endpoints = ["ran/health", "transport/health", "cloud/health"];
    let calls: Vec<(String, Vec<u8>)> = (0..12)
        .map(|i| (endpoints[i % 3].to_owned(), Vec::new()))
        .collect();
    let results = socket.call_pipelined(calls);
    assert_eq!(results.len(), 12);
    for (i, result) in results.iter().enumerate() {
        let resp = result.as_ref().expect("health responds");
        assert_eq!(resp.id, i as u64, "responses must land in request order");
    }
    for endpoint in endpoints {
        assert_eq!(socket.served(endpoint), 4, "{endpoint}");
    }
    for server in &servers {
        assert_eq!(server.stats().requests, 4);
    }
}
