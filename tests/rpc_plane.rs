//! Integration: the socket RPC control plane, beyond identity.
//!
//! The acceptance contract — a run whose control plane crosses real sockets
//! finishes byte-identical to the same seed in-process at 1, 2 and 8
//! workers and under combined chaos, with every drop a physical teardown —
//! is the `socket-*` rows of `tests/identity_matrix.rs`. What stays here is
//! behaviour: pipelining across the three domain servers, monitoring
//! pushed to subscribers rather than polled for, an operator-sized report
//! answered the same on both transports, and a monitoring echo that parses
//! but is not the report sent refused.

use ovnes_api::{
    decode, encode, register_control_endpoints, serve_control, MonitoringReport, Response,
    RetryPolicy, Router, RpcServer, SocketBus,
};
use ovnes_bench::identity::{observe_with, Cell, Control};
use ovnes_bench::{embb_request, testbed_orchestrator};
use ovnes_dashboard::{FeedState, TelemetryFeed};
use ovnes_orchestrator::{spawn_domain_control_servers, ControlPlane, OrchestratorConfig, DOMAINS};
use ovnes_sim::{SimDuration, SimTime};
use std::time::Duration;

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

#[test]
fn subscribed_feeds_receive_an_orchestrated_runs_monitoring_pushes() {
    // The dashboard side: one feed per domain server, subscribed to its
    // monitoring topic before the first epoch of an over-socket run.
    let mut feeds: Vec<TelemetryFeed> = Vec::new();
    let over_rpc = Cell {
        seed: 1717,
        horizon_mins: 60,
        control: Control::Socket,
        ..Cell::CALM
    };
    let (_, witness) = observe_with(&over_rpc, |servers| {
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
    assert!(witness.admitted > 0, "the run must be a real workload");
    assert!(witness.socket_pushes > 0, "{witness:?}");

    // Drain the feeds (until quiet, or closed behind the finished run): the
    // run's monitoring traffic arrived as pushes, from every domain.
    let mut state = FeedState::new();
    for feed in &mut feeds {
        while let Ok(Some((_, body))) = feed.poll(Duration::from_millis(200)) {
            state.apply_push(&body).expect("pushed report decodes");
        }
    }
    assert!(state.updates() > 0, "subscribed feeds must receive pushes");
    assert_eq!(state.domains().len(), DOMAINS.len(), "{:?}", state.domains());
}

#[test]
fn an_operator_sized_report_is_answered_identically_on_both_transports() {
    // The transport report of a mesh with thousands of links: one scalar
    // per link, ≥ 200 KB on the wire.
    let report = MonitoringReport {
        domain: "transport".into(),
        at: SimTime::from_secs(300),
        scalars: (0..6_000)
            .map(|l| {
                (
                    format!("transport.link-{l}.utilization"),
                    l as f64 / 6_000.0,
                )
            })
            .collect(),
    };
    let bytes = encode(&report).unwrap();
    assert!(bytes.len() >= 200_000, "{} bytes", bytes.len());
    let echoes_the_report = |r: &ovnes_api::Response| {
        decode::<MonitoringReport>(&r.body.0).ok().as_ref() == Some(&report)
    };

    let mut in_process = ControlPlane::new();
    let (_servers, socket) = spawn_domain_control_servers().unwrap();
    let mut over_sockets = ControlPlane::new();
    over_sockets.install_socket(socket);

    let now = SimTime::from_secs(300);
    let a = in_process
        .call_checked(
            now,
            "transport/monitoring",
            bytes.clone(),
            echoes_the_report,
        )
        .expect("the bus answers");
    let b = over_sockets
        .call_checked(
            now,
            "transport/monitoring",
            bytes.clone(),
            echoes_the_report,
        )
        .expect("the socket answers");
    assert_eq!(a, b);
    assert_eq!(a.body.0, bytes, "echoed bit for bit");
    assert_eq!(in_process.export_state(), over_sockets.export_state());
}

#[test]
fn an_echo_that_parses_but_is_not_the_report_sent_is_a_control_failure() {
    // The RAN's server is healthy, but its monitoring endpoint answers a
    // well-formed report carrying other values than the one posted.
    let mut router = Router::new();
    register_control_endpoints(&mut router, "ran");
    router.register("ran/monitoring", |req| {
        let mut report: MonitoringReport = decode(&req.body.0).expect("a report is posted");
        report.scalars.values_mut().for_each(|v| *v += 1.0);
        Response::ok(req.id, encode(&report).unwrap())
    });
    let servers = [
        RpcServer::spawn(router).unwrap(),
        serve_control("transport").unwrap(),
        serve_control("cloud").unwrap(),
    ];
    let mut socket = SocketBus::new();
    servers.iter().for_each(|server| socket.attach(server));

    let mut o = testbed_orchestrator(OrchestratorConfig::default(), 5);
    o.set_control_socket(socket);
    o.submit(SimTime::ZERO, embb_request(1, 25.0)).unwrap();
    let report = o.run_epoch(SimTime::ZERO + SimDuration::from_mins(1));

    assert!(report.unreachable_domains.is_empty(), "health answers");
    assert_eq!(report.control_failures, 1, "the RAN's report, given up on");
    let attempts = u64::from(RetryPolicy::default().max_attempts);
    assert_eq!(report.control_retries, attempts - 1, "bounded");
    let reported: Vec<&str> = o.monitoring().iter().map(|r| r.domain.as_str()).collect();
    assert_eq!(reported, ["transport", "cloud"], "not the wrong values");
}
