//! The hierarchical controller architecture of §2, explicitly: the RAN
//! controller lives behind its REST-like endpoints on a real loopback socket
//! (the one generic domain server, `ovnes_api::serve`), and an "orchestrator
//! side" drives it purely through JSON commands — every byte crosses the
//! wire format, exactly as the testbed's REST APIs did.
//!
//! Run with: `cargo run --example rest_controllers`

use ovnes_api::{decode, encode, serve, MonitoringReport, RanCommand, RanReply, SocketBus, Status};
use ovnes_model::{EnbId, PlmnId, Prbs, SliceId};
use ovnes_ran::{CellConfig, Enb, RanController};

fn main() {
    // The RAN controller, owned by its server task: `ran/command` decodes →
    // executes → encodes, `ran/monitoring` reports its live metrics.
    let server = serve(RanController::new(vec![
        Enb::new(EnbId::new(0), CellConfig::default_20mhz()),
        Enb::new(EnbId::new(1), CellConfig::default_20mhz()),
    ]))
    .expect("bind a loopback port");
    let mut bus = SocketBus::new();
    bus.attach(&server);

    // --- the orchestrator side: pure JSON in, JSON out -------------------
    let call = |bus: &mut SocketBus, cmd: &RanCommand| -> (Status, String) {
        let resp = bus
            .call("ran/command", encode(cmd).expect("encodable"))
            .expect("server reachable");
        let detail = match resp.status {
            Status::Ok => format!("{:?}", decode::<RanReply>(&resp.body).expect("reply")),
            _ => String::from_utf8_lossy(&resp.body).into_owned(),
        };
        (resp.status, detail)
    };

    println!("install slice-1 (60 PRBs on enb-0):");
    let (status, detail) = call(&mut bus, &RanCommand::InstallPlmn {
        enb: EnbId::new(0),
        slice: SliceId::new(1),
        plmn: PlmnId::test_slice_plmn(0),
        reserved: Prbs::new(60),
        nominal: Prbs::new(60),
    });
    println!("  -> {status}: {detail}");

    println!("install slice-2 (60 PRBs on enb-0) — must be rejected (40 free):");
    let (status, detail) = call(&mut bus, &RanCommand::InstallPlmn {
        enb: EnbId::new(0),
        slice: SliceId::new(2),
        plmn: PlmnId::test_slice_plmn(1),
        reserved: Prbs::new(60),
        nominal: Prbs::new(60),
    });
    println!("  -> {status}: {detail}");
    assert_eq!(status, Status::Rejected);

    println!("overbooking reconfiguration: shrink slice-1 to 35 PRBs:");
    let (status, detail) = call(&mut bus, &RanCommand::Resize {
        slice: SliceId::new(1),
        reserved: Prbs::new(35),
    });
    println!("  -> {status}: {detail}");

    println!("retry slice-2 — now it fits:");
    let (status, detail) = call(&mut bus, &RanCommand::InstallPlmn {
        enb: EnbId::new(0),
        slice: SliceId::new(2),
        plmn: PlmnId::test_slice_plmn(1),
        reserved: Prbs::new(60),
        nominal: Prbs::new(60),
    });
    println!("  -> {status}: {detail}");
    assert_eq!(status, Status::Ok);

    println!("release slice-1:");
    let (status, detail) = call(&mut bus, &RanCommand::Release { slice: SliceId::new(1) });
    println!("  -> {status}: {detail}");

    // Monitoring poll.
    let resp = bus.call("ran/monitoring", Vec::new()).expect("server reachable");
    let report: MonitoringReport = decode(&resp.body).expect("report");
    println!("\nmonitoring report ({} scalars):", report.scalars.len());
    for (k, v) in &report.scalars {
        println!("  {k} = {v}");
    }
    println!("\nbus stats: {} commands, {} monitoring polls",
             bus.served("ran/command"), bus.served("ran/monitoring"));
}
