//! Integration: one conformance contract for every domain server.
//!
//! RAN, transport and cloud differ only in their `impl DomainController`
//! (the command `match`); the router, `serve` and `serve_resumed` around it
//! are one generic implementation in `ovnes_api::domain`. So the contract is
//! written once, generic over the trait, and instantiated per domain with a
//! script of commands and the outcome each must have:
//!
//! * an accepted command answers `Ok` with the domain's **typed** reply;
//! * a domain refusal answers `Rejected` (a 4xx, not a transport fault);
//! * an undecodable body answers `Error` and the connection survives;
//! * `{domain}/monitoring` carries the controller's live scalars;
//! * `{domain}/resync` exports the complete state, and `serve_resumed` at
//!   term + 1 from exactly those bytes remembers the booking.

use ovnes_api::{
    decode, encode, serve, serve_resumed, CloudCommand, CloudReply, DomainController,
    MonitoringReport, RanCommand, RanReply, ResyncReport, SocketBus, Status, TransportCommand,
    TransportReply,
};
use ovnes_cloud::{CloudController, DataCenter, DcKind, HostCapacity, PlacementStrategy};
use ovnes_model::{
    DcId, DiskGb, EnbId, Latency, MemMb, PlmnId, Prbs, RateMbps, SliceId, VCpus,
};
use ovnes_ran::{CellConfig, Enb, RanController};
use ovnes_transport::{Topology, TransportController};
use std::fmt::Debug;

/// What a scripted command must come back as.
enum Expect<R> {
    /// `Ok`, with a typed reply the check accepts.
    Reply(Box<dyn Fn(&R)>),
    /// `Rejected`: the domain refused.
    Rejected,
}

fn is<R: PartialEq + Debug + 'static>(expected: R) -> Expect<R> {
    Expect::Reply(Box::new(move |reply| assert_eq!(reply, &expected)))
}

fn run_step<C: DomainController>(bus: &mut SocketBus, command: &C::Command, expect: &Expect<C::Reply>)
where
    C::Command: Debug,
    C::Reply: Debug,
{
    let endpoint = format!("{}/command", C::DOMAIN);
    let resp = bus.call(&endpoint, encode(command).unwrap()).unwrap();
    match expect {
        Expect::Reply(check) => {
            assert_eq!(resp.status, Status::Ok, "{command:?}");
            check(&decode::<C::Reply>(&resp.body).expect("a typed reply"));
        }
        Expect::Rejected => assert_eq!(resp.status, Status::Rejected, "{command:?}"),
    }
}

/// The contract. `script` runs first and must leave a booking behind;
/// `after_restart` is a command whose outcome proves the restarted
/// incarnation still holds it.
fn conformance<C: DomainController>(
    controller: C,
    script: Vec<(C::Command, Expect<C::Reply>)>,
    after_restart: (C::Command, Expect<C::Reply>),
) where
    C::Command: Debug,
    C::Reply: Debug,
{
    let domain = C::DOMAIN;
    let mut server = serve(controller).unwrap();
    assert_eq!(server.term(), 1);
    let mut bus = SocketBus::new();
    bus.attach(&server);

    assert!(
        script.iter().any(|(_, e)| matches!(e, Expect::Reply(_)))
            && script.iter().any(|(_, e)| matches!(e, Expect::Rejected)),
        "a script exercises both an accepted and a refused command"
    );
    for (command, expect) in &script {
        run_step::<C>(&mut bus, command, expect);
    }

    // Undecodable body: an error status, on a connection that survives it.
    let resp = bus.call(&format!("{domain}/command"), b"garbage".to_vec()).unwrap();
    assert_eq!(resp.status, Status::Error);
    assert_eq!(bus.call(&format!("{domain}/health"), Vec::new()).unwrap().status, Status::Ok);
    assert_eq!(server.stats().connections, 1, "the garbage killed the connection");

    // Monitoring reports the live controller, not an echo.
    let resp = bus.call(&format!("{domain}/monitoring"), Vec::new()).unwrap();
    let report: MonitoringReport = decode(&resp.body).unwrap();
    assert_eq!(report.domain, domain);
    assert!(!report.scalars.is_empty(), "the script moved counters");

    // Pull the controller's state over the wire, then kill the server.
    let resp = bus.call(&format!("{domain}/resync"), Vec::new()).unwrap();
    let report: ResyncReport = decode(&resp.body).unwrap();
    assert_eq!((report.domain.as_str(), report.term), (domain, 1));
    let state: C::State = decode(&report.state).unwrap();
    let carry = server.stats();
    server.shutdown();
    drop(server);

    // A fresh incarnation seeded from the resync report remembers.
    let restarted = serve_resumed::<C>(&state, 2, carry).unwrap();
    assert_eq!(restarted.term(), 2);
    assert!(restarted.stats().connections >= carry.connections);
    bus.attach(&restarted);
    bus.fence(domain, 2);
    run_step::<C>(&mut bus, &after_restart.0, &after_restart.1);
    let resp = bus.call(&format!("{domain}/resync"), Vec::new()).unwrap();
    assert_eq!(decode::<ResyncReport>(&resp.body).unwrap().term, 2);
}

#[test]
fn ran_conforms() {
    let install = |slice: u64, plmn: u64| RanCommand::InstallPlmn {
        enb: EnbId::new(0),
        slice: SliceId::new(slice),
        plmn: PlmnId::test_slice_plmn(plmn),
        reserved: Prbs::new(60),
        nominal: Prbs::new(60),
    };
    conformance(
        RanController::new(vec![
            Enb::new(EnbId::new(0), CellConfig::default_20mhz()),
            Enb::new(EnbId::new(1), CellConfig::default_20mhz()),
        ]),
        vec![
            // Install fills 60 of 100 PRBs; a second 60-PRB slice is refused.
            (install(1, 0), is(RanReply::Done)),
            (install(2, 1), Expect::Rejected),
            // Overbooking reconfiguration makes room; the retry fits.
            (
                RanCommand::Resize {
                    slice: SliceId::new(1),
                    reserved: Prbs::new(35),
                },
                is(RanReply::Done),
            ),
            (install(2, 1), is(RanReply::Done)),
            (
                RanCommand::Release {
                    slice: SliceId::new(1),
                },
                is(RanReply::Released {
                    freed: Prbs::new(35),
                }),
            ),
        ],
        // Slice 2 still holds 60 PRBs: a third 60-PRB slice does not fit.
        (install(3, 2), Expect::Rejected),
    );
}

#[test]
fn transport_conforms() {
    let controller = TransportController::new(Topology::testbed(), 1024);
    let src = controller.topology().radio_site(EnbId::new(0)).unwrap();
    let dst = controller.topology().dc_node(DcId::new(0)).unwrap();
    let allocate = |bandwidth: f64, max_delay: f64| TransportCommand::AllocatePath {
        slice: SliceId::new(1),
        src,
        dst,
        bandwidth: RateMbps::new(bandwidth),
        max_delay: Latency::new(max_delay),
    };
    let allocated = || {
        Expect::Reply(Box::new(|reply: &TransportReply| match reply {
            TransportReply::PathAllocated { hops, delay } => {
                assert!(*hops >= 1);
                assert!(delay.value() <= 3.0);
            }
            other => panic!("expected PathAllocated, got {other:?}"),
        }))
    };
    conformance(
        controller,
        vec![
            (allocate(100.0, 3.0), allocated()),
            // A second allocation for the same slice is a domain refusal.
            (allocate(1.0, 10.0), Expect::Rejected),
            (
                TransportCommand::Resize {
                    slice: SliceId::new(1),
                    bandwidth: RateMbps::new(50.0),
                },
                is(TransportReply::Done),
            ),
            (
                TransportCommand::Release {
                    slice: SliceId::new(1),
                },
                is(TransportReply::Done),
            ),
            (allocate(100.0, 3.0), allocated()),
        ],
        // Slice 1's reservation survived the restart.
        (allocate(1.0, 10.0), Expect::Rejected),
    );
}

#[test]
fn cloud_conforms() {
    let host = HostCapacity {
        vcpus: VCpus::new(32),
        mem: MemMb::new(65_536),
        disk: DiskGb::new(500),
    };
    let deploy = || CloudCommand::DeployEpc {
        slice: SliceId::new(1),
        dc: DcId::new(1),
        throughput: RateMbps::new(50.0),
        class: "embb".into(),
    };
    let deployed = || {
        Expect::Reply(Box::new(|reply: &CloudReply| match reply {
            CloudReply::Deployed {
                deploy_time_us,
                vms,
            } => {
                assert_eq!(*vms, 4, "hss, mme, sgw, pgw");
                assert!(*deploy_time_us > 0);
            }
            other => panic!("expected Deployed, got {other:?}"),
        }))
    };
    let delete = |slice: u64| CloudCommand::Delete {
        slice: SliceId::new(slice),
    };
    conformance(
        CloudController::new(vec![DataCenter::homogeneous(
            DcId::new(1),
            DcKind::Core,
            4,
            host,
            PlacementStrategy::WorstFit,
        )]),
        vec![
            (deploy(), deployed()),
            (delete(1), is(CloudReply::Done)),
            // Nothing is deployed for slice 9: a domain refusal.
            (delete(9), Expect::Rejected),
            (deploy(), deployed()),
        ],
        // The deployed stack survived the restart: deleting it succeeds (a
        // forgotten stack would be a refusal, as for slice 9 above).
        (delete(1), is(CloudReply::Done)),
    );
}
