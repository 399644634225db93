//! Integration: the dynamic behaviours layered on the core loop — weather
//! fades with reroute, the batch knapsack broker, cloud-side vEPC scaling,
//! and UE mobility — all through the public orchestrator API.

use ovnes_bench::{embb_request, testbed_orchestrator};
use ovnes_model::{Money, RateMbps, SliceClass, SliceRequest, TenantId};
use ovnes_orchestrator::{OrchestratorConfig, PolicyKind, SliceState};
use ovnes_ran::MobilityModel;
use ovnes_sim::{SimDuration, SimTime};
use ovnes_transport::LinkKind;

fn minutes(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_mins(n)
}

#[test]
fn weather_runs_are_reproducible_and_isolated() {
    // Same seed, weather on: identical runs.
    let run = |weather: bool| {
        let config = OrchestratorConfig {
            weather_enabled: weather,
            ..OrchestratorConfig::default()
        };
        let mut o = testbed_orchestrator(config, 77);
        o.submit(SimTime::ZERO, embb_request(1, 20.0)).unwrap();
        let mut digest = Vec::new();
        for e in 1..=120 {
            let r = o.run_epoch(minutes(e));
            digest.push((
                r.verdicts.iter().filter(|v| !v.met).count(),
                r.net_revenue,
            ));
        }
        digest
    };
    assert_eq!(run(true), run(true));
    // Weather isolation: the *radio* outcomes with weather on/off are
    // identical whenever the sky never actually bites (weather draws come
    // from a dedicated stream). We can't assert full equality (fades do
    // bite), but determinism per arm is the contract.
    assert_eq!(run(false), run(false));
}

#[test]
fn injected_fade_caps_throughput_and_reroute_recovers() {
    let config = OrchestratorConfig {
        overbooking_enabled: false,
        policy: PolicyKind::Fcfs,
        ..OrchestratorConfig::default()
    };
    let mut o = testbed_orchestrator(config, 5);
    // Two slices on the same eNB so one mmWave link carries 50 Mbps.
    let id1 = o.submit(SimTime::ZERO, embb_request(1, 25.0)).unwrap();
    let id2 = o.submit(SimTime::ZERO, embb_request(2, 25.0)).unwrap();
    o.run_epoch(minutes(1)); // activate

    // Every mmWave link carrying reservations (best-fit spread the two
    // slices across the two eNBs, one per uplink).
    let mm_links: Vec<_> = o
        .transport()
        .topology()
        .links()
        .iter()
        .filter(|l| l.kind == LinkKind::MmWave)
        .map(|l| l.id)
        .filter(|&l| o.transport().link_usage(l).reserved.value() > 0.0)
        .collect();
    assert!(!mm_links.is_empty());

    // Blackout-grade fade: 1000 → 10 Mbps under 25 reserved per link.
    let mut affected = Vec::new();
    for &mm in &mm_links {
        affected.extend(o.transport_mut().degrade_link(mm, 0.01));
    }
    assert!(!affected.is_empty(), "links were oversubscribed");
    for slice in &affected {
        // Before reroute, the slice's deliverable share is cut hard.
        let share = o.transport().capacity_share(*slice).unwrap();
        assert!(share < 0.5, "{slice} share {share}");
        let moved = o.transport_mut().reroute(*slice);
        assert_eq!(moved, Ok(true), "µwave has room for {slice}");
    }
    let report = o.run_epoch(minutes(2));
    // After rerouting, the fade caps nobody; any violation left is radio
    // congestion.
    for v in &report.verdicts {
        if v.slice == id1 || v.slice == id2 {
            let share = o.transport().capacity_share(v.slice).unwrap();
            assert_eq!(share, 1.0, "{} still capped", v.slice);
        }
    }
    for &mm in &mm_links {
        o.transport_mut().restore_link(mm);
    }
}

#[test]
fn batch_broker_full_cycle() {
    let config = OrchestratorConfig {
        batch_window: Some(3),
        overbooking_enabled: false,
        policy: PolicyKind::Fcfs,
        ..OrchestratorConfig::default()
    };
    let mut o = testbed_orchestrator(config, 9);
    for t in 0..8u64 {
        let req = SliceRequest::builder(TenantId::new(t), SliceClass::Embb)
            .throughput(RateMbps::new(20.0)) // 40 PRBs each; 5 of 8 fit
            .price(Money::from_units(10 + 10 * t as i64))
            .duration(SimDuration::from_hours(2))
            .build()
            .unwrap();
        o.enqueue(req);
    }
    let mut admitted = Vec::new();
    let mut rejected = 0;
    for e in 1..=6 {
        let r = o.run_epoch(minutes(e));
        admitted.extend(r.batch_admitted.clone());
        rejected += r.batch_rejected;
    }
    assert_eq!(admitted.len() + rejected, 8, "every request decided");
    // The knapsack selects 5 × 40 PRBs against the 200-PRB aggregate, but
    // the radio is two 100-PRB cells: only 2 such slices fit per cell, so
    // the allocator bounces the fifth winner (bin packing < knapsack).
    assert_eq!(admitted.len(), 4);
    // The knapsack's shortlist was the most valuable five (prices 40..80),
    // so nothing cheaper than 40 was ever allocated.
    let min_price = admitted
        .iter()
        .map(|&id| o.record(id).unwrap().request.price.units())
        .min()
        .unwrap();
    assert!(min_price >= 40, "cheapest admitted {min_price}");
    // Decided rejections (3 losers + 1 bounced winner) are terminal.
    assert_eq!(o.count_in_state(SliceState::Rejected), 4);
}

#[test]
fn reconfiguration_scales_the_cloud_stack_too() {
    let config = OrchestratorConfig {
        overbooking: ovnes_orchestrator::OverbookingConfig {
            season_period: 6,
            min_residuals: 4,
            ..Default::default()
        },
        reconfig_every: 2,
        ..OrchestratorConfig::default()
    };
    let mut o = testbed_orchestrator(config, 3);
    let id = o.submit(SimTime::ZERO, embb_request(1, 40.0)).unwrap();
    // Warm the forecaster (2 seasons + residuals), then reconfigure.
    for e in 1..=40 {
        o.run_epoch(minutes(e));
    }
    let stack = o.cloud().stack_for_slice(id).expect("active slice");
    let scaled: Vec<_> = stack
        .vms
        .iter()
        .filter(|vm| vm.current != vm.demand)
        .map(|vm| vm.name.clone())
        .collect();
    assert!(
        !scaled.is_empty(),
        "user-plane VMs should have been scaled down: {stack:?}"
    );
    for name in &scaled {
        assert!(name == "sgw" || name == "pgw", "control plane scaled: {name}");
    }
}

#[test]
fn mobility_config_changes_outcomes_but_not_determinism() {
    let run = |mobility: MobilityModel| {
        let config = OrchestratorConfig {
            mobility,
            ..OrchestratorConfig::default()
        };
        let mut o = testbed_orchestrator(config, 11);
        o.submit(SimTime::ZERO, embb_request(1, 30.0)).unwrap();
        let mut violations = 0usize;
        for e in 1..=240 {
            let r = o.run_epoch(minutes(e));
            violations += r.verdicts.iter().filter(|v| !v.met).count();
        }
        violations
    };
    let stationary = run(MobilityModel::stationary());
    let stationary2 = run(MobilityModel::stationary());
    assert_eq!(stationary, stationary2, "deterministic");
    let vehicular = run(MobilityModel::vehicular());
    // Vehicular drift explores the cell edge: never *fewer* bad epochs than
    // the stationary channel in expectation; allow equality for this seed.
    assert!(
        vehicular >= stationary,
        "vehicular {vehicular} vs stationary {stationary}"
    );
}

#[test]
fn host_failure_causes_outage_then_recovery() {
    let mut o = testbed_orchestrator(OrchestratorConfig::default(), 21);
    let id = o.submit(SimTime::ZERO, embb_request(1, 25.0)).unwrap();
    o.run_epoch(minutes(1)); // active and serving

    // Kill the host carrying the slice's vEPC.
    let stack = o.cloud().stack_for_slice(id).expect("deployed").clone();
    let (redeployed, lost) = o.inject_host_failure(minutes(1), stack.dc, stack.vms[0].host);
    assert_eq!(redeployed, vec![id]);
    assert!(lost.is_empty(), "plenty of spare cloud capacity");

    // Inject a second failure just before an epoch boundary so the ~13 s
    // vEPC reboot is guaranteed to overlap the epoch: total outage.
    let stack = o.cloud().stack_for_slice(id).expect("redeployed").clone();
    let boundary = minutes(3);
    let (redeployed, _) = o.inject_host_failure(
        boundary - ovnes_sim::SimDuration::from_secs(5),
        stack.dc,
        stack.vms[0].host,
    );
    assert_eq!(redeployed, vec![id]);
    o.run_epoch(minutes(2));
    let report = o.run_epoch(boundary);
    let verdict = report.verdicts.iter().find(|v| v.slice == id).expect("active");
    assert_eq!(verdict.delivered.value(), 0.0, "total outage while rebooting");
    assert!(!verdict.met);

    // A few epochs later the fresh vEPC serves again.
    let report = o.run_epoch(minutes(5));
    let verdict = report.verdicts.iter().find(|v| v.slice == id).expect("active");
    assert!(verdict.delivered.value() > 0.0, "recovered");

    // The event feed narrates the failure and recovery.
    let log: Vec<String> = o.events().entries().map(|e| e.to_string()).collect();
    assert!(log.iter().any(|l| l.contains("host failure")), "{log:?}");
}

#[test]
fn unrecoverable_host_failure_terminates_with_refund() {
    // A cloud with exactly one host: after it dies, nothing can be
    // redeployed anywhere.
    use ovnes_cloud::host::HostCapacity;
    use ovnes_cloud::{CloudController, DataCenter, DcKind, PlacementStrategy};
    use ovnes_model::{DcId, DiskGb, MemMb, VCpus};
    use ovnes_ran::{CellConfig, Enb, RanController};
    use ovnes_sim::SimRng;
    use ovnes_transport::{Topology, TransportController};

    let cell = CellConfig::default_20mhz();
    let ran = RanController::new(vec![
        Enb::new(ovnes_model::EnbId::new(0), cell),
        Enb::new(ovnes_model::EnbId::new(1), cell),
    ]);
    let transport = TransportController::new(Topology::testbed(), 1024);
    let cloud = CloudController::new(vec![DataCenter::homogeneous(
        DcId::new(1),
        DcKind::Core,
        1,
        HostCapacity {
            vcpus: VCpus::new(32),
            mem: MemMb::new(65_536),
            disk: DiskGb::new(500),
        },
        PlacementStrategy::WorstFit,
    )]);
    let mut o = ovnes_orchestrator::Orchestrator::new(
        OrchestratorConfig::default(),
        ran,
        transport,
        cloud,
        cell,
        SimRng::seed_from(4),
    );
    let id = o.submit(SimTime::ZERO, embb_request(1, 20.0)).unwrap();
    o.run_epoch(minutes(1));
    let income_before = o.ledger().net();

    let stack = o.cloud().stack_for_slice(id).expect("deployed").clone();
    let (redeployed, lost) = o.inject_host_failure(minutes(2), stack.dc, stack.vms[0].host);
    assert!(redeployed.is_empty());
    assert_eq!(lost, vec![id]);
    assert_eq!(o.record(id).unwrap().state, SliceState::Terminated);
    // The tenant got (most of) their money back.
    assert!(o.ledger().net() < income_before);
    // Everything else is clean.
    assert_eq!(o.transport().snapshot().paths, 0);
    assert!(o.ran().snapshot().enbs.iter().all(|r| r.reserved.is_zero()));
}

#[test]
fn event_feed_narrates_the_lifecycle() {
    let mut o = testbed_orchestrator(OrchestratorConfig::default(), 2);
    let id = o.submit(SimTime::ZERO, embb_request(1, 10.0)).unwrap();
    for e in 1..=125 {
        o.run_epoch(minutes(e));
    }
    let log: Vec<String> = o.events().entries().map(|e| e.to_string()).collect();
    let has = |needle: &str| log.iter().any(|l| l.contains(needle));
    assert!(has(&format!("{id} admitted")), "{log:?}");
    assert!(has(&format!("{id} active")));
    assert!(has(&format!("{id} expired")));
}
