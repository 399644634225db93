//! Unit tests of the orchestrator's epoch phases.

use super::*;
use ovnes_cloud::host::HostCapacity;
use ovnes_cloud::{DataCenter, DcKind, PlacementStrategy};
use ovnes_model::{DcId, DiskGb, EnbId, MemMb, RateMbps, SliceClass, TenantId, VCpus};
use ovnes_ran::Enb;
use ovnes_transport::Topology;

fn cap(v: u32, m: u64, d: u64) -> HostCapacity {
    HostCapacity {
        vcpus: VCpus::new(v),
        mem: MemMb::new(m),
        disk: DiskGb::new(d),
    }
}

fn orchestrator(config: OrchestratorConfig) -> Orchestrator {
    let cell = CellConfig::default_20mhz();
    let ran = RanController::new(vec![
        Enb::new(EnbId::new(0), cell),
        Enb::new(EnbId::new(1), cell),
    ]);
    let transport = TransportController::new(Topology::testbed(), 1024);
    let cloud = CloudController::new(vec![
        DataCenter::homogeneous(
            DcId::new(0),
            DcKind::Edge,
            2,
            cap(16, 32768, 200),
            PlacementStrategy::WorstFit,
        ),
        DataCenter::homogeneous(
            DcId::new(1),
            DcKind::Core,
            8,
            cap(32, 65536, 500),
            PlacementStrategy::WorstFit,
        ),
    ]);
    Orchestrator::new(config, ran, transport, cloud, cell, SimRng::seed_from(7))
}

fn embb(tp: f64) -> SliceRequest {
    SliceRequest::builder(TenantId::new(1), SliceClass::Embb)
        .throughput(RateMbps::new(tp))
        .duration(SimDuration::from_mins(30))
        .price(Money::from_units(100))
        .penalty(Money::from_units(5))
        .build()
        .unwrap()
}

fn minute(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_mins(n)
}

#[test]
fn submit_admits_and_deploys() {
    let mut o = orchestrator(OrchestratorConfig::default());
    let id = o.submit(SimTime::ZERO, embb(25.0)).unwrap();
    assert_eq!(o.record(id).unwrap().state, SliceState::Deploying);
    assert!(o.placement(id).is_some());
    assert_eq!(o.count_in_state(SliceState::Deploying), 1);
    // Income booked at admission.
    assert_eq!(o.ledger().gross_income(), Money::from_units(100));
}

#[test]
fn slice_activates_after_deploy_time() {
    let mut o = orchestrator(OrchestratorConfig::default());
    let id = o.submit(SimTime::ZERO, embb(25.0)).unwrap();
    let deploy = o.placement(id).unwrap().deploy_time;
    assert!(deploy > SimDuration::from_secs(5), "a few seconds");
    // First epoch at 1 min: deployment (≈14 s) completed.
    let report = o.run_epoch(minute(1));
    assert_eq!(report.activated, vec![id]);
    assert_eq!(o.record(id).unwrap().state, SliceState::Active);
    assert_eq!(report.active, 1);
    assert_eq!(report.verdicts.len(), 1);
}

#[test]
fn slice_expires_after_duration() {
    let mut o = orchestrator(OrchestratorConfig::default());
    let id = o.submit(SimTime::ZERO, embb(25.0)).unwrap();
    for e in 1..=31 {
        o.run_epoch(minute(e));
    }
    // Active at minute 1, 30-minute duration → expired by minute 31.
    assert_eq!(o.record(id).unwrap().state, SliceState::Expired);
    assert!(o.placement(id).is_none());
    assert_eq!(o.count_in_state(SliceState::Active), 0);
    // All domain resources freed.
    assert!(o.ran().snapshot().enbs.iter().all(|r| r.reserved.is_zero()));
    assert_eq!(o.transport().snapshot().paths, 0);
    assert_eq!(o.cloud().snapshot().stacks, 0);
}

#[test]
fn epochs_report_sla_verdicts_and_gain() {
    // Short season so the Holt–Winters warm-up (2 seasons + residuals)
    // fits inside the test horizon.
    let config = OrchestratorConfig {
        overbooking: OverbookingConfig {
            season_period: 6,
            min_residuals: 4,
            ..OverbookingConfig::default()
        },
        reconfig_every: 2,
        ..OrchestratorConfig::default()
    };
    let mut o = orchestrator(config);
    o.submit(SimTime::ZERO, embb(25.0)).unwrap();
    o.submit(SimTime::ZERO, embb(30.0)).unwrap();
    let mut saw_gain = false;
    for e in 1..=30 {
        let report = o.run_epoch(minute(e));
        if report.gain.savings_fraction > 0.0 {
            saw_gain = true;
        }
        assert_eq!(report.verdicts.len(), report.active);
    }
    assert!(
        saw_gain,
        "overbooking reconfiguration should shrink reservations"
    );
}

#[test]
fn overbooking_disabled_keeps_peak_reservations() {
    let config = OrchestratorConfig {
        overbooking_enabled: false,
        policy: PolicyKind::Fcfs,
        ..OrchestratorConfig::default()
    };
    let mut o = orchestrator(config);
    let id = o.submit(SimTime::ZERO, embb(25.0)).unwrap();
    for e in 1..=20 {
        let report = o.run_epoch(minute(e));
        assert_eq!(report.reconfigured, 0);
        assert_eq!(report.gain.savings_fraction, 0.0);
    }
    let p = o.placement(id).unwrap();
    assert_eq!(p.reserved, p.nominal);
}

#[test]
fn rejection_when_ran_exhausted() {
    let config = OrchestratorConfig {
        policy: PolicyKind::Fcfs,
        overbooking_enabled: false,
        ..OrchestratorConfig::default()
    };
    let mut o = orchestrator(config);
    // Each 45 Mbps slice needs 90 PRBs: one per cell, third rejected.
    assert!(o.submit(SimTime::ZERO, embb(45.0)).is_ok());
    assert!(o.submit(SimTime::ZERO, embb(45.0)).is_ok());
    let rej = o.submit(SimTime::ZERO, embb(45.0)).unwrap_err();
    assert!(rej.reason.contains("needs"), "{}", rej.reason);
    assert_eq!(o.count_in_state(SliceState::Rejected), 1);
    assert_eq!(
        o.metrics().counter_value("orchestrator.rejected_policy"),
        Some(1)
    );
}

#[test]
fn overbooking_admits_more_than_peak_baseline() {
    // The demo's headline: with overbooking, the same infrastructure
    // hosts more slices. Warm the system, then compare admission counts.
    let mut with_ob = orchestrator(OrchestratorConfig::default());
    let mut without = orchestrator(OrchestratorConfig {
        overbooking_enabled: false,
        policy: PolicyKind::Fcfs,
        ..OrchestratorConfig::default()
    });

    let mut admitted = (0, 0);
    for step in 0..60u64 {
        let now = minute(step);
        // One request every 4 minutes, long-lived so they accumulate.
        if step % 4 == 0 {
            let req = SliceRequest::builder(TenantId::new(step), SliceClass::Embb)
                .throughput(RateMbps::new(20.0))
                .duration(SimDuration::from_hours(10))
                .build()
                .unwrap();
            if with_ob.submit(now, req.clone()).is_ok() {
                admitted.0 += 1;
            }
            if without.submit(now, req).is_ok() {
                admitted.1 += 1;
            }
        }
        with_ob.run_epoch(now + SimDuration::from_secs(30));
        without.run_epoch(now + SimDuration::from_secs(30));
    }
    assert!(
        admitted.0 > admitted.1,
        "overbooked {} vs peak {}",
        admitted.0,
        admitted.1
    );
}

#[test]
fn terminate_refunds_and_frees() {
    let mut o = orchestrator(OrchestratorConfig::default());
    let id = o.submit(SimTime::ZERO, embb(25.0)).unwrap();
    o.run_epoch(minute(1)); // activates
                            // Terminate at half the 30-min lifetime (active at minute 1).
    assert!(o.terminate(minute(16), id));
    assert_eq!(o.record(id).unwrap().state, SliceState::Terminated);
    assert_eq!(o.transport().snapshot().paths, 0);
    // A termination is not an expiry.
    assert_eq!(
        o.metrics().counter_value("orchestrator.terminated"),
        Some(1)
    );
    assert_eq!(o.metrics().counter_value("orchestrator.expired"), None);
    // Refund is half the price (±epoch rounding).
    let net = o.ledger().net().as_f64();
    assert!((net - 50.0).abs() < 5.0, "net {net}");
    // Idempotent-ish: a second terminate is a no-op.
    assert!(!o.terminate(minute(17), id));
    assert!(!o.terminate(minute(17), SliceId::new(999)));
}

#[test]
fn plmns_are_recycled() {
    let mut o = orchestrator(OrchestratorConfig::default());
    let id = o.submit(SimTime::ZERO, embb(25.0)).unwrap();
    let plmn = o.record(id).unwrap().plmn.unwrap();
    o.run_epoch(minute(1));
    o.terminate(minute(2), id);
    let id2 = o.submit(minute(3), embb(25.0)).unwrap();
    assert_eq!(o.record(id2).unwrap().plmn, Some(plmn), "PLMN reused");
}

#[test]
fn monitoring_reports_cross_api_boundary() {
    let mut o = orchestrator(OrchestratorConfig::default());
    o.submit(SimTime::ZERO, embb(25.0)).unwrap();
    o.run_epoch(minute(1));
    let reports = o.monitoring();
    assert_eq!(reports.len(), 3);
    let domains: Vec<&str> = reports.iter().map(|r| r.domain.as_str()).collect();
    assert_eq!(domains, vec!["ran", "transport", "cloud"]);
    assert!(reports
        .iter()
        .any(|r| r.scalars.keys().any(|k| k.contains("utilization"))));
}

#[test]
fn batch_broker_decides_on_window() {
    let config = OrchestratorConfig {
        batch_window: Some(2),
        overbooking_enabled: false,
        ..OrchestratorConfig::default()
    };
    let mut o = orchestrator(config);
    // Three large requests: only two fit the 200-PRB RAN at peak.
    for (tenant, price) in [(1u64, 50i64), (2, 300), (3, 200)] {
        let req = SliceRequest::builder(TenantId::new(tenant), SliceClass::Embb)
            .throughput(RateMbps::new(45.0)) // 90 PRBs each
            .price(Money::from_units(price))
            .build()
            .unwrap();
        o.enqueue(req);
    }
    assert_eq!(o.pending_requests(), 3);
    // Epoch 1: no decision (window = 2).
    let r1 = o.run_epoch(minute(1));
    assert!(r1.batch_admitted.is_empty());
    assert_eq!(o.pending_requests(), 3);
    // Epoch 2: knapsack picks the two highest-value requests.
    let r2 = o.run_epoch(minute(2));
    assert_eq!(r2.batch_admitted.len(), 2);
    assert_eq!(r2.batch_rejected, 1);
    assert_eq!(o.pending_requests(), 0);
    // The cheap request (tenant 1, price 50) is the one rejected.
    let admitted_prices: Vec<i64> = r2
        .batch_admitted
        .iter()
        .map(|&id| o.record(id).unwrap().request.price.units())
        .collect();
    assert!(admitted_prices.contains(&300) && admitted_prices.contains(&200));
    assert_eq!(o.ledger().gross_income(), Money::from_units(500));
}

#[test]
#[should_panic(expected = "batch_window")]
fn enqueue_without_batch_mode_panics() {
    let mut o = orchestrator(OrchestratorConfig::default());
    o.enqueue(embb(10.0));
}

#[test]
fn weather_reports_sky_and_survives_fades() {
    let config = OrchestratorConfig {
        weather_enabled: true,
        ..OrchestratorConfig::default()
    };
    let mut o = orchestrator(config);
    o.submit(SimTime::ZERO, embb(30.0)).unwrap();
    let mut skies = std::collections::BTreeSet::new();
    for e in 1..=600u64 {
        let report = o.run_epoch(minute(e));
        skies.insert(format!("{:?}", report.sky.expect("weather on")));
        // Through fades the slice stays placed (rerouted or riding it
        // out) until its 30-minute lifetime ends.
        if e < 29 {
            assert_eq!(report.active, 1, "epoch {e}");
        }
    }
    assert!(skies.len() >= 2, "weather moved at least once: {skies:?}");
}

#[test]
fn weather_off_reports_no_sky() {
    let mut o = orchestrator(OrchestratorConfig::default());
    let report = o.run_epoch(minute(1));
    assert_eq!(report.sky, None);
}

#[test]
fn ue_fairness_tracking_records_jain_series() {
    let config = OrchestratorConfig {
        ue_fairness_tracking: true,
        ..OrchestratorConfig::default()
    };
    let mut o = orchestrator(config);
    let id = o.submit(SimTime::ZERO, embb(25.0)).unwrap();
    for e in 1..=10 {
        o.run_epoch(minute(e));
    }
    let series = o
        .metrics()
        .series_ref(&format!("orchestrator.{id}.ue_fairness"))
        .expect("fairness series recorded");
    assert!(series.len() >= 9, "one sample per active epoch");
    // Jain's index over n = 4 UEs lies in [1/n, 1]; 1/n means one UE
    // took everything, which PF's 1/average-rate weighting rules out
    // over any stretch of epochs.
    for &(_, jain) in series.points() {
        assert!((0.25 - 1e-9..=1.0 + 1e-9).contains(&jain), "jain {jain}");
    }
    assert!(series.mean().unwrap() > 0.25, "{}", series.mean().unwrap());
}

#[test]
fn detaching_a_ue_evicts_its_fairness_state() {
    // Regression for the PfState leak: fairness state used to outlive
    // the device, so churned fleets grew the map monotonically.
    let config = OrchestratorConfig {
        ue_fairness_tracking: true,
        ..OrchestratorConfig::default()
    };
    let mut o = orchestrator(config);
    let id = o.submit(SimTime::ZERO, embb(25.0)).unwrap();
    for e in 1..=3 {
        o.run_epoch(minute(e));
    }
    let fleet = o.ue_count(id);
    assert_eq!(fleet, 4, "default ues_per_slice");
    assert_eq!(o.pf_tracked(id), fleet, "PF tracks the whole fleet");
    let victim = o.sim_state.get(&id).unwrap().durable.ues.ids()[0];
    assert!(o.detach_ue(id, victim));
    assert!(!o.detach_ue(id, victim), "already detached");
    assert_eq!(o.ue_count(id), fleet - 1);
    assert_eq!(o.pf_tracked(id), fleet - 1, "evicted on detach");
    // Further epochs never resurrect the departed UE's state.
    for e in 4..=6 {
        o.run_epoch(minute(e));
    }
    assert_eq!(o.pf_tracked(id), fleet - 1);
    // Unknown slice / unknown UE are clean no-ops.
    assert!(!o.detach_ue(SliceId::new(9999), victim));
    assert_eq!(o.ue_count(SliceId::new(9999)), 0);
    assert_eq!(o.pf_tracked(SliceId::new(9999)), 0);
}

#[test]
fn fairness_off_records_nothing() {
    let mut o = orchestrator(OrchestratorConfig::default());
    let id = o.submit(SimTime::ZERO, embb(25.0)).unwrap();
    o.run_epoch(minute(1));
    assert!(o
        .metrics()
        .series_ref(&format!("orchestrator.{id}.ue_fairness"))
        .is_none());
}

#[test]
fn timeline_records_measurements() {
    let mut o = orchestrator(OrchestratorConfig::default());
    let id = o.submit(SimTime::ZERO, embb(25.0)).unwrap();
    assert!(o.timeline(id).is_none(), "no epochs served yet");
    for e in 1..=5 {
        o.run_epoch(minute(e));
    }
    let t = o.timeline(id).expect("served epochs");
    assert_eq!(t.offered.len(), 5);
    assert_eq!(t.delivered.len(), 5);
    assert_eq!(t.latency.len(), 5);
    assert!(t.latency.min().unwrap() > 0.0);
    // Timeline survives expiry (kept for post-run analysis).
    for e in 6..=35 {
        o.run_epoch(minute(e));
    }
    assert_eq!(o.record(id).unwrap().state, SliceState::Expired);
    assert!(o.timeline(id).is_some());
}

#[test]
fn deterministic_given_seed() {
    let run = || {
        let mut o = orchestrator(OrchestratorConfig::default());
        o.submit(SimTime::ZERO, embb(25.0)).unwrap();
        o.submit(SimTime::ZERO, embb(30.0)).unwrap();
        let mut digest = Vec::new();
        for e in 1..=15 {
            let r = o.run_epoch(minute(e));
            digest.push((r.active, r.net_revenue, r.gain.reserved_prbs));
        }
        digest
    };
    assert_eq!(run(), run());
}

#[test]
fn epoch_reports_identical_at_any_thread_count() {
    // The tentpole invariant: the parallel epoch pipeline must be
    // bit-for-bit independent of the worker count, including the
    // fairness channel sampling and the per-slice RNG streams.
    let run = |threads: usize| {
        let _pin = ovnes_sim::par::pin_threads(threads);
        let mut o = orchestrator(OrchestratorConfig {
            ue_fairness_tracking: true,
            ..OrchestratorConfig::default()
        });
        // 20+30+40+50+40 PRB, sized to be admitted in full on the
        // fixture's two 100-PRB cells: a rejected submit here would mean
        // the oracle below compares nothing.
        for tp in [10.0, 15.0, 20.0, 25.0, 20.0] {
            o.submit(SimTime::ZERO, embb(tp)).unwrap();
        }
        let reports: Vec<EpochReport> = (1..=12).map(|e| o.run_epoch(minute(e))).collect();
        let fairness: Vec<Vec<(SimTime, f64)>> = o
            .records()
            .map(|r| r.id)
            .filter_map(|id| {
                o.metrics()
                    .series_ref(&format!("orchestrator.{id}.ue_fairness"))
                    .map(|s| s.points().to_vec())
            })
            .collect();
        (reports, fairness)
    };
    let serial = run(1);
    assert_eq!(serial, run(2));
    assert_eq!(serial, run(8));
}

#[test]
#[should_panic(expected = "went backwards")]
fn epoch_clock_cannot_go_backwards() {
    let mut o = orchestrator(OrchestratorConfig::default());
    o.run_epoch(minute(2));
    o.run_epoch(minute(1));
}

#[test]
fn epoch_at_the_same_instant_is_allowed() {
    let mut o = orchestrator(OrchestratorConfig::default());
    o.submit(SimTime::ZERO, embb(25.0)).unwrap();
    o.run_epoch(minute(1));
    // Zero-length epoch: legal (re-measures the same instant).
    let r = o.run_epoch(minute(1));
    assert_eq!(r.now, minute(1));
}

#[test]
fn faultless_epochs_report_a_clean_control_plane() {
    let mut o = orchestrator(OrchestratorConfig::default());
    o.submit(SimTime::ZERO, embb(25.0)).unwrap();
    for e in 1..=5 {
        let r = o.run_epoch(minute(e));
        assert_eq!(r.control_retries, 0);
        assert_eq!(r.control_failures, 0);
        assert!(r.unreachable_domains.is_empty());
        assert!(r.degraded.is_empty());
    }
    // 3 health probes + 3 monitoring pushes per epoch.
    assert_eq!(o.metrics().counter_value("control.calls"), Some(30));
    assert_eq!(o.metrics().counter_value("control.failures"), Some(0));
}

#[test]
fn ran_outage_degrades_then_restores_slices() {
    use ovnes_api::EndpointFaults;
    let mut o = orchestrator(OrchestratorConfig::default());
    // RAN controller dark for minutes [5, 8).
    o.set_fault_plan(FaultPlan::new(11).with_endpoint(
        "ran/health",
        EndpointFaults::none().with_outage(minute(5), minute(8)),
    ));
    let id = o.submit(SimTime::ZERO, embb(25.0)).unwrap();

    for e in 1..=4 {
        let r = o.run_epoch(minute(e));
        assert!(r.unreachable_domains.is_empty(), "epoch {e}");
    }
    assert_eq!(o.record(id).unwrap().state, SliceState::Active);

    // Outage starts: probe exhausts its retries, the slice degrades,
    // and reconfiguration is suspended (RAN commands can't land).
    let r5 = o.run_epoch(minute(5));
    assert_eq!(r5.unreachable_domains, vec!["ran".to_string()]);
    assert_eq!(r5.degraded, vec![id]);
    assert_eq!(r5.reconfigured, 0);
    assert!(r5.control_failures > 0);
    assert!(r5.control_retries > 0);
    assert_eq!(o.record(id).unwrap().state, SliceState::Degraded);
    assert_eq!(o.count_in_state(SliceState::Degraded), 1);
    // Monitoring skips the dark domain but the other two still report.
    let domains: Vec<&str> = o.monitoring().iter().map(|m| m.domain.as_str()).collect();
    assert_eq!(domains, vec!["transport", "cloud"]);

    // Mid-outage: already degraded, so no new transition is reported,
    // but the slice keeps serving (data plane is unaffected).
    let r6 = o.run_epoch(minute(6));
    assert!(r6.degraded.is_empty());
    assert_eq!(r6.active, 1);
    assert_eq!(r6.verdicts.len(), 1);

    // Outage ends at minute 8: the probe succeeds and the slice is
    // restored to Active.
    o.run_epoch(minute(7));
    let r8 = o.run_epoch(minute(8));
    assert!(r8.unreachable_domains.is_empty());
    assert_eq!(r8.restored, vec![id]);
    assert_eq!(o.record(id).unwrap().state, SliceState::Active);
    assert_eq!(o.monitoring().len(), 3);
    assert_eq!(o.metrics().counter_value("orchestrator.degraded"), Some(1));
    assert_eq!(o.metrics().counter_value("orchestrator.restored"), Some(1));
}

#[test]
fn health_machine_classifies_outages_with_hysteresis() {
    use crate::supervise::HealthState;
    use ovnes_api::EndpointFaults;
    let mut o = orchestrator(OrchestratorConfig::default());
    // RAN controller dark for minutes [5, 9).
    o.set_fault_plan(FaultPlan::new(23).with_endpoint(
        "ran/health",
        EndpointFaults::none().with_outage(minute(5), minute(9)),
    ));

    for e in 1..=4 {
        o.run_epoch(minute(e));
    }
    assert_eq!(o.supervision()["ran"].state, HealthState::Up);

    // First failed probe: Suspect, not yet Down.
    o.run_epoch(minute(5));
    assert_eq!(o.supervision()["ran"].state, HealthState::Suspect);
    assert_eq!(o.metrics().counter_value("supervise.suspects"), Some(1));
    assert_eq!(o.metrics().counter_value("supervise.downs"), None);

    // Second consecutive failure confirms the outage.
    o.run_epoch(minute(6));
    assert_eq!(o.supervision()["ran"].state, HealthState::Down);
    assert_eq!(o.metrics().counter_value("supervise.downs"), Some(1));

    o.run_epoch(minute(7));
    o.run_epoch(minute(8));
    assert_eq!(o.supervision()["ran"].state, HealthState::Down);

    // First successful probe repairs; downtime spans from the first
    // failed probe (minute 5) to the recovery probe (minute 9).
    o.run_epoch(minute(9));
    let health = o.supervision()["ran"];
    assert_eq!(health.state, HealthState::Up);
    assert_eq!(health.incidents, 1);
    assert_eq!(health.repairs, 1);
    assert_eq!(health.failed_probes, 4);
    assert_eq!(o.metrics().counter_value("supervise.repairs"), Some(1));
    let ttr = o.metrics().series_ref("supervise.time_to_repair").unwrap();
    assert_eq!(ttr.values(), vec![240.0]);

    // The other two domains never left Up and booked nothing.
    assert_eq!(o.supervision()["transport"].state, HealthState::Up);
    assert_eq!(o.supervision()["cloud"].incidents, 0);
}

#[test]
fn degraded_slices_still_expire_on_schedule() {
    use ovnes_api::EndpointFaults;
    let mut o = orchestrator(OrchestratorConfig::default());
    // Outage spans the slice's whole 30-minute life and beyond.
    o.set_fault_plan(FaultPlan::new(13).with_endpoint(
        "transport/health",
        EndpointFaults::none().with_outage(minute(2), minute(90)),
    ));
    let id = o.submit(SimTime::ZERO, embb(25.0)).unwrap();
    for e in 1..=40 {
        o.run_epoch(minute(e));
    }
    assert_eq!(o.record(id).unwrap().state, SliceState::Expired);
    assert_eq!(o.count_in_state(SliceState::Degraded), 0);
    assert!(o.placement(id).is_none(), "resources freed at expiry");
}

#[test]
fn chaos_runs_with_drops_stay_deterministic() {
    use ovnes_api::EndpointFaults;
    let run = || {
        let mut o = orchestrator(OrchestratorConfig::default());
        o.set_fault_plan(
            FaultPlan::new(17)
                .with_endpoint("ran/health", EndpointFaults::none().with_drop(0.3))
                .with_endpoint("cloud/monitoring", EndpointFaults::none().with_error(0.2)),
        );
        o.submit(SimTime::ZERO, embb(25.0)).unwrap();
        let mut digest = Vec::new();
        for e in 1..=20 {
            let r = o.run_epoch(minute(e));
            digest.push((
                r.active,
                r.control_retries,
                r.control_failures,
                r.unreachable_domains.clone(),
                r.net_revenue,
            ));
        }
        digest
    };
    let (a, b) = (run(), run());
    assert_eq!(a, b);
    // The plan is noisy enough that retries actually happened.
    assert!(a.iter().any(|(_, retries, ..)| *retries > 0));
}

#[test]
fn restored_orchestrator_tracks_exactly_the_known_domains() {
    use crate::control::DOMAINS;
    let mut o = orchestrator(OrchestratorConfig::default());
    o.submit(SimTime::ZERO, embb(20.0)).unwrap();
    o.run_epoch(minute(1));
    let mut state = o.export_state();
    state.supervision.remove("ran");
    state
        .supervision
        .insert("atm".into(), DomainHealth::default());
    let mut restored = Orchestrator::from_state(&state);
    let tracked: Vec<&str> = restored.supervision().keys().map(String::as_str).collect();
    let mut known = DOMAINS.to_vec();
    known.sort_unstable();
    assert_eq!(tracked, known);
    assert_eq!(restored.run_epoch(minute(2)), o.run_epoch(minute(2)));
}

/// A long-running service with a fixed slice set has a fixed-size domain
/// state: the transport and cloud sections of a checkpoint do not grow with
/// the epoch count (their telemetry is gauges — nothing reads a history).
#[test]
fn domain_sections_do_not_grow_over_calm_epochs() {
    let config = OrchestratorConfig {
        // Reservations stay at SLA peak, so the books themselves are still.
        overbooking_enabled: false,
        ..OrchestratorConfig::default()
    };
    let mut o = orchestrator(config);
    for _ in 0..2 {
        let request = SliceRequest {
            duration: SimDuration::from_hours(10),
            ..embb(20.0)
        };
        o.submit(SimTime::ZERO, request).unwrap();
    }
    let section_lens = |o: &Orchestrator| {
        let state = o.export_state();
        (
            serde_json::to_vec(&state.transport).unwrap().len(),
            serde_json::to_vec(&state.cloud).unwrap().len(),
        )
    };
    for e in 1..=20 {
        o.run_epoch(minute(e));
    }
    let (transport_20, cloud_20) = section_lens(&o);
    for e in 21..=300 {
        o.run_epoch(minute(e));
    }
    assert_eq!(o.count_in_state(SliceState::Active), 2, "the set is fixed");
    let (transport_300, cloud_300) = section_lens(&o);
    assert!(transport_300 <= transport_20, "grew to {transport_300}");
    assert!(cloud_300 <= cloud_20, "grew to {cloud_300}");
}
