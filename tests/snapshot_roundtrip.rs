//! Properties of the checkpoint/restore subsystem, as seeded loops: for
//! six seeds, workloads and cut points each (the case index seeds the
//! draw), `restore(snapshot(s)) == s` structurally, and a restored world's
//! next epoch is bitwise-equal to the uninterrupted one's — for a federation
//! too, with the checkpoint hashed, stored and parsed by one worker and by
//! two. Plus one hostile input: a stored section naming a domain this build
//! never heard of.

use ovnes_api::{EndpointFaults, FaultPlan, SnapshotManifest};
use ovnes_bench::ScratchWorld;
use ovnes_orchestrator::{
    DemoScenario, FederationBroker, FederationConfig, RequestMix, ScenarioConfig,
};
use ovnes_sim::par::pin_threads;
use ovnes_sim::{SimDuration, SimRng};

// A full scenario run per case is expensive; a handful of cases per property
// still sweeps seeds, load levels, and cut points every run.
const CASES: u64 = 6;

fn config(seed: u64, arrivals: f64, embb: f64) -> ScenarioConfig {
    ScenarioConfig {
        seed,
        arrivals_per_hour: arrivals,
        mix: RequestMix {
            embb,
            urllc: (1.0 - embb) * 0.6,
            mmtc: (1.0 - embb) * 0.4,
        },
        mean_duration: SimDuration::from_mins(45),
        horizon: SimDuration::from_hours(2),
        ..ScenarioConfig::default()
    }
}

/// `scenario`, stepped `epochs` times.
fn stepped(mut scenario: DemoScenario, epochs: usize) -> DemoScenario {
    for _ in 0..epochs {
        assert!(scenario.step_epoch());
    }
    scenario
}

/// restore(snapshot(s)) == s structurally, for arbitrary worlds.
#[test]
fn restore_of_snapshot_is_structurally_identical() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(case);
        let seed = rng.uniform_usize(0, 10_000) as u64;
        let arrivals = rng.uniform_range(5.0, 40.0);
        let embb = rng.uniform_range(0.2, 0.8);
        let cut = rng.uniform_usize(1, 20);
        let state = stepped(DemoScenario::build(config(seed, arrivals, embb)), cut).export_state();
        let world = ScratchWorld::open("structural");
        let manifest = world.snapshot(&state).unwrap();
        assert_eq!(manifest.epoch as usize, cut, "case {case}");
        assert_eq!(world.restore(cut as u64).unwrap(), state, "case {case}");
    }
}

/// One epoch after a restore is bitwise-equal to one epoch uninterrupted:
/// the exported states serialize to identical bytes.
#[test]
fn post_restore_epoch_is_bitwise_equal_to_uninterrupted() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(case);
        let seed = rng.uniform_usize(0, 10_000) as u64;
        let cut = rng.uniform_usize(1, 16);
        let mut uninterrupted = stepped(DemoScenario::build(config(seed, 20.0, 0.5)), cut);
        let world = ScratchWorld::open("bitwise");
        world.snapshot(&uninterrupted.export_state()).unwrap();
        let (_, state) = world.restore_latest().unwrap().unwrap();
        let mut restored = DemoScenario::from_state(&state);

        assert_eq!(uninterrupted.step_epoch(), restored.step_epoch());
        let a = serde_json::to_vec(&uninterrupted.export_state()).unwrap();
        let b = serde_json::to_vec(&restored.export_state()).unwrap();
        assert!(a == b, "case {case}: first post-restore epoch diverged bitwise");
    }
}

/// The federated checkpoint path fans its hashing, storing, reading and
/// per-region parsing out over the workers: at one worker and at two, the
/// manifest is the same, the restored federation equals the checkpointed
/// one, and its next epoch is the uninterrupted run's, byte for byte.
#[test]
fn federated_post_restore_epoch_is_bitwise_equal_at_one_and_two_workers() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(case);
        let config = FederationConfig {
            seed: rng.uniform_usize(0, 10_000) as u64,
            regions: rng.uniform_usize(2, 4),
            arrivals_per_hour: 40.0,
            mean_duration: SimDuration::from_mins(45),
            horizon: SimDuration::from_hours(2),
            ..FederationConfig::default()
        };
        let cut = rng.uniform_usize(1, 12);
        let mut uninterrupted = FederationBroker::build(config);
        for _ in 0..cut {
            assert!(uninterrupted.step_epoch());
        }
        let state = uninterrupted.export_state();
        assert!(uninterrupted.step_epoch());
        let expect = serde_json::to_vec(&uninterrupted.export_state()).unwrap();

        let mut roots = Vec::new();
        for workers in [1, 2] {
            let _pin = pin_threads(workers);
            let world = ScratchWorld::open("federated");
            let manifest = world.snapshot_federation(&state).unwrap();
            assert_eq!(manifest.epoch as usize, cut, "case {case}");
            roots.push(manifest.root_hash());
            let restored = world.restore_federation(manifest.epoch).unwrap();
            assert!(restored == state, "case {case}, {workers} workers: restore != snapshot");
            let mut restored = FederationBroker::from_state(&restored);
            assert!(restored.step_epoch());
            let got = serde_json::to_vec(&restored.export_state()).unwrap();
            assert!(got == expect, "case {case}, {workers} workers: post-restore epoch diverged");
        }
        assert_eq!(roots[0], roots[1], "case {case}: manifest depends on the worker count");
    }
}

/// The same contract holds with an active control-plane fault plan: the
/// injector's schedule position and jitter stream survive the wire.
#[test]
fn chaos_restore_resumes_fault_schedule_bitwise() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(case);
        let seed = rng.uniform_usize(0, 10_000) as u64;
        let drop_p = rng.uniform_range(0.05, 0.45);
        let cut = rng.uniform_usize(1, 12);
        let plan = FaultPlan::new(seed ^ 0xFA17)
            .with_endpoint("ran/health", EndpointFaults::none().with_drop(drop_p))
            .with_endpoint("cloud/health", EndpointFaults::none().with_error(0.1));
        let mut uninterrupted = DemoScenario::build(config(seed, 20.0, 0.5));
        uninterrupted.orchestrator_mut().set_fault_plan(plan);
        let mut uninterrupted = stepped(uninterrupted, cut);
        let world = ScratchWorld::open("chaos");
        world.snapshot(&uninterrupted.export_state()).unwrap();
        let (_, state) = world.restore_latest().unwrap().unwrap();
        let mut restored = DemoScenario::from_state(&state);

        for _ in 0..3 {
            assert_eq!(uninterrupted.step_epoch(), restored.step_epoch());
        }
        let a = serde_json::to_vec(&uninterrupted.export_state()).unwrap();
        let b = serde_json::to_vec(&restored.export_state()).unwrap();
        assert!(a == b, "case {case}: chaos run diverged bitwise after restore");
    }
}

/// Snapshot chains are self-consistent: every checkpoint in a chain
/// restores, and restoring an *earlier* epoch and replaying forward
/// reproduces the *later* checkpoint exactly.
#[test]
fn replaying_from_any_checkpoint_reproduces_later_checkpoints() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(case);
        let seed = rng.uniform_usize(0, 10_000) as u64;
        let first = rng.uniform_usize(1, 8);
        let gap = rng.uniform_usize(1, 8);
        let world = ScratchWorld::open("chain");
        let live = stepped(DemoScenario::build(config(seed, 20.0, 0.5)), first);
        world.snapshot(&live.export_state()).unwrap();
        let later = stepped(live, gap).export_state();
        world.snapshot(&later).unwrap();

        let replayed = DemoScenario::from_state(&world.restore(first as u64).unwrap());
        assert_eq!(stepped(replayed, gap).export_state(), later, "case {case}");
    }
}

/// Bytes from a file must not reach a panic: a snapshot whose `environment`
/// section carries the retired `down_domains` key, naming a domain that
/// does not exist, restores and steps exactly like the unmodified one.
#[test]
fn unknown_down_domain_in_a_snapshot_is_ignored_not_a_panic() {
    let world = ScratchWorld::open("hostile");
    let state = stepped(DemoScenario::build(config(7, 20.0, 0.5)), 5).export_state();
    let manifest = world.snapshot(&state).unwrap();

    let store = world.store();
    let stored = store.get_object(&manifest.sections["environment"].hash).unwrap();
    let stored = String::from_utf8(stored).unwrap();
    // Appended, so it also overrides a key a pre-retirement build wrote.
    let body = stored.trim_end().strip_suffix('}').expect("a JSON object");
    let rewritten = format!(r#"{body},"down_domains":["atm"]}}"#);
    let mut sections = manifest.sections.clone();
    sections.insert("environment".into(), store.put_object(rewritten.as_bytes()).unwrap());
    let parent = Some(manifest.root_hash());
    let hostile = SnapshotManifest { epoch: 6, parent, sections };
    store.append_manifest(&hostile).unwrap();

    let mut clean = DemoScenario::from_state(&world.restore(5).unwrap());
    let mut restored = DemoScenario::from_state(&world.restore(6).unwrap());
    assert_eq!(clean.step_epoch(), restored.step_epoch());
    let a = serde_json::to_vec(&clean.export_state()).unwrap();
    let b = serde_json::to_vec(&restored.export_state()).unwrap();
    assert!(a == b, "the rewritten snapshot diverged from the unmodified one");
}
