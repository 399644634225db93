//! Property tests for the checkpoint/restore subsystem: for arbitrary
//! seeds, workloads, and cut points, `restore(snapshot(s)) == s`
//! structurally, and a restored world's next epoch is bitwise-equal to the
//! uninterrupted one's.

use ovnes_api::{EndpointFaults, FaultPlan};
use ovnes_orchestrator::{DemoScenario, RequestMix, ScenarioConfig, WorldSnapshot};
use ovnes_sim::SimDuration;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn scratch(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ovnes-roundtrip-{}-{tag}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

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

proptest! {
    // A full scenario run per case is expensive; a handful of cases per
    // property still sweeps seeds, load levels, and cut points every run.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// restore(snapshot(s)) == s structurally, for arbitrary worlds.
    #[test]
    fn restore_of_snapshot_is_structurally_identical(
        seed in 0u64..10_000,
        arrivals in 5.0f64..40.0,
        embb in 0.2f64..0.8,
        cut in 1usize..20,
    ) {
        let mut live = DemoScenario::build(config(seed, arrivals, embb));
        for _ in 0..cut {
            prop_assert!(live.step_epoch());
        }
        let state = live.export_state();
        let world = WorldSnapshot::open(scratch("structural")).unwrap();
        let manifest = world.snapshot(&state).unwrap();
        prop_assert_eq!(manifest.epoch as usize, cut);
        let restored = world.restore(cut as u64).unwrap();
        prop_assert_eq!(&restored, &state);
    }

    /// One epoch after a restore is bitwise-equal to one epoch
    /// uninterrupted: the exported states serialize to identical bytes.
    #[test]
    fn post_restore_epoch_is_bitwise_equal_to_uninterrupted(
        seed in 0u64..10_000,
        cut in 1usize..16,
    ) {
        let mut uninterrupted = DemoScenario::build(config(seed, 20.0, 0.5));
        for _ in 0..cut {
            prop_assert!(uninterrupted.step_epoch());
        }
        let world = WorldSnapshot::open(scratch("bitwise")).unwrap();
        world.snapshot(&uninterrupted.export_state()).unwrap();
        let (_, state) = world.restore_latest().unwrap().unwrap();
        let mut restored = DemoScenario::from_state(&state);

        prop_assert_eq!(uninterrupted.step_epoch(), restored.step_epoch());
        let a = serde_json::to_vec(&uninterrupted.export_state()).unwrap();
        let b = serde_json::to_vec(&restored.export_state()).unwrap();
        prop_assert_eq!(a, b, "first post-restore epoch diverged bitwise");
    }

    /// The same contract holds with an active control-plane fault plan: the
    /// injector's schedule position and jitter stream survive the wire.
    #[test]
    fn chaos_restore_resumes_fault_schedule_bitwise(
        seed in 0u64..10_000,
        drop_p in 0.05f64..0.45,
        cut in 1usize..12,
    ) {
        let plan = FaultPlan::new(seed ^ 0xFA17)
            .with_endpoint("ran/health", EndpointFaults::none().with_drop(drop_p))
            .with_endpoint("cloud/health", EndpointFaults::none().with_error(0.1));
        let mut uninterrupted = DemoScenario::build(config(seed, 20.0, 0.5));
        uninterrupted.orchestrator_mut().set_fault_plan(plan);
        for _ in 0..cut {
            prop_assert!(uninterrupted.step_epoch());
        }
        let world = WorldSnapshot::open(scratch("chaos")).unwrap();
        world.snapshot(&uninterrupted.export_state()).unwrap();
        let (_, state) = world.restore_latest().unwrap().unwrap();
        let mut restored = DemoScenario::from_state(&state);

        for _ in 0..3 {
            prop_assert_eq!(uninterrupted.step_epoch(), restored.step_epoch());
        }
        let a = serde_json::to_vec(&uninterrupted.export_state()).unwrap();
        let b = serde_json::to_vec(&restored.export_state()).unwrap();
        prop_assert_eq!(a, b, "chaos run diverged bitwise after restore");
    }

    /// Snapshot chains are self-consistent: every checkpoint in a chain
    /// restores, and restoring an *earlier* epoch and replaying forward
    /// reproduces the *later* checkpoint exactly.
    #[test]
    fn replaying_from_any_checkpoint_reproduces_later_checkpoints(
        seed in 0u64..10_000,
        first in 1usize..8,
        gap in 1usize..8,
    ) {
        let world = WorldSnapshot::open(scratch("chain")).unwrap();
        let mut live = DemoScenario::build(config(seed, 20.0, 0.5));
        for _ in 0..first {
            prop_assert!(live.step_epoch());
        }
        world.snapshot(&live.export_state()).unwrap();
        for _ in 0..gap {
            prop_assert!(live.step_epoch());
        }
        let later = live.export_state();
        world.snapshot(&later).unwrap();

        let mut replayed = DemoScenario::from_state(&world.restore(first as u64).unwrap());
        for _ in 0..gap {
            prop_assert!(replayed.step_epoch());
        }
        prop_assert_eq!(&replayed.export_state(), &later);
    }
}
