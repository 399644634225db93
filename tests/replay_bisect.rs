//! Self-test of the divergence bisector: checkpoint two runs of the same
//! scenario side by side, inject a deliberate one-bit divergence into one
//! of them at a known epoch, and assert `replay_bisect` pinpoints exactly
//! that epoch and the perturbed component — in O(log n) manifest loads,
//! not a linear scan.

use ovnes_bench::ScratchWorld;
use ovnes_orchestrator::{replay_bisect, DemoScenario, ScenarioConfig};
use ovnes_sim::SimDuration;

fn config(seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        seed,
        arrivals_per_hour: 40.0,
        horizon: SimDuration::from_hours(3),
        mean_duration: SimDuration::from_mins(45),
        ..ScenarioConfig::default()
    }
}

const EPOCHS: u64 = 24;

/// Run the scenario to `EPOCHS`, checkpointing after every epoch. At epoch
/// `flip_at` (if any), flip one bit of the run cursor's `submitted` counter
/// in the *world itself* — the run resumes from the perturbed state, so the
/// divergence is live from that point on, exactly like a real
/// nondeterminism bug would be.
fn checkpoint_run(tag: &str, seed: u64, flip_at: Option<u64>) -> ScratchWorld {
    let world = ScratchWorld::open(tag);
    let mut scn = DemoScenario::build(config(seed));
    for epoch in 1..=EPOCHS {
        assert!(scn.step_epoch());
        if flip_at == Some(epoch) {
            let mut state = scn.export_state();
            state
                .cursor
                .as_mut()
                .expect("cursor live mid-run")
                .submitted ^= 1;
            scn = DemoScenario::from_state(&state);
        }
        world.snapshot(&scn.export_state()).unwrap();
    }
    world
}

#[test]
fn bisector_pinpoints_injected_one_bit_divergence() {
    let clean = checkpoint_run("clean", 51, None);
    for flip_at in [1u64, 13, EPOCHS] {
        let flipped = checkpoint_run(&format!("flip{flip_at}"), 51, Some(flip_at));
        let d = replay_bisect(&clean, &flipped)
            .unwrap()
            .expect("a flipped bit must be found");
        assert_eq!(
            d.epoch, flip_at,
            "bisector blamed epoch {} for a bit flipped at {flip_at}",
            d.epoch
        );
        assert!(
            d.components.contains(&"cursor".to_string()),
            "perturbed component not named at epoch {flip_at}: {:?}",
            d.components
        );
        // At the first divergent epoch only the cursor has moved; the
        // cascade into other components happens in later epochs.
        assert_eq!(
            d.components,
            vec!["cursor".to_string()],
            "first divergence must implicate only the flipped component"
        );
        assert!(
            d.probes <= EPOCHS.ilog2() as u64 + 2,
            "expected a binary search, saw {} probes over {EPOCHS} checkpoints",
            d.probes
        );
    }
}

#[test]
fn one_bit_divergence_cascades_but_origin_stays_pinned() {
    // `submitted` only feeds the summary, so flip a bit that changes the
    // dynamics instead: the next-arrival clock. Later checkpoints then
    // diverge in many components (slices, rng, telemetry, …) — yet the
    // bisector still lands on the injection epoch, where only the cursor
    // had moved.
    let clean = checkpoint_run("cascade-clean", 52, None);
    let world = ScratchWorld::open("cascade-flip");
    let mut scn = DemoScenario::build(config(52));
    let flip_at = 9u64;
    for epoch in 1..=EPOCHS {
        assert!(scn.step_epoch());
        if epoch == flip_at {
            let mut state = scn.export_state();
            let cursor = state.cursor.as_mut().expect("cursor live mid-run");
            cursor.next_arrival += SimDuration::from_secs(1);
            scn = DemoScenario::from_state(&state);
        }
        world.snapshot(&scn.export_state()).unwrap();
    }
    let d = replay_bisect(&clean, &world)
        .unwrap()
        .expect("shifted arrival clock must diverge");
    assert_eq!(d.epoch, flip_at);
    assert_eq!(d.components, vec!["cursor".to_string()]);
    // And the divergence really did cascade by the final checkpoint.
    let last_clean = clean.store().load_manifest(EPOCHS).unwrap();
    let last_flipped = world.store().load_manifest(EPOCHS).unwrap();
    let moved = last_clean
        .sections
        .iter()
        .filter(|(name, section)| last_flipped.sections.get(*name) != Some(section))
        .count();
    assert!(
        moved > 1,
        "expected the one-bit flip to cascade into several components, saw {moved}"
    );
}

#[test]
fn identical_runs_never_diverge() {
    let a = checkpoint_run("twin-a", 53, None);
    let b = checkpoint_run("twin-b", 53, None);
    assert_eq!(replay_bisect(&a, &b).unwrap(), None);
}
