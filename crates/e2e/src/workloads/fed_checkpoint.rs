//! `fed_checkpoint`: spill placement, the backbone, and whole-world serde.
//!
//! Four regions of a 4-cell star world under a `FederationBroker` with
//! federated admission. Every ten epochs the federation is checkpointed into
//! a fresh content-addressed store (writes); at evenly spaced epochs the
//! broker is dropped and rebuilt from the latest checkpoint, and the epochs
//! since are replayed (reads beside writes). This is the only workload that
//! runs spill placement, the backbone controller, `par_map` across regions,
//! `export_state`/`from_state`, serde-JSON of whole worlds, the hand-rolled
//! SHA-256 and the store.

use super::{add_counts, check_books, close_counts, Summary};
use crate::harness::{finish, Op, Opts, Rep, RepOutcome};
use crate::probes::World;
use crate::worlds::star_world;
use ovnes_orchestrator::{
    FederationBroker, FederationConfig, FederationState, OrchestratorConfig, WorldSnapshot,
};
use ovnes_sim::SimDuration;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

pub const REGIONS: usize = 4;
pub const CELLS_PER_REGION: usize = 4;
pub const ARRIVALS_PER_HOUR: f64 = 60.0;
pub const MEAN_DURATION: SimDuration = SimDuration::from_mins(45);
pub const UES_PER_SLICE: usize = 200;
pub const WARMUP_EPOCHS: u64 = 30;
/// A repetition takes about 2 s on the 2-core reference box (README, "How
/// the sizes were chosen").
pub const TIMED_EPOCHS: u64 = 150;
pub const SNAPSHOT_EVERY: u64 = 10;
/// One restore per this many timed epochs, halfway through: five epochs
/// after a checkpoint, so each restore replays five epochs.
pub const RESTORE_EVERY: u64 = 50;

/// Numbers the stores of a process: every repetition checkpoints into a
/// fresh one, and none is deleted while repetitions are still being timed
/// (see `Opts::scratch_dir`).
static NEXT_STORE: AtomicU64 = AtomicU64::new(0);

pub fn config(seed: u64, epochs: u64) -> FederationConfig {
    FederationConfig {
        seed,
        regions: REGIONS,
        arrivals_per_hour: ARRIVALS_PER_HOUR,
        mean_duration: MEAN_DURATION,
        // The run is sized in epochs; the horizon only has to outlast it.
        horizon: SimDuration::from_mins(2 * (WARMUP_EPOCHS + epochs) + 60),
        orchestrator: OrchestratorConfig {
            ues_per_slice: UES_PER_SLICE,
            ..OrchestratorConfig::default()
        },
        federated_admission: true,
        ..FederationConfig::default()
    }
}

/// Fold the federation's latest epoch into the digest and apply the
/// per-epoch checks.
fn after_epoch(rep: &mut Rep<'_>, broker: &FederationBroker) {
    rep.digest_json(&broker.monitoring());
    // Output check 3b: every booked backbone leg belongs to a live spill.
    let metrics = broker.backbone().metrics();
    let booked = metrics.counter_value("transport.allocations").unwrap_or(0);
    let released = metrics.counter_value("transport.releases").unwrap_or(0);
    let live = broker.spill_routes().len() as u64;
    rep.check(booked - released == live, || {
        format!("backbone legs booked {booked} - released {released} != live spill routes {live}")
    });
}

pub fn run(opts: &Opts, mut rep: Rep<'_>) -> RepOutcome {
    // Even a smoke run takes one checkpoint (epoch 10) and one restore (15).
    let epochs = opts
        .timed_epochs(TIMED_EPOCHS)
        .max(SNAPSHOT_EVERY + SNAPSHOT_EVERY / 2 + 1);
    let restore_every = if epochs >= RESTORE_EVERY {
        RESTORE_EVERY
    } else {
        3 * SNAPSHOT_EVERY
    };
    let store_dir = opts.scratch_dir().join(format!(
        "fed_checkpoint-{}",
        NEXT_STORE.fetch_add(1, Ordering::Relaxed)
    ));
    let store = match WorldSnapshot::open(&store_dir) {
        Ok(store) => store,
        Err(e) => {
            rep.fail(format!(
                "cannot open a checkpoint store at {}: {e}",
                store_dir.display()
            ));
            return finish(rep, BTreeMap::new());
        }
    };

    let mut broker = FederationBroker::build_with_worlds(config(opts.seed, epochs), |_| {
        star_world(CELLS_PER_REGION)
    });
    for _ in 0..WARMUP_EPOCHS {
        broker.step_epoch();
        after_epoch(&mut rep, &broker);
    }

    let mut last_checkpoint: Option<(u64, FederationState)> = None;
    rep.reserve(
        (epochs + epochs / restore_every * SNAPSHOT_EVERY + SNAPSHOT_EVERY) as usize,
        0,
    );
    for epoch in 1..=epochs {
        let advanced = rep.step(|rep| rep.timed(Op::Epoch, || broker.step_epoch()));
        rep.check(advanced, || {
            format!("the horizon ended at timed epoch {epoch}")
        });
        after_epoch(&mut rep, &broker);

        if epoch % SNAPSHOT_EVERY == 0 {
            let written = rep.step(|rep| {
                rep.timed(Op::Snapshot, || {
                    let state = broker.export_state();
                    store
                        .snapshot_federation(&state)
                        .map(|manifest| (manifest.epoch, state))
                })
            });
            match written {
                Ok(checkpoint) => last_checkpoint = Some(checkpoint),
                Err(e) => rep.fail(format!("checkpoint at timed epoch {epoch} failed: {e}")),
            }
        }

        if epoch % restore_every == restore_every / 2 {
            let Some((at, snapshotted)) = last_checkpoint.as_ref() else {
                continue;
            };
            // Lose the broker, then bring the latest checkpoint back.
            let lost = broker.epochs_completed() - at;
            let before = broker.summary();
            let restored = rep.step(|rep| {
                rep.timed(Op::Restore, || {
                    store
                        .restore_federation(*at)
                        .map(|state| FederationBroker::from_state(&state))
                })
            });
            match restored {
                Ok(rebuilt) => broker = rebuilt,
                Err(e) => {
                    rep.fail(format!("restore of checkpoint {at} failed: {e}"));
                    continue;
                }
            }
            // Output check 3a: what came back is what was checkpointed.
            rep.check(broker.export_state() == *snapshotted, || {
                format!("checkpoint {at} restored to a different state than was snapshotted")
            });
            // The replayed epochs were digested when they first ran.
            for _ in 0..lost {
                rep.step(|rep| rep.timed(Op::Epoch, || broker.step_epoch()));
            }
            rep.check(broker.summary() == before, || {
                format!("replay from checkpoint {at} did not reproduce the lost epochs")
            });
        }
        if let Some(probes) = rep.probes.as_deref_mut() {
            probes.maybe_round(epoch - 1, epochs, &World::Federation(&broker));
        }
    }

    let federation = broker.summary();
    rep.digest_json(&federation);
    let summary = Summary {
        submitted: federation.submitted,
        admitted: federation.admitted,
        rejected: federation.rejected,
        slice_epochs: federation.slice_epochs,
        violations: federation.violations,
        ..Summary::default()
    };
    let mut counts = BTreeMap::new();
    for region in 0..broker.region_count() {
        add_counts(&mut counts, broker.orchestrator(region));
    }
    // A spill is offered to the other regions in turn until one admits it.
    let offers = federation.spill_admitted..=federation.spilled * (REGIONS as u64 - 1);
    check_books(&mut rep, &summary, &counts, offers);
    close_counts(&mut counts, &summary);
    rep.check(counts["control.failures"] == 0.0, || {
        format!(
            "{} control-plane call(s) failed on a calm control plane",
            counts["control.failures"]
        )
    });
    let cursor = broker.cursor();
    counts.insert("federation.spilled".into(), cursor.spilled as f64);
    counts.insert(
        "federation.spill_admitted".into(),
        cursor.spill_admitted as f64,
    );
    counts.insert(
        "federation.spill_rejected".into(),
        cursor.spill_rejected as f64,
    );
    counts.insert(
        "federation.backbone_live_legs".into(),
        broker.spill_routes().len() as f64,
    );
    if let (Ok(bytes), Ok(objects)) = (store.store().object_bytes(), store.store().object_count()) {
        counts.insert("snapshot.store_bytes".into(), bytes as f64);
        counts.insert("snapshot.objects".into(), objects as f64);
    }
    finish(rep, counts)
}
