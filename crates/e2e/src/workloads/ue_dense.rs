//! `ue_dense`: the UE plane does nearly all the work.
//!
//! A 16-cell star world is prefilled with 96 day-long eMBB slices of 1 000
//! UEs each under first-come-first-served admission; then epochs run with no
//! arrivals and no faults. Mobility, CQI and channel sampling, the PF grant
//! loop and `par_map` are what an epoch costs; admission, routing, placement
//! and the control plane idle. A `ran` or `sim::par` optimisation must show
//! here, a decision-plane optimisation must show no change.

use super::{add_counts, after_epoch, check_books, close_counts, Summary};
use crate::harness::{finish, Op, Opts, Rep, RepOutcome};
use crate::probes::World;
use crate::worlds::{dense_prefill, star_world};
use ovnes_orchestrator::{Orchestrator, OrchestratorConfig, PolicyKind};
use ovnes_ran::MobilityModel;
use ovnes_sim::{SimRng, SimTime};
use std::collections::BTreeMap;

pub const CELLS: usize = 16;
pub const SLICES: usize = 96;
pub const UES_PER_SLICE: usize = 1000;
/// vEPCs deploy, UEs attach and the epoch scratch grows to its working size.
pub const WARMUP_EPOCHS: u64 = 5;
/// A repetition takes about 2 s on the 2-core reference box (README, "How
/// the sizes were chosen").
pub const TIMED_EPOCHS: u64 = 90;

pub fn config() -> OrchestratorConfig {
    OrchestratorConfig {
        policy: PolicyKind::Fcfs,
        ues_per_slice: UES_PER_SLICE,
        ue_fairness_tracking: true,
        mobility: MobilityModel::pedestrian(),
        overbooking_enabled: true,
        reconfig_every: 5,
        ..OrchestratorConfig::default()
    }
}

pub fn run(opts: &Opts, mut rep: Rep<'_>) -> RepOutcome {
    let epochs = opts.timed_epochs(TIMED_EPOCHS);
    let mut rng = SimRng::seed_from(opts.seed);
    let requests = dense_prefill(SLICES, &mut rng.fork("ue_dense-requests"));
    let world = star_world(CELLS);
    let config = config();
    let epoch_len = config.epoch;
    let mut orchestrator = Orchestrator::new(
        config,
        world.ran,
        world.transport,
        world.cloud,
        world.cell,
        rng.fork("ue_dense-world"),
    );
    let mut summary = Summary::default();
    for request in requests {
        let admitted = rep
            .timed(Op::Submit, || orchestrator.submit(SimTime::ZERO, request))
            .is_ok();
        summary.submitted(admitted);
    }
    rep.check(summary.admitted == SLICES as u64, || {
        format!("prefill admitted {} of {SLICES} slices", summary.admitted)
    });
    let mut now = SimTime::ZERO;
    for _ in 0..WARMUP_EPOCHS {
        now += epoch_len;
        let report = orchestrator.run_epoch(now);
        after_epoch(&mut rep, &mut summary, &orchestrator, &report);
    }

    rep.reserve(epochs as usize, 0);
    for epoch in 0..epochs {
        now += epoch_len;
        let report = rep.step(|rep| rep.timed(Op::Epoch, || orchestrator.run_epoch(now)));
        after_epoch(&mut rep, &mut summary, &orchestrator, &report);
        if let Some(probes) = rep.probes.as_deref_mut() {
            probes.maybe_round(epoch, epochs, &World::Single(&orchestrator));
        }
    }

    summary.close(&orchestrator);
    rep.digest_json(&summary);
    let mut counts = BTreeMap::new();
    add_counts(&mut counts, &orchestrator);
    check_books(&mut rep, &summary, &counts, 0..=0);
    close_counts(&mut counts, &summary);
    finish(rep, counts)
}
