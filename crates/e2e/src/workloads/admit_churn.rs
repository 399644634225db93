//! `admit_churn`: the decision plane does nearly all the work.
//!
//! One orchestrator over a 64-cell world whose transport is a 2 000-switch
//! mesh. Requests arrive at 360 per hour with lifetimes at the generator's
//! ten-minute floor, so about sixty slices are live at any time (under the
//! 99-PLMN pool) and every epoch carries about six submits and six
//! teardowns. `AdmissionPolicy::decide`, `resource_view`, RAN best-fit, CSPF
//! over a large graph, Heat-style placement and teardown are what a submit
//! and an epoch cost; with 4 UEs per slice the UE plane is negligible.
//! `run_epoch` scans every record ever created; with repetitions this short
//! `core.epoch_drift_ratio` has little history to show (README, "How the
//! epoch counts were chosen").

use super::{add_counts, after_epoch, check_books, close_counts, Arrivals, Summary};
use crate::harness::{finish, Op, Opts, Rep, RepOutcome};
use crate::probes::World;
use crate::worlds::mesh_world;
use ovnes_orchestrator::{
    Orchestrator, OrchestratorConfig, PolicyKind, RequestGenerator, RequestMix,
};
use ovnes_sim::{SimDuration, SimRng, SimTime};
use std::collections::BTreeMap;

pub const ARRIVALS_PER_HOUR: f64 = 360.0;
/// Below the generator's ten-minute floor, so every lifetime is ten minutes.
pub const MEAN_DURATION: SimDuration = SimDuration::from_mins(1);
/// Lifetimes are ten minutes, so the live set is steady after a dozen epochs.
pub const WARMUP_EPOCHS: u64 = 15;
/// A repetition takes about 2 s on the 2-core reference box (README, "How
/// the sizes were chosen").
pub const TIMED_EPOCHS: u64 = 30;
/// The workload must not sit on an admission knife-edge.
pub const MIN_ADMISSION_RATE: f64 = 0.70;

pub fn config() -> OrchestratorConfig {
    OrchestratorConfig {
        policy: PolicyKind::OverbookingAware,
        ues_per_slice: 4,
        ..OrchestratorConfig::default()
    }
}

pub fn run(opts: &Opts, mut rep: Rep<'_>) -> RepOutcome {
    let epochs = opts.timed_epochs(TIMED_EPOCHS);
    let mut rng = SimRng::seed_from(opts.seed);
    let world = mesh_world(&mut rng.fork("admit_churn-mesh"));
    let generator = RequestGenerator::new(
        RequestMix::default(),
        MEAN_DURATION,
        rng.fork("admit_churn-requests"),
    );
    let mut arrivals = Arrivals::new(generator, ARRIVALS_PER_HOUR);
    let config = config();
    let epoch_len = config.epoch;
    let mut orchestrator = Orchestrator::new(
        config,
        world.ran,
        world.transport,
        world.cloud,
        world.cell,
        rng.fork("admit_churn-world"),
    );
    let mut summary = Summary::default();
    let mut timed_submits = (0u64, 0u64);
    let mut now = SimTime::ZERO;
    let expected_submits = (ARRIVALS_PER_HOUR / 60.0 * epochs as f64 * 1.2) as usize;
    rep.reserve(epochs as usize, expected_submits);

    for epoch in 0..WARMUP_EPOCHS + epochs {
        let timed = epoch >= WARMUP_EPOCHS;
        now += epoch_len;
        let mut iteration = |rep: &mut Rep<'_>| {
            let (submitted, admitted) = arrivals.deliver(rep, &mut orchestrator, &mut summary, now);
            if timed {
                timed_submits.0 += submitted;
                timed_submits.1 += admitted;
            }
            rep.timed(Op::Epoch, || orchestrator.run_epoch(now))
        };
        let report = if timed {
            rep.step(iteration)
        } else {
            iteration(&mut rep)
        };
        after_epoch(&mut rep, &mut summary, &orchestrator, &report);
        if timed {
            if let Some(probes) = rep.probes.as_deref_mut() {
                probes.maybe_round(epoch - WARMUP_EPOCHS, epochs, &World::Single(&orchestrator));
            }
        }
    }

    summary.close(&orchestrator);
    let rate = timed_submits.1 as f64 / timed_submits.0.max(1) as f64;
    rep.check(rate >= MIN_ADMISSION_RATE, || {
        format!(
            "only {:.1} % of timed submits were admitted, need {:.0} %",
            rate * 100.0,
            MIN_ADMISSION_RATE * 100.0
        )
    });
    rep.digest_json(&summary);
    let mut counts = BTreeMap::new();
    add_counts(&mut counts, &orchestrator);
    check_books(&mut rep, &summary, &counts, 0..=0);
    close_counts(&mut counts, &summary);
    counts.insert("core.timed_admission_rate".into(), rate);
    finish(rep, counts)
}
