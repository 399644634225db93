//! Integration: bit-for-bit reproducibility below the artefact level — the
//! ledger and seed sensitivity. The run-two-configurations-and-compare
//! oracles that used to live here are rows of `tests/identity_matrix.rs`.

use ovnes_orchestrator::{DemoScenario, ScenarioConfig};
use ovnes_sim::SimDuration;

fn config(seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        seed,
        arrivals_per_hour: 25.0,
        horizon: SimDuration::from_hours(4),
        ..ScenarioConfig::default()
    }
}

#[test]
fn same_seed_identical_ledger() {
    let ledger_digest = |seed| {
        let mut s = DemoScenario::build(config(seed));
        s.run();
        s.orchestrator()
            .ledger()
            .records()
            .iter()
            .map(|r| (r.at, r.slice, r.amount))
            .collect::<Vec<_>>()
    };
    assert_eq!(ledger_digest(7), ledger_digest(7));
}

#[test]
fn different_seeds_diverge() {
    let a = DemoScenario::build(config(1)).run();
    let b = DemoScenario::build(config(2)).run();
    assert_ne!(a, b, "distinct seeds should explore distinct workloads");
}
