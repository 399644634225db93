//! Integration: bit-for-bit reproducibility below the artefact level — the
//! ledger, seed sensitivity, and the rolling-vs-scan telemetry oracles. The
//! run-two-configurations-and-compare oracles that used to live here are
//! rows of `tests/identity_matrix.rs`.

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

#[test]
fn rolling_aggregates_match_scan_reference() {
    // Every TimeSeries keeps O(1) rolling aggregates; the full-scan
    // reference implementations stay in the tree as oracles. After a real
    // scenario, both views must agree bit-for-bit on every series in every
    // domain registry and every per-slice timeline.
    let mut s = DemoScenario::build(config(888));
    s.run();
    let orch = s.orchestrator();
    let mut checked = 0usize;
    let mut check = |name: &str, series: &ovnes_sim::TimeSeries| {
        assert_eq!(
            series.mean().map(f64::to_bits),
            series.scan_mean().map(f64::to_bits),
            "{name} mean"
        );
        assert_eq!(
            series.max().map(f64::to_bits),
            series.scan_max().map(f64::to_bits),
            "{name} max"
        );
        assert_eq!(
            series.min().map(f64::to_bits),
            series.scan_min().map(f64::to_bits),
            "{name} min"
        );
        assert_eq!(
            series.time_weighted_mean().map(f64::to_bits),
            series.scan_time_weighted_mean().map(f64::to_bits),
            "{name} time_weighted_mean"
        );
        checked += 1;
    };
    for registry in [
        orch.metrics(),
        orch.ran().metrics(),
        orch.transport().metrics(),
        orch.cloud().metrics(),
    ] {
        for name in registry.names() {
            if let Some(series) = registry.series_ref(&name) {
                check(&name, series);
            }
        }
    }
    let ids: Vec<_> = orch.records().map(|r| r.id).collect();
    for id in ids {
        if let Some(timeline) = orch.timeline(id) {
            check(&format!("{id} offered"), &timeline.offered);
            check(&format!("{id} delivered"), &timeline.delivered);
            check(&format!("{id} latency"), &timeline.latency);
        }
    }
    assert!(checked > 10, "expected a populated scenario, saw {checked}");
}
