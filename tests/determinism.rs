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
    // Every TimeSeries keeps O(1) rolling aggregates. After a real scenario
    // they must agree bit-for-bit with one full left-to-right scan of
    // `points()` (the same folds as `sim::metrics::tests`' `scan_*` twins),
    // on every series in every domain registry and every per-slice timeline.
    let mut s = DemoScenario::build(config(888));
    s.run();
    let orch = s.orchestrator();
    let mut checked = 0usize;
    let mut check = |name: &str, series: &ovnes_sim::TimeSeries| {
        let points = series.points();
        let values = || points.iter().map(|&(_, v)| v);
        let scan_mean = (!points.is_empty()).then(|| values().sum::<f64>() / points.len() as f64);
        let scan_max = values().fold(None, |acc, v| Some(acc.map_or(v, |m: f64| m.max(v))));
        let scan_min = values().fold(None, |acc, v| Some(acc.map_or(v, |m: f64| m.min(v))));
        let (mut weighted, mut total) = (0.0, 0.0);
        for pair in points.windows(2) {
            let dt = (pair[1].0 - pair[0].0).as_micros() as f64;
            weighted += pair[0].1 * dt;
            total += dt;
        }
        let scan_time_weighted_mean = match points.len() {
            0 | 1 => None,
            _ if total == 0.0 => scan_mean,
            _ => Some(weighted / total),
        };
        let bits = |v: Option<f64>| v.map(f64::to_bits);
        assert_eq!(bits(series.mean()), bits(scan_mean), "{name} mean");
        assert_eq!(bits(series.max()), bits(scan_max), "{name} max");
        assert_eq!(bits(series.min()), bits(scan_min), "{name} min");
        assert_eq!(
            bits(series.time_weighted_mean()),
            bits(scan_time_weighted_mean),
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
