//! Integration: the federated monitoring feed reaches the dashboard.
//!
//! The sharding layer's acceptance contract — byte-identical summaries,
//! dashboards and monitoring at 1, 2 and 8 workers per shard (calm and
//! under per-region chaos), a snapshot cut under one worker count resuming
//! under another, a one-region federation being the demo scenario bitwise —
//! is the `fed-*` and `one-region-is-demo` rows of
//! `tests/identity_matrix.rs`.

use ovnes_dashboard::RegionsPanel;
use ovnes_orchestrator::{FederationBroker, FederationConfig};
use ovnes_sim::SimDuration;

fn config(seed: u64, regions: usize) -> FederationConfig {
    FederationConfig {
        seed,
        regions,
        // Heavy enough that home regions reject and the broker spills.
        arrivals_per_hour: 40.0,
        mean_duration: SimDuration::from_mins(45),
        horizon: SimDuration::from_hours(2),
        ..FederationConfig::default()
    }
}

#[test]
fn regions_panel_folds_the_federated_monitoring_feed() {
    let mut fed = FederationBroker::build(config(1904, 3));
    for _ in 0..30 {
        assert!(fed.step_epoch());
    }
    let mut panel = RegionsPanel::new();
    let mut repaints = 0usize;
    for report in fed.monitoring() {
        repaints += panel.apply(report).len();
    }
    assert_eq!(panel.regions(), vec![0, 1, 2], "every shard reports");
    assert!(repaints > 0, "pushes must repaint scalar cells");
    let rendered = panel.render();
    for r in 0..3 {
        assert!(rendered.contains(&format!("r{r}")), "{rendered}");
    }
}
