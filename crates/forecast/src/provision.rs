//! Quantile provisioning — the bridge from forecasting to overbooking.
//!
//! The overbooking engine's core move is to reserve for each slice not its
//! committed peak but *the capacity that covers next epoch's demand with
//! probability q*. [`QuantileProvisioner`] wraps any [`Forecaster`], keeps
//! an empirical window of one-step forecast residuals, and answers
//! [`provision(q)`](QuantileProvisioner::provision) = point forecast +
//! q-quantile of the residuals. Larger q → safer, smaller multiplexing gain;
//! smaller q → more gain, more SLA-violation risk. Experiments E2/E3 sweep q.

use crate::models::{Forecaster, ForecasterState};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// An order-maintained sliding window of residuals.
///
/// Keeps the last `capacity` values twice: in arrival order (a ring, for
/// eviction) and in sorted order (for quantiles). A push is one binary
/// search plus one `Vec` shift — O(log w) compare cost, no allocation, no
/// per-query sort — and [`quantile`](ResidualWindow::quantile) is O(1).
/// Results are bit-identical to cloning and sorting the window from scratch,
/// which survives in this module's tests (`quantile_reference`) as the oracle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResidualWindow {
    capacity: usize,
    /// Arrival order, oldest first.
    arrivals: VecDeque<f64>,
    /// The same values, ascending.
    sorted: Vec<f64>,
}

impl ResidualWindow {
    /// An empty window retaining at most `capacity` values.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "residual window must be positive");
        ResidualWindow {
            capacity,
            arrivals: VecDeque::with_capacity(capacity + 1),
            sorted: Vec::with_capacity(capacity + 1),
        }
    }

    /// Add `value`, evicting the oldest value once the window is full.
    ///
    /// # Panics
    /// Panics if `value` is not finite (residuals are finite by
    /// construction; NaN would poison the order maintenance).
    pub fn push(&mut self, value: f64) {
        assert!(value.is_finite(), "residuals are finite");
        if self.arrivals.len() == self.capacity {
            let oldest = self.arrivals.pop_front().expect("window is full");
            let at = self.sorted.partition_point(|&x| x < oldest);
            debug_assert!(at < self.sorted.len(), "evictee must be present");
            self.sorted.remove(at);
        }
        let at = self.sorted.partition_point(|&x| x < value);
        self.sorted.insert(at, value);
        self.arrivals.push_back(value);
    }

    /// Values currently held.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// True when no value has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// The maximum number of values retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The values in arrival order, oldest first.
    pub fn values(&self) -> impl Iterator<Item = f64> + '_ {
        self.arrivals.iter().copied()
    }

    /// Empirical `q`-quantile (linear interpolation between order
    /// statistics), or `None` while empty. O(1): reads the maintained order.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        Self::interpolate(&self.sorted, q)
    }

    fn interpolate(sorted: &[f64], q: f64) -> Option<f64> {
        if sorted.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let pos = q * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }
}

/// A forecaster plus an empirical residual distribution.
pub struct QuantileProvisioner<F: Forecaster> {
    model: F,
    /// One-step-ahead residuals: actual − predicted (newest last).
    residuals: ResidualWindow,
    /// Prediction issued for the upcoming observation, if the model was warm.
    pending: Option<f64>,
}

impl<F: Forecaster> QuantileProvisioner<F> {
    /// Wrap `model`, retaining the last `window` residuals.
    ///
    /// # Panics
    /// Panics if `window` is zero.
    pub fn new(model: F, window: usize) -> Self {
        QuantileProvisioner {
            model,
            residuals: ResidualWindow::new(window),
            pending: None,
        }
    }

    /// Feed the demand observed in the latest epoch. Updates the residual
    /// window against the prediction issued last epoch, then advances the
    /// model and issues the next pending prediction.
    pub fn observe(&mut self, actual: f64) {
        if let Some(predicted) = self.pending.take() {
            self.residuals.push(actual - predicted);
        }
        self.model.observe(actual);
        self.pending = self.model.predict(1);
    }

    /// The wrapped model's one-step point forecast.
    pub fn point_forecast(&self) -> Option<f64> {
        self.model.predict(1)
    }

    /// Empirical `q`-quantile of the residual window (linear interpolation),
    /// or `None` until at least one residual exists. O(1) per query.
    pub fn residual_quantile(&self, q: f64) -> Option<f64> {
        self.residuals.quantile(q)
    }

    /// Capacity that covers next epoch's demand with probability ≈ `q`:
    /// point forecast + q-quantile of residuals, floored at zero.
    ///
    /// `None` until the model is warm *and* at least `min_residuals`
    /// residuals have been collected — before that, the caller should fall
    /// back to peak provisioning (exactly what the orchestrator does).
    pub fn provision(&self, q: f64, min_residuals: usize) -> Option<f64> {
        if self.residuals.len() < min_residuals.max(1) {
            return None;
        }
        let point = self.point_forecast()?;
        let margin = self.residual_quantile(q)?;
        Some((point + margin).max(0.0))
    }

    /// Number of residuals currently held.
    pub fn residual_count(&self) -> usize {
        self.residuals.len()
    }

    /// Access the wrapped model.
    pub fn model(&self) -> &F {
        &self.model
    }

    /// Name of the wrapped model.
    pub fn model_name(&self) -> &'static str {
        self.model.name()
    }

    /// Serializable copy of the provisioner's full state (model, residual
    /// window, pending prediction), for checkpointing.
    pub fn export_state(&self) -> ProvisionerState {
        ProvisionerState {
            model: self.model.export_state(),
            residuals: self.residuals.clone(),
            pending: self.pending,
        }
    }
}

impl QuantileProvisioner<Box<dyn Forecaster>> {
    /// Rebuild a provisioner from an exported state. The result continues
    /// bit-for-bit where [`QuantileProvisioner::export_state`] was taken.
    pub fn from_state(state: &ProvisionerState) -> Self {
        QuantileProvisioner {
            model: state.model.build(),
            residuals: state.residuals.clone(),
            pending: state.pending,
        }
    }
}

/// Serializable snapshot of a [`QuantileProvisioner`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProvisionerState {
    /// Exported state of the wrapped forecaster.
    pub model: ForecasterState,
    /// The residual window, verbatim.
    pub residuals: ResidualWindow,
    /// The prediction issued for the upcoming observation, if any.
    pub pending: Option<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{Ewma, HoltWinters, Naive};
    use crate::traces::{TraceGenerator, TraceSpec};
    use ovnes_sim::SimRng;

    impl ResidualWindow {
        /// Reference clone-and-sort quantile — the pre-incremental
        /// implementation, kept as the oracle [`quantile`](Self::quantile)
        /// must match bit for bit.
        fn quantile_reference(&self, q: f64) -> Option<f64> {
            let mut sorted: Vec<f64> = self.arrivals.iter().copied().collect();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("residuals are finite"));
            Self::interpolate(&sorted, q)
        }
    }

    impl<F: Forecaster> QuantileProvisioner<F> {
        /// Clone-and-sort reference for [`residual_quantile`](Self::residual_quantile).
        fn residual_quantile_reference(&self, q: f64) -> Option<f64> {
            self.residuals.quantile_reference(q)
        }
    }

    #[test]
    fn streaming_quantile_matches_sort_oracle() {
        // After every single push, across seeded observe/evict sequences
        // (a window smaller than the stream forces evictions) and
        // quantiles spanning [0, 1].
        for case in 0..256u64 {
            let mut rng = SimRng::seed_from(case);
            let window = rng.uniform_usize(1, 40);
            let pushes = rng.uniform_usize(1, 120);
            let q = rng.uniform_range(0.0, 1.0);
            let mut w = ResidualWindow::new(window);
            for _ in 0..pushes {
                w.push(rng.uniform_range(-1e6, 1e6));
                for qq in [0.0, 0.5, 0.95, 1.0, q] {
                    assert_eq!(
                        w.quantile(qq).map(f64::to_bits),
                        w.quantile_reference(qq).map(f64::to_bits),
                        "case {case}: q={qq} over {:?} (window {window})",
                        w.values().collect::<Vec<_>>()
                    );
                }
            }
            assert_eq!(w.len(), pushes.min(window), "case {case}");
        }
    }

    #[test]
    fn provisioner_quantile_matches_reference() {
        for case in 0..256u64 {
            let mut rng = SimRng::seed_from(case);
            let mut p = QuantileProvisioner::new(Naive::new(), rng.uniform_usize(2, 50));
            for _ in 0..rng.uniform_usize(2, 100) {
                p.observe(rng.uniform_range(0.0, 2.0));
            }
            let q = rng.uniform_range(0.0, 1.0);
            assert_eq!(
                p.residual_quantile(q).map(f64::to_bits),
                p.residual_quantile_reference(q).map(f64::to_bits),
                "case {case}: q={q} over {:?}",
                p.residuals.values().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn residuals_accumulate_after_warmup() {
        let mut p = QuantileProvisioner::new(Naive::new(), 10);
        p.observe(5.0); // model warm after this; pending = 5.0
        assert_eq!(p.residual_count(), 0);
        p.observe(7.0); // residual 7-5 = 2
        assert_eq!(p.residual_count(), 1);
        assert_eq!(p.residual_quantile(0.5), Some(2.0));
    }

    #[test]
    fn residual_window_is_bounded() {
        let mut p = QuantileProvisioner::new(Naive::new(), 5);
        for i in 0..50 {
            p.observe(i as f64);
        }
        assert_eq!(p.residual_count(), 5);
        // Naive residual of a linear ramp is always +1.
        assert_eq!(p.residual_quantile(0.0), Some(1.0));
        assert_eq!(p.residual_quantile(1.0), Some(1.0));
    }

    #[test]
    fn quantile_interpolates() {
        let mut p = QuantileProvisioner::new(Naive::new(), 10);
        p.observe(0.0);
        // Produce residuals 1, 2, 3, 4 (observations step by varying jumps).
        for v in [1.0, 3.0, 6.0, 10.0] {
            p.observe(v);
        }
        assert_eq!(p.residual_quantile(0.0), Some(1.0));
        assert_eq!(p.residual_quantile(1.0), Some(4.0));
        assert_eq!(p.residual_quantile(0.5), Some(2.5));
    }

    #[test]
    fn provision_requires_min_residuals() {
        let mut p = QuantileProvisioner::new(Naive::new(), 10);
        p.observe(1.0);
        p.observe(1.0);
        assert_eq!(p.provision(0.9, 5), None);
        for _ in 0..5 {
            p.observe(1.0);
        }
        assert_eq!(p.provision(0.9, 5), Some(1.0), "flat series provisions its level");
    }

    #[test]
    fn provision_floors_at_zero() {
        let mut p = QuantileProvisioner::new(Naive::new(), 10);
        p.observe(10.0);
        p.observe(0.0); // residual -10
        p.observe(0.0); // residual 0
        // Point forecast 0, q=0 margin = -10 → clamped to 0.
        assert_eq!(p.provision(0.0, 1), Some(0.0));
    }

    #[test]
    fn higher_quantile_provisions_more() {
        let spec = TraceSpec::embb(24);
        let mut gen = TraceGenerator::new(spec, SimRng::seed_from(42));
        let mut p = QuantileProvisioner::new(Ewma::new(0.4), 200);
        for _ in 0..300 {
            p.observe(gen.next_demand());
        }
        let lo = p.provision(0.5, 10).unwrap();
        let hi = p.provision(0.95, 10).unwrap();
        assert!(hi > lo, "q=0.95 ({hi}) must exceed q=0.5 ({lo})");
    }

    #[test]
    fn coverage_matches_target_quantile() {
        // Provisioning at q should cover ≈ q of future epochs.
        let spec = TraceSpec::embb(24);
        let mut gen = TraceGenerator::new(spec, SimRng::seed_from(9));
        let mut p = QuantileProvisioner::new(HoltWinters::new(0.3, 0.05, 0.3, 24), 300);
        // Warm up.
        for _ in 0..24 * 10 {
            p.observe(gen.next_demand());
        }
        let q = 0.9;
        let mut covered = 0usize;
        let n = 2000;
        for _ in 0..n {
            let prov = p.provision(q, 30).unwrap();
            let actual = gen.next_demand();
            if actual <= prov {
                covered += 1;
            }
            p.observe(actual);
        }
        let cov = covered as f64 / n as f64;
        assert!(
            (cov - q).abs() < 0.05,
            "coverage {cov:.3} should be near target {q}"
        );
    }

    #[test]
    fn model_accessors() {
        let p = QuantileProvisioner::new(Naive::new(), 4);
        assert_eq!(p.model_name(), "naive");
        assert_eq!(p.model().observations(), 0);
        assert_eq!(p.point_forecast(), None);
        assert_eq!(p.residual_quantile(0.5), None);
        assert_eq!(p.residual_quantile_reference(0.5), None);
    }

    #[test]
    fn window_maintains_sorted_order_under_eviction() {
        let mut w = ResidualWindow::new(3);
        for v in [5.0, 1.0, 3.0] {
            w.push(v);
        }
        assert_eq!(w.len(), 3);
        assert_eq!(w.quantile(0.0), Some(1.0));
        assert_eq!(w.quantile(0.5), Some(3.0));
        assert_eq!(w.quantile(1.0), Some(5.0));
        // Evicts 5.0 (oldest), not the largest-by-chance duplicate.
        w.push(2.0);
        assert_eq!(w.values().collect::<Vec<_>>(), vec![1.0, 3.0, 2.0]);
        assert_eq!(w.quantile(1.0), Some(3.0));
        assert_eq!(w.capacity(), 3);
    }

    #[test]
    fn window_quantile_matches_reference_with_duplicates() {
        let mut w = ResidualWindow::new(8);
        for v in [2.0, 2.0, -1.0, 2.0, 0.5, -1.0, 7.0, 2.0, 2.0, -3.0] {
            w.push(v);
            for q in [0.0, 0.1, 0.25, 0.5, 0.73, 0.95, 1.0] {
                assert_eq!(
                    w.quantile(q).map(f64::to_bits),
                    w.quantile_reference(q).map(f64::to_bits),
                    "q={q} after pushing {v}"
                );
            }
        }
    }

    #[test]
    fn empty_window_has_no_quantile() {
        let w = ResidualWindow::new(4);
        assert!(w.is_empty());
        assert_eq!(w.quantile(0.5), None);
        assert_eq!(w.quantile_reference(0.5), None);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_window_rejected() {
        ResidualWindow::new(0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_residual_rejected() {
        ResidualWindow::new(4).push(f64::NAN);
    }
}
