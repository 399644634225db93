//! Telemetry primitives: the simulated counterpart of the demo's
//! "real-time monitoring" plane.
//!
//! The testbed's domain controllers continuously report resource utilization
//! to the end-to-end orchestrator; here each controller owns a
//! [`MetricRegistry`] of named [`Counter`]s, [`Gauge`]s, [`TimeSeries`] and
//! [`Histogram`]s, which the orchestrator samples through the API layer and
//! the dashboard renders.

use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Monotonically increasing event count (e.g. admitted slices, SLA
/// violations, rerouted paths).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Counter {
    value: u64,
}

impl Counter {
    /// New counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increment by one.
    pub fn inc(&mut self) {
        self.value += 1;
    }

    /// Increment by `n`.
    pub fn add(&mut self, n: u64) {
        self.value += n;
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.value
    }
}

/// Instantaneous value that can move both ways (e.g. PRBs in use, link
/// utilization, vCPUs allocated).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Gauge {
    value: f64,
}

impl Gauge {
    /// New gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the current value.
    pub fn set(&mut self, v: f64) {
        self.value = v;
    }

    /// Add to the current value (negative deltas allowed).
    pub fn add(&mut self, delta: f64) {
        self.value += delta;
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        self.value
    }
}

/// Time-stamped sequence of samples, the raw material of every dashboard
/// chart and of the forecasting engine's training window.
///
/// Plain data: the samples and the window policy. `mean`/`max`/`min` scan
/// the window on each call — their readers are an on-demand dashboard pane
/// and one supervision line, while `record()` runs per series per epoch.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
    /// Optional cap: oldest points are dropped beyond it (monitoring window).
    capacity: Option<usize>,
}

impl TimeSeries {
    /// Unbounded series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Series that keeps only the most recent `capacity` samples.
    pub fn with_capacity_limit(capacity: usize) -> Self {
        TimeSeries {
            points: Vec::new(),
            capacity: Some(capacity.max(1)),
        }
    }

    /// Like [`with_capacity_limit`](Self::with_capacity_limit) but with the
    /// whole window preallocated up front, so `record` never reallocates.
    /// For series written by allocation-free hot paths; most series should
    /// keep the lazy default rather than commit the window eagerly.
    pub fn preallocated(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TimeSeries {
            // `record` pushes before evicting, so the buffer briefly holds
            // capacity + 1 points.
            points: Vec::with_capacity(capacity + 1),
            capacity: Some(capacity),
        }
    }

    /// Preallocate room for `additional` more samples without changing the
    /// window policy (an unbounded series stays unbounded). Hot paths that
    /// record into a pre-created series reserve their expected run length
    /// up front so steady-state `record` calls never reallocate.
    pub fn reserve(&mut self, additional: usize) {
        self.points.reserve(additional);
    }

    /// Append a sample. Samples must arrive in non-decreasing time order.
    ///
    /// # Panics
    /// Panics if `at` precedes the previous sample's timestamp.
    pub fn record(&mut self, at: SimTime, value: f64) {
        if let Some(&(last, _)) = self.points.last() {
            assert!(at >= last, "time series must be recorded in order");
        }
        self.points.push((at, value));
        if let Some(cap) = self.capacity {
            if self.points.len() > cap {
                let excess = self.points.len() - cap;
                self.points.drain(..excess);
            }
        }
    }

    /// All samples, oldest first.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// The most recent `n` samples (all of them when `n >= len`), oldest
    /// first — a borrow, so dashboard sparklines don't clone histories.
    pub fn tail(&self, n: usize) -> &[(SimTime, f64)] {
        &self.points[self.points.len().saturating_sub(n)..]
    }

    /// The values, oldest first, without their timestamps.
    fn iter_values(&self) -> impl Iterator<Item = f64> + '_ {
        self.points.iter().map(|&(_, v)| v)
    }

    /// Just the values, oldest first (forecasting input).
    pub fn values(&self) -> Vec<f64> {
        self.iter_values().collect()
    }

    /// The most recent sample.
    pub fn last(&self) -> Option<(SimTime, f64)> {
        self.points.last().copied()
    }

    /// Number of samples held.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Arithmetic mean of the values, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        let n = self.points.len();
        (n > 0).then(|| self.iter_values().sum::<f64>() / n as f64)
    }

    /// Maximum value, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        self.iter_values().reduce(f64::max)
    }

    /// Minimum value, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        self.iter_values().reduce(f64::min)
    }
}

/// Fixed-boundary histogram with exact count semantics, for latency and
/// utilization distributions. Values above the top boundary land in an
/// overflow bucket.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Upper bounds of each bucket (ascending); bucket i counts values
    /// `<= bounds[i]` (and greater than `bounds[i-1]`).
    bounds: Vec<f64>,
    counts: Vec<u64>,
    overflow: u64,
    total: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// Histogram with the given ascending bucket upper bounds.
    ///
    /// # Panics
    /// Panics if `bounds` is empty or not strictly ascending.
    pub fn with_bounds(bounds: Vec<f64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        let n = bounds.len();
        Histogram {
            bounds,
            counts: vec![0; n],
            overflow: 0,
            total: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// `n` equal-width buckets spanning `[lo, hi]`.
    pub fn linear(lo: f64, hi: f64, n: usize) -> Self {
        assert!(n > 0 && hi > lo);
        let width = (hi - lo) / n as f64;
        // The last bound is pinned to exactly `hi`: accumulating rounding in
        // `lo + width·i` can leave it an ulp short, dropping values equal to
        // `hi` into the overflow bucket.
        Self::with_bounds(
            (1..=n)
                .map(|i| if i == n { hi } else { lo + width * i as f64 })
                .collect(),
        )
    }

    /// Exponentially widening buckets: first bound `first`, each `factor`×
    /// the previous, `n` buckets. Good for latency tails.
    pub fn exponential(first: f64, factor: f64, n: usize) -> Self {
        assert!(n > 0 && first > 0.0 && factor > 1.0);
        let mut bounds = Vec::with_capacity(n);
        let mut b = first;
        for _ in 0..n {
            bounds.push(b);
            b *= factor;
        }
        Self::with_bounds(bounds)
    }

    /// Record one observation.
    pub fn observe(&mut self, value: f64) {
        self.total += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        match self.bounds.iter().position(|&b| value <= b) {
            Some(i) => self.counts[i] += 1,
            None => self.overflow += 1,
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean of all observations, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.total > 0).then(|| self.sum / self.total as f64)
    }

    /// Smallest observation, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.total > 0).then_some(self.min)
    }

    /// Largest observation, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.total > 0).then_some(self.max)
    }

    /// Approximate `q`-quantile (0 ≤ q ≤ 1) by linear interpolation within
    /// the containing bucket. Values in the overflow bucket report the
    /// observed maximum.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * self.total as f64;
        let mut cum = 0.0;
        let mut lower = f64::NEG_INFINITY;
        for (i, &c) in self.counts.iter().enumerate() {
            let next = cum + c as f64;
            if next >= target && c > 0 {
                // The bucket's value range, tightened by the observed
                // extremes so interpolation never leaves [min, max].
                let lo = if lower.is_finite() {
                    lower.max(self.min)
                } else {
                    self.min
                };
                let hi = self.bounds[i].min(self.max);
                let frac = if c > 0 {
                    ((target - cum) / c as f64).clamp(0.0, 1.0)
                } else {
                    0.0
                };
                return Some(lo + (hi - lo).max(0.0) * frac);
            }
            cum = next;
            lower = self.bounds[i];
        }
        Some(self.max)
    }

    /// Bucket view: `(upper_bound, count)` pairs plus the overflow count.
    pub fn buckets(&self) -> (Vec<(f64, u64)>, u64) {
        (
            self.bounds
                .iter()
                .copied()
                .zip(self.counts.iter().copied())
                .collect(),
            self.overflow,
        )
    }
}

/// Name-indexed collection of metrics owned by one component.
///
/// Keys are dotted paths (`"ran.enb0.prb_used"`). BTreeMap keeps iteration
/// order deterministic for snapshotting and rendering.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricRegistry {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    series: BTreeMap<String, TimeSeries>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter `name`.
    pub fn counter(&mut self, name: &str) -> &mut Counter {
        self.counters.entry(name.to_owned()).or_default()
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&mut self, name: &str) -> &mut Gauge {
        self.gauges.entry(name.to_owned()).or_default()
    }

    /// Get or create the time series `name`.
    pub fn series(&mut self, name: &str) -> &mut TimeSeries {
        self.series.entry(name.to_owned()).or_default()
    }

    /// Mutable view of the series `name` if it already exists. Unlike
    /// [`series`](Self::series) this never inserts — and therefore never
    /// clones `name` into an owned key — so epoch hot paths that
    /// pre-created their series can record without allocating.
    pub fn series_mut(&mut self, name: &str) -> Option<&mut TimeSeries> {
        self.series.get_mut(name)
    }

    /// Insert (or replace) a histogram under `name`, returning it.
    pub fn histogram_with(
        &mut self,
        name: &str,
        make: impl FnOnce() -> Histogram,
    ) -> &mut Histogram {
        self.histograms.entry(name.to_owned()).or_insert_with(make)
    }

    /// Read a counter if present.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters.get(name).map(Counter::get)
    }

    /// Read a gauge if present.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).map(Gauge::get)
    }

    /// Read-only view of a series if present.
    pub fn series_ref(&self, name: &str) -> Option<&TimeSeries> {
        self.series.get(name)
    }

    /// Read-only view of a histogram if present.
    pub fn histogram_ref(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Names of all counters/gauges/series/histograms (deterministic order).
    pub fn names(&self) -> Vec<String> {
        self.counters
            .keys()
            .chain(self.gauges.keys())
            .chain(self.series.keys())
            .chain(self.histograms.keys())
            .cloned()
            .collect()
    }

    /// Flat snapshot of scalar metrics (counters + gauges + last series
    /// values), the payload a controller reports upstream each monitoring
    /// epoch.
    pub fn scalar_snapshot(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for (k, c) in &self.counters {
            out.insert(k.clone(), c.get() as f64);
        }
        for (k, g) in &self.gauges {
            out.insert(k.clone(), g.get());
        }
        for (k, s) in &self.series {
            if let Some((_, v)) = s.last() {
                out.insert(k.clone(), v);
            }
        }
        out
    }
}

impl fmt::Display for MetricRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in self.scalar_snapshot() {
            writeln!(f, "{k} = {v:.4}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{SimDuration, SimTime};

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn preallocated_series_behaves_like_capacity_limited() {
        let mut a = TimeSeries::preallocated(3);
        let mut b = TimeSeries::with_capacity_limit(3);
        let cap = a.points.capacity();
        for i in 0..10u64 {
            let at = SimTime::ZERO + SimDuration::from_mins(i);
            a.record(at, i as f64);
            b.record(at, i as f64);
        }
        assert_eq!(a, b, "same window, same samples");
        assert_eq!(
            a.points.capacity(),
            cap,
            "never grew past the preallocation"
        );
    }

    #[test]
    fn series_mut_finds_without_inserting() {
        let mut reg = MetricRegistry::new();
        assert!(reg.series_mut("absent").is_none());
        assert!(reg.series_ref("absent").is_none(), "lookup did not insert");
        reg.series("present").record(SimTime::ZERO, 1.0);
        reg.series_mut("present")
            .expect("created above")
            .record(SimTime::ZERO + SimDuration::from_mins(1), 2.0);
        assert_eq!(reg.series_ref("present").unwrap().len(), 2);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let mut g = Gauge::new();
        g.set(10.0);
        g.add(-3.5);
        assert_eq!(g.get(), 6.5);
    }

    #[test]
    fn series_records_and_summarizes() {
        let mut s = TimeSeries::new();
        for (i, v) in [1.0, 3.0, 2.0].iter().enumerate() {
            s.record(SimTime::from_secs(i as u64), *v);
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.mean(), Some(2.0));
        assert_eq!(s.max(), Some(3.0));
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.last(), Some((SimTime::from_secs(2), 2.0)));
        assert_eq!(s.values(), vec![1.0, 3.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "in order")]
    fn series_rejects_out_of_order() {
        let mut s = TimeSeries::new();
        s.record(SimTime::from_secs(2), 1.0);
        s.record(SimTime::from_secs(1), 1.0);
    }

    #[test]
    fn series_capacity_drops_oldest() {
        let mut s = TimeSeries::with_capacity_limit(3);
        for i in 0..5u64 {
            s.record(SimTime::from_secs(i), i as f64);
        }
        assert_eq!(s.values(), vec![2.0, 3.0, 4.0]);
    }

    /// `mean`/`max`/`min` read the window as it stands: before and after
    /// evictions (and across a serde round trip) they are the left-to-right
    /// folds over `points()`, bit for bit.
    #[test]
    fn summaries_are_folds_over_the_window_across_evictions() {
        let mut s = TimeSeries::with_capacity_limit(7);
        let values = [
            0.3,
            -1.5,
            2.25,
            2.25,
            0.0,
            9.75,
            -4.125,
            0.5,
            1.0 / 3.0,
            7.7,
        ];
        for (i, &v) in values.iter().cycle().take(40).enumerate() {
            s.record(SimTime::from_secs((i / 2) as u64), v);
            let window = || s.points().iter().map(|&(_, v)| v);
            let bits = |x: Option<f64>| x.map(f64::to_bits);
            let n = s.len() as f64;
            assert_eq!(
                bits(s.mean()),
                bits(Some(window().sum::<f64>() / n)),
                "step {i}"
            );
            assert_eq!(bits(s.max()), bits(window().reduce(f64::max)), "step {i}");
            assert_eq!(bits(s.min()), bits(window().reduce(f64::min)), "step {i}");
            assert_eq!(s.len(), (i + 1).min(7), "step {i}");
        }
        let back: TimeSeries = serde_json::from_str(&serde_json::to_string(&s).unwrap()).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.mean(), s.mean());
        let empty = TimeSeries::with_capacity_limit(7);
        assert_eq!((empty.mean(), empty.max(), empty.min()), (None, None, None));
    }

    #[test]
    fn tail_borrows_last_n() {
        let mut s = TimeSeries::new();
        for i in 0..10u64 {
            s.record(SimTime::from_secs(i), i as f64);
        }
        let tail = s.tail(3);
        assert_eq!(tail.len(), 3);
        assert_eq!(tail[0], (SimTime::from_secs(7), 7.0));
        assert_eq!(s.tail(100).len(), 10, "oversized n clamps to len");
        assert!(TimeSeries::new().tail(5).is_empty());
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::with_bounds(vec![1.0, 2.0, 4.0]);
        for v in [0.5, 1.5, 3.0, 10.0] {
            h.observe(v);
        }
        let (buckets, overflow) = h.buckets();
        assert_eq!(buckets, vec![(1.0, 1), (2.0, 1), (4.0, 1)]);
        assert_eq!(overflow, 1);
        assert_eq!(h.count(), 4);
        assert_eq!(h.mean(), Some(3.75));
        assert_eq!(h.min(), Some(0.5));
        assert_eq!(h.max(), Some(10.0));
    }

    #[test]
    fn histogram_quantiles_are_monotone_and_bounded() {
        let mut h = Histogram::linear(0.0, 100.0, 20);
        let mut vals: Vec<f64> = (0..1000).map(|i| (i % 100) as f64).collect();
        vals.push(99.5);
        for v in vals {
            h.observe(v);
        }
        let q10 = h.quantile(0.10).unwrap();
        let q50 = h.quantile(0.50).unwrap();
        let q99 = h.quantile(0.99).unwrap();
        assert!(q10 <= q50 && q50 <= q99, "{q10} {q50} {q99}");
        assert!((q50 - 50.0).abs() < 6.0, "median approx, got {q50}");
        assert!(h.quantile(1.0).unwrap() <= h.max().unwrap());
    }

    #[test]
    fn linear_top_bound_is_inclusive() {
        // Regression: with bounds built purely by accumulation,
        // linear(0.0, 1.0, 3) ends at 0.3333…·3 = 0.9999999999999999 and an
        // observation of exactly 1.0 leaks into the overflow bucket.
        let mut h = Histogram::linear(0.0, 1.0, 3);
        h.observe(1.0);
        let (buckets, overflow) = h.buckets();
        assert_eq!(overflow, 0, "hi must land in the last bucket");
        assert_eq!(buckets.last().unwrap(), &(1.0, 1));
        // Values past hi still overflow.
        h.observe(1.0000001);
        assert_eq!(h.buckets().1, 1);
    }

    #[test]
    fn histogram_quantile_empty_is_none() {
        let h = Histogram::linear(0.0, 1.0, 2);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn exponential_bounds_grow() {
        let h = Histogram::exponential(1.0, 2.0, 4);
        let (buckets, _) = h.buckets();
        let bounds: Vec<f64> = buckets.iter().map(|&(b, _)| b).collect();
        assert_eq!(bounds, vec![1.0, 2.0, 4.0, 8.0]);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn histogram_rejects_unsorted_bounds() {
        Histogram::with_bounds(vec![2.0, 1.0]);
    }

    #[test]
    fn registry_creates_and_reads() {
        let mut reg = MetricRegistry::new();
        reg.counter("slices.admitted").add(3);
        reg.gauge("ran.prb_used").set(42.0);
        reg.series("load").record(SimTime::ZERO, 1.0);
        reg.series("load")
            .record(SimTime::ZERO + SimDuration::from_secs(1), 2.0);
        reg.histogram_with("lat", || Histogram::linear(0.0, 10.0, 10))
            .observe(3.0);

        assert_eq!(reg.counter_value("slices.admitted"), Some(3));
        assert_eq!(reg.gauge_value("ran.prb_used"), Some(42.0));
        assert_eq!(reg.series_ref("load").unwrap().len(), 2);
        assert_eq!(reg.histogram_ref("lat").unwrap().count(), 1);
        assert_eq!(reg.counter_value("missing"), None);

        let snap = reg.scalar_snapshot();
        assert_eq!(snap["slices.admitted"], 3.0);
        assert_eq!(snap["ran.prb_used"], 42.0);
        assert_eq!(snap["load"], 2.0);
        assert_eq!(reg.names().len(), 4);
    }

    #[test]
    fn registry_serde_round_trip() {
        let mut reg = MetricRegistry::new();
        reg.counter("a").inc();
        reg.gauge("b").set(2.5);
        let json = serde_json::to_string(&reg).unwrap();
        let back: MetricRegistry = serde_json::from_str(&json).unwrap();
        assert_eq!(back.counter_value("a"), Some(1));
        assert_eq!(back.gauge_value("b"), Some(2.5));
    }
}
