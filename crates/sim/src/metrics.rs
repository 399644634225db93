//! Telemetry primitives: the simulated counterpart of the demo's
//! "real-time monitoring" plane.
//!
//! The testbed's domain controllers continuously report resource utilization
//! to the end-to-end orchestrator; here each controller owns a
//! [`MetricRegistry`] of named [`Counter`]s, [`Gauge`]s and [`TimeSeries`],
//! which the orchestrator samples through the API layer and the dashboard
//! renders. A value is a gauge unless something reads its history; a
//! registry's series keep a window of [`SERIES_WINDOW`] samples.

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

/// Samples every registry series and per-slice timeline keeps: no history
/// grows with the run, and no run in the tree reaches the window.
pub const SERIES_WINDOW: usize = 4096;

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

    /// Preallocate room for `additional` more samples without changing the
    /// window policy. Hot paths that record into a pre-created series
    /// reserve their window up front (plus one: `record` pushes before it
    /// evicts) so steady-state `record` calls never reallocate.
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

/// Name-indexed collection of metrics owned by one component.
///
/// Keys are dotted paths (`"ran.enb0.prb_used"`). BTreeMap keeps iteration
/// order deterministic for snapshotting and rendering.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricRegistry {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    series: BTreeMap<String, TimeSeries>,
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

    /// Mutable view of the gauge `name` if it already exists; like
    /// [`series_mut`](Self::series_mut), it never inserts or allocates.
    pub fn gauge_mut(&mut self, name: &str) -> Option<&mut Gauge> {
        self.gauges.get_mut(name)
    }

    /// Get or create the time series `name`, a window of the last
    /// [`SERIES_WINDOW`] samples.
    pub fn series(&mut self, name: &str) -> &mut TimeSeries {
        self.series
            .entry(name.to_owned())
            .or_insert_with(|| TimeSeries::with_capacity_limit(SERIES_WINDOW))
    }

    /// Mutable view of the series `name` if it already exists. Unlike
    /// [`series`](Self::series) this never inserts — and therefore never
    /// clones `name` into an owned key — so epoch hot paths that
    /// pre-created their series can record without allocating.
    pub fn series_mut(&mut self, name: &str) -> Option<&mut TimeSeries> {
        self.series.get_mut(name)
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

    /// Flat snapshot of scalar metrics (counters + last series values +
    /// gauges), the payload a controller reports upstream each monitoring
    /// epoch. Gauges go in last: a registry restored from an older snapshot
    /// may hold a series under the name of what is now a gauge, and the
    /// live value is the gauge's.
    pub fn scalar_snapshot(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for (k, c) in &self.counters {
            out.insert(k.clone(), c.get() as f64);
        }
        for (k, s) in &self.series {
            if let Some((_, v)) = s.last() {
                out.insert(k.clone(), v);
            }
        }
        for (k, g) in &self.gauges {
            out.insert(k.clone(), g.get());
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
    fn series_mut_finds_without_inserting() {
        let mut reg = MetricRegistry::new();
        assert!(reg.series_mut("absent").is_none());
        assert!(reg.series_ref("absent").is_none(), "lookup did not insert");
        reg.series("present").record(SimTime::ZERO, 1.0);
        reg.series_mut("present")
            .expect("created above")
            .record(SimTime::ZERO + SimDuration::from_mins(1), 2.0);
        assert_eq!(reg.series_ref("present").unwrap().len(), 2);

        assert!(reg.gauge_mut("absent").is_none());
        assert_eq!(reg.gauge_value("absent"), None, "lookup did not insert");
        reg.gauge("level").set(1.0);
        reg.gauge_mut("level").expect("created above").set(2.0);
        assert_eq!(reg.gauge_value("level"), Some(2.0));
    }

    #[test]
    fn registry_series_keep_a_window() {
        let mut reg = MetricRegistry::new();
        for i in 0..SERIES_WINDOW as u64 + 10 {
            reg.series("load").record(SimTime::from_secs(i), i as f64);
        }
        let load = reg.series_ref("load").unwrap();
        assert_eq!(load.len(), SERIES_WINDOW);
        assert_eq!(load.points()[0].1, 10.0, "the oldest samples went");
        assert_eq!(reg.scalar_snapshot()["load"], (SERIES_WINDOW + 9) as f64);
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
    fn registry_creates_and_reads() {
        let mut reg = MetricRegistry::new();
        reg.counter("slices.admitted").add(3);
        reg.gauge("ran.prb_used").set(42.0);
        reg.series("load").record(SimTime::ZERO, 1.0);
        reg.series("load")
            .record(SimTime::ZERO + SimDuration::from_secs(1), 2.0);

        assert_eq!(reg.counter_value("slices.admitted"), Some(3));
        assert_eq!(reg.gauge_value("ran.prb_used"), Some(42.0));
        assert_eq!(reg.series_ref("load").unwrap().len(), 2);
        assert_eq!(reg.counter_value("missing"), None);

        let snap = reg.scalar_snapshot();
        assert_eq!(snap["slices.admitted"], 3.0);
        assert_eq!(snap["ran.prb_used"], 42.0);
        assert_eq!(snap["load"], 2.0);
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

    /// Snapshots in the layout of PR 21 — a fourth map nothing observed
    /// into, unbounded registry series, a series per link — still load: the
    /// unknown key is ignored and an unbounded series stays as stored.
    #[test]
    fn registry_in_the_old_layout_still_deserialises() {
        let old = r#"{"counters":{"transport.allocations":{"value":3}},
            "gauges":{},
            "series":{"transport.link-0.utilization":
                {"points":[[60000000,0.25],[120000000,0.5]],"capacity":null}},
            "histograms":{}}"#;
        let mut reg: MetricRegistry = serde_json::from_str(old).unwrap();
        assert_eq!(reg.counter_value("transport.allocations"), Some(3));
        let link = reg.series_ref("transport.link-0.utilization").unwrap();
        assert_eq!(link.last(), Some((SimTime::from_secs(120), 0.5)));
        assert_eq!(reg.scalar_snapshot()["transport.link-0.utilization"], 0.5);
        // The restored controller books a gauge now; the report follows it.
        reg.gauge("transport.link-0.utilization").set(0.75);
        assert_eq!(reg.scalar_snapshot()["transport.link-0.utilization"], 0.75);
    }
}
