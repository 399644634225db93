//! The arithmetic every reported number goes through: medians, the rule for
//! which high percentile may be quoted, span self time, and drift.

/// Median of `values` (mean of the two middle values for an even count).
/// Sorts in place. `NaN` for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// First and third quartile of `values`, as Python's
/// `statistics.quantiles(values, n=4)` gives them (the driver's measure of
/// spread, so `compare` reports the same statistic). Sorts in place. `None`
/// below two values.
pub fn quartiles(values: &mut [f64]) -> Option<(f64, f64)> {
    let len = values.len();
    if len < 2 {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Nearest-rank percentile `p` (0–100) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentiles a report may quote above the median, highest first, in
/// tenths of a percent so the sample arithmetic is exact.
const QUOTABLE: [u64; 5] = [999, 990, 950, 900, 750];

/// The highest percentile that still has at least ten samples beyond it —
/// a tail estimated from fewer is noise. `None` below 40 samples.
pub fn highest_percentile(samples: usize) -> Option<f64> {
    QUOTABLE
        .into_iter()
        .find(|p| samples as u64 * (1000 - p) >= 10 * 1000)
        .map(|p| p as f64 / 10.0)
}

/// Median, and the highest quotable percentile with its value.
pub fn summarize(values: &mut [f64]) -> (f64, Option<(f64, f64)>) {
    let mid = median(values);
    let tail = highest_percentile(values.len()).map(|p| (p, percentile(values, p)));
    (mid, tail)
}

/// Median of the last tenth of `samples` over the median of the first tenth:
/// above 1 the operation got slower as the run aged. Needs twenty samples.
pub fn drift_ratio(samples: &[f64]) -> Option<f64> {
    let tenth = samples.len() / 10;
    if tenth < 2 {
        return None;
    }
    let first = median(&mut samples[..tenth].to_vec());
    let last = median(&mut samples[samples.len() - tenth..].to_vec());
    (first > 0.0).then(|| last / first)
}

/// Self time of every span: its duration minus the part its direct children
/// cover. `spans[i]` is `(start, end, parent)`; a parent precedes its
/// children, and children of one parent do not overlap.
pub fn self_times(spans: &[(u64, u64, Option<usize>)]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|&(start, end, _)| end - start).collect();
    for &(start, end, parent) in spans {
        if let Some(parent) = parent {
            own[parent] = own[parent].saturating_sub(end - start);
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&mut []).is_nan());
    }

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
        let mut ten: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(quartiles(&mut ten), Some((2.75, 8.25)));
        // statistics.quantiles([10, 30, 20], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&mut [10.0, 30.0, 20.0]), Some((10.0, 30.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&mut [1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&mut [1.0]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 95.0), 95.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
        assert_eq!(percentile(&sorted[..1], 99.0), 1.0);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_percentile(39), None);
        assert_eq!(highest_percentile(40), Some(75.0));
        assert_eq!(highest_percentile(99), Some(75.0));
        assert_eq!(highest_percentile(100), Some(90.0));
        assert_eq!(highest_percentile(200), Some(95.0));
        assert_eq!(highest_percentile(999), Some(95.0));
        assert_eq!(highest_percentile(1000), Some(99.0));
        assert_eq!(highest_percentile(10_000), Some(99.9));
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root 0..100 holds a (10..40) and b (50..90); a holds c (20..30).
        let spans = [
            (0, 100, None),
            (10, 40, Some(0)),
            (20, 30, Some(1)),
            (50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn drift_on_a_ramp() {
        let ramp: Vec<f64> = (0..100).map(|i| 1.0 + i as f64 / 99.0).collect();
        let drift = drift_ratio(&ramp).unwrap();
        // First tenth centres on 1.045, last tenth on 1.955.
        assert!((drift - 1.955 / 1.045).abs() < 0.01, "{drift}");
        assert_eq!(drift_ratio(&[1.0; 100]), Some(1.0));
        assert_eq!(drift_ratio(&[1.0; 19]), None);
    }
}
