//! Estimators shared by every workload: nearest-rank percentiles and the
//! median-of-slices estimator that makes a timing repeat on a shared box.

/// Number of equal-count, time-ordered slices a run is cut into. Every
/// timing and rate metric is computed per slice and the median slice is
/// reported: one noisy stretch of a run (a neighbour's burst on a shared
/// 2-core box) moves one slice, not the reported number.
pub const SLICES: usize = 8;

/// Nearest-rank percentile (`q` in `0..=1`) of an unsorted sample.
///
/// # Panics
///
/// Panics on an empty sample: a workload that timed nothing has no latency.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// [`percentile`], reading `0.0` for an empty sample: what a per-layer
/// metric reports for a layer the run never called.
pub fn percentile_or_zero(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        percentile(values, q)
    }
}

/// Median (nearest-rank 50th percentile) of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Arithmetic mean; `0.0` for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A per-slice estimate: the median slice plus the run's own spread.
#[derive(Debug, Clone, PartialEq)]
pub struct SliceEstimate {
    /// The median of the per-slice values — the reported number.
    pub median: f64,
    /// The smallest per-slice value.
    pub min: f64,
    /// The largest per-slice value.
    pub max: f64,
    /// Every slice's value, in time order.
    pub per_slice: Vec<f64>,
}

/// The `[start, end)` bounds of slice `k` of `len` time-ordered samples cut
/// into `slices` equal-count parts (the remainder goes to the later slices).
pub fn slice_bounds(len: usize, slices: usize, k: usize) -> (usize, usize) {
    (k * len / slices, (k + 1) * len / slices)
}

/// Applies `estimator` to each non-empty equal-count slice of the
/// time-ordered `samples` and reports the median slice.
///
/// With fewer samples than slices every sample is its own slice.
pub fn median_of_slices<T>(samples: &[T], slices: usize, estimator: impl Fn(&[T]) -> f64) -> SliceEstimate {
    assert!(!samples.is_empty(), "median of slices of an empty sample");
    let slices = slices.clamp(1, samples.len());
    let per_slice: Vec<f64> = (0..slices)
        .map(|k| {
            let (start, end) = slice_bounds(samples.len(), slices, k);
            estimator(&samples[start..end])
        })
        .collect();
    SliceEstimate {
        median: median(&per_slice),
        min: per_slice.iter().copied().fold(f64::INFINITY, f64::min),
        max: per_slice.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        per_slice,
    }
}

/// One timed operation: when it started and ended on the wall-clock, in
/// nanoseconds since the run's epoch, and how much CPU time the process
/// spent in between (see [`crate::machine`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timed {
    /// Start of the operation.
    pub start_ns: u64,
    /// End of the operation.
    pub end_ns: u64,
    /// CPU time of the process between the two.
    pub cpu_ns: u64,
}

impl Timed {
    /// Wall-clock duration in milliseconds.
    pub fn wall_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Median and tail latency of time-ordered latencies (ms), each a median of
/// [`SLICES`] slices.
pub fn latency_summary(latencies_ms: &[f64], tail_q: f64) -> (SliceEstimate, SliceEstimate) {
    (
        median_of_slices(latencies_ms, SLICES, |s| percentile(s, 0.5)),
        median_of_slices(latencies_ms, SLICES, |s| percentile(s, tail_q)),
    )
}

/// The median of a handful of per-slice values computed elsewhere.
pub fn median_slice(per_slice: &[f64]) -> SliceEstimate {
    median_of_slices(per_slice, per_slice.len(), |s| s[0])
}

/// Units of work per second of time-ordered `(units, seconds)` operations,
/// per slice: a slice's units over its seconds.
pub fn rate(work: &[(f64, f64)]) -> SliceEstimate {
    median_of_slices(work, SLICES, |slice| {
        let (units, seconds) = slice.iter().fold((0.0, 0.0), |(u, s), &(du, ds)| (u + du, s + ds));
        units / seconds.max(f64::MIN_POSITIVE)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_on_known_vectors() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(percentile_or_zero(&[], 0.5), 0.0);
        assert_eq!(percentile_or_zero(&[2.0, 9.0], 0.5), 2.0);
    }

    #[test]
    fn slices_partition_the_sample() {
        for len in [8usize, 9, 15, 1000, 1003] {
            let mut covered = 0;
            for k in 0..SLICES {
                let (start, end) = slice_bounds(len, SLICES, k);
                assert_eq!(start, covered);
                assert!(end > start);
                covered = end;
            }
            assert_eq!(covered, len);
        }
    }

    #[test]
    fn median_of_slices_ignores_one_noisy_slice() {
        // 8 slices of 10 samples: seven quiet slices at 1.0, one at 100.0.
        let mut samples = vec![1.0; 80];
        samples[30..40].fill(100.0);
        let estimate = median_of_slices(&samples, SLICES, |s| percentile(s, 0.99));
        assert_eq!(estimate.median, 1.0);
        assert_eq!(estimate.min, 1.0);
        assert_eq!(estimate.max, 100.0);
        // Fewer samples than slices: each sample is a slice.
        let few = median_of_slices(&[5.0, 1.0, 3.0], SLICES, |s| s[0]);
        assert_eq!((few.median, few.min, few.max), (3.0, 1.0, 5.0));
    }

    #[test]
    fn latency_and_rate_are_reported_per_slice() {
        // 16 operations of 10 ms each: 100 operations per second.
        let latencies = vec![10.0; 16];
        let (p50, tail) = latency_summary(&latencies, 0.9);
        assert_eq!((p50.median, tail.median), (10.0, 10.0));
        let work = vec![(1.0, 0.010); 16];
        assert!((rate(&work).median - 100.0).abs() < 1e-9);
        // One stalled slice (operations 8 and 9 took 260 ms each) moves the
        // spread, not the reported rate.
        let mut stalled = work.clone();
        stalled[8].1 = 0.260;
        stalled[9].1 = 0.260;
        let stalled = rate(&stalled);
        assert!((stalled.median - 100.0).abs() < 1e-9);
        assert!(stalled.min < 5.0);
        // Units weigh: 30 transitions in 0.3 s and 10 in 0.1 s are 100 per second.
        assert!((rate(&[(30.0, 0.3), (10.0, 0.1)]).median - 100.0).abs() < 1e-9);
        assert_eq!(median_slice(&[3.0, 9.0, 1.0]).median, 3.0);
        assert_eq!(Timed { start_ns: 1_000_000, end_ns: 3_500_000, cpu_ns: 7 }.wall_ms(), 2.5);
    }
}
