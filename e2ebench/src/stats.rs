//! The benchmark's own arithmetic: nearest-rank percentiles and the tail
//! rule every reported tail follows.

/// 1-based nearest rank of quantile `q` among `n` samples: the smallest
/// rank with at least a `q` share of the samples at or below it.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of ascending-sorted `sorted`; 0 when empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// Median of unsorted `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// An ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// A tail percentile together with the rule's bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The quantile actually reported (`rank / n`).
    pub quantile: f64,
    /// The sample at that rank.
    pub value: f64,
    /// Samples ranked strictly beyond it.
    pub beyond: usize,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The tail of ascending-sorted `sorted`: p95 when at least
/// [`TAIL_BEYOND`] samples lie beyond it, otherwise the highest
/// percentile that still has that many beyond it, but never below the
/// median (with too few samples the tail is not resolvable, and the
/// median is reported in its place).
pub fn tail(sorted: &[f64]) -> Tail {
    let n = sorted.len();
    if n == 0 {
        return Tail {
            quantile: 0.0,
            value: 0.0,
            beyond: 0,
        };
    }
    let p95 = rank(n, 0.95);
    let r = if n - p95 >= TAIL_BEYOND {
        p95
    } else {
        n.saturating_sub(TAIL_BEYOND).max(rank(n, 0.5))
    };
    Tail {
        quantile: r as f64 / n as f64,
        value: sorted[r - 1],
        beyond: n - r,
    }
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn share(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(10);
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.95), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_is_p95_when_ten_samples_lie_beyond_it() {
        // 200 samples: p95 is rank 190, exactly ten beyond.
        let t = tail(&ramp(200));
        assert_eq!((t.quantile, t.value, t.beyond), (0.95, 190.0, 10));
        // More samples keep p95 with more beyond it.
        let t = tail(&ramp(400));
        assert_eq!((t.quantile, t.value, t.beyond), (0.95, 380.0, 20));
    }

    #[test]
    fn tail_falls_back_to_the_highest_percentile_with_ten_beyond() {
        // 199 samples: p95 (rank 190) has only nine beyond, so the rule
        // takes rank 189, the highest with ten beyond.
        let t = tail(&ramp(199));
        assert_eq!((t.value, t.beyond), (189.0, 10));
        assert!(t.quantile < 0.95);
        let t = tail(&ramp(100));
        assert_eq!((t.quantile, t.value, t.beyond), (0.9, 90.0, 10));
    }

    #[test]
    fn tail_never_drops_below_the_median() {
        // 15 samples: no percentile above the median has ten beyond it.
        let t = tail(&ramp(15));
        assert_eq!((t.value, t.beyond), (8.0, 7));
        assert_eq!(t.value, median(&ramp(15)));
        let t = tail(&ramp(1));
        assert_eq!((t.quantile, t.value, t.beyond), (1.0, 1.0, 0));
        assert_eq!(tail(&[]).value, 0.0);
    }
}
