//! Exact order statistics over recorded samples.
//!
//! A percentile is read off the sorted samples by nearest rank (no
//! histogram buckets), and is refused when fewer than [`MIN_TAIL`] samples
//! lie beyond it: a tail estimated from a handful of samples swings from
//! run to run and cannot be gated on.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of repeated measurements (mean of the middle two for even
/// counts); NaN, which no result line accepts, when nothing was measured.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `q`-quantile (`0 < q < 1`) by nearest rank: the smallest sample
/// with at least `q·n` samples at or below it. `None` when fewer than
/// [`MIN_TAIL`] samples lie beyond it.
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    let n = xs.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n == 0 || n - rank < MIN_TAIL {
        return None;
    }
    Some(sorted(xs)[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the functions must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_is_exact() {
        // 200 samples 1..=200: p95 is the 190th smallest, p50 the 100th.
        assert_eq!(percentile(&ramp(200), 0.95), Some(190.0));
        assert_eq!(percentile(&ramp(200), 0.50), Some(100.0));
        // Not interpolated: 1000 samples put p95 on sample 950 exactly.
        assert_eq!(percentile(&ramp(1000), 0.95), Some(950.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p95 of 200 leaves exactly 10 beyond; of 199 only 9.
        assert!(percentile(&ramp(200), 0.95).is_some());
        assert_eq!(percentile(&ramp(199), 0.95), None);
        // The median needs 20 samples.
        assert!(percentile(&ramp(20), 0.5).is_some());
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }
}
