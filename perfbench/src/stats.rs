//! Order statistics with the benchmark's sample-size rule.

/// Nearest-rank percentile of an ascending slice: the value at rank
/// `ceil(q·n)` (1-based), with the number of samples strictly after
/// that rank. `None` on an empty slice.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<(f64, usize)> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some((sorted[rank - 1], n - rank))
}

/// A percentile reported only when the sample supports it.
pub const MIN_BEYOND: usize = 10;

/// The `q`-percentile of an ascending slice if at least [`MIN_BEYOND`]
/// samples lie beyond it, else `None`.
pub fn supported_percentile(sorted: &[f64], q: f64) -> Option<f64> {
    nearest_rank(sorted, q).and_then(|(v, beyond)| (beyond >= MIN_BEYOND).then_some(v))
}

/// Median of unsorted values (mean of the middle pair for even `n`).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Sorts a copy ascending; infinities (failed jobs) sort last.
pub fn sorted(values: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_ten_samples_beyond() {
        // 100 samples: rank 90, ten beyond -> supported.
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 0.9), Some((90.0, 10)));
        assert_eq!(supported_percentile(&s, 0.9), Some(90.0));
        // 99 samples: rank ceil(89.1) = 90, nine beyond -> not supported.
        let s: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 0.9), Some((90.0, 9)));
        assert_eq!(supported_percentile(&s, 0.9), None);
        // The median of 21 samples has ten beyond.
        let s: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(supported_percentile(&s, 0.5), Some(11.0));
        assert_eq!(supported_percentile(&[], 0.5), None);
    }

    #[test]
    fn failed_jobs_miss_every_limit() {
        let mut v = vec![3.0, 1.0, f64::INFINITY, 2.0];
        v.extend(std::iter::repeat_n(f64::INFINITY, 96));
        let s = sorted(v);
        assert_eq!(s[0], 1.0);
        // Most jobs failed: p50 and p90 are infinite, never a finite guess.
        assert_eq!(nearest_rank(&s, 0.5).map(|r| r.0), Some(f64::INFINITY));
        assert_eq!(supported_percentile(&s, 0.9), Some(f64::INFINITY));
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
