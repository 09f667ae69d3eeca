//! Order statistics over timing samples.

/// Median of `xs` (mean of the two middle values for even counts); NaN
/// for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` in (0, 1]: the smallest sample with at
/// least `p` of the samples at or below it. With `n` samples, `n - rank`
/// samples lie beyond it.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The p99 of a short series of operation times under a normal model:
/// `median + 2.326·σ̂`, with `σ̂ = 1.4826·MAD` (the median absolute
/// deviation scaled to a standard deviation). With a few dozen samples
/// the empirical p99 is the single slowest one, so one host hiccup moves
/// it by half; this estimate moves with the spread of the series
/// instead.
pub fn p99_from_spread(xs: &[f64]) -> f64 {
    let m = median(xs);
    let dev: Vec<f64> = xs.iter().map(|x| (x - m).abs()).collect();
    m + 2.326 * 1.4826 * median(&dev)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - ((p * n as f64).ceil() as usize).clamp(1, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn spread_based_p99_ignores_one_outlier() {
        let mut xs: Vec<f64> = (0..20).map(|i| 100.0 + f64::from(i % 5)).collect();
        let base = p99_from_spread(&xs);
        assert!(base > 102.0 && base < 110.0, "{base}");
        xs[3] = 1000.0;
        assert!((p99_from_spread(&xs) - base).abs() < 2.0);
    }

    #[test]
    fn nearest_rank_p99_leaves_ten_beyond_a_thousand() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), 990.0);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(percentile(&xs, 0.5), 500.0);
    }
}
