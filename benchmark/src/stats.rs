//! Order statistics for the benchmark's own samples.

/// The `p`-th percentile (0 < p < 100) of `sorted`, nearest-rank.
///
/// Refuses (returns `None`) unless at least ten samples lie beyond it: a
/// p99 of 400 samples is decided by four of them, and one host stall
/// moves it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} outside (0, 100)");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input not sorted");
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let beyond = n.checked_sub(rank)?;
    if rank == 0 || beyond < 10 {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Sort `samples` in place (total order; the benchmark never produces NaN).
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(f64::total_cmp);
}

/// Median of `samples` (mean of the two middle values when even).
///
/// # Panics
/// Panics on an empty slice: every caller measures at least once.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    sort(&mut v);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First quartile, median and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` gives them (the "exclusive" method,
/// which is what the driver uses). Fewer than two samples: all three are
/// the one sample.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    assert!(!samples.is_empty(), "quartiles of no samples");
    let mut v = samples.to_vec();
    sort(&mut v);
    let n = v.len();
    if n < 2 {
        return [v[0]; 3];
    }
    let at = |i: usize| {
        // Position i·(n+1)/4 on a 1-based scale, clamped to the data.
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    [at(1), at(2), at(3)]
}

/// Interquartile range as a share of the median — the spread the driver
/// holds against a metric's bound.
pub fn spread(samples: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(samples);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        assert_eq!(percentile(&v, 50.0), Some(500.0));
        // 999 samples leave nine beyond the 99th percentile.
        assert_eq!(percentile(&v[..999], 99.0), None);
        assert_eq!(percentile(&v[..19], 50.0), None);
        assert_eq!(percentile(&v[..20], 50.0), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
