//! Order statistics over small samples.

/// Smallest of the samples.
pub fn fastest(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "minimum of no samples");
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Median of the samples (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The `q`-quantile of a latency histogram with equal-width buckets,
/// interpolated linearly inside the bucket that holds it. `None` without
/// samples.
pub fn histogram_quantile(buckets: &[u64], width: f64, q: f64) -> Option<f64> {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return None;
    }
    let rank = q * total as f64;
    let mut below = 0.0;
    for (i, &c) in buckets.iter().enumerate() {
        let c = c as f64;
        if c > 0.0 && below + c >= rank {
            return Some((i as f64 + (rank - below) / c) * width);
        }
        below += c;
    }
    Some(buckets.len() as f64 * width)
}
