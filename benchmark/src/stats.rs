//! Order statistics over measured samples.

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` by linear interpolation
/// between order statistics; 0 for an empty slice. Sorts in place.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (samples.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    samples[lo] + (samples[hi] - samples[lo]) * (pos - lo as f64)
}

/// The median of `samples` (0 for an empty slice). Sorts in place.
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// [`quantile`] over integer samples (nanoseconds, microseconds).
pub fn quantile_u64(samples: &[u64], q: f64) -> f64 {
    let mut v: Vec<f64> = samples.iter().map(|&s| s as f64).collect();
    quantile(&mut v, q)
}

/// The arithmetic mean of integer samples (0 for an empty slice).
pub fn mean_u64(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().map(|&s| s as f64).sum::<f64>() / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert_eq!(median(&mut []), 0.0);
        assert_eq!(mean_u64(&[1, 2, 6]), 3.0);
    }
}
