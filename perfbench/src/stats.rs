//! Order statistics over timing samples.

/// Nearest-rank percentile (`q` in 0..=100) of unsorted samples; `None` for
/// an empty set. The same rank rule as `fuse_serve::LatencyRecorder`.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of unsorted samples (lower middle for even counts).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Arithmetic mean; `None` for an empty set.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// Number of samples strictly above the `q`-th percentile — how many
/// observations back a tail estimate.
pub fn beyond(samples: &[f64], q: f64) -> usize {
    match percentile(samples, q) {
        Some(p) => samples.iter().filter(|&&s| s > p).count(),
        None => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let s = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&s), Some(3.0));
        assert_eq!(percentile(&s, 90.0), Some(5.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(mean(&s), Some(3.0));
        assert_eq!(beyond(&s, 50.0), 2);
        assert_eq!(median(&[]), None);
    }
}
