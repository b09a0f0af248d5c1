//! Offline shim for `criterion`.
//!
//! Only the robust statistics survive: the median and the median
//! absolute deviation over samples surviving a 1.5×IQR outlier fence,
//! rather than a wall-clock mean, which a single scheduler hiccup can
//! drag arbitrarily far. The `multisplit` bench times its own runs and
//! summarizes them here.

/// Robust summary of a sample set: median and median absolute
/// deviation after rejecting points outside the 1.5×IQR fences.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RobustStats {
    /// Median of the surviving samples, in seconds.
    pub median: f64,
    /// Median absolute deviation of the surviving samples, in seconds.
    pub mad: f64,
    /// Samples surviving the outlier fence.
    pub kept: usize,
    /// Samples rejected as outliers.
    pub rejected: usize,
}

/// Median of an already-sorted slice (midpoint average for even n).
fn sorted_median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Compute [`RobustStats`] over raw samples (seconds). Quartiles use
/// the simple midpoint-of-halves rule; a single sample passes through
/// unfenced.
pub fn robust_stats(samples: &[f64]) -> RobustStats {
    assert!(!samples.is_empty());
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    let kept: Vec<f64> = if sorted.len() < 4 {
        // Too few points for meaningful quartiles — keep everything.
        sorted.clone()
    } else {
        let half = sorted.len() / 2;
        let q1 = sorted_median(&sorted[..half]);
        let q3 = sorted_median(&sorted[sorted.len() - half..]);
        let iqr = q3 - q1;
        let (lo, hi) = (q1 - 1.5 * iqr, q3 + 1.5 * iqr);
        sorted.iter().copied().filter(|&s| s >= lo && s <= hi).collect()
    };
    let median = sorted_median(&kept);
    let mut dev: Vec<f64> = kept.iter().map(|&s| (s - median).abs()).collect();
    dev.sort_by(|a, b| a.partial_cmp(b).expect("deviations are finite"));
    let mad = sorted_median(&dev);
    RobustStats { median, mad, kept: kept.len(), rejected: samples.len() - kept.len() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_mad_of_clean_samples() {
        let s = robust_stats(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.mad, 1.0);
        assert_eq!((s.kept, s.rejected), (5, 0));
    }

    #[test]
    fn iqr_fence_rejects_a_scheduler_spike() {
        // Nine tight samples and one 100× spike: the mean would be
        // dragged to ~11, the fenced median stays at the true value.
        let mut samples = vec![1.0; 9];
        samples.push(100.0);
        let s = robust_stats(&samples);
        assert_eq!(s.median, 1.0);
        assert_eq!(s.mad, 0.0);
        assert_eq!((s.kept, s.rejected), (9, 1));
    }

    #[test]
    fn tiny_sample_sets_pass_through() {
        let s = robust_stats(&[5.0]);
        assert_eq!(s.median, 5.0);
        assert_eq!((s.kept, s.rejected), (1, 0));
        let s = robust_stats(&[1.0, 1000.0]);
        assert_eq!(s.median, 500.5);
        assert_eq!(s.rejected, 0);
    }
}
