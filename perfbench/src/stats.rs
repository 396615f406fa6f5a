//! Sample summaries: medians and tails that refuse to extrapolate.

/// A reported percentile needs at least this many samples beyond it;
/// with fewer, the "tail" is a handful of outliers, not a percentile.
pub const MIN_BEYOND: usize = 10;

/// Sorted samples of one quantity (one op type's latencies, say).
#[derive(Clone, Debug, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Take ownership of `values` and sort them (NaNs are not expected;
    /// they would sort last).
    pub fn new(mut values: Vec<f64>) -> Samples {
        values.sort_by(f64::total_cmp);
        Samples { sorted: values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Arithmetic mean, or `None` without samples.
    pub fn mean(&self) -> Option<f64> {
        (!self.sorted.is_empty()).then(|| self.sorted.iter().sum::<f64>() / self.len() as f64)
    }

    /// The `p`-th percentile (`0 < p < 100`) by nearest rank: the sample
    /// at rank `ceil(p/100 · n)`. Refuses (`Err` with the count beyond)
    /// unless at least [`MIN_BEYOND`] samples lie beyond that rank.
    pub fn percentile(&self, p: f64) -> Result<f64, usize> {
        assert!(p > 0.0 && p < 100.0, "percentile {p} out of (0, 100)");
        let n = self.sorted.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        let beyond = n.saturating_sub(rank);
        if n == 0 || rank == 0 || beyond < MIN_BEYOND {
            return Err(beyond);
        }
        Ok(self.sorted[rank - 1])
    }
}

/// `part / whole`, or 0 when nothing happened.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Samples {
        Samples::new((1..=n).rev().map(|i| i as f64).collect())
    }

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        // 200 samples: rank 190, exactly ten beyond.
        assert_eq!(ramp(200).percentile(95.0), Ok(190.0));
        // 199 samples: rank 190, nine beyond — refused.
        assert_eq!(ramp(199).percentile(95.0), Err(9));
        assert_eq!(ramp(0).percentile(95.0), Err(0));
    }

    #[test]
    fn median_is_nearest_rank_and_sorted() {
        let s = ramp(21);
        assert_eq!(s.percentile(50.0), Ok(11.0));
        assert_eq!(s.len(), 21);
        assert_eq!(s.mean(), Some(11.0));
        // Too few samples for even a median.
        assert!(ramp(19).percentile(50.0).is_err());
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
