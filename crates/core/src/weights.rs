//! Per-feature weights for the combined ranking.
//!
//! Table 1 shows the combined approach beating every single feature; the
//! paper does not publish its weights, so the default here weights each
//! feature by its standalone Table 1 strength (Gabor and Tamura highest,
//! plain histogram lowest). The ablation bench sweeps these.

use cbvr_features::FeatureKind;

/// A weight per feature kind. Weights are non-negative; at least one must
/// be positive for a combined query.
#[derive(Clone, Debug, PartialEq)]
pub struct FeatureWeights {
    weights: Vec<(FeatureKind, f64)>,
}

impl Default for FeatureWeights {
    /// Default weights, tuned on a held-out validation corpus (seed
    /// disjoint from every experiment seed; see the `ablation_weights`
    /// bench bin): robust features — Gabor, the autocorrelogram and the
    /// color histogram — carry most of the weight, noise-fragile ones
    /// (GLCM, region growing) contribute but cannot drag the mixture
    /// down. The paper never publishes its weights, only that the
    /// combination beats each single feature.
    fn default() -> Self {
        FeatureWeights {
            weights: vec![
                (FeatureKind::Glcm, 0.15),
                (FeatureKind::Gabor, 1.0),
                (FeatureKind::Tamura, 0.3),
                (FeatureKind::ColorHistogram, 0.55),
                (FeatureKind::Correlogram, 0.9),
                (FeatureKind::Regions, 0.1),
                (FeatureKind::Naive, 0.35),
            ],
        }
    }
}

impl FeatureWeights {
    /// Equal weight on every feature.
    pub fn uniform() -> FeatureWeights {
        FeatureWeights {
            weights: FeatureKind::ALL.iter().map(|&k| (k, 1.0)).collect(),
        }
    }

    /// All weight on a single feature (single-feature retrieval as a
    /// special case of the combined machinery).
    pub fn single(kind: FeatureKind) -> FeatureWeights {
        FeatureWeights {
            weights: FeatureKind::ALL
                .iter()
                .map(|&k| (k, if k == kind { 1.0 } else { 0.0 }))
                .collect(),
        }
    }

    /// Build from explicit pairs; missing kinds default to 0.
    pub fn from_pairs(pairs: &[(FeatureKind, f64)]) -> FeatureWeights {
        let mut weights: Vec<(FeatureKind, f64)> =
            FeatureKind::ALL.iter().map(|&k| (k, 0.0)).collect();
        for &(kind, w) in pairs {
            if let Some(slot) = weights.iter_mut().find(|(k, _)| *k == kind) {
                slot.1 = w.max(0.0);
            }
        }
        FeatureWeights { weights }
    }

    /// Weight for a kind.
    pub fn get(&self, kind: FeatureKind) -> f64 {
        self.weights
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or(0.0, |(_, w)| *w)
    }

    /// Set a kind's weight (negative values clamp to 0).
    pub fn set(&mut self, kind: FeatureKind, weight: f64) {
        if let Some(slot) = self.weights.iter_mut().find(|(k, _)| *k == kind) {
            slot.1 = weight.max(0.0);
        }
    }

    /// Sum of all weights.
    pub fn total(&self) -> f64 {
        self.weights.iter().map(|(_, w)| w).sum()
    }

    /// Kinds carrying positive weight.
    pub fn active_kinds(&self) -> Vec<FeatureKind> {
        self.weights
            .iter()
            .filter(|(_, w)| *w > 0.0)
            .map(|(k, _)| *k)
            .collect()
    }

    /// Weighted mean of per-kind similarities in `[0, 1]`.
    ///
    /// `similarity(kind)` must return a value in `[0, 1]`. Returns 0 when
    /// the total weight is 0.
    pub fn combine(&self, mut similarity: impl FnMut(FeatureKind) -> f64) -> f64 {
        let total = self.total();
        if total <= 0.0 {
            return 0.0;
        }
        let weighted: f64 = self
            .weights
            .iter()
            .filter(|(_, w)| *w > 0.0)
            .map(|&(k, w)| w * similarity(k).clamp(0.0, 1.0))
            .sum();
        weighted / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_prefers_gabor() {
        let w = FeatureWeights::default();
        assert!(w.get(FeatureKind::Gabor) > w.get(FeatureKind::ColorHistogram));
        assert!(w.total() > 0.0);
        assert_eq!(w.active_kinds().len(), 7);
    }

    #[test]
    fn single_isolates_one_kind() {
        let w = FeatureWeights::single(FeatureKind::Glcm);
        assert_eq!(w.get(FeatureKind::Glcm), 1.0);
        assert_eq!(w.get(FeatureKind::Gabor), 0.0);
        assert_eq!(w.active_kinds(), vec![FeatureKind::Glcm]);
    }

    #[test]
    fn combine_is_weighted_mean() {
        let w = FeatureWeights::from_pairs(&[(FeatureKind::Glcm, 1.0), (FeatureKind::Gabor, 3.0)]);
        // Glcm sim 0, Gabor sim 1 → 3/4.
        let s = w.combine(|k| if k == FeatureKind::Gabor { 1.0 } else { 0.0 });
        assert!((s - 0.75).abs() < 1e-12);
    }

    #[test]
    fn combine_clamps_out_of_range_similarities() {
        let w = FeatureWeights::single(FeatureKind::Naive);
        assert_eq!(w.combine(|_| 5.0), 1.0);
        assert_eq!(w.combine(|_| -3.0), 0.0);
    }

    #[test]
    fn zero_weights_combine_to_zero() {
        let w = FeatureWeights::from_pairs(&[]);
        assert_eq!(w.total(), 0.0);
        assert_eq!(w.combine(|_| 1.0), 0.0);
        assert!(w.active_kinds().is_empty());
    }

    #[test]
    fn set_clamps_negative() {
        let mut w = FeatureWeights::uniform();
        w.set(FeatureKind::Tamura, -4.0);
        assert_eq!(w.get(FeatureKind::Tamura), 0.0);
        w.set(FeatureKind::Tamura, 2.5);
        assert_eq!(w.get(FeatureKind::Tamura), 2.5);
    }
}
