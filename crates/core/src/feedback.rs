//! Relevance feedback: adapting the combined weights from user judgments.
//!
//! The paper's system "can help users to retrieve desired video ...
//! through user interactions" (§1) and cites interactive user-oriented
//! retrieval \[12\]; its user study collects exactly the relevant /
//! not-relevant marks this module consumes. One round of feedback
//! re-weights the feature mixture toward the features that actually
//! *separate* what this user marked relevant from what they rejected —
//! a feature-level Rocchio step.
//!
//! For each feature `k`, with calibrated similarities `s_k(q, ·)`:
//!
//! ```text
//! gap_k   = mean s_k(q, relevant) − mean s_k(q, irrelevant)
//! w'_k    = w_k · (ε + max(0, gap_k))           (then renormalised)
//! ```
//!
//! Features that rank the user's positives above their negatives gain
//! weight; features that cannot tell them apart decay toward the floor
//! `ε` (never to zero — one round of feedback should adjust, not
//! amputate).

use crate::engine::QueryEngine;
use crate::weights::FeatureWeights;
use cbvr_features::{FeatureKind, FeatureSet};

/// Fraction of a feature's weight that survives even when its gap is
/// zero or negative.
const FLOOR: f64 = 0.1;

/// One round of relevance feedback.
///
/// `relevant` / `irrelevant` are the feature sets of results the user
/// marked; both may be empty (an empty side contributes a neutral mean of
/// 0, so only the other side drives the gap). The result preserves the
/// total weight of `base` so combined scores stay on the same scale.
pub fn adapt_weights(
    engine: &QueryEngine,
    query: &FeatureSet,
    relevant: &[&FeatureSet],
    irrelevant: &[&FeatureSet],
    base: &FeatureWeights,
) -> FeatureWeights {
    if relevant.is_empty() && irrelevant.is_empty() {
        return base.clone();
    }
    let mean_sim = |kind: FeatureKind, sets: &[&FeatureSet]| -> f64 {
        if sets.is_empty() {
            return 0.0;
        }
        sets.iter()
            .map(|s| {
                engine
                    .calibration()
                    .similarity(kind, query.distance(s, kind))
            })
            .sum::<f64>()
            / sets.len() as f64
    };

    let mut pairs = Vec::with_capacity(FeatureKind::ALL.len());
    let mut new_total = 0.0;
    for kind in FeatureKind::ALL {
        let w = base.get(kind);
        let gap = mean_sim(kind, relevant) - mean_sim(kind, irrelevant);
        let adjusted = w * (FLOOR + gap.max(0.0));
        pairs.push((kind, adjusted));
        new_total += adjusted;
    }
    // Renormalise to the base total; degenerate all-zero case falls back.
    let base_total = base.total();
    if new_total <= 0.0 || base_total <= 0.0 {
        return base.clone();
    }
    for (_, w) in &mut pairs {
        *w *= base_total / new_total;
    }
    FeatureWeights::from_pairs(&pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CatalogEntry;
    use cbvr_imgproc::{Rgb, RgbImage};
    use cbvr_index::RangeKey;
    use std::collections::HashMap;

    fn frame(seed: u8) -> RgbImage {
        RgbImage::from_fn(24, 24, |x, y| {
            Rgb::new(
                (x * 9).wrapping_add(seed as u32 * 37) as u8,
                (y * 9) as u8,
                seed.wrapping_mul(11),
            )
        })
        .unwrap()
    }

    fn engine_with(sets: &[FeatureSet]) -> QueryEngine {
        let entries: Vec<CatalogEntry> = sets
            .iter()
            .enumerate()
            .map(|(i, s)| CatalogEntry {
                i_id: i as u64 + 1,
                v_id: 1,
                range: RangeKey::new(0, 127),
                features: s.clone(),
            })
            .collect();
        QueryEngine::from_catalog(entries, HashMap::from([(1, "v".to_string())]))
    }

    #[test]
    fn no_feedback_returns_base() {
        let sets: Vec<FeatureSet> = (0..4).map(|i| FeatureSet::extract(&frame(i))).collect();
        let engine = engine_with(&sets);
        let base = FeatureWeights::default();
        let out = adapt_weights(&engine, &sets[0], &[], &[], &base);
        assert_eq!(out, base);
    }

    #[test]
    fn total_weight_is_preserved() {
        let sets: Vec<FeatureSet> = (0..6)
            .map(|i| FeatureSet::extract(&frame(i * 20)))
            .collect();
        let engine = engine_with(&sets);
        let base = FeatureWeights::uniform();
        let out = adapt_weights(&engine, &sets[0], &[&sets[1]], &[&sets[4], &sets[5]], &base);
        assert!((out.total() - base.total()).abs() < 1e-9);
    }

    #[test]
    fn discriminating_feature_gains_weight() {
        // Query and relevant share color (same flat hue family), the
        // irrelevant differs wildly in color but has similar texture
        // (all flat) → color features should gain on texture features.
        let query = FeatureSet::extract(&RgbImage::filled(24, 24, Rgb::new(200, 40, 40)).unwrap());
        let rel = FeatureSet::extract(&RgbImage::filled(24, 24, Rgb::new(190, 50, 45)).unwrap());
        let irr = FeatureSet::extract(&RgbImage::filled(24, 24, Rgb::new(30, 40, 220)).unwrap());
        let catalog = vec![query.clone(), rel.clone(), irr.clone()];
        let engine = engine_with(&catalog);
        let base = FeatureWeights::uniform();
        let out = adapt_weights(&engine, &query, &[&rel], &[&irr], &base);

        let color_share = out.get(FeatureKind::ColorHistogram) + out.get(FeatureKind::Naive);
        let texture_share = out.get(FeatureKind::Glcm) + out.get(FeatureKind::Gabor);
        assert!(
            color_share > texture_share,
            "color {color_share} should outweigh texture {texture_share}: {out:?}"
        );
    }

    #[test]
    fn no_weight_goes_negative_and_none_vanishes() {
        let sets: Vec<FeatureSet> = (0..5)
            .map(|i| FeatureSet::extract(&frame(i * 40)))
            .collect();
        let engine = engine_with(&sets);
        let base = FeatureWeights::default();
        let out = adapt_weights(&engine, &sets[0], &[&sets[1]], &[&sets[2], &sets[3]], &base);
        for kind in FeatureKind::ALL {
            if base.get(kind) > 0.0 {
                assert!(out.get(kind) > 0.0, "{kind} vanished");
            }
        }
    }

    #[test]
    fn feedback_improves_ranking_of_marked_relevant() {
        // After boosting the separating features, the relevant item's
        // combined similarity should not fall relative to the irrelevant.
        let query = FeatureSet::extract(&RgbImage::filled(24, 24, Rgb::new(220, 30, 30)).unwrap());
        let rel = FeatureSet::extract(&RgbImage::filled(24, 24, Rgb::new(210, 45, 35)).unwrap());
        let irr = FeatureSet::extract(&RgbImage::filled(24, 24, Rgb::new(20, 30, 200)).unwrap());
        let engine = engine_with(&[query.clone(), rel.clone(), irr.clone()]);
        let base = FeatureWeights::uniform();
        let adapted = adapt_weights(&engine, &query, &[&rel], &[&irr], &base);

        let margin = |w: &FeatureWeights| {
            engine.combined_similarity(&query, &rel, w)
                - engine.combined_similarity(&query, &irr, w)
        };
        assert!(
            margin(&adapted) >= margin(&base) - 1e-9,
            "feedback should not shrink the relevance margin: {} vs {}",
            margin(&adapted),
            margin(&base)
        );
    }
}
