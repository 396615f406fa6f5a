//! Property tests for relevance feedback and score calibration.

use cbvr_core::engine::{CatalogEntry, QueryEngine};
use cbvr_core::feedback::adapt_weights;
use cbvr_core::FeatureWeights;
use cbvr_features::{FeatureKind, FeatureSet};
use cbvr_imgproc::{Rgb, RgbImage};
use cbvr_index::RangeKey;
use proptest::prelude::*;
use std::collections::HashMap;

fn frame(seed: u8) -> RgbImage {
    RgbImage::from_fn(20, 20, |x, y| {
        Rgb::new(
            (x * 11).wrapping_add(seed as u32 * 53) as u8,
            (y * 7).wrapping_add(seed as u32 * 29) as u8,
            seed.wrapping_mul(17),
        )
    })
    .unwrap()
}

fn engine_of(seeds: &[u8]) -> (QueryEngine, Vec<FeatureSet>) {
    let sets: Vec<FeatureSet> = seeds
        .iter()
        .map(|&s| FeatureSet::extract(&frame(s)))
        .collect();
    let entries: Vec<CatalogEntry> = sets
        .iter()
        .enumerate()
        .map(|(i, s)| CatalogEntry {
            i_id: i as u64 + 1,
            v_id: 1,
            range: RangeKey::new(0, 255),
            features: s.clone(),
        })
        .collect();
    (
        QueryEngine::from_catalog(entries, HashMap::from([(1, "v".to_string())])),
        sets,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn adapted_weights_preserve_total_and_positivity(
        seeds in proptest::collection::vec(any::<u8>(), 4..8),
        rel_mask in proptest::collection::vec(any::<bool>(), 4..8),
    ) {
        let (engine, sets) = engine_of(&seeds);
        let query = &sets[0];
        let mut relevant = Vec::new();
        let mut irrelevant = Vec::new();
        for (set, &rel) in sets[1..].iter().zip(rel_mask.iter()) {
            if rel {
                relevant.push(set);
            } else {
                irrelevant.push(set);
            }
        }
        let base = FeatureWeights::uniform();
        let adapted = adapt_weights(&engine, query, &relevant, &irrelevant, &base);
        prop_assert!((adapted.total() - base.total()).abs() < 1e-6);
        for kind in FeatureKind::ALL {
            prop_assert!(adapted.get(kind) >= 0.0, "{kind} negative");
        }
    }

    #[test]
    fn calibration_similarities_are_probabilities(
        seeds in proptest::collection::vec(any::<u8>(), 2..8),
        distance in 0.0f64..1e6,
    ) {
        let (engine, _) = engine_of(&seeds);
        for kind in FeatureKind::ALL {
            let s = engine.calibration().similarity(kind, distance);
            prop_assert!((0.0..=1.0).contains(&s), "{kind}: {s}");
        }
    }
}
