//! Distance → similarity calibration.
//!
//! The seven native distances live on very different scales (GLCM's
//! normalised-statistics L2 tops out near √5, the naive signature is
//! already in `[0, 1]`, Gabor's L2 is unbounded). To combine them the
//! engine calibrates one scale per feature at build time: the median of
//! sampled catalog pairwise distances. A distance then maps to
//!
//! ```text
//! similarity(d) = 1 / (1 + d / median)
//! ```
//!
//! which sends `d = 0 → 1`, `d = median → 0.5`, and decays smoothly —
//! every feature's "typical" dissimilarity lands at the same 0.5, so no
//! feature dominates the weighted sum by unit choice alone.

use crate::arena::{stage_distance, Row};
use crate::pool::{ExecPool, THREADS_AUTO};
use crate::segment::{live_rows, Segment};
use cbvr_features::FeatureKind;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Per-feature distance scales (medians of sampled pairs), indexed by
/// the kind's discriminant — [`ScoreCalibration::scale`] is a direct
/// array load on the innermost scoring path, not a linear search.
#[derive(Clone, Debug, PartialEq)]
pub struct ScoreCalibration {
    scales: [f64; FeatureKind::ALL.len()],
}

impl Default for ScoreCalibration {
    /// Unit scales — usable, but [`ScoreCalibration::from_segments`] is
    /// strictly better once data exists.
    fn default() -> Self {
        ScoreCalibration {
            scales: [1.0; FeatureKind::ALL.len()],
        }
    }
}

/// Number of catalog pairs sampled per feature during calibration.
pub const CALIBRATION_PAIRS: usize = 256;

impl ScoreCalibration {
    /// Calibrate from the live rows of `segments` (rows of `tombstones`
    /// videos skipped), in global order: per kind, the median distance
    /// over a deterministic sample of row pairs, measured by the arena
    /// kernels ranking uses. Degenerate cases (fewer than two rows,
    /// all-zero distances) keep scale 1.
    pub fn from_segments(
        segments: &[Arc<Segment>],
        tombstones: &BTreeSet<u64>,
    ) -> ScoreCalibration {
        let rows: Vec<Row> = live_rows(segments, tombstones)
            .map(|(seg, i)| (seg.arena(), i))
            .collect();
        // The seven kinds sample independently (each has its own seeded
        // pair stream), so they fan out across the shared pool. The
        // output is placed by discriminant, not completion order, so the
        // result is identical to a serial loop.
        let per_kind = ExecPool::global().map(&FeatureKind::ALL, 1, THREADS_AUTO, |_, &kind| {
            let mut distances: Vec<f64> = sample_pairs(kind, rows.len())
                .into_iter()
                .map(|(i, j)| stage_distance(kind, rows[i], rows[j]))
                .collect();
            (kind, median_positive(&mut distances).unwrap_or(1.0))
        });
        let mut scales = [1.0; FeatureKind::ALL.len()];
        for (kind, scale) in per_kind {
            scales[kind as usize] = scale;
        }
        ScoreCalibration { scales }
    }

    /// The scale for a kind.
    pub fn scale(&self, kind: FeatureKind) -> f64 {
        self.scales[kind as usize]
    }

    /// Map a native distance to a similarity in `(0, 1]`.
    pub fn similarity(&self, kind: FeatureKind, distance: f64) -> f64 {
        similarity_for_scale(self.scale(kind), distance)
    }
}

/// The similarity mapping for a single known scale — the exact formula
/// [`ScoreCalibration::similarity`] uses, exposed so the arena can apply
/// it to one stage at a time with identical rounding.
pub fn similarity_for_scale(scale: f64, distance: f64) -> f64 {
    if distance <= 0.0 {
        return 1.0;
    }
    1.0 / (1.0 + distance / scale)
}

/// The calibration sample for `kind` over `n` rows: index pairs from a
/// deterministic xorshift stream of [`CALIBRATION_PAIRS`] draws, self
/// pairs skipped. Fewer than two rows sample nothing.
fn sample_pairs(kind: FeatureKind, n: usize) -> Vec<(usize, usize)> {
    let mut state = 0x51ED_2701_9CC5_B3A7u64 ^ (kind as u64).wrapping_mul(0x9E37);
    let mut draw = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n as u64) as usize
    };
    let draws = if n < 2 { 0 } else { CALIBRATION_PAIRS };
    (0..draws)
        .map(|_| (draw(), draw()))
        .filter(|(i, j)| i != j)
        .collect()
}

/// Median of the strictly-positive entries; `None` when there are none.
fn median_positive(values: &mut Vec<f64>) -> Option<f64> {
    values.retain(|v| *v > 0.0 && v.is_finite());
    if values.is_empty() {
        return None;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    Some(values[values.len() / 2])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CatalogEntry;
    use cbvr_features::FeatureSet;
    use cbvr_imgproc::{Rgb, RgbImage};
    use cbvr_index::RangeKey;

    fn set(seed: u8) -> FeatureSet {
        let img = RgbImage::from_fn(24, 24, |x, y| {
            Rgb::new(
                (x * 10).wrapping_add(seed as u32 * 31) as u8,
                (y * 10) as u8,
                seed.wrapping_mul(7),
            )
        })
        .unwrap();
        FeatureSet::extract(&img)
    }

    /// Calibrate over `sets` sealed as arena rows, in order.
    fn calibrate(sets: &[FeatureSet]) -> ScoreCalibration {
        let entries = sets
            .iter()
            .enumerate()
            .map(|(i, s)| CatalogEntry {
                i_id: i as u64 + 1,
                v_id: 1,
                range: RangeKey::new(0, 255),
                features: s.clone(),
            })
            .collect();
        ScoreCalibration::from_segments(&[Arc::new(Segment::seal(0, entries))], &BTreeSet::new())
    }

    #[test]
    fn zero_distance_is_perfect_similarity() {
        let cal = ScoreCalibration::default();
        for k in FeatureKind::ALL {
            assert_eq!(cal.similarity(k, 0.0), 1.0);
        }
    }

    #[test]
    fn similarity_decreases_with_distance() {
        let cal = ScoreCalibration::default();
        let k = FeatureKind::Gabor;
        assert!(cal.similarity(k, 0.1) > cal.similarity(k, 1.0));
        assert!(cal.similarity(k, 1.0) > cal.similarity(k, 10.0));
        assert!(cal.similarity(k, 1e12) > 0.0, "never exactly zero");
    }

    #[test]
    fn median_distance_maps_to_half() {
        let sets: Vec<FeatureSet> = (0..10).map(set).collect();
        let cal = calibrate(&sets);
        for k in FeatureKind::ALL {
            let m = cal.scale(k);
            assert!((cal.similarity(k, m) - 0.5).abs() < 1e-12, "{k}");
        }
    }

    #[test]
    fn calibration_is_deterministic() {
        let sets: Vec<FeatureSet> = (0..8).map(set).collect();
        assert_eq!(calibrate(&sets), calibrate(&sets));
    }

    #[test]
    fn degenerate_catalogs_fall_back_to_unit_scale() {
        let cal = calibrate(&[]);
        assert_eq!(cal.scale(FeatureKind::Glcm), 1.0);
        let one = set(0);
        let cal = calibrate(std::slice::from_ref(&one));
        assert_eq!(cal.scale(FeatureKind::Glcm), 1.0);
        // Identical sets → all distances zero → unit scale.
        let cal = calibrate(&[one.clone(), one.clone(), one]);
        assert_eq!(cal.scale(FeatureKind::Naive), 1.0);
    }

    #[test]
    fn arena_scales_match_the_f64_reference_median() {
        // The arena kernels run on f32 rows; over the same sampled pairs
        // their medians stay within 1e-5 relative of the f64
        // `FeatureSet::distance` medians.
        for seed in 0..4u32 {
            let sets: Vec<FeatureSet> = (0..24u32)
                .map(|i| {
                    // Blocky pseudo-random frames: 4×4 cells of one colour.
                    let img = RgbImage::from_fn(20, 20, |x, y| {
                        let cell = (seed * 24 + i) * 25 + (y / 4) * 5 + x / 4;
                        let h = cell.wrapping_mul(0x9E37_79B9).rotate_left(13);
                        Rgb::new(h as u8, (h >> 8) as u8, (h >> 16) as u8)
                    })
                    .unwrap();
                    FeatureSet::extract(&img)
                })
                .collect();
            let cal = calibrate(&sets);
            for kind in FeatureKind::ALL {
                let mut reference: Vec<f64> = sample_pairs(kind, sets.len())
                    .into_iter()
                    .map(|(i, j)| sets[i].distance(&sets[j], kind))
                    .collect();
                let want = median_positive(&mut reference).unwrap_or(1.0);
                let got = cal.scale(kind);
                assert!(
                    (got - want).abs() <= 1e-5 * want,
                    "{kind} seed {seed}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn median_positive_behaviour() {
        assert_eq!(median_positive(&mut vec![]), None);
        assert_eq!(median_positive(&mut vec![0.0, -1.0]), None);
        assert_eq!(median_positive(&mut vec![3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median_positive(&mut vec![1.0, f64::INFINITY]), Some(1.0));
    }
}
