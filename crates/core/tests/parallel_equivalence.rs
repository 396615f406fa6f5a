//! Parallel paths must be bit-identical to the serial (`threads = 1`)
//! path: the pool only changes *who* computes each candidate, never the
//! arithmetic or the selected set. These tests pin that contract for
//! frame scoring, clip DTW and the per-(frame, kind) extraction fan-out
//! (ingest and query frames alike) over randomised catalogs and every
//! interesting `k` regime.

use cbvr_core::engine::CatalogEntry;
use cbvr_core::{FeatureWeights, QueryEngine, QueryOptions, THREADS_AUTO};
use cbvr_features::FeatureSet;
use cbvr_imgproc::{Histogram256, Rgb, RgbImage};
use cbvr_index::{paper_range, RangeKey};
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Force the global pool to spawn real helper threads even on a
/// single-core host, so these tests genuinely race chunk claims.
/// Every test sets the same value, and it is read exactly once (at the
/// pool's first use), so the cross-test race is benign.
fn force_parallel_pool() {
    std::env::set_var("CBVR_POOL_HELPERS", "3");
}

/// A small random frame (random enough that scores are distinct, small
/// enough that extracting dozens of feature sets stays fast).
fn random_frame(rng: &mut rand::rngs::StdRng) -> RgbImage {
    let base = Rgb::new(
        rng.gen_range(0..=255u8),
        rng.gen_range(0..=255u8),
        rng.gen_range(0..=255u8),
    );
    let fx = rng.gen_range(1..=7u32);
    let fy = rng.gen_range(1..=7u32);
    RgbImage::from_fn(24, 24, |x, y| {
        Rgb::new(
            base.r.wrapping_add((x * fx) as u8),
            base.g.wrapping_add((y * fy) as u8),
            base.b.wrapping_add(((x + y) * 3) as u8),
        )
    })
    .unwrap()
}

fn entry_from_frame(i_id: u64, v_id: u64, frame: &RgbImage) -> CatalogEntry {
    CatalogEntry {
        i_id,
        v_id,
        range: paper_range(&Histogram256::of_rgb_luma(frame)),
        features: FeatureSet::extract(frame),
    }
}

/// Build a random catalog of `n` entries spread over `videos` videos,
/// plus a query feature set + range.
fn random_catalog(seed: u64, n: usize, videos: u64) -> (QueryEngine, FeatureSet, RangeKey) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut entries = Vec::with_capacity(n);
    for i in 0..n {
        let frame = random_frame(&mut rng);
        entries.push(entry_from_frame(
            i as u64 + 1,
            (i as u64 % videos) + 1,
            &frame,
        ));
    }
    let names: HashMap<u64, String> = (1..=videos).map(|v| (v, format!("video_{v}"))).collect();
    let engine = QueryEngine::from_catalog(entries, names);
    let probe = random_frame(&mut rng);
    let range = paper_range(&Histogram256::of_rgb_luma(&probe));
    (engine, FeatureSet::extract(&probe), range)
}

fn options(k: usize, threads: usize, use_index: bool) -> QueryOptions {
    QueryOptions {
        k,
        threads,
        use_index,
        ..QueryOptions::default()
    }
}

#[test]
fn frame_query_is_identical_across_thread_counts() {
    force_parallel_pool();
    let (engine, probe, range) = random_catalog(7, 48, 5);
    let n = engine.len();
    for use_index in [false, true] {
        for k in [0, 1, 3, n, n + 7] {
            let serial = engine.query_features(&probe, range, &options(k, 1, use_index));
            assert_eq!(
                serial.len(),
                if use_index { serial.len() } else { k.min(n) }
            );
            for threads in [2, 3, 4, 8, THREADS_AUTO] {
                let parallel =
                    engine.query_features(&probe, range, &options(k, threads, use_index));
                assert_eq!(
                    serial, parallel,
                    "k={k} threads={threads} use_index={use_index}"
                );
            }
        }
    }
}

#[test]
fn frame_query_ties_break_by_ascending_id_in_every_mode() {
    force_parallel_pool();
    // Duplicate the same frame under many ids: every copy scores
    // identically, so the ranking is decided purely by the tie-break.
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let dup = random_frame(&mut rng);
    let mut entries = Vec::new();
    for i in 0..24u64 {
        entries.push(entry_from_frame(100 + i, (i % 3) + 1, &dup));
    }
    // A few distinct entries mixed in so the heap sees both regimes.
    for i in 0..8u64 {
        let f = random_frame(&mut rng);
        entries.push(entry_from_frame(i + 1, (i % 3) + 1, &f));
    }
    let engine = QueryEngine::from_catalog(entries, HashMap::new());
    let probe = FeatureSet::extract(&dup);
    let range = paper_range(&Histogram256::of_rgb_luma(&dup));
    for threads in [1, 2, 4, THREADS_AUTO] {
        let results = engine.query_features(&probe, range, &options(10, threads, false));
        assert_eq!(results.len(), 10);
        // All ten are perfect-score duplicates, listed in id order.
        for (j, m) in results.iter().enumerate() {
            assert!((m.score - 1.0).abs() < 1e-12, "threads={threads}");
            assert_eq!(m.i_id, 100 + j as u64, "threads={threads}");
        }
    }
}

#[test]
fn clip_query_is_identical_across_thread_counts() {
    force_parallel_pool();
    let (engine, _, _) = random_catalog(23, 36, 6);
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let query: Vec<FeatureSet> = (0..4)
        .map(|_| FeatureSet::extract(&random_frame(&mut rng)))
        .collect();
    let videos = engine.video_ids().len();
    for k in [0, 1, videos, videos + 3] {
        let serial = engine.query_feature_sequence(&query, &options(k, 1, true));
        assert_eq!(serial.len(), k.min(videos));
        for threads in [2, 4, 8, THREADS_AUTO] {
            let parallel = engine.query_feature_sequence(&query, &options(k, threads, true));
            assert_eq!(serial, parallel, "k={k} threads={threads}");
        }
    }
}

#[test]
fn parallel_extraction_preserves_order_and_values() {
    force_parallel_pool();
    let mut rng = rand::rngs::StdRng::seed_from_u64(41);
    // Every (frame, kind) cell is its own chunk: a single frame already
    // spreads over the pool.
    for n in [0, 1, 5, 17] {
        let frames: Vec<RgbImage> = (0..n).map(|_| random_frame(&mut rng)).collect();
        let refs: Vec<&RgbImage> = frames.iter().collect();
        for threads in [1, 2, 3, 4, THREADS_AUTO] {
            let sets = cbvr_core::ingest::extract_feature_sets_parallel(&refs, threads);
            assert_eq!(sets.len(), n, "n={n} threads={threads}");
            for (i, (frame, set)) in frames.iter().zip(&sets).enumerate() {
                let reference = FeatureSet::extract(frame);
                assert_eq!(set, &reference, "slot {i} of {n}, threads={threads}");
                assert_eq!(
                    set.to_feature_strings(),
                    reference.to_feature_strings(),
                    "slot {i} of {n}, threads={threads}"
                );
            }
        }
    }
}

#[test]
fn single_feature_weights_stay_identical_in_parallel() {
    force_parallel_pool();
    let (engine, probe, range) = random_catalog(55, 30, 4);
    for kind in cbvr_features::FeatureKind::ALL {
        let opts = |threads| QueryOptions {
            k: 8,
            threads,
            use_index: false,
            weights: FeatureWeights::single(kind),
            ..QueryOptions::default()
        };
        let serial = engine.query_features(&probe, range, &opts(1));
        let parallel = engine.query_features(&probe, range, &opts(4));
        assert_eq!(serial, parallel, "{kind}");
    }
}

#[test]
fn query_frame_matches_pre_extracted_features_at_every_width() {
    force_parallel_pool();
    let (engine, _, _) = random_catalog(67, 40, 5);
    let mut rng = rand::rngs::StdRng::seed_from_u64(71);
    for _ in 0..3 {
        let frame = random_frame(&mut rng);
        let range = paper_range(&Histogram256::of_rgb_luma(&frame));
        let reference =
            engine.query_features(&FeatureSet::extract(&frame), range, &options(10, 1, true));
        assert!(!reference.is_empty());
        for threads in [1, THREADS_AUTO] {
            let matches = engine.query_frame(&frame, &options(10, threads, true));
            assert_eq!(matches, reference, "threads={threads}");
        }
    }
}
