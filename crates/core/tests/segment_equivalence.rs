//! The segmented catalog must be invisible in results: for every
//! catalog, random segment split, weight profile, `k` regime and thread
//! count, an engine built via [`QueryEngine::from_segmented`] returns
//! *exactly* the matches (ids AND bit-identical scores) of the
//! single-segment [`QueryEngine::from_catalog`] build, for both frame
//! and clip queries. Tombstoned removal and compaction are pinned the
//! same way against their monolithic equivalents.

use cbvr_core::engine::CatalogEntry;
use cbvr_core::{QueryEngine, QueryOptions, THREADS_AUTO};
use cbvr_features::FeatureSet;
use cbvr_imgproc::{Histogram256, Rgb, RgbImage};
use cbvr_index::paper_range;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Force real helper threads even on a single-core host, so parallel
/// runs genuinely race chunk claims and shared-threshold updates.
fn force_parallel_pool() {
    std::env::set_var("CBVR_POOL_HELPERS", "3");
}

fn random_frame(rng: &mut rand::rngs::StdRng) -> RgbImage {
    let base = Rgb::new(
        rng.gen_range(0..=255u8),
        rng.gen_range(0..=255u8),
        rng.gen_range(0..=255u8),
    );
    let fx = rng.gen_range(1..=7u32);
    let fy = rng.gen_range(1..=7u32);
    RgbImage::from_fn(16, 16, |x, y| {
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

fn random_entries(rng: &mut rand::rngs::StdRng, n: usize) -> Vec<CatalogEntry> {
    (0..n)
        .map(|i| entry_from_frame(i as u64 + 1, (i as u64 % 3) + 1, &random_frame(rng)))
        .collect()
}

/// Cut the entry list at 1–3 random points, preserving global order.
/// Empty groups are legal (`from_segmented` skips them), so cuts may
/// coincide or land at the ends.
fn random_split(entries: &[CatalogEntry], rng: &mut rand::rngs::StdRng) -> Vec<Vec<CatalogEntry>> {
    let n = entries.len();
    let cuts = rng.gen_range(1..=3usize);
    let mut points: Vec<usize> = (0..cuts).map(|_| rng.gen_range(0..=n)).collect();
    points.sort_unstable();
    let mut groups = Vec::with_capacity(cuts + 1);
    let mut start = 0;
    for p in points {
        groups.push(entries[start..p].to_vec());
        start = p;
    }
    groups.push(entries[start..].to_vec());
    groups
}

fn options(k: usize, threads: usize, use_index: bool, abandon: bool) -> QueryOptions {
    QueryOptions {
        k,
        threads,
        use_index,
        abandon,
        ..QueryOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn segmented_frame_query_matches_monolithic(
        seed in 0u64..1_000_000,
        n in 4usize..=18,
    ) {
        force_parallel_pool();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let entries = random_entries(&mut rng, n);
        let mono = QueryEngine::from_catalog(entries.clone(), HashMap::new());
        let probe_frame = random_frame(&mut rng);
        let probe = FeatureSet::extract(&probe_frame);
        let range = paper_range(&Histogram256::of_rgb_luma(&probe_frame));
        // Several random layouts of the SAME catalog per case.
        for _ in 0..3 {
            let split = random_split(&entries, &mut rng);
            let layout: Vec<usize> = split.iter().map(Vec::len).collect();
            let seg = QueryEngine::from_segmented(split, HashMap::new());
            prop_assert_eq!(seg.len(), mono.len());
            prop_assert_eq!(seg.calibration(), mono.calibration());
            for use_index in [false, true] {
                for k in [1, n / 2, n + 3] {
                    for threads in [THREADS_AUTO, 1, 4] {
                        for abandon in [false, true] {
                            let want = mono.query_features(
                                &probe, range, &options(k, threads, use_index, abandon),
                            );
                            let got = seg.query_features(
                                &probe, range, &options(k, threads, use_index, abandon),
                            );
                            // Vec<FrameMatch> equality: ids, v_ids AND
                            // bit-identical scores.
                            prop_assert_eq!(
                                &want, &got,
                                "layout={:?} k={} threads={} use_index={} abandon={}",
                                layout, k, threads, use_index, abandon
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn segmented_clip_query_matches_monolithic(
        seed in 0u64..1_000_000,
        n in 4usize..=12,
    ) {
        force_parallel_pool();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5e9_3e47);
        let entries = random_entries(&mut rng, n);
        let mono = QueryEngine::from_catalog(entries.clone(), HashMap::new());
        let query: Vec<FeatureSet> =
            (0..3).map(|_| FeatureSet::extract(&random_frame(&mut rng))).collect();
        let nvid = mono.video_ids().len();
        for _ in 0..3 {
            let split = random_split(&entries, &mut rng);
            let seg = QueryEngine::from_segmented(split, HashMap::new());
            for k in [1, nvid, nvid + 2] {
                for threads in [THREADS_AUTO, 1, 4] {
                    for abandon in [false, true] {
                        let want = mono.query_feature_sequence(
                            &query, &options(k, threads, true, abandon),
                        );
                        let got = seg.query_feature_sequence(
                            &query, &options(k, threads, true, abandon),
                        );
                        prop_assert_eq!(
                            &want, &got,
                            "k={} threads={} abandon={}", k, threads, abandon
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tombstoned_removal_matches_monolithic_removal(
        seed in 0u64..1_000_000,
        n in 6usize..=15,
    ) {
        force_parallel_pool();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x70_b5_70_e5);
        let entries = random_entries(&mut rng, n);
        let victim = rng.gen_range(1..=3u64);
        // Both engines carry the full-catalog calibration through the
        // removal, so their results must agree bit-for-bit.
        let mono = QueryEngine::from_catalog(entries.clone(), HashMap::new());
        let seg = QueryEngine::from_segmented(random_split(&entries, &mut rng), HashMap::new());
        prop_assert_eq!(mono.remove_video(victim), seg.remove_video(victim));
        prop_assert_eq!(mono.len(), seg.len());
        prop_assert_eq!(mono.video_ids(), seg.video_ids());

        let probe_frame = random_frame(&mut rng);
        let probe = FeatureSet::extract(&probe_frame);
        let range = paper_range(&Histogram256::of_rgb_luma(&probe_frame));
        for use_index in [false, true] {
            for threads in [1, 4] {
                let opts = options(n + 3, threads, use_index, true);
                let want = mono.query_features(&probe, range, &opts);
                let got = seg.query_features(&probe, range, &opts);
                prop_assert!(got.iter().all(|m| m.v_id != victim));
                prop_assert_eq!(&want, &got, "use_index={} threads={}", use_index, threads);
            }
        }

        // After compaction the tombstones are gone and results equal a
        // from-scratch rebuild over the survivors (calibration included).
        let report = seg.compact();
        prop_assert_eq!(report.segments_after, 1);
        prop_assert_eq!(seg.tombstone_count(), 0);
        let survivors: Vec<CatalogEntry> =
            entries.iter().filter(|e| e.v_id != victim).cloned().collect();
        let rebuilt = QueryEngine::from_catalog(survivors, HashMap::new());
        prop_assert_eq!(seg.calibration(), rebuilt.calibration());
        let opts = options(n + 3, 1, false, true);
        prop_assert_eq!(
            rebuilt.query_features(&probe, range, &opts),
            seg.query_features(&probe, range, &opts)
        );
        prop_assert_eq!(
            rebuilt.query_feature_sequence(std::slice::from_ref(&probe), &opts),
            seg.query_feature_sequence(&[probe], &opts)
        );
    }
}
