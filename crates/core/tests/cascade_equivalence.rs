//! The bound tier must be invisible in results: for every catalog, weight
//! profile, `k` regime and thread count, `abandon: true` returns *exactly*
//! the matches (ids AND bit-identical scores) of the naive full scan
//! (`abandon: false`), which in turn matches a per-entry
//! [`QueryEngine::combined_similarity`] reference ranking. Each property
//! also checks, through the engine's counters, that the tier really ran
//! and rejected work, and the frame property that it is the only filter:
//! every candidate it admits is scored in full.
//! Randomised via proptest so the pin covers the whole input space, not
//! a handful of hand-picked frames.
//!
//! The `*_floors` tests pin how much work the tier saves on two fixed
//! 10 240-row catalogs, from exact serial counters:
//!
//! ```text
//! cargo test --release -p cbvr-core --test cascade_equivalence floors -- --nocapture
//! ```

use cbvr_core::engine::CatalogEntry;
use cbvr_core::{FeatureWeights, QueryEngine, QueryOptions, Registry, THREADS_AUTO};
use cbvr_features::{FeatureKind, FeatureSet};
use cbvr_imgproc::{Histogram256, Rgb, RgbImage};
use cbvr_index::{paper_range, RangeKey};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

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

/// A random `n`-row catalog, its rows' feature sets in catalog order,
/// and a probe frame's features and range.
fn random_catalog(seed: u64, n: usize) -> (QueryEngine, Vec<FeatureSet>, FeatureSet, RangeKey) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut entries = Vec::with_capacity(n);
    for i in 0..n {
        let frame = random_frame(&mut rng);
        entries.push(entry_from_frame(i as u64 + 1, (i as u64 % 3) + 1, &frame));
    }
    let sets = entries.iter().map(|e| e.features.clone()).collect();
    let engine = QueryEngine::from_catalog(entries, HashMap::new());
    let probe = random_frame(&mut rng);
    let range = paper_range(&Histogram256::of_rgb_luma(&probe));
    (engine, sets, FeatureSet::extract(&probe), range)
}

/// Distinct base frames a clip catalog's rows are drawn from.
const CLIP_POOL: usize = 24;

/// A clip catalog shaped like a real one: `nvid` videos, each a
/// contiguous run of 1–8 key frames drawn from a pool of extracted base
/// frames, plus an exact copy of one video. The copy comes *first* in
/// catalog order under the largest id, so the original, walked later,
/// ties it exactly and must displace it whenever the copy holds the k-th
/// place — a tie at exactly the cutoff. Returns the entries, the pool and
/// the copied video's frames.
fn clip_catalog(
    rng: &mut rand::rngs::StdRng,
    nvid: usize,
) -> (Vec<CatalogEntry>, Vec<CatalogEntry>, Vec<FeatureSet>) {
    let pool: Vec<CatalogEntry> = (0..CLIP_POOL)
        .map(|_| entry_from_frame(0, 0, &random_frame(rng)))
        .collect();
    let mut videos: Vec<Vec<&CatalogEntry>> = (0..nvid)
        .map(|_| {
            (0..rng.gen_range(1..=8usize))
                .map(|_| &pool[rng.gen_range(0..CLIP_POOL)])
                .collect()
        })
        .collect();
    let copied = videos[rng.gen_range(0..nvid)].clone();
    let frames = copied.iter().map(|e| e.features.clone()).collect();
    videos.insert(0, copied);
    let v_ids = std::iter::once(nvid as u64 + 1).chain(1..=nvid as u64);
    let mut entries = Vec::new();
    for (v_id, rows) in v_ids.zip(&videos) {
        for &base in rows {
            entries.push(CatalogEntry {
                i_id: entries.len() as u64 + 1,
                v_id,
                ..base.clone()
            });
        }
    }
    (entries, pool, frames)
}

/// A `len`-frame clip query: each frame either a pool frame (an exact
/// catalog row, so distances get small and cutoffs tight) or, always when
/// `pool` is empty, a fresh one.
fn clip_query(rng: &mut rand::rngs::StdRng, pool: &[CatalogEntry], len: usize) -> Vec<FeatureSet> {
    (0..len)
        .map(|_| {
            if !pool.is_empty() && rng.gen_range(0..2u32) == 0 {
                pool[rng.gen_range(0..pool.len())].features.clone()
            } else {
                FeatureSet::extract(&random_frame(rng))
            }
        })
        .collect()
}

/// Cut the entry list at 1–3 random points, preserving global order
/// (empty groups are legal: `from_segmented` skips them).
fn random_split(entries: &[CatalogEntry], rng: &mut rand::rngs::StdRng) -> Vec<Vec<CatalogEntry>> {
    let mut points: Vec<usize> = (0..rng.gen_range(1..=3usize))
        .map(|_| rng.gen_range(0..=entries.len()))
        .collect();
    points.sort_unstable();
    let mut groups = Vec::new();
    let mut start = 0;
    for p in points {
        groups.push(entries[start..p].to_vec());
        start = p;
    }
    groups.push(entries[start..].to_vec());
    groups
}

/// Weight profiles the tier must stay exact under: the paper default,
/// uniform, a single expensive stage, a single cheap stage, and a skewed
/// hand-rolled mix (including a zeroed-out stage).
fn weight_profiles(seed: u64) -> Vec<FeatureWeights> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
    let mut random = FeatureWeights::default();
    for kind in FeatureKind::ALL {
        random.set(kind, (rng.gen_range(0..=100u32) as f64) / 50.0);
    }
    vec![
        FeatureWeights::default(),
        FeatureWeights::uniform(),
        FeatureWeights::single(FeatureKind::ColorHistogram),
        FeatureWeights::single(FeatureKind::Regions),
        random,
    ]
}

fn options(
    k: usize,
    threads: usize,
    use_index: bool,
    weights: &FeatureWeights,
    abandon: bool,
) -> QueryOptions {
    QueryOptions {
        k,
        threads,
        use_index,
        weights: weights.clone(),
        abandon,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn frame_query_cascade_matches_naive_scan(
        seed in 0u64..1_000_000,
        n in 4usize..=20,
    ) {
        force_parallel_pool();
        let (mut engine, _, probe, range) = random_catalog(seed, n);
        let registry = Arc::new(Registry::new());
        engine.set_telemetry(Arc::clone(&registry));
        let count = |name: &str| registry.counter(name).get();
        let filtered = || {
            (
                count("query.frame.candidates"),
                count("query.scan.survivors"),
                count("query.scan.tier_rejects"),
            )
        };
        for weights in &weight_profiles(seed) {
            for use_index in [false, true] {
                for k in [0, 1, n / 2, n, n + 7] {
                    // The naive full scan at one thread is the ground truth.
                    let naive = engine.query_features(
                        &probe, range, &options(k, 1, use_index, weights, false),
                    );
                    for threads in [1, 2, 4, THREADS_AUTO] {
                        for abandon in [false, true] {
                            let before = filtered();
                            let got = engine.query_features(
                                &probe, range,
                                &options(k, threads, use_index, weights, abandon),
                            );
                            // Vec<FrameMatch> equality: ids, v_ids AND
                            // bit-identical scores.
                            prop_assert_eq!(
                                &naive, &got,
                                "k={} threads={} abandon={} use_index={}",
                                k, threads, abandon, use_index
                            );
                            // The tier is the only filter: each candidate
                            // is rejected by it or scored in full (k = 0
                            // scans no candidate).
                            let after = filtered();
                            prop_assert_eq!(
                                (after.1 - before.1) + (after.2 - before.2),
                                after.0 - before.0,
                                "survivors + tier rejects vs candidates: \
                                 k={} threads={} abandon={} use_index={}",
                                k, threads, abandon, use_index
                            );
                        }
                    }
                }
            }
        }
        // The tier bounded candidates and rejected some before any exact
        // kernel ran, so the equalities above cover its pruning.
        let tier = |name: &str| count(&format!("query.scan.{name}"));
        prop_assert!(tier("tier_candidates") > 0 && tier("tier_elements") > 0);
        prop_assert!(tier("tier_rejects") > 0, "the tier never rejected a candidate");
    }

    #[test]
    fn frame_query_matches_similarity_reference(
        seed in 0u64..1_000_000,
        n in 4usize..=12,
    ) {
        force_parallel_pool();
        // Reference ranking computed entry-by-entry from the public
        // combined_similarity (f64, no arena): the arena's scores must
        // agree to float-noise tolerance and rank identically.
        let (engine, sets, probe, range) = random_catalog(seed, n);
        let weights = FeatureWeights::default();
        let got = engine.query_features(
            &probe, range, &options(n, 1, false, &weights, true),
        );
        prop_assert_eq!(got.len(), n);
        let mut reference: Vec<(u64, f64)> = (0..n)
            .map(|i| {
                (engine.entry(i).i_id, engine.combined_similarity(&probe, &sets[i], &weights))
            })
            .collect();
        reference.sort_by(|a, b| {
            b.1.partial_cmp(&a.1).unwrap().then_with(|| a.0.cmp(&b.0))
        });
        for (m, (ref_id, ref_score)) in got.iter().zip(&reference) {
            // The arena stores descriptors as f32, the reference keeps
            // f64 end-to-end, so agreement is to f32 quantisation noise
            // (~1e-7 relative), not bit-exact.
            prop_assert!(
                (m.score - ref_score).abs() < 1e-6,
                "score drift: arena {} vs reference {}", m.score, ref_score
            );
            // Ranks may only differ where reference scores genuinely tie
            // within float noise; outside that, ids must line up.
            if (m.score - ref_score).abs() == 0.0 {
                prop_assert_eq!(m.i_id, *ref_id);
            }
        }
    }
}

proptest! {
    // Clip cases are cheap and the bound bugs they catch (a lower bound
    // or limit a hair too tight) only show on some draws: run more.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn clip_query_cascade_matches_naive_scan(
        seed in 0u64..1_000_000,
        nvid in 8usize..=40,
    ) {
        force_parallel_pool();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (entries, pool, copied) = clip_catalog(&mut rng, nvid);
        // Random queries of 1–4 frames, then two that rank the copied
        // video and its original first: its own frames (distance 0) and
        // its frames plus one fresh frame (a positive tie).
        let mut queries: Vec<Vec<FeatureSet>> =
            (1..=4).map(|len| clip_query(&mut rng, &pool, len)).collect();
        queries.push(copied.clone());
        queries.push(copied.into_iter().chain(clip_query(&mut rng, &[], 1)).collect());
        let registry = Arc::new(Registry::new());
        let clip = |name: &str| registry.counter(&format!("query.clip.{name}")).get();
        let cells = || (clip("tier_cells"), clip("tier_rejects"), clip("survivors"));
        let mut single = QueryEngine::from_catalog(entries.clone(), HashMap::new());
        single.set_telemetry(Arc::clone(&registry));
        let mut layouts = vec![("one segment", single)];
        // The same rows cut into segments (a cut may split a video), with
        // one video tombstoned.
        let mut segmented =
            QueryEngine::from_segmented(random_split(&entries, &mut rng), HashMap::new());
        segmented.set_telemetry(Arc::clone(&registry));
        let ids = segmented.video_ids();
        prop_assert!(segmented.remove_video(ids[rng.gen_range(0..ids.len())]) > 0);
        layouts.push(("segmented + tombstone", segmented));
        // Gabor alone is a cheap stage whose lower bound is the whole
        // distance: the tightest case for the DTW's lower-bound pruning.
        let mut profiles = weight_profiles(seed);
        profiles.push(FeatureWeights::single(FeatureKind::Gabor));
        for (layout, engine) in &layouts {
            let nvid = engine.video_ids().len();
            for weights in &profiles {
                for query in &queries {
                    for k in [1, 3, nvid] {
                        let naive = engine.query_feature_sequence(
                            query, &options(k, 1, true, weights, false),
                        );
                        prop_assert_eq!(naive.len(), k.min(nvid));
                        for threads in [1, 2, 4] {
                            for abandon in [false, true] {
                                let before = cells();
                                let got = engine.query_feature_sequence(
                                    query, &options(k, threads, true, weights, abandon),
                                );
                                // Vec<VideoMatch> equality: ids AND
                                // bit-identical distances.
                                prop_assert_eq!(
                                    &naive, &got,
                                    "{} len={} k={} threads={} abandon={}",
                                    layout, query.len(), k, threads, abandon
                                );
                                // Every DTW cell visited is pruned unscored
                                // or scored in full.
                                let after = cells();
                                prop_assert_eq!(
                                    after.0 - before.0,
                                    (after.1 - before.1) + (after.2 - before.2),
                                    "tier cells vs rejects + survivors: \
                                     {} len={} k={} threads={} abandon={}",
                                    layout, query.len(), k, threads, abandon
                                );
                            }
                        }
                    }
                }
            }
        }
        // The tier bounded DTW cells and proved videos out or rejected
        // cells, so the equalities above cover its pruning.
        prop_assert!(clip("tier_elements") > 0, "the clip tier never bounded a cell");
        prop_assert!(
            registry.counter("query.abandon.dtw").get() > 0 || clip("tier_rejects") > 0,
            "the clip tier never pruned"
        );
    }
}

/// A self-query over a catalog containing the probe itself must put the
/// exact duplicate first with a score of exactly 1.0 — the arena
/// quantises query and catalog identically, so the tier cannot lose the
/// perfect match no matter how aggressively it rejects.
#[test]
fn self_query_survives_cascade_with_perfect_score() {
    force_parallel_pool();
    let mut rng = rand::rngs::StdRng::seed_from_u64(4242);
    let dup = random_frame(&mut rng);
    let mut entries = vec![entry_from_frame(1, 1, &dup)];
    for i in 0..11u64 {
        entries.push(entry_from_frame(
            i + 2,
            (i % 3) + 1,
            &random_frame(&mut rng),
        ));
    }
    let engine = QueryEngine::from_catalog(entries, HashMap::new());
    let probe = FeatureSet::extract(&dup);
    let range = paper_range(&Histogram256::of_rgb_luma(&dup));
    for threads in [1, 4] {
        for abandon in [false, true] {
            let got = engine.query_features(
                &probe,
                range,
                &options(3, threads, false, &FeatureWeights::default(), abandon),
            );
            assert_eq!(got[0].i_id, 1, "threads={threads} abandon={abandon}");
            assert_eq!(got[0].score, 1.0, "threads={threads} abandon={abandon}");
        }
    }
}

// Work floors. Two serial queries over 10 240-row catalogs, `abandon` off
// (the plain scan) and on: the rankings must be equal and the bound tier
// must save a fixed share of the distance-kernel elements. Serial counts
// are exact, so each floor is a deterministic assertion, not a timing.

/// Distinct base frames the floor catalogs are built from.
const FLOOR_BASES: usize = 64;

/// Rows in each floor catalog.
const FLOOR_ROWS: usize = 10_240;

fn floor_frame(rng: &mut rand::rngs::StdRng) -> RgbImage {
    let base = Rgb::new(
        rng.gen_range(0..=255u8),
        rng.gen_range(0..=255u8),
        rng.gen_range(0..=255u8),
    );
    let fx = rng.gen_range(1..=9u32);
    let fy = rng.gen_range(1..=9u32);
    RgbImage::from_fn(32, 32, |x, y| {
        Rgb::new(
            base.r.wrapping_add((x * fx) as u8),
            base.g.wrapping_add((y * fy) as u8),
            base.b.wrapping_add(((x * y) % 251) as u8),
        )
    })
    .unwrap()
}

/// The 64 base entries (seed `0xbe5c`), the rng that drew them (clip
/// queries are drawn from it next), and a probe that perturbs base frame
/// 7: near the catalog, so the tier's threshold tightens, but no copy.
fn floor_bases() -> (Vec<CatalogEntry>, rand::rngs::StdRng, FeatureSet, RangeKey) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xbe5c);
    let frames: Vec<RgbImage> = (0..FLOOR_BASES).map(|_| floor_frame(&mut rng)).collect();
    let bases = frames.iter().map(|f| entry_from_frame(0, 0, f)).collect();
    let f = &frames[7];
    let probe = RgbImage::from_fn(f.width(), f.height(), |x, y| {
        let p = f.get(x, y);
        Rgb::new(p.r.wrapping_add(3), p.g, p.b.wrapping_add(1))
    })
    .unwrap();
    let range = paper_range(&Histogram256::of_rgb_luma(&probe));
    (bases, rng, FeatureSet::extract(&probe), range)
}

/// Runs `query` serially at `k = 10`, `abandon` off then on, each on a
/// fresh registry. Asserts the two answers are equal and, under the
/// counter prefix `scope`, that every survivor ran every stage's exact
/// kernel: `elements − tier_elements == survivors × Σ kind_dim`. Returns
/// the off and on registries.
fn floor_runs<R: PartialEq + std::fmt::Debug>(
    engine: &mut QueryEngine,
    scope: &str,
    query: impl Fn(&QueryEngine, &QueryOptions) -> R,
) -> [Arc<Registry>; 2] {
    let weights = FeatureWeights::default();
    let dims: u64 = FeatureKind::ALL
        .iter()
        .filter(|&&kind| weights.get(kind) > 0.0)
        .map(|&kind| cbvr_core::arena::kind_dim(kind) as u64)
        .sum();
    let mut answers = Vec::new();
    let registries = [false, true].map(|abandon| {
        let registry = Arc::new(Registry::new());
        engine.set_telemetry(Arc::clone(&registry));
        answers.push(query(engine, &options(10, 1, false, &weights, abandon)));
        let count = |name: &str| registry.counter(&format!("{scope}.{name}")).get();
        assert_eq!(
            count("elements") - count("tier_elements"),
            count("survivors") * dims,
            "{scope}: exact elements vs survivors, abandon={abandon}"
        );
        registry
    });
    assert_eq!(answers[0], answers[1], "abandon changed a ranking");
    registries
}

#[test]
fn frame_scan_floors() {
    let (bases, _, probe, range) = floor_bases();
    let entries = (0..FLOOR_ROWS)
        .map(|i| CatalogEntry {
            i_id: i as u64 + 1,
            v_id: (i as u64 % 16) + 1,
            ..bases[i % FLOOR_BASES].clone()
        })
        .collect();
    let mut engine = QueryEngine::from_catalog(entries, HashMap::new());
    let [full, tiered] = floor_runs(&mut engine, "query.scan", |e, o| {
        e.query_features(&probe, range, o)
    });
    let count = |r: &Registry, name: &str| r.counter(&format!("query.scan.{name}")).get();
    let (elements, plain) = (count(&tiered, "elements"), count(&full, "elements"));
    let (rejected, seen) = (
        count(&tiered, "tier_rejects"),
        count(&tiered, "tier_candidates"),
    );
    let ratio = elements as f64 / plain as f64;
    let share = rejected as f64 / seen as f64;
    println!("frame elements: tiered {elements} / full {plain} = {ratio:.3} (floor <= 0.70)");
    let tier = count(&tiered, "tier_elements");
    println!(
        "frame tier: rejected {rejected} / {seen} candidates = {share:.3} (floor >= 0.50); \
         elements: tier {tier} + exact {}",
        elements - tier
    );
    assert!(
        ratio <= 0.70,
        "the tier saves under 30% of the frame elements: {ratio:.3}"
    );
    assert!(
        share >= 0.50,
        "the tier rejects under half its frame candidates: {share:.3}"
    );
}

#[test]
fn clip_dtw_floors() {
    let (bases, mut rng, _, _) = floor_bases();
    // Eight two-frame queries of fresh frames, never catalog rows.
    let queries: Vec<Vec<FeatureSet>> = (0..8)
        .map(|_| {
            (0..2)
                .map(|_| FeatureSet::extract(&floor_frame(&mut rng)))
                .collect()
        })
        .collect();
    // Contiguous videos of 1–8 rows, each row a random base frame.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xc11b);
    let (mut v_id, mut left) = (0u64, 0usize);
    let mut entries = Vec::with_capacity(FLOOR_ROWS);
    for i in 0..FLOOR_ROWS {
        if left == 0 {
            left = rng.gen_range(1..=8usize);
            v_id += 1;
        }
        left -= 1;
        let base = &bases[rng.gen_range(0..FLOOR_BASES)];
        entries.push(CatalogEntry {
            i_id: i as u64 + 1,
            v_id,
            ..base.clone()
        });
    }
    let mut engine = QueryEngine::from_catalog(entries, HashMap::new());
    let [plain, bounded] = floor_runs(&mut engine, "query.clip", |e, o| {
        queries
            .iter()
            .map(|q| e.query_feature_sequence(q, o))
            .collect::<Vec<_>>()
    });
    let count = |r: &Registry, name: &str| r.counter(&format!("query.clip.{name}")).get();
    let (elements, full) = (count(&bounded, "elements"), count(&plain, "elements"));
    let ratio = elements as f64 / full as f64;
    let tier = count(&bounded, "tier_elements");
    // Every DTW cell visited is pruned unscored or scored in full; the
    // plain run prunes none.
    for (run, r) in [("plain", &plain), ("bounded", &bounded)] {
        assert_eq!(
            count(r, "tier_cells"),
            count(r, "tier_rejects") + count(r, "survivors"),
            "{run}: tier cells vs rejects + survivors"
        );
    }
    assert_eq!(count(&plain, "tier_rejects"), 0);
    println!("clip elements: bounded {elements} / plain {full} = {ratio:.3} (floor <= 0.50)");
    println!(
        "clip tier: rejected {} / {} DTW cells; elements: tier {tier} + exact {}",
        count(&bounded, "tier_rejects"),
        count(&bounded, "tier_cells"),
        elements - tier
    );
    assert!(
        ratio <= 0.50,
        "the bounded DTW saves under half the clip elements: {ratio:.3}"
    );
}
