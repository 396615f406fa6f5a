//! Queries racing ingest, removal and compaction: every query must
//! observe exactly one *published* snapshot — never a torn catalog with
//! missing or duplicated key frames, and never a state that was not
//! published. Also pins the lock-freedom contract: a query completes
//! while the commit lock is held by a writer.

use cbvr_core::engine::CatalogEntry;
use cbvr_core::{QueryEngine, QueryOptions, Registry};
use cbvr_features::FeatureSet;
use cbvr_imgproc::{Histogram256, Rgb, RgbImage};
use cbvr_index::paper_range;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn random_frame(rng: &mut rand::rngs::StdRng) -> RgbImage {
    let base = Rgb::new(
        rng.gen_range(0..=255u8),
        rng.gen_range(0..=255u8),
        rng.gen_range(0..=255u8),
    );
    RgbImage::from_fn(16, 16, |x, y| {
        Rgb::new(
            base.r.wrapping_add((x * 3) as u8),
            base.g.wrapping_add((y * 5) as u8),
            base.b.wrapping_add(((x + y) * 2) as u8),
        )
    })
    .unwrap()
}

fn video_entries(rng: &mut rand::rngs::StdRng, v_id: u64, frames: usize) -> Vec<CatalogEntry> {
    (0..frames)
        .map(|j| {
            let frame = random_frame(rng);
            CatalogEntry {
                i_id: v_id * 100 + j as u64,
                v_id,
                range: paper_range(&Histogram256::of_rgb_luma(&frame)),
                features: FeatureSet::extract(&frame),
            }
        })
        .collect()
}

fn i_ids(entries: &[CatalogEntry]) -> BTreeSet<u64> {
    entries.iter().map(|e| e.i_id).collect()
}

/// All-rows query: k covers everything, no index pruning, so the result
/// set is exactly the live catalog of whichever snapshot the query took.
fn observe(engine: &QueryEngine, probe: &FeatureSet, range: cbvr_index::RangeKey) -> Vec<u64> {
    let opts = QueryOptions {
        k: 1000,
        use_index: false,
        threads: 1,
        ..QueryOptions::default()
    };
    engine
        .query_features(probe, range, &opts)
        .iter()
        .map(|m| m.i_id)
        .collect()
}

#[test]
fn queries_racing_mutations_observe_only_published_snapshots() {
    std::env::set_var("CBVR_POOL_HELPERS", "3");
    let mut rng = rand::rngs::StdRng::seed_from_u64(2024);
    let v1 = video_entries(&mut rng, 1, 3);
    let v2 = video_entries(&mut rng, 2, 3);
    let v3 = video_entries(&mut rng, 3, 3);
    let v4 = video_entries(&mut rng, 4, 3);
    let probe_frame = random_frame(&mut rng);
    let probe = FeatureSet::extract(&probe_frame);
    let range = paper_range(&Histogram256::of_rgb_luma(&probe_frame));

    // The exact catalog states the writer publishes, in order. A query
    // may land on any of them, but must match one exactly.
    let s0: BTreeSet<u64> = i_ids(&v1).union(&i_ids(&v2)).copied().collect();
    let s1: BTreeSet<u64> = s0.union(&i_ids(&v3)).copied().collect();
    let s2: BTreeSet<u64> = s1.difference(&i_ids(&v2)).copied().collect();
    // Compaction publishes s2 again (same live set, new layout).
    let s3: BTreeSet<u64> = s2.union(&i_ids(&v4)).copied().collect();
    let published: Vec<BTreeSet<u64>> = vec![s0, s1, s2.clone(), s3.clone()];

    let mut engine = QueryEngine::from_segmented(
        vec![v1.clone(), v2.clone()],
        HashMap::from([(1, "one".to_string()), (2, "two".to_string())]),
    );
    let registry = Arc::new(Registry::new());
    engine.set_telemetry(registry.clone());
    let engine = Arc::new(engine);

    let done = Arc::new(AtomicBool::new(false));
    let mut readers = Vec::new();
    for reader in 0..2 {
        let engine = Arc::clone(&engine);
        let done = Arc::clone(&done);
        let probe = probe.clone();
        let published = published.clone();
        readers.push(std::thread::spawn(move || {
            let mut observations = 0usize;
            while !done.load(Ordering::SeqCst) || observations == 0 {
                let got = observe(&engine, &probe, range);
                let unique: BTreeSet<u64> = got.iter().copied().collect();
                assert_eq!(
                    unique.len(),
                    got.len(),
                    "duplicate frames in reader {reader}: {got:?}"
                );
                assert!(
                    published.contains(&unique),
                    "reader {reader} observed a torn/unpublished catalog: {unique:?}"
                );
                observations += 1;
            }
            observations
        }));
    }

    // Writer: ingest v3, remove v2, compact, ingest v4 — yielding between
    // steps so readers interleave with every state.
    let pause = || std::thread::sleep(std::time::Duration::from_millis(5));
    pause();
    engine.add_video("three", v3);
    pause();
    assert_eq!(engine.remove_video(2), 3);
    pause();
    let report = engine.compact();
    assert_eq!(report.rows_dropped, 3);
    pause();
    engine.add_video("four", v4);
    pause();
    done.store(true, Ordering::SeqCst);

    for handle in readers {
        let observations = handle.join().expect("reader panicked");
        assert!(observations > 0);
    }

    // Final state is the last published set, and the swap counter saw
    // every mutation (4 mutations = 4 swaps beyond the initial publish,
    // which predates this registry).
    let final_set: BTreeSet<u64> = observe(&engine, &probe, range).into_iter().collect();
    assert_eq!(final_set, s3);
    assert_eq!(registry.counter("catalog.snapshot.swaps").get(), 4);
    assert_eq!(registry.counter("compaction.runs").get(), 1);
    assert_eq!(registry.counter("compaction.rows_dropped").get(), 3);
}

#[test]
fn queries_complete_while_commit_lock_is_held() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(77);
    let v1 = video_entries(&mut rng, 1, 4);
    let expected = i_ids(&v1);
    let probe_frame = random_frame(&mut rng);
    let probe = FeatureSet::extract(&probe_frame);
    let range = paper_range(&Histogram256::of_rgb_luma(&probe_frame));
    let engine = QueryEngine::from_catalog(v1, HashMap::new());
    // The read path takes no engine-wide lock: a query issued while a
    // writer holds the commit lock (as any in-flight mutation does) runs
    // to completion on the current thread instead of deadlocking.
    let got: BTreeSet<u64> = engine
        .with_commit_locked(|| observe(&engine, &probe, range))
        .into_iter()
        .collect();
    assert_eq!(got, expected);
}

/// Two compactions that merged from the same snapshot: the one that
/// publishes second must not keep the first one's merged segment beside
/// its own, which holds the same rows.
#[test]
fn concurrent_compactions_publish_every_row_once() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(4096);
    let videos: Vec<Vec<CatalogEntry>> = (1..=4).map(|v| video_entries(&mut rng, v, 3)).collect();
    let probe_frame = random_frame(&mut rng);
    let probe = FeatureSet::extract(&probe_frame);
    let range = paper_range(&Histogram256::of_rgb_luma(&probe_frame));
    let build = || {
        let engine = QueryEngine::from_segmented(videos.clone(), HashMap::new());
        assert_eq!(engine.remove_video(2), 3);
        engine
    };
    // The merged segment's arena size, from a twin compacted alone.
    let twin = build();
    twin.compact();
    let merged_bytes = twin.segment_stats()[0].arena_bytes as u64;

    let mut engine = build();
    let registry = Arc::new(Registry::new());
    engine.set_telemetry(registry.clone());
    let arena_bytes = registry.counter("query.arena.bytes");
    let start = arena_bytes.get();
    let engine = Arc::new(engine);
    let compactions = engine.with_commit_locked(|| {
        let compactions: Vec<_> = (0..2)
            .map(|_| {
                let engine = Arc::clone(&engine);
                std::thread::spawn(move || engine.compact())
            })
            .collect();
        // Each compaction adds its merged arena's bytes before it takes
        // the commit lock: once both have, both merged the same snapshot.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        while arena_bytes.get() < start + 2 * merged_bytes {
            assert!(
                std::time::Instant::now() < deadline,
                "the compactions never merged"
            );
            std::thread::yield_now();
        }
        compactions
    });
    for compaction in compactions {
        compaction.join().expect("compaction panicked");
    }
    assert_eq!(engine.len(), 9, "live rows after both compactions");
    let got = observe(&engine, &probe, range);
    let unique: BTreeSet<u64> = got.iter().copied().collect();
    assert_eq!(unique.len(), got.len(), "duplicate frames: {got:?}");
    let expected: BTreeSet<u64> = [1, 3, 4]
        .iter()
        .flat_map(|&v| i_ids(&videos[v - 1]))
        .collect();
    assert_eq!(unique, expected);
}
