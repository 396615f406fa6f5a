//! The telemetry subsystem must be *deterministic*: under a
//! [`TestClock`] every histogram bucket, percentile readout and span
//! duration is exact, and counters driven from `ExecPool` concurrency
//! merge without loss at every `CBVR_POOL_HELPERS` setting (CI runs the
//! suite at `1` and `4`). These tests also pin the engine's edge cases —
//! `k = 0`, `k > catalog`, empty catalog, `threads > items` — as both
//! result-identical and telemetry-consistent serial vs parallel.

use cbvr_core::engine::CatalogEntry;
use cbvr_core::{Clock, ExecPool, QueryEngine, QueryOptions, Registry, TestClock, THREADS_AUTO};
use cbvr_features::FeatureSet;
use cbvr_imgproc::{Histogram256, Rgb, RgbImage};
use cbvr_index::{paper_range, RangeKey};
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Serialises the tests that drive execution pools: `pool.*` metrics
/// land in the process-global registry, so concurrent pool activity
/// would perturb the exact-delta assertions below.
fn pool_lock() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

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

/// An engine over `n` random entries, reporting into a fresh
/// TestClock-driven registry (isolated from the global).
fn test_engine(seed: u64, n: usize) -> (QueryEngine, Arc<Registry>, FeatureSet, RangeKey) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut entries = Vec::with_capacity(n);
    for i in 0..n {
        let frame = random_frame(&mut rng);
        entries.push(entry_from_frame(i as u64 + 1, (i as u64 % 3) + 1, &frame));
    }
    let mut engine = QueryEngine::from_catalog(entries, HashMap::new());
    let registry = Arc::new(Registry::with_clock(Arc::new(TestClock::new())));
    engine.set_telemetry(registry.clone());
    let probe = random_frame(&mut rng);
    let range = paper_range(&Histogram256::of_rgb_luma(&probe));
    (engine, registry, FeatureSet::extract(&probe), range)
}

fn options(k: usize, threads: usize) -> QueryOptions {
    QueryOptions {
        k,
        threads,
        use_index: false,
        ..QueryOptions::default()
    }
}

#[test]
fn bucket_boundaries_are_pinned_through_the_public_api() {
    let registry = Registry::with_clock(Arc::new(TestClock::new()));
    let h = registry.histogram("pinned");
    // Bucket 0 holds exactly 0; bucket i ≥ 1 holds [2^(i-1), 2^i - 1].
    for v in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024, u64::MAX] {
        h.record_nanos(v);
    }
    assert_eq!(h.bucket(0), 1, "only 0 lands in the underflow bucket");
    assert_eq!(h.bucket(1), 1, "1");
    assert_eq!(h.bucket(2), 2, "2 and 3");
    assert_eq!(h.bucket(3), 2, "4 and 7 share bucket [4,7]");
    assert_eq!(h.bucket(4), 1, "8");
    assert_eq!(h.bucket(10), 1, "1023");
    assert_eq!(h.bucket(11), 1, "1024");
    assert_eq!(h.bucket(64), 1, "u64::MAX");
    assert_eq!(h.count(), 10);
}

#[test]
fn percentile_readouts_are_exact() {
    let h = Registry::new().histogram("q");
    // 100 samples: 1..=100. p50 rank = 50 → sample 50 → bucket
    // [32,63] → readout 63. p99 rank = 99 → sample 99 → bucket
    // [64,127] → readout 127.
    for v in 1..=100u64 {
        h.record_nanos(v);
    }
    assert_eq!(h.count(), 100);
    assert_eq!(h.sum(), 5050);
    assert_eq!(h.p50(), 63);
    assert_eq!(h.p99(), 127);
    assert_eq!(h.quantile(0.0), 1, "rank clamps to the first sample");
    assert_eq!(h.quantile(1.0), 127);
}

#[test]
fn nested_spans_attribute_time_exactly() {
    let clock = Arc::new(TestClock::new());
    let registry = Registry::with_clock(clock.clone());
    {
        let _outer = registry.span("outer");
        clock.advance(100);
        {
            let _inner = registry.span("inner");
            clock.advance(250);
        }
        clock.advance(50);
    }
    let inner = registry.histogram("inner");
    let outer = registry.histogram("outer");
    assert_eq!(inner.count(), 1);
    assert_eq!(inner.sum(), 250, "inner sees only its own advance");
    assert_eq!(outer.count(), 1);
    assert_eq!(outer.sum(), 400, "outer spans the whole nest");
    // Re-entering the same stage accumulates into the same histogram.
    {
        let _again = registry.span("outer");
        clock.advance(600);
    }
    assert_eq!(outer.count(), 2);
    assert_eq!(outer.sum(), 1000);
    assert_eq!(
        outer.p50(),
        511,
        "samples 400 and 600 share bucket [256,511] and [512,1023]"
    );
}

#[test]
fn counters_merge_losslessly_under_pool_concurrency() {
    // N threads × M increments must equal exactly N·M — the counter is
    // one Relaxed fetch_add, so no increment can be lost at any helper
    // count. Run the same workload through pools of several sizes
    // (including 0 = serial) and through raw std threads.
    let _serial = pool_lock();
    let registry = Registry::with_clock(Arc::new(TestClock::new()));
    let counter = registry.counter("merge");
    const ITEMS: usize = 1000;
    let mut expected = 0u64;
    for helpers in [0usize, 1, 3, 7] {
        let pool = ExecPool::with_helpers(helpers);
        for threads in [1, 2, THREADS_AUTO] {
            pool.run(ITEMS, 16, threads, |range| {
                for _ in range {
                    counter.inc();
                }
            });
            expected += ITEMS as u64;
            assert_eq!(
                counter.get(),
                expected,
                "helpers={helpers} threads={threads}"
            );
        }
    }
    // Raw threads: 8 × 500.
    let shared = registry.counter("merge.raw");
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let c = shared.clone();
            scope.spawn(move || {
                for _ in 0..500 {
                    c.inc();
                }
            });
        }
    });
    assert_eq!(shared.get(), 8 * 500);
}

#[test]
fn pool_job_and_chunk_counters_are_deterministic() {
    // `pool.jobs` and `pool.chunks` land in the *global* registry (all
    // pools share it), so measure deltas around an exclusive workload.
    let _serial = pool_lock();
    let registry = Registry::global();
    let jobs = registry.counter("pool.jobs");
    let chunks = registry.counter("pool.chunks");
    let pool = ExecPool::with_helpers(2);

    let (j0, c0) = (jobs.get(), chunks.get());
    pool.run(100, 10, 1, |_| {});
    assert_eq!(jobs.get() - j0, 1, "one job per run");
    assert_eq!(
        chunks.get() - c0,
        1,
        "serial path executes as a single chunk"
    );

    let (j1, c1) = (jobs.get(), chunks.get());
    pool.run(100, 10, THREADS_AUTO, |_| {});
    assert_eq!(jobs.get() - j1, 1);
    assert_eq!(
        chunks.get() - c1,
        10,
        "parallel path claims ceil(100/10) chunks"
    );

    let (j2, c2) = (jobs.get(), chunks.get());
    pool.run(0, 10, THREADS_AUTO, |_| {});
    assert_eq!(jobs.get() - j2, 0, "empty runs are not jobs");
    assert_eq!(chunks.get() - c2, 0);
}

#[test]
fn engine_edge_cases_are_identical_and_telemetry_consistent() {
    let _serial = pool_lock();
    let (engine, registry, probe, range) = test_engine(301, 29);
    let n = engine.len();
    let requests = registry.counter("query.frame.requests");
    let candidates = registry.counter("query.frame.candidates");
    let scan = registry.histogram("query.frame.scan_nanos");
    let score = registry.histogram("query.frame.score_nanos");

    // k = 0: empty result, counted as a request, never scanned or scored.
    assert!(engine
        .query_features(&probe, range, &options(0, 1))
        .is_empty());
    assert!(engine
        .query_features(&probe, range, &options(0, THREADS_AUTO))
        .is_empty());
    assert_eq!(requests.get(), 2);
    assert_eq!(candidates.get(), 0);
    assert_eq!(scan.count(), 0, "k = 0 returns before the candidate scan");
    assert_eq!(score.count(), 0, "k = 0 short-circuits before scoring");

    // k > catalog: every entry returned, serial == parallel, and the
    // scoring stage records one sample per request on both paths.
    let serial = engine.query_features(&probe, range, &options(n + 7, 1));
    let parallel = engine.query_features(&probe, range, &options(n + 7, THREADS_AUTO));
    assert_eq!(serial.len(), n);
    assert_eq!(serial, parallel);
    assert_eq!(requests.get(), 4);
    assert_eq!(score.count(), 2);

    // threads > items: still identical.
    let narrow = engine.query_features(&probe, range, &options(3, 64));
    assert_eq!(narrow, engine.query_features(&probe, range, &options(3, 1)));

    // TestClock never advanced: every recorded duration is exactly 0.
    assert_eq!(scan.sum(), 0);
    assert_eq!(score.sum(), 0);
    assert_eq!(score.p99(), 0);
}

#[test]
fn frame_queries_time_extraction_once_per_request() {
    let _serial = pool_lock();
    let (engine, registry, probe, range) = test_engine(19, 12);
    let extract = registry.histogram("query.frame.extract_nanos");
    let frame = random_frame(&mut rand::rngs::StdRng::seed_from_u64(23));

    // Pre-extracted features skip the extraction stage entirely.
    engine.query_features(&probe, range, &options(3, 1));
    assert_eq!(extract.count(), 0);

    // Every query-by-frame records one sample, whether or not it scores.
    engine.query_frame(&frame, &options(3, 1));
    engine.query_frame(&frame, &options(0, THREADS_AUTO));
    assert_eq!(extract.count(), 2);
    assert_eq!(registry.counter("query.frame.requests").get(), 3);
    // TestClock never advanced: the recorded durations are exactly 0.
    assert_eq!(extract.sum(), 0);
    assert_eq!(extract.p99(), 0);
}

#[test]
fn empty_catalog_is_graceful_and_counted() {
    let mut engine = QueryEngine::from_catalog(Vec::new(), HashMap::new());
    let registry = Arc::new(Registry::with_clock(Arc::new(TestClock::new())));
    engine.set_telemetry(registry.clone());
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let probe_frame = random_frame(&mut rng);
    let probe = FeatureSet::extract(&probe_frame);
    let range = paper_range(&Histogram256::of_rgb_luma(&probe_frame));

    for threads in [1, THREADS_AUTO] {
        assert!(engine
            .query_features(&probe, range, &options(5, threads))
            .is_empty());
        assert!(engine
            .query_feature_sequence(std::slice::from_ref(&probe), &options(5, threads))
            .is_empty());
    }
    assert_eq!(registry.counter("query.frame.requests").get(), 2);
    assert_eq!(registry.counter("query.clip.requests").get(), 2);
    assert_eq!(registry.counter("query.frame.candidates").get(), 0);
    assert_eq!(registry.histogram("query.frame.score_nanos").count(), 0);
}

#[test]
fn clip_queries_record_dtw_and_rank_stages() {
    let _serial = pool_lock();
    let (engine, registry, probe, _) = test_engine(77, 18);
    let videos = engine.video_ids().len();
    let query = vec![probe.clone(), probe];

    let serial = engine.query_feature_sequence(&query, &options(videos + 2, 1));
    let parallel = engine.query_feature_sequence(&query, &options(videos + 2, THREADS_AUTO));
    assert_eq!(serial.len(), videos);
    assert_eq!(serial, parallel);

    assert_eq!(registry.counter("query.clip.requests").get(), 2);
    assert_eq!(registry.histogram("query.clip.dtw_nanos").count(), 2);
    assert_eq!(registry.histogram("query.clip.rank_nanos").count(), 2);
    // k = 0 counts the request but skips both stages.
    assert!(engine
        .query_feature_sequence(&query, &options(0, 1))
        .is_empty());
    assert_eq!(registry.counter("query.clip.requests").get(), 3);
    assert_eq!(registry.histogram("query.clip.dtw_nanos").count(), 2);
}

/// A clock that moves 1 ms forward on every reading, so any timed
/// region spans a positive, sub-second duration.
#[derive(Default)]
struct StepClock {
    nanos: AtomicU64,
}

impl Clock for StepClock {
    fn now_nanos(&self) -> u64 {
        self.nanos.fetch_add(1_000_000, Ordering::SeqCst)
    }
}

#[test]
fn compaction_records_one_sub_second_sample_per_pass() {
    let (mut engine, _, _, _) = test_engine(21, 9);
    let registry = Arc::new(Registry::with_clock(Arc::new(StepClock::default())));
    engine.set_telemetry(registry.clone());
    let compaction = registry.histogram("compaction.nanos");
    assert_eq!(compaction.count(), 0);

    assert_eq!(engine.remove_video(2), 3);
    let report = engine.compact();
    assert_eq!(report.rows_dropped, 3);
    assert_eq!(registry.counter("compaction.runs").get(), 1);
    assert_eq!(compaction.count(), 1);
    // A sub-second pass is recorded, not truncated to zero.
    let nanos = compaction.sum();
    assert!(nanos > 0 && nanos < 1_000_000_000, "{nanos}");
}

#[test]
fn render_snapshot_is_stable_for_a_fixed_workload() {
    // Same workload on a fresh TestClock registry → byte-identical
    // exposition, independent of thread scheduling.
    let run = || {
        let clock = Arc::new(TestClock::new());
        let registry = Registry::with_clock(clock.clone());
        registry.counter("a.count").add(3);
        {
            let _s = registry.span("b.stage_nanos");
            clock.advance(2000);
        }
        registry.histogram("c hist").record_nanos(5);
        registry.render_text()
    };
    let first = run();
    assert_eq!(first, run());
    assert_eq!(
        first,
        "a.count 3\n\
         b.stage_nanos.count 1\n\
         b.stage_nanos.p50 2047\n\
         b.stage_nanos.p99 2047\n\
         b.stage_nanos.sum 2000\n\
         c_hist.count 1\n\
         c_hist.p50 7\n\
         c_hist.p99 7\n\
         c_hist.sum 5\n"
    );
}

#[test]
fn serial_clip_telemetry_is_identical_across_engines() {
    // Two engines built from the same entries walk their videos in the
    // same (arena) order, so a serial clip query's cutoff trajectory —
    // and every abandon and element it counts — is reproducible.
    let mut rng = rand::rngs::StdRng::seed_from_u64(909);
    let frames: Vec<RgbImage> = (0..12).map(|_| random_frame(&mut rng)).collect();
    // 16 videos of 3 contiguous key frames each.
    let entries: Vec<CatalogEntry> = (0..48)
        .map(|i| entry_from_frame(i as u64 + 1, i as u64 / 3 + 1, &frames[(i * 7) % 12]))
        .collect();
    let queries: Vec<Vec<FeatureSet>> = (0..3)
        .map(|q| {
            vec![
                FeatureSet::extract(&frames[q]),
                FeatureSet::extract(&random_frame(&mut rng)),
            ]
        })
        .collect();
    let run = |abandon: bool| {
        let mut engine = QueryEngine::from_catalog(entries.clone(), HashMap::new());
        let registry = Arc::new(Registry::with_clock(Arc::new(TestClock::new())));
        engine.set_telemetry(registry.clone());
        let options = QueryOptions {
            k: 3,
            threads: 1,
            abandon,
            ..QueryOptions::default()
        };
        let results: Vec<_> = queries
            .iter()
            .map(|q| engine.query_feature_sequence(q, &options))
            .collect();
        (
            results,
            registry.counter("query.abandon.dtw").get(),
            registry.counter("query.clip.elements").get(),
        )
    };
    let first = run(true);
    assert_eq!(first, run(true));
    assert!(first.1 > 0, "the bounded DTW abandons some videos");

    // Without abandon every cell runs all seven kernels to the end:
    // 3 queries × 2 query frames × 48 rows × 673 elements, no bound pass.
    let exact = run(false);
    assert_eq!(exact.0, first.0, "abandon never changes the ranking");
    assert_eq!(exact.1, 0);
    assert_eq!(exact.2, 3 * 2 * 48 * 673);
    assert!(first.2 < exact.2, "{} vs {}", first.2, exact.2);
}
