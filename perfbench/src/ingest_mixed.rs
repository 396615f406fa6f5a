//! `ingest_mixed`: a writer ingests a fixed number of generated,
//! category-labelled 160×120 clips into a file-backed database while one
//! reader runs closed-loop frame queries against the live engine.
//!
//! The engine starts with 4 000 distinct distractor rows. The writer
//! runs `ingest_video`, reads the committed rows back through the
//! storage API and publishes them with `add_video`; every 20 videos it
//! tombstones a few distractor videos and runs `compact()`. A fixed video
//! count (4 per measured second) makes the final catalog, its precision
//! and the bytes written a function of the seed alone.

use crate::calib::{Calibration, Gate};
use crate::catalog::{extract, range_of, seeded_clips, seeded_keyframes, short_clip_generator};
use crate::catalog::{BaseSet, Rng};
use crate::run::{cascade_counts, extraction_layers, fail, frame_path_layers, timed_setup};
use crate::run::{Env, FrameQuery, Report, Snap, K, TAIL};
use crate::stats::{ratio, Samples};
use crate::trace::Ctx;
use cbvr_core::engine::CatalogEntry;
use cbvr_core::{ingest_video, ExecPool, FeatureWeights, FrameMatch, IngestConfig, QueryEngine};
use cbvr_core::{KeyframeConfig, QueryOptions, THREADS_AUTO};
use cbvr_features::{FeatureKind, FeatureSet};
use cbvr_index::RangeKey;
use cbvr_keyframe::extract_keyframes;
use cbvr_storage::page::PAGE_SIZE;
use cbvr_storage::{CbvrDatabase, FileBackend};
use cbvr_video::{Category, GeneratorConfig, Video, VideoGenerator};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Extracted base frames the distractor rows are assembled from.
const BASES: usize = 24;
/// Distractor rows the engine starts with.
const DISTRACTORS: usize = 4000;
/// Distractor ids start here, far above any id the database assigns.
const DISTRACTOR_IDS: u64 = 1 << 40;
/// Videos ingested per measured second of the run (100 in a 20 s run,
/// enough for ten samples beyond the p90).
const VIDEOS_PER_SECOND: f64 = 5.0;
/// Compaction cadence, in ingested videos.
const COMPACT_EVERY: usize = 20;
/// Distractor videos tombstoned before each compaction.
const REMOVED_PER_COMPACTION: usize = 5;
/// Held-out query frames (four per category).
const HELD_OUT: usize = 20;
/// Distinct reader queries, assembled from the held-out frames.
const READER_QUERIES: usize = 256;
/// Key frames in every ingested clip.
const KEYFRAMES_PER_CLIP: usize = 1;

struct Built {
    dir: PathBuf,
    db: Option<CbvrDatabase<FileBackend>>,
    engine: QueryEngine,
    distractor_videos: Vec<u64>,
    clips: Vec<(Category, Video)>,
    /// Labelled held-out frames, for precision.
    held: Vec<(Category, FrameQuery)>,
    /// The reader's queries.
    reads: Vec<FrameQuery>,
}

impl Drop for Built {
    fn drop(&mut self) {
        drop(self.db.take());
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn build(env: &Env, attempt: usize, ctx: Ctx) -> Built {
    let tracer = &env.tracer;
    let bases = BaseSet::seeded(&mut Rng::stream(env.seed, 1), BASES, tracer, ctx);
    let (entries, names) = bases.catalog(
        &mut Rng::stream(env.seed, 2),
        DISTRACTORS,
        DISTRACTOR_IDS,
        DISTRACTOR_IDS,
    );
    let mut distractor_videos: Vec<u64> = names.keys().copied().collect();
    distractor_videos.sort_unstable();
    let engine = {
        let _span = tracer.span("core.build_engine", ctx);
        QueryEngine::from_catalog(entries, names)
    };
    let dir = env.out_dir.join(format!("ingest_mixed_db_{attempt}"));
    let _ = std::fs::remove_dir_all(&dir);
    let db = CbvrDatabase::open_dir(&dir).unwrap_or_else(|e| fail(&format!("open db: {e}")));
    let videos = (VIDEOS_PER_SECOND * env.seconds).round() as usize;
    let clips = clips_with_keyframes(&mut Rng::stream(env.seed, 3), videos);
    let frames = seeded_keyframes(
        &mut Rng::stream(env.seed, 4),
        HELD_OUT,
        &short_clip_generator(160, 120),
        tracer,
        ctx,
    );
    let sets = {
        let _span = tracer.span("features.extract", ctx);
        extract(frames.iter().map(|f| &f.frame))
    };
    // The reader cycles through distinct rows assembled from the held-out
    // frames: many distinct queries, so its latencies do not hinge on a
    // handful of frames.
    let held_bases = BaseSet::new(&frames, sets.clone());
    let reads = held_bases
        .distinct_picks(&mut Rng::stream(env.seed, 5), READER_QUERIES)
        .iter()
        .map(|p| {
            let (features, range) = held_bases.row(p);
            FrameQuery {
                features,
                range,
                weights: FeatureWeights::default(),
            }
        })
        .collect();
    let held = frames
        .iter()
        .zip(sets)
        .map(|(f, features)| {
            let range = range_of(&f.frame);
            (
                f.category,
                FrameQuery {
                    features,
                    range,
                    weights: FeatureWeights::default(),
                },
            )
        })
        .collect();
    Built {
        dir,
        db: Some(db),
        engine,
        distractor_videos,
        clips,
        held,
        reads,
    }
}

/// `n` seeded single-shot clips (categories drawn round robin) with
/// exactly [`KEYFRAMES_PER_CLIP`] key frames: ingest cost is mostly
/// per-key-frame extraction, and a seed-dependent mix of counts would
/// move the ingest percentiles from seed to seed.
fn clips_with_keyframes(rng: &mut Rng, n: usize) -> Vec<(Category, Video)> {
    let generator = VideoGenerator::new(GeneratorConfig {
        shots_per_video: 1,
        min_shot_frames: 8,
        max_shot_frames: 14,
        ..GeneratorConfig::default()
    })
    .expect("valid generator config");
    let config = KeyframeConfig::default();
    let mut kept = Vec::with_capacity(n);
    for _ in 0..20 {
        let batch = seeded_clips(rng, n, &generator);
        let counts = ExecPool::global().map(&batch, 1, THREADS_AUTO, |_, (_, clip)| {
            extract_keyframes(clip, &config).len()
        });
        kept.extend(
            batch
                .into_iter()
                .zip(counts)
                .filter(|(_, c)| *c == KEYFRAMES_PER_CLIP)
                .map(|(clip, _)| clip),
        );
        if kept.len() >= n {
            kept.truncate(n);
            return kept;
        }
    }
    fail("the generator rarely yields clips with the wanted key-frame count")
}

/// Read a committed video's key frames back as catalog entries.
fn read_back(db: &mut CbvrDatabase<FileBackend>, ids: &[u64]) -> Result<Vec<CatalogEntry>, String> {
    ids.iter()
        .map(|&id| {
            let row = db.get_key_frame(id).map_err(|e| e.to_string())?;
            let features = FeatureSet::from_feature_strings([
                (FeatureKind::ColorHistogram, row.sch.as_str()),
                (FeatureKind::Glcm, row.glcm.as_str()),
                (FeatureKind::Gabor, row.gabor.as_str()),
                (FeatureKind::Tamura, row.tamura.as_str()),
                (FeatureKind::Correlogram, row.acc.as_str()),
                (FeatureKind::Naive, row.naive.as_str()),
                (FeatureKind::Regions, row.srg.as_str()),
            ])
            .map_err(|e| e.to_string())?;
            Ok(CatalogEntry {
                i_id: row.i_id,
                v_id: row.v_id,
                range: RangeKey::new(row.min, row.max),
                features,
            })
        })
        .collect()
}

/// The reader's options: one thread, so the writer and the reader each
/// keep one of the two cores (with pool helpers joining both, three or
/// more busy threads share two cores and the split varies run to run),
/// and no range index, so its cost follows the catalog's growth rather
/// than the few range keys a seed's held-out frames happen to have.
fn reader_options(q: &FrameQuery) -> QueryOptions {
    QueryOptions {
        threads: 1,
        use_index: false,
        ..q.options()
    }
}

/// Ranked by score descending, ties by id, at most k, scores in [0, 1].
fn well_formed(matches: &[FrameMatch]) -> bool {
    matches.len() <= K
        && matches.iter().all(|m| (0.0..=1.0).contains(&m.score))
        && matches
            .windows(2)
            .all(|w| w[0].score > w[1].score || (w[0].score == w[1].score && w[0].i_id < w[1].i_id))
}

/// What the writer did.
#[derive(Default)]
struct Writes {
    ingest_ms: Vec<f64>,
    compaction_ms: Vec<f64>,
    categories: HashMap<u64, Category>,
    keyframes: usize,
    rows_removed: usize,
    segments_max: usize,
    failed: u64,
    /// Writer wall time, host-speed samples excluded.
    wall_s: f64,
}

/// Ingest every clip. Before each video the writer samples the host
/// speed, holding the reader back meanwhile.
fn write_all(
    env: &Env,
    db: &mut CbvrDatabase<FileBackend>,
    engine: &QueryEngine,
    clips: &[(Category, Video)],
    distractor_videos: &mut Vec<u64>,
    (gate, calibration): (&Gate, &Calibration),
) -> Writes {
    let mut w = Writes::default();
    let mut rng = Rng::stream(env.seed, 6);
    let start = Instant::now();
    let mut calibrating_s = 0.0;
    for (v, (category, clip)) in clips.iter().enumerate() {
        let t = Instant::now();
        gate.calibrate(calibration);
        calibrating_s += t.elapsed().as_secs_f64();
        let name = format!("{}_{v}", category.name());
        let op = env.tracer.op("op.ingest");
        let t = Instant::now();
        let ingested = {
            let _span = env.tracer.span("core.ingest_video", op.ctx());
            ingest_video(
                db,
                &name,
                clip,
                &IngestConfig {
                    threads: 1,
                    ..IngestConfig::default()
                },
            )
        };
        let entries = ingested.map_err(|e| e.to_string()).and_then(|r| {
            let _span = env.tracer.span("storage.read_back", op.ctx());
            read_back(db, &r.keyframe_ids)
        });
        let Ok(entries) = entries else {
            w.failed += 1;
            continue;
        };
        let v_id = entries.first().map_or(0, |e| e.v_id);
        w.keyframes += entries.len();
        {
            let _span = env.tracer.span("segment.add_video", op.ctx());
            engine.add_video(&name, entries);
        }
        w.ingest_ms.push(t.elapsed().as_secs_f64() * 1e3);
        w.categories.insert(v_id, *category);
        w.segments_max = w.segments_max.max(engine.segment_count());
        if (v + 1) % COMPACT_EVERY == 0 {
            for _ in 0..REMOVED_PER_COMPACTION {
                let i = rng.below(distractor_videos.len());
                w.rows_removed += engine.remove_video(distractor_videos.swap_remove(i));
            }
            // Timed from outside: the engine's `compaction.secs` counter
            // truncates to whole seconds.
            let t = Instant::now();
            let _span = env.tracer.span("segment.compact", op.ctx());
            engine.compact();
            w.compaction_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    w.wall_s = start.elapsed().as_secs_f64() - calibrating_s;
    w
}

/// Run the workload.
pub fn run(env: &Env) -> Report {
    let mut report = Report::default();
    let mut built = timed_setup(env, &mut report, |attempt, ctx| build(env, attempt, ctx));
    let storage_before = built.db.as_ref().expect("database open").telemetry();
    let before = Snap::take();
    let done = AtomicBool::new(false);
    let ticks = crate::calib::Ticks::now();
    let (gate, calibration) = (Gate::default(), Calibration::default());
    let start = Instant::now();
    let (writes, (query_ms, malformed, held_s)) = std::thread::scope(|scope| {
        let Built {
            db,
            engine,
            distractor_videos,
            clips,
            reads,
            ..
        } = &mut built;
        let (engine, reads) = (&*engine, &*reads);
        let reader = scope.spawn(|| {
            let mut rng = Rng::stream(env.seed, 7);
            let (mut latencies, mut malformed, mut held_s) = (Vec::new(), 0u64, 0.0);
            while !done.load(Ordering::Acquire) {
                let q = &reads[rng.below(reads.len())];
                let (_pass, held) = gate.enter();
                held_s += held.as_secs_f64();
                let op = env.tracer.op("op.query");
                let t = Instant::now();
                let result = {
                    let _span = env.tracer.span("core.query_features", op.ctx());
                    engine.query_features(&q.features, q.range, &reader_options(q))
                };
                latencies.push(t.elapsed().as_secs_f64() * 1e3);
                malformed += u64::from(!well_formed(&result));
            }
            (latencies, malformed, held_s)
        });
        let db = db.as_mut().expect("database open until drop");
        let writes = write_all(
            env,
            db,
            engine,
            clips,
            distractor_videos,
            (&gate, &calibration),
        );
        done.store(true, Ordering::Release);
        (writes, reader.join().expect("reader thread panicked"))
    });
    // The reader's wall time, without the time it was held back.
    let wall_s = start.elapsed().as_secs_f64() - held_s;
    let after = Snap::take();
    let db = built.db.as_mut().expect("database open");
    let storage_after = db.telemetry();

    // Checks on the final state: every committed key frame is live, the
    // served path agrees with the exact path, and precision is computed
    // on exact answers.
    let expected_live = DISTRACTORS - writes.rows_removed + writes.keyframes;
    let mut failed = writes.failed + malformed;
    failed += u64::from(built.engine.len() != expected_live);
    failed += u64::from(db.key_frame_count().ok() != Some(writes.keyframes));
    let mut precision = Vec::with_capacity(built.held.len());
    for (category, q) in &built.held {
        let exact = built
            .engine
            .query_features(&q.features, q.range, &q.exact_options());
        failed += u64::from(
            built
                .engine
                .query_features(&q.features, q.range, &q.options())
                != exact,
        );
        let relevant: Vec<bool> = exact
            .iter()
            .map(|m| writes.categories.get(&m.v_id) == Some(category))
            .collect();
        precision.push(cbvr_eval::precision_at_k(&relevant, K));
    }
    let attempted = (built.clips.len() + query_ms.len()) as u64;
    report.attempted = attempted;
    report.failed = failed;
    report.correct = failed == 0;

    let queries = Samples::new(query_ms);
    let ingests = Samples::new(writes.ingest_ms.clone());
    let videos = built.clips.len() as f64;
    report.put_latency("frame_query_p50_ms", "frame_query_p90_ms", TAIL, &queries);
    report.put_latency("ingest_p50_ms", "ingest_p90_ms", TAIL, &ingests);
    report.put_latency("second_op_p50_ms", "second_op_p90_ms", TAIL, &ingests);
    report.put("frame_query_qps", "1/s", queries.len() as f64 / wall_s);
    report.put("ingest_videos_per_s", "1/s", videos / writes.wall_s);
    report.put("second_op_per_s", "1/s", videos / writes.wall_s);
    let mean_precision = precision.iter().sum::<f64>() / precision.len() as f64;
    report.put("precision_at_10", "ratio", mean_precision);
    report.put("eval.precision_at_10", "ratio", mean_precision);
    report.put(
        "error_rate",
        "ratio",
        ratio(failed as f64, attempted as f64),
    );

    let wal = (storage_after.wal_bytes - storage_before.wal_bytes) as f64;
    let pages = (storage_after.page_writes - storage_before.page_writes) as f64;
    let written = wal + pages * PAGE_SIZE as f64;
    report.put("bytes_written_per_video", "B", written / videos);
    report.put("storage.bytes_written_per_video", "B", written / videos);
    report.put("storage.wal_bytes_per_video", "B", wal / videos);
    report.put("storage.page_writes_per_video", "count", pages / videos);
    let hits = (storage_after.cache_hits - storage_before.cache_hits) as f64;
    let misses = (storage_after.cache_misses - storage_before.cache_misses) as f64;
    report.put(
        "storage.cache_hit_ratio",
        "ratio",
        ratio(hits, hits + misses),
    );
    report.put(
        "storage.commit_ms",
        "ms",
        before.mean_ms(&after, "ingest.store_nanos"),
    );
    report.put(
        "video.encode_ms",
        "ms",
        before.mean_ms(&after, "ingest.encode_nanos"),
    );
    report.put(
        "ingest.extract_ms",
        "ms",
        before.mean_ms(&after, "ingest.extract_nanos"),
    );
    report.put(
        "ingest.keyframes_per_video",
        "count",
        writes.keyframes as f64 / videos,
    );
    report.put(
        "segment.snapshot_swaps",
        "count",
        before.delta(&after, "catalog.snapshot.swaps"),
    );
    report.put("segment.count_max", "count", writes.segments_max as f64);
    report.put(
        "compaction.rows_dropped",
        "count",
        before.delta(&after, "compaction.rows_dropped"),
    );
    report.put(
        "compaction.ms",
        "ms",
        Samples::new(writes.compaction_ms).mean().unwrap_or(0.0),
    );

    frame_path_layers(&mut report, &before, &after, wall_s);
    let held: Vec<FrameQuery> = built.held.iter().map(|(_, q)| q.clone()).collect();
    cascade_counts(&mut report, &built.engine, &held);
    extraction_layers(&mut report, &env.tracer);
    // The reader is not scaled: it shares the core pair with the busy
    // writer, and did not follow the reference (see README).
    calibration.report(&mut report, &ticks);
    report.scale(
        calibration.factor(),
        &[
            "ingest_p50_ms",
            "ingest_p90_ms",
            "second_op_p50_ms",
            "second_op_p90_ms",
            "setup_s",
        ],
        &["ingest_videos_per_s", "second_op_per_s"],
    );
    report
}
