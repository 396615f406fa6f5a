//! `scan_large`: one in-process client, closed loop, over a catalog of
//! 25 000 distinct rows (about 68 MB of arena slabs, far beyond the
//! last-level cache).
//!
//! Most ops are `query_features` calls with the web tier's defaults
//! (k = 10, index and early abandon on); a fifth of them use
//! single-feature weights. Every fourth op is a `query_feature_sequence`
//! clip query. Query descriptors are pre-extracted from held-out frames,
//! so extraction, storage and the web tier drop out and the index, the
//! arena cascade and DTW do all the work. Every query runs on the calling
//! thread alone: on a small shared host the share of a second core that
//! the pool gets swings from run to run, and with it any parallel
//! query's latency.

use crate::calib::Calibration;
use crate::catalog::{BaseSet, Rng, KINDS};
use crate::run::{cascade_counts, extraction_layers, frame_path_layers, timed_setup, Env};
use crate::run::{FrameQuery, Report, Snap, TAIL};
use crate::stats::{ratio, Samples};
use crate::trace::Ctx;
use cbvr_core::{FeatureWeights, FrameMatch, QueryEngine, QueryOptions, VideoMatch};
use cbvr_features::{FeatureKind, FeatureSet};
use std::time::Instant;

/// Extracted base frames the catalog rows are assembled from.
const BASES: usize = 48;
/// Catalog rows.
const ROWS: usize = 25_000;
/// Held-out frames the queries are assembled from (never in the catalog).
const QUERY_BASES: usize = 32;
/// Distinct frame queries.
const FRAME_QUERIES: usize = 256;
/// Distinct clip queries.
const CLIP_QUERIES: usize = 32;
/// Key frames per clip query. DTW cost grows with it, so it is fixed:
/// a seed-dependent mix of lengths would move the clip percentiles.
const CLIP_LEN: usize = 2;
/// One op in this many is a clip query (about 125 per run).
const CLIP_EVERY: usize = 4;
/// Clip queries a run needs at least, for ten samples beyond p90.
const MIN_CLIPS: usize = 120;
/// Share of frame queries that rank by one feature.
const SINGLE_FEATURE_SHARE: f64 = 0.2;
/// Seconds between host-speed samples, taken between two ops.
const CALIBRATION_PERIOD_S: f64 = 0.25;
/// Queries re-run through the exact path after the timed region.
const CHECKED_FRAMES: usize = 16;
const CHECKED_CLIPS: usize = 4;
/// Frame queries replayed serially for the exact cascade counts.
const COUNTED_FRAMES: usize = 64;

struct Built {
    engine: QueryEngine,
    frames: Vec<FrameQuery>,
    clips: Vec<Vec<FeatureSet>>,
}

fn build(env: &Env, ctx: Ctx) -> Built {
    let tracer = &env.tracer;
    let bases = BaseSet::seeded(&mut Rng::stream(env.seed, 1), BASES, tracer, ctx);
    let engine = {
        let (entries, names) = bases.catalog(&mut Rng::stream(env.seed, 2), ROWS, 1, 1);
        let _span = tracer.span("core.build_engine", ctx);
        QueryEngine::from_catalog(entries, names)
    };
    let held = BaseSet::seeded(&mut Rng::stream(env.seed, 3), QUERY_BASES, tracer, ctx);
    let mut rng = Rng::stream(env.seed, 4);
    let frames = held
        .distinct_picks(&mut rng, FRAME_QUERIES)
        .iter()
        .map(|p| {
            let (features, range) = held.row(p);
            let weights = if rng.unit() < SINGLE_FEATURE_SHARE {
                FeatureWeights::single(FeatureKind::ALL[rng.below(KINDS)])
            } else {
                FeatureWeights::default()
            };
            FrameQuery {
                features,
                range,
                weights,
            }
        })
        .collect();
    let clips = (0..CLIP_QUERIES)
        .map(|_| {
            held.distinct_picks(&mut rng, CLIP_LEN)
                .iter()
                .map(|p| held.row(p).0)
                .collect()
        })
        .collect();
    Built {
        engine,
        frames,
        clips,
    }
}

/// What one op returned, kept for the checked queries only.
enum Answer {
    Frame(usize, Vec<FrameMatch>),
    Clip(usize, Vec<VideoMatch>),
}

/// Run the workload.
pub fn run(env: &Env) -> Report {
    let mut report = Report::default();
    let built = timed_setup(env, &mut report, |_, ctx| build(env, ctx));
    let clip_options = QueryOptions {
        k: crate::run::K,
        threads: 1,
        ..QueryOptions::default()
    };
    let mut rng = Rng::stream(env.seed, 5);
    let (mut frame_ms, mut clip_ms, mut answers) = (vec![], vec![], vec![]);

    let ticks = crate::calib::Ticks::now();
    let calibration = Calibration::default();
    let (mut calibrating_s, mut next_calibration) = (0.0, 0.0);
    let before = Snap::take();
    let start = Instant::now();
    let mut op = 0usize;
    // Measure for the run length, and on a slow or busy machine a little
    // longer, until the clip tail has enough samples behind it.
    while start.elapsed().as_secs_f64() < env.seconds || clip_ms.len() < MIN_CLIPS {
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= next_calibration {
            let t = Instant::now();
            calibration.sample();
            calibrating_s += t.elapsed().as_secs_f64();
            next_calibration = elapsed + CALIBRATION_PERIOD_S;
        }
        let span = env.tracer.op("op.query");
        let t = Instant::now();
        if op % CLIP_EVERY == CLIP_EVERY - 1 {
            let c = rng.below(CLIP_QUERIES);
            let result = {
                let _span = env.tracer.span("core.query_feature_sequence", span.ctx());
                built
                    .engine
                    .query_feature_sequence(&built.clips[c], &clip_options)
            };
            clip_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if c < CHECKED_CLIPS {
                answers.push(Answer::Clip(c, result));
            }
        } else {
            let f = rng.below(FRAME_QUERIES);
            let q = &built.frames[f];
            let result = {
                let _span = env.tracer.span("core.query_features", span.ctx());
                built
                    .engine
                    .query_features(&q.features, q.range, &q.serial_options())
            };
            frame_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if f < CHECKED_FRAMES {
                answers.push(Answer::Frame(f, result));
            }
        }
        op += 1;
    }
    let wall_s = start.elapsed().as_secs_f64() - calibrating_s;
    let after = Snap::take();

    // Exact reference answers (one thread, no abandon) for the checked
    // queries, compared with every timed answer to them.
    let exact_frames: Vec<Vec<FrameMatch>> = built.frames[..CHECKED_FRAMES]
        .iter()
        .map(|q| {
            built
                .engine
                .query_features(&q.features, q.range, &q.exact_options())
        })
        .collect();
    let exact_clip_options = QueryOptions {
        threads: 1,
        abandon: false,
        ..clip_options.clone()
    };
    let exact_clips: Vec<Vec<VideoMatch>> = built.clips[..CHECKED_CLIPS]
        .iter()
        .map(|c| built.engine.query_feature_sequence(c, &exact_clip_options))
        .collect();
    let wrong = answers
        .iter()
        .filter(|a| match a {
            Answer::Frame(i, r) => *r != exact_frames[*i],
            Answer::Clip(i, r) => *r != exact_clips[*i],
        })
        .count() as u64;
    report.attempted = op as u64;
    report.failed = wrong;
    report.correct = wrong == 0;

    let frames = Samples::new(frame_ms);
    let clips = Samples::new(clip_ms);
    report.put_latency("frame_query_p50_ms", "frame_query_p90_ms", TAIL, &frames);
    report.put_latency("clip_query_p50_ms", "clip_query_p90_ms", TAIL, &clips);
    report.put_latency("second_op_p50_ms", "second_op_p90_ms", TAIL, &clips);
    report.put("frame_query_qps", "1/s", frames.len() as f64 / wall_s);
    report.put("clip_queries_per_s", "1/s", clips.len() as f64 / wall_s);
    report.put("second_op_per_s", "1/s", clips.len() as f64 / wall_s);
    report.put("error_rate", "ratio", ratio(wrong as f64, op as f64));

    frame_path_layers(&mut report, &before, &after, wall_s);
    cascade_counts(&mut report, &built.engine, &built.frames[..COUNTED_FRAMES]);
    let videos = built.engine.video_ids().len() as f64;
    let clip_count = before.delta(&after, "query.clip.requests");
    report.put(
        "dtw.ms",
        "ms",
        before.mean_ms(&after, "query.clip.dtw_nanos"),
    );
    report.put("dtw.videos_per_query", "count", videos);
    report.put(
        "dtw.abandon_ratio",
        "ratio",
        ratio(
            before.delta(&after, "query.abandon.dtw"),
            clip_count * videos,
        ),
    );
    extraction_layers(&mut report, &env.tracer);
    calibration.report(&mut report, &ticks);
    report.scale(
        calibration.factor(),
        &[
            "frame_query_p50_ms",
            "frame_query_p90_ms",
            "clip_query_p50_ms",
            "clip_query_p90_ms",
            "second_op_p50_ms",
            "second_op_p90_ms",
            "setup_s",
        ],
        &["frame_query_qps", "clip_queries_per_s", "second_op_per_s"],
    );
    report
}
