//! `web_search`: open-loop user sessions against an in-process
//! `cbvr_web::Server` on loopback.
//!
//! A session posts a held-out 160×120 BMP frame to
//! `POST /query?k=10&format=json`, then fetches every result's
//! thumbnail with `GET /keyframe`. Sessions are due on a fixed schedule
//! below capacity and sent by one client, so at most one is in flight.
//! Each request and the whole session are timed from when they were
//! sent; how late the session started is reported apart
//! (`loadgen.late_ms`) and counts toward the session SLO. The catalog is
//! a file-backed database of 2048 key frames whose images (~118 MB) far
//! exceed the pager's 4 MiB cache.

use crate::calib::Calibration;
use crate::catalog::{extract, range_of, seeded_clips, short_clip_generator};
use crate::catalog::{BaseSet, Rng};
use crate::http::{parse_matches, send, JsonMatch};
use crate::run::{cascade_counts, extraction_layers, fail, frame_path_layers, timed_setup};
use crate::run::{Env, FrameQuery, Report, Snap, K, TAIL};
use crate::spec::SESSION_SLO_MS;
use crate::stats::{ratio, Samples};
use crate::trace::Ctx;
use cbvr_core::{FeatureWeights, QueryEngine};
use cbvr_imgproc::codec::{encode, ImageFormat};
use cbvr_imgproc::RgbImage;
use cbvr_storage::{CbvrDatabase, KeyFrameRecord, ManifestSegment, VideoRecord};
use cbvr_video::{GeneratorConfig, VideoGenerator};
use cbvr_web::server::ServerConfig;
use cbvr_web::{AppState, Server};
use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Extracted base frames the catalog rows are assembled from.
const BASES: usize = 24;
/// Catalog key frames.
const ROWS: usize = 2048;
/// Key frames per stored video.
const ROWS_PER_VIDEO: usize = 16;
/// Offered load, sessions per second. A session takes ~135 ms on a quiet
/// host; when the host runs slower, sessions start late rather than
/// overlap, and since each is timed from when it was sent, a slow host
/// slows the latencies in proportion instead of queueing them up (timed
/// from when they were due, a host 1.9× slower pushed the median from
/// 120 to 980 ms).
const RATE: f64 = 5.0;
/// Sessions whose replies are compared with the exact path (each needs
/// its frame extracted again).
const CHECKED_SESSIONS: usize = 24;
/// Rows whose id is a multiple of this keep their image in memory, so
/// the thumbnails served for them can be compared byte for byte.
const THUMB_SAMPLE: u64 = 16;
/// Size of a 160×120 24-bit BMP.
const BMP_BYTES: usize = 54 + 160 * 3 * 120;

struct Built {
    dir: PathBuf,
    server: Option<Server>,
    addr: SocketAddr,
    /// The same catalog loaded a second time, for reference answers.
    reference: QueryEngine,
    queries: Vec<RgbImage>,
    bodies: Vec<Vec<u8>>,
    /// Sampled rows' images, by `i_id`.
    images: HashMap<u64, RgbImage>,
}

impl Drop for Built {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.stop();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn build(env: &Env, attempt: usize, ctx: Ctx) -> Built {
    let tracer = &env.tracer;
    let bases = BaseSet::seeded(&mut Rng::stream(env.seed, 1), BASES, tracer, ctx);
    let picks = bases.distinct_picks(&mut Rng::stream(env.seed, 2), ROWS);
    // Thumbnails: distinct rendered frames, one 16-frame clip per video.
    let thumb_gen = VideoGenerator::new(GeneratorConfig {
        shots_per_video: 4,
        min_shot_frames: 4,
        max_shot_frames: 4,
        ..GeneratorConfig::default()
    })
    .expect("valid generator config");
    let clips = seeded_clips(
        &mut Rng::stream(env.seed, 3),
        ROWS / ROWS_PER_VIDEO,
        &thumb_gen,
    );

    let dir = env.out_dir.join(format!("web_search_db_{attempt}"));
    let _ = std::fs::remove_dir_all(&dir);
    let mut db = CbvrDatabase::open_dir(&dir).unwrap_or_else(|e| fail(&format!("open db: {e}")));
    let mut images = HashMap::new();
    let write = tracer.span("storage.write_catalog", ctx);
    for (v, (category, clip)) in clips.iter().enumerate() {
        let rows = &picks[v * ROWS_PER_VIDEO..(v + 1) * ROWS_PER_VIDEO];
        let ids = db
            .run_batch(|db| {
                let v_id = db.insert_video(&VideoRecord {
                    v_name: format!("{}_{v}", category.name()),
                    video: Vec::new(),
                    stream: Vec::new(),
                    dostore: 0,
                })?;
                let mut ids = Vec::with_capacity(rows.len());
                for (r, p) in rows.iter().enumerate() {
                    let (strings, majorregions) = bases.row_strings(p);
                    let [sch, glcm, gabor, tamura, acc, naive, srg] = strings.map(str::to_string);
                    let (_, range) = bases.row(p);
                    ids.push(db.insert_key_frame(&KeyFrameRecord {
                        i_name: format!("v{v_id}_kf_{r:05}"),
                        image: encode(&clip.frames()[r], ImageFormat::Ppm),
                        min: range.min,
                        max: range.max,
                        sch,
                        glcm,
                        gabor,
                        tamura,
                        acc,
                        naive,
                        srg,
                        majorregions,
                        v_id,
                    })?);
                }
                db.append_manifest_segment(ManifestSegment {
                    min_i_id: ids[0],
                    max_i_id: ids[ids.len() - 1],
                    rows: ids.len() as u64,
                })?;
                Ok(ids)
            })
            .unwrap_or_else(|e| fail(&format!("write catalog: {e}")));
        for (r, id) in ids.into_iter().enumerate() {
            if id % THUMB_SAMPLE == 0 {
                images.insert(id, clip.frames()[r].clone());
            }
        }
    }
    drop(write);
    let reference = {
        let _span = tracer.span("core.load_engine", ctx);
        QueryEngine::from_database(&mut db).unwrap_or_else(|e| fail(&format!("load engine: {e}")))
    };
    let server = {
        let _span = tracer.span("web.start_server", ctx);
        let state = AppState::new(db).unwrap_or_else(|e| fail(&format!("app state: {e}")));
        Server::start_with(state, "127.0.0.1:0", &ServerConfig::default())
            .unwrap_or_else(|e| fail(&format!("start server: {e}")))
    };
    // One distinct held-out frame per session: extraction cost depends on
    // content, and a few frames reused all run would make the medians a
    // property of the seed.
    let mut rng = Rng::stream(env.seed, 4);
    let queries: Vec<RgbImage> =
        seeded_clips(&mut rng, sessions(env), &short_clip_generator(160, 120))
            .into_iter()
            .map(|(_, clip)| {
                let mut frames = clip.into_frames();
                let i = rng.below(frames.len());
                frames.swap_remove(i)
            })
            .collect();
    let bodies = queries
        .iter()
        .map(|q| encode(q, ImageFormat::Bmp))
        .collect();
    Built {
        dir,
        addr: server.addr(),
        server: Some(server),
        reference,
        queries,
        bodies,
        images,
    }
}

/// One session's outcome.
#[derive(Default)]
struct Session {
    query: usize,
    late_ms: f64,
    frame_ms: f64,
    thumbs_ms: Vec<f64>,
    /// Every request's client-side latency (send to last byte).
    requests_ms: Vec<f64>,
    session_ms: f64,
    attempted: u64,
    failed: u64,
    matches: Option<Vec<JsonMatch>>,
    /// Sampled thumbnails: `(i_id, body)`.
    sampled: Vec<(u64, Vec<u8>)>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn run_session(env: &Env, built: &Built, query: usize, due: Instant) -> Session {
    let mut s = Session {
        query,
        late_ms: ms(Instant::now() - due),
        ..Session::default()
    };
    let op = env.tracer.op("op.session");
    s.attempted += 1;
    let sent = Instant::now();
    let reply = {
        let _span = env.tracer.span("web.post_query", op.ctx());
        send(
            built.addr,
            "POST",
            &format!("/query?k={K}&format=json"),
            &built.bodies[query],
        )
    };
    s.frame_ms = ms(sent.elapsed());
    s.requests_ms.push(s.frame_ms);
    let matches = match reply {
        Ok(r) if r.status == 200 => parse_matches(&r.body),
        _ => None,
    };
    let Some(matches) = matches else {
        s.failed += 1;
        s.session_ms = ms(sent.elapsed());
        return s;
    };
    for m in &matches {
        s.attempted += 1;
        let sent = Instant::now();
        let reply = {
            let _span = env.tracer.span("web.get_keyframe", op.ctx());
            send(built.addr, "GET", &format!("/keyframe?id={}", m.i_id), &[])
        };
        let took = ms(sent.elapsed());
        s.requests_ms.push(took);
        s.thumbs_ms.push(took);
        match reply {
            Ok(r)
                if r.status == 200
                    && r.content_type == "image/bmp"
                    && r.body.len() == BMP_BYTES =>
            {
                if m.i_id % THUMB_SAMPLE == 0 {
                    s.sampled.push((m.i_id, r.body));
                }
            }
            _ => s.failed += 1,
        }
    }
    s.matches = Some(matches);
    s.session_ms = ms(sent.elapsed());
    s
}

/// `storage.*` counters of the served database, read over HTTP.
fn storage_counters(addr: SocketAddr) -> BTreeMap<String, f64> {
    let reply =
        send(addr, "GET", "/metrics", &[]).unwrap_or_else(|e| fail(&format!("/metrics: {e}")));
    String::from_utf8_lossy(&reply.body)
        .lines()
        .filter(|l| l.starts_with("storage."))
        .filter_map(|l| {
            let (k, v) = l.rsplit_once(' ')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect()
}

fn sessions(env: &Env) -> usize {
    (RATE * env.seconds).round() as usize
}

/// The exact answer for each checked session's frame, as the JSON reply
/// prints it.
fn reference_answers(
    env: &Env,
    report: &mut Report,
    built: &Built,
    checked: &[usize],
) -> HashMap<usize, Vec<JsonMatch>> {
    let op = env.tracer.op("op.check");
    let sets = {
        let _span = env.tracer.span("features.extract", op.ctx());
        extract(checked.iter().map(|&i| &built.queries[i]))
    };
    let queries: Vec<FrameQuery> = sets
        .into_iter()
        .zip(checked)
        .map(|(features, &i)| FrameQuery {
            features,
            range: range_of(&built.queries[i]),
            weights: FeatureWeights::default(),
        })
        .collect();
    cascade_counts(report, &built.reference, &queries);
    checked
        .iter()
        .zip(&queries)
        .map(|(&i, q)| {
            let answer = built
                .reference
                .query_features(&q.features, q.range, &q.exact_options())
                .into_iter()
                .map(|m| JsonMatch {
                    i_id: m.i_id,
                    score: format!("{:.6}", m.score),
                })
                .collect();
            (i, answer)
        })
        .collect()
}

/// Run the workload.
pub fn run(env: &Env) -> Report {
    let mut report = Report::default();
    let built = timed_setup(env, &mut report, |attempt, ctx| build(env, attempt, ctx));
    let sessions = sessions(env);
    let checked: Vec<usize> = {
        let mut rng = Rng::stream(env.seed, 5);
        let mut all: Vec<usize> = (0..sessions).collect();
        (0..CHECKED_SESSIONS.min(sessions))
            .map(|_| all.swap_remove(rng.below(all.len())))
            .collect()
    };

    let storage_before = storage_counters(built.addr);
    let before = Snap::take();
    let ticks = crate::calib::Ticks::now();
    let calibration = Calibration::default();
    let mut results = Vec::with_capacity(sessions);
    let t0 = Instant::now() + Duration::from_millis(20);
    for i in 0..sessions {
        let due = t0 + Duration::from_secs_f64(i as f64 / RATE);
        // Sample the host speed while no session is in flight.
        calibration.sample();
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        results.push(run_session(env, &built, i, due));
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let after = Snap::take();
    let storage_after = storage_counters(built.addr);

    let reference = reference_answers(env, &mut report, &built, &checked);
    let (mut frame_ms, mut thumbs_ms, mut session_ms) = (vec![], vec![], vec![]);
    let (mut requests_ms, mut late) = (vec![], vec![]);
    let (mut attempted, mut failed, mut slo_miss) = (0u64, 0u64, 0usize);
    for s in &results {
        let wrong = match (&s.matches, reference.get(&s.query)) {
            (Some(m), Some(exact)) => m != exact,
            _ => false,
        };
        let bad_thumbs = s
            .sampled
            .iter()
            .filter(|(id, body)| {
                cbvr_imgproc::decode_auto(body).ok().as_ref() != built.images.get(id)
            })
            .count() as u64;
        let session_failed = s.failed + u64::from(wrong) + bad_thumbs;
        attempted += s.attempted;
        failed += session_failed;
        slo_miss += usize::from(session_failed > 0 || s.late_ms + s.session_ms > SESSION_SLO_MS);
        frame_ms.push(s.frame_ms);
        thumbs_ms.extend(&s.thumbs_ms);
        session_ms.push(s.session_ms);
        requests_ms.extend(&s.requests_ms);
        late.push(s.late_ms);
    }
    report.attempted = attempted;
    report.failed = failed;
    report.correct = failed == 0 && results.len() == sessions;

    let frames = Samples::new(frame_ms);
    let thumbs = Samples::new(thumbs_ms);
    let whole = Samples::new(session_ms);
    report.put_latency("frame_query_p50_ms", "frame_query_p90_ms", TAIL, &frames);
    report.put_latency("thumbnail_p50_ms", "thumbnail_p90_ms", TAIL, &thumbs);
    report.put_latency("session_p50_ms", "session_p90_ms", TAIL, &whole);
    report.put_latency("second_op_p50_ms", "second_op_p90_ms", TAIL, &whole);
    report.put("frame_query_qps", "1/s", frames.len() as f64 / wall_s);
    report.put("thumbnails_per_s", "1/s", thumbs.len() as f64 / wall_s);
    report.put("second_op_per_s", "1/s", whole.len() as f64 / wall_s);
    report.put("loadgen.sessions", "count", results.len() as f64);
    let miss_rate = ratio(slo_miss as f64, results.len() as f64);
    report.put("slo_miss_rate", "ratio", miss_rate);
    report.put("loadgen.slo_miss_rate", "ratio", miss_rate);
    report.put(
        "error_rate",
        "ratio",
        ratio(failed as f64, attempted as f64),
    );
    report.put(
        "loadgen.late_ms",
        "ms",
        Samples::new(late).mean().unwrap_or(0.0),
    );

    frame_path_layers(&mut report, &before, &after, wall_s);
    let server_ms = before.mean_ms(&after, "web.request_nanos");
    report.put("web.server_ms", "ms", server_ms);
    report.put(
        "web.wait_ms",
        "ms",
        Samples::new(requests_ms).mean().unwrap_or(0.0) - server_ms,
    );
    report.put(
        "web.rejected",
        "count",
        before.delta(&after, "web.backpressure.rejected"),
    );
    let storage = |name: &str| {
        storage_after.get(name).copied().unwrap_or(0.0)
            - storage_before.get(name).copied().unwrap_or(0.0)
    };
    let (hits, misses) = (
        storage("storage.cache.hits"),
        storage("storage.cache.misses"),
    );
    report.put(
        "storage.cache_hit_ratio",
        "ratio",
        ratio(hits, hits + misses),
    );
    report.put(
        "storage.misses_per_thumbnail",
        "count",
        ratio(misses, thumbs.len() as f64),
    );
    extraction_layers(&mut report, &env.tracer);
    calibration.report(&mut report, &ticks);
    report.scale(
        calibration.factor(),
        &[
            "frame_query_p50_ms",
            "frame_query_p90_ms",
            "thumbnail_p50_ms",
            "thumbnail_p90_ms",
            "session_p50_ms",
            "session_p90_ms",
            "second_op_p50_ms",
            "second_op_p90_ms",
            "setup_s",
        ],
        &[],
    );
    report
}
