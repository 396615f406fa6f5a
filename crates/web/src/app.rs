//! The application: routes over shared state, socket-free and testable.

use crate::http::{html_escape, json_escape, Method, Request, Response, StatusCode};
use cbvr_core::telemetry::Registry;
use cbvr_core::{FeatureWeights, QueryEngine, QueryOptions};
use cbvr_features::FeatureKind;
use cbvr_imgproc::codec::{encode as encode_image, ImageFormat};
use cbvr_storage::backend::Backend;
use cbvr_storage::CbvrDatabase;
use std::sync::Mutex;
use std::sync::Arc;

/// Shared application state: the database plus the loaded query engine.
///
/// The engine is *not* behind the database mutex: it serves queries from
/// a published catalog snapshot, so search/query handlers never take
/// that mutex or the engine's commit lock. Only the raw database handle
/// (page cache, BLOB reads) needs the mutex.
pub struct AppState<B: Backend> {
    db: Mutex<CbvrDatabase<B>>,
    engine: QueryEngine,
    telemetry: Arc<Registry>,
}

/// An assembled HTML page (title + body fragments).
pub struct HtmlPage {
    title: String,
    body: String,
}

impl HtmlPage {
    /// Start a page.
    pub fn new(title: &str) -> HtmlPage {
        HtmlPage { title: title.to_string(), body: String::new() }
    }

    /// Append a body fragment (caller escapes its own interpolations).
    pub fn push(&mut self, fragment: &str) -> &mut Self {
        self.body.push_str(fragment);
        self
    }

    /// Render the full document.
    pub fn render(&self) -> String {
        format!(
            "<!doctype html><html><head><meta charset=\"utf-8\"><title>{}</title>\
             <style>body{{font-family:sans-serif;margin:2em}}table{{border-collapse:collapse}}\
             td,th{{border:1px solid #ccc;padding:4px 8px}}img{{image-rendering:pixelated}}</style>\
             </head><body><h1>{}</h1><p><a href=\"/\">catalog</a> · <a href=\"/stats\">stats</a></p>{}\
             </body></html>",
            html_escape(&self.title),
            html_escape(&self.title),
            self.body
        )
    }
}

impl<B: Backend> AppState<B> {
    /// Build the state: loads the engine from the database once.
    /// Telemetry goes to [`Registry::global`].
    pub fn new(db: CbvrDatabase<B>) -> Result<Arc<AppState<B>>, cbvr_core::CoreError> {
        AppState::with_registry(db, Registry::global().clone())
    }

    /// [`AppState::new`] recording into an explicit registry (tests
    /// inject a [`cbvr_core::TestClock`]-driven one for deterministic
    /// `/metrics` goldens).
    pub fn with_registry(
        mut db: CbvrDatabase<B>,
        registry: Arc<Registry>,
    ) -> Result<Arc<AppState<B>>, cbvr_core::CoreError> {
        let mut engine = QueryEngine::from_database(&mut db)?;
        engine.set_telemetry(registry.clone());
        Ok(Arc::new(AppState { db: Mutex::new(db), engine, telemetry: registry }))
    }

    /// The registry this state records requests into.
    pub fn telemetry(&self) -> &Arc<Registry> {
        &self.telemetry
    }

    /// Take the database lock, turning poisoning into an HTTP 500 for
    /// this request instead of propagating the panic and killing the
    /// worker thread. The engine is not behind this lock, so query and
    /// search handlers keep serving even after such a failure.
    fn lock_db(&self) -> Result<std::sync::MutexGuard<'_, CbvrDatabase<B>>, Response> {
        self.db.lock().map_err(|_| {
            Response::text(
                StatusCode::InternalServerError,
                "database lock poisoned by a previous panicking request",
            )
        })
    }

    /// Route one request.
    ///
    /// Request/status counters and the latency sample are recorded
    /// *after* the response is computed, so a `/metrics` response never
    /// includes its own in-flight request — the exposition is a
    /// consistent snapshot (and deterministic in golden tests).
    pub fn handle(&self, request: &Request) -> Response {
        let start = self.telemetry.now_nanos();
        let (route, response) = self.route(request);
        let elapsed = self.telemetry.now_nanos().saturating_sub(start);
        self.telemetry.histogram("web.request_nanos").record_nanos(elapsed);
        self.telemetry.counter(&format!("web.requests.{route}")).inc();
        self.telemetry.counter(status_class_metric(response.status)).inc();
        response
    }

    /// Dispatch, returning the route's metric label alongside the
    /// response.
    fn route(&self, request: &Request) -> (&'static str, Response) {
        match (request.method, request.path.as_str()) {
            (Method::Get, "/") => ("index", self.index()),
            (Method::Get, "/video") => ("video", self.video_page(request)),
            (Method::Get, "/keyframe") => ("keyframe", self.keyframe_image(request)),
            (Method::Get, "/search") => ("search", self.search(request)),
            (Method::Get, "/health") => ("health", self.health()),
            (Method::Get, "/stats") => ("stats", self.stats()),
            (Method::Get, "/metrics") => ("metrics", self.metrics()),
            (Method::Post, "/query") => ("query", self.query(request)),
            (Method::Get, "/query") => (
                "query",
                Response::text(
                    StatusCode::MethodNotAllowed,
                    "POST an image (PPM/BMP/PGM/VJP) to /query",
                ),
            ),
            _ => (
                "other",
                Response::text(StatusCode::NotFound, format!("no route for {}", request.path)),
            ),
        }
    }

    /// `GET /metrics`: the plain-text exposition — every registry
    /// counter/histogram plus the storage engine's `storage.*` counters,
    /// one `name value` pair per line, sorted.
    fn metrics(&self) -> Response {
        let db = match self.lock_db() {
            Ok(db) => db,
            Err(r) => return r,
        };
        let mut lines = self.telemetry.render_lines();
        lines.extend(db.telemetry().render_lines());
        lines.sort();
        let mut out = String::new();
        for line in &lines {
            out.push_str(line);
            out.push('\n');
        }
        Response::text(StatusCode::Ok, out)
    }

    /// `GET /health`: liveness plus storage degradation.
    ///
    /// A degraded database (commits WAL-durable but data-file propagation
    /// pending after an I/O fault) first gets one checkpoint attempt; if
    /// it stays degraded the probe answers 503 and bumps
    /// `storage.fault.degraded`. Query, search and catalog routes keep
    /// serving throughout — the engine reads a pinned catalog snapshot
    /// and the pager keeps the unpropagated pages in memory, so degradation
    /// never takes reads down with it.
    fn health(&self) -> Response {
        let mut db = match self.lock_db() {
            Ok(db) => db,
            Err(r) => return r,
        };
        if db.is_degraded() {
            // Self-heal: replays the pending WAL records into the data
            // file. Harmless to fail — the WAL keeps everything until a
            // later attempt (or crash recovery) succeeds.
            let _ = db.try_heal();
        }
        if db.is_degraded() {
            self.telemetry.counter("storage.fault.degraded").inc();
            Response::text(
                StatusCode::ServiceUnavailable,
                "degraded: committed pages await data-file propagation; \
                 reads keep serving from the pinned snapshot",
            )
        } else {
            Response::text(StatusCode::Ok, "ok")
        }
    }

    fn index(&self) -> Response {
        let mut db = match self.lock_db() {
            Ok(db) => db,
            Err(r) => return r,
        };
        let videos = match db.list_videos() {
            Ok(v) => v,
            Err(e) => return Response::text(StatusCode::InternalServerError, e.to_string()),
        };
        let mut page = HtmlPage::new("CBVR — video catalog");
        page.push("<form action=\"/search\"><input name=\"name\" placeholder=\"name contains...\">\
                   <button>search</button></form>");
        page.push("<table><tr><th>v_id</th><th>name</th><th>key frames</th></tr>");
        for (v_id, name, _) in &videos {
            let kf = db.key_frames_of_video(*v_id).map(|k| k.len()).unwrap_or(0);
            page.push(&format!(
                "<tr><td>{v_id}</td><td><a href=\"/video?id={v_id}\">{}</a></td><td>{kf}</td></tr>",
                html_escape(name)
            ));
        }
        page.push("</table>");
        page.push(&format!("<p>{} videos stored.</p>", videos.len()));
        Response::html(page.render())
    }

    fn video_page(&self, request: &Request) -> Response {
        let Some(id) = request.param_u64("id") else {
            return Response::text(StatusCode::BadRequest, "missing ?id=N");
        };
        let mut db = match self.lock_db() {
            Ok(db) => db,
            Err(r) => return r,
        };
        let full = match db.get_video(id) {
            Ok(v) => v,
            Err(e) => return Response::text(StatusCode::NotFound, e.to_string()),
        };
        let kf_ids = db.key_frames_of_video(id).unwrap_or_default();
        let mut page = HtmlPage::new(&format!("video {id}: {}", full.v_name));
        page.push(&format!(
            "<p>stored at {} · container {} bytes · stream {} bytes</p>",
            full.row.dostore, full.row.video.len, full.row.stream.len
        ));
        page.push("<h2>key frames</h2><p>");
        for i_id in &kf_ids {
            page.push(&format!(
                "<a href=\"/keyframe?id={i_id}\"><img src=\"/keyframe?id={i_id}\" \
                 alt=\"key frame {i_id}\" width=\"160\"></a> "
            ));
        }
        page.push("</p>");
        // Per-key-frame rows with range and region info.
        page.push("<table><tr><th>i_id</th><th>name</th><th>min–max</th><th>major regions</th></tr>");
        for i_id in &kf_ids {
            if let Ok(row) = db.get_key_frame(*i_id) {
                page.push(&format!(
                    "<tr><td>{}</td><td>{}</td><td>{}–{}</td><td>{}</td></tr>",
                    row.i_id,
                    html_escape(&row.i_name),
                    row.min,
                    row.max,
                    row.majorregions
                ));
            }
        }
        page.push("</table>");
        Response::html(page.render())
    }

    fn keyframe_image(&self, request: &Request) -> Response {
        let Some(id) = request.param_u64("id") else {
            return Response::text(StatusCode::BadRequest, "missing ?id=N");
        };
        // The lock covers the two reads only; decoding and encoding run
        // after it is released.
        let bytes = {
            let mut db = match self.lock_db() {
                Ok(db) => db,
                Err(r) => return r,
            };
            let row = match db.get_key_frame(id) {
                Ok(r) => r,
                Err(e) => return Response::text(StatusCode::NotFound, e.to_string()),
            };
            match db.read_image_bytes(&row) {
                Ok(b) => b,
                Err(e) => return Response::text(StatusCode::InternalServerError, e.to_string()),
            }
        };
        match cbvr_imgproc::decode_auto(&bytes) {
            Ok(img) => Response::bytes("image/bmp", encode_image(&img, ImageFormat::Bmp)),
            Err(e) => Response::text(StatusCode::InternalServerError, e.to_string()),
        }
    }

    fn search(&self, request: &Request) -> Response {
        let needle = request.param("name").unwrap_or("");
        let hits = self.engine.find_videos_by_name(needle);
        let mut page = HtmlPage::new(&format!("search: '{needle}'"));
        if hits.is_empty() {
            page.push("<p>no matches.</p>");
        } else {
            page.push("<ul>");
            for (v_id, name) in hits {
                page.push(&format!(
                    "<li><a href=\"/video?id={v_id}\">{}</a></li>",
                    html_escape(&name)
                ));
            }
            page.push("</ul>");
        }
        Response::html(page.render())
    }

    fn stats(&self) -> Response {
        let mut db = match self.lock_db() {
            Ok(db) => db,
            Err(r) => return r,
        };
        match db.stats() {
            Ok(s) => Response::text(
                StatusCode::Ok,
                format!(
                    "pages: {}\nvideos: {}\nkey frames: {}\ncatalog entries: {}\n\
                     segments: {}\ntombstones: {}",
                    s.pages,
                    s.videos,
                    s.key_frames,
                    self.engine.len(),
                    self.engine.segment_count(),
                    self.engine.tombstone_count(),
                ),
            ),
            Err(e) => Response::text(StatusCode::InternalServerError, e.to_string()),
        }
    }

    fn query(&self, request: &Request) -> Response {
        if request.body.is_empty() {
            return Response::text(StatusCode::BadRequest, "empty body: POST the query image bytes");
        }
        let frame = match cbvr_imgproc::decode_auto(&request.body) {
            Ok(f) => f,
            Err(e) => return Response::text(StatusCode::BadRequest, format!("bad image: {e}")),
        };
        let k = request.param_u64("k").unwrap_or(10) as usize;
        let weights = match request.param("feature") {
            None => FeatureWeights::default(),
            Some(name) => match FeatureKind::from_name(name) {
                Some(kind) => FeatureWeights::single(kind),
                None => {
                    return Response::text(
                        StatusCode::BadRequest,
                        format!("unknown feature '{name}'"),
                    )
                }
            },
        };
        let use_index = request.param("no_index").is_none();
        let engine = &self.engine;
        let results = engine.query_frame(
            &frame,
            &QueryOptions { k, weights, use_index, ..Default::default() },
        );

        if request.param("format") == Some("json") {
            let items: Vec<String> = results
                .iter()
                .map(|m| {
                    format!(
                        "{{\"i_id\":{},\"v_id\":{},\"video\":\"{}\",\"score\":{:.6}}}",
                        m.i_id,
                        m.v_id,
                        json_escape(&engine.video_name(m.v_id).unwrap_or_else(|| "?".to_string())),
                        m.score
                    )
                })
                .collect();
            return Response::json(format!("{{\"matches\":[{}]}}", items.join(",")));
        }

        let mut page = HtmlPage::new("query results");
        page.push("<table><tr><th>rank</th><th>video</th><th>key frame</th><th>score</th></tr>");
        for (rank, m) in results.iter().enumerate() {
            page.push(&format!(
                "<tr><td>{}</td><td><a href=\"/video?id={}\">{}</a></td>\
                 <td><img src=\"/keyframe?id={}\" width=\"120\"></td><td>{:.4}</td></tr>",
                rank + 1,
                m.v_id,
                html_escape(&engine.video_name(m.v_id).unwrap_or_else(|| "?".to_string())),
                m.i_id,
                m.score
            ));
        }
        page.push("</table>");
        Response::html(page.render())
    }
}

/// The status-class counter a response increments (`web.status.2xx` …).
pub(crate) fn status_class_metric(status: StatusCode) -> &'static str {
    match status {
        StatusCode::Ok => "web.status.2xx",
        StatusCode::BadRequest
        | StatusCode::NotFound
        | StatusCode::MethodNotAllowed
        | StatusCode::RequestTimeout
        | StatusCode::PayloadTooLarge => "web.status.4xx",
        StatusCode::InternalServerError | StatusCode::ServiceUnavailable => "web.status.5xx",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbvr_core::{ingest_video, IngestConfig};
    use cbvr_storage::backend::MemBackend;
    use cbvr_storage::{FaultBackend, FaultInjector, FaultKind};
    use cbvr_video::{Category, GeneratorConfig, VideoGenerator};
    use std::collections::BTreeMap;

    fn state() -> Arc<AppState<MemBackend>> {
        let mut db = CbvrDatabase::in_memory().unwrap();
        let generator = VideoGenerator::new(GeneratorConfig {
            width: 48,
            height: 36,
            shots_per_video: 2,
            min_shot_frames: 3,
            max_shot_frames: 4,
            ..GeneratorConfig::default()
        })
        .unwrap();
        for (i, category) in [Category::Sports, Category::News].iter().enumerate() {
            let clip = generator.generate(*category, i as u64).unwrap();
            ingest_video(&mut db, &format!("{}_{i}", category.name()), &clip, &IngestConfig::default())
                .unwrap();
        }
        AppState::new(db).unwrap()
    }

    fn get(path: &str) -> Request {
        let (p, q) = path.split_once('?').unwrap_or((path, ""));
        Request {
            method: Method::Get,
            path: p.to_string(),
            query: crate::http::parse_query(q),
            headers: BTreeMap::new(),
            body: Vec::new(),
        }
    }

    fn post(path: &str, body: Vec<u8>) -> Request {
        let mut r = get(path);
        r.method = Method::Post;
        r.body = body;
        r
    }

    fn body_str(r: &Response) -> String {
        String::from_utf8_lossy(&r.body).into_owned()
    }

    #[test]
    fn index_lists_videos() {
        let app = state();
        let r = app.handle(&get("/"));
        assert_eq!(r.status, StatusCode::Ok);
        let html = body_str(&r);
        assert!(html.contains("sports_0"), "{html}");
        assert!(html.contains("news_1"), "{html}");
        assert!(html.contains("2 videos stored"));
    }

    #[test]
    fn video_page_shows_keyframes() {
        let app = state();
        let r = app.handle(&get("/video?id=1"));
        assert_eq!(r.status, StatusCode::Ok);
        let html = body_str(&r);
        assert!(html.contains("/keyframe?id="), "{html}");
        assert!(html.contains("min–max") || html.contains("min"), "{html}");
        // Unknown id is a 404.
        assert_eq!(app.handle(&get("/video?id=99")).status, StatusCode::NotFound);
        assert_eq!(app.handle(&get("/video")).status, StatusCode::BadRequest);
    }

    #[test]
    fn keyframe_serves_bmp() {
        let app = state();
        let r = app.handle(&get("/keyframe?id=1"));
        assert_eq!(r.status, StatusCode::Ok);
        assert_eq!(r.content_type, "image/bmp");
        assert_eq!(&r.body[..2], b"BM");
        assert!(cbvr_imgproc::decode_auto(&r.body).is_ok());
    }

    #[test]
    fn search_finds_substrings() {
        let app = state();
        let html = body_str(&app.handle(&get("/search?name=SPORTS")));
        assert!(html.contains("sports_0"), "{html}");
        let html = body_str(&app.handle(&get("/search?name=zzz")));
        assert!(html.contains("no matches"), "{html}");
    }

    #[test]
    fn query_ranks_same_category_first() {
        let app = state();
        // Query with a stored key frame image: self-match tops the list.
        let kf = app.handle(&get("/keyframe?id=1"));
        let r = app.handle(&post("/query?k=3", kf.body.clone()));
        assert_eq!(r.status, StatusCode::Ok, "{}", body_str(&r));
        let html = body_str(&r);
        assert!(html.contains("1.0000"), "self match scores 1.0: {html}");

        // JSON format.
        let r = app.handle(&post("/query?k=2&format=json", kf.body.clone()));
        let json = body_str(&r);
        assert!(json.starts_with("{\"matches\":[{"), "{json}");
        assert!(json.contains("\"score\":1.000000"), "{json}");

        // Single-feature query.
        let r = app.handle(&post("/query?k=2&feature=gabor", kf.body.clone()));
        assert_eq!(r.status, StatusCode::Ok);
        // Unknown feature is a 400.
        let r = app.handle(&post("/query?feature=bogus", kf.body));
        assert_eq!(r.status, StatusCode::BadRequest);
    }

    #[test]
    fn query_rejects_garbage() {
        let app = state();
        assert_eq!(app.handle(&post("/query", Vec::new())).status, StatusCode::BadRequest);
        assert_eq!(
            app.handle(&post("/query", b"not an image".to_vec())).status,
            StatusCode::BadRequest
        );
        assert_eq!(app.handle(&get("/query")).status, StatusCode::MethodNotAllowed);
    }

    #[test]
    fn forged_vjp_dimensions_answer_400_and_the_server_keeps_serving() {
        let app = state();
        for (w, h) in [(1u32 << 20, 1u32 << 20), (u32::MAX, u32::MAX)] {
            // Magic, width, height, quality, three empty planes: 25 bytes.
            let mut body = b"VJP1".to_vec();
            body.extend_from_slice(&w.to_le_bytes());
            body.extend_from_slice(&h.to_le_bytes());
            body.push(75);
            body.extend_from_slice(&[0; 12]);
            assert_eq!(body.len(), 25);
            let r = app.handle(&post("/query", body));
            assert_eq!(r.status, StatusCode::BadRequest, "{w}x{h}: {}", body_str(&r));
        }
        let kf = app.handle(&get("/keyframe?id=1"));
        assert_eq!(app.handle(&post("/query?k=1", kf.body)).status, StatusCode::Ok);
    }

    #[test]
    fn stats_and_unknown_routes() {
        let app = state();
        let r = app.handle(&get("/stats"));
        assert!(body_str(&r).contains("videos: 2"));
        assert_eq!(app.handle(&get("/nope")).status, StatusCode::NotFound);
    }

    #[test]
    fn html_is_escaped() {
        let mut db = CbvrDatabase::in_memory().unwrap();
        let generator = VideoGenerator::new(GeneratorConfig {
            width: 32,
            height: 24,
            shots_per_video: 1,
            min_shot_frames: 3,
            max_shot_frames: 3,
            ..GeneratorConfig::default()
        })
        .unwrap();
        let clip = generator.generate(Category::Movie, 1).unwrap();
        ingest_video(&mut db, "<script>alert(1)</script>", &clip, &IngestConfig::default()).unwrap();
        let app = AppState::new(db).unwrap();
        let html = body_str(&app.handle(&get("/")));
        assert!(!html.contains("<script>alert"), "unescaped name: {html}");
        assert!(html.contains("&lt;script&gt;"));
    }

    #[test]
    fn health_reports_degradation_and_self_heals() {
        let faults = FaultInjector::new(0);
        let mut db = CbvrDatabase::open(
            FaultBackend::new(MemBackend::new(), faults.clone()),
            FaultBackend::new(MemBackend::new(), FaultInjector::new(0)),
        )
        .unwrap();
        let generator = VideoGenerator::new(GeneratorConfig {
            width: 32,
            height: 24,
            shots_per_video: 1,
            min_shot_frames: 3,
            max_shot_frames: 3,
            ..GeneratorConfig::default()
        })
        .unwrap();
        let clip = generator.generate(Category::Sports, 1).unwrap();
        ingest_video(&mut db, "sports_0", &clip, &IngestConfig::default()).unwrap();
        let app = AppState::new(db).unwrap();
        assert_eq!(app.handle(&get("/health")).status, StatusCode::Ok);
        let degraded = app.telemetry().counter("storage.fault.degraded");
        let before = degraded.get();

        // Kill the data file mid-commit: the WAL record is durable, so
        // the ingest succeeds and the database degrades.
        {
            let mut db = app.db.lock().unwrap();
            faults.arm_after(1, FaultKind::Crash);
            let clip = generator.generate(Category::News, 2).unwrap();
            ingest_video(&mut db, "news_1", &clip, &IngestConfig::default()).unwrap();
            assert!(db.is_degraded(), "data-file fault must degrade the db");
        }

        // The probe reports 503 (the data file is still sick, so the
        // heal attempt inside the handler fails) and counts it...
        let r = app.handle(&get("/health"));
        assert_eq!(r.status, StatusCode::ServiceUnavailable, "{}", body_str(&r));
        assert!(degraded.get() > before);

        // ...while read routes keep serving. The catalog lists news_1,
        // committed but not yet propagated to the data file, from the
        // pager's unpropagated pages; search answers from the engine
        // snapshot.
        let r = app.handle(&get("/"));
        assert_eq!(r.status, StatusCode::Ok);
        assert!(body_str(&r).contains("news_1"), "{}", body_str(&r));
        let html = body_str(&app.handle(&get("/search?name=sports")));
        assert!(html.contains("sports_0"), "{html}");

        // Once the backend recovers, the next probe self-heals.
        faults.heal();
        assert_eq!(app.handle(&get("/health")).status, StatusCode::Ok);
        assert!(!app.db.lock().unwrap().is_degraded(), "probe must checkpoint the WAL");
    }

    #[test]
    fn poisoned_db_lock_yields_500_but_queries_still_serve() {
        let app = state();
        // Grab a self-match query image while the db is still healthy.
        let kf = app.handle(&get("/keyframe?id=1"));
        assert_eq!(kf.status, StatusCode::Ok);

        // Poison the db mutex the way a panicking handler would.
        let poisoner = Arc::clone(&app);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.db.lock().unwrap();
            panic!("poison the db lock");
        })
        .join();
        assert!(app.db.lock().is_err(), "lock should be poisoned");

        // db-backed routes answer 500 instead of killing the thread...
        for path in ["/", "/video?id=1", "/keyframe?id=1", "/stats", "/metrics"] {
            let r = app.handle(&get(path));
            assert_eq!(r.status, StatusCode::InternalServerError, "{path}");
            assert!(body_str(&r).contains("poisoned"), "{path}");
        }
        // ...while the engine routes, which never take the db lock, keep serving.
        let html = body_str(&app.handle(&get("/search?name=sports")));
        assert!(html.contains("sports_0"), "{html}");
        let r = app.handle(&post("/query?k=2", kf.body));
        assert_eq!(r.status, StatusCode::Ok, "{}", body_str(&r));
    }
}
