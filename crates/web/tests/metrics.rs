//! `/metrics` exposition golden tests.
//!
//! The exposition must be a *stable* plain-text format: one
//! `name value` pair per line, sorted, names escaped to single tokens —
//! so scrapers and shell pipelines can rely on it. A TestClock-driven
//! registry makes the interesting lines exactly reproducible, and the
//! real backpressure path must surface through
//! `web.backpressure.rejected`.

use cbvr_core::telemetry::{Registry, TestClock};
use cbvr_core::{ingest_video, IngestConfig};
use cbvr_storage::backend::MemBackend;
use cbvr_storage::CbvrDatabase;
use cbvr_video::{Category, GeneratorConfig, VideoGenerator};
use cbvr_web::server::ServerConfig;
use cbvr_web::{AppState, Method, Request, Server, StatusCode};
use std::collections::BTreeMap;
use std::sync::Arc;

fn seeded_db() -> CbvrDatabase<MemBackend> {
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
    let clip = generator.generate(Category::Sports, 1).unwrap();
    ingest_video(&mut db, "metrics_clip", &clip, &IngestConfig::default()).unwrap();
    db
}

fn test_state() -> (Arc<AppState<MemBackend>>, Arc<TestClock>) {
    let clock = Arc::new(TestClock::new());
    let registry = Arc::new(Registry::with_clock(clock.clone()));
    let state = AppState::with_registry(seeded_db(), registry).unwrap();
    (state, clock)
}

fn get(path: &str) -> Request {
    Request {
        method: Method::Get,
        path: path.to_string(),
        query: Vec::new(),
        headers: BTreeMap::new(),
        body: Vec::new(),
    }
}

fn metric(body: &str, name: &str) -> Option<u64> {
    body.lines()
        .find_map(|l| l.strip_prefix(name).and_then(|rest| rest.strip_prefix(' ')))
        .and_then(|v| v.parse().ok())
}

#[test]
fn metrics_lines_are_sorted_single_tokens() {
    let (state, _) = test_state();
    state.handle(&get("/"));
    state.handle(&get("/stats"));
    let response = state.handle(&get("/metrics"));
    assert_eq!(response.status, StatusCode::Ok);
    let body = String::from_utf8(response.body).unwrap();

    let lines: Vec<&str> = body.lines().collect();
    assert!(!lines.is_empty());
    let mut sorted = lines.clone();
    sorted.sort();
    assert_eq!(lines, sorted, "exposition must come out pre-sorted");
    for line in &lines {
        let (name, value) = line.split_once(' ').expect("name value pairs");
        assert!(
            name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.'),
            "unescaped metric name: {name}"
        );
        assert!(value.parse::<u64>().is_ok(), "non-integer value in: {line}");
    }
}

#[test]
fn request_counters_and_latency_are_deterministic_under_test_clock() {
    let (state, clock) = test_state();
    // Three routed requests, each "taking" a pinned duration.
    state.handle(&get("/"));
    state.handle(&get("/nope"));
    state.handle(&get("/stats"));
    clock.advance(0); // clock untouched during handling: latencies are 0

    let body = String::from_utf8(state.handle(&get("/metrics")).body).unwrap();
    assert_eq!(metric(&body, "web.requests.index"), Some(1));
    assert_eq!(metric(&body, "web.requests.other"), Some(1));
    assert_eq!(metric(&body, "web.requests.stats"), Some(1));
    assert_eq!(metric(&body, "web.status.2xx"), Some(2));
    assert_eq!(metric(&body, "web.status.4xx"), Some(1));
    assert_eq!(metric(&body, "web.request_nanos.count"), Some(3));
    assert_eq!(metric(&body, "web.request_nanos.sum"), Some(0));
    assert_eq!(metric(&body, "web.request_nanos.p99"), Some(0));

    // The /metrics request itself is excluded from its own snapshot but
    // counted in the next one.
    let body = String::from_utf8(state.handle(&get("/metrics")).body).unwrap();
    assert_eq!(metric(&body, "web.requests.metrics"), Some(1));
    assert_eq!(metric(&body, "web.request_nanos.count"), Some(4));
}

#[test]
fn metrics_includes_engine_and_storage_counters() {
    let (state, _) = test_state();
    let body = String::from_utf8(state.handle(&get("/metrics")).body).unwrap();
    // The engine reports into the state's registry…
    assert_eq!(metric(&body, "query.frame.requests"), Some(0));
    // …and the storage engine's own counters are merged in. The ingest
    // in `seeded_db` committed real pages through the WAL.
    let commits = metric(&body, "storage.wal.commits").expect("storage lines merged");
    assert!(commits >= 1, "ingest must have committed: {commits}");
    assert!(metric(&body, "storage.wal.bytes").unwrap() > 0);
    assert_eq!(metric(&body, "storage.wal.replays"), Some(0), "clean open never replays");
}

#[test]
fn frame_query_extraction_is_timed_in_metrics() {
    let (state, _) = test_state();
    let mut keyframe = get("/keyframe");
    keyframe.query = vec![("id".to_string(), "1".to_string())];
    let keyframe = state.handle(&keyframe);
    assert_eq!(keyframe.status, StatusCode::Ok);
    let mut query = get("/query");
    query.method = Method::Post;
    query.query = vec![("k".to_string(), "3".to_string())];
    query.body = keyframe.body;
    assert_eq!(state.handle(&query).status, StatusCode::Ok);

    let body = String::from_utf8(state.handle(&get("/metrics")).body).unwrap();
    assert_eq!(metric(&body, "query.frame.requests"), Some(1));
    assert_eq!(metric(&body, "query.frame.extract_nanos.count"), Some(1));
    // TestClock never advanced: the recorded duration is exactly 0.
    assert_eq!(metric(&body, "query.frame.extract_nanos.sum"), Some(0));
}

#[test]
fn repeated_snapshots_are_byte_identical_when_idle() {
    let (state, _) = test_state();
    state.handle(&get("/"));
    let first = state.handle(&get("/metrics"));
    let second = state.handle(&get("/metrics"));
    // Between the two snapshots exactly one request (the first /metrics)
    // was recorded; strip the lines it changes and the rest must match
    // byte-for-byte.
    let changing = ["web.requests.metrics ", "web.request_nanos.", "web.status.2xx "];
    let stable = |r: &[u8]| -> String {
        String::from_utf8(r.to_vec())
            .unwrap()
            .lines()
            .filter(|l| !changing.iter().any(|p| l.starts_with(p)))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(stable(&first.body), stable(&second.body));
}

#[test]
fn backpressure_rejections_surface_in_metrics() {
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::sync::mpsc;
    use std::time::Duration;

    // Only bounds a hang; a loaded machine is slow, but never this slow.
    const DEADLINE: Duration = Duration::from_secs(60);

    let (state, _) = test_state();
    let server = Server::start_with(
        Arc::clone(&state),
        "127.0.0.1:0",
        &ServerConfig { workers: 1, queue_capacity: 1 },
    )
    .unwrap();

    // The only handler dequeues `busy` first and stays parked on its
    // half-sent request until we finish it. The queue holds one
    // connection, so at most one flood connection is ever queued: of the
    // two, at least one is answered 503, and nothing else can be answered
    // while `busy` is parked. No sleep and no short read timeout is needed
    // for that, whenever the handler actually parks.
    let mut busy = TcpStream::connect(server.addr()).unwrap();
    write!(busy, "GET / HTTP/1.1\r\n").unwrap();
    let (tx, responses) = mpsc::channel();
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let mut c = TcpStream::connect(server.addr()).unwrap();
            write!(c, "GET / HTTP/1.1\r\n\r\n").unwrap();
            let tx = tx.clone();
            std::thread::spawn(move || {
                let mut out = Vec::new();
                let _ = c.read_to_end(&mut out);
                let _ = tx.send(String::from_utf8_lossy(&out).into_owned());
            })
        })
        .collect();
    let first = responses.recv_timeout(DEADLINE).expect("bounded queue never pushed back");
    assert!(first.starts_with("HTTP/1.1 503"), "answered while the handler was parked: {first}");

    // Unblock the handler and let every connection finish: the queued
    // one, if any, is served now. Once all have answered, the accept
    // thread has handled each of them, so the counters are settled.
    write!(busy, "\r\n").unwrap();
    busy.set_read_timeout(Some(DEADLINE)).unwrap();
    let mut out = Vec::new();
    busy.read_to_end(&mut out).unwrap();
    responses.recv_timeout(DEADLINE).expect("the other flood connection is answered");
    for reader in readers {
        reader.join().unwrap();
    }

    // The rejection went through the real accept-loop path and must be
    // visible both on the server handle and in the registry.
    let rejected = state.telemetry().counter("web.backpressure.rejected").get();
    assert!(rejected >= 1, "rejection counter not incremented");
    assert_eq!(rejected, server.rejected_count());
    assert!(state.telemetry().counter("web.status.5xx").get() >= rejected);

    // /metrics itself reports it.
    let body = String::from_utf8(state.handle(&get("/metrics")).body).unwrap();
    assert!(metric(&body, "web.backpressure.rejected").unwrap() >= 1);
    // All three connections went through the accept loop, the rejected
    // ones included.
    assert_eq!(metric(&body, "web.connections.accepted"), Some(3));
    server.stop();
}
