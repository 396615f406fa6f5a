//! The accept loop and its bounded handler pool.
//!
//! The old design spawned one OS thread per connection — unbounded: a
//! connection burst spawned a thread burst, and a slow query pile-up
//! could take the process down. Connections now flow through a bounded
//! queue into a fixed set of handler threads; when the queue is full the
//! accept thread answers `503 Service Unavailable` inline instead of
//! queueing without limit (backpressure, not collapse).

use crate::app::AppState;
use crate::http::{read_request, Response, StatusCode};
use cbvr_storage::backend::Backend;
use std::io::{BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a handler gives a request to arrive in full (request line,
/// headers and body), counted from when the handler takes the
/// connection, and how long it waits on one write. A client that has not
/// sent its whole request by then is answered 408 and closed, however it
/// paces its bytes, so it cannot hold a handler thread (or
/// `Server::stop`) for longer.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// Server sizing knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Handler threads (each serves one connection at a time).
    pub workers: usize,
    /// Accepted connections waiting for a free handler beyond the ones
    /// in flight; `try_send` beyond this answers 503.
    pub queue_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { workers: 4, queue_capacity: 64 }
    }
}

/// A running server: one accept thread feeding `workers` handler threads
/// through a bounded queue (connections are short-lived:
/// `Connection: close`).
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    rejected: Arc<AtomicU64>,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port) and start serving
    /// with the default pool sizing.
    pub fn start<B: Backend + 'static>(
        state: Arc<AppState<B>>,
        addr: &str,
    ) -> std::io::Result<Server> {
        Server::start_with(state, addr, &ServerConfig::default())
    }

    /// Bind `addr` and start serving with explicit pool sizing.
    pub fn start_with<B: Backend + 'static>(
        state: Arc<AppState<B>>,
        addr: &str,
        config: &ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let shutdown_flag = Arc::clone(&shutdown);
        let rejected = Arc::new(AtomicU64::new(0));
        let rejected_count = Arc::clone(&rejected);
        // Resolved once; the accept loop records lock-free.
        let accepted_counter = state.telemetry().counter("web.connections.accepted");
        let rejected_counter = state.telemetry().counter("web.backpressure.rejected");
        let rejected_status = state.telemetry().counter(crate::app::status_class_metric(
            StatusCode::ServiceUnavailable,
        ));

        let workers = config.workers.max(1);
        let (queue, receiver) = std::sync::mpsc::sync_channel::<TcpStream>(config.queue_capacity);
        let receiver = Arc::new(Mutex::new(receiver));
        let workers: Vec<JoinHandle<()>> = (0..workers)
            .map(|i| {
                let rx: Arc<Mutex<Receiver<TcpStream>>> = Arc::clone(&receiver);
                let state = Arc::clone(&state);
                std::thread::Builder::new()
                    .name(format!("cbvr-web-{i}"))
                    .spawn(move || loop {
                        let next = rx.lock().expect("handler queue poisoned").recv();
                        match next {
                            Ok(stream) => serve_connection(Arc::clone(&state), stream),
                            Err(_) => break, // queue closed: server stopping
                        }
                    })
                    .expect("spawn web handler")
            })
            .collect();

        let accept_thread = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if shutdown_flag.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                // Past the shutdown check: this connection is queued or
                // answered 503, never dropped unanswered.
                accepted_counter.inc();
                match queue.try_send(stream) {
                    Ok(()) => {}
                    Err(TrySendError::Full(stream)) => {
                        // Overloaded: answer inline rather than queue
                        // without bound. Writing a short response is
                        // cheap enough for the accept thread.
                        rejected_count.fetch_add(1, Ordering::Relaxed);
                        rejected_counter.inc();
                        rejected_status.inc();
                        let mut stream = stream;
                        let _ = Response::text(
                            StatusCode::ServiceUnavailable,
                            "server overloaded, retry later\n",
                        )
                        .write_to(&mut stream);
                    }
                    Err(TrySendError::Disconnected(_)) => break,
                }
            }
            // Dropping `queue` closes the channel; handlers drain what
            // was accepted and then exit.
        });

        Ok(Server { addr, shutdown, accept_thread: Some(accept_thread), workers, rejected })
    }

    /// The bound address (port resolved when binding to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections answered 503 because the queue was full.
    pub fn rejected_count(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Stop accepting, drain queued connections and join every thread.
    pub fn stop(mut self) {
        self.join_all();
    }

    fn join_all(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a wake-up connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.join_all();
    }
}

/// A connection's read half held to one deadline for the whole request:
/// each read re-arms the socket timeout to the time left, so a client
/// that drips bytes cannot restart the clock with each one.
struct DeadlineReader {
    stream: TcpStream,
    deadline: Instant,
}

impl Read for DeadlineReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

fn serve_connection<B: Backend>(state: Arc<AppState<B>>, stream: TcpStream) {
    let deadline = Instant::now() + IO_TIMEOUT;
    if stream.set_write_timeout(Some(IO_TIMEOUT)).is_err() {
        return;
    }
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(DeadlineReader { stream, deadline });
    let response = match read_request(&mut reader) {
        Ok(request) => state.handle(&request),
        Err(e) => Response::text(e.status, e.message),
    };
    let _ = response.write_to(&mut writer);
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbvr_core::telemetry::Registry;
    use cbvr_core::{ingest_video, IngestConfig};
    use cbvr_storage::backend::MemBackend;
    use cbvr_storage::CbvrDatabase;
    use cbvr_video::{Category, GeneratorConfig, VideoGenerator};
    use std::io::{Read, Write};

    /// One ingested clip, recording into a registry of its own (the
    /// global one is shared by every test in the process).
    fn test_state() -> Arc<AppState<MemBackend>> {
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
        ingest_video(&mut db, "over_http", &clip, &IngestConfig::default()).unwrap();
        AppState::with_registry(db, Arc::new(Registry::new())).unwrap()
    }

    fn running_server_with(config: &ServerConfig) -> Server {
        Server::start_with(test_state(), "127.0.0.1:0", config).unwrap()
    }

    fn running_server() -> Server {
        running_server_with(&ServerConfig::default())
    }

    fn http_get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut out = Vec::new();
        stream.read_to_end(&mut out).unwrap();
        // Bodies may be binary (BMP); lossy conversion keeps the headers
        // assertable either way.
        String::from_utf8_lossy(&out).into_owned()
    }

    #[test]
    fn serves_catalog_over_real_sockets() {
        let server = running_server();
        let response = http_get(server.addr(), "/");
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(response.contains("over_http"), "{response}");
        // Image route delivers binary BMP with the right content type.
        let response = http_get(server.addr(), "/keyframe?id=1");
        assert!(response.contains("image/bmp"), "{response}");
        // 404 for unknown routes.
        let response = http_get(server.addr(), "/nothing");
        assert!(response.starts_with("HTTP/1.1 404"), "{response}");
        server.stop();
    }

    #[test]
    fn query_over_post() {
        let server = running_server();
        // Fetch a key frame, then POST it back as the query.
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        write!(stream, "GET /keyframe?id=1 HTTP/1.1\r\n\r\n").unwrap();
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).unwrap();
        let split = raw.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
        let image = &raw[split..];

        let mut stream = TcpStream::connect(server.addr()).unwrap();
        write!(
            stream,
            "POST /query?k=1&format=json HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            image.len()
        )
        .unwrap();
        stream.write_all(image).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 200 OK"), "{out}");
        assert!(out.contains("\"score\":1.000000"), "{out}");
        server.stop();
    }

    #[test]
    fn malformed_requests_get_http_errors() {
        let server = running_server();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(b"BREW /coffee HTTP/1.1\r\n\r\n").unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 405"), "{out}");
        server.stop();
    }

    #[test]
    fn overload_answers_503_instead_of_queueing_unbounded() {
        use std::sync::mpsc;
        use std::time::Duration;
        // Only bounds a hang; a loaded machine is slow, but never this slow.
        const DEADLINE: Duration = Duration::from_secs(60);
        let server = running_server_with(&ServerConfig { workers: 1, queue_capacity: 1 });

        // Occupy the only handler with a half-sent request (read_request
        // blocks until the blank line arrives). Whether the handler has
        // dequeued it yet or it still fills the one queue slot, at most
        // one of the two flood connections fits in the queue: at least one
        // is answered 503 at once, and nothing else can be answered while
        // `busy` is parked. No sleep or short read timeout is needed.
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
        assert!(
            first.starts_with("HTTP/1.1 503"),
            "answered while the handler was parked: {first}"
        );

        // Release the handler: the stalled request completes and a queued
        // flood connection, if any, still gets served (backpressure
        // dropped new work, not accepted work).
        write!(busy, "\r\n").unwrap();
        busy.set_read_timeout(Some(DEADLINE)).unwrap();
        let mut out = Vec::new();
        busy.read_to_end(&mut out).unwrap();
        assert!(String::from_utf8_lossy(&out).starts_with("HTTP/1.1 200"), "busy connection");
        let second = responses.recv_timeout(DEADLINE).expect("every connection is answered");
        assert!(
            second.starts_with("HTTP/1.1 503") || second.starts_with("HTTP/1.1 200"),
            "a queued connection drains once the handler frees up: {second}"
        );
        for reader in readers {
            reader.join().unwrap();
        }
        let rejected = [&first, &second].iter().filter(|r| r.starts_with("HTTP/1.1 503")).count();
        assert_eq!(server.rejected_count(), rejected as u64);
        server.stop();
    }

    #[test]
    fn stop_drains_queued_connections_before_joining() {
        use std::time::{Duration, Instant};
        // Only bounds a hang; a loaded machine is slow, but never this slow.
        const DEADLINE: Duration = Duration::from_secs(60);
        let state = test_state();
        let accepted = state.telemetry().counter("web.connections.accepted");
        let config = ServerConfig { workers: 1, queue_capacity: 8 };
        let server = Server::start_with(state, "127.0.0.1:0", &config).unwrap();
        let addr = server.addr();

        // Park the only handler on a half-sent request, then queue a few
        // complete requests behind it.
        let mut busy = TcpStream::connect(addr).unwrap();
        write!(busy, "GET / HTTP/1.1\r\n").unwrap();
        let clients: Vec<TcpStream> = (0..3)
            .map(|_| {
                let mut c = TcpStream::connect(addr).unwrap();
                write!(c, "GET / HTTP/1.1\r\n\r\n").unwrap();
                c
            })
            .collect();
        // Wait until the accept thread has taken all four connections past
        // its shutdown check: from then on each one is queued or served.
        let start = Instant::now();
        while accepted.get() < 4 {
            assert!(start.elapsed() < DEADLINE, "accepted {} of 4 connections", accepted.get());
            std::thread::sleep(Duration::from_millis(1));
        }

        // Release the handler and stop: every accepted connection must
        // still get an answer, because stop() only closes the queue —
        // handlers drain what was already accepted before exiting.
        write!(busy, "\r\n").unwrap();
        server.stop();
        let mut out = Vec::new();
        busy.read_to_end(&mut out).unwrap();
        assert!(String::from_utf8_lossy(&out).starts_with("HTTP/1.1 200"));
        for mut c in clients {
            let mut out = Vec::new();
            c.read_to_end(&mut out).unwrap();
            assert!(
                String::from_utf8_lossy(&out).starts_with("HTTP/1.1 200"),
                "accepted connection dropped during stop"
            );
        }
        // stop()'s wake-up connection is not counted.
        assert_eq!(accepted.get(), 4);
    }

    #[test]
    fn silent_connection_times_out_instead_of_pinning_its_handler() {
        use std::sync::mpsc;
        use std::time::Instant;
        // Only bounds a hang; a loaded machine is slow, but never this slow.
        const MARGIN: Duration = Duration::from_secs(30);
        let state = test_state();
        let accepted = state.telemetry().counter("web.connections.accepted");
        let config = ServerConfig { workers: 1, queue_capacity: 8 };
        let server = Server::start_with(state, "127.0.0.1:0", &config).unwrap();
        let addr = server.addr();

        // The only handler takes a connection that never sends a byte.
        let mut silent = TcpStream::connect(addr).unwrap();
        let start = Instant::now();
        while accepted.get() < 1 {
            assert!(start.elapsed() < MARGIN, "silent connection never accepted");
            std::thread::sleep(Duration::from_millis(1));
        }

        // A complete request queued behind it is served once the silent
        // one times out.
        let mut client = TcpStream::connect(addr).unwrap();
        write!(client, "GET / HTTP/1.1\r\n\r\n").unwrap();
        client.set_read_timeout(Some(IO_TIMEOUT + MARGIN)).unwrap();
        let mut out = Vec::new();
        client.read_to_end(&mut out).expect("the queued request was never served");
        assert!(String::from_utf8_lossy(&out).starts_with("HTTP/1.1 200"));
        assert!(start.elapsed() < IO_TIMEOUT + MARGIN);

        // The silent client was told why, and its connection closed.
        silent.set_read_timeout(Some(MARGIN)).unwrap();
        let mut out = Vec::new();
        silent.read_to_end(&mut out).unwrap();
        assert!(String::from_utf8_lossy(&out).starts_with("HTTP/1.1 408"));

        let (done, stopped) = mpsc::channel();
        std::thread::spawn(move || {
            server.stop();
            let _ = done.send(());
        });
        stopped.recv_timeout(MARGIN).expect("stop() returned");
    }

    #[test]
    fn dripping_client_gets_408_at_the_request_deadline() {
        use std::sync::atomic::AtomicBool;
        use std::time::Instant;
        // Bounds how late the 408 may come. A per-read timeout would keep
        // a one-byte-per-second client alive for as long as it drips.
        const MARGIN: Duration = Duration::from_secs(3);
        let state = test_state();
        let accepted = state.telemetry().counter("web.connections.accepted");
        let config = ServerConfig { workers: 1, queue_capacity: 8 };
        let server = Server::start_with(state, "127.0.0.1:0", &config).unwrap();
        let addr = server.addr();

        // The only handler takes a client that sends one header byte a
        // second and never finishes its request.
        let mut drip = TcpStream::connect(addr).unwrap();
        let mut drip_writer = drip.try_clone().unwrap();
        let stop_dripping = Arc::new(AtomicBool::new(false));
        let dripper = {
            let stop = Arc::clone(&stop_dripping);
            std::thread::spawn(move || {
                let head = format!("GET / HTTP/1.1\r\nX-Pad: {}", "p".repeat(1 << 10));
                for byte in head.bytes() {
                    if stop.load(Ordering::SeqCst) || drip_writer.write_all(&[byte]).is_err() {
                        return;
                    }
                    std::thread::sleep(Duration::from_secs(1));
                }
            })
        };
        let start = Instant::now();
        while accepted.get() < 1 {
            assert!(start.elapsed() < MARGIN, "dripping connection never accepted");
            std::thread::sleep(Duration::from_millis(1));
        }

        // A complete request queued behind it.
        let mut client = TcpStream::connect(addr).unwrap();
        write!(client, "GET / HTTP/1.1\r\n\r\n").unwrap();

        drip.set_read_timeout(Some(IO_TIMEOUT + MARGIN)).unwrap();
        let mut out = Vec::new();
        let _ = drip.read_to_end(&mut out);
        stop_dripping.store(true, Ordering::SeqCst);
        assert!(
            String::from_utf8_lossy(&out).starts_with("HTTP/1.1 408"),
            "no 408 within the request deadline plus {MARGIN:?}"
        );
        assert!(start.elapsed() < IO_TIMEOUT + MARGIN);

        client.set_read_timeout(Some(IO_TIMEOUT + MARGIN)).unwrap();
        let mut out = Vec::new();
        client.read_to_end(&mut out).expect("the queued request was never served");
        assert!(String::from_utf8_lossy(&out).starts_with("HTTP/1.1 200"));
        dripper.join().unwrap();
        server.stop();
    }

    #[test]
    fn stop_is_idempotent_and_drop_safe() {
        let server = running_server();
        let addr = server.addr();
        server.stop();
        // Further connections fail or hang up immediately — either way no
        // panic and the port is released quickly enough for rebinding.
        let _ = TcpStream::connect(addr);
    }
}
