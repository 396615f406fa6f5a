//! A from-scratch HTTP/1.1 subset: exactly what the application needs.
//!
//! Supports `GET` and `POST`, percent-decoded query strings, a bounded
//! `Content-Length` body, and plain (non-chunked, non-keep-alive)
//! responses. Parsing works over any `BufRead`, so unit tests feed byte
//! slices instead of sockets.

use std::collections::BTreeMap;
use std::fmt;
use std::io::{BufRead, Read, Write};

/// Maximum accepted body (an uploaded query image): 16 MiB.
pub const MAX_BODY: usize = 16 << 20;
/// Maximum accepted header section.
const MAX_HEADER_BYTES: usize = 64 << 10;

/// Supported methods.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Method {
    /// HTTP GET.
    Get,
    /// HTTP POST.
    Post,
}

/// Response status subset.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum StatusCode {
    /// 200.
    Ok,
    /// 400.
    BadRequest,
    /// 404.
    NotFound,
    /// 405.
    MethodNotAllowed,
    /// 408 (the client sent nothing for too long; the connection closes).
    RequestTimeout,
    /// 413.
    PayloadTooLarge,
    /// 500.
    InternalServerError,
    /// 503 (handler pool saturated; retry later).
    ServiceUnavailable,
}

impl StatusCode {
    fn line(self) -> &'static str {
        match self {
            StatusCode::Ok => "200 OK",
            StatusCode::BadRequest => "400 Bad Request",
            StatusCode::NotFound => "404 Not Found",
            StatusCode::MethodNotAllowed => "405 Method Not Allowed",
            StatusCode::RequestTimeout => "408 Request Timeout",
            StatusCode::PayloadTooLarge => "413 Payload Too Large",
            StatusCode::InternalServerError => "500 Internal Server Error",
            StatusCode::ServiceUnavailable => "503 Service Unavailable",
        }
    }
}

/// A parsed request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Method.
    pub method: Method,
    /// Path without the query string, e.g. `/video`.
    pub path: String,
    /// Percent-decoded query parameters, in order of appearance.
    pub query: Vec<(String, String)>,
    /// Lower-cased header map.
    pub headers: BTreeMap<String, String>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First query value for `key`.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.query.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Parse `key` as an integer parameter.
    pub fn param_u64(&self, key: &str) -> Option<u64> {
        self.param(key)?.parse().ok()
    }
}

/// A parse failure with a status to answer with.
#[derive(Debug)]
pub struct HttpError {
    /// The status this error maps to.
    pub status: StatusCode,
    /// Human-readable detail.
    pub message: String,
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}: {}", self.status, self.message)
    }
}

impl std::error::Error for HttpError {}

fn bad(message: impl Into<String>) -> HttpError {
    HttpError { status: StatusCode::BadRequest, message: message.into() }
}

/// A failed socket read: 408 when the stream's read timeout expired,
/// 400 otherwise.
fn read_failed(what: &str, e: std::io::Error) -> HttpError {
    let status = match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => StatusCode::RequestTimeout,
        _ => StatusCode::BadRequest,
    };
    HttpError { status, message: format!("read {what}: {e}") }
}

/// Percent-decode a URL component (`%41` → `A`, `+` → space).
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            // Both bytes must be hex digits: `from_str_radix` alone would
            // also accept a sign, decoding "%+5" to 0x05.
            b'%' => match bytes.get(i + 1..i + 3) {
                Some(h) if h.iter().all(u8::is_ascii_hexdigit) => {
                    let hex = std::str::from_utf8(h).expect("hex digits are ASCII");
                    out.push(u8::from_str_radix(hex, 16).expect("two hex digits fit in a byte"));
                    i += 2;
                }
                _ => out.push(b'%'),
            },
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Split and decode a query string.
pub fn parse_query(qs: &str) -> Vec<(String, String)> {
    qs.split('&')
        .filter(|p| !p.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(pair), String::new()),
        })
        .collect()
}

/// Read one line of the header section, charging its bytes to `budget`.
/// The read itself is bounded by what is left of the budget, so a client
/// that never sends a newline cannot grow the line past it.
fn read_header_line(
    reader: &mut impl BufRead,
    budget: &mut usize,
    what: &str,
) -> Result<String, HttpError> {
    let mut line = String::new();
    let n = reader
        .by_ref()
        .take(*budget as u64)
        .read_line(&mut line)
        .map_err(|e| read_failed(what, e))?;
    *budget -= n;
    if !line.ends_with('\n') {
        // Either the budget ran out or the stream ended mid-line: a
        // request cut off by EOF is not served as if it were complete.
        return Err(bad(if *budget == 0 {
            "header section too large"
        } else {
            "request cut off before the end of its header section"
        }));
    }
    Ok(line)
}

/// Read and parse one request from a buffered stream.
pub fn read_request(reader: &mut impl BufRead) -> Result<Request, HttpError> {
    let mut budget = MAX_HEADER_BYTES;
    let line = read_header_line(reader, &mut budget, "request line")?;
    let line = line.trim_end();
    if line.is_empty() {
        return Err(bad("empty request"));
    }
    let mut parts = line.split_whitespace();
    let method = match parts.next() {
        Some("GET") => Method::Get,
        Some("POST") => Method::Post,
        Some(other) => {
            return Err(HttpError {
                status: StatusCode::MethodNotAllowed,
                message: format!("method {other} not supported"),
            })
        }
        None => return Err(bad("missing method")),
    };
    let target = parts.next().ok_or_else(|| bad("missing request target"))?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), parse_query(q)),
        None => (target.to_string(), Vec::new()),
    };

    let mut headers = BTreeMap::new();
    loop {
        let header = read_header_line(reader, &mut budget, "header")?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((k, v)) = header.split_once(':') {
            headers.insert(k.trim().to_lowercase(), v.trim().to_string());
        }
    }

    let mut body = Vec::new();
    if let Some(len) = headers.get("content-length") {
        let len: usize = len.parse().map_err(|e| bad(format!("bad content-length: {e}")))?;
        if len > MAX_BODY {
            return Err(HttpError {
                status: StatusCode::PayloadTooLarge,
                message: format!("body of {len} bytes exceeds {MAX_BODY}"),
            });
        }
        body.resize(len, 0);
        std::io::Read::read_exact(reader, &mut body)
            .map_err(|e| read_failed("body", e))?;
    }
    Ok(Request { method, path, query, headers, body })
}

/// A response ready to serialise.
#[derive(Clone, Debug)]
pub struct Response {
    /// Status code.
    pub status: StatusCode,
    /// `Content-Type` value.
    pub content_type: String,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// An HTML page.
    pub fn html(body: impl Into<String>) -> Response {
        Response {
            status: StatusCode::Ok,
            content_type: "text/html; charset=utf-8".into(),
            body: body.into().into_bytes(),
        }
    }

    /// Plain text.
    pub fn text(status: StatusCode, body: impl Into<String>) -> Response {
        Response { status, content_type: "text/plain; charset=utf-8".into(), body: body.into().into_bytes() }
    }

    /// JSON payload.
    pub fn json(body: impl Into<String>) -> Response {
        Response { status: StatusCode::Ok, content_type: "application/json".into(), body: body.into().into_bytes() }
    }

    /// Raw bytes with an explicit content type.
    pub fn bytes(content_type: &str, body: Vec<u8>) -> Response {
        Response { status: StatusCode::Ok, content_type: content_type.into(), body }
    }

    /// Serialise onto a writer (`Connection: close` semantics).
    ///
    /// The status line and headers go out in one `write_all`: `write!`
    /// on an unbuffered socket issues one write per format piece, so a
    /// client's first read could return a fragment like `HTTP/1.1 `.
    pub fn write_to(&self, writer: &mut impl Write) -> std::io::Result<()> {
        let head = format!(
            "HTTP/1.1 {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.status.line(),
            self.content_type,
            self.body.len()
        );
        writer.write_all(head.as_bytes())?;
        writer.write_all(&self.body)?;
        writer.flush()
    }
}

/// Escape text for HTML interpolation.
pub fn html_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '&' => "&amp;".chars().collect::<Vec<_>>(),
            '<' => "&lt;".chars().collect(),
            '>' => "&gt;".chars().collect(),
            '"' => "&quot;".chars().collect(),
            '\'' => "&#39;".chars().collect(),
            other => vec![other],
        })
        .collect()
}

/// Escape text for JSON string interpolation.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &[u8]) -> Result<Request, HttpError> {
        read_request(&mut BufReader::new(raw))
    }

    #[test]
    fn parses_get_with_query() {
        let r = parse(b"GET /video?id=3&name=a%20b HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.method, Method::Get);
        assert_eq!(r.path, "/video");
        assert_eq!(r.param("id"), Some("3"));
        assert_eq!(r.param_u64("id"), Some(3));
        assert_eq!(r.param("name"), Some("a b"));
        assert_eq!(r.headers.get("host").map(String::as_str), Some("x"));
        assert!(r.body.is_empty());
    }

    #[test]
    fn parses_post_with_body() {
        let r = parse(b"POST /query HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello").unwrap();
        assert_eq!(r.method, Method::Post);
        assert_eq!(r.body, b"hello");
    }

    #[test]
    fn rejects_bad_requests() {
        assert!(parse(b"").is_err());
        assert!(parse(b"\r\n").is_err());
        let e = parse(b"DELETE /x HTTP/1.1\r\n\r\n").unwrap_err();
        assert_eq!(e.status, StatusCode::MethodNotAllowed);
        assert!(parse(b"GET\r\n\r\n").is_err());
        assert!(parse(b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n").is_err());
    }

    #[test]
    fn a_request_cut_off_by_eof_is_rejected() {
        for cut in [&b"GET /a HTTP/1.1\r\nHost: t\r\n"[..], b"GET /b HTTP/1.1"] {
            let e = parse(cut).unwrap_err();
            assert_eq!(e.status, StatusCode::BadRequest);
            assert!(e.message.contains("cut off"), "{}", e.message);
        }
        let whole = parse(b"GET /a HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        assert_eq!((whole.path.as_str(), whole.headers["host"].as_str()), ("/a", "t"));
    }

    #[test]
    fn rejects_oversized_body() {
        let raw = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY + 1);
        let e = parse(raw.as_bytes()).unwrap_err();
        assert_eq!(e.status, StatusCode::PayloadTooLarge);
    }

    #[test]
    fn truncated_body_is_an_error() {
        assert!(parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort").is_err());
    }

    /// Counts the bytes read through it from the inner reader.
    struct Counting<R> {
        inner: R,
        read: usize,
    }

    impl<R: Read> Read for Counting<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.read += n;
            Ok(n)
        }
    }

    #[test]
    fn endless_header_lines_are_cut_at_the_budget() {
        let endless = || std::io::repeat(b'a').take(8 << 20);
        // No newline ever, first in the request line, then in a header.
        let sources: [Box<dyn Read>; 2] = [
            Box::new(endless()),
            Box::new((&b"GET / HTTP/1.1\r\n"[..]).chain(endless())),
        ];
        for source in sources {
            let mut reader = BufReader::new(Counting { inner: source, read: 0 });
            let e = read_request(&mut reader).unwrap_err();
            assert_eq!(e.status, StatusCode::BadRequest);
            assert!(e.message.contains("too large"), "{}", e.message);
            let read = reader.get_ref().read;
            assert!(read <= MAX_HEADER_BYTES + (8 << 10), "read {read} bytes");
        }
    }

    #[test]
    fn header_section_at_the_budget_is_accepted() {
        let head = "GET / HTTP/1.1\r\nX: ";
        let pad = "p".repeat(MAX_HEADER_BYTES - head.len() - 4);
        let raw = format!("{head}{pad}\r\n\r\n");
        assert_eq!(raw.len(), MAX_HEADER_BYTES);
        assert_eq!(parse(raw.as_bytes()).unwrap().headers["x"], pad);
        let over = format!("{head}{pad}p\r\n\r\n");
        assert!(parse(over.as_bytes()).unwrap_err().message.contains("too large"));
    }

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("a%20b+c"), "a b c");
        assert_eq!(percent_decode("%41%42"), "AB");
        assert_eq!(percent_decode("100%"), "100%"); // dangling % passes through
        assert_eq!(percent_decode("%zz"), "%zz");
        // A sign is not a hex digit: the `%` stays literal and `+` is a space.
        assert_eq!(percent_decode("%+5"), "% 5");
        assert_eq!(percent_decode("%+f"), "% f");
        assert_eq!(percent_decode("%4"), "%4");
    }

    #[test]
    fn query_parsing() {
        let q = parse_query("a=1&b=&c&a=2");
        assert_eq!(q.len(), 4);
        assert_eq!(q[0], ("a".into(), "1".into()));
        assert_eq!(q[1], ("b".into(), "".into()));
        assert_eq!(q[2], ("c".into(), "".into()));
    }

    #[test]
    fn response_serialises() {
        let mut out = Vec::new();
        Response::html("<p>hi</p>").write_to(&mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(s.contains("Content-Length: 9\r\n"));
        assert!(s.ends_with("<p>hi</p>"));
    }

    /// Records every `write` call it receives, accepting each in full.
    #[derive(Default)]
    struct WriteLog {
        writes: Vec<Vec<u8>>,
    }

    impl Write for WriteLog {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn header_block_goes_out_in_one_write() {
        let mut log = WriteLog::default();
        Response::text(StatusCode::ServiceUnavailable, "busy\n")
            .write_to(&mut log)
            .unwrap();
        let first = String::from_utf8(log.writes[0].clone()).unwrap();
        assert_eq!(
            first,
            "HTTP/1.1 503 Service Unavailable\r\nContent-Type: text/plain; charset=utf-8\r\n\
             Content-Length: 5\r\nConnection: close\r\n\r\n"
        );
        assert_eq!(log.writes[1..].concat(), b"busy\n");
    }

    #[test]
    fn escapes() {
        assert_eq!(html_escape("<a b=\"c\">&'"), "&lt;a b=&quot;c&quot;&gt;&amp;&#39;");
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn percent_decode_never_panics(s in ".*") {
            let _ = percent_decode(&s);
        }

        #[test]
        fn parse_query_never_panics(s in ".*") {
            let _ = parse_query(&s);
        }

        #[test]
        fn arbitrary_request_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..512)) {
            let mut reader = std::io::BufReader::new(&data[..]);
            let _ = read_request(&mut reader); // Ok or Err, never panic
        }

        #[test]
        fn responses_always_serialise(body in proptest::collection::vec(any::<u8>(), 0..256)) {
            let r = Response::bytes("application/octet-stream", body.clone());
            let mut out = Vec::new();
            r.write_to(&mut out).unwrap();
            prop_assert!(out.ends_with(&body));
        }

        #[test]
        fn html_escape_output_has_no_raw_angle_brackets(s in ".*") {
            let e = html_escape(&s);
            prop_assert!(!e.contains('<') && !e.contains('>'));
        }

        #[test]
        fn json_escape_round_trips_as_valid_token(s in "[ -~]{0,60}") {
            // The escaped string placed inside quotes must not terminate
            // the JSON string early.
            let e = json_escape(&s);
            let mut chars = e.chars().peekable();
            let mut escaped = false;
            for c in chars.by_ref() {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else {
                    prop_assert!(c != '"', "unescaped quote in {e}");
                }
            }
        }
    }
}
