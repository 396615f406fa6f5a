//! A minimal HTTP/1.1 client for the server's `Connection: close`
//! responses, plus the parser for `POST /query?format=json` bodies.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A complete response.
#[derive(Debug)]
pub struct Reply {
    /// Status code from the status line.
    pub status: u16,
    /// `Content-Type` header value (empty when absent).
    pub content_type: String,
    /// Body bytes.
    pub body: Vec<u8>,
}

/// Send one request on a fresh connection and read the reply to EOF.
pub fn send(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> std::io::Result<Reply> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_reply(&raw)
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed reply"))
}

fn parse_reply(raw: &[u8]) -> Option<Reply> {
    let split = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&raw[..split]).ok()?;
    let mut lines = head.split("\r\n");
    let status = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let mut content_type = String::new();
    let mut length = None;
    for line in lines {
        let (name, value) = line.split_once(':')?;
        match name.trim().to_ascii_lowercase().as_str() {
            "content-type" => content_type = value.trim().to_string(),
            "content-length" => length = value.trim().parse::<usize>().ok(),
            _ => {}
        }
    }
    let body = raw[split + 4..].to_vec();
    if length.is_some_and(|n| n != body.len()) {
        return None;
    }
    Some(Reply {
        status,
        content_type,
        body,
    })
}

/// One ranked match as the JSON body reports it.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonMatch {
    /// Key frame id.
    pub i_id: u64,
    /// The score exactly as printed (six decimals).
    pub score: String,
}

/// Parse `{"matches":[{"i_id":..,"v_id":..,"video":"..","score":..},..]}`.
/// Video names are the benchmark's own (no quotes or braces inside).
pub fn parse_matches(body: &[u8]) -> Option<Vec<JsonMatch>> {
    let text = std::str::from_utf8(body).ok()?;
    let inner = text.strip_prefix("{\"matches\":[")?.strip_suffix("]}")?;
    if inner.is_empty() {
        return Some(Vec::new());
    }
    inner
        .split("},{")
        .map(|item| {
            let field = |key: &str| {
                let start = item.find(key)? + key.len();
                let rest = &item[start..];
                let end = rest.find([',', '}']).unwrap_or(rest.len());
                Some(rest[..end].to_string())
            };
            Some(JsonMatch {
                i_id: field("\"i_id\":")?.parse().ok()?,
                score: field("\"score\":")?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_reply_and_matches() {
        let body = "{\"matches\":[{\"i_id\":4,\"v_id\":1,\"video\":\"a_1\",\"score\":0.500000},\
                    {\"i_id\":9,\"v_id\":2,\"video\":\"b\",\"score\":0.25}]}";
        let raw = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\
             Connection: close\r\n\r\n{body}",
            body.len()
        );
        let raw = raw.as_bytes();
        let reply = parse_reply(raw).expect("well-formed");
        assert_eq!(reply.status, 200);
        assert_eq!(reply.content_type, "application/json");
        let matches = parse_matches(&reply.body).expect("json");
        assert_eq!(
            matches,
            vec![
                JsonMatch {
                    i_id: 4,
                    score: "0.500000".into()
                },
                JsonMatch {
                    i_id: 9,
                    score: "0.25".into()
                }
            ]
        );
        assert_eq!(parse_matches(b"{\"matches\":[]}"), Some(Vec::new()));
        assert_eq!(parse_matches(b"oops"), None);
        // A truncated body is not a reply.
        assert!(parse_reply(&raw[..raw.len() - 3]).is_none());
    }
}
