//! A tiny std-only HTTP/1.1 client for driving the daemon — used by
//! `adapipe query`, the integration tests and the `serve_load` bench.
//!
//! One request per connection, matching the server's
//! `Connection: close` framing.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A parsed HTTP response.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Header `(name, value)` pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// UTF-8 body.
    pub body: String,
}

impl HttpResponse {
    /// The first header named `name` (ASCII case-insensitive).
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether the status is 2xx.
    #[must_use]
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

fn invalid(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// Performs one request against `addr` (a `host:port` string) and
/// reads the full response.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<HttpResponse> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.set_write_timeout(Some(Duration::from_secs(60)))?;

    let body = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;

    let mut raw = Vec::new();
    // A reset after full delivery is routine; parse decides.
    let _n = stream.read_to_end(&mut raw);
    parse_response(&raw)
}

/// Splits a raw response into status, headers and body.
fn parse_response(raw: &[u8]) -> std::io::Result<HttpResponse> {
    let head_len = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| invalid("response has no header terminator".to_string()))?;
    let head = String::from_utf8_lossy(raw.get(..head_len).unwrap_or(&[])).into_owned();
    let mut lines = head.split("\r\n");
    let status_line = lines
        .next()
        .ok_or_else(|| invalid("empty response".to_string()))?;
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| invalid(format!("bad status line: {status_line}")))?;
    let headers = lines
        .filter(|l| !l.is_empty())
        .filter_map(|l| {
            l.split_once(':')
                .map(|(n, v)| (n.trim().to_string(), v.trim().to_string()))
        })
        .collect();
    let body = String::from_utf8_lossy(raw.get(head_len + 4..).unwrap_or(&[])).into_owned();
    Ok(HttpResponse {
        status,
        headers,
        body,
    })
}

/// `GET path` against `addr`.
pub fn get(addr: &str, path: &str) -> std::io::Result<HttpResponse> {
    request(addr, "GET", path, None)
}

/// `POST /v1/plan` with a request body.
pub fn post_plan(addr: &str, body: &str) -> std::io::Result<HttpResponse> {
    request(addr, "POST", "/v1/plan", Some(body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_well_formed_response() {
        let raw =
            b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nX-Adapipe-Cache: hit\r\n\r\nbody";
        let resp = parse_response(raw).unwrap();
        assert_eq!(resp.status, 200);
        assert!(resp.is_success());
        assert_eq!(resp.header("x-adapipe-cache"), Some("hit"));
        assert_eq!(resp.body, "body");
    }

    #[test]
    fn rejects_non_http_bytes() {
        assert!(parse_response(b"garbage").is_err());
        assert!(parse_response(b"HTTP/1.1 banana\r\n\r\n").is_err());
    }
}
