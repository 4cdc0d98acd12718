//! A minimal, dependency-free HTTP/1.1 codec: just enough protocol for the
//! serving endpoints (request line + headers + `Content-Length` body in;
//! status line + headers + body out, in one write; persistent connections
//! by default on HTTP/1.1, `Connection: close` honored, HTTP/1.0 closed
//! unless it asks for `keep-alive`). Not a general web server — unsupported
//! constructs (chunked bodies, upgrades) are rejected with a clean 400.

use std::io::{self, BufRead, Write};

/// Largest accepted request body; longer bodies are rejected (413).
pub const MAX_BODY_BYTES: usize = 4 << 20;

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method (`GET`, `POST`, ...), uppercased by the client.
    pub method: String,
    /// Request path including any query string (`/v1/score`).
    pub path: String,
    /// Minor protocol version: `0` for HTTP/1.0, `1` for HTTP/1.1.
    pub minor_version: u8,
    /// Lowercased `(name, value)` header pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// Request body (empty when no `Content-Length` was sent).
    pub body: String,
}

impl Request {
    /// First value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Does the connection end after this exchange? An explicit
    /// `Connection: close` / `keep-alive` decides; otherwise HTTP/1.1
    /// persists and HTTP/1.0 closes (RFC 9112 §9.3).
    pub fn wants_close(&self) -> bool {
        let has = |token: &str| {
            self.header("connection")
                .is_some_and(|v| v.split(',').any(|t| t.trim().eq_ignore_ascii_case(token)))
        };
        has("close") || (self.minor_version == 0 && !has("keep-alive"))
    }
}

/// A request-parse failure, carrying the HTTP status the server should
/// answer with before closing the connection.
#[derive(Debug)]
pub struct ParseError {
    /// Response status code (400 or 413).
    pub status: u16,
    /// Human-readable reason included in the error body.
    pub message: String,
}

impl ParseError {
    fn bad(message: impl Into<String>) -> ParseError {
        ParseError {
            status: 400,
            message: message.into(),
        }
    }
}

/// Read one request from a buffered connection.
///
/// Returns `Ok(None)` on clean EOF before any bytes (the client closed a
/// keep-alive connection), `Err(Ok(e))`-style parse failures as
/// `Ok(Some(Err(..)))` so the caller can answer with the right status, and
/// `Err` only for transport-level I/O failures.
#[allow(clippy::type_complexity)]
pub fn read_request<R: BufRead>(r: &mut R) -> io::Result<Option<Result<Request, ParseError>>> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Ok(None);
    }
    let line = line.trim_end();
    let mut parts = line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) => (m.to_string(), p.to_string(), v),
        _ => {
            return Ok(Some(Err(ParseError::bad(format!(
                "bad request line {line:?}"
            )))))
        }
    };
    let Some(minor_version) = version
        .strip_prefix("HTTP/1.")
        .and_then(|m| m.parse::<u8>().ok())
    else {
        return Ok(Some(Err(ParseError::bad(format!(
            "unsupported protocol {version:?}"
        )))));
    };
    let mut headers = Vec::new();
    loop {
        let mut h = String::new();
        if r.read_line(&mut h)? == 0 {
            return Ok(Some(Err(ParseError::bad("eof inside headers"))));
        }
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        match h.split_once(':') {
            Some((name, value)) => {
                headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
            }
            None => return Ok(Some(Err(ParseError::bad(format!("bad header {h:?}"))))),
        }
    }
    if headers.iter().any(|(n, _)| n == "transfer-encoding") {
        return Ok(Some(Err(ParseError::bad(
            "chunked transfer encoding is not supported",
        ))));
    }
    let len = match headers.iter().find(|(n, _)| n == "content-length") {
        Some((_, v)) => match v.parse::<usize>() {
            Ok(n) => n,
            Err(_) => {
                return Ok(Some(Err(ParseError::bad(format!(
                    "bad content-length {v:?}"
                )))))
            }
        },
        None => 0,
    };
    if len > MAX_BODY_BYTES {
        return Ok(Some(Err(ParseError {
            status: 413,
            message: format!("body of {len} bytes exceeds the {MAX_BODY_BYTES}-byte limit"),
        })));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    let body = match String::from_utf8(body) {
        Ok(s) => s,
        Err(_) => return Ok(Some(Err(ParseError::bad("body is not valid UTF-8")))),
    };
    Ok(Some(Ok(Request {
        method,
        path,
        minor_version,
        headers,
        body,
    })))
}

/// Canonical reason phrase for the status codes the server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Split a request path into `(route, query string)` at the first `?`.
/// The query string is `None` when the path has no `?`.
pub fn split_path_query(path: &str) -> (&str, Option<&str>) {
    match path.split_once('?') {
        Some((route, query)) => (route, Some(query)),
        None => (path, None),
    }
}

/// Write one response: status line, `Content-Type`/`Content-Length`, any
/// extra headers (e.g. `Retry-After` on a 503, `X-Request-Id` everywhere),
/// then the body. The default `application/json` content type is suppressed
/// when `extra_headers` carries its own `Content-Type` (the Prometheus
/// `/metrics` rendering is `text/plain`).
///
/// The whole response is assembled first and handed to `w` in one
/// `write_all`: on a socket, a trail of small writes would let Nagle's
/// algorithm hold each one back until the client's (delayed) ACK arrives.
pub fn write_response<W: Write>(
    w: &mut W,
    status: u16,
    body: &str,
    extra_headers: &[(&str, String)],
) -> io::Result<()> {
    use std::fmt::Write as _;
    let has_ct = extra_headers
        .iter()
        .any(|(n, _)| n.eq_ignore_ascii_case("content-type"));
    let mut out = String::with_capacity(128 + body.len());
    // Formatting into a `String` cannot fail.
    let _ = write!(out, "HTTP/1.1 {status} {}\r\n", reason(status));
    if !has_ct {
        out.push_str("Content-Type: application/json\r\n");
    }
    let _ = write!(out, "Content-Length: {}\r\n", body.len());
    for (name, value) in extra_headers {
        let _ = write!(out, "{name}: {value}\r\n");
    }
    out.push_str("\r\n");
    out.push_str(body);
    w.write_all(out.as_bytes())?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn parses_post_with_body() {
        let raw = "POST /v1/score HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello";
        let req = read_request(&mut BufReader::new(raw.as_bytes()))
            .unwrap()
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/score");
        assert_eq!(req.body, "hello");
        assert_eq!(req.header("host"), Some("x"));
        assert!(!req.wants_close());
    }

    #[test]
    fn clean_eof_is_none() {
        assert!(read_request(&mut BufReader::new(&b""[..]))
            .unwrap()
            .is_none());
    }

    #[test]
    fn garbage_is_a_400_not_an_io_error() {
        let raw = "NOT-HTTP\r\n\r\n";
        let err = read_request(&mut BufReader::new(raw.as_bytes()))
            .unwrap()
            .unwrap()
            .unwrap_err();
        assert_eq!(err.status, 400);
    }

    #[test]
    fn oversized_body_is_413() {
        let raw = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", usize::MAX);
        let err = read_request(&mut BufReader::new(raw.as_bytes()))
            .unwrap()
            .unwrap()
            .unwrap_err();
        assert_eq!(err.status, 413);
    }

    #[test]
    fn splits_path_and_query() {
        assert_eq!(split_path_query("/metrics"), ("/metrics", None));
        assert_eq!(
            split_path_query("/metrics?format=json"),
            ("/metrics", Some("format=json"))
        );
        assert_eq!(split_path_query("/a?b?c"), ("/a", Some("b?c")));
    }

    #[test]
    fn content_type_override_suppresses_default() {
        let mut out = Vec::new();
        write_response(
            &mut out,
            200,
            "x",
            &[("Content-Type", "text/plain; version=0.0.4".to_string())],
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Content-Type: text/plain; version=0.0.4\r\n"));
        assert_eq!(text.matches("Content-Type:").count(), 1);
    }

    /// `(status, body, extra headers, expected bytes on the wire)`.
    type Golden = (u16, &'static str, Vec<(&'static str, String)>, &'static str);

    /// Golden bytes of the four response shapes the server emits, recorded
    /// from the original one-`write!`-per-line encoder: the single-buffer
    /// encoder must reproduce them byte for byte.
    fn golden_cases() -> Vec<Golden> {
        vec![
            (
                200,
                "{\"region\":3,\"type\":1,\"period\":\"morning\",\"score\":0.25}\n",
                vec![("X-Request-Id", "r-17".to_string())],
                "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 54\r\n\
                 X-Request-Id: r-17\r\n\r\n\
                 {\"region\":3,\"type\":1,\"period\":\"morning\",\"score\":0.25}\n",
            ),
            (
                429,
                "{\"error\":\"rate limit exceeded; retry shortly\"}",
                vec![
                    ("Retry-After", "2".to_string()),
                    ("X-Request-Id", "r-18".to_string()),
                ],
                "HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\n\
                 Content-Length: 46\r\nRetry-After: 2\r\nX-Request-Id: r-18\r\n\r\n\
                 {\"error\":\"rate limit exceeded; retry shortly\"}",
            ),
            (
                200,
                "# TYPE siterec_serve_requests_total counter\nsiterec_serve_requests_total 4\n",
                vec![
                    ("Content-Type", "text/plain; version=0.0.4".to_string()),
                    ("X-Request-Id", "r-19".to_string()),
                ],
                "HTTP/1.1 200 OK\r\nContent-Length: 75\r\n\
                 Content-Type: text/plain; version=0.0.4\r\nX-Request-Id: r-19\r\n\r\n\
                 # TYPE siterec_serve_requests_total counter\nsiterec_serve_requests_total 4\n",
            ),
            (
                200,
                "",
                vec![],
                "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 0\r\n\r\n",
            ),
        ]
    }

    #[test]
    fn response_bytes_match_golden() {
        for (status, body, extra, golden) in golden_cases() {
            let mut out = Vec::new();
            write_response(&mut out, status, body, &extra).unwrap();
            assert_eq!(String::from_utf8(out).unwrap(), golden);
        }
    }

    /// Counts `write` calls, keeping the bytes.
    struct CountingWriter {
        calls: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn response_is_one_write() {
        for (status, body, extra, golden) in golden_cases() {
            let mut w = CountingWriter {
                calls: 0,
                bytes: Vec::new(),
            };
            write_response(&mut w, status, body, &extra).unwrap();
            assert_eq!(w.calls, 1, "status {status}");
            assert_eq!(w.bytes, golden.as_bytes());
        }
    }

    fn parse(raw: &str) -> Request {
        read_request(&mut BufReader::new(raw.as_bytes()))
            .unwrap()
            .unwrap()
            .unwrap()
    }

    #[test]
    fn http10_closes_by_default() {
        let req = parse("GET /healthz HTTP/1.0\r\nHost: x\r\n\r\n");
        assert_eq!(req.minor_version, 0);
        assert!(req.wants_close());
    }

    #[test]
    fn http10_keep_alive_persists() {
        let req = parse("GET /healthz HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n");
        assert!(!req.wants_close());
    }

    #[test]
    fn http11_persists_by_default() {
        let req = parse("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(req.minor_version, 1);
        assert!(!req.wants_close());
    }

    #[test]
    fn http11_close_closes() {
        let req = parse("GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(req.wants_close());
    }

    #[test]
    fn malformed_version_is_a_400() {
        let raw = "GET / HTTP/1.x\r\n\r\n";
        let err = read_request(&mut BufReader::new(raw.as_bytes()))
            .unwrap()
            .unwrap()
            .unwrap_err();
        assert_eq!(err.status, 400);
    }

    #[test]
    fn response_includes_extra_headers() {
        let mut out = Vec::new();
        write_response(&mut out, 503, "{}", &[("Retry-After", "1".to_string())]).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
