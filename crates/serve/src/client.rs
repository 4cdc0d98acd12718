//! The one HTTP/1.1 client for `siterec-serve`, used by the `query` CLI,
//! the supervisor, the chaos harnesses, the serving tests and `perf_serve`.
//!
//! One exchange ([`send`], [`Conn::send`]) writes the request at once and
//! reads back exactly one `Content-Length`-framed response (the server
//! always frames them); a malformed one is an `Err`, never status 0. One
//! timeout bounds a connection: the connect gets all of it, and what is
//! left becomes the read and write timeout. The module also owns the retry
//! loop ([`send_with_retry`]), the `/v1/score` request body
//! ([`score_body`]) and the response's score bits ([`score_bits`]).

use crate::store::Query;
use siterec_obs::json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// One request.
#[derive(Debug, Clone, Copy)]
pub struct Request<'a> {
    /// `GET` or `POST`.
    pub method: &'a str,
    /// Request target, query string included.
    pub path: &'a str,
    /// Body, sent with its `Content-Length`.
    pub body: &'a str,
    /// Sent as `X-Request-Id` when set; the server echoes and journals it.
    pub request_id: Option<&'a str>,
}

impl<'a> Request<'a> {
    /// A request without an `X-Request-Id`.
    pub fn new(method: &'a str, path: &'a str, body: &'a str) -> Self {
        let request_id = None;
        Request {
            method,
            path,
            body,
            request_id,
        }
    }
}

/// One answer.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Headers, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Body.
    pub body: String,
}

impl Response {
    /// The first header named `name`, ignoring case.
    pub fn header(&self, name: &str) -> Option<&str> {
        let (_, v) = self
            .headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))?;
        Some(v)
    }

    /// `Retry-After`, in whole seconds.
    pub fn retry_after(&self) -> Option<u64> {
        self.header("retry-after")?.parse().ok()
    }

    /// The answer's `X-Request-Id`.
    pub fn request_id(&self) -> Option<&str> {
        self.header("x-request-id")
    }
}

/// A connection kept alive across requests.
pub struct Conn {
    reader: BufReader<TcpStream>,
    host: String,
}

impl Conn {
    /// Connect within `timeout`; what is left of it bounds each later read
    /// and write.
    pub fn open(addr: &str, timeout: Duration) -> Result<Conn, String> {
        let t0 = Instant::now();
        let err = |e: std::io::Error| format!("{addr}: {e}");
        let sock = addr.to_socket_addrs().map_err(err)?.next();
        let sock = sock.ok_or_else(|| format!("{addr} did not resolve"))?;
        let stream = TcpStream::connect_timeout(&sock, timeout).map_err(err)?;
        let left = timeout
            .saturating_sub(t0.elapsed())
            .max(Duration::from_millis(1));
        stream.set_read_timeout(Some(left)).map_err(err)?;
        stream.set_write_timeout(Some(left)).map_err(err)?;
        stream.set_nodelay(true).map_err(err)?;
        let host = addr.to_string();
        let reader = BufReader::new(stream);
        Ok(Conn { reader, host })
    }

    /// One exchange; the connection stays open for the next.
    pub fn send(&mut self, req: &Request) -> Result<Response, String> {
        self.exchange(req, false)
    }

    fn exchange(&mut self, req: &Request, close: bool) -> Result<Response, String> {
        let (method, path, body, host) = (req.method, req.path, req.body, &self.host);
        let mut raw = format!("{method} {path} HTTP/1.1\r\nHost: {host}\r\n");
        if close {
            raw.push_str("Connection: close\r\n");
        }
        if let Some(id) = req.request_id {
            raw.push_str(&format!("X-Request-Id: {id}\r\n"));
        }
        raw.push_str(&format!("Content-Length: {}\r\n\r\n{body}", body.len()));
        let io = |e: std::io::Error| format!("{host}: {e}");
        self.reader
            .get_mut()
            .write_all(raw.as_bytes())
            .map_err(io)?;
        let resp = read_response(&mut self.reader)?;
        let mut rest = Vec::new();
        if close && self.reader.read_to_end(&mut rest).map_err(io)? > 0 {
            return Err(format!("{} bytes after a closing response", rest.len()));
        }
        Ok(resp)
    }
}

/// One exchange on a fresh connection that asks the server to close it;
/// the server must then close with nothing after the response.
pub fn send(addr: &str, req: &Request, timeout: Duration) -> Result<Response, String> {
    Conn::open(addr, timeout)?.exchange(req, true)
}

/// A retry budget: `attempts` tries in all, waiting `first` after the
/// first failure and doubling up to `cap`.
#[derive(Debug, Clone, Copy)]
pub struct Retry {
    /// Tries in all, the first included.
    pub attempts: usize,
    /// Wait after the first failed try.
    pub first: Duration,
    /// Longest wait, `Retry-After` included.
    pub cap: Duration,
}

/// [`send`], tried again after a transport error or a 503, 504 or 429
/// answer, waiting the answer's `Retry-After` or else the backoff. The last
/// try's answer is returned whatever its status; a last transport error is
/// returned naming the last request id seen. Retried ids go to stderr, so
/// a shed request can be found in the server's journal.
pub fn send_with_retry(
    addr: &str,
    req: &Request,
    timeout: Duration,
    retry: Retry,
) -> Result<Response, String> {
    let (mut delay, mut last_err, mut id_note) = (retry.first, String::new(), String::new());
    let attempts = retry.attempts.max(1);
    for attempt in 1..=attempts {
        let wait = match send(addr, req, timeout) {
            Ok(r) if attempt == attempts || !matches!(r.status, 503 | 504 | 429) => return Ok(r),
            Ok(r) => {
                if let Some(id) = r.request_id() {
                    let status = r.status;
                    eprintln!(
                        "siterec-serve: {status} on attempt {attempt} (request id {id}), retrying"
                    );
                    id_note = format!(" (last request id {id})");
                }
                r.retry_after().map_or(delay, Duration::from_secs)
            }
            Err(e) => {
                last_err = e;
                delay
            }
        };
        if attempt < attempts {
            std::thread::sleep(wait.min(retry.cap));
        }
        delay = (delay * 2).min(retry.cap);
    }
    Err(format!(
        "request to {addr} failed after {attempts} attempt(s): {last_err}{id_note}"
    ))
}

/// The `/v1/score` request body: one JSONL line per query.
pub fn score_body(queries: &[Query]) -> String {
    let mut body = String::new();
    for q in queries {
        let (region, ty) = (q.region, q.ty);
        body.push_str(&format!("{{\"region\":{region},\"type\":{ty},\"period\":"));
        match q.period {
            Some(p) => json::write_escaped(&mut body, p.label()),
            None => body.push_str("null"),
        }
        body.push_str("}\n");
    }
    body
}

/// The `f32` bits of each score in a `/v1/score` response body, in order.
pub fn score_bits(body: &str) -> Result<Vec<u32>, String> {
    body.lines()
        .map(|line| {
            let score = json::parse(line)
                .ok()
                .and_then(|v| v.get("score")?.as_num());
            let bits = score.map(|s| (s as f32).to_bits());
            bits.ok_or_else(|| format!("no score in {line:?}"))
        })
        .collect()
}

/// Read one response, leaving `r` at the start of the next.
fn read_response(r: &mut impl BufRead) -> Result<Response, String> {
    let mut head = Vec::new();
    loop {
        let mut line = String::new();
        if r.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
            return Err(format!("connection closed after {head:?}"));
        }
        match line.trim_end() {
            "" => break,
            l => head.push(l.to_string()),
        }
    }
    let mut words = head.first().map_or("", String::as_str).split(' ');
    let status = match (words.next(), words.next().map(str::parse)) {
        (Some(v), Some(Ok(status))) if v.starts_with("HTTP/") => status,
        _ => return Err(format!("malformed status line in {head:?}")),
    };
    let mut headers = Vec::new();
    for h in &head[1..] {
        let (n, v) = h
            .split_once(':')
            .ok_or_else(|| format!("malformed header {h:?}"))?;
        headers.push((n.trim().to_string(), v.trim().to_string()));
    }
    let (name, value) = headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case("content-length"))
        .ok_or("no Content-Length")?;
    let mut body = vec![0u8; value.parse().map_err(|_| format!("bad {name}: {value}"))?];
    r.read_exact(&mut body).map_err(|e| e.to_string())?;
    let body = String::from_utf8(body).map_err(|_| "body is not UTF-8")?;
    Ok(Response {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use siterec_geo::Period;
    use std::net::TcpListener;

    /// A server on an ephemeral port: each accepted connection answers its
    /// list of canned replies in turn, then closes. Yields each request read.
    fn fake(conns: Vec<Vec<&'static str>>) -> (String, std::thread::JoinHandle<Vec<String>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let mut seen = Vec::new();
            for replies in conns {
                let (stream, _) = listener.accept().unwrap();
                let mut reader = BufReader::new(&stream);
                for reply in replies {
                    let mut req = String::new();
                    while !req.ends_with("\r\n\r\n") && reader.read_line(&mut req).unwrap() > 0 {}
                    let len = req
                        .split("Content-Length: ")
                        .nth(1)
                        .and_then(|l| l.split('\r').next());
                    let mut body = vec![0; len.unwrap().parse().unwrap()];
                    reader.read_exact(&mut body).unwrap();
                    seen.push(req + std::str::from_utf8(&body).unwrap());
                    (&stream).write_all(reply.as_bytes()).unwrap();
                }
            }
            seen
        });
        (addr, server)
    }

    const SHED: &str =
        "HTTP/1.1 503 Busy\r\nContent-Length: 0\r\nRetry-After: 1\r\nX-Request-Id: s-1\r\n\r\n";
    const OK: &str = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";
    const GET: Request = Request {
        method: "GET",
        path: "/healthz",
        body: "",
        request_id: None,
    };
    const SECS: Duration = Duration::from_secs(5);
    const RETRY: Retry = Retry {
        attempts: 3,
        first: Duration::from_millis(1),
        cap: Duration::from_millis(50),
    };

    #[test]
    fn retry_after_is_capped_then_the_retry_succeeds() {
        let (addr, server) = fake(vec![vec![SHED], vec![OK]]);
        let t0 = Instant::now();
        let req = Request {
            request_id: Some("c-7"),
            ..GET
        };
        let resp = send_with_retry(&addr, &req, SECS, RETRY).unwrap();
        let took = t0.elapsed(); // Retry-After asks for 1 s; the 50 ms cap wins.
        assert!(took >= RETRY.cap && took < 10 * RETRY.cap, "{took:?}");
        assert_eq!((resp.status, resp.body.as_str()), (200, "ok"));
        let close = "Connection: close\r\nX-Request-Id: c-7\r\n";
        let want = format!("GET /healthz HTTP/1.1\r\nHost: {addr}\r\n{close}");
        assert!(server.join().unwrap().iter().all(|r| r.starts_with(&want)));
    }

    #[test]
    fn an_exhausted_budget_returns_the_last_answer_or_error() {
        let (addr, server) = fake(vec![vec![SHED]; 3]);
        let resp = send_with_retry(&addr, &GET, SECS, RETRY).unwrap();
        let got = (resp.status, resp.retry_after(), resp.request_id());
        assert_eq!(got, (503, Some(1), Some("s-1")));
        server.join().unwrap();
        // A shed answer, then nothing listens: the error names the last id.
        let (addr, server) = fake(vec![vec![SHED]]);
        let waiter = std::thread::spawn(move || server.join().unwrap());
        let err = send_with_retry(&addr, &GET, SECS, RETRY).unwrap_err();
        assert!(err.contains("after 3 attempt(s)"), "{err}");
        assert!(err.ends_with("(last request id s-1)"), "{err}");
        assert_eq!(waiter.join().unwrap().len(), 1);
    }

    #[test]
    fn a_malformed_status_line_is_an_error() {
        // Two framed answers without a status, no answer at all, and a good
        // answer that stray bytes follow before the close.
        for reply in [
            "garbage\r\nContent-Length: 0\r\n\r\n",
            "HTTP/1.1 OK\r\nContent-Length: 0\r\n\r\n",
            "",
            "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nokEXTRA",
        ] {
            let (addr, server) = fake(vec![vec![reply]]);
            let got = send(&addr, &GET, SECS);
            assert!(got.is_err(), "{reply:?} read as {got:?}");
            server.join().unwrap();
        }
    }

    #[test]
    fn two_framed_responses_on_one_kept_alive_connection() {
        let two = "HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\ntwo";
        let (addr, server) = fake(vec![vec![OK, two]]);
        let mut conn = Conn::open(&addr, SECS).unwrap();
        let one = conn
            .send(&Request::new("POST", "/v1/score", "{}\n"))
            .unwrap();
        assert_eq!(
            (one.body, conn.send(&GET).unwrap().body),
            ("ok".into(), "two".into())
        );
        let seen = server.join().unwrap();
        assert!(seen[0].starts_with("POST /v1/score ") && seen[0].ends_with("\r\n\r\n{}\n"));
        assert!(seen[1].starts_with("GET /healthz ") && !seen.concat().contains("Connection:"));
    }

    #[test]
    fn a_closed_port_fails_within_the_timeout() {
        let addr = TcpListener::bind("127.0.0.1:0").unwrap().local_addr();
        let t0 = Instant::now();
        assert!(send(&addr.unwrap().to_string(), &GET, RETRY.cap).is_err());
        assert!(t0.elapsed() < RETRY.cap, "{:?}", t0.elapsed());
    }

    #[test]
    fn score_body_and_bits_match_the_server_format() {
        let (region, ty, period) = (3, 1, Some(Period::from_index(0)));
        let q = Query { region, ty, period };
        let label = Period::from_index(0).label();
        let line = |p: &str| format!("{{\"region\":3,\"type\":1,\"period\":{p}}}\n");
        let want = line(&format!("\"{label}\"")) + &line("null");
        assert_eq!(score_body(&[q, Query { period: None, ..q }]), want);
        let answer = "{\"region\":3,\"score\":0.25}\n{\"region\":3,\"score\":-1.5}\n";
        let want = vec![0.25f32.to_bits(), (-1.5f32).to_bits()];
        assert_eq!(score_bits(answer), Ok(want));
        assert!(score_bits("{\"error\":\"x\"}").is_err());
    }
}
