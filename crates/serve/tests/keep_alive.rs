//! Request-path latency over real sockets: kept-alive connections must not
//! stall between requests (one write per response with `TCP_NODELAY`, so
//! Nagle never waits for the client's delayed ACK), per-request connections
//! must all be picked up by the readiness-waiting accept workers, and an
//! idle server must stop within its documented poll bound.
//!
//! Every served score is compared bit for bit with offline
//! [`EmbeddingStore::score_batch`] over the same store.

use siterec_geo::Period;
use siterec_obs as obs;
use siterec_serve::{start, EmbeddingStore, Query, Recipe, ServeConfig, ServerHandle};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const REQUESTS: usize = 200;

fn store() -> EmbeddingStore {
    let recipe: Recipe = "tiny:7".parse().unwrap();
    EmbeddingStore::new(recipe.build_model(1).export_serving())
}

fn serve(store: EmbeddingStore, workers: usize, max_requests: Option<u64>) -> ServerHandle {
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        max_requests,
        score_timeout: Duration::from_secs(10),
        read_timeout: Duration::from_millis(200),
        ..ServeConfig::from_env()
    };
    start(store, cfg, None).expect("bind")
}

fn query(i: usize, store: &EmbeddingStore) -> Query {
    Query {
        region: (i * 7) % store.n_regions(),
        ty: i % store.n_types(),
        period: match i % 6 {
            5 => None,
            p => Some(Period::from_index(p)),
        },
    }
}

fn score_body(q: &Query) -> String {
    let period = match q.period {
        Some(p) => format!("\"{}\"", p.label()),
        None => "null".to_string(),
    };
    format!(
        "{{\"region\":{},\"type\":{},\"period\":{period}}}\n",
        q.region, q.ty
    )
}

/// The request in one buffer, sent with one write: the client side must
/// not introduce a Nagle stall of its own into the measurement.
fn send(out: &mut TcpStream, path: &str, body: &str, close: bool) {
    let conn = if close { "Connection: close\r\n" } else { "" };
    let raw = format!(
        "POST {path} HTTP/1.1\r\nHost: keepalive\r\n{conn}Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    out.write_all(raw.as_bytes()).expect("send request");
}

/// Read exactly one Content-Length-framed response: `(status, body)`.
fn receive(reader: &mut BufReader<TcpStream>) -> (u16, String) {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let mut len = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        assert!(!line.is_empty(), "connection closed mid-response");
        if line == "\r\n" {
            break;
        }
        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            len = v.trim().parse().expect("content-length");
        }
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body).expect("body");
    (status, String::from_utf8(body).expect("utf8 body"))
}

fn score_bits(body: &str) -> u32 {
    let v = obs::json::parse(body.lines().next().expect("one line")).expect("response JSON");
    (v.get("score").and_then(|s| s.as_num()).expect("score") as f32).to_bits()
}

fn connect(addr: &str) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    (BufReader::new(stream.try_clone().unwrap()), stream)
}

#[test]
fn keep_alive_requests_do_not_stall() {
    let store = store();
    let queries: Vec<Query> = (0..REQUESTS).map(|i| query(i, &store)).collect();
    let offline: Vec<u32> = store
        .score_batch(&queries)
        .iter()
        .map(|s| s.to_bits())
        .collect();
    let handle = serve(store, 2, None);
    let (mut reader, mut out) = connect(&handle.addr().to_string());
    let mut ms = Vec::with_capacity(REQUESTS);
    for (q, want) in queries.iter().zip(&offline) {
        let t = Instant::now();
        send(&mut out, "/v1/score", &score_body(q), false);
        let (status, body) = receive(&mut reader);
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        assert_eq!(status, 200, "{body}");
        assert_eq!(score_bits(&body), *want, "served bits differ for {q:?}");
    }
    ms.sort_by(f64::total_cmp);
    let median = ms[REQUESTS / 2];
    // A Nagle + delayed-ACK stall costs >= 40 ms per request; the request
    // itself costs well under a millisecond.
    assert!(
        median < 20.0,
        "median keep-alive request took {median:.2} ms"
    );
    handle.shutdown();
    handle.join();
}

#[test]
fn every_fresh_connection_is_answered() {
    let store = store();
    let queries: Vec<Query> = (0..REQUESTS).map(|i| query(i, &store)).collect();
    let offline = store.score_batch(&queries);
    let handle = serve(store, 2, None);
    let addr = handle.addr().to_string();
    for (q, want) in queries.iter().zip(&offline) {
        let (mut reader, mut out) = connect(&addr);
        send(&mut out, "/v1/score", &score_body(q), true);
        let (status, body) = receive(&mut reader);
        assert_eq!(status, 200, "{body}");
        assert_eq!(
            score_bits(&body),
            want.to_bits(),
            "served bits differ for {q:?}"
        );
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).expect("server closes");
        assert!(rest.is_empty(), "bytes after a close response");
    }
    handle.shutdown();
    handle.join();
}

#[test]
fn idle_server_stops_promptly() {
    let handle = serve(store(), 4, None);
    // Let every worker settle into its idle accept wait.
    std::thread::sleep(Duration::from_millis(100));
    let t = Instant::now();
    handle.shutdown();
    handle.join();
    let took = t.elapsed();
    assert!(took < Duration::from_secs(1), "idle shutdown took {took:?}");
}

#[test]
fn query_string_counts_against_max_requests() {
    let store = store();
    let body = score_body(&query(3, &store));
    let handle = serve(store, 2, Some(2));
    let (mut reader, mut out) = connect(&handle.addr().to_string());
    send(&mut out, "/v1/score?x=1", &body, false);
    assert_eq!(receive(&mut reader).0, 200);
    assert!(
        !handle.is_stopping(),
        "one scoring request of a budget of two"
    );
    send(&mut out, "/v1/score", &body, false);
    assert_eq!(receive(&mut reader).0, 200);
    // The budget is checked after the response is written; give the worker
    // a moment to get there.
    let deadline = Instant::now() + Duration::from_secs(5);
    while !handle.is_stopping() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        handle.is_stopping(),
        "the query-string request must count against --max-requests"
    );
    handle.join();
}
