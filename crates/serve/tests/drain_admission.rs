//! In-process drain and admission-control coverage: the connection cap
//! answers an immediate 429, the per-connection token bucket throttles
//! scoring (and only scoring) endpoints, and `/admin/drain` flips the
//! server into a graceful quiesce that refuses new scoring work with 503 +
//! Retry-After, finishes everything accepted, journals a `serve_drain`
//! record with zero abandoned jobs, and exits cleanly.
//!
//! Everything runs in one `#[test]` because the obs recorder is
//! process-global; a single test fn keeps the journal assertions race-free.

use siterec_obs as obs;
use siterec_serve::client::{self, Conn, Request, Response};
use siterec_serve::{start, EmbeddingStore, Query, Recipe, ServeConfig};
use std::io::Read;
use std::net::TcpStream;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(30);

fn http(addr: &str, method: &str, path: &str, body: &str) -> Response {
    let req = Request::new(method, path, body);
    client::send(addr, &req, TIMEOUT).expect("exchange")
}

/// One exchange over an already-open keep-alive connection.
fn exchange(conn: &mut Conn, method: &str, path: &str, body: &str) -> Response {
    let req = Request::new(method, path, body);
    conn.send(&req).expect("keep-alive exchange")
}

fn score_body(region: usize, ty: usize) -> String {
    let period = None;
    client::score_body(&[Query { region, ty, period }])
}

fn score_bits(r: &Response) -> Vec<u32> {
    client::score_bits(&r.body).expect("score response")
}

#[test]
fn drain_and_admission_control() {
    obs::reset();
    obs::set_enabled(true);
    obs::failpoint::disarm();

    // The new knobs ride the same env plumbing as the existing ones.
    let defaults = ServeConfig::from_env();
    assert_eq!(defaults.drain_timeout, Duration::from_millis(5_000));
    assert_eq!(defaults.max_conns, 256);
    assert_eq!(defaults.rate, 0.0, "rate limiting is off by default");
    std::env::set_var("SITEREC_SERVE_DRAIN_TIMEOUT_MS", "750");
    std::env::set_var("SITEREC_SERVE_MAX_CONNS", "7");
    std::env::set_var("SITEREC_SERVE_RATE", "2.5");
    std::env::set_var("SITEREC_SERVE_BURST", "4");
    let tuned = ServeConfig::from_env();
    assert_eq!(tuned.drain_timeout, Duration::from_millis(750));
    assert_eq!(tuned.max_conns, 7);
    assert_eq!(tuned.rate, 2.5);
    assert_eq!(tuned.burst, 4.0);
    std::env::remove_var("SITEREC_SERVE_DRAIN_TIMEOUT_MS");
    std::env::remove_var("SITEREC_SERVE_MAX_CONNS");
    std::env::remove_var("SITEREC_SERVE_RATE");
    std::env::remove_var("SITEREC_SERVE_BURST");

    let recipe: Recipe = "tiny:3".parse().unwrap();
    let model = recipe.build_model(1);
    let offline = model.predict_for(&[(0, 0), (1, 1)], None);

    // ---- Admission: the connection cap answers an immediate 429. ----
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        queue_cap: 64,
        max_batch: 8,
        cache_cap: 16,
        max_requests: None,
        score_timeout: Duration::from_secs(5),
        read_timeout: Duration::from_millis(100),
        max_conns: 2,
        ..ServeConfig::from_env()
    };
    let handle = start(EmbeddingStore::new(model.export_serving()), cfg, None).expect("bind");
    let addr = handle.addr().to_string();
    // Two idle connections occupy the whole cap ...
    let held1 = TcpStream::connect(&addr).expect("held conn 1");
    let held2 = TcpStream::connect(&addr).expect("held conn 2");
    std::thread::sleep(Duration::from_millis(150));
    // ... so the third is turned away before a byte is read from it.
    let mut third = TcpStream::connect(&addr).expect("third conn");
    third
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // It is answered before it sends anything, so the answer is read raw.
    let mut raw = String::new();
    third.read_to_string(&mut raw).expect("read 429");
    let head = raw.split("\r\n\r\n").next().unwrap().to_ascii_lowercase();
    assert!(
        head.starts_with("http/1.1 429 "),
        "over-cap connection must get 429: {raw}"
    );
    assert!(
        head.contains("\r\nretry-after: "),
        "429 must carry Retry-After: {raw}"
    );
    drop(held1);
    drop(held2);
    std::thread::sleep(Duration::from_millis(250));
    let r = http(&addr, "GET", "/metrics?format=json", "");
    let metrics = r.body;
    assert_eq!(r.status, 200);
    assert!(
        metrics.contains("\"conns_rejected\":1"),
        "metrics miss the rejected connection: {metrics}"
    );
    assert!(
        metrics.contains("\"inflight_connections\":") && metrics.contains("\"queue_depth\":"),
        "metrics miss the new gauges: {metrics}"
    );
    let prom = http(&addr, "GET", "/metrics", "").body;
    assert!(
        prom.contains("siterec_serve_conns_rejected_total 1")
            && prom.contains("siterec_serve_inflight_connections")
            && prom.contains("siterec_serve_queue_depth")
            && prom.contains("siterec_serve_draining 0"),
        "prometheus body misses admission/drain series: {prom}"
    );
    handle.shutdown();
    handle.join();

    // ---- Admission: the per-connection token bucket throttles scoring. --
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_cap: 64,
        max_batch: 8,
        cache_cap: 16,
        max_requests: None,
        score_timeout: Duration::from_secs(5),
        read_timeout: Duration::from_millis(100),
        rate: 0.001, // ~one token per 17 minutes: the burst is all you get
        burst: 1.0,
        ..ServeConfig::from_env()
    };
    let handle = start(EmbeddingStore::new(model.export_serving()), cfg, None).expect("bind");
    let addr = handle.addr().to_string();
    let mut conn = Conn::open(&addr, TIMEOUT).expect("keep-alive conn");
    let r = exchange(&mut conn, "POST", "/v1/score", &score_body(0, 0));
    assert_eq!(
        r.status, 200,
        "burst token must admit the first score: {r:?}"
    );
    assert_eq!(score_bits(&r), [offline[0].to_bits()]);
    let r = exchange(&mut conn, "POST", "/v1/score", &score_body(1, 1));
    assert_eq!(r.status, 429, "empty bucket must answer 429");
    assert!(
        r.retry_after().is_some(),
        "429 must carry Retry-After: {r:?}"
    );
    // Health checks are never throttled — operators can always look.
    let r = exchange(&mut conn, "GET", "/healthz", "");
    assert_eq!(r.status, 200, "healthz must bypass the token bucket");
    let r = exchange(&mut conn, "GET", "/metrics?format=json", "");
    assert_eq!(r.status, 200);
    assert!(
        r.body.contains("\"rate_limited\":1"),
        "metrics miss the throttled request: {r:?}"
    );
    drop(conn);
    handle.shutdown();
    handle.join();

    // ---- Drain: graceful quiesce with a deterministic 503 refusal. ----
    // The held connection's worker blocks in read for up to 5 s, so the
    // score sent *after* `/admin/drain` is read and refused rather than the
    // idle poll closing the connection first.
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_cap: 64,
        max_batch: 8,
        cache_cap: 16,
        max_requests: None,
        score_timeout: Duration::from_secs(5),
        read_timeout: Duration::from_secs(5),
        drain_timeout: Duration::from_secs(5),
        ..ServeConfig::from_env()
    };
    let handle = start(EmbeddingStore::new(model.export_serving()), cfg, None).expect("bind");
    let addr = handle.addr().to_string();
    let mut conn = Conn::open(&addr, TIMEOUT).expect("keep-alive conn");
    let r = exchange(&mut conn, "POST", "/v1/score", &score_body(0, 0));
    assert_eq!(r.status, 200);
    assert_eq!(score_bits(&r), [offline[0].to_bits()]);
    let r = http(&addr, "POST", "/admin/drain", "");
    assert_eq!(r.status, 200, "drain endpoint must acknowledge: {r:?}");
    assert!(
        r.body.contains("\"status\":\"draining\""),
        "drain ack names the state: {r:?}"
    );
    let r = exchange(&mut conn, "POST", "/v1/score", &score_body(1, 1));
    assert_eq!(
        r.status, 503,
        "draining server must refuse new scores: {r:?}"
    );
    assert!(
        r.retry_after().is_some(),
        "drain refusal must carry Retry-After: {r:?}"
    );
    assert!(
        r.body.contains("draining"),
        "drain refusal names the cause: {r:?}"
    );
    // The drain finishes on its own: every thread exits without shutdown().
    handle.join();

    // The journal carries exactly one schema-valid `serve_drain` record
    // (the two shutdown() servers above never drained), and it abandoned
    // nothing.
    let text = obs::journal_to_string();
    let stats = obs::validate_journal(&text).expect("journal validates");
    assert_eq!(stats.count("serve_drain"), 1, "one drain journaled");
    let line = text
        .lines()
        .find(|l| l.contains("\"type\":\"serve_drain\""))
        .expect("serve_drain line");
    let v = obs::json::parse(line).expect("serve_drain parses");
    let num = |k: &str| v.get(k).and_then(|n| n.as_num()).expect(k);
    assert_eq!(num("abandoned"), 0.0, "graceful drain abandoned jobs");
    assert!(num("dur_ns") >= 0.0 && num("completed") >= 0.0 && num("refused") >= 0.0);

    obs::reset();
    obs::set_enabled(false);
}
