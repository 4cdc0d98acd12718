//! Request-path latency over real sockets: kept-alive connections must not
//! stall between requests (one write per response with `TCP_NODELAY`, so
//! Nagle never waits for the client's delayed ACK), per-request connections
//! must all be picked up by the readiness-waiting accept workers, and an
//! idle server must stop within its documented poll bound.
//!
//! Every served score is compared bit for bit with offline
//! [`EmbeddingStore::score_batch`] over the same store.

use siterec_geo::Period;
use siterec_serve::client::{self, Conn, Request, Response};
use siterec_serve::{start, EmbeddingStore, Query, Recipe, ServeConfig, ServerHandle};
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

const TIMEOUT: Duration = Duration::from_secs(30);

fn score_bits(r: &Response) -> Vec<u32> {
    client::score_bits(&r.body).expect("score response")
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
    let mut conn = Conn::open(&handle.addr().to_string(), TIMEOUT).expect("connect");
    let mut ms = Vec::with_capacity(REQUESTS);
    for (q, want) in queries.iter().zip(&offline) {
        let t = Instant::now();
        let body = client::score_body(&[*q]);
        let r = conn
            .send(&Request::new("POST", "/v1/score", &body))
            .expect("exchange");
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        assert_eq!(r.status, 200, "{r:?}");
        assert_eq!(score_bits(&r), [*want], "served bits differ for {q:?}");
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
        // A one-shot exchange asks to close, and fails unless the server
        // then closes with no bytes after the response.
        let body = client::score_body(&[*q]);
        let req = Request::new("POST", "/v1/score", &body);
        let r = client::send(&addr, &req, TIMEOUT).expect("one answer, then close");
        assert_eq!(r.status, 200, "{r:?}");
        assert_eq!(
            score_bits(&r),
            [want.to_bits()],
            "served bits differ for {q:?}"
        );
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
    let body = client::score_body(&[query(3, &store)]);
    let handle = serve(store, 2, Some(2));
    let mut conn = Conn::open(&handle.addr().to_string(), TIMEOUT).expect("connect");
    let mut send = |path| {
        conn.send(&Request::new("POST", path, &body))
            .expect("exchange")
    };
    assert_eq!(send("/v1/score?x=1").status, 200);
    assert!(
        !handle.is_stopping(),
        "one scoring request of a budget of two"
    );
    assert_eq!(send("/v1/score").status, 200);
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
