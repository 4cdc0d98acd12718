//! In-process degraded-mode and scorer-timeout coverage: a failed
//! `/admin/reload` keeps the old store serving and flips `/healthz` to
//! `degraded` until the next successful reload recovers it, and a scorer
//! that drops a batch (the `serve.score` failpoint) surfaces as a fast,
//! retryable 504 — never a hung connection.
//!
//! Everything runs in one `#[test]` because the failpoint registry and the
//! obs recorder are process-global; this integration-test binary owns its
//! process, and a single test fn keeps the sequence race-free.

use siterec_obs as obs;
use siterec_serve::client::{self, Request, Response};
use siterec_serve::{start, EmbeddingStore, Query, Recipe, Reloader, ServeConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn http(addr: &str, method: &str, path: &str, body: &str) -> Response {
    let req = Request::new(method, path, body);
    client::send(addr, &req, Duration::from_secs(30)).expect("exchange")
}

fn score(addr: &str, region: usize, ty: usize) -> Response {
    let period = None;
    let body = client::score_body(&[Query { region, ty, period }]);
    http(addr, "POST", "/v1/score", &body)
}

fn score_bits(r: &Response) -> Vec<u32> {
    client::score_bits(&r.body).expect("score response")
}

#[test]
fn degraded_reload_and_scorer_timeout() {
    obs::reset();
    obs::set_enabled(true);
    obs::failpoint::disarm();

    // Satellite knob defaults: the magic numbers became config fields.
    let defaults = ServeConfig::from_env();
    assert_eq!(defaults.score_timeout, Duration::from_millis(30_000));
    assert_eq!(defaults.read_timeout, Duration::from_millis(500));
    std::env::set_var("SITEREC_SERVE_SCORE_TIMEOUT_MS", "1234");
    std::env::set_var("SITEREC_SERVE_READ_TIMEOUT_MS", "77");
    let tuned = ServeConfig::from_env();
    assert_eq!(tuned.score_timeout, Duration::from_millis(1234));
    assert_eq!(tuned.read_timeout, Duration::from_millis(77));
    std::env::remove_var("SITEREC_SERVE_SCORE_TIMEOUT_MS");
    std::env::remove_var("SITEREC_SERVE_READ_TIMEOUT_MS");

    // An untrained model exports a perfectly serviceable store — no
    // training needed to exercise the serving state machine.
    let recipe: Recipe = "tiny:3".parse().unwrap();
    let model = recipe.build_model(1);
    let offline = model.predict_for(&[(0, 0), (1, 1)], None);
    let store = EmbeddingStore::new(model.export_serving());

    // Reload source: fails on the first call, then rebuilds the same store.
    let reload_calls = Arc::new(AtomicUsize::new(0));
    let reloader: Reloader = {
        let calls = reload_calls.clone();
        Box::new(move || {
            if calls.fetch_add(1, Ordering::SeqCst) == 0 {
                Err("synthetic reload failure".to_string())
            } else {
                let m = recipe.build_model(1);
                Ok(EmbeddingStore::new(m.export_serving()))
            }
        })
    };

    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_cap: 64,
        max_batch: 8,
        cache_cap: 16,
        max_requests: None,
        score_timeout: Duration::from_secs(5),
        read_timeout: Duration::from_millis(100),
        ..ServeConfig::from_env()
    };
    let handle = start(store, cfg, Some(reloader)).expect("bind");
    let addr = handle.addr().to_string();

    // Healthy baseline.
    let r = http(&addr, "GET", "/healthz", "");
    let health = r.body;
    assert_eq!(r.status, 200);
    assert!(
        health.contains("\"status\":\"ok\""),
        "not healthy: {health}"
    );
    assert!(
        !health.contains("degraded_reason"),
        "healthy healthz leaks a reason"
    );
    let r = score(&addr, 0, 0);
    assert_eq!(r.status, 200);
    assert_eq!(score_bits(&r), [offline[0].to_bits()]);

    // Scorer drop → fast 504 with Retry-After, then the retry succeeds and
    // reproduces the offline bits (the dropped query was never cached).
    obs::failpoint::arm("serve.score=err@1").unwrap();
    let r = score(&addr, 1, 1);
    assert_eq!(r.status, 504, "dropped batch must answer 504: {r:?}");
    assert!(
        r.retry_after().is_some(),
        "504 must carry Retry-After: {r:?}"
    );
    let r = score(&addr, 1, 1);
    assert_eq!(r.status, 200, "retry after 504 must succeed: {r:?}");
    assert_eq!(score_bits(&r), [offline[1].to_bits()]);
    obs::failpoint::disarm();

    // Failed reload → 500, degraded /healthz + /metrics, old store serving.
    let r = http(&addr, "POST", "/admin/reload", "");
    assert_eq!(r.status, 500, "first reload must fail: {r:?}");
    let health = http(&addr, "GET", "/healthz", "").body;
    assert!(
        health.contains("\"status\":\"degraded\""),
        "failed reload did not degrade: {health}"
    );
    assert!(
        health.contains("synthetic reload failure"),
        "degraded_reason must name the cause: {health}"
    );
    let metrics = http(&addr, "GET", "/metrics?format=json", "").body;
    assert!(
        metrics.contains("\"degraded\":1"),
        "metrics miss degraded flag: {metrics}"
    );
    let r = http(&addr, "GET", "/metrics", "");
    assert!(
        r.header("content-type")
            .is_some_and(|t| t.starts_with("text/plain")),
        "prometheus /metrics must be text/plain: {r:?}"
    );
    assert!(
        r.body.contains("siterec_serve_degraded 1"),
        "prometheus metrics miss degraded gauge: {r:?}"
    );
    let r = score(&addr, 0, 0);
    assert_eq!(r.status, 200, "degraded server must keep serving: {r:?}");
    assert_eq!(score_bits(&r), [offline[0].to_bits()]);

    // Successful reload → recovered.
    let r = http(&addr, "POST", "/admin/reload", "");
    assert_eq!(r.status, 200, "second reload must succeed: {r:?}");
    let health = http(&addr, "GET", "/healthz", "").body;
    assert!(
        health.contains("\"status\":\"ok\""),
        "reload did not recover: {health}"
    );
    let metrics = http(&addr, "GET", "/metrics?format=json", "").body;
    assert!(
        metrics.contains("\"degraded\":0"),
        "metrics still degraded: {metrics}"
    );
    let r = score(&addr, 1, 1);
    assert_eq!(r.status, 200);
    assert_eq!(
        score_bits(&r),
        [offline[1].to_bits()],
        "post-recovery bits diverged"
    );

    handle.shutdown();
    handle.join();

    // The journal tells the whole story, schema-valid: the fired failpoint,
    // the degraded episode, the recovery reload, and the 504 request.
    let text = obs::journal_to_string();
    let stats = obs::validate_journal(&text).expect("journal validates");
    assert_eq!(
        stats.count("failpoint"),
        1,
        "one serve.score firing journaled"
    );
    assert_eq!(
        stats.count("serve_degraded"),
        1,
        "degraded episode journaled"
    );
    assert_eq!(stats.count("serve_reload"), 1, "recovery reload journaled");
    assert!(
        text.lines()
            .any(|l| l.contains("\"type\":\"serve_request\"") && l.contains("\"status\":504")),
        "504 request missing from journal"
    );
    assert_eq!(reload_calls.load(Ordering::SeqCst), 2);

    obs::reset();
    obs::set_enabled(false);
}
