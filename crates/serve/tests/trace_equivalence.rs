//! The tracing determinism contract, end to end: request tracing (ids,
//! sampling, phase decomposition, `serve_trace` journaling) must never move
//! a score bit, and `X-Request-Id` must round-trip client → queue → scorer →
//! response header → journal.
//!
//! One `#[test]` fn: the obs recorder and the trace sampler are
//! process-global, and a single sequential test keeps them race-free.

use siterec_geo::Period;
use siterec_obs as obs;
use siterec_serve::client::{self, Request, Response};
use siterec_serve::server::{start, ServeConfig};
use siterec_serve::{EmbeddingStore, Query, Recipe};
use siterec_tensor::checkpoint::CheckpointPolicy;
use std::path::PathBuf;
use std::time::Duration;

const EPOCHS: usize = 3;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("siterec_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn restored_model(dir: &PathBuf) -> siterec_core::O2SiteRec {
    let recipe: Recipe = "tiny:7".parse().unwrap();
    let mut trainer = recipe.build_model(EPOCHS);
    trainer
        .try_train_resumable(&CheckpointPolicy::new(dir))
        .unwrap();
    let mut model = recipe.build_model(1);
    model
        .restore_latest(dir)
        .unwrap()
        .expect("checkpoint written");
    model
}

fn sweep(n_regions: usize) -> Vec<Query> {
    (0..n_regions)
        .map(|region| Query {
            region,
            ty: region % 3,
            period: match region % 6 {
                5 => None,
                i => Some(Period::from_index(i)),
            },
        })
        .collect()
}

fn offline_bits(model: &siterec_core::O2SiteRec, queries: &[Query]) -> Vec<u32> {
    queries
        .iter()
        .map(|q| model.predict_for(&[(q.region, q.ty)], q.period)[0].to_bits())
        .collect()
}

fn http(addr: &str, req: &Request) -> Response {
    client::send(addr, req, Duration::from_secs(30)).unwrap()
}

fn serve_bits(addr: &str, queries: &[Query]) -> Vec<u32> {
    let body = client::score_body(queries);
    let r = http(addr, &Request::new("POST", "/v1/score", &body));
    assert_eq!(r.status, 200, "score failed: {r:?}");
    client::score_bits(&r.body).unwrap()
}

fn test_config(workers: usize) -> ServeConfig {
    let mut cfg = ServeConfig::from_env();
    cfg.addr = "127.0.0.1:0".to_string();
    cfg.workers = workers;
    cfg.max_batch = 7; // force multi-batch scoring of the sweep
    cfg
}

#[test]
fn tracing_preserves_bits_and_roundtrips_request_ids() {
    let dir = scratch("trace_equiv");
    let model = restored_model(&dir);
    let reference = EmbeddingStore::new(model.export_serving());
    let queries = sweep(reference.n_regions());
    let offline = offline_bits(&model, &queries);

    // Tracing OFF: recorder disabled, so ids are still assigned but nothing
    // is sampled or journaled.
    obs::reset();
    obs::set_enabled(false);
    for workers in [1usize, 8] {
        let store = EmbeddingStore::new(model.export_serving());
        let handle = start(store, test_config(workers), None).unwrap();
        let addr = handle.addr().to_string();
        assert_eq!(
            serve_bits(&addr, &queries),
            offline,
            "tracing-off scores diverged at {workers} workers"
        );
        handle.shutdown();
        handle.join();
    }

    // Tracing ON at full sampling: every request journals a serve_trace
    // record and feeds the phase histograms — and the bits must not move.
    obs::reset();
    obs::set_enabled(true);
    obs::trace::set_sample_every(1);
    for workers in [1usize, 8] {
        let store = EmbeddingStore::new(model.export_serving());
        let handle = start(store, test_config(workers), None).unwrap();
        let addr = handle.addr().to_string();
        assert_eq!(
            serve_bits(&addr, &queries),
            offline,
            "tracing-on scores diverged at {workers} workers"
        );
        handle.shutdown();
        handle.join();
    }

    // X-Request-Id round-trip: a client-supplied id is echoed in the
    // response header and lands in the journal's serve_trace record after
    // travelling worker → queue → scorer → worker.
    let store = EmbeddingStore::new(model.export_serving());
    let handle = start(store, test_config(2), None).unwrap();
    let addr = handle.addr().to_string();

    let body = client::score_body(&[Query {
        region: 0,
        ty: 2,
        period: None,
    }]);
    let req = Request {
        request_id: Some("client-supplied-42"),
        ..Request::new("POST", "/v1/score", &body)
    };
    let r = http(&addr, &req);
    assert_eq!(r.status, 200, "traced score failed: {r:?}");
    assert_eq!(
        r.request_id(),
        Some("client-supplied-42"),
        "client id not echoed: {r:?}"
    );

    // Without a client id the server mints one (sr- + 16 hex).
    let r = http(&addr, &Request::new("GET", "/healthz", ""));
    assert_eq!(r.status, 200);
    let minted = r.request_id().expect("server-minted id");
    assert!(
        minted.starts_with("sr-") && minted.len() == 19,
        "bad minted id {minted:?}"
    );

    handle.shutdown();
    handle.join();

    let text = obs::journal_to_string();
    let stats = obs::validate_journal(&text).expect("journal validates");
    assert!(
        stats.count("serve_trace") >= 1,
        "no serve_trace records journaled"
    );
    let trace_line = text
        .lines()
        .find(|l| l.contains("\"type\":\"serve_trace\"") && l.contains("client-supplied-42"))
        .expect("client-supplied id must reach the journal");
    let v = obs::json::parse(trace_line).unwrap();
    assert_eq!(
        v.get("endpoint").and_then(|e| e.as_str()),
        Some("/v1/score")
    );
    // The cold scoring request went through the queue and the scorer, so
    // its queue/score phases are non-zero; total covers the whole dispatch.
    let phase = |k: &str| v.get(k).and_then(|n| n.as_num()).unwrap();
    assert!(phase("score_ns") > 0.0, "score phase missing: {trace_line}");
    assert!(phase("queue_ns") > 0.0, "queue phase missing: {trace_line}");
    assert!(
        phase("total_ns") >= phase("score_ns"),
        "total below score: {trace_line}"
    );

    obs::reset();
    obs::set_enabled(false);
    let _ = std::fs::remove_dir_all(&dir);
}
