//! End-to-end bit-equality: checkpoint → embedding export → server scoring
//! must reproduce offline `O2SiteRec::predict_for` exactly — through the
//! in-memory store, the `SREMB1` image round-trip, and the live HTTP server
//! at 1 and 8 workers, batched or single, cold or cached.

use siterec_geo::Period;
use siterec_serve::client::{self, Request};
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

/// Train `tiny:7` with checkpoints, then rebuild a fresh model that adopts
/// the newest checkpoint — the exact path `siterec-serve run` takes.
fn restored_model(dir: &PathBuf) -> siterec_core::O2SiteRec {
    let recipe: Recipe = "tiny:7".parse().unwrap();
    let mut trainer = recipe.build_model(EPOCHS);
    trainer
        .try_train_resumable(&CheckpointPolicy::new(dir))
        .unwrap();
    let mut model = recipe.build_model(1);
    let epochs = model
        .restore_latest(dir)
        .unwrap()
        .expect("checkpoint written");
    assert_eq!(epochs, EPOCHS);
    model
}

/// A deterministic sweep covering every period selector and several types.
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

/// One `Connection: close` exchange; returns `(status, body)`.
fn http(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    let req = Request::new(method, path, body);
    let r = client::send(addr, &req, Duration::from_secs(30)).unwrap();
    (r.status, r.body)
}

fn serve_bits(addr: &str, queries: &[Query], batched: bool) -> Vec<u32> {
    if batched {
        let (status, body) = http(addr, "POST", "/v1/score", &client::score_body(queries));
        assert_eq!(status, 200, "batched score failed: {body}");
        client::score_bits(&body).unwrap()
    } else {
        queries
            .iter()
            .map(|q| {
                let (status, body) = http(addr, "POST", "/v1/score", &client::score_body(&[*q]));
                assert_eq!(status, 200, "single score failed: {body}");
                let bits = client::score_bits(&body).unwrap();
                assert_eq!(bits.len(), 1, "one score per request: {body}");
                bits[0]
            })
            .collect()
    }
}

fn test_config(workers: usize) -> ServeConfig {
    let mut cfg = ServeConfig::from_env();
    cfg.addr = "127.0.0.1:0".to_string();
    cfg.workers = workers;
    cfg.max_batch = 7; // force multi-batch scoring of the sweep
    cfg
}

#[test]
fn server_matches_offline_inference_bit_for_bit() {
    let dir = scratch("serve_equiv");
    let model = restored_model(&dir);

    // Offline reference straight from the restored model.
    let store = EmbeddingStore::new(model.export_serving());
    let queries = sweep(store.n_regions());
    let offline = offline_bits(&model, &queries);

    // 1. In-memory store.
    let store_scores: Vec<u32> = store
        .score_batch(&queries)
        .iter()
        .map(|s| s.to_bits())
        .collect();
    assert_eq!(
        store_scores, offline,
        "EmbeddingStore diverged from offline"
    );

    // 2. SREMB1 image round-trip.
    let image = dir.join("emb.sremb");
    store.write_image(&image).unwrap();
    let restored = EmbeddingStore::read_image(&image).unwrap();
    let image_scores: Vec<u32> = restored
        .score_batch(&queries)
        .iter()
        .map(|s| s.to_bits())
        .collect();
    assert_eq!(image_scores, offline, "image round-trip changed scores");

    // 3. Live server at 1 and 8 workers, batched and single, cold and cached.
    for workers in [1usize, 8] {
        let store = EmbeddingStore::new(model.export_serving());
        let handle = start(store, test_config(workers), None).unwrap();
        let addr = handle.addr().to_string();

        let cold_batched = serve_bits(&addr, &queries, true);
        assert_eq!(
            cold_batched, offline,
            "batched scores diverged at {workers} workers"
        );
        let cached_batched = serve_bits(&addr, &queries, true);
        assert_eq!(
            cached_batched, offline,
            "cached scores diverged at {workers} workers"
        );
        let singles = serve_bits(&addr, &queries, false);
        assert_eq!(
            singles, offline,
            "single scores diverged at {workers} workers"
        );

        handle.shutdown();
        handle.join();
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recommend_ranks_by_score() {
    let dir = scratch("serve_topk");
    let model = restored_model(&dir);
    let store = EmbeddingStore::new(model.export_serving());

    let top = store.top_k(1, Some(Period::Morning), 5);
    assert!(!top.is_empty());
    for pair in top.windows(2) {
        assert!(pair[0].1 >= pair[1].1, "top_k not descending: {top:?}");
    }
    // Every ranked score must equal the direct score for that query.
    for &(region, score) in &top {
        let direct = store.score(Query {
            region,
            ty: 1,
            period: Some(Period::Morning),
        });
        assert_eq!(score.to_bits(), direct.to_bits());
    }

    // The HTTP surface returns the same ranking.
    let handle = start(store, test_config(2), None).unwrap();
    let addr = handle.addr().to_string();
    let (status, body) = http(
        &addr,
        "POST",
        "/v1/recommend",
        "{\"type\":1,\"k\":5,\"period\":\"morning\"}\n",
    );
    assert_eq!(status, 200, "recommend failed: {body}");
    let ranked: Vec<(usize, u32)> = body
        .lines()
        .map(|line| {
            let v = siterec_obs::json::parse(line).unwrap();
            let region = v.get("region").and_then(|r| r.as_num()).unwrap() as usize;
            let score = v.get("score").and_then(|s| s.as_num()).unwrap();
            (region, (score as f32).to_bits())
        })
        .collect();
    let expected: Vec<(usize, u32)> = top.iter().map(|&(r, s)| (r, s.to_bits())).collect();
    assert_eq!(ranked, expected, "HTTP ranking diverged from store.top_k");
    handle.shutdown();
    handle.join();

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shed_returns_503_with_retry_after() {
    let dir = scratch("serve_shed");
    let model = restored_model(&dir);
    let store = EmbeddingStore::new(model.export_serving());
    let n = store.n_regions();

    // A queue of 1 with a large burst in one body must shed (the burst alone
    // exceeds the queue capacity; the scorer can't drain mid-push because a
    // single request's jobs are pushed under one loop).
    let mut cfg = test_config(1);
    cfg.queue_cap = 1;
    cfg.max_batch = 1;
    cfg.cache_cap = 1; // keep the cache from absorbing repeat bursts
    let handle = start(store, cfg, None).unwrap();
    let addr = handle.addr().to_string();

    // Distinct queries so the cache can't absorb the burst.
    let burst: Vec<Query> = (0..n)
        .map(|region| Query {
            region,
            ty: 0,
            period: None,
        })
        .collect();
    let body = client::score_body(&burst);
    let mut saw_shed = false;
    for _ in 0..8 {
        let (status, body_out) = http(&addr, "POST", "/v1/score", &body);
        if status == 503 {
            assert!(body_out.contains("retry"), "503 body unhelpful: {body_out}");
            saw_shed = true;
            break;
        }
        assert_eq!(status, 200);
    }
    assert!(saw_shed, "queue_cap=1 never shed a {n}-query burst");
    handle.shutdown();
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}
