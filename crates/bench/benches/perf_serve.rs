//! Serving-layer performance: sustained QPS and request-latency percentiles
//! of the `siterec-serve` HTTP loop (not a paper artifact).
//!
//! An in-process server (same `start()` entry point the binary uses) is
//! loaded with a freshly trained `tiny` model and driven closed-loop over
//! loopback by concurrent client threads, one fresh `Connection: close`
//! exchange per request — so every reported latency includes connect, parse,
//! queue, batch-score, and response write. Three phases are reported:
//!
//! * `single_cold` — one query per request against an empty cache: almost
//!   every request pays the full queue + batch-score path.
//! * `single_cached` — the identical sweep replayed against the now-warm
//!   cache: the steady state for repeated (region, type, period) traffic.
//! * `batched` — 32 queries per request body: the JSONL amortization path.
//!
//! Results go to stdout and `BENCH_serve.json` (with host metadata — numbers
//! from the 1-core CI host measure protocol + scoring overhead, not
//! parallel-scaling headroom; see SERVING.md for capacity planning).
//!
//! Run with: `cargo bench -p siterec-bench --bench perf_serve`
//! (`SITEREC_SMOKE=1` shrinks the workloads to CI scale.)

use siterec_bench::context::{is_smoke, write_artifact};
use siterec_geo::Period;
use siterec_obs::Histogram;
use siterec_serve::client::{self, Request};
use siterec_serve::server::{start, ServeConfig};
use siterec_serve::{EmbeddingStore, Query, Recipe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One `Connection: close` scoring exchange; panics on non-200.
fn post(addr: &str, body: &str) -> String {
    let req = Request::new("POST", "/v1/score", body);
    let resp = client::send(addr, &req, Duration::from_secs(30)).expect("bench request");
    assert_eq!(resp.status, 200, "bench request failed: {}", resp.body);
    resp.body
}

/// Deterministic query stream cycling regions, types and period selectors.
fn query_stream(n_regions: usize, n_types: usize, len: usize) -> Vec<Query> {
    (0..len)
        .map(|i| Query {
            region: (i * 13) % n_regions,
            ty: (i * 5) % n_types,
            period: match i % 6 {
                5 => None,
                s => Some(Period::from_index(s)),
            },
        })
        .collect()
}

struct Phase {
    name: &'static str,
    requests: usize,
    queries: usize,
    wall_secs: f64,
    qps: f64,
    query_qps: f64,
    hist: Histogram,
}

/// Drive `bodies` (one request each) closed-loop from `clients` threads.
fn drive(addr: &str, name: &'static str, bodies: &[String], clients: usize, qpr: usize) -> Phase {
    let next = AtomicUsize::new(0);
    let hist = Mutex::new(Histogram::default());
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..clients {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= bodies.len() {
                    break;
                }
                let t = Instant::now();
                let body = post(addr, &bodies[i]);
                let ns = t.elapsed().as_nanos() as f64;
                assert_eq!(body.lines().count(), qpr, "short response");
                hist.lock().unwrap().record(ns);
            });
        }
    });
    let wall_secs = t0.elapsed().as_secs_f64();
    let requests = bodies.len();
    let queries = requests * qpr;
    Phase {
        name,
        requests,
        queries,
        wall_secs,
        qps: requests as f64 / wall_secs,
        query_qps: queries as f64 / wall_secs,
        hist: hist.into_inner().unwrap(),
    }
}

fn main() {
    siterec_bench::obs_run::obs_run("perf_serve", run);
}

fn run() {
    let smoke = is_smoke();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (epochs, requests, clients) = if smoke { (2, 120, 2) } else { (4, 1200, 4) };
    println!("=== serving-layer throughput and latency ===");
    println!("host cores available: {cores}, smoke: {smoke}, clients: {clients}\n");

    // Train in-process (the bench measures serving, not training).
    let recipe: Recipe = "tiny:7".parse().unwrap();
    let mut model = recipe.build_model(epochs);
    model.train();
    let store = EmbeddingStore::new(model.export_serving());
    let (n_regions, n_types) = (store.n_regions(), store.n_types());

    let mut cfg = ServeConfig::from_env();
    cfg.addr = "127.0.0.1:0".to_string();
    let workers = cfg.workers;
    let handle = start(store, cfg, None).expect("bind loopback");
    let addr = handle.addr().to_string();

    let stream = query_stream(n_regions, n_types, requests);
    let singles: Vec<String> = stream.iter().map(|q| client::score_body(&[*q])).collect();
    let batch_size = 32usize;
    let batches: Vec<String> = stream
        .chunks(batch_size)
        .filter(|c| c.len() == batch_size) // full batches only
        .map(client::score_body)
        .collect();

    // Warm-up (connect path, first-touch allocations), then the phases. The
    // cold phase runs first so the cache is empty for it; the cached phase
    // replays the identical sweep the cold phase just filled the cache with.
    let _ = post(&addr, &singles[0]);
    let phases = [
        drive(&addr, "single_cold", &singles, clients, 1),
        drive(&addr, "single_cached", &singles, clients, 1),
        drive(&addr, "batched", &batches, clients, batch_size),
    ];

    println!(
        "{:<14} {:>9} {:>9} {:>11} {:>11} {:>11} {:>11}",
        "phase", "requests", "queries", "req/s", "query/s", "p50", "p99"
    );
    for p in &phases {
        println!(
            "{:<14} {:>9} {:>9} {:>11.1} {:>11.1} {:>9.2}ms {:>9.2}ms",
            p.name,
            p.requests,
            p.queries,
            p.qps,
            p.query_qps,
            p.hist.quantile(0.5) / 1e6,
            p.hist.quantile(0.99) / 1e6,
        );
    }

    handle.shutdown();
    handle.join();

    let mut body = String::from("  \"config\": {");
    body.push_str(&format!(
        "\"workers\": {workers}, \"clients\": {clients}, \"batch_size\": {batch_size}, \
         \"epochs\": {epochs}, \"regions\": {n_regions}, \"types\": {n_types}, \
         \"smoke\": {smoke} }},\n"
    ));
    body.push_str("  \"phases\": [\n");
    for (i, p) in phases.iter().enumerate() {
        body.push_str(&format!(
            "    {{ \"name\": \"{}\", \"requests\": {}, \"queries\": {}, \
             \"wall_secs\": {:.6}, \"requests_per_sec\": {:.3}, \"queries_per_sec\": {:.3}, \
             \"latency_ns\": {{ \"p50\": {:.0}, \"p99\": {:.0}, \"max\": {:.0}, \"count\": {} }} }}{}\n",
            p.name,
            p.requests,
            p.queries,
            p.wall_secs,
            p.qps,
            p.query_qps,
            p.hist.quantile(0.5),
            p.hist.quantile(0.99),
            p.hist.max(),
            p.hist.count(),
            if i + 1 < phases.len() { "," } else { "" }
        ));
    }
    body.push_str("  ],\n");
    body.push_str(
        "  \"note\": \"closed-loop over loopback, one fresh connection per request; \
         on a 1-core host these numbers measure protocol + scoring overhead, not \
         parallel-scaling headroom\"",
    );
    match write_artifact("BENCH_serve.json", &body) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\ncould not write BENCH_serve.json: {e}"),
    }
}
