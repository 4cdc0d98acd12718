//! Failpoint chaos soak: sweep seeded fault schedules over the **full
//! lifecycle** — train → checkpoint → export → image roundtrip → serve →
//! reload — and prove the stack heals every injected fault with
//! **raw-bit-identical** final scores versus a fault-free run.
//!
//! For each seeded schedule (deterministic SplitMix64 picks from a menu of
//! healable seam/mode combinations: checkpoint write/read, journal append,
//! embedding-image save/load, serve reload, scorer drop) and each thread
//! configuration, one lifecycle runs fully in-process:
//!
//! 1. **Train-until-complete**: train the tiny recipe with durable
//!    checkpoints; if an injected fault ate the newest generation(s), the
//!    probe restore falls back and another bounded round retrains the
//!    missing epochs from the last valid generation — deterministic
//!    retraining reproduces identical bits, so healing never changes
//!    scores.
//! 2. **Image roundtrip**: write the `SREMB1` image (retry heals transient
//!    faults), read it back (CRC catches silent corruption), rewrite until
//!    the roundtrip is byte-identical — bounded.
//! 3. **Serve**: an in-process server answers a query sweep over HTTP; the
//!    client retries 503/504 answers (a dropped scorer batch surfaces as a
//!    fast 504). Every score must match the offline reference bits.
//! 4. **Reload dance**: `/admin/reload` until the store is healthy and
//!    fully trained; a failed reload must flip `/healthz` to `degraded`
//!    (old store keeps serving) and the next success must recover it.
//!    Post-reload scores are re-checked against the reference bits.
//! 5. **Journal**: written through its own faulted seam with retry, then
//!    schema-validated; `failpoint` record count must equal the number of
//!    firings the registry reports.
//!
//! Zero panics, schema-valid journals, and bit-identical scores across
//! every schedule and thread count — or the process dies loudly. Prints
//! `chaos_soak: all assertions passed` on success.
//!
//! Usage: `chaos_soak [--seeds 3] [--seed0 101] [--epochs 3]
//! [--threads 1,8] [--recipe-seed 7] [--dir <scratch>]`

use siterec_core::O2SiteRec;
use siterec_geo::Period;
use siterec_obs as obs;
use siterec_serve::client::{self, Request, Retry};
use siterec_serve::{start, EmbeddingStore, Query, Recipe, Reloader, ServeConfig};
use siterec_tensor::checkpoint::CheckpointPolicy;
use siterec_tensor::parallel::ParallelConfig;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Healable (seam, mode) combinations the schedule generator draws from.
/// `journal.append=corrupt` is deliberately absent: a silently corrupted
/// journal is unverifiable by construction (nothing downstream checksums
/// it), and the soak asserts journal validity.
const MENU: &[(&str, &str)] = &[
    ("ckpt.write.fsync", "err"),
    ("ckpt.write.fsync", "short"),
    ("ckpt.write.fsync", "corrupt"),
    ("ckpt.read.section", "err"),
    ("ckpt.read.section", "short"),
    ("ckpt.read.section", "corrupt"),
    ("journal.append", "err"),
    ("journal.append", "short"),
    ("emb.image.save", "err"),
    ("emb.image.save", "short"),
    ("emb.image.save", "corrupt"),
    ("emb.image.load", "err"),
    ("emb.image.load", "short"),
    ("emb.image.load", "corrupt"),
    ("serve.reload", "err"),
    ("serve.score", "err"),
];

struct Args {
    seeds: usize,
    seed0: u64,
    epochs: usize,
    threads: Vec<usize>,
    recipe_seed: u64,
    dir: PathBuf,
}

fn parse_args() -> Args {
    let mut a = Args {
        seeds: 3,
        seed0: 101,
        epochs: 3,
        threads: vec![1, 8],
        recipe_seed: 7,
        dir: std::env::temp_dir().join(format!("siterec_chaos_soak_{}", std::process::id())),
    };
    let mut it = std::env::args().skip(1);
    let need = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next()
            .unwrap_or_else(|| panic!("missing value for {flag}"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seeds" => a.seeds = need(&mut it, "--seeds").parse().expect("--seeds"),
            "--seed0" => a.seed0 = need(&mut it, "--seed0").parse().expect("--seed0"),
            "--epochs" => a.epochs = need(&mut it, "--epochs").parse().expect("--epochs"),
            "--threads" => {
                a.threads = need(&mut it, "--threads")
                    .split(',')
                    .map(|t| t.trim().parse().expect("--threads"))
                    .collect();
            }
            "--recipe-seed" => {
                a.recipe_seed = need(&mut it, "--recipe-seed")
                    .parse()
                    .expect("--recipe-seed");
            }
            "--dir" => a.dir = PathBuf::from(need(&mut it, "--dir")),
            other => panic!("unknown flag {other}"),
        }
    }
    assert!(!a.threads.is_empty(), "--threads must name at least one");
    a
}

/// A seeded schedule: 4 distinct seams from the menu; the first entry
/// always fires on hit 1 (so every schedule injects at least one fault),
/// the rest on hit 1 or 2. `serve.reload=err@1` is appended when the draw
/// missed it, so every schedule also walks the degraded-mode reload dance.
fn schedule_for(seed: u64) -> String {
    let mut rng = seed;
    let mut names = std::collections::BTreeSet::new();
    let mut entries = Vec::new();
    while entries.len() < 4 {
        let (name, mode) = MENU[(obs::splitmix64_next(&mut rng) % MENU.len() as u64) as usize];
        if !names.insert(name) {
            continue;
        }
        let hit = if entries.is_empty() {
            1
        } else {
            1 + obs::splitmix64_next(&mut rng) % 2
        };
        entries.push(format!("{name}={mode}@{hit}"));
    }
    if names.insert("serve.reload") {
        entries.push("serve.reload=err@1".to_string());
    }
    entries.join(",")
}

/// Rebuild the recipe model with an explicit tensor thread count (the only
/// knob [`Recipe::build_model`] pins that the soak varies).
fn build_model(recipe: &Recipe, epochs: usize, tensor_threads: usize) -> O2SiteRec {
    let (data, task) = recipe.context();
    let mut cfg = recipe.config(epochs);
    cfg.parallel = ParallelConfig::with_threads(tensor_threads);
    O2SiteRec::new(&data, &task, cfg)
}

const TIMEOUT: Duration = Duration::from_secs(30);

/// One `Connection: close` exchange; returns `(status, body)`.
fn http(addr: &str, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    let r = client::send(addr, &Request::new(method, path, body), TIMEOUT)?;
    Ok((r.status, r.body))
}

/// Client-side bounded retry: 503 (shed), 504 (scorer drop/stall) and 429
/// are the server telling us to try again; everything else is final.
const RETRY: Retry = Retry {
    attempts: 8,
    first: Duration::from_millis(10),
    cap: Duration::from_millis(200),
};

fn http_retry(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    let req = Request::new(method, path, body);
    let r = client::send_with_retry(addr, &req, TIMEOUT, RETRY)
        .unwrap_or_else(|e| panic!("request {method} {path} did not succeed: {e}"));
    (r.status, r.body)
}

fn score_bits(body: &str) -> Vec<u32> {
    client::score_bits(body).expect("score response")
}

struct Outcome {
    bits: Vec<u32>,
    degraded_seen: bool,
    fired: u64,
}

/// One full train → checkpoint → export → serve → reload lifecycle under
/// `schedule` (None = fault-free), returning the served score bits.
fn run_lifecycle(
    tag: &str,
    recipe: &Recipe,
    epochs: usize,
    tensor_threads: usize,
    workers: usize,
    dir: &Path,
    schedule: Option<&str>,
) -> Outcome {
    obs::reset();
    obs::set_enabled(true);
    match schedule {
        Some(s) => obs::failpoint::arm(s).expect("valid schedule"),
        None => obs::failpoint::disarm(),
    }

    // 1. Train until a probe restore sees the fully-trained checkpoint.
    //    Faults can eat the newest generation(s); retraining resumes from
    //    the last valid one and, being a pure function of the seed,
    //    reproduces bit-identical parameters.
    let ckpt = dir.join(format!("ckpt-{tag}"));
    let _ = std::fs::remove_dir_all(&ckpt);
    let mut trained: Option<O2SiteRec> = None;
    for _round in 0..6 {
        let mut m = build_model(recipe, epochs, tensor_threads);
        m.try_train_resumable(&CheckpointPolicy::new(&ckpt))
            .expect("training must survive injected I/O faults");
        let mut probe = build_model(recipe, epochs, tensor_threads);
        if let Ok(Some(n)) = probe.restore_latest(&ckpt) {
            if n == epochs {
                trained = Some(probe);
                break;
            }
        }
    }
    let model = trained.expect("training did not converge within the healing budget");

    // Offline reference bits for this run (bit-identical across runs is
    // asserted by the caller against the fault-free lifecycle).
    let store = EmbeddingStore::new(model.export_serving());
    let sweep: Vec<Query> = (0..store.n_regions())
        .take(24)
        .map(|region| Query {
            region,
            ty: region % 3,
            period: match region % 6 {
                5 => None,
                i => Some(Period::from_index(i)),
            },
        })
        .collect();
    let offline: Vec<u32> = sweep
        .iter()
        .map(|q| model.predict_for(&[(q.region, q.ty)], q.period)[0].to_bits())
        .collect();

    // 2. Image roundtrip: heal write faults by rewriting, read faults by
    //    rereading — CRC sections turn silent corruption into clean errors.
    let image = dir.join(format!("emb-{tag}.sremb"));
    let reference_bytes = store.encode();
    let mut image_ok = false;
    for _ in 0..4 {
        if store.write_image(&image).is_err() {
            continue;
        }
        if let Ok(loaded) = EmbeddingStore::read_image(&image) {
            assert_eq!(
                loaded.encode(),
                reference_bytes,
                "{tag}: image roundtrip must be byte-identical"
            );
            image_ok = true;
            break;
        }
    }
    assert!(
        image_ok,
        "{tag}: image roundtrip did not heal within budget"
    );

    // 3. Serve the sweep; every answered score must match offline bits.
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_cap: 256,
        max_batch: 8,
        cache_cap: 64,
        max_requests: None,
        score_timeout: Duration::from_secs(10),
        read_timeout: Duration::from_millis(100),
        ..ServeConfig::from_env()
    };
    let reloader: Reloader = {
        let recipe = *recipe;
        let ckpt = ckpt.clone();
        Box::new(move || {
            let mut m = build_model(&recipe, epochs, tensor_threads);
            match m.restore_latest(&ckpt) {
                Ok(Some(_)) => Ok(EmbeddingStore::new(m.export_serving())),
                Ok(None) => Err("no valid checkpoint generation".to_string()),
                Err(e) => Err(e.to_string()),
            }
        })
    };
    let handle = start(store, cfg, Some(reloader)).expect("bind in-process server");
    let addr = handle.addr().to_string();
    let mut bits = Vec::with_capacity(sweep.len());
    for (i, q) in sweep.iter().enumerate() {
        let (status, body) = http_retry(&addr, "POST", "/v1/score", &client::score_body(&[*q]));
        assert_eq!(status, 200, "{tag}: sweep request {i} failed: {body}");
        let got = score_bits(&body);
        assert_eq!(
            got,
            [offline[i]],
            "{tag}: served score {i} ({q:?}) diverged from offline"
        );
        bits.push(got[0]);
    }

    // 4. Reload dance: a failed reload must degrade (old store still
    //    serving), and reloading until healthy + fully trained must
    //    recover. A stale-generation fallback reload reports fewer epochs
    //    on /healthz — the operator playbook is "reload again".
    let mut degraded_seen = false;
    let mut recovered = false;
    for attempt in 0..6 {
        let (st, body) = http(&addr, "POST", "/admin/reload", "").expect("reload request");
        let (hst, health) = http(&addr, "GET", "/healthz", "").expect("healthz request");
        assert_eq!(hst, 200, "{tag}: healthz must always answer");
        if st == 200 {
            let v = obs::json::parse(health.trim()).ok();
            let epochs_now = v.and_then(|v| v.get("trained_epochs")?.as_num());
            if health.contains("\"status\":\"ok\"") && epochs_now == Some(epochs as f64) {
                recovered = true;
                break;
            }
        } else {
            assert_eq!(
                st, 500,
                "{tag}: reload attempt {attempt} returned {st}: {body}"
            );
            assert!(
                health.contains("\"status\":\"degraded\""),
                "{tag}: failed reload did not degrade /healthz: {health}"
            );
            // Degraded never means down: the old store still answers.
            let (s, b) = http_retry(&addr, "POST", "/v1/score", &client::score_body(&sweep[..1]));
            assert_eq!(s, 200, "{tag}: degraded server stopped serving: {b}");
            assert_eq!(
                score_bits(&b),
                [offline[0]],
                "{tag}: degraded score diverged"
            );
            degraded_seen = true;
        }
    }
    assert!(
        recovered,
        "{tag}: reload never converged to a healthy store"
    );

    // Post-recovery re-check: the reloaded store (cache cleared) must
    // reproduce the same bits.
    for (i, q) in sweep.iter().take(8).enumerate() {
        let (status, body) = http_retry(&addr, "POST", "/v1/score", &client::score_body(&[*q]));
        assert_eq!(status, 200, "{tag}: post-reload request {i} failed: {body}");
        assert_eq!(
            score_bits(&body),
            [offline[i]],
            "{tag}: post-reload score {i} diverged"
        );
    }

    handle.shutdown();
    handle.join();

    // 5. Journal through its own faulted seam, then validate. The firing
    //    snapshot is taken *after* the write: a `journal.append` fault
    //    firing mid-write is itself journaled by the retry re-serialization
    //    and must be part of the count.
    let journal = dir.join(format!("journal-{tag}.jsonl"));
    obs::write_journal(&journal).expect("journal write must heal within the retry budget");
    let fp_stats = obs::failpoint::stats();
    let fired: u64 = fp_stats.iter().map(|s| s.fired).sum();
    if fp_stats
        .iter()
        .any(|s| s.name == "serve.reload" && s.fired > 0)
    {
        assert!(
            degraded_seen,
            "{tag}: serve.reload fired but no degraded state was observed"
        );
    }
    let text = std::fs::read_to_string(&journal).expect("read journal");
    let stats = obs::validate_journal(&text)
        .unwrap_or_else(|e| panic!("{tag}: journal failed schema validation: {e}"));
    assert!(
        stats.count("serve_request") >= sweep.len(),
        "{tag}: journal under-reports serve_request records"
    );
    assert_eq!(
        stats.count("failpoint") as u64,
        fired,
        "{tag}: journal failpoint records disagree with registry firings"
    );
    if degraded_seen {
        assert!(
            stats.count("serve_degraded") >= 1,
            "{tag}: degraded state observed but never journaled"
        );
    }

    obs::failpoint::disarm();
    Outcome {
        bits,
        degraded_seen,
        fired,
    }
}

fn main() {
    let args = parse_args();
    let _ = std::fs::remove_dir_all(&args.dir);
    std::fs::create_dir_all(&args.dir).expect("scratch dir");
    let recipe = Recipe {
        preset: siterec_serve::Preset::Tiny,
        seed: args.recipe_seed,
    };

    println!(
        "chaos_soak: recipe {recipe}, {} epochs, {} schedules, threads {:?}",
        args.epochs, args.seeds, args.threads
    );
    let reference = run_lifecycle(
        "ref",
        &recipe,
        args.epochs,
        args.threads[0],
        args.threads[0],
        &args.dir,
        None,
    );
    assert_eq!(reference.fired, 0, "fault-free run fired failpoints");
    println!(
        "chaos_soak: fault-free reference captured ({} scores)",
        reference.bits.len()
    );

    let mut total_fired = 0u64;
    let mut degraded_runs = 0usize;
    for k in 0..args.seeds {
        let schedule = schedule_for(args.seed0 + k as u64);
        for &t in &args.threads {
            let tag = format!("s{k}t{t}");
            println!("chaos_soak: [{tag}] schedule {schedule}");
            let out = run_lifecycle(&tag, &recipe, args.epochs, t, t, &args.dir, Some(&schedule));
            assert_eq!(
                out.bits, reference.bits,
                "[{tag}] served bits diverged from the fault-free reference"
            );
            assert!(
                out.fired > 0,
                "[{tag}] schedule injected no faults — soak proved nothing"
            );
            total_fired += out.fired;
            degraded_runs += usize::from(out.degraded_seen);
            println!(
                "chaos_soak: [{tag}] ok — {} faults fired, bits identical{}",
                out.fired,
                if out.degraded_seen {
                    ", degraded+recovered"
                } else {
                    ""
                }
            );
        }
    }
    println!(
        "chaos_soak: {} schedules x {} thread configs, {total_fired} faults fired, {degraded_runs} degraded episodes, all bits identical to fault-free",
        args.seeds,
        args.threads.len()
    );
    let _ = std::fs::remove_dir_all(&args.dir);
    println!("chaos_soak: all assertions passed");
}
