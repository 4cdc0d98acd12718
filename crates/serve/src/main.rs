//! `siterec-serve`: train, serve, supervise, and query O²-SiteRec site
//! recommendations.
//!
//! Four subcommands (see SERVING.md for the operator guide):
//!
//! * `train  --recipe tiny:7 --ckpt DIR [--epochs N]` — train the recipe's
//!   model with durable checkpoints (resumes if the directory already holds
//!   one).
//! * `run    --recipe tiny:7 --ckpt DIR [--addr A] [--workers N] [--queue N]
//!   [--batch N] [--cache N] [--image PATH] [--max-requests N]` — rebuild
//!   the model from the recipe, adopt the newest checkpoint, export the
//!   embedding store (optionally writing its `SREMB1` image), and serve.
//!   Prints `listening on <addr>` once ready. On Unix, SIGTERM triggers the
//!   same graceful drain as `POST /admin/drain`.
//! * `supervise --recipe tiny:7 --ckpt DIR [--replicas N] [--seed S]
//!   [--restart-budget N] [--journal-dir DIR] ...` — run N replica servers
//!   as supervised children: health-checked, restarted with deterministic
//!   seeded backoff, rolling-restarted via `POST /admin/roll`. Prints the
//!   supervisor's own `listening on <addr>`; replica addresses live in its
//!   `/healthz` JSON. `POST /admin/quit`, or SIGTERM on Unix, drains and
//!   stops every replica, then exits.
//! * `query  --addr HOST:PORT [--retry N] [--timeout-ms T] <action>` — a
//!   tiny HTTP client for scripts and CI: `--region R --type T [--period
//!   L]` scores one pair, `--topk K --type T` ranks regions, `--healthz` /
//!   `--metrics` / `--reload` / `--drain` / `--quit` hit the admin surface.
//!   Prints the response body.
//!
//! When `SITEREC_JOURNAL` is set, `run` writes the JSONL run-journal
//! (including `serve_request` / `serve_reload` / `serve_drain` records) on
//! graceful exit (`/admin/quit`, `/admin/drain`, SIGTERM, or
//! `--max-requests`), and `supervise` writes its `supervisor_event`
//! history the same way.

use siterec_geo::Period;
use siterec_obs as obs;
use siterec_serve::client::{self, Request, Retry};
use siterec_serve::server::{start, ServeConfig};
use siterec_serve::store::EmbeddingStore;
use siterec_serve::{supervise, Query, Recipe, SuperviseConfig};
use siterec_tensor::checkpoint::CheckpointPolicy;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().map(String::as_str) else {
        eprintln!("usage: siterec-serve <train|run|supervise|query> [flags]  (see SERVING.md)");
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    let result = match cmd {
        "train" => cmd_train(rest),
        "run" => cmd_run(rest),
        "supervise" => cmd_supervise(rest),
        "query" => cmd_query(rest),
        other => Err(format!(
            "unknown subcommand {other:?} (train | run | supervise | query)"
        )),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("siterec-serve: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Pull the value after a `--flag`, removing both from `args`.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == flag) {
        Some(i) => {
            if i + 1 >= args.len() {
                return Err(format!("missing value for {flag}"));
            }
            let v = args.remove(i + 1);
            args.remove(i);
            Ok(Some(v))
        }
        None => Ok(None),
    }
}

fn take_parsed<T: std::str::FromStr>(
    args: &mut Vec<String>,
    flag: &str,
) -> Result<Option<T>, String> {
    match take_flag(args, flag)? {
        Some(v) => v
            .parse::<T>()
            .map(Some)
            .map_err(|_| format!("bad value for {flag}: {v:?}")),
        None => Ok(None),
    }
}

fn reject_leftovers(args: &[String]) -> Result<(), String> {
    match args.first() {
        Some(a) => Err(format!("unknown flag {a:?}")),
        None => Ok(()),
    }
}

fn cmd_train(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let recipe: Recipe = take_flag(&mut args, "--recipe")?
        .ok_or("train needs --recipe preset:seed")?
        .parse()?;
    let ckpt: PathBuf = take_flag(&mut args, "--ckpt")?
        .ok_or("train needs --ckpt DIR")?
        .into();
    let epochs: usize = take_parsed(&mut args, "--epochs")?.unwrap_or(6);
    reject_leftovers(&args)?;

    let mut model = recipe.build_model(epochs);
    let policy = CheckpointPolicy::new(&ckpt);
    model
        .try_train_resumable(&policy)
        .map_err(|e| format!("training failed: {e:?}"))?;
    let last = model.history().last().expect("trained at least one epoch");
    println!(
        "trained {recipe} to epoch {} (loss {:.6}) -> {}",
        last.epoch,
        last.loss,
        ckpt.display()
    );
    if let Some(path) = obs::journal_path() {
        obs::write_journal(path).map_err(|e| format!("journal write failed: {e}"))?;
    }
    Ok(())
}

/// Build the embedding store by rebuilding the recipe model and adopting the
/// newest checkpoint in `ckpt` (shared by startup and `/admin/reload`).
fn build_store(recipe: Recipe, ckpt: &std::path::Path) -> Result<EmbeddingStore, String> {
    let mut model = recipe.build_model(1);
    match model.restore_latest(ckpt) {
        Ok(Some(_epochs)) => Ok(EmbeddingStore::new(model.export_serving())),
        Ok(None) => Err(format!(
            "no checkpoint for recipe {recipe} in {} (run `siterec-serve train` first)",
            ckpt.display()
        )),
        Err(e) => Err(format!("checkpoint dir {} unreadable: {e}", ckpt.display())),
    }
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let recipe: Recipe = take_flag(&mut args, "--recipe")?
        .ok_or("run needs --recipe preset:seed")?
        .parse()?;
    let ckpt: PathBuf = take_flag(&mut args, "--ckpt")?
        .ok_or("run needs --ckpt DIR")?
        .into();
    let mut cfg = ServeConfig::from_env();
    if let Some(addr) = take_flag(&mut args, "--addr")? {
        cfg.addr = addr;
    }
    if let Some(v) = take_parsed::<usize>(&mut args, "--workers")? {
        cfg.workers = v.max(1);
    }
    if let Some(v) = take_parsed::<usize>(&mut args, "--queue")? {
        cfg.queue_cap = v.max(1);
    }
    if let Some(v) = take_parsed::<usize>(&mut args, "--batch")? {
        cfg.max_batch = v.max(1);
    }
    if let Some(v) = take_parsed::<usize>(&mut args, "--cache")? {
        cfg.cache_cap = v.max(1);
    }
    cfg.max_requests = take_parsed::<u64>(&mut args, "--max-requests")?;
    let image: Option<PathBuf> = take_flag(&mut args, "--image")?.map(PathBuf::from);
    reject_leftovers(&args)?;

    obs::record!("run_start", name = "siterec-serve");
    let t_run = Instant::now();
    let t0 = Instant::now();
    let store = build_store(recipe, &ckpt)?;
    obs::record!(
        "serve_reload",
        source = "startup",
        epoch = store.trained_epochs(),
        dur_ns = t0.elapsed().as_nanos() as u64,
    );
    if let Some(path) = &image {
        let bytes = store
            .write_image(path)
            .map_err(|e| format!("image write to {} failed: {e}", path.display()))?;
        println!("embedding image: {bytes} bytes -> {}", path.display());
    }
    println!(
        "store: {} regions x {} types, {} epochs, {} tensor bytes",
        store.n_regions(),
        store.n_types(),
        store.trained_epochs(),
        store.tensor_bytes()
    );

    let reloader: siterec_serve::Reloader = Box::new(move || build_store(recipe, &ckpt));
    let handle = start(store, cfg, Some(reloader)).map_err(|e| format!("could not bind: {e}"))?;
    // SIGTERM gets the same graceful drain as `POST /admin/drain`: the
    // handler only flips an atomic (async-signal-safe); a watcher thread
    // notices and drives the drain, so the journal is flushed and the
    // process exits 0.
    #[cfg(unix)]
    {
        sigterm::install();
        let controller = handle.controller();
        std::thread::Builder::new()
            .name("sigterm-watcher".to_string())
            .spawn(move || loop {
                if sigterm::received() {
                    controller.drain();
                    return;
                }
                std::thread::sleep(Duration::from_millis(50));
            })
            .map_err(|e| format!("sigterm watcher: {e}"))?;
    }
    // The orchestrators (siterec-chaos, ci.sh) parse this exact line.
    println!("listening on {}", handle.addr());
    std::io::stdout().flush().ok();
    handle.join();

    obs::record!(
        "run_end",
        name = "siterec-serve",
        dur_ns = t_run.elapsed().as_nanos() as u64
    );
    if let Some(path) = obs::journal_path() {
        let lines = obs::write_journal(path).map_err(|e| format!("journal write failed: {e}"))?;
        eprintln!("[siterec] journal: {lines} lines -> {}", path.display());
    }
    Ok(())
}

/// Minimal SIGTERM plumbing without a signal crate: libc's `signal` is
/// declared directly, and the handler body is just an atomic store — the
/// only async-signal-safe thing it could do. All real work happens on the
/// watcher thread that polls [`received`].
#[cfg(unix)]
mod sigterm {
    use std::sync::atomic::{AtomicBool, Ordering};

    static RECEIVED: AtomicBool = AtomicBool::new(false);

    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_sigterm(_sig: i32) {
        RECEIVED.store(true, Ordering::SeqCst);
    }

    /// Install the SIGTERM handler (idempotent).
    pub fn install() {
        unsafe {
            signal(SIGTERM, on_sigterm as *const () as usize);
        }
    }

    /// Has a SIGTERM arrived since [`install`]?
    pub fn received() -> bool {
        RECEIVED.load(Ordering::SeqCst)
    }

    /// The flag the handler sets, for loops that poll it themselves.
    pub fn flag() -> &'static AtomicBool {
        &RECEIVED
    }
}

fn cmd_supervise(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let recipe = take_flag(&mut args, "--recipe")?.ok_or("supervise needs --recipe preset:seed")?;
    recipe.parse::<Recipe>()?; // fail fast on a typo, before spawning children
    let ckpt: PathBuf = take_flag(&mut args, "--ckpt")?
        .ok_or("supervise needs --ckpt DIR")?
        .into();
    let mut cfg = SuperviseConfig {
        recipe,
        ckpt,
        ..SuperviseConfig::default()
    };
    if let Some(a) = take_flag(&mut args, "--addr")? {
        cfg.addr = a;
    }
    if let Some(v) = take_parsed::<usize>(&mut args, "--replicas")? {
        cfg.replicas = v.max(1);
    }
    if let Some(v) = take_parsed::<u64>(&mut args, "--seed")? {
        cfg.seed = v;
    }
    if let Some(v) = take_parsed::<u32>(&mut args, "--restart-budget")? {
        cfg.restart_budget = v;
    }
    if let Some(v) = take_parsed::<u64>(&mut args, "--health-interval-ms")? {
        cfg.health_interval = Duration::from_millis(v.max(1));
    }
    if let Some(v) = take_parsed::<u64>(&mut args, "--health-timeout-ms")? {
        cfg.health_timeout = Duration::from_millis(v.max(1));
    }
    if let Some(v) = take_parsed::<u32>(&mut args, "--unhealthy-after")? {
        cfg.unhealthy_after = v.max(1);
    }
    if let Some(v) = take_parsed::<u64>(&mut args, "--drain-wait-ms")? {
        cfg.drain_wait = Duration::from_millis(v.max(1));
    }
    if let Some(v) = take_parsed::<u64>(&mut args, "--spawn-timeout-ms")? {
        cfg.spawn_timeout = Duration::from_millis(v.max(1));
    }
    cfg.workers = take_parsed::<usize>(&mut args, "--workers")?;
    cfg.journal_dir = take_flag(&mut args, "--journal-dir")?.map(PathBuf::from);
    reject_leftovers(&args)?;

    obs::record!("run_start", name = "siterec-serve-supervise");
    let t0 = Instant::now();
    // SIGTERM stops the supervisor like `POST /admin/quit`: it drains and
    // stops every replica, so none outlives it. The supervisor's loop polls
    // the flag the handler sets.
    #[cfg(unix)]
    let stop = {
        sigterm::install();
        sigterm::flag()
    };
    #[cfg(not(unix))]
    let stop = &std::sync::atomic::AtomicBool::new(false);
    supervise::run(cfg, stop)?;
    obs::record!(
        "run_end",
        name = "siterec-serve-supervise",
        dur_ns = t0.elapsed().as_nanos() as u64
    );
    if let Some(path) = obs::journal_path() {
        let lines = obs::write_journal(path).map_err(|e| format!("journal write failed: {e}"))?;
        eprintln!("[siterec] journal: {lines} lines -> {}", path.display());
    }
    Ok(())
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let addr = take_flag(&mut args, "--addr")?.ok_or("query needs --addr HOST:PORT")?;
    let retries: usize = take_parsed(&mut args, "--retry")?.unwrap_or(0);
    // Per-attempt total deadline (connect + request + response). A hung
    // replica must never stall the client past it — that is the failure
    // mode the supervision tests drive.
    let timeout =
        Duration::from_millis(take_parsed::<u64>(&mut args, "--timeout-ms")?.unwrap_or(30_000));
    let period = match take_flag(&mut args, "--period")? {
        Some(label) => Some(
            Period::ALL
                .into_iter()
                .find(|p| p.label() == label)
                .ok_or_else(|| format!("unknown --period {label:?}"))?,
        ),
        None => None,
    };
    let region: Option<usize> = take_parsed(&mut args, "--region")?;
    let ty: Option<usize> = take_parsed(&mut args, "--type")?;
    let topk: Option<usize> = take_parsed(&mut args, "--topk")?;
    let healthz = take_bare(&mut args, "--healthz");
    let metrics = take_bare(&mut args, "--metrics");
    let reload = take_bare(&mut args, "--reload");
    let drain = take_bare(&mut args, "--drain");
    let quit = take_bare(&mut args, "--quit");
    reject_leftovers(&args)?;

    let period_json = match period {
        Some(p) => {
            let mut s = String::new();
            siterec_obs::json::write_escaped(&mut s, p.label());
            s
        }
        None => "null".to_string(),
    };
    let (method, path, body) = if healthz {
        ("GET", "/healthz", String::new())
    } else if metrics {
        ("GET", "/metrics", String::new())
    } else if reload {
        ("POST", "/admin/reload", String::new())
    } else if drain {
        ("POST", "/admin/drain", String::new())
    } else if quit {
        ("POST", "/admin/quit", String::new())
    } else if let Some(k) = topk {
        let t = ty.ok_or("--topk also needs --type T")?;
        (
            "POST",
            "/v1/recommend",
            format!("{{\"type\":{t},\"k\":{k},\"period\":{period_json}}}\n"),
        )
    } else if let (Some(region), Some(ty)) = (region, ty) {
        let q = Query { region, ty, period };
        ("POST", "/v1/score", client::score_body(&[q]))
    } else {
        return Err(
            "query needs one of: --region R --type T | --topk K --type T | --healthz | \
             --metrics | --reload | --drain | --quit"
                .to_string(),
        );
    };

    // Transport errors and 503/504/429 answers are retried `--retry` more
    // times, 100 ms doubling to a 2 s cap, paced by the server's
    // `Retry-After`.
    let retry = Retry {
        attempts: retries + 1,
        first: Duration::from_millis(100),
        cap: Duration::from_secs(2),
    };
    let req = Request::new(method, path, &body);
    let resp = client::send_with_retry(&addr, &req, timeout, retry)?;
    print!("{}", resp.body);
    let status = resp.status;
    if status == 200 {
        Ok(())
    } else {
        // Surface the server-assigned request id so a failing request can be
        // looked up in the run journal (`siterec-ops query --type serve_trace`).
        match resp.request_id() {
            Some(id) => Err(format!("server answered {status} (request id {id})")),
            None => Err(format!("server answered {status}")),
        }
    }
}

fn take_bare(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}
