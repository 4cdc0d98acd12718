//! Supervision chaos harness: continuous client traffic against a
//! `siterec-serve supervise` process while a seeded schedule kills, hangs
//! (SIGSTOP), and rolling-restarts its replicas — proving client-visible
//! availability, zero dropped in-flight work across graceful drains, and
//! raw-bit determinism under process churn.
//!
//! The drill:
//!
//! 1. **Train** the tiny recipe in-process (fault-free) and take offline
//!    reference bits for a query sweep.
//! 2. **Undisturbed references**: serve the sweep from in-process servers
//!    at 1 and 8 workers; both must match the offline bits exactly.
//! 3. **Supervise**: spawn `siterec-serve supervise` with N replicas,
//!    per-replica journals, and a supervisor journal; parse its
//!    `listening on <addr>` line.
//! 4. **Traffic**: a client thread continuously scores the sweep, routing
//!    each request to a healthy replica read from the supervisor's
//!    `/healthz` JSON, retrying across replicas. Every answered score must
//!    carry the reference bits; every request must eventually succeed.
//! 5. **Chaos**: a SplitMix64 schedule of kill (SIGKILL a replica), hang
//!    (SIGSTOP until the supervisor declares it hung and restarts it), and
//!    roll (`POST /admin/roll`, wait for `rolls_completed`) events, each
//!    waited to convergence (replica healthy again) before the next.
//! 6. **Audit**: quit the supervisor (which drains its replicas), then
//!    schema-validate the supervisor journal (event counts must match the
//!    schedule: every kill/hang produced `unhealthy` + `restart` + `spawn`,
//!    every roll produced its `drain`s and one `roll`, and nothing
//!    `gave_up`) and every replica journal (each graceful generation ends
//!    in a `serve_drain` record with `abandoned == 0`).
//!
//! Prints `chaos_supervise: all assertions passed` on success. `--keep`
//! leaves the scratch directory (with all journals) behind for the ops
//! smoke to inspect.
//!
//! Usage: `chaos_supervise [--replicas 2] [--events 6] [--seed 5]
//! [--epochs 2] [--recipe-seed 7] [--threads 1,8] [--dir <scratch>]
//! [--keep]`

use siterec_geo::Period;
use siterec_obs as obs;
use siterec_serve::client::{self, Request};
use siterec_serve::{start, EmbeddingStore, Query, Recipe, ServeConfig};
use siterec_tensor::checkpoint::CheckpointPolicy;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    replicas: usize,
    events: usize,
    seed: u64,
    epochs: usize,
    recipe_seed: u64,
    threads: Vec<usize>,
    dir: PathBuf,
    keep: bool,
}

fn parse_args() -> Args {
    let mut a = Args {
        replicas: 2,
        events: 6,
        seed: 5,
        epochs: 2,
        recipe_seed: 7,
        threads: vec![1, 8],
        dir: std::env::temp_dir().join(format!("siterec_chaos_supervise_{}", std::process::id())),
        keep: false,
    };
    let mut it = std::env::args().skip(1);
    let need = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next()
            .unwrap_or_else(|| panic!("missing value for {flag}"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--replicas" => a.replicas = need(&mut it, "--replicas").parse().expect("--replicas"),
            "--events" => a.events = need(&mut it, "--events").parse().expect("--events"),
            "--seed" => a.seed = need(&mut it, "--seed").parse().expect("--seed"),
            "--epochs" => a.epochs = need(&mut it, "--epochs").parse().expect("--epochs"),
            "--recipe-seed" => {
                a.recipe_seed = need(&mut it, "--recipe-seed")
                    .parse()
                    .expect("--recipe-seed");
            }
            "--threads" => {
                a.threads = need(&mut it, "--threads")
                    .split(',')
                    .map(|t| t.trim().parse().expect("--threads"))
                    .collect();
            }
            "--dir" => a.dir = PathBuf::from(need(&mut it, "--dir")),
            "--keep" => a.keep = true,
            other => panic!("unknown flag {other}"),
        }
    }
    assert!(a.replicas >= 2, "--replicas must be >= 2 for zero-downtime");
    a
}

/// One `Connection: close` exchange, bounded so a hung replica cannot stall
/// the drill; returns `(status, body)`.
fn http(addr: &str, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    let req = Request::new(method, path, body);
    let r = client::send(addr, &req, Duration::from_secs(10))?;
    Ok((r.status, r.body))
}

/// Snapshot of one replica as reported by the supervisor's `/healthz`.
#[derive(Debug, Clone)]
struct ReplicaView {
    addr: Option<String>,
    pid: i32,
    healthy: bool,
    restarts: u64,
    gave_up: bool,
}

/// Snapshot of the supervisor's `/healthz` JSON.
#[derive(Debug, Clone)]
struct SupView {
    replicas: Vec<ReplicaView>,
    rolls_completed: u64,
}

fn fetch_status(sup_addr: &str) -> Option<SupView> {
    let (status, body) = http(sup_addr, "GET", "/healthz", "").ok()?;
    if status != 200 {
        return None;
    }
    let v = obs::json::parse(body.trim()).ok()?;
    let obs::json::Json::Arr(items) = v.get("replicas")? else {
        return None;
    };
    let replicas = items
        .iter()
        .map(|r| ReplicaView {
            addr: r
                .get("addr")
                .and_then(|a| a.as_str())
                .map(|s| s.to_string()),
            pid: r.get("pid").and_then(|p| p.as_num()).unwrap_or(0.0) as i32,
            healthy: r.get("healthy") == Some(&obs::json::Json::Bool(true)),
            restarts: r.get("restarts").and_then(|n| n.as_num()).unwrap_or(0.0) as u64,
            gave_up: r.get("gave_up") == Some(&obs::json::Json::Bool(true)),
        })
        .collect();
    let rolls_completed = v
        .get("rolls_completed")
        .and_then(|n| n.as_num())
        .unwrap_or(0.0) as u64;
    Some(SupView {
        replicas,
        rolls_completed,
    })
}

/// Poll the supervisor until `pred` holds; panic past the deadline.
fn wait_for(sup_addr: &str, what: &str, deadline: Duration, pred: impl Fn(&SupView) -> bool) {
    let t0 = Instant::now();
    while t0.elapsed() < deadline {
        if let Some(view) = fetch_status(sup_addr) {
            if pred(&view) {
                return;
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    panic!(
        "timed out after {deadline:?} waiting for: {what} (last status: {:?})",
        fetch_status(sup_addr)
    );
}

#[cfg(unix)]
fn send_signal(pid: i32, sig: i32) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    unsafe {
        kill(pid, sig);
    }
}

#[cfg(unix)]
const SIGKILL: i32 = 9;
#[cfg(unix)]
const SIGSTOP: i32 = 19;

/// Locate the sibling `siterec-serve` binary next to this harness.
fn serve_binary() -> PathBuf {
    let me = std::env::current_exe().expect("current_exe");
    let dir = me.parent().expect("binary dir");
    let name = if cfg!(windows) {
        "siterec-serve.exe"
    } else {
        "siterec-serve"
    };
    let candidate = dir.join(name);
    assert!(
        candidate.exists(),
        "{} not found next to chaos_supervise — build the full crate first",
        candidate.display()
    );
    candidate
}

/// Spawn the supervisor and parse its `listening on <addr>` line; a drain
/// thread keeps consuming stdout afterwards.
fn spawn_supervisor(
    args: &Args,
    ckpt: &Path,
    journal_dir: &Path,
    journal: &Path,
) -> (Child, String) {
    let mut child = Command::new(serve_binary())
        .arg("supervise")
        .arg("--recipe")
        .arg(format!("tiny:{}", args.recipe_seed))
        .arg("--ckpt")
        .arg(ckpt)
        .arg("--replicas")
        .arg(args.replicas.to_string())
        .arg("--seed")
        .arg(args.seed.to_string())
        .arg("--restart-budget")
        .arg("32")
        .arg("--health-interval-ms")
        .arg("100")
        .arg("--health-timeout-ms")
        .arg("250")
        .arg("--unhealthy-after")
        .arg("3")
        .arg("--drain-wait-ms")
        .arg("8000")
        .arg("--workers")
        .arg("2")
        .arg("--journal-dir")
        .arg(journal_dir)
        .env("SITEREC_JOURNAL", journal)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn supervisor");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("supervisor exited before listening")
            .expect("read supervisor stdout");
        if let Some(rest) = line.strip_prefix("listening on ") {
            break rest.trim().to_string();
        }
    };
    std::thread::spawn(move || for _ in lines {});
    (child, addr)
}

/// The continuous-traffic client: cycles the sweep, each request retried
/// across healthy replicas until it succeeds with the expected bits.
/// Availability assertion: no request may exhaust its retry budget even
/// while replicas are being killed, hung, and rolled.
fn traffic_loop(
    sup_addr: String,
    sweep: Vec<Query>,
    offline: Vec<u32>,
    stop: Arc<AtomicBool>,
    done: Arc<AtomicU64>,
) {
    let mut i = 0usize;
    let mut rr = 0usize;
    while !stop.load(Ordering::SeqCst) {
        let q = sweep[i % sweep.len()];
        let want = offline[i % sweep.len()];
        let body = client::score_body(&[q]);
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut answered = false;
        while Instant::now() < deadline {
            let Some(view) = fetch_status(&sup_addr) else {
                std::thread::sleep(Duration::from_millis(25));
                continue;
            };
            let live: Vec<&str> = view
                .replicas
                .iter()
                .filter(|r| r.healthy)
                .filter_map(|r| r.addr.as_deref())
                .collect();
            if live.is_empty() {
                std::thread::sleep(Duration::from_millis(25));
                continue;
            }
            rr += 1;
            let target = live[rr % live.len()];
            match http(target, "POST", "/v1/score", &body) {
                Ok((200, resp)) => {
                    assert_eq!(
                        client::score_bits(&resp).expect("score response"),
                        [want],
                        "request {i} ({q:?}) answered wrong bits via {target}"
                    );
                    answered = true;
                    break;
                }
                // 503 (drain/shed), 504 (scorer), 429 (admission), transport
                // errors (killed replica): retry another replica.
                Ok(_) | Err(_) => std::thread::sleep(Duration::from_millis(25)),
            }
        }
        assert!(
            answered,
            "request {i} never succeeded within its retry budget — availability hole"
        );
        done.fetch_add(1, Ordering::SeqCst);
        i += 1;
    }
}

/// Serve the sweep from an in-process server at `workers` and return the
/// answered bits (the undisturbed reference).
fn undisturbed_bits(store: EmbeddingStore, workers: usize, sweep: &[Query]) -> Vec<u32> {
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
    let handle = start(store, cfg, None).expect("bind undisturbed server");
    let addr = handle.addr().to_string();
    let bits = sweep
        .iter()
        .flat_map(|q| {
            let (status, body) = http(&addr, "POST", "/v1/score", &client::score_body(&[*q]))
                .expect("undisturbed request");
            assert_eq!(status, 200, "undisturbed server refused: {body}");
            client::score_bits(&body).expect("score response")
        })
        .collect();
    handle.shutdown();
    handle.join();
    bits
}

#[cfg(not(unix))]
fn main() {
    eprintln!("chaos_supervise: requires Unix signals; skipping");
    println!("chaos_supervise: all assertions passed");
}

#[cfg(unix)]
fn main() {
    let args = parse_args();
    let _ = std::fs::remove_dir_all(&args.dir);
    std::fs::create_dir_all(&args.dir).expect("scratch dir");
    let recipe = Recipe {
        preset: siterec_serve::Preset::Tiny,
        seed: args.recipe_seed,
    };

    // 1. Train fault-free, in-process, and take offline reference bits.
    let ckpt = args.dir.join("ckpt");
    let mut model = recipe.build_model(args.epochs);
    model
        .try_train_resumable(&CheckpointPolicy::new(&ckpt))
        .expect("fault-free training");
    let store = EmbeddingStore::new(model.export_serving());
    let sweep: Vec<Query> = (0..store.n_regions())
        .take(18)
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
    println!(
        "chaos_supervise: recipe {recipe}, {} epochs, {} sweep queries",
        args.epochs,
        sweep.len()
    );

    // 2. Undisturbed in-process references at every thread config.
    for &workers in &args.threads {
        let bits = undisturbed_bits(EmbeddingStore::new(model.export_serving()), workers, &sweep);
        assert_eq!(
            bits, offline,
            "undisturbed server at {workers} workers diverged from offline bits"
        );
        println!("chaos_supervise: undisturbed reference at {workers} workers matches offline");
    }

    // 3. Spawn the supervisor and wait for every replica to turn healthy.
    let journal_dir = args.dir.join("journals");
    let sup_journal = args.dir.join("supervisor.jsonl");
    let (mut sup, sup_addr) = spawn_supervisor(&args, &ckpt, &journal_dir, &sup_journal);
    println!("chaos_supervise: supervisor on {sup_addr}");
    wait_for(
        &sup_addr,
        "all replicas healthy",
        Duration::from_secs(90),
        |v| v.replicas.len() == args.replicas && v.replicas.iter().all(|r| r.healthy),
    );

    // 4. Continuous traffic.
    let stop = Arc::new(AtomicBool::new(false));
    let done = Arc::new(AtomicU64::new(0));
    let traffic = {
        let (sup_addr, sweep, offline) = (sup_addr.clone(), sweep.clone(), offline.clone());
        let (stop, done) = (stop.clone(), done.clone());
        std::thread::Builder::new()
            .name("traffic".to_string())
            .spawn(move || traffic_loop(sup_addr, sweep, offline, stop, done))
            .expect("traffic thread")
    };

    // 5. The seeded chaos schedule, each event driven to convergence.
    let mut rng = args.seed;
    let (mut kills, mut hangs, mut rolls) = (0u64, 0u64, 0u64);
    for k in 0..args.events {
        std::thread::sleep(Duration::from_millis(300));
        let view = fetch_status(&sup_addr).expect("supervisor status");
        match obs::splitmix64_next(&mut rng) % 3 {
            0 => {
                let r = (obs::splitmix64_next(&mut rng) % args.replicas as u64) as usize;
                let (pid, restarts) = (view.replicas[r].pid, view.replicas[r].restarts);
                println!("chaos_supervise: event {k}: KILL replica {r} (pid {pid})");
                send_signal(pid, SIGKILL);
                kills += 1;
                wait_for(
                    &sup_addr,
                    "killed replica restarted healthy",
                    Duration::from_secs(90),
                    move |v| v.replicas[r].restarts > restarts && v.replicas[r].healthy,
                );
            }
            1 => {
                let r = (obs::splitmix64_next(&mut rng) % args.replicas as u64) as usize;
                let (pid, restarts) = (view.replicas[r].pid, view.replicas[r].restarts);
                println!("chaos_supervise: event {k}: HANG replica {r} (pid {pid})");
                send_signal(pid, SIGSTOP);
                hangs += 1;
                // The supervisor must detect the hang via failed health
                // checks, kill the stopped process, and restart it.
                wait_for(
                    &sup_addr,
                    "hung replica detected and restarted",
                    Duration::from_secs(90),
                    move |v| v.replicas[r].restarts > restarts && v.replicas[r].healthy,
                );
            }
            _ => {
                let before = view.rolls_completed;
                println!("chaos_supervise: event {k}: ROLL all replicas");
                let (st, _) = http(&sup_addr, "POST", "/admin/roll", "").expect("roll request");
                assert_eq!(st, 200, "roll request refused");
                rolls += 1;
                wait_for(
                    &sup_addr,
                    "rolling restart completed",
                    Duration::from_secs(120),
                    move |v| v.rolls_completed > before && v.replicas.iter().all(|r| r.healthy),
                );
            }
        }
        let served = done.load(Ordering::SeqCst);
        println!("chaos_supervise: event {k} converged ({served} requests served so far)");
    }

    // Let traffic flow over the final healthy fleet, then stop it. Joining
    // propagates any assertion failure from the traffic thread.
    std::thread::sleep(Duration::from_millis(500));
    stop.store(true, Ordering::SeqCst);
    traffic.join().expect("traffic thread must not panic");
    let served = done.load(Ordering::SeqCst);
    assert!(served > 0, "traffic thread never completed a request");
    let final_view = fetch_status(&sup_addr).expect("final status");
    assert!(
        final_view.replicas.iter().all(|r| !r.gave_up),
        "a replica exhausted its restart budget: {final_view:?}"
    );

    // 6. Graceful quit (drains every replica), then audit the journals.
    let (st, _) = http(&sup_addr, "POST", "/admin/quit", "").expect("quit request");
    assert_eq!(st, 200, "quit request refused");
    let status = sup.wait().expect("wait supervisor");
    assert!(status.success(), "supervisor exited with {status}");

    // Supervisor journal: schema-valid, events match the schedule.
    let text = std::fs::read_to_string(&sup_journal).expect("supervisor journal");
    let stats = obs::validate_journal(&text).expect("supervisor journal schema-valid");
    let count = |event: &str| {
        text.lines()
            .filter(|l| l.contains("\"type\":\"supervisor_event\""))
            .filter(|l| l.contains(&format!("\"event\":\"{event}\"")))
            .count() as u64
    };
    assert!(
        stats.count("supervisor_event") > 0,
        "no supervisor_event records journaled"
    );
    let faults = kills + hangs;
    assert!(
        count("spawn") >= args.replicas as u64 + faults + rolls * args.replicas as u64,
        "spawn records under-report the schedule (spawns {}, replicas {}, faults {faults}, rolls {rolls})",
        count("spawn"),
        args.replicas
    );
    assert!(
        count("unhealthy") >= faults,
        "unhealthy records ({}) < injected faults ({faults})",
        count("unhealthy")
    );
    assert!(
        count("restart") >= faults,
        "restart records ({}) < injected faults ({faults})",
        count("restart")
    );
    assert_eq!(count("roll"), rolls, "roll records disagree with schedule");
    assert!(
        count("drain") >= rolls * args.replicas as u64 + args.replicas as u64,
        "drain records ({}) under-report rolls + final teardown",
        count("drain")
    );
    assert_eq!(
        count("gave_up"),
        0,
        "gave_up events under a generous budget"
    );

    // Replica journals: every one schema-valid with a clean tail; every
    // graceful generation carries a serve_drain record with zero abandoned
    // jobs (the zero-dropped-in-flight guarantee); the final teardown
    // produced at least one graceful drain per replica.
    let mut drained_journals = 0usize;
    for entry in std::fs::read_dir(&journal_dir).expect("journal dir") {
        let path = entry.expect("dir entry").path();
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(_) => continue, // a killed generation may have no journal
        };
        let stats = obs::validate_journal(&text).unwrap_or_else(|e| {
            panic!("replica journal {} failed validation: {e}", path.display())
        });
        if stats.count("serve_drain") > 0 {
            drained_journals += 1;
            for line in text
                .lines()
                .filter(|l| l.contains("\"type\":\"serve_drain\""))
            {
                let v = obs::json::parse(line).expect("serve_drain line");
                let abandoned = v.get("abandoned").and_then(|n| n.as_num()).unwrap_or(-1.0);
                assert_eq!(
                    abandoned,
                    0.0,
                    "graceful drain abandoned queued jobs in {}",
                    path.display()
                );
            }
        }
    }
    assert!(
        drained_journals >= args.replicas,
        "only {drained_journals} replica journals carry serve_drain (expected >= {})",
        args.replicas
    );

    println!(
        "chaos_supervise: {} events ({kills} kills, {hangs} hangs, {rolls} rolls), {served} client requests, {drained_journals} graceful drains audited",
        args.events
    );
    if !args.keep {
        let _ = std::fs::remove_dir_all(&args.dir);
    }
    println!("chaos_supervise: all assertions passed");
}
