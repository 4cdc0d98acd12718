//! `supervise`: continuous client traffic against a `siterec-serve
//! supervise` process while a seeded schedule kills, stops (SIGSTOP) and
//! rolling-restarts its replicas, proving client-visible availability, zero
//! dropped in-flight work across graceful drains, and raw-bit determinism
//! under process churn. Unix only: the drill is made of signals.
//!
//! 1. **Train** the tiny recipe in-process (fault-free) and take offline
//!    reference bits for an 18-query sweep.
//! 2. **Undisturbed references**: serve the sweep from in-process servers at
//!    every `--threads` worker count; each must match the offline bits.
//! 3. **Supervise**: spawn `siterec-serve supervise` with N replicas,
//!    per-replica journals and a supervisor journal.
//! 4. **Traffic**: a client thread scores the sweep continuously, routing
//!    each request to a healthy replica read from the supervisor's
//!    `/healthz` and retrying across replicas for up to 60 s. Every answer
//!    must carry the reference bits; every request must eventually succeed.
//! 5. **Chaos**: `Kill(r)` SIGKILLs replica `r`, `Stop(r)` SIGSTOPs it until
//!    the supervisor declares it hung and restarts it, `Roll` posts
//!    `/admin/roll`; each action is driven to convergence before the next.
//!    A signal only goes to a pid > 0 that the supervisor reports live
//!    (`addr` set): `kill(0, …)` would signal the driver's own process group,
//!    and a dead replica's pid may already belong to another process.
//! 6. **Term**: the schedule's last action SIGTERMs the supervisor, which
//!    must drain its replicas and exit 0; no replica it last reported may
//!    outlive it.
//! 7. **Audit**: validate the supervisor journal, whose `supervisor_event`
//!    counts must match the schedule, and every replica journal, where
//!    each graceful generation ends in a `serve_drain` record with
//!    `abandoned == 0`.
//! 8. **Quit**: a fresh fleet on the same checkpoint must stop the same
//!    way on `POST /admin/quit`.
//!
//! Flags (defaults): `--replicas 2 --events 6 --seed 5 --epochs 2
//! --recipe-seed 7 --threads 1,8 --dir <tmp>`, and `--keep` to leave the
//! scratch dir (with all journals) for the ops smoke to inspect.

use crate::{announce, fire, kit, Action, Args, Rng};
use siterec_obs as obs;
use siterec_obs::json::Json;
use siterec_serve::{EmbeddingStore, Query};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bounds each exchange so a stopped replica cannot stall the drill.
const TIMEOUT: Duration = Duration::from_secs(10);

/// One replica as the supervisor's `/healthz` reports it.
#[derive(Debug)]
struct ReplicaView {
    addr: Option<String>,
    pid: Option<i32>,
    healthy: bool,
    restarts: u64,
    gave_up: bool,
}

/// The supervisor's `/healthz` JSON.
#[derive(Debug)]
struct SupView {
    replicas: Vec<ReplicaView>,
    rolls_completed: u64,
}

impl SupView {
    /// Replica `r`'s pid, only when it is positive and the replica is live.
    fn live_pid(&self, r: usize) -> Option<i32> {
        let rep = &self.replicas[r];
        rep.pid.filter(|&pid| pid > 0 && rep.addr.is_some())
    }
}

fn fetch_status(sup_addr: &str) -> Option<SupView> {
    let (status, body) = kit::http(sup_addr, "GET", "/healthz", "", TIMEOUT).ok()?;
    let v = obs::json::parse(body.trim())
        .ok()
        .filter(|_| status == 200)?;
    let Json::Arr(items) = v.get("replicas")? else {
        return None;
    };
    let num = |v: &Json, key: &str| v.get(key).and_then(Json::as_num);
    let is_true = |v: &Json, key: &str| v.get(key) == Some(&Json::Bool(true));
    let replicas = items.iter().map(|r| ReplicaView {
        addr: r.get("addr").and_then(Json::as_str).map(str::to_string),
        pid: num(r, "pid").map(|p| p as i32),
        healthy: is_true(r, "healthy"),
        restarts: num(r, "restarts").unwrap_or(0.0) as u64,
        gave_up: is_true(r, "gave_up"),
    });
    let replicas = replicas.collect();
    let rolls_completed = num(&v, "rolls_completed").unwrap_or(0.0) as u64;
    Some(SupView {
        replicas,
        rolls_completed,
    })
}

/// Poll the supervisor until `pred` holds and return that view; panic after
/// `secs` seconds.
fn wait_for(sup_addr: &str, what: &str, secs: u64, pred: impl Fn(&SupView) -> bool) -> SupView {
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_secs(secs) {
        if let Some(view) = fetch_status(sup_addr).filter(&pred) {
            return view;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let last = fetch_status(sup_addr);
    panic!("timed out after {secs} s waiting for: {what} (last status: {last:?})");
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

/// `kill(2)` with a checked result; refuses any pid that is not a single
/// positive process id.
fn signal(pid: i32, sig: i32) {
    assert!(pid > 0, "refusing to signal pid {pid}");
    // SAFETY: a plain libc call; `pid` names one process, never a group.
    if unsafe { kill(pid, sig) } == -1 {
        let e = std::io::Error::last_os_error();
        panic!("kill({pid}, {sig}) failed: {e}");
    }
}

/// Whether process `pid` still exists (signal 0 checks without sending).
fn alive(pid: i32) -> bool {
    assert!(pid > 0, "refusing to probe pid {pid}");
    // SAFETY: as in `signal`; signal 0 only checks for the process.
    unsafe { kill(pid, 0) == 0 }
}

/// Stop the supervisor with `stop`, then require that it exits 0 within
/// 60 s (each replica gets its 8 s drain window on the way out) and that
/// none of the replica pids in `view` outlives it. Survivors are killed
/// before any verdict, so a failing run leaves no replica behind either.
fn stopped_cleanly(
    sup: &mut kit::Listening,
    view: &SupView,
    replicas: usize,
    how: &str,
    stop: impl FnOnce(&mut kit::Listening),
) {
    let pids: Vec<i32> = (0..view.replicas.len())
        .filter_map(|r| view.live_pid(r))
        .collect();
    assert_eq!(pids.len(), replicas, "a replica was not live: {view:?}");
    stop(sup);
    let t0 = Instant::now();
    let status = loop {
        if let Some(status) = sup.0.try_wait().expect("wait supervisor") {
            break status;
        }
        let waited = t0.elapsed();
        assert!(
            waited < Duration::from_secs(60),
            "supervisor still running {waited:?} after {how}"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    let survivors: Vec<i32> = pids.into_iter().filter(|&pid| alive(pid)).collect();
    for &pid in &survivors {
        signal(pid, SIGKILL);
    }
    assert!(
        status.success(),
        "supervisor exited with {status} after {how}"
    );
    assert!(
        survivors.is_empty(),
        "replicas {survivors:?} outlived their supervisor after {how}"
    );
}

const SIGKILL: i32 = 9;
const SIGTERM: i32 = 15;
const SIGSTOP: i32 = 19;

/// The continuous-traffic client: cycles the sweep, each request retried
/// across healthy replicas until it succeeds with the expected bits. No
/// request may exhaust its budget while replicas are killed, stopped and
/// rolled.
fn traffic_loop(sup: &str, sweep: &[Query], offline: &[u32], stop: &AtomicBool, done: &AtomicU64) {
    let (mut i, mut rr) = (0usize, 0usize);
    while !stop.load(Ordering::SeqCst) {
        let (q, want) = (sweep[i % sweep.len()], offline[i % sweep.len()]);
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut answered = false;
        while !answered && Instant::now() < deadline {
            let view = fetch_status(sup);
            let replicas = view.iter().flat_map(|v| &v.replicas);
            let live: Vec<&str> = replicas
                .filter(|r| r.healthy)
                .flat_map(|r| &r.addr)
                .map(|a| a.as_str())
                .collect();
            rr += 1;
            // 503 (drain/shed), 504 (scorer), 429 (admission) and transport
            // errors (killed replica) all mean: try another replica.
            let target = live.get(rr % live.len().max(1));
            match target.map(|t| kit::score(t, &q, TIMEOUT)) {
                Some(Ok(answer @ (200, _))) => {
                    let via = target.expect("answered by a target");
                    kit::assert_bits(answer, want, format!("request {i} ({q:?}) via {via}"));
                    answered = true;
                }
                _ => std::thread::sleep(Duration::from_millis(25)),
            }
        }
        assert!(
            answered,
            "request {i} never succeeded within its retry budget: availability hole"
        );
        done.fetch_add(1, Ordering::SeqCst);
        i += 1;
    }
}

pub fn run(a: &Args) {
    assert!(a.replicas >= 2, "--replicas must be >= 2 for zero-downtime");
    let _ = std::fs::remove_dir_all(&a.dir);
    std::fs::create_dir_all(&a.dir).expect("scratch dir");
    let (recipe, replicas, epochs) = (kit::tiny(a.recipe_seed), a.replicas as u64, a.epochs);

    // 1. Train fault-free, in-process, and take offline reference bits.
    let ckpt = a.dir.join("ckpt");
    let (model, sweep, offline) = kit::trained_reference(&recipe, epochs, 1, &ckpt, 18);
    let n = sweep.len();
    println!("chaos[supervise]: recipe {recipe}, {epochs} epochs, {n} sweep queries");

    // 2. Undisturbed in-process references at every thread config.
    for &workers in &a.threads {
        let store = EmbeddingStore::new(model.export_serving());
        let handle = kit::in_process_server(store, workers, None);
        let addr = handle.addr().to_string();
        for (i, q) in sweep.iter().enumerate() {
            let answer = kit::score(&addr, q, TIMEOUT).expect("undisturbed request");
            kit::assert_bits(
                answer,
                offline[i],
                format!("undisturbed server at {workers} workers, query {i}"),
            );
        }
        handle.shutdown();
        handle.join();
        println!("chaos[supervise]: undisturbed reference at {workers} workers matches offline");
    }

    // The seeded schedule, drawn whole before the fleet starts.
    let mut rng = Rng(a.seed);
    let draw = |_| match rng.below(3) {
        0 => Action::Kill(rng.below(replicas) as usize),
        1 => Action::Stop(rng.below(replicas) as usize),
        _ => Action::Roll,
    };
    let mut schedule: Vec<Action> = (0..a.events).map(draw).collect();
    schedule.push(Action::Term);
    announce("supervise", &schedule);
    let (drawn, teardown) = schedule.split_at(a.events);

    // 3. Spawn the supervisor and wait for every replica to turn healthy.
    let journal_dir = a.dir.join("journals");
    let sup_journal = a.dir.join("supervisor.jsonl");
    let (r, seed) = (a.replicas, a.seed);
    let flags = format!("supervise --recipe {recipe} --replicas {r} --seed {seed} --workers 2");
    let policy = "--restart-budget 32 --health-interval-ms 100 --health-timeout-ms 250 --unhealthy-after 3 --drain-wait-ms 8000";
    let mut cmd = kit::serve_command();
    cmd.args(flags.split(' '))
        .args(policy.split(' '))
        .arg("--ckpt")
        .arg(&ckpt);
    cmd.arg("--journal-dir")
        .arg(&journal_dir)
        .env("SITEREC_JOURNAL", &sup_journal);
    let (mut sup, sup_addr) = kit::spawn_listening(&mut cmd);
    println!("chaos[supervise]: supervisor on {sup_addr}");
    let all_healthy = |v: &SupView| v.replicas.iter().all(|r| r.healthy);
    wait_for(&sup_addr, "all replicas healthy", 90, |v| {
        v.replicas.len() == r && all_healthy(v)
    });

    // 4. Continuous traffic.
    let stop = Arc::new(AtomicBool::new(false));
    let done = Arc::new(AtomicU64::new(0));
    let traffic = {
        let (sup, sweep, offline) = (sup_addr.clone(), sweep.clone(), offline.clone());
        let (stop, done) = (stop.clone(), done.clone());
        std::thread::spawn(move || traffic_loop(&sup, &sweep, &offline, &stop, &done))
    };

    // 5. The schedule, each action driven to convergence.
    for (k, action) in drawn.iter().enumerate() {
        std::thread::sleep(Duration::from_millis(300));
        let tag = format!("supervise event {k}");
        let signalled = match *action {
            Action::Kill(r) => Some((r, SIGKILL)),
            Action::Stop(r) => Some((r, SIGSTOP)),
            _ => None,
        };
        if let Some((r, sig)) = signalled {
            let view = wait_for(&sup_addr, "target replica live", 90, |v| {
                v.live_pid(r).is_some()
            });
            let (pid, restarts) = (view.live_pid(r).expect("live"), view.replicas[r].restarts);
            fire(&tag, action);
            signal(pid, sig);
            // A stopped replica must be detected via failed health checks,
            // killed and restarted by the supervisor.
            let back = |v: &SupView| v.replicas[r].restarts > restarts && v.replicas[r].healthy;
            wait_for(&sup_addr, "signalled replica restarted healthy", 90, back);
        } else {
            let before = fetch_status(&sup_addr)
                .expect("supervisor status")
                .rolls_completed;
            fire(&tag, action);
            let roll = kit::http(&sup_addr, "POST", "/admin/roll", "", TIMEOUT);
            assert_eq!(roll.expect("roll request").0, 200, "roll request refused");
            let rolled = |v: &SupView| v.rolls_completed > before && all_healthy(v);
            wait_for(&sup_addr, "rolling restart completed", 120, rolled);
        }
        let served = done.load(Ordering::SeqCst);
        println!("chaos[{tag}]: converged ({served} requests served so far)");
    }

    // Let traffic flow over the final healthy fleet, then stop it. Joining
    // propagates any assertion failure from the traffic thread.
    std::thread::sleep(Duration::from_millis(500));
    stop.store(true, Ordering::SeqCst);
    traffic.join().expect("traffic thread must not panic");
    let served = done.load(Ordering::SeqCst);
    assert!(served > 0, "traffic thread never completed a request");
    let last = fetch_status(&sup_addr).expect("final status");
    let gave_up = last.replicas.iter().any(|r| r.gave_up);
    assert!(!gave_up, "a replica exhausted its restart budget: {last:?}");

    // 6. SIGTERM: the supervisor drains every replica and exits 0, and no
    // replica it last reported outlives it.
    fire("supervise", &teardown[0]);
    stopped_cleanly(&mut sup, &last, a.replicas, "SIGTERM", |sup| {
        signal(sup.0.id() as i32, SIGTERM)
    });
    println!("chaos[supervise]: no replica outlived the supervisor");

    // 7. Supervisor journal: every kill/stop produced unhealthy + restart +
    // spawn, every roll its drains and one roll record, the final SIGTERM
    // one more drain per replica, and nothing gave up. Each bound prints its
    // verdict, so a bound dropped from this table drops its marker line.
    let (text, stats) = kit::validated_journal(&sup_journal);
    assert!(
        stats.count("supervisor_event") > 0,
        "no supervisor_event records journaled"
    );
    let mut events = BTreeMap::<String, u64>::new();
    for v in kit::records(&text, "supervisor_event") {
        let event = v.get("event").and_then(Json::as_str).expect("named event");
        *events.entry(event.to_string()).or_default() += 1;
    }
    let count = |f: fn(&Action) -> bool| drawn.iter().filter(|a| f(a)).count() as u64;
    let kills = count(|a| matches!(a, Action::Kill(_)));
    let rolls = count(|a| *a == Action::Roll);
    let (stops, faults) = (a.events as u64 - kills - rolls, a.events as u64 - rolls);
    let bounds = [
        ("spawn", replicas + faults + rolls * replicas, false),
        ("unhealthy", faults, false),
        ("restart", faults, false),
        ("roll", rolls, true),
        ("drain", rolls * replicas + replicas, false),
        ("gave_up", 0, true),
    ];
    let schedule = format!("{kills} kills, {stops} stops, {rolls} rolls, {replicas} replicas");
    for (event, want, exact) in bounds {
        let got = events.get(event).copied().unwrap_or(0);
        let (ok, op) = if exact {
            (got == want, "==")
        } else {
            (got >= want, ">=")
        };
        assert!(ok, "{got} {event} records, want {op} {want} ({schedule})");
        println!("chaos[supervise]: journal {event} {got} {op} {want}");
    }

    // Replica journals: every one schema-valid; every graceful generation
    // carries a serve_drain record with zero abandoned jobs (the
    // zero-dropped-in-flight guarantee); the final teardown produced at
    // least one graceful drain per replica.
    let mut drained = 0usize;
    for entry in std::fs::read_dir(&journal_dir).expect("journal dir") {
        let path = entry.expect("dir entry").path();
        let (text, stats) = kit::validated_journal(&path);
        drained += usize::from(stats.count("serve_drain") > 0);
        for v in kit::records(&text, "serve_drain") {
            let abandoned = v.get("abandoned").and_then(Json::as_num).unwrap_or(-1.0);
            let shown = path.display();
            assert_eq!(
                abandoned, 0.0,
                "graceful drain abandoned queued jobs in {shown}"
            );
        }
    }
    let want = a.replicas;
    assert!(
        drained >= want,
        "only {drained} replica journals carry serve_drain (expected >= {want})"
    );

    // 8. `POST /admin/quit` ends a fresh fleet the same way.
    let mut cmd = kit::serve_command();
    cmd.args(flags.split(' ')).arg("--ckpt").arg(&ckpt);
    let (mut sup, sup_addr) = kit::spawn_listening(&mut cmd);
    let view = wait_for(&sup_addr, "second fleet healthy", 90, |v| {
        v.replicas.len() == r && all_healthy(v)
    });
    stopped_cleanly(&mut sup, &view, a.replicas, "/admin/quit", |_| {
        let quit = kit::http(&sup_addr, "POST", "/admin/quit", "", TIMEOUT);
        assert_eq!(quit.expect("quit request").0, 200, "quit request refused");
    });
    println!("chaos[supervise]: no replica outlived a quit supervisor");
    let events = a.events;
    println!("chaos[supervise]: {events} events ({schedule}), {served} client requests, {drained} graceful drains audited");
    if !a.keep {
        let _ = std::fs::remove_dir_all(&a.dir);
    }
}
