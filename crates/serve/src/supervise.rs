//! The supervision layer: `siterec-serve supervise` runs N replica servers
//! as child processes, health-checks them, restarts crashed or hung
//! replicas under a deterministic seeded backoff schedule with a bounded
//! restart budget, and performs rolling zero-downtime restarts.
//!
//! # Topology
//!
//! ```text
//!               ┌── admin listener (/healthz status JSON, /admin/roll,
//!               │                   /admin/quit)
//!  supervisor ──┤
//!               │   tick loop: try_wait (crash) + /healthz probe (hang)
//!               │        │ restart w/ seeded backoff, bounded budget
//!               ├──▶ replica 0  (siterec-serve run, ephemeral port)
//!               ├──▶ replica 1
//!               └──▶ replica N-1
//! ```
//!
//! Replicas bind ephemeral ports (`127.0.0.1:0`) — the supervisor parses
//! each child's `listening on <addr>` line, so a restarted replica never
//! races a `TIME_WAIT` socket for its old port. Clients discover the
//! current replica addresses from the supervisor's own `/healthz` JSON,
//! which lists every replica's address, pid, health and restart count.
//!
//! Every lifecycle transition is journaled as a `supervisor_event` record
//! (`spawn` / `unhealthy` / `restart` / `drain` / `gave_up` / `roll`), so
//! `siterec-ops query --type supervisor_event` replays the whole history.
//!
//! # Determinism
//!
//! Replicas serve the same recipe + checkpoint, so any replica answers any
//! query with the same bits (the serving determinism contract). Restart
//! backoff is `min(100ms << attempt, 5s)` plus a jitter drawn from a
//! splitmix64 stream seeded by `(seed, replica, attempt)` — reproducible
//! across runs with the same seed.

use crate::client::{self, Request};
use crate::http;
use crate::server::accept_or_wait;
use siterec_obs::{self as obs, json};
use std::io::{BufRead, BufReader, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// How often the supervisor's tick loop runs (crash detection latency).
const TICK: Duration = Duration::from_millis(50);

/// Backoff base doubles per attempt up to this cap.
const BACKOFF_CAP: Duration = Duration::from_secs(5);

/// Supervisor configuration (flags of `siterec-serve supervise`).
#[derive(Debug, Clone)]
pub struct SuperviseConfig {
    /// Admin bind address for the supervisor's own status endpoint
    /// (`--addr`, default `127.0.0.1:0`).
    pub addr: String,
    /// Number of replica children (`--replicas`, default 2).
    pub replicas: usize,
    /// Recipe each replica serves (`--recipe`, required).
    pub recipe: String,
    /// Checkpoint directory each replica adopts (`--ckpt`, required).
    pub ckpt: PathBuf,
    /// Seed of the deterministic backoff jitter (`--seed`, default 7).
    pub seed: u64,
    /// Restarts allowed per replica before giving up (`--restart-budget`,
    /// default 5). Rolling restarts do not count against it.
    pub restart_budget: u32,
    /// Pause between `/healthz` probes of one replica
    /// (`--health-interval-ms`, default 300).
    pub health_interval: Duration,
    /// Connect + read timeout of one probe (`--health-timeout-ms`,
    /// default 250).
    pub health_timeout: Duration,
    /// Consecutive failed probes before a replica is declared hung and
    /// killed (`--unhealthy-after`, default 3).
    pub unhealthy_after: u32,
    /// How long a drained replica gets to exit before SIGKILL
    /// (`--drain-wait-ms`, default 5000).
    pub drain_wait: Duration,
    /// How long a fresh replica gets to print its listen line and pass a
    /// probe (`--spawn-timeout-ms`, default 30000).
    pub spawn_timeout: Duration,
    /// Per-replica `--workers` override (`None` inherits the environment).
    pub workers: Option<usize>,
    /// Directory for per-replica journals (`--journal-dir`). Each spawn
    /// writes `replica-<i>-gen<g>.jsonl` so generations never clobber each
    /// other. `None` disables replica journals.
    pub journal_dir: Option<PathBuf>,
}

impl Default for SuperviseConfig {
    fn default() -> SuperviseConfig {
        SuperviseConfig {
            addr: "127.0.0.1:0".to_string(),
            replicas: 2,
            recipe: String::new(),
            ckpt: PathBuf::new(),
            seed: 7,
            restart_budget: 5,
            health_interval: Duration::from_millis(300),
            health_timeout: Duration::from_millis(250),
            unhealthy_after: 3,
            drain_wait: Duration::from_millis(5000),
            spawn_timeout: Duration::from_millis(30_000),
            workers: None,
            journal_dir: None,
        }
    }
}

/// Deterministic restart backoff: `min(100ms · 2^attempt, 5s)` plus up to
/// 100 ms of jitter drawn from `(seed, replica, attempt)`.
fn backoff(seed: u64, replica: usize, attempt: u32) -> Duration {
    let base = Duration::from_millis(100 << attempt.min(6)).min(BACKOFF_CAP);
    let jitter = obs::splitmix64(seed ^ ((replica as u64) << 32) ^ u64::from(attempt)) % 100;
    base + Duration::from_millis(jitter)
}

/// One replica child and everything the supervisor tracks about it.
struct Replica {
    index: usize,
    child: Option<Child>,
    /// Resolved once the child prints `listening on <addr>`.
    addr: Option<SocketAddr>,
    /// Carries the parsed listen address from the stdout-reader thread.
    addr_rx: Option<mpsc::Receiver<SocketAddr>>,
    pid: u32,
    spawned_at: Instant,
    generation: u32,
    restarts: u32,
    gave_up: bool,
    healthy: bool,
    consecutive_failures: u32,
    last_probe: Instant,
    /// Set while the replica waits out its backoff before a respawn.
    next_spawn_at: Option<Instant>,
}

/// State shared with the admin-listener thread.
struct AdminShared {
    quit: AtomicBool,
    roll_requested: AtomicBool,
    rolls_completed: AtomicU64,
    /// Pre-rendered `/healthz` JSON, republished on every state change.
    status: Mutex<String>,
}

struct Supervisor {
    cfg: SuperviseConfig,
    replicas: Vec<Replica>,
    shared: Arc<AdminShared>,
    rolling: bool,
}

/// Journal one `supervisor_event` record and mirror it to the log stream.
fn event(kind: &str, replica: usize, detail: &str) {
    obs::record!(
        "supervisor_event",
        event = kind,
        replica = replica as u64,
        detail = detail,
    );
    obs::counter_add("supervise.events", 1);
    obs::olog!(Debug, "supervise: replica {replica} {kind}: {detail}");
}

/// Run the supervisor until `/admin/quit`, or until `stop` is set (the
/// binary sets it on SIGTERM); either way it drains and stops every
/// replica before returning. Prints `listening on <addr>` (the
/// supervisor's own admin endpoint) once ready — orchestrators parse that
/// line, then read replica addresses from `/healthz`.
pub fn run(cfg: SuperviseConfig, stop: &AtomicBool) -> Result<(), String> {
    let listener =
        TcpListener::bind(&cfg.addr).map_err(|e| format!("supervisor bind failed: {e}"))?;
    let admin_addr = listener
        .local_addr()
        .map_err(|e| format!("supervisor addr: {e}"))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("supervisor listener: {e}"))?;
    if let Some(dir) = &cfg.journal_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("journal dir {} unusable: {e}", dir.display()))?;
    }

    let shared = Arc::new(AdminShared {
        quit: AtomicBool::new(false),
        roll_requested: AtomicBool::new(false),
        rolls_completed: AtomicU64::new(0),
        status: Mutex::new("{\"status\":\"starting\"}".to_string()),
    });
    let admin = {
        let shared = shared.clone();
        std::thread::Builder::new()
            .name("supervise-admin".to_string())
            .spawn(move || admin_loop(&shared, &listener))
            .map_err(|e| format!("admin thread: {e}"))?
    };

    let mut sup = Supervisor {
        replicas: Vec::new(),
        shared: shared.clone(),
        rolling: false,
        cfg,
    };
    for i in 0..sup.cfg.replicas.max(1) {
        let r = sup.spawn_replica(i, 0, 0)?;
        sup.replicas.push(r);
    }
    sup.publish_status();
    println!("listening on {admin_addr}");
    std::io::stdout().flush().ok();

    while !shared.quit.load(Ordering::SeqCst) {
        if stop.load(Ordering::SeqCst) {
            // The same teardown as `/admin/quit`; the flag also ends the
            // admin thread.
            shared.quit.store(true, Ordering::SeqCst);
            break;
        }
        sup.tick();
        if shared.roll_requested.swap(false, Ordering::SeqCst) {
            sup.rolling_restart();
        }
        std::thread::sleep(TICK);
    }

    // Graceful teardown: drain every replica, give each the drain window to
    // exit 0 (flushing its journal), then hard-kill stragglers.
    for i in 0..sup.replicas.len() {
        sup.drain_replica(i);
    }
    for r in &mut sup.replicas {
        if let Some(mut child) = r.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
    sup.publish_status();
    let _ = admin.join();
    Ok(())
}

/// The admin endpoint: `/healthz` serves the pre-rendered status JSON,
/// `/admin/roll` requests a rolling restart, `/admin/quit` stops the
/// supervisor (which drains its replicas on the way out).
fn admin_loop(shared: &AdminShared, listener: &TcpListener) {
    while !shared.quit.load(Ordering::SeqCst) {
        if let Some(stream) = accept_or_wait(listener, TICK) {
            let _ = serve_admin_connection(shared, stream);
        }
    }
}

fn serve_admin_connection(shared: &AdminShared, stream: TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut out = stream;
    let Some(Ok(req)) = http::read_request(&mut reader)? else {
        return Ok(());
    };
    let (status, body) = match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            let snapshot = shared
                .status
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .clone();
            (200, snapshot)
        }
        ("POST", "/admin/roll") => {
            shared.roll_requested.store(true, Ordering::SeqCst);
            (200, "{\"status\":\"rolling\"}".to_string())
        }
        ("POST", "/admin/quit") => {
            shared.quit.store(true, Ordering::SeqCst);
            (200, "{\"status\":\"stopping\"}".to_string())
        }
        (_, path) => (404, format!("{{\"error\":\"no route {path}\"}}")),
    };
    http::write_response(&mut out, status, &body, &[])
}

impl Supervisor {
    /// Spawn one replica child: `siterec-serve run` on an ephemeral port,
    /// stdout piped through a reader thread that reports the parsed listen
    /// address and then drains the pipe (so the child never blocks on a
    /// full pipe).
    fn spawn_replica(
        &self,
        index: usize,
        generation: u32,
        restarts: u32,
    ) -> Result<Replica, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.arg("run")
            .arg("--recipe")
            .arg(&self.cfg.recipe)
            .arg("--ckpt")
            .arg(&self.cfg.ckpt)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        if let Some(w) = self.cfg.workers {
            cmd.arg("--workers").arg(w.to_string());
        }
        // Children must never inherit the supervisor's own journal path —
        // every replica would clobber the same file. Each generation gets
        // its own journal (or none).
        cmd.env_remove("SITEREC_JOURNAL");
        if let Some(dir) = &self.cfg.journal_dir {
            cmd.env(
                "SITEREC_JOURNAL",
                dir.join(format!("replica-{index}-gen{generation}.jsonl")),
            );
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("replica {index} spawn failed: {e}"))?;
        let pid = child.id();
        let stdout = child.stdout.take().expect("stdout piped");
        let (tx, rx) = mpsc::channel();
        std::thread::Builder::new()
            .name(format!("replica-{index}-stdout"))
            .spawn(move || {
                let mut lines = BufReader::new(stdout).lines();
                for line in &mut lines {
                    let Ok(line) = line else { return };
                    if let Some(addr) = line.strip_prefix("listening on ") {
                        if let Ok(addr) = addr.trim().parse::<SocketAddr>() {
                            let _ = tx.send(addr);
                        }
                        break;
                    }
                }
                // Drain the rest so the child never blocks writing stdout.
                for line in lines {
                    if line.is_err() {
                        return;
                    }
                }
            })
            .map_err(|e| format!("stdout reader: {e}"))?;
        event(
            "spawn",
            index,
            &format!("pid {pid} generation {generation}"),
        );
        Ok(Replica {
            index,
            child: Some(child),
            addr: None,
            addr_rx: Some(rx),
            pid,
            spawned_at: Instant::now(),
            generation,
            restarts,
            gave_up: false,
            healthy: false,
            consecutive_failures: 0,
            last_probe: Instant::now(),
            next_spawn_at: None,
        })
    }

    /// One pass over every replica: adopt freshly parsed listen addresses,
    /// detect crashes via `try_wait`, probe `/healthz` for hangs, restart
    /// under the backoff schedule, give up past the budget.
    fn tick(&mut self) {
        let mut changed = false;
        for i in 0..self.replicas.len() {
            changed |= self.tick_replica(i);
        }
        if changed {
            self.publish_status();
        }
    }

    fn tick_replica(&mut self, i: usize) -> bool {
        let mut changed = false;
        // Waiting out a backoff?
        if let Some(at) = self.replicas[i].next_spawn_at {
            if Instant::now() >= at {
                let (index, generation, restarts) = {
                    let r = &self.replicas[i];
                    (r.index, r.generation + 1, r.restarts)
                };
                match self.spawn_replica(index, generation, restarts) {
                    Ok(r) => self.replicas[i] = r,
                    Err(e) => {
                        // Spawn itself failed (fork limits, missing exe):
                        // burn one budget slot and back off again.
                        self.schedule_restart(i, &format!("spawn failed: {e}"));
                    }
                }
                changed = true;
            }
            return changed;
        }
        if self.replicas[i].gave_up {
            return false;
        }

        // Adopt the parsed listen address once the reader thread sends it.
        if self.replicas[i].addr.is_none() {
            if let Some(rx) = &self.replicas[i].addr_rx {
                if let Ok(addr) = rx.try_recv() {
                    self.replicas[i].addr = Some(addr);
                    self.replicas[i].addr_rx = None;
                    changed = true;
                }
            }
        }

        // Crash detection.
        let exited = self.replicas[i]
            .child
            .as_mut()
            .and_then(|c| c.try_wait().ok().flatten());
        if let Some(status) = exited {
            self.replicas[i].child = None;
            self.replicas[i].healthy = false;
            self.schedule_restart(i, &format!("exited with {status}"));
            return true;
        }

        // Startup deadline: no listen line yet.
        if self.replicas[i].addr.is_none() {
            if self.replicas[i].spawned_at.elapsed() > self.cfg.spawn_timeout {
                self.kill_child(i);
                self.schedule_restart(i, "no listen line before spawn timeout");
                return true;
            }
            return changed;
        }

        // Hang detection: periodic /healthz probe.
        if self.replicas[i].last_probe.elapsed() >= self.cfg.health_interval {
            self.replicas[i].last_probe = Instant::now();
            let addr = self.replicas[i].addr.expect("checked above");
            let ok = probe_healthz(addr, self.cfg.health_timeout);
            let r = &mut self.replicas[i];
            if ok {
                changed |= !r.healthy;
                r.healthy = true;
                r.consecutive_failures = 0;
            } else {
                r.healthy = false;
                r.consecutive_failures += 1;
                changed = true;
                if r.consecutive_failures >= self.cfg.unhealthy_after {
                    let n = r.consecutive_failures;
                    self.kill_child(i);
                    self.schedule_restart(i, &format!("{n} consecutive failed health checks"));
                }
            }
        }
        changed
    }

    fn kill_child(&mut self, i: usize) {
        if let Some(mut child) = self.replicas[i].child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        self.replicas[i].healthy = false;
    }

    /// Declare the replica unhealthy and either schedule a backoff respawn
    /// or give up when the restart budget is spent.
    fn schedule_restart(&mut self, i: usize, reason: &str) {
        let index = self.replicas[i].index;
        event("unhealthy", index, reason);
        let r = &mut self.replicas[i];
        if r.restarts >= self.cfg.restart_budget {
            r.gave_up = true;
            r.next_spawn_at = None;
            event(
                "gave_up",
                index,
                &format!("restart budget of {} exhausted", self.cfg.restart_budget),
            );
            return;
        }
        let attempt = r.restarts;
        r.restarts += 1;
        let wait = backoff(self.cfg.seed, index, attempt);
        r.next_spawn_at = Some(Instant::now() + wait);
        r.healthy = false;
        event(
            "restart",
            index,
            &format!("attempt {} backoff {}ms", attempt + 1, wait.as_millis()),
        );
    }

    /// Drain one replica and wait (up to `drain_wait`) for it to exit on
    /// its own — the graceful path flushes the replica's journal. Returns
    /// whether the child exited by itself.
    fn drain_replica(&mut self, i: usize) -> bool {
        let index = self.replicas[i].index;
        let Some(addr) = self.replicas[i].addr else {
            return false;
        };
        if self.replicas[i].child.is_none() {
            return false;
        }
        event("drain", index, &format!("draining {addr}"));
        let drain = Request::new("POST", "/admin/drain", "");
        let _ = client::send(&addr.to_string(), &drain, self.cfg.health_timeout);
        let deadline = Instant::now() + self.cfg.drain_wait;
        while Instant::now() < deadline {
            if let Some(child) = self.replicas[i].child.as_mut() {
                match child.try_wait() {
                    Ok(Some(_)) => {
                        self.replicas[i].child = None;
                        self.replicas[i].healthy = false;
                        return true;
                    }
                    Ok(None) => std::thread::sleep(TICK),
                    Err(_) => break,
                }
            }
        }
        self.kill_child(i);
        false
    }

    /// Rolling zero-downtime restart: for each replica in index order,
    /// drain it, respawn a fresh generation, wait for it to turn healthy,
    /// then move on. Rolling respawns never touch the restart budget —
    /// they are operator intent, not failures.
    fn rolling_restart(&mut self) {
        self.rolling = true;
        self.publish_status();
        for i in 0..self.replicas.len() {
            if self.replicas[i].gave_up || self.replicas[i].child.is_none() {
                continue;
            }
            self.drain_replica(i);
            let (index, generation, restarts) = {
                let r = &self.replicas[i];
                (r.index, r.generation + 1, r.restarts)
            };
            match self.spawn_replica(index, generation, restarts) {
                Ok(r) => self.replicas[i] = r,
                Err(e) => {
                    self.schedule_restart(i, &format!("roll respawn failed: {e}"));
                    continue;
                }
            }
            self.publish_status();
            // Wait until the fresh generation answers /healthz before
            // touching the next replica — that is the zero-downtime
            // guarantee (N-1 replicas stay live throughout).
            let deadline = Instant::now() + self.cfg.spawn_timeout;
            while Instant::now() < deadline {
                self.tick_replica(i);
                self.publish_status();
                if self.replicas[i].healthy {
                    break;
                }
                std::thread::sleep(TICK);
            }
        }
        self.rolling = false;
        self.shared.rolls_completed.fetch_add(1, Ordering::SeqCst);
        event(
            "roll",
            0,
            &format!(
                "rolling restart of {} replicas complete",
                self.replicas.len()
            ),
        );
        self.publish_status();
    }

    /// Re-render the `/healthz` JSON the admin thread serves.
    fn publish_status(&self) {
        let mut b = String::from("{\"status\":\"ok\",\"replicas\":[");
        for (i, r) in self.replicas.iter().enumerate() {
            if i > 0 {
                b.push(',');
            }
            b.push_str(&format!(
                "{{\"index\":{},\"addr\":{},\"pid\":{},\"healthy\":{},\"restarts\":{},\"gave_up\":{}}}",
                r.index,
                match r.addr {
                    Some(a) if r.child.is_some() => {
                        let mut s = String::new();
                        json::write_escaped(&mut s, &a.to_string());
                        s
                    }
                    _ => "null".to_string(),
                },
                r.pid,
                r.child.is_some() && r.healthy,
                r.restarts,
                r.gave_up,
            ));
        }
        b.push_str(&format!(
            "],\"rolling\":{},\"rolls_completed\":{}}}",
            self.rolling,
            self.shared.rolls_completed.load(Ordering::SeqCst)
        ));
        *self.shared.status.lock().unwrap_or_else(|e| e.into_inner()) = b;
    }
}

/// One `GET /healthz` probe with a connect timeout: any 200 counts as
/// healthy (a degraded replica still serves; a draining one is about to
/// exit, but it answers 200 and the exit is picked up by `try_wait`).
fn probe_healthz(addr: SocketAddr, timeout: Duration) -> bool {
    let probe = Request::new("GET", "/healthz", "");
    let resp = client::send(&addr.to_string(), &probe, timeout);
    resp.is_ok_and(|r| r.status == 200)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        for replica in 0..4 {
            for attempt in 0..10 {
                let a = backoff(42, replica, attempt);
                let b = backoff(42, replica, attempt);
                assert_eq!(a, b, "same (seed, replica, attempt) must agree");
                assert!(a >= Duration::from_millis(100));
                assert!(a <= BACKOFF_CAP + Duration::from_millis(100));
            }
        }
        // Different seeds shift the jitter.
        assert_ne!(backoff(1, 0, 3), backoff(2, 0, 3));
        // Doubling: attempt 2's base is 4x attempt 0's.
        assert!(backoff(7, 0, 2) >= Duration::from_millis(400));
        // The seeded schedule itself is pinned: base + jitter in ms.
        assert_eq!(backoff(7, 0, 0), Duration::from_millis(100 + 87));
        assert_eq!(backoff(7, 1, 3), Duration::from_millis(800 + 69));
        assert_eq!(backoff(42, 2, 9), BACKOFF_CAP + Duration::from_millis(4));
    }
}
