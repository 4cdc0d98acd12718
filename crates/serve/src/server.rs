//! The thread-per-core HTTP/1.1 + JSONL serving loop: accept workers, a
//! bounded job queue feeding a batching scorer, the LRU score cache, load
//! shedding and live checkpoint reload.
//!
//! # Data flow
//!
//! ```text
//! client ──HTTP──▶ worker 0..N  ──cache probe──▶ hit: answer immediately
//!                     │                          miss: job ─▶ bounded queue
//!                     │ queue full: 503 + Retry-After (load shed)
//!                     ▼
//!               batching scorer ── drains ≤ batch jobs ──▶ EmbeddingStore
//!                     │                                        ▲
//!                     └── scores ─▶ cache fill + reply      reload swaps
//!                                                           (stale store
//!                                                            serves until
//!                                                            swap lands)
//! ```
//!
//! # Determinism
//!
//! Identical checkpoint + identical request → bit-identical scores at any
//! worker count: scoring runs through [`EmbeddingStore::score_batch`], whose
//! bits are invariant to batch composition and thread count, and the cache
//! stores the exact `f32` the scorer produced. Worker count, queue depth and
//! batch size only change *when* a score is computed, never its value.

use crate::cache::{ScoreCache, DEFAULT_CACHE_CAP};
use crate::http::{self, Request};
use crate::store::{EmbeddingStore, Query};
use siterec_geo::Period;
use siterec_obs::{self as obs, json, json::Json};
use std::collections::VecDeque;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Timeout of the scorer's condvar wait and of an idle accept worker's
/// readiness wait on the listener, and so the upper bound on how long an
/// idle server takes to notice a stop or drain. Neither wait adds latency
/// to work: every enqueue wakes the scorer, and a connecting client wakes
/// an accept worker.
const POLL: Duration = Duration::from_millis(20);

/// Server configuration, assembled from defaults, `SITEREC_SERVE_*`
/// environment knobs, and command-line overrides (in that order).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Accept/parse worker threads (`SITEREC_SERVE_WORKERS`, default:
    /// available cores).
    pub workers: usize,
    /// Bounded job-queue capacity; a full queue sheds load with 503
    /// (`SITEREC_SERVE_QUEUE`, default 1024).
    pub queue_cap: usize,
    /// Most queries the scorer drains into one scoring batch
    /// (`SITEREC_SERVE_BATCH`, default 64).
    pub max_batch: usize,
    /// LRU score-cache capacity (`SITEREC_SERVE_CACHE`, default 4096).
    pub cache_cap: usize,
    /// Exit after this many scoring requests (`--max-requests`; tests and
    /// CI use it for a graceful, journal-flushing shutdown).
    pub max_requests: Option<u64>,
    /// How long a worker waits for the scorer before answering 504
    /// (`SITEREC_SERVE_SCORE_TIMEOUT_MS`, default 30 000 ms — covers scorer
    /// scheduling, not model math, so it is generous).
    pub score_timeout: Duration,
    /// Per-connection socket read timeout, which is also the idle
    /// keep-alive poll interval for the shutdown flag
    /// (`SITEREC_SERVE_READ_TIMEOUT_MS`, default 500 ms).
    pub read_timeout: Duration,
    /// How long a drain waits for already-queued jobs before abandoning the
    /// rest (`SITEREC_SERVE_DRAIN_TIMEOUT_MS`, default 5 000 ms).
    pub drain_timeout: Duration,
    /// Most simultaneously handled connections; excess connections are
    /// answered 429 + Retry-After and closed (`SITEREC_SERVE_MAX_CONNS`,
    /// default 256). Each accept worker drives one connection at a time, so
    /// the cap only bites when set below the worker count.
    pub max_conns: usize,
    /// Per-connection token-bucket refill rate, in scoring requests per
    /// second; `0` disables rate limiting (`SITEREC_SERVE_RATE`, default 0).
    pub rate: f64,
    /// Token-bucket burst capacity (`SITEREC_SERVE_BURST`; defaults to the
    /// refill rate, minimum 1).
    pub burst: f64,
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default)
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|v| v.is_finite() && *v >= 0.0)
        .unwrap_or(default)
}

fn env_ms(name: &str, default_ms: u64) -> Duration {
    Duration::from_millis(
        std::env::var(name)
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .filter(|&v| v > 0)
            .unwrap_or(default_ms),
    )
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig::from_env()
    }
}

impl ServeConfig {
    /// Defaults with every `SITEREC_SERVE_*` environment knob applied.
    pub fn from_env() -> ServeConfig {
        let rate = env_f64("SITEREC_SERVE_RATE", 0.0);
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: env_usize(
                "SITEREC_SERVE_WORKERS",
                std::thread::available_parallelism().map_or(1, |n| n.get()),
            ),
            queue_cap: env_usize("SITEREC_SERVE_QUEUE", 1024),
            max_batch: env_usize("SITEREC_SERVE_BATCH", 64),
            cache_cap: env_usize("SITEREC_SERVE_CACHE", DEFAULT_CACHE_CAP),
            max_requests: None,
            score_timeout: env_ms("SITEREC_SERVE_SCORE_TIMEOUT_MS", 30_000),
            read_timeout: env_ms("SITEREC_SERVE_READ_TIMEOUT_MS", 500),
            drain_timeout: env_ms("SITEREC_SERVE_DRAIN_TIMEOUT_MS", 5_000),
            max_conns: env_usize("SITEREC_SERVE_MAX_CONNS", 256),
            rate,
            burst: env_f64("SITEREC_SERVE_BURST", rate.max(1.0)),
        }
    }
}

/// Rebuilds a fresh [`EmbeddingStore`] for `/admin/reload` (the binary wires
/// this to a checkpoint-directory re-read; in-process servers may omit it).
pub type Reloader = Box<dyn Fn() -> Result<EmbeddingStore, String> + Send + Sync>;

/// Phase decomposition of one served request, in nanoseconds. Phases a
/// request never enters (queue wait on a full cache hit, scoring on an
/// admin endpoint) stay 0. Purely observational: phases are measured around
/// the existing work, never alter it, and feed the `serve_trace` journal
/// record plus the per-phase histograms behind `/metrics`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    /// Body parsing and query validation on the accept worker.
    pub parse_ns: u64,
    /// Longest time any of the request's jobs sat in the bounded queue
    /// before a scorer drain picked it up.
    pub queue_ns: u64,
    /// Scorer-side batch assembly (drain → query vector + store handle) for
    /// the slowest batch that carried one of this request's jobs.
    pub batch_ns: u64,
    /// `EmbeddingStore::score_batch` wall time for that batch.
    pub score_ns: u64,
    /// Response-body serialization back on the accept worker.
    pub serialize_ns: u64,
}

/// Phase labels, index-aligned with [`Metrics::phases`] and
/// [`Phases::as_array`].
const PHASE_NAMES: [&str; 5] = [
    "parse",
    "queue_wait",
    "batch_assembly",
    "score",
    "serialize",
];

impl Phases {
    fn as_array(&self) -> [u64; 5] {
        [
            self.parse_ns,
            self.queue_ns,
            self.batch_ns,
            self.score_ns,
            self.serialize_ns,
        ]
    }
}

/// One queued scoring job: the query plus the reply slot it fills and the
/// enqueue instant its queue-wait phase is measured from.
struct Job {
    query: Query,
    slot: usize,
    enqueued: Instant,
    tx: mpsc::Sender<Reply>,
}

/// The scorer's answer to one job: the score plus the scorer-side phase
/// timings of the batch that carried it.
struct Reply {
    slot: usize,
    score: f32,
    queue_ns: u64,
    batch_ns: u64,
    score_ns: u64,
}

/// Bounded MPMC job queue (mutex + condvar; `push` never blocks — a full
/// queue is the load-shedding signal).
struct JobQueue {
    inner: Mutex<VecDeque<Job>>,
    cv: Condvar,
    cap: usize,
}

impl JobQueue {
    fn new(cap: usize) -> JobQueue {
        JobQueue {
            inner: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            cap,
        }
    }

    /// Enqueue unless full. `Err` returns the job to the caller (who sheds).
    fn push(&self, job: Job) -> Result<(), Job> {
        let mut q = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if q.len() >= self.cap {
            return Err(job);
        }
        q.push_back(job);
        drop(q);
        self.cv.notify_one();
        Ok(())
    }

    /// Drain up to `max` jobs, waiting up to [`POLL`] when empty.
    fn pop_batch(&self, max: usize) -> Vec<Job> {
        let mut q = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if q.is_empty() {
            let (guard, _) = self
                .cv
                .wait_timeout(q, POLL)
                .unwrap_or_else(|e| e.into_inner());
            q = guard;
        }
        let n = q.len().min(max);
        q.drain(..n).collect()
    }

    /// Current queue depth (the `/metrics` gauge).
    fn depth(&self) -> usize {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Drop every queued job, returning how many were discarded. Dropping a
    /// job disconnects its reply channel, so the waiting worker answers 504.
    fn clear(&self) -> usize {
        let mut q = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let n = q.len();
        q.clear();
        n
    }
}

/// Per-connection token bucket: `rate` tokens/s refill up to `burst`, one
/// token per scoring request. `rate == 0` disables the limit. Local to a
/// connection, so no locking — a keep-alive client hammering one socket is
/// throttled without coordinating across workers.
struct TokenBucket {
    tokens: f64,
    last: Instant,
    rate: f64,
    burst: f64,
}

impl TokenBucket {
    fn new(rate: f64, burst: f64) -> TokenBucket {
        TokenBucket {
            tokens: burst,
            last: Instant::now(),
            rate,
            burst,
        }
    }

    /// Take one token; `Err(retry_after_secs)` when the bucket is empty.
    fn take(&mut self) -> Result<(), u64> {
        if self.rate <= 0.0 {
            return Ok(());
        }
        let now = Instant::now();
        self.tokens =
            (self.tokens + now.duration_since(self.last).as_secs_f64() * self.rate).min(self.burst);
        self.last = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            Ok(())
        } else {
            Err((((1.0 - self.tokens) / self.rate).ceil() as u64).max(1))
        }
    }
}

/// Decrements an atomic gauge on drop, so inflight accounting survives
/// early returns and I/O errors.
struct GaugeGuard<'a>(&'a AtomicU64);

impl Drop for GaugeGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Per-endpoint latency histogram plus the server-wide counters backing
/// `/metrics`.
struct Metrics {
    start: Instant,
    requests: AtomicU64,
    scored: AtomicU64,
    shed: AtomicU64,
    errors: AtomicU64,
    reloads: AtomicU64,
    timeouts: AtomicU64,
    rate_limited: AtomicU64,
    conns_rejected: AtomicU64,
    score_lat: Mutex<obs::Histogram>,
    recommend_lat: Mutex<obs::Histogram>,
    /// Per-phase nanosecond histograms, index-aligned with [`PHASE_NAMES`].
    phases: Mutex<[obs::Histogram; 5]>,
}

impl Metrics {
    fn new() -> Metrics {
        Metrics {
            start: Instant::now(),
            requests: AtomicU64::new(0),
            scored: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            reloads: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            rate_limited: AtomicU64::new(0),
            conns_rejected: AtomicU64::new(0),
            score_lat: Mutex::new(obs::Histogram::default()),
            recommend_lat: Mutex::new(obs::Histogram::default()),
            phases: Mutex::new(Default::default()),
        }
    }

    /// Fold one request's phase decomposition into the per-phase histograms
    /// (zero-valued phases are skipped: a request that never queued should
    /// not drag the queue-wait distribution toward zero).
    fn observe_phases(&self, p: &Phases) {
        let mut hists = self.phases.lock().unwrap_or_else(|e| e.into_inner());
        for (h, v) in hists.iter_mut().zip(p.as_array()) {
            if v > 0 {
                h.record(v as f64);
            }
        }
    }
}

struct Shared {
    cfg: ServeConfig,
    store: RwLock<Arc<EmbeddingStore>>,
    cache: Mutex<ScoreCache>,
    queue: JobQueue,
    metrics: Metrics,
    reloader: Option<Reloader>,
    shutdown: AtomicBool,
    serve_requests: AtomicU64,
    /// `Some(reason)` while the server is degraded: the last reload failed
    /// and the (stale but consistent) previous store is still serving.
    /// Cleared by the next successful reload.
    degraded: Mutex<Option<String>>,
    /// Set once by [`Shared::begin_drain`]; never cleared — a drain ends in
    /// process exit.
    draining: AtomicBool,
    /// `(started, deadline)` of the drain, set exactly once with `draining`.
    drain_state: Mutex<Option<(Instant, Instant)>>,
    /// Scoring requests finished (200) after the drain began.
    drain_completed: AtomicU64,
    /// Scoring requests refused 503 because the server was draining.
    drain_refused: AtomicU64,
    /// Scoring requests between dispatch entry and response assembly. The
    /// increment happens *before* the draining check, so the scorer's
    /// "queue empty && inflight == 0" drain-finalization test can never race
    /// past a worker that is about to enqueue (SeqCst total order: if the
    /// scorer read 0, the worker's later draining check must see `true` and
    /// refuse instead of enqueueing).
    inflight_score: AtomicU64,
    /// Connections currently owned by accept workers (the `/metrics` gauge
    /// and the `max_conns` admission check).
    inflight_conns: AtomicU64,
}

impl Shared {
    fn current_store(&self) -> Arc<EmbeddingStore> {
        self.store.read().unwrap_or_else(|e| e.into_inner()).clone()
    }

    fn degraded_reason(&self) -> Option<String> {
        self.degraded
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Enter degraded mode: record the reason for `/healthz`, journal a
    /// `serve_degraded` record and tick the `serve.degraded` counter. Each
    /// failed reload journals its own record — every one is an incident an
    /// operator may need to line up with the failure cause.
    fn enter_degraded(&self, reason: String) {
        obs::record!("serve_degraded", reason = reason.as_str());
        obs::counter_add("serve.degraded", 1);
        obs::olog!(Summary, "serve: degraded: {reason}");
        *self.degraded.lock().unwrap_or_else(|e| e.into_inner()) = Some(reason);
    }

    /// Leave degraded mode (no-op when healthy). The successful reload that
    /// triggers this journals its own `serve_reload` record, which is the
    /// recovery marker in the journal.
    fn clear_degraded(&self) {
        let was = self
            .degraded
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        if let Some(reason) = was {
            obs::olog!(Summary, "serve: recovered from degraded state ({reason})");
        }
    }

    fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue.cv.notify_all();
    }

    fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Flip into draining mode (idempotent): accept workers stop accepting,
    /// new scoring requests are refused 503 + Retry-After, and the scorer
    /// finalizes once every already-queued job is answered (or the deadline
    /// passes). Ends in [`Shared::stop`] via [`Shared::finish_drain`].
    fn begin_drain(&self) {
        let mut st = self.drain_state.lock().unwrap_or_else(|e| e.into_inner());
        if st.is_none() {
            let now = Instant::now();
            *st = Some((now, now + self.cfg.drain_timeout));
            self.draining.store(true, Ordering::SeqCst);
            obs::olog!(
                Summary,
                "serve: draining (deadline {:?})",
                self.cfg.drain_timeout
            );
            self.queue.cv.notify_all();
        }
    }

    fn drain_deadline_passed(&self) -> bool {
        self.drain_state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_some_and(|(_, deadline)| Instant::now() >= deadline)
    }

    /// Finalize the drain (called by the scorer exactly once): journal the
    /// `serve_drain` outcome, then request shutdown so `join` returns and
    /// the process can flush its journal and exit 0.
    fn finish_drain(&self, abandoned: u64) {
        let started = self
            .drain_state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .map(|(s, _)| s);
        let dur_ns = started.map_or(0, |s| s.elapsed().as_nanos() as u64);
        let completed = self.drain_completed.load(Ordering::SeqCst);
        let refused = self.drain_refused.load(Ordering::SeqCst);
        obs::record!(
            "serve_drain",
            completed = completed,
            refused = refused,
            abandoned = abandoned,
            dur_ns = dur_ns,
        );
        obs::counter_add("serve.drained", 1);
        obs::olog!(
            Summary,
            "serve: drain finished ({completed} completed, {refused} refused, {abandoned} abandoned)"
        );
        self.stop();
    }
}

/// A running server: its bound address plus the handles needed to stop it.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

/// A cloneable remote control for a running server, detached from the
/// [`ServerHandle`] so a signal-watcher thread can drain or stop the server
/// while the main thread owns the handle and blocks in
/// [`ServerHandle::join`].
#[derive(Clone)]
pub struct ServeController {
    shared: Arc<Shared>,
}

impl ServeController {
    /// Begin a graceful drain (idempotent): refuse new work 503, finish
    /// queued jobs within the drain deadline, then stop.
    pub fn drain(&self) {
        self.shared.begin_drain();
    }

    /// Hard stop without draining (idempotent).
    pub fn stop(&self) {
        self.shared.stop();
    }
}

impl ServerHandle {
    /// The address the server actually bound (resolves `:0` requests).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A detached controller for drain/stop from other threads.
    pub fn controller(&self) -> ServeController {
        ServeController {
            shared: self.shared.clone(),
        }
    }

    /// Ask every thread to stop (idempotent; threads notice within one poll
    /// interval).
    pub fn shutdown(&self) {
        self.shared.stop();
    }

    /// True once shutdown was requested (by [`Self::shutdown`], an
    /// `/admin/quit`, or the `max_requests` budget running out).
    pub fn is_stopping(&self) -> bool {
        self.shared.stopping()
    }

    /// Block until every worker and the scorer exit. Call
    /// [`Self::shutdown`] first (or rely on `/admin/quit` / `max_requests`).
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// Start the server: bind `cfg.addr`, spawn `cfg.workers` accept workers
/// plus the batching scorer, and return immediately.
pub fn start(
    store: EmbeddingStore,
    cfg: ServeConfig,
    reloader: Option<Reloader>,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let shared = Arc::new(Shared {
        cache: Mutex::new(ScoreCache::new(cfg.cache_cap)),
        queue: JobQueue::new(cfg.queue_cap),
        metrics: Metrics::new(),
        store: RwLock::new(Arc::new(store)),
        reloader,
        shutdown: AtomicBool::new(false),
        serve_requests: AtomicU64::new(0),
        degraded: Mutex::new(None),
        draining: AtomicBool::new(false),
        drain_state: Mutex::new(None),
        drain_completed: AtomicU64::new(0),
        drain_refused: AtomicU64::new(0),
        inflight_score: AtomicU64::new(0),
        inflight_conns: AtomicU64::new(0),
        cfg,
    });
    let mut threads = Vec::new();
    for worker in 0..shared.cfg.workers.max(1) {
        let sh = shared.clone();
        let ln = listener.try_clone()?;
        threads.push(
            std::thread::Builder::new()
                .name(format!("serve-worker-{worker}"))
                .spawn(move || accept_loop(&sh, &ln))?,
        );
    }
    let sh = shared.clone();
    threads.push(
        std::thread::Builder::new()
            .name("serve-scorer".to_string())
            .spawn(move || scorer_loop(&sh))?,
    );
    Ok(ServerHandle {
        addr,
        shared,
        threads,
    })
}

fn accept_loop(sh: &Shared, listener: &TcpListener) {
    // A draining server accepts no new connections: workers fall out of the
    // accept loop (the last one drops the listener, closing the socket) and
    // any connection already being handled finishes its current request.
    while !sh.stopping() && !sh.draining() {
        if let Some(stream) = accept_or_wait(listener, POLL) {
            let _ = handle_connection(sh, stream);
        }
    }
}

/// One step of an accept loop on a non-blocking listener: the next waiting
/// connection, or `None` once `timeout` has passed without one (or a wait
/// was cut short by a signal), so the caller can re-check its stop flags
/// before it accepts again.
pub(crate) fn accept_or_wait(listener: &TcpListener, timeout: Duration) -> Option<TcpStream> {
    match listener.accept() {
        Ok((stream, _)) => Some(stream),
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
            wait_readable(listener, timeout);
            None
        }
        // A failing accept (out of file descriptors, say) leaves the
        // listener readable, so a readiness wait would spin: back off.
        Err(_) => {
            std::thread::sleep(timeout);
            None
        }
    }
}

/// Block until `listener` has a connection waiting or `timeout` passes.
/// An interrupted or failed `poll(2)` simply returns early.
#[cfg(unix)]
fn wait_readable(listener: &TcpListener, timeout: Duration) {
    use std::ffi::{c_int, c_short, c_ulong};
    use std::os::unix::io::AsRawFd;

    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }
    const POLLIN: c_short = 0x1;

    // `nfds_t` is `unsigned long` in glibc and musl.
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout_ms: c_int) -> c_int;
    }

    let mut fd = PollFd {
        fd: listener.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let timeout_ms = c_int::try_from(timeout.as_millis()).unwrap_or(c_int::MAX);
    // SAFETY: one valid `pollfd` that outlives the call; the fd stays open
    // because `listener` is borrowed for the duration.
    unsafe {
        poll(&mut fd, 1, timeout_ms);
    }
}

/// Platforms without `poll(2)`: wait out a short slice of `timeout`.
#[cfg(not(unix))]
fn wait_readable(_listener: &TcpListener, timeout: Duration) {
    std::thread::sleep(timeout.min(Duration::from_millis(1)));
}

/// The batching scorer: drains up to `max_batch` jobs, scores them in one
/// [`EmbeddingStore::score_batch`] pass against the current store, fills the
/// cache and answers every job.
fn scorer_loop(sh: &Shared) {
    loop {
        let batch = sh.queue.pop_batch(sh.cfg.max_batch);
        if sh.draining() && sh.drain_deadline_passed() {
            // Deadline: whatever is still queued (this batch included) is
            // abandoned — dropping the jobs disconnects their reply
            // channels, so the waiting workers answer 504 and their clients
            // retry elsewhere.
            let abandoned = batch.len() as u64 + sh.queue.clear() as u64;
            sh.finish_drain(abandoned);
            return;
        }
        if batch.is_empty() {
            if sh.stopping() {
                return;
            }
            // Drain finalization: nothing queued and no worker between
            // dispatch entry and response assembly means every accepted
            // scoring request has been answered.
            if sh.draining() && sh.inflight_score.load(Ordering::SeqCst) == 0 {
                sh.finish_drain(0);
                return;
            }
            continue;
        }
        // The `serve.score` failpoint models a stalled/crashed scorer pass:
        // the batch is dropped without replying, so every waiting worker
        // sees its channel disconnect and answers 504 (any armed mode).
        // Dropped queries were never cached, so client retries re-score
        // them — same bits, by the determinism contract.
        if obs::failpoint::check("serve.score").is_some() {
            obs::counter_add("serve.score.dropped", batch.len() as u64);
            continue;
        }
        // Phase seams: queue wait ends when the drain lands, batch assembly
        // covers building the query vector + store handle, scoring is the
        // `score_batch` call itself. Timing is taken around the existing
        // work — batch composition and score bits are untouched by it.
        let t_drained = Instant::now();
        let store = sh.current_store();
        let queries: Vec<Query> = batch.iter().map(|j| j.query).collect();
        let batch_ns = t_drained.elapsed().as_nanos() as u64;
        let t_score = Instant::now();
        let scores = store.score_batch(&queries);
        let score_ns = t_score.elapsed().as_nanos() as u64;
        {
            let mut cache = sh.cache.lock().unwrap_or_else(|e| e.into_inner());
            for (job, &score) in batch.iter().zip(&scores) {
                cache.put(job.query, score);
            }
        }
        for (job, score) in batch.into_iter().zip(scores) {
            let queue_ns = t_drained.saturating_duration_since(job.enqueued).as_nanos() as u64;
            // A dead receiver only means the requesting worker timed out.
            let _ = job.tx.send(Reply {
                slot: job.slot,
                score,
                queue_ns,
                batch_ns,
                score_ns,
            });
        }
    }
}

fn handle_connection(sh: &Shared, stream: TcpStream) -> io::Result<()> {
    // Admission check first: over the connection cap, the client gets an
    // immediate 429 + Retry-After and the socket closes without the worker
    // reading a byte (reading could stall on a slow client, which is
    // exactly the resource the cap protects).
    let inflight = sh.inflight_conns.fetch_add(1, Ordering::SeqCst) + 1;
    let _conn_gauge = GaugeGuard(&sh.inflight_conns);
    if inflight as usize > sh.cfg.max_conns {
        sh.metrics.conns_rejected.fetch_add(1, Ordering::Relaxed);
        obs::counter_add("serve.conns_rejected", 1);
        let mut out = stream;
        return http::write_response(
            &mut out,
            429,
            &error_body("connection limit reached; retry shortly"),
            &[("Retry-After", "1".to_string())],
        );
    }
    let mut bucket = TokenBucket::new(sh.cfg.rate, sh.cfg.burst);
    stream.set_read_timeout(Some(sh.cfg.read_timeout))?;
    // Each response leaves in one write; with Nagle off it is sent at once
    // instead of waiting for the client to ACK the previous one.
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut out = stream;
    loop {
        let req = match http::read_request(&mut reader) {
            Ok(None) => return Ok(()),
            Ok(Some(Ok(req))) => req,
            Ok(Some(Err(e))) => {
                let body = error_body(&e.message);
                http::write_response(&mut out, e.status, &body, &[])?;
                return Ok(());
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // Idle keep-alive connection: poll the shutdown/drain flags.
                if sh.stopping() || sh.draining() {
                    return Ok(());
                }
                continue;
            }
            Err(e) => return Err(e),
        };
        // Whether a drain ends this connection is settled now, before the
        // response leaves: a drain that begins once the client has its
        // answer must not close the socket under the client's next request.
        // That request is read and refused with 503 instead, or the idle
        // poll above closes the connection.
        let close = req.wants_close() || sh.stopping() || sh.draining();
        let scoring = is_scoring_endpoint(http::split_path_query(&req.path).0);
        // Causal tracing: adopt the client's `X-Request-Id` or mint one, and
        // decide *now* (deterministic arrival-order counter, never wall
        // clock) whether this request is trace-sampled. The id is echoed on
        // every response so a client error message names a journal record.
        let rid = match req.header("x-request-id") {
            Some(id) if !id.is_empty() => id.to_string(),
            _ => obs::trace::next_request_id(),
        };
        let sampled = obs::trace::sample_request();
        let t0 = Instant::now();
        // The token bucket throttles scoring endpoints only: health checks
        // and metrics scrapes must keep working on a rate-limited client.
        let (status, body, mut extra, phases) = if scoring {
            match bucket.take() {
                Ok(()) => dispatch(sh, &req),
                Err(retry_after) => {
                    sh.metrics.rate_limited.fetch_add(1, Ordering::Relaxed);
                    obs::counter_add("serve.rate_limited", 1);
                    no_phases(
                        429,
                        error_body("rate limit exceeded; retry shortly"),
                        vec![("Retry-After", retry_after.to_string())],
                    )
                }
            }
        } else {
            dispatch(sh, &req)
        };
        extra.push(("X-Request-Id", rid.clone()));
        sh.metrics.requests.fetch_add(1, Ordering::Relaxed);
        sh.metrics.observe_phases(&phases);
        http::write_response(&mut out, status, &body, &extra)?;
        let total_ns = t0.elapsed().as_nanos() as u64;
        if obs::enabled() {
            let n = body.lines().count() as u64;
            obs::record!(
                "serve_request",
                endpoint = req.path.as_str(),
                status = u64::from(status),
                n = n,
                dur_ns = total_ns,
            );
            if sampled {
                obs::record!(
                    "serve_trace",
                    request_id = rid.as_str(),
                    endpoint = req.path.as_str(),
                    status = u64::from(status),
                    parse_ns = phases.parse_ns,
                    queue_ns = phases.queue_ns,
                    batch_ns = phases.batch_ns,
                    score_ns = phases.score_ns,
                    serialize_ns = phases.serialize_ns,
                    total_ns = total_ns,
                );
                for (name, v) in PHASE_NAMES.iter().zip(phases.as_array()) {
                    if v > 0 {
                        obs::hist_record(phase_hist_name(name), v as f64);
                    }
                }
            }
        }
        obs::counter_add("serve.requests", 1);
        if scoring {
            let served = sh.serve_requests.fetch_add(1, Ordering::SeqCst) + 1;
            if sh.cfg.max_requests.is_some_and(|max| served >= max) {
                sh.stop();
            }
        }
        // A plain stop is abrupt: the connection closes as soon as its
        // current response is out. A drain's own closing stop is not.
        if close || (sh.stopping() && !sh.draining()) {
            return Ok(());
        }
    }
}

fn is_scoring_endpoint(path: &str) -> bool {
    path == "/v1/score" || path == "/v1/recommend"
}

/// The recorder histogram fed by each phase of a sampled request (the
/// recorder keys histograms by `&'static str`, hence the explicit map).
fn phase_hist_name(phase: &str) -> &'static str {
    match phase {
        "parse" => "serve.phase.parse",
        "queue_wait" => "serve.phase.queue_wait",
        "batch_assembly" => "serve.phase.batch_assembly",
        "score" => "serve.phase.score",
        _ => "serve.phase.serialize",
    }
}

fn error_body(message: &str) -> String {
    let mut body = String::from("{\"error\":");
    json::write_escaped(&mut body, message);
    body.push('}');
    body
}

/// One routed response: status, body, extra headers, and the request's
/// phase decomposition (all-zero for endpoints that never score).
type Routed = (u16, String, Vec<(&'static str, String)>, Phases);

fn no_phases(status: u16, body: String, extra: Vec<(&'static str, String)>) -> Routed {
    (status, body, extra, Phases::default())
}

/// Route one request. The path's query string selects representations
/// (`/metrics?format=json`), never routes.
fn dispatch(sh: &Shared, req: &Request) -> Routed {
    let (route, query) = http::split_path_query(&req.path);
    match (req.method.as_str(), route) {
        ("GET", "/healthz") => no_phases(200, healthz_body(sh), vec![]),
        ("GET", "/metrics") => {
            // Prometheus text exposition by default; the pre-existing JSON
            // body stays reachable under `?format=json`.
            if query == Some("format=json") {
                no_phases(200, metrics_body(sh), vec![])
            } else {
                no_phases(
                    200,
                    prometheus_body(sh),
                    vec![("Content-Type", "text/plain; version=0.0.4".to_string())],
                )
            }
        }
        ("POST", "/v1/score") => {
            // Inflight is raised before the draining check — see the field
            // comment on `Shared::inflight_score` for the ordering argument
            // that keeps drain finalization from racing past this request.
            sh.inflight_score.fetch_add(1, Ordering::SeqCst);
            let _inflight = GaugeGuard(&sh.inflight_score);
            if sh.draining() {
                drain_refusal(sh)
            } else {
                let routed = handle_score(sh, &req.body);
                if routed.0 == 200 && sh.draining() {
                    sh.drain_completed.fetch_add(1, Ordering::SeqCst);
                }
                routed
            }
        }
        ("POST", "/v1/recommend") => {
            // Ranking runs synchronously on this worker (no queue hop), so
            // only the refusal needs drain awareness.
            if sh.draining() {
                drain_refusal(sh)
            } else {
                handle_recommend(sh, &req.body)
            }
        }
        ("POST", "/admin/reload") => handle_reload(sh),
        ("POST", "/admin/drain") => {
            sh.begin_drain();
            no_phases(200, "{\"status\":\"draining\"}".to_string(), vec![])
        }
        ("POST", "/admin/quit") => {
            sh.stop();
            no_phases(200, "{\"status\":\"stopping\"}".to_string(), vec![])
        }
        ("GET" | "POST", _) => no_phases(404, error_body(&format!("no route {route}")), vec![]),
        (m, _) => no_phases(405, error_body(&format!("method {m} not allowed")), vec![]),
    }
}

/// The 503 a scoring request gets while the server drains. Retry-After: 1
/// steers well-behaved clients to another replica promptly.
fn drain_refusal(sh: &Shared) -> Routed {
    sh.drain_refused.fetch_add(1, Ordering::SeqCst);
    obs::counter_add("serve.drain_refused", 1);
    no_phases(
        503,
        error_body("server is draining; retry against another replica"),
        vec![("Retry-After", "1".to_string())],
    )
}

fn healthz_body(sh: &Shared) -> String {
    let store = sh.current_store();
    let mut b = String::from("{\"status\":");
    // Draining outranks degraded: a draining replica is about to exit, so
    // supervisors and load balancers must route elsewhere regardless of
    // reload health.
    match (sh.draining(), sh.degraded_reason()) {
        (true, _) => b.push_str("\"draining\""),
        (false, Some(reason)) => {
            b.push_str("\"degraded\",\"degraded_reason\":");
            json::write_escaped(&mut b, &reason);
        }
        (false, None) => b.push_str("\"ok\""),
    }
    b.push_str(",\"model\":");
    json::write_escaped(&mut b, store.model());
    b.push_str(&format!(
        ",\"seed\":{},\"trained_epochs\":{},\"regions\":{},\"types\":{},\"tensor_bytes\":{}}}",
        store.seed(),
        store.trained_epochs(),
        store.n_regions(),
        store.n_types(),
        store.tensor_bytes()
    ));
    b
}

fn hist_fragment(h: &obs::Histogram) -> String {
    format!(
        "{{\"count\":{},\"p50_ns\":{},\"p99_ns\":{},\"max_ns\":{}}}",
        h.count(),
        h.quantile(0.5) as u64,
        h.quantile(0.99) as u64,
        if h.count() == 0 { 0 } else { h.max() as u64 }
    )
}

fn metrics_body(sh: &Shared) -> String {
    let m = &sh.metrics;
    let uptime = m.start.elapsed().as_secs_f64();
    let requests = m.requests.load(Ordering::Relaxed);
    let (hits, misses) = sh.cache.lock().unwrap_or_else(|e| e.into_inner()).stats();
    let lookups = hits + misses;
    let hit_rate = if lookups == 0 {
        0.0
    } else {
        hits as f64 / lookups as f64
    };
    let qps = if uptime > 0.0 {
        requests as f64 / uptime
    } else {
        0.0
    };
    let score = hist_fragment(&m.score_lat.lock().unwrap_or_else(|e| e.into_inner()));
    let rec = hist_fragment(&m.recommend_lat.lock().unwrap_or_else(|e| e.into_inner()));
    let mut b = String::from("{");
    b.push_str(&format!("\"uptime_secs\":{uptime:.3},"));
    b.push_str(&format!(
        "\"requests\":{requests},\"qps\":{qps:.3},\"scored_queries\":{},\"shed\":{},\"errors\":{},\"reloads\":{},\"timeouts\":{},\"rate_limited\":{},\"conns_rejected\":{},\"queue_depth\":{},\"inflight_connections\":{},\"degraded\":{},\"draining\":{},",
        m.scored.load(Ordering::Relaxed),
        m.shed.load(Ordering::Relaxed),
        m.errors.load(Ordering::Relaxed),
        m.reloads.load(Ordering::Relaxed),
        m.timeouts.load(Ordering::Relaxed),
        m.rate_limited.load(Ordering::Relaxed),
        m.conns_rejected.load(Ordering::Relaxed),
        sh.queue.depth(),
        sh.inflight_conns.load(Ordering::SeqCst),
        if sh.degraded_reason().is_some() { 1 } else { 0 },
        if sh.draining() { 1 } else { 0 },
    ));
    b.push_str(&format!(
        "\"cache\":{{\"hits\":{hits},\"misses\":{misses},\"hit_rate\":{hit_rate:.4}}},"
    ));
    b.push_str(&format!(
        "\"latency\":{{\"score\":{score},\"recommend\":{rec}}}}}"
    ));
    b
}

/// Append one histogram in Prometheus text exposition format: cumulative
/// `_bucket{le="..."}` lines over the nonzero log₂ buckets, `+Inf`, `_sum`,
/// `_count`, plus p50/p99 quantile gauges derived server-side.
fn prom_histogram(out: &mut String, name: &str, labels: &str, h: &obs::Histogram) {
    use std::fmt::Write as _;
    let sep = if labels.is_empty() { "" } else { "," };
    let mut cumulative = 0u64;
    for (bucket, count) in h.nonzero_buckets() {
        cumulative += count;
        let (_, hi) = obs::Histogram::bucket_bounds(bucket);
        let _ = writeln!(
            out,
            "{name}_bucket{{{labels}{sep}le=\"{hi}\"}} {cumulative}"
        );
    }
    let _ = writeln!(
        out,
        "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {}",
        h.count()
    );
    let _ = writeln!(out, "{name}_sum{{{labels}}} {}", h.sum());
    let _ = writeln!(out, "{name}_count{{{labels}}} {}", h.count());
    for (q, qv) in [("0.5", h.quantile(0.5)), ("0.99", h.quantile(0.99))] {
        let _ = writeln!(out, "{name}_quantile{{{labels}{sep}quantile=\"{q}\"}} {qv}");
    }
}

/// `/metrics` default rendering: Prometheus text exposition format
/// (counters, cache gauges, per-endpoint latency histograms, and the
/// per-phase histograms filled by [`Metrics::observe_phases`]).
fn prometheus_body(sh: &Shared) -> String {
    use std::fmt::Write as _;
    let m = &sh.metrics;
    let (hits, misses) = sh.cache.lock().unwrap_or_else(|e| e.into_inner()).stats();
    let mut b = String::new();
    let _ = writeln!(
        b,
        "# HELP siterec_serve_uptime_seconds Seconds since server start."
    );
    let _ = writeln!(b, "# TYPE siterec_serve_uptime_seconds gauge");
    let _ = writeln!(
        b,
        "siterec_serve_uptime_seconds {:.3}",
        m.start.elapsed().as_secs_f64()
    );
    let counters: [(&str, &str, u64); 10] = [
        (
            "requests_total",
            "HTTP requests handled.",
            m.requests.load(Ordering::Relaxed),
        ),
        (
            "scored_queries_total",
            "Queries scored (including cache hits).",
            m.scored.load(Ordering::Relaxed),
        ),
        (
            "shed_total",
            "Requests shed with 503 by the bounded queue.",
            m.shed.load(Ordering::Relaxed),
        ),
        (
            "errors_total",
            "Internal errors (failed reloads).",
            m.errors.load(Ordering::Relaxed),
        ),
        (
            "reloads_total",
            "Successful checkpoint reloads.",
            m.reloads.load(Ordering::Relaxed),
        ),
        (
            "timeouts_total",
            "Requests answered 504 by the scorer deadline.",
            m.timeouts.load(Ordering::Relaxed),
        ),
        (
            "rate_limited_total",
            "Requests answered 429 by the per-connection token bucket.",
            m.rate_limited.load(Ordering::Relaxed),
        ),
        (
            "conns_rejected_total",
            "Connections answered 429 by the max-connections cap.",
            m.conns_rejected.load(Ordering::Relaxed),
        ),
        ("cache_hits_total", "Score-cache hits.", hits),
        ("cache_misses_total", "Score-cache misses.", misses),
    ];
    for (name, help, value) in counters {
        let _ = writeln!(b, "# HELP siterec_serve_{name} {help}");
        let _ = writeln!(b, "# TYPE siterec_serve_{name} counter");
        let _ = writeln!(b, "siterec_serve_{name} {value}");
    }
    let _ = writeln!(
        b,
        "# HELP siterec_serve_degraded Degraded-mode flag (1 = degraded)."
    );
    let _ = writeln!(b, "# TYPE siterec_serve_degraded gauge");
    let _ = writeln!(
        b,
        "siterec_serve_degraded {}",
        i32::from(sh.degraded_reason().is_some())
    );
    let _ = writeln!(
        b,
        "# HELP siterec_serve_draining Draining-mode flag (1 = draining)."
    );
    let _ = writeln!(b, "# TYPE siterec_serve_draining gauge");
    let _ = writeln!(b, "siterec_serve_draining {}", i32::from(sh.draining()));
    let _ = writeln!(
        b,
        "# HELP siterec_serve_queue_depth Jobs waiting in the bounded scorer queue."
    );
    let _ = writeln!(b, "# TYPE siterec_serve_queue_depth gauge");
    let _ = writeln!(b, "siterec_serve_queue_depth {}", sh.queue.depth());
    let _ = writeln!(
        b,
        "# HELP siterec_serve_inflight_connections Connections currently owned by accept workers."
    );
    let _ = writeln!(b, "# TYPE siterec_serve_inflight_connections gauge");
    let _ = writeln!(
        b,
        "siterec_serve_inflight_connections {}",
        sh.inflight_conns.load(Ordering::SeqCst)
    );
    let _ = writeln!(
        b,
        "# HELP siterec_serve_latency_ns End-to-end handler latency by endpoint."
    );
    let _ = writeln!(b, "# TYPE siterec_serve_latency_ns histogram");
    prom_histogram(
        &mut b,
        "siterec_serve_latency_ns",
        "endpoint=\"score\"",
        &m.score_lat.lock().unwrap_or_else(|e| e.into_inner()),
    );
    prom_histogram(
        &mut b,
        "siterec_serve_latency_ns",
        "endpoint=\"recommend\"",
        &m.recommend_lat.lock().unwrap_or_else(|e| e.into_inner()),
    );
    let _ = writeln!(
        b,
        "# HELP siterec_serve_phase_ns Per-phase request latency decomposition."
    );
    let _ = writeln!(b, "# TYPE siterec_serve_phase_ns histogram");
    let hists = m.phases.lock().unwrap_or_else(|e| e.into_inner());
    for (name, h) in PHASE_NAMES.iter().zip(hists.iter()) {
        prom_histogram(
            &mut b,
            "siterec_serve_phase_ns",
            &format!("phase=\"{name}\""),
            h,
        );
    }
    b
}

fn parse_period(v: Option<&Json>) -> Result<Option<Period>, String> {
    match v {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Str(s)) => Period::ALL
            .iter()
            .find(|p| p.label() == s)
            .copied()
            .map(Some)
            .ok_or_else(|| {
                format!(
                    "unknown period {s:?} (expected one of: {})",
                    Period::ALL.map(|p| p.label()).join(", ")
                )
            }),
        Some(_) => Err("period must be a string label or null".to_string()),
    }
}

fn parse_index(v: Option<&Json>, what: &str, bound: usize) -> Result<usize, String> {
    let n = v
        .and_then(Json::as_num)
        .ok_or_else(|| format!("missing numeric {what:?} field"))?;
    if n < 0.0 || n.fract() != 0.0 {
        return Err(format!("{what} must be a non-negative integer, got {n}"));
    }
    let i = n as usize;
    if i >= bound {
        return Err(format!("{what} {i} out of range (< {bound})"));
    }
    Ok(i)
}

fn period_json(p: Option<Period>) -> String {
    match p {
        Some(p) => {
            let mut s = String::new();
            json::write_escaped(&mut s, p.label());
            s
        }
        None => "null".to_string(),
    }
}

fn score_line(q: &Query, score: f32) -> String {
    let mut line = format!(
        "{{\"region\":{},\"type\":{},\"period\":{},\"score\":",
        q.region,
        q.ty,
        period_json(q.period)
    );
    json::write_f64(&mut line, f64::from(score));
    line.push('}');
    line
}

/// `POST /v1/score`: body is JSONL, one query object per line; the response
/// is JSONL in the same order, each line echoing the query plus its score.
fn handle_score(sh: &Shared, body: &str) -> Routed {
    let t0 = Instant::now();
    let mut phases = Phases::default();
    let store = sh.current_store();
    let mut queries = Vec::new();
    for (i, line) in body.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let parsed = match json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                return no_phases(
                    400,
                    error_body(&format!("line {}: invalid JSON: {e}", i + 1)),
                    vec![],
                )
            }
        };
        let build = || -> Result<Query, String> {
            Ok(Query {
                region: parse_index(parsed.get("region"), "region", store.n_regions())?,
                ty: parse_index(parsed.get("type"), "type", store.n_types())?,
                period: parse_period(parsed.get("period"))?,
            })
        };
        match build() {
            Ok(q) => queries.push(q),
            Err(e) => {
                return no_phases(400, error_body(&format!("line {}: {e}", i + 1)), vec![]);
            }
        }
    }
    if queries.is_empty() {
        return no_phases(400, error_body("empty request: no query lines"), vec![]);
    }
    phases.parse_ns = t0.elapsed().as_nanos() as u64;

    // Cache probe first; only misses travel through the queue.
    let mut scores: Vec<Option<f32>> = vec![None; queries.len()];
    {
        let mut cache = sh.cache.lock().unwrap_or_else(|e| e.into_inner());
        for (slot, q) in queries.iter().enumerate() {
            scores[slot] = cache.get(q);
        }
    }
    let misses: Vec<usize> = (0..queries.len())
        .filter(|&i| scores[i].is_none())
        .collect();
    if !misses.is_empty() {
        let (tx, rx) = mpsc::channel();
        let mut queued = 0usize;
        for &slot in &misses {
            let job = Job {
                query: queries[slot],
                slot,
                enqueued: Instant::now(),
                tx: tx.clone(),
            };
            if sh.queue.push(job).is_err() {
                // Bounded queue full: shed the whole request so the client
                // retries against a healthy queue rather than half-waiting.
                sh.metrics.shed.fetch_add(1, Ordering::Relaxed);
                obs::counter_add("serve.shed", 1);
                return no_phases(
                    503,
                    error_body("score queue full; retry shortly"),
                    vec![("Retry-After", "1".to_string())],
                );
            }
            queued += 1;
        }
        drop(tx);
        for _ in 0..queued {
            // Timeout: the scorer stalled past the deadline. Disconnected:
            // the scorer dropped the batch without replying (every sender
            // clone is gone). Both mean these queries were never answered —
            // a retryable gateway timeout, not a client error.
            match rx.recv_timeout(sh.cfg.score_timeout) {
                Ok(reply) => {
                    scores[reply.slot] = Some(reply.score);
                    // A request may span several scorer batches; report the
                    // slowest path through each phase.
                    phases.queue_ns = phases.queue_ns.max(reply.queue_ns);
                    phases.batch_ns = phases.batch_ns.max(reply.batch_ns);
                    phases.score_ns = phases.score_ns.max(reply.score_ns);
                }
                Err(_) => {
                    sh.metrics.timeouts.fetch_add(1, Ordering::Relaxed);
                    obs::counter_add("serve.timeouts", 1);
                    return no_phases(
                        504,
                        error_body("scorer timed out; retry shortly"),
                        vec![("Retry-After", "1".to_string())],
                    );
                }
            }
        }
    }

    let t_ser = Instant::now();
    let mut out = String::new();
    for (q, s) in queries.iter().zip(&scores) {
        out.push_str(&score_line(q, s.expect("every slot filled")));
        out.push('\n');
    }
    phases.serialize_ns = t_ser.elapsed().as_nanos() as u64;
    sh.metrics
        .scored
        .fetch_add(queries.len() as u64, Ordering::Relaxed);
    obs::counter_add("serve.scored", queries.len() as u64);
    sh.metrics
        .score_lat
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .record(t0.elapsed().as_nanos() as f64);
    (200, out, vec![], phases)
}

/// `POST /v1/recommend`: body is one JSON object `{"type": T, "k": K,
/// "period": optional}`; the response is JSONL, one ranked line per region.
fn handle_recommend(sh: &Shared, body: &str) -> Routed {
    let t0 = Instant::now();
    let mut phases = Phases::default();
    let store = sh.current_store();
    let parsed = match json::parse(body.trim()) {
        Ok(v) => v,
        Err(e) => return no_phases(400, error_body(&format!("invalid JSON: {e}")), vec![]),
    };
    let build = || -> Result<(usize, usize, Option<Period>), String> {
        let ty = parse_index(parsed.get("type"), "type", store.n_types())?;
        let k = match parsed.get("k") {
            None => 10,
            some => parse_index(some, "k", usize::MAX)?.max(1),
        };
        let period = parse_period(parsed.get("period"))?;
        Ok((ty, k, period))
    };
    let (ty, k, period) = match build() {
        Ok(v) => v,
        Err(e) => return no_phases(400, error_body(&e), vec![]),
    };
    phases.parse_ns = t0.elapsed().as_nanos() as u64;
    // Ranking runs on the accept worker (no queue hop), so the whole
    // `top_k` pass is this request's score phase.
    let t_score = Instant::now();
    let ranked = store.top_k(ty, period, k);
    phases.score_ns = t_score.elapsed().as_nanos() as u64;
    let t_ser = Instant::now();
    let mut out = String::new();
    for (rank, (region, score)) in ranked.iter().enumerate() {
        let mut line = format!(
            "{{\"rank\":{},\"region\":{region},\"type\":{ty},\"period\":{},\"score\":",
            rank + 1,
            period_json(period)
        );
        json::write_f64(&mut line, f64::from(*score));
        line.push_str("}\n");
        out.push_str(&line);
    }
    phases.serialize_ns = t_ser.elapsed().as_nanos() as u64;
    sh.metrics
        .scored
        .fetch_add(ranked.len() as u64, Ordering::Relaxed);
    obs::counter_add("serve.scored", ranked.len() as u64);
    sh.metrics
        .recommend_lat
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .record(t0.elapsed().as_nanos() as f64);
    (200, out, vec![], phases)
}

/// `POST /admin/reload`: rebuild the store from the configured source while
/// the old store keeps serving, then swap atomically and clear the cache.
///
/// A failed rebuild never takes the server down: the old store stays live,
/// the server enters **degraded mode** (`/healthz` reports `degraded` with
/// the failure reason, a `serve_degraded` record is journaled), and the
/// next successful reload recovers. The rebuild sits behind the
/// `serve.reload` failpoint seam for chaos drills.
fn handle_reload(sh: &Shared) -> Routed {
    let Some(reloader) = sh.reloader.as_ref() else {
        return no_phases(
            400,
            error_body("this server has no reload source configured"),
            vec![],
        );
    };
    let t0 = Instant::now();
    // The rebuild happens outside every lock: requests arriving meanwhile
    // are served (possibly stale) by the old store and cache.
    let fresh = match obs::failpoint::check("serve.reload") {
        Some(fault) => Err(fault.io_error("serve.reload").to_string()),
        None => reloader(),
    };
    let fresh = match fresh {
        Ok(store) => store,
        Err(e) => {
            sh.metrics.errors.fetch_add(1, Ordering::Relaxed);
            let reason = format!("reload failed: {e}");
            sh.enter_degraded(reason.clone());
            return no_phases(500, error_body(&reason), vec![]);
        }
    };
    let epoch = fresh.trained_epochs();
    {
        let mut slot = sh.store.write().unwrap_or_else(|e| e.into_inner());
        *slot = Arc::new(fresh);
    }
    // Old-model scores must not survive the swap.
    sh.cache.lock().unwrap_or_else(|e| e.into_inner()).clear();
    sh.clear_degraded();
    sh.metrics.reloads.fetch_add(1, Ordering::Relaxed);
    let dur_ns = t0.elapsed().as_nanos() as u64;
    obs::record!(
        "serve_reload",
        source = "admin",
        epoch = epoch,
        dur_ns = dur_ns,
    );
    obs::counter_add("serve.reloads", 1);
    no_phases(
        200,
        format!("{{\"status\":\"reloaded\",\"trained_epochs\":{epoch},\"dur_ns\":{dur_ns}}}"),
        vec![],
    )
}
