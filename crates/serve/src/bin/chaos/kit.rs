//! The kit every scenario builds on; each piece exists once here.

use siterec_core::O2SiteRec;
use siterec_geo::Period;
use siterec_obs as obs;
use siterec_obs::json::Json;
use siterec_serve::client::{self, Request, Retry};
use siterec_serve::{start, EmbeddingStore, Query, Recipe, Reloader, ServeConfig, ServerHandle};
use siterec_tensor::checkpoint::CheckpointPolicy;
use siterec_tensor::ParallelConfig;
use std::fmt::Display;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// Per-request budget of the serve and soak scenarios' client.
pub const TIMEOUT: Duration = Duration::from_secs(30);

/// Client-side bounded retry: 503 (shed), 504 (scorer drop/stall) and 429
/// are the server telling us to try again; everything else is final.
const RETRY: Retry = Retry {
    attempts: 8,
    first: Duration::from_millis(10),
    cap: Duration::from_millis(200),
};

/// A trained model, its query sweep and the sweep's offline score bits.
pub type Reference = (O2SiteRec, Vec<Query>, Vec<u32>);

/// `(status, body)` of one exchange, or the transport error.
pub type Answer = Result<(u16, String), String>;

/// The `tiny:<seed>` recipe.
pub fn tiny(seed: u64) -> Recipe {
    format!("tiny:{seed}").parse().expect("tiny recipe")
}

/// The recipe's model with an explicit kernel thread count and tape-arena
/// setting, the only two knobs the scenarios vary. Dataset, task and config
/// derive from the seed alone, so every rebuild is the identical model.
pub fn tiny_model(recipe: &Recipe, epochs: usize, threads: usize, arena: bool) -> O2SiteRec {
    let (data, task) = recipe.context();
    let mut cfg = recipe.config(epochs);
    cfg.parallel = ParallelConfig::with_threads(threads);
    cfg.arena = arena;
    O2SiteRec::new(&data, &task, cfg)
}

/// Train with durable checkpoints into `ckpt` until a *fresh* model (the
/// rebuild path the server uses) restores the fully trained generation,
/// then take its offline `predict_for` bits over a sweep of the first `n`
/// regions, cycling types and every period selector. Injected faults can eat
/// the newest generation(s); retraining resumes from the last valid one and,
/// being a pure function of the seed, reproduces identical bits. That
/// healing budget (6 rounds) applies only while failpoints are armed: a
/// fault-free run must restore the full checkpoint on its first try.
pub fn trained_reference(r: &Recipe, epochs: usize, t: usize, ckpt: &Path, n: usize) -> Reference {
    let rounds = if obs::failpoint::armed() { 6 } else { 1 };
    for _round in 0..rounds {
        let policy = CheckpointPolicy::new(ckpt);
        let mut model = tiny_model(r, epochs, t, true);
        let trained = model.try_train_resumable(&policy);
        trained.expect("training must survive injected I/O faults");
        let mut probe = tiny_model(r, epochs, t, true);
        if !matches!(probe.restore_latest(ckpt), Ok(Some(e)) if e == epochs) {
            continue;
        }
        let n_regions = EmbeddingStore::new(probe.export_serving()).n_regions();
        let sweep: Vec<Query> = (0..n_regions.min(n))
            .map(|region| {
                let period = (region % 6 < 5).then(|| Period::from_index(region % 6));
                Query {
                    region,
                    ty: region % 3,
                    period,
                }
            })
            .collect();
        let bits = |q: &Query| probe.predict_for(&[(q.region, q.ty)], q.period)[0].to_bits();
        let offline = sweep.iter().map(bits).collect();
        return (probe, sweep, offline);
    }
    panic!("training did not reach a fully trained checkpoint in {rounds} round(s)");
}

/// A command for the `siterec-serve` binary next to this one (both build
/// into the same target dir).
pub fn serve_command() -> Command {
    let me = std::env::current_exe().expect("current_exe");
    let name = format!("siterec-serve{}", std::env::consts::EXE_SUFFIX);
    let path = me.parent().expect("binary has a parent dir").join(name);
    let shown = path.display();
    assert!(path.exists(), "missing {shown}: build siterec-serve");
    Command::new(path)
}

/// A listening child and its address. If the driver unwinds past one that
/// is still running, it is asked to quit (a supervisor then drains its
/// replicas) and killed after 10 s, so a failed scenario leaves no server
/// behind. Only a live child is asked: its port cannot have been reused.
pub struct Listening(pub Child, String);

impl Drop for Listening {
    fn drop(&mut self) {
        let running = |c: &mut Child| matches!(c.try_wait(), Ok(None));
        if !running(&mut self.0) {
            return;
        }
        let _ = http(&self.1, "POST", "/admin/quit", "", Duration::from_secs(2));
        for _ in 0..200 {
            if !running(&mut self.0) {
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawn `cmd` and wait for its `listening on <addr>` line; a thread keeps
/// draining stdout afterwards so the child never blocks on a full pipe.
pub fn spawn_listening(cmd: &mut Command) -> (Listening, String) {
    let cmd = cmd.stdout(Stdio::piped()).stderr(Stdio::null());
    let mut child = cmd.spawn().expect("spawn child");
    let mut lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
    let addr = loop {
        let line = lines.next().expect("child exited before listening");
        let line = line.expect("read child stdout");
        if let Some(addr) = line.strip_prefix("listening on ") {
            break addr.trim().to_string();
        }
    };
    std::thread::spawn(move || for _ in lines {});
    (Listening(child, addr.clone()), addr)
}

/// One `Connection: close` exchange.
pub fn http(addr: &str, method: &str, path: &str, body: &str, timeout: Duration) -> Answer {
    let r = client::send(addr, &Request::new(method, path, body), timeout)?;
    Ok((r.status, r.body))
}

/// [`http`] under the client's bounded retry; a request that never gets a
/// final answer panics.
pub fn http_retry(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    let req = Request::new(method, path, body);
    let r = client::send_with_retry(addr, &req, TIMEOUT, RETRY);
    let r = r.unwrap_or_else(|e| panic!("request {method} {path} did not succeed: {e}"));
    (r.status, r.body)
}

/// Score one query.
pub fn score(addr: &str, q: &Query, timeout: Duration) -> Answer {
    let body = client::score_body(&[*q]);
    http(addr, "POST", "/v1/score", &body, timeout)
}

/// Assert an answer is a 200 carrying exactly the reference bits `want`;
/// returns the served bits.
pub fn assert_bits((status, body): (u16, String), want: u32, what: impl Display) -> u32 {
    assert_eq!(status, 200, "{what} failed: {body}");
    let got = client::score_bits(&body).expect("score response");
    assert_eq!(got, [want], "{what} diverged from offline");
    got[0]
}

/// An in-process server on an ephemeral port, configured the same way for
/// every scenario.
pub fn in_process_server(s: EmbeddingStore, workers: usize, r: Option<Reloader>) -> ServerHandle {
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
    start(s, cfg, r).expect("bind in-process server")
}

/// Read a journal and validate it against the obs schema.
pub fn validated_journal(path: &Path) -> (String, obs::JournalStats) {
    let shown = path.display();
    let text = std::fs::read_to_string(path);
    let text = text.unwrap_or_else(|e| panic!("journal {shown} unreadable: {e}"));
    let stats = obs::validate_journal(&text);
    let stats = stats.unwrap_or_else(|e| panic!("journal {shown} violates schema: {e}"));
    (text, stats)
}

/// Every record of journal type `ty` in a validated journal, parsed.
pub fn records<'a>(text: &'a str, ty: &'a str) -> impl Iterator<Item = Json> + 'a {
    let parsed = text
        .lines()
        .map(|l| obs::json::parse(l).expect("journal line parses"));
    parsed.filter(move |v| v.get("type").and_then(Json::as_str) == Some(ty))
}
