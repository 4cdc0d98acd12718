//! Chaos harness for the serving layer: SIGKILL the server mid-traffic and
//! prove it resumes serving **bit-identical** scores from the checkpoint.
//!
//! Scenario (all deterministic given `--seed`):
//!
//! 1. Train the `tiny:<seed>` recipe with durable checkpoints into a scratch
//!    directory (in-process — the same training path `siterec-serve train`
//!    uses).
//! 2. Compute the offline reference scores for a fixed query sweep (every
//!    period selector) with [`siterec_core::O2SiteRec::predict_for`] on a
//!    fresh model that adopted the checkpoint.
//! 3. Spawn a real `siterec-serve run` child on an ephemeral port, issue the
//!    first half of the sweep over HTTP, and require every answered score to
//!    match the reference bits exactly.
//! 4. SIGKILL the child mid-traffic (no shutdown handler runs — exactly what
//!    a crashed server leaves behind).
//! 5. Spawn a second child from the same checkpoint directory, replay the
//!    *full* sweep, and require every score — including the ones the dead
//!    server never answered — to be bit-identical to the reference.
//! 6. Validate the surviving child's JSONL journal against the obs schema
//!    and require `serve_request` + `serve_reload` records.
//!
//! Exits non-zero (via panic) on any violated assertion; prints
//! `chaos_serve: all assertions passed` on success.
//!
//! Usage: `chaos_serve [--seed 7] [--epochs 5] [--dir <scratch>]`

use siterec_geo::Period;
use siterec_obs as obs;
use siterec_serve::client::{self, Request};
use siterec_serve::{Query, Recipe};
use siterec_tensor::checkpoint::CheckpointPolicy;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

struct Args {
    seed: u64,
    epochs: usize,
    dir: PathBuf,
}

fn parse_args() -> Args {
    let mut a = Args {
        seed: 7,
        epochs: 5,
        dir: std::env::temp_dir().join(format!("siterec_chaos_serve_{}", std::process::id())),
    };
    let mut it = std::env::args().skip(1);
    let need = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next()
            .unwrap_or_else(|| panic!("missing value for {flag}"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seed" => a.seed = need(&mut it, "--seed").parse().expect("--seed"),
            "--epochs" => a.epochs = need(&mut it, "--epochs").parse().expect("--epochs"),
            "--dir" => a.dir = PathBuf::from(need(&mut it, "--dir")),
            other => panic!("unknown flag {other}"),
        }
    }
    a
}

/// The sibling `siterec-serve` binary (both live in the same target dir).
fn serve_binary() -> PathBuf {
    let me = std::env::current_exe().expect("current_exe");
    let dir = me.parent().expect("binary has a parent dir");
    let name = format!("siterec-serve{}", std::env::consts::EXE_SUFFIX);
    let path = dir.join(&name);
    assert!(
        path.exists(),
        "expected sibling binary {} (build the siterec-serve package first)",
        path.display()
    );
    path
}

/// One `Connection: close` exchange; returns `(status, body)`.
fn http(addr: &str, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    let req = Request::new(method, path, body);
    let r = client::send(addr, &req, Duration::from_secs(30))?;
    Ok((r.status, r.body))
}

/// Spawn `siterec-serve run` and wait for its `listening on <addr>` line.
fn spawn_server(recipe: &str, ckpt: &Path, journal: Option<&Path>) -> (Child, String) {
    let mut cmd = Command::new(serve_binary());
    cmd.args([
        "run",
        "--recipe",
        recipe,
        "--addr",
        "127.0.0.1:0",
        "--workers",
        "2",
    ])
    .arg("--ckpt")
    .arg(ckpt)
    .stdout(Stdio::piped())
    .stderr(Stdio::null())
    .env_remove("SITEREC_JOURNAL");
    if let Some(j) = journal {
        cmd.env("SITEREC_JOURNAL", j);
    }
    let mut child = cmd.spawn().expect("spawn siterec-serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("server exited before listening")
            .expect("read server stdout");
        if let Some(addr) = line.strip_prefix("listening on ") {
            break addr.to_string();
        }
    };
    // Keep draining stdout so the child never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    (child, addr)
}

fn main() {
    let args = parse_args();
    let _ = std::fs::remove_dir_all(&args.dir);
    std::fs::create_dir_all(&args.dir).expect("scratch dir");
    let ckpt = args.dir.join("ckpt");
    let recipe_str = format!("tiny:{}", args.seed);
    let recipe: Recipe = recipe_str.parse().unwrap();

    // 1. Train with durable checkpoints.
    println!(
        "chaos_serve: training {recipe_str} for {} epochs",
        args.epochs
    );
    let mut model = recipe.build_model(args.epochs);
    model
        .try_train_resumable(&CheckpointPolicy::new(&ckpt))
        .expect("training");

    // 2. Offline reference from a *fresh* model that adopts the checkpoint
    //    (the identical rebuild path the server uses).
    let mut reference = recipe.build_model(1);
    let restored = reference
        .restore_latest(&ckpt)
        .expect("read checkpoint dir")
        .expect("checkpoint present");
    assert_eq!(restored, args.epochs, "checkpoint is fully trained");
    let n_regions = {
        let store = siterec_serve::EmbeddingStore::new(reference.export_serving());
        store.n_regions()
    };
    let sweep: Vec<Query> = (0..n_regions)
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
        .map(|q| reference.predict_for(&[(q.region, q.ty)], q.period)[0].to_bits())
        .collect();

    // 3. First server: answer the first half of the sweep.
    let (mut child1, addr1) = spawn_server(&recipe_str, &ckpt, None);
    let half = sweep.len() / 2;
    for (i, q) in sweep[..half].iter().enumerate() {
        let (status, body) = http(&addr1, "POST", "/v1/score", &client::score_body(&[*q]))
            .expect("pre-kill request");
        assert_eq!(status, 200, "pre-kill request {i} failed: {body}");
        assert_eq!(
            client::score_bits(&body).expect("score response"),
            [offline[i]],
            "pre-kill score {i} ({q:?}) diverged from offline"
        );
    }
    println!("chaos_serve: {half} pre-kill scores bit-identical to offline");

    // 4. SIGKILL mid-traffic: no shutdown handler, no journal flush.
    child1.kill().expect("SIGKILL server");
    let _ = child1.wait();
    assert!(
        http(&addr1, "GET", "/healthz", "").is_err(),
        "killed server still answering"
    );
    println!("chaos_serve: server SIGKILLed mid-traffic");

    // 5. Second server from the same checkpoint: the full sweep must be
    //    bit-identical to the offline reference.
    let journal = args.dir.join("serve_journal.jsonl");
    let (mut child2, addr2) = spawn_server(&recipe_str, &ckpt, Some(&journal));
    for (i, q) in sweep.iter().enumerate() {
        let body = client::score_body(&[*q]);
        let (status, body) = http(&addr2, "POST", "/v1/score", &body).expect("post-resume request");
        assert_eq!(status, 200, "post-resume request {i} failed: {body}");
        assert_eq!(
            client::score_bits(&body).expect("score response"),
            [offline[i]],
            "post-resume score {i} ({q:?}) diverged from offline"
        );
    }
    println!(
        "chaos_serve: {} post-resume scores bit-identical to offline",
        sweep.len()
    );

    // 6. Graceful quit flushes the journal; validate it against the schema.
    let (status, _) = http(&addr2, "POST", "/admin/quit", "").expect("quit request");
    assert_eq!(status, 200, "quit failed");
    let exit = child2.wait().expect("wait for server");
    assert!(exit.success(), "server exited non-zero after quit");
    let text = std::fs::read_to_string(&journal).expect("journal written on quit");
    let stats = obs::validate_journal(&text)
        .unwrap_or_else(|e| panic!("journal failed schema validation: {e}"));
    assert!(
        stats.count("serve_request") >= sweep.len(),
        "journal missing serve_request records ({} < {})",
        stats.count("serve_request"),
        sweep.len()
    );
    assert_eq!(
        stats.count("serve_reload"),
        1,
        "journal missing the startup serve_reload record"
    );
    println!(
        "chaos_serve: journal valid ({} lines, {} serve_request records)",
        stats.lines,
        stats.count("serve_request")
    );

    let _ = std::fs::remove_dir_all(&args.dir);
    println!("chaos_serve: all assertions passed");
}
