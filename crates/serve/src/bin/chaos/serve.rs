//! `serve`: SIGKILL the server mid-traffic and prove it resumes serving
//! **bit-identical** scores from the checkpoint.
//!
//! 1. Train `tiny:<seed>` with durable checkpoints in-process (the training
//!    path `siterec-serve train` uses) and take the offline reference bits
//!    of every region's sweep query from a fresh model that adopted the
//!    checkpoint.
//! 2. Spawn a real `siterec-serve run` child on an ephemeral port and
//!    require every answer before the seeded `Kill(n)` to match the
//!    reference bits exactly.
//! 3. `Kill(n)`: SIGKILL the child after `n` answers (no shutdown handler
//!    runs, exactly what a crashed server leaves behind).
//! 4. Spawn a second child from the same checkpoint dir and replay the
//!    *full* sweep: every score, including the ones the dead server never
//!    answered, must be bit-identical to the reference.
//! 5. Quit it gracefully and validate its journal against the obs schema,
//!    requiring `serve_request` + `serve_reload` records.
//!
//! Flags (defaults): `--seed 7 --epochs 5 --dir <tmp>`.

use crate::kit::{self, TIMEOUT};
use crate::{announce, fire, Action, Args, Rng};
use std::path::Path;

pub fn run(a: &Args) {
    let _ = std::fs::remove_dir_all(&a.dir);
    std::fs::create_dir_all(&a.dir).expect("scratch dir");
    let ckpt = a.dir.join("ckpt");
    let recipe = kit::tiny(a.seed);
    println!("chaos[serve]: training {recipe} for {} epochs", a.epochs);
    let (_, sweep, offline) = kit::trained_reference(&recipe, a.epochs, 1, &ckpt, usize::MAX);
    let at = 1 + Rng(a.seed).below(sweep.len() as u64 - 1) as usize;
    let kill = Action::Kill(at);
    announce("serve", std::slice::from_ref(&kill));
    let server = |journal: Option<&Path>| {
        let mut cmd = kit::serve_command();
        cmd.args([
            "run",
            "--recipe",
            &recipe.to_string(),
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
        ]);
        cmd.arg("--ckpt").arg(&ckpt).env_remove("SITEREC_JOURNAL");
        if let Some(j) = journal {
            cmd.env("SITEREC_JOURNAL", j);
        }
        kit::spawn_listening(&mut cmd)
    };

    // First server: answer the sweep up to the kill point.
    let (mut first, addr) = server(None);
    for (i, q) in sweep[..at].iter().enumerate() {
        let answer = kit::score(&addr, q, TIMEOUT).expect("pre-kill request");
        kit::assert_bits(answer, offline[i], format!("pre-kill score {i} ({q:?})"));
    }
    println!("chaos[serve]: {at} pre-kill scores bit-identical to offline");

    // SIGKILL mid-traffic: no shutdown handler, no journal flush.
    fire("serve", &kill);
    first.0.kill().expect("SIGKILL server");
    let _ = first.0.wait();
    let after = kit::http(&addr, "GET", "/healthz", "", TIMEOUT);
    assert!(after.is_err(), "killed server still answering");

    // Second server from the same checkpoint: the full sweep must be
    // bit-identical to the offline reference.
    let journal = a.dir.join("serve_journal.jsonl");
    let (mut second, addr) = server(Some(&journal));
    for (i, q) in sweep.iter().enumerate() {
        let answer = kit::score(&addr, q, TIMEOUT).expect("post-resume request");
        kit::assert_bits(answer, offline[i], format!("post-resume score {i} ({q:?})"));
    }
    println!(
        "chaos[serve]: {} post-resume scores bit-identical to offline",
        sweep.len()
    );

    // Graceful quit flushes the journal; validate it against the schema.
    let (status, _) = kit::http(&addr, "POST", "/admin/quit", "", TIMEOUT).expect("quit request");
    assert_eq!(status, 200, "quit failed");
    assert!(
        second.0.wait().expect("wait for server").success(),
        "server exited non-zero after quit"
    );
    let (_, stats) = kit::validated_journal(&journal);
    let requests = stats.count("serve_request");
    assert!(
        requests >= sweep.len(),
        "journal missing serve_request records ({requests} < {})",
        sweep.len()
    );
    assert_eq!(
        stats.count("serve_reload"),
        1,
        "journal missing the startup serve_reload record"
    );
    println!(
        "chaos[serve]: journal valid ({} lines, {requests} serve_request records)",
        stats.lines
    );
    let _ = std::fs::remove_dir_all(&a.dir);
}
