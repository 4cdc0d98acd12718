//! `train`: proves the durable-checkpoint determinism contract by actually
//! killing the trainer.
//!
//! The trainer child (`train-child`) trains the tiny recipe with
//! `O2SiteRec::try_train_resumable_with`, printing a flushed `epoch N` line
//! after every committed (and checkpointed) epoch so the driver can aim its
//! kills, and `done` on completion; with `SITEREC_JOURNAL` set it writes the
//! journal before exit. For each requested thread count the driver
//!
//! 1. runs one uninterrupted reference child into its own checkpoint dir;
//! 2. plays the schedule into a second dir: `Kill(e)` SIGKILLs a child once
//!    it reports epoch `e` (seeded, `--kills` of them), `Tear(e)` makes a
//!    child write half of epoch `e`'s checkpoint to the final path and
//!    abort via `SITEREC_CHAOS_TEAR_AT` (exactly what a crashed non-atomic
//!    writer leaves); then restarts a child until it finishes;
//! 3. asserts the final checkpoint files of both dirs are **byte-equal**:
//!    the file carries raw-`f32` parameter bits, Adam moments, the full
//!    `TrainGuard` recovery trace and the loss history, so byte equality is
//!    the whole determinism contract at once;
//! 4. validates the completing children's journals against the obs schema
//!    and requires the expected `resume` / `checkpoint_write` /
//!    `checkpoint_corrupt` records.
//!
//! Finally the checkpoints of different thread counts are compared (kernels
//! are thread-count invariant), and one extra uninterrupted run with the
//! tape-arena setting *flipped* is compared against the reference: the
//! arena-off tape is the reference pooled tapes are checked against.
//!
//! Flags (defaults): `--epochs 8 --kills 2 --seed 7 --threads 1,8
//! --arena on --dir <tmp>`, and `--no-tear` to skip the torn write.

use crate::{announce, fire, kit, Action, Args, Rng};
use siterec_obs as obs;
use siterec_obs::json::Json;
use siterec_tensor::checkpoint::{self, CheckpointPolicy, TEAR_ENV};
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Duration;

/// The trainer child, at the first `--threads` count: every (re)spawn
/// rebuilds the identical model before the checkpoint overwrites its fresh
/// parameters.
pub fn child(a: &Args) {
    let mut model = kit::tiny_model(&kit::tiny(a.seed), a.epochs, a.threads[0], a.arena);
    let policy = CheckpointPolicy::new(&a.dir);
    let trained = model.try_train_resumable_with(&policy, |epoch| {
        // The pacing sleep guarantees a kill lands before the next epoch
        // commits.
        println!("epoch {epoch}");
        let _ = std::io::stdout().flush();
        std::thread::sleep(Duration::from_millis(20));
    });
    trained.expect("guarded training failed");
    if let Some(path) = obs::journal_path() {
        obs::write_journal(path).expect("journal write");
    }
    println!("done");
}

/// What one spawned child did before exiting.
#[derive(Debug, Default)]
struct ChildRun {
    completed: bool,
    exit_ok: bool,
    last_epoch: Option<usize>,
}

fn on_off(on: bool) -> &'static str {
    if on {
        "on"
    } else {
        "off"
    }
}

/// Whether a trainer journal shows the tape arena in use: an arena-off run
/// never leases, so its epochs report a zero arena peak.
fn arena_used(text: &str) -> bool {
    let peak = |v: Json| v.get("arena_peak_mb").and_then(Json::as_num);
    kit::records(text, "train_epoch").any(|v| peak(v) > Some(0.0))
}

/// Run one trainer child into `dir` at `a.threads[0]`, suffering `action`
/// (a `Kill` or `Tear`) if given.
fn trainer(a: &Args, dir: &Path, journal: Option<&Path>, action: Option<&Action>) -> ChildRun {
    let (e, t, s, arena) = (a.epochs, a.threads[0], a.seed, on_off(a.arena));
    let flags = format!("train-child --epochs {e} --threads {t} --seed {s} --arena {arena}");
    let mut cmd = Command::new(std::env::current_exe().expect("own path"));
    cmd.args(flags.split(' '))
        .arg("--dir")
        .arg(dir)
        .stdout(Stdio::piped());
    // Never inherit chaos/journal env meant for other runs.
    cmd.env_remove(TEAR_ENV).env_remove("SITEREC_JOURNAL");
    if let Some(Action::Tear(at)) = action {
        cmd.env(TEAR_ENV, at.to_string());
    }
    if let Some(j) = journal {
        cmd.env("SITEREC_JOURNAL", j);
    }
    let mut child = cmd.spawn().expect("spawn child");
    let stdout = BufReader::new(child.stdout.take().expect("child stdout"));
    let mut run = ChildRun::default();
    for line in stdout.lines() {
        let line = line.unwrap_or_default();
        if let Some(e) = line
            .strip_prefix("epoch ")
            .and_then(|e| e.trim().parse().ok())
        {
            run.last_epoch = Some(e);
            if matches!(action, Some(Action::Kill(k)) if e >= *k) {
                // SIGKILL on Unix: no destructors, no atexit.
                child.kill().expect("kill child");
                break;
            }
        } else if line.trim() == "done" {
            run.completed = true;
        }
    }
    run.exit_ok = child.wait().expect("wait child").success();
    run
}

/// A run that must complete, returning its final checkpoint's bytes.
fn completed(a: &Args, dir: &Path, journal: Option<&Path>, what: &str) -> Vec<u8> {
    let run = trainer(a, dir, journal, None);
    assert!(run.completed && run.exit_ok, "{what} failed: {run:?}");
    let path = dir.join(checkpoint::file_name(a.epochs));
    let bytes = std::fs::read(&path);
    bytes.unwrap_or_else(|e| panic!("final checkpoint {} missing: {e}", path.display()))
}

pub fn run(a: &Args) {
    assert!(
        a.epochs >= 4,
        "need at least 4 epochs for a meaningful chaos run"
    );
    std::fs::create_dir_all(&a.dir).expect("scratch dir");
    let mut rng = Rng(a.seed ^ 0xC0A5);
    let span = a.epochs.saturating_sub(3).max(1) as u64;
    let mut kills: Vec<usize> = (0..a.kills).map(|_| 1 + rng.below(span) as usize).collect();
    kills.sort_unstable();
    let mut schedule: Vec<Action> = kills.into_iter().map(Action::Kill).collect();
    if a.tear {
        schedule.push(Action::Tear(a.epochs - 1));
    }
    announce("train", &schedule);
    let mut finals: Vec<(usize, Vec<u8>)> = Vec::new();

    for &threads in &a.threads {
        let (e, k, tear, arena) = (a.epochs, a.kills, a.tear, a.arena);
        println!(
            "--- {e} epochs, {k} kill(s), tear={tear}, arena={arena}, {threads} thread(s) ---"
        );
        let a = &Args {
            threads: vec![threads],
            ..a.clone()
        };
        let ref_dir = a.dir.join(format!("ref-t{threads}"));
        let chaos_dir = a.dir.join(format!("chaos-t{threads}"));
        for d in [&ref_dir, &chaos_dir] {
            let _ = std::fs::remove_dir_all(d);
        }

        // 1. Uninterrupted reference run.
        let ref_journal = a.dir.join(format!("ref-t{threads}.jsonl"));
        let ref_bytes = completed(a, &ref_dir, Some(&ref_journal), "reference run");
        let (ref_text, ref_stats) = kit::validated_journal(&ref_journal);
        let used = arena_used(&ref_text);
        assert_eq!(
            used,
            a.arena,
            "reference run ignored --arena {}",
            on_off(a.arena)
        );
        let writes = ref_stats.count("checkpoint_write");
        assert!(
            writes >= e,
            "reference wrote {writes} checkpoint_write records, want >= {e}"
        );
        println!("reference: completed, journal valid ({writes} checkpoint writes)");

        // 2. The schedule: seeded SIGKILLs, then one crash mid-checkpoint-write
        //    that the next resume must detect and fall back from.
        for action in &schedule {
            fire("train", action);
            let run = trainer(a, &chaos_dir, None, Some(action));
            assert!(
                !run.completed && !run.exit_ok,
                "{action} did not abort the child: {run:?}"
            );
            if let Action::Tear(at) = action {
                let torn = chaos_dir.join(checkpoint::file_name(*at));
                assert!(torn.exists(), "torn file {} missing", torn.display());
            }
            println!("{action}: child aborted after epoch {:?}", run.last_epoch);
        }

        // 3. The final restart runs to completion and must observe the torn
        //    file.
        let chaos_journal = a.dir.join(format!("chaos-t{threads}.jsonl"));
        let chaos_bytes = completed(a, &chaos_dir, Some(&chaos_journal), "final restart");
        let (_, stats) = kit::validated_journal(&chaos_journal);
        let (resume, corrupt) = (stats.count("resume"), stats.count("checkpoint_corrupt"));
        assert!(resume >= 1, "final restart did not journal a resume");
        let seen = !tear || corrupt >= 1;
        assert!(
            seen,
            "torn checkpoint was not journaled as checkpoint_corrupt"
        );
        println!("final restart: completed (resume={resume}, checkpoint_corrupt={corrupt}), journal valid");

        // 4. The determinism contract: byte-identical final checkpoints.
        let same = ref_bytes == chaos_bytes;
        let what = format!("uninterrupted and chaos runs at {threads} thread(s)");
        assert!(same, "final checkpoints differ between {what}");
        let (n, torn) = (ref_bytes.len(), if tear { " + 1 torn write" } else { "" });
        println!("PASS: {n} identical bytes after {k} kill(s){torn} at {threads} thread(s)\n");
        finals.push((threads, ref_bytes));
    }

    // 5. Thread-count invariance across the whole scenario.
    for pair in finals.windows(2) {
        let (t0, t1) = (pair[0].0, pair[1].0);
        assert!(
            pair[0].1 == pair[1].1,
            "final checkpoints differ between {t0} and {t1} threads"
        );
    }
    if finals.len() > 1 {
        let counts: Vec<String> = finals.iter().map(|(t, _)| t.to_string()).collect();
        let counts = counts.join(", ");
        println!("PASS: checkpoints bit-identical across thread counts {{{counts}}}");
    }

    // 6. Tape-arena invariance: pooled buffers are zero-filled on lease, so
    //    an uninterrupted run with the setting flipped must reproduce the
    //    reference checkpoint byte-for-byte.
    if let Some((threads, ref_bytes)) = finals.first() {
        let flip_dir = a.dir.join(format!("xarena-t{threads}"));
        let _ = std::fs::remove_dir_all(&flip_dir);
        let flipped = &Args {
            threads: vec![*threads],
            arena: !a.arena,
            ..a.clone()
        };
        let flip_journal = a.dir.join(format!("xarena-t{threads}.jsonl"));
        let flip_bytes = completed(flipped, &flip_dir, Some(&flip_journal), "arena-flip run");
        let (flip_text, _) = kit::validated_journal(&flip_journal);
        let used = arena_used(&flip_text);
        assert_eq!(
            used,
            !a.arena,
            "arena-flip run ignored --arena {}",
            on_off(!a.arena)
        );
        let (from, to) = (on_off(a.arena), on_off(!a.arena));
        let same = *ref_bytes == flip_bytes;
        assert!(
            same,
            "final checkpoints differ between arena={from} and arena={to}"
        );
        println!("PASS: checkpoint bit-identical with tape arena {from} vs {to}");
    }
}
