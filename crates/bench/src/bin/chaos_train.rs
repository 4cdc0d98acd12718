//! Chaos-restart harness: proves the durable-checkpoint determinism
//! contract by actually killing the trainer.
//!
//! One binary, two modes:
//!
//! * **Child** (`--child`): trains a tiny O²-SiteRec model with
//!   [`O2SiteRec::try_train_resumable_with`], printing a flushed
//!   `epoch N` line after every committed (and checkpointed) epoch so the
//!   orchestrator can aim its kills, and `done` on completion. When
//!   `SITEREC_JOURNAL` is set, the journal is written before exit.
//! * **Orchestrator** (default): for each requested thread count,
//!   1. runs one uninterrupted reference child into its own checkpoint dir;
//!   2. runs a chaos sequence into a second dir — the child is SIGKILLed at
//!      seeded epochs (`--kills` of them), then once torn mid-checkpoint-write
//!      via `SITEREC_CHAOS_TEAR_AT` (the child writes half the bytes to the
//!      final path and aborts, exactly what a crashed non-atomic writer
//!      leaves), then restarted until it finishes;
//!   3. asserts the final checkpoint files of both dirs are **byte-equal** —
//!      the file carries raw-`f32` parameter bits, Adam moments, the full
//!      `TrainGuard` recovery trace and the loss history, so byte equality
//!      is the whole determinism contract at once;
//!   4. validates the completing children's journals against the obs schema
//!      and requires the expected `resume` / `checkpoint_write` /
//!      `checkpoint_corrupt` records.
//!
//! Finally the checkpoints produced under different thread counts are
//! compared against each other (kernels are thread-count invariant), and
//! one extra uninterrupted run with the tape-arena setting *flipped* is
//! compared against the reference (pooled and malloc-per-epoch tapes are
//! bit-identical).
//!
//! Usage: `chaos_train [--epochs 8] [--kills 2] [--seed 7] [--threads 1,8]
//! [--dir <scratch>] [--no-tear] [--arena on|off]`
//!
//! Exits non-zero (via panic) on any violated assertion.

use siterec_core::{O2SiteRec, SiteRecConfig, Variant};
use siterec_graphs::SiteRecTask;
use siterec_obs as obs;
use siterec_sim::{O2oDataset, SimConfig};
use siterec_tensor::checkpoint::{self, CheckpointPolicy, TEAR_ENV};
use siterec_tensor::ParallelConfig;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

#[derive(Debug, Clone)]
struct Args {
    child: bool,
    dir: PathBuf,
    epochs: usize,
    threads: Vec<usize>,
    seed: u64,
    kills: usize,
    tear: bool,
    arena: bool,
}

fn parse_args() -> Args {
    let mut a = Args {
        child: false,
        dir: std::env::temp_dir().join(format!("siterec_chaos_{}", std::process::id())),
        epochs: 8,
        threads: vec![1, 8],
        seed: 7,
        kills: 2,
        tear: true,
        arena: true,
    };
    let mut it = std::env::args().skip(1);
    let need = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next()
            .unwrap_or_else(|| panic!("missing value for {flag}"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--child" => a.child = true,
            "--dir" => a.dir = PathBuf::from(need(&mut it, "--dir")),
            "--epochs" => a.epochs = need(&mut it, "--epochs").parse().expect("--epochs"),
            "--seed" => a.seed = need(&mut it, "--seed").parse().expect("--seed"),
            "--kills" => a.kills = need(&mut it, "--kills").parse().expect("--kills"),
            "--no-tear" => a.tear = false,
            "--arena" => {
                a.arena = match need(&mut it, "--arena").as_str() {
                    "on" => true,
                    "off" => false,
                    other => panic!("--arena takes on|off, got {other:?}"),
                }
            }
            "--threads" => {
                a.threads = need(&mut it, "--threads")
                    .split(',')
                    .map(|t| t.trim().parse().expect("--threads"))
                    .collect();
            }
            other => panic!("unknown flag {other}"),
        }
    }
    assert!(
        a.epochs >= 4,
        "need at least 4 epochs for a meaningful chaos run"
    );
    a
}

/// Deterministic child workload: dataset, task and config derive from the
/// seed alone, so every (re)spawn rebuilds the identical model before the
/// checkpoint overwrites its fresh parameters.
fn child_main(dir: &Path, epochs: usize, threads: usize, seed: u64, arena: bool) {
    let policy = CheckpointPolicy::new(dir);
    let data = O2oDataset::generate(SimConfig::tiny(seed ^ 0x51));
    let task = SiteRecTask::build(&data, 0.8, 9);
    let cfg = SiteRecConfig {
        d1: 8,
        d2: 16,
        node_heads: 2,
        time_heads: 2,
        layers: 1,
        epochs,
        lr: 1e-2,
        seed,
        arena,
        variant: Variant::Full,
        parallel: ParallelConfig::with_threads(threads),
        ..Default::default()
    };
    let mut model = O2SiteRec::new(&data, &task, cfg);
    model
        .try_train_resumable_with(&policy, |epoch| {
            // The orchestrator watches these lines to time its SIGKILLs; the
            // pacing sleep guarantees the kill lands before the next epoch
            // commits.
            println!("epoch {epoch}");
            let _ = std::io::stdout().flush();
            std::thread::sleep(Duration::from_millis(20));
        })
        .expect("guarded training failed");
    if let Some(path) = obs::journal_path() {
        obs::write_journal(path).expect("journal write");
    }
    println!("done");
}

/// What one spawned child did before exiting.
#[derive(Debug)]
struct ChildRun {
    completed: bool,
    exit_ok: bool,
    last_epoch: Option<usize>,
}

#[allow(clippy::too_many_arguments)]
fn spawn_child(
    dir: &Path,
    epochs: usize,
    threads: usize,
    seed: u64,
    arena: bool,
    journal: Option<&Path>,
    tear_at: Option<usize>,
    kill_at: Option<usize>,
) -> ChildRun {
    let exe = std::env::current_exe().expect("own path");
    let mut cmd = Command::new(exe);
    cmd.arg("--child")
        .arg("--dir")
        .arg(dir)
        .args(["--epochs", &epochs.to_string()])
        .args(["--threads", &threads.to_string()])
        .args(["--seed", &seed.to_string()])
        .args(["--arena", if arena { "on" } else { "off" }])
        .stdout(Stdio::piped());
    // Never inherit chaos/journal env meant for other runs.
    cmd.env_remove(TEAR_ENV).env_remove("SITEREC_JOURNAL");
    if let Some(t) = tear_at {
        cmd.env(TEAR_ENV, t.to_string());
    }
    if let Some(j) = journal {
        cmd.env("SITEREC_JOURNAL", j);
    }
    let mut child = cmd.spawn().expect("spawn child");
    let stdout = BufReader::new(child.stdout.take().expect("child stdout"));
    let mut run = ChildRun {
        completed: false,
        exit_ok: false,
        last_epoch: None,
    };
    for line in stdout.lines() {
        let line = line.unwrap_or_default();
        if let Some(rest) = line.strip_prefix("epoch ") {
            if let Ok(e) = rest.trim().parse::<usize>() {
                run.last_epoch = Some(e);
                if kill_at.is_some_and(|k| e >= k) {
                    // SIGKILL on Unix: no destructors, no atexit — the
                    // genuine article.
                    child.kill().expect("kill child");
                    break;
                }
            }
        } else if line.trim() == "done" {
            run.completed = true;
        }
    }
    run.exit_ok = child.wait().expect("wait child").success();
    run
}

fn final_checkpoint_bytes(dir: &Path, epochs: usize) -> Vec<u8> {
    let path = dir.join(checkpoint::file_name(epochs));
    std::fs::read(&path)
        .unwrap_or_else(|e| panic!("final checkpoint {} missing: {e}", path.display()))
}

fn validated_stats(journal: &Path) -> obs::JournalStats {
    let text = std::fs::read_to_string(journal)
        .unwrap_or_else(|e| panic!("journal {} unreadable: {e}", journal.display()));
    obs::validate_journal(&text)
        .unwrap_or_else(|e| panic!("journal {} violates schema: {e}", journal.display()))
}

fn orchestrate(a: &Args) {
    let mut rng = a.seed ^ 0xC0A5;
    std::fs::create_dir_all(&a.dir).expect("scratch dir");
    let mut finals: Vec<(usize, Vec<u8>)> = Vec::new();

    for &threads in &a.threads {
        println!(
            "--- chaos scenario: {} epochs, {} kill(s), tear={}, arena={}, {threads} thread(s) ---",
            a.epochs, a.kills, a.tear, a.arena
        );
        let ref_dir = a.dir.join(format!("ref-t{threads}"));
        let chaos_dir = a.dir.join(format!("chaos-t{threads}"));
        for d in [&ref_dir, &chaos_dir] {
            let _ = std::fs::remove_dir_all(d);
        }

        // 1. Uninterrupted reference run.
        let ref_journal = a.dir.join(format!("ref-t{threads}.jsonl"));
        let run = spawn_child(
            &ref_dir,
            a.epochs,
            threads,
            a.seed,
            a.arena,
            Some(&ref_journal),
            None,
            None,
        );
        assert!(
            run.completed && run.exit_ok,
            "reference run failed: {run:?}"
        );
        let ref_stats = validated_stats(&ref_journal);
        assert!(
            ref_stats.count("checkpoint_write") >= a.epochs,
            "reference wrote {} checkpoint_write records, want >= {}",
            ref_stats.count("checkpoint_write"),
            a.epochs
        );
        println!(
            "reference: completed, journal valid ({} checkpoint writes)",
            ref_stats.count("checkpoint_write")
        );

        // 2. Chaos sequence: seeded SIGKILLs...
        let mut kill_epochs: Vec<usize> = (0..a.kills)
            .map(|_| {
                1 + (obs::splitmix64_next(&mut rng) as usize) % (a.epochs.saturating_sub(3).max(1))
            })
            .collect();
        kill_epochs.sort_unstable();
        for (i, &k) in kill_epochs.iter().enumerate() {
            let run = spawn_child(
                &chaos_dir,
                a.epochs,
                threads,
                a.seed,
                a.arena,
                None,
                None,
                Some(k),
            );
            assert!(
                !run.completed && !run.exit_ok,
                "kill #{i} at epoch {k} did not terminate the child: {run:?}"
            );
            println!(
                "kill #{i}: SIGKILL at epoch {} (target {k})",
                run.last_epoch.unwrap()
            );
        }

        // ...then one crash mid-checkpoint-write (torn file at the final
        // path), which the next resume must detect and fall back from.
        if a.tear {
            let tear_at = a.epochs - 1;
            let run = spawn_child(
                &chaos_dir,
                a.epochs,
                threads,
                a.seed,
                a.arena,
                None,
                Some(tear_at),
                None,
            );
            assert!(
                !run.completed && !run.exit_ok,
                "tear-at-{tear_at} child should have aborted mid-write: {run:?}"
            );
            let torn = chaos_dir.join(checkpoint::file_name(tear_at));
            assert!(torn.exists(), "torn file {} missing", torn.display());
            println!(
                "tear: aborted mid-write of {}",
                checkpoint::file_name(tear_at)
            );
        }

        // 3. Final restart runs to completion and must observe the torn file.
        let chaos_journal = a.dir.join(format!("chaos-t{threads}.jsonl"));
        let run = spawn_child(
            &chaos_dir,
            a.epochs,
            threads,
            a.seed,
            a.arena,
            Some(&chaos_journal),
            None,
            None,
        );
        assert!(
            run.completed && run.exit_ok,
            "final restart failed: {run:?}"
        );
        let stats = validated_stats(&chaos_journal);
        assert!(
            stats.count("resume") >= 1,
            "final restart did not journal a resume"
        );
        if a.tear {
            assert!(
                stats.count("checkpoint_corrupt") >= 1,
                "torn checkpoint was not journaled as checkpoint_corrupt"
            );
        }
        println!(
            "final restart: completed (resume={}, checkpoint_corrupt={}), journal valid",
            stats.count("resume"),
            stats.count("checkpoint_corrupt")
        );

        // 4. The determinism contract: byte-identical final checkpoints —
        // raw f32 parameter bits, Adam moments, guard trace and history.
        let ref_bytes = final_checkpoint_bytes(&ref_dir, a.epochs);
        let chaos_bytes = final_checkpoint_bytes(&chaos_dir, a.epochs);
        assert!(
            ref_bytes == chaos_bytes,
            "final checkpoints differ between uninterrupted and chaos runs at {threads} thread(s)"
        );
        println!(
            "PASS: {} identical bytes after {} kill(s){} at {threads} thread(s)\n",
            ref_bytes.len(),
            a.kills,
            if a.tear { " + 1 torn write" } else { "" },
        );
        finals.push((threads, ref_bytes));
    }

    // 5. Thread-count invariance across the whole scenario.
    for pair in finals.windows(2) {
        assert!(
            pair[0].1 == pair[1].1,
            "final checkpoints differ between {} and {} threads",
            pair[0].0,
            pair[1].0
        );
    }
    if finals.len() > 1 {
        let counts: Vec<String> = finals.iter().map(|(t, _)| t.to_string()).collect();
        println!(
            "PASS: checkpoints bit-identical across thread counts {{{}}}",
            counts.join(", ")
        );
    }

    // 6. Tape-arena invariance: one uninterrupted run with the arena setting
    // flipped must reproduce the reference checkpoint byte-for-byte (pooled
    // buffers are zero-filled on lease, so recycling is invisible to the
    // numbers).
    if let Some(&(threads, ref ref_bytes)) = finals.first() {
        let flip_dir = a.dir.join(format!("xarena-t{threads}"));
        let _ = std::fs::remove_dir_all(&flip_dir);
        let run = spawn_child(
            &flip_dir, a.epochs, threads, a.seed, !a.arena, None, None, None,
        );
        assert!(
            run.completed && run.exit_ok,
            "arena-flip run failed: {run:?}"
        );
        let flip_bytes = final_checkpoint_bytes(&flip_dir, a.epochs);
        assert!(
            *ref_bytes == flip_bytes,
            "final checkpoints differ between arena={} and arena={}",
            a.arena,
            !a.arena
        );
        println!(
            "PASS: checkpoint bit-identical with tape arena {} vs {}",
            if a.arena { "on" } else { "off" },
            if a.arena { "off" } else { "on" },
        );
    }
    println!("chaos-restart harness: all assertions passed");
}

fn main() {
    let a = parse_args();
    if a.child {
        let threads = a.threads.first().copied().unwrap_or(1);
        child_main(&a.dir, a.epochs, threads, a.seed, a.arena);
    } else {
        orchestrate(&a);
    }
}
