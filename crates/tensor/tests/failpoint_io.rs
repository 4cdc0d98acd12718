//! Checkpoint I/O under armed failpoints: the `ckpt.write.fsync` and
//! `ckpt.read.section` seams from `siterec_obs::failpoint`, driven through
//! the real `save` / `load_latest` paths.
//!
//! What must hold at each seam:
//!
//! * transient write failures (`err`, `short`) are healed by the bounded
//!   deterministic retry inside `save` — the checkpoint on disk ends up
//!   bit-identical to an unfaulted write,
//! * a *silently corrupting* write (`corrupt` — the write "succeeds") is
//!   caught downstream by the CRC at load time and falls back to the
//!   previous generation, journaling `checkpoint_corrupt`,
//! * a short *read* likewise lands in the CRC and falls back, and
//! * every firing is journaled as a schema-valid `failpoint` record.
//!
//! One `#[test]` fn: the failpoint registry is process-global and this
//! integration-test binary owns its process.

use siterec_obs as obs;
use siterec_tensor::checkpoint::{encode_state, load_latest, save, CheckpointPolicy, TrainState};
use siterec_tensor::optim::{Adam, Optimizer};
use siterec_tensor::resilience::GuardConfig;
use siterec_tensor::{ParamStore, Tensor, TrainGuard};
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("siterec_fp_io_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn state(next_epoch: usize, fill: f32) -> TrainState {
    let mut ps = ParamStore::new(41);
    let id = ps.add_tensor("w", Tensor::from_vec(2, 3, vec![fill; 6]));
    ps.get_mut(id).grad = Tensor::from_vec(2, 3, vec![fill * 0.5; 6]);
    let mut opt = Adam::new(1e-2);
    opt.step(&mut ps);
    let guard = TrainGuard::new(GuardConfig::default(), &ps, &opt);
    TrainState {
        model: "fp-io".to_string(),
        seed: 41,
        next_epoch,
        params: ps,
        opt,
        guard,
        user: vec![7],
    }
}

#[test]
fn checkpoint_io_seams_heal_or_fall_back() {
    obs::reset();
    obs::set_enabled(true);
    obs::failpoint::disarm();

    // Transient write errors heal via retry: err fails the attempt outright,
    // short leaves a torn file at the destination — both are repaired by the
    // retried atomic write and load back bit-identically.
    for mode in ["err", "short"] {
        let dir = tmpdir(mode);
        let s = state(3, 1.25);
        obs::failpoint::arm(&format!("ckpt.write.fsync={mode}@1")).unwrap();
        save(&CheckpointPolicy::new(&dir), &s.parts()).expect("retry heals the transient fault");
        let fired: u64 = obs::failpoint::stats().iter().map(|s| s.fired).sum();
        assert_eq!(fired, 1, "{mode}: fault fired once, the retry passed clean");
        assert!(
            obs::failpoint::hits("ckpt.write.fsync") >= 2,
            "{mode}: the seam must have been re-entered by the retry"
        );
        obs::failpoint::disarm();
        let back = load_latest(&dir).unwrap().expect("healed checkpoint loads");
        assert_eq!(
            encode_state(&back.parts()),
            encode_state(&s.parts()),
            "{mode}: healed write lost bits"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    // A corrupting write "succeeds" — no error for retry to see — so the
    // damage must be caught by the CRC at load time, falling back to the
    // previous generation.
    let dir = tmpdir("corrupt_write");
    let policy = CheckpointPolicy::new(&dir);
    let older = state(1, 2.0);
    save(&policy, &older.parts()).unwrap();
    obs::failpoint::arm("ckpt.write.fsync=corrupt@1").unwrap();
    save(&policy, &state(2, 3.0).parts()).expect("corrupting write reports success");
    obs::failpoint::disarm();
    let back = load_latest(&dir)
        .unwrap()
        .expect("fallback generation survives");
    assert_eq!(
        back.next_epoch, 1,
        "corrupt newest generation must be skipped"
    );
    assert_eq!(encode_state(&back.parts()), encode_state(&older.parts()));
    let _ = std::fs::remove_dir_all(&dir);

    // A short read truncates the newest generation in flight; the CRC turns
    // it into a clean Corrupt and the previous generation is served. The
    // failpoint fires on hit 1 only, so the fallback read is clean.
    let dir = tmpdir("short_read");
    let policy = CheckpointPolicy::new(&dir);
    let older = state(4, 4.0);
    save(&policy, &older.parts()).unwrap();
    save(&policy, &state(5, 5.0).parts()).unwrap();
    obs::failpoint::arm("ckpt.read.section=short@1").unwrap();
    let back = load_latest(&dir)
        .unwrap()
        .expect("fallback generation survives");
    obs::failpoint::disarm();
    assert_eq!(
        back.next_epoch, 4,
        "short read of the newest must fall back"
    );
    assert_eq!(encode_state(&back.parts()), encode_state(&older.parts()));
    let _ = std::fs::remove_dir_all(&dir);

    // Every firing above was journaled, schema-valid: 2 healed writes, 1
    // corrupting write, 1 short read = 4 failpoint records; the corrupt
    // write and the short read each cost one checkpoint_corrupt fallback.
    let journal = obs::journal_to_string();
    let stats = obs::validate_journal(&journal).expect("journal validates");
    assert_eq!(stats.count("failpoint"), 4, "all four firings journaled");
    assert_eq!(
        stats.count("checkpoint_corrupt"),
        2,
        "one fallback per silent corruption"
    );

    obs::reset();
    obs::set_enabled(false);
}
