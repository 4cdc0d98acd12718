//! Property tests for the durable-checkpoint codec and generation fallback.
//!
//! The unit tests in `checkpoint.rs` pin the format down for one fixed state
//! (including an exhaustive single-bit-flip scan); these properties widen the
//! coverage to arbitrary tensor shapes, raw `f32` bit patterns (NaNs,
//! infinities, subnormals, `-0.0`), partially-stepped Adam moments and
//! arbitrary user payloads:
//!
//! * encode → decode → re-encode is byte-identical (save/load loses nothing),
//! * a full save → `load_latest` round-trip through the filesystem is
//!   bit-identical,
//! * truncating the encoded bytes anywhere produces `Corrupt`, never a panic
//!   and never a silently different state,
//! * flipping bits in the newest on-disk generation makes `load_latest` fall
//!   back to the previous generation, bit-identically.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use siterec_obs as obs;
use siterec_tensor::checkpoint::{
    decode_state, encode_state, load_file, load_latest, save, CheckpointError, CheckpointPolicy,
    TrainState,
};
use siterec_tensor::optim::{Adam, Optimizer};
use siterec_tensor::resilience::GuardConfig;
use siterec_tensor::{ParamStore, Tensor, TrainGuard};

/// Fresh scratch directory per property case (cases run inside one process).
fn tmpdir() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!("siterec_ckpt_props_{}_{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Build a `TrainState` from raw generated material. Tensor values and
/// gradients are drawn from `pool` as raw IEEE-754 bit patterns (cycled), so
/// every float class — NaN payloads, infinities, subnormals, negative zero —
/// flows through the codec. `steps` Adam steps populate first/second moments
/// with whatever those bit patterns produce.
fn build_state(
    shapes: &[(usize, usize)],
    pool: &[u32],
    steps: usize,
    next_epoch: usize,
    seed: u64,
    user: Vec<u8>,
) -> TrainState {
    let mut ps = ParamStore::new(seed);
    let mut cursor = 0usize;
    let mut draw = |n: usize| -> Vec<f32> {
        (0..n)
            .map(|_| {
                let bits = pool[cursor % pool.len()];
                cursor += 1;
                f32::from_bits(bits)
            })
            .collect()
    };
    for (i, &(rows, cols)) in shapes.iter().enumerate() {
        let id = ps.add_tensor(
            &format!("p{i}"),
            Tensor::from_vec(rows, cols, draw(rows * cols)),
        );
        ps.get_mut(id).grad = Tensor::from_vec(rows, cols, draw(rows * cols));
    }
    let mut opt = Adam::new(1e-2);
    for _ in 0..steps {
        opt.step(&mut ps);
    }
    let guard = TrainGuard::new(GuardConfig::default(), &ps, &opt);
    TrainState {
        model: format!("prop-model-{}", shapes.len()),
        seed,
        next_epoch,
        params: ps,
        opt,
        guard,
        user,
    }
}

/// Bit-exact equality oracle: the canonical encoding captures every field,
/// so equal encodings ⇔ equal states.
fn assert_bit_identical(a: &TrainState, b: &TrainState) {
    assert_eq!(a.model, b.model);
    assert_eq!(a.seed, b.seed);
    assert_eq!(a.next_epoch, b.next_epoch);
    for (x, y) in a.params.iter().zip(b.params.iter()) {
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        assert_eq!(x.name, y.name);
        assert_eq!(bits(&x.value), bits(&y.value));
        assert_eq!(bits(&x.grad), bits(&y.grad));
    }
    assert_eq!(encode_state(&a.parts()), encode_state(&b.parts()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// encode → decode → re-encode is the identity on bytes for arbitrary
    /// shapes, float bit patterns, Adam step counts and user payloads.
    #[test]
    fn roundtrip_is_bit_identical_for_arbitrary_states(
        shapes in prop::collection::vec((1usize..5, 1usize..7), 1..4),
        pool in prop::collection::vec(0u32..=u32::MAX, 64),
        (steps, next_epoch, seed) in (0usize..4, 0usize..10_000, 0u64..u64::MAX),
        user in prop::collection::vec(0u8..=u8::MAX, 0..32),
    ) {
        let s = build_state(&shapes, &pool, steps, next_epoch, seed, user);
        let bytes = encode_state(&s.parts());
        let back = decode_state(&bytes).unwrap();
        assert_bit_identical(&s, &back);
    }

    /// A save → `load_latest` round-trip through the filesystem preserves
    /// every bit, for arbitrary states.
    #[test]
    fn save_then_load_latest_is_bit_identical(
        shapes in prop::collection::vec((1usize..4, 1usize..5), 1..3),
        pool in prop::collection::vec(0u32..=u32::MAX, 48),
        (steps, next_epoch, seed) in (0usize..3, 1usize..5_000, 0u64..u64::MAX),
    ) {
        let dir = tmpdir();
        let s = build_state(&shapes, &pool, steps, next_epoch, seed, vec![9, 9]);
        save(&CheckpointPolicy::new(&dir), &s.parts()).unwrap();
        let back = load_latest(&dir).unwrap().expect("a checkpoint was just written");
        assert_bit_identical(&s, &back);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Truncating the encoded bytes at any generated point is reported as
    /// `Corrupt` — never a panic, never a silently different state.
    #[test]
    fn truncation_anywhere_is_corrupt(
        shapes in prop::collection::vec((1usize..4, 1usize..5), 1..3),
        pool in prop::collection::vec(0u32..=u32::MAX, 48),
        cut_frac in 0.0f64..1.0,
    ) {
        let s = build_state(&shapes, &pool, 1, 3, 7, vec![1]);
        let bytes = encode_state(&s.parts());
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        match decode_state(&bytes[..cut.min(bytes.len() - 1)]) {
            Err(CheckpointError::Corrupt(_)) => {}
            Err(e) => panic!("expected Corrupt, got {e:?}"),
            Ok(_) => panic!("truncated checkpoint decoded successfully"),
        }
    }

    /// Flipping bits of the newest on-disk generation never panics and never
    /// surfaces the damaged state: `load_latest` falls back to the previous
    /// generation bit-identically.
    #[test]
    fn corrupt_newest_generation_falls_back_bit_identically(
        pool in prop::collection::vec(0u32..=u32::MAX, 48),
        pos_frac in 0.0f64..1.0,
        mask in 1u8..=u8::MAX,
    ) {
        let dir = tmpdir();
        let policy = CheckpointPolicy::new(&dir);
        let older = build_state(&[(2, 3)], &pool, 1, 4, 11, vec![4]);
        let newer = build_state(&[(2, 3)], &pool, 2, 5, 11, vec![5]);
        save(&policy, &older.parts()).unwrap();
        let newest_path = save(&policy, &newer.parts()).unwrap();

        let mut bytes = std::fs::read(&newest_path).unwrap();
        let pos = (((bytes.len() as f64) * pos_frac) as usize).min(bytes.len() - 1);
        bytes[pos] ^= mask;
        std::fs::write(&newest_path, &bytes).unwrap();

        let back = load_latest(&dir).unwrap().expect("previous generation survives");
        assert_bit_identical(&older, &back);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// When *every* on-disk generation is damaged — each in a different way —
/// the fallback chain is exhausted cleanly: `load_latest` returns
/// `Ok(None)` (caller restarts from scratch), each generation is journaled
/// as its own `checkpoint_corrupt` record, each `load_file` reports a
/// structured `Corrupt` error, and nothing panics.
///
/// The obs journal is process-global and the concurrently-running property
/// tests above also save checkpoints once recording is enabled, so the
/// record count is filtered down to this test's unique directory.
#[test]
fn all_generations_corrupt_exhausts_fallback_cleanly() {
    let pool: Vec<u32> = (0..48).map(|i| 0x3f80_0000 + i * 0x1000).collect();
    let dir = tmpdir();
    let policy = CheckpointPolicy::new(&dir).generations(3);
    for e in 1..=3 {
        save(
            &policy,
            &build_state(&[(2, 3)], &pool, 1, e, 13, vec![e as u8]).parts(),
        )
        .unwrap();
    }
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|f| f.unwrap().path())
        .collect();
    files.sort();
    assert_eq!(files.len(), 3, "three generations on disk");

    // Damage every generation, each differently: torn write, single
    // bit-flip, total garbage.
    let torn = std::fs::read(&files[0]).unwrap();
    std::fs::write(&files[0], &torn[..torn.len() / 2]).unwrap();
    let mut flipped = std::fs::read(&files[1]).unwrap();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x10;
    std::fs::write(&files[1], &flipped).unwrap();
    std::fs::write(&files[2], b"not a checkpoint at all").unwrap();

    obs::set_enabled(true);
    assert!(
        load_latest(&dir).unwrap().is_none(),
        "exhausted fallback must report no checkpoint, not a damaged one"
    );
    for path in &files {
        match load_file(path) {
            Err(CheckpointError::Corrupt(reason)) => {
                assert!(!reason.is_empty(), "Corrupt must carry a reason")
            }
            Err(e) => panic!("expected Corrupt for {}, got {e:?}", path.display()),
            Ok(_) => panic!("damaged checkpoint {} decoded successfully", path.display()),
        }
    }

    let journal = obs::journal_to_string();
    obs::validate_journal(&journal).expect("journal stays schema-valid");
    let dir_str = dir.display().to_string();
    let mine = journal
        .lines()
        .filter(|l| l.contains("\"type\":\"checkpoint_corrupt\"") && l.contains(&dir_str))
        .count();
    assert_eq!(
        mine, 3,
        "one checkpoint_corrupt record per damaged generation"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
