//! Arena/kernel compatibility with the durability layer: the epoch-persistent
//! `TapeArena` and the tiled matmul path must be invisible to everything
//! downstream — `SRCKPT1` checkpoints and predictions byte-identical with
//! the arena on or off, resume working across a mid-run flip of the
//! setting, and tape profiling (`op_profile` records) unperturbed.

use siterec_core::{O2SiteRec, SiteRecConfig, Variant};
use siterec_graphs::SiteRecTask;
use siterec_sim::{O2oDataset, SimConfig};
use siterec_tensor::checkpoint::{self, CheckpointPolicy};
use std::path::Path;

fn task() -> (O2oDataset, SiteRecTask) {
    let d = O2oDataset::generate(SimConfig::tiny(51));
    let t = SiteRecTask::build(&d, 0.8, 9);
    (d, t)
}

fn tiny_cfg(arena: bool) -> SiteRecConfig {
    SiteRecConfig {
        d1: 8,
        d2: 16,
        node_heads: 2,
        time_heads: 2,
        layers: 1,
        epochs: 6,
        lr: 1e-2,
        arena,
        variant: Variant::Full,
        ..Default::default()
    }
}

fn final_ckpt(dir: &Path, epochs: usize) -> Vec<u8> {
    std::fs::read(dir.join(checkpoint::file_name(epochs))).expect("final checkpoint")
}

#[test]
fn checkpoints_byte_identical_with_arena_on_or_off() {
    let (d, t) = task();
    let base = std::env::temp_dir().join(format!("siterec_arena_ckpt_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let mut bytes = Vec::new();
    for arena in [true, false] {
        let dir = base.join(format!("arena-{arena}"));
        let mut m = O2SiteRec::new(&d, &t, tiny_cfg(arena));
        m.try_train_resumable(&CheckpointPolicy::new(&dir)).unwrap();
        if arena {
            let stats = m.arena_stats();
            assert!(stats.recycles > 0, "arena unused in arena run: {stats:?}");
        }
        bytes.push(final_ckpt(&dir, 6));
    }
    assert!(
        bytes[0] == bytes[1],
        "SRCKPT1 checkpoints differ between arena on and off"
    );
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn predict_after_training_reuses_the_pool_and_keeps_its_bits() {
    // Evaluation tapes lease from the model's arena: once training has
    // pooled its buffers, a predict allocates (almost) nothing new, and
    // scores the same bits as a model that never pooled.
    let (d, t) = task();
    let pairs: Vec<(usize, usize)> = t.split.test.iter().map(|i| (i.region, i.ty)).collect();
    let mut preds = Vec::new();
    for arena in [true, false] {
        let mut m = O2SiteRec::new(&d, &t, tiny_cfg(arena));
        m.try_train().unwrap();
        let before = m.arena_stats();
        let p = m.predict(&pairs);
        let after = m.arena_stats();
        if arena {
            // Only the pair-sized buffers (test pairs, not training pairs)
            // can miss; they are a sliver of the pooled bytes.
            assert!(after.leases > before.leases, "predict did not lease");
            assert!(
                after.misses - before.misses <= (after.leases - before.leases) / 5
                    && after.bytes - before.bytes <= before.bytes / 20,
                "predict allocated beside the pool: {before:?} -> {after:?}"
            );
        } else {
            assert_eq!(after, before, "an arena-off model touched its arena");
        }
        preds.push(p.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
    }
    assert!(
        preds[0] == preds[1],
        "predict bits differ between arena on and off"
    );
}

#[test]
fn the_pool_stops_growing_after_the_first_epoch() {
    // From the second epoch on, every lease finds the exact buffer the
    // previous epoch returned: nothing is allocated, and no fresh buffer
    // (a per-epoch copy of a constant, say) is recycled into the pool.
    // Evaluation tapes then lease from the same buffers.
    let (d, t) = task();
    let dir = std::env::temp_dir().join(format!("siterec_arena_flat_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut m = O2SiteRec::new(&d, &t, tiny_cfg(true));
    let arena = m.arena();
    let mut seen = Vec::new();
    m.try_train_resumable_with(&CheckpointPolicy::new(&dir), |_| {
        let s = arena.stats();
        seen.push((s.bytes, s.misses));
    })
    .unwrap();
    assert_eq!(seen.len(), 6);
    assert!(
        seen[1..].iter().all(|&s| s == seen[0]),
        "bytes/misses moved after epoch 1: {seen:?}"
    );
    let pairs: Vec<(usize, usize)> = t.split.test.iter().map(|i| (i.region, i.ty)).collect();
    for _ in 0..2 {
        m.predict(&pairs);
        let s = m.arena_stats();
        assert_eq!((s.bytes, s.misses), seen[0], "predict grew the pool");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_works_across_an_arena_setting_flip() {
    // A checkpoint written by a malloc-per-epoch run must resume bit-exactly
    // under a pooled run (and the result must match a run that was pooled
    // from the start): the arena setting is an execution detail, not model
    // state, so it never leaks into the wire format.
    let (d, t) = task();
    let base = std::env::temp_dir().join(format!("siterec_arena_flip_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    let ref_dir = base.join("ref");
    let mut reference = O2SiteRec::new(&d, &t, tiny_cfg(true));
    reference
        .try_train_resumable(&CheckpointPolicy::new(&ref_dir))
        .unwrap();

    // First 3 epochs with the arena off...
    let flip_dir = base.join("flip");
    let mut half_cfg = tiny_cfg(false);
    half_cfg.epochs = 3;
    let mut first = O2SiteRec::new(&d, &t, half_cfg);
    first
        .try_train_resumable(&CheckpointPolicy::new(&flip_dir))
        .unwrap();

    // ...then a fresh model resumes from disk with the arena on.
    let mut second = O2SiteRec::new(&d, &t, tiny_cfg(true));
    second
        .try_train_resumable(&CheckpointPolicy::new(&flip_dir))
        .unwrap();

    assert!(
        final_ckpt(&ref_dir, 6) == final_ckpt(&flip_dir, 6),
        "resume across an arena flip diverged from the all-arena run"
    );
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn tape_profile_records_unperturbed_by_arena() {
    // Profiling observes pooled tapes exactly as it observes plain ones:
    // op_profile aggregates appear for the same op kinds, and the trained
    // parameter bits are identical with profiling on or off.
    let (d, t) = task();
    let mut all_bits: Vec<Vec<u32>> = Vec::new();
    for profiling in [false, true] {
        siterec_obs::reset();
        siterec_obs::set_enabled(profiling);
        siterec_obs::set_profiling(profiling);
        let mut m = O2SiteRec::new(&d, &t, tiny_cfg(true));
        m.try_train().unwrap();
        all_bits.push(
            m.param_store()
                .iter()
                .flat_map(|p| p.value.data().iter().map(|v| v.to_bits()))
                .collect(),
        );
        if profiling {
            let stats = siterec_obs::validate_journal(&siterec_obs::journal_to_string())
                .expect("journal from a profiled arena run validates");
            assert!(
                stats.count("op_profile") > 0,
                "no op_profile records from a profiled arena run: {stats:?}"
            );
        }
        siterec_obs::set_enabled(false);
        siterec_obs::set_profiling(false);
        siterec_obs::reset();
    }
    assert_eq!(
        all_bits[0], all_bits[1],
        "profiling perturbed arena-pooled training bits"
    );
}
