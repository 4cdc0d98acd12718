//! Every matmul tier trains to the same checkpoint bytes.
//!
//! Trains the Full model at the Table III widths (`d2` = 60 with 5 node
//! heads, so every tiled product ends in a partial 16-wide panel) on the
//! tiny city for two durable epochs under each dispatch leg — forced
//! scalar, AVX2-capped and the host's widest tier (AVX-512 where detected)
//! — and requires the final SRCKPT1 checkpoints, the `encode_state` bytes
//! of the whole training state, to be identical. On a host without a
//! vector tier every leg runs scalar and the test is a self-consistency
//! check.

use siterec_core::{O2SiteRec, SiteRecConfig, Variant};
use siterec_graphs::SiteRecTask;
use siterec_sim::{O2oDataset, SimConfig};
use siterec_tensor::checkpoint::{self, CheckpointPolicy};
use siterec_tensor::simd::{self, SimdGuard};

const EPOCHS: usize = 2;

#[test]
fn checkpoints_byte_identical_across_matmul_tiers() {
    let data = O2oDataset::generate(SimConfig::tiny(42));
    let task = SiteRecTask::build(&data, 0.8, 9);
    let cfg = SiteRecConfig {
        d2: 60,
        node_heads: 5,
        dropout: 0.3,
        lr: 5e-3,
        epochs: EPOCHS,
        seed: 42,
        variant: Variant::Full,
        ..Default::default()
    };
    let base = std::env::temp_dir().join(format!("siterec_simd_tiers_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let mut legs: Vec<(String, Vec<u8>)> = Vec::new();
    for leg in ["scalar", "avx2-cap", "auto"] {
        let _guard = match leg {
            "scalar" => Some(SimdGuard::force_scalar()),
            "avx2-cap" => Some(SimdGuard::cap_avx2()),
            _ => None,
        };
        let dir = base.join(leg);
        let mut model = O2SiteRec::new(&data, &task, cfg.clone());
        model
            .try_train_resumable(&CheckpointPolicy::new(&dir))
            .expect("Table III-width model trains");
        let bytes = std::fs::read(dir.join(checkpoint::file_name(EPOCHS))).expect("final ckpt");
        legs.push((format!("{leg} ({})", simd::tier().name()), bytes));
    }
    let _ = std::fs::remove_dir_all(&base);
    let (base_leg, want) = &legs[0];
    for (leg, got) in &legs[1..] {
        assert!(
            got == want,
            "checkpoint bytes under {leg} differ from {base_leg}"
        );
    }
}
