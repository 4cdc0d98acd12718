//! Golden-bits guard for the training path.
//!
//! Trains the tiny Full model (the `tiny` serving recipe's shape) for eight
//! epochs and compares a hash of every final parameter bit against a
//! constant recorded before the node-level attention was fused into one
//! tape op. The `w/o NA` variant, whose node-level aggregation is a
//! `segment_mean` instead of `edge_attention`, is pinned the same way.
//! Any change to the arithmetic of training — op fusion, kernel
//! rewrites, accumulation order, a stray `-0.0` — changes the hash, so a
//! "same bits" refactor that is not fails here instead of drifting silently.
//!
//! If a change is *meant* to move the bits, re-record the constant and say
//! why in CHANGES.md.

use siterec_core::{O2SiteRec, SiteRecConfig, Variant};
use siterec_graphs::SiteRecTask;
use siterec_sim::{O2oDataset, SimConfig};

/// FNV-1a-64 over every parameter's name, shape and value bits, in store
/// order, after eight epochs.
const GOLDEN: u64 = 0x94ac_83db_5ad3_ccd4;
/// The same hash for [`Variant::WithoutNodeAttention`].
const GOLDEN_WITHOUT_NA: u64 = 0x868c_bb90_c447_5ec1;

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn trained_param_hash(variant: Variant, threads: usize) -> u64 {
    let data = O2oDataset::generate(SimConfig::tiny(7 ^ 0x51));
    let task = SiteRecTask::build(&data, 0.8, 9);
    let cfg = SiteRecConfig {
        d1: 8,
        d2: 16,
        node_heads: 2,
        time_heads: 2,
        layers: 1,
        epochs: 8,
        lr: 1e-2,
        seed: 7,
        variant,
        parallel: siterec_tensor::ParallelConfig::with_threads(threads),
        ..Default::default()
    };
    let mut model = O2SiteRec::new(&data, &task, cfg);
    model.try_train().expect("tiny model trains");
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for p in model.param_store().iter() {
        fnv1a(&mut h, p.name.as_bytes());
        fnv1a(&mut h, &(p.value.rows() as u64).to_le_bytes());
        fnv1a(&mut h, &(p.value.cols() as u64).to_le_bytes());
        for &x in p.value.data() {
            fnv1a(&mut h, &x.to_bits().to_le_bytes());
        }
    }
    h
}

fn assert_golden(variant: Variant, golden: u64) {
    for threads in [1, 2] {
        assert_eq!(
            format!("{:#018x}", trained_param_hash(variant, threads)),
            format!("{golden:#018x}"),
            "{variant:?} parameter bits drifted from the golden run at {threads} thread(s)"
        );
    }
}

#[test]
fn tiny_full_model_trains_to_the_golden_parameter_bits() {
    assert_golden(Variant::Full, GOLDEN);
}

#[test]
fn tiny_without_node_attention_model_trains_to_the_golden_parameter_bits() {
    assert_golden(Variant::WithoutNodeAttention, GOLDEN_WITHOUT_NA);
}
