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
//! The trained models' inference is pinned too: every `predict_for` score
//! over all (region, type, period selector) keys, plus the `h`/`q` tables
//! `export_serving` hands the serving layer, hashed into one constant per
//! variant.
//!
//! If a change is *meant* to move the bits, re-record the constant and say
//! why in CHANGES.md.

use siterec_core::{O2SiteRec, SiteRecConfig, Variant};
use siterec_geo::Period;
use siterec_graphs::SiteRecTask;
use siterec_sim::{O2oDataset, SimConfig};

/// FNV-1a-64 over every parameter's name, shape and value bits, in store
/// order, after eight epochs.
const GOLDEN: u64 = 0x94ac_83db_5ad3_ccd4;
/// The same hash for [`Variant::WithoutNodeAttention`].
const GOLDEN_WITHOUT_NA: u64 = 0x868c_bb90_c447_5ec1;
/// FNV-1a-64 over the trained Full model's `predict_for` bits for every
/// (region, type) key under each of the six period selectors (the five
/// periods, then all periods), followed by `export_serving`'s per-period
/// `h` and `q` tables.
const GOLDEN_SERVED: u64 = 0xabd6_5253_8687_0edc;
/// The same hash for [`Variant::WithoutNodeAttention`].
const GOLDEN_SERVED_WITHOUT_NA: u64 = 0xb8f9_fe38_845b_6f99;

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn trained(variant: Variant, threads: usize) -> O2SiteRec {
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
    model
}

fn param_hash(model: &O2SiteRec) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for p in model.param_store().iter() {
        fnv1a(&mut h, p.name.as_bytes());
        fnv1a(&mut h, &(p.value.rows() as u64).to_le_bytes());
        fnv1a(&mut h, &(p.value.cols() as u64).to_le_bytes());
        fnv1a_f32s(&mut h, p.value.data());
    }
    h
}

fn fnv1a_f32s(h: &mut u64, xs: &[f32]) {
    for &x in xs {
        fnv1a(h, &x.to_bits().to_le_bytes());
    }
}

fn served_hash(model: &O2SiteRec) -> u64 {
    let export = model.export_serving();
    let keys: Vec<(usize, usize)> = (0..export.s_of_region.len())
        .flat_map(|r| (0..export.n_types).map(move |t| (r, t)))
        .collect();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for selector in Period::ALL.map(Some).into_iter().chain([None]) {
        fnv1a_f32s(&mut h, &model.predict_for(&keys, selector));
    }
    for table in export.h.iter().chain(&export.q) {
        fnv1a(&mut h, &(table.rows() as u64).to_le_bytes());
        fnv1a(&mut h, &(table.cols() as u64).to_le_bytes());
        fnv1a_f32s(&mut h, table.data());
    }
    h
}

fn assert_golden(variant: Variant, golden: u64, served: u64) {
    for threads in [1, 2] {
        let model = trained(variant, threads);
        assert_eq!(
            format!("{:#018x}", param_hash(&model)),
            format!("{golden:#018x}"),
            "{variant:?} parameter bits drifted from the golden run at {threads} thread(s)"
        );
        assert_eq!(
            format!("{:#018x}", served_hash(&model)),
            format!("{served:#018x}"),
            "{variant:?} predict/export bits drifted from the golden run at {threads} thread(s)"
        );
    }
}

#[test]
fn tiny_full_model_trains_to_the_golden_parameter_bits() {
    assert_golden(Variant::Full, GOLDEN, GOLDEN_SERVED);
}

#[test]
fn tiny_without_node_attention_model_trains_to_the_golden_parameter_bits() {
    assert_golden(
        Variant::WithoutNodeAttention,
        GOLDEN_WITHOUT_NA,
        GOLDEN_SERVED_WITHOUT_NA,
    );
}
