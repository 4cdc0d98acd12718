//! Golden-bits guard for the graph baselines that run index ops.
//!
//! Trains HGT, RGCN, GraphRec and GC-MC (Adaption setting) on the tiny
//! task of `siterec-core`'s `golden_bits` for eight epochs and compares a
//! hash of every final parameter bit, plus the bits of the test-split
//! predictions, against a constant per model. The constants were recorded
//! before the baselines' edge lists moved onto `siterec_tensor::Index`; a
//! change to the arithmetic of a baseline's training or scoring fails
//! here. Each model is checked at 1 and 2 kernel threads.
//!
//! If a change is *meant* to move the bits, re-record the constant and say
//! why in CHANGES.md.

use siterec_baselines::{Baseline, GcMc, GraphRec, Hgt, Rgcn, Setting};
use siterec_graphs::SiteRecTask;
use siterec_sim::{O2oDataset, SimConfig};
use siterec_tensor::parallel::ThreadGuard;
use std::sync::Mutex;

/// The kernel thread count is process-global: one model at a time.
static THREADS: Mutex<()> = Mutex::new(());

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// FNV-1a-64 over every parameter's name, shape and value bits, in store
/// order, then over the test-split prediction bits, after eight epochs.
fn trained_hash(mut model: Box<dyn Baseline>, threads: usize) -> u64 {
    let data = O2oDataset::generate(SimConfig::tiny(7 ^ 0x51));
    let task = SiteRecTask::build(&data, 0.8, 9);
    let _g = ThreadGuard::set(threads);
    model.set_epochs(8);
    model.fit(&task);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for p in model.params().expect("graph baselines keep a store").iter() {
        fnv1a(&mut h, p.name.as_bytes());
        fnv1a(&mut h, &(p.value.rows() as u64).to_le_bytes());
        fnv1a(&mut h, &(p.value.cols() as u64).to_le_bytes());
        for &x in p.value.data() {
            fnv1a(&mut h, &x.to_bits().to_le_bytes());
        }
    }
    let pairs: Vec<(usize, usize)> = task.split.test.iter().map(|i| (i.region, i.ty)).collect();
    for p in model.predict(&task, &pairs) {
        fnv1a(&mut h, &p.to_bits().to_le_bytes());
    }
    h
}

fn assert_golden(make: fn(Setting, u64) -> Box<dyn Baseline>, golden: u64) {
    let _l = THREADS.lock().unwrap_or_else(|e| e.into_inner());
    for threads in [1, 2] {
        let model = make(Setting::Adaption, 7);
        let name = model.name();
        assert_eq!(
            format!("{:#018x}", trained_hash(model, threads)),
            format!("{golden:#018x}"),
            "{name} bits drifted from the golden run at {threads} thread(s)"
        );
    }
}

#[test]
fn hgt_trains_to_the_golden_bits() {
    assert_golden(|s, seed| Box::new(Hgt::new(s, seed)), 0x4a05_ac61_fed8_ecba);
}

#[test]
fn rgcn_trains_to_the_golden_bits() {
    assert_golden(
        |s, seed| Box::new(Rgcn::new(s, seed)),
        0x9164_b83d_e35f_db06,
    );
}

#[test]
fn graphrec_trains_to_the_golden_bits() {
    assert_golden(
        |s, seed| Box::new(GraphRec::new(s, seed)),
        0xa1c0_c44c_34c9_3e98,
    );
}

#[test]
fn gcmc_trains_to_the_golden_bits() {
    assert_golden(
        |s, seed| Box::new(GcMc::new(s, seed)),
        0x32b9_e9a7_a163_4945,
    );
}
