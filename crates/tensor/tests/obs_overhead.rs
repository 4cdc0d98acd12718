//! Disabled-recorder overhead: with observability off, every instrumented
//! call site costs one relaxed atomic load. This test asserts that cost is
//! negligible (<2%) against a representative perf_parallel kernel — run in
//! release mode by ci.sh (`cargo test --release -p siterec-tensor --test
//! obs_overhead`).
//!
//! The host's speed drifts while the test runs (other processes, frequency
//! changes), so the three timings are taken in alternating batches — one
//! kernel run, then a block of recorder calls, then a block of failpoint
//! checks — and the verdict is the median over batches of each batch's own
//! overhead ratio. A stall hits one batch, not the whole comparison.

use siterec_obs as obs;
use siterec_tensor::{Graph, Index, Tensor};
use std::hint::black_box;
use std::time::Instant;

/// Alternating batches; odd, so the median is one batch's ratio.
const BATCHES: usize = 21;
/// Disabled calls timed per block, for each of the two instruments.
const CALLS: u64 = 200_000;

/// Wall-clock seconds of one run of `f`.
fn time(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

#[test]
fn disabled_recorder_overhead_is_negligible() {
    obs::set_enabled(false);
    obs::set_profiling(false);
    obs::failpoint::disarm();

    // Representative kernel from perf_parallel: the attention forward +
    // backward pipeline. Every op pushed onto this tape passes through the
    // disabled instrumentation checks already (profile hook, parallel-region
    // counters, tape-length histogram on drop).
    let n_nodes = 128;
    let n_edges = 4_000;
    let dim = 32;
    let emb0 = Tensor::full(n_nodes, dim, 0.1);
    let src = Index::new((0..n_edges).map(|i| (i * 31) % n_nodes).collect(), n_nodes);
    let dst = Index::new((0..n_edges).map(|i| (i * 7) % n_nodes).collect(), n_nodes);
    let kernel = || {
        let mut g = Graph::new();
        let emb = g.param(emb0.clone());
        let hs = g.gather_rows(emb, &src);
        let ht = g.gather_rows(emb, &dst);
        let s = g.row_dot(hs, ht);
        let alpha = g.segment_softmax(s, &dst);
        let wv = g.mul_col_broadcast(hs, alpha);
        let agg = g.segment_sum(wv, &dst);
        let loss = g.mean_all(agg);
        g.backward(loss);
        black_box(g.grad(emb).is_some());
    };
    kernel(); // warm-up

    // The pipeline above pushes ~10 ops per run and each op passes a handful
    // of disabled checks; 10_000 checks per run (split between recorder
    // call sites and unarmed failpoint seams) overstates reality by ~2
    // orders of magnitude and must still fit in the 2% budget.
    let mut batches: Vec<(f64, f64, f64)> = (0..BATCHES)
        .map(|_| {
            let t_op = time(kernel);
            // One disabled recorder call: counter_add bails on the relaxed
            // atomic load before touching the global mutex.
            let per_call = time(|| {
                for _ in 0..CALLS {
                    obs::counter_add("overhead.test.disabled", black_box(1));
                }
            }) / CALLS as f64;
            // Unarmed failpoint checks sit on every I/O seam and must be
            // just as cheap: one relaxed atomic load, no lock, no
            // allocation.
            let per_check = time(|| {
                for _ in 0..CALLS {
                    black_box(obs::failpoint::check(black_box("overhead.test.fp")));
                }
            }) / CALLS as f64;
            let overhead = (per_call + per_check) * 5_000.0;
            (overhead / t_op, t_op, per_call + per_check)
        })
        .collect();
    batches.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (ratio, t_op, per_pair) = batches[BATCHES / 2];
    assert!(
        ratio < 0.02,
        "disabled instrumentation too expensive: median batch {:.2}% of the kernel \
         ({:.1}ns per recorder call + unarmed failpoint check, {:.3}ms kernel; \
         budget 2%)",
        ratio * 100.0,
        per_pair * 1e9,
        t_op * 1e3
    );
}
