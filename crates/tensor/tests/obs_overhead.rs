//! Disabled-recorder overhead: with observability off, every instrumented
//! call site costs one relaxed atomic load. This test asserts that cost is
//! negligible (<2%) against a representative perf_parallel kernel — run in
//! release mode by ci.sh (`cargo test --release -p siterec-tensor --test
//! obs_overhead`).

use siterec_obs as obs;
use siterec_tensor::{Graph, Index, Tensor};
use std::hint::black_box;
use std::time::Instant;

/// Median wall-clock seconds of `reps` runs of `f`.
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

#[test]
fn disabled_recorder_overhead_is_negligible() {
    obs::set_enabled(false);
    obs::set_profiling(false);

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
    let t_op = time_median(5, || {
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
    });

    // Cost of one disabled instrumentation call (counter_add bails on the
    // relaxed atomic load before touching the global mutex). Both per-call
    // costs are medians of 5 batches, like `t_op`, so a stall during one
    // batch no longer decides the verdict.
    let calls: u64 = 1_000_000;
    let per_call = time_median(5, || {
        for _ in 0..calls {
            obs::counter_add("overhead.test.disabled", black_box(1));
        }
    }) / calls as f64;

    // Unarmed failpoint checks sit on every I/O seam and must be just as
    // cheap: one relaxed atomic load, no lock, no allocation.
    obs::failpoint::disarm();
    let per_check = time_median(5, || {
        for _ in 0..calls {
            black_box(obs::failpoint::check(black_box("overhead.test.fp")));
        }
    }) / calls as f64;

    // The pipeline above pushes ~10 ops per run and each op passes a handful
    // of disabled checks; 10_000 checks per run (split between recorder
    // call sites and unarmed failpoint seams) overstates reality by ~2
    // orders of magnitude and must still fit in the 2% budget.
    let overhead = (per_call + per_check) * 5_000.0;
    assert!(
        overhead < 0.02 * t_op,
        "disabled instrumentation too expensive: {:.1}ns/recorder call + {:.1}ns/unarmed failpoint check, {:.3}ms modeled overhead vs 2% budget {:.3}ms",
        per_call * 1e9,
        per_check * 1e9,
        overhead * 1e3,
        0.02 * t_op * 1e3
    );
}
