//! Bitwise serial/parallel equivalence: every parallelized kernel must
//! produce *identical bits* at any thread count, because the parallel
//! partitioning preserves the serial per-element floating-point order
//! (see `parallel` module docs). These tests run each kernel — forward,
//! backward, and the Adam update — at 1 and 8 threads and compare raw
//! `f32` bit patterns, a far stronger property than the 1e-6 tolerance
//! the acceptance bar asks for.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use siterec_tensor::optim::{Adam, Optimizer};
use siterec_tensor::parallel::ThreadGuard;
use siterec_tensor::simd::SimdGuard;
use siterec_tensor::{check_input_grad, kernels, Graph, Index, Init, ParamStore, Tensor};
use std::sync::Mutex;

// The kernel thread count is process-global; tests that flip it must not
// interleave with each other.
static GLOBAL_KNOB: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GLOBAL_KNOB.lock().unwrap_or_else(|e| e.into_inner())
}

fn random_tensor(rng: &mut StdRng, rows: usize, cols: usize) -> Tensor {
    let mut t = Tensor::zeros(rows, cols);
    for x in t.data_mut() {
        *x = rng.gen_range(-2.0f32..2.0);
    }
    t
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

/// Run `f` at 1 thread and at 8 threads; assert both produce identical bits.
fn assert_bitwise_equal(label: &str, f: impl Fn() -> Vec<Tensor>) {
    let _l = lock();
    let serial: Vec<Vec<u32>> = {
        let _g = ThreadGuard::set(1);
        f().iter().map(bits).collect()
    };
    let parallel: Vec<Vec<u32>> = {
        let _g = ThreadGuard::set(8);
        f().iter().map(bits).collect()
    };
    assert_eq!(serial, parallel, "{label}: serial and 8-thread bits differ");
}

#[test]
fn dense_kernels_bitwise_equal() {
    let mut rng = StdRng::seed_from_u64(7);
    // Odd sizes so chunk boundaries don't align with anything.
    let a = random_tensor(&mut rng, 173, 67);
    let b = random_tensor(&mut rng, 67, 59);
    let c = random_tensor(&mut rng, 173, 67);
    assert_bitwise_equal("matmul", || vec![a.matmul(&b)]);
    assert_bitwise_equal("transpose", || vec![a.transpose()]);
    assert_bitwise_equal("map", || vec![a.map(|x| (x * 1.7).tanh())]);
    assert_bitwise_equal("zip", || vec![a.zip(&c, |x, y| x * y + 0.3 * y)]);
    let idx: Vec<usize> = (0..500).map(|i| (i * 37) % a.rows()).collect();
    assert_bitwise_equal("gather_rows", || vec![a.gather_rows(&idx)]);
}

#[test]
fn attention_pipeline_bitwise_equal_forward_and_backward() {
    // The hot path of the model: gather -> row_dot -> segment_softmax ->
    // mul_col_broadcast -> segment_sum -> loss, with gradients flowing all
    // the way back to the embedding table.
    let n_nodes = 300;
    let n_edges = 4000;
    let dim = 33;
    let mut rng = StdRng::seed_from_u64(11);
    let emb0 = random_tensor(&mut rng, n_nodes, dim);
    let src = Index::new(
        (0..n_edges).map(|_| rng.gen_range(0..n_nodes)).collect(),
        n_nodes,
    );
    let dst = Index::new(
        (0..n_edges).map(|_| rng.gen_range(0..n_nodes)).collect(),
        n_nodes,
    );
    let target = Tensor::zeros(n_nodes, dim);

    let run = || {
        let mut g = Graph::new();
        let emb = g.param(emb0.clone());
        let hs = g.gather_rows(emb, &src);
        let ht = g.gather_rows(emb, &dst);
        let scores = g.row_dot(hs, ht);
        let att = g.segment_softmax(scores, &dst);
        let weighted = g.mul_col_broadcast(hs, att);
        let pooled = g.segment_sum(weighted, &dst);
        let act = g.tanh(pooled);
        let loss = g.mse_loss(act, &target);
        // Read forward values before the sweep, which releases them.
        let (pooled, att) = (g.value(pooled).clone(), g.value(att).clone());
        g.backward(loss);
        vec![pooled, att, g.grad(emb).expect("emb grad").clone()]
    };
    assert_bitwise_equal("attention forward+backward", run);
}

#[test]
fn matmul_above_the_tier_scaled_split_threshold_bitwise_equal() {
    // The planner divides a matmul row's flops by its tier's rate, so only
    // a product this large splits on a vector tier (given >= 2 cores). All
    // three operand layouts must keep their bits across the split.
    let mut rng = StdRng::seed_from_u64(29);
    let (n, k, m) = (1031, 193, 129);
    let a = random_tensor(&mut rng, n, k);
    let b = random_tensor(&mut rng, k, m);
    let (at, bt) = (a.transpose(), b.transpose());
    let product = |f: &dyn Fn(&mut [f32])| {
        let mut out = Tensor::zeros(n, m);
        f(out.data_mut());
        vec![out]
    };
    assert_bitwise_equal("matmul a·b", || vec![a.matmul(&b)]);
    assert_bitwise_equal("matmul aᵀ·b", || {
        product(&|o| kernels::matmul_tn_into(at.data(), b.data(), o, n, k, m))
    });
    assert_bitwise_equal("matmul a·bᵀ", || {
        product(&|o| kernels::matmul_nt_into(a.data(), bt.data(), o, n, k, m))
    });
}

#[test]
fn matmul_chain_backward_bitwise_equal() {
    let mut rng = StdRng::seed_from_u64(23);
    let x0 = random_tensor(&mut rng, 140, 48);
    let w0 = random_tensor(&mut rng, 48, 37);
    let target = Tensor::zeros(140, 37);
    let run = || {
        let mut g = Graph::new();
        let x = g.param(x0.clone());
        let w = g.param(w0.clone());
        let h = g.matmul(x, w);
        let y = g.relu(h);
        let sm = g.softmax_rows(y);
        let loss = g.mse_loss(sm, &target);
        let sm = g.value(sm).clone();
        g.backward(loss);
        vec![
            sm,
            g.grad(x).expect("x grad").clone(),
            g.grad(w).expect("w grad").clone(),
        ]
    };
    assert_bitwise_equal("matmul chain", run);
}

#[test]
fn adam_steps_bitwise_equal() {
    let run = || {
        let mut ps = ParamStore::new(3);
        let w = ps.add("w", 90, 90, Init::XavierUniform);
        let mut opt = Adam::new(0.01);
        let target = Tensor::zeros(90, 90);
        for _ in 0..5 {
            let mut g = Graph::new();
            let binds = ps.bind(&mut g);
            let y = g.tanh(binds.var(w));
            let loss = g.mse_loss(y, &target);
            g.backward(loss);
            ps.zero_grads();
            ps.harvest(&g, &binds);
            opt.step(&mut ps);
        }
        vec![ps.get(w).value.clone()]
    };
    assert_bitwise_equal("adam training", run);
}

#[test]
fn recorder_does_not_perturb_model_bits() {
    // Determinism contract of siterec-obs: instrumentation only observes.
    // Train a few Adam steps with the recorder (and tape profiling) fully
    // enabled and fully disabled, at 1 and at 8 threads, and require all
    // four runs to produce identical parameter bits.
    let _l = lock();
    let run = || {
        let mut ps = ParamStore::new(9);
        let w = ps.add("w", 64, 64, Init::XavierUniform);
        let mut opt = Adam::new(0.01);
        let target = Tensor::zeros(64, 64);
        for _ in 0..4 {
            let mut g = Graph::new();
            let binds = ps.bind(&mut g);
            let y = g.tanh(binds.var(w));
            let loss = g.mse_loss(y, &target);
            g.backward(loss);
            ps.zero_grads();
            ps.harvest(&g, &binds);
            ps.clip_grad_norm(5.0);
            opt.step(&mut ps);
        }
        bits(&ps.get(w).value)
    };
    let mut results = Vec::new();
    for threads in [1usize, 8] {
        for instrumented in [false, true] {
            siterec_obs::reset();
            siterec_obs::set_enabled(instrumented);
            siterec_obs::set_profiling(instrumented);
            let _g = ThreadGuard::set(threads);
            results.push((threads, instrumented, run()));
        }
    }
    siterec_obs::set_enabled(false);
    siterec_obs::set_profiling(false);
    siterec_obs::reset();
    let baseline = &results[0].2;
    for (threads, instrumented, bits) in &results[1..] {
        assert_eq!(
            bits, baseline,
            "bits differ at threads={threads} recorder={instrumented}"
        );
    }
}

#[test]
fn arena_pooled_training_bitwise_equal_to_plain() {
    // The epoch-persistent TapeArena hands back recycled, zero-filled
    // buffers; training on pooled tapes must be bit-for-bit the training on
    // fresh allocations, at any thread count. Multi-epoch on one shared
    // arena so later epochs run entirely on recycled (previously dirtied)
    // buffers — the adversarial case for the zero-fill contract.
    use siterec_tensor::TapeArena;
    let n_nodes = 120;
    let n_edges = 1500;
    let dim = 19;
    let mut rng = StdRng::seed_from_u64(31);
    let src = Index::new(
        (0..n_edges).map(|_| rng.gen_range(0..n_nodes)).collect(),
        n_nodes,
    );
    let dst = Index::new(
        (0..n_edges).map(|_| rng.gen_range(0..n_nodes)).collect(),
        n_nodes,
    );
    let target = Tensor::zeros(n_nodes, dim);
    let run = |arena: Option<TapeArena>| -> Vec<Tensor> {
        let mut ps = ParamStore::new(17);
        let emb = ps.add("emb", n_nodes, dim, Init::XavierUniform);
        let head = ps.add("head", dim, dim, Init::XavierUniform);
        let mut opt = Adam::new(0.01);
        for epoch in 0..4u64 {
            let mut g = match &arena {
                Some(a) => Graph::with_seed_and_arena(epoch, a.clone()),
                None => Graph::with_seed(epoch),
            };
            let binds = ps.bind(&mut g);
            let hs = g.gather_rows(binds.var(emb), &src);
            let ht = g.gather_rows(binds.var(emb), &dst);
            let scores = g.row_dot(hs, ht);
            let att = g.segment_softmax(scores, &dst);
            let weighted = g.mul_col_broadcast(hs, att);
            let pooled = g.segment_sum(weighted, &dst);
            let h = g.matmul(pooled, binds.var(head));
            let act = g.tanh(h);
            let loss = g.mse_loss(act, &target);
            g.backward(loss);
            ps.zero_grads();
            ps.harvest(&g, &binds);
            opt.step(&mut ps);
        }
        vec![ps.get(emb).value.clone(), ps.get(head).value.clone()]
    };
    assert_bitwise_equal("arena-pooled training", || run(Some(TapeArena::new())));
    let _l = lock();
    let plain: Vec<Vec<u32>> = run(None).iter().map(bits).collect();
    let arena = TapeArena::new();
    let pooled: Vec<Vec<u32>> = run(Some(arena.clone())).iter().map(bits).collect();
    assert_eq!(plain, pooled, "arena-pooled params differ from plain");
    let stats = arena.stats();
    assert!(stats.recycles > 0, "arena never recycled: {stats:?}");
    assert!(
        stats.leases > stats.misses,
        "arena never reused a buffer: {stats:?}"
    );
}

#[test]
fn arena_pooled_simd_training_bitwise_equal_to_forced_scalar() {
    // The SIMD dispatch seam composes with the other determinism knobs:
    // run the full attention training loop on arena-pooled tapes with the
    // SIMD kernels forced off, with the matmul tier capped at AVX2 and
    // with auto dispatch, at 1 and 8 threads, and require the final
    // parameter bits of all six runs to agree. On hosts without AVX2+FMA
    // this degenerates to a (still valid) arena x thread-count consistency
    // check.
    use siterec_tensor::TapeArena;
    let _l = lock();
    let n_nodes = 110;
    let n_edges = 1300;
    let dim = 21;
    let mut rng = StdRng::seed_from_u64(43);
    let src = Index::new(
        (0..n_edges).map(|_| rng.gen_range(0..n_nodes)).collect(),
        n_nodes,
    );
    let dst = Index::new(
        (0..n_edges).map(|_| rng.gen_range(0..n_nodes)).collect(),
        n_nodes,
    );
    let target = Tensor::zeros(n_nodes, dim);
    let run = |leg: &str| -> Vec<Vec<u32>> {
        let _s = match leg {
            "scalar" => Some(SimdGuard::force_scalar()),
            "avx2-cap" => Some(SimdGuard::cap_avx2()),
            _ => None,
        };
        let arena = TapeArena::new();
        let mut ps = ParamStore::new(29);
        let emb = ps.add("emb", n_nodes, dim, Init::XavierUniform);
        let head = ps.add("head", dim, dim, Init::XavierUniform);
        let mut opt = Adam::new(0.01);
        for epoch in 0..3u64 {
            let mut g = Graph::with_seed_and_arena(epoch, arena.clone());
            let binds = ps.bind(&mut g);
            let hs = g.gather_rows(binds.var(emb), &src);
            let ht = g.gather_rows(binds.var(emb), &dst);
            let scores = g.row_dot(hs, ht);
            let att = g.segment_softmax(scores, &dst);
            let weighted = g.mul_col_broadcast(hs, att);
            let pooled = g.segment_sum(weighted, &dst);
            let h = g.matmul(pooled, binds.var(head));
            let act = g.tanh(h);
            let loss = g.mse_loss(act, &target);
            g.backward(loss);
            ps.zero_grads();
            ps.harvest(&g, &binds);
            opt.step(&mut ps);
        }
        vec![bits(&ps.get(emb).value), bits(&ps.get(head).value)]
    };
    let mut results = Vec::new();
    for threads in [1usize, 8] {
        let _g = ThreadGuard::set(threads);
        for leg in ["scalar", "avx2-cap", "auto"] {
            results.push((threads, leg, run(leg)));
        }
    }
    let baseline = &results[0].2;
    for (threads, leg, bits) in &results[1..] {
        assert_eq!(
            bits, baseline,
            "params differ at threads={threads} leg={leg}"
        );
    }
}

#[test]
fn checkpoints_byte_identical_across_simd_and_scalar() {
    // The checkpoint wire format serializes parameter values and both Adam
    // moment vectors bit-exactly; because the SIMD kernels are raw-bit
    // equivalent to the scalar fallbacks, a checkpoint written after SIMD
    // training must be *byte-identical* to one written after forced-scalar
    // training of the same run.
    use siterec_tensor::checkpoint::{encode_state, StateRef};
    use siterec_tensor::resilience::{GuardConfig, TrainGuard};
    let _l = lock();
    let _g = ThreadGuard::set(8);
    let target = Tensor::zeros(72, 40);
    let run = |force_scalar: bool| -> Vec<u8> {
        let _s = force_scalar.then(SimdGuard::force_scalar);
        let mut ps = ParamStore::new(53);
        let w = ps.add("w", 72, 40, Init::XavierUniform);
        let mut opt = Adam::new(0.01);
        for _ in 0..4 {
            let mut g = Graph::new();
            let binds = ps.bind(&mut g);
            let y = g.tanh(binds.var(w));
            let loss = g.mse_loss(y, &target);
            g.backward(loss);
            ps.zero_grads();
            ps.harvest(&g, &binds);
            opt.step(&mut ps);
        }
        let guard = TrainGuard::new(GuardConfig::default(), &ps, &opt);
        encode_state(&StateRef {
            model: "simd-ab",
            seed: 53,
            next_epoch: 4,
            params: &ps,
            opt: &opt,
            guard: &guard,
            user: &[],
        })
    };
    assert_eq!(
        run(true),
        run(false),
        "checkpoint bytes differ between forced-scalar and auto dispatch"
    );
}

#[test]
fn gradcheck_passes_with_parallel_kernels_active() {
    let _l = lock();
    let _g = ThreadGuard::set(4);
    let mut rng = StdRng::seed_from_u64(5);
    let input = random_tensor(&mut rng, 30, 7);
    let dst = Index::new((0..30).map(|i| i % 6).collect(), 6);
    let report = check_input_grad(&input, 1e-3, |g, x| {
        let s = g.segment_sum(x, &dst);
        let t = g.tanh(s);
        g.mean_all(t)
    });
    assert!(report.passes(1e-2), "gradcheck with 4 threads: {report:?}");
}
