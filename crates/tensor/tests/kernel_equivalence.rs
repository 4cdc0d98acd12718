//! Tiled-vs-naive matmul microkernel equivalence: the cache-blocked kernel
//! must produce *identical raw `f32` bits* to the naive triple loop on every
//! shape, at every thread count, and through arena-pooled tapes. The shapes
//! below are adversarial on purpose: empty and degenerate dims, primes,
//! every column count mod the 16-wide panel, sizes straddling the `MR`
//! register-tile edge, the AVX-512 four-panel groups and the `KC` cache
//! block, and sizes on both sides of the `TILED_MIN_MACS` dispatch
//! threshold. See `kernels` module docs for why the naive loop's
//! zero-skip cannot change the bits.
//!
//! A second family of tests pins the SIMD dispatch seam: every vectorized
//! kernel (tiled matmul in all three layouts, segment-softmax, fused Adam)
//! must produce the exact scalar-fallback bits under every tier the host
//! has — scalar, AVX2 (capped with `SimdGuard::cap_avx2`) and the auto
//! choice (AVX-512 where detected) — including on adversarial *bit
//! patterns* (NaN payloads, ±0.0, denormals, ±inf, huge and tiny
//! magnitudes). Those compare tiled-vs-tiled across tiers, never
//! naive-vs-tiled: the naive loop's zero-skip is only bit-transparent for
//! finite inputs (`0 * inf` is NaN, so skipping a zero `a` term changes the
//! result once non-finite values are in play). On a host without a vector
//! tier every leg runs scalar and the tests degenerate to (still valid)
//! self-consistency checks.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use siterec_tensor::kernels::{
    dots_into, matmul_acc_into, matmul_into, matmul_naive_into, matmul_nt_into,
    matmul_nt_strided_into, matmul_strided_into, matmul_tiled_into, matmul_tn_into,
    matmul_tn_strided_into, KC, TILED_MIN_MACS,
};
use siterec_tensor::optim::{Adam, Optimizer};
use siterec_tensor::parallel::ThreadGuard;
use siterec_tensor::simd::SimdGuard;
use siterec_tensor::{Graph, Index, Init, ParamStore, TapeArena, Tensor};
use std::sync::Mutex;

// The kernel thread count is process-global; tests that flip it must not
// interleave with each other.
static GLOBAL_KNOB: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GLOBAL_KNOB.lock().unwrap_or_else(|e| e.into_inner())
}

/// Fill with a mix of magnitudes plus exact zeros (the naive kernel skips
/// zero `a` terms — the equivalence must hold through that skip) and exact
/// negative zeros (sign bits must survive untouched in pack/copy paths).
fn adversarial_fill(buf: &mut [f32], rng: &mut StdRng) {
    for x in buf.iter_mut() {
        *x = match rng.gen_range(0..10u32) {
            0 | 1 => 0.0,
            2 => -0.0,
            3 => rng.gen_range(-1e6f32..1e6),
            4 => rng.gen_range(-1e-6f32..1e-6),
            _ => rng.gen_range(-2.0f32..2.0),
        };
    }
}

/// Fill with adversarial *bit patterns*: quiet NaNs with distinct payloads,
/// ±infinity, ±0.0, denormals, and huge/tiny magnitudes that overflow or
/// underflow when multiplied. Only safe for tiled-vs-tiled (scalar-vs-SIMD)
/// comparisons — see the module docs for why naive-vs-tiled needs finite
/// inputs.
///
/// Distinct NaN payloads are only usable where every point at which two
/// NaNs can meet in one arithmetic op carries *coinciding* payloads (true
/// for the elementwise Adam update, where `m`, `v` and the propagated NaN
/// in `w` all inherit the same `g[j]` payload, and for segment-softmax,
/// which clamps NaN before it propagates). When two NaNs with *different*
/// payloads meet, x86 returns the first source operand's payload — and
/// LLVM does not pin operand order for the scalar loop's commutative
/// mul/add, so scalar-vs-SIMD payload-exact equality is not defined there.
fn bit_adversarial_fill(buf: &mut [f32], rng: &mut StdRng) {
    for x in buf.iter_mut() {
        *x = match rng.gen_range(0..16u32) {
            0 => f32::from_bits(0x7fc0_1234), // quiet NaN, payload A
            1 => f32::from_bits(0xffc0_0001), // negative quiet NaN, payload B
            2 => f32::INFINITY,
            3 => f32::NEG_INFINITY,
            4 => 0.0,
            5 => -0.0,
            6 => f32::from_bits(1),           // smallest positive denormal
            7 => f32::from_bits(0x8000_1234), // negative denormal
            8 => 3.0e38,                      // overflows when squared
            9 => -3.0e38,
            10 => 1.0e-38, // underflows when squared
            _ => rng.gen_range(-2.0f32..2.0),
        };
    }
}

/// Matmul variant of [`bit_adversarial_fill`]: a dot product multiplies and
/// sums two independently-filled inputs, so NaNs with different payloads
/// *can* meet in one op and payload propagation would depend on hardware
/// operand order (see above). Every NaN here is therefore the single x86
/// "indefinite" pattern `0xffc0_0000` — the same bits the hardware produces
/// for `inf * 0` and `inf - inf` — so any pair of NaNs that meets is
/// bit-identical and propagation is order-independent.
fn matmul_bit_adversarial_fill(buf: &mut [f32], rng: &mut StdRng) {
    for x in buf.iter_mut() {
        *x = match rng.gen_range(0..16u32) {
            0 | 1 => f32::from_bits(0xffc0_0000), // x86 indefinite QNaN
            2 => f32::INFINITY,
            3 => f32::NEG_INFINITY,
            4 => 0.0,
            5 => -0.0,
            6 => f32::from_bits(1),           // smallest positive denormal
            7 => f32::from_bits(0x8000_1234), // negative denormal
            8 => 3.0e38,                      // overflows when squared
            9 => -3.0e38,
            10 => 1.0e-38, // underflows when squared
            _ => rng.gen_range(-2.0f32..2.0),
        };
    }
}

/// n, k, m triples hitting every dispatch and tiling edge:
/// - empty / unit dims (degenerate loops);
/// - n below MR=4 and m below 8 (partial register tiles / naive dispatch);
/// - primes and non-multiples of 4 and 16 (remainder row/column handling);
/// - every m mod NR=16 remainder 1..=15, in one partial panel (m < 16) and
///   after a full one (m = 17..=31), with n mod 4 cycling through 0..=3;
/// - the Table III widths 60, 63, 102 and 120, and 64/65, on either side of
///   the AVX-512 four-panel group (60 = 4 panels, 102 = 4 + 3, 120 = 4 + 4);
/// - k = 255, 256, 257, 300, 512 (KC cache-block boundary, one and two
///   blocks);
/// - products on both sides of TILED_MIN_MACS = 65536 (dispatch threshold).
const SHAPES: &[(usize, usize, usize)] = &[
    (0, 5, 7),
    (5, 0, 7),
    (5, 7, 0),
    (1, 1, 1),
    (3, 3, 3),
    (2, 9, 5),
    (4, 8, 8),
    (5, 9, 7),
    (7, 13, 11),
    (17, 31, 13),
    (16, 64, 64),
    (41, 37, 43),
    (40, 41, 40),
    (64, 64, 64),
    (100, 30, 70),
    (9, 255, 33),
    (9, 256, 33),
    (9, 257, 33),
    (33, 512, 9),
    (128, 128, 128),
    (61, 259, 67),
    // m mod 16 = 1..=15 in a single partial panel.
    (21, 300, 1),
    (22, 300, 2),
    (23, 300, 3),
    (24, 300, 4),
    (25, 300, 5),
    (26, 300, 6),
    (27, 300, 7),
    (28, 300, 8),
    (29, 300, 9),
    (30, 300, 10),
    (31, 300, 11),
    (32, 300, 12),
    (33, 300, 13),
    (34, 300, 14),
    (35, 300, 15),
    // m mod 16 = 1..=15 after one full panel.
    (12, 300, 17),
    (13, 300, 18),
    (14, 300, 19),
    (15, 300, 20),
    (16, 260, 21),
    (17, 260, 22),
    (18, 260, 23),
    (19, 260, 24),
    (20, 200, 25),
    (21, 200, 26),
    (22, 200, 27),
    (23, 200, 28),
    (24, 160, 29),
    (25, 160, 30),
    (26, 160, 31),
    // Table III widths and the AVX-512 panel groups.
    (29, 102, 60),
    (30, 60, 63),
    (31, 63, 64),
    (32, 40, 65),
    (33, 60, 102),
    (34, 102, 120),
    (7, 257, 60),
];

fn naive_vs_tiled(rng: &mut StdRng, n: usize, k: usize, m: usize) {
    let mut a = vec![0.0f32; n * k];
    let mut b = vec![0.0f32; k * m];
    adversarial_fill(&mut a, rng);
    adversarial_fill(&mut b, rng);
    // Poison the outputs: both kernels must fully overwrite them.
    let mut out_naive = vec![f32::NAN; n * m];
    let mut out_tiled = vec![f32::NAN; n * m];
    matmul_naive_into(&a, &b, &mut out_naive, n, k, m);
    matmul_tiled_into(&a, &b, &mut out_tiled, n, k, m);
    for (i, (x, y)) in out_naive.iter().zip(&out_tiled).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "bit mismatch at [{}, {}] of {n}x{k}x{m}: naive {x:e} vs tiled {y:e}",
            i / m.max(1),
            i % m.max(1),
        );
    }
}

#[test]
fn tiled_bits_match_naive_on_adversarial_shapes() {
    let _l = lock();
    let mut rng = StdRng::seed_from_u64(0xF00D);
    for threads in [1usize, 8] {
        let _g = ThreadGuard::set(threads);
        for &(n, k, m) in SHAPES {
            naive_vs_tiled(&mut rng, n, k, m);
        }
    }
}

/// Row-major transpose of an `rows x cols` matrix.
fn transposed(x: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let mut t = vec![0.0f32; x.len()];
    for r in 0..rows {
        for c in 0..cols {
            t[c * rows + r] = x[r * cols + c];
        }
    }
    t
}

fn assert_same_bits(want: &[f32], got: &[f32], what: &str, n: usize, k: usize, m: usize) {
    for (i, (x, y)) in want.iter().zip(got).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: bit mismatch at [{}, {}] of {n}x{k}x{m}: {x:e} vs {y:e}",
            i / m.max(1),
            i % m.max(1),
        );
    }
}

/// `matmul_tn_into` and `matmul_nt_into` against the products they replace
/// in the matmul backward: transpose the operand, then `matmul_into`.
fn transpose_free_vs_transposed(rng: &mut StdRng, n: usize, k: usize, m: usize) {
    let mut a = vec![0.0f32; n * k];
    let mut b = vec![0.0f32; k * m];
    adversarial_fill(&mut a, rng);
    adversarial_fill(&mut b, rng);
    let mut want = vec![f32::NAN; n * m];
    matmul_into(&a, &b, &mut want, n, k, m);

    // tn: `a` handed over as its transpose (stored k x n).
    let mut got = vec![f32::NAN; n * m];
    matmul_tn_into(&transposed(&a, n, k), &b, &mut got, n, k, m);
    assert_same_bits(&want, &got, "tn vs transposed", n, k, m);

    // nt: `b` handed over as its transpose (stored m x k).
    let mut got = vec![f32::NAN; n * m];
    matmul_nt_into(&a, &transposed(&b, k, m), &mut got, n, k, m);
    assert_same_bits(&want, &got, "nt vs transposed", n, k, m);
}

/// Matmul-backward shapes: weight gradients (`n` = a layer's fan-in, `k` =
/// batch rows, `m` = fan-out: tall-and-skinny `a`) and input gradients
/// (`n` = batch rows, `k` = fan-out, `m` = fan-in), both sides of the
/// threshold, including a one-column head's (`m = 1`, and `k = 1` for its
/// input gradient) and a three-wide layer's.
const GRAD_SHAPES: &[(usize, usize, usize)] = &[
    (102, 700, 60),
    (12, 1500, 12),
    (63, 40, 20),
    (7, 5, 3),
    (700, 60, 102),
    (1500, 12, 12),
    (40, 20, 63),
    (40, 1700, 1),
    (1700, 1, 40),
    (1700, 40, 1),
    (3, 1759, 60),
];

#[test]
fn transpose_free_product_matches_transpose_then_matmul() {
    let _l = lock();
    let mut rng = StdRng::seed_from_u64(0x7A5E);
    assert!(GRAD_SHAPES
        .iter()
        .any(|&(n, k, m)| n * k * m >= TILED_MIN_MACS));
    assert!(GRAD_SHAPES
        .iter()
        .any(|&(n, k, m)| n * k * m < TILED_MIN_MACS));
    for threads in [1usize, 4] {
        let _g = ThreadGuard::set(threads);
        for &(n, k, m) in SHAPES.iter().chain(GRAD_SHAPES) {
            transpose_free_vs_transposed(&mut rng, n, k, m);
        }
    }
}

/// `matmul_into` over the first `k₁` columns of `A` (and rows of `B`), then
/// `matmul_acc_into` over each later split, against one `matmul_into`
/// over the whole `k`.
fn split_chain_vs_one_product(rng: &mut StdRng, n: usize, splits: &[usize], m: usize) {
    let k: usize = splits.iter().sum();
    let mut a = vec![0.0f32; n * k];
    let mut b = vec![0.0f32; k * m];
    adversarial_fill(&mut a, rng);
    adversarial_fill(&mut b, rng);
    let mut want = vec![f32::NAN; n * m];
    matmul_into(&a, &b, &mut want, n, k, m);

    let mut got = vec![f32::NAN; n * m];
    let mut off = 0;
    for (i, &kb) in splits.iter().enumerate() {
        let a_b: Vec<f32> = (0..n)
            .flat_map(|r| a[r * k + off..r * k + off + kb].iter().copied())
            .collect();
        let b_b = &b[off * m..(off + kb) * m];
        if i == 0 {
            matmul_into(&a_b, b_b, &mut got, n, kb, m);
        } else {
            matmul_acc_into(&a_b, b_b, &mut got, n, kb, m);
        }
        off += kb;
    }
    assert_same_bits(&want, &got, &format!("split {splits:?}"), n, k, m);
}

/// `(n, splits of k, m)`: halves that take different paths of the
/// naive/tiled dispatch (each way round, and both naive under a tiled
/// whole), splits at, before and across `KC`, three-way splits, the S-U
/// fusion's shape, empty splits and degenerate dims.
const SPLIT_SHAPES: &[(usize, &[usize], usize)] = &[
    (64, &[8, 200], 60),
    (64, &[200, 8], 60),
    (9, &[200, 100], 33),
    (20, &[KC, 44], 17),
    (20, &[KC - 1, 2], 17),
    (20, &[100, 300], 17),
    (13, &[300, 7], 40),
    (300, &[60, 42], 60),
    (30, &[60, 3, 60], 60),
    (5, &[3, 4], 2),
    (7, &[0, 5], 9),
    (7, &[5, 0], 9),
    (0, &[5, 5], 3),
    (4, &[5, 5], 0),
];

#[test]
fn chain_continuing_product_matches_one_product_over_the_concatenated_k() {
    let _l = lock();
    let mut rng = StdRng::seed_from_u64(0xC4A1);
    assert!(SPLIT_SHAPES.iter().any(|&(n, s, m)| {
        let halves: Vec<bool> = s.iter().map(|&k| n * k * m >= TILED_MIN_MACS).collect();
        halves.contains(&true) && halves.contains(&false)
    }));
    for tier in TIERS {
        for threads in [1usize, 4] {
            let _g = ThreadGuard::set(threads);
            under_tier(tier, || {
                for &(n, splits, m) in SPLIT_SHAPES {
                    split_chain_vs_one_product(&mut rng, n, splits, m);
                }
            });
        }
    }
}

#[test]
fn graph_matmul_bits_invariant_to_arena_and_threads() {
    // The same matmul chain — forward and backward — through four tapes:
    // {plain, arena-pooled} x {1 thread, 8 threads}, plus a second pass on
    // the *same* arena so the outputs land in recycled (previously dirtied)
    // buffers. All six runs must agree bit-for-bit.
    let _l = lock();
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let n = 67;
    let k = 41;
    let m = 29;
    let mut x0 = Tensor::zeros(n, k);
    let mut w0 = Tensor::zeros(k, m);
    adversarial_fill(x0.data_mut(), &mut rng);
    adversarial_fill(w0.data_mut(), &mut rng);
    let target = Tensor::zeros(n, m);

    let run = |g: &mut Graph| -> Vec<u32> {
        let x = g.param(x0.clone());
        let w = g.param(w0.clone());
        let h = g.matmul(x, w);
        let y = g.tanh(h);
        let loss = g.mse_loss(y, &target);
        let mut bits: Vec<u32> = g.value(y).data().iter().map(|v| v.to_bits()).collect();
        g.backward(loss);
        for var in [x, w] {
            bits.extend(
                g.grad(var)
                    .expect("grad")
                    .data()
                    .iter()
                    .map(|v| v.to_bits()),
            );
        }
        bits
    };

    let mut results: Vec<(String, Vec<u32>)> = Vec::new();
    for threads in [1usize, 8] {
        let _g = ThreadGuard::set(threads);
        results.push((format!("plain/t{threads}"), run(&mut Graph::new())));
        let arena = TapeArena::new();
        for pass in 0..2 {
            let mut g = Graph::with_seed_and_arena(0, arena.clone());
            results.push((format!("arena/t{threads}/pass{pass}"), run(&mut g)));
        }
    }
    let (base_label, baseline) = &results[0];
    for (label, bits) in &results[1..] {
        assert_eq!(bits, baseline, "{label} differs from {base_label}");
    }
}

/// The dispatch legs every tier test runs: forced scalar, AVX2-capped, and
/// the auto choice (AVX-512 where detected). A leg whose tier the host
/// lacks falls back to the next narrower one.
const TIERS: [&str; 3] = ["scalar", "avx2-cap", "auto"];

fn under_tier<R>(tier: &str, f: impl FnOnce() -> R) -> R {
    let _s = match tier {
        "scalar" => Some(SimdGuard::force_scalar()),
        "avx2-cap" => Some(SimdGuard::cap_avx2()),
        _ => None,
    };
    f()
}

/// Run the tiled nn product and the tn and nt products on the same inputs
/// under every tier, and require raw-bit equality with the scalar leg.
fn tiers_agree(rng: &mut StdRng, n: usize, k: usize, m: usize) {
    let mut a = vec![0.0f32; n * k];
    let mut b = vec![0.0f32; k * m];
    matmul_bit_adversarial_fill(&mut a, rng);
    matmul_bit_adversarial_fill(&mut b, rng);
    // The same stored slices serve as A/B, Aᵀ (k x n) and Bᵀ (m x k).
    let run = |tier: &str| {
        under_tier(tier, || {
            let mut nn = vec![f32::NAN; n * m];
            let mut tn = vec![f32::NAN; n * m];
            let mut nt = vec![f32::NAN; n * m];
            matmul_tiled_into(&a, &b, &mut nn, n, k, m);
            matmul_tn_into(&a, &b, &mut tn, n, k, m);
            matmul_nt_into(&a, &b, &mut nt, n, k, m);
            [nn, tn, nt]
        })
    };
    let scalar = run(TIERS[0]);
    for tier in &TIERS[1..] {
        for (what, (want, got)) in ["nn", "tn", "nt"].iter().zip(scalar.iter().zip(run(tier))) {
            assert_same_bits(want, &got, &format!("{what} scalar vs {tier}"), n, k, m);
        }
    }
}

#[test]
fn tiled_simd_bits_match_scalar_on_adversarial_bit_patterns() {
    let _l = lock();
    let mut rng = StdRng::seed_from_u64(0x51AD);
    for threads in [1usize, 8] {
        let _g = ThreadGuard::set(threads);
        for &(n, k, m) in SHAPES.iter().chain(GRAD_SHAPES) {
            tiers_agree(&mut rng, n, k, m);
        }
    }
}

/// Segment-softmax through the graph, scalar-forced vs auto dispatch, on
/// scores containing NaN payloads, ±inf, denormals and huge magnitudes.
/// Non-finite scores are deterministically clamped by the shared `exp_det`
/// (NaN/−inf land on the lower clamp bound in both paths), so the output
/// bits must agree exactly.
#[test]
fn segment_softmax_simd_bits_match_scalar_on_adversarial_scores() {
    let _l = lock();
    let n_edges = 4097; // odd, non-multiple of 8: exercises the SIMD tail
    let n_seg = 63;
    let mut rng = StdRng::seed_from_u64(0xA77);
    let seg = Index::new(
        (0..n_edges).map(|_| rng.gen_range(0..n_seg)).collect(),
        n_seg,
    );
    let mut scores0 = Tensor::zeros(n_edges, 1);
    bit_adversarial_fill(scores0.data_mut(), &mut rng);

    let run = |force_scalar: bool| -> Vec<u32> {
        let _s = force_scalar.then(SimdGuard::force_scalar);
        let mut g = Graph::new();
        let scores = g.param(scores0.clone());
        let att = g.segment_softmax(scores, &seg);
        g.value(att).data().iter().map(|v| v.to_bits()).collect()
    };
    for threads in [1usize, 8] {
        let _g = ThreadGuard::set(threads);
        assert_eq!(
            run(true),
            run(false),
            "segment_softmax scalar/simd bits differ at {threads} threads"
        );
    }
}

/// Fused Adam, scalar-forced vs auto dispatch, with adversarial gradient
/// bit patterns (NaN payloads, ±inf, denormals). Both paths evaluate the
/// identical expression tree in the identical element order, so parameter
/// bits — including propagated NaN payloads — must agree exactly.
#[test]
fn adam_simd_bits_match_scalar_on_adversarial_grads() {
    let _l = lock();
    let mut rng = StdRng::seed_from_u64(0xADA);
    // 67 x 33 = 2211 weights: non-multiple of 8, exercises the SIMD tail.
    let mut grad0 = Tensor::zeros(67, 33);
    bit_adversarial_fill(grad0.data_mut(), &mut rng);

    let run = |force_scalar: bool| -> Vec<u32> {
        let _s = force_scalar.then(SimdGuard::force_scalar);
        let mut ps = ParamStore::new(41);
        let w = ps.add("w", 67, 33, Init::XavierUniform);
        ps.get_mut(w).grad = grad0.clone();
        let mut opt = Adam::new(0.01);
        for _ in 0..3 {
            opt.step(&mut ps);
        }
        ps.get(w).value.data().iter().map(|v| v.to_bits()).collect()
    };
    for threads in [1usize, 8] {
        let _g = ThreadGuard::set(threads);
        assert_eq!(
            run(true),
            run(false),
            "adam scalar/simd bits differ at {threads} threads"
        );
    }
}

/// Column block `c0 .. c0 + cols` of the row-major `rows x ld` matrix `x`.
fn block_of(x: &[f32], ld: usize, rows: usize, c0: usize, cols: usize) -> Vec<f32> {
    (0..rows)
        .flat_map(|r| x[r * ld + c0..r * ld + c0 + cols].iter().copied())
        .collect()
}

/// The strided products read one column block of a wider matrix in place;
/// each must give the bits of copying the block out first, and the plain
/// product must give the naive loop's, on both sides of the tiling
/// threshold, under every tier, at 1 and 4 threads. Every operand slice is
/// cut to exactly the reach of its block, `(rows - 1)·stride + width`
/// values, so a kernel that reads past its last row or column panics.
#[test]
fn strided_products_match_the_copied_block() {
    let _l = lock();
    let mut rng = StdRng::seed_from_u64(0x57D);
    // (n, k, m, extra columns around the block): the attention heads'
    // shapes at head widths 8, 12, 16 and 18 with E on both sides of the
    // threshold (E·w·w against TILED_MIN_MACS), and small odd shapes.
    let mut shapes = vec![(9, 5, 3, 7), (0, 4, 4, 4)];
    for w in [8usize, 12, 16, 18] {
        let e_min = TILED_MIN_MACS.div_ceil(w * w);
        shapes.extend([(e_min - 1, w, w, 4 * w), (e_min + 37, w, w, 4 * w)]);
    }
    shapes.extend([(700, 12, 12, 48), (1500, 18, 18, 72)]);
    for pair in shapes[2..10].chunks(2) {
        let macs = |&(n, k, m, _): &(usize, usize, usize, usize)| n * k * m;
        assert!(macs(&pair[0]) < TILED_MIN_MACS && macs(&pair[1]) >= TILED_MIN_MACS);
    }
    // Exactly the values a `rows x width` block at `stride` reaches.
    let reach = |rows: usize, stride: usize, width: usize| {
        if rows == 0 {
            0
        } else {
            (rows - 1) * stride + width
        }
    };
    for tier in TIERS {
        for threads in [1usize, 4] {
            let _g = ThreadGuard::set(threads);
            for &(n, k, m, extra) in &shapes {
                let c0 = extra / 2;
                let (lda, ldb, ldt) = (k + extra, m + extra, n + extra);
                let mut a = vec![0.0f32; n * lda];
                let mut at = vec![0.0f32; k * ldt];
                let mut b = vec![0.0f32; k * ldb];
                let mut bt = vec![0.0f32; m * k];
                for buf in [&mut a, &mut at, &mut b, &mut bt] {
                    adversarial_fill(buf, &mut rng);
                }
                let cut = |x: &[f32], len: usize| x[c0.min(x.len())..][..len].to_vec();
                let a_in = cut(&a, reach(n, lda, k));
                let at_in = cut(&at, reach(k, ldt, n));
                let b_in = cut(&b, reach(k, ldb, m));
                let a_blk = block_of(&a, lda, n, c0, k);
                let at_blk = block_of(&at, ldt, k, c0, n);
                let b_blk = block_of(&b, ldb, k, c0, m);

                under_tier(tier, || {
                    let (mut want, mut got) = (vec![f32::NAN; n * m], vec![f32::NAN; n * m]);
                    matmul_naive_into(&a_blk, &b_blk, &mut want, n, k, m);
                    matmul_into(&a_blk, &b_blk, &mut got, n, k, m);
                    assert_same_bits(&want, &got, &format!("nn vs naive ({tier})"), n, k, m);
                    matmul_strided_into(&a_in, lda, &b_blk, &mut got, n, k, m);
                    assert_same_bits(&want, &got, &format!("strided nn ({tier})"), n, k, m);

                    matmul_tn_into(&at_blk, &b_blk, &mut want, n, k, m);
                    matmul_tn_strided_into(&at_in, ldt, &b_in, ldb, &mut got, n, k, m);
                    assert_same_bits(&want, &got, &format!("strided tn ({tier})"), n, k, m);

                    matmul_nt_into(&a_blk, &bt, &mut want, n, k, m);
                    matmul_nt_strided_into(&a_in, lda, &bt, &mut got, n, k, m);
                    assert_same_bits(&want, &got, &format!("strided nt ({tier})"), n, k, m);
                });
            }
        }
    }
}

/// The one-column routes (lane dots for `nn`, `acc` and `nt`, the axpy
/// for `tn`), the partial-tile `tn` products with 1–3 output rows and the
/// `k = 1` outer product of `nt`, against the naive loop on the explicit
/// transposes, under every tier at 1 and 4 threads. Some rows of `A` are
/// all `±0.0` against negative weights (a dead ReLU): the naive loop skips
/// every such term, so those outputs must be exactly `+0.0`.
#[test]
fn one_column_and_few_row_routes_match_the_naive_loop() {
    let _l = lock();
    let mut rng = StdRng::seed_from_u64(0x1C01);
    // (n, k, m): one-column products on both sides of the threshold, with
    // lane tails (n mod 16, n mod 8), chunk tails (k mod 16 below and
    // above 8) and k = 1; tn outputs past a 64-wide strip; tn with 1–3
    // rows; nt with k = 1 on both sides of the threshold.
    let shapes: &[(usize, usize, usize)] = &[
        (1640, 40, 1),
        (1639, 40, 1),
        (3001, 40, 1),
        (4099, 17, 1),
        (9363, 7, 1),
        (2049, 33, 1),
        (70001, 1, 1),
        (40, 1700, 1),
        (40, 1600, 1),
        (70, 1100, 1),
        (3, 1759, 60),
        (2, 3000, 24),
        (1, 4500, 17),
        (1, 70, 40),
        (3000, 1, 60),
        (500, 1, 60),
    ];
    for tier in TIERS {
        for threads in [1usize, 4] {
            let _g = ThreadGuard::set(threads);
            for &(n, k, m) in shapes {
                let mut a = vec![0.0f32; n * k];
                let mut b = vec![0.0f32; k * m];
                adversarial_fill(&mut a, &mut rng);
                adversarial_fill(&mut b, &mut rng);
                // Dead rows: every term of these outputs is ±0.0.
                let dead: Vec<usize> = (0..n).step_by(5).collect();
                for &i in &dead {
                    for (p, x) in a[i * k..(i + 1) * k].iter_mut().enumerate() {
                        *x = if p % 2 == 0 { 0.0 } else { -0.0 };
                    }
                }
                for x in b.iter_mut().step_by(2) {
                    *x = -x.abs() - 0.5;
                }
                let mut want = vec![f32::NAN; n * m];
                matmul_naive_into(&a, &b, &mut want, n, k, m);
                for &i in &dead {
                    for x in &want[i * m..(i + 1) * m] {
                        assert_eq!(x.to_bits(), 0, "naive dead row {i} of {n}x{k}x{m}");
                    }
                }
                under_tier(tier, || {
                    let what = |op: &str| format!("{op} ({tier}, {threads} threads)");
                    let mut got = vec![f32::NAN; n * m];
                    matmul_into(&a, &b, &mut got, n, k, m);
                    assert_same_bits(&want, &got, &what("nn"), n, k, m);

                    let k1 = k / 2;
                    let a1 = block_of(&a, k, n, 0, k1);
                    let a2 = block_of(&a, k, n, k1, k - k1);
                    matmul_into(&a1, &b[..k1 * m], &mut got, n, k1, m);
                    matmul_acc_into(&a2, &b[k1 * m..], &mut got, n, k - k1, m);
                    assert_same_bits(&want, &got, &what("split acc"), n, k, m);

                    let mut got = vec![f32::NAN; n * m];
                    matmul_tn_into(&transposed(&a, n, k), &b, &mut got, n, k, m);
                    assert_same_bits(&want, &got, &what("tn"), n, k, m);

                    let mut got = vec![f32::NAN; n * m];
                    matmul_nt_into(&a, &transposed(&b, k, m), &mut got, n, k, m);
                    assert_same_bits(&want, &got, &what("nt"), n, k, m);
                });
            }
        }
    }
}

/// `dots_into` under every tier against the scalar `Iterator::sum` of the
/// products, on the bit patterns of the matmul tier tests: run lengths
/// around the 8- and 16-wide chunks and their gathered tails, output
/// counts around whole vectors.
#[test]
fn gathered_dots_match_the_scalar_chain_on_every_tier() {
    let _l = lock();
    let mut rng = StdRng::seed_from_u64(0xD075);
    for len in [0usize, 1, 3, 7, 8, 9, 12, 15, 16, 17, 18, 24, 33] {
        for outs in [1usize, 7, 8, 15, 16, 17, 33] {
            let (xs, ys, n_rows) = (len + 3, len + 5, 11);
            let mut x = vec![0.0f32; outs * xs + len];
            let mut y = vec![0.0f32; n_rows * ys];
            matmul_bit_adversarial_fill(&mut x, &mut rng);
            matmul_bit_adversarial_fill(&mut y, &mut rng);
            let ids: Vec<usize> = (0..outs).map(|_| rng.gen_range(0..n_rows)).collect();
            let want: Vec<f32> = (0..outs)
                .map(|l| {
                    x[l * xs..l * xs + len]
                        .iter()
                        .zip(&y[ids[l] * ys..ids[l] * ys + len])
                        .map(|(&a, &b)| a * b)
                        .sum()
                })
                .collect();
            for tier in TIERS {
                let mut got = vec![f32::NAN; outs];
                under_tier(tier, || dots_into(&mut got, &x, xs, &y, ys, &ids, len));
                assert_same_bits(
                    &want,
                    &got,
                    &format!("dots len {len} ({tier})"),
                    outs,
                    len,
                    1,
                );
            }
        }
    }
}
