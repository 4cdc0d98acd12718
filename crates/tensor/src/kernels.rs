//! Cache-blocked, register-tiled f32 matmul microkernel.
//!
//! Two implementations of `C = A (n x k) * B (k x m)` live here:
//!
//! * [`matmul_naive_into`] — the original `i-k-j` triple loop (one axpy over
//!   the output row per `(i, k)` pair). This is the bit-reference.
//! * [`matmul_tiled_into`] — a BLIS-style blocked kernel: `B` is packed once
//!   into `NR`-wide column panels, `A` is packed per `MR x KC` panel, and an
//!   `MR x NR` register-tile microkernel runs an autovectorization-friendly
//!   inner loop over `k`.
//!
//! [`matmul_tn_into`] is the same product with `A` given transposed
//! (`C = Aᵀ B` for a row-major `A`): the weight gradient `aᵀ·g` of a matmul
//! backward. It dispatches on the shape exactly like [`matmul_into`] would
//! on an explicit `Aᵀ`, and its naive and tiled paths read `A` in place —
//! the naive loop as rank-1 updates over the rows of `A`, the tiled kernel
//! by packing its `MR x KC` panels straight from `A`'s rows — so no
//! transposed copy is ever made and every output element sees the same
//! operation sequence as transpose-then-[`matmul_into`].
//!
//! # Bit-identity contract
//!
//! Both kernels compute every output element with a **single accumulator**
//! that adds the products `a[i][p] * b[p][j]` in ascending `p` order, one
//! rounding per multiply and one per add (Rust never contracts `*`/`+` into
//! an FMA). The `KC` blocking processes `k` in ascending block order and the
//! microkernel reloads the partially accumulated `C` tile at each block
//! boundary, so the per-element operation sequence is exactly the naive
//! loop's. Register tiling and panel packing only change *which* elements
//! are computed together, never the order within one element.
//!
//! The one intentional difference: the naive loop skips `a == 0.0` terms
//! (an old sparsity shortcut) while the tiled kernel does not. For finite
//! inputs this cannot change any output bit: an accumulator that holds
//! `+0.0` stays `+0.0` under IEEE-754 round-to-nearest when `±0.0` terms
//! are added (`+0.0 + -0.0 = +0.0`, and exact cancellation of nonzero terms
//! also yields `+0.0`), and adding `±0.0` to a nonzero value is exact. The
//! two kernels can therefore only diverge when `a == 0.0` meets a
//! non-finite `b` (`0 * inf = NaN`) — inputs the tape's fault layer already
//! rejects. The property suite in `tests/kernel_equivalence.rs` asserts raw
//! bit equality over adversarial finite shapes and data.
//!
//! # SIMD dispatch
//!
//! This module is the shape-dispatch seam for the explicit-SIMD kernels in
//! [`simd`]: the tiled matmul's panel loop, the fused Adam
//! chunk update ([`adam_update_chunk`]) and the segment-softmax exp /
//! normalize passes ([`softmax_exp_block`], [`softmax_div_block`]) each
//! check [`simd::active()`](crate::simd::active) once per contiguous block
//! and take the AVX2 path when the host supports it, falling back to the
//! scalar loops below otherwise. Scalar and SIMD paths are raw-bit
//! identical (see the `simd` module docs for the per-kernel argument), so
//! the dispatch decision is unobservable in outputs — only in throughput.
//!
//! # Parallelism
//!
//! Both paths split over output rows via
//! [`parallel::for_each_row_block_mut`]; each worker owns a contiguous row
//! range and per-element accumulation order is independent of the split, so
//! results are bitwise identical at every thread count.
//!
//! # Allocation
//!
//! Packing buffers are thread-local and grow-once, so steady-state calls on
//! a warm thread perform no heap allocation (the epoch-persistent
//! [`TapeArena`](crate::TapeArena) supplies the output buffer).

use crate::parallel;
use crate::simd;
use std::cell::RefCell;

/// Microkernel register-tile height (output rows per tile).
pub const MR: usize = 4;
/// Microkernel register-tile width (output columns per tile).
pub const NR: usize = 8;
/// Columns of `A` / rows of `B` per cache block (the `k` blocking factor;
/// one packed `B` panel of `KC x NR` f32 is 8 KiB — comfortably L1).
pub const KC: usize = 256;

/// Below this many multiply-adds (`n * k * m`) the packing overhead of the
/// tiled kernel outweighs its cache savings and [`matmul_into`] dispatches
/// to the naive loop instead.
pub const TILED_MIN_MACS: usize = 1 << 16;

thread_local! {
    /// Packed `B` (all column panels, whole `k` extent). Lives on the thread
    /// that issues the matmul.
    static PACK_B: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// Packed `A` panel (`MR x KC`). One per worker thread.
    static PACK_A: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// `out = a (n x k) * b (k x m)`, dispatching between the naive and tiled
/// kernels on shape alone (so a given shape always takes the same path).
///
/// # Panics
/// Panics if the slice lengths do not match the shapes.
pub fn matmul_into(a: &[f32], b: &[f32], out: &mut [f32], n: usize, k: usize, m: usize) {
    assert_eq!(a.len(), n * k, "matmul a length");
    assert_eq!(b.len(), k * m, "matmul b length");
    assert_eq!(out.len(), n * m, "matmul out length");
    if takes_tiled_path(n, k, m) {
        tiled_into(a, ALayout::RowMajor, b, out, n, k, m);
    } else {
        matmul_naive_into(a, b, out, n, k, m);
    }
}

/// `out = aᵀ * b` for `a` stored `k x n` and `b` stored `k x m` (so `out`
/// is `n x m`), without materializing `aᵀ`. Bit-identical to transposing
/// `a` and calling [`matmul_into`]: same shape dispatch, same per-element
/// accumulation order (see the module docs).
///
/// # Panics
/// Panics if the slice lengths do not match the shapes.
pub fn matmul_tn_into(a: &[f32], b: &[f32], out: &mut [f32], n: usize, k: usize, m: usize) {
    assert_eq!(a.len(), k * n, "matmul_tn a length");
    assert_eq!(b.len(), k * m, "matmul_tn b length");
    assert_eq!(out.len(), n * m, "matmul_tn out length");
    if takes_tiled_path(n, k, m) {
        tiled_into(a, ALayout::Transposed, b, out, n, k, m);
    } else {
        matmul_tn_naive_into(a, b, out, n, k, m);
    }
}

/// The shape-only naive/tiled dispatch rule shared by both products.
fn takes_tiled_path(n: usize, k: usize, m: usize) -> bool {
    n.saturating_mul(k).saturating_mul(m) >= TILED_MIN_MACS && m >= NR && n >= MR
}

/// The original `i-k-j` triple loop: for each output row, an axpy over the
/// matching `B` row per `a` element, in ascending `k` order. Kept verbatim
/// as the bit-reference for the tiled kernel (including its historical
/// `a == 0.0` skip; see the module docs for why that cannot change bits on
/// finite data).
pub fn matmul_naive_into(a: &[f32], b: &[f32], out: &mut [f32], n: usize, k: usize, m: usize) {
    assert_eq!(a.len(), n * k, "matmul a length");
    assert_eq!(b.len(), k * m, "matmul b length");
    assert_eq!(out.len(), n * m, "matmul out length");
    out.fill(0.0);
    // Output rows are independent, so the parallel split changes nothing
    // about the per-element accumulation order: bitwise identical to the
    // serial loop for any worker count.
    parallel::for_each_row_block_mut(out, m, 2 * k * m, |i0, block| {
        for (bi, o_row) in block.chunks_mut(m).enumerate() {
            let i = i0 + bi;
            let a_row = &a[i * k..(i + 1) * k];
            for (kk, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let b_row = &b[kk * m..(kk + 1) * m];
                for (o, &bv) in o_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
    });
}

/// [`matmul_naive_into`] on `aᵀ` (`a` stored `k x n`), reading `a` in place.
/// The loop runs over the rows of `a` outermost — one rank-1 update of this
/// worker's output rows per row of `a` — so `a` and `b` stream contiguously.
/// Each output element still accumulates its `a[p][i] * b[p][j]` terms in
/// ascending `p` from `0.0`, skipping `a == 0.0` exactly like the naive
/// loop: the same operation sequence, so the same bits.
fn matmul_tn_naive_into(a: &[f32], b: &[f32], out: &mut [f32], n: usize, k: usize, m: usize) {
    out.fill(0.0);
    parallel::for_each_row_block_mut(out, m, 2 * k * m, |i0, block| {
        let rows = block.len() / m;
        for p in 0..k {
            let a_seg = &a[p * n + i0..p * n + i0 + rows];
            let b_row = &b[p * m..(p + 1) * m];
            for (o_row, &av) in block.chunks_mut(m).zip(a_seg) {
                if av == 0.0 {
                    continue;
                }
                for (o, &bv) in o_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
    });
}

/// Cache-blocked, register-tiled matmul. Bit-identical to
/// [`matmul_naive_into`] for finite inputs (see the module docs).
pub fn matmul_tiled_into(a: &[f32], b: &[f32], out: &mut [f32], n: usize, k: usize, m: usize) {
    assert_eq!(a.len(), n * k, "matmul a length");
    assert_eq!(b.len(), k * m, "matmul b length");
    assert_eq!(out.len(), n * m, "matmul out length");
    tiled_into(a, ALayout::RowMajor, b, out, n, k, m);
}

/// How the tiled kernel finds `A(i, p)` in its `a` slice.
#[derive(Debug, Clone, Copy)]
enum ALayout {
    /// `a` is `A` itself, `n x k` row-major: `A(i, p) = a[i * k + p]`.
    RowMajor,
    /// `a` is `Aᵀ`, `k x n` row-major: `A(i, p) = a[p * n + i]`.
    Transposed,
}

/// The tiled kernel over an `A` in either layout (lengths already checked).
fn tiled_into(
    a: &[f32],
    layout: ALayout,
    b: &[f32],
    out: &mut [f32],
    n: usize,
    k: usize,
    m: usize,
) {
    if n == 0 || m == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    PACK_B.with(|pb| {
        let mut pb = pb.borrow_mut();
        pack_b(&mut pb, b, k, m);
        // Reborrow as a plain slice so the parallel closure captures a Sync
        // `&[f32]` rather than the RefMut guard.
        let pb: &[f32] = &pb;
        // Row-partitioned like the naive path; each worker handles an
        // arbitrary contiguous row range, so the split cannot affect bits.
        parallel::for_each_row_block_mut(out, m, 2 * k * m, |i0, block| {
            tiled_rows(a, layout, pb, block, i0, n, k, m);
        });
    });
}

/// Pack `B (k x m)` into `NR`-wide column panels: panel `jp` holds, for each
/// `p` in `0..k`, the `NR` values `b[p][jp*NR .. jp*NR+NR]`, zero-padded
/// past column `m`. Within a panel, consecutive `p` are contiguous, so the
/// microkernel streams it linearly.
fn pack_b(pb: &mut Vec<f32>, b: &[f32], k: usize, m: usize) {
    let panels = m.div_ceil(NR);
    let need = panels * k * NR;
    pb.clear();
    pb.resize(need, 0.0);
    for jp in 0..panels {
        let j0 = jp * NR;
        let nr = NR.min(m - j0);
        let base = jp * k * NR;
        for p in 0..k {
            let src = &b[p * m + j0..p * m + j0 + nr];
            let dst = &mut pb[base + p * NR..base + p * NR + NR];
            dst[..nr].copy_from_slice(src);
            dst[nr..].fill(0.0);
        }
    }
}

/// Compute the output rows held in `block` (rows `i0 .. i0 + block_rows` of
/// `C`), reading the matching rows of `A` (laid out as `layout` says) and
/// the shared packed `B`.
#[allow(clippy::too_many_arguments)]
fn tiled_rows(
    a: &[f32],
    layout: ALayout,
    pb: &[f32],
    block: &mut [f32],
    i0: usize,
    n: usize,
    k: usize,
    m: usize,
) {
    let block_rows = block.len() / m;
    let panels = m.div_ceil(NR);
    PACK_A.with(|pa| {
        let mut pa = pa.borrow_mut();
        if pa.len() < MR * KC {
            pa.resize(MR * KC, 0.0);
        }
        // k blocks in ascending order: each output element accumulates its
        // k-terms in ascending order across blocks (the naive order).
        let mut p0 = 0;
        while p0 < k {
            let kc = KC.min(k - p0);
            let first = p0 == 0;
            // Row panels of MR within this worker's range.
            let mut bi = 0;
            while bi < block_rows {
                let mr = MR.min(block_rows - bi);
                // Pack the A panel: pa[p * MR + r] = A(i0+bi+r, p0+p),
                // zero-padding rows past mr (padded lanes multiply into
                // accumulators that are never stored). A transposed A is
                // packed from its rows directly: MR adjacent values per p.
                let i = i0 + bi;
                for p in 0..kc {
                    let dst = &mut pa[p * MR..p * MR + MR];
                    match layout {
                        ALayout::RowMajor => {
                            for (r, d) in dst.iter_mut().enumerate().take(mr) {
                                *d = a[(i + r) * k + p0 + p];
                            }
                        }
                        ALayout::Transposed => {
                            let row = (p0 + p) * n + i;
                            dst[..mr].copy_from_slice(&a[row..row + mr]);
                        }
                    }
                    dst[mr..].fill(0.0);
                }
                tile_panels(
                    &pa[..kc * MR],
                    pb,
                    panels,
                    k,
                    p0,
                    kc,
                    block,
                    bi,
                    m,
                    mr,
                    first,
                );
                bi += mr;
            }
            p0 += kc;
        }
    });
}

/// Run every column panel of one `(k-block, row-panel)` pair: the SIMD
/// dispatch point. On an active AVX2 host, pairs of full `NR`-wide panels
/// go through the 2-panel `4 x 16` ymm microkernel (an odd full panel
/// through the 1-panel variant) and only partial tail panels fall back to
/// the scalar tile; otherwise everything is scalar. Both produce identical
/// bits per element, so the choice never shows in outputs.
#[allow(clippy::too_many_arguments)]
fn tile_panels(
    pa: &[f32],
    pb: &[f32],
    panels: usize,
    k: usize,
    p0: usize,
    kc: usize,
    block: &mut [f32],
    bi: usize,
    m: usize,
    mr: usize,
    first: bool,
) {
    let bpanel = |jp: usize| &pb[jp * k * NR + p0 * NR..jp * k * NR + (p0 + kc) * NR];
    #[cfg(target_arch = "x86_64")]
    if simd::active() {
        let mut jp = 0;
        while jp < panels {
            let j0 = jp * NR;
            let nr = NR.min(m - j0);
            if nr < NR {
                microkernel(pa, bpanel(jp), kc, block, bi, j0, m, mr, nr, first);
                jp += 1;
            } else if jp + 1 < panels && NR.min(m - (jp + 1) * NR) == NR {
                // SAFETY: simd::active() implies AVX2; both panels are full
                // NR-wide and rows bi..bi+mr are inside this worker's block.
                unsafe {
                    simd::micro_avx2_2panel(
                        pa,
                        bpanel(jp),
                        bpanel(jp + 1),
                        kc,
                        block,
                        bi,
                        j0,
                        m,
                        mr,
                        first,
                    );
                }
                jp += 2;
            } else {
                // SAFETY: as above, single full panel.
                unsafe {
                    simd::micro_avx2_1panel(pa, bpanel(jp), kc, block, bi, j0, m, mr, first);
                }
                jp += 1;
            }
        }
        return;
    }
    for jp in 0..panels {
        let j0 = jp * NR;
        let nr = NR.min(m - j0);
        microkernel(pa, bpanel(jp), kc, block, bi, j0, m, mr, nr, first);
    }
}

/// One `MR x NR` register tile: accumulate `kc` rank-1 updates into stack
/// accumulators, then store the valid `mr x nr` region back to `C`.
///
/// When `first` is false the tile reloads the partial sums already in `C`
/// (written by earlier `KC` blocks), so each element's accumulation chain
/// spans the blocks in ascending `k` order — the naive loop's exact order.
#[allow(clippy::too_many_arguments)]
#[inline]
fn microkernel(
    pa: &[f32],
    pb: &[f32],
    kc: usize,
    block: &mut [f32],
    bi: usize,
    j0: usize,
    m: usize,
    mr: usize,
    nr: usize,
    first: bool,
) {
    let mut acc = [[0.0f32; NR]; MR];
    if !first {
        for (r, row) in acc.iter_mut().enumerate().take(mr) {
            let c_row = &block[(bi + r) * m + j0..(bi + r) * m + j0 + nr];
            row[..nr].copy_from_slice(c_row);
        }
    }
    // The hot loop: MR broadcast loads of A, one NR-wide load of B, MR*NR
    // independent multiply-adds per k step. Each acc[r][c] is a single
    // accumulator chain in ascending k — autovectorizes without changing
    // per-element rounding order.
    for p in 0..kc {
        let arow = &pa[p * MR..p * MR + MR];
        let brow = &pb[p * NR..p * NR + NR];
        for r in 0..MR {
            let av = arow[r];
            for c in 0..NR {
                acc[r][c] += av * brow[c];
            }
        }
    }
    for (r, row) in acc.iter().enumerate().take(mr) {
        let c_row = &mut block[(bi + r) * m + j0..(bi + r) * m + j0 + nr];
        c_row.copy_from_slice(&row[..nr]);
    }
}

/// Precomputed per-step Adam constants shared by the scalar and SIMD
/// chunk updates (`omb1 = 1 - beta1`, `bc1/bc2` the bias corrections).
#[derive(Debug, Clone, Copy)]
pub struct AdamConsts {
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// `1 - beta1`.
    pub omb1: f32,
    /// `1 - beta2`.
    pub omb2: f32,
    /// First-moment bias correction `1 - beta1^t`.
    pub bc1: f32,
    /// Second-moment bias correction `1 - beta2^t`.
    pub bc2: f32,
    /// Learning rate.
    pub lr: f32,
    /// Denominator epsilon.
    pub eps: f32,
}

/// Fused Adam update over one contiguous chunk of a parameter: updates the
/// moments `m`, `v` in place and applies the step to `w`, reading the
/// matching gradient chunk `g`. Elementwise, so any chunking (parallel
/// splits, the SIMD 8-lane blocks, the scalar tail) yields identical bits.
pub fn adam_update_chunk(w: &mut [f32], m: &mut [f32], v: &mut [f32], g: &[f32], c: &AdamConsts) {
    debug_assert!(w.len() == m.len() && w.len() == v.len() && w.len() == g.len());
    let mut done = 0;
    #[cfg(target_arch = "x86_64")]
    if simd::active() && w.len() >= 8 {
        // SAFETY: active() implies AVX2; lengths are equal.
        done = unsafe { simd::adam_chunks_avx2(w, m, v, g, c) };
    }
    for j in done..w.len() {
        let gx = g[j];
        m[j] = c.beta1 * m[j] + c.omb1 * gx;
        v[j] = c.beta2 * v[j] + c.omb2 * gx * gx;
        let m_hat = m[j] / c.bc1;
        let v_hat = v[j] / c.bc2;
        w[j] -= c.lr * m_hat / (v_hat.sqrt() + c.eps);
    }
}

/// Segment-softmax exp pass over one contiguous row block (rows
/// `i0 .. i0 + out.len()` of the `E x 1` score column):
/// `out[j] = exp_det(x[i0 + j] - seg_max[segs[i0 + j]])`.
pub fn softmax_exp_block(out: &mut [f32], i0: usize, x: &[f32], segs: &[usize], seg_max: &[f32]) {
    #[cfg(target_arch = "x86_64")]
    if simd::active() && out.len() >= 8 {
        // SAFETY: active() implies AVX2; callers pass a block inside x/segs.
        unsafe { simd::softmax_exp_block_avx2(out, i0, x, segs, seg_max) };
        return;
    }
    for (j, o) in out.iter_mut().enumerate() {
        *o = simd::exp_det(x[i0 + j] - seg_max[segs[i0 + j]]);
    }
}

/// Segment-softmax normalize pass over one contiguous row block:
/// `out[j] /= seg_sum[segs[i0 + j]]` (plain IEEE division — identical bits
/// scalar or 8-wide).
pub fn softmax_div_block(out: &mut [f32], i0: usize, segs: &[usize], seg_sum: &[f32]) {
    #[cfg(target_arch = "x86_64")]
    if simd::active() && out.len() >= 8 {
        // SAFETY: active() implies AVX2; callers pass a block inside segs.
        unsafe { simd::softmax_div_block_avx2(out, i0, segs, seg_sum) };
        return;
    }
    for (j, o) in out.iter_mut().enumerate() {
        *o /= seg_sum[segs[i0 + j]];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded(len: usize, seed: u32) -> Vec<f32> {
        // Simple LCG: deterministic, includes exact zeros and negatives.
        let mut s = seed.wrapping_mul(2654435761).wrapping_add(12345);
        (0..len)
            .map(|_| {
                s = s.wrapping_mul(1664525).wrapping_add(1013904223);
                match s % 7 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => ((s >> 8) as f32 / (1 << 20) as f32) - 8.0,
                }
            })
            .collect()
    }

    fn assert_bits_equal(x: &[f32], y: &[f32], what: &str) {
        assert_eq!(x.len(), y.len(), "{what}: length");
        for (i, (a, b)) in x.iter().zip(y).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{what}: bit mismatch at {i}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn tiled_matches_naive_on_assorted_shapes() {
        for &(n, k, m) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (4, 8, 8),
            (5, 9, 17),
            (13, 31, 29),
            (16, 300, 24),
            (33, 65, 40),
        ] {
            let a = seeded(n * k, (n * 1000 + k) as u32);
            let b = seeded(k * m, (k * 1000 + m) as u32);
            let mut naive = vec![0.0f32; n * m];
            let mut tiled = vec![1.0f32; n * m]; // nonzero: stores must overwrite
            matmul_naive_into(&a, &b, &mut naive, n, k, m);
            matmul_tiled_into(&a, &b, &mut tiled, n, k, m);
            assert_bits_equal(&naive, &tiled, &format!("{n}x{k}x{m}"));
        }
    }

    #[test]
    fn empty_dims_are_fine() {
        let mut out = vec![];
        matmul_tiled_into(&[], &[], &mut out, 0, 3, 0);
        let mut out = vec![5.0f32; 6];
        matmul_tiled_into(&[], &[], &mut out, 2, 0, 3);
        assert_eq!(out, vec![0.0; 6]);
    }

    #[test]
    fn dispatch_is_shape_only() {
        // Same shape twice must take the same path — just exercise both
        // entry points through the dispatcher at a size below and above the
        // threshold.
        let (n, k, m) = (2usize, 3usize, 4usize);
        let a = seeded(n * k, 1);
        let b = seeded(k * m, 2);
        let mut o1 = vec![0.0; n * m];
        let mut o2 = vec![0.0; n * m];
        matmul_into(&a, &b, &mut o1, n, k, m);
        matmul_into(&a, &b, &mut o2, n, k, m);
        assert_bits_equal(&o1, &o2, "dispatch determinism");
    }
}
