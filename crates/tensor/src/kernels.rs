//! Cache-blocked, register-tiled f32 matmul microkernel.
//!
//! Two implementations of `C = A (n x k) * B (k x m)` live here:
//!
//! * [`matmul_naive_into`] — the original `i-k-j` triple loop (one axpy over
//!   the output row per `(i, k)` pair). This is the bit-reference.
//! * [`matmul_tiled_into`] — a BLIS-style blocked kernel: a register-tile
//!   microkernel of `R` rows by one or more `NR = 16`-wide column panels
//!   runs the inner loop over `k` in `KC`-deep blocks, broadcasting each
//!   `A` value straight from `A`'s rows (`R` sequential streams, so `A`
//!   needs no packed copy) and reading each row of a panel of `B` where it
//!   lies.
//!
//! Two more entry points run the same products on a transposed operand
//! without materializing the transpose — the two halves of a matmul
//! backward:
//!
//! * [`matmul_tn_into`] — `C = Aᵀ B` for a row-major `A`: the weight
//!   gradient `aᵀ·g`. The naive loop runs rank-1 updates over the rows of
//!   `A`; the tiled kernel reads `A(i, p)` at its transposed strides
//!   (`ALayout::Transposed`).
//! * [`matmul_nt_into`] — `C = A Bᵀ` for a row-major `B`: the input
//!   gradient `g·bᵀ`. The tiled kernel packs its `B` panels straight from
//!   the rows of `b` (`BLayout::Transposed`); the naive loop transposes
//!   `b` into the same thread-local pack buffer.
//!
//! Both dispatch on the shape exactly like [`matmul_into`] would on the
//! explicit transpose, and every output element sees the same operation
//! sequence as transpose-then-[`matmul_into`].
//!
//! Every layout of `A` takes a row stride, so `A` can be one column block
//! of a wider matrix, read in place — one attention head's keys inside the
//! stacked `E x (heads·head_dim)` matrix, say:
//!
//! * [`matmul_strided_into`] — `A(i, p) = a[i * lda + p]`;
//! * [`matmul_tn_strided_into`] — `A(i, p) = a[p * lda + i]`, with `B`'s
//!   rows at their own stride `ldb`;
//! * [`matmul_nt_strided_into`] — [`matmul_nt_into`] with `A` at stride
//!   `lda`.
//!
//! The tiled kernel already reads `A` in place at `(row, p)` strides, so a
//! block costs no copy; the naive loop indexes its rows at the stride. The
//! contiguous entry points are these with the stride equal to the width.
//!
//! One more entry continues a product instead of starting one:
//!
//! * [`matmul_acc_into`] — `C += A B`, each element's accumulator picking
//!   up from the value already in `C`: the tiled kernel reloads `C` on
//!   every `KC` block (as its `first = false` tiles do between blocks), and
//!   the naive loop runs without its zero fill. Splitting `k` as
//!   `A = [A₁ | A₂]`, `matmul_into(A₁, B₁)` then `matmul_acc_into(A₂, B₂)`
//!   is the single ascending-`k` chain of one `matmul_into(A, B)` over the
//!   whole `k`, so the bits are the same.
//!
//! # Dispatch
//!
//! Every entry point picks its kernel from the shape alone (`route`), so a
//! given shape always takes the same path:
//!
//! | route        | shapes                                             | kernel                                              |
//! |--------------|----------------------------------------------------|-----------------------------------------------------|
//! | naive        | `n·k·m < TILED_MIN_MACS`, or `2 <= m < 8`, or `n < 4` (except `tn`) | the `i-k-j` loop                       |
//! | matvec       | `m = 1` at or above the threshold                  | lane dots (`nn`, `acc`, `nt`); an axpy over the outputs per term (`tn`) |
//! | narrow tile  | tiled, `m <= 16`, and `k <= 16` (`nn`, `nt`, `acc`) or `n <= 16` (`tn`), on AVX-512 | the microkernel with 8 rows per tile (`n` rounded up to 4 for `tn`) |
//! | tiled        | everything else                                    | the microkernel with `MR = 4` rows per tile, up to 4 panels per AVX-512 group |
//!
//! Only a transposed `B` (`matmul_nt_into`'s) is packed into panels; a
//! row-major `B` is read in place at its row stride on every tier, and the
//! last panel's loads are masked to its columns. A tile's height changes
//! which outputs are computed together, never an output's chain, so the
//! narrow tile moves no bit either.
//!
//! *The matvec's seed.* A one-column output is one chain
//! `acc = +0.0; acc += a[i][p] * b[p]` over ascending `p`, the naive loop
//! skipping zero `a` terms. The lane dots hold 16 (8) such chains in one
//! vector, one output per lane, transpose each chunk of products so that
//! term `p` of every lane sits in one vector, and add the terms in
//! ascending `p`. Each lane starts at `+0.0` (not at the `-0.0` of
//! [`dots_into`]'s `Iterator::sum`: a chain of only `±0.0` terms, such as a
//! dead-ReLU row against negative weights, must end at `+0.0` as the naive
//! loop's does), or, for [`matmul_acc_into`], at the output's own value. A
//! zero `a` contributes `-0.0`, the exact identity of IEEE addition, which
//! is the naive loop's skip on every input, non-finite ones included. The
//! `tn` axpy keeps each output's chain in a register lane across the terms.
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
//! One more kernel is not a matmul: [`dots_into`], the edge attention's
//! score and `dα` dots, one chain per output (see its docs and the `simd`
//! module for the lane-transposed vector versions).
//!
//! # SIMD dispatch
//!
//! This module is the shape-dispatch seam for the explicit-SIMD kernels in
//! [`simd`]. The tiled matmul's panel loop reads [`simd::tier()`] once per
//! product and runs every panel — full or partial — through that tier's
//! microkernel: AVX-512 groups of up to four panels (one in a narrow
//! tile), AVX2 one panel as two ymm, or the scalar tile. Partial panels are
//! handled with masked loads of `B` and masked loads and stores of `C`, so
//! no tier falls back to another for the last columns. The fused
//! Adam chunk update ([`adam_update_chunk`]) and the segment-softmax exp /
//! normalize passes ([`softmax_exp_block`], [`softmax_div_block`]) check
//! [`simd::active()`](crate::simd::active) once per contiguous block and
//! take their AVX2 path on either vector tier. Every path is raw-bit
//! identical to the scalar loops (see the `simd` module docs for the
//! per-kernel argument), so the dispatch decision is unobservable in
//! outputs — only in throughput.
//!
//! # Parallelism
//!
//! Every path splits over output rows via
//! [`parallel::for_each_row_block_mut`]; each worker owns a contiguous row
//! range and per-element accumulation order is independent of the split, so
//! results are bitwise identical at every thread count. Each path reports
//! its rows' work to the planner at its own rate (`row_work`,
//! `matvec_work`), so products that finish in microseconds stay serial.
//!
//! # Allocation
//!
//! The `B` packing buffer is thread-local and grow-once, so steady-state
//! calls on a warm thread perform no heap allocation (the epoch-persistent
//! [`TapeArena`](crate::TapeArena) supplies the output buffer).

use crate::parallel;
use crate::simd::{self, Tier};
use std::cell::RefCell;

/// Microkernel register-tile height (output rows per tile) outside the
/// narrow route.
pub const MR: usize = 4;
/// Width of one `B` column panel: one zmm, two ymm, or 16 scalar
/// accumulators per tile row.
pub const NR: usize = 16;
/// Columns of `A` / rows of `B` per cache block (the `k` blocking factor;
/// one `B` panel of `KC x NR` f32 is 16 KiB — fits L1).
pub const KC: usize = 256;
/// Panels per AVX-512 register tile: `MR x 4` zmm accumulators (16 of 32).
const AVX512_PANELS: usize = 4;

/// Below this many multiply-adds (`n * k * m`) the packing overhead of the
/// tiled kernel outweighs its cache savings and [`matmul_into`] dispatches
/// to the naive loop instead.
pub const TILED_MIN_MACS: usize = 1 << 16;

/// Narrowest output (columns) the tiled kernel takes; narrower products
/// stay on the naive loop whatever their size.
const TILED_MIN_COLS: usize = 8;

thread_local! {
    /// The packed panels of a tiled [`matmul_nt_into`]'s `B` (all column
    /// panels, whole `k` extent), or the transposed `b` of a naive one.
    /// Lives on the thread that issues the matmul.
    static PACK_B: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// `out = a (n x k) * b (k x m)`, dispatching between the naive and tiled
/// kernels on shape alone (so a given shape always takes the same path).
///
/// # Panics
/// Panics if the slice lengths do not match the shapes.
pub fn matmul_into(a: &[f32], b: &[f32], out: &mut [f32], n: usize, k: usize, m: usize) {
    assert_eq!(a.len(), n * k, "matmul a length");
    matmul_strided_into(a, k, b, out, n, k, m);
}

/// [`matmul_into`] on an `A` read in place from a wider row-major buffer:
/// `A(i, p) = a[i * lda + p]`, for example one head's column block of a
/// stacked matrix (`a` starting at the block's first column, `lda` the
/// stack's width). Bit-identical to copying the block out and calling
/// [`matmul_into`]: same shape dispatch, same values in the same order.
///
/// # Panics
/// Panics if `lda < k` or the slice lengths do not cover the shapes.
pub fn matmul_strided_into(
    a: &[f32],
    lda: usize,
    b: &[f32],
    out: &mut [f32],
    n: usize,
    k: usize,
    m: usize,
) {
    assert_strided(a.len(), lda, n, k, "matmul a");
    assert_eq!(b.len(), k * m, "matmul b length");
    assert_eq!(out.len(), n * m, "matmul out length");
    match route(n, k, m, MR) {
        Route::Tiled => tiled_into(
            a,
            ALayout::RowMajor(lda),
            b,
            BLayout::RowMajor(m),
            out,
            n,
            k,
            m,
        ),
        Route::Matvec => matvec_into(a, lda, b, out, k, false),
        Route::Naive => {
            out.fill(0.0);
            naive_acc_into(a, lda, b, out, n, k, m);
        }
    }
}

/// `out += a (n x k) * b (k x m)`, continuing each output element's
/// accumulation chain from the value already in `out` (see the module
/// docs). Dispatches on `(n, k, m)` like [`matmul_into`]; a `k` of 0 leaves
/// `out` as it is.
///
/// # Panics
/// Panics if the slice lengths do not match the shapes.
pub fn matmul_acc_into(a: &[f32], b: &[f32], out: &mut [f32], n: usize, k: usize, m: usize) {
    assert_eq!(a.len(), n * k, "matmul_acc a length");
    assert_eq!(b.len(), k * m, "matmul_acc b length");
    assert_eq!(out.len(), n * m, "matmul_acc out length");
    match route(n, k, m, MR) {
        Route::Tiled => tiled(
            a,
            ALayout::RowMajor(k),
            b,
            BLayout::RowMajor(m),
            out,
            n,
            k,
            m,
            true,
        ),
        Route::Matvec => matvec_into(a, k, b, out, k, true),
        Route::Naive => naive_acc_into(a, k, b, out, n, k, m),
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
    matmul_tn_strided_into(a, n, b, m, out, n, k, m);
}

/// [`matmul_tn_into`] with both operands read in place from wider
/// row-major buffers: `a` holds `Aᵀ` at row stride `lda`
/// (`A(i, p) = a[p * lda + i]`) and `b` holds `B` at row stride `ldb`
/// (`B(p, j) = b[p * ldb + j]`). Bit-identical to copying both blocks out
/// and calling [`matmul_tn_into`].
///
/// # Panics
/// Panics if a stride is narrower than its block or the slice lengths do
/// not cover the shapes.
#[allow(clippy::too_many_arguments)]
pub fn matmul_tn_strided_into(
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    n: usize,
    k: usize,
    m: usize,
) {
    assert_strided(a.len(), lda, k, n, "matmul_tn a");
    assert_strided(b.len(), ldb, k, m, "matmul_tn b");
    assert_eq!(out.len(), n * m, "matmul_tn out length");
    match route(n, k, m, 1) {
        Route::Tiled => tiled_into(
            a,
            ALayout::Transposed(lda),
            b,
            BLayout::RowMajor(ldb),
            out,
            n,
            k,
            m,
        ),
        Route::Matvec => axpy_into(a, lda, b, ldb, out, k),
        Route::Naive => matmul_tn_naive_into(a, lda, b, ldb, out, k, m),
    }
}

/// `out = a * bᵀ` for `a` stored `n x k` and `b` stored `m x k` (so `out`
/// is `n x m`). The tiled path packs its panels straight from `b`, so no
/// transposed copy of `b` is made. Bit-identical to transposing `b` and
/// calling [`matmul_into`]: same shape dispatch, same per-element
/// accumulation order (see the module docs).
///
/// # Panics
/// Panics if the slice lengths do not match the shapes.
pub fn matmul_nt_into(a: &[f32], b: &[f32], out: &mut [f32], n: usize, k: usize, m: usize) {
    assert_eq!(a.len(), n * k, "matmul_nt a length");
    matmul_nt_strided_into(a, k, b, out, n, k, m);
}

/// [`matmul_nt_into`] on an `A` read in place at row stride `lda`
/// (`A(i, p) = a[i * lda + p]`), as in [`matmul_strided_into`].
///
/// # Panics
/// Panics if `lda < k` or the slice lengths do not cover the shapes.
pub fn matmul_nt_strided_into(
    a: &[f32],
    lda: usize,
    b: &[f32],
    out: &mut [f32],
    n: usize,
    k: usize,
    m: usize,
) {
    assert_strided(a.len(), lda, n, k, "matmul_nt a");
    assert_eq!(b.len(), m * k, "matmul_nt b length");
    assert_eq!(out.len(), n * m, "matmul_nt out length");
    let route = route(n, k, m, MR);
    if route == Route::Tiled {
        tiled_into(
            a,
            ALayout::RowMajor(lda),
            b,
            BLayout::Transposed,
            out,
            n,
            k,
            m,
        );
    } else if route == Route::Matvec {
        // `Bᵀ` is one row of `k` values: `B`'s one column, as stored.
        matvec_into(a, lda, b, out, k, false);
    } else {
        // Below the tiling threshold `B` is small (k x m with n*k*m under
        // TILED_MIN_MACS), and the naive loop wants its rows contiguous.
        PACK_B.with(|pb| {
            let mut pb = pb.borrow_mut();
            pb.clear();
            pb.resize(k * m, 0.0);
            for (j, b_row) in b.chunks_exact(k.max(1)).enumerate() {
                for (p, &v) in b_row.iter().enumerate() {
                    pb[p * m + j] = v;
                }
            }
            out.fill(0.0);
            naive_acc_into(a, lda, &pb, out, n, k, m);
        });
    }
}

/// Check that a `rows x cols` block at row stride `ld` fits in a slice of
/// `len` values.
fn assert_strided(len: usize, ld: usize, rows: usize, cols: usize, what: &str) {
    assert!(ld >= cols, "{what}: row stride {ld} below width {cols}");
    let need = if rows == 0 { 0 } else { (rows - 1) * ld + cols };
    assert!(
        len >= need,
        "{what}: {len} values, a {rows}x{cols} block at stride {ld} needs {need}"
    );
}

/// Work per output row to hand the parallel planner, for a row of `2·k·m`
/// flops on the naive loop (`tier` = `None`) or on a tiled tier, `tall`
/// when the product takes the tall one-panel tile. The planner's split
/// threshold assumes about 1 flop/ns, and every matmul path retires far
/// more. Measured on a 2-core AVX-512 Xeon over products from 64×32×16 to
/// 256³: naive 7–15 flops/ns, the scalar tile 13–22, AVX2 36–55, AVX-512
/// 42–80; the AVX-512 tall tiles ran the attention heads' `E x 12 x 12`
/// products at 17–31. Each path's flops are divided by a power of two
/// near its rate, so a product that finishes in microseconds stays serial
/// instead of paying a thread spawn. The split is output-partitioned, so
/// this moves no bits.
fn row_work(k: usize, m: usize, tier: Option<Tier>, tall: bool) -> usize {
    let flops_per_ns = match tier {
        None => 8,
        Some(Tier::Scalar) => 16,
        Some(Tier::Avx2) => 32,
        Some(Tier::Avx512) if tall => 16,
        Some(Tier::Avx512) => 64,
    };
    (2 * k * m / flops_per_ns).max(1)
}

/// Per-output work of the one-column routes for the parallel planner, for
/// outputs of `k` terms (see [`row_work`] for the unit). Measured like
/// `row_work` on `12,822 x 40 x 1` and its `tn` twin: the lane dots ran at
/// 5–7 flops/ns, the axpy at 7.7–14 on the vector tiers, and both at
/// 0.43–0.47 on the scalar one (one add chain per output, each add
/// waiting on the last).
fn matvec_work(k: usize, axpy: bool) -> usize {
    match (simd::active(), axpy) {
        (false, _) => 4 * k,
        (true, false) => k / 2,
        (true, true) => k / 4,
    }
    .max(1)
}

/// Which kernel a product takes; see the module docs' dispatch table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    /// The naive loop: every product below [`TILED_MIN_MACS`], and the
    /// narrow ones no other route takes.
    Naive,
    /// A one-column product: lane dots, or the axpy of `matmul_tn`.
    Matvec,
    /// The tiled kernel (with a tall tile when the product fits one panel).
    Tiled,
}

/// The shape-only dispatch rule shared by every product; `min_rows` is
/// the fewest output rows the tiled kernel takes: [`MR`], or 1 for
/// [`matmul_tn_into`], whose long-`k` products with 1–3 output rows ran
/// 5x faster on one partial tile than on the naive loop.
fn route(n: usize, k: usize, m: usize, min_rows: usize) -> Route {
    if n.saturating_mul(k).saturating_mul(m) < TILED_MIN_MACS {
        Route::Naive
    } else if m == 1 {
        Route::Matvec
    } else if m >= TILED_MIN_COLS && n >= min_rows {
        Route::Tiled
    } else {
        Route::Naive
    }
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
    naive_acc_into(a, k, b, out, n, k, m);
}

/// The naive loop's accumulation onto `out` as it stands, reading row `i`
/// of `A` at `a[i * lda ..]`: the body of [`matmul_naive_into`] after its
/// zero fill, and the naive path of [`matmul_acc_into`] and the strided
/// products.
#[allow(clippy::too_many_arguments)]
fn naive_acc_into(a: &[f32], lda: usize, b: &[f32], out: &mut [f32], n: usize, k: usize, m: usize) {
    debug_assert_eq!(out.len(), n * m);
    // Output rows are independent, so the parallel split changes nothing
    // about the per-element accumulation order: bitwise identical to the
    // serial loop for any worker count.
    parallel::for_each_row_block_mut(out, m, row_work(k, m, None, false), |i0, block| {
        for (bi, o_row) in block.chunks_mut(m).enumerate() {
            let i = i0 + bi;
            let a_row = &a[i * lda..i * lda + k];
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

/// [`matmul_naive_into`] on `aᵀ` (`a` stored `k x n` at row stride `lda`),
/// reading `a` in place, with `B`'s rows at stride `ldb`. The loop runs
/// over the rows of `a` outermost — one rank-1 update of this worker's
/// output rows per row of `a` — so `a` and `b` stream row by row. Each
/// output element still accumulates its `a[p][i] * b[p][j]` terms in
/// ascending `p` from `0.0`, skipping `a == 0.0` exactly like the naive
/// loop: the same operation sequence, so the same bits.
#[allow(clippy::too_many_arguments)]
fn matmul_tn_naive_into(
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    k: usize,
    m: usize,
) {
    out.fill(0.0);
    parallel::for_each_row_block_mut(out, m, row_work(k, m, None, false), |i0, block| {
        let rows = block.len() / m;
        for p in 0..k {
            let a_seg = &a[p * lda + i0..p * lda + i0 + rows];
            let b_row = &b[p * ldb..p * ldb + m];
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
    tiled_into(
        a,
        ALayout::RowMajor(k),
        b,
        BLayout::RowMajor(m),
        out,
        n,
        k,
        m,
    );
}

/// How the tiled kernel finds `A(i, p)` in its `a` slice.
#[derive(Debug, Clone, Copy)]
enum ALayout {
    /// `a` holds `A` row-major at row stride `lda`: `A(i, p) = a[i * lda + p]`
    /// (`lda = k` for a contiguous `A`).
    RowMajor(usize),
    /// `a` holds `Aᵀ` row-major at row stride `lda`: `A(i, p) = a[p * lda + i]`
    /// (`lda = n` for a contiguous `Aᵀ`).
    Transposed(usize),
}

/// How the tiled kernel finds `B(p, j)` in its `b` slice.
#[derive(Debug, Clone, Copy)]
enum BLayout {
    /// `b` holds `B` row-major at row stride `ldb`: `B(p, j) = b[p * ldb + j]`
    /// (`ldb = m` for a contiguous `B`).
    RowMajor(usize),
    /// `b` is `Bᵀ`, `m x k` row-major: `B(p, j) = b[j * k + p]`.
    Transposed,
}

/// The tiled kernel over `A` and `B` in either layout (lengths already
/// checked).
#[allow(clippy::too_many_arguments)]
fn tiled_into(
    a: &[f32],
    alayout: ALayout,
    b: &[f32],
    blayout: BLayout,
    out: &mut [f32],
    n: usize,
    k: usize,
    m: usize,
) {
    tiled(a, alayout, b, blayout, out, n, k, m, false);
}

/// The tiled kernel; with `cont` every k-block reloads `C`, so the product
/// adds onto what `out` holds ([`matmul_acc_into`]). Lengths are already
/// checked.
#[allow(clippy::too_many_arguments)]
fn tiled(
    a: &[f32],
    alayout: ALayout,
    b: &[f32],
    blayout: BLayout,
    out: &mut [f32],
    n: usize,
    k: usize,
    m: usize,
    cont: bool,
) {
    if n == 0 || m == 0 {
        return;
    }
    if k == 0 {
        if !cont {
            out.fill(0.0);
        }
        return;
    }
    let tier = simd::tier();
    let rows = tile_rows(tier, alayout, n, k, m);
    let work = row_work(k, m, Some(tier), rows != MR);
    // Row-partitioned like the naive path; each worker handles an
    // arbitrary contiguous row range, so the split cannot affect bits.
    let run = |bsrc: BPanel, out: &mut [f32]| {
        parallel::for_each_row_block_mut(out, m, work, |i0, block| {
            let rows_fn = match rows {
                16 => tiled_rows::<16>,
                12 => tiled_rows::<12>,
                8 => tiled_rows::<8>,
                _ => tiled_rows::<MR>,
            };
            rows_fn(a, alayout, bsrc, block, i0, k, m, cont, tier);
        });
    };
    match blayout {
        BLayout::RowMajor(ldb) => run(BPanel { b, rs: ldb, qs: NR }, out),
        BLayout::Transposed => PACK_B.with(|pb| {
            let mut pb = pb.borrow_mut();
            pack_b(&mut pb, b, k, m);
            run(
                BPanel {
                    b: &pb,
                    rs: NR,
                    qs: k * NR,
                },
                out,
            );
        }),
    }
}

/// Rows per register tile for a product on `tier`: the tall one-panel
/// tiles when the product fits one 16-wide panel (`m <= NR`) and either
/// its `A` is row-major with `k <= NR` (the attention heads' `E x w x w`
/// products, whose whole `B` is one panel of at most 16 rows), or
/// transposed with `n <= NR` (their long-`k` weight gradients, whose whole
/// output is one tile held in registers across `k`). Otherwise [`MR`].
/// Shape and tier only, and the tile height never changes an element's
/// chain, so never a bit.
fn tile_rows(tier: Tier, layout: ALayout, n: usize, k: usize, m: usize) -> usize {
    if tier != Tier::Avx512 || m > NR {
        return MR;
    }
    match layout {
        ALayout::RowMajor(_) if k <= NR => TALL_MR,
        ALayout::Transposed(_) if n <= NR => n.next_multiple_of(MR),
        _ => MR,
    }
}

/// Rows of the tall tile on a row-major `A`: 8 independent zmm chains per
/// step of `k`. On the heads' `E x 12 x 12` products 8 rows ran 3–39%
/// faster than 4 and level with 16.
const TALL_MR: usize = 8;

/// Pack `Bᵀ` (`b` is `m x k` row-major) into `NR`-wide column panels of
/// `B`: panel `jp` holds, for each `p` in `0..k`, the `NR` values
/// `B(p, jp*NR .. jp*NR+NR)`, zero-padded past column `m`. Within a panel,
/// consecutive `p` are contiguous, so the microkernel streams it linearly.
/// A row-major `B` is never packed: the microkernels read it in place.
fn pack_b(pb: &mut Vec<f32>, b: &[f32], k: usize, m: usize) {
    let panels = m.div_ceil(NR);
    pb.clear();
    pb.resize(panels * k * NR, 0.0);
    for (jp, panel) in pb.chunks_exact_mut(k * NR).enumerate() {
        let j0 = jp * NR;
        let nr = NR.min(m - j0);
        // Column j of the panel is row j0 + j of `b`: read it contiguously,
        // write it down the panel at stride NR.
        for (c, b_row) in b[j0 * k..(j0 + nr) * k].chunks_exact(k).enumerate() {
            for (p, &v) in b_row.iter().enumerate() {
                panel[p * NR + c] = v;
            }
        }
    }
}

/// Where a microkernel finds `B`: `B(p, jp·NR + c) = b[p·rs + jp·qs + c]`
/// for panel `jp`, row `p` and valid column `c` — a row-major `B` in place
/// (`rs = ldb`, `qs = NR`; the last panel's loads are masked to its
/// columns) or the packed panels of a transposed one (`rs = NR`,
/// `qs = k·NR`). [`BPanel::at`] moves the origin to one panel group's
/// first row and column.
#[derive(Clone, Copy)]
pub(crate) struct BPanel<'a> {
    /// `B` from the origin on.
    pub(crate) b: &'a [f32],
    /// Stride from `B(p, j)` to `B(p + 1, j)`.
    pub(crate) rs: usize,
    /// Stride from one panel to the next.
    pub(crate) qs: usize,
}

impl<'a> BPanel<'a> {
    /// The same `B` from row `p0` of panel `jp` on.
    #[inline(always)]
    fn at(self, p0: usize, jp: usize) -> Self {
        BPanel {
            b: &self.b[p0 * self.rs + jp * self.qs..],
            ..self
        }
    }

    /// With debug assertions on, check that the last valid column of the
    /// last of `np` panels, on row `kc - 1`, lies inside `b`.
    #[inline(always)]
    pub(crate) fn debug_check(&self, kc: usize, np: usize, last_cols: usize) {
        debug_assert!(
            (kc - 1) * self.rs + (np - 1) * self.qs + last_cols <= self.b.len(),
            "B panel reaches past its slice"
        );
    }
}

/// Compute the output rows held in `block` (rows `i0 .. i0 + block_rows` of
/// `C`) in `R`-row tiles, reading the matching rows of `A` in place (laid
/// out as `layout` says) and `B` where `b` finds it. With `cont` the first
/// k-block reloads `C` like every later one.
#[allow(clippy::too_many_arguments)]
fn tiled_rows<const R: usize>(
    a: &[f32],
    layout: ALayout,
    b: BPanel,
    block: &mut [f32],
    i0: usize,
    k: usize,
    m: usize,
    cont: bool,
    tier: Tier,
) {
    let block_rows = block.len() / m;
    // Strides of A(i, p) in `a`: to the next row i, and to the next p.
    let (rs, ps) = match layout {
        ALayout::RowMajor(lda) => (lda, 1),
        ALayout::Transposed(lda) => (1, lda),
    };
    // k blocks in ascending order: each output element accumulates its
    // k-terms in ascending order across blocks (the naive order).
    let mut p0 = 0;
    while p0 < k {
        let kc = KC.min(k - p0);
        // Row panels of R within this worker's range.
        let mut bi = 0;
        while bi < block_rows {
            let mr = R.min(block_rows - bi);
            // Tile rows past mr repeat the last valid row: their
            // accumulators are computed but never stored.
            let rows: [usize; R] =
                std::array::from_fn(|r| (i0 + bi + r.min(mr - 1)) * rs + p0 * ps);
            // The offsets grow with r, so this bounds every A the tile reads
            // (the vector microkernels read A unchecked).
            assert!(
                rows[R - 1] + (kc - 1) * ps < a.len(),
                "tiled matmul: A tile out of bounds"
            );
            let tile = Tile {
                a,
                rows,
                ps,
                kc,
                bi,
                mr,
                m,
                first: p0 == 0 && !cont,
            };
            tile_panels(tier, &tile, b, p0, block);
            bi += mr;
        }
        p0 += kc;
    }
}

/// One `(k-block, row-panel)` pair of the tiled kernel: where its `R` rows
/// of `A` start and where its `mr` output rows sit in the worker's block.
pub(crate) struct Tile<'a, const R: usize> {
    /// The whole `A` operand, in either layout.
    pub(crate) a: &'a [f32],
    /// Offset in `a` of `A(row bi + r, p0)` for each tile row `r`.
    pub(crate) rows: [usize; R],
    /// Stride in `a` from `A(i, p)` to `A(i, p + 1)`.
    pub(crate) ps: usize,
    /// Depth of this k-block.
    pub(crate) kc: usize,
    /// First output row of the tile within the block.
    pub(crate) bi: usize,
    /// Valid rows (`<= R`).
    pub(crate) mr: usize,
    /// Row stride of the block (the product's `m`).
    pub(crate) m: usize,
    /// First k-block: the accumulators start at zero instead of reloading
    /// the partial sums already in `C`.
    pub(crate) first: bool,
}

impl<const R: usize> Tile<'_, R> {
    /// `A(row bi + r, p0 + p)`.
    #[inline(always)]
    pub(crate) fn a_at(&self, r: usize, p: usize) -> f32 {
        self.a[self.rows[r] + p * self.ps]
    }

    /// Where each tile row's `A(row bi + r, p0)` sits; row `r`'s term `p`
    /// is `row_ptrs()[r].add(p * ps)`, in bounds for `p < kc` (checked
    /// when the tile is built).
    #[inline(always)]
    pub(crate) fn row_ptrs(&self) -> [*const f32; R] {
        std::array::from_fn(|r| self.a.as_ptr().wrapping_add(self.rows[r]))
    }
}

/// Run every column panel of one tile through the chosen tier's
/// microkernel: AVX-512 in groups of up to [`AVX512_PANELS`] (one panel in
/// a tall tile), AVX2 and scalar one panel at a time. Partial last panels
/// are handled inside each microkernel, and all three produce identical
/// bits per element, so the tier never shows in outputs.
fn tile_panels<const R: usize>(tier: Tier, t: &Tile<R>, src: BPanel, p0: usize, block: &mut [f32]) {
    let panels = t.m.div_ceil(NR);
    // Panel jp's rows from p0 on, running on to the end of `B` (the
    // AVX-512 group reads its later panels at `qs` from here).
    let bpanel = |jp: usize| src.at(p0, jp);
    let mut jp = 0;
    while jp < panels {
        let j0 = jp * NR;
        let group = match tier {
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 => {
                let most = if R == MR { AVX512_PANELS } else { 1 };
                let np = most.min(panels - jp);
                let b = bpanel(jp);
                // SAFETY: tier() == Avx512 only when AVX-512F is detected;
                // panels jp .. jp + np hold `kc` rows of `B` from p0 (each
                // at `qs` from the last), so j0 + (np - 1) * NR < m; rows
                // bi .. bi + mr are inside this worker's block.
                unsafe {
                    match np {
                        4 => simd::micro_avx512::<4, R>(t, b, block, j0),
                        3 => simd::micro_avx512::<3, R>(t, b, block, j0),
                        2 => simd::micro_avx512::<2, R>(t, b, block, j0),
                        _ => simd::micro_avx512::<1, R>(t, b, block, j0),
                    }
                }
                np
            }
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => {
                // SAFETY: tier() >= Avx2 only when AVX2 is detected; panel
                // jp holds `kc` rows of `B` from p0 and j0 < m; rows
                // bi .. bi + mr are inside this worker's block.
                unsafe { simd::micro_avx2(t, bpanel(jp), block, j0) };
                1
            }
            _ => {
                microkernel(t, bpanel(jp), block, j0);
                1
            }
        };
        jp += group;
    }
}

/// Rows of one scalar register tile: half of `MR`, so that the `2 x 16`
/// accumulators stay in the sixteen SSE registers of baseline x86_64.
const SCALAR_MR: usize = 2;

/// The scalar tier on one panel: the tile's rows in `SCALAR_MR x NR`
/// register tiles. Each accumulates `kc` rank-1 updates into stack
/// accumulators, then stores its valid rows and the panel's valid columns
/// (`nr < NR` only on the last panel) back to `C`. `B`'s rows are read in
/// place; the last panel's are copied into a zero-padded row first.
///
/// When `first` is false the tile reloads the partial sums already in `C`
/// (written by earlier `KC` blocks), so each element's accumulation chain
/// spans the blocks in ascending `k` order — the naive loop's exact order.
fn microkernel<const R: usize>(t: &Tile<R>, b: BPanel, block: &mut [f32], j0: usize) {
    let (kc, bi, m, mr) = (t.kc, t.bi, t.m, t.mr);
    let nr = NR.min(m - j0);
    for r0 in (0..mr).step_by(SCALAR_MR) {
        let rows = SCALAR_MR.min(mr - r0);
        let c_at = |r: usize| (bi + r0 + r) * m + j0;
        let mut acc = [[0.0f32; NR]; SCALAR_MR];
        if !t.first {
            for (r, row) in acc.iter_mut().enumerate().take(rows) {
                row[..nr].copy_from_slice(&block[c_at(r)..c_at(r) + nr]);
            }
        }
        // The hot loop: SCALAR_MR loads of A, one NR-wide row of B,
        // SCALAR_MR*NR independent multiply-adds per k step. Each
        // acc[r][c] is a single accumulator chain in ascending k —
        // autovectorizes without changing per-element rounding order.
        // B's row goes through `brow`, whose columns past `nr` stay zero
        // on the last panel. The two loops differ only in that copy; a
        // copy of `nr` values would be a `memcpy` call, around which `acc`
        // would spill on every step.
        let mut brow = [0.0f32; NR];
        if nr == NR {
            for p in 0..kc {
                brow.copy_from_slice(&b.b[p * b.rs..p * b.rs + NR]);
                rank1(&mut acc, |r| t.a_at(r0 + r, p), &brow);
            }
        } else {
            for p in 0..kc {
                let src = &b.b[p * b.rs..p * b.rs + nr];
                for (c, d) in brow.iter_mut().enumerate() {
                    *d = if c < nr { src[c] } else { 0.0 };
                }
                rank1(&mut acc, |r| t.a_at(r0 + r, p), &brow);
            }
        }
        for (r, row) in acc.iter().enumerate().take(rows) {
            block[c_at(r)..c_at(r) + nr].copy_from_slice(&row[..nr]);
        }
    }
}

/// The `m = 1` product `out[i] (+)= Σ_p a[i·lda + p] · b[p]`, one naive
/// chain per output: lane dots, 16 (AVX-512) or 8 (AVX2) outputs per
/// vector, each lane seeded with `+0.0` or, with `cont`, with its output's
/// own value, and a zero `a` adding `-0.0` (the naive loop's skip). The
/// last outputs, and every output on the scalar tier, run the naive chain
/// in a register.
fn matvec_into(a: &[f32], lda: usize, b: &[f32], out: &mut [f32], k: usize, cont: bool) {
    parallel::for_each_row_block_mut(out, 1, matvec_work(k, false), |i0, block| {
        let x = &a[i0 * lda..];
        // SAFETY: the tier is detected (or capped below) on this host; row
        // l of the block is `x[l·lda .. l·lda + k]`, inside `a` by the
        // caller's stride check, and `b` holds `k` values.
        #[cfg(target_arch = "x86_64")]
        let done = match simd::tier() {
            _ if x.len().max(b.len()) > i32::MAX as usize => 0,
            Tier::Avx512 => unsafe {
                simd::dots_avx512::<true>(block, x, lda, b, 0, None, k, cont)
            },
            Tier::Avx2 => unsafe { simd::dots_avx2::<true>(block, x, lda, b, 0, None, k, cont) },
            Tier::Scalar => 0,
        };
        #[cfg(not(target_arch = "x86_64"))]
        let done = 0;
        for (l, o) in block.iter_mut().enumerate().skip(done) {
            let mut acc = if cont { *o } else { 0.0 };
            for (&av, &bv) in x[l * lda..l * lda + k].iter().zip(b) {
                if av != 0.0 {
                    acc += av * bv;
                }
            }
            *o = acc;
        }
    });
}

/// The `m = 1` transposed product `out[i] = Σ_p a[p·lda + i] · b[p·ldb]`:
/// per term, one contiguous axpy of `a`'s row over the outputs, each
/// output keeping its naive chain (`+0.0`, a zero `a` adding nothing).
/// The vector tiers hold up to 64 (AVX-512) or 32 (AVX2) outputs in
/// registers for the whole `k`.
fn axpy_into(a: &[f32], lda: usize, b: &[f32], ldb: usize, out: &mut [f32], k: usize) {
    parallel::for_each_row_block_mut(out, 1, matvec_work(k, true), |i0, block| {
        let a = &a[i0..];
        match simd::tier() {
            // SAFETY: the tier is detected (or capped below) on this host;
            // the caller's stride checks put `(k - 1)·lda + n` values in
            // `a` and `(k - 1)·ldb + 1` in `b`.
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 => unsafe { simd::axpy_avx512(block, a, lda, b, ldb, k) },
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => unsafe { simd::axpy_avx2(block, a, lda, b, ldb, k) },
            _ => {
                block.fill(0.0);
                let rows = block.len();
                for p in 0..k {
                    let bp = b[p * ldb];
                    for (o, &av) in block.iter_mut().zip(&a[p * lda..p * lda + rows]) {
                        if av != 0.0 {
                            *o += av * bp;
                        }
                    }
                }
            }
        }
    });
}

/// One step of the scalar tile: `acc[r][c] += a(r) * b[c]`, each element
/// its own chain.
#[inline(always)]
fn rank1(acc: &mut [[f32; NR]; SCALAR_MR], a: impl Fn(usize) -> f32, b: &[f32; NR]) {
    for (r, row) in acc.iter_mut().enumerate() {
        let av = a(r);
        for (o, &bv) in row.iter_mut().zip(b) {
            *o += av * bv;
        }
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

/// Per-element work of [`softmax_exp_block`] for the parallel planner,
/// whose split threshold assumes about 1 flop/ns (as for the matmul's
/// `row_work`). The pass's ~32 flops per element ran at 13–27 flops/ns on
/// the 8-wide path and 3–3.4 on the scalar one (2-core AVX-512 Xeon, 12k
/// and 48k edges), so they are divided by 16 or 4. The split is
/// output-partitioned, so this moves no bits.
pub(crate) fn softmax_exp_work() -> usize {
    32 / if simd::active() { 16 } else { 4 }
}

/// Per-element work of [`softmax_div_block`] and [`adam_update_chunk`] for
/// the parallel planner: about 16 flops each, which ran at 12–28 flops/ns
/// on every tier (both passes are bound by memory traffic, not arithmetic),
/// so 16 / 16.
pub(crate) const STREAM_WORK: usize = 1;

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

/// Per-output work of [`dots_into`] for the parallel planner, for rows of
/// `len` terms (see [`row_work`] for the unit). Inside Table III epochs
/// (2-core AVX-512 Xeon, head widths 12 and 18) the `2·len` flops of one
/// output ran at 2–4 flops/ns on the vector tiers and 1.2–1.4 on the
/// scalar one, so they are divided by 2 or 1. The split is
/// output-partitioned, so this moves no bits.
pub(crate) fn dots_work(len: usize) -> usize {
    (2 * len / if simd::active() { 2 } else { 1 }).max(1)
}

/// Dot products of strided rows against gathered rows: for each output
/// `l`, `out[l] = Σ_p x[l·xs + p] · y[ids[l]·ys + p]` over `p in 0..len`.
/// Each output is one chain, exactly the scalar `Iterator::sum` of the
/// products: seeded with `-0.0`, then one multiply and one add per term
/// (no FMA), in ascending `p`. The vector tiers run 16 (AVX-512) or 8
/// (AVX2) outputs at once, one per lane, and finish the last outputs with
/// the scalar loop; every lane keeps its output's chain, so all three
/// tiers produce the same bits.
///
/// # Panics
/// Panics if a row reaches past the end of `x` or `y`, or `ids` is
/// shorter than `out`.
pub fn dots_into(
    out: &mut [f32],
    x: &[f32],
    xs: usize,
    y: &[f32],
    ys: usize,
    ids: &[usize],
    len: usize,
) {
    let n = out.len();
    if n == 0 {
        return;
    }
    assert!(
        (n - 1) * xs + len <= x.len(),
        "dots_into: x rows out of bounds"
    );
    let ids = &ids[..n];
    assert!(
        ids.iter().all(|&t| t * ys + len <= y.len()),
        "dots_into: y rows out of bounds"
    );
    // SAFETY: the tier is detected (or capped below) on this host, and
    // every row both kernels read was bounds-checked above.
    #[cfg(target_arch = "x86_64")]
    let done = match simd::tier() {
        // The vector kernels gather a chunk's last few terms by `i32`
        // offsets.
        _ if x.len().max(y.len()) > i32::MAX as usize => 0,
        Tier::Avx512 => unsafe {
            simd::dots_avx512::<false>(out, x, xs, y, ys, Some(ids), len, false)
        },
        Tier::Avx2 => unsafe { simd::dots_avx2::<false>(out, x, xs, y, ys, Some(ids), len, false) },
        Tier::Scalar => 0,
    };
    #[cfg(not(target_arch = "x86_64"))]
    let done = 0;
    for (l, o) in out.iter_mut().enumerate().skip(done) {
        let (xr, yr) = (&x[l * xs..l * xs + len], &y[ids[l] * ys..ids[l] * ys + len]);
        *o = xr.iter().zip(yr).map(|(&a, &b)| a * b).sum();
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
