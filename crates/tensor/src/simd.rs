//! Explicit-SIMD implementations of the hot kernels, with runtime dispatch.
//!
//! Three tape kernels dominate training (see `BENCH_kernels.json`): the
//! tiled matmul microkernel, the segment-softmax normalizer, and the fused
//! Adam step. This module provides x86_64 versions of each, selected at
//! runtime from CPU detection, with the scalar code in
//! [`kernels`](crate::kernels) / [`optim`](crate::optim) kept as the
//! portable fallback (any non-x86_64 target, a host without AVX2+FMA, or
//! `SITEREC_NO_SIMD=1`). The matmul has two vector [`Tier`]s:
//!
//! | tier     | needs               | one 16-column B panel | register tile                                |
//! |----------|---------------------|-----------------------|----------------------------------------------|
//! | `avx512` | AVX-512F, AVX2, FMA | one zmm               | 4 rows x 4 panels, or 8–16 rows x 1 panel    |
//! | `avx2`   | AVX2, FMA           | two ymm               | 4 rows x 1 panel                             |
//! | `scalar` | —                   | 16 `f32`              | 4 rows x 1 panel                             |
//!
//! The rows per tile are a const generic of the microkernels; the narrow
//! route of [`kernels`](crate::kernels) takes the taller one-panel tiles.
//! The one-column products run on lane dots ([`dots_avx512`],
//! [`dots_avx2`], the edge attention's kernels with a naive chain) or, for
//! `matmul_tn`, on a register-held axpy (`axpy_avx512`, `axpy_avx2`).
//!
//! Segment softmax and Adam have one vector version, AVX2 8-lane, taken on
//! both vector tiers. The edge attention's gathered dots
//! ([`dots_into`](crate::kernels::dots_into)) have one per vector tier:
//! 16 outputs per zmm, or 8 per ymm.
//!
//! # Bit-identity contract
//!
//! Every SIMD path here is **raw-bit identical to its scalar fallback**, by
//! construction rather than by tolerance:
//!
//! * **Matmul microkernel** — each output element keeps a single
//!   accumulator chain in ascending `k` order; the lanes of a `__m512` or
//!   `__m256` are *independent* output columns, so widening the register
//!   tile changes which elements are computed together, never the order
//!   within one element. Products use a separate mul + add (two roundings,
//!   exactly like the scalar `acc += a * b`); FMA *contraction* is
//!   deliberately not used, because its single rounding would diverge from
//!   the scalar reference and from every historical artifact. A row-major
//!   `B` is read where it lies, at its row stride: the loads of a panel's
//!   row of `B` are masked to the panel's valid columns
//!   (`_mm512_maskz_loadu_ps`, `_mm256_maskload_ps` on the last, partial
//!   panel), so no load reaches past the last column of `B`'s last row,
//!   and a masked-off lane holds `0.0`, as the zero padding of a packed
//!   panel (the transposed `B` of `matmul_nt`) does. The loads and stores
//!   of `C` (`_mm512_mask{z_loadu,_storeu}_ps`,
//!   `_mm256_mask{load,store}_ps`) are masked the same way: a padded lane
//!   is computed but never stored, so it cannot reach an output.
//! * **One-column products** — lane `l` is output `l`'s chain, seeded
//!   with `+0.0` (or the output's value when the product continues one),
//!   and a zero `a` term adds `-0.0` instead of its product. `x + -0.0` is
//!   `x` for every `x`, so that is the scalar loop's skip of the term,
//!   bit for bit; the terms go in ascending `p`, one add each.
//! * **Segment softmax** — the transcendental is [`exp_det`], a branchless
//!   polynomial evaluated with an identical mul/add sequence in the scalar
//!   and 8-lane versions, so `exp_det(x)` produces the same bits whether
//!   computed one-at-a-time or as a lane of [`exp8`]. Per-segment max and
//!   exp-sum reductions stay scalar in CSR-ascending order (they are
//!   gather-bound; the contiguous exp pass is where the time goes).
//! * **Gathered dots** — lane `l` of the accumulator is output `l`'s own
//!   chain, seeded with `-0.0` like the scalar `Iterator::sum`. Each chunk
//!   of up to 16 (8) terms is multiplied row by row, one lane's two rows
//!   at a time (the same single-rounding multiply as the scalar `x * y`),
//!   and the product rows are transposed with shuffles, which move bits
//!   without arithmetic, so that term `p` of every lane sits in one vector;
//!   the chains then add the terms in ascending `p`, one add each. A last
//!   chunk narrower than 8 terms gathers each lane's terms instead. Both
//!   orders of work leave every output's operation sequence unchanged.
//! * **Adam step** — purely elementwise; `_mm256_sqrt_ps` and
//!   `_mm256_div_ps` are IEEE-754 correctly rounded (bit-identical to
//!   scalar `sqrt`/`/`), and the expression tree mirrors the scalar update
//!   exactly, so moments and weights — and therefore checkpoints — are
//!   byte-identical between SIMD and scalar runs.
//!
//! Because lane results equal scalar results elementwise, the parallel
//! row-partitioning in [`parallel`](crate::parallel) composes freely with
//! SIMD: a row processed 8-wide in one split and scalar-tail in another
//! yields the same bits, so SIMD output is thread-count invariant. The
//! proofs live in `tests/kernel_equivalence.rs` (including adversarial NaN
//! payload / denormal / huge-magnitude bit patterns, under every tier).
//!
//! # Dispatch
//!
//! [`tier`] caches CPU feature detection once (AVX2 **and** FMA must be
//! present for any vector tier — the gate matches what the perf gate
//! expects of the host, even though contraction is unused) and honours
//! three overrides: the `SITEREC_NO_SIMD=1` environment variable (read once
//! per process) and the scoped [`SimdGuard`]s used by benches and tests to
//! A/B the paths in-process — [`SimdGuard::force_scalar`] and
//! [`SimdGuard::cap_avx2`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Depth of active [`SimdGuard::force_scalar`] guards; non-zero forces the
/// scalar fallback.
static FORCE_SCALAR_DEPTH: AtomicUsize = AtomicUsize::new(0);
/// Depth of active [`SimdGuard::cap_avx2`] guards; non-zero caps the matmul
/// tier at AVX2.
static CAP_AVX2_DEPTH: AtomicUsize = AtomicUsize::new(0);

/// Lower clamp for [`exp_det`] inputs: keeps the `2^n` scale factor a
/// normal number (`n >= -126`), so `exp_det(x) ≈ 1.2e-38` for any
/// `x <= -87` (including `-inf` and NaN — see [`exp_det`]).
pub const EXP_LO: f32 = -87.0;
/// Upper clamp for [`exp_det`] inputs: keeps `2^n` finite (`n <= 127`).
pub const EXP_HI: f32 = 88.0;

/// A matmul microkernel tier, ordered from narrowest to widest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// The portable scalar microkernel.
    Scalar,
    /// 256-bit ymm microkernel.
    Avx2,
    /// 512-bit zmm microkernel.
    Avx512,
}

impl Tier {
    /// The tier's name as recorded in artifacts and journals.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Scalar => "scalar",
            Tier::Avx2 => "avx2",
            Tier::Avx512 => "avx512",
        }
    }
}

/// True when the `SITEREC_NO_SIMD` env knob disables SIMD (read once).
pub fn env_disabled() -> bool {
    static DISABLED: OnceLock<bool> = OnceLock::new();
    *DISABLED
        .get_or_init(|| std::env::var("SITEREC_NO_SIMD").is_ok_and(|v| !v.is_empty() && v != "0"))
}

/// Host CPU features the dispatch reads.
#[derive(Debug, Clone, Copy)]
struct Cpu {
    avx2: bool,
    fma: bool,
    avx512f: bool,
}

/// Cached CPU feature detection.
fn cpu() -> Cpu {
    #[cfg(target_arch = "x86_64")]
    {
        static DET: OnceLock<Cpu> = OnceLock::new();
        *DET.get_or_init(|| Cpu {
            avx2: std::arch::is_x86_feature_detected!("avx2"),
            fma: std::arch::is_x86_feature_detected!("fma"),
            avx512f: std::arch::is_x86_feature_detected!("avx512f"),
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Cpu {
            avx2: false,
            fma: false,
            avx512f: false,
        }
    }
}

/// The widest tier this host supports, from CPU detection alone.
fn host_tier() -> Tier {
    let c = cpu();
    match (c.avx2 && c.fma, c.avx512f) {
        (true, true) => Tier::Avx512,
        (true, false) => Tier::Avx2,
        (false, _) => Tier::Scalar,
    }
}

/// The matmul tier taken right now: the host's widest, lowered by
/// `SITEREC_NO_SIMD` and any live [`SimdGuard`]. Cheap enough for the
/// per-region hot path: cached lookups and two relaxed atomic loads.
#[inline]
pub fn tier() -> Tier {
    if env_disabled() || FORCE_SCALAR_DEPTH.load(Ordering::Relaxed) > 0 {
        return Tier::Scalar;
    }
    let host = host_tier();
    if CAP_AVX2_DEPTH.load(Ordering::Relaxed) > 0 {
        host.min(Tier::Avx2)
    } else {
        host
    }
}

/// Whether the SIMD kernel paths are taken right now (any vector tier; the
/// AVX2 softmax and Adam kernels run on both).
#[inline]
pub fn active() -> bool {
    tier() != Tier::Scalar
}

/// Snapshot of the dispatch decision, recorded into bench artifacts.
#[derive(Debug, Clone, Copy)]
pub struct SimdStatus {
    /// Compile-time target architecture.
    pub arch: &'static str,
    /// AVX2 detected on this host.
    pub avx2: bool,
    /// FMA detected on this host (required for dispatch, though the
    /// kernels never contract — see the module docs).
    pub fma: bool,
    /// AVX-512F detected on this host.
    pub avx512: bool,
    /// `SITEREC_NO_SIMD` forced the scalar path.
    pub env_disabled: bool,
    /// The SIMD paths are currently taken.
    pub active: bool,
    /// Name of the matmul tier currently taken (see [`Tier::name`]).
    pub tier: &'static str,
}

/// Current dispatch snapshot (respects any live [`SimdGuard`]).
pub fn status() -> SimdStatus {
    let c = cpu();
    SimdStatus {
        arch: std::env::consts::ARCH,
        avx2: c.avx2,
        fma: c.fma,
        avx512: c.avx512f,
        env_disabled: env_disabled(),
        active: active(),
        tier: tier().name(),
    }
}

/// Scoped dispatch override for in-process A/B comparisons (benches,
/// equivalence tests). Nesting-safe; restores on drop. Results are
/// bit-identical either way — this only changes *which* instructions
/// compute them.
pub struct SimdGuard(&'static AtomicUsize);

impl SimdGuard {
    /// Force the scalar fallback until the guard drops.
    pub fn force_scalar() -> Self {
        Self::hold(&FORCE_SCALAR_DEPTH)
    }

    /// Cap the matmul tier at AVX2 until the guard drops (no effect on a
    /// host whose widest tier is AVX2 or scalar).
    pub fn cap_avx2() -> Self {
        Self::hold(&CAP_AVX2_DEPTH)
    }

    fn hold(depth: &'static AtomicUsize) -> Self {
        depth.fetch_add(1, Ordering::Relaxed);
        SimdGuard(depth)
    }
}

impl Drop for SimdGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

// Cephes-style expf polynomial over the reduced range `[-ln2/2, ln2/2]`
// (|error| ~2 ulp vs true exp across the clamped domain). Evaluated with
// plain mul/add Horner steps so the scalar and 8-lane versions perform the
// identical rounding sequence.
#[allow(clippy::excessive_precision, clippy::approx_constant)]
mod exp_consts {
    pub const LOG2E: f32 = 1.44269504088896341;
    /// `ln 2` split: HI is exact in f32 (0.693359375), LO the residual.
    pub const LN2_HI: f32 = 0.693359375;
    pub const LN2_LO: f32 = -2.12194440e-4;
    pub const P0: f32 = 1.9875691500e-4;
    pub const P1: f32 = 1.3981999507e-3;
    pub const P2: f32 = 8.3334519073e-3;
    pub const P3: f32 = 4.1665795894e-2;
    pub const P4: f32 = 1.6666665459e-1;
    pub const P5: f32 = 5.0000001201e-1;
}

/// Deterministic `e^x` used by the segment-softmax kernel: a branchless
/// clamp + range-reduction + degree-6 polynomial whose operation sequence
/// is mirrored instruction-for-instruction by the AVX2 [`exp8`], so the
/// two produce identical bits for every input bit pattern (the lane-wise
/// equality is asserted exhaustively over adversarial patterns in
/// `tests/kernel_equivalence.rs`).
///
/// Semantics notes (all shared with `exp8` by construction):
///
/// * Accuracy is ~2 ulp of true `e^x` — well inside the softmax test
///   tolerances; this intentionally replaces libm's `exp` for the segment
///   softmax, so artifacts regenerated after this change differ from
///   pre-SIMD history in the last couple of mantissa bits (the
///   determinism contract is *within*-process scalar/SIMD/thread-count
///   equality, which holds exactly).
/// * Inputs are clamped to `[EXP_LO, EXP_HI]` with `max`/`min` comparisons
///   ordered like `_mm256_max_ps(x, lo)`: a NaN input compares false and
///   becomes the bound, so `exp_det(NaN) = exp_det(EXP_LO)` — deterministic
///   and identical in both paths. Softmax arguments are `x - max <= 0`, so
///   the upper clamp is never hit in practice and the lower clamp only for
///   logit gaps > 87 (where the true value underflows anyway).
#[inline]
pub fn exp_det(x: f32) -> f32 {
    use exp_consts::*;
    let x = if x > EXP_LO { x } else { EXP_LO };
    let x = if x < EXP_HI { x } else { EXP_HI };
    // n = round-to-nearest-even(x * log2 e), exact in both paths.
    let ni = (x * LOG2E).round_ties_even() as i32;
    let n = ni as f32;
    // Two-step Cody-Waite reduction: r = x - n*ln2, |r| <= ln2/2 + eps.
    let r = x - n * LN2_HI;
    let r = r - n * LN2_LO;
    let r2 = r * r;
    let mut p = P0;
    p = p * r + P1;
    p = p * r + P2;
    p = p * r + P3;
    p = p * r + P4;
    p = p * r + P5;
    let y = p * r2 + r + 1.0;
    // 2^n via exponent-field construction; n in [-126, 127] by the clamp.
    let scale = f32::from_bits(((ni + 127) << 23) as u32);
    y * scale
}

#[cfg(target_arch = "x86_64")]
pub use x86::*;

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! AVX2 and AVX-512 kernel bodies. Every function is `unsafe` with the
    //! contract that the caller has checked [`tier()`](super::tier) reaches
    //! the instruction set the function is compiled for before dispatching
    //! here.
    // Register-tile loops index several accumulator arrays and raw pointers
    // in lockstep; iterator rewrites would obscure the lane arithmetic.
    #![allow(clippy::too_many_arguments, clippy::needless_range_loop)]

    use super::exp_consts::*;
    use super::{EXP_HI, EXP_LO};
    use crate::kernels::{AdamConsts, BPanel, Tile, NR};
    use std::arch::x86_64::*;

    /// 8-lane [`exp_det`](super::exp_det): identical clamp / reduction /
    /// polynomial sequence, so each lane's bits equal the scalar result.
    ///
    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn exp8(x: __m256) -> __m256 {
        // max/min operand order matches the scalar `if x > LO {x} else {LO}`:
        // NaN lanes compare false and take the bound.
        let x = _mm256_max_ps(x, _mm256_set1_ps(EXP_LO));
        let x = _mm256_min_ps(x, _mm256_set1_ps(EXP_HI));
        let z = _mm256_mul_ps(x, _mm256_set1_ps(LOG2E));
        let ni = _mm256_cvtps_epi32(z); // round-to-nearest-even, like scalar
        let n = _mm256_cvtepi32_ps(ni);
        let r = _mm256_sub_ps(x, _mm256_mul_ps(n, _mm256_set1_ps(LN2_HI)));
        let r = _mm256_sub_ps(r, _mm256_mul_ps(n, _mm256_set1_ps(LN2_LO)));
        let r2 = _mm256_mul_ps(r, r);
        let mut p = _mm256_set1_ps(P0);
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(P1));
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(P2));
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(P3));
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(P4));
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(P5));
        let y = _mm256_add_ps(_mm256_add_ps(_mm256_mul_ps(p, r2), r), _mm256_set1_ps(1.0));
        let scale = _mm256_castsi256_ps(_mm256_slli_epi32(
            _mm256_add_epi32(ni, _mm256_set1_epi32(127)),
            23,
        ));
        _mm256_mul_ps(y, scale)
    }

    /// The microkernel on one `NR = 16` column panel: an `R x 16` register
    /// tile held in `2R` ymm accumulators, two per row. `acc += a * b` is
    /// separate mul + add — two roundings per term in ascending `k`,
    /// exactly the scalar chain. `B` is read where it lies ([`BPanel`]),
    /// and `B` and `C` are read and written through lane masks that cover
    /// the panel's valid columns, so the last, partial panel of a product
    /// needs no separate path and reads nothing past its columns.
    ///
    /// # Safety
    /// Requires AVX2; `b` holds the panel's `t.kc` rows (see [`BPanel`]),
    /// `j0 < t.m`, and rows `t.bi..t.bi+t.mr` must be in-bounds in `block`
    /// (row stride `t.m`). `A` is read through [`Tile::row_ptrs`], whose
    /// reach the tile's builder checked.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn micro_avx2<const R: usize>(
        t: &Tile<R>,
        b: BPanel,
        block: &mut [f32],
        j0: usize,
    ) {
        let (kc, bi, m, mr) = (t.kc, t.bi, t.m, t.mr);
        let nr = (m - j0).min(NR);
        b.debug_check(kc, 1, nr);
        // The high half may start past the end of `block` (or of `B`)
        // when the panel has 8 or fewer columns; `wrapping_add` keeps
        // forming that address defined, and its all-clear mask keeps it
        // from being accessed.
        let cols = _mm256_set1_epi32(nr as i32);
        let lo = _mm256_cmpgt_epi32(cols, _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
        let hi = _mm256_cmpgt_epi32(cols, _mm256_setr_epi32(8, 9, 10, 11, 12, 13, 14, 15));
        let full = nr == NR;
        let mut acc0: [__m256; R] = [_mm256_setzero_ps(); R];
        let mut acc1: [__m256; R] = [_mm256_setzero_ps(); R];
        if !t.first {
            for r in 0..mr {
                let p = block.as_ptr().add((bi + r) * m + j0);
                acc0[r] = _mm256_maskload_ps(p, lo);
                acc1[r] = _mm256_maskload_ps(p.wrapping_add(8), hi);
            }
        }
        let ap = t.row_ptrs();
        for p in 0..kc {
            let row = b.b.as_ptr().wrapping_add(p * b.rs);
            let (b0, b1) = if full {
                (_mm256_loadu_ps(row), _mm256_loadu_ps(row.add(8)))
            } else {
                (
                    _mm256_maskload_ps(row, lo),
                    _mm256_maskload_ps(row.wrapping_add(8), hi),
                )
            };
            for r in 0..R {
                let av = _mm256_set1_ps(*ap[r].add(p * t.ps));
                acc0[r] = _mm256_add_ps(acc0[r], _mm256_mul_ps(av, b0));
                acc1[r] = _mm256_add_ps(acc1[r], _mm256_mul_ps(av, b1));
            }
        }
        for r in 0..mr {
            let p = block.as_mut_ptr().add((bi + r) * m + j0);
            _mm256_maskstore_ps(p, lo, acc0[r]);
            _mm256_maskstore_ps(p.wrapping_add(8), hi, acc1[r]);
        }
    }

    /// The microkernel on `NP` (1..=4) adjacent `NR = 16` column panels:
    /// an `R x 16·NP` register tile with one zmm accumulator per row and
    /// panel (16 at `R = 4, NP = 4`, or `R` in the one-panel tall tiles).
    /// Same per-element arithmetic as [`micro_avx2`]; each panel's loads
    /// of `B` and loads and stores of `C` are masked to its valid columns.
    ///
    /// # Safety
    /// Requires AVX-512F; `b` holds the group's `t.kc` rows of `NP` panels
    /// (see [`BPanel`]); `j0 + (NP - 1) * NR < t.m`; and rows
    /// `t.bi..t.bi+t.mr` must be in-bounds in `block` (row stride `t.m`).
    /// `A` is read through [`Tile::row_ptrs`], whose reach the tile's
    /// builder checked.
    #[target_feature(enable = "avx512f")]
    pub(crate) unsafe fn micro_avx512<const NP: usize, const R: usize>(
        t: &Tile<R>,
        b: BPanel,
        block: &mut [f32],
        j0: usize,
    ) {
        let (kc, bi, m, mr) = (t.kc, t.bi, t.m, t.mr);
        b.debug_check(kc, NP, (m - j0 - (NP - 1) * NR).min(NR));
        let mut mask: [__mmask16; NP] = [0; NP];
        for (q, mk) in mask.iter_mut().enumerate() {
            let cols = (m - j0 - q * NR).min(NR);
            *mk = (((1u32 << cols) - 1) & 0xffff) as __mmask16;
        }
        let mut acc: [[__m512; NP]; R] = [[_mm512_setzero_ps(); NP]; R];
        if !t.first {
            for r in 0..mr {
                let c = block.as_ptr().add((bi + r) * m + j0);
                for q in 0..NP {
                    acc[r][q] = _mm512_maskz_loadu_ps(mask[q], c.add(q * NR));
                }
            }
        }
        let ap = t.row_ptrs();
        for p in 0..kc {
            let mut bv: [__m512; NP] = [_mm512_setzero_ps(); NP];
            for q in 0..NP {
                let row = b.b.as_ptr().wrapping_add(q * b.qs + p * b.rs);
                bv[q] = _mm512_maskz_loadu_ps(mask[q], row);
            }
            for r in 0..R {
                let av = _mm512_set1_ps(*ap[r].add(p * t.ps));
                for q in 0..NP {
                    acc[r][q] = _mm512_add_ps(acc[r][q], _mm512_mul_ps(av, bv[q]));
                }
            }
        }
        for r in 0..mr {
            let c = block.as_mut_ptr().add((bi + r) * m + j0);
            for q in 0..NP {
                _mm512_mask_storeu_ps(c.add(q * NR), mask[q], acc[r][q]);
            }
        }
    }

    /// One lane's product term: `a * b`, or, on a naive chain, `-0.0` when
    /// `a == 0.0`. `-0.0` is the exact identity of IEEE addition (`x +
    /// -0.0` is `x` for every `x`, `+0.0` included), so adding it is the
    /// naive loop's skip of a zero `a`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn term16<const NAIVE: bool>(a: __m512, b: __m512) -> __m512 {
        if NAIVE {
            let nz = _mm512_cmp_ps_mask::<_CMP_NEQ_UQ>(a, _mm512_setzero_ps());
            _mm512_mask_mul_ps(_mm512_set1_ps(-0.0), nz, a, b)
        } else {
            _mm512_mul_ps(a, b)
        }
    }

    /// [`term16`] on 8 lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn term8<const NAIVE: bool>(a: __m256, b: __m256) -> __m256 {
        if NAIVE {
            let nz = _mm256_cmp_ps::<_CMP_NEQ_UQ>(a, _mm256_setzero_ps());
            _mm256_blendv_ps(_mm256_set1_ps(-0.0), _mm256_mul_ps(a, b), nz)
        } else {
            _mm256_mul_ps(a, b)
        }
    }

    /// Columns below which the last chunk of terms is gathered lane by
    /// lane instead of transposed: a transpose costs the same at any width.
    const TRANSPOSE_MIN: usize = 8;

    /// Output `j`'s two rows (see [`dots_into`](crate::kernels::dots_into));
    /// without `ids` every output shares the one `y` row.
    #[inline(always)]
    fn rows_of(
        x: &[f32],
        xs: usize,
        y: &[f32],
        ys: usize,
        ids: Option<&[usize]>,
        j: usize,
    ) -> (*const f32, *const f32) {
        let yo = ids.map_or(0, |ids| ids[j] * ys);
        (x.as_ptr().wrapping_add(j * xs), y.as_ptr().wrapping_add(yo))
    }

    /// The offsets of the rows of outputs `j .. j + L`, as `i32` gather
    /// indices (callers have checked that both slices fit them).
    #[inline(always)]
    fn row_offsets<const L: usize>(
        xs: usize,
        ys: usize,
        ids: Option<&[usize]>,
        j: usize,
    ) -> ([i32; L], [i32; L]) {
        (
            std::array::from_fn(|l| ((j + l) * xs) as i32),
            std::array::from_fn(|l| ids.map_or(0, |ids| ids[j + l] * ys) as i32),
        )
    }

    /// Transpose a 16 x 16 block held as 16 row vectors, in place.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn transpose16(r: &mut [__m512; 16]) {
        // Within each 128-bit lane: interleave row pairs, then pairs of
        // pairs, so vector 4g + c holds column 4L + c of rows 4g..4g+3 in
        // lane L.
        let mut t = [_mm512_setzero_ps(); 16];
        for g in 0..4 {
            let lo01 = _mm512_unpacklo_ps(r[4 * g], r[4 * g + 1]);
            let hi01 = _mm512_unpackhi_ps(r[4 * g], r[4 * g + 1]);
            let lo23 = _mm512_unpacklo_ps(r[4 * g + 2], r[4 * g + 3]);
            let hi23 = _mm512_unpackhi_ps(r[4 * g + 2], r[4 * g + 3]);
            let pd = _mm512_castps_pd;
            t[4 * g] = _mm512_castpd_ps(_mm512_unpacklo_pd(pd(lo01), pd(lo23)));
            t[4 * g + 1] = _mm512_castpd_ps(_mm512_unpackhi_pd(pd(lo01), pd(lo23)));
            t[4 * g + 2] = _mm512_castpd_ps(_mm512_unpacklo_pd(pd(hi01), pd(hi23)));
            t[4 * g + 3] = _mm512_castpd_ps(_mm512_unpackhi_pd(pd(hi01), pd(hi23)));
        }
        // Then transpose the 4 x 4 grid of 128-bit blocks, per column c.
        for c in 0..4 {
            let v01 = _mm512_shuffle_f32x4::<0x88>(t[c], t[4 + c]);
            let w01 = _mm512_shuffle_f32x4::<0xdd>(t[c], t[4 + c]);
            let v23 = _mm512_shuffle_f32x4::<0x88>(t[8 + c], t[12 + c]);
            let w23 = _mm512_shuffle_f32x4::<0xdd>(t[8 + c], t[12 + c]);
            r[c] = _mm512_shuffle_f32x4::<0x88>(v01, v23);
            r[4 + c] = _mm512_shuffle_f32x4::<0x88>(w01, w23);
            r[8 + c] = _mm512_shuffle_f32x4::<0xdd>(v01, v23);
            r[12 + c] = _mm512_shuffle_f32x4::<0xdd>(w01, w23);
        }
    }

    /// Transpose an 8 x 8 block held as 8 row vectors, in place.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn transpose8(r: &mut [__m256; 8]) {
        let mut t = [_mm256_setzero_ps(); 8];
        for g in 0..2 {
            let lo01 = _mm256_unpacklo_ps(r[4 * g], r[4 * g + 1]);
            let hi01 = _mm256_unpackhi_ps(r[4 * g], r[4 * g + 1]);
            let lo23 = _mm256_unpacklo_ps(r[4 * g + 2], r[4 * g + 3]);
            let hi23 = _mm256_unpackhi_ps(r[4 * g + 2], r[4 * g + 3]);
            t[4 * g] = _mm256_shuffle_ps::<0x44>(lo01, lo23);
            t[4 * g + 1] = _mm256_shuffle_ps::<0xee>(lo01, lo23);
            t[4 * g + 2] = _mm256_shuffle_ps::<0x44>(hi01, hi23);
            t[4 * g + 3] = _mm256_shuffle_ps::<0xee>(hi01, hi23);
        }
        for c in 0..4 {
            r[c] = _mm256_permute2f128_ps::<0x20>(t[c], t[4 + c]);
            r[4 + c] = _mm256_permute2f128_ps::<0x31>(t[c], t[4 + c]);
        }
    }

    /// Lane dots 16 outputs per zmm, lane `l` holding output `l`'s chain:
    /// [`dots_into`](crate::kernels::dots_into) with `NAIVE = false` and
    /// `ids` given (the chain starts at `-0.0`, the scalar
    /// `Iterator::sum`), or the `m = 1` matmul's naive chain with
    /// `NAIVE = true` and no `ids` (every output's `y` row is the vector
    /// `b`; the chain starts at `+0.0`, or at the output's own value with
    /// `cont`, and a zero `a` adds `-0.0`, as `term16` says). Each chunk of
    /// up to 16 terms is multiplied row by row (masked loads of each
    /// lane's two rows), and the 16 product rows are transposed so that
    /// term `p` of every lane sits in one vector, which the chains then
    /// add in ascending `p`. A last chunk narrower than `TRANSPOSE_MIN`
    /// gathers each lane's terms by `i32` offsets instead. Returns how
    /// many outputs it wrote (whole groups of 16).
    ///
    /// # Safety
    /// Requires AVX-512F; every row the outputs read is in bounds, and
    /// `x.len()` and `y.len()` fit an `i32` (the callers check both).
    #[target_feature(enable = "avx512f")]
    pub unsafe fn dots_avx512<const NAIVE: bool>(
        out: &mut [f32],
        x: &[f32],
        xs: usize,
        y: &[f32],
        ys: usize,
        ids: Option<&[usize]>,
        len: usize,
        cont: bool,
    ) -> usize {
        let n = out.len() & !15;
        let seed = _mm512_set1_ps(if NAIVE { 0.0 } else { -0.0 });
        for j in (0..n).step_by(16) {
            let mut acc = if cont {
                _mm512_loadu_ps(out.as_ptr().add(j))
            } else {
                seed
            };
            let mut c0 = 0;
            while c0 < len {
                let w = (len - c0).min(16);
                if w < TRANSPOSE_MIN {
                    let (xo, yo) = row_offsets::<16>(xs, ys, ids, j);
                    let xo = _mm512_loadu_si512(xo.as_ptr().cast());
                    let yo = _mm512_loadu_si512(yo.as_ptr().cast());
                    for p in c0..len {
                        let a = _mm512_i32gather_ps::<4>(xo, x.as_ptr().add(p));
                        let b = _mm512_i32gather_ps::<4>(yo, y.as_ptr().add(p));
                        acc = _mm512_add_ps(acc, term16::<NAIVE>(a, b));
                    }
                    break;
                }
                let mask = ((1u32 << w) - 1) as __mmask16;
                let mut r = [_mm512_setzero_ps(); 16];
                for (l, rl) in r.iter_mut().enumerate() {
                    let (xr, yr) = rows_of(x, xs, y, ys, ids, j + l);
                    let a = _mm512_maskz_loadu_ps(mask, xr.add(c0));
                    let b = _mm512_maskz_loadu_ps(mask, yr.add(c0));
                    *rl = term16::<NAIVE>(a, b);
                }
                transpose16(&mut r);
                for col in &r[..w] {
                    acc = _mm512_add_ps(acc, *col);
                }
                c0 += w;
            }
            _mm512_storeu_ps(out.as_mut_ptr().add(j), acc);
        }
        n
    }

    /// [`dots_avx512`] at 8 outputs per ymm, with 8 x 8 transposes.
    ///
    /// # Safety
    /// Requires AVX2; every row the outputs read is in bounds, and
    /// `x.len()` and `y.len()` fit an `i32` (the callers check both).
    #[target_feature(enable = "avx2")]
    pub unsafe fn dots_avx2<const NAIVE: bool>(
        out: &mut [f32],
        x: &[f32],
        xs: usize,
        y: &[f32],
        ys: usize,
        ids: Option<&[usize]>,
        len: usize,
        cont: bool,
    ) -> usize {
        let n = out.len() & !7;
        let idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let seed = _mm256_set1_ps(if NAIVE { 0.0 } else { -0.0 });
        for j in (0..n).step_by(8) {
            let mut acc = if cont {
                _mm256_loadu_ps(out.as_ptr().add(j))
            } else {
                seed
            };
            let mut c0 = 0;
            while c0 < len {
                let w = (len - c0).min(8);
                if w < TRANSPOSE_MIN {
                    let (xo, yo) = row_offsets::<8>(xs, ys, ids, j);
                    let xo = _mm256_loadu_si256(xo.as_ptr().cast());
                    let yo = _mm256_loadu_si256(yo.as_ptr().cast());
                    for p in c0..len {
                        let a = _mm256_i32gather_ps::<4>(x.as_ptr().add(p), xo);
                        let b = _mm256_i32gather_ps::<4>(y.as_ptr().add(p), yo);
                        acc = _mm256_add_ps(acc, term8::<NAIVE>(a, b));
                    }
                    break;
                }
                let mask = _mm256_cmpgt_epi32(_mm256_set1_epi32(w as i32), idx);
                let mut r = [_mm256_setzero_ps(); 8];
                for (l, rl) in r.iter_mut().enumerate() {
                    let (xr, yr) = rows_of(x, xs, y, ys, ids, j + l);
                    let a = _mm256_maskload_ps(xr.add(c0), mask);
                    let b = _mm256_maskload_ps(yr.add(c0), mask);
                    *rl = term8::<NAIVE>(a, b);
                }
                transpose8(&mut r);
                for col in &r[..w] {
                    acc = _mm256_add_ps(acc, *col);
                }
                c0 += w;
            }
            _mm256_storeu_ps(out.as_mut_ptr().add(j), acc);
        }
        n
    }

    /// The `m = 1` transposed product `out[i] = Σ_p a[p·lda + i] · b[p·ldb]`
    /// as one contiguous axpy over the outputs per term: up to 64 outputs
    /// at a time stay in four zmm accumulators for the whole `k`, and term
    /// `p` adds its row of `a` times the broadcast `b[p·ldb]` to them —
    /// each output's naive chain (`+0.0`, then one mul and one add per
    /// term in ascending `p`, a zero `a` adding `-0.0`). The last strip's
    /// loads and stores are masked to its outputs.
    ///
    /// # Safety
    /// Requires AVX-512F; `a` holds `(k - 1)·lda + out.len()` values and
    /// `b` holds `(k - 1)·ldb + 1`.
    #[target_feature(enable = "avx512f")]
    pub(crate) unsafe fn axpy_avx512(
        out: &mut [f32],
        a: &[f32],
        lda: usize,
        b: &[f32],
        ldb: usize,
        k: usize,
    ) {
        debug_assert!(k == 0 || ((k - 1) * lda + out.len() <= a.len() && (k - 1) * ldb < b.len()));
        let mut s = 0;
        while s < out.len() {
            let w = (out.len() - s).min(64);
            let strip = (&mut out[s..s + w], a.as_ptr().add(s));
            match w.div_ceil(16) {
                4 => axpy_strip_avx512::<4>(strip, lda, b, ldb, k),
                3 => axpy_strip_avx512::<3>(strip, lda, b, ldb, k),
                2 => axpy_strip_avx512::<2>(strip, lda, b, ldb, k),
                _ => axpy_strip_avx512::<1>(strip, lda, b, ldb, k),
            }
            s += w;
        }
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn axpy_strip_avx512<const Q: usize>(
        (out, a): (&mut [f32], *const f32),
        lda: usize,
        b: &[f32],
        ldb: usize,
        k: usize,
    ) {
        let mask: [__mmask16; Q] = std::array::from_fn(|q| {
            let cols = (out.len() - q * 16).min(16);
            (((1u32 << cols) - 1) & 0xffff) as __mmask16
        });
        let mut acc = [_mm512_setzero_ps(); Q];
        for p in 0..k {
            let bv = _mm512_set1_ps(*b.get_unchecked(p * ldb));
            let row = a.add(p * lda);
            for q in 0..Q {
                let av = _mm512_maskz_loadu_ps(mask[q], row.add(q * 16));
                acc[q] = _mm512_add_ps(acc[q], term16::<true>(av, bv));
            }
        }
        for q in 0..Q {
            _mm512_mask_storeu_ps(out.as_mut_ptr().add(q * 16), mask[q], acc[q]);
        }
    }

    /// [`axpy_avx512`] on ymm: up to 32 outputs in four accumulators.
    ///
    /// # Safety
    /// Requires AVX2; as [`axpy_avx512`].
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn axpy_avx2(
        out: &mut [f32],
        a: &[f32],
        lda: usize,
        b: &[f32],
        ldb: usize,
        k: usize,
    ) {
        debug_assert!(k == 0 || ((k - 1) * lda + out.len() <= a.len() && (k - 1) * ldb < b.len()));
        let idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let mut s = 0;
        while s < out.len() {
            let w = (out.len() - s).min(32);
            let mask: [__m256i; 4] = std::array::from_fn(|q| {
                _mm256_cmpgt_epi32(_mm256_set1_epi32(w as i32 - 8 * q as i32), idx)
            });
            let mut acc = [_mm256_setzero_ps(); 4];
            let base = a.as_ptr().add(s);
            let q_n = w.div_ceil(8);
            for p in 0..k {
                let bv = _mm256_set1_ps(*b.get_unchecked(p * ldb));
                let row = base.add(p * lda);
                for q in 0..4 {
                    if q < q_n {
                        let av = _mm256_maskload_ps(row.add(q * 8), mask[q]);
                        acc[q] = _mm256_add_ps(acc[q], term8::<true>(av, bv));
                    }
                }
            }
            for q in 0..q_n {
                _mm256_maskstore_ps(out.as_mut_ptr().add(s + q * 8), mask[q], acc[q]);
            }
            s += w;
        }
    }

    /// Fused Adam update over whole 8-lane chunks of one contiguous split;
    /// returns how many elements were processed (the caller finishes the
    /// `< 8` tail with the scalar chunk, which computes identical bits).
    ///
    /// # Safety
    /// Requires AVX2; `w`, `m`, `v`, `g` must have equal lengths.
    #[target_feature(enable = "avx2")]
    pub unsafe fn adam_chunks_avx2(
        w: &mut [f32],
        m: &mut [f32],
        v: &mut [f32],
        g: &[f32],
        c: &AdamConsts,
    ) -> usize {
        let n = w.len() & !7;
        let b1 = _mm256_set1_ps(c.beta1);
        let b2 = _mm256_set1_ps(c.beta2);
        let omb1 = _mm256_set1_ps(c.omb1);
        let omb2 = _mm256_set1_ps(c.omb2);
        let bc1 = _mm256_set1_ps(c.bc1);
        let bc2 = _mm256_set1_ps(c.bc2);
        let lr = _mm256_set1_ps(c.lr);
        let eps = _mm256_set1_ps(c.eps);
        let mut i = 0;
        while i < n {
            let gv = _mm256_loadu_ps(g.as_ptr().add(i));
            // m = b1*m + (1-b1)*g; v = b2*v + ((1-b2)*g)*g — the scalar
            // expression trees, term for term.
            let mv = _mm256_add_ps(
                _mm256_mul_ps(b1, _mm256_loadu_ps(m.as_ptr().add(i))),
                _mm256_mul_ps(omb1, gv),
            );
            let vv = _mm256_add_ps(
                _mm256_mul_ps(b2, _mm256_loadu_ps(v.as_ptr().add(i))),
                _mm256_mul_ps(_mm256_mul_ps(omb2, gv), gv),
            );
            _mm256_storeu_ps(m.as_mut_ptr().add(i), mv);
            _mm256_storeu_ps(v.as_mut_ptr().add(i), vv);
            let m_hat = _mm256_div_ps(mv, bc1);
            let v_hat = _mm256_div_ps(vv, bc2);
            let den = _mm256_add_ps(_mm256_sqrt_ps(v_hat), eps);
            let upd = _mm256_div_ps(_mm256_mul_ps(lr, m_hat), den);
            let wv = _mm256_sub_ps(_mm256_loadu_ps(w.as_ptr().add(i)), upd);
            _mm256_storeu_ps(w.as_mut_ptr().add(i), wv);
            i += 8;
        }
        n
    }

    /// Segment-softmax exp pass over one contiguous row block:
    /// `out[j] = exp_det(x[i0+j] - seg_max[segs[i0+j]])`, 8 rows per
    /// iteration (segment maxes gathered scalar — the op is gather-bound
    /// there; the exp is the vector win).
    ///
    /// # Safety
    /// Requires AVX2; `i0 + out.len() <= x.len() == segs.len()` and every
    /// `segs` value indexes `seg_max`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn softmax_exp_block_avx2(
        out: &mut [f32],
        i0: usize,
        x: &[f32],
        segs: &[usize],
        seg_max: &[f32],
    ) {
        let len = out.len();
        let mut j = 0;
        while j + 8 <= len {
            let mut mbuf = [0.0f32; 8];
            for (l, mb) in mbuf.iter_mut().enumerate() {
                *mb = seg_max[segs[i0 + j + l]];
            }
            let xv = _mm256_loadu_ps(x.as_ptr().add(i0 + j));
            let e = exp8(_mm256_sub_ps(xv, _mm256_loadu_ps(mbuf.as_ptr())));
            _mm256_storeu_ps(out.as_mut_ptr().add(j), e);
            j += 8;
        }
        for jj in j..len {
            out[jj] = super::exp_det(x[i0 + jj] - seg_max[segs[i0 + jj]]);
        }
    }

    /// Segment-softmax normalize pass over one contiguous row block:
    /// `out[j] /= seg_sum[segs[i0+j]]` (IEEE division — bit-identical to
    /// the scalar loop).
    ///
    /// # Safety
    /// Requires AVX2; `i0 + out.len() <= segs.len()` and every `segs`
    /// value indexes `seg_sum`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn softmax_div_block_avx2(
        out: &mut [f32],
        i0: usize,
        segs: &[usize],
        seg_sum: &[f32],
    ) {
        let len = out.len();
        let mut j = 0;
        while j + 8 <= len {
            let mut sbuf = [0.0f32; 8];
            for (l, sb) in sbuf.iter_mut().enumerate() {
                *sb = seg_sum[segs[i0 + j + l]];
            }
            let e = _mm256_loadu_ps(out.as_ptr().add(j));
            let q = _mm256_div_ps(e, _mm256_loadu_ps(sbuf.as_ptr()));
            _mm256_storeu_ps(out.as_mut_ptr().add(j), q);
            j += 8;
        }
        for jj in j..len {
            out[jj] /= seg_sum[segs[i0 + jj]];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_det_tracks_libm_exp() {
        // ~2 ulp accuracy target across the softmax-relevant range.
        let mut worst = 0.0f32;
        let mut x = -87.0f32;
        while x <= 20.0 {
            let got = exp_det(x);
            let want = x.exp();
            let rel = ((got - want) / want).abs();
            worst = worst.max(rel);
            x += 0.00137;
        }
        assert!(worst < 1e-6, "worst relative error {worst}");
    }

    #[test]
    fn exp_det_edge_semantics() {
        assert_eq!(exp_det(0.0).to_bits(), 1.0f32.to_bits());
        assert_eq!(exp_det(-0.0).to_bits(), 1.0f32.to_bits());
        // NaN / -inf clamp to EXP_LO deterministically (documented).
        assert_eq!(exp_det(f32::NAN).to_bits(), exp_det(EXP_LO).to_bits());
        assert_eq!(
            exp_det(f32::NEG_INFINITY).to_bits(),
            exp_det(EXP_LO).to_bits()
        );
        assert_eq!(exp_det(1e30).to_bits(), exp_det(EXP_HI).to_bits());
        assert!(exp_det(EXP_HI).is_finite());
        assert!(exp_det(EXP_LO) > 0.0);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn exp8_lanes_match_scalar_on_adversarial_bits() {
        if !cpu().avx2 {
            return; // no AVX2: nothing to compare
        }
        use std::arch::x86_64::*;
        let specials = [
            0.0f32,
            -0.0,
            1.0,
            -1.0,
            f32::NAN,
            f32::from_bits(0x7fc0_1234), // NaN payload
            f32::from_bits(0xffc0_0001), // negative NaN payload
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE,
            f32::from_bits(1),      // smallest denormal
            f32::from_bits(0x1234), // denormal payload
            -1e38,
            1e38,
            -87.0,
            -86.999,
            88.0,
            87.999,
            0.5,
            -0.5,
            std::f32::consts::LN_2 / 2.0,
        ];
        let mut inputs: Vec<f32> = specials.into_iter().collect();
        // Dense sweep of ordinary magnitudes plus a stride through bit space.
        let mut x = -90.0f32;
        while x < 90.0 {
            inputs.push(x);
            x += 0.01303;
        }
        let mut bits = 0x0010_0000u32;
        while bits < 0xff80_0000 {
            inputs.push(f32::from_bits(bits));
            bits = bits.wrapping_add(0x0139_7d51);
        }
        while !inputs.len().is_multiple_of(8) {
            inputs.push(0.0);
        }
        for chunk in inputs.chunks(8) {
            let got: [f32; 8] = unsafe {
                let v = exp8(_mm256_loadu_ps(chunk.as_ptr()));
                std::mem::transmute(v)
            };
            for (l, (&xin, g)) in chunk.iter().zip(got).enumerate() {
                let want = exp_det(xin);
                assert_eq!(
                    want.to_bits(),
                    g.to_bits(),
                    "lane {l}: exp_det({xin:?} = {:#010x}) scalar {want:?} simd {g:?}",
                    xin.to_bits()
                );
            }
        }
    }

    #[test]
    fn guard_forces_scalar_and_restores() {
        let before = tier();
        assert_eq!(active(), before != Tier::Scalar);
        {
            let _c = SimdGuard::cap_avx2();
            assert_eq!(tier(), before.min(Tier::Avx2));
            {
                let _g = SimdGuard::force_scalar();
                assert_eq!(tier(), Tier::Scalar);
                assert!(!active());
                {
                    let _g2 = SimdGuard::force_scalar();
                    assert!(!active());
                }
                assert!(!active());
            }
            assert_eq!(tier(), before.min(Tier::Avx2));
        }
        assert_eq!(tier(), before);
        assert_eq!(status().tier, before.name());
    }
}
