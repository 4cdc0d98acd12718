//! Single-core kernel performance: naive vs cache-blocked matmul,
//! scalar-vs-SIMD A/B runs of the three vectorized kernels, and
//! malloc-per-epoch vs arena-pooled training tapes (not a paper artifact).
//!
//! Results go to stdout and to `BENCH_kernels.json` at the repo root. The
//! artifact records the host's SIMD dispatch state (`simd` object) and a
//! `gate` object with *two-level* semantics:
//!
//! - `floor_passed`: the tiled kernel did not lose to the naive loop at
//!   ≥256³ (the hard regression floor, meaningful on any host);
//! - `target_met`: the tiled kernel hit the 2.0× target at ≥256³;
//! - `target_expected`: a vector matmul tier (AVX2 or AVX-512) was
//!   active, so the target
//!   *should* be met — on such a host `passed` additionally requires
//!   `target_met` and scalar-vs-SIMD speedup > 1.0 for segment-softmax
//!   and the fused Adam step. On a scalar-fallback host only the floor
//!   is binding, and the artifact says which case it measured.
//!
//! In smoke mode the shapes are too small for any of this to mean
//! anything, so the gate is *skipped* and the artifact says so honestly
//! rather than reporting a pass it did not earn.
//!
//! With `SITEREC_KERNEL_GATE=1` the process exits non-zero when the gate
//! runs and fails — `ci.sh` uses this as the perf-regression smoke.
//!
//! Run with: `cargo bench -p siterec-bench --bench perf_kernels`
//! (`SITEREC_SMOKE=1` shrinks the workloads to CI scale;
//! `SITEREC_NO_SIMD=1` forces the scalar fallbacks everywhere.)

use siterec_bench::context::{is_smoke, write_artifact};
use siterec_tensor::kernels::{matmul_naive_into, matmul_tiled_into};
use siterec_tensor::optim::{Adam, Optimizer};
use siterec_tensor::simd::{self, SimdGuard};
use siterec_tensor::{Graph, Index, Init, ParamStore, TapeArena, Tensor};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Median wall-clock seconds of `reps` runs of `f`.
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Deterministic pseudo-random fill in [-1, 1] (no RNG dependency).
fn lcg_fill(buf: &mut [f32], mut state: u64) {
    for x in buf.iter_mut() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *x = ((state >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0;
    }
}

struct MatmulRow {
    shape: (usize, usize, usize),
    naive_secs: f64,
    tiled_secs: f64,
    bit_identical: bool,
}

fn bench_matmul_shapes(reps: usize, shapes: &[(usize, usize, usize)]) -> Vec<MatmulRow> {
    shapes
        .iter()
        .map(|&(n, k, m)| {
            let mut a = vec![0.0f32; n * k];
            let mut b = vec![0.0f32; k * m];
            lcg_fill(&mut a, 0x5173 ^ ((n as u64) << 32) ^ (k as u64));
            lcg_fill(&mut b, 0x7265 ^ ((m as u64) << 16) ^ (k as u64));
            let mut out_naive = vec![0.0f32; n * m];
            let mut out_tiled = vec![0.0f32; n * m];
            let naive_secs = time_median(reps, || {
                matmul_naive_into(&a, &b, &mut out_naive, n, k, m);
                black_box(out_naive[0]);
            });
            let tiled_secs = time_median(reps, || {
                matmul_tiled_into(&a, &b, &mut out_tiled, n, k, m);
                black_box(out_tiled[0]);
            });
            let bit_identical = out_naive
                .iter()
                .zip(&out_tiled)
                .all(|(x, y)| x.to_bits() == y.to_bits());
            MatmulRow {
                shape: (n, k, m),
                naive_secs,
                tiled_secs,
                bit_identical,
            }
        })
        .collect()
}

/// Scalar-vs-SIMD A/B measurement of one vectorized kernel: the same
/// workload timed with the SIMD paths forced off (via [`SimdGuard`]) and
/// with auto dispatch, plus a raw-bit comparison of the two outputs. On a
/// host where SIMD never activates both legs take the scalar path and the
/// speedup is ~1.0 by construction.
struct AbRow {
    name: &'static str,
    scalar_secs: f64,
    simd_secs: f64,
    bit_identical: bool,
}

impl AbRow {
    fn speedup(&self) -> f64 {
        self.scalar_secs / self.simd_secs
    }
}

/// Segment-softmax forward through the graph op (the production call
/// path): one scores column, CSR-style segment ids, full
/// max→exp→sum→divide pipeline per repetition.
fn bench_softmax_ab(reps: usize, n_edges: usize, n_seg: usize) -> AbRow {
    let seg = Index::new((0..n_edges).map(|i| (i * 131) % n_seg).collect(), n_seg);
    let mut scores = Tensor::zeros(n_edges, 1);
    lcg_fill(scores.data_mut(), 0xA77E);
    let forward = || -> Vec<u32> {
        let mut g = Graph::new();
        let s = g.param(scores.clone());
        let att = g.segment_softmax(s, &seg);
        g.value(att).data().iter().map(|v| v.to_bits()).collect()
    };
    let scalar_bits = {
        let _s = SimdGuard::force_scalar();
        forward()
    };
    let simd_bits = forward();
    let scalar_secs = time_median(reps, || {
        let _s = SimdGuard::force_scalar();
        black_box(forward());
    });
    let simd_secs = time_median(reps, || {
        black_box(forward());
    });
    AbRow {
        name: "segment_softmax",
        scalar_secs,
        simd_secs,
        bit_identical: scalar_bits == simd_bits,
    }
}

/// Fused Adam step over one large parameter. Bit equality is checked on a
/// separate deterministic 3-step run per leg (the timing loop drifts the
/// optimizer state, which is fine for cost but not for comparison).
fn bench_adam_ab(reps: usize, rows_n: usize, cols_n: usize) -> AbRow {
    let mut grad = Tensor::zeros(rows_n, cols_n);
    lcg_fill(grad.data_mut(), 0xADA8);
    let steps_bits = |force_scalar: bool| -> Vec<u32> {
        let _s = force_scalar.then(SimdGuard::force_scalar);
        let mut ps = ParamStore::new(7);
        let w = ps.add("w", rows_n, cols_n, Init::XavierUniform);
        ps.get_mut(w).grad = grad.clone();
        let mut opt = Adam::new(1e-3);
        for _ in 0..3 {
            opt.step(&mut ps);
        }
        ps.get(w).value.data().iter().map(|v| v.to_bits()).collect()
    };
    let bit_identical = steps_bits(true) == steps_bits(false);
    let time_leg = |force_scalar: bool| -> f64 {
        let _s = force_scalar.then(SimdGuard::force_scalar);
        let mut ps = ParamStore::new(7);
        let w = ps.add("w", rows_n, cols_n, Init::XavierUniform);
        ps.get_mut(w).grad = grad.clone();
        let mut opt = Adam::new(1e-3);
        time_median(reps, || {
            opt.step(&mut ps);
            black_box(ps.get(w).value.data()[0]);
        })
    };
    let scalar_secs = time_leg(true);
    let simd_secs = time_leg(false);
    AbRow {
        name: "adam_step",
        scalar_secs,
        simd_secs,
        bit_identical,
    }
}

/// One attention-flavoured training epoch (gather → row_dot →
/// segment_softmax → weighted segment_sum → matmul head → Adam step):
/// exercises every pooled allocation class a real epoch uses.
#[allow(clippy::too_many_arguments)]
fn train_epoch(
    g: &mut Graph,
    ps: &mut ParamStore,
    opt: &mut Adam,
    emb_id: siterec_tensor::ParamId,
    head_id: siterec_tensor::ParamId,
    src: &Arc<Index>,
    dst: &Arc<Index>,
    target: &Tensor,
) {
    let binds = ps.bind(g);
    let emb = binds.var(emb_id);
    let hs = g.gather_rows(emb, src);
    let ht = g.gather_rows(emb, dst);
    let s = g.row_dot(hs, ht);
    let alpha = g.segment_softmax(s, dst);
    let wv = g.mul_col_broadcast(hs, alpha);
    let agg = g.segment_sum(wv, dst);
    let h = g.matmul(agg, binds.var(head_id));
    let act = g.tanh(h);
    let loss = g.mse_loss(act, target);
    g.backward(loss);
    ps.zero_grads();
    ps.harvest(g, &binds);
    opt.step(ps);
}

struct ArenaRun {
    pooled_secs: f64,
    malloc_secs: f64,
    /// Pool misses during the first (warm-up) epoch vs all later epochs —
    /// the later number should be ~0.
    warm_misses: u64,
    steady_misses: u64,
    bit_identical: bool,
}

fn bench_arena(epochs: usize, n_nodes: usize, n_edges: usize, dim: usize) -> ArenaRun {
    let src = Index::new((0..n_edges).map(|i| (i * 31) % n_nodes).collect(), n_nodes);
    let dst = Index::new((0..n_edges).map(|i| (i * 7) % n_nodes).collect(), n_nodes);
    let target = Tensor::zeros(n_nodes, dim);

    let run = |arena: Option<TapeArena>| {
        let mut ps = ParamStore::new(9);
        let emb_id = ps.add("emb", n_nodes, dim, Init::XavierUniform);
        let head_id = ps.add("head", dim, dim, Init::XavierUniform);
        let mut opt = Adam::new(1e-3);
        let mut warm_misses = 0u64;
        let t0 = Instant::now();
        for e in 0..epochs {
            let mut g = match &arena {
                Some(a) => Graph::with_seed_and_arena(e as u64, a.clone()),
                None => Graph::with_seed(e as u64),
            };
            train_epoch(
                &mut g, &mut ps, &mut opt, emb_id, head_id, &src, &dst, &target,
            );
            drop(g);
            if e == 0 {
                if let Some(a) = &arena {
                    warm_misses = a.stats().misses;
                }
            }
        }
        let secs = t0.elapsed().as_secs_f64();
        let total_misses = arena.as_ref().map_or(0, |a| a.stats().misses);
        let bits: Vec<u32> = ps
            .get(emb_id)
            .value
            .data()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        (secs, warm_misses, total_misses, bits)
    };

    // Warm-up + measure, pooled and malloc'd; compare final parameter bits.
    let (_, _, _, _) = run(Some(TapeArena::new()));
    let (pooled_secs, warm_misses, total_misses, pooled_bits) = run(Some(TapeArena::new()));
    let (_, _, _, _) = run(None);
    let (malloc_secs, _, _, malloc_bits) = run(None);
    ArenaRun {
        pooled_secs,
        malloc_secs,
        warm_misses,
        steady_misses: total_misses - warm_misses,
        bit_identical: pooled_bits == malloc_bits,
    }
}

fn main() {
    // Under the obs bracket so `SITEREC_JOURNAL` captures the run — including
    // the `bench_artifact` record `write_artifact` emits. The gate verdict is
    // returned (not exited) so the journal is flushed even on failure.
    let gate_failed = siterec_bench::obs_run::obs_run("perf_kernels", run);
    if gate_failed {
        std::process::exit(1);
    }
}

/// Returns true when the enabled regression gate failed.
fn run() -> bool {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let smoke = is_smoke();
    let gate_env = std::env::var("SITEREC_KERNEL_GATE").is_ok_and(|v| v == "1");
    let simd = simd::status();
    println!("=== single-core kernel speed: tiled matmul, SIMD A/B, tape arena ===");
    println!(
        "host cores available: {cores}, smoke: {smoke}, simd: arch={} avx2={} fma={} \
         avx512={} env_disabled={} active={} tier={}\n",
        simd.arch, simd.avx2, simd.fma, simd.avx512, simd.env_disabled, simd.active, simd.tier
    );

    let shapes: &[(usize, usize, usize)] = if smoke {
        &[(64, 64, 64), (128, 128, 128)]
    } else {
        &[
            (64, 64, 64),
            (128, 128, 128),
            (256, 256, 256),
            (384, 384, 384),
        ]
    };
    let reps = if smoke { 3 } else { 7 };
    let rows = bench_matmul_shapes(reps, shapes);

    println!(
        "{:<16} {:>12} {:>12} {:>9}  bit-identical",
        "matmul shape", "naive", "tiled", "speedup"
    );
    for r in &rows {
        println!(
            "{:<16} {:>10.3}ms {:>10.3}ms {:>8.2}x  {}",
            format!("{}x{}x{}", r.shape.0, r.shape.1, r.shape.2),
            r.naive_secs * 1e3,
            r.tiled_secs * 1e3,
            r.naive_secs / r.tiled_secs,
            r.bit_identical
        );
        assert!(
            r.bit_identical,
            "tiled kernel diverged from naive at {:?}",
            r.shape
        );
    }

    // --- scalar-vs-SIMD A/B: segment-softmax and fused Adam ------------
    let (sm_edges, sm_segs, adam_rows, adam_cols) = if smoke {
        (20_000, 256, 128, 128)
    } else {
        (200_000, 1024, 512, 512)
    };
    let ab_rows = [
        bench_softmax_ab(reps, sm_edges, sm_segs),
        bench_adam_ab(reps, adam_rows, adam_cols),
    ];
    println!(
        "\n{:<16} {:>12} {:>12} {:>9}  bit-identical",
        "scalar vs simd", "scalar", "simd", "speedup"
    );
    for r in &ab_rows {
        println!(
            "{:<16} {:>10.3}ms {:>10.3}ms {:>8.2}x  {}",
            r.name,
            r.scalar_secs * 1e3,
            r.simd_secs * 1e3,
            r.speedup(),
            r.bit_identical
        );
        assert!(
            r.bit_identical,
            "SIMD {} diverged from the scalar fallback",
            r.name
        );
    }
    let softmax_speedup = ab_rows[0].speedup();
    let adam_speedup = ab_rows[1].speedup();

    let (epochs, n_nodes, n_edges, dim) = if smoke {
        (6, 64, 2_000, 24)
    } else {
        (12, 256, 24_000, 48)
    };
    let arena = bench_arena(epochs, n_nodes, n_edges, dim);
    println!(
        "\ntape arena ({epochs} epochs): pooled {:.3}ms, malloc {:.3}ms ({:.2}x), \
         pool misses warm-up {} / steady-state {}, params bit-identical: {}",
        arena.pooled_secs * 1e3,
        arena.malloc_secs * 1e3,
        arena.malloc_secs / arena.pooled_secs,
        arena.warm_misses,
        arena.steady_misses,
        arena.bit_identical
    );
    assert!(
        arena.bit_identical,
        "arena-pooled training diverged from malloc'd training"
    );

    // --- the regression gate -------------------------------------------
    // Self-calibrated: both kernels are timed on this host in this build,
    // so the check is a *relative* one that works on any machine. It only
    // means something on big shapes in a release build, hence the honest
    // skip in smoke mode. Two levels: `floor_passed` (tiled must not lose
    // to naive — binding everywhere) and `target_met` (the 2.0x target —
    // binding only where `target_expected`, i.e. a vector matmul tier was
    // active; a scalar-fallback host cannot be asked to hit a SIMD
    // target). On a SIMD host the gate also requires the softmax and Adam
    // A/B speedups to clear 1.0: vectorization that loses to its own
    // scalar fallback is a regression, not a feature.
    let required_target = 2.0; // met on a real multi-issue core with AVX2
    let regression_floor = 1.0; // hard CI floor: tiled must not lose
    let target_expected = simd.active;
    let gate_row = rows.iter().find(|r| r.shape.0 >= 256);
    let (gate_skipped, measured, note) = match gate_row {
        Some(r) => {
            let sp = r.naive_secs / r.tiled_secs;
            (
                false,
                sp,
                format!(
                    "measured at {}^3 in release; floor {regression_floor}x always binding, \
                     target {required_target}x binding because simd active = {target_expected}",
                    r.shape.0
                ),
            )
        }
        None => (
            true,
            0.0,
            "skipped: smoke-mode shapes (<256^3) are too small for a meaningful \
             kernel comparison"
                .to_string(),
        ),
    };
    let floor_passed = !gate_skipped && measured >= regression_floor;
    let target_met = !gate_skipped && measured >= required_target;
    let simd_ab_ok = softmax_speedup > 1.0 && adam_speedup > 1.0;
    let gate_passed = floor_passed && (!target_expected || (target_met && simd_ab_ok));
    println!(
        "\ngate: skipped={gate_skipped} measured={measured:.2}x floor_passed={floor_passed} \
         target_met={target_met} target_expected={target_expected} \
         softmax_ab={softmax_speedup:.2}x adam_ab={adam_speedup:.2}x passed={gate_passed} \
         ({note})"
    );

    let mut body = String::from("  \"matmul\": [\n");
    for (i, r) in rows.iter().enumerate() {
        body.push_str(&format!(
            "    {{ \"shape\": [{}, {}, {}], \"naive_secs\": {:.6}, \"tiled_secs\": {:.6}, \
             \"speedup\": {:.3}, \"bit_identical\": {} }}{}\n",
            r.shape.0,
            r.shape.1,
            r.shape.2,
            r.naive_secs,
            r.tiled_secs,
            r.naive_secs / r.tiled_secs,
            r.bit_identical,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    body.push_str("  ],\n");
    body.push_str(&format!(
        "  \"simd\": {{ \"arch\": \"{}\", \"avx2\": {}, \"fma\": {}, \"avx512\": {}, \
         \"env_disabled\": {}, \"active\": {}, \"tier\": \"{}\" }},\n",
        simd.arch, simd.avx2, simd.fma, simd.avx512, simd.env_disabled, simd.active, simd.tier
    ));
    for r in &ab_rows {
        body.push_str(&format!(
            "  \"{}\": {{ \"scalar_secs\": {:.6}, \"simd_secs\": {:.6}, \"speedup\": {:.3}, \
             \"bit_identical\": {} }},\n",
            r.name,
            r.scalar_secs,
            r.simd_secs,
            r.speedup(),
            r.bit_identical
        ));
    }
    body.push_str(&format!(
        "  \"arena\": {{ \"epochs\": {}, \"pooled_secs\": {:.6}, \"malloc_secs\": {:.6}, \
         \"speedup\": {:.3}, \"warm_misses\": {}, \"steady_misses\": {}, \
         \"bit_identical\": {} }},\n",
        epochs,
        arena.pooled_secs,
        arena.malloc_secs,
        arena.malloc_secs / arena.pooled_secs,
        arena.warm_misses,
        arena.steady_misses,
        arena.bit_identical
    ));
    body.push_str(&format!(
        "  \"gate\": {{ \"required_speedup\": {required_target:.1}, \
         \"regression_floor\": {regression_floor:.1}, \"measured\": {measured:.3}, \
         \"floor_passed\": {floor_passed}, \"target_met\": {target_met}, \
         \"target_expected\": {target_expected}, \
         \"softmax_speedup\": {softmax_speedup:.3}, \"adam_speedup\": {adam_speedup:.3}, \
         \"passed\": {gate_passed}, \"skipped\": {gate_skipped}, \"note\": \"{note}\" }}"
    ));
    match write_artifact("BENCH_kernels.json", &body) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\ncould not write BENCH_kernels.json: {e}"),
    }

    if gate_env && !gate_skipped && !gate_passed {
        if !floor_passed {
            eprintln!(
                "KERNEL GATE FAILED: tiled matmul ({measured:.2}x) fell below the \
                 {regression_floor:.1}x regression floor against naive"
            );
        } else {
            eprintln!(
                "KERNEL GATE FAILED: SIMD active on this host, so the {required_target:.1}x \
                 matmul target and >1.0x softmax/adam A/B speedups are binding — measured \
                 matmul {measured:.2}x, softmax {softmax_speedup:.2}x, adam {adam_speedup:.2}x"
            );
        }
        return true;
    }
    false
}
