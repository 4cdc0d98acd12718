//! Raw-bit equivalence of the fused `Graph::linear_cat` op with the chain
//! of public ops it replaces.
//!
//! The oracle below is that chain: `gather_rows` per gathered block (in
//! block order), `concat_cols` when there is more than one block, `matmul`,
//! `add_row_broadcast` when there is a bias, and the activation. Both run on
//! the same inputs; the forward value and the gradient of every input must
//! agree bit for bit, including the sign of zero. Every case runs under the
//! scalar tier, the AVX2 cap and auto dispatch, at 1 and 2 kernel threads,
//! on a plain tape and twice on one arena (the second time into the dirty
//! buffers the first released).
//!
//! The cases cover the forward's two paths for a gathered leading block
//! (project the fewer source rows then gather, or gather then multiply),
//! plain blocks only, two blocks gathered from one source (whose gradient
//! contributions must merge in the chain's order), a source whose gradient
//! slot already holds a contribution, constant blocks, every activation,
//! no bias, empty index lists, and shapes on both sides of the naive/tiled
//! dispatch and of the `KC = 256` cache block.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use siterec_tensor::nn::Activation;
use siterec_tensor::parallel::ThreadGuard;
use siterec_tensor::simd::SimdGuard;
use siterec_tensor::{CatBlock, Graph, Index, TapeArena, Tensor, Var};
use std::sync::{Arc, Mutex};

// The kernel thread count and the SIMD cap are process-global; tests that
// flip them must not interleave with each other.
static GLOBAL_KNOB: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GLOBAL_KNOB.lock().unwrap_or_else(|e| e.into_inner())
}

/// Mostly `[-2, 2)`, with exact `+0.0` and `-0.0` mixed in so the ReLU kink,
/// the naive loop's zero skip and signed-zero gradients are exercised.
fn fill(rng: &mut StdRng, rows: usize, cols: usize) -> Tensor {
    let mut t = Tensor::zeros(rows, cols);
    for x in t.data_mut() {
        *x = match rng.gen_range(0..12u32) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-2.0f32..2.0),
        };
    }
    t
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

/// One input block of a case.
#[derive(Clone, Copy)]
enum Spec {
    /// A plain block of this width; `true` if it is a parameter (needs a
    /// gradient), `false` for a constant.
    Plain(usize, bool),
    /// Rows of source `s` (an index into `Case::sources`), through a fresh
    /// random index.
    Gather(usize),
}

struct Case {
    /// Output rows.
    rows: usize,
    /// `(rows, cols)` of each gather source.
    sources: Vec<(usize, usize)>,
    blocks: Vec<Spec>,
    /// Output width.
    m: usize,
    bias: bool,
    act: Activation,
    /// Source 0 also feeds an op recorded after the fused one, so its
    /// gradient slot already holds a contribution when the op's arrives.
    reuse_source: bool,
    seed: u64,
}

impl Case {
    fn new(rows: usize, sources: &[(usize, usize)], blocks: &[Spec], m: usize) -> Case {
        Case {
            rows,
            sources: sources.to_vec(),
            blocks: blocks.to_vec(),
            m,
            bias: true,
            act: Activation::Relu,
            reuse_source: false,
            seed: (rows * 31 + m) as u64,
        }
    }

    fn width(&self) -> usize {
        self.blocks
            .iter()
            .map(|b| match *b {
                Spec::Plain(w, _) => w,
                Spec::Gather(s) => self.sources[s].1,
            })
            .sum()
    }
}

/// The chain `linear_cat` replaces.
fn composed(g: &mut Graph, blocks: &[CatBlock], w: Var, b: Option<Var>, act: Activation) -> Var {
    let parts: Vec<Var> = blocks
        .iter()
        .map(|blk| match *blk {
            CatBlock::Plain(v) => v,
            CatBlock::Gather(v, idx) => g.gather_rows(v, idx),
        })
        .collect();
    let x = if parts.len() == 1 {
        parts[0]
    } else {
        g.concat_cols(&parts)
    };
    let mut y = g.matmul(x, w);
    if let Some(b) = b {
        y = g.add_row_broadcast(y, b);
    }
    act.apply(g, y)
}

/// Forward value, then the gradient of every parameter input: the
/// sources, the parameter blocks, `W` and the bias.
fn run(c: &Case, fused: bool, g: &mut Graph) -> Vec<Vec<u32>> {
    let mut rng = StdRng::seed_from_u64(c.seed);
    let sources: Vec<Var> = c
        .sources
        .iter()
        .map(|&(n, cols)| g.param(fill(&mut rng, n, cols)))
        .collect();
    let mut params = sources.clone();
    let mut indices: Vec<Arc<Index>> = Vec::new();
    let mut vars: Vec<(Var, Option<usize>)> = Vec::new();
    for spec in &c.blocks {
        match *spec {
            Spec::Plain(cols, is_param) => {
                let t = fill(&mut rng, c.rows, cols);
                let v = if is_param {
                    let v = g.param(t);
                    params.push(v);
                    v
                } else {
                    g.constant(t)
                };
                vars.push((v, None));
            }
            Spec::Gather(s) => {
                let n = c.sources[s].0;
                let ids = (0..c.rows).map(|_| rng.gen_range(0..n)).collect();
                indices.push(Index::new(ids, n));
                vars.push((sources[s], Some(indices.len() - 1)));
            }
        }
    }
    let w = g.param(fill(&mut rng, c.width(), c.m));
    params.push(w);
    let b = c.bias.then(|| g.param(fill(&mut rng, 1, c.m)));
    params.extend(b);
    let blocks: Vec<CatBlock> = vars
        .iter()
        .map(|&(v, idx)| match idx {
            Some(i) => CatBlock::Gather(v, &indices[i]),
            None => CatBlock::Plain(v),
        })
        .collect();
    let out = if fused {
        g.linear_cat(&blocks, w, b, c.act)
    } else {
        composed(g, &blocks, w, b, c.act)
    };
    // A loss that weights every output element differently.
    let r = g.constant(fill(&mut rng, c.rows, c.m));
    let weighted = g.mul(out, r);
    let mut loss = g.sum_all(weighted);
    if c.reuse_source {
        let (n, cols) = c.sources[0];
        let rs = g.constant(fill(&mut rng, n, cols));
        let extra = g.mul(sources[0], rs);
        let extra = g.sum_all(extra);
        loss = g.add(loss, extra);
    }
    let mut res = vec![bits(g.value(out))];
    g.backward(loss);
    for v in params {
        res.push(bits(
            g.grad(v).expect("every parameter receives a gradient"),
        ));
    }
    res
}

/// Fused against composed under every tier, thread count and arena mode.
fn assert_equivalent(label: &str, c: &Case) {
    let _l = lock();
    for tier in ["scalar", "avx2-cap", "auto"] {
        let _s = match tier {
            "scalar" => Some(SimdGuard::force_scalar()),
            "avx2-cap" => Some(SimdGuard::cap_avx2()),
            _ => None,
        };
        for threads in [1, 2] {
            let _t = ThreadGuard::set(threads);
            let want = run(c, false, &mut Graph::new());
            let arena = TapeArena::new();
            let mut tapes = vec![("plain", Graph::new())];
            for pass in ["arena", "warm arena"] {
                tapes.push((pass, Graph::with_seed_and_arena(0, arena.clone())));
            }
            for (mode, mut g) in tapes {
                let got = run(c, true, &mut g);
                let at = format!("{label} ({tier}, {threads} thread(s), {mode} tape)");
                compare(&at, &want, &got);
            }
        }
    }
}

fn compare(at: &str, want: &[Vec<u32>], got: &[Vec<u32>]) {
    assert_eq!(want.len(), got.len(), "{at}: gradient count");
    for (slot, (w, g)) in want.iter().zip(got).enumerate() {
        let what = if slot == 0 {
            "value".to_string()
        } else {
            format!("gradient {}", slot - 1)
        };
        assert_eq!(w.len(), g.len(), "{at}: {what} length");
        if let Some(i) = (0..w.len()).find(|&i| w[i] != g[i]) {
            panic!(
                "{at}: {what} differs at {i}: composed {:?} vs fused {:?}",
                f32::from_bits(w[i]),
                f32::from_bits(g[i])
            );
        }
    }
}

#[test]
fn gathered_lead_from_fewer_source_rows_projects_then_gathers() {
    // The S-U shape in miniature: a gathered source, then edge attributes.
    let c = Case::new(
        300,
        &[(20, 16)],
        &[Spec::Gather(0), Spec::Plain(5, false)],
        16,
    );
    assert_equivalent("fewer sources", &c);
    // The Table III width, tiled on both sides of the split.
    let c = Case::new(
        700,
        &[(40, 60)],
        &[Spec::Gather(0), Spec::Plain(42, true)],
        60,
    );
    assert_equivalent("fewer sources, tiled", &c);
    // A lone gathered block (a relation without attributes).
    let c = Case::new(90, &[(7, 12)], &[Spec::Gather(0)], 12);
    assert_equivalent("fewer sources, one block", &c);
}

#[test]
fn gathered_lead_from_more_source_rows_gathers_then_multiplies() {
    let c = Case::new(
        50,
        &[(120, 16)],
        &[Spec::Gather(0), Spec::Plain(3, false)],
        16,
    );
    assert_equivalent("more sources", &c);
    let c = Case::new(
        64,
        &[(64, 24)],
        &[Spec::Gather(0), Spec::Plain(9, true)],
        24,
    );
    assert_equivalent("as many sources", &c);
}

#[test]
fn plain_blocks_only() {
    let c = Case::new(40, &[], &[Spec::Plain(16, true), Spec::Plain(6, false)], 16);
    assert_equivalent("plain", &c);
    let c = Case::new(
        260,
        &[],
        &[Spec::Plain(60, true), Spec::Plain(60, true)],
        60,
    );
    assert_equivalent("plain, tiled", &c);
    let c = Case::new(33, &[], &[Spec::Plain(10, true)], 7);
    assert_equivalent("one plain block", &c);
}

#[test]
fn two_blocks_gathered_from_one_source() {
    // Eq. 6's shape: both ends of an edge from one embedding table.
    let c = Case::new(500, &[(64, 8)], &[Spec::Gather(0), Spec::Gather(0)], 1);
    let c = Case {
        act: Activation::Sigmoid,
        ..c
    };
    assert_equivalent("two gathers", &c);
    let c = Case::new(
        300,
        &[(30, 20), (12, 5)],
        &[
            Spec::Gather(0),
            Spec::Plain(4, true),
            Spec::Gather(1),
            Spec::Gather(0),
        ],
        24,
    );
    assert_equivalent("interleaved gathers", &c);
}

#[test]
fn a_reused_source_merges_in_the_chains_order() {
    let c = Case {
        reuse_source: true,
        ..Case::new(200, &[(15, 12)], &[Spec::Gather(0), Spec::Gather(0)], 12)
    };
    assert_equivalent("reused source", &c);
}

#[test]
fn every_activation_with_and_without_bias() {
    for act in [
        Activation::None,
        Activation::Relu,
        Activation::LeakyRelu,
        Activation::Sigmoid,
        Activation::Tanh,
    ] {
        for bias in [true, false] {
            let c = Case {
                act,
                bias,
                ..Case::new(
                    120,
                    &[(9, 10)],
                    &[Spec::Gather(0), Spec::Plain(4, true)],
                    10,
                )
            };
            assert_equivalent(&format!("{act:?}, bias {bias}"), &c);
        }
    }
}

#[test]
fn empty_index_lists() {
    let c = Case::new(0, &[(6, 8)], &[Spec::Gather(0), Spec::Plain(3, true)], 8);
    assert_equivalent("no edges", &c);
    let c = Case::new(0, &[(6, 8)], &[Spec::Plain(3, true), Spec::Gather(0)], 8);
    assert_equivalent("no edges, gather second", &c);
}

#[test]
fn splits_that_cross_the_cache_block() {
    // One chain over k = 300 crosses KC = 256 inside the first block, and
    // over k = 200 + 100 inside the second.
    let c = Case::new(
        80,
        &[(10, 300)],
        &[Spec::Gather(0), Spec::Plain(20, true)],
        17,
    );
    assert_equivalent("KC in block 1", &c);
    let c = Case::new(
        80,
        &[(10, 200)],
        &[Spec::Gather(0), Spec::Plain(100, true)],
        17,
    );
    assert_equivalent("KC in block 2", &c);
}

#[test]
fn leaky_relu_of_an_underflowing_negative_keeps_its_slope() {
    // A pre-activation of the smallest negative denormal: the LeakyReLU
    // output rounds to -0.0, and its gradient must still take the slope.
    let _l = lock();
    let run = |fused: bool| {
        let mut g = Graph::new();
        let z = g.param(Tensor::full(3, 2, 0.5));
        let w = g.param(Tensor::zeros(2, 3));
        let b = g.param(Tensor::from_vec(1, 3, vec![-f32::from_bits(1), 1.0, -1.0]));
        let idx = Index::new(vec![0, 2, 1, 2], 3);
        let blocks = [CatBlock::Gather(z, &idx)];
        let out = if fused {
            g.linear_cat(&blocks, w, Some(b), Activation::LeakyRelu)
        } else {
            composed(&mut g, &blocks, w, Some(b), Activation::LeakyRelu)
        };
        let mut res = vec![bits(g.value(out))];
        let loss = g.sum_all(out);
        g.backward(loss);
        for v in [z, w, b] {
            res.push(bits(g.grad(v).expect("gradient")));
        }
        res
    };
    let want = run(false);
    assert_eq!(
        want[0][0],
        (-0.0f32).to_bits(),
        "the output underflows to -0.0"
    );
    compare("underflowing LeakyReLU", &want, &run(true));
}
