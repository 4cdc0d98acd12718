//! Raw-bit equivalence of the fused `Graph::edge_attention` op with the
//! per-head chain of public ops it replaced.
//!
//! The oracle below is that chain, verbatim: `gather_rows` the destination
//! queries to one row per edge, then per head `slice_cols` the key and
//! query blocks, `gather_rows` the head's `W_e` rows, `matmul`, `row_dot`,
//! `leaky_relu(0.2)`, `segment_softmax`, `mul_col_broadcast`,
//! `segment_sum`, `relu`, and finally `concat_cols` over heads. Both
//! versions run on the same inputs; the forward value and the gradient of
//! every input must agree bit for bit — including the sign of zero, which
//! the chain's per-head gradient merges normalize — at 1 and 4 threads,
//! under auto dispatch, with the matmul tier capped at AVX2 and on the
//! scalar tier.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use siterec_tensor::parallel::ThreadGuard;
use siterec_tensor::simd::SimdGuard;
use siterec_tensor::{Graph, Index, Tensor, Var};
use std::sync::{Arc, Mutex};

// The kernel thread count is process-global; tests that flip it must not
// interleave with each other.
static GLOBAL_KNOB: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GLOBAL_KNOB.lock().unwrap_or_else(|e| e.into_inner())
}

/// Mostly `[-2, 2)`, with exact `+0.0` and `-0.0` mixed in so the ReLU and
/// LeakyReLU kinks and signed-zero gradients are exercised.
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

/// The query gather and per-head composition the fused op replaced.
fn composed(g: &mut Graph, k_all: Var, q: Var, w_e: Var, dsts: &Arc<Index>, heads: usize) -> Var {
    let head_dim = g.value(k_all).cols() / heads;
    let q_all = g.gather_rows(q, dsts);
    let mut head_outs = Vec::with_capacity(heads);
    for i in 0..heads {
        let k_i = g.slice_cols(k_all, i * head_dim, head_dim);
        let q_i = g.slice_cols(q_all, i * head_dim, head_dim);
        let we_rows = Index::new(
            (i * head_dim..(i + 1) * head_dim).collect(),
            heads * head_dim,
        );
        let w_e_i = g.gather_rows(w_e, &we_rows);
        let kw = g.matmul(k_i, w_e_i);
        let raw = g.row_dot(kw, q_i);
        let score = g.leaky_relu(raw, 0.2);
        let alpha = g.segment_softmax(score, dsts);
        let weighted = g.mul_col_broadcast(k_i, alpha);
        let agg = g.segment_sum(weighted, dsts);
        head_outs.push(g.relu(agg));
    }
    g.concat_cols(&head_outs)
}

struct Case {
    e: usize,
    heads: usize,
    head_dim: usize,
    n_dst: usize,
    /// Destination of every edge.
    dsts: Vec<usize>,
    seed: u64,
}

/// Random edge list over `n_dst` destinations, leaving roughly one in
/// `empty_every` destinations with no in-edges.
fn random_case(
    seed: u64,
    e: usize,
    heads: usize,
    head_dim: usize,
    n_dst: usize,
    empty_every: usize,
) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let live: Vec<usize> = (0..n_dst).filter(|t| t % empty_every != 1).collect();
    let dsts = (0..e).map(|_| live[rng.gen_range(0..live.len())]).collect();
    Case {
        e,
        heads,
        head_dim,
        n_dst,
        dsts,
        seed,
    }
}

/// Forward value plus the gradients of K, Q and W_e under a loss that
/// weights every output element differently. With `reused`, K and Q also
/// feed a later op, so their gradient slots already hold a contribution
/// when the attention's arrives.
fn run(c: &Case, fused: bool, reused: bool) -> Vec<Vec<u32>> {
    let d = c.heads * c.head_dim;
    let mut rng = StdRng::seed_from_u64(c.seed ^ 0xA77E);
    let k0 = fill(&mut rng, c.e, d);
    let q0 = fill(&mut rng, c.n_dst, d);
    let w0 = fill(&mut rng, d, c.head_dim);
    let r_out = fill(&mut rng, c.n_dst, d);
    let r_k = fill(&mut rng, c.e, d);
    let r_q = fill(&mut rng, c.n_dst, d);

    let mut g = Graph::new();
    let k = g.param(k0);
    let q = g.param(q0);
    let w = g.param(w0);
    let dsts = Index::new(c.dsts.clone(), c.n_dst);
    let out = if fused {
        g.edge_attention(k, q, w, &dsts, c.heads)
    } else {
        composed(&mut g, k, q, w, &dsts, c.heads)
    };
    let r = g.constant(r_out);
    let weighted = g.mul(out, r);
    let mut loss = g.sum_all(weighted);
    if reused {
        for (v, r) in [(k, r_k), (q, r_q)] {
            let r = g.constant(r);
            let vr = g.mul(v, r);
            let extra = g.sum_all(vr);
            loss = g.add(loss, extra);
        }
    }
    let mut res = vec![bits(g.value(out))];
    g.backward(loss);
    for v in [k, q, w] {
        res.push(bits(g.grad(v).expect("every input receives a gradient")));
    }
    res
}

fn assert_equivalent(label: &str, c: &Case) {
    let _l = lock();
    // Auto dispatch (AVX-512 where detected), capped at AVX2, and scalar.
    for tier in ["auto", "avx2 cap", "scalar"] {
        let _c = (tier == "avx2 cap").then(SimdGuard::cap_avx2);
        let _s = (tier == "scalar").then(SimdGuard::force_scalar);
        equivalent_at_threads(&format!("{label} ({tier})"), c);
    }
}

fn equivalent_at_threads(label: &str, c: &Case) {
    for threads in [1, 4] {
        let _g = ThreadGuard::set(threads);
        for reused in [false, true] {
            let want = run(c, false, reused);
            let got = run(c, true, reused);
            for (what, (w, g)) in ["value", "dK", "dQ", "dW_e"]
                .iter()
                .zip(want.iter().zip(&got))
            {
                assert_eq!(w.len(), g.len(), "{label}: {what} length");
                if let Some(i) = (0..w.len()).find(|&i| w[i] != g[i]) {
                    panic!(
                        "{label} ({threads} thread(s), reused {reused}): {what} differs at \
                         {i}: composed {:?} vs fused {:?}",
                        f32::from_bits(w[i]),
                        f32::from_bits(g[i])
                    );
                }
            }
        }
    }
}

#[test]
fn tiny_graph_matches_the_per_head_chain() {
    assert_equivalent("tiny", &random_case(1, 9, 2, 4, 4, 3));
}

#[test]
fn single_head_matches_the_per_head_chain() {
    assert_equivalent("heads=1", &random_case(2, 40, 1, 6, 7, 4));
    assert_equivalent("heads=1 wide", &random_case(3, 600, 1, 16, 50, 5));
}

#[test]
fn empty_and_single_edge_segments_match() {
    // Destination 0 has one in-edge, 1 and 3 none, 2 three, 4 two.
    let c = Case {
        e: 6,
        heads: 3,
        head_dim: 2,
        n_dst: 5,
        dsts: vec![2, 0, 4, 2, 4, 2],
        seed: 4,
    };
    assert_equivalent("sparse", &c);
    // A single edge in the whole relation.
    let one = Case {
        e: 1,
        heads: 2,
        head_dim: 3,
        n_dst: 3,
        dsts: vec![1],
        seed: 5,
    };
    assert_equivalent("one edge", &one);
}

#[test]
fn tiny_recipe_shape_matches() {
    // The tiny training recipe: d2 = 16 over 2 heads.
    assert_equivalent("tiny recipe", &random_case(6, 700, 2, 8, 90, 6));
}

#[test]
fn table3_shaped_graph_matches_the_per_head_chain() {
    // Table III: d2 = 60 over 5 heads, thousands of edges — past the tiled
    // matmul threshold in both the forward and the weight gradient.
    assert_equivalent("table3", &random_case(7, 7465, 5, 12, 1759, 9));
}

#[test]
fn lane_tails_match() {
    // Edge counts around the 8- and 16-lane score and dα vectors: whole
    // vectors, scalar tails, and a tail that crosses a head boundary.
    for (n, e) in [1usize, 15, 16, 17, 33].into_iter().enumerate() {
        let c = random_case(10 + n as u64, e, 3, 4, 5, 3);
        assert_equivalent(&format!("E={e}"), &c);
    }
}

#[test]
fn head_widths_match() {
    for (n, hd) in [8usize, 12, 16].into_iter().enumerate() {
        let c = random_case(20 + n as u64, 300, 3, hd, 40, 4);
        assert_equivalent(&format!("head_dim={hd}"), &c);
    }
}

#[test]
fn destinations_without_in_edges_match() {
    // Every other destination has no in-edges, including the first and
    // the last, so the query gradient keeps zero rows at both ends.
    let c = Case {
        e: 40,
        heads: 2,
        head_dim: 8,
        n_dst: 9,
        dsts: (0..40).map(|i| 1 + 2 * (i * 7 % 4)).collect(),
        seed: 30,
    };
    assert_equivalent("empty destinations", &c);
}
