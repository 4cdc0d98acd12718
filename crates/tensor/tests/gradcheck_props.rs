//! Property-based finite-difference verification of every autodiff op.

use proptest::prelude::*;
use siterec_tensor::{check_input_grad, Graph, Index, Tensor, Var};

/// Strategy: small tensor with bounded values, away from ReLU kinks.
fn small_tensor(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    prop::collection::vec(-2.0f32..2.0, rows * cols).prop_map(move |mut v| {
        // Nudge values off exact zeros so ReLU/L1 kinks don't break the
        // finite-difference comparison.
        for x in &mut v {
            if x.abs() < 0.05 {
                *x += 0.1;
            }
        }
        Tensor::from_vec(rows, cols, v)
    })
}

fn assert_grad_ok(input: &Tensor, build: impl Fn(&mut Graph, Var) -> Var) {
    let res = check_input_grad(input, 1e-2, build);
    prop_assert_ok(res.passes(0.05), &res);
}

fn prop_assert_ok(ok: bool, res: &siterec_tensor::GradCheck) {
    assert!(
        ok,
        "gradient mismatch: abs {} rel {}",
        res.max_abs_diff, res.max_rel_diff
    );
}

/// A fixed, sign-mixed constant for the edge-attention checks.
fn attn_fixed(g: &mut Graph, rows: usize, cols: usize, scale: f32) -> Var {
    let v = (0..rows * cols)
        .map(|i| scale * ((i * 7 % 11) as f32) - 0.5)
        .collect();
    g.constant(Tensor::from_vec(rows, cols, v))
}

/// Two heads of width 2 over five edges into three destinations (one with
/// no in-edges), each output element weighted differently.
fn edge_attention_loss(g: &mut Graph, k: Var, q: Var, w_e: Var) -> Var {
    let out = g.edge_attention(k, q, w_e, &Index::new(vec![0, 2, 0, 2, 2], 3), 2);
    let c = attn_fixed(g, 3, 4, 0.2);
    let weighted = g.mul(out, c);
    g.sum_all(weighted)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn grad_add_mul_chain(t in small_tensor(3, 2)) {
        assert_grad_ok(&t, |g, x| {
            let y = g.mul(x, x);
            let z = g.add(x, y);
            g.mean_all(z)
        });
    }

    #[test]
    fn grad_matmul(t in small_tensor(3, 4)) {
        assert_grad_ok(&t, |g, x| {
            let w = g.constant(Tensor::from_vec(4, 2, (0..8).map(|i| 0.3 * i as f32 - 1.0).collect()));
            let y = g.matmul(x, w);
            g.sum_all(y)
        });
    }

    #[test]
    fn grad_matmul_rhs(t in small_tensor(4, 2)) {
        assert_grad_ok(&t, |g, x| {
            let a = g.constant(Tensor::from_vec(3, 4, (0..12).map(|i| 0.1 * i as f32).collect()));
            let y = g.matmul(a, x);
            g.mean_all(y)
        });
    }

    #[test]
    fn grad_sigmoid_tanh(t in small_tensor(2, 3)) {
        assert_grad_ok(&t, |g, x| {
            let s = g.sigmoid(x);
            let h = g.tanh(s);
            g.mean_all(h)
        });
    }

    #[test]
    fn grad_relu_leaky(t in small_tensor(2, 3)) {
        assert_grad_ok(&t, |g, x| {
            let r = g.relu(x);
            let l = g.leaky_relu(r, 0.2);
            g.sum_all(l)
        });
    }

    #[test]
    fn grad_concat_slice(t in small_tensor(2, 3)) {
        assert_grad_ok(&t, |g, x| {
            let c = g.concat_cols(&[x, x]);
            let s = g.slice_cols(c, 2, 3);
            let sq = g.mul(s, s);
            g.sum_all(sq)
        });
    }

    #[test]
    fn grad_gather_rows(t in small_tensor(4, 2)) {
        assert_grad_ok(&t, |g, x| {
            let y = g.gather_rows(x, &Index::new(vec![3, 1, 1, 0], 4));
            let sq = g.mul(y, y);
            g.mean_all(sq)
        });
    }

    #[test]
    fn grad_segment_sum(t in small_tensor(5, 2)) {
        assert_grad_ok(&t, |g, x| {
            let s = g.segment_sum(x, &Index::new(vec![0, 1, 0, 2, 1], 3));
            let sq = g.mul(s, s);
            g.sum_all(sq)
        });
    }

    #[test]
    fn grad_segment_softmax(t in small_tensor(5, 1)) {
        assert_grad_ok(&t, |g, x| {
            let sm = g.segment_softmax(x, &Index::new(vec![0, 0, 1, 1, 1], 2));
            let w = g.constant(Tensor::from_vec(5, 1, vec![1.0, 2.0, -1.0, 0.5, 3.0]));
            let weighted = g.mul(sm, w);
            g.sum_all(weighted)
        });
    }

    #[test]
    fn grad_softmax_rows(t in small_tensor(2, 4)) {
        assert_grad_ok(&t, |g, x| {
            let sm = g.softmax_rows(x);
            let w = g.constant(Tensor::from_vec(2, 4, (0..8).map(|i| i as f32 * 0.5 - 2.0).collect()));
            let weighted = g.mul(sm, w);
            g.sum_all(weighted)
        });
    }

    #[test]
    fn grad_mul_col_broadcast(t in small_tensor(3, 1)) {
        assert_grad_ok(&t, |g, x| {
            let a = g.constant(Tensor::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]));
            let y = g.mul_col_broadcast(a, x);
            g.sum_all(y)
        });
    }

    #[test]
    fn grad_mul_col_broadcast_features(t in small_tensor(3, 2)) {
        assert_grad_ok(&t, |g, x| {
            let w = g.constant(Tensor::from_vec(3, 1, vec![0.5, -1.0, 2.0]));
            let y = g.mul_col_broadcast(x, w);
            let sq = g.mul(y, y);
            g.mean_all(sq)
        });
    }

    #[test]
    fn grad_add_row_broadcast_bias(t in small_tensor(1, 3)) {
        assert_grad_ok(&t, |g, x| {
            let a = g.constant(Tensor::from_vec(4, 3, (0..12).map(|i| i as f32 * 0.2).collect()));
            let y = g.add_row_broadcast(a, x);
            let s = g.sigmoid(y);
            g.mean_all(s)
        });
    }

    #[test]
    fn grad_row_dot(t in small_tensor(3, 2)) {
        assert_grad_ok(&t, |g, x| {
            let b = g.constant(Tensor::from_vec(3, 2, vec![1., -1., 0.5, 2., -0.3, 0.7]));
            let d = g.row_dot(x, b);
            let sq = g.mul(d, d);
            g.sum_all(sq)
        });
    }

    #[test]
    fn grad_row_dot_self(t in small_tensor(2, 3)) {
        assert_grad_ok(&t, |g, x| {
            let d = g.row_dot(x, x);
            g.mean_all(d)
        });
    }

    #[test]
    fn grad_losses(t in small_tensor(2, 2)) {
        let mse_target = Tensor::from_vec(2, 2, vec![0.3, -0.5, 1.0, 0.0]);
        assert_grad_ok(&t, |g, x| g.mse_loss(x, &mse_target));
        // Keep the L1 targets outside the sample range so the central
        // difference never straddles the |x - t| kink.
        let l1_target = Tensor::from_vec(2, 2, vec![3.5, 4.0, -3.5, 5.0]);
        assert_grad_ok(&t, |g, x| g.l1_loss(x, &l1_target));
    }

    #[test]
    fn grad_scale_rows_const(t in small_tensor(3, 2)) {
        assert_grad_ok(&t, |g, x| {
            let y = g.scale_rows_const(x, &[0.5, 2.0, -1.0]);
            g.sum_all(y)
        });
    }

    #[test]
    fn grad_transpose_sumrows(t in small_tensor(3, 2)) {
        assert_grad_ok(&t, |g, x| {
            let tr = g.transpose(x);
            let sr = g.sum_rows(tr);
            let sq = g.mul(sr, sr);
            g.sum_all(sq)
        });
    }

    #[test]
    fn grad_edge_attention_keys(t in small_tensor(5, 4)) {
        assert_grad_ok(&t, |g, x| {
            let (q, w) = (attn_fixed(g, 3, 4, 0.1), attn_fixed(g, 4, 2, 0.15));
            edge_attention_loss(g, x, q, w)
        });
    }

    #[test]
    fn grad_edge_attention_queries(t in small_tensor(3, 4)) {
        assert_grad_ok(&t, |g, x| {
            let (k, w) = (attn_fixed(g, 5, 4, 0.1), attn_fixed(g, 4, 2, 0.15));
            edge_attention_loss(g, k, x, w)
        });
    }

    #[test]
    fn grad_edge_attention_bilinear(t in small_tensor(4, 2)) {
        assert_grad_ok(&t, |g, x| {
            // Positive keys keep every aggregate off the output ReLU's kink.
            // With sign-mixed keys, a destination whose in-edges score
            // nearly alike (they share its query) sits on that kink, and a
            // finite difference across it measures nothing.
            let k = attn_fixed(g, 5, 4, 0.1);
            let k = g.add_scalar(k, 1.0);
            let q = attn_fixed(g, 3, 4, -0.12);
            edge_attention_loss(g, k, q, x)
        });
    }

    #[test]
    fn grad_attention_composite(t in small_tensor(4, 3)) {
        // A miniature one-head graph-attention block: scores via row_dot,
        // per-target softmax, weighted segment-sum of values.
        assert_grad_ok(&t, |g, x| {
            let wq = g.constant(Tensor::from_vec(3, 3, (0..9).map(|i| 0.2 * (i as f32) - 0.8).collect()));
            let edges_src = Index::new(vec![0, 1, 2, 3], 4);
            let edges_dst = Index::new(vec![0, 0, 1, 1], 4);
            let targets = Index::new(vec![0, 0, 1, 1], 2);
            let q = g.matmul(x, wq);
            let k = g.gather_rows(x, &edges_src);
            let qe = g.gather_rows(q, &edges_dst);
            let scores = g.row_dot(k, qe);
            let alpha = g.segment_softmax(scores, &targets);
            let weighted = g.mul_col_broadcast(k, alpha);
            let agg = g.segment_sum(weighted, &targets);
            let sq = g.mul(agg, agg);
            g.mean_all(sq)
        });
    }
}
