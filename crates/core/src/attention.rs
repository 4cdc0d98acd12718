//! The node-level aggregation function `Aggre` (paper Eqs. 10–12).
//!
//! For each edge `(src -> dst)` of one relation (edge type):
//!
//! * the source embedding and edge attributes are fused:
//!   `fused = σ(W [z_src, φ])` (Eq. 10's inner term), as one tape op,
//!   [`Graph::linear_cat`], which multiplies each source node by its rows
//!   of `W` once and gathers the products per edge;
//! * per head `i`, key `K^i = W_k^i fused` and query `Q^i = W_q^i h_dst`;
//! * the importance score is the bilinear form `K^i W_e Q^iᵀ` with `W_e`
//!   shared by the edge type (Eq. 11), softmax-normalized over each
//!   destination's neighborhood;
//! * messages are the attention-weighted sums of keys, concatenated over
//!   heads and passed through the activation (Eq. 12).
//!
//! Scores, softmax and aggregation for all heads run as one tape op,
//! [`Graph::edge_attention`].
//!
//! The `w/o NA` ablation replaces all of this with a plain neighborhood mean
//! of source embeddings ([`RelationAttention::forward_mean`]).

use siterec_tensor::nn::{Activation, Linear};
use siterec_tensor::{Bindings, CatBlock, Graph, Index, Init, ParamId, ParamStore, Tensor, Var};
use std::sync::Arc;

/// Multi-head attention parameters of one relation (edge type).
pub struct RelationAttention {
    /// Fusion `W`: `(src_dim + attr_dim) -> d`.
    pub fuse: Linear,
    /// Key projection `W_k` for all heads: `d -> d`.
    pub w_k: Linear,
    /// Query projection `W_q` for all heads: `d -> d`.
    pub w_q: Linear,
    /// Edge-type bilinear `W_e`, stored stacked: `(heads·head_dim) x head_dim`.
    pub w_e: ParamId,
    heads: usize,
    d: usize,
}

impl RelationAttention {
    /// Build attention parameters for a relation whose source embeddings have
    /// dimension `d`, with `attr_dim` edge-attribute dims.
    pub fn new(
        ps: &mut ParamStore,
        name: &str,
        d: usize,
        attr_dim: usize,
        heads: usize,
    ) -> RelationAttention {
        assert_eq!(d % heads, 0, "embedding dim must divide into heads");
        let head_dim = d / heads;
        RelationAttention {
            fuse: Linear::new(ps, &format!("{name}.fuse"), d + attr_dim, d),
            w_k: Linear::new_no_bias(ps, &format!("{name}.wk"), d, d),
            w_q: Linear::new_no_bias(ps, &format!("{name}.wq"), d, d),
            w_e: ps.add(
                &format!("{name}.we"),
                heads * head_dim,
                head_dim,
                Init::XavierUniform,
            ),
            heads,
            d,
        }
    }

    /// Attention-aggregate messages into each destination node.
    ///
    /// * `src_emb`: `srcs.n() x d` source-node embeddings;
    /// * `dst_emb`: `dsts.n() x d` destination-node embeddings;
    /// * `srcs`/`dsts`: the relation's edge list (indices into the above);
    /// * `attrs`: `E x attr_dim` edge attributes, or `None` when the
    ///   relation has none;
    /// * returns `dsts.n() x d`.
    #[allow(clippy::too_many_arguments)]
    pub fn forward(
        &self,
        g: &mut Graph,
        binds: &Bindings,
        src_emb: Var,
        dst_emb: Var,
        srcs: &Arc<Index>,
        dsts: &Arc<Index>,
        attrs: Option<Var>,
    ) -> Var {
        if srcs.is_empty() {
            return g.constant(Tensor::zeros(dsts.n(), self.d));
        }
        let src = CatBlock::Gather(src_emb, srcs);
        let fused = match attrs {
            Some(a) => {
                self.fuse
                    .forward_cat(g, binds, &[src, CatBlock::Plain(a)], Activation::Relu)
            }
            None => self.fuse.forward_cat(g, binds, &[src], Activation::Relu),
        }; // σ(W[z, φ])
        let k_all = self.w_k.forward(g, binds, fused); // E x d
        let q = self.w_q.forward(g, binds, dst_emb); // n_dst x d

        // Eqs. 11-12 for all heads in one tape op: bilinear scores
        // K W_e Qᵀ against each edge's destination query, LeakyReLU,
        // softmax over each destination's in-edges, α-weighted key sums,
        // ReLU, heads side by side.
        let w_e = binds.var(self.w_e);
        g.edge_attention(k_all, q, w_e, dsts, self.heads)
    }

    /// Mean aggregation (the `w/o NA` variant): ignores attributes, edge
    /// types, and attention; each destination receives the mean of its
    /// source embeddings.
    pub fn forward_mean(
        &self,
        g: &mut Graph,
        src_emb: Var,
        srcs: &Arc<Index>,
        dsts: &Arc<Index>,
    ) -> Var {
        if srcs.is_empty() {
            return g.constant(Tensor::zeros(dsts.n(), self.d));
        }
        let src_g = g.gather_rows(src_emb, srcs);
        g.segment_mean(src_g, dsts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siterec_tensor::optim::{Adam, Optimizer};

    /// 3 sources, 2 destinations, 4 edges with a 1-dim attribute.
    fn toy() -> (Arc<Index>, Arc<Index>, Tensor, Tensor, Tensor) {
        let srcs = Index::new(vec![0, 1, 2, 0], 3);
        let dsts = Index::new(vec![0, 0, 1, 1], 2);
        let attrs = Tensor::column(&[0.1, 0.9, 0.5, 0.2]);
        let src_emb = Tensor::from_rows(&[
            vec![1.0, 0.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0, 0.0],
            vec![0.0, 0.0, 1.0, 0.0],
        ]);
        let dst_emb = Tensor::from_rows(&[vec![0.5; 4], vec![-0.5; 4]]);
        (srcs, dsts, attrs, src_emb, dst_emb)
    }

    #[test]
    fn forward_shape_and_finiteness() {
        let (srcs, dsts, attrs, src_emb, dst_emb) = toy();
        let mut ps = ParamStore::new(1);
        let attn = RelationAttention::new(&mut ps, "t", 4, 1, 2);
        let mut g = Graph::new();
        let binds = ps.bind(&mut g);
        let s = g.constant(src_emb);
        let d = g.constant(dst_emb);
        let a = g.constant(attrs);
        let out = attn.forward(&mut g, &binds, s, d, &srcs, &dsts, Some(a));
        let v = g.value(out);
        assert_eq!(v.shape(), (2, 4));
        assert!(!v.has_non_finite());
    }

    #[test]
    fn empty_relation_returns_zeros() {
        let mut ps = ParamStore::new(1);
        let attn = RelationAttention::new(&mut ps, "t", 4, 1, 2);
        let mut g = Graph::new();
        let binds = ps.bind(&mut g);
        let s = g.constant(Tensor::zeros(3, 4));
        let d = g.constant(Tensor::zeros(2, 4));
        let none = |n| Index::new(Vec::new(), n);
        let out = attn.forward(&mut g, &binds, s, d, &none(3), &none(2), None);
        assert_eq!(g.value(out).shape(), (2, 4));
        assert_eq!(g.value(out).sum(), 0.0);
    }

    #[test]
    fn mean_variant_is_plain_average() {
        let (srcs, dsts, _, src_emb, _) = toy();
        let mut ps = ParamStore::new(1);
        let attn = RelationAttention::new(&mut ps, "t", 4, 1, 2);
        let mut g = Graph::new();
        let s = g.constant(src_emb);
        let out = attn.forward_mean(&mut g, s, &srcs, &dsts);
        let v = g.value(out);
        // dst 0 <- mean of src 0 and 1.
        assert!((v.get(0, 0) - 0.5).abs() < 1e-6);
        assert!((v.get(0, 1) - 0.5).abs() < 1e-6);
        // dst 1 <- mean of src 2 and 0.
        assert!((v.get(1, 2) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn attention_can_learn_to_select_the_informative_neighbor() {
        // dst 0 has two neighbors; only src 1 (flagged by attribute 1.0)
        // carries the target signal. Train the attention block plus a linear
        // readout to predict the target; the loss should fall well below the
        // equal-weight baseline.
        let srcs = Index::new(vec![0, 1, 0, 1], 2);
        let dsts = Index::new(vec![0, 0, 1, 1], 2);
        let attrs = Tensor::column(&[0.0, 1.0, 0.0, 1.0]);
        let src_emb = Tensor::from_rows(&[vec![1.0, -1.0, 0.5, 0.3], vec![2.0, 2.0, -1.0, 0.9]]);
        let dst_emb = Tensor::from_rows(&[vec![0.1; 4], vec![0.2; 4]]);
        let target = Tensor::column(&[3.0, 3.0]); // = sum of src 1's first two dims - 1

        let mut ps = ParamStore::new(7);
        let attn = RelationAttention::new(&mut ps, "t", 4, 1, 2);
        let readout = Linear::new(&mut ps, "ro", 4, 1);
        let mut opt = Adam::new(0.02);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..200 {
            let mut g = Graph::new();
            let binds = ps.bind(&mut g);
            let s = g.constant(src_emb.clone());
            let d = g.constant(dst_emb.clone());
            let a = g.constant(attrs.clone());
            let agg = attn.forward(&mut g, &binds, s, d, &srcs, &dsts, Some(a));
            let pred = readout.forward(&mut g, &binds, agg);
            let loss = g.mse_loss(pred, &target);
            last = g.value(loss).item();
            first.get_or_insert(last);
            g.backward(loss);
            ps.zero_grads();
            ps.harvest(&g, &binds);
            opt.step(&mut ps);
        }
        assert!(
            last < first.unwrap() * 0.1,
            "attention failed to fit: {} -> {last}",
            first.unwrap()
        );
    }
}
