//! Shared building blocks for the graph-neural baselines (GC-MC, GraphRec,
//! RGCN, HGT): featured node sets, mean/attention aggregation over flattened
//! edge lists, pair scoring, and their settings for the shared training loop.

use siterec_graphs::SiteRecTask;
use siterec_tensor::nn::{Embedding, Linear};
use siterec_tensor::{
    train_guarded, Bindings, Graph, GuardConfig, Index, Init, ParamId, ParamStore, TapeArena,
    Tensor, TrainSpec, Var,
};
use std::sync::Arc;

/// A node set with ID embeddings and (optional) input features, fused by a
/// linear projection into the model dimension.
pub struct NodeSet {
    emb: Embedding,
    feat: Option<Tensor>,
    proj: Option<Linear>,
}

impl NodeSet {
    /// Node set with features: initial embedding `relu(W [id_emb, x])`.
    pub fn with_features(
        ps: &mut ParamStore,
        name: &str,
        n: usize,
        dim: usize,
        features: Vec<Vec<f32>>,
    ) -> NodeSet {
        assert_eq!(features.len(), n, "feature arity mismatch");
        let fdim = features.first().map_or(0, Vec::len);
        let feat = Tensor::from_rows(&features);
        NodeSet {
            emb: Embedding::new(ps, &format!("{name}.emb"), n.max(1), dim),
            proj: Some(Linear::new(ps, &format!("{name}.proj"), dim + fdim, dim)),
            feat: Some(feat),
        }
    }

    /// Node set without features (plain ID embeddings).
    pub fn plain(ps: &mut ParamStore, name: &str, n: usize, dim: usize) -> NodeSet {
        NodeSet {
            emb: Embedding::new(ps, &format!("{name}.emb"), n.max(1), dim),
            feat: None,
            proj: None,
        }
    }

    /// Initial embeddings of all nodes (`n x dim`).
    pub fn initial(&self, g: &mut Graph, binds: &Bindings) -> Var {
        let id = self.emb.all(binds);
        match (&self.feat, &self.proj) {
            (Some(f), Some(p)) => {
                let fc = g.constant_ref(f);
                let cat = g.concat_cols(&[id, fc]);
                let lin = p.forward(g, binds, cat);
                g.relu(lin)
            }
            _ => id,
        }
    }
}

/// Degree-normalized mean aggregation of `src_emb` rows into `dsts.n()` rows.
pub fn mean_aggregate(
    g: &mut Graph,
    src_emb: Var,
    srcs: &Arc<Index>,
    dsts: &Arc<Index>,
    dim: usize,
) -> Var {
    if srcs.is_empty() {
        return g.constant(Tensor::zeros(dsts.n(), dim));
    }
    let msgs = g.gather_rows(src_emb, srcs);
    g.segment_mean(msgs, dsts)
}

/// Single-head GAT-style attention aggregation with a learned scoring vector.
pub struct GatAggregator {
    att: ParamId,
    dim: usize,
}

impl GatAggregator {
    /// New aggregator for `dim`-dimensional embeddings.
    pub fn new(ps: &mut ParamStore, name: &str, dim: usize) -> GatAggregator {
        GatAggregator {
            att: ps.add(name, 2 * dim, 1, Init::XavierUniform),
            dim,
        }
    }

    /// Aggregate `src_emb` into destinations with attention computed from
    /// `[h_src, h_dst]` pairs.
    pub fn forward(
        &self,
        g: &mut Graph,
        binds: &Bindings,
        src_emb: Var,
        dst_emb: Var,
        srcs: &Arc<Index>,
        dsts: &Arc<Index>,
    ) -> Var {
        if srcs.is_empty() {
            return g.constant(Tensor::zeros(dsts.n(), self.dim));
        }
        let s = g.gather_rows(src_emb, srcs);
        let d = g.gather_rows(dst_emb, dsts);
        let pair = g.concat_cols(&[s, d]);
        let att = binds.var(self.att);
        let raw = g.matmul(pair, att);
        let score = g.leaky_relu(raw, 0.2);
        let alpha = g.segment_softmax(score, dsts);
        let weighted = g.mul_col_broadcast(s, alpha);
        g.segment_sum(weighted, dsts)
    }
}

/// Score `(region, type)` pairs in evaluation mode. `forward` maps the
/// store-region and type node indices of the pairs to an `n x 1`
/// prediction; regions that host no stores (no store-region node) score 0.
pub fn predict_pairs(
    task: &SiteRecTask,
    ps: &ParamStore,
    pairs: &[(usize, usize)],
    forward: impl FnOnce(&mut Graph, &Bindings, &Arc<Index>, &Arc<Index>) -> Var,
) -> Vec<f32> {
    let mut out = vec![0.0f32; pairs.len()];
    let mut idx = Vec::new();
    let (mut ss, mut aa) = (Vec::new(), Vec::new());
    for (i, &(region, ty)) in pairs.iter().enumerate() {
        if let Some(s) = task.hetero.s_of_region.get(region).copied().flatten() {
            idx.push(i);
            ss.push(s);
            aa.push(ty);
        }
    }
    if ss.is_empty() {
        return out;
    }
    let ss = Index::new(ss, task.hetero.num_s());
    let aa = Index::new(aa, task.n_types);
    let mut g = Graph::new();
    g.training = false;
    let binds = ps.bind(&mut g);
    let pred = forward(&mut g, &binds, &ss, &aa);
    let v = g.value(pred);
    for (j, &i) in idx.iter().enumerate() {
        out[i] = v.get(j, 0);
    }
    out
}

/// The baselines' settings for the shared loop, [`train_guarded`].
#[derive(Debug, Clone, Copy)]
pub struct TrainLoop {
    /// Model name reported in telemetry spans / journal records.
    pub name: &'static str,
    /// Full-batch epochs.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f32,
    /// Dropout / graph seed.
    pub seed: u64,
}

impl Default for TrainLoop {
    fn default() -> Self {
        TrainLoop {
            name: "baseline",
            epochs: 60,
            lr: 5e-3,
            seed: 13,
        }
    }
}

impl TrainLoop {
    /// Train `ps` on the loss `step` builds each epoch, on tapes leasing
    /// from one arena for the whole run, and return the per-epoch losses.
    /// Panics if training diverges beyond the default guard's budget.
    pub fn run(
        &self,
        ps: &mut ParamStore,
        mut step: impl FnMut(&mut Graph, &Bindings) -> Var,
    ) -> Vec<f32> {
        let arena = TapeArena::new();
        let spec = TrainSpec {
            model: self.name,
            variant: None,
            seed: self.seed,
            epochs: self.epochs,
            lr: self.lr,
            grad_clip: 5.0,
            guard: GuardConfig::default(),
            epoch_seed: |seed, epoch| seed ^ ((epoch as u64) << 3),
            arena: Some(&arena),
            checkpoint: None,
        };
        let mut losses = Vec::with_capacity(self.epochs);
        train_guarded(
            &spec,
            ps,
            &mut losses,
            &mut Vec::new(),
            |g, binds| (step(g, binds), []),
            |_| {},
        )
        .expect("baseline training diverged beyond the guard's recovery budget");
        losses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_set_with_features_has_projection() {
        let mut ps = ParamStore::new(1);
        let ns = NodeSet::with_features(&mut ps, "s", 3, 4, vec![vec![1.0, 0.0]; 3]);
        let mut g = Graph::new();
        let binds = ps.bind(&mut g);
        let e = ns.initial(&mut g, &binds);
        assert_eq!(g.value(e).shape(), (3, 4));
        let plain = NodeSet::plain(&mut ps, "p", 2, 4);
        let mut g2 = Graph::new();
        let binds2 = ps.bind(&mut g2);
        let e2 = plain.initial(&mut g2, &binds2);
        assert_eq!(g2.value(e2).shape(), (2, 4));
    }

    #[test]
    fn mean_aggregate_empty_and_nonempty() {
        let mut g = Graph::new();
        let src = g.constant(Tensor::from_rows(&[vec![2.0, 0.0], vec![4.0, 2.0]]));
        let out = mean_aggregate(
            &mut g,
            src,
            &Index::new(vec![0, 1], 2),
            &Index::new(vec![0, 0], 2),
            2,
        );
        let v = g.value(out);
        assert_eq!(v.row_slice(0), &[3.0, 1.0]);
        assert_eq!(v.row_slice(1), &[0.0, 0.0]);
        let none = |n| Index::new(Vec::new(), n);
        let empty = mean_aggregate(&mut g, src, &none(2), &none(3), 2);
        assert_eq!(g.value(empty).shape(), (3, 2));
    }

    #[test]
    fn gat_aggregator_normalizes_attention() {
        let mut ps = ParamStore::new(3);
        let gat = GatAggregator::new(&mut ps, "g", 2);
        let mut g = Graph::new();
        let binds = ps.bind(&mut g);
        let src = g.constant(Tensor::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]));
        let dst = g.constant(Tensor::from_rows(&[vec![0.5, 0.5]]));
        let (srcs, dsts) = (Index::new(vec![0, 1], 2), Index::new(vec![0, 0], 1));
        let out = gat.forward(&mut g, &binds, src, dst, &srcs, &dsts);
        let v = g.value(out);
        // Attention weights sum to 1, so output coordinates sum to 1.
        assert!((v.get(0, 0) + v.get(0, 1) - 1.0).abs() < 1e-5);
    }
}
