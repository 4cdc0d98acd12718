//! HGT [31] — heterogeneous graph transformer over the (period-flattened)
//! region-type heterogeneous graph: node-type-specific key/query/value
//! projections, relation-specific attention and message matrices, scaled
//! dot-product multi-head attention, residual target update.

use crate::common::{flatten_su, flatten_ua, region_input_features, Baseline, Setting};
use crate::gnn_common::{predict_pairs, NodeSet, TrainLoop};
use siterec_graphs::SiteRecTask;
use siterec_tensor::nn::{Activation, Linear, Mlp};
use siterec_tensor::{Bindings, Graph, Index, Init, ParamId, ParamStore, Tensor, Var};
use std::sync::Arc;

/// Model dimension of the baseline.
const DIM: usize = 48;
/// Attention heads.
const HEADS: usize = 2;
/// Message-passing layers.
const LAYERS: usize = 2;

/// Per-node-type projections of one layer.
struct TypeProj {
    k: Linear,
    q: Linear,
    v: Linear,
    out: Linear,
}

/// Per-relation attention/message matrices, stacked over heads.
struct RelationMat {
    /// `(HEADS·head_dim) x head_dim` attention matrices.
    att: ParamId,
    /// `(HEADS·head_dim) x head_dim` message matrices.
    msg: ParamId,
}

struct Layer {
    s: TypeProj,
    u: TypeProj,
    a: TypeProj,
    su: RelationMat,  // U -> S
    as_: RelationMat, // A -> S
    ua: RelationMat,  // A -> U
    sa: RelationMat,  // S -> A
}

/// HGT baseline.
pub struct Hgt {
    setting: Setting,
    seed: u64,
    state: Option<State>,
    /// Training epochs.
    pub epochs: usize,
}

struct State {
    ps: ParamStore,
    s_nodes: NodeSet,
    u_nodes: NodeSet,
    a_nodes: NodeSet,
    layers: Vec<Layer>,
    predictor: Mlp,
    su: crate::common::FlatEdges,
    ua: crate::common::FlatEdges,
    sa_s: Arc<Index>,
    sa_a: Arc<Index>,
    /// Per head, the rows of a stacked relation matrix that head owns.
    head_rows: Vec<Arc<Index>>,
}

fn type_proj(ps: &mut ParamStore, name: &str) -> TypeProj {
    TypeProj {
        k: Linear::new_no_bias(ps, &format!("{name}.k"), DIM, DIM),
        q: Linear::new_no_bias(ps, &format!("{name}.q"), DIM, DIM),
        v: Linear::new_no_bias(ps, &format!("{name}.v"), DIM, DIM),
        out: Linear::new(ps, &format!("{name}.out"), DIM, DIM),
    }
}

fn relation_mat(ps: &mut ParamStore, name: &str) -> RelationMat {
    let hd = DIM / HEADS;
    RelationMat {
        att: ps.add(&format!("{name}.att"), HEADS * hd, hd, Init::XavierUniform),
        msg: ps.add(&format!("{name}.msg"), HEADS * hd, hd, Init::XavierUniform),
    }
}

/// One relation's multi-head scaled dot-product attention aggregation.
#[allow(clippy::too_many_arguments)]
fn hgt_aggregate(
    g: &mut Graph,
    binds: &Bindings,
    src_proj: &TypeProj,
    dst_proj: &TypeProj,
    rel: &RelationMat,
    h_src: Var,
    h_dst: Var,
    srcs: &Arc<Index>,
    dsts: &Arc<Index>,
    head_rows: &[Arc<Index>],
) -> Var {
    if srcs.is_empty() {
        return g.constant(Tensor::zeros(dsts.n(), DIM));
    }
    let hd = DIM / HEADS;
    let k_all = src_proj.k.forward(g, binds, h_src);
    let v_all = src_proj.v.forward(g, binds, h_src);
    let q_all = dst_proj.q.forward(g, binds, h_dst);
    let k_e = g.gather_rows(k_all, srcs);
    let v_e = g.gather_rows(v_all, srcs);
    let q_e = g.gather_rows(q_all, dsts);
    let att = binds.var(rel.att);
    let msg = binds.var(rel.msg);
    let scale = 1.0 / (hd as f32).sqrt();
    let mut heads = Vec::with_capacity(HEADS);
    for (i, rows) in head_rows.iter().enumerate() {
        let att_i = g.gather_rows(att, rows);
        let msg_i = g.gather_rows(msg, rows);
        let k_i = g.slice_cols(k_e, i * hd, hd);
        let q_i = g.slice_cols(q_e, i * hd, hd);
        let v_i = g.slice_cols(v_e, i * hd, hd);
        let ka = g.matmul(k_i, att_i);
        let raw = g.row_dot(ka, q_i);
        let scaled = g.scale(raw, scale);
        let alpha = g.segment_softmax(scaled, dsts);
        let vm = g.matmul(v_i, msg_i);
        let weighted = g.mul_col_broadcast(vm, alpha);
        heads.push(g.segment_sum(weighted, dsts));
    }
    g.concat_cols(&heads)
}

impl Hgt {
    /// New model under a feature setting.
    pub fn new(setting: Setting, seed: u64) -> Self {
        Hgt {
            setting,
            seed,
            state: None,
            epochs: 60,
        }
    }

    fn forward(
        state: &State,
        g: &mut Graph,
        binds: &Bindings,
        pair_s: &Arc<Index>,
        pair_a: &Arc<Index>,
    ) -> Var {
        let mut h = state.s_nodes.initial(g, binds);
        let mut z = state.u_nodes.initial(g, binds);
        let mut q = state.a_nodes.initial(g, binds);

        for layer in &state.layers {
            let to_s_from_u = hgt_aggregate(
                g,
                binds,
                &layer.u,
                &layer.s,
                &layer.su,
                z,
                h,
                &state.su.srcs,
                &state.su.dsts,
                &state.head_rows,
            );
            let to_s_from_a = hgt_aggregate(
                g,
                binds,
                &layer.a,
                &layer.s,
                &layer.as_,
                q,
                h,
                &state.sa_a,
                &state.sa_s,
                &state.head_rows,
            );
            let to_u_from_a = hgt_aggregate(
                g,
                binds,
                &layer.a,
                &layer.u,
                &layer.ua,
                q,
                z,
                &state.ua.srcs,
                &state.ua.dsts,
                &state.head_rows,
            );
            let to_a_from_s = hgt_aggregate(
                g,
                binds,
                &layer.s,
                &layer.a,
                &layer.sa,
                h,
                q,
                &state.sa_s,
                &state.sa_a,
                &state.head_rows,
            );

            let s_agg = g.add(to_s_from_u, to_s_from_a);
            let s_out = layer.s.out.forward(g, binds, s_agg);
            let s_act = g.relu(s_out);
            let h_next = g.add(s_act, h); // residual

            let u_out = layer.u.out.forward(g, binds, to_u_from_a);
            let u_act = g.relu(u_out);
            let z_next = g.add(u_act, z);

            let a_out = layer.a.out.forward(g, binds, to_a_from_s);
            let a_act = g.relu(a_out);
            let q_next = g.add(a_act, q);

            h = h_next;
            z = z_next;
            q = q_next;
        }

        let hs = g.gather_rows(h, pair_s);
        let qa = g.gather_rows(q, pair_a);
        let cat = g.concat_cols(&[hs, qa]);
        state.predictor.forward(g, binds, cat)
    }
}

impl Baseline for Hgt {
    fn name(&self) -> &'static str {
        "HGT"
    }

    fn setting(&self) -> Setting {
        self.setting
    }

    fn set_epochs(&mut self, epochs: usize) {
        self.epochs = epochs;
    }

    fn fit(&mut self, task: &SiteRecTask) {
        let feats = region_input_features(task, self.setting);
        let s_features: Vec<Vec<f32>> = task
            .hetero
            .store_regions
            .iter()
            .map(|&r| feats[r].clone())
            .collect();
        let u_features: Vec<Vec<f32>> = task
            .hetero
            .customer_regions
            .iter()
            .map(|&r| feats[r].clone())
            .collect();
        let (n_s, n_u, n_a) = (task.hetero.num_s(), task.hetero.num_u(), task.n_types);

        let mut ps = ParamStore::new(self.seed);
        let s_nodes = NodeSet::with_features(&mut ps, "hgt.s", n_s, DIM, s_features);
        let u_nodes = NodeSet::with_features(&mut ps, "hgt.u", n_u, DIM, u_features);
        let a_nodes = NodeSet::plain(&mut ps, "hgt.a", n_a, DIM);
        let layers = (0..LAYERS)
            .map(|l| Layer {
                s: type_proj(&mut ps, &format!("hgt.{l}.s")),
                u: type_proj(&mut ps, &format!("hgt.{l}.u")),
                a: type_proj(&mut ps, &format!("hgt.{l}.a")),
                su: relation_mat(&mut ps, &format!("hgt.{l}.su")),
                as_: relation_mat(&mut ps, &format!("hgt.{l}.as")),
                ua: relation_mat(&mut ps, &format!("hgt.{l}.ua")),
                sa: relation_mat(&mut ps, &format!("hgt.{l}.sa")),
            })
            .collect();
        let predictor = Mlp::new(
            &mut ps,
            "hgt.pred",
            &[2 * DIM, DIM, 1],
            Activation::Relu,
            Activation::Sigmoid,
        );

        let triples = crate::common::train_triples(task);
        let sa_s = Index::new(triples.iter().map(|t| t.0).collect(), n_s);
        let sa_a = Index::new(triples.iter().map(|t| t.1).collect(), n_a);
        let hd = DIM / HEADS;
        let head_rows = (0..HEADS)
            .map(|i| Index::new((i * hd..(i + 1) * hd).collect(), DIM))
            .collect();
        let targets = Tensor::column(&triples.iter().map(|t| t.2).collect::<Vec<f32>>());

        let mut state = State {
            ps: ParamStore::new(0),
            s_nodes,
            u_nodes,
            a_nodes,
            layers,
            predictor,
            su: flatten_su(task),
            ua: flatten_ua(task),
            sa_s: Arc::clone(&sa_s),
            sa_a: Arc::clone(&sa_a),
            head_rows,
        };
        TrainLoop {
            name: "HGT",
            epochs: self.epochs,
            seed: self.seed,
            ..Default::default()
        }
        .run(&mut ps, |g, binds| {
            let pred = Self::forward(&state, g, binds, &sa_s, &sa_a);
            g.mse_loss(pred, &targets)
        });
        state.ps = ps;
        self.state = Some(state);
    }

    fn params(&self) -> Option<&ParamStore> {
        self.state.as_ref().map(|s| &s.ps)
    }

    fn predict(&self, task: &SiteRecTask, pairs: &[(usize, usize)]) -> Vec<f32> {
        let state = self.state.as_ref().expect("fit before predict");
        predict_pairs(task, &state.ps, pairs, |g, binds, ss, aa| {
            Self::forward(state, g, binds, ss, aa)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siterec_eval::evaluate;
    use siterec_sim::{O2oDataset, SimConfig};

    #[test]
    fn hgt_learns_interactions() {
        let d = O2oDataset::generate(SimConfig::tiny(97));
        let task = SiteRecTask::build(&d, 0.8, 6);
        let mut m = Hgt::new(Setting::Adaption, 5);
        m.epochs = 40;
        m.fit(&task);
        let res = evaluate(&task.split, |pairs| m.predict(&task, pairs));
        assert!(res.ndcg3 > 0.35, "ndcg3 {}", res.ndcg3);
        assert!(res.rmse < 0.4, "rmse {}", res.rmse);
    }
}
