//! RGCN [30] — relational graph convolutional network over the
//! (period-flattened) region-type heterogeneous graph. Each relation has its
//! own weight matrix; messages are degree-normalized means; no attention and
//! no edge attributes — exactly the simple message passing the paper credits
//! for RGCN trailing HGT.

use crate::common::{flatten_su, flatten_ua, region_input_features, Baseline, Setting};
use crate::gnn_common::{mean_aggregate, predict_pairs, NodeSet, TrainLoop};
use siterec_graphs::SiteRecTask;
use siterec_tensor::nn::Linear;
use siterec_tensor::{Bindings, Graph, Index, Init, ParamId, ParamStore, Tensor, Var};
use std::sync::Arc;

/// Model dimension of the baseline.
const DIM: usize = 48;
/// Message-passing layers.
const LAYERS: usize = 2;

/// RGCN baseline.
pub struct Rgcn {
    setting: Setting,
    seed: u64,
    state: Option<State>,
    /// Training epochs.
    pub epochs: usize,
}

struct LayerWeights {
    w_su: Linear,
    w_as_to_s: Linear,
    w_ua: Linear,
    w_sa_to_a: Linear,
    w_self_s: Linear,
    w_self_u: Linear,
    w_self_a: Linear,
}

struct State {
    ps: ParamStore,
    s_nodes: NodeSet,
    u_nodes: NodeSet,
    a_nodes: NodeSet,
    layers: Vec<LayerWeights>,
    decoder: ParamId,
    su: crate::common::FlatEdges,
    ua: crate::common::FlatEdges,
    sa_s: Arc<Index>,
    sa_a: Arc<Index>,
}

impl Rgcn {
    /// New model under a feature setting.
    pub fn new(setting: Setting, seed: u64) -> Self {
        Rgcn {
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

        for lw in &state.layers {
            // Messages into S from U (S-U relation) and from A (S-A).
            let m_su = mean_aggregate(g, z, &state.su.srcs, &state.su.dsts, DIM);
            let m_su = lw.w_su.forward(g, binds, m_su);
            let m_as = mean_aggregate(g, q, &state.sa_a, &state.sa_s, DIM);
            let m_as = lw.w_as_to_s.forward(g, binds, m_as);
            let self_s = lw.w_self_s.forward(g, binds, h);
            let s_sum = g.add_n(&[m_su, m_as, self_s]);
            let h_next = g.relu(s_sum);

            // Messages into U from A (U-A relation).
            let m_ua = mean_aggregate(g, q, &state.ua.srcs, &state.ua.dsts, DIM);
            let m_ua = lw.w_ua.forward(g, binds, m_ua);
            let self_u = lw.w_self_u.forward(g, binds, z);
            let u_sum = g.add(m_ua, self_u);
            let z_next = g.relu(u_sum);

            // Messages into A from S (A-S relation).
            let m_sa = mean_aggregate(g, h, &state.sa_s, &state.sa_a, DIM);
            let m_sa = lw.w_sa_to_a.forward(g, binds, m_sa);
            let self_a = lw.w_self_a.forward(g, binds, q);
            let a_sum = g.add(m_sa, self_a);
            let q_next = g.relu(a_sum);

            h = h_next;
            z = z_next;
            q = q_next;
        }

        // DistMult-style decoder: sigmoid(h_s^T diag-free bilinear q_a).
        let hs = g.gather_rows(h, pair_s);
        let qa = g.gather_rows(q, pair_a);
        let dec = binds.var(state.decoder);
        let hq = g.matmul(hs, dec);
        let raw = g.row_dot(hq, qa);
        g.sigmoid(raw)
    }
}

impl Baseline for Rgcn {
    fn name(&self) -> &'static str {
        "RGCN"
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
        let s_nodes = NodeSet::with_features(&mut ps, "rgcn.s", n_s, DIM, s_features);
        let u_nodes = NodeSet::with_features(&mut ps, "rgcn.u", n_u, DIM, u_features);
        let a_nodes = NodeSet::plain(&mut ps, "rgcn.a", n_a, DIM);
        let layers = (0..LAYERS)
            .map(|l| LayerWeights {
                w_su: Linear::new_no_bias(&mut ps, &format!("rgcn.{l}.su"), DIM, DIM),
                w_as_to_s: Linear::new_no_bias(&mut ps, &format!("rgcn.{l}.as_s"), DIM, DIM),
                w_ua: Linear::new_no_bias(&mut ps, &format!("rgcn.{l}.ua"), DIM, DIM),
                w_sa_to_a: Linear::new_no_bias(&mut ps, &format!("rgcn.{l}.sa_a"), DIM, DIM),
                w_self_s: Linear::new_no_bias(&mut ps, &format!("rgcn.{l}.self_s"), DIM, DIM),
                w_self_u: Linear::new_no_bias(&mut ps, &format!("rgcn.{l}.self_u"), DIM, DIM),
                w_self_a: Linear::new_no_bias(&mut ps, &format!("rgcn.{l}.self_a"), DIM, DIM),
            })
            .collect();
        let decoder = ps.add("rgcn.dec", DIM, DIM, Init::XavierUniform);

        let triples = crate::common::train_triples(task);
        let sa_s = Index::new(triples.iter().map(|t| t.0).collect(), n_s);
        let sa_a = Index::new(triples.iter().map(|t| t.1).collect(), n_a);
        let targets = Tensor::column(&triples.iter().map(|t| t.2).collect::<Vec<f32>>());

        let mut state = State {
            ps: ParamStore::new(0),
            s_nodes,
            u_nodes,
            a_nodes,
            layers,
            decoder,
            su: flatten_su(task),
            ua: flatten_ua(task),
            sa_s: Arc::clone(&sa_s),
            sa_a: Arc::clone(&sa_a),
        };
        TrainLoop {
            name: "RGCN",
            epochs: self.epochs,
            seed: self.seed,
            // RGCN's unnormalized relation sums are the least stable of the
            // baselines; a gentler rate keeps the Adaption setting from
            // diverging.
            lr: 2e-3,
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
    fn the_training_pool_stops_growing_after_the_first_epoch() {
        // RGCN's epochs on the shared loop's arena: every epoch tape leases
        // the same buffers, so once the first epoch has filled the pool it
        // neither allocates nor takes in a fresh buffer.
        let d = O2oDataset::generate(SimConfig::tiny(95));
        let task = SiteRecTask::build(&d, 0.8, 6);
        let mut m = Rgcn::new(Setting::Adaption, 4);
        m.epochs = 1;
        m.fit(&task);
        let mut state = m.state.take().unwrap();
        let mut ps = std::mem::replace(&mut state.ps, ParamStore::new(0));
        let triples = crate::common::train_triples(&task);
        let targets = Tensor::column(&triples.iter().map(|t| t.2).collect::<Vec<f32>>());
        let mut seen = Vec::new();
        TrainLoop {
            epochs: 6,
            ..Default::default()
        }
        .run(&mut ps, |g, binds| {
            // Read as each epoch starts: the pool the previous epoch left.
            let s = g.arena().expect("the loop's tapes lease").stats();
            seen.push((s.bytes, s.misses));
            let pred = Rgcn::forward(&state, g, binds, &state.sa_s, &state.sa_a);
            g.mse_loss(pred, &targets)
        });
        assert!(
            seen[1..].iter().all(|&s| s == seen[1]),
            "bytes/misses moved after epoch 1: {seen:?}"
        );
    }

    #[test]
    fn rgcn_learns_interactions() {
        // Average over a few dataset seeds: a single tiny-scale draw is too
        // noisy to gate on, regardless of which RNG stream backs StdRng.
        let seeds = [95u64, 96, 97];
        let mut ndcg = 0.0;
        for &s in &seeds {
            let d = O2oDataset::generate(SimConfig::tiny(s));
            let task = SiteRecTask::build(&d, 0.8, 6);
            let mut m = Rgcn::new(Setting::Original, 4);
            m.epochs = 40;
            m.fit(&task);
            let res = evaluate(&task.split, |pairs| m.predict(&task, pairs));
            ndcg += res.ndcg3;
        }
        ndcg /= seeds.len() as f64;
        assert!(ndcg > 0.35, "mean ndcg3 {ndcg}");
    }
}
