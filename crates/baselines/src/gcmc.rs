//! GC-MC [29] — graph convolutional matrix completion. The observed
//! (store-region, store-type) interactions form a bipartite graph; one graph
//! convolution layer passes degree-normalized messages in both directions and
//! a bilinear decoder reconstructs the interaction values.

use crate::common::{region_input_features, Baseline, Setting};
use crate::gnn_common::{mean_aggregate, predict_pairs, NodeSet, TrainLoop};
use siterec_graphs::SiteRecTask;
use siterec_tensor::nn::Linear;
use siterec_tensor::{Graph, Index, Init, ParamId, ParamStore, Tensor, Var};
use std::sync::Arc;

/// Model dimension of the baseline.
const DIM: usize = 48;

/// GC-MC baseline.
pub struct GcMc {
    setting: Setting,
    seed: u64,
    /// Trained state (params + cached structure), set by `fit`.
    state: Option<State>,
    /// Training epochs.
    pub epochs: usize,
}

struct State {
    ps: ParamStore,
    s_nodes: NodeSet,
    a_nodes: NodeSet,
    w_s: Linear,
    w_a: Linear,
    decoder: ParamId,
    /// Interaction edges (s-node, type).
    edge_s: Arc<Index>,
    edge_a: Arc<Index>,
}

impl GcMc {
    /// New model under a feature setting.
    pub fn new(setting: Setting, seed: u64) -> Self {
        GcMc {
            setting,
            seed,
            state: None,
            epochs: 70,
        }
    }

    fn forward(
        state: &State,
        g: &mut Graph,
        binds: &siterec_tensor::Bindings,
        pair_s: &Arc<Index>,
        pair_a: &Arc<Index>,
    ) -> Var {
        let h0 = state.s_nodes.initial(g, binds);
        let q0 = state.a_nodes.initial(g, binds);
        // One conv layer in each direction (degree-normalized mean).
        let to_s = mean_aggregate(g, q0, &state.edge_a, &state.edge_s, DIM);
        let to_a = mean_aggregate(g, h0, &state.edge_s, &state.edge_a, DIM);
        let s_in = g.add(to_s, h0);
        let a_in = g.add(to_a, q0);
        let h_lin = state.w_s.forward(g, binds, s_in);
        let h = g.relu(h_lin);
        let q_lin = state.w_a.forward(g, binds, a_in);
        let q = g.relu(q_lin);
        // Bilinear decoder: sigmoid(h_s^T Q q_a).
        let hs = g.gather_rows(h, pair_s);
        let qa = g.gather_rows(q, pair_a);
        let dec = binds.var(state.decoder);
        let hq = g.matmul(hs, dec);
        let raw = g.row_dot(hq, qa);
        g.sigmoid(raw)
    }
}

impl Baseline for GcMc {
    fn name(&self) -> &'static str {
        "GC-MC"
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
        let n_s = task.hetero.num_s();
        let n_a = task.n_types;

        let mut ps = ParamStore::new(self.seed);
        let s_nodes = NodeSet::with_features(&mut ps, "gcmc.s", n_s, DIM, s_features);
        let a_nodes = NodeSet::plain(&mut ps, "gcmc.a", n_a, DIM);
        let w_s = Linear::new(&mut ps, "gcmc.ws", DIM, DIM);
        let w_a = Linear::new(&mut ps, "gcmc.wa", DIM, DIM);
        let decoder = ps.add("gcmc.dec", DIM, DIM, Init::XavierUniform);

        let triples = crate::common::train_triples(task);
        let edge_s = Index::new(triples.iter().map(|t| t.0).collect(), n_s);
        let edge_a = Index::new(triples.iter().map(|t| t.1).collect(), n_a);
        let targets = Tensor::column(&triples.iter().map(|t| t.2).collect::<Vec<f32>>());

        let mut state = State {
            ps: ParamStore::new(0), // placeholder, replaced below
            s_nodes,
            a_nodes,
            w_s,
            w_a,
            decoder,
            edge_s: Arc::clone(&edge_s),
            edge_a: Arc::clone(&edge_a),
        };
        TrainLoop {
            name: "GC-MC",
            epochs: self.epochs,
            seed: self.seed,
            ..Default::default()
        }
        .run(&mut ps, |g, binds| {
            let pred = Self::forward(&state, g, binds, &edge_s, &edge_a);
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
    fn gcmc_learns_interactions() {
        let d = O2oDataset::generate(SimConfig::tiny(91));
        let task = SiteRecTask::build(&d, 0.8, 6);
        let mut m = GcMc::new(Setting::Original, 2);
        m.epochs = 40;
        m.fit(&task);
        let res = evaluate(&task.split, |pairs| m.predict(&task, pairs));
        assert!(res.ndcg3 > 0.35, "ndcg3 {}", res.ndcg3);
        assert!(res.rmse < 0.4, "rmse {}", res.rmse);
    }

    #[test]
    fn predictions_in_unit_interval() {
        let d = O2oDataset::generate(SimConfig::tiny(91));
        let task = SiteRecTask::build(&d, 0.8, 6);
        let mut m = GcMc::new(Setting::Adaption, 2);
        m.epochs = 10;
        m.fit(&task);
        let pairs: Vec<(usize, usize)> = task.split.test.iter().map(|i| (i.region, i.ty)).collect();
        for p in m.predict(&task, &pairs) {
            assert!((0.0..=1.0).contains(&p));
        }
    }
}
