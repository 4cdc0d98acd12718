//! GraphRec [28] — graph neural network for social recommendation, adapted
//! as in the paper: the store-region/customer-region bipartite graph (the
//! S-U edges of the heterogeneous graph, period-flattened) replaces the
//! social graph, and the interaction graph is the (region, type) matrix.
//! Attention aggregation on both graphs feeds an MLP rating predictor.

use crate::common::{flatten_su, flatten_ua, region_input_features, Baseline, Setting};
use crate::gnn_common::{predict_pairs, GatAggregator, NodeSet, TrainLoop};
use siterec_graphs::SiteRecTask;
use siterec_tensor::nn::{Activation, Linear, Mlp};
use siterec_tensor::{Bindings, Graph, Index, ParamStore, Tensor, Var};
use std::sync::Arc;

/// Model dimension of the baseline.
const DIM: usize = 48;

/// GraphRec baseline.
pub struct GraphRec {
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
    su_att: GatAggregator,
    ua_att: GatAggregator,
    as_att: GatAggregator,
    w_s: Linear,
    w_u: Linear,
    w_a: Linear,
    predictor: Mlp,
    su: crate::common::FlatEdges,
    ua: crate::common::FlatEdges,
    ia_s: Arc<Index>,
    ia_a: Arc<Index>,
}

impl GraphRec {
    /// New model under a feature setting.
    pub fn new(setting: Setting, seed: u64) -> Self {
        GraphRec {
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
        let h0 = state.s_nodes.initial(g, binds);
        let z0 = state.u_nodes.initial(g, binds);
        let q0 = state.a_nodes.initial(g, binds);

        // User (customer-region) modeling: aggregate preferred types.
        let ua_msg = state
            .ua_att
            .forward(g, binds, q0, z0, &state.ua.srcs, &state.ua.dsts);
        let z_sum = g.add(ua_msg, z0);
        let z_lin = state.w_u.forward(g, binds, z_sum);
        let z = g.relu(z_lin);

        // Item (store-region) modeling: aggregate surrounding customers
        // (the "social" side) plus type interactions.
        let su_msg = state
            .su_att
            .forward(g, binds, z, h0, &state.su.srcs, &state.su.dsts);
        let s_sum = g.add(su_msg, h0);
        let s_lin = state.w_s.forward(g, binds, s_sum);
        let h = g.relu(s_lin);

        // Type modeling from interactions.
        let as_msg = state
            .as_att
            .forward(g, binds, h, q0, &state.ia_s, &state.ia_a);
        let a_sum = g.add(as_msg, q0);
        let a_lin = state.w_a.forward(g, binds, a_sum);
        let q = g.relu(a_lin);

        let hs = g.gather_rows(h, pair_s);
        let qa = g.gather_rows(q, pair_a);
        let cat = g.concat_cols(&[hs, qa]);
        state.predictor.forward(g, binds, cat)
    }
}

impl Baseline for GraphRec {
    fn name(&self) -> &'static str {
        "GraphRec"
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
        let s_nodes = NodeSet::with_features(&mut ps, "gr.s", n_s, DIM, s_features);
        let u_nodes = NodeSet::with_features(&mut ps, "gr.u", n_u, DIM, u_features);
        let a_nodes = NodeSet::plain(&mut ps, "gr.a", n_a, DIM);
        let su_att = GatAggregator::new(&mut ps, "gr.su_att", DIM);
        let ua_att = GatAggregator::new(&mut ps, "gr.ua_att", DIM);
        let as_att = GatAggregator::new(&mut ps, "gr.as_att", DIM);
        let w_s = Linear::new(&mut ps, "gr.ws", DIM, DIM);
        let w_u = Linear::new(&mut ps, "gr.wu", DIM, DIM);
        let w_a = Linear::new(&mut ps, "gr.wa", DIM, DIM);
        let predictor = Mlp::new(
            &mut ps,
            "gr.pred",
            &[2 * DIM, DIM, 1],
            Activation::Relu,
            Activation::Sigmoid,
        );

        let triples = crate::common::train_triples(task);
        let ia_s = Index::new(triples.iter().map(|t| t.0).collect(), n_s);
        let ia_a = Index::new(triples.iter().map(|t| t.1).collect(), n_a);
        let targets = Tensor::column(&triples.iter().map(|t| t.2).collect::<Vec<f32>>());

        let mut state = State {
            ps: ParamStore::new(0),
            s_nodes,
            u_nodes,
            a_nodes,
            su_att,
            ua_att,
            as_att,
            w_s,
            w_u,
            w_a,
            predictor,
            su: flatten_su(task),
            ua: flatten_ua(task),
            ia_s: Arc::clone(&ia_s),
            ia_a: Arc::clone(&ia_a),
        };
        TrainLoop {
            name: "GraphRec",
            epochs: self.epochs,
            seed: self.seed,
            ..Default::default()
        }
        .run(&mut ps, |g, binds| {
            let pred = Self::forward(&state, g, binds, &ia_s, &ia_a);
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
    fn graphrec_learns_interactions() {
        let d = O2oDataset::generate(SimConfig::tiny(93));
        let task = SiteRecTask::build(&d, 0.8, 6);
        let mut m = GraphRec::new(Setting::Adaption, 3);
        m.epochs = 40;
        m.fit(&task);
        let res = evaluate(&task.split, |pairs| m.predict(&task, pairs));
        assert!(res.ndcg3 > 0.35, "ndcg3 {}", res.ndcg3);
        assert!(res.rmse < 0.4, "rmse {}", res.rmse);
    }
}
