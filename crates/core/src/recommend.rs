//! Heterogeneous multi-graph recommendation model (paper §III-E, Module 3).
//!
//! Five steps, mirroring Fig. 9:
//!
//! 1. **Node attributes fusion**: ID embeddings fused with geographic
//!    features (`h⁰_s = σ(W_S [h'_s, f_s])`, `z⁰_u = σ(W_U [z'_u, f_u])`,
//!    `q⁰_a = q'_a`).
//! 2. **Edge attributes fusion**: S-U attributes are concatenated with the
//!    courier-capacity edge embeddings from Module 2
//!    (`φ' = [φ, em^c]`).
//! 3. **Node-level aggregation** (Eqs. 7–9) with the multi-head attention
//!    `Aggre` (Eqs. 10–12), per period subgraph, `l` layers.
//! 4. **Time semantics-level aggregation** (Eqs. 13–15): multi-head
//!    attention over the per-period `[h_s, q_a]` embeddings.
//! 5. **Prediction**: `p̂_sa = σ(W₂ H_sa)` trained with MSE (`O2`, Eq. 16).

use crate::attention::RelationAttention;
use crate::config::{SiteRecConfig, Variant};
use siterec_geo::Period;
use siterec_graphs::HeteroGraph;
use siterec_tensor::nn::{Activation, Embedding, Linear};
use siterec_tensor::{Bindings, CatBlock, Graph, Index, ParamStore, Tensor, Var};
use std::sync::Arc;

/// Edge lists and constant attributes of one period's subgraph, reshaped for
/// tape ops.
struct PeriodStructure {
    /// S-U edges: source customer-region node, destination store-region node.
    su_srcs: Arc<Index>,
    su_dsts: Arc<Index>,
    /// `E x 2` base attributes (distance, transactions).
    su_attr: Tensor,
    /// Region ids of the S and U endpoints (for capacity-embedding gathers).
    su_s_regions: Arc<Index>,
    su_u_regions: Arc<Index>,
    /// U-A edges: source type node, destination customer-region node.
    ua_srcs: Arc<Index>,
    ua_dsts: Arc<Index>,
    /// `E x 1` transaction attribute.
    ua_attr: Tensor,
}

/// Static S-A structure (shared across periods). Store-region targets
/// aggregate over `a -> s`, type targets over `s -> a`.
struct SaStructure {
    /// Store-region node of each S-A edge.
    s: Arc<Index>,
    /// Type node of each S-A edge.
    a: Arc<Index>,
    /// `E x 3` attributes (competitiveness, complementarity, history).
    attr: Tensor,
}

/// The scoring tail's weights as tape vars: the two time semantics-level
/// attention projections (Eqs. 13–15) and the prediction head (Eq. 16).
///
/// During training these are bound parameters ([`HeteroModel::forward`]
/// builds them from the live [`Bindings`]); when serving they are constants
/// reconstructed from a checkpoint (`siterec-serve`). Both paths feed the
/// same [`score_tail`] function, so the op sequence — and therefore every
/// output bit — is identical by construction.
#[derive(Debug, Clone, Copy)]
pub struct TailVars {
    /// Time-attention key projection `W_K` (`2·d2 × 2·d2`, no bias).
    pub wk: Var,
    /// Time-attention query projection `W_Q` (`2·d2 × 2·d2`, no bias).
    pub wq: Var,
    /// Prediction weight `W₂` (`2·d2 × 1`).
    pub pred_w: Var,
    /// Prediction bias (`1 × 1`).
    pub pred_b: Var,
}

/// Shape and variant facts the scoring tail needs (a checkpoint-independent
/// subset of [`SiteRecConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TailSpec {
    /// Heterogeneous-graph embedding size `d2`.
    pub d2: usize,
    /// Time semantics-level attention heads.
    pub time_heads: usize,
    /// Mean-pool the periods instead of attending over them
    /// (the `w/o SA` ablation, [`Variant::WithoutTimeAttention`]).
    pub mean_pool: bool,
}

/// Per-period pair embeddings `H_{sa,t} = [h_s, q_a]`: gather the pair rows
/// out of each period's node embeddings and concatenate. Shared verbatim by
/// the training forward pass and the serving scorer (where `hs`/`qs` are
/// constants loaded from the embedding store) — one more link in the
/// bit-equality chain between offline and online inference.
pub fn gather_period_pairs(
    g: &mut Graph,
    hs: &[Var],
    qs: &[Var],
    pair_s: &Arc<Index>,
    pair_a: &Arc<Index>,
) -> Vec<Var> {
    assert_eq!(hs.len(), qs.len());
    hs.iter()
        .zip(qs.iter())
        .map(|(&h, &q)| {
            let h_b = g.gather_rows(h, pair_s);
            let q_b = g.gather_rows(q, pair_a);
            g.concat_cols(&[h_b, q_b])
        })
        .collect()
}

/// Steps 4–5 of the model (Fig. 9): time semantics-level aggregation over
/// the per-period pair embeddings, then `p̂ = σ(W₂ H_sa)`.
///
/// `per_period` may hold any non-empty subset of the five periods (a
/// single-period slice answers period-restricted serving queries); with all
/// five it reproduces the paper's aggregate score exactly.
pub fn score_tail(g: &mut Graph, spec: &TailSpec, w: &TailVars, per_period: &[Var]) -> Var {
    assert!(
        !per_period.is_empty(),
        "score_tail needs at least one period"
    );
    let h_sa = if spec.mean_pool {
        let sum = g.add_n(per_period);
        g.scale(sum, 1.0 / per_period.len() as f32)
    } else {
        time_attention(g, spec, w, per_period)
    };
    let lin = g.matmul(h_sa, w.pred_w);
    let lin = g.add_row_broadcast(lin, w.pred_b);
    g.sigmoid(lin)
}

/// Multi-head attention pooling over the `J ≤ 5` period embeddings
/// (Eqs. 13–15).
fn time_attention(g: &mut Graph, spec: &TailSpec, w: &TailVars, per_period: &[Var]) -> Var {
    let heads = spec.time_heads;
    let dim = 2 * spec.d2;
    let head_dim = dim / heads;
    let j = per_period.len();

    // Per-period keys and queries (all heads at once; W_K/W_Q carry no bias).
    let keys: Vec<Var> = per_period.iter().map(|&h| g.matmul(h, w.wk)).collect();
    let queries: Vec<Var> = per_period.iter().map(|&h| g.matmul(h, w.wq)).collect();

    let mut head_outs = Vec::with_capacity(heads);
    for i in 0..heads {
        let k_i: Vec<Var> = keys
            .iter()
            .map(|&k| g.slice_cols(k, i * head_dim, head_dim))
            .collect();
        let q_i: Vec<Var> = queries
            .iter()
            .map(|&q| g.slice_cols(q, i * head_dim, head_dim))
            .collect();
        // score_{b,t} = <Q_t, K_t> per batch row; softmax over t.
        let scores: Vec<Var> = (0..j).map(|t| g.row_dot(q_i[t], k_i[t])).collect();
        let score_mat = g.concat_cols(&scores); // B x J
        let alpha = g.softmax_rows(score_mat);
        // out = Σ_t α_t K_t.
        let mut acc: Option<Var> = None;
        for (t, &k_t) in k_i.iter().enumerate() {
            let a_t = g.slice_cols(alpha, t, 1);
            let w_t = g.mul_col_broadcast(k_t, a_t);
            acc = Some(match acc {
                Some(prev) => g.add(prev, w_t),
                None => w_t,
            });
        }
        let pooled = acc.expect("at least one period");
        head_outs.push(g.relu(pooled)); // σ(Σ α K), Eq. 15
    }
    g.concat_cols(&head_outs)
}

/// Per-layer relation attentions and update weights.
struct LayerParams {
    su: RelationAttention,
    sa_to_s: RelationAttention,
    ua: RelationAttention,
    sa_to_a: RelationAttention,
    w_s: Linear,
    w_u: Linear,
    w_a: Linear,
}

/// The recommendation model over the region-type heterogeneous multi-graph.
pub struct HeteroModel {
    emb_s: Embedding,
    emb_u: Embedding,
    emb_a: Embedding,
    w_s0: Linear,
    w_u0: Linear,
    layers: Vec<LayerParams>,
    time_wk: Linear,
    time_wq: Linear,
    predict: Linear,
    s_feat: Tensor,
    u_feat: Tensor,
    periods: Vec<PeriodStructure>,
    sa: SaStructure,
    cfg: SiteRecConfig,
    /// Capacity edge-embedding width appended to S-U attributes (0 if off).
    capacity_dim: usize,
}

impl HeteroModel {
    /// Build the model over a constructed heterogeneous graph.
    ///
    /// `capacity_dim` is `2·d1` when Module 2 feeds this model, 0 otherwise.
    pub fn new(
        ps: &mut ParamStore,
        hetero: &HeteroGraph,
        cfg: &SiteRecConfig,
        capacity_dim: usize,
    ) -> HeteroModel {
        cfg.validate().expect("invalid SiteRecConfig");
        let d2 = cfg.d2;
        let feat_dim = hetero.feat_dim();
        // Node-set row counts: an empty set still gets one (padding) row.
        let (n_s, n_u, n_a) = (
            hetero.num_s().max(1),
            hetero.num_u().max(1),
            hetero.n_types.max(1),
        );
        let n_regions = hetero.s_of_region.len();

        let emb_s = Embedding::new(ps, "rec.emb_s", n_s, d2);
        let emb_u = Embedding::new(ps, "rec.emb_u", n_u, d2);
        let emb_a = Embedding::new(ps, "rec.emb_a", n_a, d2);
        let w_s0 = Linear::new(ps, "rec.w_s0", d2 + feat_dim, d2);
        let w_u0 = Linear::new(ps, "rec.w_u0", d2 + feat_dim, d2);

        let su_attr_dim = 2 + capacity_dim;
        let layers = (0..cfg.layers)
            .map(|l| LayerParams {
                su: RelationAttention::new(
                    ps,
                    &format!("rec.l{l}.su"),
                    d2,
                    su_attr_dim,
                    cfg.node_heads,
                ),
                sa_to_s: RelationAttention::new(
                    ps,
                    &format!("rec.l{l}.sa_s"),
                    d2,
                    3,
                    cfg.node_heads,
                ),
                ua: RelationAttention::new(ps, &format!("rec.l{l}.ua"), d2, 1, cfg.node_heads),
                sa_to_a: RelationAttention::new(
                    ps,
                    &format!("rec.l{l}.sa_a"),
                    d2,
                    3,
                    cfg.node_heads,
                ),
                w_s: Linear::new(ps, &format!("rec.l{l}.ws"), d2, d2),
                w_u: Linear::new(ps, &format!("rec.l{l}.wu"), d2, d2),
                w_a: Linear::new(ps, &format!("rec.l{l}.wa"), d2, d2),
            })
            .collect();

        let time_wk = Linear::new_no_bias(ps, "rec.time_wk", 2 * d2, 2 * d2);
        let time_wq = Linear::new_no_bias(ps, "rec.time_wq", 2 * d2, 2 * d2);
        let predict = Linear::new(ps, "rec.predict", 2 * d2, 1);

        // Constant structure.
        let s_feat = Tensor::from_rows(&pad_rows(&hetero.s_feat, feat_dim));
        let u_feat = Tensor::from_rows(&pad_rows(&hetero.u_feat, feat_dim));

        let periods = (0..Period::COUNT)
            .map(|pi| {
                let su = &hetero.su_edges[pi];
                let ua = &hetero.ua_edges[pi];
                PeriodStructure {
                    su_srcs: Index::new(su.iter().map(|e| e.u).collect(), n_u),
                    su_dsts: Index::new(su.iter().map(|e| e.s).collect(), n_s),
                    su_attr: if su.is_empty() {
                        Tensor::zeros(0, 2)
                    } else {
                        Tensor::from_rows(
                            &su.iter()
                                .map(|e| vec![e.distance, e.transactions])
                                .collect::<Vec<_>>(),
                        )
                    },
                    su_s_regions: Index::new(
                        su.iter().map(|e| hetero.store_regions[e.s]).collect(),
                        n_regions,
                    ),
                    su_u_regions: Index::new(
                        su.iter().map(|e| hetero.customer_regions[e.u]).collect(),
                        n_regions,
                    ),
                    ua_srcs: Index::new(ua.iter().map(|e| e.a).collect(), n_a),
                    ua_dsts: Index::new(ua.iter().map(|e| e.u).collect(), n_u),
                    ua_attr: if ua.is_empty() {
                        Tensor::zeros(0, 1)
                    } else {
                        Tensor::from_rows(
                            &ua.iter().map(|e| vec![e.transactions]).collect::<Vec<_>>(),
                        )
                    },
                }
            })
            .collect();

        let sa = SaStructure {
            s: Index::new(hetero.sa_edges.iter().map(|e| e.s).collect(), n_s),
            a: Index::new(hetero.sa_edges.iter().map(|e| e.a).collect(), n_a),
            attr: if hetero.sa_edges.is_empty() {
                Tensor::zeros(0, 3)
            } else {
                Tensor::from_rows(
                    &hetero
                        .sa_edges
                        .iter()
                        .map(|e| vec![e.competitiveness, e.complementarity, e.history])
                        .collect::<Vec<_>>(),
                )
            },
        };

        HeteroModel {
            emb_s,
            emb_u,
            emb_a,
            w_s0,
            w_u0,
            layers,
            time_wk,
            time_wq,
            predict,
            s_feat,
            u_feat,
            periods,
            sa,
            cfg: cfg.clone(),
            capacity_dim,
        }
    }

    /// Shape/variant facts of this model's scoring tail.
    pub fn tail_spec(&self) -> TailSpec {
        TailSpec {
            d2: self.cfg.d2,
            time_heads: self.cfg.time_heads,
            mean_pool: self.cfg.variant == Variant::WithoutTimeAttention,
        }
    }

    /// `(store-region node, type node)` pair lists as indices into this
    /// model's node embeddings, for [`Self::forward`] and
    /// [`gather_period_pairs`].
    pub(crate) fn pair_indices(&self, ss: Vec<usize>, aa: Vec<usize>) -> (Arc<Index>, Arc<Index>) {
        (
            Index::new(ss, self.emb_s.num),
            Index::new(aa, self.emb_a.num),
        )
    }

    /// The tail weights as bound tape vars (training / offline inference).
    pub(crate) fn tail_vars(&self, binds: &Bindings) -> TailVars {
        TailVars {
            wk: binds.var(self.time_wk.w),
            wq: binds.var(self.time_wq.w),
            pred_w: binds.var(self.predict.w),
            pred_b: binds.var(self.predict.b.expect("predict layer has bias")),
        }
    }

    /// The tail weights as raw tensors `(W_K, W_Q, W₂, b₂)`, for export into
    /// a serving embedding store.
    pub(crate) fn export_tail(&self, ps: &ParamStore) -> (Tensor, Tensor, Tensor, Tensor) {
        (
            ps.get(self.time_wk.w).value.clone(),
            ps.get(self.time_wq.w).value.clone(),
            ps.get(self.predict.w).value.clone(),
            ps.get(self.predict.b.expect("predict layer has bias"))
                .value
                .clone(),
        )
    }

    /// Forward pass for a batch of (store-region node, type node) pairs.
    ///
    /// `capacity`: per-period region-embedding vars from Module 2 (length 5),
    /// or `None` for capacity-free variants.
    pub fn forward(
        &self,
        g: &mut Graph,
        binds: &Bindings,
        capacity: Option<&[Var]>,
        pair_s: &Arc<Index>,
        pair_a: &Arc<Index>,
    ) -> Var {
        assert_eq!(pair_s.len(), pair_a.len());
        // Steps 1-3: encode every period's node embeddings.
        let (hs, qs) = self.encode_periods(g, binds, capacity);
        // Per-pair concatenated embeddings H_{sa,t} = [h_s, q_a].
        let per_period = gather_period_pairs(g, &hs, &qs, pair_s, pair_a);
        debug_assert!(per_period
            .iter()
            .all(|&p| g.value(p).cols() == 2 * self.cfg.d2));
        // Steps 4-5: time semantics-level aggregation + prediction.
        let w = self.tail_vars(binds);
        score_tail(g, &self.tail_spec(), &w, &per_period)
    }

    /// Steps 1–3 (Fig. 9): node/edge attribute fusion and `l` rounds of
    /// node-level aggregation, per period. Returns the store-region node
    /// embeddings `h` and type node embeddings `q` of each of the five
    /// periods — everything pair-independent, which is exactly what the
    /// serving embedding store precomputes.
    pub(crate) fn encode_periods(
        &self,
        g: &mut Graph,
        binds: &Bindings,
        capacity: Option<&[Var]>,
    ) -> (Vec<Var>, Vec<Var>) {
        let mean_agg = self.cfg.variant == Variant::WithoutNodeAttention;

        // Step 1: node attribute fusion (shared across periods).
        let s_feat = g.constant_ref(&self.s_feat);
        let u_feat = g.constant_ref(&self.u_feat);
        let s_id = self.emb_s.all(binds);
        let u_id = self.emb_u.all(binds);
        let s_in = [CatBlock::Plain(s_id), CatBlock::Plain(s_feat)];
        let u_in = [CatBlock::Plain(u_id), CatBlock::Plain(u_feat)];
        let mut h0 = self.w_s0.forward_cat(g, binds, &s_in, Activation::Relu);
        let mut z0 = self.w_u0.forward_cat(g, binds, &u_in, Activation::Relu);
        let mut q0 = self.emb_a.all(binds);
        h0 = g.dropout(h0, self.cfg.dropout);
        z0 = g.dropout(z0, self.cfg.dropout);
        q0 = g.dropout(q0, self.cfg.dropout);

        // Steps 2-3 per period: edge fusion + node-level aggregation.
        let mut hs: Vec<Var> = Vec::with_capacity(Period::COUNT);
        let mut qs: Vec<Var> = Vec::with_capacity(Period::COUNT);
        for (pi, ps_struct) in self.periods.iter().enumerate() {
            // Step 2: S-U edge attribute fusion with capacity embeddings.
            let su_attr = if ps_struct.su_srcs.is_empty() {
                None
            } else {
                let base = g.constant_ref(&ps_struct.su_attr);
                match capacity {
                    Some(caps) if self.capacity_dim > 0 => {
                        let b_t = caps[pi];
                        let em_s = g.gather_rows(b_t, &ps_struct.su_s_regions);
                        let em_u = g.gather_rows(b_t, &ps_struct.su_u_regions);
                        Some(g.concat_cols(&[base, em_s, em_u]))
                    }
                    _ => Some(base),
                }
            };
            let ua_attr = if ps_struct.ua_srcs.is_empty() {
                None
            } else {
                Some(g.constant_ref(&ps_struct.ua_attr))
            };
            let sa_attr = if self.sa.s.is_empty() {
                None
            } else {
                Some(g.constant_ref(&self.sa.attr))
            };

            // Step 3: l rounds of node-level aggregation (Eqs. 7-9).
            let (mut h, mut z, mut q) = (h0, z0, q0);
            for (li, layer) in self.layers.iter().enumerate() {
                // Only h and q leave the loop, so the last layer's U-A
                // update (Aggre_UA and Eq. 8) would be dead tape: it feeds
                // nothing, receives no gradient and draws no randomness.
                let last = li + 1 == self.layers.len();
                let agg_su = if mean_agg {
                    layer
                        .su
                        .forward_mean(g, z, &ps_struct.su_srcs, &ps_struct.su_dsts)
                } else {
                    layer.su.forward(
                        g,
                        binds,
                        z,
                        h,
                        &ps_struct.su_srcs,
                        &ps_struct.su_dsts,
                        su_attr,
                    )
                };
                let agg_sa_s = if mean_agg {
                    layer.sa_to_s.forward_mean(g, q, &self.sa.a, &self.sa.s)
                } else {
                    layer
                        .sa_to_s
                        .forward(g, binds, q, h, &self.sa.a, &self.sa.s, sa_attr)
                };
                let agg_ua = (!last).then(|| {
                    if mean_agg {
                        layer
                            .ua
                            .forward_mean(g, q, &ps_struct.ua_srcs, &ps_struct.ua_dsts)
                    } else {
                        layer.ua.forward(
                            g,
                            binds,
                            q,
                            z,
                            &ps_struct.ua_srcs,
                            &ps_struct.ua_dsts,
                            ua_attr,
                        )
                    }
                });
                let agg_as = if mean_agg {
                    layer.sa_to_a.forward_mean(g, h, &self.sa.s, &self.sa.a)
                } else {
                    layer
                        .sa_to_a
                        .forward(g, binds, h, q, &self.sa.s, &self.sa.a, sa_attr)
                };

                // Eq. 7: h^l = σ(W_S (Aggre_SU + Aggre_SA + h^{l-1}))
                let s_sum = g.add_n(&[agg_su, agg_sa_s, h]);
                let s_lin = layer.w_s.forward(g, binds, s_sum);
                let h_next = g.relu(s_lin);
                // Eq. 8: z^l = σ(W_U (Aggre_UA + z^{l-1}))
                if let Some(agg_ua) = agg_ua {
                    let u_sum = g.add(agg_ua, z);
                    let u_lin = layer.w_u.forward(g, binds, u_sum);
                    z = g.relu(u_lin);
                }
                // Eq. 9: q^l = σ(W_A (Aggre_AS + q^{l-1}))
                let a_sum = g.add(agg_as, q);
                let a_lin = layer.w_a.forward(g, binds, a_sum);
                let q_next = g.relu(a_lin);
                h = h_next;
                q = q_next;
            }

            hs.push(h);
            qs.push(q);
        }
        (hs, qs)
    }
}

/// Pad (or materialize) rows to a fixed width; handles empty node sets.
fn pad_rows(rows: &[Vec<f32>], dim: usize) -> Vec<Vec<f32>> {
    if rows.is_empty() {
        vec![vec![0.0; dim.max(1)]]
    } else {
        rows.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siterec_graphs::{HeteroGraph, HeteroParams, SiteRecTask, Split};
    use siterec_sim::{O2oDataset, SimConfig};

    fn setup() -> (O2oDataset, Split, HeteroGraph) {
        let d = O2oDataset::generate(SimConfig::tiny(41));
        let s = Split::new(&d, 0.8, 3);
        let g = HeteroGraph::build(&d, &s, &HeteroParams::default());
        (d, s, g)
    }

    fn small_cfg() -> SiteRecConfig {
        SiteRecConfig {
            d2: 20,
            node_heads: 2,
            time_heads: 2,
            layers: 2,
            ..Default::default()
        }
    }

    #[test]
    fn forward_produces_unit_interval_predictions() {
        let (_, split, hg) = setup();
        let cfg = small_cfg();
        let mut ps = ParamStore::new(5);
        let model = HeteroModel::new(&mut ps, &hg, &cfg, 0);
        let mut g = Graph::new();
        g.training = false;
        let binds = ps.bind(&mut g);
        let pairs: Vec<(usize, usize)> = split
            .train
            .iter()
            .take(16)
            .map(|i| (hg.s_of_region[i.region].unwrap(), i.ty))
            .collect();
        let (ss, aa): (Vec<usize>, Vec<usize>) = pairs.into_iter().unzip();
        let (ss, aa) = model.pair_indices(ss, aa);
        let pred = model.forward(&mut g, &binds, None, &ss, &aa);
        let v = g.value(pred);
        assert_eq!(v.shape(), (16, 1));
        for &p in v.data() {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn variants_change_the_computation() {
        let (_, split, hg) = setup();
        let pairs: Vec<(usize, usize)> = split
            .train
            .iter()
            .take(8)
            .map(|i| (hg.s_of_region[i.region].unwrap(), i.ty))
            .collect();
        let (ss, aa): (Vec<usize>, Vec<usize>) = pairs.into_iter().unzip();

        let preds: Vec<Vec<f32>> = [
            Variant::Full,
            Variant::WithoutNodeAttention,
            Variant::WithoutTimeAttention,
        ]
        .iter()
        .map(|&variant| {
            let cfg = SiteRecConfig {
                variant,
                ..small_cfg()
            };
            let mut ps = ParamStore::new(5); // same init for all
            let model = HeteroModel::new(&mut ps, &hg, &cfg, 0);
            let mut g = Graph::new();
            g.training = false;
            let binds = ps.bind(&mut g);
            let (ss, aa) = model.pair_indices(ss.clone(), aa.clone());
            let pred = model.forward(&mut g, &binds, None, &ss, &aa);
            g.value(pred).data().to_vec()
        })
        .collect();
        assert_ne!(preds[0], preds[1], "w/o NA did not change outputs");
        assert_ne!(preds[0], preds[2], "w/o SA did not change outputs");
    }

    #[test]
    fn capacity_embeddings_feed_su_attributes() {
        let d = O2oDataset::generate(SimConfig::tiny(41));
        let task = SiteRecTask::build(&d, 0.8, 3);
        let cfg = small_cfg();
        let d1 = 6;
        let mut ps = ParamStore::new(5);
        let model = HeteroModel::new(&mut ps, &task.hetero, &cfg, 2 * d1);
        let mut g = Graph::new();
        g.training = false;
        let binds = ps.bind(&mut g);
        // Fake capacity embeddings: constants per period.
        let caps: Vec<Var> = (0..5)
            .map(|p| g.constant(Tensor::full(task.n_regions, d1, 0.1 * (p as f32 + 1.0))))
            .collect();
        let i = &task.split.train[0];
        let s = task.hetero.s_of_region[i.region].unwrap();
        let (ss, aa) = model.pair_indices(vec![s], vec![i.ty]);
        let pred = model.forward(&mut g, &binds, Some(&caps), &ss, &aa);
        assert_eq!(g.value(pred).shape(), (1, 1));
        assert!(g.value(pred).data()[0].is_finite());
    }
}
