//! Courier capacity model (paper §III-D, Module 2).
//!
//! A multi-semantic relation graph attention network over the region
//! geographical graph and the courier mobility multi-graph:
//!
//! 1. *Geographic semantic aggregation* (Eqs. 2–3): distance-weighted
//!    neighbor averaging with residual connections. The paper's Eq. 2 writes
//!    `exp(dis(i,j))` inside the softmax, which would weight the *farthest*
//!    neighbor highest — contradicting its own motivation that "geographically
//!    adjacent regions have similar courier capacity". We implement
//!    `exp(-dis/scale)` (nearest-heaviest); both are pure constants, so the
//!    choice is a single line (`GEO_WEIGHT_SCALE_M`).
//! 2. *Mobility semantic aggregation* (Eq. 4): single-head GAT attention over
//!    each period's mobility edges.
//! 3. *Fusion and reconstruction* (Eqs. 5–6): the two views are fused per
//!    region; pairs of region embeddings form edge embeddings that are
//!    trained to reconstruct observed delivery times (L1 loss `O1`).
//!
//! The per-period edge embeddings `em^c_{ij,t}` are the capacity features
//! consumed by Module 3.

use siterec_graphs::{GeoGraph, MobilityGraph};
use siterec_tensor::nn::{Activation, Embedding, Linear};
use siterec_tensor::{Bindings, CatBlock, Graph, Index, Init, ParamId, ParamStore, Tensor, Var};
use std::sync::Arc;

/// Distance scale of the geographic softmax weights (the 800 m edge
/// threshold).
const GEO_WEIGHT_SCALE_M: f32 = 800.0;

/// Pre-computed constant structure of the geographic graph.
struct GeoStructure {
    /// Edge sources.
    srcs: Arc<Index>,
    /// Edge destinations.
    dsts: Arc<Index>,
    /// Softmax-normalized per-edge weights α_geo (constants, Eq. 2).
    alphas: Vec<f32>,
}

/// Pre-computed structure of one period's mobility edges (symmetrized for
/// aggregation; the directed originals are kept for reconstruction).
struct MobStructure {
    /// Symmetrized aggregation edges.
    agg_srcs: Arc<Index>,
    agg_dsts: Arc<Index>,
    /// Directed reconstruction edges.
    rec_srcs: Arc<Index>,
    rec_dsts: Arc<Index>,
    /// Normalized delivery-time targets, one per reconstruction edge.
    targets: Tensor,
}

/// The courier capacity model.
pub struct CapacityModel {
    /// Initial region embeddings `b⁰` (`n_regions x d1`).
    pub b0: Embedding,
    /// GAT attention vector ψ (`2·d1 x 1`).
    pub psi: ParamId,
    /// Fusion weight `W_b` (`2·d1 -> d1`, Eq. 5).
    pub w_b: Linear,
    /// Delivery-time head `W_1` (`2·d1 -> 1`).
    pub w_dt: Linear,
    /// Capacity embedding size (`d1`).
    pub d1: usize,
    geo_layers: usize,
    geo: GeoStructure,
    mob: Vec<MobStructure>,
}

/// Per-period capacity embeddings plus the auxiliary loss.
pub struct CapacityOutput {
    /// `b^t`: region embeddings per period (`n_regions x d1` each).
    pub period_embeddings: Vec<Var>,
    /// The `O1` reconstruction loss (scalar), already averaged over edges.
    pub o1: Var,
}

impl CapacityModel {
    /// Build the model and pre-compute graph structure.
    pub fn new(
        ps: &mut ParamStore,
        n_regions: usize,
        d1: usize,
        geo_layers: usize,
        geo: &GeoGraph,
        mobility: &MobilityGraph,
    ) -> CapacityModel {
        let b0 = Embedding::new(ps, "capacity.b0", n_regions, d1);
        let psi = ps.add("capacity.psi", 2 * d1, 1, Init::XavierUniform);
        let w_b = Linear::new(ps, "capacity.w_b", 2 * d1, d1);
        let w_dt = Linear::new(ps, "capacity.w_dt", 2 * d1, 1);

        // Geographic structure: per-destination softmax of exp(-d / scale).
        let mut srcs = Vec::with_capacity(geo.edges.len());
        let mut dsts = Vec::with_capacity(geo.edges.len());
        let mut raw = Vec::with_capacity(geo.edges.len());
        for &(s, d, dist) in &geo.edges {
            srcs.push(s);
            dsts.push(d);
            raw.push((-dist / GEO_WEIGHT_SCALE_M).exp());
        }
        let mut denom = vec![0.0f32; n_regions];
        for (i, &d) in dsts.iter().enumerate() {
            denom[d] += raw[i];
        }
        let alphas: Vec<f32> = raw
            .iter()
            .zip(&dsts)
            .map(|(&w, &d)| w / denom[d].max(1e-12))
            .collect();
        let geo = GeoStructure {
            srcs: Index::new(srcs, n_regions),
            dsts: Index::new(dsts, n_regions),
            alphas,
        };

        let mob = mobility
            .edges
            .iter()
            .map(|edges| {
                let mut agg_srcs = Vec::with_capacity(edges.len() * 2);
                let mut agg_dsts = Vec::with_capacity(edges.len() * 2);
                let mut rec_srcs = Vec::with_capacity(edges.len());
                let mut rec_dsts = Vec::with_capacity(edges.len());
                let mut targets = Vec::with_capacity(edges.len());
                for e in edges {
                    agg_srcs.push(e.from);
                    agg_dsts.push(e.to);
                    agg_srcs.push(e.to);
                    agg_dsts.push(e.from);
                    rec_srcs.push(e.from);
                    rec_dsts.push(e.to);
                    targets.push(mobility.normalized_minutes(e));
                }
                MobStructure {
                    agg_srcs: Index::new(agg_srcs, n_regions),
                    agg_dsts: Index::new(agg_dsts, n_regions),
                    rec_srcs: Index::new(rec_srcs, n_regions),
                    rec_dsts: Index::new(rec_dsts, n_regions),
                    targets: Tensor::column(&targets),
                }
            })
            .collect();

        CapacityModel {
            b0,
            psi,
            w_b,
            w_dt,
            d1,
            geo_layers,
            geo,
            mob,
        }
    }

    /// Number of regions.
    pub fn n_regions(&self) -> usize {
        self.b0.num
    }

    /// Full forward pass: geographic aggregation (shared), per-period
    /// mobility aggregation, fusion, and delivery-time reconstruction.
    pub fn forward(&self, g: &mut Graph, binds: &Bindings) -> CapacityOutput {
        let b0 = self.b0.all(binds);

        // --- geographic semantic aggregation (Eqs. 2-3) -------------------
        let mut bg = b0;
        for _ in 0..self.geo_layers {
            let msgs = g.gather_rows(bg, &self.geo.srcs);
            let weighted = g.scale_rows_const(msgs, &self.geo.alphas);
            let agg = g.segment_sum(weighted, &self.geo.dsts);
            let act = g.relu(agg);
            bg = g.add(act, bg); // σ(Σ α b) + b^{l-1}
        }

        // --- per-period mobility aggregation + fusion (Eqs. 4-5) ----------
        let psi = binds.var(self.psi);
        let mut period_embeddings = Vec::with_capacity(self.mob.len());
        let mut o1_terms: Vec<(Var, usize)> = Vec::new();
        for mob in &self.mob {
            let bs = if mob.agg_srcs.is_empty() {
                b0
            } else {
                let src_e = g.gather_rows(b0, &mob.agg_srcs);
                let dst_e = g.gather_rows(b0, &mob.agg_dsts);
                let pair = g.concat_cols(&[src_e, dst_e]);
                let raw = g.matmul(pair, psi);
                let score = g.leaky_relu(raw, 0.2);
                let alpha = g.segment_softmax(score, &mob.agg_dsts);
                let weighted = g.mul_col_broadcast(src_e, alpha);
                let agg = g.segment_sum(weighted, &mob.agg_dsts);
                let act = g.relu(agg);
                g.add(act, b0) // σ(Σ α b) + b⁰
            };
            let fused_in = [CatBlock::Plain(bg), CatBlock::Plain(bs)];
            let bt = self.w_b.forward_cat(g, binds, &fused_in, Activation::Relu); // Eq. 5
            period_embeddings.push(bt);

            // --- reconstruction (Eq. 6) -----------------------------------
            if !mob.rec_srcs.is_empty() {
                // em = [b_i, b_j] per reconstruction edge, fused into W_1.
                let em = [
                    CatBlock::Gather(bt, &mob.rec_srcs),
                    CatBlock::Gather(bt, &mob.rec_dsts),
                ];
                let dt_hat = self.w_dt.forward_cat(g, binds, &em, Activation::Sigmoid);
                let loss = g.l1_loss(dt_hat, &mob.targets);
                o1_terms.push((loss, mob.rec_srcs.len()));
            }
        }

        // Weighted mean of per-period L1 losses = global mean over edges.
        let total: usize = o1_terms.iter().map(|&(_, n)| n).sum();
        let o1 = if total == 0 {
            g.constant(Tensor::scalar(0.0))
        } else {
            let scaled: Vec<Var> = o1_terms
                .iter()
                .map(|&(l, n)| g.scale(l, n as f32 / total as f32))
                .collect();
            g.add_n(&scaled)
        };

        CapacityOutput {
            period_embeddings,
            o1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siterec_graphs::{GeoGraph, MobilityGraph, GEO_THRESHOLD_M, MOBILITY_MIN_ORDERS};
    use siterec_sim::{O2oDataset, SimConfig};
    use siterec_tensor::optim::{Adam, Optimizer};

    fn world() -> (O2oDataset, GeoGraph, MobilityGraph) {
        let d = O2oDataset::generate(SimConfig::tiny(23));
        let geo = GeoGraph::build(&d.city.grid, GEO_THRESHOLD_M);
        let mob = MobilityGraph::build(&d, MOBILITY_MIN_ORDERS);
        (d, geo, mob)
    }

    #[test]
    fn forward_shapes_and_finite_loss() {
        let (d, geo, mob) = world();
        let mut ps = ParamStore::new(1);
        let m = CapacityModel::new(&mut ps, d.num_regions(), 20, 2, &geo, &mob);
        let mut g = Graph::new();
        let binds = ps.bind(&mut g);
        let out = m.forward(&mut g, &binds);
        assert_eq!(out.period_embeddings.len(), 5);
        for &e in &out.period_embeddings {
            assert_eq!(g.value(e).shape(), (d.num_regions(), 20));
        }
        let o1 = g.value(out.o1).item();
        assert!(o1.is_finite() && o1 >= 0.0);
    }

    #[test]
    fn o1_decreases_under_training() {
        let (d, geo, mob) = world();
        let mut ps = ParamStore::new(2);
        let m = CapacityModel::new(&mut ps, d.num_regions(), 16, 2, &geo, &mob);
        let mut opt = Adam::new(5e-3);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..40 {
            let mut g = Graph::new();
            let binds = ps.bind(&mut g);
            let out = m.forward(&mut g, &binds);
            last = g.value(out.o1).item();
            first.get_or_insert(last);
            g.backward(out.o1);
            ps.zero_grads();
            ps.harvest(&g, &binds);
            opt.step(&mut ps);
        }
        let first = first.unwrap();
        assert!(last < first * 0.85, "O1 did not improve: {first} -> {last}");
    }

    #[test]
    fn period_embeddings_differ_between_periods() {
        let (d, geo, mob) = world();
        let mut ps = ParamStore::new(3);
        let m = CapacityModel::new(&mut ps, d.num_regions(), 12, 1, &geo, &mob);
        let mut g = Graph::new();
        let binds = ps.bind(&mut g);
        let out = m.forward(&mut g, &binds);
        let noon = g.value(out.period_embeddings[1]).clone();
        let afternoon = g.value(out.period_embeddings[2]).clone();
        assert!(
            !noon.approx_eq(&afternoon, 1e-6),
            "periods collapsed to the same embedding"
        );
    }

    #[test]
    fn geo_alphas_sum_to_one_per_region() {
        let (d, geo, mob) = world();
        let mut ps = ParamStore::new(4);
        let m = CapacityModel::new(&mut ps, d.num_regions(), 8, 1, &geo, &mob);
        let mut sums = vec![0.0f32; d.num_regions()];
        for (i, &dst) in m.geo.dsts.ids().iter().enumerate() {
            sums[dst] += m.geo.alphas[i];
        }
        for (r, &s) in sums.iter().enumerate() {
            // Regions with no geo neighbors have sum 0 (impossible on a grid).
            assert!((s - 1.0).abs() < 1e-4, "region {r} alpha sum {s}");
        }
    }

    #[test]
    fn nearer_neighbors_get_higher_geo_weight() {
        let (d, geo, mob) = world();
        let mut ps = ParamStore::new(5);
        let m = CapacityModel::new(&mut ps, d.num_regions(), 8, 1, &geo, &mob);
        // Find a destination with both a 500 m and a ~707 m neighbor.
        for r in 0..d.num_regions() {
            let mut near = None;
            let mut far = None;
            for (i, &dst) in m.geo.dsts.ids().iter().enumerate() {
                if dst != r {
                    continue;
                }
                let (_, _, dist) = geo.edges[i];
                if (dist - 500.0).abs() < 1.0 {
                    near = Some(m.geo.alphas[i]);
                }
                if dist > 700.0 {
                    far = Some(m.geo.alphas[i]);
                }
            }
            if let (Some(n), Some(f)) = (near, far) {
                assert!(n > f, "near {n} should outweigh far {f}");
                return;
            }
        }
        panic!("no region with mixed-distance neighbors found");
    }
}
