//! Region-type heterogeneous multi-graph (paper Definition 4).
//!
//! Nodes: store-regions `S`, customer-regions `U`, store-types `A`.
//! Edges: `S-U` per period (delivery-scope interactions, built with the
//! paper's scope/order-ratio rule), static `S-A` (type presence, commercial
//! features), and `U-A` per period (customer preferences).
//!
//! All transaction-derived attributes are computed **only from training
//! orders** (see [`crate::Split::train_order_mask`]) so held-out labels never
//! leak into model inputs.

use crate::features::{competitiveness, region_features, Complementarity};
use crate::split::Split;
use siterec_geo::{Period, RegionId};
use siterec_sim::O2oDataset;
use std::collections::HashMap;

/// Construction parameters of the heterogeneous graph.
#[derive(Debug, Clone)]
pub struct HeteroParams {
    /// Minimum order ratio for an out-of-average-distance S-U edge
    /// (the paper "filters out regions with low order ratios").
    pub min_order_ratio: f64,
    /// Drop U-A edges with fewer transactions than this.
    pub min_ua_transactions: u32,
}

impl Default for HeteroParams {
    fn default() -> Self {
        HeteroParams {
            min_order_ratio: 0.02,
            min_ua_transactions: 1,
        }
    }
}

/// S-U edge: customer-region `u` lies in the delivery scope of store-region
/// `s` during a period. Attributes: distance and historical transactions
/// (both normalized).
#[derive(Debug, Clone, Copy)]
pub struct SuEdge {
    /// Store-region node index.
    pub s: usize,
    /// Customer-region node index.
    pub u: usize,
    /// Normalized distance.
    pub distance: f32,
    /// Normalized historical transaction count.
    pub transactions: f32,
}

/// S-A edge: stores of type `a` exist in store-region `s`. Attributes:
/// competitiveness, complementarity, historical order count (train-only).
#[derive(Debug, Clone, Copy)]
pub struct SaEdge {
    /// Store-region node index.
    pub s: usize,
    /// Store-type node index.
    pub a: usize,
    /// Competitiveness feature.
    pub competitiveness: f32,
    /// Complementarity feature (max-normalized).
    pub complementarity: f32,
    /// Normalized historical order count (0 for held-out pairs).
    pub history: f32,
}

/// U-A edge: customers of region `u` prefer type `a` in a period.
/// Attribute: transaction count (normalized).
#[derive(Debug, Clone, Copy)]
pub struct UaEdge {
    /// Customer-region node index.
    pub u: usize,
    /// Store-type node index.
    pub a: usize,
    /// Normalized transaction count.
    pub transactions: f32,
}

/// The region-type heterogeneous multi-graph.
#[derive(Debug, Clone)]
pub struct HeteroGraph {
    /// Region id of each store-region node.
    pub store_regions: Vec<usize>,
    /// Region id of each customer-region node.
    pub customer_regions: Vec<usize>,
    /// Number of store-type nodes.
    pub n_types: usize,
    /// Map region id -> store-region node index.
    pub s_of_region: Vec<Option<usize>>,
    /// Map region id -> customer-region node index.
    pub u_of_region: Vec<Option<usize>>,
    /// Geographic node attributes of store-regions (`f_s`).
    pub s_feat: Vec<Vec<f32>>,
    /// Geographic node attributes of customer-regions (`f_u`).
    pub u_feat: Vec<Vec<f32>>,
    /// Static S-A edges.
    pub sa_edges: Vec<SaEdge>,
    /// S-U edges per period.
    pub su_edges: Vec<Vec<SuEdge>>,
    /// U-A edges per period.
    pub ua_edges: Vec<Vec<UaEdge>>,
}

impl HeteroGraph {
    /// Build the graph from the dataset and a train/test split.
    pub fn build(data: &O2oDataset, split: &Split, params: &HeteroParams) -> HeteroGraph {
        let n_regions = data.num_regions();
        let n_types = data.num_types();
        let mask = split.train_order_mask(data);

        // --- node sets -----------------------------------------------------
        let store_regions: Vec<usize> = data.store_regions().iter().map(|r| r.0).collect();
        let mut s_of_region = vec![None; n_regions];
        for (i, &r) in store_regions.iter().enumerate() {
            s_of_region[r] = Some(i);
        }
        let mut u_seen = vec![false; n_regions];
        for (o, &m) in data.orders.iter().zip(&mask) {
            if m {
                u_seen[o.customer_region.0] = true;
            }
        }
        let customer_regions: Vec<usize> = (0..n_regions).filter(|&r| u_seen[r]).collect();
        let mut u_of_region = vec![None; n_regions];
        for (i, &r) in customer_regions.iter().enumerate() {
            u_of_region[r] = Some(i);
        }

        // --- node attributes -------------------------------------------------
        let feats = region_features(data);
        let s_feat: Vec<Vec<f32>> = store_regions.iter().map(|&r| feats[r].clone()).collect();
        let u_feat: Vec<Vec<f32>> = customer_regions.iter().map(|&r| feats[r].clone()).collect();

        // --- S-A edges -------------------------------------------------------
        let stores_rt = data.stores_per_region_type();
        let comp = Complementarity::new(&stores_rt, n_types);
        let mut train_count: HashMap<(usize, usize), u32> = HashMap::new();
        for i in &split.train {
            train_count.insert((i.region, i.ty), i.count);
        }
        let mut sa_edges = Vec::new();
        let mut max_cp = 1e-9f64;
        let mut raw_sa = Vec::new();
        for (si, &r) in store_regions.iter().enumerate() {
            for a in 0..n_types {
                if stores_rt[r][a] == 0 {
                    continue;
                }
                let cp = comp.score(&stores_rt[r], a);
                max_cp = max_cp.max(cp.abs());
                raw_sa.push((si, r, a, cp));
            }
        }
        for (si, r, a, cp) in raw_sa {
            let history = train_count
                .get(&(r, a))
                .map(|&c| c as f32 / split.max_count as f32)
                .unwrap_or(0.0);
            sa_edges.push(SaEdge {
                s: si,
                a,
                competitiveness: competitiveness(data, &stores_rt, RegionId(r), a) as f32,
                complementarity: (cp / max_cp) as f32,
                history,
            });
        }

        // --- per-period transaction aggregates (train orders only) ----------
        // region-pair transactions, per period, and per-store-region stats.
        let mut pair_tx: Vec<HashMap<(usize, usize), u32>> = vec![HashMap::new(); Period::COUNT];
        let mut ua_tx: Vec<HashMap<(usize, usize), u32>> = vec![HashMap::new(); Period::COUNT];
        let mut s_dist_sum = vec![[0.0f64; Period::COUNT]; n_regions];
        let mut s_dist_max = vec![[0.0f64; Period::COUNT]; n_regions];
        let mut s_orders = vec![[0u32; Period::COUNT]; n_regions];
        for (o, &m) in data.orders.iter().zip(&mask) {
            if !m {
                continue;
            }
            let pi = o.period().index();
            let (sr, cr) = (o.store_region.0, o.customer_region.0);
            *pair_tx[pi].entry((sr, cr)).or_insert(0) += 1;
            *ua_tx[pi].entry((cr, o.ty.0)).or_insert(0) += 1;
            s_dist_sum[sr][pi] += o.distance_m;
            s_dist_max[sr][pi] = s_dist_max[sr][pi].max(o.distance_m);
            s_orders[sr][pi] += 1;
        }

        // --- U-A edges -------------------------------------------------------
        let mut ua_edges: Vec<Vec<UaEdge>> = vec![Vec::new(); Period::COUNT];
        for pi in 0..Period::COUNT {
            let max_tx = ua_tx[pi].values().copied().max().unwrap_or(1).max(1) as f32;
            for (&(cr, a), &tx) in &ua_tx[pi] {
                if tx < params.min_ua_transactions {
                    continue;
                }
                if let Some(u) = u_of_region[cr] {
                    ua_edges[pi].push(UaEdge {
                        u,
                        a,
                        // sqrt-compress the heavy-tailed counts so the
                        // normalized attribute stays discriminative.
                        transactions: (tx as f32 / max_tx).sqrt(),
                    });
                }
            }
            ua_edges[pi].sort_by_key(|e| (e.u, e.a));
        }

        // --- S-U edges (the paper's scope rule) ------------------------------
        let max_dist = data.config.max_order_distance_m;
        let mut su_edges: Vec<Vec<SuEdge>> = vec![Vec::new(); Period::COUNT];
        for (pi, tx_map) in pair_tx.iter().enumerate() {
            let max_tx = tx_map.values().copied().max().unwrap_or(1).max(1) as f32;
            for (si, &sr) in store_regions.iter().enumerate() {
                if s_orders[sr][pi] == 0 {
                    continue;
                }
                let farthest = s_dist_max[sr][pi];
                let avg = s_dist_sum[sr][pi] / s_orders[sr][pi] as f64;
                let total = s_orders[sr][pi] as f64;
                // Candidates: customer-regions within the farthest observed
                // delivery distance of this store-region.
                let mut cand = data.city.grid.neighbors_within(RegionId(sr), farthest);
                cand.push(RegionId(sr));
                for c in cand {
                    let Some(u) = u_of_region[c.0] else { continue };
                    let d = data.city.grid.distance_m(RegionId(sr), c).max(150.0);
                    let tx = tx_map.get(&(sr, c.0)).copied().unwrap_or(0);
                    let keep = if d < avg {
                        true
                    } else {
                        tx as f64 / total >= params.min_order_ratio
                    };
                    if keep {
                        su_edges[pi].push(SuEdge {
                            s: si,
                            u,
                            distance: (d / max_dist) as f32,
                            transactions: (tx as f32 / max_tx).sqrt(),
                        });
                    }
                }
            }
        }

        HeteroGraph {
            store_regions,
            customer_regions,
            n_types,
            s_of_region,
            u_of_region,
            s_feat,
            u_feat,
            sa_edges,
            su_edges,
            ua_edges,
        }
    }

    /// Number of store-region nodes.
    pub fn num_s(&self) -> usize {
        self.store_regions.len()
    }

    /// Number of customer-region nodes.
    pub fn num_u(&self) -> usize {
        self.customer_regions.len()
    }

    /// Node-feature dimension.
    pub fn feat_dim(&self) -> usize {
        self.s_feat.first().map_or(0, Vec::len)
    }

    /// Drop all S-U and U-A edges (the `w/o CoCu` ablation variant).
    pub fn without_customer_edges(&self) -> HeteroGraph {
        let mut g = self.clone();
        g.su_edges = vec![Vec::new(); Period::COUNT];
        g.ua_edges = vec![Vec::new(); Period::COUNT];
        g
    }

    /// Rebuild S-U edges ignoring courier capacity: a plain distance rule
    /// (edge iff within the uncontrolled base scope), for the `w/o Co`
    /// variant.
    pub fn with_capacity_blind_su(&self, data: &O2oDataset, split: &Split) -> HeteroGraph {
        let mut g = self.clone();
        let mask = split.train_order_mask(data);
        let mut pair_tx: Vec<HashMap<(usize, usize), u32>> = vec![HashMap::new(); Period::COUNT];
        for (o, &m) in data.orders.iter().zip(&mask) {
            if m {
                *pair_tx[o.period().index()]
                    .entry((o.store_region.0, o.customer_region.0))
                    .or_insert(0) += 1;
            }
        }
        let max_dist = data.config.max_order_distance_m;
        let scope = data.config.base_scope_m;
        for (pi, tx_map) in pair_tx.iter().enumerate() {
            let max_tx = tx_map.values().copied().max().unwrap_or(1).max(1) as f32;
            let mut edges = Vec::new();
            for (si, &sr) in self.store_regions.iter().enumerate() {
                let mut cand = data.city.grid.neighbors_within(RegionId(sr), scope);
                cand.push(RegionId(sr));
                for c in cand {
                    let Some(u) = self.u_of_region[c.0] else {
                        continue;
                    };
                    let d = data.city.grid.distance_m(RegionId(sr), c).max(150.0);
                    if d > scope * 0.66 {
                        continue; // plain distance rule, no capacity signal
                    }
                    let tx = tx_map.get(&(sr, c.0)).copied().unwrap_or(0);
                    edges.push(SuEdge {
                        s: si,
                        u,
                        distance: (d / max_dist) as f32,
                        transactions: (tx as f32 / max_tx).sqrt(),
                    });
                }
            }
            g.su_edges[pi] = edges;
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siterec_sim::SimConfig;

    fn build() -> (O2oDataset, Split, HeteroGraph) {
        let d = O2oDataset::generate(SimConfig::tiny(19));
        let s = Split::new(&d, 0.8, 5);
        let g = HeteroGraph::build(&d, &s, &HeteroParams::default());
        (d, s, g)
    }

    #[test]
    fn node_maps_are_consistent() {
        let (_, _, g) = build();
        assert!(g.num_s() > 0 && g.num_u() > 0);
        for (i, &r) in g.store_regions.iter().enumerate() {
            assert_eq!(g.s_of_region[r], Some(i));
        }
        for (i, &r) in g.customer_regions.iter().enumerate() {
            assert_eq!(g.u_of_region[r], Some(i));
        }
        assert_eq!(g.s_feat.len(), g.num_s());
        assert_eq!(g.u_feat.len(), g.num_u());
    }

    #[test]
    fn sa_edges_match_store_presence_and_hide_test_labels() {
        let (d, s, g) = build();
        let stores_rt = d.stores_per_region_type();
        for e in &g.sa_edges {
            let r = g.store_regions[e.s];
            assert!(stores_rt[r][e.a] > 0, "S-A edge without store presence");
            assert!((0.0..=1.0).contains(&e.competitiveness));
            assert!(e.complementarity.abs() <= 1.0 + 1e-6);
            if s.is_test_pair(r, e.a) {
                assert_eq!(e.history, 0.0, "test label leaked into S-A history");
            }
        }
    }

    #[test]
    fn edges_reference_valid_nodes() {
        let (_, _, g) = build();
        for pi in 0..Period::COUNT {
            for e in &g.su_edges[pi] {
                assert!(e.s < g.num_s() && e.u < g.num_u());
                assert!(e.distance >= 0.0 && e.distance <= 1.2);
            }
            for e in &g.ua_edges[pi] {
                assert!(e.u < g.num_u() && e.a < g.n_types);
                assert!(e.transactions > 0.0 && e.transactions <= 1.0);
            }
            assert!(!g.su_edges[pi].is_empty(), "period {pi} has no S-U edges");
            assert!(!g.ua_edges[pi].is_empty(), "period {pi} has no U-A edges");
        }
    }

    #[test]
    fn su_edges_differ_across_periods() {
        let (_, _, g) = build();
        let n0 = g.su_edges[Period::NoonRush.index()].len();
        let n2 = g.su_edges[Period::Afternoon.index()].len();
        assert_ne!(n0, n2, "multi-graph collapsed to a single graph");
    }

    #[test]
    fn ablation_variants_change_structure() {
        let (d, s, g) = build();
        let no_cocu = g.without_customer_edges();
        assert!(no_cocu.su_edges.iter().all(Vec::is_empty));
        assert!(no_cocu.ua_edges.iter().all(Vec::is_empty));
        assert_eq!(no_cocu.sa_edges.len(), g.sa_edges.len());

        let blind = g.with_capacity_blind_su(&d, &s);
        // Capacity-blind S-U edges are identical across periods by design.
        let a = blind.su_edges[0].len();
        assert!(blind.su_edges.iter().all(|e| e.len() == a));
    }
}
