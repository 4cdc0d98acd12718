//! Courier mobility multi-graph (paper Definition 3).

use crate::features::pairwise_delivery_times;
use siterec_geo::Period;
use siterec_sim::O2oDataset;

/// One mobility edge: couriers moved `from -> to` in a period, with the mean
/// observed delivery time as the attribute.
#[derive(Debug, Clone, Copy)]
pub struct MobilityEdge {
    /// Source region (store side).
    pub from: usize,
    /// Destination region (customer side).
    pub to: usize,
    /// Mean delivery time in minutes.
    pub minutes: f32,
    /// Number of supporting orders.
    pub support: u32,
}

/// The courier mobility multi-graph: one edge set per period.
#[derive(Debug, Clone)]
pub struct MobilityGraph {
    /// Number of region nodes.
    pub n_regions: usize,
    /// Edge sets indexed by [`Period::index`].
    pub edges: Vec<Vec<MobilityEdge>>,
    /// Normalization constant: the maximum mean delivery time across edges.
    pub max_minutes: f32,
}

impl MobilityGraph {
    /// Build from the order stream; pairs with fewer than `min_orders`
    /// supporting orders are dropped as noise.
    pub fn build(data: &O2oDataset, min_orders: usize) -> MobilityGraph {
        let mut edges: Vec<Vec<MobilityEdge>> = vec![Vec::new(); Period::COUNT];
        let mut max_minutes = 1.0f32;
        for (from, to, p, mins, support) in pairwise_delivery_times(data, min_orders) {
            let e = MobilityEdge {
                from,
                to,
                minutes: mins as f32,
                support: support as u32,
            };
            max_minutes = max_minutes.max(e.minutes);
            edges[p.index()].push(e);
        }
        MobilityGraph {
            n_regions: data.num_regions(),
            edges,
            max_minutes,
        }
    }

    /// Edge set of a period.
    pub fn period_edges(&self, p: Period) -> &[MobilityEdge] {
        &self.edges[p.index()]
    }

    /// Total directed edges across periods.
    pub fn num_edges(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }

    /// Mean delivery minutes normalized to `[0, 1]`.
    pub fn normalized_minutes(&self, e: &MobilityEdge) -> f32 {
        e.minutes / self.max_minutes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siterec_sim::SimConfig;

    fn graph() -> (O2oDataset, MobilityGraph) {
        let d = O2oDataset::generate(SimConfig::tiny(13));
        let g = MobilityGraph::build(&d, 2);
        (d, g)
    }

    #[test]
    fn every_period_has_edges() {
        let (_, g) = graph();
        for p in Period::ALL {
            assert!(!g.period_edges(p).is_empty(), "no mobility edges in {p:?}");
        }
    }

    #[test]
    fn normalization_bounds() {
        let (_, g) = graph();
        for p in Period::ALL {
            for e in g.period_edges(p) {
                let x = g.normalized_minutes(e);
                assert!((0.0..=1.0).contains(&x));
                assert!(e.support >= 2);
            }
        }
    }

    #[test]
    fn rush_edges_are_slower_on_average() {
        let (_, g) = graph();
        let mean = |p: Period| {
            let es = g.period_edges(p);
            es.iter().map(|e| e.minutes as f64).sum::<f64>() / es.len() as f64
        };
        assert!(
            mean(Period::NoonRush) > mean(Period::Afternoon),
            "noon {} vs afternoon {}",
            mean(Period::NoonRush),
            mean(Period::Afternoon)
        );
    }
}
