//! Region geographical graph (paper Definition 2).

use siterec_geo::CityGrid;

/// Geographic proximity graph: regions are nodes, edges connect regions whose
/// centers are closer than a threshold (800 m in the paper); the edge
/// attribute is the distance.
#[derive(Debug, Clone)]
pub struct GeoGraph {
    /// Number of region nodes.
    pub n_regions: usize,
    /// Directed edge list (both directions stored): `(from, to, distance_m)`.
    pub edges: Vec<(usize, usize, f32)>,
    /// `neighbors[r]` = indices into `edges` of edges *into* region `r`.
    pub in_edges: Vec<Vec<usize>>,
}

impl GeoGraph {
    /// Build from a grid with the given distance threshold.
    pub fn build(grid: &CityGrid, threshold_m: f64) -> GeoGraph {
        let n = grid.num_regions();
        let mut edges = Vec::new();
        let mut in_edges = vec![Vec::new(); n];
        for r in grid.regions() {
            for nb in grid.neighbors_within(r, threshold_m) {
                let d = grid.distance_m(nb, r) as f32;
                in_edges[r.0].push(edges.len());
                edges.push((nb.0, r.0, d));
            }
        }
        GeoGraph {
            n_regions: n,
            edges,
            in_edges,
        }
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Geographic in-neighbors of region `r` as `(neighbor, distance_m)`.
    pub fn neighbors(&self, r: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        self.in_edges[r].iter().map(|&e| {
            let (from, _, d) = self.edges[e];
            (from, d)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siterec_geo::LatLon;

    fn grid() -> CityGrid {
        CityGrid::new(LatLon::new(31.0, 121.3), 500.0, 6, 6)
    }

    #[test]
    fn edges_are_symmetric() {
        let g = GeoGraph::build(&grid(), 800.0);
        for &(a, b, d) in &g.edges {
            assert!(
                g.edges
                    .iter()
                    .any(|&(x, y, dd)| x == b && y == a && (dd - d).abs() < 1e-6),
                "missing reverse of ({a},{b})"
            );
        }
    }

    #[test]
    fn interior_node_has_eight_neighbors() {
        let g = GeoGraph::build(&grid(), 800.0);
        let grid = grid();
        let center = grid.region_at(3, 3);
        assert_eq!(g.neighbors(center.0).count(), 8);
    }

    #[test]
    fn distances_below_threshold() {
        let g = GeoGraph::build(&grid(), 800.0);
        for &(_, _, d) in &g.edges {
            assert!(d <= 800.0);
            assert!(d >= 500.0 - 1.0);
        }
    }

    #[test]
    fn zero_threshold_gives_empty_graph() {
        let g = GeoGraph::build(&grid(), 100.0);
        assert_eq!(g.num_edges(), 0);
    }
}
