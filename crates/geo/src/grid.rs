//! City grid partition (paper Definition 1).
//!
//! The city is a `nx x ny` lattice of square regions of side `cell_m`
//! (ξ = 500 m in the paper). Regions are identified by [`RegionId`] in
//! row-major order.

use crate::latlon::LatLon;

/// Index of a region in a [`CityGrid`] (row-major).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub usize);

/// A rectangular grid partition of the city.
#[derive(Debug, Clone)]
pub struct CityGrid {
    /// South-west corner of cell (0, 0).
    pub origin: LatLon,
    /// Side length of each square cell in meters (ξ).
    pub cell_m: f64,
    /// Number of columns (west→east).
    pub nx: usize,
    /// Number of rows (south→north).
    pub ny: usize,
}

impl CityGrid {
    /// New grid anchored at `origin`.
    pub fn new(origin: LatLon, cell_m: f64, nx: usize, ny: usize) -> Self {
        assert!(cell_m > 0.0 && nx > 0 && ny > 0, "degenerate grid");
        CityGrid {
            origin,
            cell_m,
            nx,
            ny,
        }
    }

    /// Total number of regions.
    pub fn num_regions(&self) -> usize {
        self.nx * self.ny
    }

    /// Region at grid coordinates `(x, y)`.
    pub fn region_at(&self, x: usize, y: usize) -> RegionId {
        debug_assert!(x < self.nx && y < self.ny);
        RegionId(y * self.nx + x)
    }

    /// Grid coordinates `(x, y)` of a region.
    pub fn coords(&self, r: RegionId) -> (usize, usize) {
        debug_assert!(r.0 < self.num_regions());
        (r.0 % self.nx, r.0 / self.nx)
    }

    /// Geographic center of a region.
    pub fn center(&self, r: RegionId) -> LatLon {
        let (x, y) = self.coords(r);
        self.origin.offset_m(
            (x as f64 + 0.5) * self.cell_m,
            (y as f64 + 0.5) * self.cell_m,
        )
    }

    /// Euclidean distance between region centers in meters, computed on the
    /// grid plane (exact for the synthetic city; avoids trig in hot loops).
    pub fn distance_m(&self, a: RegionId, b: RegionId) -> f64 {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        let dx = (ax as f64 - bx as f64) * self.cell_m;
        let dy = (ay as f64 - by as f64) * self.cell_m;
        (dx * dx + dy * dy).sqrt()
    }

    /// Region containing a point, if inside the grid.
    pub fn locate(&self, p: &LatLon) -> Option<RegionId> {
        // Invert the tangent-plane offset used by `center`.
        let north_m = (p.lat - self.origin.lat).to_radians() * crate::latlon::EARTH_RADIUS_M;
        let east_m = (p.lon - self.origin.lon).to_radians()
            * crate::latlon::EARTH_RADIUS_M
            * self.origin.lat.to_radians().cos();
        if east_m < 0.0 || north_m < 0.0 {
            return None;
        }
        let x = (east_m / self.cell_m) as usize;
        let y = (north_m / self.cell_m) as usize;
        if x < self.nx && y < self.ny {
            Some(self.region_at(x, y))
        } else {
            None
        }
    }

    /// All regions within `radius_m` of `r` (center-to-center), excluding `r`.
    pub fn neighbors_within(&self, r: RegionId, radius_m: f64) -> Vec<RegionId> {
        let (cx, cy) = self.coords(r);
        let reach = (radius_m / self.cell_m).ceil() as isize;
        let mut out = Vec::new();
        for dy in -reach..=reach {
            for dx in -reach..=reach {
                if dx == 0 && dy == 0 {
                    continue;
                }
                let x = cx as isize + dx;
                let y = cy as isize + dy;
                if x < 0 || y < 0 || x as usize >= self.nx || y as usize >= self.ny {
                    continue;
                }
                let n = self.region_at(x as usize, y as usize);
                if self.distance_m(r, n) <= radius_m {
                    out.push(n);
                }
            }
        }
        out
    }

    /// Iterate over all region ids.
    pub fn regions(&self) -> impl Iterator<Item = RegionId> {
        (0..self.num_regions()).map(RegionId)
    }

    /// Normalized distance from the grid center in `[0, 1]` along the longer
    /// half-diagonal — 0 at the exact center ("downtown"), 1 at the corners.
    pub fn centrality(&self, r: RegionId) -> f64 {
        let (x, y) = self.coords(r);
        let cx = (self.nx as f64 - 1.0) / 2.0;
        let cy = (self.ny as f64 - 1.0) / 2.0;
        let dx = x as f64 - cx;
        let dy = y as f64 - cy;
        let max = (cx * cx + cy * cy).sqrt().max(1e-9);
        ((dx * dx + dy * dy).sqrt() / max).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> CityGrid {
        CityGrid::new(LatLon::new(31.0, 121.3), 500.0, 10, 8)
    }

    #[test]
    fn region_roundtrip() {
        let g = grid();
        for y in 0..8 {
            for x in 0..10 {
                let r = g.region_at(x, y);
                assert_eq!(g.coords(r), (x, y));
            }
        }
        assert_eq!(g.num_regions(), 80);
    }

    #[test]
    fn distance_between_adjacent_cells_is_cell_size() {
        let g = grid();
        let a = g.region_at(2, 3);
        let b = g.region_at(3, 3);
        assert!((g.distance_m(a, b) - 500.0).abs() < 1e-9);
        let c = g.region_at(3, 4);
        assert!((g.distance_m(a, c) - 500.0 * 2f64.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn locate_center_returns_same_region() {
        let g = grid();
        for r in g.regions() {
            let c = g.center(r);
            assert_eq!(g.locate(&c), Some(r), "region {r:?}");
        }
    }

    #[test]
    fn locate_outside_is_none() {
        let g = grid();
        assert_eq!(g.locate(&LatLon::new(30.0, 121.3)), None);
        assert_eq!(g.locate(&LatLon::new(31.0, 120.0)), None);
    }

    #[test]
    fn neighbors_within_800m_matches_paper_threshold() {
        // With 500 m cells, an 800 m threshold catches the 4-neighborhood
        // (500 m) and the diagonals (707 m), but not 2-step neighbors (1000 m).
        let g = grid();
        let r = g.region_at(5, 4);
        let n = g.neighbors_within(r, 800.0);
        assert_eq!(n.len(), 8);
        let far = g.region_at(7, 4);
        assert!(!n.contains(&far));
    }

    #[test]
    fn neighbors_respect_borders() {
        let g = grid();
        let corner = g.region_at(0, 0);
        let n = g.neighbors_within(corner, 800.0);
        assert_eq!(n.len(), 3);
    }

    #[test]
    fn centrality_zero_at_center_one_at_corner() {
        let g = CityGrid::new(LatLon::new(31.0, 121.3), 500.0, 9, 9);
        let center = g.region_at(4, 4);
        assert!(g.centrality(center) < 1e-9);
        let corner = g.region_at(0, 0);
        assert!((g.centrality(corner) - 1.0).abs() < 1e-9);
        let mid = g.region_at(2, 4);
        assert!(g.centrality(mid) > 0.0 && g.centrality(mid) < 1.0);
    }
}
