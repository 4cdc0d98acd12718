//! Synthetic city: region profiles, POIs, road network.
//!
//! Region structure follows a classic monocentric-city shape: commercial and
//! office density decay from the center, residential density peaks in a
//! mid-ring. These latent densities drive POI counts, store placement,
//! courier supply, and customer demand — so downstream feature extraction
//! (POI set/diversity, traffic convenience) genuinely predicts order volume,
//! as it does in the paper's real data.

use crate::config::SimConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Poisson};
use siterec_geo::{CityGrid, LatLon, Period, RegionId};

/// Number of POI categories in the synthetic city.
pub const NUM_POI_TYPES: usize = 12;

/// POI category names (index = POI type id).
pub const POI_TYPE_NAMES: [&str; NUM_POI_TYPES] = [
    "restaurant",
    "office",
    "residence",
    "school",
    "mall",
    "hospital",
    "park",
    "subway",
    "hotel",
    "bank",
    "gym",
    "market",
];

/// Coarse geographic class of a region, used by the Fig. 14 experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionClass {
    /// Inner third by centrality.
    Downtown,
    /// Middle ring.
    Midtown,
    /// Outer third.
    Suburb,
}

/// Static profile of one grid region.
#[derive(Debug, Clone)]
pub struct RegionProfile {
    /// Distance from the city center, normalized to `[0, 1]`.
    pub centrality: f64,
    /// Commercial activity density (latent, `>= 0`).
    pub commercial: f64,
    /// Daytime (office) population density.
    pub office_pop: f64,
    /// Night-time (residential) population density.
    pub residential_pop: f64,
    /// POI counts per category (`NUM_POI_TYPES` entries).
    pub pois: Vec<u32>,
    /// Number of road intersections.
    pub intersections: u32,
    /// Number of road segments.
    pub roads: u32,
    /// Geographic class.
    pub class: RegionClass,
}

impl RegionProfile {
    /// Ambient customer population during `period` (people willing to order).
    ///
    /// Office population dominates the working day; residential population
    /// dominates evening and night — reproducing the paper's observation that
    /// "there are different population in the same area at different periods".
    pub fn population(&self, period: Period) -> f64 {
        let (wo, wr) = match period {
            Period::Morning => (0.75, 0.45),
            Period::NoonRush => (1.0, 0.35),
            Period::Afternoon => (0.8, 0.4),
            Period::EveningRush => (0.45, 1.0),
            Period::Night => (0.1, 0.75),
        };
        wo * self.office_pop + wr * self.residential_pop
    }
}

/// The synthetic city: a grid plus one [`RegionProfile`] per region.
#[derive(Debug, Clone)]
pub struct City {
    /// The grid partition (Definition 1).
    pub grid: CityGrid,
    /// Region profiles indexed by `RegionId.0`.
    pub regions: Vec<RegionProfile>,
}

impl City {
    /// Generate the city deterministically from `config`.
    pub fn generate(config: &SimConfig) -> City {
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0xC17E);
        let grid = CityGrid::new(
            LatLon::new(31.10, 121.35),
            config.cell_m,
            config.nx,
            config.ny,
        );
        let mut regions = Vec::with_capacity(grid.num_regions());
        for r in grid.regions() {
            regions.push(Self::gen_region(&grid, r, &mut rng));
        }
        siterec_obs::olog!(
            Debug,
            "city: {}x{} grid, {} regions generated",
            config.nx,
            config.ny,
            regions.len()
        );
        City { grid, regions }
    }

    fn gen_region(grid: &CityGrid, r: RegionId, rng: &mut StdRng) -> RegionProfile {
        let c = grid.centrality(r);
        let jitter = |rng: &mut StdRng, s: f64| 1.0 + s * (rng.gen::<f64>() - 0.5);

        let commercial = ((-2.2 * c).exp() + 0.08) * jitter(rng, 0.6);
        let office_pop = ((-3.0 * c).exp() + 0.04) * jitter(rng, 0.5);
        let mid = (c - 0.45) / 0.28;
        let residential_pop = ((-mid * mid).exp() * 0.9 + 0.12) * jitter(rng, 0.5);

        // POI intensities per category as mixtures of the three densities.
        let weights: [(f64, f64, f64, f64); NUM_POI_TYPES] = [
            // (base, commercial, office, residential) weights per category
            (0.5, 9.0, 2.0, 2.5),  // restaurant
            (0.2, 2.0, 10.0, 0.3), // office
            (0.8, 0.5, 0.2, 9.0),  // residence
            (0.2, 0.3, 0.4, 3.0),  // school
            (0.05, 5.0, 1.0, 0.8), // mall
            (0.05, 0.8, 0.8, 0.8), // hospital
            (0.2, 0.3, 0.2, 1.2),  // park
            (0.02, 3.0, 2.5, 0.6), // subway
            (0.05, 3.0, 1.6, 0.2), // hotel
            (0.1, 2.5, 3.0, 0.6),  // bank
            (0.1, 1.5, 1.0, 1.5),  // gym
            (0.3, 1.2, 0.3, 2.5),  // market
        ];
        let mut pois = Vec::with_capacity(NUM_POI_TYPES);
        for (base, wc, wo, wr) in weights {
            let lambda = base + wc * commercial + wo * office_pop + wr * residential_pop;
            let n = Poisson::new(lambda.max(1e-6))
                .expect("positive lambda")
                .sample(rng);
            pois.push(n as u32);
        }

        let road_density = 2.0 + 10.0 * commercial + 5.0 * residential_pop;
        let intersections = Poisson::new(road_density).expect("positive").sample(rng) as u32;
        let roads = intersections
            + Poisson::new(road_density * 1.4)
                .expect("positive")
                .sample(rng) as u32;

        let class = if c < 0.33 {
            RegionClass::Downtown
        } else if c < 0.66 {
            RegionClass::Midtown
        } else {
            RegionClass::Suburb
        };

        RegionProfile {
            centrality: c,
            commercial,
            office_pop,
            residential_pop,
            pois,
            intersections,
            roads,
            class,
        }
    }

    /// Profile of region `r`.
    pub fn profile(&self, r: RegionId) -> &RegionProfile {
        &self.regions[r.0]
    }

    /// Number of regions.
    pub fn num_regions(&self) -> usize {
        self.regions.len()
    }

    /// Regions belonging to a geographic class.
    pub fn regions_of_class(&self, class: RegionClass) -> Vec<RegionId> {
        self.grid
            .regions()
            .filter(|r| self.regions[r.0].class == class)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn city() -> City {
        City::generate(&SimConfig::tiny(11))
    }

    #[test]
    fn deterministic_under_seed() {
        let a = City::generate(&SimConfig::tiny(5));
        let b = City::generate(&SimConfig::tiny(5));
        assert_eq!(a.regions.len(), b.regions.len());
        for (x, y) in a.regions.iter().zip(&b.regions) {
            assert_eq!(x.pois, y.pois);
            assert_eq!(x.intersections, y.intersections);
        }
        let c = City::generate(&SimConfig::tiny(6));
        assert!(a
            .regions
            .iter()
            .zip(&c.regions)
            .any(|(x, y)| x.pois != y.pois));
    }

    #[test]
    fn downtown_is_denser_than_suburb() {
        let city = city();
        let avg = |class: RegionClass, f: &dyn Fn(&RegionProfile) -> f64| {
            let rs = city.regions_of_class(class);
            rs.iter().map(|r| f(city.profile(*r))).sum::<f64>() / rs.len() as f64
        };
        assert!(
            avg(RegionClass::Downtown, &|p| p.commercial)
                > avg(RegionClass::Suburb, &|p| p.commercial)
        );
        assert!(
            avg(RegionClass::Downtown, &|p| p.office_pop)
                > avg(RegionClass::Suburb, &|p| p.office_pop)
        );
    }

    #[test]
    fn every_class_is_populated() {
        let city = city();
        for class in [
            RegionClass::Downtown,
            RegionClass::Midtown,
            RegionClass::Suburb,
        ] {
            assert!(
                !city.regions_of_class(class).is_empty(),
                "no {class:?} regions"
            );
        }
    }

    #[test]
    fn population_shifts_between_periods() {
        let city = City::generate(&SimConfig::tiny(3));
        // Downtown (office-heavy) should lose relative population at night.
        let downtown = &city.regions_of_class(RegionClass::Downtown);
        let noon: f64 = downtown
            .iter()
            .map(|r| city.profile(*r).population(Period::NoonRush))
            .sum();
        let night: f64 = downtown
            .iter()
            .map(|r| city.profile(*r).population(Period::Night))
            .sum();
        assert!(noon > night);
    }

    #[test]
    fn poi_vectors_have_fixed_arity() {
        let city = city();
        for p in &city.regions {
            assert_eq!(p.pois.len(), NUM_POI_TYPES);
        }
    }
}
