//! Store types and store placement.

use crate::city::City;
use crate::config::SimConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, LogNormal};
use siterec_geo::{Period, RegionId};

/// Index of a store type (paper: 122 types; we use a configurable prefix of
/// the catalog below).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StoreTypeId(pub usize);

/// Index of a store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StoreId(pub usize);

/// Static description of a store type.
#[derive(Debug, Clone)]
pub struct StoreType {
    /// Human-readable name.
    pub name: String,
    /// Relative global popularity (sums to anything; normalized at use).
    pub popularity: f64,
    /// Demand affinity per [`Period`] (Morning, NoonRush, Afternoon,
    /// EveningRush, Night) — reproduces Fig. 5's period-dependent top types.
    pub period_affinity: [f64; 5],
    /// 1.0 = placed purely by commercial density, 0.0 = purely residential.
    pub commercial_bias: f64,
}

/// Catalog entries: (name, popularity, period affinity, commercial bias).
/// The first six entries after the staples are the Fig. 12/13 showcase types.
const CATALOG: &[(&str, f64, [f64; 5], f64)] = &[
    ("light meal", 1.00, [0.5, 1.0, 0.4, 0.9, 0.3], 0.8),
    ("fried chicken", 0.75, [0.1, 0.6, 0.4, 1.0, 0.8], 0.6),
    ("light salad", 0.45, [0.3, 1.0, 0.5, 0.7, 0.2], 0.9),
    ("fruit", 0.55, [0.4, 0.5, 1.0, 0.8, 0.4], 0.4),
    ("steamed bun", 0.50, [1.0, 0.4, 0.1, 0.3, 0.1], 0.5),
    ("juice", 0.40, [0.3, 0.7, 1.0, 0.7, 0.3], 0.7),
    ("coffee", 0.70, [0.9, 0.8, 1.0, 0.5, 0.2], 0.95),
    ("snack", 0.60, [0.2, 0.6, 0.9, 0.8, 0.9], 0.6),
    ("noodles", 0.65, [0.4, 1.0, 0.3, 0.9, 0.4], 0.6),
    ("bbq", 0.45, [0.0, 0.3, 0.2, 0.8, 1.0], 0.5),
    ("dessert", 0.42, [0.2, 0.5, 1.0, 0.7, 0.6], 0.8),
    ("bubble tea", 0.68, [0.3, 0.9, 1.0, 0.9, 0.5], 0.8),
    ("congee", 0.30, [1.0, 0.3, 0.1, 0.3, 0.4], 0.4),
    ("pizza", 0.38, [0.1, 0.8, 0.4, 1.0, 0.5], 0.7),
    ("sushi", 0.33, [0.1, 0.9, 0.3, 0.9, 0.3], 0.85),
    ("hotpot", 0.36, [0.0, 0.5, 0.2, 1.0, 0.7], 0.6),
    ("dumplings", 0.40, [0.7, 0.9, 0.2, 0.8, 0.3], 0.5),
    ("bakery", 0.48, [0.9, 0.6, 0.8, 0.7, 0.2], 0.75),
    ("porridge", 0.25, [0.9, 0.4, 0.1, 0.4, 0.5], 0.4),
    ("sandwiches", 0.35, [0.8, 0.9, 0.5, 0.5, 0.2], 0.9),
    ("curry", 0.28, [0.1, 0.9, 0.3, 0.9, 0.3], 0.7),
    ("grill fish", 0.26, [0.0, 0.4, 0.1, 0.9, 0.9], 0.5),
    ("vegetarian", 0.22, [0.3, 0.9, 0.4, 0.7, 0.2], 0.8),
    ("seafood", 0.24, [0.0, 0.5, 0.2, 1.0, 0.6], 0.55),
];

/// Build the store-type table for a config (first `n_store_types` catalog
/// entries, cycling with dampened popularity if more are requested).
pub fn build_store_types(config: &SimConfig) -> Vec<StoreType> {
    (0..config.n_store_types)
        .map(|i| {
            let (name, pop, aff, bias) = CATALOG[i % CATALOG.len()];
            let cycle = i / CATALOG.len();
            StoreType {
                name: if cycle == 0 {
                    name.to_string()
                } else {
                    format!("{name} #{cycle}")
                },
                popularity: pop / (1.0 + cycle as f64),
                period_affinity: aff,
                commercial_bias: bias,
            }
        })
        .collect()
}

/// One store on the platform.
#[derive(Debug, Clone)]
pub struct Store {
    /// Stable id.
    pub id: StoreId,
    /// Home region.
    pub region: RegionId,
    /// Store type.
    pub ty: StoreTypeId,
    /// Latent quality/attractiveness multiplier (log-normal around 1).
    pub quality: f64,
}

/// Place `config.n_stores` stores over the city.
///
/// A store picks its type proportional to type popularity and its region
/// proportional to a type-dependent blend of commercial and residential
/// density — so store supply concentrates downtown, like the real platform.
pub fn place_stores(config: &SimConfig, city: &City, types: &[StoreType]) -> Vec<Store> {
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5704E5);
    let quality_dist = LogNormal::new(0.0, 0.35).expect("valid lognormal");

    let type_weights: Vec<f64> = types.iter().map(|t| t.popularity).collect();
    let mut stores = Vec::with_capacity(config.n_stores);
    for i in 0..config.n_stores {
        let ty = sample_weighted(&mut rng, &type_weights);
        let bias = types[ty].commercial_bias;
        let region_weights: Vec<f64> = city
            .regions
            .iter()
            .map(|p| bias * p.commercial + (1.0 - bias) * p.residential_pop + 0.01)
            .collect();
        let region = sample_weighted(&mut rng, &region_weights);
        stores.push(Store {
            id: StoreId(i),
            region: RegionId(region),
            ty: StoreTypeId(ty),
            quality: quality_dist.sample(&mut rng),
        });
    }
    stores
}

/// Demand weight of type `ty` during `period` (popularity × affinity).
pub fn type_period_weight(types: &[StoreType], ty: StoreTypeId, period: Period) -> f64 {
    let t = &types[ty.0];
    t.popularity * t.period_affinity[period.index()]
}

/// Sample an index proportional to non-negative `weights`.
pub(crate) fn sample_weighted(rng: &mut StdRng, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "all-zero weight vector");
    let mut x = rng.gen::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        x -= w;
        if x <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::city::RegionClass;

    #[test]
    fn catalog_contains_showcase_types() {
        let types = build_store_types(&SimConfig::real_world_like(1));
        let names: Vec<&str> = types.iter().map(|t| t.name.as_str()).collect();
        for want in [
            "light meal",
            "light salad",
            "fruit",
            "steamed bun",
            "juice",
            "fried chicken",
        ] {
            assert!(names.contains(&want), "missing {want}");
        }
    }

    #[test]
    fn type_count_matches_config_even_beyond_catalog() {
        let mut c = SimConfig::tiny(1);
        c.n_store_types = 60;
        let types = build_store_types(&c);
        assert_eq!(types.len(), 60);
        // Cycled entries are distinct by name and less popular.
        assert_ne!(types[0].name, types[24].name);
        assert!(types[24].popularity < types[0].popularity);
    }

    #[test]
    fn stores_deterministic_and_fully_placed() {
        let c = SimConfig::tiny(9);
        let city = City::generate(&c);
        let types = build_store_types(&c);
        let a = place_stores(&c, &city, &types);
        let b = place_stores(&c, &city, &types);
        assert_eq!(a.len(), c.n_stores);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.region, y.region);
            assert_eq!(x.ty, y.ty);
        }
        for s in &a {
            assert!(s.region.0 < city.num_regions());
            assert!(s.ty.0 < types.len());
            assert!(s.quality > 0.0);
        }
    }

    #[test]
    fn stores_concentrate_downtown() {
        let c = SimConfig::real_world_like(2);
        let city = City::generate(&c);
        let types = build_store_types(&c);
        let stores = place_stores(&c, &city, &types);
        let count = |class: RegionClass| {
            let rs = city.regions_of_class(class);
            let n = stores.iter().filter(|s| rs.contains(&s.region)).count();
            n as f64 / rs.len() as f64
        };
        assert!(count(RegionClass::Downtown) > count(RegionClass::Suburb));
    }

    #[test]
    fn breakfast_type_peaks_in_morning() {
        let types = build_store_types(&SimConfig::real_world_like(1));
        let bun = StoreTypeId(
            types
                .iter()
                .position(|t| t.name == "steamed bun")
                .expect("steamed bun in catalog"),
        );
        let morning = type_period_weight(&types, bun, Period::Morning);
        for p in [
            Period::NoonRush,
            Period::Afternoon,
            Period::EveningRush,
            Period::Night,
        ] {
            assert!(morning > type_period_weight(&types, bun, p));
        }
    }

    #[test]
    fn weighted_sampling_respects_weights() {
        let mut rng = StdRng::seed_from_u64(3);
        let w = [0.0, 10.0, 0.0];
        for _ in 0..50 {
            assert_eq!(sample_weighted(&mut rng, &w), 1);
        }
        let w2 = [1.0, 1.0];
        let mut counts = [0usize; 2];
        for _ in 0..2000 {
            counts[sample_weighted(&mut rng, &w2)] += 1;
        }
        assert!(counts[0] > 800 && counts[1] > 800, "{counts:?}");
    }
}
