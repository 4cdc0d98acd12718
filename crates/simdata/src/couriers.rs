//! Courier fleet and the supply side of the platform.
//!
//! The paper's key supply observation (§II-B) is that raw courier counts do
//! *not* measure capacity: both couriers and orders peak at rush hours, but
//! orders surge harder, so the supply-demand *ratio* dips exactly when the
//! city looks busiest. The fleet model reproduces this: courier head-count
//! follows a smooth shift schedule while demand follows sharp meal peaks.

use crate::city::City;
use crate::config::SimConfig;
use siterec_geo::{Period, RegionId};

/// Relative courier head-count on shift at local hour `h` (peak = 1.0).
///
/// Shifts ramp up mid-morning, stay high through the evening, and thin out at
/// night — a smooth curve, unlike demand.
pub fn hourly_supply_factor(h: u32) -> f64 {
    match h % 24 {
        0..=5 => 0.18,
        6..=8 => 0.55,
        9 => 0.8,
        10..=13 => 1.0,
        14..=15 => 0.75,
        16..=19 => 0.95,
        20..=21 => 0.6,
        _ => 0.3,
    }
}

/// Relative order-placement intensity at local hour `h` (peak = 1.0).
///
/// Sharp lunch (11–13) and dinner (17–19) peaks: the city orders food when
/// it is hungry, not when couriers are on shift.
pub fn hourly_demand_factor(h: u32) -> f64 {
    match h % 24 {
        0..=5 => 0.04,
        6..=8 => 0.22,
        9 => 0.3,
        10 => 0.55,
        11..=12 => 1.0,
        13 => 0.8,
        14..=15 => 0.3,
        16 => 0.5,
        17..=18 => 0.92,
        19 => 0.7,
        20..=21 => 0.35,
        _ => 0.12,
    }
}

/// Mean demand factor of a [`Period`] (average of its hours).
pub fn period_demand_factor(p: Period) -> f64 {
    let hours: &[u32] = match p {
        Period::Morning => &[6, 7, 8, 9],
        Period::NoonRush => &[10, 11, 12, 13],
        Period::Afternoon => &[14, 15],
        Period::EveningRush => &[16, 17, 18, 19],
        Period::Night => &[20, 21, 22, 23, 0, 1, 2, 3, 4, 5],
    };
    hours.iter().map(|&h| hourly_demand_factor(h)).sum::<f64>() / hours.len() as f64
}

/// Mean supply factor of a [`Period`].
pub fn period_supply_factor(p: Period) -> f64 {
    let hours: &[u32] = match p {
        Period::Morning => &[6, 7, 8, 9],
        Period::NoonRush => &[10, 11, 12, 13],
        Period::Afternoon => &[14, 15],
        Period::EveningRush => &[16, 17, 18, 19],
        Period::Night => &[20, 21, 22, 23, 0, 1, 2, 3, 4, 5],
    };
    hours.iter().map(|&h| hourly_supply_factor(h)).sum::<f64>() / hours.len() as f64
}

/// The courier supply state: per-region, per-period head-counts and
/// supply-demand ratios.
#[derive(Debug, Clone)]
pub struct CourierSupply {
    /// Active couriers in each region per period (fractional head-count).
    pub couriers: Vec<[f64; Period::COUNT]>,
    /// Supply-demand ratio per region per period (couriers / expected orders
    /// per hour); the paper's capacity proxy.
    pub ratio: Vec<[f64; Period::COUNT]>,
}

impl CourierSupply {
    /// Allocate the fleet over regions and periods.
    ///
    /// Couriers are staged where demand is expected, but *sub-linearly*
    /// (square-root allocation): dense downtown regions end up with a lower
    /// supply-demand ratio at rush hours — the congestion the paper observes.
    pub fn allocate(config: &SimConfig, city: &City) -> CourierSupply {
        let n = city.num_regions();
        let mut expected = vec![[0.0f64; Period::COUNT]; n];
        for (exp, profile) in expected.iter_mut().zip(&city.regions) {
            for p in Period::ALL {
                // Expected orders per hour in this region and period.
                exp[p.index()] =
                    profile.population(p) * period_demand_factor(p) * config.demand_scale;
            }
        }
        let mut couriers = vec![[0.0f64; Period::COUNT]; n];
        for p in Period::ALL {
            let pi = p.index();
            let weights: Vec<f64> = (0..n).map(|r| expected[r][pi].sqrt()).collect();
            let total_w: f64 = weights.iter().sum();
            let on_shift = config.fleet_size as f64 * period_supply_factor(p);
            for r in 0..n {
                couriers[r][pi] = on_shift * weights[r] / total_w.max(1e-12);
            }
        }
        let mut ratio = vec![[0.0f64; Period::COUNT]; n];
        for r in 0..n {
            for pi in 0..Period::COUNT {
                ratio[r][pi] = couriers[r][pi] / expected[r][pi].max(1e-6);
            }
        }
        CourierSupply { couriers, ratio }
    }

    /// Supply-demand ratio for a region and period.
    pub fn ratio_at(&self, r: RegionId, p: Period) -> f64 {
        self.ratio[r.0][p.index()]
    }

    /// Courier head-count for a region and period.
    pub fn couriers_at(&self, r: RegionId, p: Period) -> f64 {
        self.couriers[r.0][p.index()]
    }

    /// City-wide median supply-demand ratio (used as the reference point for
    /// congestion and pressure control).
    pub fn median_ratio(&self) -> f64 {
        let mut all: Vec<f64> = self
            .ratio
            .iter()
            .flat_map(|row| row.iter().copied())
            .filter(|x| x.is_finite())
            .collect();
        all.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        if all.is_empty() {
            1.0
        } else {
            all[all.len() / 2]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_dips_at_rush_hours() {
        // City-level: supply/demand at lunch must be lower than mid-afternoon
        // even though more couriers are on shift at lunch.
        let lunch = hourly_supply_factor(12) / hourly_demand_factor(12);
        let afternoon = hourly_supply_factor(15) / hourly_demand_factor(15);
        assert!(hourly_supply_factor(12) > hourly_supply_factor(15));
        assert!(lunch < afternoon, "lunch {lunch} vs afternoon {afternoon}");
    }

    #[test]
    fn period_factors_are_consistent_with_hourly() {
        for p in Period::ALL {
            assert!(period_demand_factor(p) > 0.0);
            assert!(period_supply_factor(p) > 0.0);
        }
        assert!(period_demand_factor(Period::NoonRush) > period_demand_factor(Period::Night));
    }

    #[test]
    fn allocation_spends_the_fleet() {
        let c = SimConfig::tiny(4);
        let city = City::generate(&c);
        let s = CourierSupply::allocate(&c, &city);
        for p in Period::ALL {
            let total: f64 = (0..city.num_regions())
                .map(|r| s.couriers[r][p.index()])
                .sum();
            let want = c.fleet_size as f64 * period_supply_factor(p);
            assert!((total - want).abs() < 1e-6, "{p:?}: {total} vs {want}");
        }
    }

    #[test]
    fn rush_ratio_lower_than_afternoon_per_region() {
        let c = SimConfig::tiny(4);
        let city = City::generate(&c);
        let s = CourierSupply::allocate(&c, &city);
        let mut lower = 0;
        let mut total = 0;
        for r in 0..city.num_regions() {
            let noon = s.ratio[r][Period::NoonRush.index()];
            let aft = s.ratio[r][Period::Afternoon.index()];
            if noon < aft {
                lower += 1;
            }
            total += 1;
        }
        assert!(
            lower as f64 > 0.9 * total as f64,
            "only {lower}/{total} regions have restrained rush capacity"
        );
    }

    #[test]
    fn median_ratio_is_positive_and_finite() {
        let c = SimConfig::tiny(4);
        let city = City::generate(&c);
        let s = CourierSupply::allocate(&c, &city);
        let m = s.median_ratio();
        assert!(m.is_finite() && m > 0.0);
    }
}
