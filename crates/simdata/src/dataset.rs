//! The assembled synthetic dataset and its aggregate statistics.

use crate::city::City;
use crate::config::SimConfig;
use crate::couriers::{hourly_supply_factor, CourierSupply};
use crate::delivery::DeliveryModel;
use crate::demand::generate_orders;
use crate::orders::Order;
use crate::stores::{build_store_types, place_stores, Store, StoreType, StoreTypeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use siterec_geo::{Period, RegionId};

/// A complete simulated month of an O2O platform: the stand-in for the
/// paper's proprietary Eleme data (orders, courier state, context data).
#[derive(Debug, Clone)]
pub struct O2oDataset {
    /// The generating configuration.
    pub config: SimConfig,
    /// City context (regions, POIs, roads).
    pub city: City,
    /// Store-type catalog.
    pub store_types: Vec<StoreType>,
    /// All stores (after any open-sim dropout).
    pub stores: Vec<Store>,
    /// Courier fleet state.
    pub supply: CourierSupply,
    /// Delivery-time / pressure-control model.
    pub delivery: DeliveryModel,
    /// The order stream.
    pub orders: Vec<Order>,
}

impl O2oDataset {
    /// Simulate a dataset from a config. Deterministic in the config.
    pub fn generate(config: SimConfig) -> O2oDataset {
        use siterec_obs as obs;
        let _span = obs::span!("simdata.generate", seed = config.seed, days = config.days);
        config.validate().expect("invalid SimConfig");
        let city = {
            let _s = obs::span!("simdata.city");
            City::generate(&config)
        };
        let store_types = {
            let _s = obs::span!("simdata.store_types");
            build_store_types(&config)
        };
        let mut stores = {
            let _s = obs::span!("simdata.place_stores");
            place_stores(&config, &city, &store_types)
        };
        if config.store_dropout_prob > 0.0 {
            let mut rng = StdRng::seed_from_u64(config.seed ^ 0xD0_07);
            stores.retain(|_| rng.gen::<f64>() >= config.store_dropout_prob);
            // Re-index ids to stay dense.
            for (i, s) in stores.iter_mut().enumerate() {
                s.id = crate::stores::StoreId(i);
            }
        }
        let supply = {
            let _s = obs::span!("simdata.couriers");
            CourierSupply::allocate(&config, &city)
        };
        let delivery = {
            let _s = obs::span!("simdata.delivery_model");
            DeliveryModel::new(&config, &supply)
        };
        let orders = {
            let _s = obs::span!("simdata.orders");
            generate_orders(&config, &city, &store_types, &stores, &supply, &delivery)
        };
        obs::olog!(
            Debug,
            "simdata: {} regions, {} stores, {} orders (seed {})",
            city.num_regions(),
            stores.len(),
            orders.len(),
            config.seed
        );
        O2oDataset {
            config,
            city,
            store_types,
            stores,
            supply,
            delivery,
            orders,
        }
    }

    /// Number of regions.
    pub fn num_regions(&self) -> usize {
        self.city.num_regions()
    }

    /// Number of store types.
    pub fn num_types(&self) -> usize {
        self.store_types.len()
    }

    // ---- aggregates for the motivation figures ---------------------------

    /// Orders per 2-hour slot, aggregated over all days (Fig. 1 demand side).
    pub fn orders_by_slot(&self) -> [u64; 12] {
        let mut out = [0u64; 12];
        for o in &self.orders {
            out[o.created.slot().0 as usize] += 1;
        }
        out
    }

    /// Mean courier head-count per 2-hour slot (Fig. 1 supply side).
    pub fn couriers_by_slot(&self) -> [f64; 12] {
        let mut out = [0.0f64; 12];
        for (slot, o) in out.iter_mut().enumerate() {
            let h0 = slot as u32 * 2;
            *o = self.config.fleet_size as f64
                * (hourly_supply_factor(h0) + hourly_supply_factor(h0 + 1))
                / 2.0;
        }
        out
    }

    /// Supply-demand ratio per 2-hour slot: couriers / orders-per-day,
    /// normalized so the maximum slot is 1 (Fig. 1's dashed curve).
    pub fn supply_demand_ratio_by_slot(&self) -> [f64; 12] {
        let orders = self.orders_by_slot();
        let couriers = self.couriers_by_slot();
        let mut ratio = [0.0f64; 12];
        for i in 0..12 {
            let per_day = orders[i] as f64 / self.config.days as f64;
            ratio[i] = couriers[i] / per_day.max(1e-9);
        }
        let max = ratio.iter().copied().fold(f64::MIN, f64::max).max(1e-9);
        for r in &mut ratio {
            *r /= max;
        }
        ratio
    }

    /// Mean delivery minutes per 2-hour slot (Fig. 2).
    pub fn mean_delivery_by_slot(&self) -> [f64; 12] {
        let mut sum = [0.0f64; 12];
        let mut n = [0u64; 12];
        for o in &self.orders {
            let s = o.created.slot().0 as usize;
            sum[s] += o.delivery_minutes();
            n[s] += 1;
        }
        let mut out = [0.0f64; 12];
        for i in 0..12 {
            out[i] = if n[i] == 0 { 0.0 } else { sum[i] / n[i] as f64 };
        }
        out
    }

    /// Mean over stores of the farthest delivery distance per period
    /// (Fig. 3's delivery scope).
    ///
    /// Only (store, period) cells with at least `min_orders` orders enter the
    /// average: with enough orders the farthest distance saturates the
    /// platform's pressure-controlled scope cap, so the statistic measures
    /// the cap rather than sample size (in the paper's 23.6M-order month
    /// every cell is saturated; at simulation scale the filter restores that
    /// regime).
    pub fn mean_farthest_distance_by_period(&self, min_orders: usize) -> [f64; Period::COUNT] {
        use std::collections::HashMap;
        let mut farthest: HashMap<(usize, usize), (f64, usize)> = HashMap::new();
        for o in &self.orders {
            let key = (o.store.0, o.period().index());
            let e = farthest.entry(key).or_insert((0.0, 0));
            e.0 = e.0.max(o.distance_m);
            e.1 += 1;
        }
        let mut sum = [0.0f64; Period::COUNT];
        let mut n = [0u64; Period::COUNT];
        for ((_, pi), (d, count)) in farthest {
            if count >= min_orders {
                sum[pi] += d;
                n[pi] += 1;
            }
        }
        let mut out = [0.0f64; Period::COUNT];
        for i in 0..Period::COUNT {
            out[i] = if n[i] == 0 { 0.0 } else { sum[i] / n[i] as f64 };
        }
        out
    }

    /// Histogram of delivery minutes for orders in a distance band, per
    /// period, in `bin_min`-minute bins up to `max_min` (Fig. 4).
    pub fn delivery_time_histogram(
        &self,
        dist_lo_m: f64,
        dist_hi_m: f64,
        bin_min: f64,
        max_min: f64,
    ) -> Vec<Vec<u64>> {
        let nbins = (max_min / bin_min).ceil() as usize;
        let mut out = vec![vec![0u64; nbins]; Period::COUNT];
        for o in &self.orders {
            if o.distance_m < dist_lo_m || o.distance_m >= dist_hi_m {
                continue;
            }
            let t = o.delivery_minutes();
            let bin = ((t / bin_min) as usize).min(nbins - 1);
            out[o.period().index()][bin] += 1;
        }
        out
    }

    /// Order counts per store type per period (Fig. 5).
    pub fn type_counts_by_period(&self) -> Vec<[u64; Period::COUNT]> {
        let mut out = vec![[0u64; Period::COUNT]; self.num_types()];
        for o in &self.orders {
            out[o.ty.0][o.period().index()] += 1;
        }
        out
    }

    /// Top-`k` store types by order count in a period (Fig. 5).
    pub fn top_types_in_period(&self, p: Period, k: usize) -> Vec<(StoreTypeId, u64)> {
        let counts = self.type_counts_by_period();
        let mut v: Vec<(StoreTypeId, u64)> = counts
            .iter()
            .enumerate()
            .map(|(i, row)| (StoreTypeId(i), row[p.index()]))
            .collect();
        v.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        v.truncate(k);
        v
    }

    // ---- aggregates for the learning task --------------------------------

    /// Order counts per (region, type): the ground-truth matrix `p_sa`.
    pub fn orders_per_region_type(&self) -> Vec<Vec<u32>> {
        let mut out = vec![vec![0u32; self.num_types()]; self.num_regions()];
        for o in &self.orders {
            out[o.store_region.0][o.ty.0] += 1;
        }
        out
    }

    /// Order counts per (region, type, period).
    pub fn orders_per_region_type_period(&self) -> Vec<Vec<[u32; Period::COUNT]>> {
        let mut out = vec![vec![[0u32; Period::COUNT]; self.num_types()]; self.num_regions()];
        for o in &self.orders {
            out[o.store_region.0][o.ty.0][o.period().index()] += 1;
        }
        out
    }

    /// Orders placed *by customers of* each region, per type (the preference
    /// signal of §II-C / Table II).
    pub fn preferences_per_customer_region(&self) -> Vec<Vec<u32>> {
        let mut out = vec![vec![0u32; self.num_types()]; self.num_regions()];
        for o in &self.orders {
            out[o.customer_region.0][o.ty.0] += 1;
        }
        out
    }

    /// Orders placed by customers of each region, per type and period.
    pub fn preferences_per_customer_region_period(&self) -> Vec<Vec<[u32; Period::COUNT]>> {
        let mut out = vec![vec![[0u32; Period::COUNT]; self.num_types()]; self.num_regions()];
        for o in &self.orders {
            out[o.customer_region.0][o.ty.0][o.period().index()] += 1;
        }
        out
    }

    /// Count of stores per (region, type).
    pub fn stores_per_region_type(&self) -> Vec<Vec<u32>> {
        let mut out = vec![vec![0u32; self.num_types()]; self.num_regions()];
        for s in &self.stores {
            out[s.region.0][s.ty.0] += 1;
        }
        out
    }

    /// Regions that host at least one store ("store-regions", Definition 4).
    pub fn store_regions(&self) -> Vec<RegionId> {
        let mut seen = vec![false; self.num_regions()];
        for s in &self.stores {
            seen[s.region.0] = true;
        }
        seen.iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| RegionId(i))
            .collect()
    }

    /// Regions whose customers placed at least one order ("customer-regions").
    pub fn customer_regions(&self) -> Vec<RegionId> {
        let mut seen = vec![false; self.num_regions()];
        for o in &self.orders {
            seen[o.customer_region.0] = true;
        }
        seen.iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| RegionId(i))
            .collect()
    }

    /// Per-slot normalized order curve (max = 1) — convenience for Fig. 1.
    pub fn normalized_orders_by_slot(&self) -> [f64; 12] {
        let o = self.orders_by_slot();
        let max = *o.iter().max().unwrap_or(&1) as f64;
        let mut out = [0.0f64; 12];
        for i in 0..12 {
            out[i] = o[i] as f64 / max.max(1.0);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> O2oDataset {
        O2oDataset::generate(SimConfig::tiny(31))
    }

    #[test]
    fn generate_is_deterministic() {
        let a = tiny();
        let b = tiny();
        assert_eq!(a.orders.len(), b.orders.len());
        assert_eq!(a.stores.len(), b.stores.len());
    }

    #[test]
    fn fig1_shape_rush_dip() {
        let d = tiny();
        let ratio = d.supply_demand_ratio_by_slot();
        // Slot 5 = 10-12 (lunch rush), slot 1 = 02-04 (dead of night),
        // slot 7 = 14-16 (afternoon lull).
        assert!(
            ratio[5] < ratio[7],
            "lunch ratio {} should dip below afternoon {}",
            ratio[5],
            ratio[7]
        );
        let orders = d.orders_by_slot();
        assert!(orders[5] > orders[7], "lunch orders should peak");
    }

    #[test]
    fn fig3_shape_scope_shrinks_at_rush() {
        let d = tiny();
        let scope = d.mean_farthest_distance_by_period(6);
        let noon = scope[Period::NoonRush.index()];
        let afternoon = scope[Period::Afternoon.index()];
        assert!(
            noon < afternoon,
            "noon scope {noon} should be below afternoon {afternoon}"
        );
    }

    #[test]
    fn fig5_shape_morning_top_types_differ_from_evening() {
        let d = tiny();
        let m = d.top_types_in_period(Period::Morning, 3);
        let e = d.top_types_in_period(Period::EveningRush, 3);
        assert_eq!(m.len(), 3);
        assert_ne!(
            m.iter().map(|x| x.0).collect::<Vec<_>>(),
            e.iter().map(|x| x.0).collect::<Vec<_>>()
        );
    }

    #[test]
    fn ground_truth_totals_match_order_count() {
        let d = tiny();
        let gt = d.orders_per_region_type();
        let total: u64 = gt.iter().flatten().map(|&x| x as u64).sum();
        assert_eq!(total, d.orders.len() as u64);
        let per_period = d.orders_per_region_type_period();
        let total_p: u64 = per_period
            .iter()
            .flatten()
            .flat_map(|a| a.iter())
            .map(|&x| x as u64)
            .sum();
        assert_eq!(total_p, d.orders.len() as u64);
    }

    #[test]
    fn store_and_customer_regions_nonempty() {
        let d = tiny();
        assert!(!d.store_regions().is_empty());
        assert!(!d.customer_regions().is_empty());
        assert!(d.store_regions().len() <= d.num_regions());
    }

    #[test]
    fn open_sim_dropout_removes_stores() {
        let rw = O2oDataset::generate(SimConfig::real_world_like(5));
        let os = O2oDataset::generate(SimConfig::open_sim_like(5));
        assert!(os.stores.len() < rw.stores.len());
        // ids stay dense after dropout
        for (i, s) in os.stores.iter().enumerate() {
            assert_eq!(s.id.0, i);
        }
    }

    #[test]
    fn histogram_covers_band_orders_only() {
        let d = tiny();
        let hist = d.delivery_time_histogram(1_000.0, 2_000.0, 10.0, 80.0);
        let in_band = d
            .orders
            .iter()
            .filter(|o| (1_000.0..2_000.0).contains(&o.distance_m))
            .count() as u64;
        let counted: u64 = hist.iter().flatten().sum();
        assert_eq!(counted, in_band);
    }
}
