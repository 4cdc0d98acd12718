//! Delivery-time model and the platform's pressure control.
//!
//! Two causal mechanisms from §II-B are implemented here:
//!
//! 1. **Capacity → delivery time**: when a region's supply-demand ratio is
//!    low, each courier carries multiple orders and dispatch reaches farther,
//!    so the pickup wait grows. Delivery time = dispatch/pickup wait (a
//!    decreasing function of the ratio) + travel time + log-normal noise.
//! 2. **Capacity → delivery scope (pressure control)**: the platform scales a
//!    store's delivery scope down at rush hours and up when capacity is
//!    ample, which directly caps who can order from where.

use crate::config::SimConfig;
use crate::couriers::CourierSupply;
use rand::rngs::StdRng;
use rand_distr::{Distribution, LogNormal};
use siterec_geo::{Period, RegionId};

/// Reference pickup wait (minutes) at the city's median supply-demand ratio.
const BASE_WAIT_MIN: f64 = 9.0;
/// Exponent of congestion sensitivity: wait ∝ (median_ratio / ratio)^γ.
const CONGESTION_GAMMA: f64 = 1.0;
/// Wait clamp (minutes).
const WAIT_RANGE: (f64, f64) = (2.0, 45.0);
/// Scope multiplier clamp.
const SCOPE_FACTOR_RANGE: (f64, f64) = (0.55, 1.2);
/// Absolute scope clamp in meters.
const SCOPE_RANGE_M: (f64, f64) = (1_200.0, 5_000.0);

/// The delivery-time and scope model, parameterized by the fleet state.
#[derive(Debug, Clone)]
pub struct DeliveryModel {
    /// City-wide median supply-demand ratio (congestion reference).
    pub median_ratio: f64,
    /// Courier speed (m/min).
    pub speed_m_per_min: f64,
    /// Log-normal noise sigma.
    pub noise_sigma: f64,
    /// Base delivery scope radius (m).
    pub base_scope_m: f64,
}

impl DeliveryModel {
    /// Build from the config and allocated supply.
    pub fn new(config: &SimConfig, supply: &CourierSupply) -> Self {
        DeliveryModel {
            median_ratio: supply.median_ratio(),
            speed_m_per_min: config.courier_speed_m_per_min,
            noise_sigma: config.delivery_noise_sigma,
            base_scope_m: config.base_scope_m,
        }
    }

    /// Expected (noise-free) delivery minutes for a trip of `distance_m`
    /// departing a region with supply-demand ratio `ratio`.
    pub fn expected_minutes(&self, distance_m: f64, ratio: f64) -> f64 {
        let travel = (distance_m + 250.0) / self.speed_m_per_min;
        let congestion = (self.median_ratio / ratio.max(1e-6)).powf(CONGESTION_GAMMA);
        let wait = (BASE_WAIT_MIN * congestion).clamp(WAIT_RANGE.0, WAIT_RANGE.1);
        wait + travel
    }

    /// Sampled delivery minutes (expected value × log-normal noise).
    pub fn sample_minutes(&self, distance_m: f64, ratio: f64, rng: &mut StdRng) -> f64 {
        let mean = self.expected_minutes(distance_m, ratio);
        let noise = LogNormal::new(0.0, self.noise_sigma)
            .expect("valid sigma")
            .sample(rng);
        (mean * noise).max(3.0)
    }

    /// Pressure-controlled delivery scope (meters) for a store region with
    /// supply-demand ratio `ratio` — the platform shrinks the scope when the
    /// ratio is below the city median and widens it when capacity is ample.
    pub fn scope_m(&self, ratio: f64) -> f64 {
        let factor = (ratio / self.median_ratio.max(1e-9))
            .powf(0.5)
            .clamp(SCOPE_FACTOR_RANGE.0, SCOPE_FACTOR_RANGE.1);
        (self.base_scope_m * factor).clamp(SCOPE_RANGE_M.0, SCOPE_RANGE_M.1)
    }

    /// Scope for a specific region and period.
    pub fn scope_at(&self, supply: &CourierSupply, r: RegionId, p: Period) -> f64 {
        self.scope_m(supply.ratio_at(r, p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::city::City;
    use rand::SeedableRng;

    fn model() -> DeliveryModel {
        let c = SimConfig::tiny(2);
        let city = City::generate(&c);
        let supply = CourierSupply::allocate(&c, &city);
        DeliveryModel::new(&c, &supply)
    }

    #[test]
    fn longer_distance_takes_longer() {
        let m = model();
        let r = m.median_ratio;
        assert!(m.expected_minutes(3000.0, r) > m.expected_minutes(1000.0, r));
    }

    #[test]
    fn lower_ratio_means_longer_wait() {
        let m = model();
        let fast = m.expected_minutes(2000.0, m.median_ratio * 2.0);
        let slow = m.expected_minutes(2000.0, m.median_ratio * 0.3);
        assert!(slow > fast + 2.0, "slow {slow} fast {fast}");
    }

    #[test]
    fn wait_is_clamped() {
        let m = model();
        let extreme = m.expected_minutes(0.0, 1e-9);
        assert!(extreme <= WAIT_RANGE.1 + 2.0);
        let ample = m.expected_minutes(0.0, 1e9);
        assert!(ample >= WAIT_RANGE.0);
    }

    #[test]
    fn scope_shrinks_under_pressure() {
        let m = model();
        let rush = m.scope_m(m.median_ratio * 0.3);
        let calm = m.scope_m(m.median_ratio * 1.5);
        assert!(rush < calm);
        assert!(rush >= SCOPE_RANGE_M.0 && calm <= SCOPE_RANGE_M.1);
    }

    #[test]
    fn sampling_is_noisy_but_unbiased_ish() {
        let m = model();
        let mut rng = StdRng::seed_from_u64(5);
        let expect = m.expected_minutes(2000.0, m.median_ratio);
        let n = 3000;
        let mean: f64 = (0..n)
            .map(|_| m.sample_minutes(2000.0, m.median_ratio, &mut rng))
            .sum::<f64>()
            / n as f64;
        // LogNormal(0, sigma) has mean exp(sigma^2/2) ≈ 1.016 for sigma 0.18.
        assert!(
            (mean / expect - 1.0).abs() < 0.1,
            "mean {mean} expect {expect}"
        );
    }

    #[test]
    fn expected_minutes_plausible_band() {
        // A 2.75 km rush-hour delivery should land in the paper's Fig. 4
        // 20–40 min band.
        let m = model();
        let t = m.expected_minutes(2750.0, m.median_ratio * 0.6);
        assert!((15.0..45.0).contains(&t), "t = {t}");
    }
}
