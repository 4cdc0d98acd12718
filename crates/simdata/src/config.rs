//! Simulation configuration and the dataset presets used by the experiments.

/// All knobs of the synthetic O2O platform.
///
/// The defaults are scaled so a full month simulates in well under a second
/// and the complete table/figure harness runs on a laptop CPU. Every field is
/// public; the paper-scale city (Shanghai-sized, 39k stores, 23.6M orders)
/// is reachable by raising `nx`/`ny`, `n_stores`, and `demand_scale`.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Master RNG seed; the whole dataset is a pure function of the config.
    pub seed: u64,
    /// Grid columns.
    pub nx: usize,
    /// Grid rows.
    pub ny: usize,
    /// Region side length in meters (paper: 500 m).
    pub cell_m: f64,
    /// Number of store types (paper: 122; scaled down by default).
    pub n_store_types: usize,
    /// Number of stores.
    pub n_stores: usize,
    /// Simulated days (paper: one month).
    pub days: u32,
    /// Fleet size: couriers active city-wide at the busiest hour.
    pub fleet_size: usize,
    /// Mean orders per region per rush period at demand density 1.
    pub demand_scale: f64,
    /// Multiplicative log-normal noise sigma on delivery times.
    pub delivery_noise_sigma: f64,
    /// Customer tolerance radius in meters (hard cap on ordering distance).
    pub max_order_distance_m: f64,
    /// Base (uncontrolled) delivery scope radius in meters.
    pub base_scope_m: f64,
    /// Courier speed in meters per minute (~15 km/h).
    pub courier_speed_m_per_min: f64,
    /// Extra structural noise in the open-simulation variant: probability of
    /// re-assigning an order's customer region at random (models the paper's
    /// "use distance to randomly generate the customer's location").
    pub location_shuffle_prob: f64,
    /// Dropout probability on stores (sparsity in the open-sim variant).
    pub store_dropout_prob: f64,
}

impl SimConfig {
    /// Dataset analogous to the paper's real-world Eleme month: denser,
    /// cleaner, full field coverage. Default config for Table III and all
    /// motivation figures.
    pub fn real_world_like(seed: u64) -> Self {
        SimConfig {
            seed,
            nx: 22,
            ny: 22,
            cell_m: 500.0,
            n_store_types: 20,
            n_stores: 4_800,
            days: 30,
            fleet_size: 420,
            demand_scale: 1.9,
            delivery_noise_sigma: 0.18,
            max_order_distance_m: 3_000.0,
            base_scope_m: 3_000.0,
            courier_speed_m_per_min: 250.0,
            location_shuffle_prob: 0.0,
            store_dropout_prob: 0.0,
        }
    }

    /// Dataset analogous to the paper's open "simulation dataset" (TransLoc /
    /// beacon data matched against a store database): sparser, noisier,
    /// customer locations partly synthesized. Used by Table IV.
    pub fn open_sim_like(seed: u64) -> Self {
        SimConfig {
            n_stores: 450,
            days: 18,
            demand_scale: 1.0,
            delivery_noise_sigma: 0.35,
            location_shuffle_prob: 0.15,
            store_dropout_prob: 0.25,
            ..Self::real_world_like(seed)
        }
    }

    /// The configuration the benchmark harness trains on: the same structure
    /// as [`Self::real_world_like`] but scaled to finish the full table- and
    /// figure-regeneration suite on a single laptop core. (The paper used a
    /// Tesla V100 and one month of Shanghai; see DESIGN.md §3 "Scale".)
    pub fn experiment(seed: u64) -> Self {
        SimConfig {
            nx: 16,
            ny: 16,
            n_store_types: 14,
            // Dense store coverage: the evaluation needs enough non-zero
            // (region, type) interactions that every type has a meaningful
            // candidate pool (the paper has ~320 interactions per type).
            n_stores: 2_600,
            days: 30,
            fleet_size: 230,
            demand_scale: 1.7,
            ..Self::real_world_like(seed)
        }
    }

    /// Experiment-scale analogue of [`Self::open_sim_like`] (Table IV).
    pub fn experiment_open_sim(seed: u64) -> Self {
        SimConfig {
            n_stores: 1_600,
            days: 18,
            demand_scale: 1.0,
            delivery_noise_sigma: 0.35,
            location_shuffle_prob: 0.15,
            store_dropout_prob: 0.25,
            ..Self::experiment(seed)
        }
    }

    /// Miniature config for unit/integration tests: a 10x10 city, seconds to
    /// simulate and train against.
    pub fn tiny(seed: u64) -> Self {
        SimConfig {
            nx: 10,
            ny: 10,
            n_store_types: 8,
            n_stores: 140,
            days: 10,
            fleet_size: 90,
            demand_scale: 1.5,
            ..Self::real_world_like(seed)
        }
    }

    /// Total number of regions.
    pub fn num_regions(&self) -> usize {
        self.nx * self.ny
    }

    /// Sanity-check invariants; called by the generator.
    pub fn validate(&self) -> Result<(), String> {
        if self.nx == 0 || self.ny == 0 {
            return Err("grid must be non-empty".into());
        }
        if self.n_store_types == 0 || self.n_stores == 0 {
            return Err("need at least one store and one type".into());
        }
        if self.days == 0 {
            return Err("need at least one day".into());
        }
        if !(0.0..=1.0).contains(&self.location_shuffle_prob)
            || !(0.0..=1.0).contains(&self.store_dropout_prob)
        {
            return Err("probabilities must be in [0, 1]".into());
        }
        if self.courier_speed_m_per_min <= 0.0 || self.cell_m <= 0.0 {
            return Err("speeds and sizes must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        SimConfig::real_world_like(1).validate().unwrap();
        SimConfig::open_sim_like(1).validate().unwrap();
        SimConfig::experiment(1).validate().unwrap();
        SimConfig::experiment_open_sim(1).validate().unwrap();
        SimConfig::tiny(1).validate().unwrap();
    }

    #[test]
    fn experiment_presets_are_smaller_but_structured_alike() {
        let rw = SimConfig::real_world_like(1);
        let ex = SimConfig::experiment(1);
        assert!(ex.num_regions() < rw.num_regions());
        assert!(ex.n_stores < rw.n_stores);
        // Similar store density (stores per region) across presets.
        let density = |c: &SimConfig| c.n_stores as f64 / c.num_regions() as f64;
        assert!((density(&ex) / density(&rw) - 1.0).abs() < 0.25);
        assert_eq!(ex.days, rw.days);
        let os = SimConfig::experiment_open_sim(1);
        assert!(os.store_dropout_prob > 0.0 && os.n_stores < ex.n_stores);
    }

    #[test]
    fn open_sim_is_sparser_and_noisier() {
        let rw = SimConfig::real_world_like(1);
        let os = SimConfig::open_sim_like(1);
        assert!(os.n_stores < rw.n_stores);
        assert!(os.days < rw.days);
        assert!(os.delivery_noise_sigma > rw.delivery_noise_sigma);
        assert!(os.location_shuffle_prob > 0.0);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = SimConfig::tiny(1);
        c.days = 0;
        assert!(c.validate().is_err());
        let mut c = SimConfig::tiny(1);
        c.location_shuffle_prob = 1.5;
        assert!(c.validate().is_err());
        let mut c = SimConfig::tiny(1);
        c.nx = 0;
        assert!(c.validate().is_err());
    }
}
