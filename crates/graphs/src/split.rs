//! Train/test splitting of (store-region, store-type) interactions
//! (paper §IV-A2: 80% of historical interactions train, 20% test).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use siterec_sim::O2oDataset;

/// One observed interaction: the number of orders of `ty` in `region`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interaction {
    /// Store-region id (raw region index).
    pub region: usize,
    /// Store-type index.
    pub ty: usize,
    /// Raw order count (the ground truth `p_sa`).
    pub count: u32,
    /// Count normalized by the dataset-wide maximum, in `(0, 1]`.
    pub norm: f32,
}

/// An 80/20 (configurable) split of the interactions.
#[derive(Debug, Clone)]
pub struct Split {
    /// Training interactions (labels visible to models).
    pub train: Vec<Interaction>,
    /// Held-out interactions (ranking + RMSE evaluation).
    pub test: Vec<Interaction>,
    /// The normalization constant (max order count).
    pub max_count: u32,
}

impl Split {
    /// Split all non-zero interactions of `data`, shuffled by `seed`.
    pub fn new(data: &O2oDataset, train_frac: f64, seed: u64) -> Split {
        assert!((0.0..=1.0).contains(&train_frac), "train_frac in [0,1]");
        let gt = data.orders_per_region_type();
        let max_count = gt.iter().flatten().copied().max().unwrap_or(1).max(1);
        let mut all = Vec::new();
        for (region, row) in gt.iter().enumerate() {
            for (ty, &count) in row.iter().enumerate() {
                if count > 0 {
                    all.push(Interaction {
                        region,
                        ty,
                        count,
                        norm: count as f32 / max_count as f32,
                    });
                }
            }
        }
        let mut rng = StdRng::seed_from_u64(seed);
        all.shuffle(&mut rng);
        let n_train = ((all.len() as f64) * train_frac).round() as usize;
        let test = all.split_off(n_train.min(all.len()));
        siterec_obs::olog!(
            Debug,
            "split: {} train / {} test interactions (seed {seed})",
            all.len(),
            test.len()
        );
        Split {
            train: all,
            test,
            max_count,
        }
    }

    /// Denormalize a model prediction back to an order count.
    pub fn denormalize(&self, norm: f32) -> f32 {
        norm * self.max_count as f32
    }

    /// True if `(region, ty)` is held out.
    pub fn is_test_pair(&self, region: usize, ty: usize) -> bool {
        self.test.iter().any(|i| i.region == region && i.ty == ty)
    }

    /// Boolean mask over `data.orders`: true when the order belongs to a
    /// *training* interaction. Transaction-derived features must be computed
    /// under this mask so held-out labels never leak into inputs.
    pub fn train_order_mask(&self, data: &O2oDataset) -> Vec<bool> {
        let n_types = data.num_types();
        let mut test_pair = vec![false; data.num_regions() * n_types];
        for i in &self.test {
            test_pair[i.region * n_types + i.ty] = true;
        }
        data.orders
            .iter()
            .map(|o| !test_pair[o.store_region.0 * n_types + o.ty.0])
            .collect()
    }

    /// Test interactions of one type (the candidate set the ranking metrics
    /// are computed over).
    pub fn test_of_type(&self, ty: usize) -> Vec<&Interaction> {
        self.test.iter().filter(|i| i.ty == ty).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siterec_sim::SimConfig;

    fn data() -> O2oDataset {
        O2oDataset::generate(SimConfig::tiny(3))
    }

    #[test]
    fn split_partitions_interactions() {
        let d = data();
        let s = Split::new(&d, 0.8, 42);
        assert!(!s.train.is_empty() && !s.test.is_empty());
        let total = s.train.len() + s.test.len();
        let frac = s.train.len() as f64 / total as f64;
        assert!((frac - 0.8).abs() < 0.02, "train fraction {frac}");
        // Disjoint.
        for t in &s.test {
            assert!(
                !s.train.iter().any(|x| x.region == t.region && x.ty == t.ty),
                "overlap at ({}, {})",
                t.region,
                t.ty
            );
        }
    }

    #[test]
    fn normalization_in_unit_interval() {
        let d = data();
        let s = Split::new(&d, 0.8, 1);
        for i in s.train.iter().chain(&s.test) {
            assert!(i.norm > 0.0 && i.norm <= 1.0);
            assert!((s.denormalize(i.norm) - i.count as f32).abs() < 0.5);
        }
    }

    #[test]
    fn different_seeds_differ_same_seed_agrees() {
        let d = data();
        let a = Split::new(&d, 0.8, 1);
        let b = Split::new(&d, 0.8, 1);
        let c = Split::new(&d, 0.8, 2);
        assert_eq!(a.train.len(), b.train.len());
        assert_eq!(a.train[0], b.train[0]);
        assert!(a.train[..10] != c.train[..10]);
    }

    #[test]
    fn train_mask_excludes_exactly_test_orders() {
        let d = data();
        let s = Split::new(&d, 0.8, 7);
        let mask = s.train_order_mask(&d);
        assert_eq!(mask.len(), d.orders.len());
        for (o, &m) in d.orders.iter().zip(&mask) {
            assert_eq!(m, !s.is_test_pair(o.store_region.0, o.ty.0));
        }
    }

    #[test]
    fn test_of_type_filters() {
        let d = data();
        let s = Split::new(&d, 0.8, 7);
        let ty = s.test[0].ty;
        let of_ty = s.test_of_type(ty);
        assert!(!of_ty.is_empty());
        assert!(of_ty.iter().all(|i| i.ty == ty));
    }
}
