//! Shared infrastructure for all baselines: the two feature settings
//! (Original / Adaption, §IV-A5), period-flattened graph views, and the
//! common fit/predict interface.

use siterec_graphs::SiteRecTask;
use siterec_tensor::{Index, ParamStore};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Baseline feature setting (paper §IV-A5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Setting {
    /// Features from the original papers (geographic/context only).
    Original,
    /// Plus O2O features: courier capacity (average delivery time), customer
    /// preferences within 2 km, and location features.
    Adaption,
}

impl Setting {
    /// Short label used in report rows.
    pub fn label(self) -> &'static str {
        match self {
            Setting::Original => "Original",
            Setting::Adaption => "Adaption",
        }
    }
}

/// The common interface every baseline implements.
pub trait Baseline {
    /// Model name as it appears in the paper's tables.
    fn name(&self) -> &'static str;
    /// The feature setting the model was built with.
    fn setting(&self) -> Setting;
    /// Train on the task's training interactions.
    fn fit(&mut self, task: &SiteRecTask);
    /// Override the training-epoch budget (no-op for closed-form models).
    fn set_epochs(&mut self, _epochs: usize) {}
    /// Predict normalized order counts for `(region, type)` pairs.
    fn predict(&self, task: &SiteRecTask, pairs: &[(usize, usize)]) -> Vec<f32>;
    /// Trained parameters of a gradient-trained model (`None` before `fit`
    /// and for models without a parameter store).
    fn params(&self) -> Option<&ParamStore> {
        None
    }
}

/// Per-region input features under a setting: geographic features, plus the
/// Adaption block when enabled.
pub fn region_input_features(task: &SiteRecTask, setting: Setting) -> Vec<Vec<f32>> {
    match setting {
        Setting::Original => task.region_feats.clone(),
        Setting::Adaption => task
            .region_feats
            .iter()
            .zip(&task.adaption_feats)
            .map(|(a, b)| {
                let mut v = a.clone();
                v.extend_from_slice(b);
                v
            })
            .collect(),
    }
}

/// Feature dimension of [`region_input_features`].
pub fn region_input_dim(task: &SiteRecTask, setting: Setting) -> usize {
    match setting {
        Setting::Original => task.region_feats.first().map_or(0, Vec::len),
        Setting::Adaption => {
            task.region_feats.first().map_or(0, Vec::len)
                + task.adaption_feats.first().map_or(0, Vec::len)
        }
    }
}

/// A period-flattened edge list: the union of the per-period edges,
/// deduplicated and sorted by `(src, dst)`. The heterogeneous-graph
/// baselines (GC-MC, GraphRec, RGCN, HGT) consume this because none of them
/// model the multi-graph (period) structure — the paper's central argument
/// for its time semantics-level aggregation.
#[derive(Debug, Clone)]
pub struct FlatEdges {
    /// Sources.
    pub srcs: Arc<Index>,
    /// Destinations.
    pub dsts: Arc<Index>,
}

fn flatten(edges: impl Iterator<Item = (usize, usize)>, n_src: usize, n_dst: usize) -> FlatEdges {
    let edges: BTreeSet<(usize, usize)> = edges.collect();
    FlatEdges {
        srcs: Index::new(edges.iter().map(|e| e.0).collect(), n_src),
        dsts: Index::new(edges.iter().map(|e| e.1).collect(), n_dst),
    }
}

/// Flatten the task's S-U edges (u -> s direction).
pub fn flatten_su(task: &SiteRecTask) -> FlatEdges {
    let h = &task.hetero;
    flatten(
        h.su_edges.iter().flatten().map(|e| (e.u, e.s)),
        h.num_u(),
        h.num_s(),
    )
}

/// Flatten the task's U-A edges (a -> u direction).
pub fn flatten_ua(task: &SiteRecTask) -> FlatEdges {
    let h = &task.hetero;
    flatten(
        h.ua_edges.iter().flatten().map(|e| (e.a, e.u)),
        task.n_types,
        h.num_u(),
    )
}

/// Training pairs mapped to store-region node indices:
/// `(s_node, type, target)`. Interactions whose region has no store-region
/// node are skipped (cannot happen for non-zero interactions).
pub fn train_triples(task: &SiteRecTask) -> Vec<(usize, usize, f32)> {
    task.split
        .train
        .iter()
        .filter_map(|i| task.hetero.s_of_region[i.region].map(|s| (s, i.ty, i.norm)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use siterec_sim::{O2oDataset, SimConfig};

    fn task() -> SiteRecTask {
        let d = O2oDataset::generate(SimConfig::tiny(71));
        SiteRecTask::build(&d, 0.8, 2)
    }

    #[test]
    fn adaption_features_are_wider() {
        let t = task();
        let orig = region_input_features(&t, Setting::Original);
        let adapt = region_input_features(&t, Setting::Adaption);
        assert_eq!(orig.len(), adapt.len());
        assert!(adapt[0].len() > orig[0].len());
        assert_eq!(orig[0].len(), region_input_dim(&t, Setting::Original));
        assert_eq!(adapt[0].len(), region_input_dim(&t, Setting::Adaption));
    }

    #[test]
    fn flattened_edges_are_deduplicated_and_sorted() {
        let t = task();
        let su = flatten_su(&t);
        assert!(!su.srcs.is_empty());
        let per_period_total: usize = t.hetero.su_edges.iter().map(Vec::len).sum();
        assert!(su.srcs.len() <= per_period_total);
        let mut seen = std::collections::HashSet::new();
        for (&u, &s) in su.srcs.ids().iter().zip(su.dsts.ids()) {
            assert!(seen.insert((u, s)), "duplicate flattened edge");
            assert!(u < t.hetero.num_u() && s < t.hetero.num_s());
        }
        let ua = flatten_ua(&t);
        assert!(!ua.srcs.is_empty());
        for (&a, &u) in ua.srcs.ids().iter().zip(ua.dsts.ids()) {
            assert!(a < t.n_types && u < t.hetero.num_u());
        }
    }

    #[test]
    fn train_triples_cover_split() {
        let t = task();
        let triples = train_triples(&t);
        assert_eq!(triples.len(), t.split.train.len());
        for (s, a, y) in triples {
            assert!(s < t.hetero.num_s());
            assert!(a < t.n_types);
            assert!(y > 0.0 && y <= 1.0);
        }
    }
}
