//! The assembled learning task: everything a model needs, built once.

use crate::features::{adaption_features, region_features};
use crate::geo_graph::GeoGraph;
use crate::hetero::{HeteroGraph, HeteroParams};
use crate::mobility::MobilityGraph;
use crate::split::Split;
use siterec_sim::O2oDataset;
use std::fmt;

/// Geographic-graph distance threshold (paper: 800 m).
pub const GEO_THRESHOLD_M: f64 = 800.0;
/// Minimum supporting orders for a mobility edge.
pub const MOBILITY_MIN_ORDERS: usize = 2;
/// Radius of the Adaption preference features (paper: 2 km).
pub const ADAPTION_PREF_RADIUS_M: f64 = 2_000.0;

/// One fully-prepared instance of the store-site-recommendation problem:
/// the three input graphs of Eq. 1 (`G_h`, `G_c`, `G_ge`), the train/test
/// split, and the feature tables shared by the baselines.
#[derive(Debug, Clone)]
pub struct SiteRecTask {
    /// Number of regions in the city.
    pub n_regions: usize,
    /// Number of store types.
    pub n_types: usize,
    /// 80/20 interaction split.
    pub split: Split,
    /// Region-type heterogeneous multi-graph `G_h`.
    pub hetero: HeteroGraph,
    /// Region geographical graph `G_ge`.
    pub geo: GeoGraph,
    /// Courier mobility multi-graph `G_c`.
    pub mobility: MobilityGraph,
    /// Geographic features per region (all regions, max-normalized).
    pub region_feats: Vec<Vec<f32>>,
    /// Adaption features per region (train-masked).
    pub adaption_feats: Vec<Vec<f32>>,
}

/// One structured finding from [`SiteRecTask::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum TaskIssue {
    /// A non-finite value in a feature table or edge attribute. A NaN here
    /// enters the tape as a constant and only resurfaces as a NaN loss deep
    /// into training.
    NonFiniteValue {
        /// Which table/edge and index.
        what: String,
    },
    /// A split part has no interactions (training or evaluation would be
    /// vacuous).
    EmptySplit {
        /// `"train"` or `"test"`.
        part: &'static str,
    },
    /// A store-region node with no S-A edges: node-level attention over its
    /// neighborhood aggregates nothing.
    IsolatedStoreNode {
        /// Store-node index.
        node: usize,
    },
}

impl fmt::Display for TaskIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskIssue::NonFiniteValue { what } => write!(f, "non-finite value in {what}"),
            TaskIssue::EmptySplit { part } => write!(f, "{part} split is empty"),
            TaskIssue::IsolatedStoreNode { node } => {
                write!(f, "store node {node} has no S-A edges")
            }
        }
    }
}

impl SiteRecTask {
    /// Build the task from a dataset with the default graph parameters.
    pub fn build(data: &O2oDataset, train_frac: f64, split_seed: u64) -> SiteRecTask {
        use siterec_obs as obs;
        let _span = obs::span!("graphs.build_task", split_seed = split_seed);
        let split = {
            let _s = obs::span!("graphs.split");
            Split::new(data, train_frac, split_seed)
        };
        let mask = split.train_order_mask(data);
        let hetero = {
            let _s = obs::span!("graphs.hetero");
            HeteroGraph::build(data, &split, &HeteroParams::default())
        };
        let geo = {
            let _s = obs::span!("graphs.geo");
            GeoGraph::build(&data.city.grid, GEO_THRESHOLD_M)
        };
        let mobility = {
            let _s = obs::span!("graphs.mobility");
            MobilityGraph::build(data, MOBILITY_MIN_ORDERS)
        };
        let region_feats = {
            let _s = obs::span!("graphs.region_features");
            region_features(data)
        };
        let adaption_feats = {
            let _s = obs::span!("graphs.adaption_features");
            adaption_features(data, ADAPTION_PREF_RADIUS_M, Some(&mask))
        };
        SiteRecTask {
            n_regions: data.num_regions(),
            n_types: data.num_types(),
            split,
            hetero,
            geo,
            mobility,
            region_feats,
            adaption_feats,
        }
    }

    /// Validate the built task: every tensor-bound value must be finite, both
    /// split parts non-empty, and every store node reachable through at least
    /// one S-A edge. A task built from a clean dataset is issue-free; findings
    /// here mean the upstream data was corrupt (see `O2oDataset::validate`)
    /// and pinpoint what the corruption turned into.
    pub fn validate(&self) -> Vec<TaskIssue> {
        let mut issues = Vec::new();

        let check_table = |name: &str, table: &[Vec<f32>], issues: &mut Vec<TaskIssue>| {
            for (i, row) in table.iter().enumerate() {
                if row.iter().any(|v| !v.is_finite()) {
                    issues.push(TaskIssue::NonFiniteValue {
                        what: format!("{name} row {i}"),
                    });
                }
            }
        };
        check_table("region_feats", &self.region_feats, &mut issues);
        check_table("adaption_feats", &self.adaption_feats, &mut issues);
        check_table("hetero.s_feat", &self.hetero.s_feat, &mut issues);
        check_table("hetero.u_feat", &self.hetero.u_feat, &mut issues);

        for (i, e) in self.hetero.sa_edges.iter().enumerate() {
            if ![e.competitiveness, e.complementarity, e.history]
                .iter()
                .all(|v| v.is_finite())
            {
                issues.push(TaskIssue::NonFiniteValue {
                    what: format!("hetero.sa_edges[{i}]"),
                });
            }
        }
        for (p, edges) in self.hetero.su_edges.iter().enumerate() {
            for (i, e) in edges.iter().enumerate() {
                if !e.distance.is_finite() || !e.transactions.is_finite() {
                    issues.push(TaskIssue::NonFiniteValue {
                        what: format!("hetero.su_edges[{p}][{i}]"),
                    });
                }
            }
        }
        for (p, edges) in self.hetero.ua_edges.iter().enumerate() {
            for (i, e) in edges.iter().enumerate() {
                if !e.transactions.is_finite() {
                    issues.push(TaskIssue::NonFiniteValue {
                        what: format!("hetero.ua_edges[{p}][{i}]"),
                    });
                }
            }
        }
        for (i, &(_, _, w)) in self.geo.edges.iter().enumerate() {
            if !w.is_finite() {
                issues.push(TaskIssue::NonFiniteValue {
                    what: format!("geo.edges[{i}]"),
                });
            }
        }
        for edges in &self.mobility.edges {
            for e in edges {
                if !e.minutes.is_finite() {
                    issues.push(TaskIssue::NonFiniteValue {
                        what: format!("mobility edge {} -> {}", e.from, e.to),
                    });
                }
            }
        }
        for part in self.split.train.iter().chain(&self.split.test) {
            if !part.norm.is_finite() {
                issues.push(TaskIssue::NonFiniteValue {
                    what: format!("split interaction ({}, {})", part.region, part.ty),
                });
            }
        }

        if self.split.train.is_empty() {
            issues.push(TaskIssue::EmptySplit { part: "train" });
        }
        if self.split.test.is_empty() {
            issues.push(TaskIssue::EmptySplit { part: "test" });
        }

        let mut has_sa = vec![false; self.hetero.num_s()];
        for e in &self.hetero.sa_edges {
            has_sa[e.s] = true;
        }
        for (node, &ok) in has_sa.iter().enumerate() {
            if !ok {
                issues.push(TaskIssue::IsolatedStoreNode { node });
            }
        }
        issues
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siterec_sim::SimConfig;

    #[test]
    fn task_builds_consistently() {
        let d = O2oDataset::generate(SimConfig::tiny(8));
        let t = SiteRecTask::build(&d, 0.8, 1);
        assert_eq!(t.n_regions, d.num_regions());
        assert_eq!(t.n_types, d.num_types());
        assert_eq!(t.region_feats.len(), t.n_regions);
        assert_eq!(t.adaption_feats.len(), t.n_regions);
        assert_eq!(t.geo.n_regions, t.n_regions);
        assert_eq!(t.mobility.n_regions, t.n_regions);
        assert!(!t.split.test.is_empty());
        assert!(t.hetero.num_s() > 0);
    }

    #[test]
    fn clean_task_validates_clean() {
        let d = O2oDataset::generate(SimConfig::tiny(8));
        let t = SiteRecTask::build(&d, 0.8, 1);
        let issues = t.validate();
        assert!(issues.is_empty(), "false positives: {issues:?}");
    }

    #[test]
    fn injected_nan_feature_surfaces_as_task_issue() {
        let mut t = {
            let d = O2oDataset::generate(SimConfig::tiny(8));
            SiteRecTask::build(&d, 0.8, 1)
        };
        t.region_feats[0][0] = f32::NAN;
        t.hetero.sa_edges[0].history = f32::INFINITY;
        let issues = t.validate();
        assert!(issues.iter().any(
            |i| matches!(i, TaskIssue::NonFiniteValue { what } if what.contains("region_feats"))
        ));
        assert!(issues
            .iter()
            .any(|i| matches!(i, TaskIssue::NonFiniteValue { what } if what.contains("sa_edges"))));
    }

    #[test]
    fn empty_split_flagged() {
        let d = O2oDataset::generate(SimConfig::tiny(8));
        let mut t = SiteRecTask::build(&d, 0.8, 1);
        t.split.test.clear();
        assert!(t
            .validate()
            .contains(&TaskIssue::EmptySplit { part: "test" }));
    }

    #[test]
    fn different_split_seeds_share_graph_shape() {
        let d = O2oDataset::generate(SimConfig::tiny(8));
        let a = SiteRecTask::build(&d, 0.8, 1);
        let b = SiteRecTask::build(&d, 0.8, 2);
        // Node sets are split-independent; only labels/attrs move.
        assert_eq!(a.hetero.num_s(), b.hetero.num_s());
        assert_ne!(
            a.split.train.first().map(|i| (i.region, i.ty)),
            b.split.train.first().map(|i| (i.region, i.ty))
        );
    }
}
