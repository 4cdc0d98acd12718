//! Model configuration (hyper-parameters of §IV-A3) and ablation variants.

use siterec_tensor::{GuardConfig, ParallelConfig};

/// Which variant of the model to build (§IV-A5, Figs. 10–11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Variant {
    /// The full O²-SiteRec model.
    #[default]
    Full,
    /// `w/o Co`: no courier capacity model; S-U edges built capacity-blind.
    WithoutCapacity,
    /// `w/o CoCu`: additionally drops S-U and U-A edges entirely.
    WithoutCapacityAndPreference,
    /// `w/o NA`: mean aggregation instead of node-level attention.
    WithoutNodeAttention,
    /// `w/o SA`: mean aggregation instead of time semantics-level attention.
    WithoutTimeAttention,
}

impl Variant {
    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Full => "O2-SiteRec",
            Variant::WithoutCapacity => "w/o Co",
            Variant::WithoutCapacityAndPreference => "w/o CoCu",
            Variant::WithoutNodeAttention => "w/o NA",
            Variant::WithoutTimeAttention => "w/o SA",
        }
    }

    /// True when the courier-capacity model (Module 2) is active.
    pub fn uses_capacity(self) -> bool {
        matches!(
            self,
            Variant::Full | Variant::WithoutNodeAttention | Variant::WithoutTimeAttention
        )
    }
}

/// Hyper-parameters of O²-SiteRec.
///
/// Paper defaults (§IV-A3): `d1 = 20`, `d2 = 90`, 5 node-level heads, 2 time
/// semantics-level heads, `β = 0.2`, `l = 2` layers, Adam, ReLU activations,
/// dropout. The paper trains with lr `1e-4` on a V100 for a 23.6M-order
/// month; on the scaled-down synthetic datasets we default to a larger lr and
/// fewer epochs — the values are all exposed here and swept by the Fig. 15/16
/// benches.
#[derive(Debug, Clone)]
pub struct SiteRecConfig {
    /// Courier-capacity embedding size (`d1`).
    pub d1: usize,
    /// Heterogeneous-graph embedding size (`d2`, must be divisible by
    /// `node_heads`).
    pub d2: usize,
    /// Node-level attention heads (paper: 5).
    pub node_heads: usize,
    /// Time semantics-level attention heads (paper: 2).
    pub time_heads: usize,
    /// GNN layers `l` (paper: 2).
    pub layers: usize,
    /// Loss trade-off `β` in `Loss = O2 + β O1` (paper: 0.2).
    pub beta: f32,
    /// Adam learning rate.
    pub lr: f32,
    /// Training epochs (full-batch steps).
    pub epochs: usize,
    /// Dropout rate on node embeddings.
    pub dropout: f32,
    /// Parameter-init / dropout seed.
    pub seed: u64,
    /// Which ablation variant to build.
    pub variant: Variant,
    /// Gradient-clipping max norm (0 disables).
    pub grad_clip: f32,
    /// Kernel-level parallelism. Installed process-wide when the model is
    /// built; results are bitwise identical at any thread count.
    pub parallel: ParallelConfig,
    /// Training guardrails: non-finite/divergence detection, checkpoint
    /// rollback, learning-rate decay and the recovery budget.
    pub guard: GuardConfig,
    /// Lease tape buffers from an epoch-persistent
    /// [`TapeArena`](siterec_tensor::TapeArena) so steady-state epochs
    /// allocate nothing. Results are bit-identical either way; disable only
    /// for A/B memory debugging.
    pub arena: bool,
}

impl Default for SiteRecConfig {
    fn default() -> Self {
        SiteRecConfig {
            d1: 20,
            d2: 90,
            node_heads: 5,
            time_heads: 2,
            layers: 2,
            beta: 0.2,
            lr: 5e-3,
            epochs: 60,
            dropout: 0.1,
            seed: 17,
            variant: Variant::Full,
            grad_clip: 5.0,
            parallel: ParallelConfig::default(),
            guard: GuardConfig::default(),
            arena: true,
        }
    }
}

impl SiteRecConfig {
    /// A cheaper configuration for tests: smaller embeddings, fewer epochs.
    pub fn fast() -> Self {
        SiteRecConfig {
            d2: 30,
            node_heads: 5,
            epochs: 25,
            ..Self::default()
        }
    }

    /// Per-head dimension of the node-level attention.
    pub fn head_dim(&self) -> usize {
        self.d2 / self.node_heads
    }

    /// Validate divisibility and ranges.
    pub fn validate(&self) -> Result<(), String> {
        if !self.d2.is_multiple_of(self.node_heads) {
            return Err(format!(
                "d2 = {} must be divisible by node_heads = {}",
                self.d2, self.node_heads
            ));
        }
        if !(2 * self.d2).is_multiple_of(self.time_heads) {
            return Err("2*d2 must be divisible by time_heads".into());
        }
        if self.layers == 0 {
            return Err("need at least one layer".into());
        }
        if !(0.0..1.0).contains(&self.dropout) {
            return Err("dropout must be in [0, 1)".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SiteRecConfig::default();
        assert_eq!(c.d1, 20);
        assert_eq!(c.d2, 90);
        assert_eq!(c.node_heads, 5);
        assert_eq!(c.time_heads, 2);
        assert_eq!(c.layers, 2);
        assert!((c.beta - 0.2).abs() < 1e-9);
        c.validate().unwrap();
        assert_eq!(c.head_dim(), 18);
    }

    #[test]
    fn invalid_heads_rejected() {
        let c = SiteRecConfig {
            d2: 91,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn variant_capacity_flags() {
        assert!(Variant::Full.uses_capacity());
        assert!(!Variant::WithoutCapacity.uses_capacity());
        assert!(!Variant::WithoutCapacityAndPreference.uses_capacity());
        assert!(Variant::WithoutNodeAttention.uses_capacity());
    }
}
