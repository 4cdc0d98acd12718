//! The assembled O²-SiteRec model: joint training of the courier capacity
//! model (`O1`) and the heterogeneous recommendation model (`O2`), with
//! `Loss = O2 + β·O1` (paper Eq. 17), plus the site-recommendation API.

use crate::capacity::CapacityModel;
use crate::config::{SiteRecConfig, Variant};
use crate::recommend::{gather_period_pairs, score_tail, HeteroModel};
use siterec_geo::Period;
use siterec_graphs::{HeteroGraph, SiteRecTask};
use siterec_obs as obs;
use siterec_sim::O2oDataset;
use siterec_tensor::checkpoint::{self, CheckpointPolicy};
use siterec_tensor::{
    decode_history, train_guarded, ArenaStats, Bindings, Graph, Index, ParamStore, RecoveryEvent,
    TapeArena, Tensor, TrainError, TrainSpec, Var,
};
use std::sync::Arc;

pub use siterec_tensor::TrainEpoch;

/// Model name used in journal records (spans, `train_epoch`, `recovery`),
/// in checkpoint metadata and in serving embedding-store images.
pub const MODEL_NAME: &str = "O2-SiteRec";

/// Everything the online serving layer needs, exported from a trained model:
/// the pair-independent per-period node embeddings (steps 1–3 of Fig. 9,
/// evaluated once in eval mode) plus the scoring-tail weights (steps 4–5)
/// and the region → store-node mapping.
///
/// Scoring a `(region, type)` pair from this export — gather, concat,
/// [`score_tail`] — executes the identical tape ops as
/// [`O2SiteRec::predict`], so online scores are raw-`f32`-bit-identical to
/// offline inference (asserted by `siterec-serve`'s equivalence tests).
#[derive(Debug, Clone)]
pub struct ServingExport {
    /// Model name ([`MODEL_NAME`]); identifies the export's producer.
    pub model: String,
    /// Training seed the exporting model was configured with.
    pub seed: u64,
    /// Committed training epochs behind these embeddings.
    pub trained_epochs: usize,
    /// Embedding size `d2` of the tail spec.
    pub d2: usize,
    /// Time semantics-level attention heads.
    pub time_heads: usize,
    /// Mean-pool periods instead of attending (`w/o SA` variant).
    pub mean_pool: bool,
    /// Number of store types (the valid `type` query range).
    pub n_types: usize,
    /// Store-region node id per region (`None`: region hosts no stores and
    /// scores 0, same as [`O2SiteRec::predict`]).
    pub s_of_region: Vec<Option<usize>>,
    /// Per-period store-region node embeddings `h` (`n_s × d2`, length 5).
    pub h: Vec<Tensor>,
    /// Per-period type node embeddings `q` (`n_a × d2`, length 5).
    pub q: Vec<Tensor>,
    /// Time-attention key projection `W_K`.
    pub wk: Tensor,
    /// Time-attention query projection `W_Q`.
    pub wq: Tensor,
    /// Prediction weight `W₂`.
    pub pred_w: Tensor,
    /// Prediction bias `b₂`.
    pub pred_b: Tensor,
}

/// Per-epoch tape seed: a pure function of `(config seed, epoch)`, never wall
/// clock, so dropout masks — and hence every recovery decision downstream —
/// replay identically across runs and thread counts.
pub fn epoch_graph_seed(seed: u64, epoch: usize) -> u64 {
    seed ^ ((epoch as u64) << 1)
}

/// The full O²-SiteRec model (or one of its ablation variants).
pub struct O2SiteRec {
    cfg: SiteRecConfig,
    ps: ParamStore,
    capacity: Option<CapacityModel>,
    model: HeteroModel,
    /// Variant-adjusted heterogeneous graph the model was built over.
    hetero: HeteroGraph,
    train_s: Arc<Index>,
    train_a: Arc<Index>,
    train_targets: Tensor,
    history: Vec<TrainEpoch>,
    recoveries: Vec<RecoveryEvent>,
    /// Epoch-persistent buffer pool the per-epoch tapes lease from (used
    /// when `cfg.arena` is set; results are bit-identical either way).
    arena: TapeArena,
}

impl O2SiteRec {
    /// Build the model for a task. The ablation variant in `cfg.variant`
    /// selects both the graph construction and the aggregation functions.
    pub fn new(data: &O2oDataset, task: &SiteRecTask, cfg: SiteRecConfig) -> O2SiteRec {
        cfg.validate().expect("invalid SiteRecConfig");
        // Install the kernel thread count once; every tensor op in training
        // and inference (and in all baselines sharing the process) picks it
        // up without per-call plumbing. Results are thread-count invariant.
        cfg.parallel.install();
        let hetero = match cfg.variant {
            Variant::Full | Variant::WithoutNodeAttention | Variant::WithoutTimeAttention => {
                task.hetero.clone()
            }
            Variant::WithoutCapacity => task.hetero.with_capacity_blind_su(data, &task.split),
            Variant::WithoutCapacityAndPreference => task.hetero.without_customer_edges(),
        };
        let mut ps = ParamStore::new(cfg.seed);
        let capacity = cfg.variant.uses_capacity().then(|| {
            CapacityModel::new(
                &mut ps,
                task.n_regions,
                cfg.d1,
                cfg.layers,
                &task.geo,
                &task.mobility,
            )
        });
        let capacity_dim = if capacity.is_some() { 2 * cfg.d1 } else { 0 };
        let model = HeteroModel::new(&mut ps, &hetero, &cfg, capacity_dim);

        let mut train_s = Vec::with_capacity(task.split.train.len());
        let mut train_a = Vec::with_capacity(task.split.train.len());
        let mut targets = Vec::with_capacity(task.split.train.len());
        for i in &task.split.train {
            let s =
                hetero.s_of_region[i.region].expect("train interaction region must host stores");
            train_s.push(s);
            train_a.push(i.ty);
            targets.push(i.norm);
        }
        let train_targets = Tensor::column(&targets);
        let (train_s, train_a) = model.pair_indices(train_s, train_a);

        O2SiteRec {
            cfg,
            ps,
            capacity,
            model,
            hetero,
            train_s,
            train_a,
            train_targets,
            history: Vec::new(),
            recoveries: Vec::new(),
            arena: TapeArena::new(),
        }
    }

    /// Model configuration.
    pub fn config(&self) -> &SiteRecConfig {
        &self.cfg
    }

    /// Number of trainable scalar weights.
    pub fn num_weights(&self) -> usize {
        self.ps.num_weights()
    }

    /// The underlying parameter store (read access; the resume determinism
    /// tests compare raw `f32` bits across runs through this).
    pub fn param_store(&self) -> &ParamStore {
        &self.ps
    }

    /// Loss trace recorded by [`Self::train`].
    pub fn history(&self) -> &[TrainEpoch] {
        &self.history
    }

    /// Guard recoveries (rollback + lr decay) performed during training.
    /// Empty for a healthy run.
    pub fn recovery_events(&self) -> &[RecoveryEvent] {
        &self.recoveries
    }

    /// Counters of the epoch-persistent tape arena (lease/miss/recycle,
    /// bytes held and their peak). After the first epoch warms the pool,
    /// further epochs and evaluation tapes should miss (allocate)
    /// essentially never.
    pub fn arena_stats(&self) -> ArenaStats {
        self.arena.stats()
    }

    /// A shared handle to the model's tape arena, for watching its
    /// counters while the model trains (from a per-epoch callback, say).
    pub fn arena(&self) -> TapeArena {
        self.arena.clone()
    }

    /// An evaluation-mode tape. With `cfg.arena` set it leases from the
    /// model's arena, so evaluation reuses the buffers training pooled
    /// instead of allocating beside them; the seed is [`Graph::new`]'s.
    fn eval_graph(&self) -> Graph {
        let mut g = if self.cfg.arena {
            Graph::with_seed_and_arena(Graph::DEFAULT_SEED, self.arena.clone())
        } else {
            Graph::new()
        };
        g.training = false;
        g
    }

    /// The Eq. 17 objective on the training batch: `O2 + β·O1`, `[O2, O1]`.
    fn forward_losses(&self, g: &mut Graph, binds: &Bindings) -> (Var, [Var; 2]) {
        let (caps, o1) = match &self.capacity {
            Some(c) => {
                let out = c.forward(g, binds);
                (Some(out.period_embeddings), out.o1)
            }
            None => (None, g.constant(Tensor::scalar(0.0))),
        };
        let pred = self
            .model
            .forward(g, binds, caps.as_deref(), &self.train_s, &self.train_a);
        let o2 = g.mse_loss(pred, &self.train_targets);
        let o1_scaled = g.scale(o1, self.cfg.beta);
        (g.add(o2, o1_scaled), [o2, o1])
    }

    /// Full-batch training for `cfg.epochs` epochs with Adam (Eq. 17
    /// objective). Returns the loss trace.
    ///
    /// Runs under the [`TrainGuard`](siterec_tensor::TrainGuard) configured
    /// in `cfg.guard`; panics if the recovery budget is exhausted — use
    /// [`Self::try_train`] to handle that case structurally.
    pub fn train(&mut self) -> &[TrainEpoch] {
        self.try_train()
            .expect("training diverged beyond the guard's recovery budget");
        &self.history
    }

    /// Guarded full-batch training. Each epoch is health-checked (tape
    /// faults, non-finite loss, loss explosion, non-finite gradients); a
    /// faulty epoch rolls parameters and optimizer back to the last committed
    /// checkpoint, decays the learning rate and retries with a retry-variant
    /// dropout seed. Once `cfg.guard.max_recoveries` is spent the next fault
    /// surfaces as a [`TrainError`]. Healthy runs are bit-identical to the
    /// historical unguarded loop.
    pub fn try_train(&mut self) -> Result<&[TrainEpoch], TrainError> {
        self.train_with(None, |_| {})
    }

    /// Durable guarded training: like [`Self::try_train`] but checkpointing
    /// to `policy.dir` on the policy's cadence and, when the directory
    /// already holds a valid checkpoint of this model and seed, resuming
    /// from it instead of starting at epoch 0.
    ///
    /// The checkpoint captures parameters, Adam moments, the full
    /// [`TrainGuard`](siterec_tensor::TrainGuard) state and the loss
    /// history, so a run killed at any point — including
    /// mid-checkpoint-write — and resumed from disk
    /// produces raw-`f32`-bit-identical final parameters and an identical
    /// recovery trace to an uninterrupted run.
    pub fn try_train_resumable(
        &mut self,
        policy: &CheckpointPolicy,
    ) -> Result<&[TrainEpoch], TrainError> {
        self.train_with(Some(policy), |_| {})
    }

    /// [`Self::try_train_resumable`] with a per-epoch callback, invoked with
    /// the epoch index after each epoch commits (and after its checkpoint,
    /// if due, is written). The chaos-restart harness uses the callback to
    /// report progress to the orchestrator that decides when to kill it.
    pub fn try_train_resumable_with(
        &mut self,
        policy: &CheckpointPolicy,
        on_epoch: impl FnMut(usize),
    ) -> Result<&[TrainEpoch], TrainError> {
        self.train_with(Some(policy), on_epoch)
    }

    /// O²-SiteRec on the shared guarded loop ([`train_guarded`]).
    fn train_with(
        &mut self,
        checkpoint: Option<&CheckpointPolicy>,
        on_epoch: impl FnMut(usize),
    ) -> Result<&[TrainEpoch], TrainError> {
        let variant = format!("{:?}", self.cfg.variant);
        let spec = TrainSpec {
            model: MODEL_NAME,
            variant: Some(&variant),
            seed: self.cfg.seed,
            epochs: self.cfg.epochs,
            lr: self.cfg.lr,
            grad_clip: self.cfg.grad_clip,
            guard: self.cfg.guard,
            epoch_seed: epoch_graph_seed,
            arena: self.cfg.arena.then_some(&self.arena),
            checkpoint,
        };
        // The loop holds the parameters and the history while the step
        // reads the rest of the model.
        let mut ps = std::mem::replace(&mut self.ps, ParamStore::new(0));
        let mut history = std::mem::take(&mut self.history);
        let mut recoveries = Vec::new();
        let result = train_guarded(
            &spec,
            &mut ps,
            &mut history,
            &mut recoveries,
            |g, binds| self.forward_losses(g, binds),
            on_epoch,
        );
        self.ps = ps;
        self.history = history;
        self.recoveries = recoveries;
        result.map(|()| self.history.as_slice())
    }

    /// Predict normalized order counts for `(region, type)` pairs
    /// (evaluation mode, dropout off). Regions that host no stores (hence
    /// have no store-region node) predict 0.
    pub fn predict(&self, pairs: &[(usize, usize)]) -> Vec<f32> {
        self.predict_for(pairs, None)
    }

    /// [`Self::predict`] restricted to one time period: scores use only
    /// that period's node embeddings (time attention over a single period).
    /// `None` aggregates all five periods — the paper's score, bit-identical
    /// to [`Self::predict`].
    ///
    /// This is the offline reference for the serving layer: a
    /// `siterec-serve` query for `(region, type, period)` must reproduce
    /// this function's output bits exactly.
    pub fn predict_for(&self, pairs: &[(usize, usize)], period: Option<Period>) -> Vec<f32> {
        let mut node_pairs = Vec::new();
        let mut slot_of = vec![None; pairs.len()];
        for (i, &(region, ty)) in pairs.iter().enumerate() {
            if let Some(s) = self.hetero.s_of_region.get(region).copied().flatten() {
                slot_of[i] = Some(node_pairs.len());
                node_pairs.push((s, ty));
            }
        }
        let mut out = vec![0.0f32; pairs.len()];
        if node_pairs.is_empty() {
            return out;
        }
        let (ss, aa): (Vec<usize>, Vec<usize>) = node_pairs.into_iter().unzip();
        let (ss, aa) = self.model.pair_indices(ss, aa);
        let mut g = self.eval_graph();
        let binds = self.ps.bind(&mut g);
        let caps = self.capacity.as_ref().map(|c| {
            let o = c.forward(&mut g, &binds);
            o.period_embeddings
        });
        let (hs, qs) = self.model.encode_periods(&mut g, &binds, caps.as_deref());
        let (hs, qs) = match period {
            Some(p) => (vec![hs[p.index()]], vec![qs[p.index()]]),
            None => (hs, qs),
        };
        let per_period = gather_period_pairs(&mut g, &hs, &qs, &ss, &aa);
        let w = self.model.tail_vars(&binds);
        let pred = score_tail(&mut g, &self.model.tail_spec(), &w, &per_period);
        let values = g.value(pred);
        for (i, slot) in slot_of.iter().enumerate() {
            if let Some(j) = *slot {
                out[i] = values.get(j, 0);
            }
        }
        out
    }

    /// Export everything the online serving layer needs: the per-period node
    /// embeddings evaluated once in eval mode, the scoring-tail weights and
    /// the region mapping. See [`ServingExport`].
    pub fn export_serving(&self) -> ServingExport {
        let _span = obs::span!("export_serving", model = MODEL_NAME);
        let mut g = self.eval_graph();
        let binds = self.ps.bind(&mut g);
        let caps = self.capacity.as_ref().map(|c| {
            let o = c.forward(&mut g, &binds);
            o.period_embeddings
        });
        let (hs, qs) = self.model.encode_periods(&mut g, &binds, caps.as_deref());
        let spec = self.model.tail_spec();
        let (wk, wq, pred_w, pred_b) = self.model.export_tail(&self.ps);
        ServingExport {
            model: MODEL_NAME.to_string(),
            seed: self.cfg.seed,
            trained_epochs: self.history.len(),
            d2: spec.d2,
            time_heads: spec.time_heads,
            mean_pool: spec.mean_pool,
            n_types: self.hetero.n_types,
            s_of_region: self.hetero.s_of_region.clone(),
            h: hs.iter().map(|&v| g.value(v).clone()).collect(),
            q: qs.iter().map(|&v| g.value(v).clone()).collect(),
            wk,
            wq,
            pred_w,
            pred_b,
        }
    }

    /// Replace this model's parameters and loss history with the newest
    /// valid checkpoint in `dir` (the serving-side read path: build the
    /// model from the training recipe, then adopt the trained weights).
    ///
    /// Returns the checkpoint's committed-epoch count, or `None` when the
    /// directory holds no checkpoint for this model name and seed — the
    /// model is left untouched in that case. Corrupt generations are skipped
    /// exactly as during training resume.
    pub fn restore_latest(&mut self, dir: &std::path::Path) -> std::io::Result<Option<usize>> {
        match checkpoint::load_latest(dir)? {
            Some(state) if state.model == MODEL_NAME && state.seed == self.cfg.seed => {
                self.ps = state.params;
                self.history =
                    decode_history(&state.user).expect("CRC-valid history payload decodes");
                Ok(Some(state.next_epoch))
            }
            _ => Ok(None),
        }
    }

    /// Rank candidate regions for a target store type: returns
    /// `(region, predicted normalized order count)` sorted descending —
    /// the paper's recommendation output (top-ranked regions are the
    /// recommended sites).
    pub fn recommend(&self, ty: usize, candidates: &[usize]) -> Vec<(usize, f32)> {
        let pairs: Vec<(usize, usize)> = candidates.iter().map(|&r| (r, ty)).collect();
        let scores = self.predict(&pairs);
        let mut ranked: Vec<(usize, f32)> = candidates.iter().copied().zip(scores).collect();
        // total_cmp: a NaN score (poisoned parameters) must not panic the
        // ranking; under total order NaN sorts below every finite score here.
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
        ranked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siterec_sim::SimConfig;

    fn task() -> (O2oDataset, SiteRecTask) {
        let d = O2oDataset::generate(SimConfig::tiny(51));
        let t = SiteRecTask::build(&d, 0.8, 9);
        (d, t)
    }

    fn tiny_cfg(variant: Variant) -> SiteRecConfig {
        SiteRecConfig {
            d1: 8,
            d2: 16,
            node_heads: 2,
            time_heads: 2,
            layers: 1,
            epochs: 8,
            lr: 1e-2,
            variant,
            ..Default::default()
        }
    }

    #[test]
    fn training_reduces_loss() {
        let (d, t) = task();
        let mut m = O2SiteRec::new(&d, &t, tiny_cfg(Variant::Full));
        let hist = m.train().to_vec();
        assert_eq!(hist.len(), 8);
        let first = hist.first().unwrap().loss;
        let last = hist.last().unwrap().loss;
        assert!(last < first, "loss did not fall: {first} -> {last}");
        assert!(hist.iter().all(|e| e.loss.is_finite()));
        assert!(hist.iter().all(|e| e.o1 > 0.0), "O1 inactive in full model");
    }

    #[test]
    fn capacity_free_variants_have_zero_o1() {
        let (d, t) = task();
        let mut m = O2SiteRec::new(&d, &t, tiny_cfg(Variant::WithoutCapacity));
        let hist = m.train().to_vec();
        assert!(hist.iter().all(|e| e.o1 == 0.0));
        let mut m2 = O2SiteRec::new(&d, &t, tiny_cfg(Variant::WithoutCapacityAndPreference));
        m2.train();
        assert!(m2.history().iter().all(|e| e.o1 == 0.0));
    }

    #[test]
    fn predictions_cover_test_pairs() {
        let (d, t) = task();
        let mut m = O2SiteRec::new(&d, &t, tiny_cfg(Variant::Full));
        m.train();
        let pairs: Vec<(usize, usize)> = t.split.test.iter().map(|i| (i.region, i.ty)).collect();
        let preds = m.predict(&pairs);
        assert_eq!(preds.len(), pairs.len());
        for &p in &preds {
            assert!((0.0..=1.0).contains(&p), "prediction {p} out of range");
        }
        // Predictions should not be a constant.
        let min = preds.iter().copied().fold(f32::MAX, f32::min);
        let max = preds.iter().copied().fold(f32::MIN, f32::max);
        assert!(max - min > 1e-4, "constant predictions");
    }

    #[test]
    fn recommend_ranks_descending() {
        let (d, t) = task();
        let mut m = O2SiteRec::new(&d, &t, tiny_cfg(Variant::Full));
        m.train();
        let cands: Vec<usize> = t.split.test.iter().map(|i| i.region).take(10).collect();
        let ranked = m.recommend(t.split.test[0].ty, &cands);
        assert_eq!(ranked.len(), cands.len());
        for w in ranked.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn unknown_region_predicts_zero() {
        let (d, t) = task();
        let m = O2SiteRec::new(&d, &t, tiny_cfg(Variant::Full));
        // A region with no stores: find one.
        let no_store = (0..t.n_regions)
            .find(|&r| t.hetero.s_of_region[r].is_none())
            .expect("tiny city has empty regions");
        let p = m.predict(&[(no_store, 0)]);
        assert_eq!(p[0], 0.0);
    }

    #[test]
    fn epoch_graph_seeds_are_pinned() {
        // The per-epoch tape seed is `seed ^ (epoch << 1)` — the shift binds
        // tighter than the xor. These values are load-bearing: changing them
        // changes every dropout mask and breaks historical reproducibility.
        assert_eq!(epoch_graph_seed(17, 0), 17);
        assert_eq!(epoch_graph_seed(17, 1), 19);
        assert_eq!(epoch_graph_seed(17, 2), 21);
        assert_eq!(epoch_graph_seed(17, 3), 23);
        assert_eq!(epoch_graph_seed(17, 8), 17 ^ 16);
        // Distinct across the default epoch range.
        let seeds: std::collections::HashSet<u64> =
            (0..60).map(|e| epoch_graph_seed(17, e)).collect();
        assert_eq!(seeds.len(), 60);
    }

    #[test]
    fn healthy_run_records_no_recoveries() {
        let (d, t) = task();
        let mut m = O2SiteRec::new(&d, &t, tiny_cfg(Variant::Full));
        m.try_train().unwrap();
        assert!(m.recovery_events().is_empty());
        assert!(m.history().iter().all(|e| e.recoveries == 0));
    }

    #[test]
    fn resumed_run_is_bit_identical_to_uninterrupted() {
        let (d, t) = task();
        let dir = std::env::temp_dir().join(format!("siterec_core_resume_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let policy = CheckpointPolicy::new(&dir);

        // Reference: one uninterrupted 8-epoch run.
        let mut full = O2SiteRec::new(&d, &t, tiny_cfg(Variant::Full));
        full.try_train().unwrap();

        // Interrupted: 4 epochs with checkpoints, then a *fresh* model picks
        // the run up from disk and finishes the remaining 4.
        let mut half_cfg = tiny_cfg(Variant::Full);
        half_cfg.epochs = 4;
        let mut first = O2SiteRec::new(&d, &t, half_cfg);
        first.try_train_resumable(&policy).unwrap();
        assert_eq!(first.history().len(), 4);

        let mut second = O2SiteRec::new(&d, &t, tiny_cfg(Variant::Full));
        second.try_train_resumable(&policy).unwrap();

        // Raw-bit equality of every parameter, and of the full loss trace.
        for (a, b) in full.param_store().iter().zip(second.param_store().iter()) {
            assert_eq!(a.name, b.name);
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a.value), bits(&b.value), "param {} differs", a.name);
        }
        assert_eq!(full.history().len(), second.history().len());
        for (x, y) in full.history().iter().zip(second.history()) {
            assert_eq!(x.epoch, y.epoch);
            assert_eq!(x.loss.to_bits(), y.loss.to_bits());
            assert_eq!(x.o2.to_bits(), y.o2.to_bits());
            assert_eq!(x.o1.to_bits(), y.o1.to_bits());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_for_other_seed_is_ignored() {
        let (d, t) = task();
        let dir = std::env::temp_dir().join(format!("siterec_core_seedchk_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let policy = CheckpointPolicy::new(&dir);
        let mut m = O2SiteRec::new(&d, &t, tiny_cfg(Variant::Full));
        m.try_train_resumable(&policy).unwrap();

        // A different seed must start fresh, not adopt the foreign state.
        let mut other_cfg = tiny_cfg(Variant::Full);
        other_cfg.seed += 1;
        let mut other = O2SiteRec::new(&d, &t, other_cfg);
        other.try_train_resumable(&policy).unwrap();
        assert_eq!(other.history().len(), 8);
        assert_eq!(other.history()[0].epoch, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deterministic_given_seed() {
        let (d, t) = task();
        let mut a = O2SiteRec::new(&d, &t, tiny_cfg(Variant::Full));
        let mut b = O2SiteRec::new(&d, &t, tiny_cfg(Variant::Full));
        a.train();
        b.train();
        let pairs: Vec<(usize, usize)> = t
            .split
            .test
            .iter()
            .take(5)
            .map(|i| (i.region, i.ty))
            .collect();
        assert_eq!(a.predict(&pairs), b.predict(&pairs));
    }
}
