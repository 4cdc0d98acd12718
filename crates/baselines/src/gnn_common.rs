//! Shared building blocks for the graph-neural baselines (GC-MC, GraphRec,
//! RGCN, HGT): featured node sets, mean/attention aggregation over flattened
//! edge lists, pair scoring, and the Adam training loop.

use siterec_graphs::SiteRecTask;
use siterec_obs as obs;
use siterec_tensor::checkpoint::{self, ByteReader, ByteWriter, CheckpointPolicy, StateRef};
use siterec_tensor::nn::{Embedding, Linear};
use siterec_tensor::optim::{Adam, Optimizer};
use siterec_tensor::{
    record_recovery, record_train_error, retry_seed, Bindings, Graph, GuardConfig, Index, Init,
    ParamId, ParamStore, RecoveryEvent, TapeArena, Tensor, TrainError, TrainGuard, Var,
};
use std::sync::Arc;

/// A node set with ID embeddings and (optional) input features, fused by a
/// linear projection into the model dimension.
pub struct NodeSet {
    emb: Embedding,
    feat: Option<Tensor>,
    proj: Option<Linear>,
}

impl NodeSet {
    /// Node set with features: initial embedding `relu(W [id_emb, x])`.
    pub fn with_features(
        ps: &mut ParamStore,
        name: &str,
        n: usize,
        dim: usize,
        features: Vec<Vec<f32>>,
    ) -> NodeSet {
        assert_eq!(features.len(), n, "feature arity mismatch");
        let fdim = features.first().map_or(0, Vec::len);
        let feat = Tensor::from_rows(&features);
        NodeSet {
            emb: Embedding::new(ps, &format!("{name}.emb"), n.max(1), dim),
            proj: Some(Linear::new(ps, &format!("{name}.proj"), dim + fdim, dim)),
            feat: Some(feat),
        }
    }

    /// Node set without features (plain ID embeddings).
    pub fn plain(ps: &mut ParamStore, name: &str, n: usize, dim: usize) -> NodeSet {
        NodeSet {
            emb: Embedding::new(ps, &format!("{name}.emb"), n.max(1), dim),
            feat: None,
            proj: None,
        }
    }

    /// Initial embeddings of all nodes (`n x dim`).
    pub fn initial(&self, g: &mut Graph, binds: &Bindings) -> Var {
        let id = self.emb.all(binds);
        match (&self.feat, &self.proj) {
            (Some(f), Some(p)) => {
                let fc = g.constant_ref(f);
                let cat = g.concat_cols(&[id, fc]);
                let lin = p.forward(g, binds, cat);
                g.relu(lin)
            }
            _ => id,
        }
    }
}

/// Degree-normalized mean aggregation of `src_emb` rows into `dsts.n()` rows.
pub fn mean_aggregate(
    g: &mut Graph,
    src_emb: Var,
    srcs: &Arc<Index>,
    dsts: &Arc<Index>,
    dim: usize,
) -> Var {
    if srcs.is_empty() {
        return g.constant(Tensor::zeros(dsts.n(), dim));
    }
    let msgs = g.gather_rows(src_emb, srcs);
    g.segment_mean(msgs, dsts)
}

/// Single-head GAT-style attention aggregation with a learned scoring vector.
pub struct GatAggregator {
    att: ParamId,
    dim: usize,
}

impl GatAggregator {
    /// New aggregator for `dim`-dimensional embeddings.
    pub fn new(ps: &mut ParamStore, name: &str, dim: usize) -> GatAggregator {
        GatAggregator {
            att: ps.add(name, 2 * dim, 1, Init::XavierUniform),
            dim,
        }
    }

    /// Aggregate `src_emb` into destinations with attention computed from
    /// `[h_src, h_dst]` pairs.
    pub fn forward(
        &self,
        g: &mut Graph,
        binds: &Bindings,
        src_emb: Var,
        dst_emb: Var,
        srcs: &Arc<Index>,
        dsts: &Arc<Index>,
    ) -> Var {
        if srcs.is_empty() {
            return g.constant(Tensor::zeros(dsts.n(), self.dim));
        }
        let s = g.gather_rows(src_emb, srcs);
        let d = g.gather_rows(dst_emb, dsts);
        let pair = g.concat_cols(&[s, d]);
        let att = binds.var(self.att);
        let raw = g.matmul(pair, att);
        let score = g.leaky_relu(raw, 0.2);
        let alpha = g.segment_softmax(score, dsts);
        let weighted = g.mul_col_broadcast(s, alpha);
        g.segment_sum(weighted, dsts)
    }
}

/// Score `(region, type)` pairs in evaluation mode. `forward` maps the
/// store-region and type node indices of the pairs to an `n x 1`
/// prediction; regions that host no stores (no store-region node) score 0.
pub fn predict_pairs(
    task: &SiteRecTask,
    ps: &ParamStore,
    pairs: &[(usize, usize)],
    forward: impl FnOnce(&mut Graph, &Bindings, &Arc<Index>, &Arc<Index>) -> Var,
) -> Vec<f32> {
    let mut out = vec![0.0f32; pairs.len()];
    let mut idx = Vec::new();
    let (mut ss, mut aa) = (Vec::new(), Vec::new());
    for (i, &(region, ty)) in pairs.iter().enumerate() {
        if let Some(s) = task.hetero.s_of_region.get(region).copied().flatten() {
            idx.push(i);
            ss.push(s);
            aa.push(ty);
        }
    }
    if ss.is_empty() {
        return out;
    }
    let ss = Index::new(ss, task.hetero.num_s());
    let aa = Index::new(aa, task.n_types);
    let mut g = Graph::new();
    g.training = false;
    let binds = ps.bind(&mut g);
    let pred = forward(&mut g, &binds, &ss, &aa);
    let v = g.value(pred);
    for (j, &i) in idx.iter().enumerate() {
        out[i] = v.get(j, 0);
    }
    out
}

/// Configuration of the shared Adam training loop.
#[derive(Debug, Clone, Copy)]
pub struct TrainLoop {
    /// Model name reported in telemetry spans / journal records.
    pub name: &'static str,
    /// Full-batch epochs.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f32,
    /// Gradient-clip max norm (0 disables).
    pub grad_clip: f32,
    /// Dropout / graph seed.
    pub seed: u64,
    /// Lease tape buffers from an epoch-persistent arena owned by the loop
    /// (bit-identical results either way; off only for memory A/B runs).
    pub arena: bool,
}

impl Default for TrainLoop {
    fn default() -> Self {
        TrainLoop {
            name: "baseline",
            epochs: 60,
            lr: 5e-3,
            grad_clip: 5.0,
            seed: 13,
            arena: true,
        }
    }
}

/// Result of a guarded [`TrainLoop::try_run`]: the per-epoch loss trace plus
/// any recoveries (rollback + lr decay) the guard performed along the way.
#[derive(Debug, Clone)]
pub struct TrainTrace {
    /// Committed loss per epoch.
    pub losses: Vec<f32>,
    /// Recovery events, in order. Empty for a healthy run.
    pub recoveries: Vec<RecoveryEvent>,
}

impl TrainLoop {
    /// Run the loop: `step` builds the loss for the current epoch. Returns
    /// the loss trace. Panics if training diverges beyond the default guard
    /// budget — use [`Self::try_run`] for structured error handling.
    pub fn run(
        &self,
        ps: &mut ParamStore,
        step: impl FnMut(&mut Graph, &Bindings) -> Var,
    ) -> Vec<f32> {
        self.try_run(GuardConfig::default(), ps, step)
            .expect("baseline training diverged beyond the guard's recovery budget")
            .losses
    }

    /// Guarded training loop shared by all GNN baselines: per-epoch health
    /// checks (tape faults, non-finite loss/gradients, loss explosion) with
    /// checkpoint rollback, lr decay and bounded retry. Healthy runs are
    /// bit-identical to the historical unguarded loop ([`retry_seed`] is the
    /// identity at attempt 0).
    pub fn try_run(
        &self,
        guard_cfg: GuardConfig,
        ps: &mut ParamStore,
        step: impl FnMut(&mut Graph, &Bindings) -> Var,
    ) -> Result<TrainTrace, TrainError> {
        self.run_loop(guard_cfg, None, ps, step)
    }

    /// Durable variant of [`Self::try_run`]: checkpoints to `policy.dir` on
    /// the policy's cadence and resumes from an existing checkpoint of this
    /// model name and seed. The same determinism contract as
    /// `O2SiteRec::try_train_resumable` applies — a killed and resumed run
    /// yields raw-bit-identical parameters and losses.
    pub fn try_run_resumable(
        &self,
        guard_cfg: GuardConfig,
        policy: &CheckpointPolicy,
        ps: &mut ParamStore,
        step: impl FnMut(&mut Graph, &Bindings) -> Var,
    ) -> Result<TrainTrace, TrainError> {
        self.run_loop(guard_cfg, Some(policy), ps, step)
    }

    fn run_loop(
        &self,
        guard_cfg: GuardConfig,
        ckpt: Option<&CheckpointPolicy>,
        ps: &mut ParamStore,
        mut step: impl FnMut(&mut Graph, &Bindings) -> Var,
    ) -> Result<TrainTrace, TrainError> {
        let _span = obs::span!(
            "train",
            model = self.name,
            seed = self.seed,
            epochs = self.epochs,
        );
        let mut opt = Adam::new(self.lr);
        let mut guard = TrainGuard::new(guard_cfg, ps, &opt);
        let mut losses = Vec::with_capacity(self.epochs);
        let mut epoch = 0;
        if let Some(policy) = ckpt {
            match checkpoint::load_latest(&policy.dir) {
                Ok(Some(state)) if state.model == self.name && state.seed == self.seed => {
                    epoch = state.next_epoch;
                    *ps = state.params;
                    opt = state.opt;
                    guard = state.guard;
                    losses = decode_losses(&state.user).expect("CRC-valid loss payload decodes");
                    obs::record!(
                        "resume",
                        model = self.name,
                        epoch = epoch,
                        path = policy.dir.display().to_string(),
                    );
                    obs::counter_add("checkpoint.resumes", 1);
                }
                Ok(Some(other)) => {
                    obs::olog!(
                        Summary,
                        "ignoring checkpoint in {} (model {} seed {}, want {} seed {})",
                        policy.dir.display(),
                        other.model,
                        other.seed,
                        self.name,
                        self.seed
                    );
                }
                Ok(None) => {}
                Err(e) => {
                    obs::olog!(
                        Summary,
                        "checkpoint dir {} unreadable ({e}); starting fresh",
                        policy.dir.display()
                    );
                }
            }
        }
        // One pool for the whole run: epoch tapes lease from it and refill
        // it as backward passes their nodes and on drop, so epochs after
        // the first allocate (almost) nothing.
        let arena = self.arena.then(TapeArena::new);
        while epoch < self.epochs {
            let base = self.seed ^ ((epoch as u64) << 3);
            let seed = retry_seed(base, guard.attempt(epoch));
            let mut g = match &arena {
                Some(a) => Graph::with_seed_and_arena(seed, a.clone()),
                None => Graph::with_seed(seed),
            };
            let binds = ps.bind(&mut g);
            let loss = step(&mut g, &binds);
            let loss_v = g.value(loss).item();
            if let Some(fault) = guard.pre_step_fault(&g, loss_v) {
                match guard.recover(epoch, fault, ps, &mut opt) {
                    Ok(resume) => {
                        if let Some(ev) = guard.events().last() {
                            record_recovery(self.name, self.seed, guard.attempt(resume), ev);
                        }
                        epoch = resume;
                    }
                    Err(e) => {
                        record_train_error(self.name, self.seed, &e);
                        return Err(e);
                    }
                }
                losses.truncate(epoch);
                continue;
            }
            g.backward(loss);
            ps.zero_grads();
            ps.harvest(&g, &binds);
            if let Some(fault) = guard.grad_fault(ps) {
                match guard.recover(epoch, fault, ps, &mut opt) {
                    Ok(resume) => {
                        if let Some(ev) = guard.events().last() {
                            record_recovery(self.name, self.seed, guard.attempt(resume), ev);
                        }
                        epoch = resume;
                    }
                    Err(e) => {
                        record_train_error(self.name, self.seed, &e);
                        return Err(e);
                    }
                }
                losses.truncate(epoch);
                continue;
            }
            if self.grad_clip > 0.0 {
                ps.clip_grad_norm(self.grad_clip);
            }
            opt.step(ps);
            guard.commit(epoch, loss_v, ps, &opt);
            obs::record!(
                "train_epoch",
                model = self.name,
                epoch = epoch,
                loss = loss_v,
                arena_peak_mb = arena
                    .as_ref()
                    .map_or(0.0, |a| a.stats().peak_bytes as f64 / (1 << 20) as f64),
            );
            obs::hist_record("train.loss", loss_v as f64);
            losses.push(loss_v);
            if let Some(policy) = ckpt {
                if policy.due(epoch, self.epochs) {
                    let history = encode_losses(&losses);
                    let state = StateRef {
                        model: self.name,
                        seed: self.seed,
                        next_epoch: epoch + 1,
                        params: ps,
                        opt: &opt,
                        guard: &guard,
                        user: &history,
                    };
                    if let Err(e) = checkpoint::save(policy, &state) {
                        // Best-effort: a lost write only widens the replay
                        // window of a future (bit-identical) resume.
                        obs::olog!(
                            Summary,
                            "checkpoint write to {} failed ({e}); continuing",
                            policy.dir.display()
                        );
                    }
                }
            }
            epoch += 1;
        }
        Ok(TrainTrace {
            losses,
            recoveries: guard.into_events(),
        })
    }
}

/// Encode the loss trace as the checkpoint's opaque `user` payload.
fn encode_losses(losses: &[f32]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.usize(losses.len());
    for &l in losses {
        w.f32(l);
    }
    w.into_bytes()
}

/// Decode a payload written by [`encode_losses`].
fn decode_losses(bytes: &[u8]) -> Result<Vec<f32>, checkpoint::ByteDecodeError> {
    let mut r = ByteReader::new(bytes);
    let n = r.usize()?;
    let mut out = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        out.push(r.f32()?);
    }
    r.finish()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_set_with_features_has_projection() {
        let mut ps = ParamStore::new(1);
        let ns = NodeSet::with_features(&mut ps, "s", 3, 4, vec![vec![1.0, 0.0]; 3]);
        let mut g = Graph::new();
        let binds = ps.bind(&mut g);
        let e = ns.initial(&mut g, &binds);
        assert_eq!(g.value(e).shape(), (3, 4));
        let plain = NodeSet::plain(&mut ps, "p", 2, 4);
        let mut g2 = Graph::new();
        let binds2 = ps.bind(&mut g2);
        let e2 = plain.initial(&mut g2, &binds2);
        assert_eq!(g2.value(e2).shape(), (2, 4));
    }

    #[test]
    fn mean_aggregate_empty_and_nonempty() {
        let mut g = Graph::new();
        let src = g.constant(Tensor::from_rows(&[vec![2.0, 0.0], vec![4.0, 2.0]]));
        let out = mean_aggregate(
            &mut g,
            src,
            &Index::new(vec![0, 1], 2),
            &Index::new(vec![0, 0], 2),
            2,
        );
        let v = g.value(out);
        assert_eq!(v.row_slice(0), &[3.0, 1.0]);
        assert_eq!(v.row_slice(1), &[0.0, 0.0]);
        let none = |n| Index::new(Vec::new(), n);
        let empty = mean_aggregate(&mut g, src, &none(2), &none(3), 2);
        assert_eq!(g.value(empty).shape(), (3, 2));
    }

    #[test]
    fn gat_aggregator_normalizes_attention() {
        let mut ps = ParamStore::new(3);
        let gat = GatAggregator::new(&mut ps, "g", 2);
        let mut g = Graph::new();
        let binds = ps.bind(&mut g);
        let src = g.constant(Tensor::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]));
        let dst = g.constant(Tensor::from_rows(&[vec![0.5, 0.5]]));
        let (srcs, dsts) = (Index::new(vec![0, 1], 2), Index::new(vec![0, 0], 1));
        let out = gat.forward(&mut g, &binds, src, dst, &srcs, &dsts);
        let v = g.value(out);
        // Attention weights sum to 1, so output coordinates sum to 1.
        assert!((v.get(0, 0) + v.get(0, 1) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn train_loop_reduces_simple_loss() {
        let mut ps = ParamStore::new(5);
        let w = ps.add("w", 1, 1, Init::Zeros);
        let trace = TrainLoop {
            epochs: 60,
            lr: 0.1,
            ..Default::default()
        }
        .run(&mut ps, |g, binds| {
            g.mse_loss(binds.var(w), &Tensor::scalar(2.0))
        });
        assert!(trace.last().unwrap() < &(trace[0] * 0.1));
    }

    #[test]
    fn try_run_recovers_from_injected_fault() {
        let mut ps = ParamStore::new(5);
        let w = ps.add("w", 1, 1, Init::Zeros);
        let mut calls = 0;
        let trace = TrainLoop {
            epochs: 10,
            lr: 0.1,
            ..Default::default()
        }
        .try_run(GuardConfig::default(), &mut ps, |g, binds| {
            calls += 1;
            let loss = g.mse_loss(binds.var(w), &Tensor::scalar(2.0));
            if calls == 3 {
                // Third forward pass (= epoch 2, attempt 0): poison the tape.
                g.add_scalar(loss, f32::NAN)
            } else {
                loss
            }
        })
        .unwrap();
        assert_eq!(trace.losses.len(), 10);
        assert!(trace.losses.iter().all(|l| l.is_finite()));
        assert_eq!(trace.recoveries.len(), 1);
        assert_eq!(trace.recoveries[0].epoch, 2);
    }

    #[test]
    fn resumable_run_matches_uninterrupted_bits() {
        let dir = std::env::temp_dir().join(format!("siterec_bl_resume_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let policy = CheckpointPolicy::new(&dir);
        let loop_n = |epochs| TrainLoop {
            name: "bl-resume-test",
            epochs,
            lr: 0.1,
            ..Default::default()
        };
        let build = || {
            let mut ps = ParamStore::new(5);
            let w = ps.add("w", 1, 1, Init::Zeros);
            (ps, w)
        };

        // Uninterrupted reference.
        let (mut ps_full, w) = build();
        let full = loop_n(10)
            .try_run(GuardConfig::default(), &mut ps_full, |g, binds| {
                g.mse_loss(binds.var(w), &Tensor::scalar(2.0))
            })
            .unwrap();

        // 5 epochs, then a fresh store resumes from disk to 10.
        let (mut ps_a, w_a) = build();
        loop_n(5)
            .try_run_resumable(GuardConfig::default(), &policy, &mut ps_a, |g, binds| {
                g.mse_loss(binds.var(w_a), &Tensor::scalar(2.0))
            })
            .unwrap();
        let (mut ps_b, w_b) = build();
        let resumed = loop_n(10)
            .try_run_resumable(GuardConfig::default(), &policy, &mut ps_b, |g, binds| {
                g.mse_loss(binds.var(w_b), &Tensor::scalar(2.0))
            })
            .unwrap();

        assert_eq!(full.losses.len(), resumed.losses.len());
        for (a, b) in full.losses.iter().zip(&resumed.losses) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(
            ps_full.get(w).value.item().to_bits(),
            ps_b.get(w_b).value.item().to_bits()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn try_run_fails_structurally_when_budget_spent() {
        let mut ps = ParamStore::new(5);
        let w = ps.add("w", 1, 1, Init::Zeros);
        let err = TrainLoop {
            epochs: 4,
            lr: 0.1,
            ..Default::default()
        }
        .try_run(
            GuardConfig {
                max_recoveries: 2,
                ..Default::default()
            },
            &mut ps,
            |g, binds| {
                let loss = g.mse_loss(binds.var(w), &Tensor::scalar(2.0));
                g.add_scalar(loss, f32::INFINITY)
            },
        )
        .unwrap_err();
        assert_eq!(err.epoch, 0);
        assert_eq!(err.recoveries, 2);
    }
}
