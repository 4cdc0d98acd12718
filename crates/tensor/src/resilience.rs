//! Training resilience: NaN/divergence guardrails with deterministic
//! checkpoint-rollback recovery.
//!
//! Long experiment sweeps (model × seed × split) die in two characteristic
//! ways: a non-finite value silently poisons the run (NaN loss, NaN
//! gradients, a NaN constant baked into the tape), or the optimizer
//! diverges and the loss explodes. [`TrainGuard`] wraps any
//! tape-per-epoch training loop with per-epoch health checks and a bounded
//! recovery budget:
//!
//! 1. **Detect** — after the forward pass, check the tape for recorded
//!    non-finite faults ([`Graph::fault`](crate::Graph::fault)) and the loss
//!    for non-finiteness or explosion relative to the best committed loss;
//!    after the backward pass, check every harvested gradient.
//! 2. **Roll back** — restore the [`ParamStore`] and [`Adam`] state from an
//!    in-memory checkpoint. Non-finite faults restore the last committed
//!    checkpoint and retry the same epoch (the fault is in the *upcoming*
//!    step). A loss explosion is different: the loss is computed *before*
//!    stepping, so the culprit is the step already committed at the previous
//!    epoch — the guard keeps two checkpoints, drops the culprit commit, and
//!    redoes that epoch instead (retrying the same state would replay the
//!    same exploded loss until the budget dies).
//! 3. **Degrade** — halve the learning rate and retry from the rollback
//!    epoch with a retry-variant graph seed ([`retry_seed`]).
//! 4. **Give up loudly** — once the recovery budget is exhausted, return a
//!    structured [`TrainError`] instead of a poisoned model.
//!
//! Every recovery is recorded as a [`RecoveryEvent`] so reruns are
//! auditable. Recovery decisions are keyed only off values that are
//! bit-deterministic in (seed, epoch) — never wall clock — and the tensor
//! kernels are bitwise thread-count invariant, so the recovery trace of a
//! run is identical across repeats and thread counts.

use crate::graph::Graph;
use crate::optim::Adam;
use crate::param::ParamStore;
use siterec_obs as obs;
use std::fmt;

/// What a per-epoch health check found wrong.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// A non-finite value was recorded on the tape (op description).
    NonFiniteOp(String),
    /// The epoch loss itself is NaN or infinite.
    NonFiniteLoss(f32),
    /// A harvested gradient contains a non-finite value (parameter name).
    NonFiniteGradient(String),
    /// The loss exploded past `explosion_factor` × the best committed loss.
    LossExplosion {
        /// The exploded loss value.
        loss: f32,
        /// Best loss committed so far (the reference).
        best: f32,
    },
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::NonFiniteOp(op) => write!(f, "non-finite value on tape: {op}"),
            Fault::NonFiniteLoss(l) => write!(f, "non-finite loss: {l}"),
            Fault::NonFiniteGradient(p) => write!(f, "non-finite gradient in parameter {p}"),
            Fault::LossExplosion { loss, best } => {
                write!(f, "loss explosion: {loss} vs best committed {best}")
            }
        }
    }
}

/// Structured training failure: the fault that could not be recovered within
/// the guard's budget.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainError {
    /// Epoch at which the final, unrecoverable fault was detected.
    pub epoch: usize,
    /// Recovery attempts spent before giving up.
    pub recoveries: usize,
    /// The fault itself.
    pub fault: Fault,
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "training failed at epoch {} after {} recovery attempt(s): {}",
            self.epoch, self.recoveries, self.fault
        )
    }
}

impl std::error::Error for TrainError {}

/// One recovery the guard performed: rollback + learning-rate decay.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryEvent {
    /// Epoch at which the fault was detected (the epoch that was retried).
    pub epoch: usize,
    /// The detected fault.
    pub fault: Fault,
    /// Epoch of the checkpoint restored (`None` = initial parameters).
    pub rollback_to: Option<usize>,
    /// Learning rate before the decay.
    pub lr_before: f32,
    /// Learning rate after the decay (used for the retry and onwards).
    pub lr_after: f32,
}

/// Emit a [`RecoveryEvent`] into the observability journal as a first-class
/// `recovery` record, with enough context (model, seed, epoch, attempt) to
/// re-run the failed cell standalone. The guard itself does not know the
/// model name or run seed, so the training loop that owns them calls this
/// right after a successful `TrainGuard::recover`. No-op when the recorder
/// is disabled.
pub fn record_recovery(model: &str, seed: u64, attempt: usize, event: &RecoveryEvent) {
    if !obs::enabled() {
        return;
    }
    let rollback = event.rollback_to.map_or(-1, |e| e as i64);
    obs::record_fields(
        "recovery",
        vec![
            ("model", obs::Value::from(model)),
            ("seed", obs::Value::from(seed)),
            ("epoch", obs::Value::from(event.epoch)),
            ("attempt", obs::Value::from(attempt)),
            ("fault", obs::Value::from(event.fault.to_string())),
            ("rollback_to", obs::Value::Int(rollback)),
            ("lr_before", obs::Value::from(event.lr_before)),
            ("lr_after", obs::Value::from(event.lr_after)),
        ],
    );
    obs::counter_add("train.recoveries", 1);
}

/// Emit a terminal [`TrainError`] into the observability journal as a
/// `train_error` record. No-op when the recorder is disabled.
pub fn record_train_error(model: &str, seed: u64, err: &TrainError) {
    if !obs::enabled() {
        return;
    }
    obs::record_fields(
        "train_error",
        vec![
            ("model", obs::Value::from(model)),
            ("seed", obs::Value::from(seed)),
            ("epoch", obs::Value::from(err.epoch)),
            ("recoveries", obs::Value::from(err.recoveries)),
            ("fault", obs::Value::from(err.fault.to_string())),
        ],
    );
    obs::counter_add("train.errors", 1);
}

/// Guardrail configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardConfig {
    /// Total recovery budget across the whole run (0 = fail on first fault).
    pub max_recoveries: usize,
    /// Loss explosion threshold: fault when
    /// `loss > explosion_factor * best_committed_loss` (0 disables the
    /// explosion check; non-finite checks stay active).
    pub explosion_factor: f32,
    /// Multiplier applied to the learning rate on every recovery.
    pub lr_decay: f32,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig {
            max_recoveries: 4,
            explosion_factor: 1e4,
            lr_decay: 0.5,
        }
    }
}

/// Deterministic retry-variant of a per-epoch graph seed.
///
/// Attempt 0 returns `base` unchanged, so guarded training is bit-identical
/// to the historical unguarded loops whenever no fault occurs. Later
/// attempts re-mix the seed through SplitMix64 so retried epochs draw fresh
/// dropout masks — still a pure function of (seed, epoch, attempt).
pub fn retry_seed(base: u64, attempt: usize) -> u64 {
    if attempt == 0 {
        return base;
    }
    let mut z = base.wrapping_add((attempt as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Per-epoch health monitor with checkpoint-rollback recovery.
///
/// The guarded loop shape (see `O2SiteRec::try_train` and
/// `TrainLoop::try_run`):
///
/// ```text
/// let mut guard = TrainGuard::new(cfg, &ps, &opt);
/// while epoch < epochs {
///     let seed = retry_seed(epoch_seed, guard.attempt(epoch));
///     ... forward on a fresh Graph ...
///     if let Some(fault) = guard.pre_step_fault(&g, loss) {
///         epoch = guard.recover(epoch, fault, &mut ps, &mut opt)?;
///         history.truncate(epoch); continue;
///     }
///     ... backward + harvest ...
///     if let Some(fault) = guard.grad_fault(&ps) {
///         epoch = guard.recover(epoch, fault, &mut ps, &mut opt)?;
///         history.truncate(epoch); continue;
///     }
///     ... clip + opt.step ...
///     guard.commit(epoch, loss, &ps, &opt);
///     epoch += 1;
/// }
/// ```
#[derive(Debug, Clone)]
pub struct TrainGuard {
    cfg: GuardConfig,
    ckpt_params: ParamStore,
    ckpt_opt: Adam,
    ckpt_epoch: Option<usize>,
    // Penultimate checkpoint: the rollback target for loss explosions, where
    // the last *committed* step is the culprit.
    prev_params: ParamStore,
    prev_opt: Adam,
    prev_epoch: Option<usize>,
    prev_best: f32,
    best_loss: f32,
    lr: f32,
    events: Vec<RecoveryEvent>,
    retry_epoch: Option<usize>,
    retry_attempt: usize,
}

impl TrainGuard {
    /// New guard, snapshotting the initial parameter/optimizer state as the
    /// epoch-(-1) checkpoint.
    pub fn new(cfg: GuardConfig, ps: &ParamStore, opt: &Adam) -> TrainGuard {
        TrainGuard {
            cfg,
            ckpt_params: ps.clone(),
            ckpt_opt: opt.clone(),
            ckpt_epoch: None,
            prev_params: ps.clone(),
            prev_opt: opt.clone(),
            prev_epoch: None,
            prev_best: f32::INFINITY,
            best_loss: f32::INFINITY,
            lr: opt.lr,
            events: Vec::new(),
            retry_epoch: None,
            retry_attempt: 0,
        }
    }

    /// Current (possibly decayed) learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Retry attempt index for `epoch` (0 on the first try), for
    /// [`retry_seed`].
    pub fn attempt(&self, epoch: usize) -> usize {
        if self.retry_epoch == Some(epoch) {
            self.retry_attempt
        } else {
            0
        }
    }

    /// Recovery events performed so far.
    pub fn events(&self) -> &[RecoveryEvent] {
        &self.events
    }

    /// Consume the guard, returning the full recovery trace.
    pub fn into_events(self) -> Vec<RecoveryEvent> {
        self.events
    }

    /// Health check after the forward pass, before stepping: tape faults,
    /// non-finite loss, loss explosion.
    pub fn pre_step_fault(&self, graph: &Graph, loss: f32) -> Option<Fault> {
        if let Some(op) = graph.fault() {
            return Some(Fault::NonFiniteOp(op.to_string()));
        }
        if !loss.is_finite() {
            return Some(Fault::NonFiniteLoss(loss));
        }
        // The floor keeps benign optimizer oscillations near convergence
        // (best loss ~1e-6, bounce to ~1e-2) from reading as divergence:
        // explosion needs a large jump relative to max(best, 1e-3).
        if self.cfg.explosion_factor > 0.0
            && self.best_loss.is_finite()
            && loss > self.cfg.explosion_factor * self.best_loss.max(1e-3)
        {
            return Some(Fault::LossExplosion {
                loss,
                best: self.best_loss,
            });
        }
        None
    }

    /// Health check after `harvest`: non-finite gradients.
    pub fn grad_fault(&self, ps: &ParamStore) -> Option<Fault> {
        ps.first_non_finite_grad()
            .map(|name| Fault::NonFiniteGradient(name.to_string()))
    }

    /// Roll back to a checkpoint and decay the learning rate, or return a
    /// [`TrainError`] if the recovery budget is spent.
    ///
    /// On `Ok(resume)` the caller must truncate its history to `resume`
    /// epochs and continue from epoch `resume` (with [`TrainGuard::attempt`]
    /// feeding [`retry_seed`]). Non-finite faults resume at `epoch` itself
    /// (the last committed state is presumed good); a [`Fault::LossExplosion`]
    /// resumes one epoch earlier, because the loss was computed *before* this
    /// epoch's step — the divergence was committed by the previous one, and
    /// replaying the same committed state would reproduce the same exploded
    /// loss verbatim.
    pub fn recover(
        &mut self,
        epoch: usize,
        fault: Fault,
        ps: &mut ParamStore,
        opt: &mut Adam,
    ) -> Result<usize, TrainError> {
        if self.events.len() >= self.cfg.max_recoveries {
            return Err(TrainError {
                epoch,
                recoveries: self.events.len(),
                fault,
            });
        }
        let lr_before = self.lr;
        self.lr *= self.cfg.lr_decay;
        if matches!(fault, Fault::LossExplosion { .. }) {
            // Drop the culprit commit: collapse both checkpoints onto the
            // penultimate one and redo its epoch at the decayed rate.
            self.ckpt_params.clone_from(&self.prev_params);
            self.ckpt_opt.clone_from(&self.prev_opt);
            self.ckpt_epoch = self.prev_epoch;
            self.best_loss = self.prev_best;
        }
        let resume = self.ckpt_epoch.map_or(0, |e| e + 1);
        ps.clone_from(&self.ckpt_params);
        opt.clone_from(&self.ckpt_opt);
        opt.lr = self.lr;
        self.events.push(RecoveryEvent {
            epoch,
            fault,
            rollback_to: self.ckpt_epoch,
            lr_before,
            lr_after: self.lr,
        });
        self.retry_attempt = if self.retry_epoch == Some(resume) {
            self.retry_attempt + 1
        } else {
            1
        };
        self.retry_epoch = Some(resume);
        Ok(resume)
    }

    /// Encode the guard's full state — config, both checkpoints, best-loss
    /// references, decayed lr, the recovery trace and the retry counters —
    /// for the checkpoint wire format. Restoring this state makes recovery
    /// decisions after a process restart identical to an uninterrupted run.
    pub(crate) fn encode(&self, w: &mut crate::wire::Writer) {
        w.usize(self.cfg.max_recoveries);
        w.f32(self.cfg.explosion_factor);
        w.f32(self.cfg.lr_decay);
        self.ckpt_params.encode(w);
        self.ckpt_opt.encode(w);
        w.opt_usize(self.ckpt_epoch);
        self.prev_params.encode(w);
        self.prev_opt.encode(w);
        w.opt_usize(self.prev_epoch);
        w.f32(self.prev_best);
        w.f32(self.best_loss);
        w.f32(self.lr);
        w.usize(self.events.len());
        for ev in &self.events {
            encode_event(w, ev);
        }
        w.opt_usize(self.retry_epoch);
        w.usize(self.retry_attempt);
    }

    /// Decode a guard written by [`Self::encode`].
    pub(crate) fn decode(
        r: &mut crate::wire::Reader<'_>,
    ) -> Result<TrainGuard, crate::wire::DecodeError> {
        let cfg = GuardConfig {
            max_recoveries: r.usize()?,
            explosion_factor: r.f32()?,
            lr_decay: r.f32()?,
        };
        let ckpt_params = ParamStore::decode(r)?;
        let ckpt_opt = Adam::decode(r)?;
        let ckpt_epoch = r.opt_usize()?;
        let prev_params = ParamStore::decode(r)?;
        let prev_opt = Adam::decode(r)?;
        let prev_epoch = r.opt_usize()?;
        let prev_best = r.f32()?;
        let best_loss = r.f32()?;
        let lr = r.f32()?;
        let n_events = r.usize()?;
        let mut events = Vec::with_capacity(n_events.min(1 << 10));
        for _ in 0..n_events {
            events.push(decode_event(r)?);
        }
        let retry_epoch = r.opt_usize()?;
        let retry_attempt = r.usize()?;
        Ok(TrainGuard {
            cfg,
            ckpt_params,
            ckpt_opt,
            ckpt_epoch,
            prev_params,
            prev_opt,
            prev_epoch,
            prev_best,
            best_loss,
            lr,
            events,
            retry_epoch,
            retry_attempt,
        })
    }

    /// Record a healthy epoch: snapshot the post-step state as the new
    /// rollback target (keeping the previous one for explosion rollbacks)
    /// and update the best-loss reference.
    pub fn commit(&mut self, epoch: usize, loss: f32, ps: &ParamStore, opt: &Adam) {
        // Rotate: the current snapshot becomes the previous one, and the
        // retired previous one's buffers take the copy of the new state, so
        // no third snapshot is ever allocated beside the two live ones.
        std::mem::swap(&mut self.prev_params, &mut self.ckpt_params);
        std::mem::swap(&mut self.prev_opt, &mut self.ckpt_opt);
        self.ckpt_params.clone_from(ps);
        self.ckpt_opt.clone_from(opt);
        self.prev_epoch = self.ckpt_epoch.replace(epoch);
        self.prev_best = self.best_loss;
        if loss < self.best_loss {
            self.best_loss = loss;
        }
        if self.retry_epoch == Some(epoch) {
            self.retry_epoch = None;
            self.retry_attempt = 0;
        }
    }
}

fn encode_fault(w: &mut crate::wire::Writer, fault: &Fault) {
    match fault {
        Fault::NonFiniteOp(op) => {
            w.u8(0);
            w.str(op);
        }
        Fault::NonFiniteLoss(l) => {
            w.u8(1);
            w.f32(*l);
        }
        Fault::NonFiniteGradient(p) => {
            w.u8(2);
            w.str(p);
        }
        Fault::LossExplosion { loss, best } => {
            w.u8(3);
            w.f32(*loss);
            w.f32(*best);
        }
    }
}

fn decode_fault(r: &mut crate::wire::Reader<'_>) -> Result<Fault, crate::wire::DecodeError> {
    Ok(match r.u8()? {
        0 => Fault::NonFiniteOp(r.str()?),
        1 => Fault::NonFiniteLoss(r.f32()?),
        2 => Fault::NonFiniteGradient(r.str()?),
        3 => Fault::LossExplosion {
            loss: r.f32()?,
            best: r.f32()?,
        },
        b => return Err(crate::wire::DecodeError(format!("invalid Fault tag {b}"))),
    })
}

fn encode_event(w: &mut crate::wire::Writer, ev: &RecoveryEvent) {
    w.usize(ev.epoch);
    encode_fault(w, &ev.fault);
    w.opt_usize(ev.rollback_to);
    w.f32(ev.lr_before);
    w.f32(ev.lr_after);
}

fn decode_event(
    r: &mut crate::wire::Reader<'_>,
) -> Result<RecoveryEvent, crate::wire::DecodeError> {
    Ok(RecoveryEvent {
        epoch: r.usize()?,
        fault: decode_fault(r)?,
        rollback_to: r.opt_usize()?,
        lr_before: r.f32()?,
        lr_after: r.f32()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::init::Init;
    use crate::optim::Optimizer;
    use crate::tensor::Tensor;

    fn store() -> (ParamStore, Adam) {
        let mut ps = ParamStore::new(7);
        ps.add("w", 1, 2, Init::Constant(1.0));
        (ps, Adam::new(0.1))
    }

    #[test]
    fn retry_seed_identity_at_attempt_zero() {
        assert_eq!(retry_seed(42, 0), 42);
        assert_ne!(retry_seed(42, 1), 42);
        assert_ne!(retry_seed(42, 1), retry_seed(42, 2));
        // Deterministic.
        assert_eq!(retry_seed(42, 3), retry_seed(42, 3));
    }

    #[test]
    fn healthy_epochs_commit_without_events() {
        let (ps, opt) = store();
        let mut guard = TrainGuard::new(GuardConfig::default(), &ps, &opt);
        let g = Graph::new();
        assert_eq!(guard.pre_step_fault(&g, 1.0), None);
        assert_eq!(guard.grad_fault(&ps), None);
        guard.commit(0, 1.0, &ps, &opt);
        assert!(guard.events().is_empty());
        assert_eq!(guard.attempt(1), 0);
    }

    #[test]
    fn non_finite_loss_detected() {
        let (ps, opt) = store();
        let guard = TrainGuard::new(GuardConfig::default(), &ps, &opt);
        let g = Graph::new();
        assert!(matches!(
            guard.pre_step_fault(&g, f32::NAN),
            Some(Fault::NonFiniteLoss(_))
        ));
        assert!(matches!(
            guard.pre_step_fault(&g, f32::INFINITY),
            Some(Fault::NonFiniteLoss(_))
        ));
    }

    #[test]
    fn explosion_detected_only_after_commit() {
        let (ps, opt) = store();
        let mut guard = TrainGuard::new(GuardConfig::default(), &ps, &opt);
        let g = Graph::new();
        // No committed reference yet: huge first loss is not an explosion.
        assert_eq!(guard.pre_step_fault(&g, 1e20), None);
        guard.commit(0, 1.0, &ps, &opt);
        assert!(matches!(
            guard.pre_step_fault(&g, 1e9),
            Some(Fault::LossExplosion { .. })
        ));
        assert_eq!(guard.pre_step_fault(&g, 5.0), None);
    }

    #[test]
    fn recover_rolls_back_params_and_decays_lr() {
        let (mut ps, mut opt) = store();
        let mut guard = TrainGuard::new(GuardConfig::default(), &ps, &opt);
        // Corrupt the live params, then recover.
        ps.get_mut(crate::param::ParamId(0)).value = Tensor::from_vec(1, 2, vec![9.0, 9.0]);
        opt.lr = 0.1;
        let resume = guard
            .recover(0, Fault::NonFiniteLoss(f32::NAN), &mut ps, &mut opt)
            .unwrap();
        assert_eq!(resume, 0, "no commits yet: resume from the start");
        assert_eq!(ps.get(crate::param::ParamId(0)).value.data(), &[1.0, 1.0]);
        assert!((opt.lr - 0.05).abs() < 1e-9);
        assert_eq!(guard.attempt(0), 1);
        assert_eq!(guard.attempt(4), 0);
        let ev = &guard.events()[0];
        assert_eq!(ev.epoch, 0);
        assert_eq!(ev.rollback_to, None);
        assert!((ev.lr_before - 0.1).abs() < 1e-9 && (ev.lr_after - 0.05).abs() < 1e-9);
    }

    #[test]
    fn explosion_rolls_back_the_culprit_commit() {
        // The exploding loss is observed before stepping, so the bad step is
        // the one already committed: the guard must restore the *penultimate*
        // checkpoint and resume one epoch earlier.
        let (mut ps, mut opt) = store();
        let mut guard = TrainGuard::new(GuardConfig::default(), &ps, &opt);
        ps.get_mut(crate::param::ParamId(0)).value = Tensor::from_vec(1, 2, vec![2.0, 2.0]);
        guard.commit(0, 1.0, &ps, &opt);
        ps.get_mut(crate::param::ParamId(0)).value = Tensor::from_vec(1, 2, vec![8.0, 8.0]);
        guard.commit(1, 1.1, &ps, &opt);

        let fault = Fault::LossExplosion {
            loss: 1e9,
            best: 1.0,
        };
        let resume = guard.recover(2, fault, &mut ps, &mut opt).unwrap();
        assert_eq!(resume, 1, "redo the epoch whose step diverged");
        assert_eq!(
            ps.get(crate::param::ParamId(0)).value.data(),
            &[2.0, 2.0],
            "penultimate checkpoint restored, culprit commit dropped"
        );
        assert_eq!(guard.events()[0].rollback_to, Some(0));
        assert_eq!(guard.attempt(1), 1, "retried epoch draws a fresh seed");

        // A non-explosion fault, by contrast, restores the last commit.
        let mut guard2 = TrainGuard::new(GuardConfig::default(), &ps, &opt);
        guard2.commit(0, 1.0, &ps, &opt);
        ps.get_mut(crate::param::ParamId(0)).value = Tensor::from_vec(1, 2, vec![5.0, 5.0]);
        let resume2 = guard2
            .recover(1, Fault::NonFiniteLoss(f32::NAN), &mut ps, &mut opt)
            .unwrap();
        assert_eq!(resume2, 1);
        assert_eq!(ps.get(crate::param::ParamId(0)).value.data(), &[2.0, 2.0]);
    }

    #[test]
    fn budget_exhaustion_returns_train_error() {
        let (mut ps, mut opt) = store();
        let cfg = GuardConfig {
            max_recoveries: 2,
            ..Default::default()
        };
        let mut guard = TrainGuard::new(cfg, &ps, &opt);
        for _ in 0..2 {
            guard
                .recover(0, Fault::NonFiniteLoss(f32::NAN), &mut ps, &mut opt)
                .unwrap();
        }
        let err = guard
            .recover(0, Fault::NonFiniteLoss(f32::NAN), &mut ps, &mut opt)
            .unwrap_err();
        assert_eq!(err.recoveries, 2);
        assert_eq!(err.epoch, 0);
        assert!(err.to_string().contains("non-finite loss"));
    }

    #[test]
    fn guarded_loop_recovers_from_injected_divergence() {
        // A loop that artificially injects +inf loss at epoch 2 attempt 0:
        // the guard must roll back, retry, and finish with finite loss.
        let mut ps = ParamStore::new(1);
        let w = ps.add("w", 1, 1, Init::Constant(0.0));
        let mut opt = Adam::new(0.2);
        let mut guard = TrainGuard::new(GuardConfig::default(), &ps, &opt);
        let mut losses = Vec::new();
        let mut epoch = 0;
        while epoch < 6 {
            let attempt = guard.attempt(epoch);
            let mut g = Graph::with_seed(retry_seed(epoch as u64, attempt));
            let binds = ps.bind(&mut g);
            let loss = g.mse_loss(binds.var(w), &Tensor::scalar(2.0));
            let mut lv = g.value(loss).item();
            if epoch == 2 && attempt == 0 {
                lv = f32::INFINITY; // injected fault
            }
            if let Some(fault) = guard.pre_step_fault(&g, lv) {
                epoch = guard.recover(epoch, fault, &mut ps, &mut opt).unwrap();
                losses.truncate(epoch);
                continue;
            }
            g.backward(loss);
            ps.zero_grads();
            ps.harvest(&g, &binds);
            if let Some(fault) = guard.grad_fault(&ps) {
                epoch = guard.recover(epoch, fault, &mut ps, &mut opt).unwrap();
                losses.truncate(epoch);
                continue;
            }
            opt.step(&mut ps);
            guard.commit(epoch, lv, &ps, &opt);
            losses.push(lv);
            epoch += 1;
        }
        assert_eq!(losses.len(), 6);
        assert!(losses.iter().all(|l| l.is_finite()));
        assert_eq!(guard.events().len(), 1);
        assert_eq!(guard.events()[0].epoch, 2);
        assert_eq!(guard.events()[0].rollback_to, Some(1));
    }
}
