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
//!
//! [`train_guarded`] is the one training loop built on the guard; a model
//! supplies a [`TrainSpec`], its loss step and its [`EpochRecord`] type.

use crate::arena::TapeArena;
use crate::checkpoint::{
    self, ByteDecodeError, ByteReader, ByteWriter, CheckpointPolicy, StateRef,
};
use crate::graph::{Graph, Var};
use crate::optim::{Adam, Optimizer};
use crate::param::{Bindings, ParamStore};
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
/// [`train_guarded`] is the loop that drives it, for O²-SiteRec and the
/// GNN baselines alike.
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

/// One committed epoch of a training history, as [`train_guarded`] appends
/// it and [`encode_history`] stores it; `N` counts the named loss parts the
/// model's step returns beside its total loss.
pub trait EpochRecord<const N: usize>: Sized {
    /// Journal field names of the loss parts, in the step's order.
    const PARTS: [&'static str; N];
    /// The record of committed `epoch`: its loss, the values of its loss
    /// parts, and the recoveries performed before it committed.
    fn committed(epoch: usize, loss: f32, parts: [f32; N], recoveries: usize) -> Self;
    /// Append this record to a history payload.
    fn encode(&self, w: &mut ByteWriter);
    /// Read one record written by [`Self::encode`].
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, ByteDecodeError>;
}

/// The GNN baselines' history: the loss of each epoch.
impl EpochRecord<0> for f32 {
    const PARTS: [&'static str; 0] = [];

    fn committed(_epoch: usize, loss: f32, _parts: [f32; 0], _recoveries: usize) -> f32 {
        loss
    }

    fn encode(&self, w: &mut ByteWriter) {
        w.f32(*self);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<f32, ByteDecodeError> {
        r.f32()
    }
}

/// O²-SiteRec's loss trace of one training epoch (Eq. 17).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainEpoch {
    /// Epoch index.
    pub epoch: usize,
    /// Combined loss `O2 + β·O1`.
    pub loss: f32,
    /// Recommendation loss (MSE, Eq. 16).
    pub o2: f32,
    /// Capacity reconstruction loss (L1, Eq. 6).
    pub o1: f32,
    /// Cumulative guard recoveries performed before this epoch committed.
    pub recoveries: usize,
}

impl EpochRecord<2> for TrainEpoch {
    const PARTS: [&'static str; 2] = ["o2", "o1"];

    fn committed(epoch: usize, loss: f32, [o2, o1]: [f32; 2], recoveries: usize) -> TrainEpoch {
        TrainEpoch {
            epoch,
            loss,
            o2,
            o1,
            recoveries,
        }
    }

    fn encode(&self, w: &mut ByteWriter) {
        w.usize(self.epoch);
        w.f32(self.loss);
        w.f32(self.o2);
        w.f32(self.o1);
        w.usize(self.recoveries);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<TrainEpoch, ByteDecodeError> {
        Ok(TrainEpoch {
            epoch: r.usize()?,
            loss: r.f32()?,
            o2: r.f32()?,
            o1: r.f32()?,
            recoveries: r.usize()?,
        })
    }
}

/// A history as a checkpoint's `user` payload: its length, then each record.
pub fn encode_history<R: EpochRecord<N>, const N: usize>(history: &[R]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.usize(history.len());
    history.iter().for_each(|rec| rec.encode(&mut w));
    w.into_bytes()
}

/// Decode a payload written by [`encode_history`]. The payload sits behind
/// the checkpoint's per-section CRC, so a decode failure means a format
/// bug, not disk corruption.
pub fn decode_history<R: EpochRecord<N>, const N: usize>(
    bytes: &[u8],
) -> Result<Vec<R>, ByteDecodeError> {
    let mut r = ByteReader::new(bytes);
    let n = r.usize()?;
    let mut out = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        out.push(R::decode(&mut r)?);
    }
    r.finish()?;
    Ok(out)
}

/// What [`train_guarded`] needs to know about the model it trains.
#[derive(Clone, Copy)]
pub struct TrainSpec<'a> {
    /// Model name in journal records and checkpoints.
    pub model: &'a str,
    /// Model variant, named by the `train` span (`None` leaves it out).
    pub variant: Option<&'a str>,
    /// Run seed, in checkpoints and the epoch tapes' seeds.
    pub seed: u64,
    /// Full-batch epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Gradient-clip max norm (0 disables).
    pub grad_clip: f32,
    /// Recovery budget and thresholds.
    pub guard: GuardConfig,
    /// Tape seed of `(seed, epoch)` before [`retry_seed`].
    pub epoch_seed: fn(u64, usize) -> u64,
    /// Pool the epoch tapes lease from (`None`: they allocate).
    pub arena: Option<&'a TapeArena>,
    /// Checkpoint and resume policy (`None`: in memory only).
    pub checkpoint: Option<&'a CheckpointPolicy>,
}

/// The guarded full-batch training loop with Adam.
///
/// Each epoch binds `ps` on a fresh tape and calls `step`, which returns
/// the loss and its named parts (`R::PARTS`). A faulty epoch rolls back
/// through the [`TrainGuard`], truncates `history` to the epoch the guard
/// resumes at, and retries; a healthy one steps, commits, appends its
/// record, checkpoints when due and calls `on_epoch(epoch)`. A checkpoint
/// of the same model and seed in `spec.checkpoint`'s directory is resumed,
/// raw-bit-identically to an uninterrupted run. `recoveries` receives the
/// recovery trace, also when the budget runs out.
pub fn train_guarded<R: EpochRecord<N>, const N: usize>(
    spec: &TrainSpec<'_>,
    ps: &mut ParamStore,
    history: &mut Vec<R>,
    recoveries: &mut Vec<RecoveryEvent>,
    mut step: impl FnMut(&mut Graph, &Bindings) -> (Var, [Var; N]),
    mut on_epoch: impl FnMut(usize),
) -> Result<(), TrainError> {
    let _span = train_span(spec);
    let mut opt = Adam::new(spec.lr);
    let mut guard = TrainGuard::new(spec.guard, ps, &opt);
    let mut epoch = 0;
    if let Some(policy) = spec.checkpoint {
        match checkpoint::load_latest(&policy.dir) {
            Ok(Some(state)) if state.model == spec.model && state.seed == spec.seed => {
                epoch = state.next_epoch;
                *ps = state.params;
                opt = state.opt;
                guard = state.guard;
                *history = decode_history(&state.user).expect("CRC-valid history payload decodes");
                obs::record!(
                    "resume",
                    model = spec.model,
                    epoch = epoch,
                    path = policy.dir.display().to_string(),
                );
                obs::counter_add("checkpoint.resumes", 1);
            }
            // Start fresh rather than continue someone else's run, or fail
            // training over an unreadable directory.
            Ok(Some(other)) => obs::olog!(
                Summary,
                "ignoring checkpoint in {} (model {} seed {}, want {} seed {})",
                policy.dir.display(),
                other.model,
                other.seed,
                spec.model,
                spec.seed
            ),
            Ok(None) => {}
            Err(e) => obs::olog!(
                Summary,
                "checkpoint dir {} unreadable ({e}); starting fresh",
                policy.dir.display()
            ),
        }
    }
    let result = loop {
        if epoch >= spec.epochs {
            break Ok(());
        }
        // The span guards drop (and record) on the recovery `continue` too,
        // so a retried epoch gets its own spans.
        let _epoch_span = obs::span!("train_epoch", epoch = epoch);
        let seed = retry_seed((spec.epoch_seed)(spec.seed, epoch), guard.attempt(epoch));
        let mut g = match spec.arena {
            Some(arena) => Graph::with_seed_and_arena(seed, arena.clone()),
            None => Graph::with_seed(seed),
        };
        let fwd_span = obs::span!("epoch.forward", epoch = epoch);
        let binds = ps.bind(&mut g);
        let (loss, parts) = step(&mut g, &binds);
        let loss_v = g.value(loss).item();
        // Read before backward, which recycles forward values into the arena.
        let parts = parts.map(|p| g.value(p).item());
        drop(fwd_span);
        let mut fault = guard.pre_step_fault(&g, loss_v);
        if fault.is_none() {
            let bwd_span = obs::span!("epoch.backward", epoch = epoch);
            g.backward(loss);
            ps.zero_grads();
            ps.harvest(&g, &binds);
            drop(bwd_span);
            fault = guard.grad_fault(ps);
        }
        if let Some(fault) = fault {
            match guard.recover(epoch, fault, ps, &mut opt) {
                Ok(resume) => {
                    // Enough context to re-run the failed cell standalone.
                    let ev = guard.events().last().expect("a recovery records its event");
                    obs::record!(
                        "recovery",
                        model = spec.model,
                        seed = spec.seed,
                        epoch = ev.epoch,
                        attempt = guard.attempt(resume),
                        fault = ev.fault.to_string(),
                        rollback_to = ev.rollback_to.map_or(-1, |e| e as i64),
                        lr_before = ev.lr_before,
                        lr_after = ev.lr_after,
                    );
                    obs::counter_add("train.recoveries", 1);
                    history.truncate(resume);
                    epoch = resume;
                    continue;
                }
                Err(e) => {
                    obs::record!(
                        "train_error",
                        model = spec.model,
                        seed = spec.seed,
                        epoch = e.epoch,
                        recoveries = e.recoveries,
                        fault = e.fault.to_string(),
                    );
                    obs::counter_add("train.errors", 1);
                    break Err(e);
                }
            }
        }
        let step_span = obs::span!("epoch.step", epoch = epoch);
        if spec.grad_clip > 0.0 {
            ps.clip_grad_norm(spec.grad_clip);
        }
        opt.step(ps);
        drop(step_span);
        guard.commit(epoch, loss_v, ps, &opt);
        let rec = R::committed(epoch, loss_v, parts, guard.events().len());
        if obs::enabled() {
            let mut fields = Vec::with_capacity(N + 5);
            fields.push(("model", obs::Value::from(spec.model)));
            fields.push(("epoch", obs::Value::from(epoch)));
            fields.push(("loss", obs::Value::from(loss_v)));
            fields.extend(R::PARTS.into_iter().zip(parts.map(obs::Value::from)));
            fields.push(("recoveries", obs::Value::from(guard.events().len())));
            let peak_mb = spec.arena.map_or(0.0, |a| a.stats().peak_bytes as f64);
            fields.push((
                "arena_peak_mb",
                obs::Value::from(peak_mb / (1 << 20) as f64),
            ));
            obs::record_fields("train_epoch", fields);
        }
        obs::hist_record("train.loss", loss_v as f64);
        history.push(rec);
        if let Some(policy) = spec.checkpoint.filter(|p| p.due(epoch, spec.epochs)) {
            let payload = encode_history(history);
            let state = StateRef {
                model: spec.model,
                seed: spec.seed,
                next_epoch: epoch + 1,
                params: ps,
                opt: &opt,
                guard: &guard,
                user: &payload,
            };
            if let Err(e) = checkpoint::save(policy, &state) {
                // Best-effort durability: a failed write only means a future
                // resume replays more epochs (bit-identically), so log it and
                // keep training.
                obs::olog!(
                    Summary,
                    "checkpoint write to {} failed ({e}); continuing",
                    policy.dir.display()
                );
            }
        }
        on_epoch(epoch);
        epoch += 1;
    };
    *recoveries = guard.events;
    result
}

/// The `train` span: model, variant (if any), seed, epochs and SIMD tier.
fn train_span(spec: &TrainSpec<'_>) -> obs::SpanGuard {
    if !obs::enabled() {
        return obs::SpanGuard::disabled();
    }
    let mut fields = vec![("model", obs::Value::from(spec.model))];
    if let Some(variant) = spec.variant {
        fields.push(("variant", obs::Value::from(variant)));
    }
    fields.push(("seed", obs::Value::from(spec.seed)));
    fields.push(("epochs", obs::Value::from(spec.epochs)));
    fields.push(("simd", obs::Value::from(crate::simd::tier().name())));
    obs::SpanGuard::enter("train", fields)
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

    /// A toy model on each history record, for [`train_guarded`]: `f32`
    /// trains `(w - 2)²`; `TrainEpoch` adds `0.1·(w - 1)²` as its `o1`
    /// part, the shape of the Eq. 17 objective.
    trait Toy<const N: usize>: EpochRecord<N> {
        fn step(g: &mut Graph, w: Var) -> (Var, [Var; N]);
        fn loss(&self) -> f32;
    }

    impl Toy<0> for f32 {
        fn step(g: &mut Graph, w: Var) -> (Var, [Var; 0]) {
            (g.mse_loss(w, &Tensor::scalar(2.0)), [])
        }

        fn loss(&self) -> f32 {
            *self
        }
    }

    impl Toy<2> for TrainEpoch {
        fn step(g: &mut Graph, w: Var) -> (Var, [Var; 2]) {
            let o2 = g.mse_loss(w, &Tensor::scalar(2.0));
            let o1 = g.mse_loss(w, &Tensor::scalar(1.0));
            let o1_scaled = g.scale(o1, 0.1);
            (g.add(o2, o1_scaled), [o2, o1])
        }

        fn loss(&self) -> f32 {
            self.loss
        }
    }

    fn toy_spec(model: &str, epochs: usize) -> TrainSpec<'_> {
        TrainSpec {
            model,
            variant: None,
            seed: 13,
            epochs,
            lr: 0.1,
            grad_clip: 5.0,
            guard: GuardConfig::default(),
            epoch_seed: |seed, epoch| seed ^ ((epoch as u64) << 3),
            arena: None,
            checkpoint: None,
        }
    }

    struct ToyRun<R> {
        w: f32,
        history: Vec<R>,
        recoveries: Vec<RecoveryEvent>,
        result: Result<(), TrainError>,
    }

    /// Train the toy from `w = 0` on a fresh store. `inject(call)` is
    /// added to the loss of the `call`-th forward pass (from 1), if any.
    fn toy_run<R: Toy<N>, const N: usize>(
        spec: &TrainSpec<'_>,
        inject: impl Fn(usize) -> Option<f32>,
    ) -> ToyRun<R> {
        let mut ps = ParamStore::new(5);
        let w = ps.add("w", 1, 1, Init::Zeros);
        let mut history = Vec::new();
        let mut recoveries = Vec::new();
        let mut calls = 0;
        let result = train_guarded(
            spec,
            &mut ps,
            &mut history,
            &mut recoveries,
            |g, binds| {
                calls += 1;
                let (loss, parts) = R::step(g, binds.var(w));
                match inject(calls) {
                    Some(x) => (g.add_scalar(loss, x), parts),
                    None => (loss, parts),
                }
            },
            |_| {},
        );
        ToyRun {
            w: ps.get(w).value.item(),
            history,
            recoveries,
            result,
        }
    }

    fn scratch_dir(test: &str, n: usize) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("siterec_loop_{test}_{n}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn reduces_simple_loss<R: Toy<N>, const N: usize>() {
        let run = toy_run::<R, N>(&toy_spec("toy", 60), |_| None);
        run.result.unwrap();
        let first = run.history[0].loss();
        assert!(run.history.last().unwrap().loss() < first * 0.1);
    }

    #[test]
    fn train_loop_reduces_simple_loss() {
        reduces_simple_loss::<f32, 0>();
        reduces_simple_loss::<TrainEpoch, 2>();
    }

    fn recovers_from_injected_fault<R: Toy<N>, const N: usize>() {
        // Third forward pass (= epoch 2, attempt 0): poison the tape.
        let run = toy_run::<R, N>(&toy_spec("toy", 10), |call| (call == 3).then_some(f32::NAN));
        run.result.unwrap();
        assert_eq!(run.history.len(), 10);
        assert!(run.history.iter().all(|r| r.loss().is_finite()));
        assert_eq!(run.recoveries.len(), 1);
        assert_eq!(run.recoveries[0].epoch, 2);
    }

    #[test]
    fn try_run_recovers_from_injected_fault() {
        recovers_from_injected_fault::<f32, 0>();
        recovers_from_injected_fault::<TrainEpoch, 2>();
    }

    fn resumable_matches_uninterrupted<R: Toy<N>, const N: usize>() {
        let dir = scratch_dir("resume", N);
        let policy = CheckpointPolicy::new(&dir);
        let durable = |epochs| TrainSpec {
            checkpoint: Some(&policy),
            ..toy_spec("bl-resume-test", epochs)
        };

        // Uninterrupted reference.
        let full = toy_run::<R, N>(&toy_spec("bl-resume-test", 10), |_| None);
        full.result.unwrap();

        // 5 epochs, then a fresh store resumes from disk to 10.
        toy_run::<R, N>(&durable(5), |_| None).result.unwrap();
        let resumed = toy_run::<R, N>(&durable(10), |_| None);
        resumed.result.unwrap();

        assert_eq!(full.history.len(), resumed.history.len());
        assert_eq!(
            encode_history(&full.history),
            encode_history(&resumed.history)
        );
        assert_eq!(full.w.to_bits(), resumed.w.to_bits());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resumable_run_matches_uninterrupted_bits() {
        resumable_matches_uninterrupted::<f32, 0>();
        resumable_matches_uninterrupted::<TrainEpoch, 2>();
    }

    fn fails_structurally_when_budget_spent<R: Toy<N>, const N: usize>() {
        let spec = TrainSpec {
            guard: GuardConfig {
                max_recoveries: 2,
                ..Default::default()
            },
            ..toy_spec("toy", 4)
        };
        let run = toy_run::<R, N>(&spec, |_| Some(f32::INFINITY));
        let err = run.result.unwrap_err();
        assert_eq!(err.epoch, 0);
        assert_eq!(err.recoveries, 2);
        assert_eq!(run.recoveries.len(), 2, "the trace survives the error");
    }

    #[test]
    fn try_run_fails_structurally_when_budget_spent() {
        fails_structurally_when_budget_spent::<f32, 0>();
        fails_structurally_when_budget_spent::<TrainEpoch, 2>();
    }

    fn recovery_then_resume<R: Toy<N>, const N: usize>() {
        // The seventh forward pass (epoch 6, attempt 0) explodes, after
        // checkpoints of epochs 0..=5 are on disk. An explosion blames the
        // step committed at epoch 5, so the guard resumes at epoch 5 and
        // the history must drop that epoch's record before redoing it.
        let explode = |call| (call == 7).then_some(1e9);
        let dir = scratch_dir("recover_resume", N);
        let policy = CheckpointPolicy::new(&dir);
        let durable = |epochs| TrainSpec {
            checkpoint: Some(&policy),
            ..toy_spec("toy", epochs)
        };

        let full = toy_run::<R, N>(&toy_spec("toy", 10), explode);
        full.result.unwrap();
        assert_eq!(full.recoveries.len(), 1);
        assert_eq!(full.recoveries[0].epoch, 6);
        assert_eq!(full.recoveries[0].rollback_to, Some(4), "resume at 5");
        assert_eq!(full.history.len(), 10);

        // The first process runs through the recovery to epoch 7; a second
        // one resumes from its checkpoint and finishes.
        let first = toy_run::<R, N>(&durable(7), explode);
        first.result.unwrap();
        assert_eq!(first.recoveries, full.recoveries);
        let state = checkpoint::load_latest(&dir).unwrap().expect("checkpoint");
        assert_eq!(state.next_epoch, 7);
        let restored: Vec<R> = decode_history(&state.user).unwrap();
        assert_eq!(restored.len(), 7, "history truncated at the resume epoch");
        assert_eq!(
            encode_history(&restored),
            encode_history(&full.history[..7])
        );

        let resumed = toy_run::<R, N>(&durable(10), explode);
        resumed.result.unwrap();
        assert_eq!(resumed.recoveries, full.recoveries);
        assert_eq!(
            encode_history(&resumed.history),
            encode_history(&full.history)
        );
        assert_eq!(full.w.to_bits(), resumed.w.to_bits());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_after_a_checkpoint_resumes_to_the_same_bits() {
        recovery_then_resume::<f32, 0>();
        recovery_then_resume::<TrainEpoch, 2>();
    }

    #[test]
    fn history_payloads_are_pinned() {
        // The `user` section of every `SRCKPT1` checkpoint: a change here
        // breaks resuming the checkpoints already on disk.
        const LOSSES: [u8; 16] = [
            2, 0, 0, 0, 0, 0, 0, 0, // two records
            0x00, 0x00, 0xc0, 0x3f, // 1.5
            0x00, 0x00, 0x80, 0xbe, // -0.25
        ];
        const EPOCHS: [u8; 36] = [
            1, 0, 0, 0, 0, 0, 0, 0, // one record
            3, 0, 0, 0, 0, 0, 0, 0, // epoch
            0x00, 0x00, 0xc0, 0x3f, // loss 1.5
            0x00, 0x00, 0xa0, 0x3f, // o2 1.25
            0x00, 0x00, 0x20, 0x40, // o1 2.5
            1, 0, 0, 0, 0, 0, 0, 0, // recoveries
        ];
        let losses = [1.5f32, -0.25];
        assert_eq!(encode_history(&losses), LOSSES);
        assert_eq!(decode_history::<f32, 0>(&LOSSES).unwrap(), losses);
        let epochs = [TrainEpoch {
            epoch: 3,
            loss: 1.5,
            o2: 1.25,
            o1: 2.5,
            recoveries: 1,
        }];
        assert_eq!(encode_history(&epochs), EPOCHS);
        assert_eq!(decode_history::<TrainEpoch, 2>(&EPOCHS).unwrap(), epochs);
        assert!(decode_history::<TrainEpoch, 2>(&EPOCHS[..35]).is_err());
    }
}
