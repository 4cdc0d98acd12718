//! First-order optimizers over a [`ParamStore`].

use crate::kernels;
use crate::parallel;
use crate::param::{Param, ParamStore};
use crate::tensor::Tensor;
use siterec_obs as obs;

/// Optimizer interface: consume the gradients currently held by the store and
/// update parameter values in place.
pub trait Optimizer {
    /// One update step from the store's current gradients.
    fn step(&mut self, params: &mut ParamStore);
}

/// Plain stochastic gradient descent with optional L2 weight decay.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// L2 weight-decay coefficient (0 disables).
    pub weight_decay: f32,
}

impl Sgd {
    /// SGD with the given learning rate and no weight decay.
    pub fn new(lr: f32) -> Self {
        Sgd {
            lr,
            weight_decay: 0.0,
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut ParamStore) {
        for p in params.iter_mut() {
            if self.weight_decay > 0.0 {
                // Disjoint field borrows: no value clone needed.
                p.grad.add_scaled(&p.value, self.weight_decay);
            }
            p.value.add_scaled(&p.grad, -self.lr);
        }
    }
}

/// Adam (Kingma & Ba, 2015) — the optimizer the paper trains with.
#[derive(Debug)]
pub struct Adam {
    /// Learning rate (paper: 1e-4).
    pub lr: f32,
    /// Exponential decay for the first moment.
    pub beta1: f32,
    /// Exponential decay for the second moment.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    /// L2 weight-decay coefficient (0 disables).
    pub weight_decay: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Clone for Adam {
    fn clone(&self) -> Self {
        let mut a = Adam::new(self.lr);
        a.clone_from(self);
        a
    }

    /// Copies into `self`'s moment tensors, reusing their buffers.
    fn clone_from(&mut self, src: &Self) {
        self.lr = src.lr;
        self.beta1 = src.beta1;
        self.beta2 = src.beta2;
        self.eps = src.eps;
        self.weight_decay = src.weight_decay;
        self.t = src.t;
        self.m.clone_from(&src.m);
        self.v.clone_from(&src.v);
    }
}

impl Adam {
    /// Adam with standard betas (0.9, 0.999) and eps 1e-8.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Builder-style weight decay.
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }

    /// Encode the full optimizer state — hyper-parameters, step counter and
    /// both moment vectors — for the checkpoint wire format.
    pub(crate) fn encode(&self, w: &mut crate::wire::Writer) {
        w.f32(self.lr);
        w.f32(self.beta1);
        w.f32(self.beta2);
        w.f32(self.eps);
        w.f32(self.weight_decay);
        w.u64(self.t);
        w.usize(self.m.len());
        for t in &self.m {
            w.tensor(t);
        }
        for t in &self.v {
            w.tensor(t);
        }
    }

    /// Decode an optimizer written by [`Self::encode`] (bit-exact moments).
    pub(crate) fn decode(
        r: &mut crate::wire::Reader<'_>,
    ) -> Result<Adam, crate::wire::DecodeError> {
        let lr = r.f32()?;
        let beta1 = r.f32()?;
        let beta2 = r.f32()?;
        let eps = r.f32()?;
        let weight_decay = r.f32()?;
        let t = r.u64()?;
        let n = r.usize()?;
        let mut m = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            m.push(r.tensor()?);
        }
        let mut v = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            v.push(r.tensor()?);
        }
        Ok(Adam {
            lr,
            beta1,
            beta2,
            eps,
            weight_decay,
            t,
            m,
            v,
        })
    }

    fn ensure_state(&mut self, params: &ParamStore) {
        if self.m.len() != params.len() {
            self.m = params
                .iter()
                .map(|p| Tensor::zeros(p.value.rows(), p.value.cols()))
                .collect();
            self.v = self.m.clone();
            self.t = 0;
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut ParamStore) {
        let step_start = obs::enabled().then(std::time::Instant::now);
        self.ensure_state(params);
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (i, p) in params.iter_mut().enumerate() {
            if self.weight_decay > 0.0 {
                // Disjoint field borrows: no value clone needed.
                p.grad.add_scaled(&p.value, self.weight_decay);
            }
            let m = &mut self.m[i];
            let v = &mut self.v[i];
            // Moment and value updates are elementwise, so contiguous chunks
            // split across workers produce the exact serial bits. Splitting
            // the param borrow lets the closure read the gradient slice
            // directly instead of copying it per step.
            let Param { value, grad, .. } = p;
            let grad: &[f32] = grad.data();
            let consts = kernels::AdamConsts {
                beta1: self.beta1,
                beta2: self.beta2,
                omb1: 1.0 - self.beta1,
                omb2: 1.0 - self.beta2,
                bc1,
                bc2,
                lr: self.lr,
                eps: self.eps,
            };
            parallel::for_each_zip3_block_mut(
                value.data_mut(),
                m.data_mut(),
                v.data_mut(),
                kernels::STREAM_WORK,
                |off, ws, ms, vs| {
                    kernels::adam_update_chunk(ws, ms, vs, &grad[off..off + ws.len()], &consts);
                },
            );
        }
        if let Some(t0) = step_start {
            obs::counter_add("optim.adam.steps", 1);
            obs::hist_record("optim.adam.step_seconds", t0.elapsed().as_secs_f64());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::init::Init;

    /// Minimize f(w) = (w - 3)^2 and check convergence.
    fn converges_to_three(opt: &mut dyn Optimizer, lr_steps: usize) -> f32 {
        let mut ps = ParamStore::new(1);
        let w = ps.add("w", 1, 1, Init::Zeros);
        for _ in 0..lr_steps {
            let mut g = Graph::new();
            let binds = ps.bind(&mut g);
            let target = Tensor::scalar(3.0);
            let loss = g.mse_loss(binds.var(w), &target);
            g.backward(loss);
            ps.zero_grads();
            ps.harvest(&g, &binds);
            opt.step(&mut ps);
        }
        ps.get(w).value.item()
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.1);
        let w = converges_to_three(&mut opt, 200);
        assert!((w - 3.0).abs() < 1e-3, "w = {w}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.1);
        let w = converges_to_three(&mut opt, 500);
        assert!((w - 3.0).abs() < 1e-2, "w = {w}");
    }

    #[test]
    fn adam_bias_correction_gives_big_first_step() {
        // First Adam step should be ≈ lr in the gradient direction regardless
        // of gradient magnitude.
        let mut ps = ParamStore::new(1);
        let w = ps.add("w", 1, 1, Init::Zeros);
        ps.get_mut(w).grad = Tensor::scalar(1e-3);
        let mut opt = Adam::new(0.5);
        opt.step(&mut ps);
        assert!((ps.get(w).value.item() + 0.5).abs() < 1e-3);
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut ps = ParamStore::new(1);
        let w = ps.add("w", 1, 1, Init::Constant(10.0));
        // zero data gradient, only decay
        let mut opt = Sgd::new(0.1);
        opt.weight_decay = 0.5;
        opt.step(&mut ps);
        assert!(ps.get(w).value.item() < 10.0);
    }

    #[test]
    fn adam_state_resets_when_params_change() {
        let mut ps = ParamStore::new(1);
        ps.add("a", 1, 1, Init::Zeros);
        let mut opt = Adam::new(0.1);
        opt.step(&mut ps);
        ps.add("b", 2, 2, Init::Zeros);
        // Must not panic; state re-sized lazily.
        opt.step(&mut ps);
        assert_eq!(opt.m.len(), 2);
    }
}
