//! Parameter storage shared across training steps.
//!
//! Model parameters live in a [`ParamStore`], outside any single tape. Each
//! training step binds the current parameter values onto a fresh [`Graph`]
//! with [`ParamStore::bind`], builds the forward pass, runs `backward`, and
//! harvests gradients back with [`ParamStore::harvest`] before the optimizer
//! steps.

use crate::graph::{Graph, Var};
use crate::init::Init;
use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Stable identifier of a parameter inside a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub usize);

/// One named, trainable tensor plus its accumulated gradient.
#[derive(Debug)]
pub struct Param {
    /// Human-readable name (used in debugging / serialization).
    pub name: String,
    /// Current value.
    pub value: Tensor,
    /// Gradient accumulated by the last [`ParamStore::harvest`].
    pub grad: Tensor,
}

impl Clone for Param {
    fn clone(&self) -> Self {
        Param {
            name: self.name.clone(),
            value: self.value.clone(),
            grad: self.grad.clone(),
        }
    }

    fn clone_from(&mut self, src: &Self) {
        self.name.clone_from(&src.name);
        self.value.clone_from(&src.value);
        self.grad.clone_from(&src.grad);
    }
}

/// A flat collection of model parameters.
#[derive(Debug)]
pub struct ParamStore {
    params: Vec<Param>,
    rng: StdRng,
}

impl Clone for ParamStore {
    fn clone(&self) -> Self {
        ParamStore {
            params: self.params.clone(),
            rng: self.rng.clone(),
        }
    }

    /// Copies into `self`'s tensors, reusing their buffers: the rollback
    /// snapshots of [`crate::TrainGuard`] are refreshed this way every epoch.
    fn clone_from(&mut self, src: &Self) {
        self.params.clone_from(&src.params);
        self.rng.clone_from(&src.rng);
    }
}

/// The tape-local handles produced by [`ParamStore::bind`], indexed by
/// [`ParamId`].
#[derive(Debug, Clone)]
pub struct Bindings(Vec<Var>);

impl Bindings {
    /// Tape handle of parameter `id`.
    #[inline]
    pub fn var(&self, id: ParamId) -> Var {
        self.0[id.0]
    }
}

impl ParamStore {
    /// Empty store whose initializers draw from `seed`.
    pub fn new(seed: u64) -> Self {
        ParamStore {
            params: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Register a `rows x cols` parameter initialized with `init`.
    pub fn add(&mut self, name: &str, rows: usize, cols: usize, init: Init) -> ParamId {
        let value = init.build(rows, cols, &mut self.rng);
        let grad = Tensor::zeros(rows, cols);
        self.params.push(Param {
            name: name.to_string(),
            value,
            grad,
        });
        ParamId(self.params.len() - 1)
    }

    /// Register a parameter with an explicit initial value.
    pub fn add_tensor(&mut self, name: &str, value: Tensor) -> ParamId {
        let grad = Tensor::zeros(value.rows(), value.cols());
        self.params.push(Param {
            name: name.to_string(),
            value,
            grad,
        });
        ParamId(self.params.len() - 1)
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total number of scalar weights.
    pub fn num_weights(&self) -> usize {
        self.params.iter().map(|p| p.value.len()).sum()
    }

    /// Immutable access to a parameter.
    pub fn get(&self, id: ParamId) -> &Param {
        &self.params[id.0]
    }

    /// Mutable access to a parameter.
    pub fn get_mut(&mut self, id: ParamId) -> &mut Param {
        &mut self.params[id.0]
    }

    /// Iterate over all parameters.
    pub fn iter(&self) -> impl Iterator<Item = &Param> {
        self.params.iter()
    }

    /// Iterate mutably over all parameters (used by optimizers).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Param> {
        self.params.iter_mut()
    }

    /// Put every parameter's current value on the tape as a differentiable
    /// leaf, returning the handles. Values are copied through the tape's
    /// arena when it has one, so per-epoch re-binding allocates nothing.
    pub fn bind(&self, graph: &mut Graph) -> Bindings {
        Bindings(
            self.params
                .iter()
                .map(|p| graph.param_ref(&p.value))
                .collect(),
        )
    }

    /// Zero all stored gradients.
    pub fn zero_grads(&mut self) {
        for p in &mut self.params {
            for x in p.grad.data_mut() {
                *x = 0.0;
            }
        }
    }

    /// Copy gradients from a back-propagated tape into the store
    /// (accumulating on top of whatever is there; call [`Self::zero_grads`]
    /// first for a fresh step).
    pub fn harvest(&mut self, graph: &Graph, bindings: &Bindings) {
        for (p, &var) in self.params.iter_mut().zip(&bindings.0) {
            if let Some(g) = graph.grad(var) {
                p.grad.add_assign(g);
            }
        }
    }

    /// Name of the first parameter whose gradient holds a NaN/inf, if any
    /// (per-epoch health check of the training guards).
    pub fn first_non_finite_grad(&self) -> Option<&str> {
        self.params
            .iter()
            .find(|p| p.grad.has_non_finite())
            .map(|p| p.name.as_str())
    }

    /// Name of the first parameter whose value holds a NaN/inf, if any.
    pub fn first_non_finite_value(&self) -> Option<&str> {
        self.params
            .iter()
            .find(|p| p.value.has_non_finite())
            .map(|p| p.name.as_str())
    }

    /// Global gradient L2 norm (diagnostic / clipping).
    pub fn grad_norm(&self) -> f32 {
        self.params
            .iter()
            .map(|p| {
                let n = p.grad.norm();
                n * n
            })
            .sum::<f32>()
            .sqrt()
    }

    /// Encode the store for the checkpoint wire format: parameter count,
    /// then `(name, value, grad)` per parameter with raw `f32` bits.
    pub(crate) fn encode(&self, w: &mut crate::wire::Writer) {
        w.usize(self.params.len());
        for p in &self.params {
            w.str(&p.name);
            w.tensor(&p.value);
            w.tensor(&p.grad);
        }
    }

    /// Decode a store written by [`Self::encode`]. The initializer RNG is
    /// reset to a fixed seed: it is only ever drawn during model
    /// construction ([`Self::add`]), which a resuming run replays before the
    /// checkpointed values overwrite the freshly initialized ones, so the
    /// post-build RNG state is dead state.
    pub(crate) fn decode(
        r: &mut crate::wire::Reader<'_>,
    ) -> Result<ParamStore, crate::wire::DecodeError> {
        let n = r.usize()?;
        let mut params = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let name = r.str()?;
            let value = r.tensor()?;
            let grad = r.tensor()?;
            params.push(Param { name, value, grad });
        }
        Ok(ParamStore {
            params,
            rng: StdRng::seed_from_u64(0),
        })
    }

    /// Clip gradients to a maximum global norm. Returns the pre-clip norm.
    pub fn clip_grad_norm(&mut self, max_norm: f32) -> f32 {
        let norm = self.grad_norm();
        siterec_obs::hist_record("train.grad_norm", norm as f64);
        if norm > max_norm && norm > 0.0 {
            siterec_obs::counter_add("train.grad_clips", 1);
            let scale = max_norm / norm;
            for p in &mut self.params {
                for x in p.grad.data_mut() {
                    *x *= scale;
                }
            }
        }
        norm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_and_harvest_roundtrip() {
        let mut ps = ParamStore::new(1);
        let w = ps.add("w", 1, 2, Init::Constant(2.0));
        let mut g = Graph::new();
        let binds = ps.bind(&mut g);
        let wv = binds.var(w);
        let s = g.sum_all(wv);
        let l = g.scale(s, 3.0);
        g.backward(l);
        ps.zero_grads();
        ps.harvest(&g, &binds);
        assert_eq!(ps.get(w).grad.data(), &[3.0, 3.0]);
    }

    #[test]
    fn harvest_accumulates() {
        let mut ps = ParamStore::new(1);
        let w = ps.add("w", 1, 1, Init::Constant(1.0));
        for _ in 0..2 {
            let mut g = Graph::new();
            let binds = ps.bind(&mut g);
            let l = g.sum_all(binds.var(w));
            g.backward(l);
            ps.harvest(&g, &binds);
        }
        assert_eq!(ps.get(w).grad.item(), 2.0);
        ps.zero_grads();
        assert_eq!(ps.get(w).grad.item(), 0.0);
    }

    #[test]
    fn clip_grad_norm_scales() {
        let mut ps = ParamStore::new(1);
        let w = ps.add("w", 1, 2, Init::Zeros);
        ps.get_mut(w).grad = Tensor::from_vec(1, 2, vec![3.0, 4.0]);
        let pre = ps.clip_grad_norm(1.0);
        assert!((pre - 5.0).abs() < 1e-6);
        assert!((ps.grad_norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn num_weights_counts_scalars() {
        let mut ps = ParamStore::new(1);
        ps.add("a", 2, 3, Init::Zeros);
        ps.add("b", 1, 1, Init::Zeros);
        assert_eq!(ps.num_weights(), 7);
        assert_eq!(ps.len(), 2);
    }
}
