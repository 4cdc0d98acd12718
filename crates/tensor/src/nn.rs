//! Small neural-network building blocks over the tape.
//!
//! Layers own [`ParamId`]s, not values: construct them against a
//! [`ParamStore`], then call `forward` with the current tape and bindings.

use crate::graph::{CatBlock, Graph, Var};
use crate::init::Init;
use crate::param::{Bindings, ParamId, ParamStore};

/// Negative slope of [`Activation::LeakyRelu`].
pub const LEAKY_RELU_SLOPE: f32 = 0.2;

/// Activation applied by [`Mlp`] between layers (and optionally at the end).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Identity.
    None,
    /// max(0, x) — the paper's hidden-layer activation.
    Relu,
    /// Leaky ReLU with slope [`LEAKY_RELU_SLOPE`] (GAT-style scoring).
    LeakyRelu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

impl Activation {
    /// Apply the activation on the tape.
    pub fn apply(self, g: &mut Graph, x: Var) -> Var {
        match self {
            Activation::None => x,
            Activation::Relu => g.relu(x),
            Activation::LeakyRelu => g.leaky_relu(x, LEAKY_RELU_SLOPE),
            Activation::Sigmoid => g.sigmoid(x),
            Activation::Tanh => g.tanh(x),
        }
    }
}

/// Fully connected layer `y = x W + b`.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weight `in_dim x out_dim`.
    pub w: ParamId,
    /// Bias `1 x out_dim`, absent when constructed without bias.
    pub b: Option<ParamId>,
    /// Input feature dimension.
    pub in_dim: usize,
    /// Output feature dimension.
    pub out_dim: usize,
}

impl Linear {
    /// New Xavier-initialized layer with bias.
    pub fn new(ps: &mut ParamStore, name: &str, in_dim: usize, out_dim: usize) -> Self {
        let w = ps.add(&format!("{name}.w"), in_dim, out_dim, Init::XavierUniform);
        let b = ps.add(&format!("{name}.b"), 1, out_dim, Init::Zeros);
        Linear {
            w,
            b: Some(b),
            in_dim,
            out_dim,
        }
    }

    /// New Xavier-initialized layer without bias (pure projection).
    pub fn new_no_bias(ps: &mut ParamStore, name: &str, in_dim: usize, out_dim: usize) -> Self {
        let w = ps.add(&format!("{name}.w"), in_dim, out_dim, Init::XavierUniform);
        Linear {
            w,
            b: None,
            in_dim,
            out_dim,
        }
    }

    /// `x (n x in_dim) -> n x out_dim`.
    pub fn forward(&self, g: &mut Graph, binds: &Bindings, x: Var) -> Var {
        let wv = binds.var(self.w);
        let y = g.matmul(x, wv);
        match self.b {
            Some(b) => {
                let bv = binds.var(b);
                g.add_row_broadcast(y, bv)
            }
            None => y,
        }
    }

    /// `act([x₁ | x₂ | …] W + b)` over column blocks, as one tape node
    /// ([`Graph::linear_cat`]): the same bits as concatenating the blocks,
    /// [`Self::forward`] and `act`, without keeping the concatenation or
    /// the pre-activation on the tape.
    pub fn forward_cat(
        &self,
        g: &mut Graph,
        binds: &Bindings,
        blocks: &[CatBlock],
        act: Activation,
    ) -> Var {
        let b = self.b.map(|b| binds.var(b));
        g.linear_cat(blocks, binds.var(self.w), b, act)
    }
}

/// Multi-layer perceptron with a uniform hidden activation.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    hidden_act: Activation,
    output_act: Activation,
}

impl Mlp {
    /// Build an MLP through the listed layer widths, e.g. `&[64, 32, 1]` with
    /// input dim 64 gives `64 -> 32 -> 1`.
    pub fn new(
        ps: &mut ParamStore,
        name: &str,
        dims: &[usize],
        hidden_act: Activation,
        output_act: Activation,
    ) -> Self {
        assert!(dims.len() >= 2, "MLP needs at least input and output dims");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(ps, &format!("{name}.l{i}"), w[0], w[1]))
            .collect();
        Mlp {
            layers,
            hidden_act,
            output_act,
        }
    }

    /// Forward pass.
    pub fn forward(&self, g: &mut Graph, binds: &Bindings, x: Var) -> Var {
        let mut h = x;
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(g, binds, h);
            h = if i == last {
                self.output_act.apply(g, h)
            } else {
                self.hidden_act.apply(g, h)
            };
        }
        h
    }

    /// Output dimension of the final layer.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim
    }
}

/// Learned ID-embedding table (`num x dim`), looked up by row index.
#[derive(Debug, Clone)]
pub struct Embedding {
    /// Table parameter.
    pub table: ParamId,
    /// Number of embeddings.
    pub num: usize,
    /// Embedding dimension.
    pub dim: usize,
}

impl Embedding {
    /// New table with small-normal initialization.
    pub fn new(ps: &mut ParamStore, name: &str, num: usize, dim: usize) -> Self {
        let table = ps.add(name, num, dim, Init::Normal(0.1));
        Embedding { table, num, dim }
    }

    /// The entire table as a tape var (`num x dim`).
    pub fn all(&self, binds: &Bindings) -> Var {
        binds.var(self.table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    #[test]
    fn linear_shapes_and_bias() {
        let mut ps = ParamStore::new(3);
        let lin = Linear::new(&mut ps, "l", 4, 2);
        // Force known weights for a deterministic check.
        ps.get_mut(lin.w).value = Tensor::from_vec(4, 2, vec![1., 0., 0., 1., 1., 0., 0., 1.]);
        ps.get_mut(lin.b.unwrap()).value = Tensor::from_vec(1, 2, vec![10., 20.]);
        let mut g = Graph::new();
        let binds = ps.bind(&mut g);
        let x = g.constant(Tensor::from_vec(1, 4, vec![1., 2., 3., 4.]));
        let y = lin.forward(&mut g, &binds, x);
        assert_eq!(g.value(y).data(), &[14.0, 26.0]);
    }

    #[test]
    fn mlp_learns_xor_ish_mapping() {
        // Tiny regression: fit y = x1 + x2 on 4 points. A 2-layer MLP with
        // enough width should drive the loss well below the initial value.
        use crate::optim::{Adam, Optimizer};
        let mut ps = ParamStore::new(7);
        let mlp = Mlp::new(
            &mut ps,
            "m",
            &[2, 16, 1],
            Activation::Relu,
            Activation::None,
        );
        let xs = Tensor::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.]);
        let ys = Tensor::from_vec(4, 1, vec![0., 1., 1., 2.]);
        let mut opt = Adam::new(0.05);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..300 {
            let mut g = Graph::new();
            let binds = ps.bind(&mut g);
            let x = g.constant(xs.clone());
            let pred = mlp.forward(&mut g, &binds, x);
            let loss = g.mse_loss(pred, &ys);
            last = g.value(loss).item();
            first.get_or_insert(last);
            g.backward(loss);
            ps.zero_grads();
            ps.harvest(&g, &binds);
            opt.step(&mut ps);
        }
        assert!(
            last < first.unwrap() * 0.05,
            "loss did not drop: {} -> {}",
            first.unwrap(),
            last
        );
    }

    #[test]
    fn activation_apply_matches_graph_ops() {
        let mut g = Graph::new();
        let x = g.param(Tensor::from_vec(1, 2, vec![-1.0, 2.0]));
        let r = Activation::Relu.apply(&mut g, x);
        assert_eq!(g.value(r).data(), &[0.0, 2.0]);
        let i = Activation::None.apply(&mut g, x);
        assert_eq!(i, x);
    }
}
