//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Graph`] is a dynamic tape: every operation appends a node holding the
//! forward value and enough information to propagate gradients. Calling
//! [`Graph::backward`] on a scalar loss walks the tape in reverse and fills in
//! gradients for every node that (transitively) depends on a differentiable
//! leaf.
//!
//! The op set is exactly what graph-attention models over edge lists need:
//! dense linear algebra, elementwise nonlinearities, gather/scatter over rows,
//! and *segment* operations (per-neighbourhood softmax / sums) that implement
//! message passing without materializing adjacency matrices.

use crate::arena::TapeArena;
use crate::index::Index;
use crate::kernels;
use crate::nn::{Activation, LEAKY_RELU_SLOPE};
use crate::parallel;
use crate::profile::TapeProfile;
use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use siterec_obs as obs;
use std::sync::Arc;

/// Handle to a node on the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

/// The recorded operation that produced a node.
#[derive(Debug, Clone)]
enum Op {
    /// Input with no parents. `bool` = participates in differentiation.
    Leaf,
    Add(Var, Var),
    Sub(Var, Var),
    /// Elementwise product.
    Mul(Var, Var),
    Scale(Var, f32),
    /// Shift by a scalar. The constant is not stored: d(x + c)/dx = 1, and a
    /// non-finite `c` is recorded as a tape fault at op construction.
    AddScalar(Var),
    MatMul(Var, Var),
    Transpose(Var),
    Relu(Var),
    LeakyRelu(Var, f32),
    Sigmoid(Var),
    Tanh(Var),
    /// Horizontal concatenation; stores column offsets of each part.
    ConcatCols(Vec<Var>),
    /// `out[i, :] = input[idx[i], :]`.
    GatherRows(Var, Arc<Index>),
    /// `out[s, :] = Σ_{i : seg[i]==s} input[i, :]`, `out` has `seg.n()` rows.
    SegmentSum(Var, Arc<Index>),
    /// Per-segment softmax over an `E x 1` score column.
    SegmentSoftmax(Var, Arc<Index>),
    /// `out[i, :] = a[i, :] * w[i, 0]` for `a: E x d`, `w: E x 1`.
    MulColBroadcast(Var, Var),
    /// `out[i, :] = a[i, :] + b[0, :]` for `a: n x d`, `b: 1 x d` (bias).
    AddRowBroadcast(Var, Var),
    /// Row `i` scaled by the constant `c[i]` (no gradient flows to `c`).
    ScaleRowsConst(Var, Vec<f32>),
    /// `out[i, 0] = a[i, :] . b[i, :]`.
    RowDot(Var, Var),
    /// Per-row softmax on an `n x m` matrix.
    SoftmaxRows(Var),
    /// Column slice `[start, start+len)`.
    SliceCols(Var, usize, usize),
    /// `[n, d] -> [1, d]` column sums.
    SumRows(Var),
    SumAll(Var),
    MeanAll(Var),
    /// Inverted-dropout; the stored mask already includes the `1/(1-p)` scale.
    Dropout(Var, Tensor),
    /// Mean squared error against a constant target.
    MseLoss(Var, Tensor),
    /// Mean absolute error against a constant target.
    L1Loss(Var, Tensor),
    /// Fused multi-head edge attention (see [`Graph::edge_attention`]).
    EdgeAttention(Box<EdgeAttn>),
    /// Fused `act([x₁ | x₂ | …] W + b)` (see [`Graph::linear_cat`]).
    LinearCat(Box<LinearCat>),
    /// A node whose buffers [`Graph::backward`] released once its sweep had
    /// passed it; names the op that produced it.
    Released(&'static str),
}

/// Parents and saved forward state of one [`Graph::edge_attention`] node.
/// Per-head buffers are head-major: head `h` owns one contiguous block.
#[derive(Clone)]
struct EdgeAttn {
    k: Var,
    q: Var,
    w_e: Var,
    dsts: Arc<Index>,
    heads: usize,
    /// `K_h W_e^h` per head: `heads` blocks of `E x head_dim`.
    kw: Tensor,
    /// Bilinear scores before the LeakyReLU: `heads x E`.
    raw: Tensor,
    /// Attention weights α: `heads x E`.
    alpha: Tensor,
}

impl std::fmt::Debug for EdgeAttn {
    // Names the parents only: the saved buffers are E-sized and would
    // swamp a fault message.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EdgeAttn")
            .field("k", &self.k)
            .field("q", &self.q)
            .field("w_e", &self.w_e)
            .field("heads", &self.heads)
            .finish_non_exhaustive()
    }
}

/// One input block of [`Graph::linear_cat`]: a tape var read as is, or
/// read through a row gather.
#[derive(Debug, Clone, Copy)]
pub enum CatBlock<'a> {
    /// The var's rows, in order.
    Plain(Var),
    /// `value[idx[i], :]` for each row `i`: the rows [`Graph::gather_rows`]
    /// would produce, without recording them.
    Gather(Var, &'a Arc<Index>),
}

/// Parents of one [`Graph::linear_cat`] node. Only the output is kept on
/// the tape: the backward reads the blocks and `W` from their own nodes
/// and re-gathers what it needs.
#[derive(Debug, Clone)]
struct LinearCat {
    /// Each block's var, and its gather index when it is read through one.
    blocks: Vec<(Var, Option<Arc<Index>>)>,
    w: Var,
    b: Option<Var>,
    act: Activation,
}

/// Negative slope of the LeakyReLU on attention scores (Eq. 11).
const SCORE_SLOPE: f32 = 0.2;

/// Stable profiling key for an op (used by the opt-in tape profile).
fn op_kind(op: &Op) -> &'static str {
    match op {
        Op::Leaf => "leaf",
        Op::Add(..) => "add",
        Op::Sub(..) => "sub",
        Op::Mul(..) => "mul",
        Op::Scale(..) => "scale",
        Op::AddScalar(..) => "add_scalar",
        Op::MatMul(..) => "matmul",
        Op::Transpose(..) => "transpose",
        Op::Relu(..) => "relu",
        Op::LeakyRelu(..) => "leaky_relu",
        Op::Sigmoid(..) => "sigmoid",
        Op::Tanh(..) => "tanh",
        Op::ConcatCols(..) => "concat_cols",
        Op::GatherRows(..) => "gather_rows",
        Op::SegmentSum(..) => "segment_sum",
        Op::SegmentSoftmax(..) => "segment_softmax",
        Op::MulColBroadcast(..) => "mul_col_broadcast",
        Op::AddRowBroadcast(..) => "add_row_broadcast",
        Op::ScaleRowsConst(..) => "scale_rows_const",
        Op::RowDot(..) => "row_dot",
        Op::SoftmaxRows(..) => "softmax_rows",
        Op::SliceCols(..) => "slice_cols",
        Op::SumRows(..) => "sum_rows",
        Op::SumAll(..) => "sum_all",
        Op::MeanAll(..) => "mean_all",
        Op::Dropout(..) => "dropout",
        Op::MseLoss(..) => "mse_loss",
        Op::L1Loss(..) => "l1_loss",
        Op::EdgeAttention(..) => "edge_attention",
        Op::LinearCat(..) => "linear_cat",
        Op::Released(kind) => kind,
    }
}

struct Node {
    value: Tensor,
    op: Op,
    needs_grad: bool,
}

/// A dynamic autodiff tape.
pub struct Graph {
    nodes: Vec<Node>,
    grads: Vec<Option<Tensor>>,
    rng: StdRng,
    /// When false, [`Graph::dropout`] is the identity (evaluation mode).
    pub training: bool,
    /// First non-finite event recorded on this tape (see [`Graph::fault`]).
    fault: Option<String>,
    /// Opt-in per-op wall-time profile (None unless `siterec-obs` profiling
    /// was enabled when the tape was created).
    profile: Option<Box<TapeProfile>>,
    /// Buffer pool this tape leases its storage from; `None` allocates
    /// plainly. Set by [`Graph::with_seed_and_arena`].
    arena: Option<TapeArena>,
}

/// Lease a zeroed `rows x cols` tensor from the arena, or allocate fresh.
fn lease_zeros(arena: &Option<TapeArena>, rows: usize, cols: usize) -> Tensor {
    match arena {
        Some(a) => a.zeros(rows, cols),
        None => Tensor::zeros(rows, cols),
    }
}

/// Lease a copy of `t` from the arena, or clone it.
fn lease_copy(arena: &Option<TapeArena>, t: &Tensor) -> Tensor {
    match arena {
        Some(a) => a.copy_of(t),
        None => t.clone(),
    }
}

/// Return a tensor's buffer to the arena (no-op without one).
fn recycle(arena: &Option<TapeArena>, t: Tensor) {
    if let Some(a) = arena {
        a.recycle_f32(t.into_vec());
    }
}

/// Return a node's buffers to the arena: its value and the tensor payload
/// of its op (the dropout mask, a loss target, the `ScaleRowsConst` column,
/// `EdgeAttn`'s saved `kw` / `raw` / `alpha`). Without an arena they drop.
/// Both [`Graph::backward`]'s release and `Drop` go through here.
fn recycle_node(arena: &Option<TapeArena>, value: Tensor, op: Op) {
    recycle(arena, value);
    match op {
        Op::Dropout(_, t) | Op::MseLoss(_, t) | Op::L1Loss(_, t) => recycle(arena, t),
        Op::ScaleRowsConst(_, c) => {
            if let Some(a) = arena {
                a.recycle_f32(c);
            }
        }
        Op::EdgeAttention(ea) => {
            let EdgeAttn { kw, raw, alpha, .. } = *ea;
            for t in [kw, raw, alpha] {
                recycle(arena, t);
            }
        }
        _ => {}
    }
}

impl Default for Graph {
    fn default() -> Self {
        Self::new()
    }
}

impl Graph {
    /// The dropout RNG seed of [`Graph::new`].
    pub const DEFAULT_SEED: u64 = 0x5173_7265;

    /// New tape in training mode with a fixed RNG seed (dropout masks are
    /// deterministic given the seed and call order).
    pub fn new() -> Self {
        Self::with_seed(Self::DEFAULT_SEED)
    }

    /// New tape with an explicit dropout RNG seed.
    pub fn with_seed(seed: u64) -> Self {
        Graph {
            nodes: Vec::new(),
            grads: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            training: true,
            fault: None,
            profile: TapeProfile::new_if_enabled(),
            arena: None,
        }
    }

    /// New tape leasing all forward values, gradients, and op scratch from
    /// `arena` instead of the allocator. [`Graph::backward`] recycles each
    /// non-leaf node's buffers as its sweep passes them, and every buffer
    /// still held is recycled when the graph drops. Pooled and non-pooled
    /// tapes are bit-identical (leases are zero-filled, exactly like fresh
    /// allocations).
    pub fn with_seed_and_arena(seed: u64, arena: TapeArena) -> Self {
        let mut g = Self::with_seed(seed);
        g.arena = Some(arena);
        g
    }

    /// The arena this tape leases from, if any.
    pub fn arena(&self) -> Option<&TapeArena> {
        self.arena.as_ref()
    }

    /// Zeroed tensor from this tape's arena (or a fresh allocation).
    fn t_zeros(&self, rows: usize, cols: usize) -> Tensor {
        lease_zeros(&self.arena, rows, cols)
    }

    /// Pooled copy of `t` (or a plain clone).
    fn t_copy(&self, t: &Tensor) -> Tensor {
        lease_copy(&self.arena, t)
    }

    /// Pooled `1x1` scalar tensor.
    fn t_scalar(&self, v: f32) -> Tensor {
        let mut t = self.t_zeros(1, 1);
        t.data_mut()[0] = v;
        t
    }

    /// First non-finite event recorded on this tape, if any.
    ///
    /// Non-finite *inputs* — parameter and constant leaves, scalar operands,
    /// loss targets — are checked in every build; intermediate op outputs
    /// are additionally checked when debug assertions are on. Training
    /// guards poll this once per epoch (`TrainGuard::pre_step_fault`) so a
    /// NaN surfaces as a structured `TrainError` instead of propagating
    /// silently.
    pub fn fault(&self) -> Option<&str> {
        self.fault.as_deref()
    }

    fn note_fault(&mut self, what: impl FnOnce() -> String) {
        if self.fault.is_none() {
            self.fault = Some(what());
        }
    }

    /// Record a fault if `t` contains a non-finite value (always on).
    fn check_input(&mut self, what: &str, t: &Tensor) {
        if t.has_non_finite() {
            self.note_fault(|| format!("non-finite value in {what}"));
        }
    }

    /// Number of nodes on the tape.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, value: Tensor, op: Op, needs_grad: bool) -> Var {
        // Full per-op output scan only when debug assertions are on (tests,
        // CI); release builds rely on the always-on input/loss/grad checks.
        if cfg!(debug_assertions) && self.fault.is_none() && value.has_non_finite() {
            self.note_fault(|| format!("non-finite value produced by {op:?}"));
        }
        if let Some(p) = self.profile.as_deref_mut() {
            p.forward(op_kind(&op), value.len());
        }
        self.nodes.push(Node {
            value,
            op,
            needs_grad,
        });
        self.grads.push(None);
        Var(self.nodes.len() - 1)
    }

    fn needs(&self, v: Var) -> bool {
        self.nodes[v.0].needs_grad
    }

    /// Insert a differentiable leaf (parameter value).
    pub fn param(&mut self, value: Tensor) -> Var {
        self.check_input("parameter leaf", &value);
        self.push(value, Op::Leaf, true)
    }

    /// Insert a non-differentiable constant.
    pub fn constant(&mut self, value: Tensor) -> Var {
        self.check_input("constant leaf", &value);
        self.push(value, Op::Leaf, false)
    }

    /// Like [`Graph::param`] but copies from a borrowed tensor through the
    /// tape's arena — the zero-allocation path for per-epoch re-binding.
    pub fn param_ref(&mut self, value: &Tensor) -> Var {
        self.check_input("parameter leaf", value);
        let v = self.t_copy(value);
        self.push(v, Op::Leaf, true)
    }

    /// Like [`Graph::constant`] but copies from a borrowed tensor through
    /// the tape's arena.
    pub fn constant_ref(&mut self, value: &Tensor) -> Var {
        self.check_input("constant leaf", value);
        let v = self.t_copy(value);
        self.push(v, Op::Leaf, false)
    }

    /// Forward value of a node.
    ///
    /// # Panics
    /// Panics, naming the node, when [`Graph::backward`] has released it:
    /// after `backward(loss)` only leaves and nodes recorded after `loss`
    /// keep their values. Read what you need before the sweep.
    pub fn value(&self, v: Var) -> &Tensor {
        let node = &self.nodes[v.0];
        if let Op::Released(kind) = node.op {
            panic!(
                "value of node {} ({kind}) read after backward released it",
                v.0
            );
        }
        &node.value
    }

    /// Gradient of the last `backward` loss w.r.t. node `v`, if any flowed.
    /// Only leaves keep theirs: for any other node this is `None` after
    /// [`Graph::backward`], which releases its gradient once the sweep has
    /// passed it.
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        self.grads[v.0].as_ref()
    }

    // ---- arithmetic -----------------------------------------------------

    /// Elementwise sum (same shape).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let (rows, cols) = self.value(a).shape();
        let mut v = self.t_zeros(rows, cols);
        self.value(a).zip_into(self.value(b), &mut v, |x, y| x + y);
        let ng = self.needs(a) || self.needs(b);
        self.push(v, Op::Add(a, b), ng)
    }

    /// Sum a non-empty list of same-shape vars.
    pub fn add_n(&mut self, vars: &[Var]) -> Var {
        assert!(!vars.is_empty(), "add_n of nothing");
        let mut acc = vars[0];
        for &v in &vars[1..] {
            acc = self.add(acc, v);
        }
        acc
    }

    /// Elementwise difference (same shape).
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let (rows, cols) = self.value(a).shape();
        let mut v = self.t_zeros(rows, cols);
        self.value(a).zip_into(self.value(b), &mut v, |x, y| x - y);
        let ng = self.needs(a) || self.needs(b);
        self.push(v, Op::Sub(a, b), ng)
    }

    /// Elementwise product (same shape).
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let (rows, cols) = self.value(a).shape();
        let mut v = self.t_zeros(rows, cols);
        self.value(a).zip_into(self.value(b), &mut v, |x, y| x * y);
        let ng = self.needs(a) || self.needs(b);
        self.push(v, Op::Mul(a, b), ng)
    }

    /// Multiply by a constant scalar.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        if !c.is_finite() {
            self.note_fault(|| format!("non-finite scalar operand of scale: {c}"));
        }
        let (rows, cols) = self.value(a).shape();
        let mut v = self.t_zeros(rows, cols);
        self.value(a).map_into(&mut v, |x| x * c);
        let ng = self.needs(a);
        self.push(v, Op::Scale(a, c), ng)
    }

    /// Add a constant scalar to every element.
    pub fn add_scalar(&mut self, a: Var, c: f32) -> Var {
        if !c.is_finite() {
            self.note_fault(|| format!("non-finite scalar operand of add_scalar: {c}"));
        }
        let (rows, cols) = self.value(a).shape();
        let mut v = self.t_zeros(rows, cols);
        self.value(a).map_into(&mut v, |x| x + c);
        let ng = self.needs(a);
        self.push(v, Op::AddScalar(a), ng)
    }

    /// Matrix product (tiled kernel above the size threshold; see
    /// [`crate::kernels`]).
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let (n, m) = (self.value(a).rows(), self.value(b).cols());
        let mut v = self.t_zeros(n, m);
        self.value(a).matmul_into(self.value(b), &mut v);
        let ng = self.needs(a) || self.needs(b);
        self.push(v, Op::MatMul(a, b), ng)
    }

    /// Matrix transpose.
    pub fn transpose(&mut self, a: Var) -> Var {
        let (rows, cols) = self.value(a).shape();
        let mut v = self.t_zeros(cols, rows);
        self.value(a).transpose_into(&mut v);
        let ng = self.needs(a);
        self.push(v, Op::Transpose(a), ng)
    }

    // ---- nonlinearities -------------------------------------------------

    /// Shape-preserving elementwise op: pooled output + `map_into`.
    fn map_op(&mut self, a: Var, op: Op, f: impl Fn(f32) -> f32 + Sync) -> Var {
        let (rows, cols) = self.value(a).shape();
        let mut v = self.t_zeros(rows, cols);
        self.value(a).map_into(&mut v, f);
        let ng = self.needs(a);
        self.push(v, op, ng)
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        self.map_op(a, Op::Relu(a), relu)
    }

    /// Leaky ReLU with negative slope `alpha`.
    pub fn leaky_relu(&mut self, a: Var, alpha: f32) -> Var {
        self.map_op(a, Op::LeakyRelu(a, alpha), |x| leaky_relu(x, alpha))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        self.map_op(a, Op::Sigmoid(a), sigmoid)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        self.map_op(a, Op::Tanh(a), f32::tanh)
    }

    // ---- structure ------------------------------------------------------

    /// Horizontal concatenation of same-row-count vars.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        let tensors: Vec<&Tensor> = parts.iter().map(|&p| self.value(p)).collect();
        assert!(!tensors.is_empty(), "concat_cols of nothing");
        let rows = tensors[0].rows();
        let cols: usize = tensors.iter().map(|t| t.cols()).sum();
        let mut v = lease_zeros(&self.arena, rows, cols);
        Tensor::concat_cols_into(&tensors, &mut v);
        let ng = parts.iter().any(|&p| self.needs(p));
        self.push(v, Op::ConcatCols(parts.to_vec()), ng)
    }

    /// Row selection: `out[i, :] = a[idx[i], :]`, for an `a` with
    /// `idx.n()` rows.
    pub fn gather_rows(&mut self, a: Var, idx: &Arc<Index>) -> Var {
        let av = self.value(a);
        assert_eq!(
            av.rows(),
            idx.n(),
            "gather_rows: input has {} rows, the index addresses n = {}",
            av.rows(),
            idx.n()
        );
        let mut v = lease_zeros(&self.arena, idx.len(), av.cols());
        av.gather_rows_into(idx.ids(), &mut v);
        let ng = self.needs(a);
        self.push(v, Op::GatherRows(a, Arc::clone(idx)), ng)
    }

    /// Segment sum: rows of `a` grouped by `segments` are summed; the result
    /// has `segments.n()` rows. Empty segments are zero.
    pub fn segment_sum(&mut self, a: Var, segments: &Arc<Index>) -> Var {
        let av = self.value(a);
        assert_eq!(av.rows(), segments.len(), "segment_sum length mismatch");
        // CSR inversion: each output row sums its inputs in ascending input
        // order — the exact per-element order of the serial scatter loop —
        // so the row-parallel split is bitwise deterministic. The walk adds
        // about 2–3 elements per ns serially (2-core AVX-512 Xeon), so the
        // planner, which assumes 1 flop/ns, gets half the adds.
        let (n_segments, cols) = (segments.n(), av.cols());
        let csr = segments.csr();
        let per_row = (segments.len() * cols / n_segments.max(1) / 2).max(1);
        let mut out = lease_zeros(&self.arena, n_segments, cols);
        parallel::for_each_row_block_mut(out.data_mut(), cols, per_row, |s0, block| {
            for (bs, dst) in block.chunks_mut(cols).enumerate() {
                let s = s0 + bs;
                for &i in &csr.order[csr.offsets[s]..csr.offsets[s + 1]] {
                    for (d, &x) in dst.iter_mut().zip(av.row_slice(i)) {
                        *d += x;
                    }
                }
            }
        });
        let ng = self.needs(a);
        self.push(out, Op::SegmentSum(a, Arc::clone(segments)), ng)
    }

    /// Per-segment mean (segment sum scaled by 1/|segment|; empty segments 0).
    pub fn segment_mean(&mut self, a: Var, segments: &Arc<Index>) -> Var {
        let offsets = &segments.csr().offsets;
        let mut inv = match &self.arena {
            Some(ar) => ar.lease_f32(segments.n()),
            None => vec![0.0f32; segments.n()],
        };
        for (o, w) in inv.iter_mut().zip(offsets.windows(2)) {
            let c = w[1] - w[0];
            *o = if c == 0 { 0.0 } else { 1.0 / c as f32 };
        }
        let summed = self.segment_sum(a, segments);
        let out = self.scale_rows_const(summed, &inv);
        if let Some(ar) = &self.arena {
            ar.recycle_f32(inv);
        }
        out
    }

    /// Numerically-stable softmax within each segment of an `E x 1` column.
    pub fn segment_softmax(&mut self, a: Var, segments: &Arc<Index>) -> Var {
        let av = self.value(a);
        assert_eq!(av.cols(), 1, "segment_softmax expects an E x 1 column");
        assert_eq!(av.rows(), segments.len(), "segment_softmax length mismatch");
        let n_seg = segments.n();
        // The four passes are documented on `softmax_column`.
        let mut seg_max = match &self.arena {
            Some(ar) => ar.lease_f32(n_seg),
            None => vec![0.0f32; n_seg],
        };
        let mut seg_sum = match &self.arena {
            Some(ar) => ar.lease_f32(n_seg),
            None => vec![0.0f32; n_seg],
        };
        let mut out = lease_zeros(&self.arena, av.rows(), 1);
        softmax_column(
            av.data(),
            segments,
            &mut seg_max,
            &mut seg_sum,
            out.data_mut(),
        );
        if let Some(ar) = &self.arena {
            ar.recycle_f32(seg_max);
            ar.recycle_f32(seg_sum);
        }
        let ng = self.needs(a);
        self.push(out, Op::SegmentSoftmax(a, Arc::clone(segments)), ng)
    }

    /// Broadcast a column of weights over the columns of `a`:
    /// `out[i, :] = a[i, :] * w[i, 0]`.
    pub fn mul_col_broadcast(&mut self, a: Var, w: Var) -> Var {
        let (av, wv) = (self.value(a), self.value(w));
        assert_eq!(wv.cols(), 1, "mul_col_broadcast weight must be E x 1");
        assert_eq!(av.rows(), wv.rows(), "mul_col_broadcast row mismatch");
        let cols = av.cols();
        let mut out = lease_copy(&self.arena, av);
        parallel::for_each_row_block_mut(out.data_mut(), cols, cols, |i0, block| {
            for (bi, row) in block.chunks_mut(cols).enumerate() {
                let wi = wv.get(i0 + bi, 0);
                for x in row {
                    *x *= wi;
                }
            }
        });
        let ng = self.needs(a) || self.needs(w);
        self.push(out, Op::MulColBroadcast(a, w), ng)
    }

    /// Broadcast-add a `1 x d` row (bias) to every row of `a`.
    pub fn add_row_broadcast(&mut self, a: Var, b: Var) -> Var {
        let (av, bv) = (self.value(a), self.value(b));
        assert_eq!(bv.rows(), 1, "add_row_broadcast bias must be 1 x d");
        assert_eq!(av.cols(), bv.cols(), "add_row_broadcast col mismatch");
        let mut out = lease_copy(&self.arena, av);
        for i in 0..out.rows() {
            let dst = out.row_slice_mut(i);
            for (d, &x) in dst.iter_mut().zip(bv.row_slice(0)) {
                *d += x;
            }
        }
        let ng = self.needs(a) || self.needs(b);
        self.push(out, Op::AddRowBroadcast(a, b), ng)
    }

    /// Scale row `i` of `a` by the constant `c[i]` (no gradient flows to `c`).
    pub fn scale_rows_const(&mut self, a: Var, c: &[f32]) -> Var {
        let av = self.value(a);
        assert_eq!(av.rows(), c.len(), "scale_rows_const length mismatch");
        let mut out = lease_copy(&self.arena, av);
        for (i, &ci) in c.iter().enumerate() {
            for x in out.row_slice_mut(i) {
                *x *= ci;
            }
        }
        // The stored payload is pooled too (recycled with the node).
        let cvec = match &self.arena {
            Some(ar) => ar.lease_f32_copy(c),
            None => c.to_vec(),
        };
        let ng = self.needs(a);
        self.push(out, Op::ScaleRowsConst(a, cvec), ng)
    }

    /// Row-wise dot product: `out[i, 0] = a[i, :] . b[i, :]`.
    pub fn row_dot(&mut self, a: Var, b: Var) -> Var {
        let (av, bv) = (self.value(a), self.value(b));
        assert_eq!(av.shape(), bv.shape(), "row_dot shape mismatch");
        let cols = av.cols();
        let mut out = lease_zeros(&self.arena, av.rows(), 1);
        parallel::for_each_row_block_mut(out.data_mut(), 1, 2 * cols, |i0, block| {
            for (bi, o) in block.iter_mut().enumerate() {
                let i = i0 + bi;
                *o = av
                    .row_slice(i)
                    .iter()
                    .zip(bv.row_slice(i))
                    .map(|(&x, &y)| x * y)
                    .sum();
            }
        });
        let ng = self.needs(a) || self.needs(b);
        self.push(out, Op::RowDot(a, b), ng)
    }

    /// Numerically-stable per-row softmax of an `n x m` matrix.
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let av = self.value(a);
        let cols = av.cols();
        let mut out = lease_copy(&self.arena, av);
        parallel::for_each_row_block_mut(out.data_mut(), cols, 16 * cols, |_i0, block| {
            for row in block.chunks_mut(cols) {
                let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let mut sum = 0.0;
                for x in row.iter_mut() {
                    *x = (*x - m).exp();
                    sum += *x;
                }
                for x in row.iter_mut() {
                    *x /= sum;
                }
            }
        });
        let ng = self.needs(a);
        self.push(out, Op::SoftmaxRows(a), ng)
    }

    /// Column slice `[start, start + len)`.
    pub fn slice_cols(&mut self, a: Var, start: usize, len: usize) -> Var {
        let av = self.value(a);
        assert!(start + len <= av.cols(), "slice_cols out of range");
        let mut out = lease_zeros(&self.arena, av.rows(), len);
        for i in 0..av.rows() {
            out.row_slice_mut(i)
                .copy_from_slice(&av.row_slice(i)[start..start + len]);
        }
        let ng = self.needs(a);
        self.push(out, Op::SliceCols(a, start, len), ng)
    }

    // ---- fused attention ------------------------------------------------

    /// Multi-head edge attention over one relation's edge list (the
    /// node-level `Aggre` of Eqs. 11–12), as a single tape node.
    ///
    /// * `k_all`: `E x (heads·head_dim)` per-edge keys, head `h` in columns
    ///   `h·head_dim ..`;
    /// * `q`: `n_dst x (heads·head_dim)` destination queries, laid out like
    ///   the keys; edge `i` reads row `dsts[i]`;
    /// * `w_e`: the stacked bilinear `(heads·head_dim) x head_dim`, head
    ///   `h` in rows `h·head_dim ..`;
    /// * `dsts`: each edge's destination; the result has `dsts.n()` rows.
    ///
    /// Per head `h` and edge `i → t`: score `s = LeakyReLU_0.2(K_h[i]
    /// W_e^h · Q_h[t])`, `α = softmax(s)` over each destination's in-edges,
    /// and destination `t` receives `ReLU(Σ_{i→t} α_i K_h[i])` in columns
    /// `h·head_dim ..` of the `n_dst x (heads·head_dim)` result.
    ///
    /// Bit-identical to `gather_rows` of the queries by `dsts`, then the
    /// per-head chain `slice_cols` → `gather_rows` (of `W_e`) → `matmul` →
    /// `row_dot` → `leaky_relu` → `segment_softmax` → `mul_col_broadcast`
    /// → `segment_sum` → `relu` → `concat_cols`, value and every input
    /// gradient: each element comes from the same operations in the same
    /// order (see `edge_attention_backward` for the `+0.0` terms of the
    /// chain's per-head gradient merges). The query gradient is summed per
    /// destination in CSR order, as the gather's backward scattered it.
    /// With debug assertions on, the intermediate scores, α and pre-ReLU
    /// sums are scanned for non-finite values like every composed op's
    /// output.
    ///
    /// # Panics
    /// Panics on mismatched shapes.
    pub fn edge_attention(
        &mut self,
        k_all: Var,
        q: Var,
        w_e: Var,
        dsts: &Arc<Index>,
        heads: usize,
    ) -> Var {
        let (kv, qv, wv) = (self.value(k_all), self.value(q), self.value(w_e));
        let (e, d) = kv.shape();
        assert!(
            heads > 0 && d % heads == 0,
            "edge_attention: width {d} does not split into {heads} heads"
        );
        let hd = d / heads;
        let (n_dst, dst_ids) = (dsts.n(), dsts.ids());
        assert_eq!(qv.shape(), (n_dst, d), "edge_attention: q shape");
        assert_eq!(wv.shape(), (d, hd), "edge_attention: w_e shape");
        assert_eq!(dsts.len(), e, "edge_attention: dsts length");
        let arena = &self.arena;

        // kw_h = K_h W_e^h, one contiguous E x head_dim block per head; K_h
        // is read in place at K's row stride.
        let mut kw = lease_zeros(arena, heads * e, hd);
        for h in 0..heads {
            kernels::matmul_strided_into(
                slice_from(kv.data(), h * hd),
                d,
                &wv.data()[h * hd * hd..(h + 1) * hd * hd],
                &mut kw.data_mut()[h * e * hd..(h + 1) * e * hd],
                e,
                hd,
                hd,
            );
        }

        // raw[h][i] = kw_h[i] · Q_h[dst_i], row_dot's `Iterator::sum` chain,
        // one edge per vector lane.
        let mut raw = lease_zeros(arena, heads, e);
        let (kw_d, q_d) = (kw.data(), qv.data());
        parallel::for_each_row_block_mut(raw.data_mut(), 1, kernels::dots_work(hd), |j0, block| {
            head_runs(j0, block, e, |h, i0, run| {
                let kw_h = &kw_d[(h * e + i0) * hd..];
                kernels::dots_into(
                    run,
                    kw_h,
                    hd,
                    slice_from(q_d, h * hd),
                    d,
                    &dst_ids[i0..],
                    hd,
                );
            });
        });

        // α_h = segment softmax of LeakyReLU(raw_h), per head.
        let mut score = lease_zeros(arena, heads, e);
        raw.map_into(&mut score, |x| if x >= 0.0 { x } else { SCORE_SLOPE * x });
        let mut alpha = lease_zeros(arena, heads, e);
        let mut seg_max = lease_zeros(arena, n_dst, 1);
        let mut seg_sum = lease_zeros(arena, n_dst, 1);
        for (x, y) in score
            .data()
            .chunks(e.max(1))
            .zip(alpha.data_mut().chunks_mut(e.max(1)))
        {
            softmax_column(x, dsts, seg_max.data_mut(), seg_sum.data_mut(), y);
        }
        recycle(arena, score);
        recycle(arena, seg_max);
        recycle(arena, seg_sum);

        // agg[t] = Σ_{i→t} K_h[i] α_h[i] in ascending edge order (the
        // composed mul_col_broadcast + segment_sum), then ReLU.
        let mut out = lease_zeros(arena, n_dst, d);
        let al = alpha.data();
        scatter_edges(out.data_mut(), d, dst_ids, |i, acc| {
            let k_row = kv.row_slice(i);
            for (h, (o_h, k_h)) in acc
                .chunks_mut(hd.max(1))
                .zip(k_row.chunks(hd.max(1)))
                .enumerate()
            {
                let a = al[h * e + i];
                for (o, &x) in o_h.iter_mut().zip(k_h) {
                    *o += x * a;
                }
            }
        });
        // The composed chain's push scanned each of these outputs.
        let fault = cfg!(debug_assertions) && self.fault.is_none() && {
            [&kw, &raw, &alpha, &out].iter().any(|t| t.has_non_finite())
        };
        if fault {
            self.note_fault(|| "non-finite value inside edge_attention".to_string());
        }
        for x in out.data_mut() {
            *x = x.max(0.0);
        }
        let ng = self.needs(k_all) || self.needs(q) || self.needs(w_e);
        let op = EdgeAttn {
            k: k_all,
            q,
            w_e,
            dsts: Arc::clone(dsts),
            heads,
            kw,
            raw,
            alpha,
        };
        self.push(out, Op::EdgeAttention(Box::new(op)), ng)
    }

    // ---- fused linear ---------------------------------------------------

    /// `act([x₁ | x₂ | …] · W + b)` over column blocks `xᵢ`, as one tape
    /// node that keeps only its output.
    ///
    /// * `blocks`: each block is a var read as is ([`CatBlock::Plain`]) or
    ///   through a row gather ([`CatBlock::Gather`]); all have the output's
    ///   row count once gathered;
    /// * `w`: `K x m`, `K` the blocks' total width; block `i` multiplies
    ///   its own rows of `W`;
    /// * `b`: an optional `1 x m` bias.
    ///
    /// Bit-identical to the composed chain `gather_rows` (per gathered
    /// block) → `concat_cols` → `matmul` → `add_row_broadcast` → the
    /// activation, value and every input gradient. Each output element is
    /// one ascending-`k` accumulation chain, as in the single `matmul` over
    /// the concatenation: the first block starts it and every later block
    /// continues it ([`kernels::matmul_acc_into`]). When the first block is
    /// gathered from fewer rows than the output has, its rows of `W`
    /// multiply the source rows once and the products are gathered, which
    /// starts each chain with the same partial sums for a fraction of the
    /// multiplies. The backward hands each parent the gradient the chain's
    /// backward would, in the same order: `b`, `W`, plain blocks in block
    /// order, then gathered sources in reverse block order (their gather
    /// nodes ran last). It relies on one fact of that chain: a
    /// pre-activation is an accumulator seeded with `+0.0`, plus a bias,
    /// so it is never `-0.0`, and the activation's output decides its
    /// gradient exactly as its input did. With debug assertions on, the
    /// pre-activation is scanned for non-finite values like every composed
    /// op's output.
    ///
    /// # Panics
    /// Panics when `blocks` is empty or on mismatched shapes.
    pub fn linear_cat(
        &mut self,
        blocks: &[CatBlock],
        w: Var,
        b: Option<Var>,
        act: Activation,
    ) -> Var {
        assert!(!blocks.is_empty(), "linear_cat of nothing");
        let blocks: Vec<(Var, Option<Arc<Index>>)> = blocks
            .iter()
            .map(|blk| match *blk {
                CatBlock::Plain(v) => (v, None),
                CatBlock::Gather(v, idx) => (v, Some(Arc::clone(idx))),
            })
            .collect();
        let rows = match &blocks[0] {
            (_, Some(idx)) => idx.len(),
            (v, None) => self.value(*v).rows(),
        };
        let wv = self.value(w);
        let (k, m) = wv.shape();
        let mut width = 0;
        for (v, idx) in &blocks {
            let x = self.value(*v);
            match idx {
                Some(idx) => {
                    assert_eq!(x.rows(), idx.n(), "linear_cat: gathered block rows");
                    assert_eq!(idx.len(), rows, "linear_cat: gather length");
                }
                None => assert_eq!(x.rows(), rows, "linear_cat: block rows"),
            }
            width += x.cols();
        }
        assert_eq!(
            width, k,
            "linear_cat: blocks are {width} wide, W has {k} rows"
        );
        let bias = b.map(|b| self.value(b));
        if let Some(bv) = bias {
            assert_eq!(bv.shape(), (1, m), "linear_cat: bias shape");
        }

        let arena = &self.arena;
        let mut out = lease_zeros(arena, rows, m);
        let mut off = 0;
        for (i, (v, idx)) in blocks.iter().enumerate() {
            let x = self.value(*v);
            let kb = x.cols();
            let wb = &wv.data()[off * m..(off + kb) * m];
            off += kb;
            let chain = if i == 0 {
                kernels::matmul_into
            } else {
                kernels::matmul_acc_into
            };
            match idx {
                Some(idx) if i == 0 && idx.n() < idx.len() => {
                    let mut proj = lease_zeros(arena, idx.n(), m);
                    kernels::matmul_into(x.data(), wb, proj.data_mut(), idx.n(), kb, m);
                    proj.gather_rows_into(idx.ids(), &mut out);
                    recycle(arena, proj);
                }
                Some(idx) => {
                    let mut xg = lease_zeros(arena, rows, kb);
                    x.gather_rows_into(idx.ids(), &mut xg);
                    chain(xg.data(), wb, out.data_mut(), rows, kb, m);
                    recycle(arena, xg);
                }
                None => chain(x.data(), wb, out.data_mut(), rows, kb, m),
            }
        }
        let scan = cfg!(debug_assertions) && self.fault.is_none();
        let bias = bias.map(|bv| bv.data());
        let fault = match act {
            Activation::None => bias_act(&mut out, bias, scan, |x| x),
            Activation::Relu => bias_act(&mut out, bias, scan, relu),
            Activation::LeakyRelu => {
                bias_act(&mut out, bias, scan, |x| leaky_relu(x, LEAKY_RELU_SLOPE))
            }
            Activation::Sigmoid => bias_act(&mut out, bias, scan, sigmoid),
            Activation::Tanh => bias_act(&mut out, bias, scan, f32::tanh),
        };
        if fault {
            self.note_fault(|| "non-finite value inside linear_cat".to_string());
        }
        let ng = self.needs(w)
            || b.is_some_and(|b| self.needs(b))
            || blocks.iter().any(|&(v, _)| self.needs(v));
        let op = LinearCat { blocks, w, b, act };
        self.push(out, Op::LinearCat(Box::new(op)), ng)
    }

    // ---- reductions & losses -------------------------------------------

    /// Column sums: `[n, d] -> [1, d]`.
    pub fn sum_rows(&mut self, a: Var) -> Var {
        let av = self.value(a);
        let mut out = lease_zeros(&self.arena, 1, av.cols());
        for i in 0..av.rows() {
            let dst = out.row_slice_mut(0);
            for (d, &x) in dst.iter_mut().zip(av.row_slice(i)) {
                *d += x;
            }
        }
        let ng = self.needs(a);
        self.push(out, Op::SumRows(a), ng)
    }

    /// Sum of all elements, as a `1x1` tensor.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let v = self.t_scalar(self.value(a).sum());
        let ng = self.needs(a);
        self.push(v, Op::SumAll(a), ng)
    }

    /// Mean of all elements, as a `1x1` tensor.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let v = self.t_scalar(self.value(a).mean());
        let ng = self.needs(a);
        self.push(v, Op::MeanAll(a), ng)
    }

    /// Inverted dropout with keep-probability `1 - p`. Identity when
    /// `training == false` or `p == 0`.
    pub fn dropout(&mut self, a: Var, p: f32) -> Var {
        assert!((0.0..1.0).contains(&p), "dropout rate must be in [0, 1)");
        if !self.training || p == 0.0 {
            return a;
        }
        let (rows, cols) = self.value(a).shape();
        let keep = 1.0 - p;
        let mut mask = self.t_zeros(rows, cols);
        for x in mask.data_mut() {
            if self.rng.gen::<f32>() < keep {
                *x = 1.0 / keep;
            }
        }
        let mut v = self.t_zeros(rows, cols);
        self.value(a).zip_into(&mask, &mut v, |x, m| x * m);
        let ng = self.needs(a);
        self.push(v, Op::Dropout(a, mask), ng)
    }

    /// Mean squared error against a constant target, as a `1x1` scalar.
    pub fn mse_loss(&mut self, pred: Var, target: &Tensor) -> Var {
        self.check_input("mse_loss target", target);
        let pv = self.value(pred);
        assert_eq!(pv.shape(), target.shape(), "mse_loss shape mismatch");
        let n = pv.len() as f32;
        let loss = pv
            .data()
            .iter()
            .zip(target.data())
            .map(|(&p, &t)| (p - t) * (p - t))
            .sum::<f32>()
            / n;
        let ng = self.needs(pred);
        let (lv, tv) = (self.t_scalar(loss), self.t_copy(target));
        self.push(lv, Op::MseLoss(pred, tv), ng)
    }

    /// Mean absolute error against a constant target, as a `1x1` scalar.
    pub fn l1_loss(&mut self, pred: Var, target: &Tensor) -> Var {
        self.check_input("l1_loss target", target);
        let pv = self.value(pred);
        assert_eq!(pv.shape(), target.shape(), "l1_loss shape mismatch");
        let n = pv.len() as f32;
        let loss = pv
            .data()
            .iter()
            .zip(target.data())
            .map(|(&p, &t)| (p - t).abs())
            .sum::<f32>()
            / n;
        let ng = self.needs(pred);
        let (lv, tv) = (self.t_scalar(loss), self.t_copy(target));
        self.push(lv, Op::L1Loss(pred, tv), ng)
    }

    // ---- backward -------------------------------------------------------

    /// Reverse-mode sweep from a scalar `loss` node. Leaf gradients land in
    /// [`Graph::grad`]; the tape is one-shot (rebuild it per step).
    ///
    /// The sweep releases as it goes. Once it has passed node `i`, nothing
    /// reads that node again: its consumers all have larger indices, and
    /// its own arm has run. So every non-leaf node up to `loss` gives back
    /// its value, its op payload and its gradient as soon as the sweep
    /// moves on, whether its arm ran or was skipped (no gradient needed, or
    /// none reached it), and
    /// is tagged released: [`Graph::value`] on it panics and
    /// [`Graph::grad`] returns `None`. Leaves keep both, for
    /// `ParamStore::harvest`. On an arena tape the buffers go back to the
    /// arena, where the next gradient lease of the same sweep reuses them,
    /// so the tape never holds every value and every gradient at once.
    ///
    /// The sweep is allocation-free when the tape has an arena: every
    /// per-parent gradient buffer is leased, and buffers that merge into an
    /// existing gradient are recycled on the spot (see `accumulate_grad`).
    ///
    /// # Panics
    /// Panics if `loss` is not `1x1`, or was itself released by an earlier
    /// sweep.
    pub fn backward(&mut self, loss: Var) {
        assert_eq!(
            self.value(loss).shape(),
            (1, 1),
            "backward requires a scalar loss"
        );
        let seed = self.t_scalar(1.0);
        if let Some(p) = self.profile.as_deref_mut() {
            p.touch();
        }
        // Split field borrows: nodes are read-only during the sweep, grads
        // are the only mutable state, and the arena hands out scratch.
        let Graph {
            nodes,
            grads,
            arena,
            profile,
            ..
        } = self;
        accumulate_grad(nodes, grads, arena, loss, seed);
        for i in (0..=loss.0).rev() {
            // The sweep passed node i + 1 on the previous iteration.
            if i < loss.0 {
                release(nodes, grads, arena, i + 1);
            }
            let nodes: &[Node] = nodes;
            if !nodes[i].needs_grad {
                continue;
            }
            // Take the node's gradient for the duration of the arm (parents
            // always have smaller indices, so grads[i] is never touched by
            // the arm) and restore it afterwards.
            let Some(g) = grads[i].take() else {
                continue;
            };
            let kind = op_kind(&nodes[i].op);
            let bwd_start = profile.as_ref().map(|_| std::time::Instant::now());
            match &nodes[i].op {
                Op::Leaf | Op::Released(_) => {}
                Op::Add(a, b) => {
                    let ga = lease_copy(arena, &g);
                    let gb = lease_copy(arena, &g);
                    accumulate_grad(nodes, grads, arena, *a, ga);
                    accumulate_grad(nodes, grads, arena, *b, gb);
                }
                Op::Sub(a, b) => {
                    let ga = lease_copy(arena, &g);
                    let (rows, cols) = g.shape();
                    let mut gb = lease_zeros(arena, rows, cols);
                    g.map_into(&mut gb, |x| -x);
                    accumulate_grad(nodes, grads, arena, *a, ga);
                    accumulate_grad(nodes, grads, arena, *b, gb);
                }
                Op::Mul(a, b) => {
                    let (rows, cols) = g.shape();
                    let mut ga = lease_zeros(arena, rows, cols);
                    let mut gb = lease_zeros(arena, rows, cols);
                    g.zip_into(&nodes[b.0].value, &mut ga, |gi, bi| gi * bi);
                    g.zip_into(&nodes[a.0].value, &mut gb, |gi, ai| gi * ai);
                    accumulate_grad(nodes, grads, arena, *a, ga);
                    accumulate_grad(nodes, grads, arena, *b, gb);
                }
                Op::Scale(a, c) => {
                    let c = *c;
                    let (rows, cols) = g.shape();
                    let mut ga = lease_zeros(arena, rows, cols);
                    g.map_into(&mut ga, |x| x * c);
                    accumulate_grad(nodes, grads, arena, *a, ga);
                }
                Op::AddScalar(a) => {
                    let ga = lease_copy(arena, &g);
                    accumulate_grad(nodes, grads, arena, *a, ga);
                }
                Op::MatMul(a, b) => {
                    // ga = g . bᵀ and gb = aᵀ . g, each reading the
                    // transposed operand in place: no transposed copy of the
                    // weight or the activation is made. A product whose
                    // operand needs no gradient is skipped: its contribution
                    // would be dropped by `accumulate_grad` anyway.
                    let (av, bv) = (&nodes[a.0].value, &nodes[b.0].value);
                    if nodes[a.0].needs_grad {
                        let mut ga = lease_zeros(arena, g.rows(), bv.rows());
                        kernels::matmul_nt_into(
                            g.data(),
                            bv.data(),
                            ga.data_mut(),
                            g.rows(),
                            g.cols(),
                            bv.rows(),
                        );
                        accumulate_grad(nodes, grads, arena, *a, ga);
                    }
                    if nodes[b.0].needs_grad {
                        let mut gb = lease_zeros(arena, av.cols(), g.cols());
                        kernels::matmul_tn_into(
                            av.data(),
                            g.data(),
                            gb.data_mut(),
                            av.cols(),
                            av.rows(),
                            g.cols(),
                        );
                        accumulate_grad(nodes, grads, arena, *b, gb);
                    }
                }
                Op::Transpose(a) => {
                    let mut ga = lease_zeros(arena, g.cols(), g.rows());
                    g.transpose_into(&mut ga);
                    accumulate_grad(nodes, grads, arena, *a, ga);
                }
                Op::Relu(a) => {
                    let (rows, cols) = g.shape();
                    let mut ga = lease_zeros(arena, rows, cols);
                    g.zip_into(
                        &nodes[a.0].value,
                        &mut ga,
                        |gi, x| {
                            if x > 0.0 {
                                gi
                            } else {
                                0.0
                            }
                        },
                    );
                    accumulate_grad(nodes, grads, arena, *a, ga);
                }
                Op::LeakyRelu(a, alpha) => {
                    let alpha = *alpha;
                    let (rows, cols) = g.shape();
                    let mut ga = lease_zeros(arena, rows, cols);
                    g.zip_into(&nodes[a.0].value, &mut ga, |gi, x| {
                        if x >= 0.0 {
                            gi
                        } else {
                            alpha * gi
                        }
                    });
                    accumulate_grad(nodes, grads, arena, *a, ga);
                }
                Op::Sigmoid(a) => {
                    let y = &nodes[i].value;
                    let (rows, cols) = g.shape();
                    let mut ga = lease_zeros(arena, rows, cols);
                    g.zip_into(y, &mut ga, |gi, yi| gi * yi * (1.0 - yi));
                    accumulate_grad(nodes, grads, arena, *a, ga);
                }
                Op::Tanh(a) => {
                    let y = &nodes[i].value;
                    let (rows, cols) = g.shape();
                    let mut ga = lease_zeros(arena, rows, cols);
                    g.zip_into(y, &mut ga, |gi, yi| gi * (1.0 - yi * yi));
                    accumulate_grad(nodes, grads, arena, *a, ga);
                }
                Op::ConcatCols(parts) => {
                    let mut off = 0;
                    for &p in parts {
                        let w = nodes[p.0].value.cols();
                        let rows = g.rows();
                        let mut gp = lease_zeros(arena, rows, w);
                        for r in 0..rows {
                            gp.row_slice_mut(r)
                                .copy_from_slice(&g.row_slice(r)[off..off + w]);
                        }
                        off += w;
                        accumulate_grad(nodes, grads, arena, p, gp);
                    }
                }
                Op::GatherRows(a, idx) => {
                    let (rows, cols) = nodes[a.0].value.shape();
                    let mut ga = lease_zeros(arena, rows, cols);
                    scatter_rows_into(&g, idx, &mut ga);
                    accumulate_grad(nodes, grads, arena, *a, ga);
                }
                Op::SegmentSum(a, segs) => {
                    debug_assert_eq!(g.rows(), segs.n());
                    // The gradient is a pure row gather, which is already
                    // row-parallel.
                    let mut ga = lease_zeros(arena, segs.len(), g.cols());
                    g.gather_rows_into(segs.ids(), &mut ga);
                    accumulate_grad(nodes, grads, arena, *a, ga);
                }
                Op::SegmentSoftmax(a, segs) => {
                    // dL/ds_i = y_i * (g_i - Σ_{j in seg(i)} y_j g_j)
                    let y = &nodes[i].value;
                    let mut seg_dot = match arena {
                        Some(ar) => ar.lease_f32(segs.n()),
                        None => vec![0.0f32; segs.n()],
                    };
                    let mut ga = lease_zeros(arena, y.rows(), 1);
                    softmax_column_backward(y.data(), g.data(), segs, &mut seg_dot, ga.data_mut());
                    if let Some(ar) = arena {
                        ar.recycle_f32(seg_dot);
                    }
                    accumulate_grad(nodes, grads, arena, *a, ga);
                }
                Op::MulColBroadcast(a, w) => {
                    let (av, wv) = (&nodes[a.0].value, &nodes[w.0].value);
                    let cols = av.cols();
                    let mut ga = lease_copy(arena, &g);
                    parallel::for_each_row_block_mut(ga.data_mut(), cols, cols, |r0, block| {
                        for (br, row) in block.chunks_mut(cols).enumerate() {
                            let wi = wv.get(r0 + br, 0);
                            for x in row {
                                *x *= wi;
                            }
                        }
                    });
                    let mut gw = lease_zeros(arena, wv.rows(), 1);
                    let g_ref = &g;
                    parallel::for_each_row_block_mut(gw.data_mut(), 1, 2 * cols, |r0, block| {
                        for (br, o) in block.iter_mut().enumerate() {
                            let r = r0 + br;
                            *o = g_ref
                                .row_slice(r)
                                .iter()
                                .zip(av.row_slice(r))
                                .map(|(&gi, &ai)| gi * ai)
                                .sum();
                        }
                    });
                    accumulate_grad(nodes, grads, arena, *a, ga);
                    accumulate_grad(nodes, grads, arena, *w, gw);
                }
                Op::AddRowBroadcast(a, b) => {
                    let mut gb = lease_zeros(arena, 1, g.cols());
                    for r in 0..g.rows() {
                        let dst = gb.row_slice_mut(0);
                        for (d, &x) in dst.iter_mut().zip(g.row_slice(r)) {
                            *d += x;
                        }
                    }
                    let ga = lease_copy(arena, &g);
                    accumulate_grad(nodes, grads, arena, *a, ga);
                    accumulate_grad(nodes, grads, arena, *b, gb);
                }
                Op::ScaleRowsConst(a, c) => {
                    let mut ga = lease_copy(arena, &g);
                    for (r, &ci) in c.iter().enumerate() {
                        for x in ga.row_slice_mut(r) {
                            *x *= ci;
                        }
                    }
                    accumulate_grad(nodes, grads, arena, *a, ga);
                }
                Op::RowDot(a, b) => {
                    let (av, bv) = (&nodes[a.0].value, &nodes[b.0].value);
                    let cols = av.cols();
                    let g_ref = &g;
                    let scale_rows = |t: &mut Tensor| {
                        parallel::for_each_row_block_mut(t.data_mut(), cols, cols, |r0, block| {
                            for (br, row) in block.chunks_mut(cols).enumerate() {
                                let gi = g_ref.get(r0 + br, 0);
                                for x in row {
                                    *x *= gi;
                                }
                            }
                        });
                    };
                    let mut ga = lease_copy(arena, bv);
                    let mut gb = lease_copy(arena, av);
                    scale_rows(&mut ga);
                    scale_rows(&mut gb);
                    accumulate_grad(nodes, grads, arena, *a, ga);
                    accumulate_grad(nodes, grads, arena, *b, gb);
                }
                Op::SoftmaxRows(a) => {
                    let y = &nodes[i].value;
                    let cols = y.cols();
                    let mut ga = lease_zeros(arena, y.rows(), cols);
                    let g_ref = &g;
                    parallel::for_each_row_block_mut(ga.data_mut(), cols, 4 * cols, |r0, block| {
                        for (br, row) in block.chunks_mut(cols).enumerate() {
                            let r = r0 + br;
                            let dot: f32 = y
                                .row_slice(r)
                                .iter()
                                .zip(g_ref.row_slice(r))
                                .map(|(&yi, &gi)| yi * gi)
                                .sum();
                            for (c, o) in row.iter_mut().enumerate() {
                                *o = y.get(r, c) * (g_ref.get(r, c) - dot);
                            }
                        }
                    });
                    accumulate_grad(nodes, grads, arena, *a, ga);
                }
                Op::SliceCols(a, start, len) => {
                    let (start, len) = (*start, *len);
                    let (rows, cols) = nodes[a.0].value.shape();
                    let mut ga = lease_zeros(arena, rows, cols);
                    for r in 0..rows {
                        ga.row_slice_mut(r)[start..start + len].copy_from_slice(g.row_slice(r));
                    }
                    accumulate_grad(nodes, grads, arena, *a, ga);
                }
                Op::SumRows(a) => {
                    let (rows, cols) = nodes[a.0].value.shape();
                    let mut ga = lease_zeros(arena, rows, cols);
                    for r in 0..rows {
                        ga.row_slice_mut(r).copy_from_slice(g.row_slice(0));
                    }
                    accumulate_grad(nodes, grads, arena, *a, ga);
                }
                Op::SumAll(a) => {
                    let (rows, cols) = nodes[a.0].value.shape();
                    let mut ga = lease_zeros(arena, rows, cols);
                    ga.data_mut().fill(g.item());
                    accumulate_grad(nodes, grads, arena, *a, ga);
                }
                Op::MeanAll(a) => {
                    let (rows, cols) = nodes[a.0].value.shape();
                    let n = (rows * cols) as f32;
                    let mut ga = lease_zeros(arena, rows, cols);
                    ga.data_mut().fill(g.item() / n);
                    accumulate_grad(nodes, grads, arena, *a, ga);
                }
                Op::Dropout(a, mask) => {
                    let (rows, cols) = g.shape();
                    let mut ga = lease_zeros(arena, rows, cols);
                    g.zip_into(mask, &mut ga, |gi, m| gi * m);
                    accumulate_grad(nodes, grads, arena, *a, ga);
                }
                Op::MseLoss(a, target) => {
                    let n = target.len() as f32;
                    let gi = g.item();
                    let av = &nodes[a.0].value;
                    let mut ga = lease_zeros(arena, av.rows(), av.cols());
                    av.zip_into(target, &mut ga, |p, t| 2.0 * (p - t) * gi / n);
                    accumulate_grad(nodes, grads, arena, *a, ga);
                }
                Op::L1Loss(a, target) => {
                    let n = target.len() as f32;
                    let gi = g.item();
                    let av = &nodes[a.0].value;
                    let mut ga = lease_zeros(arena, av.rows(), av.cols());
                    av.zip_into(target, &mut ga, |p, t| {
                        let d = p - t;
                        // Subgradient: 0 at the kink.
                        if d > 0.0 {
                            gi / n
                        } else if d < 0.0 {
                            -gi / n
                        } else {
                            0.0
                        }
                    });
                    accumulate_grad(nodes, grads, arena, *a, ga);
                }
                Op::LinearCat(lc) => {
                    linear_cat_backward(nodes, grads, arena, lc, &nodes[i].value, &g);
                }
                Op::EdgeAttention(ea) => {
                    let [gw, gq, gk] =
                        edge_attention_backward(nodes, arena, ea, &nodes[i].value, &g);
                    // The composed chain delivered W_e, then Q, then K per
                    // head; with distinct parents only each slot's own
                    // sequence matters, and the +0.0 merges are folded in.
                    for (v, gv) in [(ea.w_e, gw), (ea.q, gq), (ea.k, gk)] {
                        if let Some(gv) = gv {
                            accumulate_grad(nodes, grads, arena, v, gv);
                        }
                    }
                }
            }
            grads[i] = Some(g);
            if let (Some(t0), Some(p)) = (bwd_start, profile.as_deref_mut()) {
                p.backward(kind, t0.elapsed());
            }
        }
        release(nodes, grads, arena, 0);
    }
}

/// Release node `i`, which the reverse sweep has passed: unless it is a
/// leaf, its value, op payload and gradient go back to the arena (or are
/// dropped) and it is tagged [`Op::Released`]. See [`Graph::backward`].
fn release(nodes: &mut [Node], grads: &mut [Option<Tensor>], arena: &Option<TapeArena>, i: usize) {
    let node = &mut nodes[i];
    if matches!(node.op, Op::Leaf) {
        return;
    }
    let kind = op_kind(&node.op);
    let value = std::mem::replace(&mut node.value, Tensor::zeros(0, 0));
    let op = std::mem::replace(&mut node.op, Op::Released(kind));
    recycle_node(arena, value, op);
    if let Some(g) = grads[i].take() {
        recycle(arena, g);
    }
}

/// `out[r, :] = Σ_{o : idx[o] == r} g[o, :]`: the gather backward's
/// scatter-add, inverted to CSR so that each row of `out` accumulates its
/// gathered copies in ascending gather order (the serial loop's order),
/// row-parallel. Work is half the adds, as for `segment_sum`'s CSR walk.
/// `out` must be zeroed, `idx.n() x g.cols()`.
fn scatter_rows_into(g: &Tensor, idx: &Index, out: &mut Tensor) {
    let (rows, cols) = out.shape();
    let csr = idx.csr();
    let per_row = (idx.len() * cols / rows.max(1) / 2).max(1);
    parallel::for_each_row_block_mut(out.data_mut(), cols, per_row, |r0, block| {
        for (br, dst) in block.chunks_mut(cols).enumerate() {
            let r = r0 + br;
            for &o in &csr.order[csr.offsets[r]..csr.offsets[r + 1]] {
                for (d, &x) in dst.iter_mut().zip(g.row_slice(o)) {
                    *d += x;
                }
            }
        }
    });
}

/// Rectified linear unit, the one expression [`Graph::relu`] and
/// [`Graph::linear_cat`] share.
fn relu(x: f32) -> f32 {
    x.max(0.0)
}

/// Leaky ReLU with negative slope `alpha` (see [`relu`]).
fn leaky_relu(x: f32, alpha: f32) -> f32 {
    if x >= 0.0 {
        x
    } else {
        alpha * x
    }
}

/// Logistic sigmoid (see [`relu`]).
fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Add the `1 x m` bias to every row of `out` (`add_row_broadcast`'s add),
/// then apply `f` to every element in place. Returns whether `scan` found a
/// non-finite value between the two.
fn bias_act(out: &mut Tensor, bias: Option<&[f32]>, scan: bool, f: impl Fn(f32) -> f32) -> bool {
    let m = out.cols().max(1);
    let mut fault = false;
    for row in out.data_mut().chunks_mut(m) {
        if let Some(b) = bias {
            for (o, &x) in row.iter_mut().zip(b) {
                *o += x;
            }
        }
        fault |= scan && row.iter().any(|x| !x.is_finite());
        for o in row.iter_mut() {
            *o = f(*o);
        }
    }
    fault
}

/// Backward of one [`Graph::linear_cat`] node with output `y` and upstream
/// gradient `g`: accumulates each parent's gradient in the order the
/// composed chain's backward delivered them (see [`Graph::linear_cat`]).
/// Per-block products and the re-gathered blocks `dW` reads are transient
/// leases, back in the arena before this returns.
fn linear_cat_backward(
    nodes: &[Node],
    grads: &mut [Option<Tensor>],
    arena: &Option<TapeArena>,
    lc: &LinearCat,
    y: &Tensor,
    g: &Tensor,
) {
    let LinearCat { blocks, w, b, act } = lc;
    let wv = &nodes[w.0].value;
    let (k, m) = wv.shape();
    let rows = g.rows();
    // The activation's backward, from its output: the pre-activation is
    // never -0.0, so y > 0 (ReLU) and y's sign (LeakyReLU) say exactly
    // what x > 0 and x >= 0 said.
    let mut g_pre = lease_zeros(arena, rows, m);
    match act {
        Activation::None => g_pre.data_mut().copy_from_slice(g.data()),
        Activation::Relu => g.zip_into(y, &mut g_pre, |gi, yi| if yi > 0.0 { gi } else { 0.0 }),
        Activation::LeakyRelu => g.zip_into(y, &mut g_pre, |gi, yi| {
            if yi.is_sign_negative() {
                LEAKY_RELU_SLOPE * gi
            } else {
                gi
            }
        }),
        Activation::Sigmoid => g.zip_into(y, &mut g_pre, |gi, yi| gi * yi * (1.0 - yi)),
        Activation::Tanh => g.zip_into(y, &mut g_pre, |gi, yi| gi * (1.0 - yi * yi)),
    }
    if let Some(b) = *b {
        let mut gb = lease_zeros(arena, 1, m);
        for r in 0..rows {
            for (d, &x) in gb.data_mut().iter_mut().zip(g_pre.row_slice(r)) {
                *d += x;
            }
        }
        accumulate_grad(nodes, grads, arena, b, gb);
    }
    if nodes[w.0].needs_grad {
        // dW = [x₁ | x₂ | …]ᵀ g, one block of rows at a time.
        let mut gw = lease_zeros(arena, k, m);
        let mut off = 0;
        for (v, idx) in blocks {
            let x = &nodes[v.0].value;
            let kb = x.cols();
            let dst = &mut gw.data_mut()[off * m..(off + kb) * m];
            off += kb;
            match idx {
                Some(idx) => {
                    let mut xg = lease_zeros(arena, rows, kb);
                    x.gather_rows_into(idx.ids(), &mut xg);
                    kernels::matmul_tn_into(xg.data(), g_pre.data(), dst, kb, rows, m);
                    recycle(arena, xg);
                }
                None => kernels::matmul_tn_into(x.data(), g_pre.data(), dst, kb, rows, m),
            }
        }
        accumulate_grad(nodes, grads, arena, *w, gw);
    }
    // d xᵢ = g Wᵢᵀ, block i's columns of the concatenation's gradient.
    let block_grad = |v: Var, off: usize| {
        let kb = nodes[v.0].value.cols();
        let mut gx = lease_zeros(arena, rows, kb);
        let wb = &wv.data()[off * m..(off + kb) * m];
        kernels::matmul_nt_into(g_pre.data(), wb, gx.data_mut(), rows, m, kb);
        gx
    };
    let mut off = 0;
    for &(v, ref idx) in blocks {
        if idx.is_none() && nodes[v.0].needs_grad {
            let gx = block_grad(v, off);
            accumulate_grad(nodes, grads, arena, v, gx);
        }
        off += nodes[v.0].value.cols();
    }
    for &(v, ref idx) in blocks.iter().rev() {
        off -= nodes[v.0].value.cols();
        if let Some(idx) = idx.as_ref().filter(|_| nodes[v.0].needs_grad) {
            let gx = block_grad(v, off);
            let mut gs = lease_zeros(arena, idx.n(), gx.cols());
            scatter_rows_into(&gx, idx, &mut gs);
            recycle(arena, gx);
            accumulate_grad(nodes, grads, arena, v, gs);
        }
    }
    recycle(arena, g_pre);
}

/// Split a block of a head-major `heads x e` buffer that starts at
/// position `j0` into its per-head runs: `f(h, i0, run)`, where `run`
/// holds edges `i0 ..` of head `h`.
fn head_runs(j0: usize, block: &mut [f32], e: usize, mut f: impl FnMut(usize, usize, &mut [f32])) {
    let (mut h, mut i0) = (j0 / e.max(1), j0 % e.max(1));
    let mut rest = block;
    while !rest.is_empty() {
        let (run, tail) = rest.split_at_mut((e - i0).min(rest.len()));
        f(h, i0, run);
        (rest, h, i0) = (tail, h + 1, 0);
    }
}

/// Softmax of the score column `x` within each segment of `seg` (which may
/// hold empty segments), written to `out`. `seg_max` / `seg_sum` are
/// scratch with one slot per segment.
///
/// Four passes, each bitwise deterministic for any thread count:
///
///   1. per-segment max (CSR members ascending, scalar gathers);
///   2. e_i = exp_det(x_i - max[seg_i]) over the contiguous score
///      column — the hot pass, vectorized in kernels.rs (the scalar
///      and SIMD exp produce identical bits per element, so block
///      boundaries never show);
///   3. per-segment sum of e in ascending member order — the exact
///      per-element order of the serial scatter loop;
///   4. normalize e in place by the gathered segment sum.
///
/// The exp is computed once per edge (the old two-pass form computed
/// it twice) and is `simd::exp_det`, not libm's: bit-different from
/// pre-SIMD artifacts in the last mantissa bits, identical across
/// scalar/SIMD hosts and thread counts (the contract that matters).
fn softmax_column(
    x: &[f32],
    seg: &Index,
    seg_max: &mut [f32],
    seg_sum: &mut [f32],
    out: &mut [f32],
) {
    // Work estimates are in the planner's ~1 flop/ns unit, from serial rates
    // measured on a 2-core AVX-512 Xeon: the CSR max and sum walks take
    // 1.0–2.7 ns per member (2 per member); the exp and divide passes are
    // in `kernels::softmax_exp_work` and `kernels::STREAM_WORK`.
    let (n_seg, csr) = (seg.n(), seg.csr());
    let per_seg = (2 * x.len() / n_seg.max(1)).max(1);
    parallel::for_each_row_block_mut(seg_max, 1, per_seg, |s0, block| {
        for (bs, st) in block.iter_mut().enumerate() {
            let members = &csr.order[csr.offsets[s0 + bs]..csr.offsets[s0 + bs + 1]];
            let mut m = f32::NEG_INFINITY;
            for &i in members {
                m = m.max(x[i]);
            }
            *st = m;
        }
    });
    let seg_max: &[f32] = seg_max;
    parallel::for_each_row_block_mut(out, 1, kernels::softmax_exp_work(), |i0, block| {
        kernels::softmax_exp_block(block, i0, x, seg.ids(), seg_max);
    });
    let e: &[f32] = out;
    parallel::for_each_row_block_mut(seg_sum, 1, per_seg, |s0, block| {
        for (bs, st) in block.iter_mut().enumerate() {
            let members = &csr.order[csr.offsets[s0 + bs]..csr.offsets[s0 + bs + 1]];
            let mut sum = 0.0;
            for &i in members {
                sum += e[i];
            }
            *st = sum;
        }
    });
    let seg_sum: &[f32] = seg_sum;
    parallel::for_each_row_block_mut(out, 1, kernels::STREAM_WORK, |i0, block| {
        kernels::softmax_div_block(block, i0, seg.ids(), seg_sum);
    });
}

/// Backward of [`softmax_column`] with output `y` and upstream `g`:
/// `out_i = y_i * (g_i - Σ_{j in seg(i)} y_j g_j)`, the segment dot taken
/// in ascending member order from `0.0`. `seg_dot` is scratch with one slot
/// per segment.
fn softmax_column_backward(
    y: &[f32],
    g: &[f32],
    seg: &Index,
    seg_dot: &mut [f32],
    out: &mut [f32],
) {
    let (n_seg, csr, seg) = (seg.n(), seg.csr(), seg.ids());
    let per_seg = (2 * y.len() / n_seg.max(1)).max(1);
    parallel::for_each_row_block_mut(seg_dot, 1, per_seg, |s0, block| {
        for (bs, d) in block.iter_mut().enumerate() {
            let mut acc = 0.0;
            for &r in &csr.order[csr.offsets[s0 + bs]..csr.offsets[s0 + bs + 1]] {
                acc += y[r] * g[r];
            }
            *d = acc;
        }
    });
    let seg_dot: &[f32] = seg_dot;
    // The segment dot walks ~1 member per ns (its 2 flops per member stand);
    // this gathered update takes 2–3 ns per element.
    parallel::for_each_row_block_mut(out, 1, 2, |r0, block| {
        for (br, o) in block.iter_mut().enumerate() {
            let r = r0 + br;
            *o = y[r] * (g[r] - seg_dot[seg[r]]);
        }
    });
}

/// Input gradients of one [`Graph::edge_attention`] node with output `y`
/// and upstream gradient `g`: `[W_e, Q, K]`, each `None` when that parent
/// needs no gradient.
///
/// Every element repeats the composed chain's backward operations in
/// order. The chain's merges of per-head gradients into the stacked inputs
/// add `+0.0` terms, which change only a `-0.0`. `dW_e` and `dK` come out
/// of matmuls, whose `+0.0`-seeded accumulators never produce `-0.0`, and
/// `dQ` is a per-destination sum seeded with `+0.0`, like the gather's
/// scatter it replaces; a `+0.0` term cannot change such a sum, so none of
/// the three repeats them.
fn edge_attention_backward(
    nodes: &[Node],
    arena: &Option<TapeArena>,
    ea: &EdgeAttn,
    y: &Tensor,
    g: &Tensor,
) -> [Option<Tensor>; 3] {
    let EdgeAttn {
        k,
        q,
        w_e,
        dsts,
        heads,
        kw,
        raw,
        alpha,
    } = ea;
    let heads = *heads;
    let (kv, qv, wv) = (&nodes[k.0].value, &nodes[q.0].value, &nodes[w_e.0].value);
    let (need_k, need_q, need_w) = (
        nodes[k.0].needs_grad,
        nodes[q.0].needs_grad,
        nodes[w_e.0].needs_grad,
    );
    let (e, d) = kv.shape();
    let hd = d / heads;
    let (n_dst, dst_ids) = (dsts.n(), dsts.ids());

    // ReLU backward on the aggregate (agg > 0 exactly where y > 0).
    let mut g_agg = lease_zeros(arena, n_dst, d);
    g.zip_into(y, &mut g_agg, |gi, x| if x > 0.0 { gi } else { 0.0 });

    // dα[h][i] = g_agg_h[dst_i] · K_h[i], mul_col_broadcast's
    // `Iterator::sum` chain, one edge per vector lane.
    let mut g_alpha = lease_zeros(arena, heads, e);
    let (ga_d, k_d) = (g_agg.data(), kv.data());
    parallel::for_each_row_block_mut(
        g_alpha.data_mut(),
        1,
        kernels::dots_work(hd),
        |j0, block| {
            head_runs(j0, block, e, |h, i0, run| {
                let k_h = slice_from(k_d, i0 * d + h * hd);
                kernels::dots_into(run, k_h, d, slice_from(ga_d, h * hd), d, &dst_ids[i0..], hd);
            });
        },
    );

    // Softmax then LeakyReLU backward, per head: d raw.
    let mut g_raw = lease_zeros(arena, heads, e);
    let mut seg_dot = lease_zeros(arena, n_dst, 1);
    for ((y_h, g_h), o_h) in alpha
        .data()
        .chunks(e.max(1))
        .zip(g_alpha.data().chunks(e.max(1)))
        .zip(g_raw.data_mut().chunks_mut(e.max(1)))
    {
        softmax_column_backward(y_h, g_h, dsts, seg_dot.data_mut(), o_h);
    }
    recycle(arena, seg_dot);
    recycle(arena, g_alpha);
    for (o, &x) in g_raw.data_mut().iter_mut().zip(raw.data()) {
        *o = if x >= 0.0 { *o } else { SCORE_SLOPE * *o };
    }
    let g_raw_d = g_raw.data();

    // row_dot backward. dQ[t] = Σ_{i→t} kw_h[i] · d raw_h[i], each
    // destination's edges in ascending order: the per-edge query
    // gradients, summed as the gather's backward scattered them.
    let gq = need_q.then(|| {
        let mut gq = lease_zeros(arena, n_dst, d);
        let kw_d = kw.data();
        scatter_edges(gq.data_mut(), d, dst_ids, |i, acc| {
            for (h, o_h) in acc.chunks_mut(hd.max(1)).enumerate() {
                let gr = g_raw_d[h * e + i];
                for (o, &x) in o_h.iter_mut().zip(&kw_d[(h * e + i) * hd..]) {
                    *o += x * gr;
                }
            }
        });
        gq
    });
    // d kw_h[i] = Q_h[dst_i] · d raw_h[i], edge by edge: one E x d block
    // with head h in columns h·head_dim .., like K. This pass and the dK
    // rows below take about 1 ns per element (2-core AVX-512 Xeon), so a
    // row's work is its width.
    let mut g_kw = lease_zeros(arena, e, d);
    parallel::for_each_row_block_mut(g_kw.data_mut(), d, d, |i0, block| {
        for (bi, row) in block.chunks_mut(d).enumerate() {
            let i = i0 + bi;
            let q_row = qv.row_slice(dst_ids[i]);
            for (h, (o_h, q_h)) in row
                .chunks_mut(hd.max(1))
                .zip(q_row.chunks(hd.max(1)))
                .enumerate()
            {
                let gr = g_raw_d[h * e + i];
                for (o, &x) in o_h.iter_mut().zip(q_h) {
                    *o = x * gr;
                }
            }
        }
    });

    // matmul backward per head, reading K_h and d kw_h in place:
    // dW_e^h = K_hᵀ d kw_h, dK_h += d kw_h (W_e^h)ᵀ.
    let gw = need_w.then(|| {
        let mut gw = lease_zeros(arena, d, hd);
        for h in 0..heads {
            kernels::matmul_tn_strided_into(
                slice_from(kv.data(), h * hd),
                d,
                slice_from(g_kw.data(), h * hd),
                d,
                &mut gw.data_mut()[h * hd * hd..(h + 1) * hd * hd],
                hd,
                e,
                hd,
            );
        }
        gw
    });
    let gk = if need_k {
        let mut g_kmm = lease_zeros(arena, heads * e, hd);
        for h in 0..heads {
            kernels::matmul_nt_strided_into(
                slice_from(g_kw.data(), h * hd),
                d,
                &wv.data()[h * hd * hd..(h + 1) * hd * hd],
                &mut g_kmm.data_mut()[h * e * hd..(h + 1) * e * hd],
                e,
                hd,
                hd,
            );
        }
        // dK = (d weighted * α) + d kw (W_e)ᵀ: the mul_col_broadcast
        // gradient arrived first, the matmul one was added onto it. It
        // overwrites d kw, which nothing reads any more.
        let mut gk = g_kw;
        let (al, mm) = (alpha.data(), g_kmm.data());
        parallel::for_each_row_block_mut(gk.data_mut(), d, d, |i0, block| {
            for (bi, row) in block.chunks_mut(d).enumerate() {
                let i = i0 + bi;
                let ga_row = g_agg.row_slice(dst_ids[i]);
                for h in 0..heads {
                    let a = al[h * e + i];
                    let cols = h * hd..(h + 1) * hd;
                    let mm_row = &mm[(h * e + i) * hd..(h * e + i + 1) * hd];
                    for ((o, &gw), &gm) in
                        row[cols.clone()].iter_mut().zip(&ga_row[cols]).zip(mm_row)
                    {
                        *o = gw * a + gm;
                    }
                }
            }
        });
        recycle(arena, g_kmm);
        Some(gk)
    } else {
        recycle(arena, g_kw);
        None
    };
    recycle(arena, g_agg);
    recycle(arena, g_raw);
    [gw, gq, gk]
}

/// Edge-major accumulation into per-destination rows: `f(i, row)` for
/// every edge `i` in ascending order, `row` being its destination's row of
/// `out` (`n x cols`, `dsts` each edge's row). Output-partitioned: each
/// worker owns a range of destinations and streams every edge, keeping
/// those into its range, so each row takes its edges in ascending order —
/// the order of the CSR walk and of the serial scatter — at any thread
/// count, while the per-edge operands are read front to back. Both callers
/// add one product per element, which ran at about 1 ns per element
/// inside Table III epochs (2-core AVX-512 Xeon), so a row's work is its
/// share of the elements.
fn scatter_edges(
    out: &mut [f32],
    cols: usize,
    dsts: &[usize],
    f: impl Fn(usize, &mut [f32]) + Sync,
) {
    let rows = out.len() / cols.max(1);
    let per_row = (dsts.len() * cols / rows.max(1)).max(1);
    parallel::for_each_row_block_mut(out, cols, per_row, |t0, block| {
        let ts = t0..t0 + block.len() / cols.max(1);
        for (i, &t) in dsts.iter().enumerate() {
            if ts.contains(&t) {
                f(i, &mut block[(t - t0) * cols..(t - t0 + 1) * cols]);
            }
        }
    });
}

/// `s[off..]`, or an empty slice when `off` is past the end (the head
/// blocks of a zero-row operand).
fn slice_from(s: &[f32], off: usize) -> &[f32] {
    s.get(off..).unwrap_or_default()
}

/// Merge gradient contribution `g` into node `v`'s slot. A buffer that ends
/// up unused (the node needs no grad, or it merged into an existing tensor)
/// goes back to the arena instead of the allocator.
fn accumulate_grad(
    nodes: &[Node],
    grads: &mut [Option<Tensor>],
    arena: &Option<TapeArena>,
    v: Var,
    g: Tensor,
) {
    if !nodes[v.0].needs_grad {
        recycle(arena, g);
        return;
    }
    match &mut grads[v.0] {
        Some(existing) => {
            existing.add_assign(&g);
            recycle(arena, g);
        }
        slot @ None => *slot = Some(g),
    }
}

impl Drop for Graph {
    fn drop(&mut self) {
        if let Some(mut p) = self.profile.take() {
            p.flush();
        }
        if obs::enabled() {
            obs::hist_record("tensor.tape.len", self.nodes.len() as f64);
        }
        // Return every buffer still held — forward values, tensor op
        // payloads, and gradients — to the arena for the next tape. Nodes
        // `backward` released hold empty buffers, which the arena ignores.
        if self.arena.is_some() {
            let arena = &self.arena;
            for node in self.nodes.drain(..) {
                recycle_node(arena, node.value, node.op);
            }
            for g in self.grads.drain(..).flatten() {
                recycle(arena, g);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ArenaStats;

    fn t(rows: usize, cols: usize, v: Vec<f32>) -> Tensor {
        Tensor::from_vec(rows, cols, v)
    }

    #[test]
    fn add_backward_is_identity() {
        let mut g = Graph::new();
        let a = g.param(t(1, 2, vec![1.0, 2.0]));
        let b = g.param(t(1, 2, vec![3.0, 4.0]));
        let s = g.add(a, b);
        let l = g.sum_all(s);
        g.backward(l);
        assert_eq!(g.grad(a).unwrap().data(), &[1.0, 1.0]);
        assert_eq!(g.grad(b).unwrap().data(), &[1.0, 1.0]);
    }

    #[test]
    fn constant_gets_no_grad() {
        let mut g = Graph::new();
        let a = g.param(t(1, 1, vec![2.0]));
        let c = g.constant(t(1, 1, vec![5.0]));
        let p = g.mul(a, c);
        g.backward(p);
        assert_eq!(g.grad(a).unwrap().item(), 5.0);
        assert!(g.grad(c).is_none());
    }

    #[test]
    fn matmul_backward_matches_manual() {
        // f = sum(A B); dA = 1 * B^T, dB = A^T * 1
        let mut g = Graph::new();
        let a = g.param(t(2, 2, vec![1., 2., 3., 4.]));
        let b = g.param(t(2, 2, vec![5., 6., 7., 8.]));
        let c = g.matmul(a, b);
        let l = g.sum_all(c);
        g.backward(l);
        assert_eq!(g.grad(a).unwrap().data(), &[11., 15., 11., 15.]);
        assert_eq!(g.grad(b).unwrap().data(), &[4., 4., 6., 6.]);
    }

    #[test]
    fn relu_gates_gradient() {
        let mut g = Graph::new();
        let a = g.param(t(1, 3, vec![-1.0, 0.0, 2.0]));
        let r = g.relu(a);
        let l = g.sum_all(r);
        g.backward(l);
        assert_eq!(g.grad(a).unwrap().data(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn sigmoid_value_and_grad() {
        let mut g = Graph::new();
        let a = g.param(t(1, 1, vec![0.0]));
        let s = g.sigmoid(a);
        assert!((g.value(s).item() - 0.5).abs() < 1e-6);
        g.backward(s);
        assert!((g.grad(a).unwrap().item() - 0.25).abs() < 1e-6);
    }

    #[test]
    fn gather_scatter_roundtrip_grad() {
        let mut g = Graph::new();
        let table = g.param(t(3, 2, vec![1., 2., 3., 4., 5., 6.]));
        let picked = g.gather_rows(table, &Index::new(vec![0, 2, 0], 3));
        let l = g.sum_all(picked);
        g.backward(l);
        // Row 0 picked twice, row 1 never, row 2 once.
        assert_eq!(g.grad(table).unwrap().data(), &[2., 2., 0., 0., 1., 1.]);
    }

    #[test]
    fn segment_sum_values_and_grads() {
        let mut g = Graph::new();
        let a = g.param(t(4, 1, vec![1., 2., 3., 4.]));
        let s = g.segment_sum(a, &Index::new(vec![0, 1, 0, 1], 2));
        assert_eq!(g.value(s).data(), &[4.0, 6.0]);
        // weight segment 0 by 10, segment 1 by 1
        let w = g.constant(t(2, 1, vec![10.0, 1.0]));
        let weighted = g.mul(s, w);
        let l = g.sum_all(weighted);
        g.backward(l);
        assert_eq!(g.grad(a).unwrap().data(), &[10., 1., 10., 1.]);
    }

    #[test]
    fn segment_softmax_normalizes_per_segment() {
        let mut g = Graph::new();
        let a = g.param(t(5, 1, vec![1.0, 2.0, 3.0, -1.0, 100.0]));
        let segs = Index::new(vec![0, 0, 0, 1, 1], 2);
        let sm = g.segment_softmax(a, &segs);
        let v = g.value(sm);
        let s0: f32 = v.data()[..3].iter().sum();
        let s1: f32 = v.data()[3..].iter().sum();
        assert!((s0 - 1.0).abs() < 1e-5);
        assert!((s1 - 1.0).abs() < 1e-5);
        // extreme logit dominates its segment without overflow
        assert!(v.get(4, 0) > 0.999);
    }

    #[test]
    fn softmax_rows_sums_to_one() {
        let mut g = Graph::new();
        let a = g.param(t(2, 3, vec![1., 2., 3., 0., 0., 0.]));
        let s = g.softmax_rows(a);
        let v = g.value(s);
        for r in 0..2 {
            let sum: f32 = v.row_slice(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        assert!((v.get(1, 0) - 1.0 / 3.0).abs() < 1e-5);
    }

    #[test]
    fn mse_loss_value_and_grad() {
        let mut g = Graph::new();
        let p = g.param(t(1, 2, vec![1.0, 3.0]));
        let target = t(1, 2, vec![0.0, 1.0]);
        let l = g.mse_loss(p, &target);
        // ((1)^2 + (2)^2) / 2 = 2.5
        assert!((g.value(l).item() - 2.5).abs() < 1e-6);
        g.backward(l);
        assert_eq!(g.grad(p).unwrap().data(), &[1.0, 2.0]);
    }

    #[test]
    fn l1_loss_value_and_grad() {
        let mut g = Graph::new();
        let p = g.param(t(1, 2, vec![1.0, -3.0]));
        let target = t(1, 2, vec![0.0, 1.0]);
        let l = g.l1_loss(p, &target);
        assert!((g.value(l).item() - 2.5).abs() < 1e-6);
        g.backward(l);
        assert_eq!(g.grad(p).unwrap().data(), &[0.5, -0.5]);
    }

    #[test]
    fn dropout_eval_mode_is_identity() {
        let mut g = Graph::new();
        g.training = false;
        let a = g.param(t(1, 4, vec![1., 2., 3., 4.]));
        let d = g.dropout(a, 0.5);
        assert_eq!(d, a);
    }

    #[test]
    fn dropout_training_scales_kept_units() {
        let mut g = Graph::with_seed(7);
        let a = g.param(Tensor::full(1, 1000, 1.0));
        let d = g.dropout(a, 0.5);
        let mean = g.value(d).mean();
        // Inverted dropout keeps the expectation ≈ 1.
        assert!((mean - 1.0).abs() < 0.1, "mean was {mean}");
        for &x in g.value(d).data() {
            assert!(x == 0.0 || (x - 2.0).abs() < 1e-6);
        }
    }

    #[test]
    fn slice_cols_and_grad() {
        let mut g = Graph::new();
        let a = g.param(t(2, 3, vec![1., 2., 3., 4., 5., 6.]));
        let s = g.slice_cols(a, 1, 2);
        assert_eq!(g.value(s).data(), &[2., 3., 5., 6.]);
        let l = g.sum_all(s);
        g.backward(l);
        assert_eq!(g.grad(a).unwrap().data(), &[0., 1., 1., 0., 1., 1.]);
    }

    #[test]
    fn row_dot_values() {
        let mut g = Graph::new();
        let a = g.param(t(2, 2, vec![1., 2., 3., 4.]));
        let b = g.param(t(2, 2, vec![5., 6., 7., 8.]));
        let d = g.row_dot(a, b);
        assert_eq!(g.value(d).data(), &[17.0, 53.0]);
        let l = g.sum_all(d);
        g.backward(l);
        assert_eq!(g.grad(a).unwrap().data(), &[5., 6., 7., 8.]);
        assert_eq!(g.grad(b).unwrap().data(), &[1., 2., 3., 4.]);
    }

    #[test]
    fn diamond_reuse_accumulates() {
        // y = a + a -> dy/da = 2
        let mut g = Graph::new();
        let a = g.param(t(1, 1, vec![3.0]));
        let y = g.add(a, a);
        g.backward(y);
        assert_eq!(g.grad(a).unwrap().item(), 2.0);
    }

    #[test]
    fn edge_attention_scans_its_intermediates_for_faults() {
        // Finite inputs whose bilinear scores overflow: only the op's own
        // scan of its intermediates can see it (the ReLU output is finite).
        let mut g = Graph::new();
        let k = g.param(Tensor::full(3, 4, -1e20));
        let q = g.param(Tensor::full(2, 4, 1e20));
        let w = g.param(Tensor::full(4, 2, 1e20));
        let out = g.edge_attention(k, q, w, &Index::new(vec![0, 1, 1], 2), 2);
        assert!(!g.value(out).has_non_finite());
        if cfg!(debug_assertions) {
            let fault = g.fault().expect("overflowing scores are a fault");
            assert!(fault.contains("edge_attention"), "{fault}");
        }
    }

    /// A small attention-and-MLP tape over every payload-carrying op:
    /// returns its leaves and its loss. Leaves come in through `*_ref`, so
    /// on an arena tape every buffer the tape holds is leased.
    fn payload_tape(g: &mut Graph) -> (Vec<Var>, Var) {
        let emb = g.param_ref(&Tensor::from_vec(
            4,
            4,
            (0..16).map(|i| i as f32 * 0.1).collect(),
        ));
        let w = g.param_ref(&Tensor::full(4, 2, 0.3));
        let x = g.constant_ref(&Tensor::full(3, 4, 0.5));
        let dst = Index::new(vec![0, 1, 1, 2], 3);
        let att = g.edge_attention(emb, x, w, &dst, 2);
        let mean = g.segment_mean(emb, &dst);
        let h = g.matmul(att, w);
        let d = g.dropout(h, 0.25);
        let t = g.tanh(d);
        let l1 = g.l1_loss(mean, &Tensor::full(3, 4, 0.2));
        let l2 = g.mse_loss(t, &Tensor::full(3, 2, 0.1));
        let loss = g.add(l1, l2);
        (vec![emb, w, x], loss)
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn released_tape_leaf_grads_match_a_fresh_tape() {
        let grads = |g: &mut Graph| {
            let (leaves, loss) = payload_tape(g);
            g.backward(loss);
            leaves
                .iter()
                .map(|&v| g.grad(v).map(bits))
                .collect::<Vec<_>>()
        };
        let fresh = grads(&mut Graph::with_seed(3));
        assert!(fresh[0].is_some() && fresh[1].is_some() && fresh[2].is_none());
        // A warm arena hands the second tape buffers the first one released
        // mid-sweep, dirty: each must still lease zeroed.
        let arena = TapeArena::new();
        for _ in 0..2 {
            let mut g = Graph::with_seed_and_arena(3, arena.clone());
            assert_eq!(grads(&mut g), fresh);
        }
    }

    #[test]
    fn backward_releases_every_non_leaf_gradient() {
        let mut g = Graph::new();
        let a = g.param(t(2, 2, vec![1., -2., 3., 4.]));
        let h = g.matmul(a, a);
        let r = g.relu(h);
        let l = g.sum_all(r);
        g.backward(l);
        assert!(g.grad(a).is_some());
        for v in [h, r, l] {
            assert!(g.grad(v).is_none(), "node {v:?} kept its gradient");
        }
    }

    #[test]
    #[should_panic(expected = "value of node 1 (relu) read after backward released it")]
    fn value_of_a_released_node_panics_naming_it() {
        let mut g = Graph::new();
        let a = g.param(t(1, 2, vec![1.0, -1.0]));
        let r = g.relu(a);
        let l = g.sum_all(r);
        g.backward(l);
        assert_eq!(g.value(a).data(), &[1.0, -1.0], "leaves keep their value");
        let _ = g.value(r);
    }

    #[test]
    fn arena_tape_recycles_during_backward_and_drop_recycles_nothing_twice() {
        let arena = TapeArena::new();
        let mut g = Graph::with_seed_and_arena(3, arena.clone());
        let (_, loss) = payload_tape(&mut g);
        g.backward(loss);
        let after = arena.stats();
        drop(g);
        let end = arena.stats();
        // The nine non-leaf nodes and their seven payload buffers went back
        // mid-sweep, so the drop returns only the three leaf values and the
        // two parameter gradients...
        assert_eq!(end.recycles - after.recycles, 5, "{after:?} -> {end:?}");
        // ...and, over the tape's life, every leased buffer came back once.
        assert_eq!(
            end.recycles, end.leases,
            "each leased buffer returns once: {end:?}"
        );
        assert_eq!(end.discards, 0);
    }

    #[test]
    fn one_epoch_peak_is_below_what_the_unreleased_tape_held() {
        use crate::optim::{Adam, Optimizer};
        use crate::{Init, ParamStore};
        let (n, d, layers) = (64, 32, 6);
        let mut ps = ParamStore::new(5);
        let ws: Vec<_> = (0..layers)
            .map(|l| ps.add(&format!("w{l}"), d, d, Init::XavierUniform))
            .collect();
        let arena = TapeArena::new();
        let mut g = Graph::with_seed_and_arena(1, arena.clone());
        let binds = ps.bind(&mut g);
        let x = g.constant_ref(&Tensor::full(n, d, 0.5));
        let mut h = x;
        for &w in &ws {
            let z = g.matmul(h, binds.var(w));
            h = g.tanh(z);
        }
        let loss = g.mse_loss(h, &Tensor::zeros(n, d));
        // What the tape held at its end before the sweep released anything:
        // every node's value and every gradient, from the shapes above.
        let f32s = |rows: usize, cols: usize| (rows * cols * 4) as u64;
        let values = layers as u64 * f32s(d, d) // weights
            + f32s(n, d) // input
            + 2 * layers as u64 * f32s(n, d) // matmul and tanh outputs
            + f32s(1, 1); // loss
        let grads = layers as u64 * f32s(d, d) + 2 * layers as u64 * f32s(n, d) + f32s(1, 1);
        g.backward(loss);
        ps.zero_grads();
        ps.harvest(&g, &binds);
        drop(g);
        Adam::new(1e-3).step(&mut ps);
        let peak = arena.stats().peak_bytes;
        assert!(peak > 0);
        assert!(
            peak < values + grads,
            "epoch peak {peak} B is not below the unreleased tape's {} B",
            values + grads
        );
    }

    #[test]
    fn linear_cat_keeps_only_its_output_on_the_tape() {
        let (e, n_src, k1, k2, m) = (50, 6, 4, 3, 5);
        let src = Index::new((0..e).map(|i| (i * 7) % n_src).collect(), n_src);
        // Bytes of the forward values recorded from node `from` on.
        let held = |g: &Graph, from: usize| -> usize {
            g.nodes[from..].iter().map(|n| 4 * n.value.len()).sum()
        };
        let leaves = |g: &mut Graph| {
            let z = g.param_ref(&Tensor::full(n_src, k1, 0.5));
            let phi = g.constant_ref(&Tensor::full(e, k2, 0.25));
            let w = g.param_ref(&Tensor::full(k1 + k2, m, -0.1));
            let b = g.param_ref(&Tensor::full(1, m, 0.2));
            (z, phi, w, b)
        };

        let arena = TapeArena::new();
        let mut g = Graph::with_seed_and_arena(1, arena.clone());
        let (z, phi, w, b) = leaves(&mut g);
        let n_leaves = g.len();
        let before = arena.stats();
        let blocks = [CatBlock::Gather(z, &src), CatBlock::Plain(phi)];
        g.linear_cat(&blocks, w, Some(b), Activation::Relu);
        let after = arena.stats();
        assert_eq!(g.len(), n_leaves + 1, "one node");
        assert_eq!(held(&g, n_leaves), 4 * e * m, "the output alone");
        // The projection and any gathered copies went back to the arena.
        let out = |s: ArenaStats| s.leases - s.recycles;
        assert_eq!(out(after) - out(before), 1, "{before:?} -> {after:?}");

        // The chain it replaces keeps the gather, the concatenation, the
        // product and the pre-activation besides.
        let mut c = Graph::new();
        let (z, phi, w, b) = leaves(&mut c);
        let zs = c.gather_rows(z, &src);
        let x = c.concat_cols(&[zs, phi]);
        let p = c.matmul(x, w);
        let pre = c.add_row_broadcast(p, b);
        c.relu(pre);
        assert_eq!(held(&c, n_leaves), 4 * (e * k1 + e * (k1 + k2) + 3 * e * m));
    }

    #[test]
    fn mean_aggregation_via_segment_mean() {
        let mut g = Graph::new();
        let a = g.param(t(4, 2, vec![2., 0., 4., 0., 8., 8., 0., 0.]));
        let m = g.segment_mean(a, &Index::new(vec![0, 0, 1, 2], 4));
        let v = g.value(m);
        assert_eq!(v.row_slice(0), &[3.0, 0.0]);
        assert_eq!(v.row_slice(1), &[8.0, 8.0]);
        assert_eq!(v.row_slice(2), &[0.0, 0.0]);
        assert_eq!(v.row_slice(3), &[0.0, 0.0]); // empty segment
    }
}
