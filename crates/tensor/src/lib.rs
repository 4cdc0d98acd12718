//! # siterec-tensor
//!
//! A minimal dense-tensor library with tape-based reverse-mode automatic
//! differentiation — the deep-learning substrate of the O²-SiteRec
//! reproduction (the paper trains its models with PyTorch 1.7; this crate
//! provides the equivalent op set from scratch in Rust).
//!
//! Design points:
//!
//! * **2-D tensors only** ([`Tensor`]): everything the model family needs is a
//!   matrix, a column, or a scalar.
//! * **Dynamic tape** ([`Graph`]): each training step records a fresh graph,
//!   mirroring the define-by-run style of the original implementation.
//! * **Graph-learning primitives**: `gather_rows`, `segment_sum`,
//!   `segment_softmax`, `mul_col_broadcast` and `row_dot` implement
//!   edge-list message passing without ever materializing adjacency
//!   matrices; `edge_attention` runs a whole multi-head graph-attention
//!   aggregation (bilinear scores, per-destination softmax, weighted sums)
//!   as one tape node, bit-identical to composing those primitives.
//!   `linear_cat` does the same for a linear layer over a concatenation
//!   of plain and row-gathered blocks, with its bias and activation: it
//!   projects gathered source rows before gathering them and keeps only
//!   its output on the tape.
//! * **Parameters outside the tape** ([`ParamStore`]): bind → forward →
//!   backward → harvest → [`optim`] step.
//! * **Verified gradients**: every op is covered by finite-difference property
//!   tests (see `tests/gradcheck_props.rs` and [`check_input_grad`]).
//! * **Deterministic parallelism** ([`parallel`]): the dominant kernels
//!   (matmul, gather/scatter, segment reductions, elementwise maps, the Adam
//!   update) are row-partitioned across scoped threads in a way that keeps
//!   the per-element floating-point order identical to the serial loops, so
//!   results are bitwise identical for any thread count. Install the knob
//!   once via [`ParallelConfig`]; the default (1 thread) is plain serial.
//! * **Cache-blocked matmul** ([`kernels`]): large matrix products go through
//!   a panel-packed, register-tiled microkernel that preserves the naive
//!   loop's left-to-right accumulation order — same bits, several times the
//!   throughput. Both halves of a matmul backward read the transposed
//!   operand in place — the weight gradient `aᵀ·g` through
//!   `kernels::matmul_tn_into`, the input gradient `g·bᵀ` through
//!   `kernels::matmul_nt_into` — instead of transposing a copy.
//! * **Explicit SIMD** ([`simd`]): the matmul microkernel has AVX-512 and
//!   AVX2 tiers over one 16-wide packed panel layout, and segment-softmax
//!   and the fused Adam step have AVX2 8-lane paths, all selected at
//!   runtime (`is_x86_feature_detected!`) and raw-bit identical to the
//!   scalar fallbacks by construction (no FMA contraction; shared
//!   deterministic `exp`), so outputs and checkpoints do not depend on the
//!   host's vector units. `SITEREC_NO_SIMD=1` forces the scalar path.
//! * **Graph structure as data** ([`Index`]): every id list an index op
//!   reads is an `Arc<Index>` built once with the model. It checks its ids
//!   at construction and builds its CSR inversion on first use, shared by
//!   every tape that replays it.
//! * **Epoch-persistent memory** ([`TapeArena`]): tapes can lease all their
//!   buffers from an exact-capacity pool owned by the training loop (zero
//!   allocations once warm).
//!
//! ```
//! use siterec_tensor::{Graph, ParamStore, Init, Tensor, optim::{Adam, Optimizer}};
//!
//! // Fit w ≈ 3 by gradient descent on (w - 3)^2.
//! let mut ps = ParamStore::new(42);
//! let w = ps.add("w", 1, 1, Init::Zeros);
//! let mut opt = Adam::new(0.1);
//! for _ in 0..300 {
//!     let mut g = Graph::new();
//!     let binds = ps.bind(&mut g);
//!     let loss = g.mse_loss(binds.var(w), &Tensor::scalar(3.0));
//!     g.backward(loss);
//!     ps.zero_grads();
//!     ps.harvest(&g, &binds);
//!     opt.step(&mut ps);
//! }
//! assert!((ps.get(w).value.item() - 3.0).abs() < 0.05);
//! ```

#![warn(missing_docs)]

pub mod arena;
pub mod checkpoint;
mod gradcheck;
mod graph;
mod index;
mod init;
pub mod kernels;
pub mod nn;
pub mod optim;
pub mod parallel;
mod param;
mod profile;
pub mod resilience;
pub mod simd;
mod tensor;
mod wire;

pub use arena::{ArenaStats, TapeArena};
pub use checkpoint::{
    load_latest, save as save_checkpoint, CheckpointError, CheckpointPolicy, StateRef, TrainState,
};
pub use gradcheck::{check_input_grad, GradCheck};
pub use graph::{CatBlock, Graph, Var};
pub use index::{Csr, Index};
pub use init::Init;
pub use parallel::ParallelConfig;
pub use param::{Bindings, Param, ParamId, ParamStore};
pub use resilience::{
    decode_history, encode_history, retry_seed, train_guarded, EpochRecord, Fault, GuardConfig,
    RecoveryEvent, TrainEpoch, TrainError, TrainGuard, TrainSpec,
};
pub use tensor::Tensor;
