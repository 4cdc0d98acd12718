//! Allocation accounting for arena-pooled training: after the first
//! (warm-up) epoch populates the pool, later epochs must lease every tensor
//! buffer from the arena instead of the global allocator. A counting
//! `#[global_allocator]` measures per-epoch allocator traffic directly, so
//! a regression that quietly reintroduces per-epoch mallocs (a dropped
//! recycle, a `clone()` creeping back into an op) fails here rather than
//! showing up as a perf mystery later.
//!
//! This lives in its own integration-test binary because the global
//! allocator is process-wide.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use siterec_tensor::optim::{Adam, Optimizer};
use siterec_tensor::{Graph, Index, Init, ParamStore, TapeArena, Tensor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn snapshot() -> (u64, u64) {
    (
        ALLOC_BYTES.load(Ordering::Relaxed),
        ALLOC_CALLS.load(Ordering::Relaxed),
    )
}

#[test]
fn steady_state_epochs_lease_instead_of_malloc() {
    // One attention-flavoured training epoch per iteration, all on a single
    // shared arena — the same workload shape as the model's train_loop.
    let n_nodes = 128;
    let n_edges = 2000;
    let dim = 32;
    let epochs = 8usize;
    let mut rng = StdRng::seed_from_u64(5);
    let src = Index::new(
        (0..n_edges).map(|_| rng.gen_range(0..n_nodes)).collect(),
        n_nodes,
    );
    let dst = Index::new(
        (0..n_edges).map(|_| rng.gen_range(0..n_nodes)).collect(),
        n_nodes,
    );
    let target = Tensor::zeros(n_nodes, dim);
    let mut ps = ParamStore::new(3);
    let emb = ps.add("emb", n_nodes, dim, Init::XavierUniform);
    let head = ps.add("head", dim, dim, Init::XavierUniform);
    let mut opt = Adam::new(0.01);
    let arena = TapeArena::new();

    let mut epoch_bytes = Vec::with_capacity(epochs);
    let mut epoch_misses = Vec::with_capacity(epochs);
    for epoch in 0..epochs {
        let (b0, _) = snapshot();
        let misses0 = arena.stats().misses;
        let mut g = Graph::with_seed_and_arena(epoch as u64, arena.clone());
        let binds = ps.bind(&mut g);
        let hs = g.gather_rows(binds.var(emb), &src);
        let ht = g.gather_rows(binds.var(emb), &dst);
        let scores = g.row_dot(hs, ht);
        let att = g.segment_softmax(scores, &dst);
        let weighted = g.mul_col_broadcast(hs, att);
        let pooled = g.segment_sum(weighted, &dst);
        let h = g.matmul(pooled, binds.var(head));
        let act = g.tanh(h);
        let loss = g.mse_loss(act, &target);
        g.backward(loss);
        ps.zero_grads();
        ps.harvest(&g, &binds);
        opt.step(&mut ps);
        drop(g);
        let (b1, _) = snapshot();
        epoch_bytes.push(b1 - b0);
        epoch_misses.push(arena.stats().misses - misses0);
    }

    // Epoch 0 pays for everything: pool population (every lease misses),
    // the indices' CSR inversions, Adam moment buffers. From epoch 1 on the
    // f32 payloads all come from the pool, so allocator traffic collapses
    // to tape bookkeeping (node/grad vecs and the like).
    let warm = epoch_bytes[0];
    for (e, &bytes) in epoch_bytes.iter().enumerate().skip(2) {
        assert!(
            bytes * 5 < warm,
            "epoch {e} allocated {bytes} bytes — more than 20% of the \
             warm-up epoch's {warm}; the arena is being bypassed \
             (per-epoch bytes: {epoch_bytes:?})"
        );
        assert_eq!(
            epoch_misses[e], epoch_misses[2],
            "pool misses still growing at epoch {e}: {epoch_misses:?}"
        );
    }
    let stats = arena.stats();
    assert!(stats.recycles > 0, "nothing was ever recycled: {stats:?}");
    assert_eq!(stats.discards, 0, "pool capacity overflowed: {stats:?}");
}
