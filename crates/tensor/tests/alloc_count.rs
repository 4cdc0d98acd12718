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
use siterec_tensor::{
    train_guarded, Bindings, Graph, GuardConfig, Index, Init, ParamId, ParamStore, TapeArena,
    Tensor, TrainSpec, Var,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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

/// The counters are process-wide: one test at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn snapshot() -> (u64, u64) {
    (
        ALLOC_BYTES.load(Ordering::Relaxed),
        ALLOC_CALLS.load(Ordering::Relaxed),
    )
}

#[test]
fn steady_state_epochs_lease_instead_of_malloc() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // One attention-flavoured training epoch per iteration, all on a single
    // shared arena — the same workload shape as `train_guarded`'s epochs.
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

/// A small attention-flavoured objective for the loop comparison below.
fn toy_loss(
    g: &mut Graph,
    binds: &Bindings,
    (emb, head): (ParamId, ParamId),
    idx: &Arc<Index>,
) -> Var {
    let hs = g.gather_rows(binds.var(emb), idx);
    let scores = g.row_dot(hs, hs);
    let att = g.segment_softmax(scores, idx);
    let weighted = g.mul_col_broadcast(hs, att);
    let pooled = g.segment_sum(weighted, idx);
    let h = g.matmul(pooled, binds.var(head));
    g.mse_loss(h, &Tensor::zeros(idx.n(), 16))
}

#[test]
fn the_guarded_loop_adds_no_per_epoch_allocation() {
    // With the recorder off, `train_guarded`'s own work per epoch (guard
    // checks and commit, clipping, the history push) must allocate
    // nothing: its steady-state epochs may allocate no more than a bare
    // forward/backward/step loop over the same tapes.
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let epochs = 8;
    let idx = Index::new((0..400).map(|i| (i * 7) % 64).collect(), 64);
    let store = || {
        let mut ps = ParamStore::new(3);
        let emb = ps.add("emb", 64, 16, Init::XavierUniform);
        let head = ps.add("head", 16, 16, Init::XavierUniform);
        (ps, (emb, head))
    };

    let (mut ps, ids) = store();
    let mut opt = Adam::new(0.01);
    let arena = TapeArena::new();
    let mut bare = Vec::with_capacity(epochs);
    for epoch in 0..epochs {
        let mut g = Graph::with_seed_and_arena(epoch as u64, arena.clone());
        let binds = ps.bind(&mut g);
        let loss = toy_loss(&mut g, &binds, ids, &idx);
        g.backward(loss);
        ps.zero_grads();
        ps.harvest(&g, &binds);
        opt.step(&mut ps);
        drop(g);
        bare.push(snapshot().1);
    }

    let (mut ps, ids) = store();
    let arena = TapeArena::new();
    let spec = TrainSpec {
        model: "alloc",
        variant: None,
        seed: 0,
        epochs,
        lr: 0.01,
        grad_clip: 5.0,
        guard: GuardConfig::default(),
        epoch_seed: |_, epoch| epoch as u64,
        arena: Some(&arena),
        checkpoint: None,
    };
    let mut losses: Vec<f32> = Vec::with_capacity(epochs);
    let mut guarded = Vec::with_capacity(epochs);
    train_guarded(
        &spec,
        &mut ps,
        &mut losses,
        &mut Vec::new(),
        |g, binds| (toy_loss(g, binds, ids, &idx), []),
        |_| guarded.push(snapshot().1),
    )
    .unwrap();

    let per_epoch = |ends: &[u64]| ends.windows(2).map(|w| w[1] - w[0]).collect::<Vec<_>>();
    let (bare, guarded) = (per_epoch(&bare), per_epoch(&guarded));
    for e in 2..epochs - 1 {
        assert!(
            guarded[e] <= bare[e],
            "epoch {} allocated {} times on the guarded loop, {} on a bare one \
             (guarded {guarded:?}, bare {bare:?})",
            e + 1,
            guarded[e],
            bare[e]
        );
    }
}
