//! Epoch-persistent buffer pool for the autodiff tape.
//!
//! Every training epoch rebuilds the tape from scratch, which used to mean
//! re-allocating every forward value and gradient buffer hundreds of times
//! per run. A [`TapeArena`] is a size-bucketed free list of `Vec<f32>`
//! buffers owned by the training loop: graphs created with
//! [`Graph::with_seed_and_arena`](crate::Graph::with_seed_and_arena) lease
//! their buffers from it and recycle them, so epochs after the first hit
//! the allocator zero times for tape storage.
//!
//! Buffers come back at two points. [`Graph::backward`](crate::Graph::backward)
//! recycles each non-leaf node's value, op payload and gradient as soon as
//! its reverse sweep has passed the node, and the gradient leases further
//! down the same sweep reuse them; dropping the graph recycles the rest
//! (leaves, and anything on a tape that never ran backward). The model's
//! evaluation tapes (`predict`, serving export, diagnostic losses) lease
//! from the same pool, so evaluation reuses what training pooled instead
//! of faulting in pages beside it.
//!
//! Lifecycle:
//!
//! ```text
//!   O2SiteRec / TrainLoop owns: TapeArena ──────────────┐ (epoch-persistent)
//!      epoch e:                                         │
//!        Graph::with_seed_and_arena(seed_e, arena) ◄────┤ lease on demand
//!          forward values / scratch  ◄──────────────────┤   (zeroed)
//!        backward(loss): node i passed ─────────────────┤ recycle value,
//!          gradient leases  ◄───────────────────────────┤   payload, grad
//!        drop(Graph) ───────────────────────────────────┤ recycle the rest
//!      evaluation (predict / export / losses):          │
//!        Graph::with_seed_and_arena(DEFAULT_SEED, ..) ◄─┤ lease
//!        drop(Graph) ───────────────────────────────────┘ recycle all
//! ```
//!
//! [`ArenaStats::bytes`] counts what the pool holds plus what it has lent
//! out, and [`ArenaStats::peak_bytes`] its high-water mark: the tape memory
//! a run needed at its largest.
//!
//! Buffers are bucketed by power-of-two *capacity class*: a buffer recycled
//! into class `c` has capacity `>= 2^c`, and a lease of length `L` draws
//! from class `ceil(log2 L)`, so a recycled buffer always satisfies the
//! lease without reallocating. Leased `f32` buffers are zero-filled (the
//! same state a fresh `vec![0.0; n]` has), which keeps pooled and
//! non-pooled runs bit-identical.
//!
//! The arena is `Clone` (shared handle) and thread-safe; contention is one
//! short mutex hold per lease/recycle, which is negligible next to the op
//! kernels themselves.

use std::sync::{Arc, Mutex};

/// Highest capacity class tracked (2^47 elements is far beyond any tensor
/// this repo builds; larger requests simply bypass the pool).
const CLASSES: usize = 48;

/// Per-class cap on pooled buffers; beyond this, recycled buffers are
/// dropped to bound worst-case memory held by the pool. Must exceed the
/// number of same-class buffers a single tape can hold (tape length), or
/// steady-state epochs would re-allocate the overflow every epoch.
const MAX_PER_CLASS: usize = 8192;

/// Counters describing pool behaviour since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Buffers handed out.
    pub leases: u64,
    /// Leases that had to allocate because the matching bucket was empty.
    pub misses: u64,
    /// Buffers returned to the pool.
    pub recycles: u64,
    /// Recycled buffers dropped because their bucket was full.
    pub discards: u64,
    /// Capacity bytes of the buffers leased out and not yet returned, plus
    /// those pooled. Exact while every returned buffer came from a lease; a
    /// returned buffer the arena never leased (a tensor handed to
    /// `Graph::param`, say) is booked as the return of leased bytes, as far
    /// as any are out, and is pooled from then on.
    pub bytes: u64,
    /// High-water mark of [`Self::bytes`].
    pub peak_bytes: u64,
}

impl ArenaStats {
    /// Bytes handed out and not yet returned, and bytes pooled.
    fn set_bytes(&mut self, leased: u64, pooled: u64) {
        self.bytes = leased + pooled;
        self.peak_bytes = self.peak_bytes.max(self.bytes);
    }
}

/// Capacity of `v` in bytes.
fn cap_bytes(v: &Vec<f32>) -> u64 {
    (v.capacity() * std::mem::size_of::<f32>()) as u64
}

#[derive(Default)]
struct Pool {
    buckets: Vec<Vec<Vec<f32>>>,
    /// Capacity bytes leased out and not returned (saturating: a foreign
    /// buffer's return cannot take it below zero).
    leased: u64,
    /// Capacity bytes sitting in `buckets`.
    pooled: u64,
}

impl Pool {
    fn class_for_len(len: usize) -> usize {
        len.next_power_of_two().trailing_zeros() as usize
    }

    fn lease(&mut self, len: usize, stats: &mut ArenaStats) -> Vec<f32> {
        stats.leases += 1;
        let class = Self::class_for_len(len);
        if class < CLASSES {
            if self.buckets.len() <= class {
                self.buckets.resize_with(CLASSES, Vec::new);
            }
            if let Some(mut v) = self.buckets[class].pop() {
                debug_assert!(v.capacity() >= len);
                let b = cap_bytes(&v);
                self.pooled -= b;
                self.leased += b;
                v.clear();
                v.resize(len, 0.0);
                return v;
            }
        }
        stats.misses += 1;
        let mut v = Vec::with_capacity(if class < CLASSES {
            1usize << class
        } else {
            len
        });
        v.resize(len, 0.0);
        self.leased += cap_bytes(&v);
        stats.set_bytes(self.leased, self.pooled);
        v
    }

    fn recycle(&mut self, v: Vec<f32>, stats: &mut ArenaStats) {
        if v.capacity() == 0 {
            return;
        }
        stats.recycles += 1;
        let b = cap_bytes(&v);
        self.leased = self.leased.saturating_sub(b);
        // Bucket by the largest class the capacity fully covers, so every
        // buffer in class c satisfies any lease of length <= 2^c.
        let class = usize::BITS as usize - 1 - v.capacity().leading_zeros() as usize;
        if self.buckets.len() <= class && class < CLASSES {
            self.buckets.resize_with(CLASSES, Vec::new);
        }
        if class >= CLASSES || self.buckets[class].len() >= MAX_PER_CLASS {
            stats.discards += 1;
        } else {
            self.buckets[class].push(v);
            self.pooled += b;
        }
        stats.set_bytes(self.leased, self.pooled);
    }
}

struct Inner {
    f32s: Pool,
    stats: ArenaStats,
}

/// A shared, size-bucketed free list of tape buffers. See the module docs.
#[derive(Clone)]
pub struct TapeArena {
    inner: Arc<Mutex<Inner>>,
}

impl Default for TapeArena {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for TapeArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        write!(
            f,
            "TapeArena(leases={}, misses={}, recycles={})",
            s.leases, s.misses, s.recycles
        )
    }
}

impl TapeArena {
    /// New, empty arena.
    pub fn new() -> Self {
        TapeArena {
            inner: Arc::new(Mutex::new(Inner {
                f32s: Pool::default(),
                stats: ArenaStats::default(),
            })),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Lease a zero-filled `f32` buffer of exactly `len` elements.
    pub fn lease_f32(&self, len: usize) -> Vec<f32> {
        let mut inner = self.lock();
        let Inner { f32s, stats } = &mut *inner;
        f32s.lease(len, stats)
    }

    /// Lease an `f32` buffer holding a copy of `src`.
    pub fn lease_f32_copy(&self, src: &[f32]) -> Vec<f32> {
        let mut v = self.lease_f32(src.len());
        v.copy_from_slice(src);
        v
    }

    /// Return an `f32` buffer to the pool.
    pub fn recycle_f32(&self, v: Vec<f32>) {
        let mut inner = self.lock();
        let Inner { f32s, stats } = &mut *inner;
        f32s.recycle(v, stats);
    }

    /// A `rows x cols` zero tensor backed by a pooled buffer.
    pub fn zeros(&self, rows: usize, cols: usize) -> crate::Tensor {
        crate::Tensor::from_vec(rows, cols, self.lease_f32(rows * cols))
    }

    /// A pooled copy of `t`.
    pub fn copy_of(&self, t: &crate::Tensor) -> crate::Tensor {
        crate::Tensor::from_vec(t.rows(), t.cols(), self.lease_f32_copy(t.data()))
    }

    /// Counters since construction (shared across clones).
    pub fn stats(&self) -> ArenaStats {
        self.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_is_zeroed_and_reuses_capacity() {
        let a = TapeArena::new();
        let mut v = a.lease_f32(100);
        v.iter().for_each(|&x| assert_eq!(x.to_bits(), 0));
        v[3] = 7.0;
        let p = v.as_ptr();
        a.recycle_f32(v);
        let v2 = a.lease_f32(100);
        assert_eq!(v2.as_ptr(), p, "pooled buffer not reused");
        assert!(v2.iter().all(|&x| x.to_bits() == 0), "stale data leaked");
        assert_eq!(a.stats().misses, 1);
        assert_eq!(a.stats().leases, 2);
    }

    #[test]
    fn smaller_lease_fits_larger_recycled_buffer() {
        let a = TapeArena::new();
        let v = a.lease_f32(1000); // class 10 (capacity 1024)
        a.recycle_f32(v);
        let v2 = a.lease_f32(600); // class 10 too
        assert_eq!(a.stats().misses, 1, "should reuse the 1024-cap buffer");
        assert_eq!(v2.len(), 600);
    }

    #[test]
    fn zero_len_lease_is_fine() {
        let a = TapeArena::new();
        let v = a.lease_f32(0);
        assert!(v.is_empty());
        a.recycle_f32(v);
    }

    #[test]
    fn bytes_count_leased_plus_pooled_and_peak_holds() {
        let a = TapeArena::new();
        let v = a.lease_f32(100); // capacity 128: 512 bytes
        let w = a.lease_f32(3); // capacity 4: 16 bytes
        assert_eq!((a.stats().bytes, a.stats().peak_bytes), (528, 528));
        a.recycle_f32(v);
        assert_eq!(
            a.stats().bytes,
            528,
            "a returned lease is pooled, not freed"
        );
        let x = a.lease_f32(120); // reuses the 128-capacity buffer
        assert_eq!(a.stats().bytes, 528);
        a.recycle_f32(x);
        a.recycle_f32(w);
        assert_eq!((a.stats().bytes, a.stats().peak_bytes), (528, 528));
        let s = a.stats();
        assert_eq!(s.misses, 2);
        assert_eq!(s.discards, 0);
    }

    #[test]
    fn clones_share_the_pool() {
        let a = TapeArena::new();
        let b = a.clone();
        let v = a.lease_f32(64);
        b.recycle_f32(v);
        let _v2 = b.lease_f32(64);
        let s = a.stats();
        assert_eq!(s.leases, 2);
        assert_eq!(s.misses, 1);
    }
}
