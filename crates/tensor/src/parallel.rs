//! Scoped-thread parallel runtime for the tensor kernels.
//!
//! Design constraints, in priority order:
//!
//! 1. **Bitwise determinism.** For any thread count, every kernel must
//!    produce output bitwise identical to the serial implementation. All
//!    partitioning here is therefore *output-partitioned*: each output
//!    element is computed by exactly one worker, using the same per-element
//!    floating-point accumulation order as the serial loop. Reductions that
//!    scatter in input order serially (segment sums, gather backward) are
//!    inverted to CSR form so each output row accumulates its inputs in
//!    ascending input order — exactly the serial order.
//! 2. **Zero overhead when off.** The thread count lives in a process-global
//!    [`AtomicUsize`] defaulting to 1; every helper short-circuits to the
//!    plain serial closure without spawning when it is 1 (or when the work
//!    is too small to amortize a spawn).
//! 3. **No new dependencies.** Workers are `std::thread::scope` threads,
//!    spawned per parallel region. A spawn costs tens of microseconds, so
//!    `plan_workers` refuses to split work smaller than
//!    `MIN_FLOPS_PER_WORKER`.
//! 4. **No oversubscription.** Requested threads are a *ceiling*, not a
//!    promise: `plan_workers` additionally caps every region at the host
//!    core budget, shared evenly with any live coarse-grained fan-out
//!    (see [`FanoutLease`]). Asking for 8 kernel workers on a 1-core host
//!    used to *lose* to serial (`BENCH_parallel.json` recorded `adam_step`
//!    at 0.82x); now it degrades to serial instead. Because all splits are
//!    bit-deterministic, the clamp is unobservable in outputs.
//!
//! The knob is set through [`ParallelConfig`], which `siterec-core` embeds
//! in its model configuration — installing it once makes every kernel in
//! the process (the O²-SiteRec model and all baselines) pick it up without
//! per-call-site changes.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Process-global worker count for the tensor kernels. 1 = serial.
static KERNEL_THREADS: AtomicUsize = AtomicUsize::new(1);

/// Test/bench override for the detected core count (0 = auto-detect).
static CORE_BUDGET_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Worker threads currently held by coarse-grained fan-outs (the eval
/// harness leases its job workers here so kernel regions running *inside*
/// those jobs share the cores instead of multiplying with them).
static FANOUT_WIDTH: AtomicUsize = AtomicUsize::new(0);

/// Minimum ~flops of work per worker before a spawn pays for itself.
/// A scoped-thread spawn + join costs on the order of 10–100 µs; at
/// roughly 1 flop/ns that bounds useful splits to ≳256k flops (~100 µs)
/// each — below that the spawn overhead shows up as the sub-1.0 speedups
/// `BENCH_parallel.json` used to record for the fused Adam step. Callers
/// whose kernels run much faster than 1 flop/ns (the matmul paths) scale
/// their per-unit estimate down to this unit (`kernels::row_work`).
const MIN_FLOPS_PER_WORKER: usize = 1 << 18;

/// Worker chunk boundaries are rounded up to this many f32 (one 64-byte
/// cache line) so adjacent workers never write the same line (false
/// sharing on the Adam moment vectors).
const CHUNK_ALIGN_F32: usize = 16;

/// Set the global kernel worker count (clamped to ≥ 1).
pub fn set_kernel_threads(n: usize) {
    KERNEL_THREADS.store(n.max(1), Ordering::Relaxed);
}

/// Current global kernel worker count.
pub fn kernel_threads() -> usize {
    KERNEL_THREADS.load(Ordering::Relaxed)
}

/// Hardware threads detected once per process.
fn detected_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The core budget parallel regions may fill: the detected hardware
/// thread count, unless a [`BudgetGuard`] override is live.
pub fn core_budget() -> usize {
    match CORE_BUDGET_OVERRIDE.load(Ordering::Relaxed) {
        0 => detected_cores(),
        n => n,
    }
}

/// Worker threads currently held by coarse-grained fan-outs.
pub fn fanout_width() -> usize {
    FANOUT_WIDTH.load(Ordering::Relaxed)
}

/// The number of workers a kernel region may actually use when
/// `requested` are asked for: capped by the core budget, shared evenly
/// with any live fan-out (a fan-out holding `f` workers leaves each job
/// `budget / f` kernel workers).
pub fn effective_kernel_workers(requested: usize) -> usize {
    let share = core_budget() / fanout_width().max(1);
    requested.max(1).min(share.max(1))
}

/// RAII registration of a coarse-grained fan-out: while held, kernel
/// regions plan against `core_budget() / fanout_width()` so job-level and
/// row-level parallelism share the machine instead of multiplying.
/// Additive across nested/concurrent fan-outs; released on drop.
pub struct FanoutLease(usize);

impl FanoutLease {
    /// Register `width` fan-out worker threads until the lease drops.
    pub fn take(width: usize) -> Self {
        let w = width.max(1);
        FANOUT_WIDTH.fetch_add(w, Ordering::Relaxed);
        FanoutLease(w)
    }
}

impl Drop for FanoutLease {
    fn drop(&mut self) {
        FANOUT_WIDTH.fetch_sub(self.0, Ordering::Relaxed);
    }
}

/// Restores the previous core-budget override when dropped. Test/bench
/// guard: lets suites on a small host force real splits (pretend `n`
/// cores), and benches force honest clamping, without racing each other.
pub struct BudgetGuard(usize);

impl BudgetGuard {
    /// Pretend the host has `n` cores until the guard drops.
    pub fn set(n: usize) -> Self {
        BudgetGuard(CORE_BUDGET_OVERRIDE.swap(n.max(1), Ordering::Relaxed))
    }
}

impl Drop for BudgetGuard {
    fn drop(&mut self) {
        CORE_BUDGET_OVERRIDE.store(self.0, Ordering::Relaxed);
    }
}

/// Record one parallel-region entry with the observability layer: region
/// and split-region counters plus output bytes touched. Costs one relaxed
/// atomic load when the recorder is disabled.
#[inline]
fn note_region(workers: usize, bytes: usize) {
    if siterec_obs::enabled() {
        siterec_obs::counter_add("tensor.parallel.regions", 1);
        if workers > 1 {
            siterec_obs::counter_add("tensor.parallel.split_regions", 1);
        }
        if bytes > 0 {
            siterec_obs::counter_add("tensor.parallel.bytes", bytes as u64);
        }
    }
}

/// Number of workers worth using for `units` independent work items of
/// roughly `flops_per_unit` floating-point operations each: the requested
/// thread count, clamped by the shared core budget (no oversubscription)
/// and by the amount of work (no spawns that cost more than they save).
fn plan_workers(units: usize, flops_per_unit: usize) -> usize {
    let requested = kernel_threads();
    if requested <= 1 || units <= 1 {
        return 1;
    }
    let t = effective_kernel_workers(requested);
    if t < requested && siterec_obs::enabled() {
        siterec_obs::counter_add("tensor.parallel.core_clamped", 1);
    }
    if t <= 1 {
        return 1;
    }
    let total = units.saturating_mul(flops_per_unit.max(1));
    t.min(total / MIN_FLOPS_PER_WORKER).clamp(1, units)
}

/// Run `f` over `0..n`, split into contiguous ranges across workers.
///
/// `f` must only produce effects that are disjoint per range (it receives
/// no mutable state from here; use it for side-effect-free computation
/// into interior-mutability-free captured outputs, or read-only work).
/// Ranges cover `0..n` exactly once, in order within each worker.
pub fn for_each_range(n: usize, flops_per_unit: usize, f: impl Fn(Range<usize>) + Sync) {
    let workers = plan_workers(n, flops_per_unit);
    note_region(workers, 0);
    if workers <= 1 {
        f(0..n);
        return;
    }
    let chunk = n.div_ceil(workers);
    std::thread::scope(|s| {
        for w in 1..workers {
            let lo = w * chunk;
            let hi = ((w + 1) * chunk).min(n);
            if lo >= hi {
                break;
            }
            let f = &f;
            s.spawn(move || f(lo..hi));
        }
        // Worker 0 runs on the calling thread.
        f(0..chunk.min(n));
    });
}

/// Run `f` over contiguous row-blocks of `data`, where `data` is a
/// row-major buffer of `row_len`-element rows. Each invocation gets the
/// index of its first row and the mutable sub-slice holding its rows.
///
/// With one worker this is a single `f(0, data)` call; the split points
/// never change the per-element computation order inside a row block, so
/// output is bitwise independent of the worker count.
pub fn for_each_row_block_mut<T: Send>(
    data: &mut [T],
    row_len: usize,
    flops_per_row: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    if data.is_empty() {
        return;
    }
    let rows = data.len().checked_div(row_len).unwrap_or(0);
    let workers = plan_workers(rows, flops_per_row);
    note_region(workers, std::mem::size_of_val(data));
    if workers <= 1 {
        f(0, data);
        return;
    }
    // Round split points up to cache-line multiples where rows are small,
    // so adjacent workers never write the same 64-byte line.
    let align = CHUNK_ALIGN_F32.div_ceil(row_len.max(1)).max(1);
    let rows_per = rows.div_ceil(workers).next_multiple_of(align);
    std::thread::scope(|s| {
        let mut rest = data;
        let mut row0 = 0;
        while !rest.is_empty() {
            let take = (rows_per * row_len).min(rest.len());
            let (head, tail) = rest.split_at_mut(take);
            rest = tail;
            let f = &f;
            let r0 = row0;
            row0 += take / row_len;
            s.spawn(move || f(r0, head));
        }
    });
}

/// Like [`for_each_row_block_mut`] but over three equal-length buffers
/// split at identical boundaries (used by the Adam update, which walks
/// the parameter value and both moment buffers in lockstep).
pub fn for_each_zip3_block_mut<T: Send>(
    a: &mut [T],
    b: &mut [T],
    c: &mut [T],
    flops_per_unit: usize,
    f: impl Fn(usize, &mut [T], &mut [T], &mut [T]) + Sync,
) {
    assert_eq!(a.len(), b.len(), "zip3 length mismatch");
    assert_eq!(a.len(), c.len(), "zip3 length mismatch");
    if a.is_empty() {
        return;
    }
    let n = a.len();
    let workers = plan_workers(n, flops_per_unit);
    note_region(workers, 3 * std::mem::size_of_val(&*a));
    if workers <= 1 {
        f(0, a, b, c);
        return;
    }
    // Cache-line-aligned boundaries: the Adam update walks three parallel
    // f32 buffers, and unaligned splits put two workers' stores on one
    // line in all three (false sharing, three times over).
    let per = n.div_ceil(workers).next_multiple_of(CHUNK_ALIGN_F32);
    std::thread::scope(|s| {
        let (mut ra, mut rb, mut rc) = (a, b, c);
        let mut off = 0;
        while !ra.is_empty() {
            let take = per.min(ra.len());
            let (ha, ta) = ra.split_at_mut(take);
            let (hb, tb) = rb.split_at_mut(take);
            let (hc, tc) = rc.split_at_mut(take);
            ra = ta;
            rb = tb;
            rc = tc;
            let f = &f;
            let o = off;
            off += take;
            s.spawn(move || f(o, ha, hb, hc));
        }
    });
}

/// Invert a target-index list to CSR form: returns `(offsets, order)` such
/// that for each target `t`, `order[offsets[t]..offsets[t + 1]]` lists the
/// input indices `i` with `targets[i] == t`, in **ascending** order.
///
/// Accumulating each target's inputs in this order reproduces, per output
/// element, the exact floating-point order of the serial scatter loop
/// `for i { out[targets[i]] += x[i] }` — which is what makes parallel
/// segment reductions bitwise identical to serial ones.
pub fn csr_invert(targets: &[usize], n_targets: usize) -> (Vec<usize>, Vec<usize>) {
    let mut offsets = vec![0usize; n_targets + 1];
    for &t in targets {
        debug_assert!(t < n_targets, "target {t} out of range {n_targets}");
        offsets[t + 1] += 1;
    }
    for t in 0..n_targets {
        offsets[t + 1] += offsets[t];
    }
    let mut cursor = offsets.clone();
    let mut order = vec![0usize; targets.len()];
    for (i, &t) in targets.iter().enumerate() {
        order[cursor[t]] = i;
        cursor[t] += 1;
    }
    (offsets, order)
}

/// Thread-count knob threaded through model configurations.
///
/// `install()` publishes the count to the process-global used by every
/// tensor kernel, so a single call (e.g. from `O2SiteRec::new`) switches
/// the whole numeric stack — model and baselines alike — with no
/// per-call-site plumbing. The default of 1 keeps everything serial and
/// bit-for-bit reproducible against historical results (parallel runs are
/// bitwise identical to serial ones anyway; see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker threads for tensor kernels. 1 = serial (the default).
    pub threads: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig { threads: 1 }
    }
}

impl ParallelConfig {
    /// Explicit serial configuration.
    pub fn serial() -> Self {
        Self::default()
    }

    /// Use `threads` workers (clamped to ≥ 1 at install time).
    pub fn with_threads(threads: usize) -> Self {
        ParallelConfig { threads }
    }

    /// One worker per available hardware thread.
    pub fn max_hardware() -> Self {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        ParallelConfig { threads }
    }

    /// Publish this configuration to the process-global kernel knob.
    pub fn install(&self) {
        set_kernel_threads(self.threads);
    }
}

/// Restores the previous global thread count when dropped. Test-only
/// guard so concurrent tests can't leak a thread-count change.
///
/// Unlike the production [`ParallelConfig::install`], the guard also
/// raises the core-budget override to `n`: its job is to *force* real
/// `n`-way splits so equivalence suites exercise split boundaries even on
/// a small CI host, where the honest budget clamp would keep everything
/// serial (and make the coverage vacuous).
pub struct ThreadGuard {
    prev: usize,
    _budget: BudgetGuard,
}

impl ThreadGuard {
    /// Set the global count (and core-budget override) to `n` until the
    /// guard drops.
    pub fn set(n: usize) -> Self {
        let prev = kernel_threads();
        set_kernel_threads(n);
        ThreadGuard {
            prev,
            _budget: BudgetGuard::set(n),
        }
    }
}

impl Drop for ThreadGuard {
    fn drop(&mut self) {
        set_kernel_threads(self.prev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // The kernel thread count is process-global; tests that set it must not
    // interleave (the test harness runs tests on concurrent threads).
    static GLOBAL_KNOB: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        GLOBAL_KNOB.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn csr_inversion_lists_sources_ascending() {
        let targets = [2usize, 0, 2, 1, 0, 2];
        let (offsets, order) = csr_invert(&targets, 3);
        assert_eq!(offsets, vec![0, 2, 3, 6]);
        assert_eq!(&order[0..2], &[1, 4]); // target 0
        assert_eq!(&order[2..3], &[3]); // target 1
        assert_eq!(&order[3..6], &[0, 2, 5]); // target 2
    }

    #[test]
    fn range_split_covers_everything_once() {
        let _l = lock();
        let _guard = ThreadGuard::set(4);
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        // Large flops/unit so plan_workers actually splits.
        for_each_range(1000, MIN_FLOPS_PER_WORKER, |r| {
            for i in r {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn row_blocks_partition_disjointly() {
        let _l = lock();
        let _guard = ThreadGuard::set(8);
        let mut data = vec![0u32; 96];
        for_each_row_block_mut(&mut data, 8, MIN_FLOPS_PER_WORKER, |row0, block| {
            for (j, x) in block.iter_mut().enumerate() {
                *x = (row0 * 8 + j) as u32;
            }
        });
        let expect: Vec<u32> = (0..96).collect();
        assert_eq!(data, expect);
    }

    #[test]
    fn small_work_stays_serial() {
        let _l = lock();
        let _guard = ThreadGuard::set(8);
        assert_eq!(plan_workers(10, 1), 1);
        assert_eq!(plan_workers(0, 100), 1);
        // Big work splits, but never beyond the unit count.
        assert_eq!(plan_workers(2, usize::MAX / 4), 2);
    }

    #[test]
    fn core_budget_caps_planning() {
        let _l = lock();
        let _guard = ThreadGuard::set(8);
        // ThreadGuard pretends 8 cores; narrow the budget and the plan
        // must shrink with it, regardless of the requested thread count.
        let _budget = BudgetGuard::set(2);
        assert_eq!(plan_workers(64, MIN_FLOPS_PER_WORKER), 2);
        drop(_budget);
        assert_eq!(plan_workers(64, MIN_FLOPS_PER_WORKER), 8);
    }

    #[test]
    fn fanout_lease_shares_the_budget() {
        let _l = lock();
        let _guard = ThreadGuard::set(8);
        assert_eq!(effective_kernel_workers(8), 8);
        {
            let _lease = FanoutLease::take(4);
            // 8 cores / 4 fan-out jobs -> 2 kernel workers per job.
            assert_eq!(effective_kernel_workers(8), 2);
            let _nested = FanoutLease::take(4);
            assert_eq!(effective_kernel_workers(8), 1);
        }
        assert_eq!(fanout_width(), 0);
        assert_eq!(effective_kernel_workers(8), 8);
    }

    #[test]
    fn zip3_aligned_splits_partition_disjointly() {
        let _l = lock();
        let _guard = ThreadGuard::set(8);
        // 100 is not a multiple of the 16-element alignment: boundaries
        // round up and the tail worker takes the remainder.
        let n = 100;
        let mut a = vec![0u32; n];
        let mut b = vec![0u32; n];
        let mut c = vec![0u32; n];
        for_each_zip3_block_mut(
            &mut a,
            &mut b,
            &mut c,
            MIN_FLOPS_PER_WORKER,
            |off, ha, hb, hc| {
                assert!(
                    off == 0 || off % CHUNK_ALIGN_F32 == 0,
                    "unaligned split at {off}"
                );
                for (j, ((x, y), z)) in ha.iter_mut().zip(hb).zip(hc).enumerate() {
                    *x = (off + j) as u32;
                    *y = (off + j) as u32 + 1;
                    *z = (off + j) as u32 + 2;
                }
            },
        );
        for i in 0..n {
            assert_eq!(a[i] as usize, i);
            assert_eq!(b[i] as usize, i + 1);
            assert_eq!(c[i] as usize, i + 2);
        }
    }

    #[test]
    fn install_round_trips() {
        let _l = lock();
        let _guard = ThreadGuard::set(1);
        ParallelConfig::with_threads(3).install();
        assert_eq!(kernel_threads(), 3);
        ParallelConfig::serial().install();
        assert_eq!(kernel_threads(), 1);
        assert!(ParallelConfig::max_hardware().threads >= 1);
    }
}
