//! Harness-tier parallelism: run independent evaluation jobs (model × seed
//! rounds, baseline grids, hyper-parameter sweep points) across scoped
//! threads.
//!
//! Two properties make the fan-out safe to use for the paper's tables:
//!
//! * **Deterministic ordering** — [`run_jobs`] returns results in input
//!   order no matter which worker finished first, so a parallel run renders
//!   the exact table a serial run would.
//! * **Deterministic seeding** — jobs must derive all randomness from their
//!   input (e.g. a per-round seed from [`seed_stream`]), never from shared
//!   mutable state, so each job's result is independent of scheduling.
//!
//! The thread count comes from the `SITEREC_THREADS` environment variable
//! ([`harness_threads`]), defaulting to 1 (serial). This knob is independent
//! of the kernel-level knob (`siterec_tensor::ParallelConfig`), and the two
//! tiers share one core budget rather than multiplying: the fan-out clamps
//! its worker count to the host cores ([`effective_fanout_threads`] — jobs
//! are CPU-bound, so extra workers only timeslice and thrash the cache) and
//! registers a [`FanoutLease`] while
//! running, which makes kernel regions *inside* the jobs plan against
//! `cores / fanout_width` workers. Asking for 8 fan-out threads × 8 kernel
//! threads on an 8-core host therefore runs 8 jobs with serial kernels, not
//! 64 threads.

use siterec_obs as obs;
use siterec_tensor::parallel::{core_budget, FanoutLease};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Run `f` over every input, using up to `threads` worker threads, and
/// return the results **in input order**.
///
/// Work is distributed dynamically (an atomic cursor), so uneven job costs —
/// a 40-epoch model next to a popularity baseline — don't leave workers
/// idle. With `threads <= 1` or a single input the call degrades to a plain
/// serial loop with zero overhead. The effective worker count is capped at
/// the host core budget (see [`effective_fanout_threads`]) and leased from
/// the shared budget in `siterec_tensor::parallel` so kernel parallelism
/// inside the jobs doesn't oversubscribe the machine.
pub fn run_jobs<I, R, F>(inputs: &[I], threads: usize, f: F) -> Vec<R>
where
    I: Sync,
    R: Send,
    F: Fn(&I) -> R + Sync,
{
    let threads = effective_fanout_threads(threads, inputs.len());
    if threads == 1 {
        return inputs
            .iter()
            .enumerate()
            .map(|(i, input)| {
                let _s = obs::span!("eval_job", index = i);
                f(input)
            })
            .collect();
    }
    let _lease = FanoutLease::take(threads);
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|s| {
        for _ in 0..threads {
            let tx = tx.clone();
            let cursor = &cursor;
            let f = &f;
            s.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= inputs.len() {
                    break;
                }
                let r = {
                    let _s = obs::span!("eval_job", index = i);
                    f(&inputs[i])
                };
                if tx.send((i, r)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
    });
    let mut indexed: Vec<(usize, R)> = rx.into_iter().collect();
    indexed.sort_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// Structured record of a job that kept panicking through its retry budget.
///
/// `index` points into the original input slice, so a failure can be rendered
/// in place (an explicit failed cell in a results table) without disturbing
/// the surviving results.
#[derive(Debug, Clone, PartialEq)]
pub struct JobFailure {
    /// Index of the failed input.
    pub index: usize,
    /// Attempts spent (first try + retries).
    pub attempts: usize,
    /// Panic message of the final attempt.
    pub message: String,
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "job {} failed after {} attempt(s): {}",
            self.index, self.attempts, self.message
        )
    }
}

/// Retry budget for [`run_jobs_resilient`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first failed attempt (0 = fail immediately).
    pub max_retries: usize,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_retries: 1 }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn run_attempts<I, R, F>(
    input: &I,
    index: usize,
    policy: RetryPolicy,
    f: &F,
) -> Result<R, JobFailure>
where
    F: Fn(&I, usize) -> R,
{
    let attempts = policy.max_retries + 1;
    let mut last = String::new();
    for attempt in 0..attempts {
        let span = obs::span!("eval_job", index = index, attempt = attempt);
        let outcome = catch_unwind(AssertUnwindSafe(|| f(input, attempt)));
        drop(span);
        match outcome {
            Ok(r) => return Ok(r),
            Err(p) => {
                last = panic_message(p);
                if attempt + 1 < attempts {
                    obs::counter_add("eval.job_retries", 1);
                }
            }
        }
    }
    obs::record!(
        "job_failure",
        index = index,
        attempts = attempts,
        message = last.clone(),
    );
    Err(JobFailure {
        index,
        attempts,
        message: last,
    })
}

/// Panic-isolated variant of [`run_jobs`]: each job runs under
/// `catch_unwind`, a panicking job is retried up to `policy.max_retries`
/// times, and a job that exhausts its budget yields a structured
/// [`JobFailure`] instead of tearing down the whole fan-out.
///
/// `f` receives the attempt index (0 on the first try) so jobs can derive a
/// deterministic retry-variant seed (e.g. `retry_seed(seed, attempt)`) —
/// randomness must still come only from the input and the attempt, never
/// shared state. Results come back **in input order**, failures in place, so
/// a table renders every surviving cell exactly where a fully-healthy run
/// would have put it.
pub fn run_jobs_resilient<I, R, F>(
    inputs: &[I],
    threads: usize,
    policy: RetryPolicy,
    f: F,
) -> Vec<Result<R, JobFailure>>
where
    I: Sync,
    R: Send,
    F: Fn(&I, usize) -> R + Sync,
{
    let threads = effective_fanout_threads(threads, inputs.len());
    if threads == 1 {
        return inputs
            .iter()
            .enumerate()
            .map(|(i, input)| run_attempts(input, i, policy, &f))
            .collect();
    }
    let _lease = FanoutLease::take(threads);
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, Result<R, JobFailure>)>();
    std::thread::scope(|s| {
        for _ in 0..threads {
            let tx = tx.clone();
            let cursor = &cursor;
            let f = &f;
            s.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= inputs.len() {
                    break;
                }
                let r = run_attempts(&inputs[i], i, policy, f);
                if tx.send((i, r)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
    });
    let mut indexed: Vec<(usize, Result<R, JobFailure>)> = rx.into_iter().collect();
    indexed.sort_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// Derive `n` decorrelated seeds from a base seed (SplitMix64 stream).
///
/// Adjacent integers make poor seeds for some generators; feeding
/// `base + round` through SplitMix64's finalizer gives each job a
/// well-mixed, reproducible seed that does not depend on how many other
/// jobs run or in which order.
pub fn seed_stream(base: u64, n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|i| {
            let mut z = base
                .wrapping_add(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        })
        .collect()
}

/// Harness-tier thread count: `SITEREC_THREADS` if set and valid, else 1.
pub fn harness_threads() -> usize {
    threads_from(std::env::var("SITEREC_THREADS").ok())
}

/// The worker count [`run_jobs`] actually uses for `jobs` inputs when
/// `requested` threads are asked for: capped at the input count and at the
/// host core budget. Fan-out jobs are CPU-bound training/eval work —
/// workers beyond physical cores just timeslice against each other, which
/// is how `BENCH_parallel.json` came to record `harness_fanout_train` at
/// 0.86x "speedup" for 8 threads on a 1-core host. Benches record this
/// value per measurement so triage doesn't have to guess.
pub fn effective_fanout_threads(requested: usize, jobs: usize) -> usize {
    requested.clamp(1, jobs.max(1)).min(core_budget()).max(1)
}

fn threads_from(v: Option<String>) -> usize {
    v.and_then(|s| s.trim().parse::<usize>().ok())
        .map(|n| n.max(1))
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use siterec_tensor::parallel::BudgetGuard;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Mutex;

    // The core-budget override is process-global: tests that pretend a
    // bigger host (so fan-outs actually go parallel on a small CI machine)
    // must not interleave with each other.
    static GLOBAL_KNOB: Mutex<()> = Mutex::new(());

    /// A tuple drops its fields in order, so the budget is restored
    /// before the lock is released: the other way round, the next test
    /// could take the lock and set its budget before this one's restore
    /// overwrote it.
    fn wide_host() -> (BudgetGuard, std::sync::MutexGuard<'static, ()>) {
        let l = GLOBAL_KNOB.lock().unwrap_or_else(|e| e.into_inner());
        (BudgetGuard::set(8), l)
    }

    #[test]
    fn results_keep_input_order() {
        let _g = wide_host();
        // Make early jobs the slowest so a naive collect would reverse them.
        let inputs: Vec<u64> = (0..16).collect();
        let out = run_jobs(&inputs, 4, |&x| {
            std::thread::sleep(std::time::Duration::from_millis(16 - x));
            x * 10
        });
        assert_eq!(out, (0..16).map(|x| x * 10).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_serial() {
        let _g = wide_host();
        let inputs: Vec<u64> = (0..40).collect();
        let f = |&x: &u64| x.wrapping_mul(0x9e37_79b9).rotate_left(7);
        let serial = run_jobs(&inputs, 1, f);
        let parallel = run_jobs(&inputs, 8, f);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let _g = wide_host();
        let calls = AtomicUsize::new(0);
        let inputs: Vec<usize> = (0..33).collect();
        let out = run_jobs(&inputs, 5, |&x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(calls.load(Ordering::Relaxed), 33);
        assert_eq!(out, inputs);
    }

    #[test]
    fn degenerate_sizes() {
        let empty: Vec<u32> = Vec::new();
        assert!(run_jobs(&empty, 8, |&x| x).is_empty());
        assert_eq!(run_jobs(&[5u32], 8, |&x| x + 1), vec![6]);
    }

    #[test]
    fn fanout_threads_clamp_to_jobs_and_budget() {
        let _g = wide_host(); // pretend 8 cores
        assert_eq!(effective_fanout_threads(4, 100), 4);
        assert_eq!(effective_fanout_threads(16, 100), 8); // core budget
        assert_eq!(effective_fanout_threads(16, 3), 3); // job count
        assert_eq!(effective_fanout_threads(0, 0), 1);
        let _narrow = BudgetGuard::set(2);
        assert_eq!(effective_fanout_threads(8, 100), 2);
    }

    #[test]
    fn fanout_holds_a_kernel_budget_lease() {
        let _g = wide_host(); // pretend 8 cores
        use siterec_tensor::parallel::{effective_kernel_workers, fanout_width};
        let inputs: Vec<u64> = (0..8).collect();
        let widths = run_jobs(&inputs, 4, |_| {
            (fanout_width(), effective_kernel_workers(8))
        });
        // While the fan-out holds 4 workers, kernel regions inside the jobs
        // plan against 8 cores / 4 jobs = 2 workers.
        assert!(widths.iter().all(|&w| w == (4, 2)), "{widths:?}");
        assert_eq!(fanout_width(), 0, "lease released");
    }

    #[test]
    fn resilient_isolates_panicking_job() {
        let _g = wide_host();
        let inputs: Vec<u64> = (0..8).collect();
        let out = run_jobs_resilient(
            &inputs,
            4,
            RetryPolicy { max_retries: 0 },
            |&x, _attempt| {
                if x == 3 {
                    panic!("deliberate failure on {x}");
                }
                x * 10
            },
        );
        assert_eq!(out.len(), 8);
        for (i, r) in out.iter().enumerate() {
            if i == 3 {
                let fail = r.as_ref().unwrap_err();
                assert_eq!(fail.index, 3);
                assert_eq!(fail.attempts, 1);
                assert!(fail.message.contains("deliberate failure"));
            } else {
                assert_eq!(*r.as_ref().unwrap(), i as u64 * 10);
            }
        }
    }

    #[test]
    fn resilient_retry_recovers_flaky_job() {
        let _g = wide_host();
        // Fails on attempt 0, succeeds on attempt 1.
        let inputs: Vec<u64> = (0..4).collect();
        let out = run_jobs_resilient(&inputs, 2, RetryPolicy::default(), |&x, attempt| {
            if x == 2 && attempt == 0 {
                panic!("flaky");
            }
            (x, attempt)
        });
        let ok: Vec<(u64, usize)> = out.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(ok, vec![(0, 0), (1, 0), (2, 1), (3, 0)]);
    }

    #[test]
    fn resilient_serial_matches_parallel() {
        let _g = wide_host();
        let inputs: Vec<u64> = (0..20).collect();
        let f = |&x: &u64, _attempt: usize| {
            if x % 7 == 3 {
                panic!("x = {x}");
            }
            x * 3
        };
        let serial = run_jobs_resilient(&inputs, 1, RetryPolicy { max_retries: 0 }, f);
        let parallel = run_jobs_resilient(&inputs, 6, RetryPolicy { max_retries: 0 }, f);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn seed_stream_is_deterministic_and_mixed() {
        let a = seed_stream(17, 8);
        let b = seed_stream(17, 8);
        assert_eq!(a, b);
        // Prefix property: a longer stream starts with the shorter one.
        assert_eq!(&seed_stream(17, 16)[..8], &a[..]);
        // All distinct, and not trivially sequential.
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 8);
        assert!(a.windows(2).all(|w| w[1] != w[0] + 1));
        // Different bases give different streams.
        assert_ne!(seed_stream(18, 8), a);
    }

    #[test]
    fn thread_env_parsing() {
        assert_eq!(threads_from(None), 1);
        assert_eq!(threads_from(Some("4".into())), 4);
        assert_eq!(threads_from(Some(" 2 ".into())), 2);
        assert_eq!(threads_from(Some("0".into())), 1);
        assert_eq!(threads_from(Some("lots".into())), 1);
    }
}
