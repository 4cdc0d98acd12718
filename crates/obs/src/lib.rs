//! Zero-dependency observability for the O²-SiteRec reproduction.
//!
//! This crate is the telemetry substrate for the whole workspace: spans and
//! structured events, counters/gauges/fixed-bucket histograms, opt-in
//! per-op tensor profiles, and a JSONL run-journal — all with no external
//! dependencies so it works in the offline build environment.
//!
//! # Switches
//!
//! Everything is off by default; a disabled call site costs one relaxed
//! atomic load. The environment enables things at process start:
//!
//! - `SITEREC_JOURNAL=path` — write a JSONL run-journal (also enables
//!   recording and per-op tape profiling),
//! - `SITEREC_PROFILE=1` — enable recording and per-op tape profiling,
//! - `SITEREC_LOG=off|summary|debug` — stderr verbosity for library crates
//!   (default `off`: libraries print nothing),
//! - `SITEREC_FAILPOINTS=name=mode@N,…` — arm deterministic fault
//!   injection at named I/O seams (see [`failpoint`]),
//! - `SITEREC_IO_RETRIES` / `SITEREC_IO_BACKOFF_MS` — attempt budget and
//!   backoff base for [`retry_io`] around durable writes,
//! - `SITEREC_TRACE_SAMPLE` / `SITEREC_TRACE_SEED` — request-trace sampling
//!   period and id/sampling seed for the serving path (see [`trace`]).
//!
//! Tests and harnesses can override programmatically via [`set_enabled`],
//! [`set_profiling`] and [`set_log_level`].
//!
//! # Determinism
//!
//! Instrumentation never feeds back into computation: model outputs and
//! recovery traces are bitwise identical with the recorder enabled or
//! disabled, at any thread count (see the determinism tests in
//! `siterec-tensor` and `siterec-core`). Per-thread record buffers merge
//! into the global store when each thread's outermost span closes.
//!
//! # Example
//!
//! ```
//! siterec_obs::set_enabled(true);
//! {
//!     let _span = siterec_obs::span!("train", model = "demo", seed = 7u64);
//!     siterec_obs::record!("train_epoch", model = "demo", epoch = 0u64, loss = 0.5);
//!     siterec_obs::counter_add("demo.steps", 1);
//! }
//! let journal = siterec_obs::journal_to_string();
//! let stats = siterec_obs::validate_journal(&journal).unwrap();
//! assert_eq!(stats.count("span"), 1);
//! assert_eq!(stats.count("train_epoch"), 1);
//! # siterec_obs::reset();
//! # siterec_obs::set_enabled(false);
//! ```

#![warn(missing_docs)]

pub mod failpoint;
mod fsio;
mod journal;
pub mod json;
mod recorder;
mod retry;
pub mod trace;

pub use fsio::{atomic_write, atomic_write_fp, read_fault};
pub use journal::{journal_to_string, validate_journal, write_journal, JournalStats};
pub use recorder::{
    counter_add, enabled, event_fields, gauge_set, hist_record, journal_path, log_enabled,
    log_level, log_line, op_profile_add, profiling_enabled, record_fields, reset, set_enabled,
    set_log_level, set_profiling, snapshot, summary, Histogram, LogLevel, OpProfile, Record,
    Snapshot, SpanAgg, SpanGuard, Value, HIST_BUCKETS,
};
pub use retry::{retry_io, RetryCfg};
pub use trace::{splitmix64, splitmix64_next};

/// Open a hierarchical span; returns a guard that records the span (name,
/// path, fields, duration) when dropped. All arguments are evaluated only
/// when the recorder is enabled.
///
/// ```
/// # siterec_obs::set_enabled(true);
/// let _span = siterec_obs::span!("train_epoch", epoch = 3u64);
/// # drop(_span);
/// # siterec_obs::reset();
/// # siterec_obs::set_enabled(false);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::SpanGuard::enter(
                $name,
                vec![$((stringify!($key), $crate::Value::from($value))),*],
            )
        } else {
            $crate::SpanGuard::disabled()
        }
    };
}

/// Emit a generic named event record (`type = "event"`). Arguments are
/// evaluated only when the recorder is enabled.
#[macro_export]
macro_rules! event {
    ($name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::event_fields(
                $name,
                vec![$((stringify!($key), $crate::Value::from($value))),*],
            );
        }
    };
}

/// Emit a typed journal record (e.g. `"train_epoch"`, `"recovery"`,
/// `"job_failure"`); the type must be one of the journal schema's known
/// types (see `validate_journal`). Arguments are evaluated only when the
/// recorder is enabled.
#[macro_export]
macro_rules! record {
    ($kind:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::record_fields(
                $kind,
                vec![$((stringify!($key), $crate::Value::from($value))),*],
            );
        }
    };
}

/// Log one formatted line to stderr at the given [`LogLevel`] variant name
/// (`Summary` or `Debug`); nothing is printed (or formatted) unless
/// `SITEREC_LOG` admits the level.
///
/// ```
/// siterec_obs::olog!(Debug, "split sizes: train={} test={}", 10, 2);
/// ```
#[macro_export]
macro_rules! olog {
    ($level:ident, $($arg:tt)*) => {
        if $crate::log_enabled($crate::LogLevel::$level) {
            $crate::log_line(format_args!($($arg)*));
        }
    };
}
