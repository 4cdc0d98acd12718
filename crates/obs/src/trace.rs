//! Causal tracing: request IDs, deterministic trace sampling, and a
//! Chrome-trace-event (Perfetto-loadable) exporter over journaled spans.
//!
//! # Request IDs and sampling
//!
//! The serving path accepts a client-supplied `X-Request-Id` or assigns one
//! from [`next_request_id`]: a splitmix64 hash of a process-wide counter
//! mixed with `SITEREC_TRACE_SEED`, so IDs are unique within a process and
//! reproducible across reruns of a deterministic workload — never derived
//! from wall-clock randomness.
//!
//! Trace sampling is equally deterministic: [`sample_request`] admits every
//! `N`-th request (`SITEREC_TRACE_SAMPLE=N`; `0` disables, `1` traces
//! everything) by ticking a seeded atomic counter. Which requests get a
//! `serve_trace` journal record therefore depends only on arrival order,
//! not on time or chance, so a replayed request stream samples the same
//! positions every run.
//!
//! # Chrome trace export
//!
//! [`chrome_trace_from_journal`] converts the `span` records of a JSONL
//! run-journal into the Chrome trace-event JSON format (`traceEvents` with
//! `ph:"X"` complete events), which chrome://tracing and Perfetto load
//! directly. Spans carry `start_ns` (offset from the process epoch) and
//! `tid` precisely so this export can reconstruct the timeline; `event` and
//! typed records that carry a `dur_ns` are not spans and are skipped.
//! [`chrome_trace_current`] exports the live recorder state the same way.

use crate::json::{self, Json};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Default sampling period when `SITEREC_TRACE_SAMPLE` is unset: one traced
/// request out of every 16 (cheap enough to leave on wherever the recorder
/// itself is on).
pub const DEFAULT_SAMPLE_EVERY: u64 = 16;

struct Sampler {
    /// Sample every `every`-th request; 0 disables sampling entirely.
    every: AtomicU64,
    /// Monotonic request counter, pre-seeded so the sampled phase is a pure
    /// function of (seed, arrival index).
    counter: AtomicU64,
    /// The id-generation seed (`SITEREC_TRACE_SEED`, default 0).
    seed: u64,
    /// Counter behind assigned request IDs (separate from the sampling
    /// counter: not every request needs an assigned ID).
    ids: AtomicU64,
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok().and_then(|v| v.parse::<u64>().ok())
}

fn sampler() -> &'static Sampler {
    static SAMPLER: OnceLock<Sampler> = OnceLock::new();
    SAMPLER.get_or_init(|| {
        let seed = env_u64("SITEREC_TRACE_SEED").unwrap_or(0);
        let every = env_u64("SITEREC_TRACE_SAMPLE").unwrap_or(DEFAULT_SAMPLE_EVERY);
        Sampler {
            every: AtomicU64::new(every),
            counter: AtomicU64::new(seed),
            seed,
            ids: AtomicU64::new(0),
        }
    })
}

/// The SplitMix64 increment (the golden-ratio gamma).
const SPLITMIX_GAMMA: u64 = 0x9E3779B97F4A7C15;

/// splitmix64: the standard 64-bit finalizer of `z + γ`. It spreads the
/// sequential ID counter into well-mixed hex identifiers, and it is the
/// repo's one seeded stream for deterministic schedules and jitter (see
/// [`splitmix64_next`]).
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(SPLITMIX_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// The next draw of the SplitMix64 stream whose state is `state`, advancing
/// it by γ: the same sequence as the stateful `{ s += γ; mix(s) }` form.
pub fn splitmix64_next(state: &mut u64) -> u64 {
    let r = splitmix64(*state);
    *state = state.wrapping_add(SPLITMIX_GAMMA);
    r
}

/// Should this request be traced? Deterministic: ticks the seeded counter
/// and admits every `N`-th request (see module docs). Always `false` when
/// the recorder is disabled or the period is 0, in which case the counter
/// does not advance — so enabling tracing later still starts at the seed.
pub fn sample_request() -> bool {
    if !crate::enabled() {
        return false;
    }
    let s = sampler();
    let every = s.every.load(Ordering::Relaxed);
    if every == 0 {
        return false;
    }
    s.counter
        .fetch_add(1, Ordering::Relaxed)
        .is_multiple_of(every)
}

/// Override the sampling period (`0` disables; `1` traces every request).
/// Normally set via `SITEREC_TRACE_SAMPLE`; tests and harnesses use this.
pub fn set_sample_every(every: u64) {
    sampler().every.store(every, Ordering::Relaxed);
}

/// The current sampling period (0 when sampling is off).
pub fn sample_every() -> u64 {
    sampler().every.load(Ordering::Relaxed)
}

/// Assign a request ID: 16 lowercase hex chars prefixed `sr-`, derived by
/// hashing a process-wide counter with the trace seed (no wall-clock
/// randomness, so a deterministic workload assigns identical IDs run to
/// run).
pub fn next_request_id() -> String {
    let s = sampler();
    let n = s.ids.fetch_add(1, Ordering::Relaxed);
    format!("sr-{:016x}", splitmix64(s.seed ^ n))
}

/// One Chrome trace event distilled from a journal `span` record.
struct SpanEvent<'a> {
    name: &'a str,
    start_ns: u64,
    dur_ns: u64,
    tid: u64,
    /// Extra (key, value) pairs forwarded into the event's `args`.
    args: Vec<(&'a str, &'a Json)>,
}

/// Fields every span record consumes structurally; everything else is
/// forwarded into the Chrome event's `args` object.
const STRUCTURAL: &[&str] = &["type", "name", "start_ns", "dur_ns", "tid"];

fn span_event(fields: &[(String, Json)]) -> Option<SpanEvent<'_>> {
    let get = |k: &str| fields.iter().find(|(n, _)| n == k).map(|(_, v)| v);
    let name = get("name")?.as_str()?;
    let start_ns = get("start_ns")?.as_num()? as u64;
    let dur_ns = get("dur_ns")?.as_num()? as u64;
    let tid = get("tid").and_then(Json::as_num).unwrap_or(0.0) as u64;
    let args = fields
        .iter()
        .filter(|(k, _)| !STRUCTURAL.contains(&k.as_str()))
        .map(|(k, v)| (k.as_str(), v))
        .collect();
    Some(SpanEvent {
        name,
        start_ns,
        dur_ns,
        tid,
        args,
    })
}

fn write_event(out: &mut String, ev: &SpanEvent<'_>, first: bool) {
    use std::fmt::Write as _;
    if !first {
        out.push_str(",\n");
    }
    out.push_str("{\"name\":");
    json::write_escaped(out, ev.name);
    // Chrome trace timestamps are microseconds; fractional µs keep the
    // original nanosecond resolution.
    let _ = write!(
        out,
        ",\"cat\":\"span\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{}",
        ev.start_ns as f64 / 1e3,
        ev.dur_ns as f64 / 1e3,
        ev.tid
    );
    if !ev.args.is_empty() {
        out.push_str(",\"args\":{");
        for (i, (k, v)) in ev.args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_escaped(out, k);
            out.push(':');
            out.push_str(&v.render());
        }
        out.push('}');
    }
    out.push('}');
}

/// Convert JSONL journal text into Chrome trace-event JSON.
///
/// Every `span` line that carries `start_ns`/`dur_ns` becomes one complete
/// (`ph:"X"`) event on the process timeline; other record types are skipped.
/// Returns an error if any line fails to parse as JSON, or if the journal
/// holds no exportable spans — an empty trace is always a usage error
/// (journal written without the recorder enabled, or from a build predating
/// span timestamps), never something to silently render as a blank page.
pub fn chrome_trace_from_journal(text: &str) -> Result<String, String> {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut n = 0usize;
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("line {}: invalid JSON: {e}", idx + 1))?;
        let Json::Obj(fields) = &v else {
            return Err(format!("line {}: not a JSON object", idx + 1));
        };
        if v.get("type").and_then(Json::as_str) != Some("span") {
            continue;
        }
        if let Some(ev) = span_event(fields) {
            write_event(&mut out, &ev, n == 0);
            n += 1;
        }
    }
    if n == 0 {
        return Err("journal holds no spans with start_ns timestamps; \
                    was it written with the recorder enabled?"
            .to_string());
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    Ok(out)
}

/// Export the live recorder state (see [`crate::journal_to_string`]) as
/// Chrome trace-event JSON. Errors if no spans have been recorded.
pub fn chrome_trace_current() -> Result<String, String> {
    chrome_trace_from_journal(&crate::journal_to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_next_is_the_reference_stream() {
        // The first draws of SplitMix64 seeded with 0, as in the reference
        // implementation; every seeded schedule in the repo draws this way.
        let mut s = 0;
        let draws = [0; 3].map(|_| splitmix64_next(&mut s));
        assert_eq!(
            draws,
            [0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f]
        );
        assert_eq!(s, SPLITMIX_GAMMA.wrapping_mul(3));
        assert_eq!(splitmix64(SPLITMIX_GAMMA), draws[1]);
    }

    #[test]
    fn request_ids_are_unique_and_deterministic_in_form() {
        let a = next_request_id();
        let b = next_request_id();
        assert_ne!(a, b);
        for id in [&a, &b] {
            assert!(id.starts_with("sr-"), "bad prefix: {id}");
            assert_eq!(id.len(), 3 + 16, "bad length: {id}");
            assert!(id[3..].chars().all(|c| c.is_ascii_hexdigit()));
        }
    }

    #[test]
    fn sampling_is_periodic_and_counter_driven() {
        crate::set_enabled(true);
        set_sample_every(3);
        let hits: Vec<bool> = (0..9).map(|_| sample_request()).collect();
        assert_eq!(hits.iter().filter(|&&h| h).count(), 3, "hits: {hits:?}");
        // Every third position relative to the first hit.
        let first = hits.iter().position(|&h| h).unwrap();
        for (i, &h) in hits.iter().enumerate() {
            assert_eq!(h, (i + 3 - first) % 3 == 0, "position {i} in {hits:?}");
        }
        set_sample_every(0);
        assert!(!sample_request());
        crate::set_enabled(false);
        set_sample_every(DEFAULT_SAMPLE_EVERY);
    }

    #[test]
    fn chrome_trace_exports_spans_and_rejects_empty() {
        let journal = concat!(
            "{\"type\":\"span\",\"name\":\"train_epoch\",\"path\":\"train/train_epoch\",",
            "\"epoch\":3,\"start_ns\":1500,\"tid\":2,\"dur_ns\":2500}\n",
            "{\"type\":\"event\",\"name\":\"not_a_span\"}\n",
        );
        let trace = chrome_trace_from_journal(journal).unwrap();
        let v = json::parse(&trace).unwrap();
        let events = match v.get("traceEvents") {
            Some(Json::Arr(evs)) => evs,
            other => panic!("bad traceEvents: {other:?}"),
        };
        assert_eq!(events.len(), 1);
        let ev = &events[0];
        assert_eq!(ev.get("name").unwrap().as_str(), Some("train_epoch"));
        assert_eq!(ev.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(ev.get("ts").unwrap().as_num(), Some(1.5));
        assert_eq!(ev.get("dur").unwrap().as_num(), Some(2.5));
        assert_eq!(ev.get("tid").unwrap().as_num(), Some(2.0));
        assert_eq!(
            ev.get("args").unwrap().get("epoch").unwrap().as_num(),
            Some(3.0)
        );

        assert!(chrome_trace_from_journal("{\"type\":\"event\",\"name\":\"x\"}\n").is_err());
        assert!(chrome_trace_from_journal("not json\n").is_err());
    }
}
