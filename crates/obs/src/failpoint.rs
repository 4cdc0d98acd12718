//! Deterministic fault injection at named I/O seams.
//!
//! A **failpoint** is a named hook compiled into an I/O path — checkpoint
//! writes, journal appends, embedding-image save/load, the serve reload —
//! that can be *armed* to fail on a chosen hit with a chosen fault mode.
//! Unarmed (the default), a failpoint costs one relaxed atomic load and
//! takes no lock; nothing about the fast path allocates or branches further.
//!
//! # Schedule grammar
//!
//! Failpoints are armed from the `SITEREC_FAILPOINTS` environment variable
//! at first use, or programmatically via [`arm`]. A schedule is a
//! comma-separated list of specs:
//!
//! ```text
//! name=mode          fire on every hit
//! name=mode@N        fire exactly on the N-th hit (1-based)
//! name=mode@NxC      fire on hits N, N+1, …, N+C-1
//! ```
//!
//! e.g. `SITEREC_FAILPOINTS=ckpt.write.fsync=err@2,emb.image.load=short@1`.
//! Modes are [`Mode::Err`] (clean I/O error, nothing written), [`Mode::Short`]
//! (torn/truncated data), and [`Mode::Corrupt`] (silent bit flip — the write
//! "succeeds"). What each mode does at a given seam is defined by the seam:
//! see [`crate::atomic_write_fp`] and [`crate::read_fault`].
//!
//! # Determinism
//!
//! Hits are counted per name under one lock, so a fixed schedule against a
//! fixed workload fires at exactly the same operations every run — fault
//! injection is as replayable as everything else in the workspace. Every
//! firing journals a `failpoint` record (`name`, `mode`, `hit`) and ticks
//! the `failpoint.fired` counter; [`stats`] exposes hit/fired counts for
//! harness assertions (see the `siterec-chaos soak` scenario in
//! `siterec-serve`).

use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Environment variable holding the failpoint schedule.
pub const ENV: &str = "SITEREC_FAILPOINTS";

/// What kind of fault a firing failpoint injects. The precise effect is
/// seam-defined; the conventions are documented per variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// A clean `io::Error`: the operation reports failure and (at write
    /// seams) leaves the destination untouched. Models EIO/ENOSPC.
    Err,
    /// Torn data: a write seam lands a truncated prefix at the destination
    /// and then errors; a read seam truncates the bytes it read. Models a
    /// partial write or short read.
    Short,
    /// Silent corruption: one bit is flipped and the operation *succeeds*.
    /// Models bit rot and firmware lies; only CRC checks can catch it.
    Corrupt,
}

impl Mode {
    /// The schedule-grammar name of the mode (`err` / `short` / `corrupt`).
    pub fn label(self) -> &'static str {
        match self {
            Mode::Err => "err",
            Mode::Short => "short",
            Mode::Corrupt => "corrupt",
        }
    }

    fn parse(s: &str) -> Result<Mode, String> {
        match s {
            "err" => Ok(Mode::Err),
            "short" => Ok(Mode::Short),
            "corrupt" => Ok(Mode::Corrupt),
            other => Err(format!(
                "unknown failpoint mode {other:?} (want err|short|corrupt)"
            )),
        }
    }
}

/// A firing failpoint, as returned by [`check`]: the armed mode plus which
/// hit (1-based) this was.
#[derive(Debug, Clone, Copy)]
pub struct Fault {
    /// The fault mode the seam must inject.
    pub mode: Mode,
    /// The 1-based hit count at which this firing happened.
    pub hit: u64,
}

impl Fault {
    /// A descriptive `io::Error` for seams that report this fault as a
    /// clean error (modes [`Mode::Err`] and [`Mode::Short`]).
    pub fn io_error(&self, name: &str) -> io::Error {
        io::Error::other(format!(
            "injected failpoint {name} ({} on hit {})",
            self.mode.label(),
            self.hit
        ))
    }
}

/// Hit/fired counts for one armed failpoint, from [`stats`].
#[derive(Debug, Clone)]
pub struct FpStat {
    /// The failpoint name.
    pub name: String,
    /// The armed fault mode.
    pub mode: Mode,
    /// How many times [`check`] was reached for this name while armed.
    pub hits: u64,
    /// How many of those hits fired the fault.
    pub fired: u64,
}

#[derive(Debug, Clone)]
struct Spec {
    mode: Mode,
    /// First hit (1-based) that fires.
    from: u64,
    /// Number of consecutive firing hits; `u64::MAX` = every hit from `from`.
    count: u64,
    hits: u64,
    fired: u64,
}

struct State {
    armed: AtomicBool,
    map: Mutex<BTreeMap<String, Spec>>,
}

fn lock(state: &State) -> MutexGuard<'_, BTreeMap<String, Spec>> {
    // Failpoint bookkeeping must survive a panicking test thread.
    state.map.lock().unwrap_or_else(|e| e.into_inner())
}

fn state() -> &'static State {
    static STATE: OnceLock<State> = OnceLock::new();
    STATE.get_or_init(|| {
        let st = State {
            armed: AtomicBool::new(false),
            map: Mutex::new(BTreeMap::new()),
        };
        if let Ok(schedule) = std::env::var(ENV) {
            if !schedule.trim().is_empty() {
                match parse_schedule(&schedule) {
                    Ok(map) => {
                        st.armed.store(!map.is_empty(), Ordering::Release);
                        *st.map.lock().unwrap_or_else(|e| e.into_inner()) = map;
                    }
                    Err(e) => eprintln!("siterec-obs: ignoring invalid {ENV}: {e}"),
                }
            }
        }
        st
    })
}

fn parse_schedule(schedule: &str) -> Result<BTreeMap<String, Spec>, String> {
    let mut map = BTreeMap::new();
    for entry in schedule.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (name, rhs) = entry
            .split_once('=')
            .ok_or_else(|| format!("entry {entry:?} is not name=mode[@N[xC]]"))?;
        let name = name.trim();
        if name.is_empty() {
            return Err(format!("entry {entry:?} has an empty failpoint name"));
        }
        let (mode_str, from, count) =
            match rhs.split_once('@') {
                None => (rhs.trim(), 1, u64::MAX),
                Some((m, at)) => {
                    let (from_str, count_str) = match at.split_once('x') {
                        None => (at, None),
                        Some((f, c)) => (f, Some(c)),
                    };
                    let from: u64 = from_str.trim().parse().map_err(|_| {
                        format!("entry {entry:?}: hit index {from_str:?} not a number")
                    })?;
                    if from == 0 {
                        return Err(format!("entry {entry:?}: hit indices are 1-based"));
                    }
                    let count: u64 = match count_str {
                        None => 1,
                        Some(c) => c.trim().parse().map_err(|_| {
                            format!("entry {entry:?}: repeat count {c:?} not a number")
                        })?,
                    };
                    (m.trim(), from, count.max(1))
                }
            };
        let mode = Mode::parse(mode_str).map_err(|e| format!("entry {entry:?}: {e}"))?;
        map.insert(
            name.to_string(),
            Spec {
                mode,
                from,
                count,
                hits: 0,
                fired: 0,
            },
        );
    }
    Ok(map)
}

/// Arm the registry with a schedule (see the module docs for the grammar),
/// replacing any previous schedule and zeroing all hit counters. Intended
/// for tests and chaos harnesses; production arms via [`ENV`].
pub fn arm(schedule: &str) -> Result<(), String> {
    let map = parse_schedule(schedule)?;
    let st = state();
    let armed = !map.is_empty();
    *lock(st) = map;
    st.armed.store(armed, Ordering::Release);
    Ok(())
}

/// Disarm every failpoint and clear all hit counters. After this, [`check`]
/// is back to its one-atomic-load fast path.
pub fn disarm() {
    let st = state();
    st.armed.store(false, Ordering::Release);
    lock(st).clear();
}

/// Whether any failpoint is armed (one relaxed atomic load).
pub fn armed() -> bool {
    state().armed.load(Ordering::Relaxed)
}

/// The hook every instrumented seam calls: counts a hit against `name` and
/// returns the [`Fault`] to inject if the armed schedule says this hit
/// fires. Unarmed, this is a single relaxed atomic load returning `None`.
/// A firing journals a `failpoint` record and ticks `failpoint.fired`.
pub fn check(name: &str) -> Option<Fault> {
    let st = state();
    if !st.armed.load(Ordering::Relaxed) {
        return None;
    }
    let fault = {
        let mut map = lock(st);
        let spec = map.get_mut(name)?;
        spec.hits += 1;
        let hit = spec.hits;
        if hit < spec.from || hit - spec.from >= spec.count {
            return None;
        }
        spec.fired += 1;
        Fault {
            mode: spec.mode,
            hit,
        }
    };
    crate::counter_add("failpoint.fired", 1);
    crate::record!(
        "failpoint",
        name = name,
        mode = fault.mode.label(),
        hit = fault.hit
    );
    crate::olog!(
        Summary,
        "failpoint {name} fired: {} on hit {}",
        fault.mode.label(),
        fault.hit
    );
    Some(fault)
}

/// How many hits `name` has absorbed since it was armed (0 if not armed).
pub fn hits(name: &str) -> u64 {
    lock(state()).get(name).map_or(0, |s| s.hits)
}

/// Hit/fired counts for every armed failpoint, name-ordered.
pub fn stats() -> Vec<FpStat> {
    lock(state())
        .iter()
        .map(|(name, s)| FpStat {
            name: name.clone(),
            mode: s.mode,
            hits: s.hits,
            fired: s.fired,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Registry state is process-global; integration-level behavior (firing,
    // journaling, seam wiring) is exercised single-threaded in
    // `tests/obs_core.rs` under its test lock. Here only the pure parser.

    #[test]
    fn parses_full_grammar() {
        let map = parse_schedule("a=err, b=short@3 ,c=corrupt@2x4,,").unwrap();
        assert_eq!(map.len(), 3);
        assert_eq!(map["a"].mode, Mode::Err);
        assert_eq!((map["a"].from, map["a"].count), (1, u64::MAX));
        assert_eq!(map["b"].mode, Mode::Short);
        assert_eq!((map["b"].from, map["b"].count), (3, 1));
        assert_eq!(map["c"].mode, Mode::Corrupt);
        assert_eq!((map["c"].from, map["c"].count), (2, 4));
    }

    #[test]
    fn rejects_malformed_schedules() {
        for bad in [
            "nomode",
            "a=explode",
            "a=err@zero",
            "a=err@0",
            "a=err@1xq",
            "=err@1",
        ] {
            assert!(parse_schedule(bad).is_err(), "accepted {bad:?}");
        }
    }
}
