//! `siterec-chaos`: the one chaos driver for the train → checkpoint →
//! export → serve lifecycle. Every scenario is a seeded schedule of typed
//! [`Action`]s against a real target, and every verdict is a raw-bit
//! comparison against an undisturbed run:
//!
//! * `train` — SIGKILL and torn-write a trainer child; the final
//!   checkpoint must be byte-identical to an uninterrupted run, at every
//!   thread count and with the tape arena on or off ([`train`]).
//! * `serve` — SIGKILL a `siterec-serve run` child mid-sweep; the restarted
//!   server must answer the offline bits ([`serve`]).
//! * `soak` — arm seeded failpoint schedules over the in-process lifecycle;
//!   every fault must heal with identical bits ([`soak`]).
//! * `supervise` — kill, stop and roll replicas of a supervised fleet under
//!   continuous traffic; no request may go unanswered or change bits
//!   (Unix only, [`supervise`]).
//!
//! The driver prints the whole schedule before a run and each action as it
//! fires (`chaos[<tag>]: schedule …` / `chaos[<tag>]: fire …`), panics on any
//! violated assertion, and prints `chaos[<scenario>]: all assertions passed`
//! on success.
//!
//! Usage: `siterec-chaos <train|serve|soak|supervise> [flags]`; each
//! scenario's module docs list its flags and defaults.

mod kit;
mod serve;
mod soak;
#[cfg(unix)]
mod supervise;
mod train;

use siterec_obs as obs;
use std::fmt;
use std::path::PathBuf;

/// One typed chaos action; every schedule is a list of these, drawn before
/// the run from one [`Rng`].
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// SIGKILL: the trainer child once it reports this epoch (`train`), the
    /// server child after this many sweep answers (`serve`), or this
    /// supervised replica (`supervise`).
    Kill(usize),
    /// Abort the trainer child halfway through writing this epoch's
    /// checkpoint, leaving a torn file at the final path.
    Tear(usize),
    /// Arm one failpoint spec `name=mode@hit` for an in-process lifecycle.
    Failpoint(String),
    /// SIGSTOP this supervised replica until the supervisor declares it hung.
    Stop(usize),
    /// `POST /admin/roll`: a rolling restart of the whole fleet.
    Roll,
    /// `POST /admin/reload` until the store is healthy and fully trained.
    Reload,
    /// SIGTERM the supervisor, which must drain and stop every replica
    /// before it exits.
    Term,
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Kill(at) => write!(f, "kill@{at}"),
            Action::Tear(at) => write!(f, "tear@{at}"),
            Action::Failpoint(spec) => write!(f, "failpoint {spec}"),
            Action::Stop(at) => write!(f, "stop@{at}"),
            Action::Roll => f.write_str("roll"),
            Action::Reload => f.write_str("reload"),
            Action::Term => f.write_str("term"),
        }
    }
}

/// The SplitMix64 generator every schedule is drawn from.
pub struct Rng(pub u64);

impl Rng {
    /// The next draw, reduced to `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        obs::splitmix64_next(&mut self.0) % n
    }
}

/// Print a whole schedule before its run.
pub fn announce(tag: &str, schedule: &[Action]) {
    let list: Vec<String> = schedule.iter().map(Action::to_string).collect();
    println!("chaos[{tag}]: schedule: {}", list.join(", "));
}

/// Print one action as it fires.
pub fn fire(tag: &str, action: &Action) {
    println!("chaos[{tag}]: fire {action}");
}

/// Every flag of every scenario; each scenario starts from its own
/// defaults and names the flags it accepts.
#[derive(Clone)]
pub struct Args {
    pub seed: u64,
    pub epochs: usize,
    pub dir: PathBuf,
    pub seeds: usize,
    pub seed0: u64,
    pub threads: Vec<usize>,
    pub recipe_seed: u64,
    pub replicas: usize,
    pub events: usize,
    pub keep: bool,
    pub kills: usize,
    pub tear: bool,
    pub arena: bool,
}

/// Apply the flags in `it` over `a`, refusing any flag not in the
/// space-separated `flags` list.
fn parse(s: &str, flags: &str, mut a: Args, mut it: impl Iterator<Item = String>) -> Args {
    while let Some(flag) = it.next() {
        let name = flag.strip_prefix("--").unwrap_or_default();
        let known = flags.split(' ').any(|f| f == name);
        assert!(known, "{s}: unknown flag {flag} (takes {flags})");
        if name == "keep" || name == "no-tear" {
            a.keep |= name == "keep";
            a.tear &= name != "no-tear";
            continue;
        }
        let v = it.next().unwrap_or_else(|| panic!("{flag} needs a value"));
        let num = || v.parse::<u64>().expect(&flag);
        match name {
            "seed" => a.seed = num(),
            "epochs" => a.epochs = num() as usize,
            "dir" => a.dir = PathBuf::from(&v),
            "seeds" => a.seeds = num() as usize,
            "seed0" => a.seed0 = num(),
            "recipe-seed" => a.recipe_seed = num(),
            "replicas" => a.replicas = num() as usize,
            "events" => a.events = num() as usize,
            "kills" => a.kills = num() as usize,
            "threads" => {
                a.threads = v
                    .split(',')
                    .map(|t| t.trim().parse().expect(&flag))
                    .collect()
            }
            "arena" if v == "on" || v == "off" => a.arena = v == "on",
            _ => panic!("{flag} takes on|off, got {v:?}"),
        }
    }
    a
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let scenario = argv.next().unwrap_or_default();
    let s = scenario.as_str();
    let flags = match s {
        "train" => "seed epochs dir threads kills no-tear arena",
        // The trainer child `train` spawns; not a scenario of its own.
        "train-child" => "seed epochs dir threads arena",
        "serve" => "seed epochs dir",
        "soak" => "seeds seed0 epochs threads recipe-seed dir",
        #[cfg(unix)]
        "supervise" => "replicas events seed epochs recipe-seed threads dir keep",
        _ => panic!("usage: siterec-chaos <train|serve|soak|supervise> [flags] (got {s:?})"),
    };
    let epochs = match s {
        "train" => 8,
        "serve" => 5,
        "supervise" => 2,
        _ => 3,
    };
    let dir = format!("siterec_chaos_{s}_{}", std::process::id());
    let defaults = Args {
        seed: if s == "supervise" { 5 } else { 7 },
        epochs,
        dir: std::env::temp_dir().join(dir),
        seeds: 3,
        seed0: 101,
        threads: vec![1, 8],
        recipe_seed: 7,
        replicas: 2,
        events: 6,
        keep: false,
        kills: 2,
        tear: true,
        arena: true,
    };
    let a = parse(s, flags, defaults, argv);
    match s {
        "train" => train::run(&a),
        "train-child" => return train::child(&a),
        "serve" => serve::run(&a),
        "soak" => soak::run(&a),
        #[cfg(unix)]
        _ => supervise::run(&a),
        #[cfg(not(unix))]
        _ => unreachable!(),
    }
    println!("chaos[{s}]: all assertions passed");
}
