//! `soak`: sweep seeded failpoint schedules over the **full lifecycle** —
//! train → checkpoint → export → image roundtrip → serve → reload — and
//! prove the stack heals every injected fault with **raw-bit-identical**
//! final scores versus a fault-free run.
//!
//! Each schedule is four `Failpoint` actions on distinct seams drawn from
//! [`MENU`] (plus `serve.reload=err@1` when the draw missed that seam) and a
//! final `Reload`; the fault-free reference runs `[Reload]` alone. For each
//! schedule and thread count one lifecycle runs fully in-process:
//!
//! 1. **Train until complete** (`kit::trained_reference`): faults can eat
//!    the newest generation(s); bounded retraining heals them.
//! 2. **Image roundtrip**: write the `SREMB1` image (retry heals transient
//!    faults), read it back (CRC catches silent corruption), rewrite until
//!    the roundtrip is byte-identical, bounded.
//! 3. **Serve**: an in-process server answers the sweep; the client retries
//!    503/504 answers (a dropped scorer batch surfaces as a fast 504). Every
//!    score must match the offline reference bits.
//! 4. **Reload**: `/admin/reload` until the store is healthy and fully
//!    trained; a failed reload must flip `/healthz` to `degraded` (the old
//!    store keeps serving) and the next success must recover it. Scores are
//!    re-checked after the reload.
//! 5. **Journal**: written through its own faulted seam with retry, then
//!    schema-validated; its `failpoint` record count must equal the number of
//!    firings the registry reports.
//!
//! Flags (defaults): `--seeds 3 --seed0 101 --epochs 3 --threads 1,8
//! --recipe-seed 7 --dir <tmp>`.

use crate::kit::{self, TIMEOUT};
use crate::{announce, fire, Action, Args, Rng};
use siterec_obs as obs;
use siterec_serve::{client, EmbeddingStore, Reloader};
use std::collections::BTreeSet;

/// Healable (seam, mode) combinations the schedule generator draws from.
/// `journal.append=corrupt` is deliberately absent: a silently corrupted
/// journal is unverifiable by construction (nothing downstream checksums
/// it), and the soak asserts journal validity.
const MENU: &[(&str, &str)] = &[
    ("ckpt.write.fsync", "err"),
    ("ckpt.write.fsync", "short"),
    ("ckpt.write.fsync", "corrupt"),
    ("ckpt.read.section", "err"),
    ("ckpt.read.section", "short"),
    ("ckpt.read.section", "corrupt"),
    ("journal.append", "err"),
    ("journal.append", "short"),
    ("emb.image.save", "err"),
    ("emb.image.save", "short"),
    ("emb.image.save", "corrupt"),
    ("emb.image.load", "err"),
    ("emb.image.load", "short"),
    ("emb.image.load", "corrupt"),
    ("serve.reload", "err"),
    ("serve.score", "err"),
];

/// A seeded schedule: 4 distinct seams; the first fires on hit 1 (so every
/// schedule injects at least one fault), the rest on hit 1 or 2; then the
/// reload dance.
fn schedule_for(seed: u64) -> Vec<Action> {
    let mut rng = Rng(seed);
    let mut names = BTreeSet::new();
    let mut schedule = Vec::new();
    while schedule.len() < 4 {
        let (name, mode) = MENU[rng.below(MENU.len() as u64) as usize];
        if !names.insert(name) {
            continue;
        }
        let hit = if schedule.is_empty() {
            1
        } else {
            1 + rng.below(2)
        };
        schedule.push(Action::Failpoint(format!("{name}={mode}@{hit}")));
    }
    if names.insert("serve.reload") {
        schedule.push(Action::Failpoint("serve.reload=err@1".to_string()));
    }
    schedule.push(Action::Reload);
    schedule
}

struct Outcome {
    bits: Vec<u32>,
    degraded_seen: bool,
    fired: u64,
}

/// One full lifecycle under `schedule` at `threads` tensor and scorer
/// threads, returning the served score bits.
fn lifecycle(a: &Args, tag: &str, threads: usize, schedule: &[Action]) -> Outcome {
    let (recipe, epochs) = (kit::tiny(a.recipe_seed), a.epochs);
    obs::reset();
    obs::set_enabled(true);
    let mut specs = Vec::new();
    for action in schedule {
        if let Action::Failpoint(spec) = action {
            fire(tag, action);
            specs.push(spec.as_str());
        }
    }
    // An empty schedule arms nothing: the fault-free run.
    obs::failpoint::arm(&specs.join(",")).expect("valid schedule");

    // 1. Train until a probe restore sees the fully trained checkpoint.
    let ckpt = a.dir.join(format!("ckpt-{tag}"));
    let _ = std::fs::remove_dir_all(&ckpt);
    let (model, sweep, offline) = kit::trained_reference(&recipe, epochs, threads, &ckpt, 24);
    let store = EmbeddingStore::new(model.export_serving());

    // 2. Image roundtrip: heal write faults by rewriting, read faults by
    //    rereading; CRC sections turn silent corruption into clean errors.
    let image = a.dir.join(format!("emb-{tag}.sremb"));
    let reference_bytes = store.encode();
    let image_ok = (0..4).any(|_| {
        let written = store.write_image(&image).is_ok();
        let Some(loaded) = written
            .then(|| EmbeddingStore::read_image(&image).ok())
            .flatten()
        else {
            return false;
        };
        let same = loaded.encode() == reference_bytes;
        assert!(same, "{tag}: image roundtrip must be byte-identical");
        true
    });
    assert!(
        image_ok,
        "{tag}: image roundtrip did not heal within budget"
    );

    // 3. Serve the sweep; every answered score must match the offline bits.
    let reloader: Reloader = {
        let ckpt = ckpt.clone();
        Box::new(move || {
            let mut m = kit::tiny_model(&recipe, epochs, threads, true);
            match m.restore_latest(&ckpt) {
                Ok(Some(_)) => Ok(EmbeddingStore::new(m.export_serving())),
                Ok(None) => Err("no valid checkpoint generation".to_string()),
                Err(e) => Err(e.to_string()),
            }
        })
    };
    let handle = kit::in_process_server(store, threads, Some(reloader));
    let addr = handle.addr().to_string();
    let score = |i: usize, what: &str| {
        let body = client::score_body(&sweep[i..=i]);
        let answer = kit::http_retry(&addr, "POST", "/v1/score", &body);
        let q = sweep[i];
        kit::assert_bits(answer, offline[i], format!("{tag}: {what} {i} ({q:?})"))
    };
    let bits: Vec<u32> = (0..sweep.len()).map(|i| score(i, "served score")).collect();

    // 4. Reload dance: a failed reload must degrade (old store still
    //    serving), and reloading until healthy + fully trained must recover.
    //    A stale-generation fallback reload reports fewer epochs on
    //    /healthz; the operator playbook is "reload again".
    let mut degraded_seen = false;
    for action in schedule.iter().filter(|a| **a == Action::Reload) {
        fire(tag, action);
        let recovered = (0..6).any(|attempt| {
            let reload = kit::http(&addr, "POST", "/admin/reload", "", TIMEOUT);
            let (st, body) = reload.expect("reload request");
            let healthz = kit::http(&addr, "GET", "/healthz", "", TIMEOUT);
            let (hst, health) = healthz.expect("healthz request");
            assert_eq!(hst, 200, "{tag}: healthz must always answer");
            if st == 200 {
                let v = obs::json::parse(health.trim()).ok();
                let now = v.and_then(|v| v.get("trained_epochs")?.as_num());
                return health.contains("\"status\":\"ok\"") && now == Some(epochs as f64);
            }
            assert_eq!(
                st, 500,
                "{tag}: reload attempt {attempt} returned {st}: {body}"
            );
            let degraded = health.contains("\"status\":\"degraded\"");
            assert!(
                degraded,
                "{tag}: failed reload did not degrade /healthz: {health}"
            );
            // Degraded never means down: the old store still answers.
            score(0, "degraded score");
            degraded_seen = true;
            false
        });
        assert!(
            recovered,
            "{tag}: reload never converged to a healthy store"
        );
        // The reloaded store (cache cleared) must reproduce the same bits.
        for i in 0..sweep.len().min(8) {
            score(i, "post-reload score");
        }
    }
    handle.shutdown();
    handle.join();

    // 5. Journal through its own faulted seam, then validate. The firing
    //    snapshot is taken *after* the write: a `journal.append` fault
    //    firing mid-write is itself journaled by the retry re-serialization
    //    and must be part of the count.
    let journal = a.dir.join(format!("journal-{tag}.jsonl"));
    obs::write_journal(&journal).expect("journal write must heal within the retry budget");
    let fp_stats = obs::failpoint::stats();
    let fired: u64 = fp_stats.iter().map(|s| s.fired).sum();
    let reload_fired = fp_stats
        .iter()
        .any(|s| s.name == "serve.reload" && s.fired > 0);
    let seen = !reload_fired || degraded_seen;
    assert!(
        seen,
        "{tag}: serve.reload fired but no degraded state was observed"
    );
    let (_, stats) = kit::validated_journal(&journal);
    let requests = stats.count("serve_request");
    assert!(
        requests >= sweep.len(),
        "{tag}: journal under-reports serve_request records"
    );
    let records = stats.count("failpoint") as u64;
    assert_eq!(
        records, fired,
        "{tag}: journal failpoint records disagree with registry firings"
    );
    let journaled = !degraded_seen || stats.count("serve_degraded") >= 1;
    assert!(
        journaled,
        "{tag}: degraded state observed but never journaled"
    );
    obs::failpoint::disarm();
    Outcome {
        bits,
        degraded_seen,
        fired,
    }
}

pub fn run(a: &Args) {
    assert!(!a.threads.is_empty(), "--threads must name at least one");
    let _ = std::fs::remove_dir_all(&a.dir);
    std::fs::create_dir_all(&a.dir).expect("scratch dir");
    let (recipe, epochs, seeds, threads) = (a.recipe_seed, a.epochs, a.seeds, &a.threads);
    println!("chaos[soak]: recipe tiny:{recipe}, {epochs} epochs, {seeds} schedules, threads {threads:?}");
    announce("soak-ref", &[Action::Reload]);
    let reference = lifecycle(a, "soak-ref", threads[0], &[Action::Reload]);
    assert_eq!(reference.fired, 0, "fault-free run fired failpoints");
    let n = reference.bits.len();
    println!("chaos[soak]: fault-free reference captured ({n} scores)");

    let (mut total_fired, mut degraded_runs) = (0u64, 0usize);
    for k in 0..seeds {
        let schedule = schedule_for(a.seed0 + k as u64);
        for &t in threads {
            let tag = format!("soak-s{k}t{t}");
            announce(&tag, &schedule);
            let out = lifecycle(a, &tag, t, &schedule);
            assert_eq!(
                out.bits, reference.bits,
                "[{tag}] served bits diverged from the fault-free reference"
            );
            assert!(
                out.fired > 0,
                "[{tag}] schedule injected no faults: the soak proved nothing"
            );
            total_fired += out.fired;
            degraded_runs += usize::from(out.degraded_seen);
            let dance = if out.degraded_seen {
                ", degraded+recovered"
            } else {
                ""
            };
            let fired = out.fired;
            println!("chaos[{tag}]: ok, {fired} faults fired, bits identical{dance}");
        }
    }
    let configs = threads.len();
    println!("chaos[soak]: {seeds} schedules x {configs} thread configs, {total_fired} faults fired, {degraded_runs} degraded episodes, all bits identical to fault-free");
    let _ = std::fs::remove_dir_all(&a.dir);
}
