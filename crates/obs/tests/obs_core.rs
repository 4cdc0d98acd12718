//! Core recorder behavior: histogram bucketing, span nesting and buffering,
//! metric aggregation, and JSONL schema round-trip through the validator.
//!
//! The recorder is process-global, so every test takes `lock()` and resets
//! state first.

use siterec_obs as obs;
use std::sync::{Mutex, MutexGuard};

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    let guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    obs::reset();
    obs::set_enabled(true);
    obs::failpoint::disarm();
    guard
}

fn unlock(guard: MutexGuard<'static, ()>) {
    obs::reset();
    obs::set_enabled(false);
    obs::failpoint::disarm();
    drop(guard);
}

#[test]
fn histogram_bucketing_is_exact_power_of_two() {
    let g = lock();
    // Bucket 30 covers [1, 2): exact boundaries via exponent bits.
    assert_eq!(obs::Histogram::bucket_index(1.0), 30);
    assert_eq!(obs::Histogram::bucket_index(1.999), 30);
    assert_eq!(obs::Histogram::bucket_index(2.0), 31);
    assert_eq!(obs::Histogram::bucket_index(0.5), 29);
    // Underflow and non-positive values.
    assert_eq!(obs::Histogram::bucket_index(0.0), 0);
    assert_eq!(obs::Histogram::bucket_index(-3.0), 0);
    assert_eq!(obs::Histogram::bucket_index(f64::NAN), 0);
    assert_eq!(obs::Histogram::bucket_index(1e-300), 0);
    // Overflow clamps to the last bucket.
    assert_eq!(obs::Histogram::bucket_index(1e300), obs::HIST_BUCKETS - 1);
    assert_eq!(
        obs::Histogram::bucket_index(f64::INFINITY),
        obs::HIST_BUCKETS - 1
    );
    // Every bucket's bounds contain the values it receives.
    for i in 1..obs::HIST_BUCKETS - 1 {
        let (lo, hi) = obs::Histogram::bucket_bounds(i);
        assert_eq!(
            obs::Histogram::bucket_index(lo),
            i,
            "lo bound of bucket {i}"
        );
        let inside = lo * 1.5;
        assert_eq!(
            obs::Histogram::bucket_index(inside),
            i,
            "midpoint of bucket {i}"
        );
        assert!(hi > lo);
    }
    unlock(g);
}

#[test]
fn histogram_accumulates_summary_stats() {
    let g = lock();
    let mut h = obs::Histogram::default();
    for v in [0.5, 1.0, 1.5, 8.0] {
        h.record(v);
    }
    assert_eq!(h.count(), 4);
    assert!((h.sum() - 11.0).abs() < 1e-12);
    assert_eq!(h.min(), 0.5);
    assert_eq!(h.max(), 8.0);
    assert!((h.mean() - 2.75).abs() < 1e-12);
    // 0.5 -> bucket 29; 1.0, 1.5 -> bucket 30; 8.0 -> bucket 33.
    assert_eq!(h.nonzero_buckets(), vec![(29, 1), (30, 2), (33, 1)]);
    unlock(g);
}

#[test]
fn span_nesting_builds_paths_and_buffers_until_outermost_close() {
    let g = lock();
    {
        let _outer = obs::span!("outer", model = "demo");
        {
            let _inner = obs::span!("inner", step = 3u64);
            obs::event!("checkpoint", step = 3u64);
        }
        // Inner span closed but outer still open: nothing merged globally yet.
        assert_eq!(obs::snapshot().records, 0);
    }
    let snap = obs::snapshot();
    assert_eq!(
        snap.records, 3,
        "outer close flushes inner span, event, outer span"
    );

    let journal = obs::journal_to_string();
    let stats = obs::validate_journal(&journal).expect("journal validates");
    assert_eq!(stats.count("span"), 2);
    assert_eq!(stats.count("event"), 1);

    // Span paths reflect the nesting regardless of record order.
    let paths: Vec<String> = journal
        .lines()
        .filter_map(|l| siterec_obs::json::parse(l).ok())
        .filter_map(|v| v.get("path").and_then(|p| p.as_str().map(String::from)))
        .collect();
    assert!(paths.contains(&"outer".to_string()));
    assert!(paths.contains(&"outer/inner".to_string()));

    // Span aggregates keyed by name, with [model] suffix when present.
    let keys: Vec<&str> = snap.spans.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, vec!["inner", "outer[demo]"]);
    unlock(g);
}

#[test]
fn disabled_recorder_records_nothing() {
    let g = lock();
    obs::set_enabled(false);
    {
        let _span = obs::span!("ghost", epoch = 1u64);
        obs::event!("ghost_event");
        obs::counter_add("ghost.counter", 5);
        obs::hist_record("ghost.hist", 1.0);
        obs::gauge_set("ghost.gauge", 2.0);
    }
    obs::set_enabled(true);
    let snap = obs::snapshot();
    assert_eq!(snap.records, 0);
    assert!(snap.counters.is_empty());
    assert!(snap.hists.is_empty());
    assert!(snap.gauges.is_empty());
    unlock(g);
}

#[test]
fn metrics_aggregate_and_serialize() {
    let g = lock();
    obs::counter_add("eval.jobs", 2);
    obs::counter_add("eval.jobs", 3);
    obs::gauge_set("train.lr", 5e-3);
    obs::hist_record("train.grad_norm", 0.75);
    obs::hist_record("train.grad_norm", f64::NAN);
    obs::op_profile_add(
        "matmul",
        obs::OpProfile {
            calls: 10,
            forward_ns: 1_000,
            backward_ns: 2_000,
            elements: 640,
        },
    );
    obs::op_profile_add(
        "matmul",
        obs::OpProfile {
            calls: 5,
            forward_ns: 500,
            backward_ns: 700,
            elements: 320,
        },
    );

    let snap = obs::snapshot();
    assert_eq!(snap.counters, vec![("eval.jobs".to_string(), 5)]);
    let (_, op) = &snap.ops[0];
    assert_eq!(
        (op.calls, op.forward_ns, op.backward_ns, op.elements),
        (15, 1500, 2700, 960)
    );
    assert_eq!(snap.top_ops(1)[0].0, "matmul");

    // NaN observations survive JSON serialization (as strings) and the
    // journal still validates.
    let journal = obs::journal_to_string();
    let stats = obs::validate_journal(&journal).expect("journal validates");
    assert_eq!(stats.count("counter"), 1);
    assert_eq!(stats.count("gauge"), 1);
    assert_eq!(stats.count("histogram"), 1);
    assert_eq!(stats.count("op_profile"), 1);
    unlock(g);
}

#[test]
fn typed_records_roundtrip_through_validator() {
    let g = lock();
    obs::record!("run_start", name = "unit_test");
    obs::record!(
        "train_epoch",
        model = "O2-SiteRec",
        epoch = 4u64,
        loss = 0.25,
        recoveries = 0u64
    );
    obs::record!(
        "recovery",
        model = "O2-SiteRec",
        seed = 17u64,
        epoch = 9u64,
        attempt = 1u64,
        fault = "non-finite loss",
        rollback_to = 8u64,
        lr_before = 0.01,
        lr_after = 0.005
    );
    obs::record!(
        "job_failure",
        index = 3u64,
        attempts = 2u64,
        message = "panic: boom"
    );
    obs::record!(
        "train_error",
        model = "GCMC",
        epoch = 2u64,
        fault = "exploded"
    );
    obs::record!(
        "failpoint",
        name = "ckpt.write.fsync",
        mode = "short",
        hit = 2u64
    );
    obs::record!("serve_degraded", reason = "reload failed: boom");
    obs::record!(
        "serve_drain",
        completed = 12u64,
        refused = 3u64,
        abandoned = 0u64,
        dur_ns = 4567u64
    );
    obs::record!(
        "supervisor_event",
        event = "restart",
        replica = 1u64,
        detail = "attempt 2 backoff 400ms"
    );
    obs::record!("run_end", name = "unit_test", dur_ns = 12345u64);

    let journal = obs::journal_to_string();
    let stats = obs::validate_journal(&journal).expect("journal validates");
    assert_eq!(stats.lines, 10);
    for kind in [
        "run_start",
        "train_epoch",
        "recovery",
        "job_failure",
        "train_error",
        "failpoint",
        "serve_degraded",
        "serve_drain",
        "supervisor_event",
        "run_end",
    ] {
        assert_eq!(stats.count(kind), 1, "{kind}");
    }
    unlock(g);
}

#[test]
fn validator_rejects_schema_violations() {
    let g = lock();
    // Unknown type.
    let err = obs::validate_journal("{\"type\":\"mystery\"}").unwrap_err();
    assert!(err.contains("unknown record type"), "{err}");
    // Missing required field.
    let err = obs::validate_journal("{\"type\":\"job_failure\",\"index\":1}").unwrap_err();
    assert!(err.contains("missing required field"), "{err}");
    // Wrong field kind.
    let err = obs::validate_journal("{\"type\":\"event\",\"name\":42}").unwrap_err();
    assert!(err.contains("must be a string"), "{err}");
    // Invalid JSON, with a 1-based line number.
    let err = obs::validate_journal("{\"type\":\"event\",\"name\":\"ok\"}\nnot json").unwrap_err();
    assert!(err.starts_with("line 2:"), "{err}");
    // Missing type tag.
    let err = obs::validate_journal("{\"name\":\"ok\"}").unwrap_err();
    assert!(err.contains("missing string \"type\""), "{err}");
    // Failpoint record with a non-numeric hit count.
    let err = obs::validate_journal(
        "{\"type\":\"failpoint\",\"name\":\"x\",\"mode\":\"err\",\"hit\":\"two\"}",
    )
    .unwrap_err();
    assert!(err.contains("must be a number"), "{err}");
    // Degraded record without its reason.
    let err = obs::validate_journal("{\"type\":\"serve_degraded\"}").unwrap_err();
    assert!(err.contains("missing required field"), "{err}");
    // Drain record missing its abandoned count.
    let err = obs::validate_journal(
        "{\"type\":\"serve_drain\",\"completed\":1,\"refused\":0,\"dur_ns\":9}",
    )
    .unwrap_err();
    assert!(err.contains("missing required field"), "{err}");
    // An optional field, when present, must have its kind.
    let err = obs::validate_journal(
        "{\"type\":\"train_epoch\",\"model\":\"m\",\"epoch\":0,\"loss\":1,\"arena_peak_mb\":\"big\"}",
    )
    .unwrap_err();
    assert!(err.contains("\"arena_peak_mb\" must be a number"), "{err}");
    // Supervisor event with a non-numeric replica index.
    let err = obs::validate_journal(
        "{\"type\":\"supervisor_event\",\"event\":\"spawn\",\"replica\":\"one\",\"detail\":\"\"}",
    )
    .unwrap_err();
    assert!(err.contains("must be a number"), "{err}");
    unlock(g);
}

#[test]
fn validator_checks_serve_trace_fields() {
    let g = lock();
    // A complete record (extra fields allowed) validates.
    let good = "{\"type\":\"serve_trace\",\"request_id\":\"sr-00ab\",\"endpoint\":\"/v1/score\",\
                \"status\":200,\"parse_ns\":10,\"queue_ns\":20,\"batch_ns\":5,\"score_ns\":30,\
                \"serialize_ns\":5,\"total_ns\":90,\"extra\":\"ok\"}";
    let stats = obs::validate_journal(good).expect("complete serve_trace validates");
    assert_eq!(stats.count("serve_trace"), 1);
    // Every phase field is required — dropping any one is a schema error.
    for missing in [
        "request_id",
        "endpoint",
        "status",
        "parse_ns",
        "queue_ns",
        "batch_ns",
        "score_ns",
        "serialize_ns",
        "total_ns",
    ] {
        let v = obs::json::parse(good).unwrap();
        let obs::json::Json::Obj(fields) = v else {
            unreachable!()
        };
        let pruned =
            obs::json::Json::Obj(fields.into_iter().filter(|(k, _)| k != missing).collect());
        let err = obs::validate_journal(&pruned.render()).unwrap_err();
        assert!(
            err.contains("missing required field"),
            "dropping {missing} must fail: {err}"
        );
    }
    // Wrong kinds: a numeric request_id and a string phase are rejected.
    let err = obs::validate_journal(&good.replace("\"sr-00ab\"", "7")).unwrap_err();
    assert!(err.contains("must be a string"), "{err}");
    let err =
        obs::validate_journal(&good.replace("\"score_ns\":30", "\"score_ns\":\"30\"")).unwrap_err();
    assert!(err.contains("must be a number"), "{err}");
    unlock(g);
}

#[test]
fn failpoint_firing_is_deterministic_and_disarm_clears() {
    let g = lock();
    // `@2x2` fires on hits 2 and 3 exactly — every process replays the same
    // firing pattern from the same schedule.
    obs::failpoint::arm("det.test=err@2x2").unwrap();
    let fired: Vec<bool> = (0..5)
        .map(|_| obs::failpoint::check("det.test").is_some())
        .collect();
    assert_eq!(fired, [false, true, true, false, false]);
    assert_eq!(obs::failpoint::hits("det.test"), 5);
    // Unlisted names never fire, even while armed.
    assert!(obs::failpoint::check("det.other").is_none());
    // Each firing journaled one schema-valid `failpoint` record.
    let stats = obs::validate_journal(&obs::journal_to_string()).unwrap();
    assert_eq!(stats.count("failpoint"), 2);
    // Disarm restores the unarmed fast path: nothing fires, nothing counts.
    obs::failpoint::disarm();
    assert!(!obs::failpoint::armed());
    assert!(obs::failpoint::check("det.test").is_none());
    assert_eq!(obs::failpoint::hits("det.test"), 0);
    unlock(g);
}

#[test]
fn fault_seams_damage_writes_and_reads_as_specified() {
    let g = lock();
    let dir = std::env::temp_dir().join(format!("siterec_obs_seams_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let payload = b"0123456789abcdef".to_vec();

    // Write seam, `err`: the fault preempts the write entirely.
    obs::failpoint::arm("seam.w=err").unwrap();
    let p = dir.join("err.bin");
    assert!(obs::atomic_write_fp(&p, &payload, "seam.w").is_err());
    assert!(!p.exists(), "err fault must leave no file behind");

    // Write seam, `short`: a torn prefix lands at the destination AND the
    // caller sees an error — the retry/CRC layers above must cope.
    obs::failpoint::arm("seam.w=short").unwrap();
    let p = dir.join("short.bin");
    assert!(obs::atomic_write_fp(&p, &payload, "seam.w").is_err());
    assert_eq!(std::fs::read(&p).unwrap(), payload[..payload.len() / 2]);

    // Write seam, `corrupt`: the write "succeeds" with exactly one bit
    // flipped — only a downstream checksum can notice.
    obs::failpoint::arm("seam.w=corrupt").unwrap();
    let p = dir.join("corrupt.bin");
    obs::atomic_write_fp(&p, &payload, "seam.w").unwrap();
    let on_disk = std::fs::read(&p).unwrap();
    let diff: u32 = on_disk
        .iter()
        .zip(&payload)
        .map(|(a, b)| (a ^ b).count_ones())
        .sum();
    assert_eq!(diff, 1, "corrupt flips exactly one bit");

    // Read seam: short truncates to half, corrupt flips one bit, err errors.
    obs::failpoint::arm("seam.r=short").unwrap();
    let mut buf = payload.clone();
    obs::read_fault("seam.r", &mut buf).unwrap();
    assert_eq!(buf, payload[..payload.len() / 2]);
    obs::failpoint::arm("seam.r=corrupt").unwrap();
    let mut buf = payload.clone();
    obs::read_fault("seam.r", &mut buf).unwrap();
    assert_ne!(buf, payload);
    obs::failpoint::arm("seam.r=err").unwrap();
    let mut buf = payload.clone();
    assert!(obs::read_fault("seam.r", &mut buf).is_err());

    obs::failpoint::disarm();
    let _ = std::fs::remove_dir_all(&dir);
    unlock(g);
}

#[test]
fn journal_write_creates_validatable_file() {
    let g = lock();
    obs::record!("run_start", name = "file_test");
    obs::counter_add("file.counter", 1);
    let path = std::env::temp_dir().join("siterec_obs_core_journal_test.jsonl");
    let lines = obs::write_journal(&path).expect("journal written");
    assert_eq!(lines, 2);
    let text = std::fs::read_to_string(&path).unwrap();
    let stats = obs::validate_journal(&text).expect("written journal validates");
    assert_eq!(stats.lines, 2);
    let _ = std::fs::remove_file(&path);
    unlock(g);
}

#[test]
fn cross_thread_records_merge_at_span_close() {
    let g = lock();
    std::thread::scope(|s| {
        for i in 0..4u64 {
            s.spawn(move || {
                let _span = obs::span!("worker", index = i);
                obs::record!(
                    "job_failure",
                    index = i,
                    attempts = 1u64,
                    message = "synthetic"
                );
            });
        }
    });
    let journal = obs::journal_to_string();
    let stats = obs::validate_journal(&journal).expect("journal validates");
    assert_eq!(stats.count("span"), 4);
    assert_eq!(stats.count("job_failure"), 4);
    unlock(g);
}
