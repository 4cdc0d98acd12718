//! Chrome-trace export over real training runs: every epoch's span (and
//! its forward/backward/step children) must survive the journal → trace
//! pipeline, and tracing must not move the training bits. O²-SiteRec and a
//! GNN baseline (GC-MC) train on the same loop, so both runs must pass.
//!
//! One `#[test]` fn: the obs recorder is process-global.

use siterec_baselines::{Baseline, GcMc, Setting};
use siterec_core::{O2SiteRec, SiteRecConfig, MODEL_NAME};
use siterec_graphs::SiteRecTask;
use siterec_obs as obs;
use siterec_obs::json::Json;
use siterec_sim::{O2oDataset, SimConfig};

const EPOCHS: usize = 4;

fn task(enabled: bool) -> (O2oDataset, SiteRecTask) {
    obs::reset();
    obs::set_enabled(enabled);
    let data = O2oDataset::generate(SimConfig::tiny(11));
    let task = SiteRecTask::build(&data, 0.8, 11);
    (data, task)
}

/// O²-SiteRec's per-epoch loss bits.
fn train_o2(enabled: bool) -> Vec<u32> {
    let (data, task) = task(enabled);
    let cfg = SiteRecConfig {
        epochs: EPOCHS,
        seed: 11,
        ..Default::default()
    };
    let mut model = O2SiteRec::new(&data, &task, cfg);
    model.train();
    model.history().iter().map(|e| e.loss.to_bits()).collect()
}

/// GC-MC's test-split prediction bits.
fn train_gcmc(enabled: bool) -> Vec<u32> {
    let (_data, task) = task(enabled);
    let mut model = GcMc::new(Setting::Adaption, 11);
    model.set_epochs(EPOCHS);
    model.fit(&task);
    let pairs: Vec<(usize, usize)> = task.split.test.iter().map(|i| (i.region, i.ty)).collect();
    let preds = model.predict(&task, &pairs);
    preds.iter().map(|p| p.to_bits()).collect()
}

/// The sorted `epoch` fields of the journal's spans at `path`.
fn span_epochs(records: &[Json], path: &str) -> Vec<f64> {
    let mut epochs: Vec<f64> = records
        .iter()
        .filter(|r| r.get("type").and_then(Json::as_str) == Some("span"))
        .filter(|r| r.get("path").and_then(Json::as_str) == Some(path))
        .map(|r| r.get("epoch").and_then(Json::as_num).expect("epoch field"))
        .collect();
    epochs.sort_by(f64::total_cmp);
    epochs
}

fn check_trace(model: &str, train: fn(bool) -> Vec<u32>) {
    // Baseline without the recorder, then the instrumented run: identical
    // bits (tracing observes, never feeds back).
    let baseline = train(false);
    let traced = train(true);
    assert_eq!(
        baseline, traced,
        "{model}: epoch spans changed training bits"
    );

    let journal = obs::journal_to_string();
    obs::validate_journal(&journal).expect("journal validates");
    let records: Vec<Json> = journal
        .lines()
        .map(|l| obs::json::parse(l).expect("journal line is JSON"))
        .collect();

    // One train_epoch span per epoch under `train`, each with one
    // forward/backward/step child.
    let all: Vec<f64> = (0..EPOCHS).map(|e| e as f64).collect();
    for path in [
        "train/train_epoch",
        "train/train_epoch/epoch.forward",
        "train/train_epoch/epoch.backward",
        "train/train_epoch/epoch.step",
    ] {
        assert_eq!(span_epochs(&records, path), all, "{model}: {path}");
    }

    // Each train_epoch record carries the tape arena's high-water mark,
    // which only grows: the pool keeps what the first epoch leased.
    let peaks: Vec<f64> = records
        .iter()
        .filter(|r| r.get("type").and_then(Json::as_str) == Some("train_epoch"))
        .filter(|r| r.get("model").and_then(Json::as_str) == Some(model))
        .filter_map(|r| r.get("arena_peak_mb")?.as_num())
        .collect();
    assert_eq!(
        peaks.len(),
        EPOCHS,
        "{model}: arena_peak_mb missing: {peaks:?}"
    );
    assert!(peaks[0] > 0.0, "{model}: {peaks:?}");
    assert!(peaks.windows(2).all(|w| w[0] <= w[1]), "{model}: {peaks:?}");

    let chrome = obs::trace::chrome_trace_from_journal(&journal).expect("trace exports");
    let parsed = obs::json::parse(&chrome).expect("chrome trace is valid JSON");
    let events = match parsed.get("traceEvents") {
        Some(Json::Arr(events)) => events,
        other => panic!("traceEvents missing or not an array: {other:?}"),
    };
    assert!(!events.is_empty(), "empty trace");

    // One complete ("ph":"X") event per training epoch, each with a start
    // and duration, plus the forward/backward/step children.
    for name in [
        "train_epoch",
        "epoch.forward",
        "epoch.backward",
        "epoch.step",
    ] {
        let matching: Vec<_> = events
            .iter()
            .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some(name))
            .collect();
        assert_eq!(
            matching.len(),
            EPOCHS,
            "{model}: expected one {name:?} event per epoch"
        );
        for e in matching {
            assert_eq!(e.get("ph").and_then(|p| p.as_str()), Some("X"));
            assert!(
                e.get("ts").and_then(|t| t.as_num()).is_some(),
                "no ts: {e:?}"
            );
            assert!(
                e.get("dur").and_then(|d| d.as_num()).unwrap_or(-1.0) >= 0.0,
                "bad dur: {e:?}"
            );
        }
    }

    // Epoch numbers ride along in args, so the timeline is self-describing.
    let epochs_seen: Vec<f64> = events
        .iter()
        .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("train_epoch"))
        .filter_map(|e| e.get("args")?.get("epoch")?.as_num())
        .collect();
    let mut sorted = epochs_seen.clone();
    sorted.sort_by(f64::total_cmp);
    assert_eq!(sorted, all, "{model}: epoch args wrong: {epochs_seen:?}");

    // The train span names the model and the matmul tier that ran.
    let train_args: Vec<_> = events
        .iter()
        .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("train"))
        .filter_map(|e| e.get("args"))
        .collect();
    let field = |k: &str| -> Vec<_> { train_args.iter().map(|a| a.get(k)?.as_str()).collect() };
    assert_eq!(field("model"), [Some(model)], "train span model");
    assert_eq!(
        field("simd"),
        [Some(siterec_tensor::simd::tier().name())],
        "{model}: train span simd"
    );

    obs::reset();
    obs::set_enabled(false);
}

#[test]
fn chrome_trace_covers_every_epoch() {
    check_trace(MODEL_NAME, train_o2);
    check_trace("GC-MC", train_gcmc);
}
