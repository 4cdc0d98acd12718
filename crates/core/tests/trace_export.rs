//! Chrome-trace export over a real training run: every epoch's span (and
//! its forward/backward/step children) must survive the journal → trace
//! pipeline, and tracing must not move the training bits.
//!
//! One `#[test]` fn: the obs recorder is process-global.

use siterec_core::{O2SiteRec, SiteRecConfig};
use siterec_graphs::SiteRecTask;
use siterec_obs as obs;
use siterec_sim::{O2oDataset, SimConfig};

const EPOCHS: usize = 4;

fn train_once(enabled: bool) -> Vec<u32> {
    obs::reset();
    obs::set_enabled(enabled);
    let data = O2oDataset::generate(SimConfig::tiny(11));
    let task = SiteRecTask::build(&data, 0.8, 11);
    let cfg = SiteRecConfig {
        epochs: EPOCHS,
        seed: 11,
        ..Default::default()
    };
    let mut model = O2SiteRec::new(&data, &task, cfg);
    model.train();
    model.history().iter().map(|e| e.loss.to_bits()).collect()
}

#[test]
fn chrome_trace_covers_every_epoch() {
    // Baseline without the recorder, then the instrumented run: identical
    // per-epoch loss bits (tracing observes, never feeds back).
    let baseline = train_once(false);
    let traced = train_once(true);
    assert_eq!(baseline, traced, "epoch spans changed training bits");

    let journal = obs::journal_to_string();
    obs::validate_journal(&journal).expect("journal validates");

    // Each train_epoch record carries the tape arena's high-water mark,
    // which only grows: the pool keeps what the first epoch leased.
    let peaks: Vec<f64> = journal
        .lines()
        .filter_map(|l| obs::json::parse(l).ok())
        .filter(|r| r.get("type").and_then(|t| t.as_str()) == Some("train_epoch"))
        .filter_map(|r| r.get("arena_peak_mb")?.as_num())
        .collect();
    assert_eq!(peaks.len(), EPOCHS, "arena_peak_mb missing: {peaks:?}");
    assert!(peaks[0] > 0.0, "{peaks:?}");
    assert!(peaks.windows(2).all(|w| w[0] <= w[1]), "{peaks:?}");

    let chrome = obs::trace::chrome_trace_from_journal(&journal).expect("trace exports");
    let parsed = obs::json::parse(&chrome).expect("chrome trace is valid JSON");
    let events = match parsed.get("traceEvents") {
        Some(obs::json::Json::Arr(events)) => events,
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
            "expected one {name:?} event per epoch"
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
    assert_eq!(
        sorted,
        (0..EPOCHS).map(|e| e as f64).collect::<Vec<_>>(),
        "epoch args wrong: {epochs_seen:?}"
    );

    // The train span names the matmul tier that ran.
    let simd: Vec<_> = events
        .iter()
        .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("train"))
        .filter_map(|e| e.get("args")?.get("simd")?.as_str())
        .collect();
    assert_eq!(
        simd,
        [siterec_tensor::simd::tier().name()],
        "train span simd"
    );

    obs::reset();
    obs::set_enabled(false);
}
