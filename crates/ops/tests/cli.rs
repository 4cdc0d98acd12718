//! End-to-end CLI coverage: drive the compiled `siterec-ops` binary over a
//! generated journal and the repo's checked-in `BENCH_*.json` artifacts.

use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_siterec-ops"))
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Writes the sample journal to a file of its own per test: tests run in
/// parallel, and one test's cleanup must not delete another's input.
fn scratch_journal(test: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "siterec_ops_cli_{test}_{}.jsonl",
        std::process::id()
    ));
    let journal = concat!(
        "{\"type\":\"run_start\",\"name\":\"cli\"}\n",
        "{\"type\":\"span\",\"name\":\"train\",\"path\":\"train\",\"start_ns\":0,\"tid\":0,\"dur_ns\":5000}\n",
        "{\"type\":\"span\",\"name\":\"train_epoch\",\"path\":\"train/train_epoch\",\"start_ns\":100,\"tid\":0,\"dur_ns\":3000}\n",
        "{\"type\":\"serve_trace\",\"request_id\":\"sr-cli\",\"endpoint\":\"/v1/score\",\"status\":200,\"parse_ns\":1,\"queue_ns\":2,\"batch_ns\":3,\"score_ns\":4,\"serialize_ns\":5,\"total_ns\":15}\n",
        "{\"type\":\"counter\",\"name\":\"serve.requests\",\"value\":1}\n",
    );
    std::fs::write(&path, journal).unwrap();
    path
}

fn run_ok(args: &[&str]) -> String {
    let out = bin().args(args).output().expect("binary runs");
    assert!(
        out.status.success(),
        "siterec-ops {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn summary_query_flame_and_trace_over_a_journal() {
    let journal = scratch_journal("summary");
    let jpath = journal.to_str().unwrap();

    let summary = run_ok(&["summary", jpath]);
    assert!(summary.contains("serve_trace"), "summary: {summary}");
    assert!(summary.contains("train"), "summary: {summary}");

    let q = run_ok(&[
        "query",
        jpath,
        "--type",
        "serve_trace",
        "--where",
        "status=200",
    ]);
    assert_eq!(q.lines().count(), 1, "query: {q}");
    assert!(q.contains("sr-cli"));
    let none = run_ok(&[
        "query",
        jpath,
        "--type",
        "serve_trace",
        "--where",
        "status=504",
    ]);
    assert!(none.trim().is_empty());

    let flame = run_ok(&["flame", jpath]);
    assert!(flame.contains("train;train_epoch 3000"), "flame: {flame}");

    let trace_out = journal.with_extension("trace.json");
    let out = bin()
        .args(["trace", jpath, "--out", trace_out.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let chrome = std::fs::read_to_string(&trace_out).unwrap();
    let parsed = siterec_obs::json::parse(&chrome).expect("chrome trace parses");
    assert!(
        matches!(parsed.get("traceEvents"), Some(siterec_obs::json::Json::Arr(a)) if a.len() == 2),
        "bad trace: {chrome}"
    );

    // A journal the validator rejects must fail cleanly, not print garbage.
    let bad = journal.with_extension("bad.jsonl");
    std::fs::write(&bad, "{\"type\":\"mystery\"}\n").unwrap();
    let out = bin()
        .args(["summary", bad.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("invalid journal"));

    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&trace_out);
    let _ = std::fs::remove_file(&bad);
}

#[test]
fn diff_reports_journal_deltas() {
    let a = scratch_journal("diff");
    let b = a.with_extension("b.jsonl");
    let mut text = std::fs::read_to_string(&a).unwrap();
    text.push_str("{\"type\":\"counter\",\"name\":\"serve.shed\",\"value\":9}\n");
    std::fs::write(&b, text).unwrap();
    let d = run_ok(&["diff", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert!(d.contains("serve.shed"), "diff: {d}");
    let _ = std::fs::remove_file(&a);
    let _ = std::fs::remove_file(&b);
}

#[test]
fn trend_reads_checked_in_bench_artifacts() {
    // The repo's own artifacts are the compatibility contract: trend must
    // parse every one of them and extract at least one metric.
    let root = repo_root();
    let mut paths = Vec::new();
    for entry in std::fs::read_dir(&root).unwrap() {
        let p = entry.unwrap().path();
        let name = p.file_name().unwrap().to_string_lossy().to_string();
        if name.starts_with("BENCH_") && name.ends_with(".json") {
            paths.push(p.to_str().unwrap().to_string());
        }
    }
    assert!(!paths.is_empty(), "no BENCH_*.json artifacts in repo root");
    paths.sort();
    let args: Vec<&str> = std::iter::once("trend")
        .chain(paths.iter().map(String::as_str))
        .collect();
    let report = run_ok(&args);
    assert!(report.contains("speedup"), "trend: {report}");
    assert!(report.contains("tracked metric"), "trend: {report}");
}
