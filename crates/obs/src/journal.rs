//! The JSONL run-journal: serialization of buffered records plus the
//! end-of-run metric summary, and schema validation for written journals.
//!
//! # Journal schema
//!
//! Every line is one JSON object with a `"type"` field. Known types and
//! their required fields (extra fields are always allowed):
//!
//! | type          | required fields                                              |
//! |---------------|--------------------------------------------------------------|
//! | `run_start`   | `name` (str)                                                 |
//! | `run_end`     | `name` (str), `dur_ns` (num)                                 |
//! | `span`        | `name` (str), `path` (str), `dur_ns` (num)                   |
//! | `event`       | `name` (str)                                                 |
//! | `counter`     | `name` (str), `value` (num)                                  |
//! | `gauge`       | `name` (str), `value` (num or str for non-finite)            |
//! | `histogram`   | `name` (str), `count`, `sum`, `min`, `max`, `buckets` (arr)  |
//! | `op_profile`  | `op` (str), `calls`, `forward_ns`, `backward_ns`, `elements` |
//! | `train_epoch` | `model` (str), `epoch` (num), `loss` (num or str); optional `arena_peak_mb` (num) |
//! | `recovery`    | `model` (str), `seed`, `epoch`, `attempt` (num), `fault` (str), `lr_before`, `lr_after` (num or str) |
//! | `train_error` | `model` (str), `epoch` (num), `fault` (str)                  |
//! | `job_failure` | `index` (num), `attempts` (num), `message` (str)             |
//! | `checkpoint_write` | `model` (str), `path` (str), `epoch` (num), `bytes` (num) |
//! | `checkpoint_corrupt` | `path` (str), `reason` (str)                          |
//! | `resume`      | `model` (str), `epoch` (num), `path` (str)                   |
//! | `bench_artifact` | `name` (str), `path` (str)                                |
//! | `serve_request` | `endpoint` (str), `status` (num), `n` (num), `dur_ns` (num) |
//! | `serve_reload` | `source` (str), `epoch` (num), `dur_ns` (num)              |
//! | `failpoint`   | `name` (str), `mode` (str), `hit` (num)                      |
//! | `serve_degraded` | `reason` (str)                                            |
//! | `serve_trace` | `request_id` (str), `endpoint` (str), `status`, `parse_ns`, `queue_ns`, `batch_ns`, `score_ns`, `serialize_ns`, `total_ns` (num) |
//! | `serve_drain` | `completed` (num), `refused` (num), `abandoned` (num), `dur_ns` (num) |
//! | `supervisor_event` | `event` (str), `replica` (num), `detail` (str)           |
//!
//! Unknown types fail validation: the schema is closed so that a typo in an
//! emitting call site is caught by CI rather than silently ignored. An
//! optional field may be absent, but when present it must have its kind.

use crate::json::{self, Json};
use crate::recorder::{self, Record, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Serialize the current recorder state as JSONL: all buffered records in
/// order, followed by one `counter`/`gauge`/`histogram`/`op_profile` line
/// per aggregate.
pub fn journal_to_string() -> String {
    let g = recorder::inner();
    let mut out = String::new();
    for rec in &g.records {
        out.push_str(&rec.to_json());
        out.push('\n');
    }
    for (name, v) in &g.counters {
        let rec = Record {
            kind: "counter",
            fields: vec![
                ("name", Value::Str(name.to_string())),
                ("value", Value::UInt(*v)),
            ],
        };
        out.push_str(&rec.to_json());
        out.push('\n');
    }
    for (name, v) in &g.gauges {
        let rec = Record {
            kind: "gauge",
            fields: vec![
                ("name", Value::Str(name.to_string())),
                ("value", Value::Float(*v)),
            ],
        };
        out.push_str(&rec.to_json());
        out.push('\n');
    }
    for (name, h) in &g.hists {
        // `buckets` is a flat array of [bucket_index, count] pairs; it is
        // hand-rendered here because Record fields are scalar-only.
        let mut line = String::new();
        line.push_str("{\"type\":\"histogram\",\"name\":");
        json::write_escaped(&mut line, name);
        let _ = write!(line, ",\"count\":{}", h.count());
        line.push_str(",\"sum\":");
        json::write_f64(&mut line, h.sum());
        line.push_str(",\"min\":");
        json::write_f64(&mut line, if h.count() == 0 { 0.0 } else { h.min() });
        line.push_str(",\"max\":");
        json::write_f64(&mut line, if h.count() == 0 { 0.0 } else { h.max() });
        line.push_str(",\"buckets\":[");
        for (i, (bucket, count)) in h.nonzero_buckets().iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            let _ = write!(line, "[{bucket},{count}]");
        }
        line.push_str("]}");
        out.push_str(&line);
        out.push('\n');
    }
    for (kind, op) in &g.ops {
        let rec = Record {
            kind: "op_profile",
            fields: vec![
                ("op", Value::Str(kind.to_string())),
                ("calls", Value::UInt(op.calls)),
                ("forward_ns", Value::UInt(op.forward_ns)),
                ("backward_ns", Value::UInt(op.backward_ns)),
                ("elements", Value::UInt(op.elements)),
            ],
        };
        out.push_str(&rec.to_json());
        out.push('\n');
    }
    out
}

/// Write the journal (see [`journal_to_string`]) to `path` atomically (via
/// [`crate::atomic_write_fp`], so a crash mid-write never leaves a torn
/// journal) behind the `journal.append` failpoint seam with bounded retry,
/// returning the number of lines written.
pub fn write_journal(path: &Path) -> io::Result<usize> {
    let mut lines = 0;
    crate::retry_io("write_journal", crate::RetryCfg::from_env(), || {
        // Re-serialized on every attempt: a `journal.append` failpoint
        // firing lands a `failpoint` record in the recorder, and the
        // retried write must include it or the journal under-reports the
        // very fault it just survived.
        let text = journal_to_string();
        lines = text.lines().count();
        crate::fsio::atomic_write_fp(path, text.as_bytes(), "journal.append")
    })?;
    Ok(lines)
}

/// Per-type line counts from a validated journal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Number of valid lines per record type.
    pub by_type: BTreeMap<String, usize>,
    /// Total number of lines.
    pub lines: usize,
}

impl JournalStats {
    /// The number of records of the given type.
    pub fn count(&self, kind: &str) -> usize {
        self.by_type.get(kind).copied().unwrap_or(0)
    }
}

#[derive(Clone, Copy)]
enum Kind {
    Str,
    Num,
    /// Number, or string for values JSON cannot represent (NaN/inf).
    NumOrStr,
    Arr,
}

impl Kind {
    fn matches(self, v: &Json) -> bool {
        match self {
            Kind::Str => matches!(v, Json::Str(_)),
            Kind::Num => matches!(v, Json::Num(_)),
            Kind::NumOrStr => matches!(v, Json::Num(_) | Json::Str(_)),
            Kind::Arr => matches!(v, Json::Arr(_)),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Kind::Str => "string",
            Kind::Num => "number",
            Kind::NumOrStr => "number-or-string",
            Kind::Arr => "array",
        }
    }
}

/// Typed fields a record may carry beyond its required ones.
const OPTIONAL: &[(&str, &[(&str, Kind)])] = &[("train_epoch", &[("arena_peak_mb", Kind::Num)])];

const SCHEMA: &[(&str, &[(&str, Kind)])] = &[
    ("run_start", &[("name", Kind::Str)]),
    ("run_end", &[("name", Kind::Str), ("dur_ns", Kind::Num)]),
    (
        "span",
        &[
            ("name", Kind::Str),
            ("path", Kind::Str),
            ("dur_ns", Kind::Num),
        ],
    ),
    ("event", &[("name", Kind::Str)]),
    ("counter", &[("name", Kind::Str), ("value", Kind::Num)]),
    ("gauge", &[("name", Kind::Str), ("value", Kind::NumOrStr)]),
    (
        "histogram",
        &[
            ("name", Kind::Str),
            ("count", Kind::Num),
            ("sum", Kind::NumOrStr),
            ("min", Kind::NumOrStr),
            ("max", Kind::NumOrStr),
            ("buckets", Kind::Arr),
        ],
    ),
    (
        "op_profile",
        &[
            ("op", Kind::Str),
            ("calls", Kind::Num),
            ("forward_ns", Kind::Num),
            ("backward_ns", Kind::Num),
            ("elements", Kind::Num),
        ],
    ),
    (
        "train_epoch",
        &[
            ("model", Kind::Str),
            ("epoch", Kind::Num),
            ("loss", Kind::NumOrStr),
        ],
    ),
    (
        "recovery",
        &[
            ("model", Kind::Str),
            ("seed", Kind::Num),
            ("epoch", Kind::Num),
            ("attempt", Kind::Num),
            ("fault", Kind::Str),
            ("lr_before", Kind::NumOrStr),
            ("lr_after", Kind::NumOrStr),
        ],
    ),
    (
        "train_error",
        &[
            ("model", Kind::Str),
            ("epoch", Kind::Num),
            ("fault", Kind::Str),
        ],
    ),
    (
        "job_failure",
        &[
            ("index", Kind::Num),
            ("attempts", Kind::Num),
            ("message", Kind::Str),
        ],
    ),
    (
        "checkpoint_write",
        &[
            ("model", Kind::Str),
            ("path", Kind::Str),
            ("epoch", Kind::Num),
            ("bytes", Kind::Num),
        ],
    ),
    (
        "checkpoint_corrupt",
        &[("path", Kind::Str), ("reason", Kind::Str)],
    ),
    (
        "resume",
        &[
            ("model", Kind::Str),
            ("epoch", Kind::Num),
            ("path", Kind::Str),
        ],
    ),
    (
        "bench_artifact",
        &[("name", Kind::Str), ("path", Kind::Str)],
    ),
    (
        "serve_request",
        &[
            ("endpoint", Kind::Str),
            ("status", Kind::Num),
            ("n", Kind::Num),
            ("dur_ns", Kind::Num),
        ],
    ),
    (
        "serve_reload",
        &[
            ("source", Kind::Str),
            ("epoch", Kind::Num),
            ("dur_ns", Kind::Num),
        ],
    ),
    (
        "failpoint",
        &[("name", Kind::Str), ("mode", Kind::Str), ("hit", Kind::Num)],
    ),
    ("serve_degraded", &[("reason", Kind::Str)]),
    (
        "serve_trace",
        &[
            ("request_id", Kind::Str),
            ("endpoint", Kind::Str),
            ("status", Kind::Num),
            ("parse_ns", Kind::Num),
            ("queue_ns", Kind::Num),
            ("batch_ns", Kind::Num),
            ("score_ns", Kind::Num),
            ("serialize_ns", Kind::Num),
            ("total_ns", Kind::Num),
        ],
    ),
    (
        "serve_drain",
        &[
            ("completed", Kind::Num),
            ("refused", Kind::Num),
            ("abandoned", Kind::Num),
            ("dur_ns", Kind::Num),
        ],
    ),
    (
        "supervisor_event",
        &[
            ("event", Kind::Str),
            ("replica", Kind::Num),
            ("detail", Kind::Str),
        ],
    ),
];

/// Validate JSONL journal text against the schema in the module docs.
///
/// Every line must parse as a JSON object with a known `"type"` and all of
/// that type's required fields present with the right kinds. Returns
/// per-type counts on success; the first offending line (1-based) on error.
pub fn validate_journal(text: &str) -> Result<JournalStats, String> {
    let mut stats = JournalStats::default();
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.trim().is_empty() {
            return Err(format!("line {lineno}: empty line"));
        }
        let value = json::parse(line).map_err(|e| format!("line {lineno}: invalid JSON: {e}"))?;
        if !matches!(value, Json::Obj(_)) {
            return Err(format!("line {lineno}: not a JSON object"));
        }
        let kind = value
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {lineno}: missing string \"type\" field"))?;
        let Some((_, required)) = SCHEMA.iter().find(|(t, _)| *t == kind) else {
            return Err(format!("line {lineno}: unknown record type {kind:?}"));
        };
        for (field, want) in *required {
            match value.get(field) {
                None => {
                    return Err(format!(
                        "line {lineno}: {kind} record missing required field {field:?}"
                    ));
                }
                Some(v) if !want.matches(v) => {
                    return Err(format!(
                        "line {lineno}: {kind} field {field:?} must be a {}",
                        want.name()
                    ));
                }
                Some(_) => {}
            }
        }
        let optional = OPTIONAL.iter().filter(|(t, _)| *t == kind);
        for (field, want) in optional.flat_map(|(_, fields)| fields.iter()) {
            if value.get(field).is_some_and(|v| !want.matches(v)) {
                return Err(format!(
                    "line {lineno}: {kind} field {field:?} must be a {}",
                    want.name()
                ));
            }
        }
        *stats.by_type.entry(kind.to_string()).or_insert(0) += 1;
        stats.lines += 1;
    }
    Ok(stats)
}
