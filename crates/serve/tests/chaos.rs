//! Runs each `siterec-chaos` scenario at test scale (see the driver's
//! module docs, `src/bin/chaos/`, for what each one proves). The driver
//! panics on any violated assertion, so each test checks the exit status,
//! the final verdict, and the marker lines that show the scenario's
//! comparisons actually ran; `ci.sh` runs the longer schedules in release.

use std::process::Command;

/// Run one scenario with the space-separated `args` into a fresh scratch
/// dir, and require success plus every `|`-separated marker on stdout.
fn chaos(scenario: &str, args: &str, markers: &str) {
    let dir = format!("siterec_chaos_{scenario}_test_{}", std::process::id());
    let dir = std::env::temp_dir().join(dir);
    let _ = std::fs::remove_dir_all(&dir);
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_siterec-chaos"));
    cmd.arg(scenario)
        .args(args.split(' '))
        .arg("--dir")
        .arg(&dir);
    // The driver manages its children's env itself; scrub ours so a
    // CI-level SITEREC_JOURNAL doesn't leak into the driver process.
    cmd.env_remove("SITEREC_JOURNAL")
        .env_remove("SITEREC_CHAOS_TEAR_AT");
    let out = cmd.output().expect("run siterec-chaos");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let report = format!("--- stdout ---\n{stdout}\n--- stderr ---\n{stderr}");
    assert!(
        out.status.success(),
        "siterec-chaos {scenario} failed\n{report}"
    );
    let verdict = format!("chaos[{scenario}]: all assertions passed");
    for marker in markers.split('|').chain([verdict.as_str()]) {
        assert!(
            stdout.contains(marker),
            "missing {marker:?} in output:\n{stdout}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// SIGKILLs at seeded epochs plus one torn checkpoint write, at 1 and 8
/// kernel threads with the tape arena on; the final checkpoints must be
/// byte-equal to uninterrupted runs, across thread counts, and to one
/// arena-off run.
#[test]
fn chaos_kills_and_torn_write_resume_bit_identically() {
    let args = "--epochs 6 --kills 2 --seed 7 --threads 1,8 --arena on";
    let markers = "at 1 thread(s)|at 8 thread(s)|bit-identical across thread counts|bit-identical with tape arena on vs off";
    chaos("train", args, markers);
}

/// Train → serve → SIGKILL mid-traffic → respawn → bit-identical scores.
#[test]
fn kill_and_resume_serves_identical_scores() {
    let markers = "pre-kill scores bit-identical|post-resume scores bit-identical";
    chaos("serve", "--seed 11 --epochs 2", markers);
}

/// One seeded failpoint schedule over the whole lifecycle at two thread
/// counts, including the degraded-mode reload dance.
#[test]
fn faulted_lifecycle_serves_identical_scores() {
    let args = "--seeds 1 --epochs 2 --threads 1,2";
    chaos("soak", args, "degraded+recovered");
}

/// A short kill/stop/roll schedule against a 2-replica supervised fleet
/// under continuous traffic, ended by a SIGTERM to the supervisor; every
/// journal bound must have been checked, and no replica may outlive the
/// supervisor.
#[cfg(unix)]
#[test]
fn supervised_fleet_survives_chaos_with_identical_scores() {
    let args = "--events 3 --epochs 1 --threads 1,2";
    let journal = "journal spawn |journal unhealthy |journal restart |journal roll |journal drain |journal gave_up ";
    chaos(
        "supervise",
        args,
        &format!("graceful drains audited|no replica outlived the supervisor|no replica outlived a quit supervisor|{journal}"),
    );
}
