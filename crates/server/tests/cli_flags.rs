//! `isacmpd` and `load_driver` flag grammar: an unknown flag, a flag
//! missing its value or a stray argument is a usage error (exit 2, nothing
//! run), and every flag the binaries document is accepted.

use std::path::PathBuf;
use std::process::Command;

/// Run a binary with `args`; returns (exit code, stderr).
fn run(exe: &str, args: &[&str]) -> (i32, String) {
    let out = Command::new(exe).args(args).output().expect("binary runs");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn isacmpd_rejects_flags_outside_its_grammar() {
    let exe = env!("CARGO_BIN_EXE_isacmpd");
    let dir = scratch("isacmpd-flags");
    let jobs = dir.join("jobs");
    let jobs = jobs.to_str().unwrap();
    for args in [
        &["--jobs-dir", jobs, "--kind", "fusion"][..],
        &["--jobs-dir", jobs, "--max-jobs"][..],
        &["--jobs-dir", jobs, "stray"][..],
        &["--jobs-dir", jobs, "--drain-secs", "1e30"][..],
    ] {
        let (code, stderr) = run(exe, args);
        assert_eq!(code, 2, "{args:?}: {stderr}");
        assert!(stderr.contains("usage: isacmpd"), "{stderr}");
    }
    assert!(!dir.exists(), "a rejected command line must run nothing");

    // Every documented flag parses; the run then stops at the missing warm
    // artifact (exit 1), after binding a loopback port.
    let traces = dir.join("traces");
    let warm = dir.join("missing.json");
    let (code, stderr) = run(
        exe,
        &[
            "--addr",
            "127.0.0.1:0",
            "--max-jobs",
            "4",
            "--jobs-dir",
            jobs,
            "--trace-dir",
            traces.to_str().unwrap(),
            "--warm",
            warm.to_str().unwrap(),
            "--warm-size",
            "test",
            "--drain-secs",
            "1",
        ],
    );
    assert_eq!(code, 1, "{stderr}");
    assert!(!stderr.contains("usage:"), "{stderr}");
}

#[test]
fn load_driver_rejects_flags_outside_its_grammar() {
    let exe = env!("CARGO_BIN_EXE_load_driver");
    // `--kind` is gone: a job is described by its matrix flags alone.
    for args in [
        &["--addr", "127.0.0.1:1", "--kind", "fusion"][..],
        &["--addr", "127.0.0.1:1", "--size"][..],
        &["--addr", "127.0.0.1:1", "stray"][..],
    ] {
        let (code, stderr) = run(exe, args);
        assert_eq!(code, 2, "{args:?}: {stderr}");
        assert!(stderr.contains("usage: load_driver"), "{stderr}");
    }

    // Every documented flag parses; the run then fails to reach a daemon
    // on a closed loopback port (exit 1).
    let (code, stderr) = run(
        exe,
        &[
            "--addr",
            "127.0.0.1:1",
            "--clients",
            "1",
            "--requests",
            "1",
            "--size",
            "test",
            "--retries",
            "1",
            "--deadline-secs",
            "5",
            "--inject",
            "STREAM/gcc-12.2/RISC-V:trap@1000",
            "--campaign",
            "7:1",
            "--fusion",
            "--out",
            "unused.json",
            "--stats-out",
            "unused-stats.json",
            "--min-hit-rate",
            "0",
            "--fail-on-cell-failures",
        ],
    );
    assert_eq!(code, 1, "{stderr}");
    assert!(!stderr.contains("usage:"), "{stderr}");
}
