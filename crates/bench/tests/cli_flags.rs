//! `make_tables` flag grammar: an unknown flag is a usage error (exit 2,
//! nothing run), and every flag the binary documents is accepted.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Run `make_tables` with `args` in a fresh scratch directory (the binary
/// writes `results/` into its cwd). Returns (exit code, stderr).
fn make_tables(dir: &Path, args: &[&str]) -> (i32, String) {
    std::fs::create_dir_all(dir).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_make_tables"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("make_tables runs");
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
fn unknown_flag_is_a_usage_error() {
    let dir = scratch("cli-unknown");
    let (code, stderr) = make_tables(&dir, &["table1", "--size", "test", "--engine", "legacy"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("unknown flag \"--engine\""), "{stderr}");
    assert!(stderr.contains("usage: make_tables"), "{stderr}");
    assert!(
        !dir.join("results").exists(),
        "a rejected command line must run nothing"
    );

    let (code, stderr) = make_tables(&dir, &["table1", "--size"]);
    assert_eq!(code, 2, "a flag missing its value: {stderr}");
    let (code, stderr) = make_tables(&dir, &["table1", "test"]);
    assert_eq!(code, 2, "a stray positional: {stderr}");
}

#[test]
fn seconds_a_duration_cannot_hold_are_a_usage_error() {
    let dir = scratch("cli-deadline");
    for secs in ["abc", "1e30"] {
        let (code, stderr) =
            make_tables(&dir, &["table1", "--size", "test", "--deadline-secs", secs]);
        assert_eq!(code, 2, "--deadline-secs {secs}: {stderr}");
        assert!(stderr.contains("--deadline-secs"), "{stderr}");
    }
    assert!(
        !dir.join("results").exists(),
        "a rejected command line must run nothing"
    );
}

#[test]
fn every_documented_flag_is_accepted() {
    let dir = scratch("cli-full");
    let (code, stderr) = make_tables(
        &dir,
        &[
            "table1",
            "--size",
            "test",
            "--fusion",
            "--trace-dir",
            "traces",
            "--metrics",
            "metrics.json",
            "--events",
            "events.jsonl",
            "--deadline-secs",
            "60",
            "--retries",
            "2",
            "--progress=1000000000",
            "--strict",
        ],
    );
    assert_eq!(code, 0, "{stderr}");
    assert!(dir.join("metrics.json").exists() && dir.join("results/fusion.csv").exists());

    // The flags the first run could not combine: a resume (exclusive with
    // --campaign), bare --progress, and a targeted injection, which
    // degrades one cell and so cannot ride with --strict.
    let (code, stderr) = make_tables(
        &dir,
        &[
            "table1",
            "--size",
            "test",
            "--fusion",
            "--resume",
            "results/matrix.json",
            "--progress",
        ],
    );
    assert_eq!(code, 0, "{stderr}");
    let (code, stderr) = make_tables(
        &dir,
        &[
            "table1",
            "--size",
            "test",
            "--inject",
            "STREAM/gcc-12.2/RISC-V:trap@1000",
        ],
    );
    assert_eq!(code, 0, "{stderr}");
    let (code, stderr) = make_tables(&dir, &["table1", "--size", "test", "--campaign", "7:1"]);
    assert_eq!(code, 0, "{stderr}");
}
