//! Differential crash-safety tests through the shipped binaries: a
//! checkpointed `run_elf` killed mid-run must restore to a byte-identical
//! final trace and identical analysis tables, and a `make_tables` matrix
//! killed by SIGKILL mid-sweep — with or without a fault campaign armed —
//! must resume from its cell journal to a byte-identical
//! `results/matrix.json`.
//!
//! These tests race a real kill against a real run, so they tolerate the
//! benign outcome where the victim finishes first — the resume leg is
//! exercised (and its output compared byte-for-byte) either way; only
//! the interruption point differs.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// Trailer suffix excluded from trace byte-identity: the capture wall
/// time (u64) plus the trailer checksum (u64) that covers it. Everything
/// before — every record, every block checksum, the total-record count
/// and the final state hash — must match exactly.
const TRACE_WALL_SUFFIX: usize = 16;

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn run(bin: &str, dir: &Path, args: &[&str]) -> (i32, String, String) {
    let out = Command::new(exe(bin))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("binary runs");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn exe(bin: &str) -> &'static str {
    match bin {
        "make_tables" => env!("CARGO_BIN_EXE_make_tables"),
        "run_elf" => env!("CARGO_BIN_EXE_run_elf"),
        "trace_tool" => env!("CARGO_BIN_EXE_trace_tool"),
        other => panic!("unknown bin {other}"),
    }
}

/// The run's analysis output with run-to-run noise removed: wall-clock
/// lines carry host timing and the trace line carries the output path,
/// neither of which is part of the determinism contract.
fn analysis_lines(stdout: &str) -> String {
    stdout
        .lines()
        .filter(|l| {
            let l = l.trim_start();
            !l.starts_with("run ") && !l.starts_with("trace ") && !l.starts_with('/')
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn killed_checkpointed_run_restores_byte_identically() {
    let dir = scratch("crashrun");
    let (code, _, stderr) = run("make_tables", &dir, &["elves", "--size", "small"]);
    assert_eq!(code, 0, "elves must build:\n{stderr}");
    let elf = "results/bin/stream-gcc-12.2-riscv64.elf";

    // Reference: one uninterrupted captured run.
    let (code, ref_out, stderr) = run("run_elf", &dir, &[elf, "--trace-out", "ref.trace"]);
    assert_eq!(code, 0, "reference run:\n{stderr}");
    let ref_trace = std::fs::read(dir.join("ref.trace")).expect("reference trace");

    // Victim: same run with periodic durable snapshots, killed (SIGKILL,
    // no cleanup handlers) as soon as the first snapshot lands.
    let mut child = Command::new(exe("run_elf"))
        .args([
            elf,
            "--trace-out",
            "crash.trace",
            "--checkpoint",
            "crash.ckpt",
        ])
        .args(["--checkpoint-every", "400000"])
        .current_dir(&dir)
        .spawn()
        .expect("victim spawns");
    let deadline = Instant::now() + Duration::from_secs(60);
    while !dir.join("crash.ckpt").exists() {
        assert!(Instant::now() < deadline, "no checkpoint within 60s");
        if child.try_wait().expect("try_wait").is_some() {
            break; // finished before the kill — snapshot is still mid-run
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    child.kill().ok();
    child.wait().expect("victim reaped");

    // The snapshot is written tmp+rename, so its mere existence means it
    // is complete; the trace was fsync'd before it, so the bytes the
    // mark points at survived the kill.
    assert!(dir.join("crash.ckpt").exists());

    // Restore: continue the partial capture to completion.
    let (code, resumed_out, stderr) = run(
        "run_elf",
        &dir,
        &[elf, "--restore", "crash.ckpt", "--trace-out", "crash.trace"],
    );
    assert_eq!(code, 0, "restore must finish the run:\n{stderr}");
    assert!(stderr.contains("restored: crash.ckpt"), "{stderr}");

    // Byte-identity: the resumed trace equals the uninterrupted one in
    // every byte except the trailer's wall-time field (and the checksum
    // covering it) — record bytes, block checksums and the final state
    // hash all included.
    let resumed_trace = std::fs::read(dir.join("crash.trace")).expect("resumed trace");
    assert_eq!(resumed_trace.len(), ref_trace.len(), "trace sizes differ");
    let cut = ref_trace.len() - TRACE_WALL_SUFFIX;
    assert_eq!(
        &resumed_trace[..cut],
        &ref_trace[..cut],
        "resumed trace diverges from the uninterrupted capture"
    );

    // The shipped comparator agrees: exit 0, no divergence.
    let (code, diff_out, stderr) = run("trace_tool", &dir, &["diff", "ref.trace", "crash.trace"]);
    assert_eq!(code, 0, "trace_tool diff must exit 0:\n{stderr}");
    assert!(
        diff_out.contains("traces are identical"),
        "unexpected diff output:\n{diff_out}"
    );

    // The analysis tables (path length, critical path, per-kernel and
    // windowed ILP) must be identical too — the replayed prefix fed the
    // observers exactly what the live run did.
    assert_eq!(analysis_lines(&resumed_out), analysis_lines(&ref_out));
}

#[test]
fn sigkill_mid_matrix_resumes_to_byte_identical_results() {
    let reference = scratch("crashmat-ref");
    let victim = scratch("crashmat-victim");
    let journal = victim.join("results/matrix.journal.jsonl");

    // Reference: one uninterrupted sweep. Its journal must not outlive
    // the clean completion.
    let (code, _, stderr) = run("make_tables", &reference, &["table1", "--size", "test"]);
    assert_eq!(code, 0, "reference matrix:\n{stderr}");
    assert!(
        !reference.join("results/matrix.journal.jsonl").exists(),
        "journal must be deleted after a clean run"
    );
    let ref_matrix = std::fs::read(reference.join("results/matrix.json")).expect("reference");

    // Victim: SIGKILL once the journal holds at least one completed
    // cell (each line is fsync'd before the worker moves on, so the
    // kill cannot cost us a recorded outcome).
    let mut child = Command::new(exe("make_tables"))
        .args(["table1", "--size", "test"])
        .current_dir(&victim)
        .spawn()
        .expect("victim spawns");
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        assert!(Instant::now() < deadline, "no journalled cells within 120s");
        let text = std::fs::read_to_string(&journal).unwrap_or_default();
        let done = text.ends_with('\n') && text.contains("\"kind\":\"cell\"");
        if done || child.try_wait().expect("try_wait").is_some() {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    child.kill().ok();
    child.wait().expect("victim reaped");

    // Resume: the surviving journal supersedes the (absent or partial)
    // matrix JSON, re-runs only the missing cells, and reassembles the
    // matrix in canonical order.
    let (code, _, stderr) = run(
        "make_tables",
        &victim,
        &[
            "table1",
            "--size",
            "test",
            "--resume",
            "results/matrix.json",
        ],
    );
    assert_eq!(code, 0, "resume must complete the sweep:\n{stderr}");

    let resumed_matrix = std::fs::read(victim.join("results/matrix.json")).expect("resumed");
    assert_eq!(
        resumed_matrix, ref_matrix,
        "resumed matrix.json must be byte-identical to an uninterrupted run's"
    );
    assert!(
        !journal.exists(),
        "journal must be deleted after the resumed run completes"
    );
}

#[test]
fn sigkill_mid_campaign_resumes_with_rearmed_schedule() {
    let reference = scratch("crashcamp-ref");
    let victim = scratch("crashcamp-victim");
    let journal = victim.join("results/matrix.journal.jsonl");

    // Reference: an uninterrupted seeded campaign sweep (every cell
    // degrades deterministically under the seed-7 schedule).
    let (code, _, stderr) = run(
        "make_tables",
        &reference,
        &["table1", "--size", "test", "--campaign", "7:3"],
    );
    assert_eq!(code, 0, "reference campaign sweep:\n{stderr}");
    let ref_matrix = std::fs::read(reference.join("results/matrix.json")).expect("reference");
    let ref_manifest = std::fs::read(reference.join("results/campaign.json")).expect("manifest");

    // Victim: SIGKILL once the journal exists (its begin record carries
    // the campaign manifest; any recorded outcomes are kept verbatim).
    let mut child = Command::new(exe("make_tables"))
        .args(["table1", "--size", "test", "--campaign", "7:3"])
        .current_dir(&victim)
        .spawn()
        .expect("victim spawns");
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        assert!(Instant::now() < deadline, "no journal within 120s");
        let text = std::fs::read_to_string(&journal).unwrap_or_default();
        if text.contains("\"kind\":") || child.try_wait().expect("try_wait").is_some() {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    child.kill().ok();
    child.wait().expect("victim reaped");

    if !journal.exists() {
        // The victim won the race and completed cleanly (journal deleted
        // on clean exit). A plain --resume would now heal the campaign's
        // failures instead of re-arming them, so the only meaningful
        // check left is determinism of the finished sweep.
        let matrix = std::fs::read(victim.join("results/matrix.json")).expect("matrix");
        assert_eq!(
            matrix, ref_matrix,
            "uninterrupted campaign must match the reference"
        );
        return;
    }

    // Resume WITHOUT --campaign: the schedule is re-armed from the
    // journal's begin record, so the healed sweep runs the exact same
    // faults and reproduces the reference bytes.
    let (code, _, stderr) = run(
        "make_tables",
        &victim,
        &[
            "table1",
            "--size",
            "test",
            "--resume",
            "results/matrix.json",
        ],
    );
    assert_eq!(code, 0, "campaign resume:\n{stderr}");

    let resumed_matrix = std::fs::read(victim.join("results/matrix.json")).expect("resumed");
    assert_eq!(
        resumed_matrix, ref_matrix,
        "campaign matrix must resume byte-identically"
    );
    let resumed_manifest = std::fs::read(victim.join("results/campaign.json")).expect("manifest");
    assert_eq!(
        resumed_manifest, ref_manifest,
        "campaign manifest must be unchanged"
    );
    assert!(
        !journal.exists(),
        "journal must be deleted after the resumed sweep completes"
    );
}
