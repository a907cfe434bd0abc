//! Smoke-test the `make_tables` binary's fault tolerance: with one cell
//! deterministically faulted, the run still completes, prints the other
//! cells, marks the faulty one `ERR(<kind>)`, records the failure in the
//! metrics report, and only `--strict` flips the exit code.

use std::path::PathBuf;
use std::process::Command;

/// Run `make_tables` with `args` in a fresh scratch directory (the binary
/// writes `results/` into its cwd). Returns (exit code, stdout, stderr).
fn make_tables(scratch: &str, args: &[&str]) -> (i32, String, String) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(scratch);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_make_tables"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("make_tables runs");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

const INJECT: &str = "STREAM/gcc-12.2/RISC-V:trap@1000";

#[test]
fn injected_fault_degrades_gracefully() {
    let (code, stdout, stderr) = make_tables(
        "degrade",
        &[
            "table1",
            "--size",
            "test",
            "--inject",
            INJECT,
            "--metrics",
            "metrics.json",
        ],
    );
    assert_eq!(
        code, 0,
        "degraded run still exits 0 without --strict:\n{stderr}"
    );

    // The faulty cell is marked, the other 19 still populate.
    assert!(
        stdout.contains("ERR(sim)"),
        "stdout should mark the faulted cell:\n{stdout}"
    );
    for w in ["STREAM", "LBM", "minisweep", "miniBUDE", "CloverLeaf"] {
        assert!(
            stdout.contains(w),
            "table should still include {w}:\n{stdout}"
        );
    }
    assert!(
        stderr.contains("1 of 20 cells failed"),
        "stderr summary:\n{stderr}"
    );

    // The failure and the retry spent on it land in the metrics report.
    let metrics = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("degrade/metrics.json"),
    )
    .expect("metrics.json written");
    assert!(metrics.contains("cells_failed"), "metrics: {metrics}");
    assert!(metrics.contains("cell_retries"), "metrics: {metrics}");
    assert!(metrics.contains("faults_injected"), "metrics: {metrics}");

    // matrix.json carries the typed failure record.
    let matrix = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("degrade/results/matrix.json"),
    )
    .expect("matrix.json written");
    assert!(matrix.contains("\"failures\""), "matrix.json: {matrix}");
    assert!(matrix.contains("injected fault"), "matrix.json: {matrix}");
}

#[test]
fn strict_flips_the_exit_code() {
    let (code, _stdout, stderr) = make_tables(
        "strict",
        &["table1", "--size", "test", "--inject", INJECT, "--strict"],
    );
    assert_eq!(
        code, 3,
        "--strict must fail the run on a degraded matrix:\n{stderr}"
    );
    assert!(
        stderr.contains("--strict"),
        "stderr explains the exit:\n{stderr}"
    );
}

#[test]
fn healthy_strict_run_passes() {
    let (code, stdout, _stderr) = make_tables("healthy", &["table1", "--size", "test", "--strict"]);
    assert_eq!(code, 0);
    assert!(!stdout.contains("ERR("), "no failures expected:\n{stdout}");
}

#[test]
fn bad_inject_spec_is_a_usage_error() {
    let (code, _stdout, stderr) = make_tables(
        "badspec",
        &["table1", "--size", "test", "--inject", "nonsense"],
    );
    assert_eq!(code, 2, "malformed --inject is a usage error:\n{stderr}");
}

#[test]
fn campaign_then_resume_heals_the_matrix() {
    // Leg 1: a seeded campaign injects into every cell. Seed 7 samples
    // three traps inside the default window (< every Test-size path), so
    // every cell degrades and --strict flips the exit code.
    let (code, stdout, stderr) = make_tables(
        "campaign",
        &["table1", "--size", "test", "--campaign", "7:3", "--strict"],
    );
    assert_eq!(code, 3, "campaign faults + --strict must exit 3:\n{stderr}");
    assert!(
        stdout.contains("ERR(sim)"),
        "campaign faults mark cells:\n{stdout}"
    );
    assert!(
        stderr.contains("campaign: seed 0x7, 3 fault(s) per cell"),
        "stderr announces the campaign:\n{stderr}"
    );

    // The sampled schedule is a replayable on-disk artifact.
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("campaign");
    let manifest =
        std::fs::read_to_string(dir.join("results/campaign.json")).expect("campaign.json written");
    for needle in ["\"seed\": \"0x7\"", "\"window\"", "\"faults\"", "trap@"] {
        assert!(manifest.contains(needle), "campaign.json: {manifest}");
    }

    // Leg 2: resume the degraded matrix without the campaign. Every
    // recorded failure re-runs healthy, so --strict now passes.
    let (code, stdout, stderr) = make_tables(
        "campaign",
        &[
            "table1",
            "--size",
            "test",
            "--resume",
            "results/matrix.json",
            "--strict",
        ],
    );
    assert_eq!(
        code, 0,
        "resumed matrix must heal and pass --strict:\n{stderr}"
    );
    assert!(
        !stdout.contains("ERR("),
        "no failures after the resume:\n{stdout}"
    );
    assert!(
        stderr.contains("resuming matrix"),
        "stderr announces the resume:\n{stderr}"
    );
}

#[test]
fn campaign_and_resume_are_mutually_exclusive() {
    let (code, _stdout, stderr) = make_tables(
        "camexcl",
        &[
            "table1",
            "--size",
            "test",
            "--campaign",
            "7:3",
            "--resume",
            "results/matrix.json",
        ],
    );
    assert_eq!(code, 2, "contradictory flags are a usage error:\n{stderr}");
    assert!(stderr.contains("mutually exclusive"), "stderr: {stderr}");
    // The rejected run must not leave a manifest behind.
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("camexcl");
    assert!(
        !dir.join("results/campaign.json").exists(),
        "no artifact from a rejected run"
    );
}

#[test]
fn bad_campaign_spec_is_a_usage_error() {
    let (code, _stdout, stderr) = make_tables(
        "badcamp",
        &["table1", "--size", "test", "--campaign", "7:zero"],
    );
    assert_eq!(code, 2, "malformed --campaign is a usage error:\n{stderr}");
}

/// Address-space cap for the runaway campaign, in KiB (about 2 GB).
const RUNAWAY_CAP_KIB: u64 = 2_000_000;
/// How long the capped campaign may take.
const RUNAWAY_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(120);

#[cfg(unix)]
#[test]
fn runaway_campaign_cells_fail_within_their_budget() {
    // Seed 2 corrupts a fetch in every cell and traps none: some guests
    // run far past their workload. Under a 2 GB address-space cap (on the
    // child alone) the run must still finish, with those cells reported
    // as budget failures rather than an allocator abort.
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("runaway");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let script = format!("ulimit -v {RUNAWAY_CAP_KIB}; exec \"$0\" \"$@\"");
    let mut child = Command::new("sh")
        .args(["-c", &script, env!("CARGO_BIN_EXE_make_tables")])
        .args(["table1", "--size", "test", "--campaign", "2:3"])
        .current_dir(&dir)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("make_tables runs");
    let start = std::time::Instant::now();
    while child.try_wait().expect("child status").is_none() {
        if start.elapsed() > RUNAWAY_TIMEOUT {
            let _ = child.kill();
            let _ = child.wait();
            panic!("the capped campaign ran past {RUNAWAY_TIMEOUT:?}");
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    let out = child.wait_with_output().expect("child output");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("memory allocation"),
        "allocator abort:\n{stderr}"
    );
    assert_eq!(
        out.status.code(),
        Some(0),
        "degraded run exits 0:\n{stderr}"
    );
    assert!(
        stdout.contains("ERR(timeout)"),
        "runaway cells are marked:\n{stdout}"
    );
    let matrix =
        std::fs::read_to_string(dir.join("results/matrix.json")).expect("matrix.json written");
    assert!(
        matrix.contains("instruction budget of"),
        "budget failures recorded:\n{matrix}"
    );
}
