//! End-to-end smoke tests for the observability layer through the shipped
//! binaries: `bench_report` writes/extends `BENCH_history.jsonl` and flags
//! regressions, `run_elf --sample` attributes host time to STREAM's kernel
//! loops, and `make_tables --events` drains structured events for a
//! faulted run.

use std::path::PathBuf;
use std::process::Command;

use telemetry::Json;

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn run(bin: &str, dir: &PathBuf, args: &[&str]) -> (i32, String, String) {
    let exe = match bin {
        "bench_report" => env!("CARGO_BIN_EXE_bench_report"),
        "make_tables" => env!("CARGO_BIN_EXE_make_tables"),
        "run_elf" => env!("CARGO_BIN_EXE_run_elf"),
        other => panic!("unknown bin {other}"),
    };
    let out = Command::new(exe)
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

const BASE: &[&str] = &["--size", "test", "--runs", "1"];

#[test]
fn bench_report_builds_a_trajectory_and_flags_regressions() {
    let dir = scratch("benchreport");

    // First run: seeds history and baseline, nothing to compare against.
    let (code, stdout, stderr) = run("bench_report", &dir, BASE);
    assert_eq!(code, 0, "first run:\n{stderr}");
    assert!(
        stdout.contains("first entry"),
        "first-run trajectory line:\n{stdout}"
    );

    // Second run: a second history entry and a real comparison.
    let (code, stdout, stderr) = run("bench_report", &dir, BASE);
    assert_eq!(code, 0, "second run:\n{stderr}");
    assert!(stdout.contains("trajectory:"), "comparison line:\n{stdout}");

    let history = std::fs::read_to_string(dir.join("BENCH_history.jsonl")).expect("history");
    let entries: Vec<Json> = history
        .lines()
        .map(|l| Json::parse(l).expect("each history line is valid JSON"))
        .collect();
    assert!(
        entries.len() >= 2,
        "two runs must leave at least two entries"
    );
    for e in &entries {
        assert_eq!(e.get("schema").and_then(Json::as_u64), Some(1));
        assert_eq!(e.get("size").and_then(Json::as_str), Some("test"));
        assert!(e.get("geomean_mips").and_then(Json::as_f64).unwrap() > 0.0);
        // The pinned suite: 5 workloads x 2 ISAs at gcc-12.2.
        assert_eq!(
            e.get("cells").and_then(Json::as_arr).map(<[Json]>::len),
            Some(10)
        );
        assert!(
            e.get("geomean_mips_legacy").is_none(),
            "one retire loop, one geomean"
        );
    }

    // The baseline is the pretty-printed latest entry.
    let baseline = std::fs::read_to_string(dir.join("BENCH_baseline.json")).expect("baseline");
    let b = Json::parse(&baseline).expect("baseline parses");
    assert_eq!(
        b.get("timestamp").and_then(Json::as_u64),
        entries
            .last()
            .unwrap()
            .get("timestamp")
            .and_then(Json::as_u64)
    );

    // An artificial 100x slowdown is far past the 20% default threshold:
    // report-only mode still exits 0, --strict exits 4.
    let scaled: Vec<&str> = BASE
        .iter()
        .copied()
        .chain(["--mips-scale", "0.01"])
        .collect();
    let (code, _, stderr) = run("bench_report", &dir, &scaled);
    assert_eq!(code, 0, "report-only regression must not fail:\n{stderr}");
    assert!(
        stderr.contains("REGRESSION"),
        "regression reported:\n{stderr}"
    );

    // The report-only leg appended its scaled entry, so the strict leg
    // needs a further slowdown relative to that to regress again.
    let strict: Vec<&str> = BASE
        .iter()
        .copied()
        .chain(["--mips-scale", "0.0001", "--strict"])
        .collect();
    let (code, _, stderr) = run("bench_report", &dir, &strict);
    assert_eq!(code, 4, "--strict regression exits 4:\n{stderr}");
}

#[test]
fn bench_report_rejects_malformed_history() {
    let dir = scratch("benchschema");
    std::fs::write(dir.join("BENCH_history.jsonl"), "{\"schema\": 99}\n").unwrap();
    let (code, _, stderr) = run("bench_report", &dir, BASE);
    assert_eq!(code, 2, "wrong schema version exits 2:\n{stderr}");
    assert!(stderr.contains("schema"), "{stderr}");

    std::fs::write(dir.join("BENCH_history.jsonl"), "not json\n").unwrap();
    let (code, _, stderr) = run("bench_report", &dir, BASE);
    assert_eq!(code, 2, "unparseable history exits 2:\n{stderr}");
}

#[test]
fn sampler_attributes_stream_host_time_to_kernel_loops() {
    let dir = scratch("sampler");
    let (code, _, stderr) = run("make_tables", &dir, &["elves", "--size", "small"]);
    assert_eq!(code, 0, "elves must build:\n{stderr}");

    let (code, stdout, stderr) = run(
        "run_elf",
        &dir,
        &[
            "results/bin/stream-gcc-12.2-riscv64.elf",
            "--sample=100",
            "--metrics",
            "metrics.json",
        ],
    );
    assert_eq!(code, 0, "run_elf --sample must pass:\n{stderr}");
    assert!(
        stdout.contains("hot blocks:"),
        "hot-block table printed:\n{stdout}"
    );

    let metrics = std::fs::read_to_string(dir.join("metrics.json")).expect("metrics written");
    let report = Json::parse(&metrics).expect("metrics parse");
    let sampler = report.get("sampler").expect("sampler section present");
    let total = sampler.get("total_samples").and_then(Json::as_u64).unwrap();
    assert!(total > 0, "a small-size STREAM run must collect samples");

    // The acceptance bar: at least half the samples land in STREAM's four
    // kernel loops (the rest is the checksum epilogue and entry stub).
    let symbols = sampler.get("symbols").expect("per-symbol totals");
    let kernels: u64 = ["copy", "scale", "add", "triad"]
        .iter()
        .filter_map(|s| symbols.get(s).and_then(Json::as_u64))
        .sum();
    assert!(
        kernels as f64 >= total as f64 * 0.5,
        "kernel loops got {kernels}/{total} samples:\n{stdout}"
    );
}

#[test]
fn structured_events_drain_from_a_faulted_matrix_run() {
    let dir = scratch("events");
    let (code, _, stderr) = run(
        "make_tables",
        &dir,
        &[
            "table1",
            "--size",
            "test",
            "--inject",
            "STREAM/gcc-12.2/RISC-V:trap@1000",
            "--events",
            "events.jsonl",
        ],
    );
    assert_eq!(code, 0, "degraded run still exits 0:\n{stderr}");
    assert!(
        stderr.contains("structured events:"),
        "drain line on stderr:\n{stderr}"
    );

    let events = std::fs::read_to_string(dir.join("events.jsonl")).expect("events written");
    let mut kinds = Vec::new();
    for line in events.lines() {
        let e = Json::parse(line).expect("each event line is valid JSON");
        assert!(e.get("seq").is_some() && e.get("t_us").is_some(), "{line}");
        kinds.push(e.get("kind").and_then(Json::as_str).unwrap().to_string());
    }
    // An injected trap is a non-retryable sim error: the cell fails.
    assert!(
        kinds.iter().any(|k| k == "cell_failed"),
        "kinds: {kinds:?}\n{events}"
    );
}
