//! `run_elf`'s analysis lines against the matrix goldens, its heartbeats
//! under `--metrics` calibration, and its `--inject` runs.
//!
//! `run_elf` measures an ELF with the same per-cell analysis bundle the
//! matrix uses, so the test-size STREAM binaries must print exactly the
//! numbers `tests/golden/matrix.json` holds for their cells.

use std::path::{Path, PathBuf};
use std::process::Command;

use telemetry::Json;

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Emit the ELFs of `size` into `dir/results/bin`.
fn emit_elves(dir: &Path, size: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_make_tables"))
        .args(["elves", "--size", size])
        .current_dir(dir)
        .output()
        .expect("make_tables runs");
    assert!(
        out.status.success(),
        "elves must build:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Run `run_elf` in `dir` with `args` and extra environment; returns
/// `(exit code, stdout, stderr)`.
fn run_elf(dir: &Path, args: &[&str], env: &[(&str, &str)]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_run_elf"))
        .args(args)
        .env_remove("ISACMP_PROGRESS")
        .envs(env.iter().copied())
        .current_dir(dir)
        .output()
        .expect("run_elf runs");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// The golden matrix cell for STREAM / gcc-12.2 on `isa`.
fn golden_cell(isa: &str) -> Json {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/matrix.json"
    );
    let text = std::fs::read_to_string(path).expect("golden matrix");
    let matrix = Json::parse(&text).expect("golden matrix parses");
    matrix
        .get("cells")
        .and_then(Json::as_arr)
        .expect("cells")
        .iter()
        .find(|c| {
            let field = |k: &str| c.get(k).and_then(Json::as_str);
            field("workload") == Some("STREAM")
                && field("compiler") == Some("gcc-12.2")
                && field("isa") == Some(isa)
        })
        .cloned()
        .unwrap_or_else(|| panic!("no STREAM/gcc-12.2/{isa} golden cell"))
}

/// The analysis lines `run_elf` prints for `cell`: path length, unit and
/// scaled CP, per-kernel counts and the windows at two decimals.
fn expected_lines(cell: &Json) -> Vec<String> {
    let num = |k: &str| cell.get(k).and_then(Json::as_u64).expect(k);
    let path_length = num("path_length");
    let cp_line = |label: &str, cp: u64| {
        format!(
            "  {label}: {cp}  (ILP {:.0}, 2GHz runtime {:.4} ms)",
            path_length as f64 / cp.max(1) as f64,
            isacmp::runtime_ms(cp)
        )
    };
    let mut lines = vec![
        format!("  path length  : {path_length}"),
        cp_line("critical path", num("critical_path")),
        cp_line("scaled CP    ", num("scaled_cp")),
        "  per kernel   :".to_string(),
    ];
    for k in cell.get("kernels").and_then(Json::as_arr).expect("kernels") {
        let k = k.as_arr().expect("kernel pair");
        let name = k[0].as_str().expect("kernel name");
        let count = k[1].as_u64().expect("kernel count");
        lines.push(format!("    {name:<14} {count}"));
    }
    lines.push("  windowed ILP :".to_string());
    for w in cell.get("windows").and_then(Json::as_arr).expect("windows") {
        let w = w.as_arr().expect("window triple");
        let size = w[0].as_u64().expect("window size");
        let mean_cp = w[1].as_f64().expect("mean CP");
        let mean_ilp = w[2].as_f64().expect("mean ILP");
        lines.push(format!(
            "    window {size:<6} mean CP {mean_cp:>10.2}  mean ILP {mean_ilp:>8.2}"
        ));
    }
    lines
}

#[test]
fn stream_analysis_lines_match_the_golden_matrix_cells() {
    let dir = scratch("runelf-golden");
    emit_elves(&dir, "test");
    for (elf, isa) in [("riscv64", "RISC-V"), ("aarch64", "AArch64")] {
        let path = format!("results/bin/stream-gcc-12.2-{elf}.elf");
        let (code, stdout, stderr) = run_elf(&dir, &[&path], &[]);
        assert_eq!(code, 0, "{path}:\n{stderr}");
        let printed: Vec<&str> = stdout
            .lines()
            .skip_while(|l| !l.starts_with("  path length"))
            .take_while(|l| !l.starts_with("  guest output") && !l.starts_with("  run "))
            .collect();
        assert_eq!(printed, expected_lines(&golden_cell(isa)), "{path}");
    }
}

#[test]
fn calibration_runs_print_no_heartbeats() {
    let dir = scratch("runelf-beats");
    emit_elves(&dir, "test");
    let elf = "results/bin/stream-gcc-12.2-riscv64.elf";
    let beats = |stderr: &str| stderr.lines().filter(|l| l.contains(" retired, ")).count();
    // 4,326 retirements beat at 1000, 2000, 3000 and 4000; the calibration
    // runs `--metrics` adds must not beat at all, whether the interval
    // comes from the flag or from the environment.
    let (code, _, stderr) = run_elf(&dir, &[elf, "--progress=1000", "--metrics", "m.json"], &[]);
    assert_eq!(code, 0, "{stderr}");
    assert_eq!(beats(&stderr), 4, "{stderr}");
    let (code, _, stderr) = run_elf(
        &dir,
        &[elf, "--metrics", "m.json"],
        &[("ISACMP_PROGRESS", "1000")],
    );
    assert_eq!(code, 0, "{stderr}");
    assert_eq!(beats(&stderr), 4, "{stderr}");
}

#[test]
fn injected_trap_fails_the_run_and_reports_it_fired() {
    let dir = scratch("runelf-trap");
    emit_elves(&dir, "test");
    let elf = "results/bin/stream-gcc-12.2-riscv64.elf";
    let (code, stdout, stderr) = run_elf(&dir, &[elf, "--inject", "trap@1000"], &[]);
    assert_eq!(code, 1, "{stderr}");
    assert!(
        stdout.is_empty(),
        "a failed run prints no analysis: {stdout}"
    );
    assert!(
        stderr.contains("injected fault: forced trap at instret 1000"),
        "{stderr}"
    );
    assert!(
        stderr.contains("after 1000 retired instructions"),
        "{stderr}"
    );
    assert!(
        stderr.contains("campaign: 1 of 1 scheduled fault(s) fired"),
        "{stderr}"
    );
}

#[test]
fn injected_run_prints_the_same_with_and_without_checkpoints() {
    let dir = scratch("runelf-inject-ckpt");
    emit_elves(&dir, "small");
    let elf = "results/bin/stream-gcc-12.2-riscv64.elf";
    // The small STREAM run retires 1,860,162 instructions and pauses every
    // 409,600 (400,000 rounded up to the masked interval); this fetch flip
    // lands after the last pause, at 1,638,400, and the guest still exits.
    let fault = "fetch@1800000:0x400";
    let fired = "campaign: 1 of 1 scheduled fault(s) fired";
    let analysis = |stdout: &str| -> Vec<String> {
        stdout
            .lines()
            .filter(|l| !l.starts_with("  run ") && !l.starts_with("  trace "))
            .map(str::to_string)
            .collect()
    };
    let (code, clean, stderr) = run_elf(&dir, &[elf], &[]);
    assert_eq!(code, 0, "{stderr}");
    let (code, straight, stderr) = run_elf(
        &dir,
        &[elf, "--inject", fault, "--trace-out", "ref.trace"],
        &[],
    );
    assert_eq!(code, 0, "{stderr}");
    assert!(stderr.contains(fired), "{stderr}");
    assert_ne!(
        analysis(&straight),
        analysis(&clean),
        "the flip must change the run"
    );

    let (code, paused, stderr) = run_elf(
        &dir,
        &[
            elf,
            "--inject",
            fault,
            "--checkpoint",
            "run.ckpt",
            "--checkpoint-every",
            "400000",
            "--trace-out",
            "ckpt.trace",
        ],
        &[],
    );
    assert_eq!(code, 0, "{stderr}");
    assert!(stderr.contains("at 1638400 retirements"), "{stderr}");
    assert!(stderr.contains(fired), "{stderr}");
    assert_eq!(analysis(&paused), analysis(&straight));

    // The last snapshot holds the fault armed and unfired; restoring it
    // (the capture replays the prefix to the analyses) ends in the same
    // run, down to the trace bytes before the trailer's wall time.
    let (code, resumed, stderr) = run_elf(
        &dir,
        &[elf, "--restore", "run.ckpt", "--trace-out", "ckpt.trace"],
        &[],
    );
    assert_eq!(code, 0, "{stderr}");
    assert!(stderr.contains("0 already fired"), "{stderr}");
    assert!(stderr.contains(fired), "{stderr}");
    assert_eq!(analysis(&resumed), analysis(&straight));
    let read = |name: &str| std::fs::read(dir.join(name)).expect(name);
    let (reference, restored) = (read("ref.trace"), read("ckpt.trace"));
    assert_eq!(reference.len(), restored.len(), "trace sizes differ");
    let cut = reference.len() - 16;
    assert!(
        reference[..cut] == restored[..cut],
        "restored trace diverges"
    );
}
