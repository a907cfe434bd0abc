//! End-to-end smoke test of the trace pipeline through the shipped
//! binaries: `make_tables elves` builds an ELF, `run_elf --trace-out`
//! captures a trace, `trace_tool` inspects/verifies/diffs it, and
//! `make_tables --trace-dir` captures then replays a whole matrix with
//! byte-identical output.

use std::path::PathBuf;
use std::process::Command;

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    // Start clean: cached traces from a previous `cargo test` would turn
    // this run's capture legs into replay legs.
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn run(bin: &str, dir: &PathBuf, args: &[&str]) -> (i32, String, String) {
    let exe = match bin {
        "make_tables" => env!("CARGO_BIN_EXE_make_tables"),
        "run_elf" => env!("CARGO_BIN_EXE_run_elf"),
        "trace_tool" => env!("CARGO_BIN_EXE_trace_tool"),
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

#[test]
fn capture_inspect_and_diff_through_the_binaries() {
    let dir = scratch("tracecli");

    let (code, _, stderr) = run("make_tables", &dir, &["elves", "--size", "test"]);
    assert_eq!(code, 0, "elves must build:\n{stderr}");

    let elf = "results/bin/stream-gcc-12.2-riscv64.elf";
    let (code, stdout, stderr) = run(
        "run_elf",
        &dir,
        &[
            elf,
            "--trace-out",
            "stream.trace",
            "--spans-out",
            "stream.folded",
        ],
    );
    assert_eq!(code, 0, "run_elf must pass:\n{stderr}");
    assert!(
        stdout.contains("trace        : stream.trace"),
        "capture line:\n{stdout}"
    );
    assert!(stdout.contains("spans        :"), "spans line:\n{stdout}");

    // The collapsed-stack export is flamegraph grammar: `stack n` lines.
    let folded = std::fs::read_to_string(dir.join("stream.folded")).expect("spans written");
    assert!(!folded.is_empty());
    for line in folded.lines() {
        let (stack, n) = line.rsplit_once(' ').expect("stack <us>");
        assert!(!stack.is_empty(), "{line}");
        n.parse::<u64>().expect("numeric self time");
    }
    assert!(
        folded.contains("emulate"),
        "emulate span present:\n{folded}"
    );

    let (code, stdout, _) = run("trace_tool", &dir, &["info", "stream.trace"]);
    assert_eq!(code, 0);
    assert!(stdout.contains("ICTR v3"), "{stdout}");
    assert!(stdout.contains("RISC-V"), "{stdout}");

    let (code, stdout, _) = run("trace_tool", &dir, &["verify", "stream.trace"]);
    assert_eq!(code, 0, "clean capture must verify:\n{stdout}");
    assert!(stdout.contains("OK"), "{stdout}");

    let (code, stdout, _) = run(
        "trace_tool",
        &dir,
        &["dump", "stream.trace", "--limit", "3"],
    );
    assert_eq!(code, 0);
    assert!(
        stdout.contains("IntAlu") || stdout.contains("Load"),
        "{stdout}"
    );

    // Same trace diffed against itself: identical, exit 0.
    let (code, stdout, _) = run(
        "trace_tool",
        &dir,
        &["diff", "stream.trace", "stream.trace"],
    );
    assert_eq!(code, 0);
    assert!(stdout.contains("identical"), "{stdout}");

    // Against a different ISA's run: divergence reported, exit 1.
    let (code, _, stderr) = run(
        "run_elf",
        &dir,
        &[
            "results/bin/stream-gcc-12.2-aarch64.elf",
            "--trace-out",
            "a64.trace",
        ],
    );
    assert_eq!(code, 0, "{stderr}");
    let (code, stdout, _) = run("trace_tool", &dir, &["diff", "stream.trace", "a64.trace"]);
    assert_eq!(code, 1, "differing traces must exit 1:\n{stdout}");
    assert!(stdout.contains("first divergence"), "{stdout}");

    // Corrupt one payload byte near the end: verify must fail loudly.
    let trace_path = dir.join("stream.trace");
    let mut bytes = std::fs::read(&trace_path).unwrap();
    let n = bytes.len();
    bytes[n - 100] ^= 0x01;
    std::fs::write(dir.join("bad.trace"), &bytes).unwrap();
    let (code, _, stderr) = run("trace_tool", &dir, &["verify", "bad.trace"]);
    assert_eq!(code, 1, "corruption must flip the exit code");
    assert!(stderr.contains("CORRUPT"), "{stderr}");
}

#[test]
fn matrix_replay_is_byte_identical_and_counted() {
    let dir = scratch("tracedir");

    let (code, live, stderr) = run(
        "make_tables",
        &dir,
        &[
            "table1",
            "--size",
            "test",
            "--trace-dir",
            "traces",
            "--metrics",
            "cap.json",
        ],
    );
    assert_eq!(code, 0, "capture leg:\n{stderr}");
    let cap = std::fs::read_to_string(dir.join("cap.json")).expect("metrics written");
    assert!(cap.contains("20 capture(s)"), "capture note: {cap}");

    let (code, replayed, stderr) = run(
        "make_tables",
        &dir,
        &[
            "table1",
            "--size",
            "test",
            "--trace-dir",
            "traces",
            "--metrics",
            "rep.json",
        ],
    );
    assert_eq!(code, 0, "replay leg:\n{stderr}");
    assert_eq!(live, replayed, "replayed table1 must be byte-identical");

    let rep = std::fs::read_to_string(dir.join("rep.json")).expect("metrics written");
    assert!(rep.contains("20 replay(s)"), "replay note: {rep}");
    assert!(rep.contains("trace_replay_speedup"), "speedup gauge: {rep}");

    // Every cached trace passes a full integrity verify.
    let a_trace = dir.join("traces/STREAM-gcc-12.2-RISC-V-test.trace");
    assert!(
        a_trace.exists(),
        "cache file uses the documented naming scheme"
    );
    let (code, stdout, _) = run("trace_tool", &dir, &["verify", a_trace.to_str().unwrap()]);
    assert_eq!(code, 0, "cached trace verifies:\n{stdout}");
}

#[test]
fn armed_faults_disable_the_trace_cache_for_the_targeted_cell() {
    let dir = scratch("tracefault");
    let (code, _, stderr) = run(
        "make_tables",
        &dir,
        &[
            "table1",
            "--size",
            "test",
            "--trace-dir",
            "traces",
            "--inject",
            "STREAM/gcc-12.2/RISC-V:trap@1000",
        ],
    );
    assert_eq!(code, 0, "degraded run exits 0:\n{stderr}");
    // The faulted cell must not leave a capture behind (an injected-fault
    // run is not a reusable measurement); untargeted cells still cache.
    assert!(
        !dir.join("traces/STREAM-gcc-12.2-RISC-V-test.trace")
            .exists(),
        "no capture for the faulted cell"
    );
    assert!(
        dir.join("traces/STREAM-gcc-12.2-AArch64-test.trace")
            .exists(),
        "healthy cells still capture"
    );
    let captures = std::fs::read_dir(dir.join("traces"))
        .expect("dir created")
        .count();
    assert_eq!(captures, 19, "every cell but the faulted one captures");
}
