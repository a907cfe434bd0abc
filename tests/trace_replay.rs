//! Differential test for trace-driven analysis: a matrix computed from
//! live emulation and a matrix computed by replaying the captured traces
//! must render byte-identical tables — the paper's numbers cannot depend
//! on which retirement source fed the analyses.

use std::sync::{Mutex, MutexGuard};

use isacmp::{run_matrix_opts, MatrixOptions, SizeClass, Workload};

/// Every test in this binary holds this lock: the trace counters they
/// assert deltas of are process-global, so a sibling test running
/// concurrently would bump them mid-measurement.
static COUNTERS: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A failed sibling poisons the lock; it guards no data, so carry on.
    COUNTERS.lock().unwrap_or_else(|e| e.into_inner())
}

fn opts(dir: &std::path::Path) -> MatrixOptions {
    MatrixOptions {
        trace_dir: Some(dir.to_path_buf()),
        ..Default::default()
    }
}

#[test]
fn replayed_matrix_reproduces_live_tables_byte_identically() {
    let _serial = serial();
    let dir = std::env::temp_dir().join(format!("isacmp-replay-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let tel = isacmp::telemetry::global();

    let captures_before = tel.counter("trace_captures");
    let live = run_matrix_opts(&Workload::ALL, SizeClass::Test, &opts(&dir));
    assert!(
        live.is_complete(),
        "live matrix must be clean:\n{}",
        live.failure_summary()
    );
    let captured = tel.counter("trace_captures") - captures_before;
    assert_eq!(
        captured, 20,
        "every cell of the 5x2x2 matrix captures a trace"
    );

    let replays_before = tel.counter("trace_replays");
    let replayed = run_matrix_opts(&Workload::ALL, SizeClass::Test, &opts(&dir));
    assert!(
        replayed.is_complete(),
        "replay must be clean:\n{}",
        replayed.failure_summary()
    );
    let replays = tel.counter("trace_replays") - replays_before;
    assert_eq!(
        replays, 20,
        "second run must come entirely from the trace cache"
    );

    // The headline artifacts, byte for byte.
    assert_eq!(live.table1(), replayed.table1());
    assert_eq!(live.table2(), replayed.table2());
    assert_eq!(live.fig1_csv(), replayed.fig1_csv());
    assert_eq!(live.fig2_csv(), replayed.fig2_csv());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stale_provenance_falls_back_to_live_recapture() {
    use isacmp::{run_cell_opts, CellOptions, IsaKind, Personality};

    let _serial = serial();
    let dir = std::env::temp_dir().join(format!("isacmp-stale-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let tel = isacmp::telemetry::global();
    let opts = CellOptions {
        trace_dir: Some(dir.clone()),
        ..Default::default()
    };

    let cell = |w| {
        run_cell_opts(
            w,
            IsaKind::RiscV,
            &Personality::gcc122(),
            SizeClass::Test,
            &opts,
        )
        .expect("cell must run")
    };
    let first = cell(Workload::Stream);

    // Swap STREAM's cached trace for LBM's: the file exists but its header
    // names a different cell, so the replay path must reject it (counted
    // as trace_stale), rerun live, and recapture the right trace.
    let _ = cell(Workload::Lbm);
    let stream_path = dir.join("STREAM-gcc-12.2-RISC-V-test.trace");
    let lbm_path = dir.join("LBM-gcc-12.2-RISC-V-test.trace");
    std::fs::copy(&lbm_path, &stream_path).unwrap();

    let stale_before = tel.counter("trace_stale");
    let second = cell(Workload::Stream);
    assert_eq!(tel.counter("trace_stale") - stale_before, 1);
    assert_eq!(first, second, "fallback run must reproduce the live cell");

    // The recapture healed the cache: next run replays.
    let replays_before = tel.counter("trace_replays");
    let third = cell(Workload::Stream);
    assert_eq!(tel.counter("trace_replays") - replays_before, 1);
    assert_eq!(first, third);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn older_format_version_is_stale_and_recaptured() {
    use isacmp::{run_cell_opts, CellOptions, IsaKind, Personality};

    let _serial = serial();
    let dir = std::env::temp_dir().join(format!("isacmp-oldver-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let tel = isacmp::telemetry::global();
    let opts = CellOptions {
        trace_dir: Some(dir.clone()),
        ..Default::default()
    };
    let cell = || {
        run_cell_opts(
            Workload::Stream,
            IsaKind::RiscV,
            &Personality::gcc122(),
            SizeClass::Test,
            &opts,
        )
        .expect("cell must run")
    };
    let first = cell();

    // Stamp the capture as format version 2 (bytes 4..6 of the header):
    // an older build's cache. It is stale, not damaged.
    let path = dir.join("STREAM-gcc-12.2-RISC-V-test.trace");
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[4..6].copy_from_slice(&2u16.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();

    let (stale, errors) = (
        tel.counter("trace_stale"),
        tel.counter("trace_replay_errors"),
    );
    let second = cell();
    assert_eq!(tel.counter("trace_stale") - stale, 1);
    assert_eq!(tel.counter("trace_replay_errors") - errors, 0);
    assert_eq!(first, second, "fallback run must reproduce the live cell");

    // The live run recaptured the file in the current version.
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), trace::VERSION);
    assert_eq!(trace::VERSION, 3);
    let summary = trace::TraceReader::open(&path).unwrap().verify().unwrap();
    assert_eq!(summary.version, trace::VERSION);

    std::fs::remove_dir_all(&dir).ok();
}
