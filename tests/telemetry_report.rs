//! End-to-end checks for the run telemetry subsystem: facade spans and
//! counters recorded by `run_cell`, guest profiling via
//! [`ProfilingObserver`], and `RunReport` JSON round-tripping.
//!
//! The global [`telemetry::Telemetry`] instance is shared across the whole
//! test binary (tests may run in parallel), so assertions here are
//! monotone (`>=`, "contains") rather than exact counts.

use isacmp::telemetry::{Json, RunReport};
use isacmp::{
    compile, run_cell, IsaKind, Observer, Personality, ProfilingObserver, SizeClass, Workload,
};

#[test]
fn run_cell_records_spans_and_counters() {
    let tel = isacmp::telemetry::global();
    let before = tel.counter("cells_run");
    run_cell(
        Workload::Stream,
        IsaKind::RiscV,
        &Personality::gcc122(),
        SizeClass::Test,
    )
    .expect("cell measures");
    assert!(tel.counter("cells_run") > before);
    assert!(tel.counter("instructions_retired") > 0);

    let names: Vec<String> = tel
        .timeline()
        .records()
        .iter()
        .map(|r| r.name.clone())
        .collect();
    assert!(names.iter().any(|n| n.starts_with("cell:STREAM/RISC-V/")));
    for stage in ["compile", "emulate", "verify"] {
        assert!(
            names.iter().any(|n| n == stage),
            "missing span {stage:?} in {names:?}"
        );
    }
    // Every cell wall time lands in the histogram.
    let snapshot = tel.metrics_snapshot();
    let h = snapshot
        .histogram("cell_wall_ms")
        .expect("cell_wall_ms recorded");
    assert!(h.count() >= 1);
}

#[test]
fn profiling_observer_attributes_guest_execution() {
    let prog = Workload::Stream.build(SizeClass::Test);
    let compiled = compile(&prog, IsaKind::AArch64, &Personality::gcc122());
    let mut profile = ProfilingObserver::new(&compiled.program.regions);
    {
        let mut obs: Vec<&mut dyn Observer> = vec![&mut profile];
        let (_, stats) = isacmp::execute(&compiled, &mut obs);
        assert_eq!(profile.retired(), stats.retired);
    }
    // STREAM's four kernels must all retire instructions, with triad/add
    // (3-array kernels) at least as hot as copy (2-array kernel).
    let hot = profile.hot_regions(10);
    let count = |name: &str| {
        hot.iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| *c)
            .unwrap_or(0)
    };
    for k in ["copy", "scale", "add", "triad"] {
        assert!(count(k) > 0, "kernel {k} missing from {hot:?}");
    }
    assert!(count("triad") >= count("copy"));
    // The group mix must be dominated by real work, not Other.
    let mix = profile.group_mix();
    let mixed: u64 = mix.iter().map(|(_, c)| c).sum();
    assert_eq!(mixed, profile.retired());
    assert!(profile.branch_fraction() > 0.0 && profile.branch_fraction() < 0.5);
}

#[test]
fn run_report_round_trips_through_json() {
    let tel = isacmp::telemetry::global();
    run_cell(
        Workload::Lbm,
        IsaKind::AArch64,
        &Personality::gcc92(),
        SizeClass::Test,
    )
    .expect("cell measures");
    let report = RunReport::new("integration-test")
        .with_run(std::time::Duration::from_millis(12), 48_000, Some(0))
        .finish_from(tel);

    let text = report.to_json().pretty();
    let parsed = Json::parse(&text).expect("report JSON parses");
    let back = RunReport::from_json(&parsed).expect("report JSON maps back");
    assert_eq!(back.command, "integration-test");
    assert_eq!(back.retired, 48_000);
    assert_eq!(back.exit_code, Some(0));
    assert!((back.host_mips - report.host_mips).abs() < 1e-9);
    // The embedded span array must mention the cell we just ran.
    assert!(text.contains("cell:LBM/AArch64/gcc-9.2"));
    assert!(text.contains("instructions_retired"));
}

#[test]
fn clean_matrix_report_carries_every_cell_counter() {
    // No test in this binary fails a cell, so `cells_failed` must read 0 —
    // present, not absent, which is what a report reader keys on.
    let matrix = isacmp::run_matrix(SizeClass::Test);
    assert!(matrix.is_complete(), "{}", matrix.failure_summary());
    let report = RunReport::new("matrix").finish_from(isacmp::telemetry::global());
    let json = report.to_json();
    let counters = json
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .expect("counters");
    for name in ["cells_run", "cells_failed", "cell_retries"] {
        assert!(
            counters.get(name).is_some(),
            "{name} missing from {}",
            counters.pretty()
        );
    }
    assert_eq!(counters.get("cells_failed").and_then(Json::as_u64), Some(0));
    assert!(counters.get("cells_run").and_then(Json::as_u64) >= Some(20));
}
