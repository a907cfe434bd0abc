//! Fault tolerance end to end: an injected fault degrades exactly one
//! cell of the matrix while every other cell still measures, watchdogs
//! produce typed timeouts, and silent corruption is caught by the
//! checksum cross-check.

use std::sync::{Arc, Mutex, PoisonError};

use isacmp::{
    continue_matrix, read_journal, resume_matrix, run_cell_opts, run_matrix_opts, CellJournal,
    CellOptions, InjectSpec, IsaKind, MatrixOptions, Personality, ResultMatrix, SizeClass,
    Workload,
};

/// Heals and continuations add to the process-wide `cells_skipped` /
/// `cells_resumed` counters, whose deltas one test asserts: the tests that
/// heal or continue take turns.
static RESUME_COUNTERS: Mutex<()> = Mutex::new(());

#[test]
fn injected_fault_degrades_one_cell_and_spares_the_rest() {
    let inject = InjectSpec::parse("STREAM/gcc-12.2/RISC-V:trap@1000").unwrap();
    let opts = MatrixOptions {
        inject: Some(inject),
        ..Default::default()
    };
    let m = run_matrix_opts(&[Workload::Stream, Workload::Lbm], SizeClass::Test, &opts);

    assert_eq!(m.cells.len(), 7, "seven healthy cells measured");
    assert_eq!(m.failures.len(), 1, "exactly the targeted cell failed");
    assert!(!m.is_complete());
    let f = m
        .get_failure("STREAM", "gcc-12.2", "RISC-V")
        .expect("targeted failure recorded");
    assert_eq!(f.kind, "sim");
    assert!(f.detail.contains("injected fault"), "detail: {}", f.detail);
    // The healthy twin of the faulted cell is untouched.
    assert!(m.get("STREAM", "gcc-12.2", "AArch64").is_some());

    // Tables render the failure in place instead of dropping the run.
    let t1 = m.table1();
    assert!(
        t1.contains("ERR(sim)"),
        "table1 should mark the failed cell:\n{t1}"
    );
    assert!(t1.contains("LBM"), "unaffected workloads still render");

    // The failure record survives the JSON round trip.
    let back = ResultMatrix::from_json(&m.to_json()).unwrap();
    assert_eq!(back.failures.len(), 1);
    assert_eq!(back.failures[0].kind, "sim");
    assert_eq!(back.cells.len(), 7);
}

#[test]
fn resume_reruns_only_the_recorded_failures() {
    // Degrade one cell, round-trip the partial matrix through JSON (the
    // on-disk `results/matrix.json` shape), then resume without the fault:
    // only the failed cell re-runs, the seven healthy cells are kept
    // verbatim, and the healed matrix is complete.
    let inject = InjectSpec::parse("STREAM/gcc-12.2/RISC-V:trap@1000").unwrap();
    let opts = MatrixOptions {
        inject: Some(inject),
        ..Default::default()
    };
    let partial = run_matrix_opts(&[Workload::Stream, Workload::Lbm], SizeClass::Test, &opts);
    assert_eq!(partial.cells.len(), 7);
    assert_eq!(partial.failures.len(), 1);

    let prior = ResultMatrix::from_json(&partial.to_json()).expect("matrix round-trips");
    assert_eq!(
        prior.failures.len(),
        1,
        "failure record survives serialization"
    );

    let tel = isacmp::telemetry::global();
    let _turn = RESUME_COUNTERS
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let skipped0 = tel.counter("cells_skipped");
    let resumed0 = tel.counter("cells_resumed");
    let healed = resume_matrix(&prior, SizeClass::Test, &MatrixOptions::default(), None);
    assert_eq!(
        tel.counter("cells_skipped") - skipped0,
        7,
        "healthy cells kept, not re-run"
    );
    assert_eq!(
        tel.counter("cells_resumed") - resumed0,
        1,
        "only the failure re-ran"
    );

    assert!(
        healed.is_complete(),
        "resume heals the matrix: {}",
        healed.failure_summary()
    );
    assert_eq!(healed.cells.len(), 8);
    // The kept cells are the prior ones verbatim, and every healed cell
    // measures identically to a from-scratch never-faulted run.
    for old in &prior.cells {
        let kept = healed
            .get(&old.workload, &old.compiler, &old.isa)
            .expect("cell kept");
        assert_eq!(format!("{kept:?}"), format!("{old:?}"));
    }
    let fresh = run_matrix_opts(
        &[Workload::Stream, Workload::Lbm],
        SizeClass::Test,
        &MatrixOptions::default(),
    );
    assert_eq!(fresh.cells.len(), healed.cells.len());
    for cell in &fresh.cells {
        let healed_cell = healed
            .get(&cell.workload, &cell.compiler, &cell.isa)
            .expect("healed cell present");
        assert_eq!(
            format!("{healed_cell:?}"),
            format!("{cell:?}"),
            "healed cell identical to a never-faulted measurement"
        );
    }
    assert_eq!(healed.to_json(), fresh.to_json());
}

#[test]
fn resume_carries_unknown_labels_forward() {
    // A matrix produced by a build with more workloads than this one must
    // not lose its un-mappable failures on resume — they stay recorded.
    let inject = InjectSpec::parse("STREAM/gcc-12.2/RISC-V:trap@1000").unwrap();
    let opts = MatrixOptions {
        inject: Some(inject),
        ..Default::default()
    };
    let mut prior = run_matrix_opts(&[Workload::Stream], SizeClass::Test, &opts);
    prior.failures[0].workload = "NOT-A-WORKLOAD".into();

    let _turn = RESUME_COUNTERS
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let healed = resume_matrix(&prior, SizeClass::Test, &MatrixOptions::default(), None);
    assert_eq!(
        healed.failures.len(),
        1,
        "unknown label carried forward, not dropped"
    );
    assert_eq!(healed.failures[0].workload, "NOT-A-WORKLOAD");
    assert_eq!(
        healed.cells.len(),
        prior.cells.len(),
        "no cell re-ran for it"
    );
}

#[test]
fn a_healed_journal_continues_to_the_heals_bytes() {
    // A heal journals every record it keeps, the failures it carries
    // forward included, so continuing from its journal (as after a kill
    // mid-heal) loses none of them.
    let inject = InjectSpec::parse("STREAM/gcc-12.2/RISC-V:trap@1000").unwrap();
    let opts = MatrixOptions {
        inject: Some(inject),
        ..Default::default()
    };
    let mut prior = run_matrix_opts(&[Workload::Stream], SizeClass::Test, &opts);
    let mut foreign = prior.failures[0].clone();
    foreign.workload = "NOT-A-WORKLOAD".into();
    prior.failures.push(foreign);

    let dir = std::env::temp_dir().join(format!("heal-journal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("matrix.journal.jsonl");
    let journal = CellJournal::create(&path, SizeClass::Test.name(), None).unwrap();
    let journal = Arc::new(Mutex::new(journal));
    let _turn = RESUME_COUNTERS
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let healed = resume_matrix(
        &prior,
        SizeClass::Test,
        &MatrixOptions::default(),
        Some(&journal),
    );
    assert_eq!(healed.cells.len(), 4, "the mapped failure re-ran");
    assert_eq!(healed.failures.len(), 1, "the foreign failure rode along");
    drop(journal);

    let recovered = read_journal(&path).expect("journal reads back");
    let _ = std::fs::remove_dir_all(&dir);
    let continued = continue_matrix(
        &[Workload::Stream],
        SizeClass::Test,
        &MatrixOptions::default(),
        &recovered.matrix,
        None,
    );
    assert_eq!(continued.to_json(), healed.to_json());
}

#[test]
fn zero_deadline_is_a_typed_timeout() {
    let opts = CellOptions {
        deadline: Some(std::time::Duration::ZERO),
        ..Default::default()
    };
    let err = run_cell_opts(
        Workload::Stream,
        IsaKind::AArch64,
        &Personality::gcc122(),
        SizeClass::Test,
        &opts,
    )
    .expect_err("a zero wall-clock budget must trip the watchdog");
    assert_eq!(err.kind(), "timeout");
    assert!(
        !err.retryable(),
        "watchdog trips are deterministic; retrying wastes wall time"
    );
}

#[test]
fn read_corruption_is_caught_by_the_checksum() {
    // Flip an exponent bit of the 40th read: the guest runs to completion
    // but its checksum must disagree with the reference interpreter. (A
    // low mantissa bit could round away in the checksum reduction; bit 62
    // cannot.)
    let fault = isacmp::FaultPlan::parse("read@40:62").unwrap();
    let opts = CellOptions {
        campaign: Some(fault.into()),
        ..Default::default()
    };
    let err = run_cell_opts(
        Workload::Stream,
        IsaKind::RiscV,
        &Personality::gcc122(),
        SizeClass::Test,
        &opts,
    )
    .expect_err("a corrupted read must not produce the reference checksum");
    // Depending on which load the fault lands on, the guest either faults
    // outright or silently corrupts data; both must surface as errors.
    assert!(
        matches!(err.kind(), "checksum" | "sim"),
        "unexpected failure kind {}: {err}",
        err.kind()
    );
}

#[test]
fn retries_rerun_the_cell_and_are_capped() {
    // A deterministic injected fault fails every attempt: with N retries
    // the harness runs 1 + N attempts, then records a typed failure.
    let tel = isacmp::telemetry::global();
    let before = tel.counter("cell_retries");
    let fault = isacmp::FaultPlan::parse("trap@1000").unwrap();
    let opts = CellOptions {
        retries: 2,
        campaign: Some(fault.into()),
        ..Default::default()
    };
    let err = run_cell_opts(
        Workload::Stream,
        IsaKind::RiscV,
        &Personality::gcc122(),
        SizeClass::Test,
        &opts,
    )
    .expect_err("deterministic fault fails every retry");
    assert_eq!(err.kind(), "sim");
    assert_eq!(
        tel.counter("cell_retries") - before,
        2,
        "both granted retries were spent"
    );
}
