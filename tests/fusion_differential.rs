//! Differential test for the macro-op fusion pass: a fusion report computed
//! during live emulation and one computed by replaying the captured trace
//! must be byte-identical — the pass sees only `RetiredInst` fields, which
//! is exactly what the trace format carries. Also pins the cache-separation
//! contract: fused and unfused cells share trace files (traces are
//! fusion-independent) but never share results, and checks the fused
//! bundle the cells use against the merged-stream `FusionPass`.

use std::sync::{Mutex, MutexGuard};

use isacmp::{
    compile, matrix_combos, run_cell_opts, run_matrix_opts, try_execute, CellAnalyses, CellOptions,
    FusionPass, IsaKind, MatrixOptions, Observer, Personality, RetiredInst, SizeClass, Workload,
};

/// Every test in this binary holds this lock: the trace counters they
/// assert deltas of are process-global, so a sibling test running
/// concurrently would bump them mid-measurement.
static COUNTERS: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A failed sibling poisons the lock; it guards no data, so carry on.
    COUNTERS.lock().unwrap_or_else(|e| e.into_inner())
}

fn fused_opts(dir: &std::path::Path) -> MatrixOptions {
    MatrixOptions {
        trace_dir: Some(dir.to_path_buf()),
        fusion: true,
        ..Default::default()
    }
}

#[test]
fn replayed_fusion_reports_match_live_byte_identically() {
    let _serial = serial();
    let dir = std::env::temp_dir().join(format!("isacmp-fusion-replay-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let tel = isacmp::telemetry::global();

    let captures_before = tel.counter("trace_captures");
    let live = run_matrix_opts(&Workload::ALL, SizeClass::Test, &fused_opts(&dir));
    assert!(
        live.is_complete(),
        "live fused matrix must be clean:\n{}",
        live.failure_summary()
    );
    assert_eq!(tel.counter("trace_captures") - captures_before, 20);
    assert!(
        live.has_fused(),
        "fusion: true must populate every cell's fused block"
    );

    let replays_before = tel.counter("trace_replays");
    let replayed = run_matrix_opts(&Workload::ALL, SizeClass::Test, &fused_opts(&dir));
    assert!(
        replayed.is_complete(),
        "replay must be clean:\n{}",
        replayed.failure_summary()
    );
    assert_eq!(tel.counter("trace_replays") - replays_before, 20);

    // The fused artifacts, byte for byte: the comparison table, the per-pair
    // CSV, and fig1 with its effective-path columns.
    assert_eq!(live.fusion_table(), replayed.fusion_table());
    assert_eq!(live.fusion_csv(), replayed.fusion_csv());
    assert_eq!(live.fig1_csv(), replayed.fig1_csv());
    // And the full per-cell reports, through the JSON round-trip the daemon
    // and the journal both use.
    assert_eq!(live.to_json(), replayed.to_json());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fused_and_unfused_cells_share_traces_but_not_results() {
    let _serial = serial();
    let dir = std::env::temp_dir().join(format!("isacmp-fusion-axis-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let tel = isacmp::telemetry::global();

    let cell = |fusion: bool| {
        let opts = CellOptions {
            trace_dir: Some(dir.clone()),
            fusion,
            ..Default::default()
        };
        run_cell_opts(
            Workload::Stream,
            IsaKind::RiscV,
            &Personality::gcc122(),
            SizeClass::Test,
            &opts,
        )
        .expect("cell must run")
    };

    // Unfused capture first; the fused run must *replay* the same trace —
    // the fusion axis changes results, never the captured stream.
    let unfused = cell(false);
    let replays_before = tel.counter("trace_replays");
    let fused = cell(true);
    assert_eq!(
        tel.counter("trace_replays") - replays_before,
        1,
        "a fused run must reuse the unfused run's trace"
    );

    assert!(
        unfused.fused.is_none(),
        "fusion off must leave the cell's fused block empty"
    );
    let report = fused
        .fused
        .as_ref()
        .expect("fusion on must attach a report");
    assert_eq!(
        report.effective_path_length,
        fused.path_length - report.fused_pairs
    );
    assert!(
        report.fused_critical_path <= fused.critical_path,
        "fusing can only shorten the critical path"
    );

    // Every non-fused measurement must agree between the two cells: the
    // fusion observer rides alongside the baseline analyses, never in front
    // of them.
    let mut defused = fused.clone();
    defused.fused = None;
    assert_eq!(
        unfused, defused,
        "fusion must not perturb the baseline measurements"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// Collects the retired stream.
struct Capture(Vec<RetiredInst>);

impl Observer for Capture {
    fn on_retire(&mut self, ri: &RetiredInst) {
        self.0.push(*ri);
    }
}

#[test]
fn fused_bundle_equals_the_merged_stream_pass_on_every_test_cell() {
    for (w, p, isa) in matrix_combos(&Workload::ALL) {
        let compiled = compile(&w.build(SizeClass::Test), isa, &p);
        let mut capture = Capture(Vec::new());
        try_execute(&compiled, &mut [&mut capture], None, None).expect("clean cell");
        let regions = &compiled.program.regions;

        let mut bundle = CellAnalyses::fused(isa, regions);
        bundle.run(&mut &capture.0[..]).unwrap();
        let cell = bundle.into_cell(w.name(), p.label(), "isa");
        let mut pass = FusionPass::new(isa, regions);
        pass.consume(&mut &capture.0[..]).unwrap();
        assert_eq!(
            cell.fused,
            Some(pass.report().to_fused_cell()),
            "{}/{}/{isa:?}",
            w.name(),
            p.label()
        );
    }
}
