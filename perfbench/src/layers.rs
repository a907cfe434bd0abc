//! The traced run's per-layer timings: one cell at a time, on this thread,
//! each layer's public call timed alone over the same inputs the measured
//! phase uses. Analyses run over an in-memory capture of the retired
//! stream, so their cost is measured without emulation or trace decoding.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use isacmp::{
    cell_meta, compile, interpret, isa_label, replay_cell, run_cell_opts, trace_path, try_execute,
    CellAnalyses, CellOptions, DualCriticalPath, ExperimentCell, FusionPass, IsaKind, Observer,
    PathLength, Personality, RetiredInst, SizeClass, TraceReader, TraceWriter, Tx2Latency,
    WindowedCp, Workload,
};
use simcore::RetireSource;

/// Per-layer readings by metric name, summed over the cells profiled.
pub type Readings = BTreeMap<&'static str, f64>;

pub const SIZE: SizeClass = SizeClass::Small;

/// Run `f`, returning its result and its wall time in ms.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, ms(t.elapsed()))
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn add(r: &mut Readings, name: &'static str, v: f64) {
    *r.entry(name).or_insert(0.0) += v;
}

/// Collects the retired stream into memory: the capture the analyses are
/// then timed over.
struct Capture(Vec<RetiredInst>);

impl Observer for Capture {
    fn on_retire(&mut self, ri: &RetiredInst) {
        self.0.push(*ri);
    }
}

fn cell_err(w: Workload, isa: IsaKind, p: &Personality, what: impl std::fmt::Display) -> String {
    format!("{}/{}/{}: {what}", w.name(), isa_label(isa), p.label())
}

/// Time each analysis alone over `records`, then the whole bundle, and
/// return the bundle's cell for cross-checking.
fn time_analyses(
    r: &mut Readings,
    records: &[RetiredInst],
    regions: &[simcore::Region],
    labels: (&str, &str, &str),
) -> Result<ExperimentCell, String> {
    let sim = |e: simcore::SimError| e.to_string();
    // Each pass's state is handed to `black_box`, so none of the work
    // timed can be optimized away.
    let mut pl = PathLength::new(regions);
    let (res, t) = timed(|| pl.consume(&mut &records[..]));
    res.map_err(sim)?;
    std::hint::black_box(&pl);
    add(r, "analysis.path_length_ms", t);
    let mut cp = DualCriticalPath::new(Tx2Latency);
    let (res, t) = timed(|| cp.consume(&mut &records[..]));
    res.map_err(sim)?;
    std::hint::black_box(&cp);
    add(r, "analysis.dual_cp_ms", t);
    let mut windowed = WindowedCp::paper();
    let (res, t) = timed(|| windowed.consume(&mut &records[..]));
    res.map_err(sim)?;
    std::hint::black_box(&windowed);
    add(r, "analysis.windowed_ms", t);
    let mut bundle = CellAnalyses::new(regions);
    let (res, t) = timed(|| bundle.run(&mut &records[..]));
    res.map_err(sim)?;
    add(r, "analysis.bundle_ms", t);
    Ok(bundle.into_cell(labels.0, labels.1, labels.2))
}

/// One live cell, layer by layer: build, compile, the checksum
/// interpreter, bare emulation, emulation into a capture, each analysis,
/// and finally `run_cell_opts` itself, whose cell must equal the one the
/// separately timed analyses produced.
pub fn live_cell(
    r: &mut Readings,
    w: Workload,
    p: &Personality,
    isa: IsaKind,
) -> Result<(), String> {
    let err = |e: &dyn std::fmt::Display| cell_err(w, isa, p, e);
    let (prog, t) = timed(|| w.build(SIZE));
    add(r, "workloads.build_ms", t);
    let (compiled, t) = timed(|| compile(&prog, isa, p));
    add(r, "kernelgen.compile_ms", t);
    let (_, t) = timed(|| interpret(&prog, p));
    add(r, "kernelgen.interpret_ms", t);

    let (res, t) = timed(|| try_execute(&compiled, &mut [], None, None));
    let (_, stats) = res.map_err(|e| err(&e))?;
    add(r, "simcore.emulate_ms", t);
    add(r, "simcore.retired", stats.retired as f64);

    // Sized up front, so the timing holds no reallocation copies.
    let mut capture = Capture(Vec::with_capacity(stats.retired as usize));
    let (res, t) = timed(|| try_execute(&compiled, &mut [&mut capture], None, None));
    res.map_err(|e| err(&e))?;
    add(r, "simcore.record_ms", t);

    let labels = (w.name(), p.label(), isa_label(isa));
    let bundled = time_analyses(r, &capture.0, &compiled.program.regions, labels)?;
    drop(capture);

    let (cell, t) = timed(|| run_cell_opts(w, isa, p, SIZE, &CellOptions::default()));
    add(r, "core.cell_ms", t);
    if cell.map_err(|e| err(&e))? != bundled {
        return Err(err(
            &"run_cell_opts disagrees with the separately timed analyses",
        ));
    }
    Ok(())
}

/// One replayed cell, layer by layer: trace decode alone, a capture read
/// back from the trace, the trace writer over that capture, each analysis,
/// the fusion pass, and finally `replay_cell` itself, whose fused cell must
/// equal the one the separately timed passes produced.
pub fn replay_cell_layers(
    r: &mut Readings,
    dir: &Path,
    scratch: &Path,
    w: Workload,
    p: &Personality,
    isa: IsaKind,
) -> Result<(), String> {
    let err = |e: &dyn std::fmt::Display| cell_err(w, isa, p, e);
    let path = trace_path(dir, w, p, isa, SIZE);

    let mut reader = TraceReader::open(&path).map_err(|e| err(&e))?;
    let (res, t) = timed(|| reader.drive(&mut []));
    let records = res.map_err(|e| err(&e))?;
    add(r, "trace.read_ms", t);
    add(r, "trace.records", records as f64);

    let reader = TraceReader::open(&path).map_err(|e| err(&e))?;
    let regions = reader.meta().regions.clone();
    let capture: Vec<RetiredInst> = reader.collect::<Result<_, _>>().map_err(|e| err(&e))?;

    let copy = scratch.join("rewrite.trace");
    let meta = cell_meta(w, p, isa, SIZE, &regions);
    let (res, t) = timed(|| {
        let mut writer = TraceWriter::create(&copy, &meta)?;
        (&capture[..])
            .drive(&mut [&mut writer])
            .map_err(std::io::Error::other)?;
        writer.finish(0, Duration::ZERO)
    });
    let summary = res.map_err(|e| err(&e))?;
    let _ = std::fs::remove_file(&copy);
    add(r, "trace.write_ms", t);
    add(r, "trace.bytes", summary.bytes as f64);

    let labels = (w.name(), p.label(), isa_label(isa));
    let mut bundled = time_analyses(r, &capture, &regions, labels)?;

    let mut pass = FusionPass::new(isa, &regions);
    let (res, t) = timed(|| pass.consume(&mut &capture[..]));
    res.map_err(|e| err(&e))?;
    add(r, "fusion.pass_ms", t);
    let report = pass.report();
    add(r, "fusion.fused_pairs", report.fused_pairs as f64);
    add(r, "fusion.retired", report.total_retired as f64);
    bundled.fused = Some(report.to_fused_cell());
    drop(capture);

    let (cell, t) = timed(|| replay_cell(&path, w, p, isa, SIZE, true));
    add(r, "core.replay_cell_ms", t);
    match cell.map_err(|e| err(&e))? {
        Some(cell) if cell == bundled => Ok(()),
        Some(_) => Err(err(
            &"replay_cell disagrees with the separately timed passes",
        )),
        None => Err(err(&"trace provenance does not match the cell")),
    }
}

/// Cost of one `counter_add` on the process-wide registry while two
/// threads hammer it at once, in ns per call.
pub fn counter_add_ns() -> f64 {
    const CALLS: u32 = 200_000;
    let tel = isacmp::telemetry::global();
    let barrier = std::sync::Barrier::new(2);
    let per_thread: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    let t = Instant::now();
                    for _ in 0..CALLS {
                        tel.counter_add("perfbench_probe", 1);
                    }
                    t.elapsed().as_nanos() as f64 / CALLS as f64
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread panicked"))
            .collect()
    });
    per_thread.iter().sum::<f64>() / per_thread.len() as f64
}
