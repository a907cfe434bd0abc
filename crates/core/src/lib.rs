#![warn(missing_docs)]
//! `isacmp` — the public API for reproducing "An Empirical Comparison of
//! the RISC-V and AArch64 Instruction Sets" (Weaver & McIntosh-Smith,
//! SC-W 2023).
//!
//! The facade wires the whole stack together:
//!
//! 1. a workload ([`Workload`]) is built as a loop-kernel IR program,
//! 2. a compiler personality ([`Personality`]) lowers it to real machine
//!    code for an ISA ([`IsaKind`]),
//! 3. the single-cycle emulation core executes the binary while analysis
//!    observers stream over the retirement trace,
//! 4. results land in an [`ExperimentCell`] / [`ResultMatrix`] with
//!    formatters for every table and figure in the paper.
//!
//! # Quickstart
//!
//! ```
//! use isacmp::{run_cell, IsaKind, Personality, SizeClass, Workload};
//!
//! let cell = run_cell(Workload::Stream, IsaKind::RiscV, &Personality::gcc122(), SizeClass::Test)
//!     .expect("cell measures");
//! println!("path length = {}", cell.path_length);
//! println!("ILP = {:.0}", cell.ilp());
//! assert!(cell.critical_path <= cell.path_length);
//! ```
//!
//! # Fault tolerance
//!
//! [`run_cell`] returns a typed [`CellError`] instead of panicking, and
//! [`run_matrix`] degrades gracefully: a failed cell becomes an
//! `ERR(<kind>)` entry in a partial [`ResultMatrix`] while the other cells
//! still measure. [`CellOptions`]/[`MatrixOptions`] add per-cell wall-clock
//! watchdogs, bounded retries, and deterministic fault injection
//! ([`FaultPlan`]) for proving all of that works.

mod campaign;
mod error;
mod journal;
pub mod pool;
mod reference;
mod tracecache;

pub use campaign::CampaignManifest;
pub use error::{
    CellError, CellOptions, CellSelector, InjectSpec, MatrixOptions, MAX_CELL_RETRIES,
};
pub use journal::{read_journal, CellJournal, JournalContents, JOURNAL_SCHEMA};
pub use pool::{PoolStats, ShardPool};
pub use reference::ReferenceMemo;
pub use trace::{TraceError, TraceMeta, TraceReader, TraceSummary, TraceWriter};
pub use tracecache::{cell_meta, replay_cell, trace_path};

use analysis::FusedCriticalPath;
pub use analysis::{
    runtime_ms, CellAnalyses, CellFailure, CpComposition, CpResult, DepDistance, DualCriticalPath,
    ExperimentCell, FusedCell, InstMix, PathLength, ResultMatrix, WindowStats, WindowedCp,
    CLOCK_GHZ, PAPER_WINDOW_SIZES,
};
pub use fusion::{FusionPass, FusionReport, PairKind};
pub use isa_aarch64::AArch64Executor;
pub use isa_riscv::RiscVExecutor;
pub use kernelgen::{compile, interpret, Compiled, KernelProgram, Personality, ReferenceKey};
pub use simcore::{
    durable, host_mips, progress_interval, shutdown, Campaign, CampaignSpec, CampaignState,
    Checkpoint, CheckpointError, CpuState, EmulationCore, FaultKind, FaultPlan, InjectAction,
    InstGroup, IsaExecutor, IsaKind, Observer, Program, RegSet, RetiredInst, RunStats, Sample,
    SampleSnapshot, SimError, StopReason, TraceMark, DEFAULT_CAMPAIGN_WINDOW, DEFAULT_FAULT_SEED,
};
pub use telemetry;
pub use telemetry::{ProfilingObserver, RunReport};
pub use uarch::{
    BimodalPredictor, BranchStats, CacheConfig, CacheModel, CacheStats, GsharePredictor,
    InOrderCore, LatencyModel, OoOCore, PipelineConfig, PipelineStats, Tx2Latency, UnitLatency,
};
pub use workloads::{SizeClass, Workload};

/// ISA display label matching the paper's tables.
pub fn isa_label(isa: IsaKind) -> &'static str {
    match isa {
        IsaKind::AArch64 => "AArch64",
        IsaKind::RiscV => "RISC-V",
    }
}

/// Canonical `workload/ISA/compiler` cell label, matching the span names
/// (`cell:<label>`), the per-cell telemetry gauges (`cell_mips:<label>`),
/// and structured-event payloads.
fn cell_label(workload: Workload, isa: IsaKind, personality: &Personality) -> String {
    format!(
        "{}/{}/{}",
        workload.name(),
        isa_label(isa),
        personality.label()
    )
}

/// A fresh executor for `isa`: the one place that picks an ISA's
/// executor. Every runner builds its emulation core around one of these.
pub fn executor(isa: IsaKind) -> Box<dyn IsaExecutor> {
    match isa {
        IsaKind::RiscV => Box::new(RiscVExecutor::new()),
        IsaKind::AArch64 => Box::new(AArch64Executor::new()),
    }
}

/// Execute a compiled program, streaming retirements through `observers`,
/// with typed errors: load failures, guest faults, watchdog trips and
/// non-zero exits all come back as a [`CellError`] instead of a panic.
///
/// `deadline` attaches a wall-clock watchdog; `campaign` arms a fault
/// schedule (a lone [`FaultPlan`] is `Campaign::from(plan)`). The run
/// fires a clone, so `campaign`'s fired count reads the faults that fired.
pub fn try_execute(
    compiled: &Compiled,
    observers: &mut [&mut dyn Observer],
    deadline: Option<std::time::Duration>,
    campaign: Option<&Campaign>,
) -> Result<(CpuState, RunStats), CellError> {
    try_execute_inner(compiled, observers, deadline, campaign, None, false).map_err(|(e, _)| e)
}

/// The execution path behind [`try_execute`]: same typed errors,
/// but the failing machine state rides along with the error so callers
/// can snapshot it (watchdog-trip checkpoints need the state the guest
/// died in, not a fresh one). `budget` replaces the emulation core's
/// default instruction budget.
fn try_execute_inner(
    compiled: &Compiled,
    observers: &mut [&mut dyn Observer],
    deadline: Option<std::time::Duration>,
    campaign: Option<&Campaign>,
    budget: Option<u64>,
    heed_shutdown: bool,
) -> Result<(CpuState, RunStats), (CellError, Box<CpuState>)> {
    let _span = telemetry::global().enter("emulate");
    let mut st = CpuState::new();
    if let Err(e) = compiled.program.load(&mut st) {
        return Err((CellError::Load(e), Box::new(st)));
    }

    let mut core = EmulationCore::new(executor(compiled.program.isa));
    if let Some(b) = budget {
        core = core.with_budget(b);
    }
    if let Some(d) = deadline {
        core = core.with_deadline(d);
    }
    if let Some(c) = campaign {
        core = core.with_campaign(c.clone());
    }
    if heed_shutdown {
        core = core.with_shutdown();
    }
    let result = core.run(&mut st, observers);
    let stats = match result {
        Ok(stats) => stats,
        Err(err) => {
            let instret = st.instret;
            let e = match err {
                SimError::Interrupted { .. } => CellError::Interrupted { instret },
                err if err.is_watchdog() => CellError::Timeout { err, instret },
                err => CellError::Sim { err, instret },
            };
            return Err((e, Box::new(st)));
        }
    };
    if stats.exit_code != 0 {
        return Err((
            CellError::NonZeroExit {
                code: stats.exit_code,
            },
            Box::new(st),
        ));
    }
    telemetry::global().counter_add("instructions_retired", stats.retired);
    Ok((st, stats))
}

/// Execute a compiled program, streaming retirements through `observers`.
///
/// Returns the final CPU state and run statistics. Convenience wrapper
/// around [`try_execute`]: panics if the guest cannot load, faults, or
/// exits non-zero — tools that need to survive those use [`try_execute`].
pub fn execute(compiled: &Compiled, observers: &mut [&mut dyn Observer]) -> (CpuState, RunStats) {
    try_execute(compiled, observers, None, None)
        .unwrap_or_else(|e| panic!("execute({}): {e}", compiled.program.isa))
}

/// How many times its size class's longest clean path length a
/// fault-armed cell may retire; see [`faulted_budget`].
pub const FAULTED_BUDGET_FACTOR: u64 = 4;

/// The instruction budget of a cell with a fault campaign armed:
/// [`FAULTED_BUDGET_FACTOR`] times the longest clean path length at its
/// size, which `tests/golden/` pins (LBM, GCC 9.2, RISC-V at `test` and
/// `small`). A fault that sends the guest astray then fails the cell as an
/// `ERR(timeout)` budget trip in bounded time and memory. `None` at
/// `paper` size, whose clean matrix is not pinned: such cells keep
/// [`EmulationCore::DEFAULT_BUDGET`].
pub fn faulted_budget(size: SizeClass) -> Option<u64> {
    let longest = match size {
        SizeClass::Test => 63_681,
        SizeClass::Small => 2_079_349,
        SizeClass::Paper => return None,
    };
    Some(FAULTED_BUDGET_FACTOR * longest)
}

/// A cell's analysis bundle, plain or with the fusion axis armed. Either
/// form is one monomorphic observer; the choice is made once per cell.
/// The plain form stays inline: boxing it would move the unfused cells'
/// hot tables behind one more pointer.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Bundle {
    Plain(CellAnalyses),
    Fused(Box<CellAnalyses<FusedCriticalPath>>),
}

impl Bundle {
    pub(crate) fn new(isa: IsaKind, regions: &[simcore::Region], fusion: bool) -> Self {
        if fusion {
            Bundle::Fused(Box::new(CellAnalyses::fused(isa, regions)))
        } else {
            Bundle::Plain(CellAnalyses::new(regions))
        }
    }

    pub(crate) fn observer(&mut self) -> &mut dyn Observer {
        match self {
            Bundle::Plain(b) => b,
            Bundle::Fused(b) => b.as_mut(),
        }
    }

    pub(crate) fn into_cell(self, workload: &str, compiler: &str, isa: &str) -> ExperimentCell {
        match self {
            Bundle::Plain(b) => b.into_cell(workload, compiler, isa),
            Bundle::Fused(b) => b.into_cell(workload, compiler, isa),
        }
    }
}

/// One measurement attempt for a cell, with every failure mode typed.
///
/// When `opts.trace_dir` names a cache directory (and no fault is armed),
/// a matching capture is replayed instead of emulating, and a live run
/// captures its retirement stream for next time. The analyses themselves
/// are source-agnostic ([`CellAnalyses`]), so live and replayed
/// measurements are bit-identical.
///
/// `reference` is the memo of reference checksums the cell shares with
/// the rest of its run.
fn run_cell_attempt(
    workload: Workload,
    isa: IsaKind,
    personality: &Personality,
    size: SizeClass,
    opts: &CellOptions,
    reference: &ReferenceMemo,
) -> Result<ExperimentCell, CellError> {
    let tel = telemetry::global();
    // Tracing (capture and replay) only applies to clean measurement runs:
    // an injected-fault run is not reusable, and a replay cannot reproduce
    // the fault.
    let tracing = opts.trace_dir.as_ref().filter(|_| opts.campaign.is_none());
    if let Some(dir) = tracing {
        let path = tracecache::trace_path(dir, workload, personality, isa, size);
        if path.exists() {
            let trace = telemetry::Json::Str(path.display().to_string());
            match tracecache::replay_cell(&path, workload, personality, isa, size, opts.fusion) {
                Ok(Some(cell)) => return Ok(cell),
                // Stale provenance or format version: fall through and recapture.
                Ok(None) => {
                    tel.counter_add("trace_stale", 1);
                    tel.event("trace_stale", &[("path", trace)]);
                }
                // Damaged trace: count it, fall back to a live run.
                Err(e) => {
                    tel.counter_add("trace_replay_errors", 1);
                    tel.event(
                        "trace_replay_error",
                        &[
                            ("path", trace),
                            ("error", telemetry::Json::Str(e.to_string())),
                        ],
                    );
                }
            }
        }
    }

    // The builder and compiler report bugs by panicking; contain them to
    // this cell.
    let compiled_or = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let prog = workload.build(size);
        let compiled = tel.time("compile", || compile(&prog, isa, personality));
        (prog, compiled)
    }));
    let (prog, compiled) = compiled_or.map_err(|p| CellError::Compile {
        msg: error::panic_message(p),
    })?;

    // The bundle sees the exact stream the trace format carries, so a live
    // cell and a replayed one, fused or not, are byte-identical.
    let mut analyses = Bundle::new(isa, &compiled.program.regions, opts.fusion);
    // Capture goes to a `.tmp` sibling first; only a verified run renames
    // it into place, so the cache never holds a half-written file.
    let mut capture = match tracing {
        Some(dir) => {
            let meta = cell_meta(workload, personality, isa, size, &compiled.program.regions);
            let final_path = tracecache::trace_path(dir, workload, personality, isa, size);
            let tmp_path = final_path.with_extension("trace.tmp");
            let _ = std::fs::create_dir_all(dir);
            match TraceWriter::create(&tmp_path, &meta) {
                Ok(w) => Some((w, tmp_path, final_path)),
                Err(_) => {
                    // Unwritable cache dir: measure live, skip capture.
                    tel.counter_add("trace_capture_errors", 1);
                    None
                }
            }
        }
        None => None,
    };
    let (run_result, cell) = {
        let mut obs = vec![analyses.observer()];
        if let Some((w, _, _)) = capture.as_mut() {
            obs.push(w);
        }
        // Arm the fault schedule fresh for this attempt; the shared fired
        // counter lets us account for injections even when the run dies.
        let armed = opts.armed_campaign();
        if let Some(c) = &armed {
            tel.counter_add("faults_scheduled", c.len() as u64);
        }
        let emu_start = std::time::Instant::now();
        // A fault can send the guest astray; its budget bounds the run's
        // time and the memory the guest and the analyses' tables grow to.
        let budget = armed.as_ref().and(faulted_budget(size));
        let run = try_execute_inner(
            &compiled,
            &mut obs,
            opts.deadline,
            armed.as_ref(),
            budget,
            opts.heed_shutdown,
        )
        .map_err(|(e, st)| {
            // A watchdog-tripped cell leaves a resumable snapshot behind:
            // the state it died in plus the armed schedule, so the slow
            // cell can be continued (`run_elf --restore`) rather than
            // re-run from scratch under a bigger deadline.
            if matches!(e, CellError::Timeout { .. }) {
                if let Some(dir) = &opts.checkpoint_dir {
                    write_timeout_snapshot(
                        dir,
                        workload,
                        personality,
                        isa,
                        size,
                        &st,
                        armed.as_ref(),
                    );
                }
            }
            e
        });
        drop(obs);
        // Package the measurements before verifying them, so that the
        // analyses' dependency tables are freed before the reference
        // interpreter allocates its arrays.
        let cell = analyses.into_cell(workload.name(), personality.label(), isa_label(isa));
        if let Some(c) = &armed {
            let fired = c.fired_count();
            tel.counter_add("faults_fired", fired);
            if fired > 0 {
                tel.event(
                    "faults_fired",
                    &[
                        (
                            "cell",
                            telemetry::Json::Str(cell_label(workload, isa, personality)),
                        ),
                        ("fired", telemetry::Json::Num(fired as f64)),
                        ("scheduled", telemetry::Json::Num(c.len() as f64)),
                    ],
                );
            }
        }
        let verified = run
            .map(|(st, stats)| (st, stats, emu_start.elapsed()))
            .and_then(|(st, stats, wall)| {
                // Cross-check the guest checksum against the reference
                // interpreter: every measured cell is also a correctness test,
                // and the gate that turns injected silent corruption into a
                // loud, typed failure.
                let _verify_span = tel.enter("verify");
                let expected = reference.checksum(workload, size, personality, || {
                    interpret(&prog, personality).checksum
                });
                let got =
                    st.mem
                        .read_f64(compiled.checksum_addr)
                        .map_err(|err| CellError::Sim {
                            err,
                            instret: st.instret,
                        })?;
                if got.to_bits() != expected.to_bits() {
                    return Err(CellError::ChecksumMismatch {
                        expected_bits: expected.to_bits(),
                        got_bits: got.to_bits(),
                    });
                }
                // Faults that fired yet left the measurement verifiably correct.
                if let Some(c) = &armed {
                    tel.counter_add("faults_survived", c.fired_count());
                }
                Ok((st, stats, wall))
            });
        (verified, cell)
    };
    match run_result {
        Ok((st, stats, wall)) => {
            // rvr-style host-cost attribution for every verified live run:
            // MIPS per cell as a gauge and ns-per-guest-op in a histogram.
            // These live only in telemetry — the matrix JSON stays
            // byte-identical between live and replayed runs.
            tel.gauge_set(
                &format!("cell_mips:{}", cell_label(workload, isa, personality)),
                stats.host_mips(),
            );
            if let Some(ns) = (stats.wall.as_nanos() as u64).checked_div(stats.retired) {
                tel.histogram_record("host_ns_per_op", ns);
            }
            // The run is verified: commit the capture into the cache
            // durably (fsync + rename + dir fsync), so a later crash can
            // never leave a torn trace under the final name.
            if let Some((w, tmp_path, final_path)) = capture.take() {
                let committed = w
                    .finish(st.state_hash(), wall)
                    .and_then(|_| durable::commit(&tmp_path, &final_path));
                match committed {
                    Ok(()) => tel.counter_add("trace_captures", 1),
                    Err(_) => {
                        tel.counter_add("trace_capture_errors", 1);
                        let _ = std::fs::remove_file(&tmp_path);
                    }
                }
            }
        }
        Err(e) => {
            if let Some((w, tmp_path, _)) = capture.take() {
                drop(w);
                let _ = std::fs::remove_file(&tmp_path);
            }
            return Err(e);
        }
    }

    Ok(cell)
}

/// Durably write a resumable snapshot of a watchdog-tripped cell:
/// `<dir>/<workload>-<compiler>-<isa>-<size>.ckpt`. Best-effort — a
/// snapshot failure is counted and logged, never escalated (the cell is
/// already being recorded as `ERR(timeout)`).
fn write_timeout_snapshot(
    dir: &std::path::Path,
    workload: Workload,
    personality: &Personality,
    isa: IsaKind,
    size: SizeClass,
    st: &CpuState,
    campaign: Option<&Campaign>,
) {
    let tel = telemetry::global();
    let _ = std::fs::create_dir_all(dir);
    let path = dir.join(format!(
        "{}-{}-{}-{}.ckpt",
        workload.name(),
        personality.label(),
        isa_label(isa),
        size.name()
    ));
    let ckpt = Checkpoint::capture(st, campaign, TraceMark::default());
    match ckpt.write(&path) {
        Ok(bytes) => {
            tel.counter_add("checkpoint_writes", 1);
            tel.counter_add("checkpoint_bytes", bytes);
            tel.event(
                "timeout_snapshot",
                &[
                    (
                        "cell",
                        telemetry::Json::Str(cell_label(workload, isa, personality)),
                    ),
                    ("path", telemetry::Json::Str(path.display().to_string())),
                    ("instret", telemetry::Json::Num(st.instret as f64)),
                ],
            );
        }
        Err(e) => {
            tel.counter_add("checkpoint_errors", 1);
            tel.event(
                "checkpoint_error",
                &[("error", telemetry::Json::Str(e.to_string()))],
            );
        }
    }
}

/// [`run_cell`] with explicit fault-tolerance options: a wall-clock
/// deadline, bounded retries for retryable failures, and (for testing the
/// harness itself) a deterministic injected fault schedule.
///
/// Telemetry counters: `cells_run`, `cells_failed`, `cell_retries`,
/// `watchdog_trips`, `faults_scheduled`, `faults_fired` (a targeted
/// fault's `faults_injected` is counted by [`MatrixOptions::cell_options`]).
pub fn run_cell_opts(
    workload: Workload,
    isa: IsaKind,
    personality: &Personality,
    size: SizeClass,
    opts: &CellOptions,
) -> Result<ExperimentCell, CellError> {
    run_cell_with_reference(
        workload,
        isa,
        personality,
        size,
        opts,
        &ReferenceMemo::new(),
    )
}

/// [`run_cell_opts`] for one cell of a larger run, which takes its
/// reference checksum from that run's `reference` memo: the cells of a
/// workload share one interpretation. The cell still checks its own guest
/// checksum against it.
pub fn run_cell_with_reference(
    workload: Workload,
    isa: IsaKind,
    personality: &Personality,
    size: SizeClass,
    opts: &CellOptions,
    reference: &ReferenceMemo,
) -> Result<ExperimentCell, CellError> {
    let tel = telemetry::global();
    let _cell_span = tel.enter(&format!(
        "cell:{}/{}/{}",
        workload.name(),
        isa_label(isa),
        personality.label()
    ));
    let cell_start = std::time::Instant::now();
    let max_retries = opts.effective_retries();
    let mut attempt = 0u32;
    loop {
        // Panics from the emulator or observers degrade to a typed,
        // per-cell error rather than unwinding through the worker pool.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_cell_attempt(workload, isa, personality, size, opts, reference)
        }))
        .unwrap_or_else(|p| {
            Err(CellError::Panic {
                msg: error::panic_message(p),
            })
        });
        match outcome {
            Ok(cell) => {
                tel.counter_add("cells_run", 1);
                tel.histogram_record("cell_wall_ms", cell_start.elapsed().as_millis() as u64);
                return Ok(cell);
            }
            Err(e) => {
                let label = telemetry::Json::Str(cell_label(workload, isa, personality));
                // A signal-interrupted cell is not a measurement failure:
                // no `cells_failed`, no retry — it simply was not run to
                // completion, and a resumed matrix re-attempts it.
                if matches!(e, CellError::Interrupted { .. }) {
                    tel.event("cell_interrupted", &[("cell", label)]);
                    return Err(e);
                }
                if matches!(e, CellError::Timeout { .. }) {
                    tel.counter_add("watchdog_trips", 1);
                    tel.event(
                        "watchdog_trip",
                        &[
                            ("cell", label.clone()),
                            ("detail", telemetry::Json::Str(e.to_string())),
                        ],
                    );
                }
                if e.retryable() && attempt < max_retries {
                    attempt += 1;
                    tel.counter_add("cell_retries", 1);
                    tel.event(
                        "cell_retry",
                        &[
                            ("cell", label),
                            ("attempt", telemetry::Json::Num(attempt as f64)),
                            ("kind", telemetry::Json::Str(e.kind().to_string())),
                        ],
                    );
                    continue;
                }
                tel.counter_add("cells_failed", 1);
                tel.event(
                    "cell_failed",
                    &[
                        ("cell", label),
                        ("kind", telemetry::Json::Str(e.kind().to_string())),
                        ("detail", telemetry::Json::Str(e.to_string())),
                    ],
                );
                return Err(e);
            }
        }
    }
}

/// Run the full measurement set for one (workload, ISA, compiler) cell:
/// path length (total + per kernel), critical path, TX2-scaled critical
/// path and the windowed critical path, in a single emulation pass.
pub fn run_cell(
    workload: Workload,
    isa: IsaKind,
    personality: &Personality,
    size: SizeClass,
) -> Result<ExperimentCell, CellError> {
    run_cell_opts(workload, isa, personality, size, &CellOptions::default())
}

/// Run the paper's full experiment matrix: all five workloads x
/// {GCC 9.2, GCC 12.2} x {AArch64, RISC-V}, cells in parallel on the
/// process-wide work-stealing shard pool ([`pool::global`]). Failed cells
/// degrade to [`ResultMatrix::failures`] entries; the other cells still
/// measure.
pub fn run_matrix(size: SizeClass) -> ResultMatrix {
    run_matrix_opts(&Workload::ALL, size, &MatrixOptions::default())
}

/// Run the matrix for a subset of workloads with fault-tolerance options
/// (per-cell deadline, retries, targeted fault injection).
pub fn run_matrix_opts(
    workloads: &[Workload],
    size: SizeClass,
    opts: &MatrixOptions,
) -> ResultMatrix {
    run_matrix_journaled(workloads, size, opts, None)
}

/// The paper's canonical cell order: workloads x {GCC 9.2, GCC 12.2} x
/// {AArch64, RISC-V}. Every matrix entry point — including the `isacmpd`
/// daemon's job planner — iterates combinations in this order, which is
/// what makes resumed, uninterrupted, and daemon-served matrices
/// byte-identical.
pub fn matrix_combos(workloads: &[Workload]) -> Vec<(Workload, Personality, IsaKind)> {
    workloads
        .iter()
        .flat_map(|&w| {
            [Personality::gcc92(), Personality::gcc122()]
                .into_iter()
                .flat_map(move |p| {
                    [IsaKind::AArch64, IsaKind::RiscV]
                        .into_iter()
                        .map(move |isa| (w, p, isa))
                })
        })
        .collect()
}

/// The `(workload, compiler, ISA)` labels a combination's records carry.
fn combo_labels(
    &(w, p, isa): &(Workload, Personality, IsaKind),
) -> (&'static str, &'static str, &'static str) {
    (w.name(), p.label(), isa_label(isa))
}

/// Does `matrix` hold a record, a cell or a failure, of this combination?
fn has_combo(matrix: &ResultMatrix, combo: &(Workload, Personality, IsaKind)) -> bool {
    let (w, c, i) = combo_labels(combo);
    matrix.has_record(w, c, i)
}

/// Is the combination these record labels name one of `combos`?
fn in_plan(combos: &[(Workload, Personality, IsaKind)], w: &str, c: &str, i: &str) -> bool {
    combos.iter().any(|k| combo_labels(k) == (w, c, i))
}

/// One combination's resolution, as [`record_outcome`] folds it: the
/// cell's own result, or the message of a panic that escaped the cell (or
/// of a lost worker).
pub type Outcome = Result<Result<ExperimentCell, CellError>, String>;

/// [`run_matrix_opts`] with a crash-safe [`CellJournal`]: each cell's
/// outcome is durably appended as it completes, before the worker moves
/// on, so a SIGKILL mid-matrix loses at most the cells still in flight.
/// When `opts.heed_shutdown` is set, SIGINT/SIGTERM drains the worker
/// pool gracefully: unstarted combos are skipped (returned matrix simply
/// lacks them) and interrupted cells are neither recorded nor journaled.
///
/// The journal rides in an `Arc` because cells run as `'static` tasks on
/// the process-wide [`pool::global`] shard pool (shared with the daemon),
/// not on a scoped per-call pool.
pub fn run_matrix_journaled(
    workloads: &[Workload],
    size: SizeClass,
    opts: &MatrixOptions,
    journal: Option<&std::sync::Arc<std::sync::Mutex<CellJournal>>>,
) -> ResultMatrix {
    let _span = telemetry::global().enter("matrix");
    let combos = matrix_combos(workloads);
    run_plan(&combos, &ResultMatrix::default(), size, opts, journal)
}

/// The one matrix driver behind every entry point: run, on the shared
/// pool, each of `combos` that `kept` holds no record of, journaling each
/// outcome as it completes, then [`assemble_matrix`] the kept records and
/// the fresh outcomes.
fn run_plan(
    combos: &[(Workload, Personality, IsaKind)],
    kept: &ResultMatrix,
    size: SizeClass,
    opts: &MatrixOptions,
    journal: Option<&std::sync::Arc<std::sync::Mutex<CellJournal>>>,
) -> ResultMatrix {
    let missing: Vec<_> = combos
        .iter()
        .filter(|c| !has_combo(kept, c))
        .copied()
        .collect();
    let mut ran = run_combos(&missing, size, opts, journal, &Default::default()).into_iter();
    let outcomes = combos
        .iter()
        .map(|c| {
            if has_combo(kept, c) {
                None
            } else {
                ran.next().flatten()
            }
        })
        .collect();
    assemble_matrix(combos, kept, outcomes, opts.retries)
}

/// Assemble a matrix: `combos` in order, each from `kept`'s record of it
/// or else from its slot in `outcomes` (folded by [`record_outcome`]),
/// then `kept`'s records of combinations outside `combos`, at the end. A
/// combo with neither was skipped by a shutdown; it is missing from the
/// journal too, so the next resume runs it.
///
/// Public because the `isacmpd` daemon assembles served matrices through
/// this exact fold; it (plus [`matrix_combos`] order) is what makes fresh,
/// continued, healed and daemon-served matrices byte-identical.
pub fn assemble_matrix(
    combos: &[(Workload, Personality, IsaKind)],
    kept: &ResultMatrix,
    outcomes: Vec<Option<Outcome>>,
    retries_asked: u32,
) -> ResultMatrix {
    let mut matrix = ResultMatrix::default();
    for (combo, outcome) in combos.iter().zip(outcomes) {
        let (w, c, i) = combo_labels(combo);
        if let Some(cell) = kept.get(w, c, i) {
            matrix.cells.push(cell.clone());
        } else if let Some(f) = kept.get_failure(w, c, i) {
            matrix.failures.push(f.clone());
        } else if let Some(outcome) = outcome {
            record_outcome(&mut matrix, w, c, i, outcome, retries_asked);
        }
    }
    for c in &kept.cells {
        if !in_plan(combos, &c.workload, &c.compiler, &c.isa) {
            matrix.cells.push(c.clone());
        }
    }
    for f in &kept.failures {
        if !in_plan(combos, &f.workload, &f.compiler, &f.isa) {
            matrix.failures.push(f.clone());
        }
    }
    matrix
}

/// Run a set of combinations on the shared shard pool, journaling each
/// outcome as it completes. `None` slots are combos never started because
/// a shutdown was requested. Tasks own everything they touch (combos are
/// `Copy`, options are cloned per cell, the journal and `reference` are
/// `Arc`-shared), so they can outlive this stack frame on the persistent
/// pool — though `run_batch` in fact blocks until every slot resolves.
/// `reference` is the run's memo of reference checksums; every matrix
/// entry point passes a fresh one, so no run reuses another's.
fn run_combos(
    combos: &[(Workload, Personality, IsaKind)],
    size: SizeClass,
    opts: &MatrixOptions,
    journal: Option<&std::sync::Arc<std::sync::Mutex<CellJournal>>>,
    reference: &std::sync::Arc<ReferenceMemo>,
) -> Vec<Option<Outcome>> {
    // A matrix report always carries the cell counters, so a clean run
    // reads `cells_failed: 0` instead of lacking the key.
    let tel = telemetry::global();
    for name in ["cells_run", "cells_failed", "cell_retries"] {
        tel.counter_add(name, 0);
    }
    let tasks: Vec<Box<dyn FnOnce() -> Result<ExperimentCell, CellError> + Send>> = combos
        .iter()
        .map(|&(w, p, isa)| {
            let cell_opts = opts.cell_options(w.name(), p.label(), isa_label(isa));
            let journal = journal.cloned();
            let reference = std::sync::Arc::clone(reference);
            Box::new(move || {
                run_journaled_cell(w, isa, &p, size, &cell_opts, &reference, journal.as_deref())
            }) as Box<dyn FnOnce() -> Result<ExperimentCell, CellError> + Send>
        })
        .collect();
    pool::global().run_batch(tasks, opts.heed_shutdown)
}

/// Run one cell and journal its outcome: the task every matrix entry
/// point puts on the shared pool. Public because the `isacmpd` daemon
/// runs the cells it computes through exactly this task, so daemon-written
/// journals are indistinguishable from `make_tables` ones.
pub fn run_journaled_cell(
    workload: Workload,
    isa: IsaKind,
    personality: &Personality,
    size: SizeClass,
    opts: &CellOptions,
    reference: &ReferenceMemo,
    journal: Option<&std::sync::Mutex<CellJournal>>,
) -> Result<ExperimentCell, CellError> {
    let outcome = run_cell_with_reference(workload, isa, personality, size, opts, reference);
    journal_outcome(
        journal,
        workload.name(),
        personality.label(),
        isa_label(isa),
        &outcome,
        opts.retries,
    );
    outcome
}

/// Lock a run's journal, whatever a panicking holder left behind.
fn lock_journal(journal: &std::sync::Mutex<CellJournal>) -> std::sync::MutexGuard<'_, CellJournal> {
    journal
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Count and log a journal append that failed. Journal I/O failures are
/// never escalated — the in-memory matrix still carries the outcome.
fn journal_error(io: std::io::Error) {
    let tel = telemetry::global();
    tel.counter_add("journal_errors", 1);
    tel.event(
        "journal_error",
        &[("error", telemetry::Json::Str(io.to_string()))],
    );
}

/// Durably append one completed cell outcome to the journal (if one is
/// attached). Interrupted cells are deliberately *not* journaled: the
/// absence of a record is what marks the combo for re-running on resume.
///
/// Public because the `isacmpd` daemon journals the cells it serves from
/// its cache through this path too, so each job's journal is complete.
pub fn journal_outcome(
    journal: Option<&std::sync::Mutex<CellJournal>>,
    workload: &str,
    compiler: &str,
    isa: &str,
    outcome: &Result<ExperimentCell, CellError>,
    retries_asked: u32,
) {
    let Some(journal) = journal else { return };
    let written = match outcome {
        Ok(cell) => lock_journal(journal).record_cell(cell),
        Err(CellError::Interrupted { .. }) => return,
        Err(e) => {
            // Mirror `record_outcome`'s retries accounting exactly, so a
            // journal-recovered failure is byte-identical to one recorded
            // by an uninterrupted run.
            let retries = if e.retryable() {
                retries_asked.min(MAX_CELL_RETRIES)
            } else {
                0
            };
            let f = e.to_failure(workload, compiler, isa, retries as u64);
            lock_journal(journal).record_failure(&f)
        }
    };
    if let Err(io) = written {
        journal_error(io);
    }
}

/// Fold one worker outcome into the matrix: a measured cell, a typed
/// failure, or (worst case) a panic that escaped even `run_cell`'s
/// catch_unwind / a lost worker — recorded, never fatal.
pub fn record_outcome(
    matrix: &mut ResultMatrix,
    workload: &str,
    compiler: &str,
    isa: &str,
    outcome: Outcome,
    retries_asked: u32,
) {
    match outcome {
        Ok(Ok(cell)) => matrix.cells.push(cell),
        // Interrupted is not an outcome: the cell was cut short by a
        // shutdown signal and will be re-attempted by a resumed run.
        Ok(Err(CellError::Interrupted { .. })) => {}
        Ok(Err(e)) => {
            let retries = if e.retryable() {
                retries_asked.min(MAX_CELL_RETRIES)
            } else {
                0
            };
            matrix
                .failures
                .push(e.to_failure(workload, compiler, isa, retries as u64));
        }
        Err(msg) => {
            let e = CellError::Panic { msg };
            matrix
                .failures
                .push(e.to_failure(workload, compiler, isa, 0));
        }
    }
}

/// Heal a finished-but-partial matrix: keep every measured cell from
/// `prior` and re-run only its recorded `failures` (in parallel, with
/// `opts`), in canonical order, so a healed matrix is byte-identical to a
/// never-faulted run. Failures whose labels this build cannot map to a
/// combination are carried forward unchanged at the end rather than
/// silently dropped.
///
/// Every kept record is journaled before the re-runs start, so a heal
/// killed midway continues from its journal ([`continue_matrix`]) with
/// nothing lost.
///
/// Telemetry counters: `cells_skipped` (prior healthy cells kept) and
/// `cells_resumed` (failed cells re-run).
pub fn resume_matrix(
    prior: &ResultMatrix,
    size: SizeClass,
    opts: &MatrixOptions,
    journal: Option<&std::sync::Arc<std::sync::Mutex<CellJournal>>>,
) -> ResultMatrix {
    let tel = telemetry::global();
    let _span = tel.enter("matrix_resume");
    let combos: Vec<_> = matrix_combos(&Workload::ALL)
        .into_iter()
        .filter(|c| has_combo(prior, c))
        .collect();
    let mut kept = prior.clone();
    kept.failures
        .retain(|f| !in_plan(&combos, &f.workload, &f.compiler, &f.isa));
    tel.counter_add("cells_skipped", kept.cells.len() as u64);
    tel.counter_add(
        "cells_resumed",
        (prior.failures.len() - kept.failures.len()) as u64,
    );
    if let Some(journal) = journal {
        let mut j = lock_journal(journal);
        let written = kept
            .cells
            .iter()
            .try_for_each(|c| j.record_cell(c))
            .and_then(|()| kept.failures.iter().try_for_each(|f| j.record_failure(f)));
        if let Err(io) = written {
            journal_error(io);
        }
    }
    run_plan(&combos, &kept, size, opts, journal)
}

/// Continue an interrupted matrix run from journal-recovered outcomes.
///
/// Unlike [`resume_matrix`] (which *heals* a finished-but-partial matrix
/// by re-running its failures), this is a strict continuation: every
/// recorded cell AND failure from `prior` is kept verbatim, and only the
/// combinations with no record at all are run. The result is assembled
/// in canonical matrix order, so a run that was SIGKILLed and resumed
/// produces a `matrix.json` byte-identical to one that was never
/// interrupted. Records whose labels this build cannot map to a known
/// combination are carried forward unchanged at the end.
///
/// Telemetry: counters `cells_skipped` / `cells_resumed` /
/// `journal_resumes`, event `journal_resume`.
pub fn continue_matrix(
    workloads: &[Workload],
    size: SizeClass,
    opts: &MatrixOptions,
    prior: &ResultMatrix,
    journal: Option<&std::sync::Arc<std::sync::Mutex<CellJournal>>>,
) -> ResultMatrix {
    let tel = telemetry::global();
    let _span = tel.enter("matrix_continue");
    let combos = matrix_combos(workloads);
    let recovered = (prior.cells.len() + prior.failures.len()) as u64;
    let remaining = combos.iter().filter(|c| !has_combo(prior, c)).count() as u64;
    tel.counter_add("cells_skipped", recovered);
    tel.counter_add("cells_resumed", remaining);
    tel.counter_add("journal_resumes", 1);
    tel.event(
        "journal_resume",
        &[
            ("recovered", telemetry::Json::Num(recovered as f64)),
            ("remaining", telemetry::Json::Num(remaining as f64)),
        ],
    );
    run_plan(&combos, prior, size, opts, journal)
}

/// Either pipeline flavour behind one observer interface, so the guest-run
/// plumbing below is written once.
enum AnyPipeline {
    InOrder(InOrderCore<Tx2Latency>),
    OoO(OoOCore<Tx2Latency>),
}

impl AnyPipeline {
    fn build(
        config: PipelineConfig,
        out_of_order: bool,
        dcache: Option<(CacheConfig, u64)>,
    ) -> Self {
        if out_of_order {
            let mut core = OoOCore::new(Tx2Latency, config);
            if let Some((cfg, penalty)) = dcache {
                core = core.with_dcache(cfg, penalty);
            }
            AnyPipeline::OoO(core)
        } else {
            let mut core = InOrderCore::new(Tx2Latency, config);
            if let Some((cfg, penalty)) = dcache {
                core = core.with_dcache(cfg, penalty);
            }
            AnyPipeline::InOrder(core)
        }
    }

    fn observer(&mut self) -> &mut dyn Observer {
        match self {
            AnyPipeline::InOrder(c) => c,
            AnyPipeline::OoO(c) => c,
        }
    }

    fn stats(&self) -> PipelineStats {
        match self {
            AnyPipeline::InOrder(c) => c.stats(),
            AnyPipeline::OoO(c) => c.stats(),
        }
    }
}

/// [`run_pipeline_full`] on an already compiled program, with typed errors
/// and the same fault hooks as the emulation path: the pipeline model is
/// one more observer of [`try_execute`]'s run, so a wall-clock deadline
/// and a fault [`Campaign`] apply to the pipeline-timed run exactly as
/// they do to the emulation path.
/// Returns the final architectural state alongside the timing stats so
/// differential tests can compare the two paths.
pub fn try_run_pipeline_full(
    compiled: &Compiled,
    config: PipelineConfig,
    out_of_order: bool,
    dcache: Option<(CacheConfig, u64)>,
    deadline: Option<std::time::Duration>,
    campaign: Option<&Campaign>,
) -> Result<(CpuState, PipelineStats), CellError> {
    let _span = telemetry::global().enter("pipeline");
    let mut core = AnyPipeline::build(config, out_of_order, dcache);
    let (st, _) = try_execute(compiled, &mut [core.observer()], deadline, campaign)?;
    Ok((st, core.stats()))
}

/// Run a workload through a trace-driven pipeline model (experiment E7,
/// the paper's Future Work). `dcache` optionally attaches an L1D model:
/// `(geometry, miss penalty in cycles)`. Convenience wrapper around
/// [`try_run_pipeline_full`]; panics on guest failure.
pub fn run_pipeline_full(
    workload: Workload,
    isa: IsaKind,
    personality: &Personality,
    size: SizeClass,
    config: PipelineConfig,
    out_of_order: bool,
    dcache: Option<(CacheConfig, u64)>,
) -> PipelineStats {
    let compiled = compile(&workload.build(size), isa, personality);
    try_run_pipeline_full(&compiled, config, out_of_order, dcache, None, None)
        .map(|(_, stats)| stats)
        .unwrap_or_else(|e| panic!("run_pipeline_full({}): {e}", isa_label(isa)))
}

/// [`run_pipeline_full`] with ideal (single-cycle-hit) memory — the
/// configuration matching the paper's assumptions.
pub fn run_pipeline(
    workload: Workload,
    isa: IsaKind,
    personality: &Personality,
    size: SizeClass,
    config: PipelineConfig,
    out_of_order: bool,
) -> PipelineStats {
    run_pipeline_full(workload, isa, personality, size, config, out_of_order, None)
}

/// Disassemble the instructions of a named kernel region (the paper's §3.3
/// listing-level analysis). Returns `(pc, text)` pairs.
pub fn disassemble_region(compiled: &Compiled, region: &str) -> Vec<(u64, String)> {
    let program = &compiled.program;
    let mut st = CpuState::new();
    if let Err(e) = program.load(&mut st) {
        // A listing tool shouldn't panic: surface the reason in-band.
        return vec![(0, format!("<load failed: {e}>"))];
    }
    let exec = executor(program.isa);
    let mut out = Vec::new();
    for r in program.regions.iter().filter(|r| r.name == region) {
        for pc in (r.start..r.end).step_by(4) {
            let text = match st.mem.read_u32(pc) {
                Ok(word) => exec.disassemble(word),
                Err(_) => "<unmapped>".to_string(),
            };
            out.push((pc, text));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_cell_invariants() {
        let cell = run_cell(
            Workload::Stream,
            IsaKind::RiscV,
            &Personality::gcc122(),
            SizeClass::Test,
        )
        .expect("healthy cell measures");
        assert!(cell.critical_path <= cell.path_length);
        assert!(cell.scaled_cp >= cell.critical_path);
        assert!(cell.ilp() >= 1.0);
        let kernel_sum: u64 = cell.kernels.iter().map(|(_, c)| c).sum();
        assert!(kernel_sum <= cell.path_length);
        assert!(!cell.windows.is_empty());
    }

    #[test]
    fn disassembly_of_stream_copy() {
        let prog = Workload::Stream.build(SizeClass::Test);
        let c = compile(&prog, IsaKind::AArch64, &Personality::gcc122());
        let listing = disassemble_region(&c, "copy");
        assert!(!listing.is_empty());
        let text: String = listing.iter().map(|(_, t)| format!("{t}\n")).collect();
        // The paper's Listing 1 register-offset idiom must appear.
        assert!(
            text.contains("lsl #3"),
            "expected register-offset addressing:\n{text}"
        );
        assert!(text.contains("b.ne"), "loop back edge:\n{text}");
    }

    #[test]
    fn matrix_runs_one_workload() {
        let m = run_matrix_opts(
            &[Workload::Stream],
            SizeClass::Test,
            &MatrixOptions::default(),
        );
        assert_eq!(m.cells.len(), 4);
        assert!(
            m.is_complete(),
            "no failures expected: {}",
            m.failure_summary()
        );
        assert!(m.get("STREAM", "gcc-9.2", "AArch64").is_some());
        assert!(m.table1().contains("STREAM"));
    }

    #[test]
    fn injected_trap_degrades_one_cell() {
        let inject = InjectSpec::parse("STREAM/gcc-12.2/RISC-V:trap@1000").unwrap();
        let opts = MatrixOptions {
            inject: Some(inject),
            ..Default::default()
        };
        let m = run_matrix_opts(&[Workload::Stream], SizeClass::Test, &opts);
        assert_eq!(m.cells.len(), 3, "three healthy cells still measure");
        assert_eq!(m.failures.len(), 1);
        let f = m
            .get_failure("STREAM", "gcc-12.2", "RISC-V")
            .expect("targeted cell failed");
        assert_eq!(f.kind, "sim");
        assert!(f.detail.contains("injected fault"), "detail: {}", f.detail);
        assert!(
            m.table1().contains("ERR(sim)"),
            "table renders the failed cell"
        );
    }

    #[test]
    fn zero_deadline_times_out() {
        let opts = CellOptions {
            deadline: Some(std::time::Duration::ZERO),
            ..Default::default()
        };
        let err = run_cell_opts(
            Workload::Stream,
            IsaKind::RiscV,
            &Personality::gcc122(),
            SizeClass::Test,
            &opts,
        )
        .expect_err("zero deadline must trip the watchdog");
        assert_eq!(err.kind(), "timeout");
    }

    #[test]
    fn a_matrix_interprets_once_per_workload() {
        let reference = std::sync::Arc::new(ReferenceMemo::new());
        let combos = matrix_combos(&Workload::ALL);
        let outcomes = run_combos(
            &combos,
            SizeClass::Test,
            &MatrixOptions::default(),
            None,
            &reference,
        );
        assert_eq!(outcomes.len(), 20);
        assert!(outcomes.iter().all(|o| matches!(o, Some(Ok(Ok(_))))));
        assert_eq!(reference.computed(), 5, "one checksum per workload, not 20");
    }

    #[test]
    fn canonical_combo_order_is_stable() {
        let combos = matrix_combos(&[Workload::Stream]);
        let labels: Vec<String> = combos
            .iter()
            .map(|(w, p, isa)| format!("{}/{}/{}", w.name(), p.label(), isa_label(*isa)))
            .collect();
        assert_eq!(
            labels,
            [
                "STREAM/gcc-9.2/AArch64",
                "STREAM/gcc-9.2/RISC-V",
                "STREAM/gcc-12.2/AArch64",
                "STREAM/gcc-12.2/RISC-V",
            ]
        );
    }
}
