//! Regenerate every table and figure of the paper.
//!
//! ```sh
//! cargo run --release -p bench --bin make_tables -- all
//! cargo run --release -p bench --bin make_tables -- table1 --size small
//! ```
//!
//! Experiments: `table1`, `table2`, `fig1`, `fig2`, `ablation`, `pipeline`,
//! `all`. Figure data is written as CSV next to the printed tables; a full
//! JSON dump of the result matrix is written to `results/matrix.json`.
//!
//! Options (any experiment; an unknown flag, a flag missing its value or a
//! stray argument exits 2 with the usage text):
//! - `--metrics <path>`: write a structured telemetry report (per-stage
//!   span timings, counters, cell wall-time histogram, host MIPS) as JSON.
//! - `--progress[=N]`: emulation heartbeat on stderr every N retirements.
//! - `--events <path>`: drain the bounded structured event log (cell
//!   retries, watchdog trips, fault injections, trace-cache anomalies) to
//!   a JSONL file after the run.
//!
//! Fault tolerance (matrix experiments):
//! - `--strict`: exit 3 if any matrix cell failed (default: degrade to a
//!   partial matrix with `ERR(<kind>)` cells and exit 0).
//! - `--deadline-secs <s>`: per-cell wall-clock watchdog.
//! - `--retries <n>`: per-cell retries for retryable failures (default 1,
//!   hard-capped at 3).
//! - `--fusion`: arm the macro-op fusion pass as a third scenario axis
//!   (workload x compiler x ISA x fusion): every cell additionally
//!   reports per-pair-kind fusion counts and the effective (fused)
//!   dynamic path length. `table1`/`all` print the fused-vs-unfused
//!   comparison table, matrix runs write `results/fusion.csv`, and
//!   `results/fig1.csv` gains effective-count columns. Fused cells
//!   journal and resume separately from unfused ones; a shared
//!   `--trace-dir` serves both (traces are fusion-independent).
//! - `--inject <workload/compiler/isa:fault>`: deterministically inject a
//!   fault into matching cells, e.g. `STREAM/gcc-12.2/RISC-V:trap@1000`
//!   (fault grammar: `trap@N`, `fetch@N[:MASK]`, `read@N[:BIT]`).
//! - `--campaign <seed>:<n-faults>`: seeded multi-fault campaign injected
//!   into every cell; the sampled schedule is written to
//!   `results/campaign.json` for exact replay.
//! - `--resume <matrix.json>`: recover a prior run. If a cell journal
//!   (`results/matrix.journal.jsonl`) exists — i.e. the prior run was
//!   killed mid-matrix — every journaled outcome (cells *and* failures)
//!   is kept and only the unrecorded combinations run, re-arming any
//!   campaign from the journal's manifest; the finished matrix is
//!   byte-identical to an uninterrupted run. Otherwise the named matrix
//!   JSON is healed: cells kept, recorded failures re-run. Mutually
//!   exclusive with `--campaign`.
//!
//! Crash safety: matrix runs append each completed cell to
//! `results/matrix.journal.jsonl` (fsync per record) as they finish, so a
//! SIGKILL loses at most the cells in flight. SIGINT/SIGTERM drain the
//! worker pool gracefully, flush a partial `results/matrix.json`, keep the
//! journal, and exit 130. With `--deadline-secs`, a watchdog-tripped cell
//! leaves a resumable machine snapshot under `results/snapshots/` (see
//! `run_elf --restore`). All result files are written atomically and
//! durably (tmp + fsync + rename).
//!
//! Trace capture/replay (matrix experiments):
//! - `--trace-dir <dir>`: capture each cell's retired-instruction stream to
//!   `<dir>/{workload}-{compiler}-{isa}-{size}.trace` on the first run and
//!   replay the cached trace (no compile, no emulation) on later runs.
//!   Stale or corrupt traces fall back to a live run that recaptures.
//!   Ignored while `--inject`/`--campaign` are armed. The `--metrics`
//!   report carries `trace_replays`/`trace_captures` counters and a
//!   `trace_replay_speedup` gauge.

use std::fs;
use std::path::Path;
use std::sync::{Arc, Mutex};

use bench::{cli, experiments};
use isacmp::{
    compile, continue_matrix, durable, read_journal, resume_matrix, run_cell, run_matrix_journaled,
    run_matrix_opts, shutdown, CampaignManifest, CellJournal, ExperimentCell, IsaKind,
    JournalContents, MatrixOptions, Personality, ResultMatrix, SizeClass, Workload,
};

/// Where matrix runs journal completed cells for crash recovery. Fused
/// runs journal to a separate file: a fused and an unfused cell are
/// different measurements under different provenance keys, and a resume
/// must never splice one axis's outcomes into the other's matrix.
const JOURNAL_PATH: &str = "results/matrix.journal.jsonl";
const FUSED_JOURNAL_PATH: &str = "results/matrix-fused.journal.jsonl";

/// The crash journal for this run's scenario axis.
fn journal_path(fusion: bool) -> &'static str {
    if fusion {
        FUSED_JOURNAL_PATH
    } else {
        JOURNAL_PATH
    }
}

const USAGE: &str =
    "usage: make_tables [table1|table2|fig1|fig2|ablation|pipeline|mix|elves|check|all] \
     [--size test|small|paper] [--metrics out.json] [--events out.jsonl] [--progress[=N]] \
     [--strict] [--deadline-secs s] [--retries n] [--fusion] [--inject spec] \
     [--campaign seed:n] [--resume matrix.json] [--trace-dir dir]";

/// Flags taking a value, and bare flags (`--progress=` admits `--progress=N`).
const VALUED_FLAGS: [&str; 9] = [
    "--size",
    "--metrics",
    "--events",
    "--deadline-secs",
    "--retries",
    "--inject",
    "--campaign",
    "--resume",
    "--trace-dir",
];
const BARE_FLAGS: [&str; 4] = ["--strict", "--fusion", "--progress", "--progress="];

/// CLI parse failures are usage errors: report and exit 2.
fn or_usage<T>(r: Result<T, String>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

/// Build the matrix fault-tolerance options from the shared CLI grammar
/// (`bench::cli`). Also returns the sampled campaign manifest (when
/// `--campaign` is armed) so matrix runs can pin it into the cell
/// journal's `begin` record.
fn parse_matrix_opts(args: &[String]) -> (MatrixOptions, Option<CampaignManifest>) {
    let flags = or_usage(cli::MatrixFlags::parse(args));
    let mut campaign_manifest = None;
    let campaign = flags.campaign.map(|spec| {
        // Sample through the manifest so the schedule we inject is byte-
        // identical to the one recorded in results/campaign.json.
        let manifest = CampaignManifest::sample(spec);
        fs::create_dir_all("results").ok();
        write_out("results/campaign.json", manifest.to_json());
        eprintln!(
            "campaign: seed {:#x}, {} fault(s) per cell; manifest written to results/campaign.json",
            manifest.seed,
            manifest.specs.len()
        );
        let armed = or_usage(manifest.campaign());
        campaign_manifest = Some(manifest);
        armed
    });
    if let Some(dir) = &flags.trace_dir {
        fs::create_dir_all(dir).unwrap_or_else(|e| {
            eprintln!("cannot create trace dir {}: {e}", dir.display());
            std::process::exit(2);
        });
    }
    // Watchdog-tripped cells leave a resumable snapshot behind whenever a
    // deadline is armed.
    let checkpoint_dir = flags
        .deadline
        .map(|_| std::path::PathBuf::from("results/snapshots"));
    let opts = MatrixOptions {
        deadline: flags.deadline,
        retries: flags.retries,
        inject: flags.inject,
        campaign,
        trace_dir: flags.trace_dir,
        heed_shutdown: true,
        checkpoint_dir,
        fusion: flags.fusion,
    };
    (opts, campaign_manifest)
}

/// Atomic, durable write (tmp + fsync + rename) with an actionable
/// diagnostic instead of a panic: result files are never seen torn, even
/// across SIGKILL or power loss.
fn write_out(path: &str, contents: impl AsRef<[u8]>) {
    durable::durable_write(Path::new(path), contents.as_ref()).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    });
}

/// Measure one standalone cell (ablation rows); a failure here is fatal
/// but reported with its typed kind rather than a panic trace.
fn cell_or_die(w: Workload, isa: IsaKind, p: &Personality, size: SizeClass) -> ExperimentCell {
    run_cell(w, isa, p, size).unwrap_or_else(|e| {
        eprintln!(
            "ERR({}) {} on {}: {e}",
            e.kind(),
            w.name(),
            isacmp::isa_label(isa)
        );
        std::process::exit(1);
    })
}

/// How a `--resume` run recovers prior work: a crash journal (strict
/// continuation) or a finished-but-partial matrix JSON (healing).
enum ResumeSource {
    Journal(JournalContents),
    Matrix(ResultMatrix),
}

/// Open the cell journal for a matrix run, degrading to journal-less
/// operation (with a warning) if the path is unwritable. The journal is
/// `Arc`-shared because cells run as owned tasks on the process-wide
/// shard pool.
fn open_journal(
    jpath: &str,
    open: impl FnOnce() -> std::io::Result<CellJournal>,
) -> Option<Arc<Mutex<CellJournal>>> {
    match open() {
        Ok(j) => Some(Arc::new(Mutex::new(j))),
        Err(e) => {
            eprintln!("warning: cannot open {jpath}: {e} (running without crash journal)");
            None
        }
    }
}

fn matrix(
    size: SizeClass,
    opts: &MatrixOptions,
    manifest: Option<&CampaignManifest>,
    resume_from: Option<&ResumeSource>,
) -> ResultMatrix {
    fs::create_dir_all("results").ok();
    let total = 4 * Workload::ALL.len();
    let jpath = journal_path(opts.fusion);
    let m = match resume_from {
        Some(ResumeSource::Journal(j)) => {
            let done = j.matrix.cells.len() + j.matrix.failures.len();
            eprintln!(
                "resuming from journal: {done} recorded outcome(s) kept ({} cells, {} failures{}), {} cell(s) to run ...",
                j.matrix.cells.len(),
                j.matrix.failures.len(),
                if j.torn_tail { ", torn tail discarded" } else { "" },
                total.saturating_sub(done),
            );
            let journal = open_journal(jpath, || CellJournal::append_to(Path::new(jpath)));
            continue_matrix(&Workload::ALL, size, opts, &j.matrix, journal.as_ref())
        }
        Some(ResumeSource::Matrix(prior)) => {
            eprintln!(
                "resuming matrix: {} healthy cell(s) kept, {} failure(s) re-run ...",
                prior.cells.len(),
                prior.failures.len()
            );
            // The heal journals every record it keeps, so a crash mid-heal
            // is itself journal-resumable.
            let journal = open_journal(jpath, || {
                CellJournal::create(Path::new(jpath), size.name(), None)
            });
            resume_matrix(prior, size, opts, journal.as_ref())
        }
        None => {
            eprintln!("running the experiment matrix (5 workloads x 2 compilers x 2 ISAs) ...");
            let journal = open_journal(jpath, || {
                CellJournal::create(Path::new(jpath), size.name(), manifest)
            });
            run_matrix_journaled(&Workload::ALL, size, opts, journal.as_ref())
        }
    };
    if !m.is_complete() {
        eprint!(
            "{} of {} cells failed (degraded matrix):\n{}",
            m.failures.len(),
            m.cells.len() + m.failures.len(),
            m.failure_summary()
        );
    }
    write_out("results/matrix.json", m.to_json());
    if m.has_fused() {
        write_out("results/fusion.csv", m.fusion_csv());
        eprintln!("fusion pair counts written to results/fusion.csv");
    }
    if shutdown::requested() {
        eprintln!(
            "interrupted: partial matrix ({} of {total} cells) flushed to results/matrix.json; \
             journal kept at {jpath} — finish with `--resume results/matrix.json`",
            m.cells.len() + m.failures.len(),
        );
    } else {
        // The durable matrix.json now carries everything; the journal has
        // served its purpose.
        let _ = fs::remove_file(jpath);
    }
    m
}

fn ablation(size: SizeClass) -> String {
    // Experiment E6: toggle the paper's section 3.3 idioms one at a time.
    let mut out =
        String::from("Idiom ablation (STREAM, instruction counts; paper sections 3.3 and 7)\n");
    let base = Personality::gcc122();
    let mut post = base;
    post.arm_post_index = true;
    let mut noreg = base;
    noreg.arm_register_offset = false;
    let mut nofuse = base;
    nofuse.riscv_fused_compare_branch = false;
    let rows: [(&str, IsaKind, Personality); 5] = [
        ("AArch64 gcc-12.2 (register offset)", IsaKind::AArch64, base),
        (
            "AArch64 + post-index (paper's 'optimal')",
            IsaKind::AArch64,
            post,
        ),
        (
            "AArch64 - register offset (pointer bump)",
            IsaKind::AArch64,
            noreg,
        ),
        (
            "RISC-V gcc-12.2 (fused compare-branch)",
            IsaKind::RiscV,
            base,
        ),
        ("RISC-V - fused compare-branch", IsaKind::RiscV, nofuse),
    ];
    let baseline = cell_or_die(Workload::Stream, IsaKind::AArch64, &base, size).path_length as f64;
    for (label, isa, p) in rows {
        let cell = cell_or_die(Workload::Stream, isa, &p, size);
        out.push_str(&format!(
            "{label:<44} {:>12}  ({:+.1}% vs AArch64 gcc-12.2)\n",
            cell.path_length,
            (cell.path_length as f64 / baseline - 1.0) * 100.0
        ));
    }

    // The GCC-version mechanism (constant-offset folding) on the most
    // offset-heavy benchmark: minisweep's upwind stencil pays an address
    // add per non-canonical access when folding is off (GCC 9.2).
    out.push_str("\nOffset-folding ablation (minisweep, RISC-V)\n");
    let mut unfolded = Personality::gcc122();
    unfolded.fold_const_offsets = false;
    let folded_cell = cell_or_die(
        Workload::Minisweep,
        IsaKind::RiscV,
        &Personality::gcc122(),
        size,
    );
    let unfolded_cell = cell_or_die(Workload::Minisweep, IsaKind::RiscV, &unfolded, size);
    out.push_str(&format!(
        "{:<44} {:>12}\n{:<44} {:>12}  ({:+.1}%)\n",
        "folded offsets (gcc-12.2)",
        folded_cell.path_length,
        "unfolded offsets (gcc-9.2 mechanism)",
        unfolded_cell.path_length,
        (unfolded_cell.path_length as f64 / folded_cell.path_length as f64 - 1.0) * 100.0
    ));
    out
}

fn check(size: SizeClass, opts: &MatrixOptions) -> String {
    // Automated verification of the paper's qualitative findings (the
    // EXPERIMENTS.md tables, executable). Exit status reflects the verdict.
    let m = run_matrix_opts(&Workload::ALL, size, opts);
    if !m.is_complete() {
        eprint!(
            "shape checks need a complete matrix; {} cells failed:\n{}",
            m.failures.len(),
            m.failure_summary()
        );
        std::process::exit(1);
    }
    let mut out = String::from("Paper-shape checks (see EXPERIMENTS.md)\n");
    let mut ok = true;
    for (label, pass, detail) in experiments::shape_checks(&m) {
        out.push_str(&format!(
            "{} {:<58} {}\n",
            if pass { "PASS" } else { "FAIL" },
            label,
            detail
        ));
        ok &= pass;
    }
    out.push_str(if ok {
        "\nAll shape checks passed.\n"
    } else {
        "\nSHAPE CHECKS FAILED.\n"
    });
    if !ok {
        eprint!("{out}");
        std::process::exit(1);
    }
    out
}

fn main() {
    // Graceful interruption: SIGINT/SIGTERM raise a flag the retire loop
    // and worker pool poll, so an interrupted run flushes partial results
    // and keeps its journal instead of dying mid-write.
    shutdown::install();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let what = args.first().map(|s| s.as_str()).unwrap_or("all");
    if let Err(e) = cli::check_flags(args.get(1..).unwrap_or(&[]), &VALUED_FLAGS, &BARE_FLAGS) {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    }
    let size = or_usage(cli::parse_size(&args));
    let metrics_path = cli::flag_value(&args, "--metrics");
    // Reject contradictory flags before parse_matrix_opts samples (and
    // writes) a campaign manifest for a run that will never happen.
    if cli::has_flag(&args, "--campaign") && cli::has_flag(&args, "--resume") {
        eprintln!("--campaign and --resume are mutually exclusive");
        std::process::exit(2);
    }
    let (mut matrix_opts, campaign_manifest) = parse_matrix_opts(&args);
    let strict = cli::has_flag(&args, "--strict");
    let resume_src = cli::flag_value(&args, "--resume").map(|p| {
        // A surviving journal means the prior run was killed mid-matrix;
        // it supersedes the (older or partial) matrix JSON. The journal
        // consulted is the one for this run's scenario axis: a fused
        // resume never splices unfused outcomes in, and vice versa.
        let jpath = journal_path(matrix_opts.fusion);
        if Path::new(jpath).exists() {
            match read_journal(Path::new(jpath)) {
                Ok(j) => {
                    if j.size != size.name() {
                        eprintln!(
                            "journal at {jpath} was recorded at --size {}, this run asks --size {}; \
                             re-run with the matching size or delete the journal",
                            j.size,
                            size.name()
                        );
                        std::process::exit(2);
                    }
                    return ResumeSource::Journal(j);
                }
                Err(e) => {
                    eprintln!("cannot recover journal {jpath}: {e}");
                    eprintln!("delete it to resume from the matrix JSON instead");
                    std::process::exit(2);
                }
            }
        }
        let text = fs::read_to_string(&p).unwrap_or_else(|e| {
            eprintln!("cannot read {p}: {e}");
            std::process::exit(2);
        });
        let prior = ResultMatrix::from_json(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse {p}: {e}");
            std::process::exit(2);
        });
        ResumeSource::Matrix(prior)
    });
    // A journal-resumed campaign sweep re-arms the exact recorded
    // schedule from the begin record.
    if let Some(ResumeSource::Journal(j)) = &resume_src {
        if let Some(m) = &j.campaign {
            eprintln!(
                "campaign re-armed from journal: seed {:#x}, {} fault(s) per cell",
                m.seed,
                m.specs.len()
            );
            matrix_opts.campaign = Some(m.campaign().unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(2);
            }));
        }
    }
    cli::apply_progress_env(&args);

    let tel = isacmp::telemetry::global();
    let run_start = std::time::Instant::now();
    let main_span = tel.enter(what);

    // Failed matrix cells seen by any experiment this run; under
    // `--strict` they flip the exit code (after results and the metrics
    // report are written).
    let mut failed_cells = 0usize;
    let mut matrix = |size| {
        let m = matrix(
            size,
            &matrix_opts,
            campaign_manifest.as_ref(),
            resume_src.as_ref(),
        );
        failed_cells += m.failures.len();
        m
    };

    match what {
        "table1" => {
            let m = matrix(size);
            write_out("results/basicCPResult.txt", m.cp_result_txt(false));
            println!("{}", m.table1());
            if m.has_fused() {
                println!("{}", m.fusion_table());
            }
        }
        "table2" => {
            let m = matrix(size);
            write_out("results/scaledCPResult.txt", m.cp_result_txt(true));
            println!("{}", m.table2());
        }
        "fig1" => {
            let m = matrix(size);
            write_out("results/fig1.csv", m.fig1_csv());
            println!("{}", m.fig1_csv());
            eprintln!("written to results/fig1.csv");
        }
        "fig2" => {
            let m = matrix(size);
            write_out("results/fig2.csv", m.fig2_csv());
            write_out("results/fig2.gnuplot", m.fig2_gnuplot());
            write_out("results/windowAverages.txt", m.window_averages_txt());
            println!("{}", m.fig2_csv());
            eprintln!("written to results/fig2.csv (+ fig2.gnuplot, windowAverages.txt)");
        }
        "ablation" => println!("{}", ablation(size)),
        "elves" => {
            // Emit every (workload, compiler, ISA) binary as a static ELF —
            // the equivalent of the paper artifact's precompiled binaries.
            fs::create_dir_all("results/bin").unwrap_or_else(|e| {
                eprintln!("cannot create results/bin: {e}");
                std::process::exit(1);
            });
            for w in Workload::ALL {
                for p in [Personality::gcc92(), Personality::gcc122()] {
                    for (isa, tag) in [(IsaKind::AArch64, "aarch64"), (IsaKind::RiscV, "riscv64")] {
                        let c = compile(&w.build(size), isa, &p);
                        let path = format!(
                            "results/bin/{}-{}-{tag}.elf",
                            w.name().to_lowercase(),
                            p.label()
                        );
                        write_out(&path, c.program.to_elf());
                        println!("{path}");
                    }
                }
            }
        }
        "pipeline" => println!("{}", experiments::pipeline(size)),
        "mix" => println!("{}", experiments::mix(size)),
        "check" => println!("{}", check(size, &matrix_opts)),
        "all" => {
            let m = matrix(size);
            write_out("results/basicCPResult.txt", m.cp_result_txt(false));
            write_out("results/scaledCPResult.txt", m.cp_result_txt(true));
            println!("{}", m.table1());
            println!("{}", m.table2());
            if m.has_fused() {
                println!("{}", m.fusion_table());
            }
            write_out("results/fig1.csv", m.fig1_csv());
            write_out("results/fig2.csv", m.fig2_csv());
            write_out("results/fig2.gnuplot", m.fig2_gnuplot());
            write_out("results/windowAverages.txt", m.window_averages_txt());
            eprintln!(
                "figure data written to results/fig1.csv, fig2.csv, fig2.gnuplot, windowAverages.txt"
            );
            println!("{}", ablation(size));
            println!("{}", experiments::pipeline(size));
            println!("{}", experiments::mix(size));
        }
        other => {
            eprintln!("unknown experiment {other}\n{USAGE}");
            std::process::exit(2);
        }
    }

    drop(main_span);
    if let Some(path) = metrics_path {
        let retired = tel.counter("instructions_retired");
        let mut report = isacmp::RunReport::new(&format!("make_tables {}", args.join(" ")))
            .with_run(run_start.elapsed(), retired, None)
            .finish_from(tel);
        let (replays, captures) = (tel.counter("trace_replays"), tel.counter("trace_captures"));
        if replays + captures > 0 {
            let speedup = tel
                .metrics_snapshot()
                .gauge("trace_replay_speedup")
                .map(|s| format!(", replay speedup x{s:.1}"))
                .unwrap_or_default();
            report = report.note(&format!(
                "trace cache: {replays} replay(s), {captures} capture(s){speedup}"
            ));
        }
        report
            .write_file(std::path::Path::new(&path))
            .unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            });
        eprintln!("telemetry report written to {path} ({})", report.summary());
    }
    if let Some(path) = cli::flag_value(&args, "--events") {
        match tel.events().drain_to_file(std::path::Path::new(&path)) {
            Ok(0) => eprintln!("structured events: none emitted"),
            Ok(n) => eprintln!("structured events: {n} written to {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    // After all artifacts (results, metrics, events) are flushed, an
    // interrupted run reports the conventional SIGINT exit status.
    if shutdown::requested() {
        eprintln!(
            "interrupted by signal; partial results flushed (exit {})",
            shutdown::EXIT_INTERRUPTED
        );
        std::process::exit(shutdown::EXIT_INTERRUPTED);
    }
    if strict && failed_cells > 0 {
        eprintln!("--strict: {failed_cells} matrix cell(s) failed");
        std::process::exit(3);
    }
}
