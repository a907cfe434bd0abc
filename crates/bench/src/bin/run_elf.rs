//! Run a statically linked ELF produced by `make_tables elves` (or any
//! simple static ELF in the supported subset) through the emulation core
//! and print the paper's metrics — the equivalent of the artifact's
//! "run all relevant (pre-compiled) binaries" step.
//!
//! ```sh
//! cargo run --release -p bench --bin make_tables -- elves --size small
//! cargo run --release -p bench --bin run_elf -- results/bin/stream-gcc-12.2-riscv64.elf
//! ```
//!
//! Options:
//! - `--metrics <path>`: write a structured [`telemetry::RunReport`]
//!   (stage spans, host MIPS, instruction-group mix, hot regions, and
//!   per-observer overhead attribution from one calibration run per
//!   observer) as JSON. Calibration runs never print heartbeats.
//! - `--trace-out <path>`: capture the retired-instruction stream to a
//!   compact binary `.trace` file (inspect with the `trace_tool` bin,
//!   replay through `make_tables --trace-dir`).
//! - `--spans-out <path>`: write the run's span tree as flamegraph-ready
//!   collapsed stacks (`stack;substack <self-us>` lines).
//! - `--sample[=PERIOD_US]`: attach the hot-block sampling profiler
//!   (default period 250 µs): a background thread attributes host wall
//!   time to guest PCs, printed as a top-N hot-block table, embedded in
//!   `--metrics`, and appended to `--spans-out` as `sampler;...` stacks.
//! - `--events <path>`: drain the structured event log (watchdog trips,
//!   fault injections, checkpoints, ...) to a JSON Lines file.
//! - `--progress[=N]`: heartbeat line on stderr every N retirements
//!   (default 50M); also honoured via `ISACMP_PROGRESS=N`.
//! - `--deadline-secs <s>`: wall-clock watchdog; a trip exits 124 and,
//!   when `--checkpoint` is set, leaves a resumable snapshot behind.
//! - `--inject <fault>`: deterministic fault injection (`trap@N`,
//!   `fetch@N[:MASK]`, `read@N[:BIT]`), armed as a campaign of one plan.
//! - `--campaign <seed>:<n>`: seeded multi-fault campaign (`n` sampled
//!   faults); mutually exclusive with `--inject`. Either way, the fired
//!   count is reported after the run.
//! - `--checkpoint <path>`: crash-safe snapshotting. The snapshot is
//!   written durably (tmp + fsync + rename) on SIGINT/SIGTERM (exit 130)
//!   and on a watchdog trip; add `--checkpoint-every <N>` to also write
//!   one every ~N retirements (rounded up to the retire loop's masked
//!   check interval, so snapshots land on trace-block boundaries).
//! - `--restore <path>`: resume from a snapshot. Mutually exclusive with
//!   `--inject`/`--campaign` — the armed fault schedule, fired flags and
//!   partial-trace position all come from the checkpoint. A restored run
//!   finishes with the same final state hash, trace bytes and analysis
//!   tables as one that was never interrupted.
//!
//! Exits with the guest's exit code (124 on a watchdog trip, 130 when
//! interrupted by SIGINT/SIGTERM).

use bench::cli;
use isacmp::telemetry::sampler::Sampler;
use isacmp::SampleSnapshot;
use isacmp::{
    executor, progress_interval, shutdown, Campaign, CampaignSpec, CellAnalyses, Checkpoint,
    CpuState, EmulationCore, FaultPlan, IsaKind, Observer, ProfilingObserver, Program, RunReport,
    RunStats, SimError, StopReason, TraceMark, TraceMeta, TraceReader, TraceWriter,
    DEFAULT_CAMPAIGN_WINDOW,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Publish stride for `--sample`: one `(pc, instret)` publish every 2^8 =
/// 256 retirements — ~70 µs apart at 3.7 MIPS, well under the sampling
/// period, for a few atomic stores per thousand instructions.
const SAMPLE_LOG2_STRIDE: u32 = 8;

/// Exit code for a watchdog trip, matching the `timeout(1)` convention.
const EXIT_TIMEOUT: i32 = 124;

/// The file-backed tracer variant the checkpoint plumbing handles.
type FileTracer = TraceWriter<std::io::BufWriter<std::fs::File>>;

struct Args {
    elf: String,
    metrics: Option<String>,
    trace_out: Option<String>,
    spans_out: Option<String>,
    sample: Option<Duration>,
    events: Option<String>,
    progress: Option<u64>,
    deadline: Option<Duration>,
    inject: Option<FaultPlan>,
    campaign: Option<Campaign>,
    checkpoint: Option<String>,
    checkpoint_every: Option<u64>,
    restore: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut elf = None;
    let mut metrics = None;
    let mut trace_out = None;
    let mut spans_out = None;
    let mut sample = None;
    let mut events = None;
    let mut progress = None;
    let mut deadline = None;
    let mut inject = None;
    let mut campaign = None;
    let mut checkpoint = None;
    let mut checkpoint_every = None;
    let mut restore = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        if a == "--metrics" {
            metrics = Some(it.next().ok_or("--metrics needs a path")?);
        } else if a == "--sample" {
            sample = Some(Sampler::DEFAULT_PERIOD);
        } else if let Some(us) = a.strip_prefix("--sample=") {
            let us: u64 = us
                .parse()
                .map_err(|_| format!("bad --sample period {us:?}"))?;
            sample = Some(Duration::from_micros(us));
        } else if a == "--events" {
            events = Some(it.next().ok_or("--events needs a path")?);
        } else if a == "--trace-out" {
            trace_out = Some(it.next().ok_or("--trace-out needs a path")?);
        } else if a == "--spans-out" {
            spans_out = Some(it.next().ok_or("--spans-out needs a path")?);
        } else if a == "--progress" {
            progress = Some(1);
        } else if let Some(n) = a.strip_prefix("--progress=") {
            progress = Some(
                n.parse::<u64>()
                    .map_err(|_| format!("bad --progress value {n:?}"))?,
            );
        } else if a == "--deadline-secs" {
            let s = it.next().ok_or("--deadline-secs needs a value")?;
            deadline = Some(cli::deadline_from_secs(&s)?);
        } else if a == "--inject" {
            let s = it.next().ok_or("--inject needs a fault spec")?;
            inject = Some(FaultPlan::parse(&s)?);
        } else if a == "--campaign" {
            let s = it.next().ok_or("--campaign needs <seed>:<n-faults>")?;
            let spec = CampaignSpec::parse(&s)?;
            campaign = Some(Campaign::sample(
                spec.seed,
                spec.n_faults,
                DEFAULT_CAMPAIGN_WINDOW,
            ));
        } else if a == "--checkpoint" {
            checkpoint = Some(it.next().ok_or("--checkpoint needs a path")?);
        } else if a == "--checkpoint-every" {
            let n = it
                .next()
                .ok_or("--checkpoint-every needs a retirement count")?;
            checkpoint_every = Some(
                n.parse::<u64>()
                    .map_err(|_| format!("bad --checkpoint-every value {n:?}"))?,
            );
        } else if a == "--restore" {
            restore = Some(it.next().ok_or("--restore needs a checkpoint path")?);
        } else if a.starts_with("--") {
            return Err(format!("unknown flag {a:?}"));
        } else if elf.is_none() {
            elf = Some(a);
        } else {
            return Err(format!("unexpected argument {a:?}"));
        }
    }
    if inject.is_some() && campaign.is_some() {
        return Err("--inject and --campaign are mutually exclusive".into());
    }
    if checkpoint_every.is_some() && checkpoint.is_none() {
        return Err("--checkpoint-every needs --checkpoint <path>".into());
    }
    if restore.is_some() && (inject.is_some() || campaign.is_some()) {
        return Err("--restore is mutually exclusive with --inject/--campaign \
             (the armed fault schedule comes from the checkpoint)"
            .into());
    }
    Ok(Args {
        elf: elf.ok_or(
            "usage: run_elf <binary.elf> [--metrics out.json] [--trace-out out.trace] \
             [--spans-out out.folded] [--sample[=PERIOD_US]] [--events out.jsonl] \
             [--progress[=N]] [--deadline-secs s] [--inject fault] [--campaign seed:n] \
             [--checkpoint out.ckpt [--checkpoint-every N]] [--restore in.ckpt]",
        )?,
        metrics,
        trace_out,
        spans_out,
        sample,
        events,
        progress,
        deadline,
        inject,
        campaign,
        checkpoint,
        checkpoint_every,
        restore,
    })
}

/// Drive one run segment: from the state's current position to guest
/// exit, the next checkpoint boundary, an error, or an interruption.
/// `progress` overrides the heartbeat interval the core takes from
/// `ISACMP_PROGRESS`.
#[allow(clippy::too_many_arguments)]
fn run_segment(
    isa: IsaKind,
    st: &mut CpuState,
    obs: &mut [&mut dyn Observer],
    progress: Option<u64>,
    deadline: Option<Duration>,
    campaign: Option<Campaign>,
    sample: Option<Arc<SampleSnapshot>>,
    checkpoint_every: Option<u64>,
    heed_shutdown: bool,
) -> Result<RunStats, SimError> {
    let mut core = EmulationCore::new(executor(isa));
    if let Some(n) = progress {
        core = core.with_progress(n);
    }
    if let Some(d) = deadline {
        core = core.with_deadline(d);
    }
    if let Some(c) = campaign {
        core = core.with_campaign(c);
    }
    if let Some(s) = sample {
        core = core.with_sampling(s, SAMPLE_LOG2_STRIDE);
    }
    if let Some(n) = checkpoint_every {
        core = core.with_checkpoint_every(n);
    }
    if heed_shutdown {
        core = core.with_shutdown();
    }
    core.run(st, obs)
}

/// Durably snapshot the paused machine (plus the armed campaign and the
/// partial-trace position) to `path`. The tracer, if any, is flushed and
/// fdatasync'd first so the bytes the mark points at survive a SIGKILL.
fn write_checkpoint(
    path: &str,
    st: &CpuState,
    campaign: Option<&Campaign>,
    tracer: Option<&mut FileTracer>,
) -> Result<Checkpoint, String> {
    let mark = match tracer {
        Some(t) => {
            t.sync_all()
                .map_err(|e| format!("cannot sync trace file: {e}"))?;
            TraceMark {
                records: t.records(),
                blocks: t.blocks(),
                bytes: t.bytes_written(),
            }
        }
        None => TraceMark::default(),
    };
    let ckpt = Checkpoint::capture(st, campaign, mark);
    let bytes = ckpt
        .write(std::path::Path::new(path))
        .map_err(|e| format!("cannot write checkpoint {path}: {e}"))?;
    let tel = isacmp::telemetry::global();
    tel.counter_add("checkpoint_writes", 1);
    tel.counter_add("checkpoint_bytes", bytes);
    tel.event(
        "checkpoint_written",
        &[
            ("path", isacmp::telemetry::Json::Str(path.to_string())),
            ("instret", isacmp::telemetry::Json::Num(st.instret as f64)),
            ("bytes", isacmp::telemetry::Json::Num(bytes as f64)),
        ],
    );
    eprintln!(
        "checkpoint: {path} at {} retirements ({bytes} bytes)",
        st.instret
    );
    Ok(ckpt)
}

fn report_fired(campaign: Option<&Campaign>) {
    if let Some(c) = campaign {
        eprintln!(
            "campaign: {} of {} scheduled fault(s) fired",
            c.fired_count(),
            c.len()
        );
        isacmp::telemetry::global().counter_add("faults_fired", c.fired_count());
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let path = &args.elf;
    let bytes = std::fs::read(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    });
    let program = Program::from_elf(&bytes).unwrap_or_else(|e| {
        eprintln!("cannot parse {path}: {e}");
        std::process::exit(1);
    });

    let tel = isacmp::telemetry::global();
    let mut analyses = CellAnalyses::new(&program.regions);
    let mut profile = ProfilingObserver::new(&program.regions);

    // Ad-hoc ELF runs are not matrix cells, so the provenance header names
    // the file rather than a (workload, compiler, size) triple.
    let trace_meta = TraceMeta {
        workload: std::path::Path::new(path)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "elf".into()),
        compiler: "elf".into(),
        isa: isacmp::isa_label(program.isa).to_string(),
        size: "elf".into(),
        regions: program.regions.clone(),
    };

    let checkpointing = args.checkpoint.is_some();
    let mut st = CpuState::new();
    let mut tracer: Option<FileTracer> = None;
    // The armed fault schedule this process drives (`--inject` is a
    // one-plan campaign). A fresh clone goes into the core each segment;
    // clones share the fired counter, and per-plan fired flags are
    // reconstructed deterministically at each checkpoint boundary, so
    // pausing never re-arms a fired fault.
    let mut campaign: Option<Campaign> = None;

    if let Some(ckpt_path) = &args.restore {
        let ckpt = Checkpoint::read(std::path::Path::new(ckpt_path)).unwrap_or_else(|e| {
            eprintln!("cannot read checkpoint {ckpt_path}: {e}");
            std::process::exit(1);
        });
        st = ckpt.restore_state().unwrap_or_else(|e| {
            eprintln!("cannot restore state from {ckpt_path}: {e}");
            std::process::exit(1);
        });
        campaign = ckpt.campaign.as_ref().map(|cs| {
            cs.rearm().unwrap_or_else(|e| {
                eprintln!("cannot re-arm campaign from {ckpt_path}: {e}");
                std::process::exit(1);
            })
        });
        if ckpt.trace.records > 0 {
            // The trace prefix *is* the serialized observer state: replay
            // it through the fresh analysis observers, then truncate to the
            // marked block boundary and keep appending.
            let trace_path = args.trace_out.as_deref().unwrap_or_else(|| {
                eprintln!(
                    "--restore of a traced checkpoint needs --trace-out <path> \
                     (the partial capture to continue)"
                );
                std::process::exit(2);
            });
            let _span = tel.enter("restore_replay");
            let mut reader =
                TraceReader::open(std::path::Path::new(trace_path)).unwrap_or_else(|e| {
                    eprintln!("cannot open trace {trace_path}: {e}");
                    std::process::exit(1);
                });
            {
                let mut obs: [&mut dyn Observer; 2] = [&mut analyses, &mut profile];
                let mut fed = 0u64;
                while fed < ckpt.trace.records {
                    match reader.next() {
                        Some(Ok(ri)) => {
                            for o in obs.iter_mut() {
                                o.on_retire(&ri);
                            }
                            fed += 1;
                        }
                        Some(Err(e)) => {
                            eprintln!("cannot replay trace prefix from {trace_path}: {e}");
                            std::process::exit(1);
                        }
                        None => {
                            eprintln!(
                                "trace {trace_path} ends after {fed} records; \
                                 checkpoint expects {}",
                                ckpt.trace.records
                            );
                            std::process::exit(1);
                        }
                    }
                }
            }
            tracer = Some(
                TraceWriter::resume(
                    std::path::Path::new(trace_path),
                    ckpt.trace.records,
                    ckpt.trace.blocks,
                    ckpt.trace.bytes,
                )
                .unwrap_or_else(|e| {
                    eprintln!("cannot resume trace {trace_path}: {e}");
                    std::process::exit(1);
                }),
            );
        } else if args.trace_out.is_some() {
            eprintln!(
                "checkpoint {ckpt_path} was taken without a trace; a capture started now \
                 would only cover the tail of the run — drop --trace-out or restart"
            );
            std::process::exit(2);
        } else {
            eprintln!(
                "note: checkpoint has no trace, so analysis observers restart at zero; \
                 the final machine state is still exact"
            );
        }
        tel.counter_add("checkpoint_restores", 1);
        tel.event(
            "checkpoint_restored",
            &[
                ("path", isacmp::telemetry::Json::Str(ckpt_path.clone())),
                ("instret", isacmp::telemetry::Json::Num(ckpt.instret as f64)),
                (
                    "trace_records",
                    isacmp::telemetry::Json::Num(ckpt.trace.records as f64),
                ),
            ],
        );
        eprintln!("restored: {ckpt_path} at {} retirements", st.instret);
        if let Some(c) = &campaign {
            eprintln!(
                "{} (restored, {} already fired)",
                c.describe(),
                c.fired_count()
            );
            tel.counter_add("faults_scheduled", c.len() as u64);
        }
    } else {
        program.load(&mut st).unwrap_or_else(|e| {
            eprintln!("cannot load {path}: {e}");
            std::process::exit(1);
        });
        tracer = args.trace_out.as_ref().map(|p| {
            TraceWriter::create(std::path::Path::new(p), &trace_meta).unwrap_or_else(|e| {
                eprintln!("cannot create trace file {p}: {e}");
                std::process::exit(1);
            })
        });
        if let Some(plan) = &args.inject {
            eprintln!("fault injection armed: {}", plan.describe());
            campaign = Some(plan.clone().into());
        }
        if let Some(c) = &args.campaign {
            eprintln!("{}", c.describe());
            for plan in c.plans() {
                eprintln!("  {}", plan.spec());
            }
            tel.counter_add("faults_scheduled", c.len() as u64);
            campaign = Some(c.clone());
        }
    }

    if checkpointing {
        shutdown::install();
    }

    // Start the sampler before the guest so the whole run is covered; it
    // stops (and its thread joins) immediately after, so the calibration
    // runs below are never sampled.
    let snapshot = args.sample.map(|_| Arc::new(SampleSnapshot::new()));
    let sampler = match (&snapshot, args.sample) {
        (Some(snap), Some(period)) => Some(Sampler::start(Arc::clone(snap), period)),
        _ => None,
    };

    let run_start = Instant::now();
    let mut total_wall = Duration::ZERO;
    let stats = loop {
        // The watchdog budget spans the whole run, not one segment.
        let remaining = args.deadline.map(|d| d.saturating_sub(run_start.elapsed()));
        let seg = {
            let _span = tel.enter("emulate");
            let mut obs: Vec<&mut dyn Observer> = vec![&mut analyses, &mut profile];
            if let Some(t) = tracer.as_mut() {
                obs.push(t);
            }
            run_segment(
                program.isa,
                &mut st,
                &mut obs,
                args.progress.map(progress_interval),
                remaining,
                campaign.clone(),
                snapshot.clone(),
                args.checkpoint_every,
                checkpointing,
            )
        };
        match seg {
            Ok(s) if s.stop == StopReason::CheckpointDue => {
                total_wall += s.wall;
                let ckpt_path = args
                    .checkpoint
                    .as_deref()
                    .expect("--checkpoint-every requires --checkpoint");
                match write_checkpoint(ckpt_path, &st, campaign.as_ref(), tracer.as_mut()) {
                    Ok(ckpt) => {
                        // Continue with the snapshot's own re-armed schedule
                        // — exactly what a restore would run — so a paused
                        // run and a resumed one stay in lockstep.
                        if let Some(cs) = &ckpt.campaign {
                            campaign = Some(cs.rearm().unwrap_or_else(|e| {
                                eprintln!("internal: checkpointed campaign does not re-arm: {e}");
                                std::process::exit(1);
                            }));
                        }
                    }
                    Err(msg) => {
                        eprintln!("{msg}");
                        std::process::exit(1);
                    }
                }
            }
            Ok(mut s) => {
                s.wall += total_wall;
                break s;
            }
            Err(err) => {
                report_fired(campaign.as_ref());
                let interrupted = matches!(err, SimError::Interrupted { .. });
                if interrupted || err.is_watchdog() {
                    if let Some(ckpt_path) = args.checkpoint.as_deref() {
                        if let Err(msg) =
                            write_checkpoint(ckpt_path, &st, campaign.as_ref(), tracer.as_mut())
                        {
                            eprintln!("{msg}");
                        }
                    }
                }
                if interrupted {
                    tel.event(
                        "run_interrupted",
                        &[
                            ("elf", isacmp::telemetry::Json::Str(path.clone())),
                            ("instret", isacmp::telemetry::Json::Num(st.instret as f64)),
                        ],
                    );
                    eprintln!("{err} (pc={:#x})", st.pc);
                    std::process::exit(shutdown::EXIT_INTERRUPTED);
                }
                eprintln!(
                    "guest fault: {err} (pc={:#x}, after {} retired instructions)",
                    st.pc, st.instret
                );
                if err.is_watchdog() {
                    std::process::exit(EXIT_TIMEOUT);
                }
                std::process::exit(1);
            }
        }
    };
    let hot_blocks = sampler.map(|s| s.stop().attribute(&program.regions));
    report_fired(campaign.as_ref());
    tel.counter_add("instructions_retired", stats.retired);

    println!("{path}");
    println!("  isa          : {}", program.isa);
    println!("  exit code    : {}", stats.exit_code);
    let cell = analyses.into_cell(&trace_meta.workload, "elf", &trace_meta.isa);
    println!("  path length  : {}", cell.path_length);
    println!(
        "  critical path: {}  (ILP {:.0}, 2GHz runtime {:.4} ms)",
        cell.critical_path,
        cell.ilp(),
        cell.runtime_ms()
    );
    println!(
        "  scaled CP    : {}  (ILP {:.0}, 2GHz runtime {:.4} ms)",
        cell.scaled_cp,
        cell.scaled_ilp(),
        cell.scaled_runtime_ms()
    );
    println!("  per kernel   :");
    for (name, count) in &cell.kernels {
        println!("    {name:<14} {count}");
    }
    println!("  windowed ILP :");
    for (size, mean_cp, mean_ilp) in &cell.windows {
        println!("    window {size:<6} mean CP {mean_cp:>10.2}  mean ILP {mean_ilp:>8.2}");
    }
    if !st.output.is_empty() {
        println!("  guest output : {:?}", st.output_string());
    }
    if let Some(hb) = &hot_blocks {
        for line in hb.table(10).lines() {
            println!("  {line}");
        }
    }

    if let (Some(t), Some(p)) = (tracer.take(), &args.trace_out) {
        match t.finish(st.state_hash(), stats.wall) {
            Ok(s) => println!(
                "  trace        : {p} ({} records, {} blocks, {} bytes)",
                s.records, s.blocks, s.bytes
            ),
            Err(e) => {
                eprintln!("cannot finalize trace file {p}: {e}");
                std::process::exit(1);
            }
        }
    }

    let mut report = RunReport::new(&format!("run_elf {path}"))
        .with_run(stats.wall, stats.retired, Some(stats.exit_code as u64))
        .with_profile(&profile);
    if let Some(hb) = &hot_blocks {
        report = report.with_sampler(hb);
    }

    if args.metrics.is_some() {
        // Calibration: time a bare observer-free run to establish raw
        // emulation speed, then one run per observer alone to attribute
        // the overhead observer by observer. All calibration runs are
        // deliberately watchdog-, fault- and heartbeat-free.
        let _span = tel.enter("calibrate");
        let bare_run = |obs: &mut Vec<&mut dyn Observer>| {
            let mut st = CpuState::new();
            program.load(&mut st).ok()?;
            run_segment(
                program.isa,
                &mut st,
                obs,
                Some(u64::MAX),
                None,
                None,
                None,
                None,
                false,
            )
            .ok()
            .map(|s| s.wall)
        };
        let bare = bare_run(&mut vec![]);
        if let Some(bare_wall) = bare.filter(|w| !w.is_zero()) {
            let pct_over = |wall: Duration| {
                ((wall.as_secs_f64() / bare_wall.as_secs_f64() - 1.0) * 100.0).max(0.0)
            };
            report.observer_overhead_pct = Some(pct_over(stats.wall));
            let solo: [(&str, &mut dyn Observer); 3] = [
                ("analyses", &mut CellAnalyses::new(&program.regions)),
                ("profile", &mut ProfilingObserver::new(&program.regions)),
                // The trace observer encodes into a sink: observer-side
                // cost only, no filesystem noise.
                ("trace_writer", &mut TraceWriter::sink(&trace_meta)),
            ];
            for (name, obs) in solo {
                if let Some(wall) = bare_run(&mut vec![obs]) {
                    report
                        .observer_overheads
                        .push((name.to_string(), pct_over(wall)));
                }
            }
        }
    }
    let report = report.finish_from(tel);
    if let Some(spans_path) = &args.spans_out {
        // Host spans and sampled guest time share one collapsed file: the
        // sampler frames live under their own `sampler;` root, so a
        // flamegraph renders both side by side.
        let mut collapsed = report.to_collapsed();
        if let Some(hb) = &hot_blocks {
            collapsed.push_str(&hb.to_collapsed());
        }
        std::fs::write(spans_path, collapsed).unwrap_or_else(|e| {
            eprintln!("cannot write {spans_path}: {e}");
            std::process::exit(1);
        });
        println!("  spans        : collapsed stacks written to {spans_path}");
    }
    if let Some(events_path) = &args.events {
        match tel
            .events()
            .drain_to_file(std::path::Path::new(events_path))
        {
            Ok(0) => println!("  events       : none emitted"),
            Ok(n) => println!("  events       : {n} written to {events_path}"),
            Err(e) => {
                eprintln!("cannot write {events_path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(metrics_path) = &args.metrics {
        report
            .write_file(std::path::Path::new(metrics_path))
            .unwrap_or_else(|e| {
                eprintln!("cannot write {metrics_path}: {e}");
                std::process::exit(1);
            });
        println!("  metrics      : written to {metrics_path}");
    }
    println!("  run          : {}", report.summary());

    std::process::exit(stats.exit_code as i32);
}
