//! Bench-trajectory harness: run a pinned emulation suite, append a
//! schema-versioned entry to `BENCH_history.jsonl`, regenerate
//! `BENCH_baseline.json`, and compare against the previous entry.
//!
//! ```text
//! bench_report [--size test|small|paper] [--runs N] [--threshold PCT]
//!              [--history PATH] [--baseline PATH] [--strict]
//!              [--mips-scale F] [--host-ghz F] [--server-stats PATH]
//!              [--fusion | --fusion-baseline]
//! ```
//!
//! `--fusion` attaches the macro-op fusion pass as an observer to every
//! timed cell; `--fusion-baseline` attaches the analyses the pass drives
//! internally (`PathLength` + `DualCriticalPath`) *without* the fusion
//! machinery. Against a `--fusion-baseline` entry in the same history
//! file, a `--fusion` entry's geomean delta is exactly the increment the
//! fusion machinery itself adds (pending buffer, pair recognition,
//! merging) — the CI gate runs the two back to back and fails on a drop
//! beyond `--threshold`. (A bare run is the wrong baseline for that
//! question: it would charge the fusion pass for the critical-path
//! analysis it shares with every real cell run.)
//!
//! `--server-stats` merges a `load_driver --stats-out` report (jobs
//! served, cache hits, p50/p99 latency) into the history entry as a
//! `server` object and publishes the headline numbers as telemetry
//! gauges (`server_jobs_total`, `cache_hits`, `p99_latency_us`), so the
//! daemon's serving performance rides the same trajectory file as
//! emulation throughput.
//!
//! The suite is pinned: all five workloads x {RISC-V, AArch64} x gcc-12.2,
//! each cell emulated bare (no observers) `--runs` times with the best
//! (highest-MIPS) run kept. Per cell the report shows rvr-style normalized
//! columns alongside raw wall time: host nanoseconds per guest op, host
//! cycles per guest op (scaled by `--host-ghz`, default 3.0), and slowdown
//! versus the host-native kernel (the same `KernelProgram` run through
//! `kernelgen::interpret`). The geomean of per-cell MIPS is the headline
//! number compared against the previous history entry; a drop larger than
//! `--threshold` percent (default 20) is a regression. Report-only by
//! default; `--strict` exits 4 on regression. Malformed history entries
//! (wrong schema, missing fields) exit 2 in either mode.
//!
//! `--mips-scale` multiplies every measured MIPS value before recording —
//! a test hook so the regression detector can be exercised without
//! needing a genuinely slower build.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use isacmp::telemetry::Json;
use isacmp::{
    compile, interpret, isa_label, try_execute, Compiled, DualCriticalPath, FusionPass, IsaKind,
    Observer, PathLength, Personality, SizeClass, Tx2Latency, Workload,
};

/// What rides the retire loop of every timed run.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ObserverLoad {
    /// No observers: raw emulation throughput (the default suite).
    Bare,
    /// `PathLength` + `DualCriticalPath` — the analyses the fusion pass
    /// drives internally, without the fusion machinery.
    FusionBaseline,
    /// The full macro-op fusion pass.
    Fusion,
}

/// History schema version written and accepted by this binary.
const SCHEMA: u64 = 1;
/// Regression threshold (percent geomean-MIPS drop) when not overridden.
const DEFAULT_THRESHOLD_PCT: f64 = 20.0;
/// Best-of-N runs per cell when `--runs` is not given.
const DEFAULT_RUNS: u32 = 3;
/// Assumed host clock for the cycles-per-op column when `--host-ghz` is
/// not given.
const DEFAULT_HOST_GHZ: f64 = 3.0;

const EXIT_SCHEMA: u8 = 2;
const EXIT_REGRESSION: u8 = 4;

struct Args {
    size: SizeClass,
    runs: u32,
    threshold_pct: f64,
    history: PathBuf,
    baseline: PathBuf,
    strict: bool,
    mips_scale: f64,
    host_ghz: f64,
    server_stats: Option<PathBuf>,
    load: ObserverLoad,
}

fn usage() -> ! {
    eprintln!(
        "usage: bench_report [--size test|small|paper] [--runs N] [--threshold PCT]\n\
         \x20                   [--history PATH] [--baseline PATH] [--strict] [--mips-scale F]\n\
         \x20                   [--host-ghz F] [--server-stats PATH] [--fusion | --fusion-baseline]"
    );
    std::process::exit(1);
}

fn parse_args() -> Args {
    let mut args = Args {
        size: SizeClass::Small,
        runs: DEFAULT_RUNS,
        threshold_pct: DEFAULT_THRESHOLD_PCT,
        history: PathBuf::from("BENCH_history.jsonl"),
        baseline: PathBuf::from("BENCH_baseline.json"),
        strict: false,
        mips_scale: 1.0,
        host_ghz: DEFAULT_HOST_GHZ,
        server_stats: None,
        load: ObserverLoad::Bare,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("bench_report: {flag} needs a value");
                usage()
            })
        };
        match a.as_str() {
            "--size" => {
                args.size = bench::cli::size_from_name(&value("--size")).unwrap_or_else(|e| {
                    eprintln!("bench_report: {e}");
                    usage()
                })
            }
            "--runs" => {
                args.runs = value("--runs")
                    .parse::<u32>()
                    .ok()
                    .filter(|n| *n > 0)
                    .unwrap_or_else(|| {
                        eprintln!("bench_report: --runs needs a positive integer");
                        usage()
                    })
            }
            "--threshold" => {
                args.threshold_pct = value("--threshold")
                    .parse::<f64>()
                    .ok()
                    .filter(|t| t.is_finite() && *t >= 0.0)
                    .unwrap_or_else(|| {
                        eprintln!("bench_report: --threshold needs a non-negative percent");
                        usage()
                    })
            }
            "--history" => args.history = PathBuf::from(value("--history")),
            "--baseline" => args.baseline = PathBuf::from(value("--baseline")),
            "--server-stats" => args.server_stats = Some(PathBuf::from(value("--server-stats"))),
            "--strict" => args.strict = true,
            "--fusion" => args.load = ObserverLoad::Fusion,
            "--fusion-baseline" => args.load = ObserverLoad::FusionBaseline,
            "--mips-scale" => {
                args.mips_scale = value("--mips-scale")
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| {
                        eprintln!("bench_report: --mips-scale needs a positive number");
                        usage()
                    })
            }
            "--host-ghz" => {
                args.host_ghz = value("--host-ghz")
                    .parse::<f64>()
                    .ok()
                    .filter(|g| g.is_finite() && *g > 0.0)
                    .unwrap_or_else(|| {
                        eprintln!("bench_report: --host-ghz needs a positive number");
                        usage()
                    })
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("bench_report: unknown flag {other:?}");
                usage()
            }
        }
    }
    args
}

/// One measured suite cell: best-of-N bare emulation of a compiled kernel,
/// with rvr-style normalized columns.
struct CellResult {
    workload: &'static str,
    isa: &'static str,
    compiler: &'static str,
    retired: u64,
    wall_ms: f64,
    mips: f64,
    /// Host nanoseconds burned per retired guest instruction.
    host_ns_per_op: f64,
    /// `host_ns_per_op` scaled by the assumed host clock (`--host-ghz`).
    host_cycles_per_op: f64,
    /// Emulated wall over the host-native (`kernelgen::interpret`) wall
    /// for the same kernel; `None` when the native run was too fast to
    /// time at this size class.
    overhead_vs_native: Option<f64>,
}

impl CellResult {
    fn label(&self) -> String {
        format!("{}/{}/{}", self.workload, self.isa, self.compiler)
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("cell", Json::Str(self.label())),
            ("retired", Json::Num(self.retired as f64)),
            ("wall_ms", Json::Num(self.wall_ms)),
            ("mips", Json::Num(self.mips)),
            ("host_ns_per_op", Json::Num(self.host_ns_per_op)),
            ("host_cycles_per_op", Json::Num(self.host_cycles_per_op)),
        ];
        if let Some(x) = self.overhead_vs_native {
            fields.push(("overhead_vs_native", Json::Num(x)));
        }
        Json::obj(fields)
    }
}

#[allow(clippy::too_many_arguments)]
fn measure_cell(
    workload: Workload,
    isa: IsaKind,
    compiled: &Compiled,
    personality: &Personality,
    native_wall: Duration,
    runs: u32,
    mips_scale: f64,
    host_ghz: f64,
    load: ObserverLoad,
) -> Result<CellResult, String> {
    let mut best: Option<CellResult> = None;
    for _ in 0..runs {
        // Observers are built fresh per timed run so no run pays for a
        // previous run's accumulated state.
        let run = match load {
            ObserverLoad::Bare => try_execute(compiled, &mut [], None, None),
            ObserverLoad::FusionBaseline => {
                let mut pl = PathLength::new(&compiled.program.regions);
                let mut cp = DualCriticalPath::new(Tx2Latency);
                let mut obs: [&mut dyn Observer; 2] = [&mut pl, &mut cp];
                try_execute(compiled, &mut obs, None, None)
            }
            ObserverLoad::Fusion => {
                let mut pass = FusionPass::new(isa, &compiled.program.regions);
                let mut obs: [&mut dyn Observer; 1] = [&mut pass];
                try_execute(compiled, &mut obs, None, None)
            }
        };
        let (_, stats) = run.map_err(|e| format!("{}/{}: {e}", workload.name(), isa_label(isa)))?;
        let mips = stats.host_mips() * mips_scale;
        if best.as_ref().is_none_or(|b| mips > b.mips) {
            let wall_ns = stats.wall.as_secs_f64() * 1e9;
            let host_ns_per_op = if stats.retired > 0 {
                wall_ns / stats.retired as f64
            } else {
                0.0
            };
            let native_s = native_wall.as_secs_f64();
            best = Some(CellResult {
                workload: workload.name(),
                isa: isa_label(isa),
                compiler: personality.label(),
                retired: stats.retired,
                wall_ms: stats.wall.as_secs_f64() * 1e3,
                mips,
                host_ns_per_op,
                host_cycles_per_op: host_ns_per_op * host_ghz,
                overhead_vs_native: (native_s > 0.0).then(|| stats.wall.as_secs_f64() / native_s),
            });
        }
    }
    // `runs` is validated positive at parse time, so this is unreachable —
    // but a typed error beats a panic if that invariant ever slips.
    best.ok_or_else(|| format!("{}/{}: no runs completed", workload.name(), isa_label(isa)))
}

fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0f64, 0u32);
    for v in values {
        if v > 0.0 {
            log_sum += v.ln();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

/// A validated history entry (the fields the comparator needs).
struct Entry {
    timestamp: u64,
    size: String,
    geomean_mips: f64,
}

/// Parse and schema-check one history line. Any failure here is a schema
/// error: the file exists but this binary cannot trust its contents.
fn parse_entry(line: &str, lineno: usize) -> Result<Entry, String> {
    let at = |what: &str| format!("history line {lineno}: {what}");
    let j = Json::parse(line).map_err(|e| at(&format!("not valid JSON ({e})")))?;
    let schema = j
        .get("schema")
        .and_then(Json::as_u64)
        .ok_or_else(|| at("missing schema"))?;
    if schema != SCHEMA {
        return Err(at(&format!(
            "schema {schema} (this binary reads schema {SCHEMA})"
        )));
    }
    let geomean_mips = j
        .get("geomean_mips")
        .and_then(Json::as_f64)
        .filter(|m| m.is_finite() && *m >= 0.0)
        .ok_or_else(|| at("missing or invalid geomean_mips"))?;
    let timestamp = j
        .get("timestamp")
        .and_then(Json::as_u64)
        .ok_or_else(|| at("missing timestamp"))?;
    let size = j
        .get("size")
        .and_then(Json::as_str)
        .ok_or_else(|| at("missing size"))?
        .to_string();
    Ok(Entry {
        timestamp,
        size,
        geomean_mips,
    })
}

/// Load a `load_driver --stats-out` report and validate the fields this
/// binary republishes. Returns the parsed object for verbatim embedding
/// in the history entry.
fn read_server_stats(path: &std::path::Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let j = Json::parse(&text).map_err(|e| format!("{}: not valid JSON ({e})", path.display()))?;
    for field in ["server_jobs_total", "cache_hits", "p99_latency_us"] {
        j.get(field)
            .and_then(Json::as_f64)
            .filter(|v| v.is_finite() && *v >= 0.0)
            .ok_or_else(|| format!("{}: missing or invalid {field}", path.display()))?;
    }
    Ok(j)
}

/// Last entry in the history file, if any. `Ok(None)` when the file does
/// not exist yet (first run); `Err` on any malformed line.
fn read_last_entry(path: &std::path::Path) -> Result<Option<Entry>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    let mut last = None;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        last = Some(parse_entry(line, i + 1)?);
    }
    Ok(last)
}

fn main() -> ExitCode {
    let args = parse_args();
    let personality = Personality::gcc122();

    // Validate existing history BEFORE measuring, so a corrupt file fails
    // fast instead of after a long suite run.
    let prev = match read_last_entry(&args.history) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("bench_report: schema error: {e}");
            return ExitCode::from(EXIT_SCHEMA);
        }
    };
    // Same fail-fast rule for a requested server-stats merge.
    let server_stats = match args
        .server_stats
        .as_deref()
        .map(read_server_stats)
        .transpose()
    {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bench_report: schema error: {e}");
            return ExitCode::from(EXIT_SCHEMA);
        }
    };

    let suite: Vec<(Workload, IsaKind)> = Workload::ALL
        .iter()
        .flat_map(|w| [(*w, IsaKind::RiscV), (*w, IsaKind::AArch64)])
        .collect();

    println!(
        "bench_report: {} cells x best-of-{} @ size {} (host clock {:.1} GHz){}",
        suite.len(),
        args.runs,
        args.size.name(),
        args.host_ghz,
        match args.load {
            ObserverLoad::Bare => "",
            ObserverLoad::FusionBaseline => " [fusion-baseline analyses attached]",
            ObserverLoad::Fusion => " [fusion pass attached]",
        }
    );
    println!(
        "  {:<34} {:>12}  {:>9}  {:>8}  {:>8}  {:>8}  {:>9}",
        "cell", "retired", "wall ms", "MIPS", "ns/op", "cyc/op", "vs native"
    );
    let mut cells = Vec::with_capacity(suite.len());
    for (workload, isa) in suite {
        let prog = workload.build(args.size);
        let compiled = compile(&prog, isa, &personality);
        // Host-native reference: the same kernel run straight through the
        // interpreter, no guest ISA involved.
        let native_start = Instant::now();
        let _ = interpret(&prog, &personality);
        let native_wall = native_start.elapsed();
        match measure_cell(
            workload,
            isa,
            &compiled,
            &personality,
            native_wall,
            args.runs,
            args.mips_scale,
            args.host_ghz,
            args.load,
        ) {
            Ok(cell) => {
                let vs_native = cell
                    .overhead_vs_native
                    .map_or_else(|| "-".to_string(), |x| format!("{x:.1}x"));
                println!(
                    "  {:<34} {:>12}  {:>9.2}  {:>8.2}  {:>8.1}  {:>8.1}  {:>9}",
                    cell.label(),
                    cell.retired,
                    cell.wall_ms,
                    cell.mips,
                    cell.host_ns_per_op,
                    cell.host_cycles_per_op,
                    vs_native
                );
                cells.push(cell);
            }
            Err(e) => {
                eprintln!("bench_report: cell failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let geomean_mips = geomean(cells.iter().map(|c| c.mips));
    let total_retired: u64 = cells.iter().map(|c| c.retired).sum();
    let timestamp = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    println!("  geomean {geomean_mips:.2} MIPS | {total_retired} instructions retired");

    let mut fields = vec![
        ("schema", Json::Num(SCHEMA as f64)),
        ("timestamp", Json::Num(timestamp as f64)),
        ("size", Json::Str(args.size.name().to_string())),
        ("runs", Json::Num(args.runs as f64)),
        ("host_ghz", Json::Num(args.host_ghz)),
        ("geomean_mips", Json::Num(geomean_mips)),
        ("total_retired", Json::Num(total_retired as f64)),
        (
            "cells",
            Json::Arr(cells.iter().map(CellResult::to_json).collect()),
        ),
    ];
    match args.load {
        ObserverLoad::Bare => {}
        ObserverLoad::FusionBaseline => fields.push(("fusion_baseline", Json::Bool(true))),
        ObserverLoad::Fusion => fields.push(("fusion", Json::Bool(true))),
    }
    if let Some(stats) = &server_stats {
        // Republish the headline serving numbers as gauges and embed the
        // full load_driver report in this entry.
        let tel = isacmp::telemetry::global();
        for g in ["server_jobs_total", "cache_hits", "p99_latency_us"] {
            if let Some(v) = stats.get(g).and_then(Json::as_f64) {
                tel.gauge_set(g, v);
            }
        }
        // load_driver reports cache_hit_rate as a percentage already.
        let hit_rate = stats
            .get("cache_hit_rate")
            .and_then(Json::as_f64)
            .map(|r| format!(", {r:.1}% cache hits"))
            .unwrap_or_default();
        println!(
            "  server: {} job(s), p99 {:.0} us{hit_rate} (from {})",
            stats
                .get("server_jobs_total")
                .and_then(Json::as_u64)
                .unwrap_or(0),
            stats
                .get("p99_latency_us")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
            args.server_stats.as_ref().unwrap().display(),
        );
        fields.push(("server", stats.clone()));
    }
    let entry = Json::obj(fields);

    // Append to history (fsynced, so the record survives a crash), then
    // atomically regenerate the baseline from this entry.
    let mut history_text = entry.compact();
    history_text.push('\n');
    let appended = isacmp::durable::DurableLog::open(&args.history)
        .and_then(|mut log| log.append(history_text.as_bytes()));
    if let Err(e) = appended {
        eprintln!("bench_report: cannot write {}: {e}", args.history.display());
        return ExitCode::FAILURE;
    }
    if let Err(e) =
        isacmp::durable::durable_write(&args.baseline, format!("{}\n", entry.pretty()).as_bytes())
    {
        eprintln!(
            "bench_report: cannot write {}: {e}",
            args.baseline.display()
        );
        return ExitCode::FAILURE;
    }
    println!("  history  -> {}", args.history.display());
    println!("  baseline -> {}", args.baseline.display());

    // Trajectory comparison against the previous entry, if there was one.
    match prev {
        None => {
            println!("  trajectory: first entry, nothing to compare against");
            ExitCode::SUCCESS
        }
        Some(prev) => {
            if prev.size != args.size.name() {
                println!(
                    "  trajectory: previous entry used size {} (now {}), skipping comparison",
                    prev.size,
                    args.size.name()
                );
                return ExitCode::SUCCESS;
            }
            let delta_pct = if prev.geomean_mips > 0.0 {
                (geomean_mips - prev.geomean_mips) / prev.geomean_mips * 100.0
            } else {
                0.0
            };
            println!(
                "  trajectory: {:.2} -> {:.2} geomean MIPS ({:+.1}%) vs entry @ t={}",
                prev.geomean_mips, geomean_mips, delta_pct, prev.timestamp
            );
            if delta_pct < -args.threshold_pct {
                eprintln!(
                    "bench_report: REGRESSION: geomean MIPS dropped {:.1}% (> {:.1}% threshold)",
                    -delta_pct, args.threshold_pct
                );
                if args.strict {
                    return ExitCode::from(EXIT_REGRESSION);
                }
                println!("  (report-only mode; pass --strict to fail on regression)");
            }
            ExitCode::SUCCESS
        }
    }
}
