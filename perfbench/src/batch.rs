//! The two batch workloads: the one-shot live matrix and the fused matrix
//! replayed from a trace cache. Both run in this process on the shard
//! pool, through the same public entry points `make_tables` calls.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use isacmp::{
    compile, interpret, isa_label, matrix_combos, pool, record_outcome, run_cell_opts,
    run_matrix_opts, telemetry, CellError, ExperimentCell, MatrixOptions, ResultMatrix, Workload,
};

use crate::check::{check_matrix, Digest, Tally, Verdict, FUSED_MATRIX, UNFUSED_MATRIX};
use crate::layers::{self, ms, timed, Readings, SIZE};
use crate::stats::median;
use crate::{host, set_ups, speed, Ctx, Outcome};

/// A run measures at least this many products, however long they take.
const MIN_PRODUCTS: usize = 3;
/// Set-ups per untraced run. The `matrix-small` set-up takes about a
/// quarter of a second, so it is repeated often enough for a steady median.
const MATRIX_SET_UPS: usize = 9;
const REPLAY_SET_UPS: usize = 3;

fn record(tally: &mut Tally, what: &str, res: Result<(), String>) {
    if let Err(e) = &res {
        eprintln!("perfbench: {what} failed its output check: {e}");
    }
    tally.record(if res.is_ok() {
        Verdict::Ok
    } else {
        Verdict::Diverged
    });
}

/// One product's cost, all in s: its wall time, the CPU time this process
/// spent on it (all threads), and the reference load's CPU time around it.
struct Cost {
    wall: f64,
    cpu: f64,
    reference: f64,
}

/// Deliver products back to back for at least `seconds` and at least
/// [`MIN_PRODUCTS`] times, checking each, with the reference load run after
/// each; `before` is the reference load's time just before the first.
/// Returns each product's cost.
fn repeat_products(
    seconds: f64,
    mut before: f64,
    tally: &mut Tally,
    mut product: impl FnMut() -> Result<(), String>,
) -> Result<Vec<Cost>, String> {
    let cpu_s = || {
        host::cpu_ms(None)
            .map(|t| t / 1e3)
            .ok_or("cannot read this process's CPU time")
    };
    let start = Instant::now();
    let mut costs = Vec::new();
    while costs.len() < MIN_PRODUCTS || start.elapsed().as_secs_f64() < seconds {
        let cpu0 = cpu_s()?;
        let (res, t) = timed(&mut product);
        let cpu = cpu_s()? - cpu0;
        record(tally, "product", res);
        let after = speed::reference_cpu_s()?;
        costs.push(Cost {
            wall: t / 1e3,
            cpu,
            reference: (before + after) / 2.0,
        });
        before = after;
    }
    Ok(costs)
}

/// Times in s, rounded to ms for a `#` line.
fn rounded(xs: &[f64]) -> Vec<f64> {
    xs.iter().map(|x| (x * 1e3).round() / 1e3).collect()
}

/// The end-to-end metrics of a batch run. `setups` are the set-ups' wall
/// times and `setup_reference` the reference load's time around them: a
/// batch set-up is CPU-bound work, so its time is scaled like a product's.
fn end_to_end(setups: &[f64], setup_reference: f64, costs: &[Cost], tally: Tally) -> Outcome {
    let walls: Vec<f64> = costs.iter().map(|c| c.wall).collect();
    let cpus: Vec<f64> = costs.iter().map(|c| c.cpu).collect();
    let refs: Vec<f64> = costs.iter().map(|c| c.reference).collect();
    let scaled: Vec<f64> = costs
        .iter()
        .map(|c| speed::scaled(c.cpu, c.reference))
        .collect();
    let norm_cpu_s = median(&scaled);
    let mut out = Outcome::new(tally);
    out.set("setup_s", speed::scaled(median(setups), setup_reference));
    out.set("norm_cpu_s", norm_cpu_s);
    out.set(
        "cell_mips",
        crate::check::TOTAL_RETIRED as f64 / norm_cpu_s / 1e6,
    );
    out.set("peak_rss_mb", host::peak_rss_mb(None).unwrap_or(f64::NAN));
    out.note(format!(
        "set-ups: walls {:?} s, reference load {setup_reference:.3} s",
        rounded(setups)
    ));
    out.note(format!(
        "products: {} in {:.2} s, walls {:?} s (median {:.3}), CPU {:?} s (median {:.3}), reference load {:?} s, scaled CPU {:?} s",
        costs.len(),
        walls.iter().sum::<f64>(),
        rounded(&walls),
        median(&walls),
        rounded(&cpus),
        median(&cpus),
        rounded(&refs),
        rounded(&scaled)
    ));
    out
}

/// `num ÷ den` of two readings; NaN, which fails the run, if either is
/// missing because a cell could not be profiled.
fn ratio(r: &Readings, num: &str, den: &str) -> f64 {
    match (r.get(num), r.get(den)) {
        (Some(n), Some(d)) => n / d,
        _ => f64::NAN,
    }
}

fn matrix_options(trace_dir: Option<&Path>, fusion: bool) -> MatrixOptions {
    MatrixOptions {
        trace_dir: trace_dir.map(Path::to_path_buf),
        fusion,
        ..Default::default()
    }
}

/// `matrix-small`: set-up builds and compiles every cell's program and
/// computes its reference checksum, on one thread: the preamble each cell
/// repeats, done once so that code and allocator are warm. Its time is
/// single-thread CPU work, which follows the host's speed more closely than
/// a short parallel matrix does. Each product is the live `--size small`
/// matrix.
pub fn matrix_small(ctx: &Ctx, traced: bool) -> Result<Outcome, String> {
    let first_reference = (!traced).then(speed::reference_cpu_s).transpose()?;
    let mut setups = Vec::new();
    for _ in 0..set_ups(traced, MATRIX_SET_UPS) {
        let (_, t) = timed(|| {
            for (w, p, isa) in matrix_combos(&Workload::ALL) {
                let prog = w.build(SIZE);
                std::hint::black_box((compile(&prog, isa, &p), interpret(&prog, &p)));
            }
        });
        setups.push(t / 1e3);
    }
    let opts = matrix_options(None, false);
    let mut tally = Tally::default();
    if let Some(before) = first_reference {
        let after = speed::reference_cpu_s()?;
        let costs = repeat_products(ctx.seconds, after, &mut tally, || {
            check_matrix(
                &run_matrix_opts(&Workload::ALL, SIZE, &opts),
                UNFUSED_MATRIX,
            )
        })?;
        return Ok(end_to_end(&setups, (before + after) / 2.0, &costs, tally));
    }

    let mut r = pooled(&opts, UNFUSED_MATRIX, &mut tally);
    for (w, p, isa) in ctx.rotated(matrix_combos(&Workload::ALL)) {
        record(
            &mut tally,
            "cell profile",
            layers::live_cell(&mut r, w, &p, isa),
        );
    }
    let mips = ratio(&r, "simcore.retired", "simcore.emulate_ms") / 1e3;
    r.insert("simcore.bare_mips", mips);
    let mut out = Outcome::new(tally);
    out.layers(r);
    out.reconcile(
        "core.cell_ms",
        &[
            ("workloads.build_ms", 1.0),
            ("kernelgen.compile_ms", 1.0),
            ("kernelgen.interpret_ms", 1.0),
            ("simcore.emulate_ms", 1.0),
            ("analysis.bundle_ms", 1.0),
        ],
    );
    Ok(out)
}

/// `replay-fused-small`: set-up captures all 20 cells into a fresh trace
/// directory (and checks the unfused matrix the capture run yields); each
/// product is the `--fusion` matrix replayed from the last capture.
pub fn replay_fused_small(ctx: &Ctx, traced: bool) -> Result<Outcome, String> {
    let tel = telemetry::global();
    let first_reference = (!traced).then(speed::reference_cpu_s).transpose()?;
    let mut setups = Vec::new();
    let mut dir = PathBuf::new();
    for k in 0..set_ups(traced, REPLAY_SET_UPS) {
        if k > 0 {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        dir = ctx.tmp.join(format!("traces-{k}"));
        let captures = tel.counter("trace_captures");
        let opts = matrix_options(Some(&dir), false);
        let (m, t) = timed(|| run_matrix_opts(&Workload::ALL, SIZE, &opts));
        check_matrix(&m, UNFUSED_MATRIX).map_err(|e| format!("capture run: {e}"))?;
        let captured = tel.counter("trace_captures") - captures;
        if captured != 20 {
            return Err(format!("capture run wrote {captured} traces, want 20"));
        }
        setups.push(t / 1e3);
    }
    let opts = matrix_options(Some(&dir), true);
    // A replayed product must come from the traces alone: 20 replays and
    // no recapture, or the live path answered and the product fails.
    let replayed = || {
        let (replays, captures) = (tel.counter("trace_replays"), tel.counter("trace_captures"));
        let m = run_matrix_opts(&Workload::ALL, SIZE, &opts);
        let replayed = tel.counter("trace_replays") - replays;
        if replayed != 20 || tel.counter("trace_captures") != captures {
            return Err(format!(
                "{replayed} of 20 cells replayed; the rest ran live"
            ));
        }
        check_matrix(&m, FUSED_MATRIX)
    };
    let mut tally = Tally::default();
    if let Some(before) = first_reference {
        let after = speed::reference_cpu_s()?;
        let costs = repeat_products(ctx.seconds, after, &mut tally, replayed)?;
        let mut out = end_to_end(&setups, (before + after) / 2.0, &costs, tally);
        out.note(format!("trace dir filesystem: {}", host::fs_type(&dir)));
        return Ok(out);
    }

    let mut r = pooled(&opts, FUSED_MATRIX, &mut tally);
    for (w, p, isa) in ctx.rotated(matrix_combos(&Workload::ALL)) {
        let res = layers::replay_cell_layers(&mut r, &dir, &ctx.tmp, w, &p, isa);
        record(&mut tally, "cell profile", res);
    }
    r.insert(
        "trace.bytes_per_record",
        ratio(&r, "trace.bytes", "trace.records"),
    );
    r.insert(
        "fusion.fused_frac",
        ratio(&r, "fusion.fused_pairs", "fusion.retired"),
    );
    let mut out = Outcome::new(tally);
    out.note(format!("trace dir filesystem: {}", host::fs_type(&dir)));
    out.layers(r);
    out.reconcile(
        "core.replay_cell_ms",
        &[
            ("trace.read_ms", 1.0),
            ("analysis.bundle_ms", 1.0),
            ("fusion.pass_ms", 1.0),
        ],
    );
    Ok(out)
}

/// One product untraced through `run_matrix_opts`, then the same product
/// with every cell timed as its own task on the shard pool (the tasks
/// `run_matrix_opts` would submit, folded through the same
/// `record_outcome`). Their wall-time ratio is the tracing overhead; the
/// timed cells give the pool's busy share.
fn pooled(opts: &MatrixOptions, want: Digest, tally: &mut Tally) -> Readings {
    let (m, untraced) = timed(|| run_matrix_opts(&Workload::ALL, SIZE, opts));
    record(tally, "untraced product", check_matrix(&m, want));

    type Task = Box<dyn FnOnce() -> (Result<ExperimentCell, CellError>, Duration) + Send>;
    let combos = matrix_combos(&Workload::ALL);
    let tasks: Vec<Task> = combos
        .iter()
        .map(|&(w, p, isa)| {
            let cell_opts = opts.cell_options(w.name(), p.label(), isa_label(isa));
            Box::new(move || {
                let t = Instant::now();
                (run_cell_opts(w, isa, &p, SIZE, &cell_opts), t.elapsed())
            }) as Task
        })
        .collect();
    let pool = pool::global();
    let before = pool.stats();
    let start = Instant::now();
    let outcomes = pool.run_batch(tasks, false);
    let wall = start.elapsed();
    let after = pool.stats();

    let mut matrix = ResultMatrix::default();
    let mut busy = Duration::ZERO;
    for ((w, p, isa), slot) in combos.iter().zip(outcomes) {
        let outcome = match slot {
            Some(Ok((cell, took))) => {
                busy += took;
                Ok(cell)
            }
            Some(Err(panic)) => Err(panic),
            None => Err("skipped".into()),
        };
        record_outcome(
            &mut matrix,
            w.name(),
            p.label(),
            isa_label(*isa),
            outcome,
            opts.retries,
        );
    }
    record(tally, "traced product", check_matrix(&matrix, want));

    let mut r = Readings::new();
    r.insert("trace_overhead_frac", ms(wall) / untraced - 1.0);
    r.insert(
        "core.pool_busy_frac",
        busy.as_secs_f64() / (after.workers as f64 * wall.as_secs_f64()),
    );
    r.insert("core.pool_stolen", (after.stolen - before.stolen) as f64);
    r
}
