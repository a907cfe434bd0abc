//! The repository benchmark. See `README.md` beside this crate.
//!
//! Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones, measured with no
//! timers inside the measured phase; with `--trace 1` they are the
//! per-layer ones, from a separate run that times each layer's public call.

mod batch;
mod check;
mod host;
mod layers;
mod serve;
mod speed;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;

use check::Tally;
use layers::Readings;

/// End-to-end metrics, in the order printed: `(name, unit)`.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("norm_cpu_s", "s"),
    ("cell_mips", "MIPS"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "frac"),
];

/// Per-layer metrics of the traced run, in the order printed. A layer a
/// workload does not run reads 0.
const PER_LAYER: [(&str, &str); 43] = [
    ("workloads.build_ms", "ms"),
    ("kernelgen.compile_ms", "ms"),
    ("kernelgen.interpret_ms", "ms"),
    ("simcore.emulate_ms", "ms"),
    ("simcore.bare_mips", "MIPS"),
    ("simcore.record_ms", "ms"),
    ("simcore.retired", "count"),
    ("analysis.path_length_ms", "ms"),
    ("analysis.dual_cp_ms", "ms"),
    ("analysis.windowed_ms", "ms"),
    ("analysis.bundle_ms", "ms"),
    ("fusion.pass_ms", "ms"),
    ("fusion.fused_frac", "frac"),
    ("trace.write_ms", "ms"),
    ("trace.read_ms", "ms"),
    ("trace.bytes_per_record", "B"),
    ("core.cell_ms", "ms"),
    ("core.replay_cell_ms", "ms"),
    ("core.pool_busy_frac", "frac"),
    ("core.pool_stolen", "count"),
    ("core.journal_append_ms", "ms"),
    ("tables.to_json_ms", "ms"),
    ("tables.from_json_ms", "ms"),
    ("telemetry.json_parse_ms", "ms"),
    ("telemetry.progress_parse_ms", "ms"),
    ("telemetry.json_compact_ms", "ms"),
    ("telemetry.counter_add_ns", "ns"),
    ("server.connect_ms", "ms"),
    ("server.ping_ms", "ms"),
    ("server.first_progress_ms", "ms"),
    ("server.result_tail_ms", "ms"),
    ("server.serial_job_ms", "ms"),
    ("server.warm_p50_ms", "ms"),
    ("server.warm_p95_ms", "ms"),
    ("server.warm_jobs_per_s", "1/s"),
    ("server.daemon_cpu_ms_per_job", "ms"),
    ("server.client_cpu_ms_per_job", "ms"),
    ("server.hit_ratio", "frac"),
    ("server.busy", "count"),
    ("trace_overhead_frac", "frac"),
    ("recon.op_ms", "ms"),
    ("recon.layer_sum_ms", "ms"),
    ("recon.unexplained_ms", "ms"),
];

/// Set-ups per run, `untraced` of them in an untraced run: `setup_s` is
/// their median. The traced run reports no set-up time, so it sets up once.
pub fn set_ups(traced: bool, untraced: usize) -> usize {
    if traced {
        1
    } else {
        untraced
    }
}

const WORKLOADS: [&str; 3] = ["matrix-small", "replay-fused-small", "serve-small"];

/// What every workload runs with.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// This run's scratch directory inside the checkout.
    pub tmp: PathBuf,
    /// The `isacmpd` built beside this binary.
    pub isacmpd: PathBuf,
}

impl Ctx {
    /// The seed's rotation of `items`: the order the traced run profiles
    /// cells in. The matrix inputs themselves are the paper's fixed
    /// workloads, so every seed must yield the same products.
    pub fn rotated<T>(&self, mut items: Vec<T>) -> Vec<T> {
        if !items.is_empty() {
            let by = (self.seed % items.len() as u64) as usize;
            items.rotate_left(by);
        }
        items
    }
}

/// What one workload run hands back for printing.
pub struct Outcome {
    pub tally: Tally,
    values: BTreeMap<&'static str, f64>,
    layers: Readings,
    notes: Vec<String>,
}

impl Outcome {
    pub fn new(tally: Tally) -> Outcome {
        Outcome {
            tally,
            values: BTreeMap::new(),
            layers: Readings::new(),
            notes: Vec::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn layers(&mut self, r: Readings) {
        self.layers.extend(r);
    }

    /// Note the layers' sum beside the single-thread time of the operation
    /// they make up, and the part no layer explains. `parts` pairs a layer
    /// with how many times one operation calls it.
    pub fn reconcile(&mut self, op: &'static str, parts: &[(&'static str, f64)]) {
        let get = |name: &str| self.layers.get(name).copied().unwrap_or(0.0);
        let mut line = format!("reconcile {op} = {:.3} ms:", get(op));
        let mut sum = 0.0;
        for &(name, times) in parts {
            sum += get(name) * times;
            line.push_str(&format!(" {name}×{times} {:.3},", get(name) * times));
        }
        let (total, rest) = (get(op), get(op) - sum);
        line.push_str(&format!(
            " layer sum {sum:.3} ms, unexplained {rest:.3} ms ({:.1}%)",
            100.0 * rest / total
        ));
        self.notes.push(line);
        self.layers.insert("recon.op_ms", total);
        self.layers.insert("recon.layer_sum_ms", sum);
        self.layers.insert("recon.unexplained_ms", rest);
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn arg<T: std::str::FromStr>(args: &[String], flag: &str) -> T {
    let value = args
        .iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1));
    value.and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("perfbench: {flag} is missing or malformed");
        usage()
    })
}

/// The result line: every metric of the run's kind, by name with its unit.
fn result_json(out: &Outcome, traced: bool) -> Result<String, String> {
    let mut metrics = Vec::new();
    for (name, unit) in if traced {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    } {
        let value = if traced {
            out.layers.get(name).copied().unwrap_or(0.0)
        } else {
            match *name {
                "ok_frac" => out.tally.ok_frac(),
                _ => *out
                    .values
                    .get(name)
                    .ok_or_else(|| format!("{name} was not measured"))?,
            }
        };
        if !value.is_finite() {
            return Err(format!("{name} could not be measured ({value})"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = out.tally.attempted > 0 && out.tally.failed() == 0;
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.tally.attempted,
        out.tally.failed(),
        metrics.join(", ")
    ))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workload: String = arg(&args, "--workload");
    let traced = match arg::<u8>(&args, "--trace") {
        0 => false,
        1 => true,
        _ => usage(),
    };
    let seconds: f64 = arg(&args, "--seconds");
    if !WORKLOADS.contains(&workload.as_str()) || !seconds.is_finite() || seconds <= 0.0 {
        usage();
    }
    let exe = std::env::current_exe().expect("the running binary has a path");
    let tmp = PathBuf::from(".bench_tmp").join(format!("{workload}-{}", std::process::id()));
    let ctx = Ctx {
        seed: arg(&args, "--seed"),
        seconds,
        isacmpd: exe.with_file_name("isacmpd"),
        tmp,
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.tmp) {
        eprintln!("perfbench: {}: {e}", ctx.tmp.display());
        std::process::exit(1);
    }

    let steal = host::StealMeter::start();
    let run = match workload.as_str() {
        "matrix-small" => batch::matrix_small(&ctx, traced),
        "replay-fused-small" => batch::replay_fused_small(&ctx, traced),
        _ => serve::serve_small(&ctx, traced),
    };
    let result = run.and_then(|mut out| {
        if traced {
            out.layers
                .insert("telemetry.counter_add_ns", layers::counter_add_ns());
        }
        out.note(format!(
            "host: nproc {}, steal {}, scratch filesystem {}, seed {}",
            host::nproc(),
            steal
                .share()
                .map_or("unknown".into(), |s| format!("{:.2}%", 100.0 * s)),
            host::fs_type(&ctx.tmp),
            ctx.seed
        ));
        Ok((result_json(&out, traced)?, out))
    });
    let _ = std::fs::remove_dir_all(&ctx.tmp);
    // Shared by concurrent runs, so removed only once empty.
    let _ = std::fs::remove_dir(".bench_tmp");
    match result {
        Ok((json, out)) => {
            for line in &out.notes {
                println!("# {workload}: {line}");
            }
            println!("{json}");
            if out.tally.failed() > 0 {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isacmp::telemetry::Json;

    /// The metric lists printed here are the ones `BENCHMARK.json` declares.
    #[test]
    fn metric_lists_match_the_benchmark_definition() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let def = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, list) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared: Vec<(&str, &str)> = def
                .get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.get("name").unwrap().as_str().unwrap(),
                        m.get("unit").unwrap().as_str().unwrap(),
                    )
                })
                .collect();
            assert_eq!(declared, list, "{key}");
        }
        let workloads: Vec<&str> = def
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn seed_rotates_the_profiling_order_only() {
        let ctx = |seed| Ctx {
            seed,
            seconds: 1.0,
            tmp: PathBuf::new(),
            isacmpd: PathBuf::new(),
        };
        assert_eq!(ctx(0).rotated(vec![1, 2, 3]), [1, 2, 3]);
        assert_eq!(ctx(4).rotated(vec![1, 2, 3]), [2, 3, 1]);
        assert!(ctx(7).rotated(Vec::<u8>::new()).is_empty());
    }
}
