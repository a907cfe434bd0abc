//! Measure one workload cell at the paper's full parameters (used to fill
//! EXPERIMENTS.md's paper-scale section; STREAM at N=10M x 10 iterations
//! retires ~2.5G instructions), then print the process's peak RSS after
//! both ISAs' cells (`VmHWM` from `/proc/self/status`, where it exists).
//!
//! ```sh
//! cargo run --release --example paper_scale_probe -- STREAM
//! ```

use isacmp::{run_cell, IsaKind, Personality, SizeClass, Workload};

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "STREAM".into());
    let w = Workload::ALL
        .into_iter()
        .find(|w| w.name().eq_ignore_ascii_case(&name))
        .expect("workload name");
    for isa in [IsaKind::AArch64, IsaKind::RiscV] {
        let t = std::time::Instant::now();
        let cell = match run_cell(w, isa, &Personality::gcc122(), SizeClass::Paper) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("ERR({}) {}: {e}", e.kind(), w.name());
                std::process::exit(1);
            }
        };
        println!(
            "{} {}: path={} cp={} scaled={} ilp={:.0} runtime2GHz={:.2}ms wall={:.0}s",
            cell.workload,
            cell.isa,
            cell.path_length,
            cell.critical_path,
            cell.scaled_cp,
            cell.ilp(),
            cell.runtime_ms(),
            t.elapsed().as_secs_f64()
        );
    }
    match peak_rss_kib() {
        Some(kib) => println!("peak_rss={:.0}MiB", kib as f64 / 1024.0),
        None => println!("peak_rss=unknown"),
    }
}

/// The process's peak resident set in KiB, from `VmHWM`.
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}
