//! Quickstart: build one workload, run it on both ISAs, print the paper's
//! headline metrics.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use isacmp::{run_cell, IsaKind, Personality, SizeClass, Workload};

fn main() {
    let size = SizeClass::Small;
    println!("STREAM at {size:?} size, GCC 12.2 personality\n");
    println!(
        "{:<10} {:>14} {:>12} {:>8} {:>16}",
        "ISA", "path length", "CP", "ILP", "2GHz runtime"
    );
    for isa in [IsaKind::AArch64, IsaKind::RiscV] {
        let cell =
            run_cell(Workload::Stream, isa, &Personality::gcc122(), size).expect("cell measures");
        println!(
            "{:<10} {:>14} {:>12} {:>8.0} {:>13.3} ms",
            cell.isa,
            cell.path_length,
            cell.critical_path,
            cell.ilp(),
            cell.runtime_ms()
        );
    }
}
