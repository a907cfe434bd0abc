//! The paper's Future Work (§8), made concrete: run every workload
//! through trace-driven pipeline models with *finite* resources — a
//! dual-issue in-order core (the A55/SiFive-7 class the paper's `-mtune`
//! targeted) and out-of-order cores at TX2 and Firestorm scale — and
//! compare the resulting cycle estimates across ISAs.
//!
//! ```sh
//! cargo run --release --example pipeline_estimates
//! ```

use isacmp::{run_pipeline, IsaKind, Personality, PipelineConfig, SizeClass, Workload};

fn main() {
    let p = Personality::gcc122();
    let size = SizeClass::Small;

    println!("Cycle estimates (GCC 12.2, TX2 latencies), RISC-V / AArch64 ratio in brackets\n");
    println!(
        "{:<12}{:>16}{:>16}{:>18}",
        "workload", "in-order (A55)", "OoO (TX2)", "OoO (Firestorm)"
    );
    for w in Workload::ALL {
        let mut cols = Vec::new();
        for (cfg, ooo) in [
            (PipelineConfig::a55(), false),
            (PipelineConfig::tx2(), true),
            (PipelineConfig::firestorm(), true),
        ] {
            let arm = run_pipeline(w, IsaKind::AArch64, &p, size, cfg.clone(), ooo);
            let rv = run_pipeline(w, IsaKind::RiscV, &p, size, cfg, ooo);
            cols.push(format!(
                "{} [{:.2}]",
                arm.cycles,
                rv.cycles as f64 / arm.cycles as f64
            ));
        }
        println!(
            "{:<12}{:>16}{:>16}{:>18}",
            w.name(),
            cols[0],
            cols[1],
            cols[2]
        );
    }
    println!(
        "\nRatios near 1.0 extend the paper's conclusion — neither ISA is\n\
         inherently disadvantaged — from ideal processors to finite ones."
    );
}
