//! Reproduce the paper's Figure 2: mean ILP against window size for the
//! GCC 12.2 binaries of all five workloads, printed as an ASCII table plus
//! the CSV series the paper's line graph plots.
//!
//! ```sh
//! cargo run --release --example windowed_ilp
//! ```

use isacmp::{
    compile, execute, IsaKind, Personality, SizeClass, WindowedCp, Workload, PAPER_WINDOW_SIZES,
};

fn main() {
    let p = Personality::gcc122();
    let size = SizeClass::Small;

    println!("Mean ILP per window (GCC 12.2, window sizes {PAPER_WINDOW_SIZES:?})\n");
    let mut header = format!("{:<12}{:<9}", "workload", "isa");
    for w in PAPER_WINDOW_SIZES {
        header.push_str(&format!("{w:>9}"));
    }
    println!("{header}");

    let mut csv = String::from("workload,isa,window,mean_ilp\n");
    for w in Workload::ALL {
        for isa in [IsaKind::RiscV, IsaKind::AArch64] {
            let prog = w.build(size);
            let compiled = compile(&prog, isa, &p);
            let mut wcp = WindowedCp::paper();
            execute(&compiled, &mut [&mut wcp]);
            let mut row = format!("{:<12}{:<9}", w.name(), isacmp::isa_label(isa));
            for s in wcp.stats() {
                row.push_str(&format!("{:>9.2}", s.mean_ilp()));
                csv.push_str(&format!(
                    "{},{},{},{:.3}\n",
                    w.name(),
                    isacmp::isa_label(isa),
                    s.size,
                    s.mean_ilp()
                ));
            }
            println!("{row}");
        }
    }

    std::fs::create_dir_all("results").ok();
    std::fs::write("results/windowed_ilp.csv", csv).expect("write csv");
    println!("\nseries written to results/windowed_ilp.csv");
    println!(
        "\nPaper's finding to look for: RISC-V leads at small windows (<= 500),\n\
         AArch64 catches up or overtakes at larger ones; the curves track closely."
    );
}
