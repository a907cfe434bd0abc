//! Experiment reports that `make_tables` prints, as library calls so that
//! tests can regenerate them byte for byte.
//!
//! * [`mix`] — `make_tables mix`: instruction mixes, critical-chain
//!   composition, dependency distances and branch/cache behaviour (E8);
//! * [`pipeline`] — `make_tables pipeline`: realistic-resource runtime
//!   estimates (E7);
//! * [`shape_checks`] — the assertions behind `make_tables check`: the
//!   paper's qualitative findings over a finished matrix.

use isacmp::{
    compile, execute, run_pipeline, run_pipeline_full, BimodalPredictor, CacheConfig, CacheModel,
    CpComposition, DepDistance, GsharePredictor, InstMix, IsaKind, Observer, Personality,
    PipelineConfig, ResultMatrix, SizeClass, Workload,
};

/// Extension E8: instruction mixes, critical-chain composition and
/// branch-prediction behaviour per ISA (GCC 12.2).
pub fn mix(size: SizeClass) -> String {
    let p = Personality::gcc122();
    let mut out = String::from(
        "Instruction mix, chain composition and branch prediction (GCC 12.2)
",
    );
    for w in Workload::ALL {
        for isa in [IsaKind::AArch64, IsaKind::RiscV] {
            let prog = w.build(size);
            let compiled = compile(&prog, isa, &p);
            let mut mixo = InstMix::new();
            let mut comp = CpComposition::new();
            let mut bim = BimodalPredictor::new(12);
            let mut gs = GsharePredictor::new(12, 12);
            let mut dep = DepDistance::new();
            let mut l1d = CacheModel::new(CacheConfig::l1d_32k());
            {
                let mut obs: Vec<&mut dyn Observer> =
                    vec![&mut mixo, &mut comp, &mut bim, &mut gs, &mut dep, &mut l1d];
                execute(&compiled, &mut obs);
            }
            out.push_str(&format!(
                "
--- {} / {} ---
{}",
                w.name(),
                isacmp::isa_label(isa),
                mixo.table()
            ));
            out.push_str(&format!(
                "branches: {:.1}% of path ({:.1}% taken); bimodal {:.2}% | gshare {:.2}% accurate ({:.2} | {:.2} MPKI)
",
                100.0 * mixo.branch_fraction(),
                100.0 * mixo.taken_rate(),
                100.0 * bim.stats().accuracy(),
                100.0 * gs.stats().accuracy(),
                bim.stats().mpki(mixo.total()),
                gs.stats().mpki(mixo.total()),
            ));
            let comp_str: Vec<String> = comp
                .composition()
                .iter()
                .take(4)
                .map(|(g, c)| format!("{g:?}:{c}"))
                .collect();
            out.push_str(&format!(
                "critical chain (len {}): {} (fp share {:.0}%)\n",
                comp.critical_path(),
                comp_str.join(" "),
                100.0 * comp.fp_share()
            ));
            out.push_str(&format!(
                "dependency distance: mean {:.2}; {:.1}% within 4, {:.1}% within 16 (paper 6.2: larger spread favours small-window ILP)\n",
                dep.mean(),
                100.0 * dep.fraction_within(4),
                100.0 * dep.fraction_within(16),
            ));
            out.push_str(&format!(
                "L1D (32K/8w/64B): {:.2}% hit rate over {} accesses; AMAT {:.2} cycles (hit 4, miss 100)\n",
                100.0 * l1d.stats().hit_rate(),
                l1d.stats().accesses,
                l1d.stats().amat(4.0, 100.0),
            ));
        }
    }
    out
}

/// Experiment E7 (Future Work): realistic-resource runtime estimates.
pub fn pipeline(size: SizeClass) -> String {
    let mut out =
        String::from("Pipeline estimates (GCC 12.2, TX2 latencies, cycles; paper section 8)\n");
    out.push_str(&format!(
        "{:<12} {:<8} {:>14} {:>14} {:>15} {:>14}\n",
        "workload", "isa", "in-order(A55)", "OoO(TX2)", "OoO(Firestorm)", "OoO(TX2)+L1D"
    ));
    let p = Personality::gcc122();
    for w in Workload::ALL {
        for isa in [IsaKind::AArch64, IsaKind::RiscV] {
            let ino = run_pipeline(w, isa, &p, size, PipelineConfig::a55(), false);
            let tx2 = run_pipeline(w, isa, &p, size, PipelineConfig::tx2(), true);
            let fs = run_pipeline(w, isa, &p, size, PipelineConfig::firestorm(), true);
            let cached = run_pipeline_full(
                w,
                isa,
                &p,
                size,
                PipelineConfig::tx2(),
                true,
                Some((CacheConfig::l1d_32k(), 100)),
            );
            out.push_str(&format!(
                "{:<12} {:<8} {:>14} {:>14} {:>15} {:>14}\n",
                w.name(),
                isacmp::isa_label(isa),
                ino.cycles,
                tx2.cycles,
                fs.cycles,
                cached.cycles
            ));
        }
    }
    out
}

/// One paper-shape check: its label, whether it passed, and the numbers
/// it compared.
pub type ShapeCheck = (&'static str, bool, String);

/// The paper's qualitative findings (the EXPERIMENTS.md tables,
/// executable) checked against a complete matrix.
///
/// # Panics
///
/// If `m` lacks a STREAM cell or a GCC 12.2 cell of any workload.
pub fn shape_checks(m: &ResultMatrix) -> Vec<ShapeCheck> {
    let mut rows = Vec::new();
    let cell = |w: &str, c: &str, i: &str| m.get(w, c, i).expect("complete matrix").clone();

    // E1: compiler deltas on STREAM.
    let (a92, a122) = (
        cell("STREAM", "gcc-9.2", "AArch64"),
        cell("STREAM", "gcc-12.2", "AArch64"),
    );
    let (r92, r122) = (
        cell("STREAM", "gcc-9.2", "RISC-V"),
        cell("STREAM", "gcc-12.2", "RISC-V"),
    );
    rows.push((
        "gcc 9.2 -> 12.2 shortens AArch64 STREAM (loop-exit cmp)",
        a92.path_length > a122.path_length,
        format!("{} -> {}", a92.path_length, a122.path_length),
    ));
    rows.push((
        "RISC-V STREAM identical across compilers",
        r92.path_length == r122.path_length,
        format!("{} / {}", r92.path_length, r122.path_length),
    ));
    // E1: path lengths within band for every workload.
    let mut worst: f64 = 1.0;
    for w in m.workloads() {
        let a = cell(&w, "gcc-12.2", "AArch64").path_length as f64;
        let r = cell(&w, "gcc-12.2", "RISC-V").path_length as f64;
        worst = worst.max(r / a).max(a / r);
    }
    rows.push((
        "path lengths within ~20% across ISAs (gcc 12.2)",
        worst <= 1.25,
        format!("worst ratio {worst:.3}"),
    ));
    // E2: STREAM CP equal across ISAs.
    rows.push((
        "STREAM critical paths equal across ISAs",
        (a122.critical_path as f64 / r122.critical_path as f64 - 1.0).abs() < 0.01,
        format!("{} vs {}", a122.critical_path, r122.critical_path),
    ));
    // E3: scaled CP >= CP everywhere; STREAM scales ~6x.
    let factor = a122.scaled_cp as f64 / a122.critical_path as f64;
    rows.push((
        "STREAM scaled CP ~ 6x unit CP (fadd chain)",
        (4.0..=6.5).contains(&factor),
        format!("x{factor:.2}"),
    ));
    // E4: RISC-V leads at the smallest window on STREAM.
    let small_r = r122.windows.first().map(|&(_, _, ilp)| ilp).unwrap_or(0.0);
    let small_a = a122.windows.first().map(|&(_, _, ilp)| ilp).unwrap_or(0.0);
    rows.push((
        "RISC-V has more ILP at window 4 (STREAM)",
        small_r > small_a,
        format!("{small_r:.2} vs {small_a:.2}"),
    ));
    rows
}
