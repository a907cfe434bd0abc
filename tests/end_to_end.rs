//! End-to-end integration: the full experiment matrix runs and reproduces
//! the paper's qualitative findings (DESIGN.md's expected shapes).

use isacmp::{run_cell, run_matrix, IsaKind, Personality, SizeClass, Workload};

#[test]
fn full_matrix_runs_and_serialises() {
    let m = run_matrix(SizeClass::Test);
    assert_eq!(m.cells.len(), 20, "5 workloads x 2 compilers x 2 ISAs");
    for c in &m.cells {
        assert!(c.path_length > 0);
        assert!(c.critical_path > 0 && c.critical_path <= c.path_length);
        assert!(
            c.scaled_cp >= c.critical_path,
            "{}: scaling shortens CP?",
            c.workload
        );
        assert!(!c.kernels.is_empty());
    }
    // Formatting must include every workload.
    let t1 = m.table1();
    let t2 = m.table2();
    for w in Workload::ALL {
        assert!(t1.contains(w.name()), "table1 missing {}", w.name());
        assert!(t2.contains(w.name()), "table2 missing {}", w.name());
    }
    // JSON round trip.
    let back = isacmp::ResultMatrix::from_json(&m.to_json()).unwrap();
    assert_eq!(back.cells.len(), 20);
}

#[test]
fn stream_compiler_findings_match_paper() {
    // Paper §3.3: moving GCC 9.2 -> 12.2 shortens the AArch64 STREAM path
    // (better loop exits), while the RISC-V kernels are identical.
    let arm92 = run_cell(
        Workload::Stream,
        IsaKind::AArch64,
        &Personality::gcc92(),
        SizeClass::Small,
    )
    .expect("arm gcc-9.2 cell");
    let arm122 = run_cell(
        Workload::Stream,
        IsaKind::AArch64,
        &Personality::gcc122(),
        SizeClass::Small,
    )
    .expect("arm gcc-12.2 cell");
    let rv92 = run_cell(
        Workload::Stream,
        IsaKind::RiscV,
        &Personality::gcc92(),
        SizeClass::Small,
    )
    .expect("rv gcc-9.2 cell");
    let rv122 = run_cell(
        Workload::Stream,
        IsaKind::RiscV,
        &Personality::gcc122(),
        SizeClass::Small,
    )
    .expect("rv gcc-12.2 cell");

    assert!(
        arm92.path_length > arm122.path_length,
        "gcc 9.2 AArch64 ({}) must exceed 12.2 ({})",
        arm92.path_length,
        arm122.path_length
    );
    // Paper: "the main kernels remain the same for both RISC-V binaries".
    assert_eq!(
        rv92.path_length, rv122.path_length,
        "RISC-V STREAM identical across compilers"
    );
    // Paper Figure 1: the ISAs stay within ~10-20% of each other.
    let ratio = rv122.path_length as f64 / arm122.path_length as f64;
    assert!((0.8..=1.25).contains(&ratio), "path-length ratio {ratio}");
    // Paper Table 1: STREAM CPs are nearly identical across ISAs (the
    // chain is the pointer increment / checksum reduction, length ~N).
    let cp_ratio = rv122.critical_path as f64 / arm122.critical_path as f64;
    assert!((0.99..=1.01).contains(&cp_ratio), "CP ratio {cp_ratio}");
}

#[test]
fn per_kernel_breakdown_covers_stream() {
    let cell = run_cell(
        Workload::Stream,
        IsaKind::RiscV,
        &Personality::gcc122(),
        SizeClass::Test,
    )
    .expect("cell measures");
    let names: Vec<&str> = cell.kernels.iter().map(|(n, _)| n.as_str()).collect();
    for k in ["copy", "scale", "add", "triad"] {
        assert!(names.contains(&k), "missing kernel {k}: {names:?}");
    }
    // add/triad touch three arrays; copy touches two: triad must cost more.
    let get = |k: &str| cell.kernels.iter().find(|(n, _)| n == k).unwrap().1;
    assert!(get("triad") > get("copy"));
}

#[test]
fn windowed_ilp_grows_with_window_size() {
    // Figure 2's universal shape: available ILP increases with window size
    // (more instructions to pick from), for every workload and ISA.
    for w in [Workload::Stream, Workload::MiniBude] {
        for isa in [IsaKind::AArch64, IsaKind::RiscV] {
            let cell =
                run_cell(w, isa, &Personality::gcc122(), SizeClass::Test).expect("cell measures");
            let ilps: Vec<f64> = cell.windows.iter().map(|&(_, _, ilp)| ilp).collect();
            assert!(
                ilps.windows(2).all(|p| p[1] >= p[0] * 0.8),
                "{} {}: ILP series should broadly grow: {ilps:?}",
                w.name(),
                isacmp::isa_label(isa)
            );
            // Window CP can never exceed the window: ILP >= 1.
            assert!(ilps.iter().all(|&v| v >= 1.0));
        }
    }
}

#[test]
fn scaled_cp_fp_chains_scale_by_fp_latency() {
    // STREAM's longest chain after scaling runs through the checksum's
    // fadd reduction: scaled CP ~ 6x the unit CP (TX2 fadd latency),
    // exactly the paper's Table 1 -> Table 2 STREAM relationship.
    let cell = run_cell(
        Workload::Stream,
        IsaKind::RiscV,
        &Personality::gcc122(),
        SizeClass::Small,
    )
    .expect("cell measures");
    let factor = cell.scaled_cp as f64 / cell.critical_path as f64;
    assert!(
        (4.0..=6.5).contains(&factor),
        "STREAM scaled/unit CP factor {factor} (expected ~6)"
    );
}

#[test]
fn minisweep_has_high_cross_angle_ilp() {
    // Paper Table 1: minisweep's ILP is in the thousands (independent
    // angle sweeps). At Test size (2 angles, tiny grid) it is merely
    // "high"; check it clearly exceeds serial workloads' ILP.
    let sweep = run_cell(
        Workload::Minisweep,
        IsaKind::RiscV,
        &Personality::gcc122(),
        SizeClass::Small,
    )
    .expect("cell measures");
    assert!(sweep.ilp() > 20.0, "sweep ILP {}", sweep.ilp());
}
