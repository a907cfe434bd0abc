//! The reference checksum a matrix's cells share: both compiler
//! personalities must expect the same checksum for every workload, and a
//! fault-armed cell must still compare its own guest checksum against the
//! shared one.

use isacmp::{
    interpret, run_cell_with_reference, CellOptions, FaultPlan, IsaKind, Personality, ReferenceKey,
    ReferenceMemo, SizeClass, Workload,
};

#[test]
fn both_compilers_expect_the_same_checksum_for_every_workload() {
    let (gcc92, gcc122) = (Personality::gcc92(), Personality::gcc122());
    assert_eq!(ReferenceKey::of(&gcc92), ReferenceKey::of(&gcc122));
    for w in Workload::ALL {
        let prog = w.build(SizeClass::Test);
        assert_eq!(
            interpret(&prog, &gcc92).checksum.to_bits(),
            interpret(&prog, &gcc122).checksum.to_bits(),
            "{}",
            w.name()
        );
    }
}

#[test]
fn a_fault_armed_cell_checks_its_own_checksum_against_the_shared_one() {
    let reference = ReferenceMemo::new();
    let clean = CellOptions::default();
    // Flip an exponent bit of the 40th read, as tests/fault_matrix.rs does.
    let faulted = CellOptions {
        campaign: Some(FaultPlan::parse("read@40:62").unwrap().into()),
        ..Default::default()
    };
    let run = |isa, p: &Personality, opts| {
        run_cell_with_reference(Workload::Stream, isa, p, SizeClass::Test, opts, &reference)
    };
    run(IsaKind::AArch64, &Personality::gcc92(), &clean).expect("clean cell measures");
    let err = run(IsaKind::RiscV, &Personality::gcc122(), &faulted)
        .expect_err("a corrupted read must not produce the reference checksum");
    assert!(
        matches!(err.kind(), "checksum" | "sim"),
        "unexpected failure kind {}: {err}",
        err.kind()
    );
    run(IsaKind::RiscV, &Personality::gcc92(), &clean).expect("clean cell measures");
    // The cells share one checksum: it is there for either compiler
    // without computing it again.
    for p in [Personality::gcc92(), Personality::gcc122()] {
        let shared = reference.checksum(Workload::Stream, SizeClass::Test, &p, || {
            panic!("the cells left no shared checksum")
        });
        let prog = Workload::Stream.build(SizeClass::Test);
        assert_eq!(shared.to_bits(), interpret(&prog, &p).checksum.to_bits());
    }
}
