//! Differential validation of the whole stack: every workload, compiled for
//! both ISAs under both compiler personalities, executed in the emulator,
//! must produce the reference interpreter's checksum bit-for-bit.

use isa_aarch64::AArch64Executor;
use isa_riscv::RiscVExecutor;
use kernelgen::{compile, interpret, Personality};
use simcore::{CpuState, EmulationCore, IsaKind};
use workloads::{SizeClass, Workload};

fn run_guest(w: Workload, isa: IsaKind, p: &Personality) -> (f64, u64) {
    let prog = w.build(SizeClass::Test);
    let c = compile(&prog, isa, p);
    let mut st = CpuState::new();
    c.program.load(&mut st).unwrap();
    let stats = match isa {
        IsaKind::RiscV => EmulationCore::new(RiscVExecutor::new())
            .run(&mut st, &mut [])
            .unwrap(),
        IsaKind::AArch64 => EmulationCore::new(AArch64Executor::new())
            .run(&mut st, &mut [])
            .unwrap(),
    };
    assert_eq!(stats.exit_code, 0);
    (st.mem.read_f64(c.checksum_addr).unwrap(), stats.retired)
}

#[test]
fn all_workloads_match_reference_on_both_isas() {
    for w in Workload::ALL {
        for personality in [Personality::gcc92(), Personality::gcc122()] {
            let expected = interpret(&w.build(SizeClass::Test), &personality).checksum;
            for isa in [IsaKind::RiscV, IsaKind::AArch64] {
                let (got, retired) = run_guest(w, isa, &personality);
                assert_eq!(
                    got.to_bits(),
                    expected.to_bits(),
                    "{} on {} ({}): got {got}, expected {expected}",
                    w.name(),
                    isa,
                    personality.label()
                );
                assert!(retired > 0);
            }
        }
    }
}

#[test]
fn cross_isa_checksums_identical() {
    // Both ISAs implement IEEE 754 double arithmetic: bit-identical results.
    for w in Workload::ALL {
        let p = Personality::gcc122();
        let (rv, _) = run_guest(w, IsaKind::RiscV, &p);
        let (arm, _) = run_guest(w, IsaKind::AArch64, &p);
        assert_eq!(
            rv.to_bits(),
            arm.to_bits(),
            "{} cross-ISA mismatch",
            w.name()
        );
    }
}

#[test]
fn path_lengths_within_paper_ballpark() {
    // The paper's headline: path lengths for the two ISAs are mostly within
    // ~20 % of each other. Check the ratio at test size for GCC 12.2.
    for w in Workload::ALL {
        let p = Personality::gcc122();
        let (_, rv) = run_guest(w, IsaKind::RiscV, &p);
        let (_, arm) = run_guest(w, IsaKind::AArch64, &p);
        let ratio = rv as f64 / arm as f64;
        assert!(
            (0.6..=1.7).contains(&ratio),
            "{}: RISC-V/AArch64 path-length ratio {ratio:.3} out of plausible range ({rv} vs {arm})",
            w.name()
        );
    }
}

#[test]
fn ablation_knobs_change_path_length_only() {
    // Toggling idiom knobs must never change results, only instruction
    // counts.
    let w = Workload::Stream;
    let base = Personality::gcc122();
    let mut post = base;
    post.arm_post_index = true;
    let mut noreg = base;
    noreg.arm_register_offset = false;
    let mut nofuse = base;
    nofuse.riscv_fused_compare_branch = false;

    let (ref_arm, base_arm) = run_guest(w, IsaKind::AArch64, &base);
    let (ref_rv, base_rv) = run_guest(w, IsaKind::RiscV, &base);
    for p in [post, noreg] {
        let (got, n) = run_guest(w, IsaKind::AArch64, &p);
        assert_eq!(got.to_bits(), ref_arm.to_bits());
        assert_ne!(n, base_arm, "arm knob should change the path length");
    }
    let (got, n) = run_guest(w, IsaKind::RiscV, &nofuse);
    assert_eq!(got.to_bits(), ref_rv.to_bits());
    assert!(n > base_rv, "unfused compare-branch must lengthen the path");
}
