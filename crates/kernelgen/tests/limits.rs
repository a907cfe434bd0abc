//! Negative tests: the back-ends must fail loudly and clearly when a
//! kernel exceeds the physical register files, rather than emitting
//! silently wrong code.

use kernelgen::*;
use simcore::IsaKind;

fn unit(arr: ArrayId) -> Access {
    Access {
        arr,
        strides: vec![1],
        offset: 0,
    }
}

/// A kernel touching `n` distinct arrays (each needs a cursor register).
fn many_arrays(n: usize) -> KernelProgram {
    let mut p = KernelProgram::new("wide");
    let arrays: Vec<ArrayId> = (0..n)
        .map(|i| p.array(&format!("a{i}"), 8, ArrayInit::Fill(1.0)))
        .collect();
    let sum = arrays[1..]
        .iter()
        .map(|&a| Expr::Load(unit(a)))
        .reduce(Expr::add)
        .unwrap();
    p.kernel(Kernel {
        name: "wide".into(),
        dims: vec![8],
        accs: vec![],
        body: vec![Stmt::Store {
            access: unit(arrays[0]),
            value: sum,
        }],
    });
    p.checksum_arrays.push(arrays[0]);
    p
}

#[test]
fn reasonable_width_compiles_on_both() {
    // A dozen arrays fits both pools comfortably.
    let p = many_arrays(12);
    for isa in [IsaKind::RiscV, IsaKind::AArch64] {
        let c = compile(&p, isa, &Personality::gcc122());
        assert!(c.program.image_size() > 0);
    }
}

#[test]
#[should_panic(expected = "out of integer registers")]
fn riscv_register_exhaustion_panics_clearly() {
    let p = many_arrays(40);
    compile(&p, IsaKind::RiscV, &Personality::gcc122());
}

#[test]
#[should_panic(expected = "out of integer registers")]
fn arm_register_exhaustion_panics_clearly() {
    let p = many_arrays(40);
    compile(&p, IsaKind::AArch64, &Personality::gcc122());
}

#[test]
#[should_panic(expected = "out of pinned FP registers")]
fn too_many_temps_panics_clearly() {
    let mut p = KernelProgram::new("temps");
    let a = p.array("a", 8, ArrayInit::Fill(1.0));
    let body: Vec<Stmt> = (0..20)
        .map(|i| Stmt::Def {
            temp: TempId(i),
            expr: Expr::Load(unit(a)),
        })
        .collect();
    p.kernel(Kernel {
        name: "k".into(),
        dims: vec![8],
        accs: vec![],
        body,
    });
    p.checksum_arrays.push(a);
    compile(&p, IsaKind::RiscV, &Personality::gcc122());
}
