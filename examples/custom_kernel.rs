//! Bring your own benchmark: write a kernel in the loop-kernel IR, compile
//! it for both ISAs under both compiler personalities, validate it against
//! the reference interpreter, and run the paper's analyses on it.
//!
//! The kernel here is a 1-D Jacobi smoother — a stencil, so it exercises
//! exactly the addressing-mode trade-offs the paper's §3.3 dissects.
//!
//! ```sh
//! cargo run --release --example custom_kernel
//! ```

use isacmp::{
    compile, execute, interpret, DualCriticalPath, IsaKind, PathLength, Personality, SizeClass,
    Tx2Latency,
};
use kernelgen::{Access, ArrayInit, Expr, Kernel, KernelProgram, Stmt};

fn jacobi(n: u64, sweeps: u64) -> KernelProgram {
    let mut p = KernelProgram::new("jacobi1d");
    let a = p.array(
        "a",
        n + 2,
        ArrayInit::Linear {
            start: 0.0,
            step: 1.0,
        },
    );
    let b = p.array("b", n + 2, ArrayInit::Zero);
    let at = |arr, offset| Access {
        arr,
        strides: vec![1],
        offset,
    };
    // b[i] = (a[i-1] + a[i] + a[i+1]) / 3, then copy back.
    p.kernel(Kernel {
        name: "smooth".into(),
        dims: vec![n],
        accs: vec![],
        body: vec![Stmt::Store {
            access: at(b, 1),
            value: Expr::mul(
                Expr::add(
                    Expr::add(Expr::Load(at(a, 0)), Expr::Load(at(a, 1))),
                    Expr::Load(at(a, 2)),
                ),
                Expr::Const(1.0 / 3.0),
            ),
        }],
    });
    p.kernel(Kernel {
        name: "copy_back".into(),
        dims: vec![n],
        accs: vec![],
        body: vec![Stmt::Store {
            access: at(a, 1),
            value: Expr::Load(at(b, 1)),
        }],
    });
    p.repeat = sweeps;
    p.checksum_arrays = vec![a];
    p
}

fn main() {
    let prog = jacobi(4096, 8);
    let _ = SizeClass::Small; // sizes are explicit for custom kernels

    println!("1-D Jacobi smoother, N=4096, 8 sweeps\n");
    println!(
        "{:<10}{:<10}{:>14}{:>12}{:>8}   checksum",
        "compiler", "isa", "path length", "CP", "ILP"
    );
    for p in [Personality::gcc92(), Personality::gcc122()] {
        let expected = interpret(&prog, &p).checksum;
        for isa in [IsaKind::AArch64, IsaKind::RiscV] {
            let compiled = compile(&prog, isa, &p);
            let mut pl = PathLength::new(&compiled.program.regions);
            let mut cp = DualCriticalPath::new(Tx2Latency);
            let (st, _) = execute(&compiled, &mut [&mut pl, &mut cp]);
            let got = st.mem.read_f64(compiled.checksum_addr).unwrap();
            assert_eq!(
                got.to_bits(),
                expected.to_bits(),
                "guest must match interpreter"
            );
            let r = cp.unit();
            println!(
                "{:<10}{:<10}{:>14}{:>12}{:>8.0}   {:.6e}",
                p.label(),
                isacmp::isa_label(isa),
                pl.total(),
                r.critical_path,
                r.ilp(),
                got
            );
        }
    }
    println!("\nAll four binaries computed the identical checksum (bit-exact).");
}
