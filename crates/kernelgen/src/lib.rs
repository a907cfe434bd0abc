#![warn(missing_docs)]
//! Loop-kernel IR and code generators for RV64G and AArch64.
//!
//! This crate stands in for the paper's GCC 9.2 / GCC 12.2 cross-compilers:
//! each workload is expressed once in a small loop-nest IR and lowered to
//! real machine code for both ISAs. The two *compiler personalities*
//! ([`Personality::gcc92`], [`Personality::gcc122`]) switch exactly the
//! code-generation idioms the paper's §3.3 analysis documents:
//!
//! * AArch64 register-offset addressing (`ldr d1, [x22, x0, lsl #3]`) with a
//!   single shared index increment, versus RISC-V pointer bumping with one
//!   `add` per array (Listings 1-2);
//! * the AArch64 conditional-branch penalty: every loop back-edge needs an
//!   NZCV-setting instruction (`cmp`, or the GCC 9.2 `sub`+`subs` pair)
//!   while RISC-V fuses compare-and-branch into one `bne`;
//! * GCC 12.2's better loop-exit selection on AArch64 (`cmp` against a
//!   precomputed bound — the 12.5 % STREAM path-length reduction);
//! * GCC 9.2's weaker address folding (explicit `addi` for stencil offsets
//!   rather than folding them into the load/store immediate), which is why
//!   offset-heavy benchmarks (LBM) improve with the newer compiler while
//!   STREAM's RISC-V code is identical across versions;
//! * optional idioms the paper discusses but GCC does not emit (post-indexed
//!   addressing on AArch64), exposed for the ablation experiment E6.
//!
//! A reference interpreter ([`interp::interpret`]) executes the IR directly
//! on the host; workload tests assert that both ISA back-ends produce
//! bit-identical checksums to it.
//!
//! ```
//! use kernelgen::*;
//! use simcore::{CpuState, EmulationCore, IsaKind};
//!
//! // b[i] = 2 * a[i] over 16 elements.
//! let mut prog = KernelProgram::new("double");
//! let a = prog.array("a", 16, ArrayInit::Linear { start: 1.0, step: 1.0 });
//! let b = prog.array("b", 16, ArrayInit::Zero);
//! let unit = |arr| Access { arr, strides: vec![1], offset: 0 };
//! prog.kernel(Kernel {
//!     name: "double".into(),
//!     dims: vec![16],
//!     accs: vec![],
//!     body: vec![Stmt::Store {
//!         access: unit(b),
//!         value: Expr::mul(Expr::Const(2.0), Expr::Load(unit(a))),
//!     }],
//! });
//! prog.checksum_arrays.push(b);
//!
//! let expected = interpret(&prog, &Personality::gcc122()).checksum;
//! for isa in [IsaKind::RiscV, IsaKind::AArch64] {
//!     let compiled = compile(&prog, isa, &Personality::gcc122());
//!     let mut st = CpuState::new();
//!     compiled.program.load(&mut st).unwrap();
//!     match isa {
//!         IsaKind::RiscV => EmulationCore::new(isa_riscv::RiscVExecutor::new())
//!             .run(&mut st, &mut []).unwrap(),
//!         IsaKind::AArch64 => EmulationCore::new(isa_aarch64::AArch64Executor::new())
//!             .run(&mut st, &mut []).unwrap(),
//!     };
//!     let got = st.mem.read_f64(compiled.checksum_addr).unwrap();
//!     assert_eq!(got.to_bits(), expected.to_bits());
//! }
//! ```

pub mod arm;
pub mod interp;
pub mod ir;
pub mod personality;
pub mod riscv;

pub use interp::{interpret, ReferenceKey};
pub use ir::*;
pub use personality::Personality;

use simcore::IsaKind;
use std::collections::HashMap;

/// A compiled workload image plus the metadata tests and analyses need.
pub struct Compiled {
    /// The loadable machine-code image.
    pub program: simcore::Program,
    /// Guest address of the 8-byte checksum slot written before exit.
    pub checksum_addr: u64,
    /// Guest address of each IR array.
    pub array_addrs: HashMap<String, u64>,
}

/// Compile an IR program for `isa` under the given compiler personality.
pub fn compile(prog: &KernelProgram, isa: IsaKind, p: &Personality) -> Compiled {
    match isa {
        IsaKind::RiscV => riscv::compile(prog, p),
        IsaKind::AArch64 => arm::compile(prog, p),
    }
}
pub(crate) mod util;
