//! RV64G back-end for the kernel IR.
//!
//! Lowering follows the idioms the paper observed in GCC's RISC-V output
//! (Listing 2): one pointer ("cursor") register per array, bumped by
//! `addi` every innermost iteration, with the loop back-edge a single fused
//! compare-and-branch (`bne cursor, end, loop`). Constant stencil offsets
//! fold into the load/store immediate under the GCC 12.2 personality and
//! cost an explicit address `addi` under GCC 9.2.

use std::collections::HashMap;

use isa_riscv::{FpWidth, Inst, RvAsm};

use crate::ir::*;
use crate::personality::Personality;
use crate::util::{access_strides, arrays_used, canonical_offsets, collect_consts, inner_stride};
use crate::Compiled;

const TEXT_BASE: u64 = 0x1_0000;
const DATA_BASE: u64 = 0x20_0000;

/// Integer registers handed out to cursors/counters/ends, in order.
/// (t0-t6, s2-s11, s1, a0-a6 — a7/a0 are clobbered at exit only.)
const INT_POOL: &[u8] = &[
    5, 6, 7, 28, 29, 30, 31, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 9, 10, 11, 12, 13, 14, 15, 16,
];

/// FP registers for pinned values (accumulators, temps, hoisted constants).
const FP_PINNED: &[u8] = &[
    8, 9, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 10, 11, 12, 13, 14, 15,
];

/// FP scratch registers for expression evaluation.
const FP_SCRATCH: &[u8] = &[0, 1, 2, 3, 4, 5, 6, 7, 28, 29, 30, 31, 16, 17];

struct IntAlloc {
    next: usize,
}

impl IntAlloc {
    fn new() -> Self {
        IntAlloc { next: 0 }
    }
    fn get(&mut self, what: &str) -> u8 {
        assert!(
            self.next < INT_POOL.len(),
            "riscv backend out of integer registers ({what})"
        );
        let r = INT_POOL[self.next];
        self.next += 1;
        r
    }
}

struct FpScratch {
    free: Vec<u8>,
}

impl FpScratch {
    fn new() -> Self {
        FpScratch {
            free: FP_SCRATCH.to_vec(),
        }
    }
    fn alloc(&mut self) -> u8 {
        self.free
            .pop()
            .expect("riscv backend out of FP scratch registers")
    }
    fn release(&mut self, r: u8) {
        if FP_SCRATCH.contains(&r) && !self.free.contains(&r) {
            self.free.push(r);
        }
    }
}

/// A value produced by expression evaluation: the register and whether it is
/// a scratch we own (and may overwrite / must release).
#[derive(Clone, Copy)]
struct Val {
    reg: u8,
    scratch: bool,
}

struct KernelCtx {
    /// Cursor register per array id (arrays used by this kernel).
    cursors: HashMap<usize, u8>,
    /// Canonical offset folded into each array's cursor.
    canon: HashMap<usize, i64>,
    /// Pinned register per accumulator.
    acc_regs: Vec<u8>,
    /// Pinned register per temp id.
    temp_regs: HashMap<usize, u8>,
    /// Pinned register per hoisted constant (by bits).
    const_regs: HashMap<u64, u8>,
    /// Two integer scratch registers for address computation / compares.
    int_scratch: [u8; 2],
}

struct Backend<'a> {
    asm: RvAsm,
    p: &'a Personality,
    array_addrs: Vec<u64>,
    const_pool_addr: HashMap<u64, u64>,
}

impl Backend<'_> {
    /// `add rd, rs, imm` handling any immediate size.
    fn add_any(&mut self, rd: u8, rs: u8, imm: i64) {
        if (-2048..2048).contains(&imm) {
            self.asm.addi(rd, rs, imm);
        } else {
            let tmp: u8 = 1; // ra is free as a pure scratch here
            self.asm.li(tmp, imm);
            self.asm.add(rd, rs, tmp);
        }
    }

    fn emit_load(&mut self, ctx: &KernelCtx, acc: &Access, dst: u8) {
        let cursor = ctx.cursors[&acc.arr.0];
        let byte_off = (acc.offset - ctx.canon[&acc.arr.0]) * 8;
        if byte_off == 0 {
            self.asm.fld(dst, cursor, 0);
        } else if self.p.fold_const_offsets && (-2048..2048).contains(&byte_off) {
            self.asm.fld(dst, cursor, byte_off);
        } else {
            let t = ctx.int_scratch[0];
            self.add_any(t, cursor, byte_off);
            self.asm.fld(dst, t, 0);
        }
    }

    fn emit_store(&mut self, ctx: &KernelCtx, acc: &Access, src: u8) {
        let cursor = ctx.cursors[&acc.arr.0];
        let byte_off = (acc.offset - ctx.canon[&acc.arr.0]) * 8;
        if byte_off == 0 {
            self.asm.fsd(src, cursor, 0);
        } else if self.p.fold_const_offsets && (-2048..2048).contains(&byte_off) {
            self.asm.fsd(src, cursor, byte_off);
        } else {
            let t = ctx.int_scratch[0];
            self.add_any(t, cursor, byte_off);
            self.asm.fsd(src, t, 0);
        }
    }

    /// Evaluate an expression, returning the register holding the result.
    fn eval(&mut self, ctx: &KernelCtx, fs: &mut FpScratch, e: &Expr) -> Val {
        match e {
            Expr::Const(v) => {
                let bits = v.to_bits();
                if let Some(&r) = ctx.const_regs.get(&bits) {
                    return Val {
                        reg: r,
                        scratch: false,
                    };
                }
                // Unhoisted constant: load from the pool inline.
                let addr = self.const_pool_addr[&bits];
                let t = ctx.int_scratch[1];
                self.asm.la(t, addr);
                let dst = fs.alloc();
                self.asm.fld(dst, t, 0);
                Val {
                    reg: dst,
                    scratch: true,
                }
            }
            Expr::Temp(t) => Val {
                reg: ctx.temp_regs[&t.0],
                scratch: false,
            },
            Expr::Acc(a) => Val {
                reg: ctx.acc_regs[a.0],
                scratch: false,
            },
            Expr::Load(acc) => {
                let dst = fs.alloc();
                self.emit_load(ctx, acc, dst);
                Val {
                    reg: dst,
                    scratch: true,
                }
            }
            Expr::Un(op, a) => {
                let av = self.eval(ctx, fs, a);
                let dst = if av.scratch { av.reg } else { fs.alloc() };
                match op {
                    UnOp::Neg => self.asm.fneg_d(dst, av.reg),
                    UnOp::Abs => self.asm.fabs_d(dst, av.reg),
                    UnOp::Sqrt => self.asm.fsqrt_d(dst, av.reg),
                }
                Val {
                    reg: dst,
                    scratch: true,
                }
            }
            Expr::Bin(op, a, b) => {
                let av = self.eval(ctx, fs, a);
                let bv = self.eval(ctx, fs, b);
                let dst = if av.scratch {
                    av.reg
                } else if bv.scratch {
                    bv.reg
                } else {
                    fs.alloc()
                };
                match op {
                    BinOp::Add => self.asm.fadd_d(dst, av.reg, bv.reg),
                    BinOp::Sub => self.asm.fsub_d(dst, av.reg, bv.reg),
                    BinOp::Mul => self.asm.fmul_d(dst, av.reg, bv.reg),
                    BinOp::Div => self.asm.fdiv_d(dst, av.reg, bv.reg),
                    BinOp::Min => self.asm.fmin_d(dst, av.reg, bv.reg),
                    BinOp::Max => self.asm.fmax_d(dst, av.reg, bv.reg),
                }
                if av.scratch && av.reg != dst {
                    fs.release(av.reg);
                }
                if bv.scratch && bv.reg != dst {
                    fs.release(bv.reg);
                }
                Val {
                    reg: dst,
                    scratch: true,
                }
            }
            Expr::MulAdd(a, b, c) => {
                let av = self.eval(ctx, fs, a);
                let bv = self.eval(ctx, fs, b);
                let cv = self.eval(ctx, fs, c);
                let dst = if av.scratch {
                    av.reg
                } else if bv.scratch {
                    bv.reg
                } else if cv.scratch {
                    cv.reg
                } else {
                    fs.alloc()
                };
                if self.p.fuse_fma {
                    self.asm.fmadd_d(dst, av.reg, bv.reg, cv.reg);
                } else {
                    // dst must not alias c before the multiply executes.
                    let prod = if av.scratch {
                        av.reg
                    } else if bv.scratch {
                        bv.reg
                    } else {
                        dst
                    };
                    if prod == cv.reg {
                        // All three share registers; take a fresh scratch.
                        let fresh = fs.alloc();
                        self.asm.fmul_d(fresh, av.reg, bv.reg);
                        self.asm.fadd_d(dst, fresh, cv.reg);
                        fs.release(fresh);
                    } else {
                        self.asm.fmul_d(prod, av.reg, bv.reg);
                        self.asm.fadd_d(dst, prod, cv.reg);
                    }
                }
                for v in [av, bv, cv] {
                    if v.scratch && v.reg != dst {
                        fs.release(v.reg);
                    }
                }
                Val {
                    reg: dst,
                    scratch: true,
                }
            }
            Expr::Select { cmp, a, b, t, e } => {
                // RISC-V has no FP conditional select: compare into an
                // integer register, then a branch diamond over an fmv.
                // The then-value is evaluated *before* the compare so the
                // integer compare result is live only across the branch
                // (nested evaluation may clobber the scratch registers).
                let av = self.eval(ctx, fs, a);
                let bv = self.eval(ctx, fs, b);
                let dst = fs.alloc();
                let tv = self.eval(ctx, fs, t);
                self.asm.fmv_d(dst, tv.reg);
                if tv.scratch {
                    fs.release(tv.reg);
                }
                let c = ctx.int_scratch[1];
                match cmp {
                    CmpOp::Lt => self.asm.flt_d(c, av.reg, bv.reg),
                    CmpOp::Le => self.asm.fle_d(c, av.reg, bv.reg),
                    CmpOp::Eq => self.asm.feq_d(c, av.reg, bv.reg),
                }
                if av.scratch {
                    fs.release(av.reg);
                }
                if bv.scratch {
                    fs.release(bv.reg);
                }
                let skip = self.asm.new_label();
                self.asm.bne(c, 0, skip);
                let ev = self.eval(ctx, fs, e);
                self.asm.fmv_d(dst, ev.reg);
                if ev.scratch {
                    fs.release(ev.reg);
                }
                self.asm.bind(skip);
                Val {
                    reg: dst,
                    scratch: true,
                }
            }
        }
    }

    fn lower_kernel(&mut self, k: &Kernel) {
        let ndim = k.dims.len();
        let arrays = arrays_used(k);
        let mut ia = IntAlloc::new();
        let mut ctx = KernelCtx {
            cursors: HashMap::new(),
            canon: canonical_offsets(k),
            acc_regs: Vec::new(),
            temp_regs: HashMap::new(),
            const_regs: HashMap::new(),
            int_scratch: [0, 0],
        };
        ctx.int_scratch = [ia.get("addr scratch"), ia.get("cmp scratch")];

        self.asm.begin_region(&k.name);

        // Cursors start at each array's base plus the canonical offset,
        // so stencil accesses use small relative immediates (GCC ivopts).
        for &arr in &arrays {
            let r = ia.get("array cursor");
            ctx.cursors.insert(arr, r);
            let addr = (self.array_addrs[arr] as i64 + 8 * ctx.canon[&arr]) as u64;
            self.asm.la(r, addr);
        }

        // Pinned FP registers: accumulators, temps, hoisted constants.
        let mut fp_pin = FP_PINNED.to_vec();
        let pin = |what: &str, fp_pin: &mut Vec<u8>| -> u8 {
            assert!(
                !fp_pin.is_empty(),
                "riscv backend out of pinned FP registers ({what})"
            );
            fp_pin.remove(0)
        };
        for acc in &k.accs {
            let r = pin("acc", &mut fp_pin);
            ctx.acc_regs.push(r);
            if acc.init == 0.0 {
                self.asm.push(Inst::FmvToFp {
                    width: FpWidth::D,
                    frd: r,
                    rs1: 0,
                });
            } else {
                let addr = self.const_pool_addr[&acc.init.to_bits()];
                let t = ctx.int_scratch[0];
                self.asm.la(t, addr);
                self.asm.fld(r, t, 0);
            }
        }
        let mut temp_ids: Vec<usize> = Vec::new();
        for s in &k.body {
            if let Stmt::Def { temp, .. } = s {
                temp_ids.push(temp.0);
            }
        }
        for t in temp_ids {
            let r = pin("temp", &mut fp_pin);
            ctx.temp_regs.insert(t, r);
        }
        let mut consts = Vec::new();
        collect_consts(k, &mut consts);
        for bits in consts {
            if fp_pin.is_empty() {
                break; // remaining constants load inline
            }
            let r = pin("const", &mut fp_pin);
            ctx.const_regs.insert(bits, r);
            if bits == 0 {
                self.asm.push(Inst::FmvToFp {
                    width: FpWidth::D,
                    frd: r,
                    rs1: 0,
                });
            } else {
                let addr = self.const_pool_addr[&bits];
                let t = ctx.int_scratch[0];
                self.asm.la(t, addr);
                self.asm.fld(r, t, 0);
            }
        }

        // Loop nest: outer counters, inner cursor/end or counter loop.
        let inner_trip = *k.dims.last().unwrap() as i64;
        let strided: Vec<(usize, i64)> = arrays
            .iter()
            .map(|&a| (a, inner_stride(k, a)))
            .filter(|&(_, s)| s != 0)
            .collect();
        let primary = strided.first().copied();

        struct OuterLoop {
            counter: u8,
            label: isa_riscv::asm::Label,
        }
        let mut outers: Vec<OuterLoop> = Vec::new();
        for d in 0..ndim - 1 {
            let counter = ia.get("outer counter");
            self.asm.li(counter, k.dims[d] as i64);
            let label = self.asm.new_label();
            self.asm.bind(label);
            outers.push(OuterLoop { counter, label });
        }

        // Inner loop entry: compute end pointer (cursor mode) or counter.
        let inner_label = self.asm.new_label();
        let mut end_reg = None;
        let mut counter_reg = None;
        match primary {
            Some((arr, stride)) => {
                let r = ia.get("end pointer");
                let delta = 8 * stride * inner_trip;
                self.add_any(r, ctx.cursors[&arr], delta);
                end_reg = Some((r, arr));
            }
            None => {
                let r = ia.get("inner counter");
                self.asm.li(r, inner_trip);
                counter_reg = Some(r);
            }
        }
        self.asm.bind(inner_label);

        // Body.
        let mut fs = FpScratch::new();
        for s in &k.body {
            match s {
                Stmt::Def { temp, expr } => {
                    let v = self.eval(&ctx, &mut fs, expr);
                    let pinreg = ctx.temp_regs[&temp.0];
                    if v.reg != pinreg {
                        self.asm.fmv_d(pinreg, v.reg);
                    }
                    if v.scratch {
                        fs.release(v.reg);
                    }
                }
                Stmt::Store { access, value } => {
                    let v = self.eval(&ctx, &mut fs, value);
                    self.emit_store(&ctx, access, v.reg);
                    if v.scratch {
                        fs.release(v.reg);
                    }
                }
                Stmt::Accum { acc, op, value } => {
                    let v = self.eval(&ctx, &mut fs, value);
                    let a = ctx.acc_regs[acc.0];
                    match op {
                        BinOp::Add => self.asm.fadd_d(a, a, v.reg),
                        BinOp::Min => self.asm.fmin_d(a, a, v.reg),
                        BinOp::Max => self.asm.fmax_d(a, a, v.reg),
                        _ => unreachable!(),
                    }
                    if v.scratch {
                        fs.release(v.reg);
                    }
                }
            }
        }

        // Cursor bumps + back edge.
        for &(arr, stride) in &strided {
            let c = ctx.cursors[&arr];
            self.add_any(c, c, 8 * stride);
        }
        match (end_reg, counter_reg) {
            (Some((end, arr)), _) => {
                let c = ctx.cursors[&arr];
                if self.p.riscv_fused_compare_branch {
                    self.asm.bne(c, end, inner_label);
                } else {
                    // Ablation: explicit compare then branch-on-zero.
                    let t = ctx.int_scratch[1];
                    self.asm.push(Inst::Op {
                        op: isa_riscv::RegOp::Xor,
                        rd: t,
                        rs1: c,
                        rs2: end,
                    });
                    self.asm.bne(t, 0, inner_label);
                }
            }
            (None, Some(counter)) => {
                self.asm.addi(counter, counter, -1);
                self.asm.bne(counter, 0, inner_label);
            }
            _ => unreachable!(),
        }

        // Close outer loops innermost-outward with cursor adjustments.
        for d in (0..ndim.saturating_sub(1)).rev() {
            // Per-array adjustment: 8*stride_d - 8*stride_{d+1}*trip_{d+1}.
            for &arr in &arrays {
                let strides = access_strides(k, arr);
                let stride_d = strides[d];
                let stride_next = strides[d + 1];
                let trip_next = k.dims[d + 1] as i64;
                let adj = 8 * (stride_d - stride_next * trip_next);
                if adj != 0 {
                    let c = ctx.cursors[&arr];
                    if strides[..=d].iter().all(|&s| s == 0) {
                        // The cursor returns to a compile-time-constant
                        // position: re-derive it instead of adjusting, as
                        // GCC does for loop-invariant bases. This also
                        // breaks the pointer's dependency chain — without
                        // it the addi chain through the whole nest caps
                        // the measured ILP at the body size.
                        let addr = (self.array_addrs[arr] as i64 + 8 * ctx.canon[&arr]) as u64;
                        self.asm.la(c, addr);
                    } else {
                        self.add_any(c, c, adj);
                    }
                }
            }
            let o = &outers[d];
            self.asm.addi(o.counter, o.counter, -1);
            self.asm.bne(o.counter, 0, o.label);
        }

        // Store accumulators.
        for (i, acc) in k.accs.iter().enumerate() {
            if let Some((arr, elem)) = acc.store_to {
                let addr = self.array_addrs[arr.0] + 8 * elem;
                let t = ctx.int_scratch[0];
                self.asm.la(t, addr);
                self.asm.fsd(ctx.acc_regs[i], t, 0);
            }
        }
        self.asm.end_region();
    }
}

/// Compile `prog` for RV64G.
pub fn compile(prog: &KernelProgram, p: &Personality) -> Compiled {
    prog.validate();
    let (aug, result_arr) = augment_with_checksum(prog);
    let mut asm = RvAsm::new(TEXT_BASE, DATA_BASE);

    // Lay out arrays and the constant pool in the data section.
    let mut array_addrs = Vec::with_capacity(aug.arrays.len());
    for decl in &aug.arrays {
        let addr = match &decl.init {
            ArrayInit::Zero => asm.data_zero(8 * decl.len as usize, 8),
            other => {
                let _ = other;
                asm.data_f64_array(&init_values(decl))
            }
        };
        array_addrs.push(addr);
    }
    let mut const_pool_addr = HashMap::new();
    let mut pool_consts = Vec::new();
    for k in &aug.kernels {
        collect_consts(k, &mut pool_consts);
        for acc in &k.accs {
            let b = acc.init.to_bits();
            if !pool_consts.contains(&b) {
                pool_consts.push(b);
            }
        }
    }
    for bits in pool_consts {
        let addr = asm.data_u64(bits);
        const_pool_addr.insert(bits, addr);
    }

    let mut be = Backend {
        asm,
        p,
        array_addrs,
        const_pool_addr,
    };

    // Repeat loop around the original kernels; checksum kernels run once.
    let n_orig = prog.kernels.len();
    let rep_reg = 8; // s0: outside the allocator pool
    if aug.repeat > 1 {
        be.asm.li(rep_reg, aug.repeat as i64);
    }
    let rep_label = be.asm.new_label();
    be.asm.bind(rep_label);
    for k in &aug.kernels[..n_orig] {
        be.lower_kernel(k);
    }
    if aug.repeat > 1 {
        // The repeat body spans all kernels and can exceed the +-4 KiB
        // B-type range, so use the standard far-branch idiom: an inverted
        // short branch over an unconditional jump (J-type: +-1 MiB).
        be.asm.addi(rep_reg, rep_reg, -1);
        let done = be.asm.new_label();
        be.asm.beq(rep_reg, 0, done);
        be.asm.j(rep_label);
        be.asm.bind(done);
    }
    for k in &aug.kernels[n_orig..] {
        be.lower_kernel(k);
    }
    be.asm.exit(0);

    let checksum_addr = be.array_addrs[result_arr.0];
    let array_addrs = aug
        .arrays
        .iter()
        .zip(be.array_addrs.iter())
        .map(|(d, a)| (d.name.clone(), *a))
        .collect();
    Compiled {
        program: be.asm.finish(),
        checksum_addr,
        array_addrs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::interpret;
    use isa_riscv::RiscVExecutor;
    use simcore::{CpuState, EmulationCore};

    fn run(program: &simcore::Program) -> CpuState {
        let mut st = CpuState::new();
        program.load(&mut st).unwrap();
        let core = EmulationCore::new(RiscVExecutor::new());
        core.run(&mut st, &mut []).unwrap();
        st
    }

    fn check(prog: &KernelProgram, p: &Personality) {
        let expected = interpret(prog, p).checksum;
        let c = compile(prog, p);
        let st = run(&c.program);
        let got = st.mem.read_f64(c.checksum_addr).unwrap();
        assert_eq!(
            got.to_bits(),
            expected.to_bits(),
            "checksum mismatch for {}: got {got}, expected {expected}",
            prog.name
        );
    }

    fn unit(arr: ArrayId) -> Access {
        Access {
            arr,
            strides: vec![1],
            offset: 0,
        }
    }

    #[test]
    fn copy_kernel_both_personalities() {
        let mut p = KernelProgram::new("copy");
        let a = p.array(
            "a",
            64,
            ArrayInit::Linear {
                start: 0.5,
                step: 0.25,
            },
        );
        let b = p.array("b", 64, ArrayInit::Zero);
        p.kernel(Kernel {
            name: "copy".into(),
            dims: vec![64],
            accs: vec![],
            body: vec![Stmt::Store {
                access: unit(b),
                value: Expr::Load(unit(a)),
            }],
        });
        p.checksum_arrays.push(b);
        check(&p, &Personality::gcc92());
        check(&p, &Personality::gcc122());
    }

    #[test]
    fn triad_with_constant() {
        let mut p = KernelProgram::new("triad");
        let a = p.array("a", 32, ArrayInit::Zero);
        let b = p.array(
            "b",
            32,
            ArrayInit::Linear {
                start: 1.0,
                step: 1.0,
            },
        );
        let c = p.array(
            "c",
            32,
            ArrayInit::Linear {
                start: 2.0,
                step: 0.5,
            },
        );
        p.kernel(Kernel {
            name: "triad".into(),
            dims: vec![32],
            accs: vec![],
            body: vec![Stmt::Store {
                access: unit(a),
                value: Expr::mul_add(Expr::Const(3.0), Expr::Load(unit(c)), Expr::Load(unit(b))),
            }],
        });
        p.checksum_arrays.push(a);
        check(&p, &Personality::gcc122());
        let mut nofma = Personality::gcc122();
        nofma.fuse_fma = false;
        check(&p, &nofma);
    }

    #[test]
    fn stencil_offsets_fold_or_not() {
        let mut p = KernelProgram::new("stencil");
        let a = p.array(
            "a",
            66,
            ArrayInit::Linear {
                start: 0.0,
                step: 1.0,
            },
        );
        let b = p.array("b", 66, ArrayInit::Zero);
        p.kernel(Kernel {
            name: "stencil".into(),
            dims: vec![64],
            accs: vec![],
            body: vec![Stmt::Store {
                access: Access {
                    arr: b,
                    strides: vec![1],
                    offset: 1,
                },
                value: Expr::mul(
                    Expr::add(
                        Expr::Load(Access {
                            arr: a,
                            strides: vec![1],
                            offset: 0,
                        }),
                        Expr::Load(Access {
                            arr: a,
                            strides: vec![1],
                            offset: 2,
                        }),
                    ),
                    Expr::Const(0.5),
                ),
            }],
        });
        p.checksum_arrays.push(b);
        // Same results; different instruction counts (checked in analysis tests).
        check(&p, &Personality::gcc92());
        check(&p, &Personality::gcc122());
        // GCC 9.2 must emit more instructions (explicit address adds).
        let c92 = compile(&p, &Personality::gcc92());
        let c122 = compile(&p, &Personality::gcc122());
        let s92 = run(&c92.program);
        let s122 = run(&c122.program);
        assert!(
            s92.instret > s122.instret,
            "9.2 ({}) should execute more than 12.2 ({})",
            s92.instret,
            s122.instret
        );
    }

    #[test]
    fn two_dim_with_row_stride() {
        let mut p = KernelProgram::new("rows");
        let m = p.array(
            "m",
            40,
            ArrayInit::Linear {
                start: 0.0,
                step: 1.0,
            },
        );
        let out = p.array("out", 40, ArrayInit::Zero);
        // 5 rows x 8 cols: out[r][c] = m[r][c] * 2
        p.kernel(Kernel {
            name: "scale2d".into(),
            dims: vec![5, 8],
            accs: vec![],
            body: vec![Stmt::Store {
                access: Access {
                    arr: out,
                    strides: vec![8, 1],
                    offset: 0,
                },
                value: Expr::mul(
                    Expr::Load(Access {
                        arr: m,
                        strides: vec![8, 1],
                        offset: 0,
                    }),
                    Expr::Const(2.0),
                ),
            }],
        });
        p.checksum_arrays.push(out);
        check(&p, &Personality::gcc122());
        check(&p, &Personality::gcc92());
    }

    #[test]
    fn three_dim_nest_and_accumulator() {
        let mut p = KernelProgram::new("dot3");
        let m = p.array(
            "m",
            24,
            ArrayInit::Linear {
                start: 1.0,
                step: 0.5,
            },
        );
        let out = p.array("out", 1, ArrayInit::Zero);
        p.kernel(Kernel {
            name: "sum3".into(),
            dims: vec![2, 3, 4],
            accs: vec![AccDecl {
                init: 0.0,
                store_to: Some((out, 0)),
            }],
            body: vec![Stmt::Accum {
                acc: AccId(0),
                op: BinOp::Add,
                value: Expr::Load(Access {
                    arr: m,
                    strides: vec![12, 4, 1],
                    offset: 0,
                }),
            }],
        });
        p.checksum_arrays.push(out);
        check(&p, &Personality::gcc122());
    }

    #[test]
    fn select_lowering() {
        let mut p = KernelProgram::new("sel");
        let a = p.array(
            "a",
            16,
            ArrayInit::Linear {
                start: -4.0,
                step: 0.75,
            },
        );
        let b = p.array("b", 16, ArrayInit::Zero);
        p.kernel(Kernel {
            name: "relu".into(),
            dims: vec![16],
            accs: vec![],
            body: vec![Stmt::Store {
                access: unit(b),
                value: Expr::Select {
                    cmp: CmpOp::Lt,
                    a: Box::new(Expr::Load(unit(a))),
                    b: Box::new(Expr::Const(0.0)),
                    t: Box::new(Expr::Const(0.0)),
                    e: Box::new(Expr::Load(unit(a))),
                },
            }],
        });
        p.checksum_arrays.push(b);
        check(&p, &Personality::gcc122());
        check(&p, &Personality::gcc92());
    }

    #[test]
    fn repeat_and_multiple_kernels() {
        let mut p = KernelProgram::new("multi");
        let a = p.array("a", 8, ArrayInit::Fill(1.0));
        let b = p.array("b", 8, ArrayInit::Zero);
        p.kernel(Kernel {
            name: "k1".into(),
            dims: vec![8],
            accs: vec![],
            body: vec![Stmt::Store {
                access: unit(b),
                value: Expr::add(Expr::Load(unit(b)), Expr::Load(unit(a))),
            }],
        });
        p.repeat = 3;
        p.checksum_arrays.push(b);
        check(&p, &Personality::gcc122());
        let c = compile(&p, &Personality::gcc122());
        let st = run(&c.program);
        assert_eq!(st.mem.read_f64(c.checksum_addr).unwrap(), 24.0);
    }

    #[test]
    fn temps_and_unops() {
        let mut p = KernelProgram::new("temps");
        let a = p.array(
            "a",
            8,
            ArrayInit::Linear {
                start: 1.0,
                step: 2.0,
            },
        );
        let b = p.array("b", 8, ArrayInit::Zero);
        let t0 = TempId(0);
        p.kernel(Kernel {
            name: "k".into(),
            dims: vec![8],
            accs: vec![],
            body: vec![
                Stmt::Def {
                    temp: t0,
                    expr: Expr::sqrt(Expr::Load(unit(a))),
                },
                Stmt::Store {
                    access: unit(b),
                    value: Expr::mul(Expr::Temp(t0), Expr::Temp(t0)),
                },
            ],
        });
        p.checksum_arrays.push(b);
        check(&p, &Personality::gcc122());
    }

    #[test]
    fn fused_compare_branch_ablation() {
        let mut p = KernelProgram::new("ab");
        let a = p.array("a", 32, ArrayInit::Fill(2.0));
        let b = p.array("b", 32, ArrayInit::Zero);
        p.kernel(Kernel {
            name: "copy".into(),
            dims: vec![32],
            accs: vec![],
            body: vec![Stmt::Store {
                access: unit(b),
                value: Expr::Load(unit(a)),
            }],
        });
        p.checksum_arrays.push(b);
        let mut unfused = Personality::gcc122();
        unfused.riscv_fused_compare_branch = false;
        check(&p, &unfused);
        let fused_count = run(&compile(&p, &Personality::gcc122()).program).instret;
        let unfused_count = run(&compile(&p, &unfused).program).instret;
        assert!(unfused_count > fused_count);
    }
}
