//! AArch64 back-end for the kernel IR.
//!
//! Lowering follows the idioms the paper observed in GCC's AArch64 output
//! (Listing 1): when the inner loop walks several unit-stride arrays, GCC
//! keeps a single shared index register and uses register-offset addressing
//! (`ldr d1, [x22, x0, lsl #3]`) — one `add` per iteration regardless of
//! array count — at the price of an NZCV-setting instruction before the
//! conditional back-edge (`cmp x0, x20; b.ne`). GCC 9.2 spends *two*
//! instructions setting the flags (`sub` + `subs` against a split constant
//! bound), the paper's 12.5 % STREAM path-length difference. Post-indexed
//! addressing (the paper's "more optimal solution" GCC never picks) is
//! available behind the [`Personality::arm_post_index`] ablation knob.

use std::collections::HashMap;

use isa_aarch64::{A64Asm, Cond, FpSize, IndexMode, Inst};

use crate::ir::*;
use crate::personality::Personality;
use crate::util::{
    access_counts, access_strides, arrays_used, canonical_offsets, collect_consts,
    distinct_access_sites, inner_stride,
};
use crate::Compiled;

const TEXT_BASE: u64 = 0x1_0000;
const DATA_BASE: u64 = 0x20_0000;

/// Integer registers handed out to cursors/counters/bases, in order.
/// (x29/x30 frame/link, x16-x18 scratch/platform, x0/x2/x8 clobbered at
/// exit only.)
const INT_POOL: &[u8] = &[
    3, 4, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28,
];

/// FP registers for pinned values (accumulators, temps, hoisted constants).
const FP_PINNED: &[u8] = &[8, 9, 10, 11, 12, 13, 14, 15, 24, 25, 26, 27, 28, 29, 30, 31];

/// FP scratch registers for expression evaluation.
const FP_SCRATCH: &[u8] = &[0, 1, 2, 3, 4, 5, 6, 7, 16, 17, 18, 19, 20, 21, 22, 23];

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
            "arm backend out of integer registers ({what})"
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
            .expect("arm backend out of FP scratch registers")
    }
    fn release(&mut self, r: u8) {
        if FP_SCRATCH.contains(&r) && !self.free.contains(&r) {
            self.free.push(r);
        }
    }
}

#[derive(Clone, Copy)]
struct Val {
    reg: u8,
    scratch: bool,
}

/// Innermost-loop addressing strategy, chosen per kernel (modelling GCC's
/// induction-variable optimisation choices).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InnerMode {
    /// Shared index register, `[base, idx, lsl #3]` accesses (Listing 1).
    Index,
    /// Per-array pointer bumping with immediate offsets.
    PointerBump,
    /// Post-indexed accesses (`[base], #8`) — ablation only.
    PostIndex,
    /// No strided arrays: plain counted loop.
    Counter,
}

struct KernelCtx {
    cursors: HashMap<usize, u8>,
    /// Canonical offset folded into each array's cursor.
    canon: HashMap<usize, i64>,
    /// In index mode: precomputed base register per non-zero-offset site.
    site_bases: HashMap<(usize, i64), u8>,
    index_reg: Option<u8>,
    acc_regs: Vec<u8>,
    temp_regs: HashMap<usize, u8>,
    const_regs: HashMap<u64, u8>,
    int_scratch: [u8; 2],
    mode: InnerMode,
}

struct Backend<'a> {
    asm: A64Asm,
    p: &'a Personality,
    array_addrs: Vec<u64>,
    const_pool_addr: HashMap<u64, u64>,
}

impl Backend<'_> {
    /// `add rd, rn, imm` for any immediate.
    fn add_any(&mut self, rd: u8, rn: u8, imm: i64) {
        if imm == 0 {
            if rd != rn {
                self.asm.mov(rd, rn);
            }
        } else if (0..4096).contains(&imm) {
            self.asm.add_imm(rd, rn, imm as u64);
        } else if (-4095..0).contains(&imm) {
            self.asm.sub_imm(rd, rn, (-imm) as u64);
        } else {
            let tmp: u8 = 16; // ip0: a pure scratch outside the pool
            self.asm.mov_imm(tmp, imm as u64);
            self.asm.add(rd, rn, tmp);
        }
    }

    /// Load an FP constant into `dst` (used for hoisting and inline loads).
    fn load_const_inline(&mut self, ctx: &KernelCtx, bits: u64, dst: u8) {
        if bits == 0 {
            self.asm.push(Inst::FmovIntFp {
                to_fp: true,
                sf: true,
                size: FpSize::D,
                rd: dst,
                rn: 31,
            });
            return;
        }
        if let Some(imm8) = isa_aarch64::encode::f64_to_fp_imm8(f64::from_bits(bits)) {
            self.asm.push(Inst::FmovImm {
                size: FpSize::D,
                rd: dst,
                imm8,
            });
            return;
        }
        let addr = self.const_pool_addr[&bits];
        let t = ctx.int_scratch[1];
        self.asm.la(t, addr);
        self.asm.ldr_d_imm(dst, t, 0);
    }

    fn emit_mem(&mut self, ctx: &KernelCtx, acc: &Access, reg: u8, load: bool) {
        let arr = acc.arr.0;
        let rel = acc.offset - ctx.canon[&arr];
        let byte_off = rel * 8;
        let strided = *acc.strides.last().unwrap() != 0;
        match ctx.mode {
            InnerMode::Index if strided => {
                let base = if rel == 0 {
                    ctx.cursors[&arr]
                } else {
                    ctx.site_bases[&(arr, rel)]
                };
                let idx = ctx.index_reg.unwrap();
                if load {
                    self.asm.ldr_d_reg(reg, base, idx);
                } else {
                    self.asm.str_d_reg(reg, base, idx);
                }
            }
            InnerMode::PostIndex if strided => {
                let cursor = ctx.cursors[&arr];
                debug_assert_eq!(rel, 0);
                let stride = *acc.strides.last().unwrap();
                if load {
                    self.asm.ldr_d_post(reg, cursor, (8 * stride) as i16);
                } else {
                    self.asm.str_d_post(reg, cursor, (8 * stride) as i16);
                }
            }
            _ => {
                let cursor = ctx.cursors[&arr];
                if byte_off == 0 {
                    if load {
                        self.asm.ldr_d_imm(reg, cursor, 0);
                    } else {
                        self.asm.str_d_imm(reg, cursor, 0);
                    }
                } else if self.p.fold_const_offsets && byte_off > 0 && byte_off <= 32760 {
                    if load {
                        self.asm.ldr_d_imm(reg, cursor, byte_off as u64);
                    } else {
                        self.asm.str_d_imm(reg, cursor, byte_off as u64);
                    }
                } else if self.p.fold_const_offsets && (-256..0).contains(&byte_off) {
                    let inst = if load {
                        Inst::LdrFpIdx {
                            size: FpSize::D,
                            mode: IndexMode::Unscaled,
                            rt: reg,
                            rn: cursor,
                            simm9: byte_off as i16,
                        }
                    } else {
                        Inst::StrFpIdx {
                            size: FpSize::D,
                            mode: IndexMode::Unscaled,
                            rt: reg,
                            rn: cursor,
                            simm9: byte_off as i16,
                        }
                    };
                    self.asm.push(inst);
                } else {
                    let t = ctx.int_scratch[0];
                    self.add_any(t, cursor, byte_off);
                    if load {
                        self.asm.ldr_d_imm(reg, t, 0);
                    } else {
                        self.asm.str_d_imm(reg, t, 0);
                    }
                }
            }
        }
    }

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
                let dst = fs.alloc();
                self.load_const_inline(ctx, bits, dst);
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
                self.emit_mem(ctx, acc, dst, true);
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
                    BinOp::Min => self.push_fminmax(false, dst, av.reg, bv.reg),
                    BinOp::Max => self.push_fminmax(true, dst, av.reg, bv.reg),
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
                    let prod = if av.scratch {
                        av.reg
                    } else if bv.scratch {
                        bv.reg
                    } else {
                        dst
                    };
                    if prod == cv.reg {
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
                // fcmp + fcsel. Both arms are evaluated before the compare
                // so nested selects cannot clobber the NZCV flags.
                let av = self.eval(ctx, fs, a);
                let bv = self.eval(ctx, fs, b);
                let tv = self.eval(ctx, fs, t);
                let ev = self.eval(ctx, fs, e);
                self.asm.fcmp_d(av.reg, bv.reg);
                if av.scratch {
                    fs.release(av.reg);
                }
                if bv.scratch {
                    fs.release(bv.reg);
                }
                let dst = if tv.scratch {
                    tv.reg
                } else if ev.scratch {
                    ev.reg
                } else {
                    fs.alloc()
                };
                let cond = match cmp {
                    CmpOp::Lt => Cond::Mi,
                    CmpOp::Le => Cond::Ls,
                    CmpOp::Eq => Cond::Eq,
                };
                self.asm.push(Inst::Fcsel {
                    size: FpSize::D,
                    rd: dst,
                    rn: tv.reg,
                    rm: ev.reg,
                    cond,
                });
                if tv.scratch && tv.reg != dst {
                    fs.release(tv.reg);
                }
                if ev.scratch && ev.reg != dst {
                    fs.release(ev.reg);
                }
                Val {
                    reg: dst,
                    scratch: true,
                }
            }
        }
    }

    fn push_fminmax(&mut self, max: bool, rd: u8, rn: u8, rm: u8) {
        let op = if max {
            isa_aarch64::FpBinOp::Fmaxnm
        } else {
            isa_aarch64::FpBinOp::Fminnm
        };
        self.asm.push(Inst::FpBin {
            op,
            size: FpSize::D,
            rd,
            rn,
            rm,
        });
    }

    /// Emit the GCC-personality back-edge against a constant bound.
    fn const_bound_backedge(
        &mut self,
        iv: u8,
        bound: u64,
        bound_reg: Option<u8>,
        scratch: u8,
        label: isa_aarch64::asm::Label,
    ) {
        if self.p.arm_cmp_loop_exit {
            if bound < 4096 {
                self.asm.cmp_imm(iv, bound);
            } else {
                self.asm.cmp(iv, bound_reg.expect("bound register"));
            }
        } else if bound < 4096 {
            self.asm.push(Inst::AddSubImm {
                sub: true,
                set_flags: true,
                sf: true,
                rd: scratch,
                rn: iv,
                imm12: bound as u16,
                shift12: false,
            });
        } else {
            assert!(bound < (1 << 24), "trip count too large for sub/subs pair");
            let hi = (bound >> 12) as u16;
            let lo = (bound & 0xFFF) as u16;
            self.asm.push(Inst::AddSubImm {
                sub: true,
                set_flags: false,
                sf: true,
                rd: scratch,
                rn: iv,
                imm12: hi,
                shift12: true,
            });
            self.asm.push(Inst::AddSubImm {
                sub: true,
                set_flags: true,
                sf: true,
                rd: scratch,
                rn: scratch,
                imm12: lo,
                shift12: false,
            });
        }
        self.asm.b_ne(label);
    }

    fn lower_kernel(&mut self, k: &Kernel) {
        let ndim = k.dims.len();
        let arrays = arrays_used(k);
        let mut ia = IntAlloc::new();

        // Choose the innermost addressing strategy.
        let strided: Vec<(usize, i64)> = arrays
            .iter()
            .map(|&a| (a, inner_stride(k, a)))
            .filter(|&(_, s)| s != 0)
            .collect();
        let counts = access_counts(k);
        let all_unit = strided.iter().all(|&(_, s)| s == 1);
        // Post-indexing needs exactly one access per array per iteration
        // (the access itself performs the bump).
        let post_ok = self.p.arm_post_index
            && !strided.is_empty()
            && strided
                .iter()
                .all(|&(a, s)| s.abs() == 1 && counts.get(&a) == Some(&1));
        // GCC picks the shared-index register-offset form when several
        // arrays are walked with the *same* index and no stencil offsets
        // (STREAM's kernels, Listing 1). Stencil accesses keep immediate
        // offsets from bumped pointers instead.
        let canon = canonical_offsets(k);
        let no_stencil = {
            let mut ok = true;
            crate::util::for_each_access(k, &mut |a| {
                if a.offset != canon[&a.arr.0] {
                    ok = false;
                }
            });
            ok
        };
        let mode = if strided.is_empty() {
            InnerMode::Counter
        } else if post_ok {
            InnerMode::PostIndex
        } else if self.p.arm_register_offset && all_unit && no_stencil && strided.len() >= 2 {
            InnerMode::Index
        } else {
            InnerMode::PointerBump
        };

        let mut ctx = KernelCtx {
            cursors: HashMap::new(),
            canon: canonical_offsets(k),
            site_bases: HashMap::new(),
            index_reg: None,
            acc_regs: Vec::new(),
            temp_regs: HashMap::new(),
            const_regs: HashMap::new(),
            int_scratch: [0, 0],
            mode,
        };
        ctx.int_scratch = [ia.get("addr scratch"), ia.get("cmp scratch")];

        self.asm.begin_region(&k.name);

        for &arr in &arrays {
            let r = ia.get("array cursor");
            ctx.cursors.insert(arr, r);
            let addr = (self.array_addrs[arr] as i64 + 8 * ctx.canon[&arr]) as u64;
            self.asm.la(r, addr);
        }

        if mode == InnerMode::Index {
            for (arr, offset) in distinct_access_sites(k) {
                let rel = offset - ctx.canon[&arr];
                if rel != 0 && inner_stride(k, arr) != 0 {
                    let r = ia.get("site base");
                    self.add_any(r, ctx.cursors[&arr], 8 * rel);
                    ctx.site_bases.insert((arr, rel), r);
                }
            }
        }

        // Pinned FP registers.
        let mut fp_pin = FP_PINNED.to_vec();
        let pin = |what: &str, fp_pin: &mut Vec<u8>| -> u8 {
            assert!(
                !fp_pin.is_empty(),
                "arm backend out of pinned FP registers ({what})"
            );
            fp_pin.remove(0)
        };
        for acc in &k.accs {
            let r = pin("acc", &mut fp_pin);
            ctx.acc_regs.push(r);
            self.load_const_inline(&ctx, acc.init.to_bits(), r);
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
                break;
            }
            let r = pin("const", &mut fp_pin);
            self.load_const_inline(&ctx, bits, r);
            ctx.const_regs.insert(bits, r);
        }

        // Outer loops.
        struct OuterLoop {
            counter: u8,
            label: isa_aarch64::asm::Label,
        }
        let mut outers: Vec<OuterLoop> = Vec::new();
        for d in 0..ndim - 1 {
            let counter = ia.get("outer counter");
            self.asm.mov_imm(counter, k.dims[d]);
            let label = self.asm.new_label();
            self.asm.bind(label);
            outers.push(OuterLoop { counter, label });
        }

        // Inner loop entry.
        let inner_trip = *k.dims.last().unwrap();
        let inner_label = self.asm.new_label();
        let mut end_reg: Option<(u8, usize)> = None;
        let mut counter_reg: Option<u8> = None;
        let mut bound_reg: Option<u8> = None;
        match mode {
            InnerMode::Index => {
                let iv = ia.get("index");
                ctx.index_reg = Some(iv);
                self.asm.mov_imm(iv, 0);
                if self.p.arm_cmp_loop_exit && inner_trip >= 4096 {
                    let b = ia.get("bound");
                    self.asm.mov_imm(b, inner_trip);
                    bound_reg = Some(b);
                }
            }
            InnerMode::PointerBump | InnerMode::PostIndex => {
                let (arr, stride) = strided[0];
                let r = ia.get("end pointer");
                let delta = 8 * stride * inner_trip as i64;
                self.add_any(r, ctx.cursors[&arr], delta);
                end_reg = Some((r, arr));
            }
            InnerMode::Counter => {
                let r = ia.get("inner counter");
                self.asm.mov_imm(r, inner_trip);
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
                        self.asm.fmov_d(pinreg, v.reg);
                    }
                    if v.scratch {
                        fs.release(v.reg);
                    }
                }
                Stmt::Store { access, value } => {
                    let v = self.eval(&ctx, &mut fs, value);
                    self.emit_mem(&ctx, access, v.reg, false);
                    if v.scratch {
                        fs.release(v.reg);
                    }
                }
                Stmt::Accum { acc, op, value } => {
                    let v = self.eval(&ctx, &mut fs, value);
                    let a = ctx.acc_regs[acc.0];
                    match op {
                        BinOp::Add => self.asm.fadd_d(a, a, v.reg),
                        BinOp::Min => self.push_fminmax(false, a, a, v.reg),
                        BinOp::Max => self.push_fminmax(true, a, a, v.reg),
                        _ => unreachable!(),
                    }
                    if v.scratch {
                        fs.release(v.reg);
                    }
                }
            }
        }

        // Back edge.
        match mode {
            InnerMode::Index => {
                let iv = ctx.index_reg.unwrap();
                self.asm.add_imm(iv, iv, 1);
                self.const_bound_backedge(
                    iv,
                    inner_trip,
                    bound_reg,
                    ctx.int_scratch[1],
                    inner_label,
                );
            }
            InnerMode::PointerBump => {
                for &(arr, stride) in &strided {
                    let c = ctx.cursors[&arr];
                    self.add_any(c, c, 8 * stride);
                }
                let (end, arr) = end_reg.unwrap();
                self.asm.cmp(ctx.cursors[&arr], end);
                self.asm.b_ne(inner_label);
            }
            InnerMode::PostIndex => {
                let (end, arr) = end_reg.unwrap();
                self.asm.cmp(ctx.cursors[&arr], end);
                self.asm.b_ne(inner_label);
            }
            InnerMode::Counter => {
                let c = counter_reg.unwrap();
                self.asm.subs_imm(c, c, 1);
                self.asm.b_ne(inner_label);
            }
        }

        // Close outer loops with cursor/site-base adjustments.
        for d in (0..ndim.saturating_sub(1)).rev() {
            for &arr in &arrays {
                let strides = access_strides(k, arr);
                let stride_d = strides[d];
                let stride_next = strides[d + 1];
                let trip_next = k.dims[d + 1] as i64;
                // How far one full pass of level d+1 already moved the
                // cursor. The innermost level moves cursors only in the
                // bump modes; every *outer* level moves them by exactly its
                // stride per iteration (its own adjustment guarantees it).
                let moved = if d + 1 == ndim - 1 {
                    match mode {
                        InnerMode::PointerBump | InnerMode::PostIndex => stride_next * trip_next,
                        _ => 0,
                    }
                } else {
                    stride_next * trip_next
                };
                let adj = 8 * (stride_d - moved);
                if adj != 0 {
                    let c = ctx.cursors[&arr];
                    let resets = strides[..=d].iter().all(|&s| s == 0);
                    if resets {
                        // Loop-invariant base: re-derive instead of
                        // adjusting (GCC idiom; also breaks the pointer's
                        // dependency chain through the nest).
                        let addr = (self.array_addrs[arr] as i64 + 8 * ctx.canon[&arr]) as u64;
                        self.asm.la(c, addr);
                    } else {
                        self.add_any(c, c, adj);
                    }
                    if mode == InnerMode::Index {
                        let bases: Vec<(i64, u8)> = ctx
                            .site_bases
                            .iter()
                            .filter(|((a, _), _)| *a == arr)
                            .map(|(&(_, rel), &b)| (rel, b))
                            .collect();
                        for (rel, base) in bases {
                            if resets {
                                self.add_any(base, c, 8 * rel);
                            } else {
                                self.add_any(base, base, adj);
                            }
                        }
                    }
                }
            }
            // Reset the shared index for the next iteration of this level.
            if mode == InnerMode::Index {
                if let Some(iv) = ctx.index_reg {
                    self.asm.mov_imm(iv, 0);
                }
            }
            let o = &outers[d];
            self.asm.subs_imm(o.counter, o.counter, 1);
            self.asm.b_ne(o.label);
        }

        // Store accumulators.
        for (i, acc) in k.accs.iter().enumerate() {
            if let Some((arr, elem)) = acc.store_to {
                let addr = self.array_addrs[arr.0] + 8 * elem;
                let t = ctx.int_scratch[0];
                self.asm.la(t, addr);
                self.asm.str_d_imm(ctx.acc_regs[i], t, 0);
            }
        }
        self.asm.end_region();
    }
}

/// Compile `prog` for AArch64.
pub fn compile(prog: &KernelProgram, p: &Personality) -> Compiled {
    prog.validate();
    let (aug, result_arr) = augment_with_checksum(prog);
    let mut asm = A64Asm::new(TEXT_BASE, DATA_BASE);

    let mut array_addrs = Vec::with_capacity(aug.arrays.len());
    for decl in &aug.arrays {
        let addr = match &decl.init {
            ArrayInit::Zero => asm.data_zero(8 * decl.len as usize, 8),
            _ => asm.data_f64_array(&init_values(decl)),
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

    let n_orig = prog.kernels.len();
    let rep_reg = 2; // x2: clobbered only by the exit sequence
    if aug.repeat > 1 {
        be.asm.mov_imm(rep_reg, aug.repeat);
    }
    let rep_label = be.asm.new_label();
    be.asm.bind(rep_label);
    for k in &aug.kernels[..n_orig] {
        be.lower_kernel(k);
    }
    if aug.repeat > 1 {
        be.asm.subs_imm(rep_reg, rep_reg, 1);
        be.asm.b_ne(rep_label);
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
    use isa_aarch64::AArch64Executor;
    use simcore::{CpuState, EmulationCore};

    fn run(program: &simcore::Program) -> CpuState {
        let mut st = CpuState::new();
        program.load(&mut st).unwrap();
        let core = EmulationCore::new(AArch64Executor::new());
        core.run(&mut st, &mut []).unwrap();
        st
    }

    fn check(prog: &KernelProgram, p: &Personality) -> u64 {
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
        st.instret
    }

    fn unit(arr: ArrayId) -> Access {
        Access {
            arr,
            strides: vec![1],
            offset: 0,
        }
    }

    fn copy_program(n: u64) -> KernelProgram {
        let mut p = KernelProgram::new("copy");
        let a = p.array(
            "a",
            n,
            ArrayInit::Linear {
                start: 0.5,
                step: 0.25,
            },
        );
        let b = p.array("b", n, ArrayInit::Zero);
        p.kernel(Kernel {
            name: "copy".into(),
            dims: vec![n],
            accs: vec![],
            body: vec![Stmt::Store {
                access: unit(b),
                value: Expr::Load(unit(a)),
            }],
        });
        p.checksum_arrays.push(b);
        p
    }

    #[test]
    fn copy_kernel_both_personalities() {
        let p = copy_program(64);
        check(&p, &Personality::gcc92());
        check(&p, &Personality::gcc122());
    }

    #[test]
    fn gcc92_longer_than_gcc122() {
        // The paper's STREAM finding: the 9.2 loop exit costs one extra
        // instruction per iteration on AArch64 (trip >= 4096 forces the
        // two-instruction sub/subs pattern).
        let p = copy_program(5000);
        let n92 = check(&p, &Personality::gcc92());
        let n122 = check(&p, &Personality::gcc122());
        assert!(n92 > n122, "gcc 9.2 ({n92}) should exceed 12.2 ({n122})");
        // ~1 instruction per iteration; 12.2 spends one extra setup
        // instruction materialising the bound register outside the loop.
        assert!(
            n92 - n122 >= 4990,
            "difference ({}) should be about one instruction per iteration",
            n92 - n122
        );
    }

    #[test]
    fn post_index_beats_register_offset() {
        // The paper's "more optimal" 4-instruction copy loop.
        let p = copy_program(256);
        let mut post = Personality::gcc122();
        post.arm_post_index = true;
        let n_post = check(&p, &post);
        let n_reg = check(&p, &Personality::gcc122());
        assert!(
            n_post < n_reg,
            "post-indexed ({n_post}) should beat register-offset ({n_reg})"
        );
    }

    #[test]
    fn triad_and_fma() {
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
        check(&p, &Personality::gcc92());
        let mut nofma = Personality::gcc122();
        nofma.fuse_fma = false;
        check(&p, &nofma);
    }

    #[test]
    fn stencil_with_offsets() {
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
        check(&p, &Personality::gcc92());
        check(&p, &Personality::gcc122());
    }

    #[test]
    fn two_dim_and_three_dim() {
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

        let mut q = KernelProgram::new("dot3");
        let m = q.array(
            "m",
            24,
            ArrayInit::Linear {
                start: 1.0,
                step: 0.5,
            },
        );
        let out = q.array("out", 1, ArrayInit::Zero);
        q.kernel(Kernel {
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
        q.checksum_arrays.push(out);
        check(&q, &Personality::gcc122());
    }

    #[test]
    fn select_via_fcsel() {
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
    fn repeat_loop() {
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
        let c = compile(&p, &Personality::gcc122());
        let st = run(&c.program);
        assert_eq!(st.mem.read_f64(c.checksum_addr).unwrap(), 24.0);
    }

    #[test]
    fn riscv_and_arm_agree() {
        // Cross-ISA differential: identical checksums from both back-ends.
        let p = copy_program(100);
        let arm = compile(&p, &Personality::gcc122());
        let rv = crate::riscv::compile(&p, &Personality::gcc122());
        let arm_st = run(&arm.program);
        let mut rv_st = CpuState::new();
        rv.program.load(&mut rv_st).unwrap();
        EmulationCore::new(isa_riscv::RiscVExecutor::new())
            .run(&mut rv_st, &mut [])
            .unwrap();
        assert_eq!(
            arm_st.mem.read_f64(arm.checksum_addr).unwrap().to_bits(),
            rv_st.mem.read_f64(rv.checksum_addr).unwrap().to_bits()
        );
    }
}
