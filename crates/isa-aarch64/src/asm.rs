//! Two-pass A64 assembler with labels, data sections and kernel regions.
//!
//! Mirrors the RISC-V `RvAsm` builder API so the `kernelgen` back-ends treat
//! both targets uniformly. Every pushed item is exactly one instruction
//! word; `mov_imm`/`la` pseudo-ops expand eagerly.

use std::collections::HashMap;

use simcore::{IsaKind, Program, Region, Section};

use crate::encode::{encode, f64_to_fp_imm8};
use crate::inst::*;

/// A forward-referenceable code label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

enum Item {
    Fixed(Inst),
    BTo {
        link: bool,
        label: Label,
    },
    BCondTo {
        cond: Cond,
        label: Label,
    },
    CbzTo {
        nonzero: bool,
        sf: bool,
        rt: u8,
        label: Label,
    },
    TbzTo {
        nonzero: bool,
        rt: u8,
        bit: u8,
        label: Label,
    },
}

/// A64 assembler/builder.
pub struct A64Asm {
    text_base: u64,
    data_base: u64,
    items: Vec<Item>,
    labels: Vec<Option<usize>>,
    data: Vec<u8>,
    region_stack: Vec<(String, usize)>,
    regions: Vec<(String, usize, usize)>,
    entry_item: usize,
}

impl A64Asm {
    /// New assembler with text at `text_base` and data at `data_base`.
    pub fn new(text_base: u64, data_base: u64) -> Self {
        assert_eq!(text_base & 3, 0);
        A64Asm {
            text_base,
            data_base,
            items: Vec::new(),
            labels: Vec::new(),
            data: Vec::new(),
            region_stack: Vec::new(),
            regions: Vec::new(),
            entry_item: 0,
        }
    }

    // ---- labels & regions -------------------------------------------------

    /// Allocate an unbound label.
    pub fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Bind `label` to the current position.
    pub fn bind(&mut self, label: Label) {
        assert!(self.labels[label.0].is_none(), "label bound twice");
        self.labels[label.0] = Some(self.items.len());
    }

    /// Begin a named kernel region.
    pub fn begin_region(&mut self, name: &str) {
        self.region_stack.push((name.to_string(), self.items.len()));
    }

    /// End the innermost open region.
    pub fn end_region(&mut self) {
        let (name, start) = self.region_stack.pop().expect("no open region");
        self.regions.push((name, start, self.items.len()));
    }

    /// Mark the current position as the program entry point.
    pub fn set_entry_here(&mut self) {
        self.entry_item = self.items.len();
    }

    /// PC the next pushed instruction will occupy.
    pub fn here(&self) -> u64 {
        self.text_base + 4 * self.items.len() as u64
    }

    // ---- data section ------------------------------------------------------

    fn align_data(&mut self, align: usize) {
        while !self.data.len().is_multiple_of(align) {
            self.data.push(0);
        }
    }

    /// Append raw bytes; returns their guest address.
    pub fn data_bytes(&mut self, bytes: &[u8]) -> u64 {
        let addr = self.data_base + self.data.len() as u64;
        self.data.extend_from_slice(bytes);
        addr
    }

    /// Append an aligned `u64`; returns its guest address.
    pub fn data_u64(&mut self, v: u64) -> u64 {
        self.align_data(8);
        self.data_bytes(&v.to_le_bytes())
    }

    /// Append an aligned `f64` array; returns its guest address.
    pub fn data_f64_array(&mut self, vals: &[f64]) -> u64 {
        self.align_data(8);
        let addr = self.data_base + self.data.len() as u64;
        for v in vals {
            self.data.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        addr
    }

    /// Reserve `len` zeroed bytes; returns the guest address.
    pub fn data_zero(&mut self, len: usize, align: usize) -> u64 {
        self.align_data(align);
        let addr = self.data_base + self.data.len() as u64;
        self.data.resize(self.data.len() + len, 0);
        addr
    }

    // ---- raw pushes ----------------------------------------------------------

    /// Push an already-constructed instruction.
    pub fn push(&mut self, inst: Inst) {
        self.items.push(Item::Fixed(inst));
    }

    // ---- integer convenience ---------------------------------------------

    /// `add xd, xn, xm`.
    pub fn add(&mut self, rd: u8, rn: u8, rm: u8) {
        self.push(Inst::AddSubShifted {
            sub: false,
            set_flags: false,
            sf: true,
            rd,
            rn,
            rm,
            shift: ShiftType::Lsl,
            amount: 0,
        });
    }
    /// `add xd, xn, xm, lsl #amount`.
    pub fn add_shifted(&mut self, rd: u8, rn: u8, rm: u8, amount: u8) {
        self.push(Inst::AddSubShifted {
            sub: false,
            set_flags: false,
            sf: true,
            rd,
            rn,
            rm,
            shift: ShiftType::Lsl,
            amount,
        });
    }
    /// `sub xd, xn, xm`.
    pub fn sub(&mut self, rd: u8, rn: u8, rm: u8) {
        self.push(Inst::AddSubShifted {
            sub: true,
            set_flags: false,
            sf: true,
            rd,
            rn,
            rm,
            shift: ShiftType::Lsl,
            amount: 0,
        });
    }
    /// `add xd, xn, #imm` (imm in 0..4096).
    pub fn add_imm(&mut self, rd: u8, rn: u8, imm: u64) {
        assert!(imm < 4096, "add immediate out of range: {imm}");
        self.push(Inst::AddSubImm {
            sub: false,
            set_flags: false,
            sf: true,
            rd,
            rn,
            imm12: imm as u16,
            shift12: false,
        });
    }
    /// `sub xd, xn, #imm`.
    pub fn sub_imm(&mut self, rd: u8, rn: u8, imm: u64) {
        assert!(imm < 4096, "sub immediate out of range: {imm}");
        self.push(Inst::AddSubImm {
            sub: true,
            set_flags: false,
            sf: true,
            rd,
            rn,
            imm12: imm as u16,
            shift12: false,
        });
    }
    /// `subs xzr, xn, #imm` — `cmp xn, #imm`.
    pub fn cmp_imm(&mut self, rn: u8, imm: u64) {
        assert!(imm < 4096);
        self.push(Inst::AddSubImm {
            sub: true,
            set_flags: true,
            sf: true,
            rd: 31,
            rn,
            imm12: imm as u16,
            shift12: false,
        });
    }
    /// `subs xzr, xn, xm` — `cmp xn, xm`.
    pub fn cmp(&mut self, rn: u8, rm: u8) {
        self.push(Inst::AddSubShifted {
            sub: true,
            set_flags: true,
            sf: true,
            rd: 31,
            rn,
            rm,
            shift: ShiftType::Lsl,
            amount: 0,
        });
    }
    /// `subs xd, xn, #imm`.
    pub fn subs_imm(&mut self, rd: u8, rn: u8, imm: u64) {
        assert!(imm < 4096);
        self.push(Inst::AddSubImm {
            sub: true,
            set_flags: true,
            sf: true,
            rd,
            rn,
            imm12: imm as u16,
            shift12: false,
        });
    }
    /// `mul xd, xn, xm` (`madd` with `xzr` accumulator).
    pub fn mul(&mut self, rd: u8, rn: u8, rm: u8) {
        self.push(Inst::MulAdd {
            sub: false,
            sf: true,
            rd,
            rn,
            rm,
            ra: 31,
        });
    }
    /// `madd xd, xn, xm, xa`.
    pub fn madd(&mut self, rd: u8, rn: u8, rm: u8, ra: u8) {
        self.push(Inst::MulAdd {
            sub: false,
            sf: true,
            rd,
            rn,
            rm,
            ra,
        });
    }
    /// `sdiv xd, xn, xm`.
    pub fn sdiv(&mut self, rd: u8, rn: u8, rm: u8) {
        self.push(Inst::Div {
            unsigned: false,
            sf: true,
            rd,
            rn,
            rm,
        });
    }
    /// `lsl xd, xn, #shift` (ubfm alias).
    pub fn lsl_imm(&mut self, rd: u8, rn: u8, shift: u8) {
        assert!(shift < 64);
        self.push(Inst::Bitfield {
            op: BitfieldOp::Ubfm,
            sf: true,
            rd,
            rn,
            immr: (64 - shift as u32) as u8 % 64,
            imms: 63 - shift,
        });
    }
    /// `lsr xd, xn, #shift`.
    pub fn lsr_imm(&mut self, rd: u8, rn: u8, shift: u8) {
        assert!(shift < 64);
        self.push(Inst::Bitfield {
            op: BitfieldOp::Ubfm,
            sf: true,
            rd,
            rn,
            immr: shift,
            imms: 63,
        });
    }
    /// `asr xd, xn, #shift`.
    pub fn asr_imm(&mut self, rd: u8, rn: u8, shift: u8) {
        assert!(shift < 64);
        self.push(Inst::Bitfield {
            op: BitfieldOp::Sbfm,
            sf: true,
            rd,
            rn,
            immr: shift,
            imms: 63,
        });
    }
    /// `mov xd, xm` (orr alias).
    pub fn mov(&mut self, rd: u8, rm: u8) {
        self.push(Inst::LogicalShifted {
            op: LogicOp::Orr,
            sf: true,
            rd,
            rn: 31,
            rm,
            shift: ShiftType::Lsl,
            amount: 0,
        });
    }
    /// `nop`.
    pub fn nop(&mut self) {
        self.push(Inst::Nop);
    }

    /// Materialise an arbitrary 64-bit constant (movz/movn + movk chain,
    /// exactly GCC's expansion).
    pub fn mov_imm(&mut self, rd: u8, imm: u64) {
        // Count halfwords that are 0000 vs ffff to pick movz or movn start.
        let halves: Vec<u16> = (0..4).map(|i| (imm >> (16 * i)) as u16).collect();
        let zeros = halves.iter().filter(|&&h| h == 0).count();
        let ones = halves.iter().filter(|&&h| h == 0xFFFF).count();
        if ones > zeros {
            // movn start.
            let first = halves.iter().position(|&h| h != 0xFFFF).unwrap_or(0);
            self.push(Inst::MovWide {
                op: MovOp::Movn,
                sf: true,
                rd,
                imm16: !halves[first],
                hw: first as u8,
            });
            for (i, &h) in halves.iter().enumerate() {
                if i != first && h != 0xFFFF {
                    self.push(Inst::MovWide {
                        op: MovOp::Movk,
                        sf: true,
                        rd,
                        imm16: h,
                        hw: i as u8,
                    });
                }
            }
        } else {
            let first = halves.iter().position(|&h| h != 0).unwrap_or(0);
            self.push(Inst::MovWide {
                op: MovOp::Movz,
                sf: true,
                rd,
                imm16: halves[first],
                hw: first as u8,
            });
            for (i, &h) in halves.iter().enumerate() {
                if i != first && h != 0 {
                    self.push(Inst::MovWide {
                        op: MovOp::Movk,
                        sf: true,
                        rd,
                        imm16: h,
                        hw: i as u8,
                    });
                }
            }
        }
    }

    /// Load the address `addr` into `rd` (`adrp` + `add`, GCC's -static
    /// addressing idiom).
    pub fn la(&mut self, rd: u8, addr: u64) {
        let here = self.here();
        let page_delta = (addr & !0xFFF).wrapping_sub(here & !0xFFF) as i64;
        self.push(Inst::Adrp {
            rd,
            offset: page_delta,
        });
        let lo = addr & 0xFFF;
        if lo != 0 {
            self.add_imm(rd, rd, lo);
        }
    }

    // ---- branches ----------------------------------------------------------

    /// `b label`.
    pub fn b(&mut self, label: Label) {
        self.items.push(Item::BTo { link: false, label });
    }
    /// `bl label`.
    pub fn bl(&mut self, label: Label) {
        self.items.push(Item::BTo { link: true, label });
    }
    /// `b.cond label`.
    pub fn b_cond(&mut self, cond: Cond, label: Label) {
        self.items.push(Item::BCondTo { cond, label });
    }
    /// `b.ne label`.
    pub fn b_ne(&mut self, label: Label) {
        self.b_cond(Cond::Ne, label);
    }
    /// `b.eq label`.
    pub fn b_eq(&mut self, label: Label) {
        self.b_cond(Cond::Eq, label);
    }
    /// `b.lt label`.
    pub fn b_lt(&mut self, label: Label) {
        self.b_cond(Cond::Lt, label);
    }
    /// `b.ge label`.
    pub fn b_ge(&mut self, label: Label) {
        self.b_cond(Cond::Ge, label);
    }
    /// `cbz xt, label`.
    pub fn cbz(&mut self, rt: u8, label: Label) {
        self.items.push(Item::CbzTo {
            nonzero: false,
            sf: true,
            rt,
            label,
        });
    }
    /// `cbnz xt, label`.
    pub fn cbnz(&mut self, rt: u8, label: Label) {
        self.items.push(Item::CbzTo {
            nonzero: true,
            sf: true,
            rt,
            label,
        });
    }
    /// `tbz xt, #bit, label`.
    pub fn tbz(&mut self, rt: u8, bit: u8, label: Label) {
        self.items.push(Item::TbzTo {
            nonzero: false,
            rt,
            bit,
            label,
        });
    }
    /// `ret`.
    pub fn ret(&mut self) {
        self.push(Inst::BrReg {
            link: false,
            ret: true,
            rn: 30,
        });
    }

    // ---- memory ------------------------------------------------------------

    /// `ldr xt, [xn, #off]` (off must be 8-byte scaled).
    pub fn ldr_imm(&mut self, rt: u8, rn: u8, off: u64) {
        assert_eq!(off % 8, 0);
        self.push(Inst::LdrImm {
            size: MemSize::X,
            rt,
            rn,
            imm12: (off / 8) as u16,
        });
    }
    /// `str xt, [xn, #off]`.
    pub fn str_imm(&mut self, rt: u8, rn: u8, off: u64) {
        assert_eq!(off % 8, 0);
        self.push(Inst::StrImm {
            size: MemSize::X,
            rt,
            rn,
            imm12: (off / 8) as u16,
        });
    }
    /// `ldr dt, [xn, #off]`.
    pub fn ldr_d_imm(&mut self, rt: u8, rn: u8, off: u64) {
        assert_eq!(off % 8, 0);
        self.push(Inst::LdrFpImm {
            size: FpSize::D,
            rt,
            rn,
            imm12: (off / 8) as u16,
        });
    }
    /// `str dt, [xn, #off]`.
    pub fn str_d_imm(&mut self, rt: u8, rn: u8, off: u64) {
        assert_eq!(off % 8, 0);
        self.push(Inst::StrFpImm {
            size: FpSize::D,
            rt,
            rn,
            imm12: (off / 8) as u16,
        });
    }
    /// `ldr dt, [xn, xm, lsl #3]` — the paper's register-offset load.
    pub fn ldr_d_reg(&mut self, rt: u8, rn: u8, rm: u8) {
        self.push(Inst::LdrFpReg {
            size: FpSize::D,
            rt,
            rn,
            rm,
            extend: Extend::Uxtx,
            shift: true,
        });
    }
    /// `str dt, [xn, xm, lsl #3]`.
    pub fn str_d_reg(&mut self, rt: u8, rn: u8, rm: u8) {
        self.push(Inst::StrFpReg {
            size: FpSize::D,
            rt,
            rn,
            rm,
            extend: Extend::Uxtx,
            shift: true,
        });
    }
    /// `ldr dt, [xn], #off` — post-indexed.
    pub fn ldr_d_post(&mut self, rt: u8, rn: u8, off: i16) {
        self.push(Inst::LdrFpIdx {
            size: FpSize::D,
            mode: IndexMode::Post,
            rt,
            rn,
            simm9: off,
        });
    }
    /// `str dt, [xn], #off` — post-indexed.
    pub fn str_d_post(&mut self, rt: u8, rn: u8, off: i16) {
        self.push(Inst::StrFpIdx {
            size: FpSize::D,
            mode: IndexMode::Post,
            rt,
            rn,
            simm9: off,
        });
    }
    /// `ldr xt, [xn, xm, lsl #3]`.
    pub fn ldr_reg(&mut self, rt: u8, rn: u8, rm: u8) {
        self.push(Inst::LdrReg {
            size: MemSize::X,
            rt,
            rn,
            rm,
            extend: Extend::Uxtx,
            shift: true,
        });
    }
    /// `str xt, [xn, xm, lsl #3]`.
    pub fn str_reg(&mut self, rt: u8, rn: u8, rm: u8) {
        self.push(Inst::StrReg {
            size: MemSize::X,
            rt,
            rn,
            rm,
            extend: Extend::Uxtx,
            shift: true,
        });
    }

    // ---- FP ------------------------------------------------------------------

    /// `fadd dd, dn, dm`.
    pub fn fadd_d(&mut self, rd: u8, rn: u8, rm: u8) {
        self.push(Inst::FpBin {
            op: FpBinOp::Fadd,
            size: FpSize::D,
            rd,
            rn,
            rm,
        });
    }
    /// `fsub dd, dn, dm`.
    pub fn fsub_d(&mut self, rd: u8, rn: u8, rm: u8) {
        self.push(Inst::FpBin {
            op: FpBinOp::Fsub,
            size: FpSize::D,
            rd,
            rn,
            rm,
        });
    }
    /// `fmul dd, dn, dm`.
    pub fn fmul_d(&mut self, rd: u8, rn: u8, rm: u8) {
        self.push(Inst::FpBin {
            op: FpBinOp::Fmul,
            size: FpSize::D,
            rd,
            rn,
            rm,
        });
    }
    /// `fdiv dd, dn, dm`.
    pub fn fdiv_d(&mut self, rd: u8, rn: u8, rm: u8) {
        self.push(Inst::FpBin {
            op: FpBinOp::Fdiv,
            size: FpSize::D,
            rd,
            rn,
            rm,
        });
    }
    /// `fsqrt dd, dn`.
    pub fn fsqrt_d(&mut self, rd: u8, rn: u8) {
        self.push(Inst::FpUn {
            op: FpUnOp::Fsqrt,
            size: FpSize::D,
            rd,
            rn,
        });
    }
    /// `fneg dd, dn`.
    pub fn fneg_d(&mut self, rd: u8, rn: u8) {
        self.push(Inst::FpUn {
            op: FpUnOp::Fneg,
            size: FpSize::D,
            rd,
            rn,
        });
    }
    /// `fabs dd, dn`.
    pub fn fabs_d(&mut self, rd: u8, rn: u8) {
        self.push(Inst::FpUn {
            op: FpUnOp::Fabs,
            size: FpSize::D,
            rd,
            rn,
        });
    }
    /// `fmov dd, dn`.
    pub fn fmov_d(&mut self, rd: u8, rn: u8) {
        self.push(Inst::FpUn {
            op: FpUnOp::Fmov,
            size: FpSize::D,
            rd,
            rn,
        });
    }
    /// `fmadd dd, dn, dm, da` — `dn*dm + da`.
    pub fn fmadd_d(&mut self, rd: u8, rn: u8, rm: u8, ra: u8) {
        self.push(Inst::FpFma {
            op: FpFmaOp::Fmadd,
            size: FpSize::D,
            rd,
            rn,
            rm,
            ra,
        });
    }
    /// `fmsub dd, dn, dm, da` — `-(dn*dm) + da`.
    pub fn fmsub_d(&mut self, rd: u8, rn: u8, rm: u8, ra: u8) {
        self.push(Inst::FpFma {
            op: FpFmaOp::Fmsub,
            size: FpSize::D,
            rd,
            rn,
            rm,
            ra,
        });
    }
    /// `fmin dd, dn, dm` / `fmax dd, dn, dm`.
    pub fn fmin_d(&mut self, rd: u8, rn: u8, rm: u8) {
        self.push(Inst::FpBin {
            op: FpBinOp::Fmin,
            size: FpSize::D,
            rd,
            rn,
            rm,
        });
    }
    /// `fmax dd, dn, dm`.
    pub fn fmax_d(&mut self, rd: u8, rn: u8, rm: u8) {
        self.push(Inst::FpBin {
            op: FpBinOp::Fmax,
            size: FpSize::D,
            rd,
            rn,
            rm,
        });
    }
    /// `fcmp dn, dm`.
    pub fn fcmp_d(&mut self, rn: u8, rm: u8) {
        self.push(Inst::Fcmp {
            size: FpSize::D,
            rn,
            rm,
            zero: false,
        });
    }
    /// `scvtf dd, xn`.
    pub fn scvtf_d(&mut self, rd: u8, rn: u8) {
        self.push(Inst::IntToFp {
            unsigned: false,
            sf: true,
            size: FpSize::D,
            rd,
            rn,
        });
    }
    /// `fcvtzs xd, dn`.
    pub fn fcvtzs(&mut self, rd: u8, rn: u8) {
        self.push(Inst::FpToInt {
            unsigned: false,
            sf: true,
            size: FpSize::D,
            rd,
            rn,
        });
    }
    /// `fmov dd, #imm` — panics if the constant is not VFP-representable.
    pub fn fmov_d_imm(&mut self, rd: u8, v: f64) {
        let imm8 = f64_to_fp_imm8(v)
            .unwrap_or_else(|| panic!("{v} is not representable as an FP immediate"));
        self.push(Inst::FmovImm {
            size: FpSize::D,
            rd,
            imm8,
        });
    }

    /// Emit the Linux `exit(code)` sequence.
    pub fn exit(&mut self, code: u64) {
        self.mov_imm(8, 93); // x8 = SYS_exit
        self.mov_imm(0, code); // x0 = code
        self.push(Inst::Svc { imm16: 0 });
    }

    // ---- finalisation -------------------------------------------------------

    /// Resolve labels, encode everything and build the loadable [`Program`].
    pub fn finish(self) -> Program {
        assert!(self.region_stack.is_empty(), "unclosed region");
        let resolve = |label: Label, labels: &[Option<usize>]| -> u64 {
            let idx = labels[label.0].expect("unbound label");
            self.text_base + 4 * idx as u64
        };
        let mut text = Vec::with_capacity(self.items.len() * 4);
        for (i, item) in self.items.iter().enumerate() {
            let pc = self.text_base + 4 * i as u64;
            let inst = match item {
                Item::Fixed(inst) => *inst,
                Item::BTo { link, label } => {
                    let offset = resolve(*label, &self.labels).wrapping_sub(pc) as i64;
                    assert!(
                        (-(1 << 27)..(1 << 27)).contains(&offset),
                        "b offset {offset}"
                    );
                    Inst::B {
                        link: *link,
                        offset,
                    }
                }
                Item::BCondTo { cond, label } => {
                    let offset = resolve(*label, &self.labels).wrapping_sub(pc) as i64;
                    assert!(
                        (-(1 << 20)..(1 << 20)).contains(&offset),
                        "b.cond offset {offset}"
                    );
                    Inst::BCond {
                        cond: *cond,
                        offset,
                    }
                }
                Item::CbzTo {
                    nonzero,
                    sf,
                    rt,
                    label,
                } => {
                    let offset = resolve(*label, &self.labels).wrapping_sub(pc) as i64;
                    assert!(
                        (-(1 << 20)..(1 << 20)).contains(&offset),
                        "cbz offset {offset}"
                    );
                    Inst::Cbz {
                        nonzero: *nonzero,
                        sf: *sf,
                        rt: *rt,
                        offset,
                    }
                }
                Item::TbzTo {
                    nonzero,
                    rt,
                    bit,
                    label,
                } => {
                    let offset = resolve(*label, &self.labels).wrapping_sub(pc) as i64;
                    assert!(
                        (-(1 << 15)..(1 << 15)).contains(&offset),
                        "tbz offset {offset}"
                    );
                    Inst::Tbz {
                        nonzero: *nonzero,
                        rt: *rt,
                        bit: *bit,
                        offset,
                    }
                }
            };
            text.extend_from_slice(&encode(&inst).to_le_bytes());
        }

        let mut merged: HashMap<String, Vec<(u64, u64)>> = HashMap::new();
        let mut order: Vec<String> = Vec::new();
        for (name, s, e) in &self.regions {
            let start = self.text_base + 4 * *s as u64;
            let end = self.text_base + 4 * *e as u64;
            if !merged.contains_key(name) {
                order.push(name.clone());
            }
            merged.entry(name.clone()).or_default().push((start, end));
        }
        let mut regions = Vec::new();
        for name in order {
            for (start, end) in &merged[&name] {
                regions.push(Region {
                    name: name.clone(),
                    start: *start,
                    end: *end,
                });
            }
        }

        let mut program = Program::new(IsaKind::AArch64);
        program.entry = self.text_base + 4 * self.entry_item as u64;
        program.sections.push(Section {
            addr: self.text_base,
            bytes: text,
            name: ".text".into(),
        });
        if !self.data.is_empty() {
            program.sections.push(Section {
                addr: self.data_base,
                bytes: self.data,
                name: ".data".into(),
            });
        }
        program.regions = regions;
        program
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::AArch64Executor;
    use simcore::{CpuState, EmulationCore, Program};

    fn run(program: &Program) -> CpuState {
        let mut st = CpuState::new();
        program.load(&mut st).unwrap();
        let core = EmulationCore::new(AArch64Executor::new());
        core.run(&mut st, &mut []).unwrap();
        st
    }

    #[test]
    fn trivial_exit_program() {
        let mut a = A64Asm::new(0x1_0000, 0x10_0000);
        a.exit(9);
        let st = run(&a.finish());
        assert_eq!(st.exited, Some(9));
    }

    #[test]
    fn paper_listing_1_copy_kernel_runs() {
        // The exact GCC 12.2 copy-kernel shape from the paper's Listing 1:
        //   ldr d1, [x22, x0, lsl #3]
        //   str d1, [x19, x0, lsl #3]
        //   add x0, x0, #1
        //   cmp x0, x20
        //   b.ne loop
        let n = 16usize;
        let mut a = A64Asm::new(0x1_0000, 0x10_0000);
        let src: Vec<f64> = (0..n).map(|i| i as f64 * 1.5).collect();
        let src_addr = a.data_f64_array(&src);
        let dst_addr = a.data_zero(8 * n, 8);
        a.la(22, src_addr);
        a.la(19, dst_addr);
        a.mov_imm(20, n as u64);
        a.mov_imm(0, 0);
        let l = a.new_label();
        a.bind(l);
        a.ldr_d_reg(1, 22, 0);
        a.str_d_reg(1, 19, 0);
        a.add_imm(0, 0, 1);
        a.cmp(0, 20);
        a.b_ne(l);
        a.exit(0);
        let st = run(&a.finish());
        for (i, v) in src.iter().enumerate() {
            assert_eq!(st.mem.read_f64(dst_addr + 8 * i as u64).unwrap(), *v);
        }
    }

    #[test]
    fn mov_imm_covers_64_bit_constants() {
        for &v in &[
            0u64,
            1,
            42,
            0xFFFF,
            0x1_0000,
            0xDEAD_BEEF,
            0xFFFF_FFFF_FFFF_FFFF,
            0xFFFF_FFFF_FFFF_0000,
            0x1234_5678_9ABC_DEF0,
            i64::MIN as u64,
            0x8000_0000_0000_0001,
        ] {
            let mut a = A64Asm::new(0x1_0000, 0x10_0000);
            let out = a.data_zero(8, 8);
            a.mov_imm(5, v);
            a.la(6, out);
            a.str_imm(5, 6, 0);
            a.exit(0);
            let st = run(&a.finish());
            assert_eq!(st.mem.read_u64(out).unwrap(), v, "mov_imm {v:#x}");
        }
    }

    #[test]
    fn post_indexed_copy_variant() {
        // The paper's §3.3 "more optimal" 4-instruction copy:
        //   ldr d0, [x22], #8 ; str d0, [x19], #8 ; cmp x22, x20 ; b.ne
        let n = 8usize;
        let mut a = A64Asm::new(0x1_0000, 0x10_0000);
        let src: Vec<f64> = (0..n).map(|i| (i * i) as f64).collect();
        let src_addr = a.data_f64_array(&src);
        let dst_addr = a.data_zero(8 * n, 8);
        a.la(22, src_addr);
        a.la(19, dst_addr);
        a.la(20, src_addr + 8 * n as u64);
        let l = a.new_label();
        a.bind(l);
        a.ldr_d_post(0, 22, 8);
        a.str_d_post(0, 19, 8);
        a.cmp(22, 20);
        a.b_ne(l);
        a.exit(0);
        let st = run(&a.finish());
        for (i, v) in src.iter().enumerate() {
            assert_eq!(st.mem.read_f64(dst_addr + 8 * i as u64).unwrap(), *v);
        }
    }

    #[test]
    fn regions_and_forward_branches() {
        let mut a = A64Asm::new(0x1_0000, 0x10_0000);
        let out = a.data_zero(8, 8);
        let skip = a.new_label();
        a.begin_region("head");
        a.mov_imm(1, 7);
        a.end_region();
        a.cbz(31, skip); // xzr is always zero -> taken
        a.mov_imm(1, 99);
        a.bind(skip);
        a.la(2, out);
        a.str_imm(1, 2, 0);
        a.exit(0);
        let p = a.finish();
        assert_eq!(p.regions.len(), 1);
        let st = run(&p);
        assert_eq!(st.mem.read_u64(out).unwrap(), 7);
    }
}
