//! Two-pass RV64G assembler with labels, data sections and kernel regions.
//!
//! The code generators in `kernelgen` drive this builder to produce real,
//! loadable machine-code images ([`simcore::Program`]). Every emitted item
//! occupies exactly one 32-bit word (multi-instruction pseudo-ops such as
//! `li`/`la` are expanded eagerly at push time), so label resolution is a
//! simple index-to-PC mapping.

use std::collections::HashMap;

use simcore::{IsaKind, Program, Region, Section};

use crate::encode::encode;
use crate::inst::*;

/// A forward-referenceable code label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

enum Item {
    Fixed(Inst),
    BranchTo {
        op: BranchOp,
        rs1: u8,
        rs2: u8,
        label: Label,
    },
    JalTo {
        rd: u8,
        label: Label,
    },
}

/// RV64G assembler/builder.
pub struct RvAsm {
    text_base: u64,
    data_base: u64,
    items: Vec<Item>,
    labels: Vec<Option<usize>>,
    data: Vec<u8>,
    region_stack: Vec<(String, usize)>,
    regions: Vec<(String, usize, usize)>,
    entry_item: usize,
}

impl RvAsm {
    /// New assembler with text at `text_base` and data at `data_base`.
    ///
    /// `data_base` must stay below 2 GiB so `la` can materialise addresses
    /// with a `lui`+`addi` pair.
    pub fn new(text_base: u64, data_base: u64) -> Self {
        assert!(
            data_base < 0x8000_0000,
            "data must sit below 2 GiB for lui/addi la"
        );
        assert_eq!(text_base & 3, 0);
        RvAsm {
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

    /// Begin a named kernel region (for the per-kernel path-length breakdown).
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

    /// Append raw bytes to the data section; returns their guest address.
    pub fn data_bytes(&mut self, bytes: &[u8]) -> u64 {
        let addr = self.data_base + self.data.len() as u64;
        self.data.extend_from_slice(bytes);
        addr
    }

    /// Append a 8-byte-aligned `u64`; returns its guest address.
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

    /// Reserve `len` zeroed bytes with the given alignment; returns the
    /// guest address (our loader zero-fills, so this doubles as `.bss`).
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

    /// Push a conditional branch to a label.
    pub fn branch(&mut self, op: BranchOp, rs1: u8, rs2: u8, label: Label) {
        self.items.push(Item::BranchTo {
            op,
            rs1,
            rs2,
            label,
        });
    }

    /// Push a `jal` to a label.
    pub fn jal_to(&mut self, rd: u8, label: Label) {
        self.items.push(Item::JalTo { rd, label });
    }

    // ---- integer convenience ---------------------------------------------

    /// `add rd, rs1, rs2`.
    pub fn add(&mut self, rd: u8, rs1: u8, rs2: u8) {
        self.push(Inst::Op {
            op: RegOp::Add,
            rd,
            rs1,
            rs2,
        });
    }
    /// `sub rd, rs1, rs2`.
    pub fn sub(&mut self, rd: u8, rs1: u8, rs2: u8) {
        self.push(Inst::Op {
            op: RegOp::Sub,
            rd,
            rs1,
            rs2,
        });
    }
    /// `mul rd, rs1, rs2`.
    pub fn mul(&mut self, rd: u8, rs1: u8, rs2: u8) {
        self.push(Inst::Op {
            op: RegOp::Mul,
            rd,
            rs1,
            rs2,
        });
    }
    /// `addi rd, rs1, imm`.
    pub fn addi(&mut self, rd: u8, rs1: u8, imm: i64) {
        assert!(
            (-2048..2048).contains(&imm),
            "addi immediate out of range: {imm}"
        );
        self.push(Inst::OpImm {
            op: ImmOp::Addi,
            rd,
            rs1,
            imm,
        });
    }
    /// `mv rd, rs` (canonical `addi rd, rs, 0`).
    pub fn mv(&mut self, rd: u8, rs: u8) {
        self.addi(rd, rs, 0);
    }
    /// `slli rd, rs1, shamt`.
    pub fn slli(&mut self, rd: u8, rs1: u8, shamt: i64) {
        self.push(Inst::OpImm {
            op: ImmOp::Slli,
            rd,
            rs1,
            imm: shamt,
        });
    }
    /// `srli rd, rs1, shamt`.
    pub fn srli(&mut self, rd: u8, rs1: u8, shamt: i64) {
        self.push(Inst::OpImm {
            op: ImmOp::Srli,
            rd,
            rs1,
            imm: shamt,
        });
    }
    /// `srai rd, rs1, shamt`.
    pub fn srai(&mut self, rd: u8, rs1: u8, shamt: i64) {
        self.push(Inst::OpImm {
            op: ImmOp::Srai,
            rd,
            rs1,
            imm: shamt,
        });
    }
    /// `andi rd, rs1, imm`.
    pub fn andi(&mut self, rd: u8, rs1: u8, imm: i64) {
        self.push(Inst::OpImm {
            op: ImmOp::Andi,
            rd,
            rs1,
            imm,
        });
    }
    /// `slt rd, rs1, rs2`.
    pub fn slt(&mut self, rd: u8, rs1: u8, rs2: u8) {
        self.push(Inst::Op {
            op: RegOp::Slt,
            rd,
            rs1,
            rs2,
        });
    }
    /// `sltu rd, rs1, rs2`.
    pub fn sltu(&mut self, rd: u8, rs1: u8, rs2: u8) {
        self.push(Inst::Op {
            op: RegOp::Sltu,
            rd,
            rs1,
            rs2,
        });
    }
    /// `ld rd, offset(rs1)`.
    pub fn ld(&mut self, rd: u8, rs1: u8, offset: i64) {
        self.push(Inst::Load {
            op: LoadOp::Ld,
            rd,
            rs1,
            offset,
        });
    }
    /// `lw rd, offset(rs1)`.
    pub fn lw(&mut self, rd: u8, rs1: u8, offset: i64) {
        self.push(Inst::Load {
            op: LoadOp::Lw,
            rd,
            rs1,
            offset,
        });
    }
    /// `sd rs2, offset(rs1)`.
    pub fn sd(&mut self, rs2: u8, rs1: u8, offset: i64) {
        self.push(Inst::Store {
            op: StoreOp::Sd,
            rs2,
            rs1,
            offset,
        });
    }
    /// `sw rs2, offset(rs1)`.
    pub fn sw(&mut self, rs2: u8, rs1: u8, offset: i64) {
        self.push(Inst::Store {
            op: StoreOp::Sw,
            rs2,
            rs1,
            offset,
        });
    }
    /// `nop`.
    pub fn nop(&mut self) {
        self.addi(0, 0, 0);
    }
    /// `ecall`.
    pub fn ecall(&mut self) {
        self.push(Inst::Ecall);
    }

    /// Materialise an arbitrary 64-bit constant into `rd` (1-8 words,
    /// lui/addi/slli chains exactly like GCC's `li` expansion).
    pub fn li(&mut self, rd: u8, imm: i64) {
        if (-2048..2048).contains(&imm) {
            self.addi(rd, 0, imm);
            return;
        }
        if imm >= i32::MIN as i64 && imm <= i32::MAX as i64 {
            let hi = (imm + 0x800) >> 12;
            let lo = imm - (hi << 12);
            self.push(Inst::Lui { rd, imm: hi << 12 });
            if lo != 0 {
                // addiw, not addi: the result must be the 32-bit sum
                // sign-extended (lui of 0x80000 wraps negative on RV64).
                self.push(Inst::OpImm32 {
                    op: ImmOp32::Addiw,
                    rd,
                    rs1: rd,
                    imm: lo,
                });
            }
            return;
        }
        // General 64-bit constant: build the upper half then shift/or in
        // 12-bit chunks (GCC-style expansion, at most 8 instructions).
        let upper = imm >> 32;
        self.li(rd, upper);
        let mut remaining = 32;
        let low = imm as u32 as u64;
        while remaining > 0 {
            let chunk = remaining.min(11);
            remaining -= chunk;
            self.slli(rd, rd, chunk);
            let bits = ((low >> remaining) & ((1 << chunk) - 1)) as i64;
            if bits != 0 {
                self.addi(rd, rd, bits);
            }
        }
    }

    /// Load the address `addr` (< 2 GiB) into `rd` with `lui`+`addi`.
    pub fn la(&mut self, rd: u8, addr: u64) {
        assert!(addr < 0x8000_0000, "la requires a sub-2GiB address");
        let imm = addr as i64;
        let hi = (imm + 0x800) >> 12;
        let lo = imm - (hi << 12);
        self.push(Inst::Lui { rd, imm: hi << 12 });
        if lo != 0 {
            self.addi(rd, rd, lo);
        }
    }

    // ---- branch convenience -------------------------------------------------

    /// `beq rs1, rs2, label`.
    pub fn beq(&mut self, rs1: u8, rs2: u8, l: Label) {
        self.branch(BranchOp::Beq, rs1, rs2, l);
    }
    /// `bne rs1, rs2, label`.
    pub fn bne(&mut self, rs1: u8, rs2: u8, l: Label) {
        self.branch(BranchOp::Bne, rs1, rs2, l);
    }
    /// `blt rs1, rs2, label`.
    pub fn blt(&mut self, rs1: u8, rs2: u8, l: Label) {
        self.branch(BranchOp::Blt, rs1, rs2, l);
    }
    /// `bge rs1, rs2, label`.
    pub fn bge(&mut self, rs1: u8, rs2: u8, l: Label) {
        self.branch(BranchOp::Bge, rs1, rs2, l);
    }
    /// `bltu rs1, rs2, label`.
    pub fn bltu(&mut self, rs1: u8, rs2: u8, l: Label) {
        self.branch(BranchOp::Bltu, rs1, rs2, l);
    }
    /// `bgeu rs1, rs2, label`.
    pub fn bgeu(&mut self, rs1: u8, rs2: u8, l: Label) {
        self.branch(BranchOp::Bgeu, rs1, rs2, l);
    }
    /// Unconditional `j label` (`jal x0`).
    pub fn j(&mut self, l: Label) {
        self.jal_to(0, l);
    }

    // ---- FP convenience ------------------------------------------------------

    /// `fld frd, offset(rs1)`.
    pub fn fld(&mut self, frd: u8, rs1: u8, offset: i64) {
        self.push(Inst::FpLoad {
            width: FpWidth::D,
            frd,
            rs1,
            offset,
        });
    }
    /// `fsd frs2, offset(rs1)`.
    pub fn fsd(&mut self, frs2: u8, rs1: u8, offset: i64) {
        self.push(Inst::FpStore {
            width: FpWidth::D,
            frs2,
            rs1,
            offset,
        });
    }
    /// `fadd.d frd, frs1, frs2`.
    pub fn fadd_d(&mut self, frd: u8, frs1: u8, frs2: u8) {
        self.push(Inst::FpReg {
            op: FpOp::Fadd,
            width: FpWidth::D,
            frd,
            frs1,
            frs2,
        });
    }
    /// `fsub.d frd, frs1, frs2`.
    pub fn fsub_d(&mut self, frd: u8, frs1: u8, frs2: u8) {
        self.push(Inst::FpReg {
            op: FpOp::Fsub,
            width: FpWidth::D,
            frd,
            frs1,
            frs2,
        });
    }
    /// `fmul.d frd, frs1, frs2`.
    pub fn fmul_d(&mut self, frd: u8, frs1: u8, frs2: u8) {
        self.push(Inst::FpReg {
            op: FpOp::Fmul,
            width: FpWidth::D,
            frd,
            frs1,
            frs2,
        });
    }
    /// `fdiv.d frd, frs1, frs2`.
    pub fn fdiv_d(&mut self, frd: u8, frs1: u8, frs2: u8) {
        self.push(Inst::FpReg {
            op: FpOp::Fdiv,
            width: FpWidth::D,
            frd,
            frs1,
            frs2,
        });
    }
    /// `fsqrt.d frd, frs1`.
    pub fn fsqrt_d(&mut self, frd: u8, frs1: u8) {
        self.push(Inst::FpSqrt {
            width: FpWidth::D,
            frd,
            frs1,
        });
    }
    /// `fmadd.d frd, frs1, frs2, frs3` — `frs1*frs2 + frs3`.
    pub fn fmadd_d(&mut self, frd: u8, frs1: u8, frs2: u8, frs3: u8) {
        self.push(Inst::FpFma {
            op: FmaOp::Fmadd,
            width: FpWidth::D,
            frd,
            frs1,
            frs2,
            frs3,
        });
    }
    /// `fmsub.d frd, frs1, frs2, frs3` — `frs1*frs2 - frs3`.
    pub fn fmsub_d(&mut self, frd: u8, frs1: u8, frs2: u8, frs3: u8) {
        self.push(Inst::FpFma {
            op: FmaOp::Fmsub,
            width: FpWidth::D,
            frd,
            frs1,
            frs2,
            frs3,
        });
    }
    /// `fnmsub.d frd, frs1, frs2, frs3` — `-(frs1*frs2) + frs3`.
    pub fn fnmsub_d(&mut self, frd: u8, frs1: u8, frs2: u8, frs3: u8) {
        self.push(Inst::FpFma {
            op: FmaOp::Fnmsub,
            width: FpWidth::D,
            frd,
            frs1,
            frs2,
            frs3,
        });
    }
    /// `fmv.d frd, frs` (canonical `fsgnj.d frd, frs, frs`).
    pub fn fmv_d(&mut self, frd: u8, frs: u8) {
        self.push(Inst::FpReg {
            op: FpOp::Fsgnj,
            width: FpWidth::D,
            frd,
            frs1: frs,
            frs2: frs,
        });
    }
    /// `fneg.d frd, frs` (canonical `fsgnjn.d frd, frs, frs`).
    pub fn fneg_d(&mut self, frd: u8, frs: u8) {
        self.push(Inst::FpReg {
            op: FpOp::Fsgnjn,
            width: FpWidth::D,
            frd,
            frs1: frs,
            frs2: frs,
        });
    }
    /// `fabs.d frd, frs` (canonical `fsgnjx.d frd, frs, frs`).
    pub fn fabs_d(&mut self, frd: u8, frs: u8) {
        self.push(Inst::FpReg {
            op: FpOp::Fsgnjx,
            width: FpWidth::D,
            frd,
            frs1: frs,
            frs2: frs,
        });
    }
    /// `fmin.d frd, frs1, frs2`.
    pub fn fmin_d(&mut self, frd: u8, frs1: u8, frs2: u8) {
        self.push(Inst::FpReg {
            op: FpOp::Fmin,
            width: FpWidth::D,
            frd,
            frs1,
            frs2,
        });
    }
    /// `fmax.d frd, frs1, frs2`.
    pub fn fmax_d(&mut self, frd: u8, frs1: u8, frs2: u8) {
        self.push(Inst::FpReg {
            op: FpOp::Fmax,
            width: FpWidth::D,
            frd,
            frs1,
            frs2,
        });
    }
    /// `fcvt.d.l frd, rs1` — signed 64-bit int to double.
    pub fn fcvt_d_l(&mut self, frd: u8, rs1: u8) {
        self.push(Inst::FcvtFpFromInt {
            ty: IntTy::L,
            width: FpWidth::D,
            frd,
            rs1,
        });
    }
    /// `fcvt.d.w frd, rs1` — signed 32-bit int to double.
    pub fn fcvt_d_w(&mut self, frd: u8, rs1: u8) {
        self.push(Inst::FcvtFpFromInt {
            ty: IntTy::W,
            width: FpWidth::D,
            frd,
            rs1,
        });
    }
    /// `fcvt.l.d rd, frs1` — double to signed 64-bit int (RTZ).
    pub fn fcvt_l_d(&mut self, rd: u8, frs1: u8) {
        self.push(Inst::FcvtIntFromFp {
            ty: IntTy::L,
            width: FpWidth::D,
            rd,
            frs1,
        });
    }
    /// `fcvt.w.d rd, frs1` — double to signed 32-bit int (RTZ).
    pub fn fcvt_w_d(&mut self, rd: u8, frs1: u8) {
        self.push(Inst::FcvtIntFromFp {
            ty: IntTy::W,
            width: FpWidth::D,
            rd,
            frs1,
        });
    }
    /// `flt.d rd, frs1, frs2`.
    pub fn flt_d(&mut self, rd: u8, frs1: u8, frs2: u8) {
        self.push(Inst::FpCmp {
            op: FpCmpOp::Flt,
            width: FpWidth::D,
            rd,
            frs1,
            frs2,
        });
    }
    /// `fle.d rd, frs1, frs2`.
    pub fn fle_d(&mut self, rd: u8, frs1: u8, frs2: u8) {
        self.push(Inst::FpCmp {
            op: FpCmpOp::Fle,
            width: FpWidth::D,
            rd,
            frs1,
            frs2,
        });
    }
    /// `feq.d rd, frs1, frs2`.
    pub fn feq_d(&mut self, rd: u8, frs1: u8, frs2: u8) {
        self.push(Inst::FpCmp {
            op: FpCmpOp::Feq,
            width: FpWidth::D,
            rd,
            frs1,
            frs2,
        });
    }

    /// Emit the Linux `exit(code)` sequence.
    pub fn exit(&mut self, code: i64) {
        self.li(17, 93); // a7 = SYS_exit
        self.li(10, code); // a0 = code
        self.ecall();
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
                Item::BranchTo {
                    op,
                    rs1,
                    rs2,
                    label,
                } => {
                    let target = resolve(*label, &self.labels);
                    let offset = target.wrapping_sub(pc) as i64;
                    assert!(
                        (-4096..4096).contains(&offset),
                        "branch offset {offset} out of B-type range"
                    );
                    Inst::Branch {
                        op: *op,
                        rs1: *rs1,
                        rs2: *rs2,
                        offset,
                    }
                }
                Item::JalTo { rd, label } => {
                    let target = resolve(*label, &self.labels);
                    let offset = target.wrapping_sub(pc) as i64;
                    assert!(
                        (-(1 << 20)..(1 << 20)).contains(&offset),
                        "jal offset {offset} out of J-type range"
                    );
                    Inst::Jal { rd: *rd, offset }
                }
            };
            text.extend_from_slice(&encode(&inst).to_le_bytes());
        }

        // Merge duplicate region names: the same kernel may be emitted in
        // several ranges (e.g. once per timing iteration).
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

        let mut program = Program::new(IsaKind::RiscV);
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
    use crate::exec::RiscVExecutor;
    use simcore::{CpuState, EmulationCore};

    fn run(program: &Program) -> CpuState {
        let mut st = CpuState::new();
        program.load(&mut st).unwrap();
        let core = EmulationCore::new(RiscVExecutor::new());
        core.run(&mut st, &mut []).unwrap();
        st
    }

    #[test]
    fn trivial_exit_program() {
        let mut a = RvAsm::new(0x1_0000, 0x10_0000);
        a.exit(7);
        let st = run(&a.finish());
        assert_eq!(st.exited, Some(7));
    }

    #[test]
    fn loop_sums_array() {
        // Sum an 8-element f64 array with the paper's Listing-2 idiom:
        // pointer bump + fused compare-branch against an end pointer.
        let mut a = RvAsm::new(0x1_0000, 0x10_0000);
        let arr = a.data_f64_array(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let out = a.data_zero(8, 8);
        a.la(10, arr); // a0 = cursor
        a.la(11, arr + 64); // a1 = end
        a.la(12, out);
        a.push(Inst::FcvtFpFromInt {
            ty: IntTy::L,
            width: FpWidth::D,
            frd: 0,
            rs1: 0,
        }); // fa0 = 0.0
        let l = a.new_label();
        a.bind(l);
        a.fld(1, 10, 0);
        a.fadd_d(0, 0, 1);
        a.addi(10, 10, 8);
        a.bne(10, 11, l);
        a.fsd(0, 12, 0);
        a.exit(0);
        let st = run(&a.finish());
        assert_eq!(st.exited, Some(0));
        assert!(st.mem.read_f64(0x10_0000 + 64 + 8 - 8 + 8).is_ok());
        let sum_addr = 64 + 0x10_0000; // out follows the 64-byte array
        assert_eq!(st.mem.read_f64(sum_addr).unwrap(), 36.0);
    }

    #[test]
    fn li_covers_64_bit_constants() {
        for &v in &[
            0i64,
            1,
            -1,
            2047,
            -2048,
            2048,
            123_456,
            -123_456,
            i32::MAX as i64,
            i32::MIN as i64,
            0x1234_5678_9ABC_DEF0u64 as i64,
            i64::MAX,
            i64::MIN,
            -559_038_737,
        ] {
            let mut a = RvAsm::new(0x1_0000, 0x10_0000);
            let out = a.data_zero(8, 8);
            a.li(5, v);
            a.la(6, out);
            a.sd(5, 6, 0);
            a.exit(0);
            let st = run(&a.finish());
            assert_eq!(st.mem.read_u64(out).unwrap(), v as u64, "li {v}");
        }
    }

    #[test]
    fn forward_branches_resolve() {
        let mut a = RvAsm::new(0x1_0000, 0x10_0000);
        let skip = a.new_label();
        let out = a.data_zero(8, 8);
        a.li(5, 1);
        a.beq(0, 0, skip); // always taken, forward
        a.li(5, 99); // skipped
        a.bind(skip);
        a.la(6, out);
        a.sd(5, 6, 0);
        a.exit(0);
        let st = run(&a.finish());
        assert_eq!(st.mem.read_u64(out).unwrap(), 1);
    }

    #[test]
    fn regions_map_to_pc_ranges() {
        let mut a = RvAsm::new(0x1_0000, 0x10_0000);
        a.begin_region("init");
        a.li(5, 1);
        a.end_region();
        a.begin_region("body");
        a.add(6, 5, 5);
        a.end_region();
        a.exit(0);
        let p = a.finish();
        assert_eq!(p.regions.len(), 2);
        assert_eq!(p.region_of(0x1_0000).unwrap().name, "init");
        let body = p.regions.iter().find(|r| r.name == "body").unwrap();
        assert_eq!(body.end - body.start, 4);
    }

    #[test]
    fn write_syscall_from_guest() {
        let mut a = RvAsm::new(0x1_0000, 0x10_0000);
        let msg = a.data_bytes(b"hi\n");
        a.li(17, 64); // SYS_write
        a.li(10, 1); // fd
        a.la(11, msg);
        a.li(12, 3); // len
        a.ecall();
        a.exit(0);
        let st = run(&a.finish());
        assert_eq!(st.output_string(), "hi\n");
    }
}
