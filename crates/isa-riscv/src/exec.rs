//! Functional execution of RV64G instructions.
//!
//! [`Rv64g`] gives the shared block-caching front end
//! ([`simcore::BlockExecutor`]) RV64G's decoder, block terminators and
//! semantics; [`RiscVExecutor`] is that front end over them. Each
//! instruction executes against the architectural state and emits the
//! [`RetiredInst`] record dependency analyses consume.
//!
//! Zero-register handling matches the paper's critical-path method: `x0`
//! always reads zero and is never reported as a source or destination, so
//! chains naturally break through it.

use simcore::{BlockExecutor, CpuState, IsaSemantics, RegId, RetiredInst, SimError};

use crate::decode::decode;
use crate::inst::*;

/// The RV64G semantics the shared block-caching front end runs.
pub struct Rv64g;

/// RV64G executor: the shared [`BlockExecutor`] over [`Rv64g`].
pub type RiscVExecutor = BlockExecutor<Rv64g>;

impl IsaSemantics for Rv64g {
    type Inst = Inst;

    const NAME: &'static str = "rv64g";

    fn decode(word: u32) -> Result<Inst, String> {
        decode(word).map_err(|e| e.msg)
    }

    /// Jumps, branches, and the trap instructions.
    fn ends_block(inst: &Inst) -> bool {
        matches!(
            inst,
            Inst::Jal { .. } | Inst::Jalr { .. } | Inst::Branch { .. } | Inst::Ecall | Inst::Ebreak
        )
    }

    fn execute_into(
        inst: &Inst,
        pc: u64,
        state: &mut CpuState,
        slot: &mut RetiredInst,
    ) -> Result<(), SimError> {
        execute_into(inst, pc, state, slot)
    }

    fn disassemble(word: u32) -> String {
        match decode(word) {
            Ok(i) => crate::disasm::disassemble(&i),
            Err(e) => format!(".word {word:#010x} ; {e}"),
        }
    }
}

/// Fills a retirement record where it lies; filters out `x0`.
struct Retire<'a> {
    ri: &'a mut RetiredInst,
}

impl Retire<'_> {
    #[inline]
    fn src_x(&mut self, r: u8) {
        if r != 0 {
            self.ri.srcs.insert(RegId::Int(r));
        }
    }

    #[inline]
    fn dst_x(&mut self, r: u8) {
        if r != 0 {
            self.ri.dsts.insert(RegId::Int(r));
        }
    }

    #[inline]
    fn src_f(&mut self, r: u8) {
        self.ri.srcs.insert(RegId::Fp(r));
    }

    #[inline]
    fn dst_f(&mut self, r: u8) {
        self.ri.dsts.insert(RegId::Fp(r));
    }
}

#[inline]
fn wx(state: &mut CpuState, rd: u8, v: u64) {
    if rd != 0 {
        state.x[rd as usize] = v;
    }
}

#[inline]
fn rx(state: &CpuState, rs: u8) -> u64 {
    if rs == 0 {
        0
    } else {
        state.x[rs as usize]
    }
}

/// NaN-box an f32 bit pattern into a 64-bit FP register value.
#[inline]
fn nan_box(bits: u32) -> u64 {
    0xFFFF_FFFF_0000_0000 | bits as u64
}

/// Read an f32 from a (possibly NaN-boxed) register value.
#[inline]
fn unbox_f32(v: u64) -> f32 {
    if v >> 32 == 0xFFFF_FFFF {
        f32::from_bits(v as u32)
    } else {
        // Improperly boxed values must read as the canonical NaN.
        f32::NAN
    }
}

/// RISC-V fmin semantics (IEEE 754 minimumNumber + -0 < +0).
fn rv_fmin(a: f64, b: f64) -> f64 {
    if a.is_nan() && b.is_nan() {
        f64::NAN
    } else if a.is_nan() {
        b
    } else if b.is_nan() {
        a
    } else if a == 0.0 && b == 0.0 {
        if a.is_sign_negative() {
            a
        } else {
            b
        }
    } else if a < b {
        a
    } else {
        b
    }
}

/// RISC-V fmax semantics.
fn rv_fmax(a: f64, b: f64) -> f64 {
    if a.is_nan() && b.is_nan() {
        f64::NAN
    } else if a.is_nan() {
        b
    } else if b.is_nan() {
        a
    } else if a == 0.0 && b == 0.0 {
        if a.is_sign_positive() {
            a
        } else {
            b
        }
    } else if a > b {
        a
    } else {
        b
    }
}

/// `fclass` bit per the unprivileged spec.
fn fclass_bits(v: f64) -> u64 {
    use std::num::FpCategory::*;
    let neg = v.is_sign_negative();
    match v.classify() {
        Infinite => {
            if neg {
                1 << 0
            } else {
                1 << 7
            }
        }
        Normal => {
            if neg {
                1 << 1
            } else {
                1 << 6
            }
        }
        Subnormal => {
            if neg {
                1 << 2
            } else {
                1 << 5
            }
        }
        Zero => {
            if neg {
                1 << 3
            } else {
                1 << 4
            }
        }
        Nan => {
            // Distinguish signalling (bit 8) from quiet (bit 9) NaN.
            let bits = v.to_bits();
            let quiet = bits & (1 << 51) != 0;
            if quiet {
                1 << 9
            } else {
                1 << 8
            }
        }
    }
}

/// Saturating FP-to-int conversions per the RISC-V spec (NaN converts to the
/// maximum value of the target type).
// The branch ladders intentionally follow the spec's case analysis even
// where arms coincide (NaN and +overflow both saturate to the maximum).
#[allow(clippy::if_same_then_else)]
fn cvt_f64_to_int(v: f64, ty: IntTy) -> u64 {
    match ty {
        IntTy::W => {
            let r = if v.is_nan() {
                i32::MAX
            } else if v >= i32::MAX as f64 {
                i32::MAX
            } else if v <= i32::MIN as f64 {
                i32::MIN
            } else {
                v.trunc() as i32
            };
            r as i64 as u64
        }
        IntTy::Wu => {
            let r = if v.is_nan() {
                u32::MAX
            } else if v >= u32::MAX as f64 {
                u32::MAX
            } else if v <= 0.0 {
                if v <= -1.0 {
                    0
                } else {
                    v.trunc() as u32
                }
            } else {
                v.trunc() as u32
            };
            r as i32 as i64 as u64
        }
        IntTy::L => {
            if v.is_nan() {
                i64::MAX as u64
            } else if v >= i64::MAX as f64 {
                i64::MAX as u64
            } else if v <= i64::MIN as f64 {
                i64::MIN as u64
            } else {
                (v.trunc() as i64) as u64
            }
        }
        IntTy::Lu => {
            if v.is_nan() {
                u64::MAX
            } else if v >= u64::MAX as f64 {
                u64::MAX
            } else if v <= -1.0 {
                0
            } else {
                v.trunc() as u64
            }
        }
    }
}

fn cvt_int_to_f64(v: u64, ty: IntTy) -> f64 {
    match ty {
        IntTy::W => (v as i32) as f64,
        IntTy::Wu => (v as u32) as f64,
        IntTy::L => (v as i64) as f64,
        IntTy::Lu => v as f64,
    }
}

/// Execute one decoded instruction at `pc`, returning its retirement record.
pub fn execute(inst: &Inst, pc: u64, state: &mut CpuState) -> Result<RetiredInst, SimError> {
    let mut ri = RetiredInst::new(pc, inst.group());
    execute_into(inst, pc, state, &mut ri)?;
    Ok(ri)
}

/// Execute one decoded instruction at `pc`, building its retirement record
/// in `slot`. The slot is first reset to a blank record for `pc`, so
/// nothing it held before survives; on an error it holds a partial record
/// that no observer may see.
// Division guards follow the ISA manual's explicit case tables rather than
// checked_div (divide-by-zero and overflow have architecturally defined
// results, not error paths).
#[allow(clippy::manual_is_multiple_of, clippy::manual_checked_ops)]
pub fn execute_into(
    inst: &Inst,
    pc: u64,
    state: &mut CpuState,
    slot: &mut RetiredInst,
) -> Result<(), SimError> {
    *slot = RetiredInst::new(pc, inst.group());
    let mut r = Retire { ri: slot };
    let mut next_pc = pc.wrapping_add(4);

    use Inst::*;
    match *inst {
        Lui { rd, imm } => {
            wx(state, rd, imm as u64);
            r.dst_x(rd);
        }
        Auipc { rd, imm } => {
            wx(state, rd, pc.wrapping_add(imm as u64));
            r.dst_x(rd);
        }
        Jal { rd, offset } => {
            wx(state, rd, pc.wrapping_add(4));
            r.dst_x(rd);
            next_pc = pc.wrapping_add(offset as u64);
            r.ri.is_branch = true;
            r.ri.taken = true;
        }
        Jalr { rd, rs1, offset } => {
            let target = rx(state, rs1).wrapping_add(offset as u64) & !1;
            wx(state, rd, pc.wrapping_add(4));
            r.src_x(rs1);
            r.dst_x(rd);
            next_pc = target;
            r.ri.is_branch = true;
            r.ri.taken = true;
        }
        Branch {
            op,
            rs1,
            rs2,
            offset,
        } => {
            let a = rx(state, rs1);
            let b = rx(state, rs2);
            let taken = match op {
                BranchOp::Beq => a == b,
                BranchOp::Bne => a != b,
                BranchOp::Blt => (a as i64) < (b as i64),
                BranchOp::Bge => (a as i64) >= (b as i64),
                BranchOp::Bltu => a < b,
                BranchOp::Bgeu => a >= b,
            };
            if taken {
                next_pc = pc.wrapping_add(offset as u64);
            }
            r.src_x(rs1);
            r.src_x(rs2);
            r.ri.is_branch = true;
            r.ri.taken = taken;
        }
        Load {
            op,
            rd,
            rs1,
            offset,
        } => {
            let addr = rx(state, rs1).wrapping_add(offset as u64);
            let v = match op {
                LoadOp::Lb => state.mem.read_u8(addr)? as i8 as i64 as u64,
                LoadOp::Lh => state.mem.read_u16(addr)? as i16 as i64 as u64,
                LoadOp::Lw => state.mem.read_u32(addr)? as i32 as i64 as u64,
                LoadOp::Ld => state.mem.read_u64(addr)?,
                LoadOp::Lbu => state.mem.read_u8(addr)? as u64,
                LoadOp::Lhu => state.mem.read_u16(addr)? as u64,
                LoadOp::Lwu => state.mem.read_u32(addr)? as u64,
            };
            wx(state, rd, v);
            r.src_x(rs1);
            r.dst_x(rd);
            r.ri.push_read(addr, op.size());
        }
        Store {
            op,
            rs2,
            rs1,
            offset,
        } => {
            let addr = rx(state, rs1).wrapping_add(offset as u64);
            let v = rx(state, rs2);
            match op {
                StoreOp::Sb => state.mem.write_u8(addr, v as u8)?,
                StoreOp::Sh => state.mem.write_u16(addr, v as u16)?,
                StoreOp::Sw => state.mem.write_u32(addr, v as u32)?,
                StoreOp::Sd => state.mem.write_u64(addr, v)?,
            }
            r.src_x(rs1);
            r.src_x(rs2);
            r.ri.push_write(addr, op.size());
        }
        OpImm { op, rd, rs1, imm } => {
            let a = rx(state, rs1);
            let v = match op {
                ImmOp::Addi => a.wrapping_add(imm as u64),
                ImmOp::Slti => ((a as i64) < imm) as u64,
                ImmOp::Sltiu => (a < imm as u64) as u64,
                ImmOp::Xori => a ^ imm as u64,
                ImmOp::Ori => a | imm as u64,
                ImmOp::Andi => a & imm as u64,
                ImmOp::Slli => a << (imm & 0x3F),
                ImmOp::Srli => a >> (imm & 0x3F),
                ImmOp::Srai => ((a as i64) >> (imm & 0x3F)) as u64,
            };
            wx(state, rd, v);
            r.src_x(rs1);
            r.dst_x(rd);
        }
        OpImm32 { op, rd, rs1, imm } => {
            let a = rx(state, rs1) as u32;
            let v32 = match op {
                ImmOp32::Addiw => a.wrapping_add(imm as u32),
                ImmOp32::Slliw => a << (imm & 0x1F),
                ImmOp32::Srliw => a >> (imm & 0x1F),
                ImmOp32::Sraiw => ((a as i32) >> (imm & 0x1F)) as u32,
            };
            wx(state, rd, v32 as i32 as i64 as u64);
            r.src_x(rs1);
            r.dst_x(rd);
        }
        Op { op, rd, rs1, rs2 } => {
            let a = rx(state, rs1);
            let b = rx(state, rs2);
            let v = match op {
                RegOp::Add => a.wrapping_add(b),
                RegOp::Sub => a.wrapping_sub(b),
                RegOp::Sll => a << (b & 0x3F),
                RegOp::Slt => ((a as i64) < (b as i64)) as u64,
                RegOp::Sltu => (a < b) as u64,
                RegOp::Xor => a ^ b,
                RegOp::Srl => a >> (b & 0x3F),
                RegOp::Sra => ((a as i64) >> (b & 0x3F)) as u64,
                RegOp::Or => a | b,
                RegOp::And => a & b,
                RegOp::Mul => a.wrapping_mul(b),
                RegOp::Mulh => (((a as i64 as i128) * (b as i64 as i128)) >> 64) as u64,
                RegOp::Mulhsu => (((a as i64 as i128) * (b as u128 as i128)) >> 64) as u64,
                RegOp::Mulhu => (((a as u128) * (b as u128)) >> 64) as u64,
                RegOp::Div => {
                    let (a, b) = (a as i64, b as i64);
                    if b == 0 {
                        u64::MAX
                    } else if a == i64::MIN && b == -1 {
                        a as u64
                    } else {
                        (a / b) as u64
                    }
                }
                RegOp::Divu => {
                    if b == 0 {
                        u64::MAX
                    } else {
                        a / b
                    }
                }
                RegOp::Rem => {
                    let (a, b) = (a as i64, b as i64);
                    if b == 0 {
                        a as u64
                    } else if a == i64::MIN && b == -1 {
                        0
                    } else {
                        (a % b) as u64
                    }
                }
                RegOp::Remu => {
                    if b == 0 {
                        a
                    } else {
                        a % b
                    }
                }
            };
            wx(state, rd, v);
            r.src_x(rs1);
            r.src_x(rs2);
            r.dst_x(rd);
        }
        Op32 { op, rd, rs1, rs2 } => {
            let a = rx(state, rs1) as u32;
            let b = rx(state, rs2) as u32;
            let v32 = match op {
                RegOp32::Addw => a.wrapping_add(b),
                RegOp32::Subw => a.wrapping_sub(b),
                RegOp32::Sllw => a << (b & 0x1F),
                RegOp32::Srlw => a >> (b & 0x1F),
                RegOp32::Sraw => ((a as i32) >> (b & 0x1F)) as u32,
                RegOp32::Mulw => a.wrapping_mul(b),
                RegOp32::Divw => {
                    let (a, b) = (a as i32, b as i32);
                    if b == 0 {
                        u32::MAX
                    } else if a == i32::MIN && b == -1 {
                        a as u32
                    } else {
                        (a / b) as u32
                    }
                }
                RegOp32::Divuw => {
                    if b == 0 {
                        u32::MAX
                    } else {
                        a / b
                    }
                }
                RegOp32::Remw => {
                    let (a, b) = (a as i32, b as i32);
                    if b == 0 {
                        a as u32
                    } else if a == i32::MIN && b == -1 {
                        0
                    } else {
                        (a % b) as u32
                    }
                }
                RegOp32::Remuw => {
                    if b == 0 {
                        a
                    } else {
                        a % b
                    }
                }
            };
            wx(state, rd, v32 as i32 as i64 as u64);
            r.src_x(rs1);
            r.src_x(rs2);
            r.dst_x(rd);
        }
        Fence => {}
        Ecall => {
            let num = state.x[17];
            let args = [state.x[10], state.x[11], state.x[12]];
            let ret = state.syscall(pc, num, args)?;
            state.x[10] = ret;
            r.src_x(17);
            r.src_x(10);
            r.src_x(11);
            r.src_x(12);
            r.dst_x(10);
        }
        Ebreak => return Err(SimError::Breakpoint { pc }),
        Lr { width, rd, rs1 } => {
            let addr = rx(state, rs1);
            let v = match width {
                AmoWidth::W => state.mem.read_u32(addr)? as i32 as i64 as u64,
                AmoWidth::D => state.mem.read_u64(addr)?,
            };
            wx(state, rd, v);
            r.src_x(rs1);
            r.dst_x(rd);
            r.ri.push_read(addr, width.size());
        }
        Sc {
            width,
            rd,
            rs1,
            rs2,
        } => {
            // Single-hart model: the store-conditional always succeeds.
            let addr = rx(state, rs1);
            let v = rx(state, rs2);
            match width {
                AmoWidth::W => state.mem.write_u32(addr, v as u32)?,
                AmoWidth::D => state.mem.write_u64(addr, v)?,
            }
            wx(state, rd, 0);
            r.src_x(rs1);
            r.src_x(rs2);
            r.dst_x(rd);
            r.ri.push_write(addr, width.size());
        }
        Amo {
            op,
            width,
            rd,
            rs1,
            rs2,
        } => {
            let addr = rx(state, rs1);
            let rhs = rx(state, rs2);
            let old = match width {
                AmoWidth::W => state.mem.read_u32(addr)? as i32 as i64 as u64,
                AmoWidth::D => state.mem.read_u64(addr)?,
            };
            let new = match (op, width) {
                (AmoOp::Swap, _) => rhs,
                (AmoOp::Add, AmoWidth::W) => (old as u32).wrapping_add(rhs as u32) as u64,
                (AmoOp::Add, AmoWidth::D) => old.wrapping_add(rhs),
                (AmoOp::Xor, _) => old ^ rhs,
                (AmoOp::And, _) => old & rhs,
                (AmoOp::Or, _) => old | rhs,
                (AmoOp::Min, AmoWidth::W) => ((old as i32).min(rhs as i32)) as u32 as u64,
                (AmoOp::Min, AmoWidth::D) => ((old as i64).min(rhs as i64)) as u64,
                (AmoOp::Max, AmoWidth::W) => ((old as i32).max(rhs as i32)) as u32 as u64,
                (AmoOp::Max, AmoWidth::D) => ((old as i64).max(rhs as i64)) as u64,
                (AmoOp::Minu, AmoWidth::W) => ((old as u32).min(rhs as u32)) as u64,
                (AmoOp::Minu, AmoWidth::D) => old.min(rhs),
                (AmoOp::Maxu, AmoWidth::W) => ((old as u32).max(rhs as u32)) as u64,
                (AmoOp::Maxu, AmoWidth::D) => old.max(rhs),
            };
            match width {
                AmoWidth::W => state.mem.write_u32(addr, new as u32)?,
                AmoWidth::D => state.mem.write_u64(addr, new)?,
            }
            wx(state, rd, old);
            r.src_x(rs1);
            r.src_x(rs2);
            r.dst_x(rd);
            r.ri.push_read(addr, width.size());
            r.ri.push_write(addr, width.size());
        }
        FpLoad {
            width,
            frd,
            rs1,
            offset,
        } => {
            let addr = rx(state, rs1).wrapping_add(offset as u64);
            let v = match width {
                FpWidth::S => nan_box(state.mem.read_u32(addr)?),
                FpWidth::D => state.mem.read_u64(addr)?,
            };
            state.f[frd as usize] = v;
            r.src_x(rs1);
            r.dst_f(frd);
            r.ri.push_read(addr, width.size());
        }
        FpStore {
            width,
            frs2,
            rs1,
            offset,
        } => {
            let addr = rx(state, rs1).wrapping_add(offset as u64);
            match width {
                FpWidth::S => state.mem.write_u32(addr, state.f[frs2 as usize] as u32)?,
                FpWidth::D => state.mem.write_u64(addr, state.f[frs2 as usize])?,
            }
            r.src_x(rs1);
            r.src_f(frs2);
            r.ri.push_write(addr, width.size());
        }
        FpReg {
            op,
            width,
            frd,
            frs1,
            frs2,
        } => {
            match width {
                FpWidth::D => {
                    let a = state.fd(frs1);
                    let b = state.fd(frs2);
                    let v = match op {
                        FpOp::Fadd => a + b,
                        FpOp::Fsub => a - b,
                        FpOp::Fmul => a * b,
                        FpOp::Fdiv => a / b,
                        FpOp::Fmin => rv_fmin(a, b),
                        FpOp::Fmax => rv_fmax(a, b),
                        FpOp::Fsgnj => {
                            f64::from_bits((a.to_bits() & !(1 << 63)) | (b.to_bits() & (1 << 63)))
                        }
                        FpOp::Fsgnjn => {
                            f64::from_bits((a.to_bits() & !(1 << 63)) | (!b.to_bits() & (1 << 63)))
                        }
                        FpOp::Fsgnjx => f64::from_bits(a.to_bits() ^ (b.to_bits() & (1 << 63))),
                    };
                    state.set_fd(frd, v);
                }
                FpWidth::S => {
                    let a = unbox_f32(state.f[frs1 as usize]);
                    let b = unbox_f32(state.f[frs2 as usize]);
                    let v = match op {
                        FpOp::Fadd => a + b,
                        FpOp::Fsub => a - b,
                        FpOp::Fmul => a * b,
                        FpOp::Fdiv => a / b,
                        FpOp::Fmin => rv_fmin(a as f64, b as f64) as f32,
                        FpOp::Fmax => rv_fmax(a as f64, b as f64) as f32,
                        FpOp::Fsgnj => {
                            f32::from_bits((a.to_bits() & !(1 << 31)) | (b.to_bits() & (1 << 31)))
                        }
                        FpOp::Fsgnjn => {
                            f32::from_bits((a.to_bits() & !(1 << 31)) | (!b.to_bits() & (1 << 31)))
                        }
                        FpOp::Fsgnjx => f32::from_bits(a.to_bits() ^ (b.to_bits() & (1 << 31))),
                    };
                    state.f[frd as usize] = nan_box(v.to_bits());
                }
            }
            r.src_f(frs1);
            r.src_f(frs2);
            r.dst_f(frd);
        }
        FpFma {
            op,
            width,
            frd,
            frs1,
            frs2,
            frs3,
        } => {
            match width {
                FpWidth::D => {
                    let a = state.fd(frs1);
                    let b = state.fd(frs2);
                    let c = state.fd(frs3);
                    let v = match op {
                        FmaOp::Fmadd => a.mul_add(b, c),
                        FmaOp::Fmsub => a.mul_add(b, -c),
                        FmaOp::Fnmsub => (-a).mul_add(b, c),
                        FmaOp::Fnmadd => (-a).mul_add(b, -c),
                    };
                    state.set_fd(frd, v);
                }
                FpWidth::S => {
                    let a = unbox_f32(state.f[frs1 as usize]);
                    let b = unbox_f32(state.f[frs2 as usize]);
                    let c = unbox_f32(state.f[frs3 as usize]);
                    let v = match op {
                        FmaOp::Fmadd => a.mul_add(b, c),
                        FmaOp::Fmsub => a.mul_add(b, -c),
                        FmaOp::Fnmsub => (-a).mul_add(b, c),
                        FmaOp::Fnmadd => (-a).mul_add(b, -c),
                    };
                    state.f[frd as usize] = nan_box(v.to_bits());
                }
            }
            r.src_f(frs1);
            r.src_f(frs2);
            r.src_f(frs3);
            r.dst_f(frd);
        }
        FpSqrt { width, frd, frs1 } => {
            match width {
                FpWidth::D => {
                    let v = state.fd(frs1).sqrt();
                    state.set_fd(frd, v);
                }
                FpWidth::S => {
                    let v = unbox_f32(state.f[frs1 as usize]).sqrt();
                    state.f[frd as usize] = nan_box(v.to_bits());
                }
            }
            r.src_f(frs1);
            r.dst_f(frd);
        }
        FpCmp {
            op,
            width,
            rd,
            frs1,
            frs2,
        } => {
            let (a, b) = match width {
                FpWidth::D => (state.fd(frs1), state.fd(frs2)),
                FpWidth::S => (
                    unbox_f32(state.f[frs1 as usize]) as f64,
                    unbox_f32(state.f[frs2 as usize]) as f64,
                ),
            };
            let v = match op {
                FpCmpOp::Feq => (a == b) as u64,
                FpCmpOp::Flt => (a < b) as u64,
                FpCmpOp::Fle => (a <= b) as u64,
            };
            wx(state, rd, v);
            r.src_f(frs1);
            r.src_f(frs2);
            r.dst_x(rd);
        }
        FcvtIntFromFp {
            ty,
            width,
            rd,
            frs1,
        } => {
            let v = match width {
                FpWidth::D => state.fd(frs1),
                FpWidth::S => unbox_f32(state.f[frs1 as usize]) as f64,
            };
            wx(state, rd, cvt_f64_to_int(v, ty));
            r.src_f(frs1);
            r.dst_x(rd);
        }
        FcvtFpFromInt {
            ty,
            width,
            frd,
            rs1,
        } => {
            let v = cvt_int_to_f64(rx(state, rs1), ty);
            match width {
                FpWidth::D => state.set_fd(frd, v),
                FpWidth::S => state.f[frd as usize] = nan_box((v as f32).to_bits()),
            }
            r.src_x(rs1);
            r.dst_f(frd);
        }
        FcvtFpFp {
            to,
            from,
            frd,
            frs1,
        } => {
            match (to, from) {
                (FpWidth::S, FpWidth::D) => {
                    let v = state.fd(frs1) as f32;
                    state.f[frd as usize] = nan_box(v.to_bits());
                }
                (FpWidth::D, FpWidth::S) => {
                    let v = unbox_f32(state.f[frs1 as usize]) as f64;
                    state.set_fd(frd, v);
                }
                _ => {
                    return Err(SimError::Fault {
                        pc,
                        msg: "fcvt between identical FP widths".into(),
                    })
                }
            }
            r.src_f(frs1);
            r.dst_f(frd);
        }
        FmvToInt { width, rd, frs1 } => {
            let v = match width {
                FpWidth::D => state.f[frs1 as usize],
                FpWidth::S => state.f[frs1 as usize] as u32 as i32 as i64 as u64,
            };
            wx(state, rd, v);
            r.src_f(frs1);
            r.dst_x(rd);
        }
        FmvToFp { width, frd, rs1 } => {
            let v = rx(state, rs1);
            state.f[frd as usize] = match width {
                FpWidth::D => v,
                FpWidth::S => nan_box(v as u32),
            };
            r.src_x(rs1);
            r.dst_f(frd);
        }
        Fclass { width, rd, frs1 } => {
            let v = match width {
                FpWidth::D => state.fd(frs1),
                FpWidth::S => unbox_f32(state.f[frs1 as usize]) as f64,
            };
            wx(state, rd, fclass_bits(v));
            r.src_f(frs1);
            r.dst_x(rd);
        }
    }

    state.pc = next_pc;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{IsaExecutor, MAX_BLOCK_LEN};

    fn fresh() -> CpuState {
        CpuState::new()
    }

    fn run1(inst: Inst, st: &mut CpuState) -> RetiredInst {
        execute(&inst, st.pc, st).unwrap()
    }

    #[test]
    fn addi_and_zero_register() {
        let mut st = fresh();
        run1(
            Inst::OpImm {
                op: ImmOp::Addi,
                rd: 5,
                rs1: 0,
                imm: 42,
            },
            &mut st,
        );
        assert_eq!(st.x[5], 42);
        // Write to x0 is discarded.
        let ri = run1(
            Inst::OpImm {
                op: ImmOp::Addi,
                rd: 0,
                rs1: 5,
                imm: 1,
            },
            &mut st,
        );
        assert_eq!(st.x[0], 0);
        assert!(ri.dsts.is_empty());
        assert!(ri.srcs.contains(RegId::Int(5)));
    }

    #[test]
    fn x0_not_reported_as_source() {
        let mut st = fresh();
        let ri = run1(
            Inst::Op {
                op: RegOp::Add,
                rd: 1,
                rs1: 0,
                rs2: 0,
            },
            &mut st,
        );
        assert!(ri.srcs.is_empty());
        assert!(ri.dsts.contains(RegId::Int(1)));
    }

    #[test]
    fn branch_taken_and_not_taken() {
        let mut st = fresh();
        st.pc = 0x100;
        st.x[1] = 5;
        st.x[2] = 5;
        let ri = run1(
            Inst::Branch {
                op: BranchOp::Beq,
                rs1: 1,
                rs2: 2,
                offset: 0x40,
            },
            &mut st,
        );
        assert!(ri.taken);
        assert_eq!(st.pc, 0x140);
        st.x[2] = 6;
        let ri = run1(
            Inst::Branch {
                op: BranchOp::Beq,
                rs1: 1,
                rs2: 2,
                offset: 0x40,
            },
            &mut st,
        );
        assert!(!ri.taken);
        assert_eq!(st.pc, 0x144);
    }

    #[test]
    fn signed_vs_unsigned_branches() {
        let mut st = fresh();
        st.x[1] = (-1i64) as u64;
        st.x[2] = 1;
        st.pc = 0;
        run1(
            Inst::Branch {
                op: BranchOp::Blt,
                rs1: 1,
                rs2: 2,
                offset: 8,
            },
            &mut st,
        );
        assert_eq!(st.pc, 8, "-1 < 1 signed");
        st.pc = 0;
        run1(
            Inst::Branch {
                op: BranchOp::Bltu,
                rs1: 1,
                rs2: 2,
                offset: 8,
            },
            &mut st,
        );
        assert_eq!(st.pc, 4, "u64::MAX not < 1 unsigned");
    }

    #[test]
    fn load_store_round_trip() {
        let mut st = fresh();
        st.x[1] = 0x1000;
        st.x[2] = 0xDEAD_BEEF_CAFE_F00D;
        let ri = run1(
            Inst::Store {
                op: StoreOp::Sd,
                rs2: 2,
                rs1: 1,
                offset: 8,
            },
            &mut st,
        );
        assert_eq!(ri.mem_writes().next().unwrap().addr, 0x1008);
        let ri = run1(
            Inst::Load {
                op: LoadOp::Ld,
                rd: 3,
                rs1: 1,
                offset: 8,
            },
            &mut st,
        );
        assert_eq!(st.x[3], 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(ri.mem_reads().next().unwrap().size, 8);
    }

    #[test]
    fn load_sign_extension() {
        let mut st = fresh();
        st.x[1] = 0x2000;
        st.mem.write_u8(0x2000, 0x80).unwrap();
        run1(
            Inst::Load {
                op: LoadOp::Lb,
                rd: 3,
                rs1: 1,
                offset: 0,
            },
            &mut st,
        );
        assert_eq!(st.x[3] as i64, -128);
        run1(
            Inst::Load {
                op: LoadOp::Lbu,
                rd: 3,
                rs1: 1,
                offset: 0,
            },
            &mut st,
        );
        assert_eq!(st.x[3], 0x80);
    }

    #[test]
    fn mul_div_edge_cases() {
        let mut st = fresh();
        st.x[1] = i64::MIN as u64;
        st.x[2] = (-1i64) as u64;
        run1(
            Inst::Op {
                op: RegOp::Div,
                rd: 3,
                rs1: 1,
                rs2: 2,
            },
            &mut st,
        );
        assert_eq!(st.x[3], i64::MIN as u64, "overflow case");
        run1(
            Inst::Op {
                op: RegOp::Rem,
                rd: 3,
                rs1: 1,
                rs2: 2,
            },
            &mut st,
        );
        assert_eq!(st.x[3], 0);
        st.x[2] = 0;
        run1(
            Inst::Op {
                op: RegOp::Div,
                rd: 3,
                rs1: 1,
                rs2: 2,
            },
            &mut st,
        );
        assert_eq!(st.x[3], u64::MAX, "divide by zero returns -1");
        run1(
            Inst::Op {
                op: RegOp::Rem,
                rd: 3,
                rs1: 1,
                rs2: 2,
            },
            &mut st,
        );
        assert_eq!(st.x[3], i64::MIN as u64, "rem by zero returns dividend");
    }

    #[test]
    fn mulh_variants() {
        let mut st = fresh();
        st.x[1] = u64::MAX; // -1 signed
        st.x[2] = u64::MAX;
        run1(
            Inst::Op {
                op: RegOp::Mulh,
                rd: 3,
                rs1: 1,
                rs2: 2,
            },
            &mut st,
        );
        assert_eq!(st.x[3], 0, "(-1)*(-1)=1, high bits 0");
        run1(
            Inst::Op {
                op: RegOp::Mulhu,
                rd: 3,
                rs1: 1,
                rs2: 2,
            },
            &mut st,
        );
        assert_eq!(st.x[3], u64::MAX - 1, "unsigned high product");
        run1(
            Inst::Op {
                op: RegOp::Mulhsu,
                rd: 3,
                rs1: 1,
                rs2: 2,
            },
            &mut st,
        );
        assert_eq!(st.x[3], u64::MAX, "signed x unsigned high product");
    }

    #[test]
    fn word_ops_sign_extend() {
        let mut st = fresh();
        st.x[1] = 0x7FFF_FFFF;
        run1(
            Inst::OpImm32 {
                op: ImmOp32::Addiw,
                rd: 2,
                rs1: 1,
                imm: 1,
            },
            &mut st,
        );
        assert_eq!(
            st.x[2], 0xFFFF_FFFF_8000_0000,
            "addiw wraps and sign-extends"
        );
        st.x[1] = 1;
        run1(
            Inst::OpImm32 {
                op: ImmOp32::Slliw,
                rd: 2,
                rs1: 1,
                imm: 31,
            },
            &mut st,
        );
        assert_eq!(st.x[2] as i64, i32::MIN as i64);
    }

    #[test]
    fn jal_jalr_link() {
        let mut st = fresh();
        st.pc = 0x1000;
        let ri = run1(
            Inst::Jal {
                rd: 1,
                offset: 0x100,
            },
            &mut st,
        );
        assert_eq!(st.x[1], 0x1004);
        assert_eq!(st.pc, 0x1100);
        assert!(ri.is_branch && ri.taken);
        st.x[5] = 0x2001; // odd target gets aligned
        run1(
            Inst::Jalr {
                rd: 0,
                rs1: 5,
                offset: 0,
            },
            &mut st,
        );
        assert_eq!(st.pc, 0x2000);
    }

    #[test]
    fn fp_double_arithmetic() {
        let mut st = fresh();
        st.set_fd(1, 1.5);
        st.set_fd(2, 2.5);
        let ri = run1(
            Inst::FpReg {
                op: FpOp::Fadd,
                width: FpWidth::D,
                frd: 3,
                frs1: 1,
                frs2: 2,
            },
            &mut st,
        );
        assert_eq!(st.fd(3), 4.0);
        assert!(ri.srcs.contains(RegId::Fp(1)));
        assert!(ri.dsts.contains(RegId::Fp(3)));
        run1(
            Inst::FpFma {
                op: FmaOp::Fmadd,
                width: FpWidth::D,
                frd: 4,
                frs1: 1,
                frs2: 2,
                frs3: 3,
            },
            &mut st,
        );
        assert_eq!(st.fd(4), 1.5f64.mul_add(2.5, 4.0));
    }

    #[test]
    fn fp_min_max_zero_signs() {
        let mut st = fresh();
        st.set_fd(1, -0.0);
        st.set_fd(2, 0.0);
        run1(
            Inst::FpReg {
                op: FpOp::Fmin,
                width: FpWidth::D,
                frd: 3,
                frs1: 2,
                frs2: 1,
            },
            &mut st,
        );
        assert!(st.fd(3).is_sign_negative());
        run1(
            Inst::FpReg {
                op: FpOp::Fmax,
                width: FpWidth::D,
                frd: 3,
                frs1: 2,
                frs2: 1,
            },
            &mut st,
        );
        assert!(st.fd(3).is_sign_positive());
    }

    #[test]
    fn fp_compare_and_nan() {
        let mut st = fresh();
        st.set_fd(1, 1.0);
        st.set_fd(2, f64::NAN);
        run1(
            Inst::FpCmp {
                op: FpCmpOp::Flt,
                width: FpWidth::D,
                rd: 3,
                frs1: 1,
                frs2: 2,
            },
            &mut st,
        );
        assert_eq!(st.x[3], 0, "comparison with NaN is false");
        st.set_fd(2, 2.0);
        run1(
            Inst::FpCmp {
                op: FpCmpOp::Fle,
                width: FpWidth::D,
                rd: 3,
                frs1: 1,
                frs2: 2,
            },
            &mut st,
        );
        assert_eq!(st.x[3], 1);
    }

    #[test]
    fn fcvt_truncates_toward_zero() {
        let mut st = fresh();
        st.set_fd(1, -2.7);
        run1(
            Inst::FcvtIntFromFp {
                ty: IntTy::W,
                width: FpWidth::D,
                rd: 2,
                frs1: 1,
            },
            &mut st,
        );
        assert_eq!(st.x[2] as i64, -2);
        st.x[3] = (-7i64) as u64;
        run1(
            Inst::FcvtFpFromInt {
                ty: IntTy::L,
                width: FpWidth::D,
                frd: 2,
                rs1: 3,
            },
            &mut st,
        );
        assert_eq!(st.fd(2), -7.0);
    }

    #[test]
    fn fcvt_nan_saturates() {
        let mut st = fresh();
        st.set_fd(1, f64::NAN);
        run1(
            Inst::FcvtIntFromFp {
                ty: IntTy::W,
                width: FpWidth::D,
                rd: 2,
                frs1: 1,
            },
            &mut st,
        );
        assert_eq!(st.x[2] as i64, i32::MAX as i64);
    }

    #[test]
    fn fmv_bit_transfer() {
        let mut st = fresh();
        st.x[1] = 0x4008_0000_0000_0000; // 3.0
        run1(
            Inst::FmvToFp {
                width: FpWidth::D,
                frd: 2,
                rs1: 1,
            },
            &mut st,
        );
        assert_eq!(st.fd(2), 3.0);
        run1(
            Inst::FmvToInt {
                width: FpWidth::D,
                rd: 3,
                frs1: 2,
            },
            &mut st,
        );
        assert_eq!(st.x[3], 0x4008_0000_0000_0000);
    }

    #[test]
    fn fclass_categories() {
        let mut st = fresh();
        for (v, bit) in [
            (f64::NEG_INFINITY, 0),
            (-1.0, 1),
            (-0.0, 3),
            (0.0, 4),
            (1.0, 6),
            (f64::INFINITY, 7),
        ] {
            st.set_fd(1, v);
            run1(
                Inst::Fclass {
                    width: FpWidth::D,
                    rd: 2,
                    frs1: 1,
                },
                &mut st,
            );
            assert_eq!(st.x[2], 1 << bit, "fclass of {v}");
        }
    }

    #[test]
    fn amo_add_returns_old() {
        let mut st = fresh();
        st.mem.write_u64(0x1000, 10).unwrap();
        st.x[1] = 0x1000;
        st.x[2] = 5;
        let ri = run1(
            Inst::Amo {
                op: AmoOp::Add,
                width: AmoWidth::D,
                rd: 3,
                rs1: 1,
                rs2: 2,
            },
            &mut st,
        );
        assert_eq!(st.x[3], 10);
        assert_eq!(st.mem.read_u64(0x1000).unwrap(), 15);
        assert_eq!(ri.mem_reads().len(), 1);
        assert_eq!(ri.mem_writes().len(), 1);
    }

    #[test]
    fn lr_sc_pair() {
        let mut st = fresh();
        st.mem.write_u32(0x1000, 7).unwrap();
        st.x[1] = 0x1000;
        run1(
            Inst::Lr {
                width: AmoWidth::W,
                rd: 2,
                rs1: 1,
            },
            &mut st,
        );
        assert_eq!(st.x[2], 7);
        st.x[3] = 9;
        run1(
            Inst::Sc {
                width: AmoWidth::W,
                rd: 4,
                rs1: 1,
                rs2: 3,
            },
            &mut st,
        );
        assert_eq!(st.x[4], 0, "sc succeeds");
        assert_eq!(st.mem.read_u32(0x1000).unwrap(), 9);
    }

    #[test]
    fn ecall_exit() {
        let mut st = fresh();
        st.x[17] = 93;
        st.x[10] = 3;
        run1(Inst::Ecall, &mut st);
        assert_eq!(st.exited, Some(3));
    }

    #[test]
    fn f32_nan_boxing() {
        let mut st = fresh();
        st.x[1] = 0x3000;
        st.mem.write_u32(0x3000, 1.5f32.to_bits()).unwrap();
        run1(
            Inst::FpLoad {
                width: FpWidth::S,
                frd: 1,
                rs1: 1,
                offset: 0,
            },
            &mut st,
        );
        assert_eq!(st.f[1] >> 32, 0xFFFF_FFFF, "flw NaN-boxes");
        st.mem.write_u32(0x3004, 2.0f32.to_bits()).unwrap();
        run1(
            Inst::FpLoad {
                width: FpWidth::S,
                frd: 2,
                rs1: 1,
                offset: 4,
            },
            &mut st,
        );
        run1(
            Inst::FpReg {
                op: FpOp::Fadd,
                width: FpWidth::S,
                frd: 3,
                frs1: 1,
                frs2: 2,
            },
            &mut st,
        );
        run1(
            Inst::FpStore {
                width: FpWidth::S,
                frs2: 3,
                rs1: 1,
                offset: 8,
            },
            &mut st,
        );
        assert_eq!(f32::from_bits(st.mem.read_u32(0x3008).unwrap()), 3.5);
    }

    #[test]
    fn execute_into_leaves_nothing_of_the_record_it_overwrites() {
        let mut st = fresh();
        st.mem.write_u64(0x1000, 10).unwrap();
        st.x[1] = 0x1000;
        st.x[2] = 5;
        let amo = Inst::Amo {
            op: AmoOp::Add,
            width: AmoWidth::D,
            rd: 3,
            rs1: 1,
            rs2: 2,
        };
        let ld = Inst::Load {
            op: LoadOp::Ld,
            rd: 4,
            rs1: 1,
            offset: 0,
        };
        let addi = Inst::OpImm {
            op: ImmOp::Addi,
            rd: 5,
            rs1: 0,
            imm: 42,
        };
        for next in [ld, addi] {
            let mut slot = RetiredInst::new(0, simcore::InstGroup::IntAlu);
            execute_into(&amo, 0x40, &mut st, &mut slot).unwrap();
            assert_eq!(slot.mem_accesses().len(), 2, "the slot held two accesses");
            execute_into(&next, 0x44, &mut st, &mut slot).unwrap();
            assert_eq!(slot, execute(&next, 0x44, &mut st).unwrap(), "{next:?}");
        }
    }

    #[test]
    fn run_block_builds_the_records_step_returns() {
        let addi = |rd, imm| Inst::OpImm {
            op: ImmOp::Addi,
            rd,
            rs1: 0,
            imm,
        };
        let ld = Inst::Load {
            op: LoadOp::Ld,
            rd: 6,
            rs1: 7,
            offset: 0,
        };
        // `ld` reads through x7: mapped, the guest exits; unmapped, the
        // load faults in the middle of its block and takes its slot back.
        let program = [addi(5, 7), ld, addi(17, 93), addi(10, 0), Inst::Ecall];
        for (base, retired, faults) in [(0x2000, 5, false), (0x9_0000, 1, true)] {
            let load = || {
                let mut st = fresh();
                for (i, inst) in program.iter().enumerate() {
                    st.mem
                        .write_u32(0x1000 + 4 * i as u64, crate::encode::encode(inst))
                        .unwrap();
                }
                st.mem.write_u64(0x2000, 99).unwrap();
                st.pc = 0x1000;
                st.x[7] = base;
                st
            };
            let exec = RiscVExecutor::new();
            let mut stepped = Vec::new();
            let mut st = load();
            while st.exited.is_none() {
                match exec.step(&mut st) {
                    Ok(ri) => stepped.push(ri),
                    Err(_) => break,
                }
            }
            let mut st = load();
            let mut run = Vec::with_capacity(simcore::source::RUN_RECORDS + MAX_BLOCK_LEN);
            let (done, err) = RiscVExecutor::new().run_block(&mut st, 100, Some(&mut run));
            assert_eq!((done, err.is_some()), (retired, faults));
            assert_eq!(run, stepped);
        }
    }
}
