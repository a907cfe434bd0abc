//! Functional execution of A64 instructions.
//!
//! Register 31 resolves to SP or ZR per the architectural rules of each
//! instruction class. ZR reads/writes are omitted from the retirement
//! record's source/destination sets (breaking dependency chains exactly as
//! the paper's critical-path method requires); SP is reported as `Int(31)`.
//! The NZCV flags are reported as the [`RegId::Flags`] slot, so `cmp` ->
//! `b.ne` sequences form two-instruction dependency chains.

use std::cell::RefCell;
use std::rc::Rc;

use simcore::{
    CpuState, IsaExecutor, RegId, RetiredInst, RunSlots, SimError, WordMap, MAX_BLOCK_LEN,
};

use crate::decode::decode;
use crate::encode::fp_imm8_to_f64;
use crate::inst::*;

/// A pre-decoded basic block: the straight-line instruction run starting
/// at `start`, ending at the first control-flow terminator (or the length
/// cap / first undecodable word, whichever comes sooner). Instruction `i`
/// sits at `start + 4*i`; only the final instruction can redirect the PC,
/// so execution inside a block is purely sequential.
struct Block {
    start: u64,
    insts: Vec<Inst>,
}

/// Whether `inst` ends a basic block: anything that can change control
/// flow (or end the run) — branches, register jumps, and the trap
/// instructions.
fn ends_block(inst: &Inst) -> bool {
    matches!(
        inst,
        Inst::B { .. }
            | Inst::BCond { .. }
            | Inst::Cbz { .. }
            | Inst::Tbz { .. }
            | Inst::BrReg { .. }
            | Inst::Svc { .. }
            | Inst::Brk { .. }
    )
}

/// AArch64 executor with a per-instance decode cache and a pre-decoded
/// basic-block cache (used by the core's block loop).
#[derive(Default)]
pub struct AArch64Executor {
    cache: RefCell<WordMap<Inst>>,
    blocks: RefCell<WordMap<Rc<Block>>>,
}

impl AArch64Executor {
    /// Create a fresh executor.
    pub fn new() -> Self {
        AArch64Executor::default()
    }

    /// Look up (or build and cache) the block starting at `pc`. `None`
    /// when no block can start there — misaligned PC, unreadable or
    /// undecodable first word — in which case the per-instruction path
    /// must produce the exact fault. Build failures are never cached:
    /// memory may be remapped or repaired before the PC is reached again.
    fn block_at(&self, state: &CpuState, pc: u64) -> Option<Rc<Block>> {
        if pc & 3 != 0 {
            return None;
        }
        if let Some(b) = self.blocks.borrow().get(&pc) {
            return Some(Rc::clone(b));
        }
        let mut insts = Vec::new();
        let mut cur = pc;
        loop {
            // A decode `step` has cached wins over the word in memory: a
            // read flip that landed on that fetch keeps its flipped
            // instruction for the rest of the run, as stepping does.
            let cached = self.cache.borrow().get(&cur).copied();
            let inst = match cached {
                Some(i) => i,
                None => {
                    let word = match state.mem.read_u32(cur) {
                        Ok(w) => w,
                        Err(_) => break,
                    };
                    match decode(word) {
                        Ok(i) => i,
                        Err(_) => break,
                    }
                }
            };
            let done = ends_block(&inst);
            insts.push(inst);
            if done || insts.len() == MAX_BLOCK_LEN {
                break;
            }
            cur = cur.wrapping_add(4);
        }
        if insts.is_empty() {
            return None;
        }
        let b = Rc::new(Block { start: pc, insts });
        self.blocks.borrow_mut().insert(pc, Rc::clone(&b));
        Some(b)
    }
}

/// Fills a retirement record where it lies; filters out ZR.
struct Retire<'a> {
    ri: &'a mut RetiredInst,
}

impl Retire<'_> {
    /// Source general register, 31 = ZR (omitted).
    #[inline]
    fn src_zr(&mut self, r: u8) {
        if r != 31 {
            self.ri.srcs.insert(RegId::Int(r));
        }
    }

    /// Source general register, 31 = SP (reported).
    #[inline]
    fn src_sp(&mut self, r: u8) {
        self.ri.srcs.insert(RegId::Int(r));
    }

    /// Destination general register, 31 = ZR (omitted).
    #[inline]
    fn dst_zr(&mut self, r: u8) {
        if r != 31 {
            self.ri.dsts.insert(RegId::Int(r));
        }
    }

    /// Destination general register, 31 = SP (reported).
    #[inline]
    fn dst_sp(&mut self, r: u8) {
        self.ri.dsts.insert(RegId::Int(r));
    }

    #[inline]
    fn src_fp(&mut self, r: u8) {
        self.ri.srcs.insert(RegId::Fp(r));
    }

    #[inline]
    fn dst_fp(&mut self, r: u8) {
        self.ri.dsts.insert(RegId::Fp(r));
    }

    #[inline]
    fn src_flags(&mut self) {
        self.ri.srcs.insert(RegId::Flags);
    }

    #[inline]
    fn dst_flags(&mut self) {
        self.ri.dsts.insert(RegId::Flags);
    }
}

/// Read register with 31 = ZR.
#[inline]
fn rz(state: &CpuState, r: u8) -> u64 {
    if r == 31 {
        0
    } else {
        state.x[r as usize]
    }
}

/// Read register with 31 = SP.
#[inline]
fn rsp(state: &CpuState, r: u8) -> u64 {
    state.x[r as usize]
}

/// Write register with 31 = ZR (discard).
#[inline]
fn wz(state: &mut CpuState, r: u8, v: u64) {
    if r != 31 {
        state.x[r as usize] = v;
    }
}

/// Write register with 31 = SP.
#[inline]
fn wsp(state: &mut CpuState, r: u8, v: u64) {
    state.x[r as usize] = v;
}

/// Narrow to the operand size and zero-extend.
#[inline]
fn narrow(sf: bool, v: u64) -> u64 {
    if sf {
        v
    } else {
        v & 0xFFFF_FFFF
    }
}

const N: u8 = 0b1000;
const Z: u8 = 0b0100;
const C: u8 = 0b0010;
const V: u8 = 0b0001;

/// `a + b + carry_in`, returning (result, nzcv).
fn add_with_carry(sf: bool, a: u64, b: u64, carry_in: bool) -> (u64, u8) {
    if sf {
        let (r1, c1) = a.overflowing_add(b);
        let (result, c2) = r1.overflowing_add(carry_in as u64);
        let carry = c1 || c2;
        let sa = (a as i64) < 0;
        let sb = (b as i64) < 0;
        let sr = (result as i64) < 0;
        let overflow = (sa == sb) && (sr != sa);
        let mut f = 0u8;
        if sr {
            f |= N;
        }
        if result == 0 {
            f |= Z;
        }
        if carry {
            f |= C;
        }
        if overflow {
            f |= V;
        }
        (result, f)
    } else {
        let a = a as u32;
        let b = b as u32;
        let (r1, c1) = a.overflowing_add(b);
        let (result, c2) = r1.overflowing_add(carry_in as u32);
        let carry = c1 || c2;
        let sa = (a as i32) < 0;
        let sb = (b as i32) < 0;
        let sr = (result as i32) < 0;
        let overflow = (sa == sb) && (sr != sa);
        let mut f = 0u8;
        if sr {
            f |= N;
        }
        if result == 0 {
            f |= Z;
        }
        if carry {
            f |= C;
        }
        if overflow {
            f |= V;
        }
        (result as u64, f)
    }
}

/// Evaluate a condition against the packed NZCV flags.
// Boolean forms deliberately mirror the Arm ARM's ConditionHolds pseudocode.
#[allow(clippy::nonminimal_bool)]
pub fn cond_holds(cond: Cond, nzcv: u8) -> bool {
    let n = nzcv & N != 0;
    let z = nzcv & Z != 0;
    let c = nzcv & C != 0;
    let v = nzcv & V != 0;
    match cond {
        Cond::Eq => z,
        Cond::Ne => !z,
        Cond::Cs => c,
        Cond::Cc => !c,
        Cond::Mi => n,
        Cond::Pl => !n,
        Cond::Vs => v,
        Cond::Vc => !v,
        Cond::Hi => c && !z,
        Cond::Ls => !(c && !z),
        Cond::Ge => n == v,
        Cond::Lt => n != v,
        Cond::Gt => !z && n == v,
        Cond::Le => !(!z && n == v),
        Cond::Al | Cond::Nv => true,
    }
}

fn apply_shift(sf: bool, v: u64, shift: ShiftType, amount: u8) -> u64 {
    let v = narrow(sf, v);
    let bits: u32 = if sf { 64 } else { 32 };
    let amt = amount as u32 % bits;
    let r = match shift {
        ShiftType::Lsl => v.wrapping_shl(amt),
        ShiftType::Lsr => v.wrapping_shr(amt),
        ShiftType::Asr => {
            if sf {
                ((v as i64) >> amt) as u64
            } else {
                (((v as u32) as i32) >> amt) as u32 as u64
            }
        }
        ShiftType::Ror => {
            if amt == 0 {
                v
            } else if sf {
                v.rotate_right(amt)
            } else {
                (v as u32).rotate_right(amt) as u64
            }
        }
    };
    narrow(sf, r)
}

fn apply_extend(v: u64, extend: Extend, amount: u8) -> u64 {
    let base = match extend {
        Extend::Uxtb => v & 0xFF,
        Extend::Uxth => v & 0xFFFF,
        Extend::Uxtw => v & 0xFFFF_FFFF,
        Extend::Uxtx => v,
        Extend::Sxtb => v as u8 as i8 as i64 as u64,
        Extend::Sxth => v as u16 as i16 as i64 as u64,
        Extend::Sxtw => v as u32 as i32 as i64 as u64,
        Extend::Sxtx => v,
    };
    base.wrapping_shl(amount as u32)
}

/// ROR within `bits`.
fn ror_bits(v: u64, r: u32, bits: u32) -> u64 {
    let mask = if bits == 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    };
    let v = v & mask;
    if r == 0 {
        v
    } else {
        ((v >> r) | (v << (bits - r))) & mask
    }
}

impl IsaExecutor for AArch64Executor {
    fn step(&self, state: &mut CpuState) -> Result<RetiredInst, SimError> {
        let pc = state.pc;
        if pc & 3 != 0 {
            return Err(SimError::MisalignedPc { pc });
        }
        let cached = self.cache.borrow_mut().get(&pc).copied();
        let inst = match cached {
            Some(i) => i,
            None => {
                let word = state.mem.read_u32(pc)?;
                let i = decode(word).map_err(|e| SimError::Decode {
                    pc,
                    word,
                    msg: e.msg,
                })?;
                self.cache.borrow_mut().insert(pc, i);
                i
            }
        };
        execute(&inst, pc, state)
    }

    fn disassemble(&self, word: u32) -> String {
        match decode(word) {
            Ok(i) => crate::disasm::disassemble(&i),
            Err(e) => format!(".inst {word:#010x} ; {e}"),
        }
    }

    fn name(&self) -> &'static str {
        "aarch64"
    }

    fn flush_decode_cache(&self) {
        self.cache.borrow_mut().clear();
        self.blocks.borrow_mut().clear();
    }

    fn run_block(
        &self,
        state: &mut CpuState,
        fuel: u64,
        run: Option<&mut Vec<RetiredInst>>,
    ) -> (u64, Option<SimError>) {
        let mut slots = RunSlots::new(run);
        let mut done = 0u64;
        while done < fuel && state.exited.is_none() && !slots.full() {
            let Some(block) = self.block_at(state, state.pc) else {
                // No block can start here; the per-instruction path
                // raises the exact architectural fault (misaligned PC,
                // unmapped fetch, undecodable word).
                match self.step(state) {
                    Ok(ri) => {
                        done += 1;
                        slots.push(ri);
                        continue;
                    }
                    Err(e) => return (done, Some(e)),
                }
            };
            // A block never straddles the fuel boundary: execute only the
            // prefix that fits, and the next call re-enters mid-block (the
            // remainder is itself a valid block keyed by its start PC).
            let take = (block.insts.len() as u64).min(fuel - done) as usize;
            for (i, inst) in block.insts[..take].iter().enumerate() {
                let ipc = block.start.wrapping_add(4 * i as u64);
                if let Err(e) = execute_into(inst, ipc, state, slots.next_slot()) {
                    slots.discard();
                    return (done, Some(e));
                }
                done += 1;
            }
        }
        (done, None)
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
        AddSubImm {
            sub,
            set_flags,
            sf,
            rd,
            rn,
            imm12,
            shift12,
        } => {
            let a = narrow(sf, rsp(state, rn));
            let imm = (imm12 as u64) << if shift12 { 12 } else { 0 };
            let (result, flags) = if sub {
                add_with_carry(sf, a, narrow(sf, !imm), true)
            } else {
                add_with_carry(sf, a, imm, false)
            };
            r.src_sp(rn);
            if set_flags {
                state.nzcv = flags;
                r.dst_flags();
                wz(state, rd, result);
                r.dst_zr(rd);
            } else {
                wsp(state, rd, result);
                r.dst_sp(rd);
            }
        }
        AddSubShifted {
            sub,
            set_flags,
            sf,
            rd,
            rn,
            rm,
            shift,
            amount,
        } => {
            let a = narrow(sf, rz(state, rn));
            let b = apply_shift(sf, rz(state, rm), shift, amount);
            let (result, flags) = if sub {
                add_with_carry(sf, a, narrow(sf, !b), true)
            } else {
                add_with_carry(sf, a, b, false)
            };
            wz(state, rd, result);
            r.src_zr(rn);
            r.src_zr(rm);
            r.dst_zr(rd);
            if set_flags {
                state.nzcv = flags;
                r.dst_flags();
            }
        }
        AddSubExtended {
            sub,
            set_flags,
            sf,
            rd,
            rn,
            rm,
            extend,
            amount,
        } => {
            let a = narrow(sf, rsp(state, rn));
            let b = narrow(sf, apply_extend(rz(state, rm), extend, amount));
            let (result, flags) = if sub {
                add_with_carry(sf, a, narrow(sf, !b), true)
            } else {
                add_with_carry(sf, a, b, false)
            };
            r.src_sp(rn);
            r.src_zr(rm);
            if set_flags {
                state.nzcv = flags;
                r.dst_flags();
                wz(state, rd, result);
                r.dst_zr(rd);
            } else {
                wsp(state, rd, result);
                r.dst_sp(rd);
            }
        }
        LogicalImm {
            op,
            sf,
            rd,
            rn,
            imm,
        } => {
            let a = narrow(sf, rz(state, rn));
            let (result, sets_flags) = match op {
                LogicOp::And => (a & imm, false),
                LogicOp::Orr => (a | imm, false),
                LogicOp::Eor => (a ^ imm, false),
                LogicOp::Ands => (a & imm, true),
                _ => unreachable!("no immediate form"),
            };
            let result = narrow(sf, result);
            r.src_zr(rn);
            if sets_flags {
                let neg = if sf {
                    (result as i64) < 0
                } else {
                    (result as u32 as i32) < 0
                };
                state.nzcv = (if neg { N } else { 0 }) | (if result == 0 { Z } else { 0 });
                r.dst_flags();
                wz(state, rd, result);
                r.dst_zr(rd);
            } else {
                wsp(state, rd, result);
                r.dst_sp(rd);
            }
        }
        LogicalShifted {
            op,
            sf,
            rd,
            rn,
            rm,
            shift,
            amount,
        } => {
            let a = narrow(sf, rz(state, rn));
            let b = apply_shift(sf, rz(state, rm), shift, amount);
            let (result, sets_flags) = match op {
                LogicOp::And => (a & b, false),
                LogicOp::Bic => (a & !b, false),
                LogicOp::Orr => (a | b, false),
                LogicOp::Orn => (a | !b, false),
                LogicOp::Eor => (a ^ b, false),
                LogicOp::Eon => (a ^ !b, false),
                LogicOp::Ands => (a & b, true),
                LogicOp::Bics => (a & !b, true),
            };
            let result = narrow(sf, result);
            wz(state, rd, result);
            r.src_zr(rn);
            r.src_zr(rm);
            r.dst_zr(rd);
            if sets_flags {
                let neg = if sf {
                    (result as i64) < 0
                } else {
                    (result as u32 as i32) < 0
                };
                state.nzcv = (if neg { N } else { 0 }) | (if result == 0 { Z } else { 0 });
                r.dst_flags();
            }
        }
        MovWide {
            op,
            sf,
            rd,
            imm16,
            hw,
        } => {
            let shift = 16 * hw as u32;
            let imm = (imm16 as u64) << shift;
            let result = match op {
                MovOp::Movz => imm,
                MovOp::Movn => narrow(sf, !imm),
                MovOp::Movk => {
                    r.src_zr(rd); // movk merges into the existing value
                    (rz(state, rd) & !(0xFFFFu64 << shift)) | imm
                }
            };
            wz(state, rd, narrow(sf, result));
            r.dst_zr(rd);
        }
        Adr { rd, offset } => {
            wz(state, rd, pc.wrapping_add(offset as u64));
            r.dst_zr(rd);
        }
        Adrp { rd, offset } => {
            let base = pc & !0xFFF;
            wz(state, rd, base.wrapping_add(offset as u64));
            r.dst_zr(rd);
        }
        Bitfield {
            op,
            sf,
            rd,
            rn,
            immr,
            imms,
        } => {
            let bits: u32 = if sf { 64 } else { 32 };
            let src = narrow(sf, rz(state, rn));
            let s = imms as u32;
            let rr = immr as u32;
            let ones = |n: u32| -> u64 {
                if n >= 64 {
                    u64::MAX
                } else {
                    (1u64 << n) - 1
                }
            };
            let wmask = ror_bits(ones(s + 1), rr, bits);
            let diff = s.wrapping_sub(rr) & (bits - 1);
            let tmask = ones(diff + 1);
            let bot_src = ror_bits(src, rr, bits) & wmask;
            let result = match op {
                BitfieldOp::Ubfm => bot_src & tmask,
                BitfieldOp::Sbfm => {
                    let sign = (src >> s) & 1;
                    let top = if sign != 0 { ones(bits) } else { 0 };
                    (top & !tmask) | (bot_src & tmask)
                }
                BitfieldOp::Bfm => {
                    let dst = narrow(sf, rz(state, rd));
                    r.src_zr(rd);
                    let bot = (dst & !wmask) | bot_src;
                    (dst & !tmask) | (bot & tmask)
                }
            };
            wz(state, rd, narrow(sf, result));
            r.src_zr(rn);
            r.dst_zr(rd);
        }
        Extr {
            sf,
            rd,
            rn,
            rm,
            lsb,
        } => {
            let bits: u32 = if sf { 64 } else { 32 };
            let lo = narrow(sf, rz(state, rm));
            let hi = narrow(sf, rz(state, rn));
            let result = if lsb == 0 {
                lo
            } else {
                narrow(sf, (lo >> lsb) | (hi << (bits - lsb as u32)))
            };
            wz(state, rd, result);
            r.src_zr(rn);
            r.src_zr(rm);
            r.dst_zr(rd);
        }
        MulAdd {
            sub,
            sf,
            rd,
            rn,
            rm,
            ra,
        } => {
            let a = narrow(sf, rz(state, rn));
            let b = narrow(sf, rz(state, rm));
            let acc = narrow(sf, rz(state, ra));
            let prod = a.wrapping_mul(b);
            let result = if sub {
                acc.wrapping_sub(prod)
            } else {
                acc.wrapping_add(prod)
            };
            wz(state, rd, narrow(sf, result));
            r.src_zr(rn);
            r.src_zr(rm);
            r.src_zr(ra);
            r.dst_zr(rd);
        }
        MulAddLong {
            sub,
            unsigned,
            rd,
            rn,
            rm,
            ra,
        } => {
            let a = rz(state, rn) as u32;
            let b = rz(state, rm) as u32;
            let prod = if unsigned {
                (a as u64).wrapping_mul(b as u64)
            } else {
                ((a as i32 as i64).wrapping_mul(b as i32 as i64)) as u64
            };
            let acc = rz(state, ra);
            let result = if sub {
                acc.wrapping_sub(prod)
            } else {
                acc.wrapping_add(prod)
            };
            wz(state, rd, result);
            r.src_zr(rn);
            r.src_zr(rm);
            r.src_zr(ra);
            r.dst_zr(rd);
        }
        MulHigh {
            unsigned,
            rd,
            rn,
            rm,
        } => {
            let a = rz(state, rn);
            let b = rz(state, rm);
            let result = if unsigned {
                ((a as u128).wrapping_mul(b as u128) >> 64) as u64
            } else {
                ((a as i64 as i128).wrapping_mul(b as i64 as i128) >> 64) as u64
            };
            wz(state, rd, result);
            r.src_zr(rn);
            r.src_zr(rm);
            r.dst_zr(rd);
        }
        Div {
            unsigned,
            sf,
            rd,
            rn,
            rm,
        } => {
            let a = narrow(sf, rz(state, rn));
            let b = narrow(sf, rz(state, rm));
            // A64 division by zero yields zero (no trap).
            let result = if b == 0 {
                0
            } else if unsigned {
                a / b
            } else if sf {
                let (a, b) = (a as i64, b as i64);
                if a == i64::MIN && b == -1 {
                    a as u64 // overflow wraps
                } else {
                    (a / b) as u64
                }
            } else {
                let (a, b) = (a as u32 as i32, b as u32 as i32);
                if a == i32::MIN && b == -1 {
                    a as u32 as u64
                } else {
                    (a / b) as u32 as u64
                }
            };
            wz(state, rd, narrow(sf, result));
            r.src_zr(rn);
            r.src_zr(rm);
            r.dst_zr(rd);
        }
        ShiftV { op, sf, rd, rn, rm } => {
            let bits: u32 = if sf { 64 } else { 32 };
            let amt = (rz(state, rm) % bits as u64) as u8;
            let st = match op {
                ShiftVOp::Lslv => ShiftType::Lsl,
                ShiftVOp::Lsrv => ShiftType::Lsr,
                ShiftVOp::Asrv => ShiftType::Asr,
                ShiftVOp::Rorv => ShiftType::Ror,
            };
            let result = apply_shift(sf, rz(state, rn), st, amt);
            wz(state, rd, result);
            r.src_zr(rn);
            r.src_zr(rm);
            r.dst_zr(rd);
        }
        Unary1 { op, sf, rd, rn } => {
            let v = narrow(sf, rz(state, rn));
            let result = match (op, sf) {
                (Unary1Op::Rbit, true) => v.reverse_bits(),
                (Unary1Op::Rbit, false) => (v as u32).reverse_bits() as u64,
                (Unary1Op::Rev, true) => v.swap_bytes(),
                (Unary1Op::Rev, false) => (v as u32).swap_bytes() as u64,
                (Unary1Op::Rev16, true) => {
                    let mut out = 0u64;
                    for i in 0..4 {
                        let h = (v >> (16 * i)) as u16;
                        out |= (h.swap_bytes() as u64) << (16 * i);
                    }
                    out
                }
                (Unary1Op::Rev16, false) => {
                    let lo = (v as u16).swap_bytes() as u64;
                    let hi = ((v >> 16) as u16).swap_bytes() as u64;
                    (hi << 16) | lo
                }
                (Unary1Op::Rev32, _) => {
                    let lo = (v as u32).swap_bytes() as u64;
                    let hi = ((v >> 32) as u32).swap_bytes() as u64;
                    (hi << 32) | lo
                }
                (Unary1Op::Clz, true) => v.leading_zeros() as u64,
                (Unary1Op::Clz, false) => (v as u32).leading_zeros() as u64,
                (Unary1Op::Cls, true) => ((v as i64).leading_zeros_of_sign()) as u64,
                (Unary1Op::Cls, false) => ((v as u32 as i32).leading_zeros_of_sign32()) as u64,
            };
            wz(state, rd, narrow(sf, result));
            r.src_zr(rn);
            r.dst_zr(rd);
        }
        CondSel {
            op,
            sf,
            rd,
            rn,
            rm,
            cond,
        } => {
            let result = if cond_holds(cond, state.nzcv) {
                narrow(sf, rz(state, rn))
            } else {
                let m = narrow(sf, rz(state, rm));
                match op {
                    CselOp::Csel => m,
                    CselOp::Csinc => narrow(sf, m.wrapping_add(1)),
                    CselOp::Csinv => narrow(sf, !m),
                    CselOp::Csneg => narrow(sf, m.wrapping_neg()),
                }
            };
            wz(state, rd, result);
            r.src_zr(rn);
            r.src_zr(rm);
            r.src_flags();
            r.dst_zr(rd);
        }
        CondCmpReg {
            negative,
            sf,
            rn,
            rm,
            nzcv,
            cond,
        } => {
            if cond_holds(cond, state.nzcv) {
                let a = narrow(sf, rz(state, rn));
                let b = narrow(sf, rz(state, rm));
                let (_, flags) = if negative {
                    add_with_carry(sf, a, b, false)
                } else {
                    add_with_carry(sf, a, narrow(sf, !b), true)
                };
                state.nzcv = flags;
            } else {
                state.nzcv = nzcv;
            }
            r.src_zr(rn);
            r.src_zr(rm);
            r.src_flags();
            r.dst_flags();
        }
        CondCmpImm {
            negative,
            sf,
            rn,
            imm5,
            nzcv,
            cond,
        } => {
            if cond_holds(cond, state.nzcv) {
                let a = narrow(sf, rz(state, rn));
                let b = imm5 as u64;
                let (_, flags) = if negative {
                    add_with_carry(sf, a, b, false)
                } else {
                    add_with_carry(sf, a, narrow(sf, !b), true)
                };
                state.nzcv = flags;
            } else {
                state.nzcv = nzcv;
            }
            r.src_zr(rn);
            r.src_flags();
            r.dst_flags();
        }
        B { link, offset } => {
            if link {
                state.x[30] = pc.wrapping_add(4);
                r.dst_zr(30);
            }
            next_pc = pc.wrapping_add(offset as u64);
            r.ri.is_branch = true;
            r.ri.taken = true;
        }
        BCond { cond, offset } => {
            let taken = cond_holds(cond, state.nzcv);
            if taken {
                next_pc = pc.wrapping_add(offset as u64);
            }
            r.src_flags();
            r.ri.is_branch = true;
            r.ri.taken = taken;
        }
        Cbz {
            nonzero,
            sf,
            rt,
            offset,
        } => {
            let v = narrow(sf, rz(state, rt));
            let taken = (v == 0) != nonzero;
            if taken {
                next_pc = pc.wrapping_add(offset as u64);
            }
            r.src_zr(rt);
            r.ri.is_branch = true;
            r.ri.taken = taken;
        }
        Tbz {
            nonzero,
            rt,
            bit,
            offset,
        } => {
            let v = (rz(state, rt) >> bit) & 1;
            let taken = (v == 0) != nonzero;
            if taken {
                next_pc = pc.wrapping_add(offset as u64);
            }
            r.src_zr(rt);
            r.ri.is_branch = true;
            r.ri.taken = taken;
        }
        BrReg { link, rn, .. } => {
            let target = rz(state, rn);
            if link {
                state.x[30] = pc.wrapping_add(4);
                r.dst_zr(30);
            }
            r.src_zr(rn);
            next_pc = target;
            r.ri.is_branch = true;
            r.ri.taken = true;
        }
        LdrImm {
            size,
            rt,
            rn,
            imm12,
        } => {
            let addr = rsp(state, rn).wrapping_add(imm12 as u64 * size.bytes() as u64);
            let v = load_int(state, addr, size)?;
            wz(state, rt, v);
            r.src_sp(rn);
            r.dst_zr(rt);
            r.ri.push_read(addr, size.bytes());
        }
        StrImm {
            size,
            rt,
            rn,
            imm12,
        } => {
            let addr = rsp(state, rn).wrapping_add(imm12 as u64 * size.bytes() as u64);
            store_int(state, addr, size, rz(state, rt))?;
            r.src_sp(rn);
            r.src_zr(rt);
            r.ri.push_write(addr, size.bytes());
        }
        LdrIdx {
            size,
            mode,
            rt,
            rn,
            simm9,
        } => {
            let base = rsp(state, rn);
            let addr = match mode {
                IndexMode::Pre | IndexMode::Unscaled => base.wrapping_add(simm9 as u64),
                IndexMode::Post => base,
            };
            let v = load_int(state, addr, size)?;
            wz(state, rt, v);
            if mode != IndexMode::Unscaled {
                wsp(state, rn, base.wrapping_add(simm9 as u64));
                r.dst_sp(rn);
            }
            r.src_sp(rn);
            r.dst_zr(rt);
            r.ri.push_read(addr, size.bytes());
        }
        StrIdx {
            size,
            mode,
            rt,
            rn,
            simm9,
        } => {
            let base = rsp(state, rn);
            let addr = match mode {
                IndexMode::Pre | IndexMode::Unscaled => base.wrapping_add(simm9 as u64),
                IndexMode::Post => base,
            };
            store_int(state, addr, size, rz(state, rt))?;
            if mode != IndexMode::Unscaled {
                wsp(state, rn, base.wrapping_add(simm9 as u64));
                r.dst_sp(rn);
            }
            r.src_sp(rn);
            r.src_zr(rt);
            r.ri.push_write(addr, size.bytes());
        }
        LdrReg {
            size,
            rt,
            rn,
            rm,
            extend,
            shift,
        } => {
            let scale = if shift {
                size.bytes().trailing_zeros() as u8
            } else {
                0
            };
            let addr = rsp(state, rn).wrapping_add(apply_extend(rz(state, rm), extend, scale));
            let v = load_int(state, addr, size)?;
            wz(state, rt, v);
            r.src_sp(rn);
            r.src_zr(rm);
            r.dst_zr(rt);
            r.ri.push_read(addr, size.bytes());
        }
        StrReg {
            size,
            rt,
            rn,
            rm,
            extend,
            shift,
        } => {
            let scale = if shift {
                size.bytes().trailing_zeros() as u8
            } else {
                0
            };
            let addr = rsp(state, rn).wrapping_add(apply_extend(rz(state, rm), extend, scale));
            store_int(state, addr, size, rz(state, rt))?;
            r.src_sp(rn);
            r.src_zr(rm);
            r.src_zr(rt);
            r.ri.push_write(addr, size.bytes());
        }
        Ldp {
            sf,
            mode,
            rt,
            rt2,
            rn,
            imm7,
        } => {
            let scale: u64 = if sf { 8 } else { 4 };
            let base = rsp(state, rn);
            let offset = (imm7 as i64 * scale as i64) as u64;
            let addr = match mode {
                Some(IndexMode::Post) => base,
                _ => base.wrapping_add(offset),
            };
            let (v1, v2) = if sf {
                (
                    state.mem.read_u64(addr)?,
                    state.mem.read_u64(addr.wrapping_add(8))?,
                )
            } else {
                (
                    state.mem.read_u32(addr)? as u64,
                    state.mem.read_u32(addr.wrapping_add(4))? as u64,
                )
            };
            wz(state, rt, v1);
            wz(state, rt2, v2);
            if mode.is_some() {
                wsp(state, rn, base.wrapping_add(offset));
                r.dst_sp(rn);
            }
            r.src_sp(rn);
            r.dst_zr(rt);
            r.dst_zr(rt2);
            r.ri.push_read(addr, (2 * scale) as u8);
        }
        Stp {
            sf,
            mode,
            rt,
            rt2,
            rn,
            imm7,
        } => {
            let scale: u64 = if sf { 8 } else { 4 };
            let base = rsp(state, rn);
            let offset = (imm7 as i64 * scale as i64) as u64;
            let addr = match mode {
                Some(IndexMode::Post) => base,
                _ => base.wrapping_add(offset),
            };
            if sf {
                state.mem.write_u64(addr, rz(state, rt))?;
                state.mem.write_u64(addr.wrapping_add(8), rz(state, rt2))?;
            } else {
                state.mem.write_u32(addr, rz(state, rt) as u32)?;
                state
                    .mem
                    .write_u32(addr.wrapping_add(4), rz(state, rt2) as u32)?;
            }
            if mode.is_some() {
                wsp(state, rn, base.wrapping_add(offset));
                r.dst_sp(rn);
            }
            r.src_sp(rn);
            r.src_zr(rt);
            r.src_zr(rt2);
            r.ri.push_write(addr, (2 * scale) as u8);
        }
        LdrFpImm {
            size,
            rt,
            rn,
            imm12,
        } => {
            let addr = rsp(state, rn).wrapping_add(imm12 as u64 * size.bytes() as u64);
            load_fp(state, addr, size, rt)?;
            r.src_sp(rn);
            r.dst_fp(rt);
            r.ri.push_read(addr, size.bytes());
        }
        StrFpImm {
            size,
            rt,
            rn,
            imm12,
        } => {
            let addr = rsp(state, rn).wrapping_add(imm12 as u64 * size.bytes() as u64);
            store_fp(state, addr, size, rt)?;
            r.src_sp(rn);
            r.src_fp(rt);
            r.ri.push_write(addr, size.bytes());
        }
        LdrFpIdx {
            size,
            mode,
            rt,
            rn,
            simm9,
        } => {
            let base = rsp(state, rn);
            let addr = match mode {
                IndexMode::Pre | IndexMode::Unscaled => base.wrapping_add(simm9 as u64),
                IndexMode::Post => base,
            };
            load_fp(state, addr, size, rt)?;
            if mode != IndexMode::Unscaled {
                wsp(state, rn, base.wrapping_add(simm9 as u64));
                r.dst_sp(rn);
            }
            r.src_sp(rn);
            r.dst_fp(rt);
            r.ri.push_read(addr, size.bytes());
        }
        StrFpIdx {
            size,
            mode,
            rt,
            rn,
            simm9,
        } => {
            let base = rsp(state, rn);
            let addr = match mode {
                IndexMode::Pre | IndexMode::Unscaled => base.wrapping_add(simm9 as u64),
                IndexMode::Post => base,
            };
            store_fp(state, addr, size, rt)?;
            if mode != IndexMode::Unscaled {
                wsp(state, rn, base.wrapping_add(simm9 as u64));
                r.dst_sp(rn);
            }
            r.src_sp(rn);
            r.src_fp(rt);
            r.ri.push_write(addr, size.bytes());
        }
        LdrFpReg {
            size,
            rt,
            rn,
            rm,
            extend,
            shift,
        } => {
            let scale = if shift {
                size.bytes().trailing_zeros() as u8
            } else {
                0
            };
            let addr = rsp(state, rn).wrapping_add(apply_extend(rz(state, rm), extend, scale));
            load_fp(state, addr, size, rt)?;
            r.src_sp(rn);
            r.src_zr(rm);
            r.dst_fp(rt);
            r.ri.push_read(addr, size.bytes());
        }
        StrFpReg {
            size,
            rt,
            rn,
            rm,
            extend,
            shift,
        } => {
            let scale = if shift {
                size.bytes().trailing_zeros() as u8
            } else {
                0
            };
            let addr = rsp(state, rn).wrapping_add(apply_extend(rz(state, rm), extend, scale));
            store_fp(state, addr, size, rt)?;
            r.src_sp(rn);
            r.src_zr(rm);
            r.src_fp(rt);
            r.ri.push_write(addr, size.bytes());
        }
        FpBin {
            op,
            size,
            rd,
            rn,
            rm,
        } => {
            let a = read_fp(state, rn, size);
            let b = read_fp(state, rm, size);
            let v = match op {
                FpBinOp::Fadd => a + b,
                FpBinOp::Fsub => a - b,
                FpBinOp::Fmul => a * b,
                FpBinOp::Fdiv => a / b,
                FpBinOp::Fnmul => -(a * b),
                FpBinOp::Fmax => {
                    if a.is_nan() || b.is_nan() {
                        f64::NAN
                    } else {
                        pick_max(a, b)
                    }
                }
                FpBinOp::Fmin => {
                    if a.is_nan() || b.is_nan() {
                        f64::NAN
                    } else {
                        pick_min(a, b)
                    }
                }
                FpBinOp::Fmaxnm => {
                    if a.is_nan() {
                        b
                    } else if b.is_nan() {
                        a
                    } else {
                        pick_max(a, b)
                    }
                }
                FpBinOp::Fminnm => {
                    if a.is_nan() {
                        b
                    } else if b.is_nan() {
                        a
                    } else {
                        pick_min(a, b)
                    }
                }
            };
            write_fp(state, rd, size, v);
            r.src_fp(rn);
            r.src_fp(rm);
            r.dst_fp(rd);
        }
        FpUn { op, size, rd, rn } => {
            let a = read_fp(state, rn, size);
            let v = match op {
                FpUnOp::Fmov => a,
                FpUnOp::Fabs => a.abs(),
                FpUnOp::Fneg => -a,
                FpUnOp::Fsqrt => a.sqrt(),
            };
            write_fp(state, rd, size, v);
            r.src_fp(rn);
            r.dst_fp(rd);
        }
        FpFma {
            op,
            size,
            rd,
            rn,
            rm,
            ra,
        } => {
            let a = read_fp(state, rn, size);
            let b = read_fp(state, rm, size);
            let c = read_fp(state, ra, size);
            let v = match op {
                FpFmaOp::Fmadd => a.mul_add(b, c),
                FpFmaOp::Fmsub => (-a).mul_add(b, c),
                FpFmaOp::Fnmadd => (-a).mul_add(b, -c),
                FpFmaOp::Fnmsub => a.mul_add(b, -c),
            };
            write_fp(state, rd, size, v);
            r.src_fp(rn);
            r.src_fp(rm);
            r.src_fp(ra);
            r.dst_fp(rd);
        }
        Fcmp { size, rn, rm, zero } => {
            let a = read_fp(state, rn, size);
            let b = if zero { 0.0 } else { read_fp(state, rm, size) };
            state.nzcv = if a.is_nan() || b.is_nan() {
                C | V
            } else if a < b {
                N
            } else if a == b {
                Z | C
            } else {
                C
            };
            r.src_fp(rn);
            if !zero {
                r.src_fp(rm);
            }
            r.dst_flags();
        }
        Fcsel {
            size,
            rd,
            rn,
            rm,
            cond,
        } => {
            let v = if cond_holds(cond, state.nzcv) {
                read_fp(state, rn, size)
            } else {
                read_fp(state, rm, size)
            };
            write_fp(state, rd, size, v);
            r.src_fp(rn);
            r.src_fp(rm);
            r.src_flags();
            r.dst_fp(rd);
        }
        FcvtPrec { to, from, rd, rn } => {
            let v = read_fp(state, rn, from);
            write_fp(state, rd, to, v);
            r.src_fp(rn);
            r.dst_fp(rd);
        }
        IntToFp {
            unsigned,
            sf,
            size,
            rd,
            rn,
        } => {
            let raw = narrow(sf, rz(state, rn));
            let v = if unsigned {
                raw as f64
            } else if sf {
                raw as i64 as f64
            } else {
                raw as u32 as i32 as f64
            };
            write_fp(state, rd, size, v);
            r.src_zr(rn);
            r.dst_fp(rd);
        }
        FpToInt {
            unsigned,
            sf,
            size,
            rd,
            rn,
        } => {
            let v = read_fp(state, rn, size);
            // A64 FCVTZ* saturates; NaN converts to zero.
            let result: u64 = match (unsigned, sf) {
                (false, true) => {
                    if v.is_nan() {
                        0
                    } else {
                        (v.max(i64::MIN as f64).min(i64::MAX as f64).trunc() as i64) as u64
                    }
                }
                (false, false) => {
                    if v.is_nan() {
                        0
                    } else {
                        ((v.max(i32::MIN as f64).min(i32::MAX as f64).trunc() as i32) as u32) as u64
                    }
                }
                (true, true) => {
                    if v.is_nan() || v <= -1.0 {
                        0
                    } else {
                        v.min(u64::MAX as f64).trunc() as u64
                    }
                }
                (true, false) => {
                    if v.is_nan() || v <= -1.0 {
                        0
                    } else {
                        (v.min(u32::MAX as f64).trunc() as u32) as u64
                    }
                }
            };
            wz(state, rd, result);
            r.src_fp(rn);
            r.dst_zr(rd);
        }
        FmovIntFp {
            to_fp,
            sf,
            size,
            rd,
            rn,
        } => {
            if to_fp {
                let v = narrow(sf, rz(state, rn));
                state.f[rd as usize] = if size == FpSize::S {
                    v & 0xFFFF_FFFF
                } else {
                    v
                };
                r.src_zr(rn);
                r.dst_fp(rd);
            } else {
                let bits = state.f[rn as usize];
                let v = if size == FpSize::S {
                    bits & 0xFFFF_FFFF
                } else {
                    bits
                };
                wz(state, rd, v);
                r.src_fp(rn);
                r.dst_zr(rd);
            }
        }
        FmovImm { size, rd, imm8 } => {
            write_fp(state, rd, size, fp_imm8_to_f64(imm8));
            r.dst_fp(rd);
        }
        Nop => {}
        Svc { .. } => {
            let num = state.x[8];
            let args = [state.x[0], state.x[1], state.x[2]];
            let ret = state.syscall(pc, num, args)?;
            state.x[0] = ret;
            r.src_zr(8);
            r.src_zr(0);
            r.src_zr(1);
            r.src_zr(2);
            r.dst_zr(0);
        }
        Brk { .. } => return Err(SimError::Breakpoint { pc }),
    }

    state.pc = next_pc;
    Ok(())
}

/// IEEE max preserving +0 > -0 ordering.
fn pick_max(a: f64, b: f64) -> f64 {
    if a == 0.0 && b == 0.0 {
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

fn pick_min(a: f64, b: f64) -> f64 {
    if a == 0.0 && b == 0.0 {
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

fn load_int(state: &mut CpuState, addr: u64, size: MemSize) -> Result<u64, SimError> {
    Ok(match size {
        MemSize::B => state.mem.read_u8(addr)? as u64,
        MemSize::H => state.mem.read_u16(addr)? as u64,
        MemSize::W => state.mem.read_u32(addr)? as u64,
        MemSize::X => state.mem.read_u64(addr)?,
        MemSize::Sb => state.mem.read_u8(addr)? as i8 as i64 as u64,
        MemSize::Sh => state.mem.read_u16(addr)? as i16 as i64 as u64,
        MemSize::Sw => state.mem.read_u32(addr)? as i32 as i64 as u64,
    })
}

fn store_int(state: &mut CpuState, addr: u64, size: MemSize, v: u64) -> Result<(), SimError> {
    match size.bytes() {
        1 => state.mem.write_u8(addr, v as u8),
        2 => state.mem.write_u16(addr, v as u16),
        4 => state.mem.write_u32(addr, v as u32),
        _ => state.mem.write_u64(addr, v),
    }
}

fn load_fp(state: &mut CpuState, addr: u64, size: FpSize, rt: u8) -> Result<(), SimError> {
    state.f[rt as usize] = match size {
        FpSize::S => state.mem.read_u32(addr)? as u64,
        FpSize::D => state.mem.read_u64(addr)?,
    };
    Ok(())
}

fn store_fp(state: &mut CpuState, addr: u64, size: FpSize, rt: u8) -> Result<(), SimError> {
    match size {
        FpSize::S => state.mem.write_u32(addr, state.f[rt as usize] as u32),
        FpSize::D => state.mem.write_u64(addr, state.f[rt as usize]),
    }
}

/// Read an FP register as f64 (S registers hold the value in the low 32
/// bits, upper bits zero — AArch64 scalar writes zero the rest).
fn read_fp(state: &CpuState, r: u8, size: FpSize) -> f64 {
    match size {
        FpSize::S => f32::from_bits(state.f[r as usize] as u32) as f64,
        FpSize::D => f64::from_bits(state.f[r as usize]),
    }
}

fn write_fp(state: &mut CpuState, r: u8, size: FpSize, v: f64) {
    state.f[r as usize] = match size {
        FpSize::S => (v as f32).to_bits() as u64,
        FpSize::D => v.to_bits(),
    };
}

/// Helper trait for `cls`.
trait LeadingSign {
    fn leading_zeros_of_sign(self) -> u32;
}

impl LeadingSign for i64 {
    fn leading_zeros_of_sign(self) -> u32 {
        let v = if self < 0 { !self } else { self };
        (v as u64).leading_zeros().saturating_sub(1)
    }
}

trait LeadingSign32 {
    fn leading_zeros_of_sign32(self) -> u32;
}

impl LeadingSign32 for i32 {
    fn leading_zeros_of_sign32(self) -> u32 {
        let v = if self < 0 { !self } else { self };
        (v as u32).leading_zeros().saturating_sub(1)
    }
}
