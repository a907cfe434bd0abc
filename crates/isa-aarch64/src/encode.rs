//! A64 binary encoder (scalar subset).

use crate::bitmask::encode_bitmask;
use crate::inst::*;

/// Expand an 8-bit VFP immediate to its `f64` value (`VFPExpandImm`).
pub fn fp_imm8_to_f64(imm8: u8) -> f64 {
    let imm = imm8 as u64;
    let sign = (imm >> 7) & 1;
    let b6 = (imm >> 6) & 1;
    let bits = (sign << 63)
        | ((b6 ^ 1) << 62)
        | (if b6 == 1 { 0xFF << 54 } else { 0 })
        | (((imm >> 4) & 0x3) << 52)
        | ((imm & 0xF) << 48);
    f64::from_bits(bits)
}

/// Encode an `f64` as an 8-bit VFP immediate if representable.
pub fn f64_to_fp_imm8(v: f64) -> Option<u8> {
    (0..=255u8).find(|&imm8| fp_imm8_to_f64(imm8).to_bits() == v.to_bits())
}

fn sf_bit(sf: bool) -> u32 {
    sf as u32
}

fn shift_bits(s: ShiftType) -> u32 {
    match s {
        ShiftType::Lsl => 0,
        ShiftType::Lsr => 1,
        ShiftType::Asr => 2,
        ShiftType::Ror => 3,
    }
}

fn mem_size_fields(size: MemSize) -> (u32, u32, u32) {
    // (size, opc_load, opc_store); opc_load of sign-extending forms is 10.
    match size {
        MemSize::B => (0b00, 0b01, 0b00),
        MemSize::H => (0b01, 0b01, 0b00),
        MemSize::W => (0b10, 0b01, 0b00),
        MemSize::X => (0b11, 0b01, 0b00),
        MemSize::Sb => (0b00, 0b10, 0b00),
        MemSize::Sh => (0b01, 0b10, 0b00),
        MemSize::Sw => (0b10, 0b10, 0b00),
    }
}

fn fp_size_fields(size: FpSize) -> u32 {
    match size {
        FpSize::S => 0b10,
        FpSize::D => 0b11,
    }
}

fn fp_type(size: FpSize) -> u32 {
    match size {
        FpSize::S => 0b00,
        FpSize::D => 0b01,
    }
}

fn idx_mode_bits(mode: IndexMode) -> u32 {
    match mode {
        IndexMode::Unscaled => 0b00,
        IndexMode::Post => 0b01,
        IndexMode::Pre => 0b11,
    }
}

fn logic_opc_n(op: LogicOp) -> (u32, u32) {
    match op {
        LogicOp::And => (0b00, 0),
        LogicOp::Bic => (0b00, 1),
        LogicOp::Orr => (0b01, 0),
        LogicOp::Orn => (0b01, 1),
        LogicOp::Eor => (0b10, 0),
        LogicOp::Eon => (0b10, 1),
        LogicOp::Ands => (0b11, 0),
        LogicOp::Bics => (0b11, 1),
    }
}

/// Encode a decoded instruction back to its 32-bit word.
///
/// Panics if a `LogicalImm` carries a mask that is not a valid bitmask
/// immediate, or a `FmovImm`'s value is out of the representable set — the
/// assembler checks these before constructing the instruction.
pub fn encode(inst: &Inst) -> u32 {
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
            (sf_bit(sf) << 31)
                | ((sub as u32) << 30)
                | ((set_flags as u32) << 29)
                | (0b100010 << 23)
                | ((shift12 as u32) << 22)
                | ((imm12 as u32 & 0xFFF) << 10)
                | ((rn as u32) << 5)
                | rd as u32
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
            (sf_bit(sf) << 31)
                | ((sub as u32) << 30)
                | ((set_flags as u32) << 29)
                | (0b01011 << 24)
                | (shift_bits(shift) << 22)
                | ((rm as u32) << 16)
                | ((amount as u32 & 0x3F) << 10)
                | ((rn as u32) << 5)
                | rd as u32
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
            (sf_bit(sf) << 31)
                | ((sub as u32) << 30)
                | ((set_flags as u32) << 29)
                | (0b01011001 << 21)
                | ((rm as u32) << 16)
                | (extend.bits() << 13)
                | ((amount as u32 & 0x7) << 10)
                | ((rn as u32) << 5)
                | rd as u32
        }
        LogicalImm {
            op,
            sf,
            rd,
            rn,
            imm,
        } => {
            let (opc, n_must_be_zero) = match op {
                LogicOp::And => (0b00u32, false),
                LogicOp::Orr => (0b01, false),
                LogicOp::Eor => (0b10, false),
                LogicOp::Ands => (0b11, false),
                _ => panic!("{op:?} has no immediate form"),
            };
            let _ = n_must_be_zero;
            let (n, immr, imms) = encode_bitmask(sf, imm)
                .unwrap_or_else(|| panic!("{imm:#x} is not a valid bitmask immediate"));
            (sf_bit(sf) << 31)
                | (opc << 29)
                | (0b100100 << 23)
                | (n << 22)
                | (immr << 16)
                | (imms << 10)
                | ((rn as u32) << 5)
                | rd as u32
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
            let (opc, n) = logic_opc_n(op);
            (sf_bit(sf) << 31)
                | (opc << 29)
                | (0b01010 << 24)
                | (shift_bits(shift) << 22)
                | (n << 21)
                | ((rm as u32) << 16)
                | ((amount as u32 & 0x3F) << 10)
                | ((rn as u32) << 5)
                | rd as u32
        }
        MovWide {
            op,
            sf,
            rd,
            imm16,
            hw,
        } => {
            let opc = match op {
                MovOp::Movn => 0b00,
                MovOp::Movz => 0b10,
                MovOp::Movk => 0b11,
            };
            (sf_bit(sf) << 31)
                | (opc << 29)
                | (0b100101 << 23)
                | ((hw as u32 & 0x3) << 21)
                | ((imm16 as u32) << 5)
                | rd as u32
        }
        Adr { rd, offset } => {
            let imm = offset as u32 & 0x1F_FFFF;
            ((imm & 0x3) << 29) | (0b10000 << 24) | ((imm >> 2) << 5) | rd as u32
        }
        Adrp { rd, offset } => {
            let pages = (offset >> 12) as u32 & 0x1F_FFFF;
            (1 << 31) | ((pages & 0x3) << 29) | (0b10000 << 24) | ((pages >> 2) << 5) | rd as u32
        }
        Bitfield {
            op,
            sf,
            rd,
            rn,
            immr,
            imms,
        } => {
            let opc = match op {
                BitfieldOp::Sbfm => 0b00,
                BitfieldOp::Bfm => 0b01,
                BitfieldOp::Ubfm => 0b10,
            };
            (sf_bit(sf) << 31)
                | (opc << 29)
                | (0b100110 << 23)
                | (sf_bit(sf) << 22) // N == sf
                | ((immr as u32) << 16)
                | ((imms as u32) << 10)
                | ((rn as u32) << 5)
                | rd as u32
        }
        Extr {
            sf,
            rd,
            rn,
            rm,
            lsb,
        } => {
            (sf_bit(sf) << 31)
                | (0b00100111 << 23)
                | (sf_bit(sf) << 22)
                | ((rm as u32) << 16)
                | ((lsb as u32) << 10)
                | ((rn as u32) << 5)
                | rd as u32
        }
        MulAdd {
            sub,
            sf,
            rd,
            rn,
            rm,
            ra,
        } => {
            (sf_bit(sf) << 31)
                | (0b0011011000 << 21)
                | ((rm as u32) << 16)
                | ((sub as u32) << 15)
                | ((ra as u32) << 10)
                | ((rn as u32) << 5)
                | rd as u32
        }
        MulAddLong {
            sub,
            unsigned,
            rd,
            rn,
            rm,
            ra,
        } => {
            (1 << 31)
                | (0b0011011 << 24)
                | ((unsigned as u32) << 23)
                | (0b01 << 21)
                | ((rm as u32) << 16)
                | ((sub as u32) << 15)
                | ((ra as u32) << 10)
                | ((rn as u32) << 5)
                | rd as u32
        }
        MulHigh {
            unsigned,
            rd,
            rn,
            rm,
        } => {
            (1 << 31)
                | (0b0011011 << 24)
                | ((unsigned as u32) << 23)
                | (0b10 << 21)
                | ((rm as u32) << 16)
                | (0b11111 << 10)
                | ((rn as u32) << 5)
                | rd as u32
        }
        Div {
            unsigned,
            sf,
            rd,
            rn,
            rm,
        } => {
            (sf_bit(sf) << 31)
                | (0b0011010110 << 21)
                | ((rm as u32) << 16)
                | (0b00001 << 11)
                | ((!unsigned as u32) << 10)
                | ((rn as u32) << 5)
                | rd as u32
        }
        ShiftV { op, sf, rd, rn, rm } => {
            let op2 = match op {
                ShiftVOp::Lslv => 0b00,
                ShiftVOp::Lsrv => 0b01,
                ShiftVOp::Asrv => 0b10,
                ShiftVOp::Rorv => 0b11,
            };
            (sf_bit(sf) << 31)
                | (0b0011010110 << 21)
                | ((rm as u32) << 16)
                | (0b0010 << 12)
                | (op2 << 10)
                | ((rn as u32) << 5)
                | rd as u32
        }
        Unary1 { op, sf, rd, rn } => {
            let opcode = match (op, sf) {
                (Unary1Op::Rbit, _) => 0b000000,
                (Unary1Op::Rev16, _) => 0b000001,
                (Unary1Op::Rev, false) => 0b000010,
                (Unary1Op::Rev32, true) => 0b000010,
                (Unary1Op::Rev, true) => 0b000011,
                (Unary1Op::Clz, _) => 0b000100,
                (Unary1Op::Cls, _) => 0b000101,
                (Unary1Op::Rev32, false) => panic!("rev32 requires sf=1"),
            };
            (sf_bit(sf) << 31)
                | (0b1011010110 << 21)
                | (opcode << 10)
                | ((rn as u32) << 5)
                | rd as u32
        }
        CondSel {
            op,
            sf,
            rd,
            rn,
            rm,
            cond,
        } => {
            let (o, op2) = match op {
                CselOp::Csel => (0, 0b00),
                CselOp::Csinc => (0, 0b01),
                CselOp::Csinv => (1, 0b00),
                CselOp::Csneg => (1, 0b01),
            };
            (sf_bit(sf) << 31)
                | (o << 30)
                | (0b011010100 << 21)
                | ((rm as u32) << 16)
                | (cond.bits() << 12)
                | (op2 << 10)
                | ((rn as u32) << 5)
                | rd as u32
        }
        CondCmpReg {
            negative,
            sf,
            rn,
            rm,
            nzcv,
            cond,
        } => {
            (sf_bit(sf) << 31)
                | ((!negative as u32) << 30)
                | (1 << 29)
                | (0b11010010 << 21)
                | ((rm as u32) << 16)
                | (cond.bits() << 12)
                | ((rn as u32) << 5)
                | (nzcv as u32 & 0xF)
        }
        CondCmpImm {
            negative,
            sf,
            rn,
            imm5,
            nzcv,
            cond,
        } => {
            (sf_bit(sf) << 31)
                | ((!negative as u32) << 30)
                | (1 << 29)
                | (0b11010010 << 21)
                | ((imm5 as u32 & 0x1F) << 16)
                | (cond.bits() << 12)
                | (1 << 11)
                | ((rn as u32) << 5)
                | (nzcv as u32 & 0xF)
        }
        B { link, offset } => {
            ((link as u32) << 31) | (0b00101 << 26) | (((offset >> 2) as u32) & 0x03FF_FFFF)
        }
        BCond { cond, offset } => {
            0x5400_0000 | ((((offset >> 2) as u32) & 0x7_FFFF) << 5) | cond.bits()
        }
        Cbz {
            nonzero,
            sf,
            rt,
            offset,
        } => {
            (sf_bit(sf) << 31)
                | (0b011010 << 25)
                | ((nonzero as u32) << 24)
                | ((((offset >> 2) as u32) & 0x7_FFFF) << 5)
                | rt as u32
        }
        Tbz {
            nonzero,
            rt,
            bit,
            offset,
        } => {
            let b5 = (bit as u32 >> 5) & 1;
            let b40 = bit as u32 & 0x1F;
            (b5 << 31)
                | (0b011011 << 25)
                | ((nonzero as u32) << 24)
                | (b40 << 19)
                | ((((offset >> 2) as u32) & 0x3FFF) << 5)
                | rt as u32
        }
        BrReg { link, ret, rn } => {
            let opc = if ret {
                0b10
            } else if link {
                0b01
            } else {
                0b00
            };
            0xD600_0000 | (opc << 21) | (0b11111 << 16) | ((rn as u32) << 5)
        }
        LdrImm {
            size,
            rt,
            rn,
            imm12,
        } => {
            let (sz, opc, _) = mem_size_fields(size);
            (sz << 30)
                | (0b111 << 27)
                | (0b01 << 24)
                | (opc << 22)
                | ((imm12 as u32 & 0xFFF) << 10)
                | ((rn as u32) << 5)
                | rt as u32
        }
        StrImm {
            size,
            rt,
            rn,
            imm12,
        } => {
            let (sz, _, opc) = mem_size_fields(size);
            (sz << 30)
                | (0b111 << 27)
                | (0b01 << 24)
                | (opc << 22)
                | ((imm12 as u32 & 0xFFF) << 10)
                | ((rn as u32) << 5)
                | rt as u32
        }
        LdrIdx {
            size,
            mode,
            rt,
            rn,
            simm9,
        } => {
            let (sz, opc, _) = mem_size_fields(size);
            (sz << 30)
                | (0b111 << 27)
                | (opc << 22)
                | (((simm9 as u32) & 0x1FF) << 12)
                | (idx_mode_bits(mode) << 10)
                | ((rn as u32) << 5)
                | rt as u32
        }
        StrIdx {
            size,
            mode,
            rt,
            rn,
            simm9,
        } => {
            let (sz, _, opc) = mem_size_fields(size);
            (sz << 30)
                | (0b111 << 27)
                | (opc << 22)
                | (((simm9 as u32) & 0x1FF) << 12)
                | (idx_mode_bits(mode) << 10)
                | ((rn as u32) << 5)
                | rt as u32
        }
        LdrReg {
            size,
            rt,
            rn,
            rm,
            extend,
            shift,
        } => {
            let (sz, opc, _) = mem_size_fields(size);
            (sz << 30)
                | (0b111 << 27)
                | (opc << 22)
                | (1 << 21)
                | ((rm as u32) << 16)
                | (extend.bits() << 13)
                | ((shift as u32) << 12)
                | (0b10 << 10)
                | ((rn as u32) << 5)
                | rt as u32
        }
        StrReg {
            size,
            rt,
            rn,
            rm,
            extend,
            shift,
        } => {
            let (sz, _, opc) = mem_size_fields(size);
            (sz << 30)
                | (0b111 << 27)
                | (opc << 22)
                | (1 << 21)
                | ((rm as u32) << 16)
                | (extend.bits() << 13)
                | ((shift as u32) << 12)
                | (0b10 << 10)
                | ((rn as u32) << 5)
                | rt as u32
        }
        Ldp {
            sf,
            mode,
            rt,
            rt2,
            rn,
            imm7,
        }
        | Stp {
            sf,
            mode,
            rt,
            rt2,
            rn,
            imm7,
        } => {
            let load = matches!(inst, Ldp { .. });
            let opc = if sf { 0b10 } else { 0b00 };
            let idx = match mode {
                None => 0b10,
                Some(IndexMode::Post) => 0b01,
                Some(IndexMode::Pre) => 0b11,
                Some(IndexMode::Unscaled) => panic!("ldp/stp has no unscaled form"),
            };
            (opc << 30)
                | (0b101 << 27)
                | (idx << 23)
                | ((load as u32) << 22)
                | (((imm7 as u32) & 0x7F) << 15)
                | ((rt2 as u32) << 10)
                | ((rn as u32) << 5)
                | rt as u32
        }
        LdrFpImm {
            size,
            rt,
            rn,
            imm12,
        } => {
            (fp_size_fields(size) << 30)
                | (0b111 << 27)
                | (1 << 26)
                | (0b01 << 24)
                | (0b01 << 22)
                | ((imm12 as u32 & 0xFFF) << 10)
                | ((rn as u32) << 5)
                | rt as u32
        }
        StrFpImm {
            size,
            rt,
            rn,
            imm12,
        } => {
            (fp_size_fields(size) << 30)
                | (0b111 << 27)
                | (1 << 26)
                | (0b01 << 24)
                | ((imm12 as u32 & 0xFFF) << 10)
                | ((rn as u32) << 5)
                | rt as u32
        }
        LdrFpIdx {
            size,
            mode,
            rt,
            rn,
            simm9,
        } => {
            (fp_size_fields(size) << 30)
                | (0b111 << 27)
                | (1 << 26)
                | (0b01 << 22)
                | (((simm9 as u32) & 0x1FF) << 12)
                | (idx_mode_bits(mode) << 10)
                | ((rn as u32) << 5)
                | rt as u32
        }
        StrFpIdx {
            size,
            mode,
            rt,
            rn,
            simm9,
        } => {
            (fp_size_fields(size) << 30)
                | (0b111 << 27)
                | (1 << 26)
                | (((simm9 as u32) & 0x1FF) << 12)
                | (idx_mode_bits(mode) << 10)
                | ((rn as u32) << 5)
                | rt as u32
        }
        LdrFpReg {
            size,
            rt,
            rn,
            rm,
            extend,
            shift,
        } => {
            (fp_size_fields(size) << 30)
                | (0b111 << 27)
                | (1 << 26)
                | (0b01 << 22)
                | (1 << 21)
                | ((rm as u32) << 16)
                | (extend.bits() << 13)
                | ((shift as u32) << 12)
                | (0b10 << 10)
                | ((rn as u32) << 5)
                | rt as u32
        }
        StrFpReg {
            size,
            rt,
            rn,
            rm,
            extend,
            shift,
        } => {
            (fp_size_fields(size) << 30)
                | (0b111 << 27)
                | (1 << 26)
                | (1 << 21)
                | ((rm as u32) << 16)
                | (extend.bits() << 13)
                | ((shift as u32) << 12)
                | (0b10 << 10)
                | ((rn as u32) << 5)
                | rt as u32
        }
        FpBin {
            op,
            size,
            rd,
            rn,
            rm,
        } => {
            let opcode = match op {
                FpBinOp::Fmul => 0b0000,
                FpBinOp::Fdiv => 0b0001,
                FpBinOp::Fadd => 0b0010,
                FpBinOp::Fsub => 0b0011,
                FpBinOp::Fmax => 0b0100,
                FpBinOp::Fmin => 0b0101,
                FpBinOp::Fmaxnm => 0b0110,
                FpBinOp::Fminnm => 0b0111,
                FpBinOp::Fnmul => 0b1000,
            };
            (0b00011110 << 24)
                | (fp_type(size) << 22)
                | (1 << 21)
                | ((rm as u32) << 16)
                | (opcode << 12)
                | (0b10 << 10)
                | ((rn as u32) << 5)
                | rd as u32
        }
        FpUn { op, size, rd, rn } => {
            let opcode = match op {
                FpUnOp::Fmov => 0b000000,
                FpUnOp::Fabs => 0b000001,
                FpUnOp::Fneg => 0b000010,
                FpUnOp::Fsqrt => 0b000011,
            };
            (0b00011110 << 24)
                | (fp_type(size) << 22)
                | (1 << 21)
                | (opcode << 15)
                | (0b10000 << 10)
                | ((rn as u32) << 5)
                | rd as u32
        }
        FcvtPrec { to, from, rd, rn } => {
            // opcode 0001 ++ to-type bit.
            let opcode = 0b000100 | fp_type(to);
            (0b00011110 << 24)
                | (fp_type(from) << 22)
                | (1 << 21)
                | (opcode << 15)
                | (0b10000 << 10)
                | ((rn as u32) << 5)
                | rd as u32
        }
        FpFma {
            op,
            size,
            rd,
            rn,
            rm,
            ra,
        } => {
            let (o1, o0) = match op {
                FpFmaOp::Fmadd => (0, 0),
                FpFmaOp::Fmsub => (0, 1),
                FpFmaOp::Fnmadd => (1, 0),
                FpFmaOp::Fnmsub => (1, 1),
            };
            (0b00011111 << 24)
                | (fp_type(size) << 22)
                | (o1 << 21)
                | ((rm as u32) << 16)
                | (o0 << 15)
                | ((ra as u32) << 10)
                | ((rn as u32) << 5)
                | rd as u32
        }
        Fcmp { size, rn, rm, zero } => {
            let opcode2 = if zero { 0b01000 } else { 0b00000 };
            (0b00011110 << 24)
                | (fp_type(size) << 22)
                | (1 << 21)
                | ((rm as u32) << 16)
                | (0b001000 << 10)
                | ((rn as u32) << 5)
                | opcode2
        }
        Fcsel {
            size,
            rd,
            rn,
            rm,
            cond,
        } => {
            (0b00011110 << 24)
                | (fp_type(size) << 22)
                | (1 << 21)
                | ((rm as u32) << 16)
                | (cond.bits() << 12)
                | (0b11 << 10)
                | ((rn as u32) << 5)
                | rd as u32
        }
        IntToFp {
            unsigned,
            sf,
            size,
            rd,
            rn,
        } => {
            let opcode = 0b010 | unsigned as u32;
            (sf_bit(sf) << 31)
                | (0b0011110 << 24)
                | (fp_type(size) << 22)
                | (1 << 21)
                | (opcode << 16)
                | ((rn as u32) << 5)
                | rd as u32
        }
        FpToInt {
            unsigned,
            sf,
            size,
            rd,
            rn,
        } => {
            let opcode = unsigned as u32;
            (sf_bit(sf) << 31)
                | (0b0011110 << 24)
                | (fp_type(size) << 22)
                | (1 << 21)
                | (0b11 << 19)
                | (opcode << 16)
                | ((rn as u32) << 5)
                | rd as u32
        }
        FmovIntFp {
            to_fp,
            sf,
            size,
            rd,
            rn,
        } => {
            let opcode = 0b110 | to_fp as u32;
            ((sf_bit(sf) << 31) | (0b0011110 << 24) | (fp_type(size) << 22) | (1 << 21))
                | (opcode << 16)
                | ((rn as u32) << 5)
                | rd as u32
        }
        FmovImm { size, rd, imm8 } => {
            (0b00011110 << 24)
                | (fp_type(size) << 22)
                | (1 << 21)
                | ((imm8 as u32) << 13)
                | (0b100 << 10)
                | rd as u32
        }
        Nop => 0xD503_201F,
        Svc { imm16 } => 0xD400_0001 | ((imm16 as u32) << 5),
        Brk { imm16 } => 0xD420_0000 | ((imm16 as u32) << 5),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Golden words cross-checked against GNU binutils output.
    #[test]
    fn golden_integer_encodings() {
        // add x0, x1, x2 -> 0x8b020020
        assert_eq!(
            encode(&Inst::AddSubShifted {
                sub: false,
                set_flags: false,
                sf: true,
                rd: 0,
                rn: 1,
                rm: 2,
                shift: ShiftType::Lsl,
                amount: 0
            }),
            0x8B02_0020
        );
        // add x0, x0, #1 -> 0x91000400
        assert_eq!(
            encode(&Inst::AddSubImm {
                sub: false,
                set_flags: false,
                sf: true,
                rd: 0,
                rn: 0,
                imm12: 1,
                shift12: false
            }),
            0x9100_0400
        );
        // cmp x0, x20 == subs xzr, x0, x20 -> 0xeb14001f
        assert_eq!(
            encode(&Inst::AddSubShifted {
                sub: true,
                set_flags: true,
                sf: true,
                rd: 31,
                rn: 0,
                rm: 20,
                shift: ShiftType::Lsl,
                amount: 0
            }),
            0xEB14_001F
        );
        // mul x0, x1, x2 == madd x0, x1, x2, xzr -> 0x9b027c20
        assert_eq!(
            encode(&Inst::MulAdd {
                sub: false,
                sf: true,
                rd: 0,
                rn: 1,
                rm: 2,
                ra: 31
            }),
            0x9B02_7C20
        );
        // sdiv x0, x1, x2 -> 0x9ac20c20
        assert_eq!(
            encode(&Inst::Div {
                unsigned: false,
                sf: true,
                rd: 0,
                rn: 1,
                rm: 2
            }),
            0x9AC2_0C20
        );
        // movz x0, #42 -> 0xd2800540
        assert_eq!(
            encode(&Inst::MovWide {
                op: MovOp::Movz,
                sf: true,
                rd: 0,
                imm16: 42,
                hw: 0
            }),
            0xD280_0540
        );
        // ret -> 0xd65f03c0
        assert_eq!(
            encode(&Inst::BrReg {
                link: false,
                ret: true,
                rn: 30
            }),
            0xD65F_03C0
        );
        // nop
        assert_eq!(encode(&Inst::Nop), 0xD503_201F);
        // orr x0, x1, x2 -> 0xaa020020
        assert_eq!(
            encode(&Inst::LogicalShifted {
                op: LogicOp::Orr,
                sf: true,
                rd: 0,
                rn: 1,
                rm: 2,
                shift: ShiftType::Lsl,
                amount: 0
            }),
            0xAA02_0020
        );
        // and x0, x1, #0xff -> 0x92401c20
        assert_eq!(
            encode(&Inst::LogicalImm {
                op: LogicOp::And,
                sf: true,
                rd: 0,
                rn: 1,
                imm: 0xFF
            }),
            0x9240_1C20
        );
    }

    #[test]
    fn golden_memory_encodings() {
        // ldr d1, [x22, x0, lsl #3] -> 0xfc607ac1  (paper Listing 1)
        assert_eq!(
            encode(&Inst::LdrFpReg {
                size: FpSize::D,
                rt: 1,
                rn: 22,
                rm: 0,
                extend: Extend::Uxtx,
                shift: true
            }),
            0xFC60_7AC1
        );
        // str d1, [x19, x0, lsl #3] -> 0xfc207a61
        assert_eq!(
            encode(&Inst::StrFpReg {
                size: FpSize::D,
                rt: 1,
                rn: 19,
                rm: 0,
                extend: Extend::Uxtx,
                shift: true
            }),
            0xFC20_7A61
        );
        // ldr x0, [x1, #16] -> 0xf9400820
        assert_eq!(
            encode(&Inst::LdrImm {
                size: MemSize::X,
                rt: 0,
                rn: 1,
                imm12: 2
            }),
            0xF940_0820
        );
        // str x0, [sp, #-16]! -> 0xf81f0fe0
        assert_eq!(
            encode(&Inst::StrIdx {
                size: MemSize::X,
                mode: IndexMode::Pre,
                rt: 0,
                rn: 31,
                simm9: -16
            }),
            0xF81F_0FE0
        );
        // ldp x29, x30, [sp], #16 -> 0xa8c17bfd
        assert_eq!(
            encode(&Inst::Ldp {
                sf: true,
                mode: Some(IndexMode::Post),
                rt: 29,
                rt2: 30,
                rn: 31,
                imm7: 2
            }),
            0xA8C1_7BFD
        );
        // ldr d0, [x0, #8] -> 0xfd400400
        assert_eq!(
            encode(&Inst::LdrFpImm {
                size: FpSize::D,
                rt: 0,
                rn: 0,
                imm12: 1
            }),
            0xFD40_0400
        );
    }

    #[test]
    fn golden_branch_encodings() {
        // b.ne -8 -> 0x54ffffc1
        assert_eq!(
            encode(&Inst::BCond {
                cond: Cond::Ne,
                offset: -8
            }),
            0x54FF_FFC1
        );
        // cbnz x0, +8 -> 0xb5000040
        assert_eq!(
            encode(&Inst::Cbz {
                nonzero: true,
                sf: true,
                rt: 0,
                offset: 8
            }),
            0xB500_0040
        );
        // b +16 -> 0x14000004
        assert_eq!(
            encode(&Inst::B {
                link: false,
                offset: 16
            }),
            0x1400_0004
        );
        // bl -4 -> 0x97ffffff
        assert_eq!(
            encode(&Inst::B {
                link: true,
                offset: -4
            }),
            0x97FF_FFFF
        );
    }

    #[test]
    fn golden_fp_encodings() {
        // fadd d0, d1, d2 -> 0x1e622820
        assert_eq!(
            encode(&Inst::FpBin {
                op: FpBinOp::Fadd,
                size: FpSize::D,
                rd: 0,
                rn: 1,
                rm: 2
            }),
            0x1E62_2820
        );
        // fmul d0, d1, d2 -> 0x1e620820
        assert_eq!(
            encode(&Inst::FpBin {
                op: FpBinOp::Fmul,
                size: FpSize::D,
                rd: 0,
                rn: 1,
                rm: 2
            }),
            0x1E62_0820
        );
        // fmadd d0, d1, d2, d3 -> 0x1f420c20
        assert_eq!(
            encode(&Inst::FpFma {
                op: FpFmaOp::Fmadd,
                size: FpSize::D,
                rd: 0,
                rn: 1,
                rm: 2,
                ra: 3
            }),
            0x1F42_0C20
        );
        // fcmp d0, d1 -> 0x1e612000
        assert_eq!(
            encode(&Inst::Fcmp {
                size: FpSize::D,
                rn: 0,
                rm: 1,
                zero: false
            }),
            0x1E61_2000
        );
        // scvtf d0, x1 -> 0x9e620020
        assert_eq!(
            encode(&Inst::IntToFp {
                unsigned: false,
                sf: true,
                size: FpSize::D,
                rd: 0,
                rn: 1
            }),
            0x9E62_0020
        );
        // fcvtzs x0, d1 -> 0x9e780020
        assert_eq!(
            encode(&Inst::FpToInt {
                unsigned: false,
                sf: true,
                size: FpSize::D,
                rd: 0,
                rn: 1
            }),
            0x9E78_0020
        );
        // fmov d0, x1 -> 0x9e670020
        assert_eq!(
            encode(&Inst::FmovIntFp {
                to_fp: true,
                sf: true,
                size: FpSize::D,
                rd: 0,
                rn: 1
            }),
            0x9E67_0020
        );
        // fmov d0, #1.0 -> 0x1e6e1000
        assert_eq!(
            encode(&Inst::FmovImm {
                size: FpSize::D,
                rd: 0,
                imm8: 0x70
            }),
            0x1E6E_1000
        );
    }

    #[test]
    fn fp_imm8_expansion() {
        assert_eq!(fp_imm8_to_f64(0x70), 1.0);
        assert_eq!(fp_imm8_to_f64(0xF0), -1.0);
        assert_eq!(fp_imm8_to_f64(0x60), 0.5);
        assert_eq!(fp_imm8_to_f64(0x00), 2.0);
        assert_eq!(f64_to_fp_imm8(1.0), Some(0x70));
        assert_eq!(f64_to_fp_imm8(0.1), None);
        assert_eq!(f64_to_fp_imm8(3.0), Some(0x08));
    }
}
