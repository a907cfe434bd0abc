//! RV64G binary encoder (the assembler's final stage).
//!
//! Produces the canonical 32-bit encodings defined by the RISC-V unprivileged
//! specification. Rounding-mode fields are emitted as `dyn` (0b111) for FP
//! arithmetic and `rtz` (0b001) for FP-to-integer conversions — the modes GCC
//! emits for C arithmetic and casts respectively.

use crate::inst::*;

const OP_LUI: u32 = 0b0110111;
const OP_AUIPC: u32 = 0b0010111;
const OP_JAL: u32 = 0b1101111;
const OP_JALR: u32 = 0b1100111;
const OP_BRANCH: u32 = 0b1100011;
const OP_LOAD: u32 = 0b0000011;
const OP_STORE: u32 = 0b0100011;
const OP_IMM: u32 = 0b0010011;
const OP_IMM32: u32 = 0b0011011;
const OP_REG: u32 = 0b0110011;
const OP_REG32: u32 = 0b0111011;
const OP_MISC_MEM: u32 = 0b0001111;
const OP_SYSTEM: u32 = 0b1110011;
const OP_AMO: u32 = 0b0101111;
const OP_LOAD_FP: u32 = 0b0000111;
const OP_STORE_FP: u32 = 0b0100111;
const OP_FP: u32 = 0b1010011;
const OP_FMADD: u32 = 0b1000011;
const OP_FMSUB: u32 = 0b1000111;
const OP_FNMSUB: u32 = 0b1001011;
const OP_FNMADD: u32 = 0b1001111;

/// Dynamic rounding mode.
const RM_DYN: u32 = 0b111;
/// Round-towards-zero.
const RM_RTZ: u32 = 0b001;

#[inline]
fn r_type(funct7: u32, rs2: u32, rs1: u32, funct3: u32, rd: u32, opcode: u32) -> u32 {
    (funct7 << 25) | (rs2 << 20) | (rs1 << 15) | (funct3 << 12) | (rd << 7) | opcode
}

#[inline]
fn i_type(imm: i64, rs1: u32, funct3: u32, rd: u32, opcode: u32) -> u32 {
    let imm12 = (imm as u32) & 0xFFF;
    (imm12 << 20) | (rs1 << 15) | (funct3 << 12) | (rd << 7) | opcode
}

#[inline]
fn s_type(imm: i64, rs2: u32, rs1: u32, funct3: u32, opcode: u32) -> u32 {
    let imm = (imm as u32) & 0xFFF;
    ((imm >> 5) << 25) | (rs2 << 20) | (rs1 << 15) | (funct3 << 12) | ((imm & 0x1F) << 7) | opcode
}

#[inline]
fn b_type(offset: i64, rs2: u32, rs1: u32, funct3: u32, opcode: u32) -> u32 {
    debug_assert_eq!(offset & 1, 0, "branch offset must be even");
    let imm = offset as u32;
    let b12 = (imm >> 12) & 1;
    let b11 = (imm >> 11) & 1;
    let b10_5 = (imm >> 5) & 0x3F;
    let b4_1 = (imm >> 1) & 0xF;
    (b12 << 31)
        | (b10_5 << 25)
        | (rs2 << 20)
        | (rs1 << 15)
        | (funct3 << 12)
        | (b4_1 << 8)
        | (b11 << 7)
        | opcode
}

#[inline]
fn u_type(imm: i64, rd: u32, opcode: u32) -> u32 {
    // `imm` carries the already-shifted value; the encoding stores bits 31:12.
    ((imm as u32) & 0xFFFF_F000) | (rd << 7) | opcode
}

#[inline]
fn j_type(offset: i64, rd: u32, opcode: u32) -> u32 {
    debug_assert_eq!(offset & 1, 0, "jump offset must be even");
    let imm = offset as u32;
    let b20 = (imm >> 20) & 1;
    let b10_1 = (imm >> 1) & 0x3FF;
    let b11 = (imm >> 11) & 1;
    let b19_12 = (imm >> 12) & 0xFF;
    (b20 << 31) | (b10_1 << 21) | (b11 << 20) | (b19_12 << 12) | (rd << 7) | opcode
}

#[inline]
fn r4_type(rs3: u32, fmt: u32, rs2: u32, rs1: u32, rm: u32, rd: u32, opcode: u32) -> u32 {
    (rs3 << 27) | (fmt << 25) | (rs2 << 20) | (rs1 << 15) | (rm << 12) | (rd << 7) | opcode
}

fn fp_fmt(w: FpWidth) -> u32 {
    match w {
        FpWidth::S => 0,
        FpWidth::D => 1,
    }
}

/// Encode a decoded instruction back to its 32-bit word.
pub fn encode(inst: &Inst) -> u32 {
    use Inst::*;
    match *inst {
        Lui { rd, imm } => u_type(imm, rd as u32, OP_LUI),
        Auipc { rd, imm } => u_type(imm, rd as u32, OP_AUIPC),
        Jal { rd, offset } => j_type(offset, rd as u32, OP_JAL),
        Jalr { rd, rs1, offset } => i_type(offset, rs1 as u32, 0b000, rd as u32, OP_JALR),
        Branch {
            op,
            rs1,
            rs2,
            offset,
        } => {
            let f3 = match op {
                BranchOp::Beq => 0b000,
                BranchOp::Bne => 0b001,
                BranchOp::Blt => 0b100,
                BranchOp::Bge => 0b101,
                BranchOp::Bltu => 0b110,
                BranchOp::Bgeu => 0b111,
            };
            b_type(offset, rs2 as u32, rs1 as u32, f3, OP_BRANCH)
        }
        Load {
            op,
            rd,
            rs1,
            offset,
        } => {
            let f3 = match op {
                LoadOp::Lb => 0b000,
                LoadOp::Lh => 0b001,
                LoadOp::Lw => 0b010,
                LoadOp::Ld => 0b011,
                LoadOp::Lbu => 0b100,
                LoadOp::Lhu => 0b101,
                LoadOp::Lwu => 0b110,
            };
            i_type(offset, rs1 as u32, f3, rd as u32, OP_LOAD)
        }
        Store {
            op,
            rs2,
            rs1,
            offset,
        } => {
            let f3 = match op {
                StoreOp::Sb => 0b000,
                StoreOp::Sh => 0b001,
                StoreOp::Sw => 0b010,
                StoreOp::Sd => 0b011,
            };
            s_type(offset, rs2 as u32, rs1 as u32, f3, OP_STORE)
        }
        OpImm { op, rd, rs1, imm } => match op {
            ImmOp::Addi => i_type(imm, rs1 as u32, 0b000, rd as u32, OP_IMM),
            ImmOp::Slti => i_type(imm, rs1 as u32, 0b010, rd as u32, OP_IMM),
            ImmOp::Sltiu => i_type(imm, rs1 as u32, 0b011, rd as u32, OP_IMM),
            ImmOp::Xori => i_type(imm, rs1 as u32, 0b100, rd as u32, OP_IMM),
            ImmOp::Ori => i_type(imm, rs1 as u32, 0b110, rd as u32, OP_IMM),
            ImmOp::Andi => i_type(imm, rs1 as u32, 0b111, rd as u32, OP_IMM),
            // RV64 shifts: 6-bit shamt, bit 30 selects arithmetic.
            ImmOp::Slli => i_type(imm & 0x3F, rs1 as u32, 0b001, rd as u32, OP_IMM),
            ImmOp::Srli => i_type(imm & 0x3F, rs1 as u32, 0b101, rd as u32, OP_IMM),
            ImmOp::Srai => i_type((imm & 0x3F) | 0x400, rs1 as u32, 0b101, rd as u32, OP_IMM),
        },
        OpImm32 { op, rd, rs1, imm } => match op {
            ImmOp32::Addiw => i_type(imm, rs1 as u32, 0b000, rd as u32, OP_IMM32),
            ImmOp32::Slliw => i_type(imm & 0x1F, rs1 as u32, 0b001, rd as u32, OP_IMM32),
            ImmOp32::Srliw => i_type(imm & 0x1F, rs1 as u32, 0b101, rd as u32, OP_IMM32),
            ImmOp32::Sraiw => i_type((imm & 0x1F) | 0x400, rs1 as u32, 0b101, rd as u32, OP_IMM32),
        },
        Op { op, rd, rs1, rs2 } => {
            let (f7, f3) = match op {
                RegOp::Add => (0b0000000, 0b000),
                RegOp::Sub => (0b0100000, 0b000),
                RegOp::Sll => (0b0000000, 0b001),
                RegOp::Slt => (0b0000000, 0b010),
                RegOp::Sltu => (0b0000000, 0b011),
                RegOp::Xor => (0b0000000, 0b100),
                RegOp::Srl => (0b0000000, 0b101),
                RegOp::Sra => (0b0100000, 0b101),
                RegOp::Or => (0b0000000, 0b110),
                RegOp::And => (0b0000000, 0b111),
                RegOp::Mul => (0b0000001, 0b000),
                RegOp::Mulh => (0b0000001, 0b001),
                RegOp::Mulhsu => (0b0000001, 0b010),
                RegOp::Mulhu => (0b0000001, 0b011),
                RegOp::Div => (0b0000001, 0b100),
                RegOp::Divu => (0b0000001, 0b101),
                RegOp::Rem => (0b0000001, 0b110),
                RegOp::Remu => (0b0000001, 0b111),
            };
            r_type(f7, rs2 as u32, rs1 as u32, f3, rd as u32, OP_REG)
        }
        Op32 { op, rd, rs1, rs2 } => {
            let (f7, f3) = match op {
                RegOp32::Addw => (0b0000000, 0b000),
                RegOp32::Subw => (0b0100000, 0b000),
                RegOp32::Sllw => (0b0000000, 0b001),
                RegOp32::Srlw => (0b0000000, 0b101),
                RegOp32::Sraw => (0b0100000, 0b101),
                RegOp32::Mulw => (0b0000001, 0b000),
                RegOp32::Divw => (0b0000001, 0b100),
                RegOp32::Divuw => (0b0000001, 0b101),
                RegOp32::Remw => (0b0000001, 0b110),
                RegOp32::Remuw => (0b0000001, 0b111),
            };
            r_type(f7, rs2 as u32, rs1 as u32, f3, rd as u32, OP_REG32)
        }
        Fence => i_type(0, 0, 0b000, 0, OP_MISC_MEM),
        Ecall => i_type(0, 0, 0b000, 0, OP_SYSTEM),
        Ebreak => i_type(1, 0, 0b000, 0, OP_SYSTEM),
        Lr { width, rd, rs1 } => r_type(
            0b00010 << 2,
            0,
            rs1 as u32,
            amo_f3(width),
            rd as u32,
            OP_AMO,
        ),
        Sc {
            width,
            rd,
            rs1,
            rs2,
        } => r_type(
            0b00011 << 2,
            rs2 as u32,
            rs1 as u32,
            amo_f3(width),
            rd as u32,
            OP_AMO,
        ),
        Amo {
            op,
            width,
            rd,
            rs1,
            rs2,
        } => {
            let f5 = match op {
                AmoOp::Add => 0b00000,
                AmoOp::Swap => 0b00001,
                AmoOp::Xor => 0b00100,
                AmoOp::Or => 0b01000,
                AmoOp::And => 0b01100,
                AmoOp::Min => 0b10000,
                AmoOp::Max => 0b10100,
                AmoOp::Minu => 0b11000,
                AmoOp::Maxu => 0b11100,
            };
            r_type(
                f5 << 2,
                rs2 as u32,
                rs1 as u32,
                amo_f3(width),
                rd as u32,
                OP_AMO,
            )
        }
        FpLoad {
            width,
            frd,
            rs1,
            offset,
        } => {
            let f3 = if width == FpWidth::S { 0b010 } else { 0b011 };
            i_type(offset, rs1 as u32, f3, frd as u32, OP_LOAD_FP)
        }
        FpStore {
            width,
            frs2,
            rs1,
            offset,
        } => {
            let f3 = if width == FpWidth::S { 0b010 } else { 0b011 };
            s_type(offset, frs2 as u32, rs1 as u32, f3, OP_STORE_FP)
        }
        FpReg {
            op,
            width,
            frd,
            frs1,
            frs2,
        } => {
            let fmt = fp_fmt(width);
            let (f7base, f3) = match op {
                FpOp::Fadd => (0b0000000, RM_DYN),
                FpOp::Fsub => (0b0000100, RM_DYN),
                FpOp::Fmul => (0b0001000, RM_DYN),
                FpOp::Fdiv => (0b0001100, RM_DYN),
                FpOp::Fsgnj => (0b0010000, 0b000),
                FpOp::Fsgnjn => (0b0010000, 0b001),
                FpOp::Fsgnjx => (0b0010000, 0b010),
                FpOp::Fmin => (0b0010100, 0b000),
                FpOp::Fmax => (0b0010100, 0b001),
            };
            r_type(
                f7base | fmt,
                frs2 as u32,
                frs1 as u32,
                f3,
                frd as u32,
                OP_FP,
            )
        }
        FpFma {
            op,
            width,
            frd,
            frs1,
            frs2,
            frs3,
        } => {
            let opcode = match op {
                FmaOp::Fmadd => OP_FMADD,
                FmaOp::Fmsub => OP_FMSUB,
                FmaOp::Fnmsub => OP_FNMSUB,
                FmaOp::Fnmadd => OP_FNMADD,
            };
            r4_type(
                frs3 as u32,
                fp_fmt(width),
                frs2 as u32,
                frs1 as u32,
                RM_DYN,
                frd as u32,
                opcode,
            )
        }
        FpSqrt { width, frd, frs1 } => r_type(
            0b0101100 | fp_fmt(width),
            0,
            frs1 as u32,
            RM_DYN,
            frd as u32,
            OP_FP,
        ),
        FpCmp {
            op,
            width,
            rd,
            frs1,
            frs2,
        } => {
            let f3 = match op {
                FpCmpOp::Fle => 0b000,
                FpCmpOp::Flt => 0b001,
                FpCmpOp::Feq => 0b010,
            };
            r_type(
                0b1010000 | fp_fmt(width),
                frs2 as u32,
                frs1 as u32,
                f3,
                rd as u32,
                OP_FP,
            )
        }
        FcvtIntFromFp {
            ty,
            width,
            rd,
            frs1,
        } => r_type(
            0b1100000 | fp_fmt(width),
            int_ty_code(ty),
            frs1 as u32,
            RM_RTZ,
            rd as u32,
            OP_FP,
        ),
        FcvtFpFromInt {
            ty,
            width,
            frd,
            rs1,
        } => r_type(
            0b1101000 | fp_fmt(width),
            int_ty_code(ty),
            rs1 as u32,
            RM_DYN,
            frd as u32,
            OP_FP,
        ),
        FcvtFpFp {
            to,
            from,
            frd,
            frs1,
        } => {
            // fcvt.s.d: f7=0100000 rs2=1; fcvt.d.s: f7=0100001 rs2=0.
            r_type(
                0b0100000 | fp_fmt(to),
                fp_fmt(from),
                frs1 as u32,
                RM_DYN,
                frd as u32,
                OP_FP,
            )
        }
        FmvToInt { width, rd, frs1 } => r_type(
            0b1110000 | fp_fmt(width),
            0,
            frs1 as u32,
            0b000,
            rd as u32,
            OP_FP,
        ),
        FmvToFp { width, frd, rs1 } => r_type(
            0b1111000 | fp_fmt(width),
            0,
            rs1 as u32,
            0b000,
            frd as u32,
            OP_FP,
        ),
        Fclass { width, rd, frs1 } => r_type(
            0b1110000 | fp_fmt(width),
            0,
            frs1 as u32,
            0b001,
            rd as u32,
            OP_FP,
        ),
    }
}

fn amo_f3(width: AmoWidth) -> u32 {
    match width {
        AmoWidth::W => 0b010,
        AmoWidth::D => 0b011,
    }
}

fn int_ty_code(ty: IntTy) -> u32 {
    match ty {
        IntTy::W => 0,
        IntTy::Wu => 1,
        IntTy::L => 2,
        IntTy::Lu => 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Golden encodings cross-checked against GNU `as` output.
    #[test]
    fn golden_encodings() {
        // addi x0, x0, 0 == canonical nop == 0x00000013
        assert_eq!(
            encode(&Inst::OpImm {
                op: ImmOp::Addi,
                rd: 0,
                rs1: 0,
                imm: 0
            }),
            0x0000_0013
        );
        // add a0, a1, a2 -> 0x00c58533
        assert_eq!(
            encode(&Inst::Op {
                op: RegOp::Add,
                rd: 10,
                rs1: 11,
                rs2: 12
            }),
            0x00C5_8533
        );
        // ld a5, 8(a0) -> 0x00853783
        assert_eq!(
            encode(&Inst::Load {
                op: LoadOp::Ld,
                rd: 15,
                rs1: 10,
                offset: 8
            }),
            0x0085_3783
        );
        // sd a5, 16(sp) -> 0x00f13823
        assert_eq!(
            encode(&Inst::Store {
                op: StoreOp::Sd,
                rs2: 15,
                rs1: 2,
                offset: 16
            }),
            0x00F1_3823
        );
        // bne a5, s0, -8 -> 0xfe879ce3
        assert_eq!(
            encode(&Inst::Branch {
                op: BranchOp::Bne,
                rs1: 15,
                rs2: 8,
                offset: -8
            }),
            0xFE87_9CE3
        );
        // lui a0, 0x12345 -> 0x12345537
        assert_eq!(
            encode(&Inst::Lui {
                rd: 10,
                imm: 0x12345 << 12
            }),
            0x1234_5537
        );
        // jal ra, 16 -> 0x010000ef
        assert_eq!(encode(&Inst::Jal { rd: 1, offset: 16 }), 0x0100_00EF);
        // ecall -> 0x00000073
        assert_eq!(encode(&Inst::Ecall), 0x0000_0073);
        // fld fa5, 0(a5) -> 0x0007b787
        assert_eq!(
            encode(&Inst::FpLoad {
                width: FpWidth::D,
                frd: 15,
                rs1: 15,
                offset: 0
            }),
            0x0007_B787
        );
        // fsd fa5, 0(a4) -> 0x00f73027
        assert_eq!(
            encode(&Inst::FpStore {
                width: FpWidth::D,
                frs2: 15,
                rs1: 14,
                offset: 0
            }),
            0x00F7_3027
        );
        // fadd.d fa0, fa1, fa2, dyn -> 0x02c5f553
        assert_eq!(
            encode(&Inst::FpReg {
                op: FpOp::Fadd,
                width: FpWidth::D,
                frd: 10,
                frs1: 11,
                frs2: 12
            }),
            0x02C5_F553
        );
        // fmadd.d fa0, fa1, fa2, fa3, dyn -> 0x6ac5f543
        assert_eq!(
            encode(&Inst::FpFma {
                op: FmaOp::Fmadd,
                width: FpWidth::D,
                frd: 10,
                frs1: 11,
                frs2: 12,
                frs3: 13
            }),
            0x6AC5_F543
        );
        // mul a0, a1, a2 -> 0x02c58533
        assert_eq!(
            encode(&Inst::Op {
                op: RegOp::Mul,
                rd: 10,
                rs1: 11,
                rs2: 12
            }),
            0x02C5_8533
        );
        // srai a0, a1, 3 -> 0x4035d513
        assert_eq!(
            encode(&Inst::OpImm {
                op: ImmOp::Srai,
                rd: 10,
                rs1: 11,
                imm: 3
            }),
            0x4035_D513
        );
    }

    #[test]
    fn branch_offset_bit_scatter() {
        // beq x1, x2, 4096 exercises imm[12].
        let w = encode(&Inst::Branch {
            op: BranchOp::Beq,
            rs1: 1,
            rs2: 2,
            offset: -4096,
        });
        assert_eq!(w >> 31, 1); // sign bit (imm[12]) set
    }
}
