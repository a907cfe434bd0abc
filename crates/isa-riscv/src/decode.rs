//! RV64G binary decoder.

use crate::inst::*;

/// Decode error: the word is not a valid RV64G instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Human-readable reason.
    pub msg: String,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for DecodeError {}

fn err<T>(msg: impl Into<String>) -> Result<T, DecodeError> {
    Err(DecodeError { msg: msg.into() })
}

#[inline]
fn rd(w: u32) -> u8 {
    ((w >> 7) & 0x1F) as u8
}
#[inline]
fn rs1(w: u32) -> u8 {
    ((w >> 15) & 0x1F) as u8
}
#[inline]
fn rs2(w: u32) -> u8 {
    ((w >> 20) & 0x1F) as u8
}
#[inline]
fn rs3(w: u32) -> u8 {
    ((w >> 27) & 0x1F) as u8
}
#[inline]
fn funct3(w: u32) -> u32 {
    (w >> 12) & 0x7
}
#[inline]
fn funct7(w: u32) -> u32 {
    w >> 25
}

/// Sign-extended I-type immediate.
#[inline]
fn imm_i(w: u32) -> i64 {
    ((w as i32) >> 20) as i64
}

/// Sign-extended S-type immediate.
#[inline]
fn imm_s(w: u32) -> i64 {
    let hi = ((w as i32) >> 25) as i64; // sign-extended imm[11:5]
    let lo = ((w >> 7) & 0x1F) as i64;
    (hi << 5) | lo
}

/// Sign-extended B-type immediate.
#[inline]
fn imm_b(w: u32) -> i64 {
    let b12 = ((w as i32) >> 31) as i64; // sign
    let b11 = ((w >> 7) & 1) as i64;
    let b10_5 = ((w >> 25) & 0x3F) as i64;
    let b4_1 = ((w >> 8) & 0xF) as i64;
    (b12 << 12) | (b11 << 11) | (b10_5 << 5) | (b4_1 << 1)
}

/// Sign-extended U-type immediate (already shifted left 12).
#[inline]
fn imm_u(w: u32) -> i64 {
    ((w & 0xFFFF_F000) as i32) as i64
}

/// Sign-extended J-type immediate.
#[inline]
fn imm_j(w: u32) -> i64 {
    let b20 = ((w as i32) >> 31) as i64; // sign
    let b19_12 = ((w >> 12) & 0xFF) as i64;
    let b11 = ((w >> 20) & 1) as i64;
    let b10_1 = ((w >> 21) & 0x3FF) as i64;
    (b20 << 20) | (b19_12 << 12) | (b11 << 11) | (b10_1 << 1)
}

fn fp_width(fmt: u32) -> Result<FpWidth, DecodeError> {
    match fmt {
        0 => Ok(FpWidth::S),
        1 => Ok(FpWidth::D),
        _ => err(format!("unsupported FP fmt {fmt}")),
    }
}

fn int_ty(code: u32) -> Result<IntTy, DecodeError> {
    match code {
        0 => Ok(IntTy::W),
        1 => Ok(IntTy::Wu),
        2 => Ok(IntTy::L),
        3 => Ok(IntTy::Lu),
        _ => err(format!("unsupported fcvt integer type {code}")),
    }
}

/// Decode a 32-bit RV64G instruction word.
pub fn decode(w: u32) -> Result<Inst, DecodeError> {
    let opcode = w & 0x7F;
    match opcode {
        0b0110111 => Ok(Inst::Lui {
            rd: rd(w),
            imm: imm_u(w),
        }),
        0b0010111 => Ok(Inst::Auipc {
            rd: rd(w),
            imm: imm_u(w),
        }),
        0b1101111 => Ok(Inst::Jal {
            rd: rd(w),
            offset: imm_j(w),
        }),
        0b1100111 => match funct3(w) {
            0b000 => Ok(Inst::Jalr {
                rd: rd(w),
                rs1: rs1(w),
                offset: imm_i(w),
            }),
            f => err(format!("jalr funct3 {f:#b}")),
        },
        0b1100011 => {
            let op = match funct3(w) {
                0b000 => BranchOp::Beq,
                0b001 => BranchOp::Bne,
                0b100 => BranchOp::Blt,
                0b101 => BranchOp::Bge,
                0b110 => BranchOp::Bltu,
                0b111 => BranchOp::Bgeu,
                f => return err(format!("branch funct3 {f:#b}")),
            };
            Ok(Inst::Branch {
                op,
                rs1: rs1(w),
                rs2: rs2(w),
                offset: imm_b(w),
            })
        }
        0b0000011 => {
            let op = match funct3(w) {
                0b000 => LoadOp::Lb,
                0b001 => LoadOp::Lh,
                0b010 => LoadOp::Lw,
                0b011 => LoadOp::Ld,
                0b100 => LoadOp::Lbu,
                0b101 => LoadOp::Lhu,
                0b110 => LoadOp::Lwu,
                f => return err(format!("load funct3 {f:#b}")),
            };
            Ok(Inst::Load {
                op,
                rd: rd(w),
                rs1: rs1(w),
                offset: imm_i(w),
            })
        }
        0b0100011 => {
            let op = match funct3(w) {
                0b000 => StoreOp::Sb,
                0b001 => StoreOp::Sh,
                0b010 => StoreOp::Sw,
                0b011 => StoreOp::Sd,
                f => return err(format!("store funct3 {f:#b}")),
            };
            Ok(Inst::Store {
                op,
                rs2: rs2(w),
                rs1: rs1(w),
                offset: imm_s(w),
            })
        }
        0b0010011 => {
            let (op, imm) = match funct3(w) {
                0b000 => (ImmOp::Addi, imm_i(w)),
                0b010 => (ImmOp::Slti, imm_i(w)),
                0b011 => (ImmOp::Sltiu, imm_i(w)),
                0b100 => (ImmOp::Xori, imm_i(w)),
                0b110 => (ImmOp::Ori, imm_i(w)),
                0b111 => (ImmOp::Andi, imm_i(w)),
                0b001 => {
                    if funct7(w) >> 1 != 0 {
                        return err("slli funct6 nonzero");
                    }
                    (ImmOp::Slli, ((w >> 20) & 0x3F) as i64)
                }
                0b101 => {
                    let shamt = ((w >> 20) & 0x3F) as i64;
                    match funct7(w) >> 1 {
                        0b000000 => (ImmOp::Srli, shamt),
                        0b010000 => (ImmOp::Srai, shamt),
                        f => return err(format!("shift-right funct6 {f:#b}")),
                    }
                }
                _ => unreachable!(),
            };
            Ok(Inst::OpImm {
                op,
                rd: rd(w),
                rs1: rs1(w),
                imm,
            })
        }
        0b0011011 => {
            let (op, imm) = match funct3(w) {
                0b000 => (ImmOp32::Addiw, imm_i(w)),
                0b001 => {
                    if funct7(w) != 0 {
                        return err("slliw funct7 nonzero");
                    }
                    (ImmOp32::Slliw, ((w >> 20) & 0x1F) as i64)
                }
                0b101 => {
                    let shamt = ((w >> 20) & 0x1F) as i64;
                    match funct7(w) {
                        0b0000000 => (ImmOp32::Srliw, shamt),
                        0b0100000 => (ImmOp32::Sraiw, shamt),
                        f => return err(format!("shift-right-w funct7 {f:#b}")),
                    }
                }
                f => return err(format!("op-imm-32 funct3 {f:#b}")),
            };
            Ok(Inst::OpImm32 {
                op,
                rd: rd(w),
                rs1: rs1(w),
                imm,
            })
        }
        0b0110011 => {
            let op = match (funct7(w), funct3(w)) {
                (0b0000000, 0b000) => RegOp::Add,
                (0b0100000, 0b000) => RegOp::Sub,
                (0b0000000, 0b001) => RegOp::Sll,
                (0b0000000, 0b010) => RegOp::Slt,
                (0b0000000, 0b011) => RegOp::Sltu,
                (0b0000000, 0b100) => RegOp::Xor,
                (0b0000000, 0b101) => RegOp::Srl,
                (0b0100000, 0b101) => RegOp::Sra,
                (0b0000000, 0b110) => RegOp::Or,
                (0b0000000, 0b111) => RegOp::And,
                (0b0000001, 0b000) => RegOp::Mul,
                (0b0000001, 0b001) => RegOp::Mulh,
                (0b0000001, 0b010) => RegOp::Mulhsu,
                (0b0000001, 0b011) => RegOp::Mulhu,
                (0b0000001, 0b100) => RegOp::Div,
                (0b0000001, 0b101) => RegOp::Divu,
                (0b0000001, 0b110) => RegOp::Rem,
                (0b0000001, 0b111) => RegOp::Remu,
                (f7, f3) => return err(format!("op funct7/3 {f7:#b}/{f3:#b}")),
            };
            Ok(Inst::Op {
                op,
                rd: rd(w),
                rs1: rs1(w),
                rs2: rs2(w),
            })
        }
        0b0111011 => {
            let op = match (funct7(w), funct3(w)) {
                (0b0000000, 0b000) => RegOp32::Addw,
                (0b0100000, 0b000) => RegOp32::Subw,
                (0b0000000, 0b001) => RegOp32::Sllw,
                (0b0000000, 0b101) => RegOp32::Srlw,
                (0b0100000, 0b101) => RegOp32::Sraw,
                (0b0000001, 0b000) => RegOp32::Mulw,
                (0b0000001, 0b100) => RegOp32::Divw,
                (0b0000001, 0b101) => RegOp32::Divuw,
                (0b0000001, 0b110) => RegOp32::Remw,
                (0b0000001, 0b111) => RegOp32::Remuw,
                (f7, f3) => return err(format!("op-32 funct7/3 {f7:#b}/{f3:#b}")),
            };
            Ok(Inst::Op32 {
                op,
                rd: rd(w),
                rs1: rs1(w),
                rs2: rs2(w),
            })
        }
        0b0001111 => Ok(Inst::Fence),
        0b1110011 => match (w >> 20) & 0xFFF {
            0 => Ok(Inst::Ecall),
            1 => Ok(Inst::Ebreak),
            imm => err(format!("system imm {imm:#x}")),
        },
        0b0101111 => {
            let width = match funct3(w) {
                0b010 => AmoWidth::W,
                0b011 => AmoWidth::D,
                f => return err(format!("amo funct3 {f:#b}")),
            };
            let f5 = funct7(w) >> 2;
            match f5 {
                0b00010 => {
                    if rs2(w) != 0 {
                        return err("lr with nonzero rs2");
                    }
                    Ok(Inst::Lr {
                        width,
                        rd: rd(w),
                        rs1: rs1(w),
                    })
                }
                0b00011 => Ok(Inst::Sc {
                    width,
                    rd: rd(w),
                    rs1: rs1(w),
                    rs2: rs2(w),
                }),
                _ => {
                    let op = match f5 {
                        0b00000 => AmoOp::Add,
                        0b00001 => AmoOp::Swap,
                        0b00100 => AmoOp::Xor,
                        0b01000 => AmoOp::Or,
                        0b01100 => AmoOp::And,
                        0b10000 => AmoOp::Min,
                        0b10100 => AmoOp::Max,
                        0b11000 => AmoOp::Minu,
                        0b11100 => AmoOp::Maxu,
                        f => return err(format!("amo funct5 {f:#b}")),
                    };
                    Ok(Inst::Amo {
                        op,
                        width,
                        rd: rd(w),
                        rs1: rs1(w),
                        rs2: rs2(w),
                    })
                }
            }
        }
        0b0000111 => {
            let width = match funct3(w) {
                0b010 => FpWidth::S,
                0b011 => FpWidth::D,
                f => return err(format!("fp-load funct3 {f:#b}")),
            };
            Ok(Inst::FpLoad {
                width,
                frd: rd(w),
                rs1: rs1(w),
                offset: imm_i(w),
            })
        }
        0b0100111 => {
            let width = match funct3(w) {
                0b010 => FpWidth::S,
                0b011 => FpWidth::D,
                f => return err(format!("fp-store funct3 {f:#b}")),
            };
            Ok(Inst::FpStore {
                width,
                frs2: rs2(w),
                rs1: rs1(w),
                offset: imm_s(w),
            })
        }
        0b1000011 | 0b1000111 | 0b1001011 | 0b1001111 => {
            let op = match opcode {
                0b1000011 => FmaOp::Fmadd,
                0b1000111 => FmaOp::Fmsub,
                0b1001011 => FmaOp::Fnmsub,
                _ => FmaOp::Fnmadd,
            };
            let width = fp_width((w >> 25) & 0x3)?;
            Ok(Inst::FpFma {
                op,
                width,
                frd: rd(w),
                frs1: rs1(w),
                frs2: rs2(w),
                frs3: rs3(w),
            })
        }
        0b1010011 => decode_op_fp(w),
        _ => err(format!("unknown opcode {opcode:#09b}")),
    }
}

fn decode_op_fp(w: u32) -> Result<Inst, DecodeError> {
    let f7 = funct7(w);
    let fmt = f7 & 0x3;
    let width = fp_width(fmt)?;
    let f3 = funct3(w);
    match f7 >> 2 {
        0b00000 => Ok(Inst::FpReg {
            op: FpOp::Fadd,
            width,
            frd: rd(w),
            frs1: rs1(w),
            frs2: rs2(w),
        }),
        0b00001 => Ok(Inst::FpReg {
            op: FpOp::Fsub,
            width,
            frd: rd(w),
            frs1: rs1(w),
            frs2: rs2(w),
        }),
        0b00010 => Ok(Inst::FpReg {
            op: FpOp::Fmul,
            width,
            frd: rd(w),
            frs1: rs1(w),
            frs2: rs2(w),
        }),
        0b00011 => Ok(Inst::FpReg {
            op: FpOp::Fdiv,
            width,
            frd: rd(w),
            frs1: rs1(w),
            frs2: rs2(w),
        }),
        0b01011 => {
            if rs2(w) != 0 {
                return err("fsqrt with nonzero rs2");
            }
            Ok(Inst::FpSqrt {
                width,
                frd: rd(w),
                frs1: rs1(w),
            })
        }
        0b00100 => {
            let op = match f3 {
                0b000 => FpOp::Fsgnj,
                0b001 => FpOp::Fsgnjn,
                0b010 => FpOp::Fsgnjx,
                f => return err(format!("fsgnj funct3 {f:#b}")),
            };
            Ok(Inst::FpReg {
                op,
                width,
                frd: rd(w),
                frs1: rs1(w),
                frs2: rs2(w),
            })
        }
        0b00101 => {
            let op = match f3 {
                0b000 => FpOp::Fmin,
                0b001 => FpOp::Fmax,
                f => return err(format!("fmin/fmax funct3 {f:#b}")),
            };
            Ok(Inst::FpReg {
                op,
                width,
                frd: rd(w),
                frs1: rs1(w),
                frs2: rs2(w),
            })
        }
        0b10100 => {
            let op = match f3 {
                0b000 => FpCmpOp::Fle,
                0b001 => FpCmpOp::Flt,
                0b010 => FpCmpOp::Feq,
                f => return err(format!("fcmp funct3 {f:#b}")),
            };
            Ok(Inst::FpCmp {
                op,
                width,
                rd: rd(w),
                frs1: rs1(w),
                frs2: rs2(w),
            })
        }
        0b11000 => Ok(Inst::FcvtIntFromFp {
            ty: int_ty(rs2(w) as u32)?,
            width,
            rd: rd(w),
            frs1: rs1(w),
        }),
        0b11010 => Ok(Inst::FcvtFpFromInt {
            ty: int_ty(rs2(w) as u32)?,
            width,
            frd: rd(w),
            rs1: rs1(w),
        }),
        0b01000 => {
            let from = fp_width(rs2(w) as u32)?;
            if from == width {
                return err("fcvt between identical FP widths");
            }
            Ok(Inst::FcvtFpFp {
                to: width,
                from,
                frd: rd(w),
                frs1: rs1(w),
            })
        }
        0b11100 => match f3 {
            0b000 => {
                if rs2(w) != 0 {
                    return err("fmv.x with nonzero rs2");
                }
                Ok(Inst::FmvToInt {
                    width,
                    rd: rd(w),
                    frs1: rs1(w),
                })
            }
            0b001 => Ok(Inst::Fclass {
                width,
                rd: rd(w),
                frs1: rs1(w),
            }),
            f => err(format!("fmv.x/fclass funct3 {f:#b}")),
        },
        0b11110 => {
            if f3 != 0 || rs2(w) != 0 {
                return err("fmv to fp with nonzero funct3/rs2");
            }
            Ok(Inst::FmvToFp {
                width,
                frd: rd(w),
                rs1: rs1(w),
            })
        }
        f => err(format!("op-fp funct5 {f:#b}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode;

    #[test]
    fn decode_golden_words() {
        assert_eq!(
            decode(0x0000_0013).unwrap(),
            Inst::OpImm {
                op: ImmOp::Addi,
                rd: 0,
                rs1: 0,
                imm: 0
            }
        );
        assert_eq!(
            decode(0xFE87_9CE3).unwrap(),
            Inst::Branch {
                op: BranchOp::Bne,
                rs1: 15,
                rs2: 8,
                offset: -8
            }
        );
        assert_eq!(decode(0x0000_0073).unwrap(), Inst::Ecall);
        assert_eq!(
            decode(0x0007_B787).unwrap(),
            Inst::FpLoad {
                width: FpWidth::D,
                frd: 15,
                rs1: 15,
                offset: 0
            }
        );
    }

    #[test]
    fn negative_immediates_sign_extend() {
        // addi a0, a0, -1
        let w = encode(&Inst::OpImm {
            op: ImmOp::Addi,
            rd: 10,
            rs1: 10,
            imm: -1,
        });
        assert_eq!(
            decode(w).unwrap(),
            Inst::OpImm {
                op: ImmOp::Addi,
                rd: 10,
                rs1: 10,
                imm: -1
            }
        );
        // sd with negative offset
        let w = encode(&Inst::Store {
            op: StoreOp::Sd,
            rs2: 1,
            rs1: 2,
            offset: -16,
        });
        assert_eq!(
            decode(w).unwrap(),
            Inst::Store {
                op: StoreOp::Sd,
                rs2: 1,
                rs1: 2,
                offset: -16
            }
        );
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(decode(0xFFFF_FFFF).is_err());
        assert!(decode(0x0000_0000).is_err());
    }
}
