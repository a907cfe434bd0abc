//! RV64G disassembler (GNU-style mnemonics, ABI register names).
//!
//! Used for the paper's listing-level analysis (§3.3 compares the copy
//! kernels instruction by instruction) and for diagnostics.

use crate::inst::*;

/// ABI name of integer register `n`.
pub fn xname(n: u8) -> &'static str {
    const NAMES: [&str; 32] = [
        "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0", "a1", "a2", "a3", "a4",
        "a5", "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11", "t3", "t4",
        "t5", "t6",
    ];
    NAMES[n as usize]
}

/// ABI name of FP register `n`.
pub fn fname(n: u8) -> &'static str {
    const NAMES: [&str; 32] = [
        "ft0", "ft1", "ft2", "ft3", "ft4", "ft5", "ft6", "ft7", "fs0", "fs1", "fa0", "fa1", "fa2",
        "fa3", "fa4", "fa5", "fa6", "fa7", "fs2", "fs3", "fs4", "fs5", "fs6", "fs7", "fs8", "fs9",
        "fs10", "fs11", "ft8", "ft9", "ft10", "ft11",
    ];
    NAMES[n as usize]
}

fn fpw(w: FpWidth) -> &'static str {
    match w {
        FpWidth::S => "s",
        FpWidth::D => "d",
    }
}

fn amow(w: AmoWidth) -> &'static str {
    match w {
        AmoWidth::W => "w",
        AmoWidth::D => "d",
    }
}

fn int_ty_name(t: IntTy) -> &'static str {
    match t {
        IntTy::W => "w",
        IntTy::Wu => "wu",
        IntTy::L => "l",
        IntTy::Lu => "lu",
    }
}

/// Render a decoded instruction as assembly text.
pub fn disassemble(inst: &Inst) -> String {
    use Inst::*;
    match *inst {
        Lui { rd, imm } => format!("lui {}, {:#x}", xname(rd), (imm >> 12) & 0xFFFFF),
        Auipc { rd, imm } => format!("auipc {}, {:#x}", xname(rd), (imm >> 12) & 0xFFFFF),
        Jal { rd: 0, offset } => format!("j {offset}"),
        Jal { rd, offset } => format!("jal {}, {offset}", xname(rd)),
        Jalr { rd, rs1, offset } if rd == 0 && offset == 0 && rs1 == 1 => "ret".to_string(),
        Jalr { rd, rs1, offset } => {
            format!("jalr {}, {offset}({})", xname(rd), xname(rs1))
        }
        Branch {
            op,
            rs1,
            rs2,
            offset,
        } => {
            let m = match op {
                BranchOp::Beq => "beq",
                BranchOp::Bne => "bne",
                BranchOp::Blt => "blt",
                BranchOp::Bge => "bge",
                BranchOp::Bltu => "bltu",
                BranchOp::Bgeu => "bgeu",
            };
            format!("{m} {}, {}, {offset}", xname(rs1), xname(rs2))
        }
        Load {
            op,
            rd,
            rs1,
            offset,
        } => {
            let m = match op {
                LoadOp::Lb => "lb",
                LoadOp::Lh => "lh",
                LoadOp::Lw => "lw",
                LoadOp::Ld => "ld",
                LoadOp::Lbu => "lbu",
                LoadOp::Lhu => "lhu",
                LoadOp::Lwu => "lwu",
            };
            format!("{m} {}, {offset}({})", xname(rd), xname(rs1))
        }
        Store {
            op,
            rs2,
            rs1,
            offset,
        } => {
            let m = match op {
                StoreOp::Sb => "sb",
                StoreOp::Sh => "sh",
                StoreOp::Sw => "sw",
                StoreOp::Sd => "sd",
            };
            format!("{m} {}, {offset}({})", xname(rs2), xname(rs1))
        }
        OpImm { op, rd, rs1, imm } => {
            if op == ImmOp::Addi && rs1 == 0 {
                return format!("li {}, {imm}", xname(rd));
            }
            if op == ImmOp::Addi && imm == 0 && rd == 0 && rs1 == 0 {
                return "nop".to_string();
            }
            let m = match op {
                ImmOp::Addi => "addi",
                ImmOp::Slti => "slti",
                ImmOp::Sltiu => "sltiu",
                ImmOp::Xori => "xori",
                ImmOp::Ori => "ori",
                ImmOp::Andi => "andi",
                ImmOp::Slli => "slli",
                ImmOp::Srli => "srli",
                ImmOp::Srai => "srai",
            };
            format!("{m} {}, {}, {imm}", xname(rd), xname(rs1))
        }
        OpImm32 { op, rd, rs1, imm } => {
            let m = match op {
                ImmOp32::Addiw => "addiw",
                ImmOp32::Slliw => "slliw",
                ImmOp32::Srliw => "srliw",
                ImmOp32::Sraiw => "sraiw",
            };
            format!("{m} {}, {}, {imm}", xname(rd), xname(rs1))
        }
        Op { op, rd, rs1, rs2 } => {
            let m = match op {
                RegOp::Add => "add",
                RegOp::Sub => "sub",
                RegOp::Sll => "sll",
                RegOp::Slt => "slt",
                RegOp::Sltu => "sltu",
                RegOp::Xor => "xor",
                RegOp::Srl => "srl",
                RegOp::Sra => "sra",
                RegOp::Or => "or",
                RegOp::And => "and",
                RegOp::Mul => "mul",
                RegOp::Mulh => "mulh",
                RegOp::Mulhsu => "mulhsu",
                RegOp::Mulhu => "mulhu",
                RegOp::Div => "div",
                RegOp::Divu => "divu",
                RegOp::Rem => "rem",
                RegOp::Remu => "remu",
            };
            format!("{m} {}, {}, {}", xname(rd), xname(rs1), xname(rs2))
        }
        Op32 { op, rd, rs1, rs2 } => {
            let m = match op {
                RegOp32::Addw => "addw",
                RegOp32::Subw => "subw",
                RegOp32::Sllw => "sllw",
                RegOp32::Srlw => "srlw",
                RegOp32::Sraw => "sraw",
                RegOp32::Mulw => "mulw",
                RegOp32::Divw => "divw",
                RegOp32::Divuw => "divuw",
                RegOp32::Remw => "remw",
                RegOp32::Remuw => "remuw",
            };
            format!("{m} {}, {}, {}", xname(rd), xname(rs1), xname(rs2))
        }
        Fence => "fence".to_string(),
        Ecall => "ecall".to_string(),
        Ebreak => "ebreak".to_string(),
        Lr { width, rd, rs1 } => {
            format!("lr.{} {}, ({})", amow(width), xname(rd), xname(rs1))
        }
        Sc {
            width,
            rd,
            rs1,
            rs2,
        } => format!(
            "sc.{} {}, {}, ({})",
            amow(width),
            xname(rd),
            xname(rs2),
            xname(rs1)
        ),
        Amo {
            op,
            width,
            rd,
            rs1,
            rs2,
        } => {
            let m = match op {
                AmoOp::Swap => "amoswap",
                AmoOp::Add => "amoadd",
                AmoOp::Xor => "amoxor",
                AmoOp::And => "amoand",
                AmoOp::Or => "amoor",
                AmoOp::Min => "amomin",
                AmoOp::Max => "amomax",
                AmoOp::Minu => "amominu",
                AmoOp::Maxu => "amomaxu",
            };
            format!(
                "{m}.{} {}, {}, ({})",
                amow(width),
                xname(rd),
                xname(rs2),
                xname(rs1)
            )
        }
        FpLoad {
            width,
            frd,
            rs1,
            offset,
        } => {
            let m = if width == FpWidth::S { "flw" } else { "fld" };
            format!("{m} {}, {offset}({})", fname(frd), xname(rs1))
        }
        FpStore {
            width,
            frs2,
            rs1,
            offset,
        } => {
            let m = if width == FpWidth::S { "fsw" } else { "fsd" };
            format!("{m} {}, {offset}({})", fname(frs2), xname(rs1))
        }
        FpReg {
            op,
            width,
            frd,
            frs1,
            frs2,
        } => {
            let m = match op {
                FpOp::Fadd => "fadd",
                FpOp::Fsub => "fsub",
                FpOp::Fmul => "fmul",
                FpOp::Fdiv => "fdiv",
                FpOp::Fsgnj => "fsgnj",
                FpOp::Fsgnjn => "fsgnjn",
                FpOp::Fsgnjx => "fsgnjx",
                FpOp::Fmin => "fmin",
                FpOp::Fmax => "fmax",
            };
            // fsgnj rd, rs, rs is the canonical fmv.
            if op == FpOp::Fsgnj && frs1 == frs2 {
                return format!("fmv.{} {}, {}", fpw(width), fname(frd), fname(frs1));
            }
            format!(
                "{m}.{} {}, {}, {}",
                fpw(width),
                fname(frd),
                fname(frs1),
                fname(frs2)
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
            let m = match op {
                FmaOp::Fmadd => "fmadd",
                FmaOp::Fmsub => "fmsub",
                FmaOp::Fnmsub => "fnmsub",
                FmaOp::Fnmadd => "fnmadd",
            };
            format!(
                "{m}.{} {}, {}, {}, {}",
                fpw(width),
                fname(frd),
                fname(frs1),
                fname(frs2),
                fname(frs3)
            )
        }
        FpSqrt { width, frd, frs1 } => {
            format!("fsqrt.{} {}, {}", fpw(width), fname(frd), fname(frs1))
        }
        FpCmp {
            op,
            width,
            rd,
            frs1,
            frs2,
        } => {
            let m = match op {
                FpCmpOp::Feq => "feq",
                FpCmpOp::Flt => "flt",
                FpCmpOp::Fle => "fle",
            };
            format!(
                "{m}.{} {}, {}, {}",
                fpw(width),
                xname(rd),
                fname(frs1),
                fname(frs2)
            )
        }
        FcvtIntFromFp {
            ty,
            width,
            rd,
            frs1,
        } => format!(
            "fcvt.{}.{} {}, {}, rtz",
            int_ty_name(ty),
            fpw(width),
            xname(rd),
            fname(frs1)
        ),
        FcvtFpFromInt {
            ty,
            width,
            frd,
            rs1,
        } => format!(
            "fcvt.{}.{} {}, {}",
            fpw(width),
            int_ty_name(ty),
            fname(frd),
            xname(rs1)
        ),
        FcvtFpFp {
            to,
            from,
            frd,
            frs1,
        } => format!(
            "fcvt.{}.{} {}, {}",
            fpw(to),
            fpw(from),
            fname(frd),
            fname(frs1)
        ),
        FmvToInt { width, rd, frs1 } => {
            let suffix = if width == FpWidth::S { "w" } else { "d" };
            format!("fmv.x.{suffix} {}, {}", xname(rd), fname(frs1))
        }
        FmvToFp { width, frd, rs1 } => {
            let suffix = if width == FpWidth::S { "w" } else { "d" };
            format!("fmv.{suffix}.x {}, {}", fname(frd), xname(rs1))
        }
        Fclass { width, rd, frs1 } => {
            format!("fclass.{} {}, {}", fpw(width), xname(rd), fname(frs1))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_kernel_listing_forms() {
        // The paper's Listing 2 (rv64g copy kernel) shapes.
        assert_eq!(
            disassemble(&Inst::FpLoad {
                width: FpWidth::D,
                frd: 15,
                rs1: 15,
                offset: 0
            }),
            "fld fa5, 0(a5)"
        );
        assert_eq!(
            disassemble(&Inst::FpStore {
                width: FpWidth::D,
                frs2: 15,
                rs1: 14,
                offset: 0
            }),
            "fsd fa5, 0(a4)"
        );
        assert_eq!(
            disassemble(&Inst::OpImm {
                op: ImmOp::Addi,
                rd: 15,
                rs1: 15,
                imm: 8
            }),
            "addi a5, a5, 8"
        );
        assert_eq!(
            disassemble(&Inst::Branch {
                op: BranchOp::Bne,
                rs1: 15,
                rs2: 8,
                offset: -16
            }),
            "bne a5, s0, -16"
        );
    }

    #[test]
    fn pseudo_instructions() {
        assert_eq!(
            disassemble(&Inst::Jalr {
                rd: 0,
                rs1: 1,
                offset: 0
            }),
            "ret"
        );
        assert_eq!(
            disassemble(&Inst::OpImm {
                op: ImmOp::Addi,
                rd: 10,
                rs1: 0,
                imm: 7
            }),
            "li a0, 7"
        );
        assert_eq!(disassemble(&Inst::Jal { rd: 0, offset: -32 }), "j -32");
    }
}
