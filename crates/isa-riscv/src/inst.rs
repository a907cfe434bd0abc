//! Decoded RV64G instruction representation.

use simcore::InstGroup;

/// Conditional branch comparison (B-type).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BranchOp {
    /// `beq` — branch if equal.
    Beq,
    /// `bne` — branch if not equal.
    Bne,
    /// `blt` — branch if less than (signed).
    Blt,
    /// `bge` — branch if greater or equal (signed).
    Bge,
    /// `bltu` — branch if less than (unsigned).
    Bltu,
    /// `bgeu` — branch if greater or equal (unsigned).
    Bgeu,
}

/// Integer load width/extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadOp {
    /// `lb` — load byte, sign-extend.
    Lb,
    /// `lh` — load half, sign-extend.
    Lh,
    /// `lw` — load word, sign-extend.
    Lw,
    /// `ld` — load doubleword.
    Ld,
    /// `lbu` — load byte, zero-extend.
    Lbu,
    /// `lhu` — load half, zero-extend.
    Lhu,
    /// `lwu` — load word, zero-extend.
    Lwu,
}

impl LoadOp {
    /// Access width in bytes.
    pub fn size(self) -> u8 {
        match self {
            LoadOp::Lb | LoadOp::Lbu => 1,
            LoadOp::Lh | LoadOp::Lhu => 2,
            LoadOp::Lw | LoadOp::Lwu => 4,
            LoadOp::Ld => 8,
        }
    }
}

/// Integer store width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreOp {
    /// `sb` — store byte.
    Sb,
    /// `sh` — store half.
    Sh,
    /// `sw` — store word.
    Sw,
    /// `sd` — store doubleword.
    Sd,
}

impl StoreOp {
    /// Access width in bytes.
    pub fn size(self) -> u8 {
        match self {
            StoreOp::Sb => 1,
            StoreOp::Sh => 2,
            StoreOp::Sw => 4,
            StoreOp::Sd => 8,
        }
    }
}

/// Register-immediate ALU operation (I-type, 64-bit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImmOp {
    /// `addi`.
    Addi,
    /// `slti` — set if less than, signed.
    Slti,
    /// `sltiu` — set if less than, unsigned.
    Sltiu,
    /// `xori`.
    Xori,
    /// `ori`.
    Ori,
    /// `andi`.
    Andi,
    /// `slli` — shift left logical immediate.
    Slli,
    /// `srli` — shift right logical immediate.
    Srli,
    /// `srai` — shift right arithmetic immediate.
    Srai,
}

/// Register-immediate ALU operation on 32-bit values (`*w` forms).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImmOp32 {
    /// `addiw`.
    Addiw,
    /// `slliw`.
    Slliw,
    /// `srliw`.
    Srliw,
    /// `sraiw`.
    Sraiw,
}

/// Register-register ALU operation (R-type, 64-bit), including the M
/// extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegOp {
    /// `add`.
    Add,
    /// `sub`.
    Sub,
    /// `sll`.
    Sll,
    /// `slt`.
    Slt,
    /// `sltu`.
    Sltu,
    /// `xor`.
    Xor,
    /// `srl`.
    Srl,
    /// `sra`.
    Sra,
    /// `or`.
    Or,
    /// `and`.
    And,
    /// `mul` (M).
    Mul,
    /// `mulh` (M) — upper 64 bits of signed x signed.
    Mulh,
    /// `mulhsu` (M) — upper 64 bits of signed x unsigned.
    Mulhsu,
    /// `mulhu` (M) — upper 64 bits of unsigned x unsigned.
    Mulhu,
    /// `div` (M).
    Div,
    /// `divu` (M).
    Divu,
    /// `rem` (M).
    Rem,
    /// `remu` (M).
    Remu,
}

/// Register-register ALU operation on 32-bit values (`*w` forms).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegOp32 {
    /// `addw`.
    Addw,
    /// `subw`.
    Subw,
    /// `sllw`.
    Sllw,
    /// `srlw`.
    Srlw,
    /// `sraw`.
    Sraw,
    /// `mulw` (M).
    Mulw,
    /// `divw` (M).
    Divw,
    /// `divuw` (M).
    Divuw,
    /// `remw` (M).
    Remw,
    /// `remuw` (M).
    Remuw,
}

/// Atomic memory operation (A extension).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AmoOp {
    /// `amoswap`.
    Swap,
    /// `amoadd`.
    Add,
    /// `amoxor`.
    Xor,
    /// `amoand`.
    And,
    /// `amoor`.
    Or,
    /// `amomin` (signed).
    Min,
    /// `amomax` (signed).
    Max,
    /// `amominu`.
    Minu,
    /// `amomaxu`.
    Maxu,
}

/// Width of an atomic access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AmoWidth {
    /// 32-bit (`.w`).
    W,
    /// 64-bit (`.d`).
    D,
}

impl AmoWidth {
    /// Access width in bytes.
    pub fn size(self) -> u8 {
        match self {
            AmoWidth::W => 4,
            AmoWidth::D => 8,
        }
    }
}

/// FP precision (F = single, D = double).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FpWidth {
    /// Single precision (`.s`).
    S,
    /// Double precision (`.d`).
    D,
}

impl FpWidth {
    /// Access width in bytes.
    pub fn size(self) -> u8 {
        match self {
            FpWidth::S => 4,
            FpWidth::D => 8,
        }
    }
}

/// Two-source FP arithmetic ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FpOp {
    /// `fadd`.
    Fadd,
    /// `fsub`.
    Fsub,
    /// `fmul`.
    Fmul,
    /// `fdiv`.
    Fdiv,
    /// `fsgnj` — copy sign.
    Fsgnj,
    /// `fsgnjn` — copy negated sign.
    Fsgnjn,
    /// `fsgnjx` — xor signs.
    Fsgnjx,
    /// `fmin`.
    Fmin,
    /// `fmax`.
    Fmax,
}

/// Fused multiply-add family (R4-type).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FmaOp {
    /// `fmadd` — `rs1*rs2 + rs3`.
    Fmadd,
    /// `fmsub` — `rs1*rs2 - rs3`.
    Fmsub,
    /// `fnmsub` — `-(rs1*rs2) + rs3`.
    Fnmsub,
    /// `fnmadd` — `-(rs1*rs2) - rs3`.
    Fnmadd,
}

/// FP comparison ops (result to integer register).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FpCmpOp {
    /// `feq`.
    Feq,
    /// `flt`.
    Flt,
    /// `fle`.
    Fle,
}

/// Integer type involved in an FP<->int conversion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntTy {
    /// 32-bit signed (`.w`).
    W,
    /// 32-bit unsigned (`.wu`).
    Wu,
    /// 64-bit signed (`.l`).
    L,
    /// 64-bit unsigned (`.lu`).
    Lu,
}

/// A decoded RV64G instruction.
///
/// Field names follow the ISA manual's operand nomenclature (`rd`, `rs1`,
/// `rs2`, `frd`, `imm`, `offset`, ...), documented once here rather than
/// per field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Inst {
    /// `lui rd, imm20` — load upper immediate (`imm` is already shifted and
    /// sign-extended).
    Lui { rd: u8, imm: i64 },
    /// `auipc rd, imm20` — add upper immediate to PC.
    Auipc { rd: u8, imm: i64 },
    /// `jal rd, offset`.
    Jal { rd: u8, offset: i64 },
    /// `jalr rd, offset(rs1)`.
    Jalr { rd: u8, rs1: u8, offset: i64 },
    /// Conditional branch.
    Branch {
        op: BranchOp,
        rs1: u8,
        rs2: u8,
        offset: i64,
    },
    /// Integer load.
    Load {
        op: LoadOp,
        rd: u8,
        rs1: u8,
        offset: i64,
    },
    /// Integer store.
    Store {
        op: StoreOp,
        rs2: u8,
        rs1: u8,
        offset: i64,
    },
    /// Register-immediate ALU (I-type; for shifts `imm` is the shamt 0..63).
    OpImm {
        op: ImmOp,
        rd: u8,
        rs1: u8,
        imm: i64,
    },
    /// 32-bit register-immediate ALU.
    OpImm32 {
        op: ImmOp32,
        rd: u8,
        rs1: u8,
        imm: i64,
    },
    /// Register-register ALU.
    Op { op: RegOp, rd: u8, rs1: u8, rs2: u8 },
    /// 32-bit register-register ALU.
    Op32 {
        op: RegOp32,
        rd: u8,
        rs1: u8,
        rs2: u8,
    },
    /// `fence` (no-op in a single-hart model).
    Fence,
    /// `ecall` — environment call (syscall).
    Ecall,
    /// `ebreak` — breakpoint.
    Ebreak,
    /// `lr.w/.d rd, (rs1)` — load-reserved.
    Lr { width: AmoWidth, rd: u8, rs1: u8 },
    /// `sc.w/.d rd, rs2, (rs1)` — store-conditional.
    Sc {
        width: AmoWidth,
        rd: u8,
        rs1: u8,
        rs2: u8,
    },
    /// AMO read-modify-write.
    Amo {
        op: AmoOp,
        width: AmoWidth,
        rd: u8,
        rs1: u8,
        rs2: u8,
    },
    /// `flw/fld frd, offset(rs1)`.
    FpLoad {
        width: FpWidth,
        frd: u8,
        rs1: u8,
        offset: i64,
    },
    /// `fsw/fsd frs2, offset(rs1)`.
    FpStore {
        width: FpWidth,
        frs2: u8,
        rs1: u8,
        offset: i64,
    },
    /// Two-source FP arithmetic.
    FpReg {
        op: FpOp,
        width: FpWidth,
        frd: u8,
        frs1: u8,
        frs2: u8,
    },
    /// Fused multiply-add.
    FpFma {
        op: FmaOp,
        width: FpWidth,
        frd: u8,
        frs1: u8,
        frs2: u8,
        frs3: u8,
    },
    /// `fsqrt`.
    FpSqrt { width: FpWidth, frd: u8, frs1: u8 },
    /// FP compare to integer register.
    FpCmp {
        op: FpCmpOp,
        width: FpWidth,
        rd: u8,
        frs1: u8,
        frs2: u8,
    },
    /// `fcvt.<int>.<fp>` — FP to integer (truncating, RTZ).
    FcvtIntFromFp {
        ty: IntTy,
        width: FpWidth,
        rd: u8,
        frs1: u8,
    },
    /// `fcvt.<fp>.<int>` — integer to FP.
    FcvtFpFromInt {
        ty: IntTy,
        width: FpWidth,
        frd: u8,
        rs1: u8,
    },
    /// `fcvt.s.d` / `fcvt.d.s` — FP to FP precision conversion.
    FcvtFpFp {
        to: FpWidth,
        from: FpWidth,
        frd: u8,
        frs1: u8,
    },
    /// `fmv.x.w`/`fmv.x.d` — FP bits to integer register.
    FmvToInt { width: FpWidth, rd: u8, frs1: u8 },
    /// `fmv.w.x`/`fmv.d.x` — integer bits to FP register.
    FmvToFp { width: FpWidth, frd: u8, rs1: u8 },
    /// `fclass` — classify FP value.
    Fclass { width: FpWidth, rd: u8, frs1: u8 },
}

impl Inst {
    /// Latency/issue classification for the µarch models.
    pub fn group(&self) -> InstGroup {
        use Inst::*;
        match self {
            Lui { .. } | Auipc { .. } => InstGroup::IntAlu,
            Jal { .. } | Jalr { .. } | Branch { .. } => InstGroup::Branch,
            Load { .. } | FpLoad { .. } => InstGroup::Load,
            Store { .. } | FpStore { .. } => InstGroup::Store,
            OpImm { op, .. } => match op {
                ImmOp::Slli | ImmOp::Srli | ImmOp::Srai => InstGroup::Shift,
                ImmOp::Xori | ImmOp::Ori | ImmOp::Andi => InstGroup::Logical,
                _ => InstGroup::IntAlu,
            },
            OpImm32 { op, .. } => match op {
                ImmOp32::Addiw => InstGroup::IntAlu,
                _ => InstGroup::Shift,
            },
            Op { op, .. } => match op {
                RegOp::Mul | RegOp::Mulh | RegOp::Mulhsu | RegOp::Mulhu => InstGroup::IntMul,
                RegOp::Div | RegOp::Divu | RegOp::Rem | RegOp::Remu => InstGroup::IntDiv,
                RegOp::Sll | RegOp::Srl | RegOp::Sra => InstGroup::Shift,
                RegOp::Xor | RegOp::Or | RegOp::And => InstGroup::Logical,
                _ => InstGroup::IntAlu,
            },
            Op32 { op, .. } => match op {
                RegOp32::Mulw => InstGroup::IntMul,
                RegOp32::Divw | RegOp32::Divuw | RegOp32::Remw | RegOp32::Remuw => {
                    InstGroup::IntDiv
                }
                RegOp32::Sllw | RegOp32::Srlw | RegOp32::Sraw => InstGroup::Shift,
                RegOp32::Addw | RegOp32::Subw => InstGroup::IntAlu,
            },
            Fence | Ecall | Ebreak => InstGroup::System,
            Lr { .. } | Sc { .. } | Amo { .. } => InstGroup::Atomic,
            FpReg { op, .. } => match op {
                FpOp::Fadd | FpOp::Fsub => InstGroup::FpAdd,
                FpOp::Fmul => InstGroup::FpMul,
                FpOp::Fdiv => InstGroup::FpDiv,
                FpOp::Fmin | FpOp::Fmax => InstGroup::FpCmp,
                FpOp::Fsgnj | FpOp::Fsgnjn | FpOp::Fsgnjx => InstGroup::FpMove,
            },
            FpFma { .. } => InstGroup::FpFma,
            FpSqrt { .. } => InstGroup::FpSqrt,
            FpCmp { .. } => InstGroup::FpCmp,
            FcvtIntFromFp { .. } | FcvtFpFromInt { .. } | FcvtFpFp { .. } => InstGroup::FpCvt,
            FmvToInt { .. } | FmvToFp { .. } => InstGroup::FpMove,
            Fclass { .. } => InstGroup::FpCmp,
        }
    }

    /// Whether this instruction may redirect control flow.
    pub fn is_branch(&self) -> bool {
        matches!(
            self,
            Inst::Jal { .. } | Inst::Jalr { .. } | Inst::Branch { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_classification_samples() {
        assert_eq!(
            Inst::Op {
                op: RegOp::Mul,
                rd: 1,
                rs1: 2,
                rs2: 3
            }
            .group(),
            InstGroup::IntMul
        );
        assert_eq!(
            Inst::FpReg {
                op: FpOp::Fdiv,
                width: FpWidth::D,
                frd: 0,
                frs1: 1,
                frs2: 2
            }
            .group(),
            InstGroup::FpDiv
        );
        assert_eq!(
            Inst::Branch {
                op: BranchOp::Bne,
                rs1: 1,
                rs2: 2,
                offset: -4
            }
            .group(),
            InstGroup::Branch
        );
        assert!(Inst::Jal { rd: 0, offset: 8 }.is_branch());
        assert!(!Inst::Fence.is_branch());
    }

    #[test]
    fn widths() {
        assert_eq!(LoadOp::Lw.size(), 4);
        assert_eq!(StoreOp::Sd.size(), 8);
        assert_eq!(FpWidth::S.size(), 4);
        assert_eq!(AmoWidth::D.size(), 8);
    }
}
