//! Decoded A64 instruction representation (scalar subset).

use simcore::InstGroup;

/// Condition codes for `B.cond`, `CSEL`, `CCMP`, `FCSEL`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cond {
    /// Equal (Z).
    Eq,
    /// Not equal (!Z).
    Ne,
    /// Carry set / unsigned higher-or-same (C).
    Cs,
    /// Carry clear / unsigned lower (!C).
    Cc,
    /// Minus / negative (N).
    Mi,
    /// Plus / non-negative (!N).
    Pl,
    /// Overflow (V).
    Vs,
    /// No overflow (!V).
    Vc,
    /// Unsigned higher (C && !Z).
    Hi,
    /// Unsigned lower-or-same (!C || Z).
    Ls,
    /// Signed greater-or-equal (N == V).
    Ge,
    /// Signed less (N != V).
    Lt,
    /// Signed greater (Z == 0 && N == V).
    Gt,
    /// Signed less-or-equal (Z || N != V).
    Le,
    /// Always.
    Al,
    /// Always (second encoding).
    Nv,
}

impl Cond {
    /// Decode a 4-bit condition field.
    pub fn from_bits(b: u32) -> Cond {
        match b & 0xF {
            0 => Cond::Eq,
            1 => Cond::Ne,
            2 => Cond::Cs,
            3 => Cond::Cc,
            4 => Cond::Mi,
            5 => Cond::Pl,
            6 => Cond::Vs,
            7 => Cond::Vc,
            8 => Cond::Hi,
            9 => Cond::Ls,
            10 => Cond::Ge,
            11 => Cond::Lt,
            12 => Cond::Gt,
            13 => Cond::Le,
            14 => Cond::Al,
            _ => Cond::Nv,
        }
    }

    /// Encode to the 4-bit condition field.
    pub fn bits(self) -> u32 {
        match self {
            Cond::Eq => 0,
            Cond::Ne => 1,
            Cond::Cs => 2,
            Cond::Cc => 3,
            Cond::Mi => 4,
            Cond::Pl => 5,
            Cond::Vs => 6,
            Cond::Vc => 7,
            Cond::Hi => 8,
            Cond::Ls => 9,
            Cond::Ge => 10,
            Cond::Lt => 11,
            Cond::Gt => 12,
            Cond::Le => 13,
            Cond::Al => 14,
            Cond::Nv => 15,
        }
    }

    /// The inverted condition (`invert(EQ) == NE`).
    pub fn invert(self) -> Cond {
        Cond::from_bits(self.bits() ^ 1)
    }
}

/// Shift type for shifted-register operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShiftType {
    /// Logical shift left.
    Lsl,
    /// Logical shift right.
    Lsr,
    /// Arithmetic shift right.
    Asr,
    /// Rotate right (logical ops only).
    Ror,
}

/// Extend type for extended-register operands and register-offset loads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Extend {
    /// Unsigned extend byte.
    Uxtb,
    /// Unsigned extend halfword.
    Uxth,
    /// Unsigned extend word.
    Uxtw,
    /// Unsigned extend doubleword (identity; `LSL` in load syntax).
    Uxtx,
    /// Signed extend byte.
    Sxtb,
    /// Signed extend halfword.
    Sxth,
    /// Signed extend word.
    Sxtw,
    /// Signed extend doubleword (identity).
    Sxtx,
}

impl Extend {
    /// Decode the 3-bit option field.
    pub fn from_bits(b: u32) -> Extend {
        match b & 7 {
            0 => Extend::Uxtb,
            1 => Extend::Uxth,
            2 => Extend::Uxtw,
            3 => Extend::Uxtx,
            4 => Extend::Sxtb,
            5 => Extend::Sxth,
            6 => Extend::Sxtw,
            _ => Extend::Sxtx,
        }
    }

    /// Encode to the 3-bit option field.
    pub fn bits(self) -> u32 {
        match self {
            Extend::Uxtb => 0,
            Extend::Uxth => 1,
            Extend::Uxtw => 2,
            Extend::Uxtx => 3,
            Extend::Sxtb => 4,
            Extend::Sxth => 5,
            Extend::Sxtw => 6,
            Extend::Sxtx => 7,
        }
    }
}

/// Integer load/store access type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemSize {
    /// 8-bit, zero-extending load (`ldrb`/`strb`).
    B,
    /// 16-bit, zero-extending load (`ldrh`/`strh`).
    H,
    /// 32-bit, zero-extending load (`ldr wN`/`str wN`).
    W,
    /// 64-bit (`ldr xN`/`str xN`).
    X,
    /// 8-bit, sign-extending to 64 bits (`ldrsb`).
    Sb,
    /// 16-bit, sign-extending to 64 bits (`ldrsh`).
    Sh,
    /// 32-bit, sign-extending to 64 bits (`ldrsw`).
    Sw,
}

impl MemSize {
    /// Access width in bytes.
    pub fn bytes(self) -> u8 {
        match self {
            MemSize::B | MemSize::Sb => 1,
            MemSize::H | MemSize::Sh => 2,
            MemSize::W | MemSize::Sw => 4,
            MemSize::X => 8,
        }
    }

    /// Whether a load sign-extends.
    pub fn signed(self) -> bool {
        matches!(self, MemSize::Sb | MemSize::Sh | MemSize::Sw)
    }
}

/// FP scalar precision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FpSize {
    /// Single precision (`sN` registers).
    S,
    /// Double precision (`dN` registers).
    D,
}

impl FpSize {
    /// Access width in bytes.
    pub fn bytes(self) -> u8 {
        match self {
            FpSize::S => 4,
            FpSize::D => 8,
        }
    }
}

/// Addressing mode for single-register loads/stores with a 9-bit immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexMode {
    /// Pre-indexed: `[rn, #imm]!` — base updated before the access.
    Pre,
    /// Post-indexed: `[rn], #imm` — base updated after the access.
    Post,
    /// Unscaled offset (`ldur`/`stur`) — no base update.
    Unscaled,
}

/// Two-source FP arithmetic operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FpBinOp {
    /// `fadd`.
    Fadd,
    /// `fsub`.
    Fsub,
    /// `fmul`.
    Fmul,
    /// `fdiv`.
    Fdiv,
    /// `fmax` (IEEE maximum with NaN propagation).
    Fmax,
    /// `fmin`.
    Fmin,
    /// `fmaxnm` (maximumNumber: NaN loses).
    Fmaxnm,
    /// `fminnm`.
    Fminnm,
    /// `fnmul` — negated multiply.
    Fnmul,
}

/// One-source FP operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FpUnOp {
    /// `fmov` register move.
    Fmov,
    /// `fabs`.
    Fabs,
    /// `fneg`.
    Fneg,
    /// `fsqrt`.
    Fsqrt,
}

/// FP fused multiply-add family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FpFmaOp {
    /// `fmadd` — `rn*rm + ra`.
    Fmadd,
    /// `fmsub` — `-(rn*rm) + ra`.
    Fmsub,
    /// `fnmadd` — `-(rn*rm) - ra`.
    Fnmadd,
    /// `fnmsub` — `rn*rm - ra`.
    Fnmsub,
}

/// Conditional select variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CselOp {
    /// `csel` — `cond ? rn : rm`.
    Csel,
    /// `csinc` — `cond ? rn : rm + 1`.
    Csinc,
    /// `csinv` — `cond ? rn : !rm`.
    Csinv,
    /// `csneg` — `cond ? rn : -rm`.
    Csneg,
}

/// Logical (shifted-register / immediate) operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogicOp {
    /// `and`.
    And,
    /// `bic` — and with complement (register form only).
    Bic,
    /// `orr`.
    Orr,
    /// `orn` (register form only).
    Orn,
    /// `eor`.
    Eor,
    /// `eon` (register form only).
    Eon,
    /// `ands` — and, setting flags.
    Ands,
    /// `bics` (register form only).
    Bics,
}

/// Move-wide operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MovOp {
    /// `movn` — move inverted shifted immediate.
    Movn,
    /// `movz` — move shifted immediate, zeroing the rest.
    Movz,
    /// `movk` — insert immediate, keeping other bits.
    Movk,
}

/// One-source integer data-processing operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unary1Op {
    /// `rbit` — reverse bits.
    Rbit,
    /// `rev16` — reverse bytes in halfwords.
    Rev16,
    /// `rev32` — reverse bytes in words (64-bit only).
    Rev32,
    /// `rev` — reverse all bytes.
    Rev,
    /// `clz` — count leading zeros.
    Clz,
    /// `cls` — count leading sign bits.
    Cls,
}

/// Bitfield-move variant (`sbfm`/`bfm`/`ubfm` — the substrate of the
/// `lsl #imm`, `lsr`, `asr`, `ubfx`, `sxtw`, ... aliases).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BitfieldOp {
    /// `sbfm` — signed.
    Sbfm,
    /// `bfm` — insert, keeping untouched bits.
    Bfm,
    /// `ubfm` — unsigned.
    Ubfm,
}

/// Variable-shift operation (`lslv` family).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShiftVOp {
    /// `lslv`.
    Lslv,
    /// `lsrv`.
    Lsrv,
    /// `asrv`.
    Asrv,
    /// `rorv`.
    Rorv,
}

/// A decoded A64 instruction.
///
/// `sf` selects 64-bit (`true`) or 32-bit (`false`) operand size.
/// Register number 31 means SP or ZR depending on the variant, following
/// the architectural rules (documented per variant in the executor).
/// Field names follow the Arm ARM's operand nomenclature (`rd`, `rn`,
/// `rm`, `rt`, `imm12`, `simm9`, ...), documented once here rather than
/// per field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Inst {
    /// `add`/`adds`/`sub`/`subs` (immediate). `shift12` applies `imm << 12`.
    /// `cmp rn, #imm` is `subs` with `rd == 31`.
    AddSubImm {
        sub: bool,
        set_flags: bool,
        sf: bool,
        rd: u8,
        rn: u8,
        imm12: u16,
        shift12: bool,
    },
    /// `add`/`adds`/`sub`/`subs` (shifted register).
    AddSubShifted {
        sub: bool,
        set_flags: bool,
        sf: bool,
        rd: u8,
        rn: u8,
        rm: u8,
        shift: ShiftType,
        amount: u8,
    },
    /// `add`/`adds`/`sub`/`subs` (extended register).
    AddSubExtended {
        sub: bool,
        set_flags: bool,
        sf: bool,
        rd: u8,
        rn: u8,
        rm: u8,
        extend: Extend,
        amount: u8,
    },
    /// Logical operation with a bitmask immediate (`and`/`orr`/`eor`/`ands`).
    LogicalImm {
        op: LogicOp,
        sf: bool,
        rd: u8,
        rn: u8,
        imm: u64,
    },
    /// Logical operation, shifted register.
    LogicalShifted {
        op: LogicOp,
        sf: bool,
        rd: u8,
        rn: u8,
        rm: u8,
        shift: ShiftType,
        amount: u8,
    },
    /// `movn`/`movz`/`movk`.
    MovWide {
        op: MovOp,
        sf: bool,
        rd: u8,
        imm16: u16,
        hw: u8,
    },
    /// `adr` — PC-relative address (byte offset).
    Adr { rd: u8, offset: i64 },
    /// `adrp` — PC-relative page address (offset in 4 KiB pages, pre-shifted
    /// to a byte offset here).
    Adrp { rd: u8, offset: i64 },
    /// `sbfm`/`bfm`/`ubfm`.
    Bitfield {
        op: BitfieldOp,
        sf: bool,
        rd: u8,
        rn: u8,
        immr: u8,
        imms: u8,
    },
    /// `extr` (the `ror #imm` alias when `rn == rm`).
    Extr {
        sf: bool,
        rd: u8,
        rn: u8,
        rm: u8,
        lsb: u8,
    },
    /// `madd`/`msub` (`mul` is `madd` with `ra == 31`).
    MulAdd {
        sub: bool,
        sf: bool,
        rd: u8,
        rn: u8,
        rm: u8,
        ra: u8,
    },
    /// `smaddl`/`smsubl`/`umaddl`/`umsubl` — widening 32->64 multiply-add.
    MulAddLong {
        sub: bool,
        unsigned: bool,
        rd: u8,
        rn: u8,
        rm: u8,
        ra: u8,
    },
    /// `smulh`/`umulh`.
    MulHigh {
        unsigned: bool,
        rd: u8,
        rn: u8,
        rm: u8,
    },
    /// `sdiv`/`udiv`.
    Div {
        unsigned: bool,
        sf: bool,
        rd: u8,
        rn: u8,
        rm: u8,
    },
    /// `lslv`/`lsrv`/`asrv`/`rorv` (the `lsl rd, rn, rm` aliases).
    ShiftV {
        op: ShiftVOp,
        sf: bool,
        rd: u8,
        rn: u8,
        rm: u8,
    },
    /// One-source ops: `rbit`, `rev`, `clz`, ...
    Unary1 {
        op: Unary1Op,
        sf: bool,
        rd: u8,
        rn: u8,
    },
    /// `csel`/`csinc`/`csinv`/`csneg`.
    CondSel {
        op: CselOp,
        sf: bool,
        rd: u8,
        rn: u8,
        rm: u8,
        cond: Cond,
    },
    /// `ccmp`/`ccmn` (register).
    CondCmpReg {
        negative: bool,
        sf: bool,
        rn: u8,
        rm: u8,
        nzcv: u8,
        cond: Cond,
    },
    /// `ccmp`/`ccmn` (immediate).
    CondCmpImm {
        negative: bool,
        sf: bool,
        rn: u8,
        imm5: u8,
        nzcv: u8,
        cond: Cond,
    },
    /// `b` / `bl`.
    B { link: bool, offset: i64 },
    /// `b.cond`.
    BCond { cond: Cond, offset: i64 },
    /// `cbz`/`cbnz`.
    Cbz {
        nonzero: bool,
        sf: bool,
        rt: u8,
        offset: i64,
    },
    /// `tbz`/`tbnz`.
    Tbz {
        nonzero: bool,
        rt: u8,
        bit: u8,
        offset: i64,
    },
    /// `br`/`blr`/`ret`.
    BrReg { link: bool, ret: bool, rn: u8 },
    /// Integer load, unsigned scaled 12-bit offset.
    LdrImm {
        size: MemSize,
        rt: u8,
        rn: u8,
        imm12: u16,
    },
    /// Integer store, unsigned scaled 12-bit offset.
    StrImm {
        size: MemSize,
        rt: u8,
        rn: u8,
        imm12: u16,
    },
    /// Integer load with writeback or unscaled offset (9-bit signed).
    LdrIdx {
        size: MemSize,
        mode: IndexMode,
        rt: u8,
        rn: u8,
        simm9: i16,
    },
    /// Integer store with writeback or unscaled offset.
    StrIdx {
        size: MemSize,
        mode: IndexMode,
        rt: u8,
        rn: u8,
        simm9: i16,
    },
    /// Integer load, register offset: `ldr rt, [rn, rm{, extend {#shift}}]`.
    LdrReg {
        size: MemSize,
        rt: u8,
        rn: u8,
        rm: u8,
        extend: Extend,
        shift: bool,
    },
    /// Integer store, register offset.
    StrReg {
        size: MemSize,
        rt: u8,
        rn: u8,
        rm: u8,
        extend: Extend,
        shift: bool,
    },
    /// Load pair (X registers only in this subset).
    Ldp {
        sf: bool,
        mode: Option<IndexMode>,
        rt: u8,
        rt2: u8,
        rn: u8,
        imm7: i16,
    },
    /// Store pair.
    Stp {
        sf: bool,
        mode: Option<IndexMode>,
        rt: u8,
        rt2: u8,
        rn: u8,
        imm7: i16,
    },
    /// FP load, unsigned scaled offset.
    LdrFpImm {
        size: FpSize,
        rt: u8,
        rn: u8,
        imm12: u16,
    },
    /// FP store, unsigned scaled offset.
    StrFpImm {
        size: FpSize,
        rt: u8,
        rn: u8,
        imm12: u16,
    },
    /// FP load with writeback/unscaled offset.
    LdrFpIdx {
        size: FpSize,
        mode: IndexMode,
        rt: u8,
        rn: u8,
        simm9: i16,
    },
    /// FP store with writeback/unscaled offset.
    StrFpIdx {
        size: FpSize,
        mode: IndexMode,
        rt: u8,
        rn: u8,
        simm9: i16,
    },
    /// FP load, register offset.
    LdrFpReg {
        size: FpSize,
        rt: u8,
        rn: u8,
        rm: u8,
        extend: Extend,
        shift: bool,
    },
    /// FP store, register offset.
    StrFpReg {
        size: FpSize,
        rt: u8,
        rn: u8,
        rm: u8,
        extend: Extend,
        shift: bool,
    },
    /// Two-source FP arithmetic.
    FpBin {
        op: FpBinOp,
        size: FpSize,
        rd: u8,
        rn: u8,
        rm: u8,
    },
    /// One-source FP operation.
    FpUn {
        op: FpUnOp,
        size: FpSize,
        rd: u8,
        rn: u8,
    },
    /// FP fused multiply-add.
    FpFma {
        op: FpFmaOp,
        size: FpSize,
        rd: u8,
        rn: u8,
        rm: u8,
        ra: u8,
    },
    /// `fcmp`/`fcmpe` (`zero` compares `rn` against +0.0).
    Fcmp {
        size: FpSize,
        rn: u8,
        rm: u8,
        zero: bool,
    },
    /// `fcsel`.
    Fcsel {
        size: FpSize,
        rd: u8,
        rn: u8,
        rm: u8,
        cond: Cond,
    },
    /// `fcvt` between S and D.
    FcvtPrec {
        to: FpSize,
        from: FpSize,
        rd: u8,
        rn: u8,
    },
    /// `scvtf`/`ucvtf` — integer to FP.
    IntToFp {
        unsigned: bool,
        sf: bool,
        size: FpSize,
        rd: u8,
        rn: u8,
    },
    /// `fcvtzs`/`fcvtzu` — FP to integer, round toward zero.
    FpToInt {
        unsigned: bool,
        sf: bool,
        size: FpSize,
        rd: u8,
        rn: u8,
    },
    /// `fmov` between integer and FP register files.
    FmovIntFp {
        to_fp: bool,
        sf: bool,
        size: FpSize,
        rd: u8,
        rn: u8,
    },
    /// `fmov` (scalar immediate) — the 256 representable VFP constants.
    FmovImm { size: FpSize, rd: u8, imm8: u8 },
    /// `nop`.
    Nop,
    /// `svc #imm` — supervisor call.
    Svc { imm16: u16 },
    /// `brk #imm` — breakpoint.
    Brk { imm16: u16 },
}

impl Inst {
    /// Latency/issue classification for the µarch models.
    pub fn group(&self) -> InstGroup {
        use Inst::*;
        match self {
            AddSubImm { .. }
            | AddSubShifted { .. }
            | AddSubExtended { .. }
            | MovWide { .. }
            | Adr { .. }
            | Adrp { .. }
            | CondSel { .. }
            | CondCmpReg { .. }
            | CondCmpImm { .. } => InstGroup::IntAlu,
            LogicalImm { .. } | LogicalShifted { .. } | Unary1 { .. } => InstGroup::Logical,
            Bitfield { .. } | Extr { .. } | ShiftV { .. } => InstGroup::Shift,
            MulAdd { .. } | MulAddLong { .. } | MulHigh { .. } => InstGroup::IntMul,
            Div { .. } => InstGroup::IntDiv,
            B { .. } | BCond { .. } | Cbz { .. } | Tbz { .. } | BrReg { .. } => InstGroup::Branch,
            LdrImm { .. }
            | LdrIdx { .. }
            | LdrReg { .. }
            | Ldp { .. }
            | LdrFpImm { .. }
            | LdrFpIdx { .. }
            | LdrFpReg { .. } => InstGroup::Load,
            StrImm { .. }
            | StrIdx { .. }
            | StrReg { .. }
            | Stp { .. }
            | StrFpImm { .. }
            | StrFpIdx { .. }
            | StrFpReg { .. } => InstGroup::Store,
            FpBin { op, .. } => match op {
                FpBinOp::Fadd | FpBinOp::Fsub => InstGroup::FpAdd,
                FpBinOp::Fmul | FpBinOp::Fnmul => InstGroup::FpMul,
                FpBinOp::Fdiv => InstGroup::FpDiv,
                _ => InstGroup::FpCmp,
            },
            FpUn { op, .. } => match op {
                FpUnOp::Fsqrt => InstGroup::FpSqrt,
                _ => InstGroup::FpMove,
            },
            FpFma { .. } => InstGroup::FpFma,
            Fcmp { .. } => InstGroup::FpCmp,
            Fcsel { .. } => InstGroup::FpCmp,
            FcvtPrec { .. } | IntToFp { .. } | FpToInt { .. } => InstGroup::FpCvt,
            FmovIntFp { .. } | FmovImm { .. } => InstGroup::FpMove,
            Nop | Svc { .. } | Brk { .. } => InstGroup::System,
        }
    }

    /// Whether this instruction may redirect control flow.
    pub fn is_branch(&self) -> bool {
        matches!(
            self,
            Inst::B { .. }
                | Inst::BCond { .. }
                | Inst::Cbz { .. }
                | Inst::Tbz { .. }
                | Inst::BrReg { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cond_bits_round_trip() {
        for b in 0..16u32 {
            assert_eq!(Cond::from_bits(b).bits(), b);
        }
    }

    #[test]
    fn cond_inversion() {
        assert_eq!(Cond::Eq.invert(), Cond::Ne);
        assert_eq!(Cond::Ge.invert(), Cond::Lt);
        assert_eq!(Cond::Hi.invert(), Cond::Ls);
    }

    #[test]
    fn extend_bits_round_trip() {
        for b in 0..8u32 {
            assert_eq!(Extend::from_bits(b).bits(), b);
        }
    }

    #[test]
    fn groups() {
        assert_eq!(
            Inst::MulAdd {
                sub: false,
                sf: true,
                rd: 0,
                rn: 1,
                rm: 2,
                ra: 31
            }
            .group(),
            InstGroup::IntMul
        );
        assert_eq!(
            Inst::LdrReg {
                size: MemSize::X,
                rt: 0,
                rn: 1,
                rm: 2,
                extend: Extend::Uxtx,
                shift: true
            }
            .group(),
            InstGroup::Load
        );
        assert!(Inst::BCond {
            cond: Cond::Ne,
            offset: -4
        }
        .is_branch());
    }

    #[test]
    fn memsize_properties() {
        assert_eq!(MemSize::X.bytes(), 8);
        assert_eq!(MemSize::Sw.bytes(), 4);
        assert!(MemSize::Sw.signed());
        assert!(!MemSize::W.signed());
    }
}
