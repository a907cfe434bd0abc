//! A64 disassembler (GNU-style mnemonics with common aliases).

use crate::encode::fp_imm8_to_f64;
use crate::inst::*;

/// Name of general register `r` with 31 = ZR.
fn xz(sf: bool, r: u8) -> String {
    let prefix = if sf { "x" } else { "w" };
    if r == 31 {
        format!("{prefix}zr")
    } else {
        format!("{prefix}{r}")
    }
}

/// Name of general register `r` with 31 = SP.
fn xs(sf: bool, r: u8) -> String {
    if r == 31 {
        if sf {
            "sp".to_string()
        } else {
            "wsp".to_string()
        }
    } else {
        xz(sf, r)
    }
}

fn fpreg(size: FpSize, r: u8) -> String {
    match size {
        FpSize::S => format!("s{r}"),
        FpSize::D => format!("d{r}"),
    }
}

fn cond_name(c: Cond) -> &'static str {
    match c {
        Cond::Eq => "eq",
        Cond::Ne => "ne",
        Cond::Cs => "cs",
        Cond::Cc => "cc",
        Cond::Mi => "mi",
        Cond::Pl => "pl",
        Cond::Vs => "vs",
        Cond::Vc => "vc",
        Cond::Hi => "hi",
        Cond::Ls => "ls",
        Cond::Ge => "ge",
        Cond::Lt => "lt",
        Cond::Gt => "gt",
        Cond::Le => "le",
        Cond::Al => "al",
        Cond::Nv => "nv",
    }
}

fn shift_name(s: ShiftType) -> &'static str {
    match s {
        ShiftType::Lsl => "lsl",
        ShiftType::Lsr => "lsr",
        ShiftType::Asr => "asr",
        ShiftType::Ror => "ror",
    }
}

fn extend_name(e: Extend) -> &'static str {
    match e {
        Extend::Uxtb => "uxtb",
        Extend::Uxth => "uxth",
        Extend::Uxtw => "uxtw",
        Extend::Uxtx => "uxtx",
        Extend::Sxtb => "sxtb",
        Extend::Sxth => "sxth",
        Extend::Sxtw => "sxtw",
        Extend::Sxtx => "sxtx",
    }
}

fn mem_mnemonic(size: MemSize, load: bool) -> &'static str {
    match (size, load) {
        (MemSize::B, true) => "ldrb",
        (MemSize::B, false) => "strb",
        (MemSize::H, true) => "ldrh",
        (MemSize::H, false) => "strh",
        (MemSize::Sb, _) => "ldrsb",
        (MemSize::Sh, _) => "ldrsh",
        (MemSize::Sw, _) => "ldrsw",
        (_, true) => "ldr",
        (_, false) => "str",
    }
}

fn mem_reg(size: MemSize, r: u8) -> String {
    // The transfer register is W for sub-64-bit accesses (except the
    // sign-extending-to-X loads which use X).
    match size {
        MemSize::X | MemSize::Sb | MemSize::Sh | MemSize::Sw => xz(true, r),
        _ => xz(false, r),
    }
}

/// Render a decoded instruction as assembly text.
pub fn disassemble(inst: &Inst) -> String {
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
            let shift = if shift12 { ", lsl #12" } else { "" };
            match (sub, set_flags, rd) {
                (true, true, 31) => format!("cmp {}, #{imm12}{shift}", xs(sf, rn)),
                (false, true, 31) => format!("cmn {}, #{imm12}{shift}", xs(sf, rn)),
                _ => {
                    let m = match (sub, set_flags) {
                        (false, false) => "add",
                        (false, true) => "adds",
                        (true, false) => "sub",
                        (true, true) => "subs",
                    };
                    let rd_s = if set_flags { xz(sf, rd) } else { xs(sf, rd) };
                    format!("{m} {rd_s}, {}, #{imm12}{shift}", xs(sf, rn))
                }
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
            let sh = if amount != 0 {
                format!(", {} #{amount}", shift_name(shift))
            } else {
                String::new()
            };
            match (sub, set_flags, rd, rn) {
                (true, true, 31, _) => format!("cmp {}, {}{sh}", xz(sf, rn), xz(sf, rm)),
                (true, false, _, 31) => format!("neg {}, {}{sh}", xz(sf, rd), xz(sf, rm)),
                _ => {
                    let m = match (sub, set_flags) {
                        (false, false) => "add",
                        (false, true) => "adds",
                        (true, false) => "sub",
                        (true, true) => "subs",
                    };
                    format!("{m} {}, {}, {}{sh}", xz(sf, rd), xz(sf, rn), xz(sf, rm))
                }
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
            let m = match (sub, set_flags) {
                (false, false) => "add",
                (false, true) => "adds",
                (true, false) => "sub",
                (true, true) => "subs",
            };
            let sh = if amount != 0 {
                format!(" #{amount}")
            } else {
                String::new()
            };
            format!(
                "{m} {}, {}, {}, {}{sh}",
                xs(sf, rd),
                xs(sf, rn),
                xz(sf, rm),
                extend_name(extend)
            )
        }
        LogicalImm {
            op,
            sf,
            rd,
            rn,
            imm,
        } => {
            let m = match op {
                LogicOp::And => "and",
                LogicOp::Orr => "orr",
                LogicOp::Eor => "eor",
                LogicOp::Ands => "ands",
                _ => unreachable!(),
            };
            if op == LogicOp::Orr && rn == 31 {
                return format!("mov {}, #{imm:#x}", xs(sf, rd));
            }
            format!("{m} {}, {}, #{imm:#x}", xs(sf, rd), xz(sf, rn))
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
            let m = match op {
                LogicOp::And => "and",
                LogicOp::Bic => "bic",
                LogicOp::Orr => "orr",
                LogicOp::Orn => "orn",
                LogicOp::Eor => "eor",
                LogicOp::Eon => "eon",
                LogicOp::Ands => "ands",
                LogicOp::Bics => "bics",
            };
            if op == LogicOp::Orr && rn == 31 && amount == 0 {
                return format!("mov {}, {}", xz(sf, rd), xz(sf, rm));
            }
            let sh = if amount != 0 {
                format!(", {} #{amount}", shift_name(shift))
            } else {
                String::new()
            };
            format!("{m} {}, {}, {}{sh}", xz(sf, rd), xz(sf, rn), xz(sf, rm))
        }
        MovWide {
            op,
            sf,
            rd,
            imm16,
            hw,
        } => {
            let m = match op {
                MovOp::Movn => "movn",
                MovOp::Movz => "movz",
                MovOp::Movk => "movk",
            };
            let sh = if hw != 0 {
                format!(", lsl #{}", 16 * hw)
            } else {
                String::new()
            };
            format!("{m} {}, #{imm16}{sh}", xz(sf, rd))
        }
        Adr { rd, offset } => format!("adr {}, {offset}", xz(true, rd)),
        Adrp { rd, offset } => format!("adrp {}, {offset}", xz(true, rd)),
        Bitfield {
            op,
            sf,
            rd,
            rn,
            immr,
            imms,
        } => {
            let ds: u32 = if sf { 64 } else { 32 };
            // Recognise the common aliases.
            if op == BitfieldOp::Ubfm {
                if imms as u32 + 1 == immr as u32 {
                    return format!(
                        "lsl {}, {}, #{}",
                        xz(sf, rd),
                        xz(sf, rn),
                        ds - 1 - imms as u32
                    );
                }
                if imms as u32 == ds - 1 {
                    return format!("lsr {}, {}, #{immr}", xz(sf, rd), xz(sf, rn));
                }
                if immr == 0 && imms == 7 {
                    return format!("uxtb {}, {}", xz(sf, rd), xz(false, rn));
                }
                if immr == 0 && imms == 15 {
                    return format!("uxth {}, {}", xz(sf, rd), xz(false, rn));
                }
            }
            if op == BitfieldOp::Sbfm {
                if imms as u32 == ds - 1 {
                    return format!("asr {}, {}, #{immr}", xz(sf, rd), xz(sf, rn));
                }
                if immr == 0 && imms == 31 && sf {
                    return format!("sxtw {}, {}", xz(true, rd), xz(false, rn));
                }
            }
            let m = match op {
                BitfieldOp::Sbfm => "sbfm",
                BitfieldOp::Bfm => "bfm",
                BitfieldOp::Ubfm => "ubfm",
            };
            format!("{m} {}, {}, #{immr}, #{imms}", xz(sf, rd), xz(sf, rn))
        }
        Extr {
            sf,
            rd,
            rn,
            rm,
            lsb,
        } => {
            if rn == rm {
                format!("ror {}, {}, #{lsb}", xz(sf, rd), xz(sf, rn))
            } else {
                format!(
                    "extr {}, {}, {}, #{lsb}",
                    xz(sf, rd),
                    xz(sf, rn),
                    xz(sf, rm)
                )
            }
        }
        MulAdd {
            sub,
            sf,
            rd,
            rn,
            rm,
            ra,
        } => {
            if ra == 31 {
                let m = if sub { "mneg" } else { "mul" };
                format!("{m} {}, {}, {}", xz(sf, rd), xz(sf, rn), xz(sf, rm))
            } else {
                let m = if sub { "msub" } else { "madd" };
                format!(
                    "{m} {}, {}, {}, {}",
                    xz(sf, rd),
                    xz(sf, rn),
                    xz(sf, rm),
                    xz(sf, ra)
                )
            }
        }
        MulAddLong {
            sub,
            unsigned,
            rd,
            rn,
            rm,
            ra,
        } => {
            let m = match (unsigned, sub, ra) {
                (false, false, 31) => "smull",
                (true, false, 31) => "umull",
                (false, false, _) => "smaddl",
                (true, false, _) => "umaddl",
                (false, true, _) => "smsubl",
                (true, true, _) => "umsubl",
            };
            if ra == 31 && !sub {
                format!("{m} {}, {}, {}", xz(true, rd), xz(false, rn), xz(false, rm))
            } else {
                format!(
                    "{m} {}, {}, {}, {}",
                    xz(true, rd),
                    xz(false, rn),
                    xz(false, rm),
                    xz(true, ra)
                )
            }
        }
        MulHigh {
            unsigned,
            rd,
            rn,
            rm,
        } => {
            let m = if unsigned { "umulh" } else { "smulh" };
            format!("{m} {}, {}, {}", xz(true, rd), xz(true, rn), xz(true, rm))
        }
        Div {
            unsigned,
            sf,
            rd,
            rn,
            rm,
        } => {
            let m = if unsigned { "udiv" } else { "sdiv" };
            format!("{m} {}, {}, {}", xz(sf, rd), xz(sf, rn), xz(sf, rm))
        }
        ShiftV { op, sf, rd, rn, rm } => {
            let m = match op {
                ShiftVOp::Lslv => "lsl",
                ShiftVOp::Lsrv => "lsr",
                ShiftVOp::Asrv => "asr",
                ShiftVOp::Rorv => "ror",
            };
            format!("{m} {}, {}, {}", xz(sf, rd), xz(sf, rn), xz(sf, rm))
        }
        Unary1 { op, sf, rd, rn } => {
            let m = match op {
                Unary1Op::Rbit => "rbit",
                Unary1Op::Rev16 => "rev16",
                Unary1Op::Rev32 => "rev32",
                Unary1Op::Rev => "rev",
                Unary1Op::Clz => "clz",
                Unary1Op::Cls => "cls",
            };
            format!("{m} {}, {}", xz(sf, rd), xz(sf, rn))
        }
        CondSel {
            op,
            sf,
            rd,
            rn,
            rm,
            cond,
        } => {
            if op == CselOp::Csinc && rn == 31 && rm == 31 {
                return format!("cset {}, {}", xz(sf, rd), cond_name(cond.invert()));
            }
            let m = match op {
                CselOp::Csel => "csel",
                CselOp::Csinc => "csinc",
                CselOp::Csinv => "csinv",
                CselOp::Csneg => "csneg",
            };
            format!(
                "{m} {}, {}, {}, {}",
                xz(sf, rd),
                xz(sf, rn),
                xz(sf, rm),
                cond_name(cond)
            )
        }
        CondCmpReg {
            negative,
            sf,
            rn,
            rm,
            nzcv,
            cond,
        } => {
            let m = if negative { "ccmn" } else { "ccmp" };
            format!(
                "{m} {}, {}, #{nzcv}, {}",
                xz(sf, rn),
                xz(sf, rm),
                cond_name(cond)
            )
        }
        CondCmpImm {
            negative,
            sf,
            rn,
            imm5,
            nzcv,
            cond,
        } => {
            let m = if negative { "ccmn" } else { "ccmp" };
            format!("{m} {}, #{imm5}, #{nzcv}, {}", xz(sf, rn), cond_name(cond))
        }
        B { link, offset } => format!("{} {offset}", if link { "bl" } else { "b" }),
        BCond { cond, offset } => format!("b.{} {offset}", cond_name(cond)),
        Cbz {
            nonzero,
            sf,
            rt,
            offset,
        } => {
            let m = if nonzero { "cbnz" } else { "cbz" };
            format!("{m} {}, {offset}", xz(sf, rt))
        }
        Tbz {
            nonzero,
            rt,
            bit,
            offset,
        } => {
            let m = if nonzero { "tbnz" } else { "tbz" };
            format!("{m} {}, #{bit}, {offset}", xz(true, rt))
        }
        BrReg { link, ret, rn } => {
            if ret {
                if rn == 30 {
                    "ret".to_string()
                } else {
                    format!("ret {}", xz(true, rn))
                }
            } else if link {
                format!("blr {}", xz(true, rn))
            } else {
                format!("br {}", xz(true, rn))
            }
        }
        LdrImm {
            size,
            rt,
            rn,
            imm12,
        } => {
            let off = imm12 as u64 * size.bytes() as u64;
            fmt_mem_imm(mem_mnemonic(size, true), &mem_reg(size, rt), rn, off)
        }
        StrImm {
            size,
            rt,
            rn,
            imm12,
        } => {
            let off = imm12 as u64 * size.bytes() as u64;
            fmt_mem_imm(mem_mnemonic(size, false), &mem_reg(size, rt), rn, off)
        }
        LdrIdx {
            size,
            mode,
            rt,
            rn,
            simm9,
        } => fmt_mem_idx(
            mem_mnemonic(size, true),
            &mem_reg(size, rt),
            rn,
            simm9,
            mode,
            true,
        ),
        StrIdx {
            size,
            mode,
            rt,
            rn,
            simm9,
        } => fmt_mem_idx(
            mem_mnemonic(size, false),
            &mem_reg(size, rt),
            rn,
            simm9,
            mode,
            false,
        ),
        LdrReg {
            size,
            rt,
            rn,
            rm,
            extend,
            shift,
        } => fmt_mem_reg(
            mem_mnemonic(size, true),
            &mem_reg(size, rt),
            rn,
            rm,
            extend,
            shift,
            size.bytes(),
        ),
        StrReg {
            size,
            rt,
            rn,
            rm,
            extend,
            shift,
        } => fmt_mem_reg(
            mem_mnemonic(size, false),
            &mem_reg(size, rt),
            rn,
            rm,
            extend,
            shift,
            size.bytes(),
        ),
        Ldp {
            sf,
            mode,
            rt,
            rt2,
            rn,
            imm7,
        } => fmt_pair("ldp", sf, rt, rt2, rn, imm7, mode),
        Stp {
            sf,
            mode,
            rt,
            rt2,
            rn,
            imm7,
        } => fmt_pair("stp", sf, rt, rt2, rn, imm7, mode),
        LdrFpImm {
            size,
            rt,
            rn,
            imm12,
        } => {
            let off = imm12 as u64 * size.bytes() as u64;
            fmt_mem_imm("ldr", &fpreg(size, rt), rn, off)
        }
        StrFpImm {
            size,
            rt,
            rn,
            imm12,
        } => {
            let off = imm12 as u64 * size.bytes() as u64;
            fmt_mem_imm("str", &fpreg(size, rt), rn, off)
        }
        LdrFpIdx {
            size,
            mode,
            rt,
            rn,
            simm9,
        } => fmt_mem_idx("ldr", &fpreg(size, rt), rn, simm9, mode, true),
        StrFpIdx {
            size,
            mode,
            rt,
            rn,
            simm9,
        } => fmt_mem_idx("str", &fpreg(size, rt), rn, simm9, mode, false),
        LdrFpReg {
            size,
            rt,
            rn,
            rm,
            extend,
            shift,
        } => fmt_mem_reg("ldr", &fpreg(size, rt), rn, rm, extend, shift, size.bytes()),
        StrFpReg {
            size,
            rt,
            rn,
            rm,
            extend,
            shift,
        } => fmt_mem_reg("str", &fpreg(size, rt), rn, rm, extend, shift, size.bytes()),
        FpBin {
            op,
            size,
            rd,
            rn,
            rm,
        } => {
            let m = match op {
                FpBinOp::Fadd => "fadd",
                FpBinOp::Fsub => "fsub",
                FpBinOp::Fmul => "fmul",
                FpBinOp::Fdiv => "fdiv",
                FpBinOp::Fmax => "fmax",
                FpBinOp::Fmin => "fmin",
                FpBinOp::Fmaxnm => "fmaxnm",
                FpBinOp::Fminnm => "fminnm",
                FpBinOp::Fnmul => "fnmul",
            };
            format!(
                "{m} {}, {}, {}",
                fpreg(size, rd),
                fpreg(size, rn),
                fpreg(size, rm)
            )
        }
        FpUn { op, size, rd, rn } => {
            let m = match op {
                FpUnOp::Fmov => "fmov",
                FpUnOp::Fabs => "fabs",
                FpUnOp::Fneg => "fneg",
                FpUnOp::Fsqrt => "fsqrt",
            };
            format!("{m} {}, {}", fpreg(size, rd), fpreg(size, rn))
        }
        FpFma {
            op,
            size,
            rd,
            rn,
            rm,
            ra,
        } => {
            let m = match op {
                FpFmaOp::Fmadd => "fmadd",
                FpFmaOp::Fmsub => "fmsub",
                FpFmaOp::Fnmadd => "fnmadd",
                FpFmaOp::Fnmsub => "fnmsub",
            };
            format!(
                "{m} {}, {}, {}, {}",
                fpreg(size, rd),
                fpreg(size, rn),
                fpreg(size, rm),
                fpreg(size, ra)
            )
        }
        Fcmp { size, rn, rm, zero } => {
            if zero {
                format!("fcmp {}, #0.0", fpreg(size, rn))
            } else {
                format!("fcmp {}, {}", fpreg(size, rn), fpreg(size, rm))
            }
        }
        Fcsel {
            size,
            rd,
            rn,
            rm,
            cond,
        } => format!(
            "fcsel {}, {}, {}, {}",
            fpreg(size, rd),
            fpreg(size, rn),
            fpreg(size, rm),
            cond_name(cond)
        ),
        FcvtPrec { to, from, rd, rn } => {
            format!("fcvt {}, {}", fpreg(to, rd), fpreg(from, rn))
        }
        IntToFp {
            unsigned,
            sf,
            size,
            rd,
            rn,
        } => {
            let m = if unsigned { "ucvtf" } else { "scvtf" };
            format!("{m} {}, {}", fpreg(size, rd), xz(sf, rn))
        }
        FpToInt {
            unsigned,
            sf,
            size,
            rd,
            rn,
        } => {
            let m = if unsigned { "fcvtzu" } else { "fcvtzs" };
            format!("{m} {}, {}", xz(sf, rd), fpreg(size, rn))
        }
        FmovIntFp {
            to_fp,
            sf,
            size,
            rd,
            rn,
        } => {
            if to_fp {
                format!("fmov {}, {}", fpreg(size, rd), xz(sf, rn))
            } else {
                format!("fmov {}, {}", xz(sf, rd), fpreg(size, rn))
            }
        }
        FmovImm { size, rd, imm8 } => {
            format!("fmov {}, #{}", fpreg(size, rd), fp_imm8_to_f64(imm8))
        }
        Nop => "nop".to_string(),
        Svc { imm16 } => format!("svc #{imm16}"),
        Brk { imm16 } => format!("brk #{imm16}"),
    }
}

fn fmt_mem_imm(m: &str, rt: &str, rn: u8, off: u64) -> String {
    if off == 0 {
        format!("{m} {rt}, [{}]", xs(true, rn))
    } else {
        format!("{m} {rt}, [{}, #{off}]", xs(true, rn))
    }
}

fn fmt_mem_idx(m: &str, rt: &str, rn: u8, simm9: i16, mode: IndexMode, _load: bool) -> String {
    let base = xs(true, rn);
    match mode {
        IndexMode::Pre => format!("{m} {rt}, [{base}, #{simm9}]!"),
        IndexMode::Post => format!("{m} {rt}, [{base}], #{simm9}"),
        IndexMode::Unscaled => {
            let m = if m.starts_with("ldr") { "ldur" } else { "stur" };
            format!("{m} {rt}, [{base}, #{simm9}]")
        }
    }
}

fn fmt_mem_reg(
    m: &str,
    rt: &str,
    rn: u8,
    rm: u8,
    extend: Extend,
    shift: bool,
    bytes: u8,
) -> String {
    let base = xs(true, rn);
    let idx = match extend {
        Extend::Uxtx | Extend::Sxtx => xz(true, rm),
        _ => xz(false, rm),
    };
    let scale = bytes.trailing_zeros();
    match (extend, shift) {
        (Extend::Uxtx, false) => format!("{m} {rt}, [{base}, {idx}]"),
        (Extend::Uxtx, true) => format!("{m} {rt}, [{base}, {idx}, lsl #{scale}]"),
        (e, false) => format!("{m} {rt}, [{base}, {idx}, {}]", extend_name(e)),
        (e, true) => format!("{m} {rt}, [{base}, {idx}, {} #{scale}]", extend_name(e)),
    }
}

fn fmt_pair(
    m: &str,
    sf: bool,
    rt: u8,
    rt2: u8,
    rn: u8,
    imm7: i16,
    mode: Option<IndexMode>,
) -> String {
    let scale: i64 = if sf { 8 } else { 4 };
    let off = imm7 as i64 * scale;
    let (a, b, base) = (xz(sf, rt), xz(sf, rt2), xs(true, rn));
    match mode {
        None if off == 0 => format!("{m} {a}, {b}, [{base}]"),
        None => format!("{m} {a}, {b}, [{base}, #{off}]"),
        Some(IndexMode::Pre) => format!("{m} {a}, {b}, [{base}, #{off}]!"),
        Some(IndexMode::Post) => format!("{m} {a}, {b}, [{base}], #{off}"),
        Some(IndexMode::Unscaled) => unreachable!(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_listing_1_shapes() {
        // ldr d1, [x22, x0, lsl #3]
        assert_eq!(
            disassemble(&Inst::LdrFpReg {
                size: FpSize::D,
                rt: 1,
                rn: 22,
                rm: 0,
                extend: Extend::Uxtx,
                shift: true
            }),
            "ldr d1, [x22, x0, lsl #3]"
        );
        // str d1, [x19, x0, lsl #3]
        assert_eq!(
            disassemble(&Inst::StrFpReg {
                size: FpSize::D,
                rt: 1,
                rn: 19,
                rm: 0,
                extend: Extend::Uxtx,
                shift: true
            }),
            "str d1, [x19, x0, lsl #3]"
        );
        // add x0, x0, #1
        assert_eq!(
            disassemble(&Inst::AddSubImm {
                sub: false,
                set_flags: false,
                sf: true,
                rd: 0,
                rn: 0,
                imm12: 1,
                shift12: false
            }),
            "add x0, x0, #1"
        );
        // cmp x0, x20
        assert_eq!(
            disassemble(&Inst::AddSubShifted {
                sub: true,
                set_flags: true,
                sf: true,
                rd: 31,
                rn: 0,
                rm: 20,
                shift: ShiftType::Lsl,
                amount: 0
            }),
            "cmp x0, x20"
        );
        // b.ne -8
        assert_eq!(
            disassemble(&Inst::BCond {
                cond: Cond::Ne,
                offset: -8
            }),
            "b.ne -8"
        );
    }

    #[test]
    fn aliases() {
        assert_eq!(
            disassemble(&Inst::BrReg {
                link: false,
                ret: true,
                rn: 30
            }),
            "ret"
        );
        assert_eq!(
            disassemble(&Inst::MulAdd {
                sub: false,
                sf: true,
                rd: 0,
                rn: 1,
                rm: 2,
                ra: 31
            }),
            "mul x0, x1, x2"
        );
        // lsl x1, x2, #3 == ubfm x1, x2, #61, #60
        assert_eq!(
            disassemble(&Inst::Bitfield {
                op: BitfieldOp::Ubfm,
                sf: true,
                rd: 1,
                rn: 2,
                immr: 61,
                imms: 60
            }),
            "lsl x1, x2, #3"
        );
        assert_eq!(
            disassemble(&Inst::LogicalShifted {
                op: LogicOp::Orr,
                sf: true,
                rd: 3,
                rn: 31,
                rm: 4,
                shift: ShiftType::Lsl,
                amount: 0
            }),
            "mov x3, x4"
        );
    }

    #[test]
    fn pre_post_index_forms() {
        assert_eq!(
            disassemble(&Inst::LdrFpIdx {
                size: FpSize::D,
                mode: IndexMode::Post,
                rt: 0,
                rn: 1,
                simm9: 8
            }),
            "ldr d0, [x1], #8"
        );
        assert_eq!(
            disassemble(&Inst::StrIdx {
                size: MemSize::X,
                mode: IndexMode::Pre,
                rt: 0,
                rn: 31,
                simm9: -16
            }),
            "str x0, [sp, #-16]!"
        );
    }
}
