//! A64 binary decoder (scalar subset).
//!
//! Decoding follows the architectural top-level grouping on bits 28:25,
//! then the per-group fields from the Arm ARM.

use crate::bitmask::decode_bitmask;
use crate::inst::*;

/// Decode error: the word is not an instruction in the supported subset.
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
    (w & 0x1F) as u8
}
#[inline]
fn rn(w: u32) -> u8 {
    ((w >> 5) & 0x1F) as u8
}
#[inline]
fn rm(w: u32) -> u8 {
    ((w >> 16) & 0x1F) as u8
}
#[inline]
fn ra(w: u32) -> u8 {
    ((w >> 10) & 0x1F) as u8
}
#[inline]
fn sf(w: u32) -> bool {
    w >> 31 != 0
}

/// Sign-extend the low `bits` bits of `v`.
#[inline]
fn sext(v: u32, bits: u32) -> i64 {
    let shift = 64 - bits;
    ((v as u64) << shift) as i64 >> shift
}

fn shift_type(b: u32) -> ShiftType {
    match b & 3 {
        0 => ShiftType::Lsl,
        1 => ShiftType::Lsr,
        2 => ShiftType::Asr,
        _ => ShiftType::Ror,
    }
}

fn mem_size_from(size: u32, opc: u32) -> Result<(MemSize, bool), DecodeError> {
    // Returns (size, is_load).
    match (size, opc) {
        (0b00, 0b00) => Ok((MemSize::B, false)),
        (0b00, 0b01) => Ok((MemSize::B, true)),
        (0b00, 0b10) => Ok((MemSize::Sb, true)),
        (0b01, 0b00) => Ok((MemSize::H, false)),
        (0b01, 0b01) => Ok((MemSize::H, true)),
        (0b01, 0b10) => Ok((MemSize::Sh, true)),
        (0b10, 0b00) => Ok((MemSize::W, false)),
        (0b10, 0b01) => Ok((MemSize::W, true)),
        (0b10, 0b10) => Ok((MemSize::Sw, true)),
        (0b11, 0b00) => Ok((MemSize::X, false)),
        (0b11, 0b01) => Ok((MemSize::X, true)),
        _ => err(format!("load/store size/opc {size:#b}/{opc:#b}")),
    }
}

fn fp_size_from(size: u32) -> Result<FpSize, DecodeError> {
    match size {
        0b10 => Ok(FpSize::S),
        0b11 => Ok(FpSize::D),
        _ => err(format!("FP load/store size {size:#b}")),
    }
}

fn fp_type_from(t: u32) -> Result<FpSize, DecodeError> {
    match t {
        0b00 => Ok(FpSize::S),
        0b01 => Ok(FpSize::D),
        _ => err(format!("FP type {t:#b}")),
    }
}

/// Decode a 32-bit A64 instruction word.
pub fn decode(w: u32) -> Result<Inst, DecodeError> {
    if w == 0xD503_201F {
        return Ok(Inst::Nop);
    }
    if w & 0xFFE0_001F == 0xD400_0001 {
        return Ok(Inst::Svc {
            imm16: ((w >> 5) & 0xFFFF) as u16,
        });
    }
    if w & 0xFFE0_001F == 0xD420_0000 {
        return Ok(Inst::Brk {
            imm16: ((w >> 5) & 0xFFFF) as u16,
        });
    }
    match (w >> 25) & 0xF {
        0b1000 | 0b1001 => decode_dp_imm(w),
        0b1010 | 0b1011 => decode_branch(w),
        0b0100 | 0b0110 | 0b1100 | 0b1110 => decode_loadstore(w),
        0b0101 | 0b1101 => decode_dp_reg(w),
        0b0111 | 0b1111 => decode_fp(w),
        op0 => err(format!("unallocated op0 {op0:#06b}")),
    }
}

fn decode_dp_imm(w: u32) -> Result<Inst, DecodeError> {
    match (w >> 23) & 0x7 {
        0b000 | 0b001 => {
            // ADR / ADRP
            let immlo = (w >> 29) & 0x3;
            let immhi = (w >> 5) & 0x7_FFFF;
            let imm21 = sext((immhi << 2) | immlo, 21);
            if w >> 31 == 0 {
                Ok(Inst::Adr {
                    rd: rd(w),
                    offset: imm21,
                })
            } else {
                Ok(Inst::Adrp {
                    rd: rd(w),
                    offset: imm21 << 12,
                })
            }
        }
        0b010 => {
            let sub = (w >> 30) & 1 != 0;
            let set_flags = (w >> 29) & 1 != 0;
            let shift12 = (w >> 22) & 1 != 0;
            Ok(Inst::AddSubImm {
                sub,
                set_flags,
                sf: sf(w),
                rd: rd(w),
                rn: rn(w),
                imm12: ((w >> 10) & 0xFFF) as u16,
                shift12,
            })
        }
        0b100 => {
            let opc = (w >> 29) & 3;
            let op = match opc {
                0b00 => LogicOp::And,
                0b01 => LogicOp::Orr,
                0b10 => LogicOp::Eor,
                _ => LogicOp::Ands,
            };
            let n = (w >> 22) & 1;
            if !sf(w) && n != 0 {
                return err("logical imm with sf=0, N=1");
            }
            let imm =
                decode_bitmask(sf(w), n, (w >> 16) & 0x3F, (w >> 10) & 0x3F).ok_or_else(|| {
                    DecodeError {
                        msg: "reserved bitmask immediate".into(),
                    }
                })?;
            Ok(Inst::LogicalImm {
                op,
                sf: sf(w),
                rd: rd(w),
                rn: rn(w),
                imm,
            })
        }
        0b101 => {
            let opc = (w >> 29) & 3;
            let op = match opc {
                0b00 => MovOp::Movn,
                0b10 => MovOp::Movz,
                0b11 => MovOp::Movk,
                _ => return err("move-wide opc 01"),
            };
            let hw = ((w >> 21) & 3) as u8;
            if !sf(w) && hw > 1 {
                return err("move-wide hw > 1 with sf=0");
            }
            Ok(Inst::MovWide {
                op,
                sf: sf(w),
                rd: rd(w),
                imm16: ((w >> 5) & 0xFFFF) as u16,
                hw,
            })
        }
        0b110 => {
            let opc = (w >> 29) & 3;
            let op = match opc {
                0b00 => BitfieldOp::Sbfm,
                0b01 => BitfieldOp::Bfm,
                0b10 => BitfieldOp::Ubfm,
                _ => return err("bitfield opc 11"),
            };
            let n = (w >> 22) & 1;
            if n != u32::from(sf(w)) {
                return err("bitfield N != sf");
            }
            let immr = ((w >> 16) & 0x3F) as u8;
            let imms = ((w >> 10) & 0x3F) as u8;
            if !sf(w) && (immr > 31 || imms > 31) {
                return err("bitfield immr/imms out of range for 32-bit");
            }
            Ok(Inst::Bitfield {
                op,
                sf: sf(w),
                rd: rd(w),
                rn: rn(w),
                immr,
                imms,
            })
        }
        0b111 => {
            // EXTR
            if (w >> 29) & 3 != 0 || (w >> 21) & 1 != 0 {
                return err("extract opc/o0 unallocated");
            }
            let n = (w >> 22) & 1;
            if n != u32::from(sf(w)) {
                return err("extr N != sf");
            }
            let lsb = ((w >> 10) & 0x3F) as u8;
            if !sf(w) && lsb > 31 {
                return err("extr lsb out of range for 32-bit");
            }
            Ok(Inst::Extr {
                sf: sf(w),
                rd: rd(w),
                rn: rn(w),
                rm: rm(w),
                lsb,
            })
        }
        g => err(format!("dp-imm group {g:#b}")),
    }
}

fn decode_branch(w: u32) -> Result<Inst, DecodeError> {
    if (w >> 26) & 0x1F == 0b00101 {
        let link = w >> 31 != 0;
        return Ok(Inst::B {
            link,
            offset: sext(w & 0x03FF_FFFF, 26) << 2,
        });
    }
    if w >> 24 == 0b0101_0100 && w & 0x10 == 0 {
        return Ok(Inst::BCond {
            cond: Cond::from_bits(w & 0xF),
            offset: sext((w >> 5) & 0x7_FFFF, 19) << 2,
        });
    }
    if (w >> 25) & 0x3F == 0b011010 {
        return Ok(Inst::Cbz {
            nonzero: (w >> 24) & 1 != 0,
            sf: sf(w),
            rt: rd(w),
            offset: sext((w >> 5) & 0x7_FFFF, 19) << 2,
        });
    }
    if (w >> 25) & 0x3F == 0b011011 {
        let bit = (((w >> 31) & 1) << 5 | ((w >> 19) & 0x1F)) as u8;
        return Ok(Inst::Tbz {
            nonzero: (w >> 24) & 1 != 0,
            rt: rd(w),
            bit,
            offset: sext((w >> 5) & 0x3FFF, 14) << 2,
        });
    }
    match w & 0xFFFF_FC1F {
        0xD61F_0000 => {
            return Ok(Inst::BrReg {
                link: false,
                ret: false,
                rn: rn(w),
            })
        }
        0xD63F_0000 => {
            return Ok(Inst::BrReg {
                link: true,
                ret: false,
                rn: rn(w),
            })
        }
        0xD65F_0000 => {
            return Ok(Inst::BrReg {
                link: false,
                ret: true,
                rn: rn(w),
            })
        }
        _ => {}
    }
    err(format!("unsupported branch/system word {w:#010x}"))
}

fn decode_loadstore(w: u32) -> Result<Inst, DecodeError> {
    match (w >> 27) & 0x7 {
        0b101 => {
            // Load/store pair.
            let opc = w >> 30;
            let v = (w >> 26) & 1;
            if v != 0 {
                return err("FP register pairs not in subset");
            }
            let sf = match opc {
                0b10 => true,
                0b00 => false,
                _ => return err(format!("ldp/stp opc {opc:#b}")),
            };
            let mode = match (w >> 23) & 0x3 {
                0b01 => Some(IndexMode::Post),
                0b10 => None,
                0b11 => Some(IndexMode::Pre),
                _ => return err("ldp/stp non-temporal not in subset"),
            };
            let load = (w >> 22) & 1 != 0;
            let imm7 = sext((w >> 15) & 0x7F, 7) as i16;
            let (rt, rt2, rn) = (rd(w), ra(w), rn(w));
            Ok(if load {
                Inst::Ldp {
                    sf,
                    mode,
                    rt,
                    rt2,
                    rn,
                    imm7,
                }
            } else {
                Inst::Stp {
                    sf,
                    mode,
                    rt,
                    rt2,
                    rn,
                    imm7,
                }
            })
        }
        0b111 => {
            let size = w >> 30;
            let v = (w >> 26) & 1;
            let opc = (w >> 22) & 3;
            if (w >> 24) & 3 == 0b01 {
                // Unsigned immediate offset.
                let imm12 = ((w >> 10) & 0xFFF) as u16;
                if v == 1 {
                    let fsz = fp_size_from(size)?;
                    return Ok(match opc {
                        0b01 => Inst::LdrFpImm {
                            size: fsz,
                            rt: rd(w),
                            rn: rn(w),
                            imm12,
                        },
                        0b00 => Inst::StrFpImm {
                            size: fsz,
                            rt: rd(w),
                            rn: rn(w),
                            imm12,
                        },
                        _ => return err("FP load/store opc"),
                    });
                }
                let (msz, load) = mem_size_from(size, opc)?;
                return Ok(if load {
                    Inst::LdrImm {
                        size: msz,
                        rt: rd(w),
                        rn: rn(w),
                        imm12,
                    }
                } else {
                    Inst::StrImm {
                        size: msz,
                        rt: rd(w),
                        rn: rn(w),
                        imm12,
                    }
                });
            }
            if (w >> 24) & 3 == 0b00 {
                if (w >> 21) & 1 == 1 {
                    // Register offset (bits 11:10 must be 10).
                    if (w >> 10) & 3 != 0b10 {
                        return err("register-offset load/store bits 11:10");
                    }
                    let extend = Extend::from_bits((w >> 13) & 7);
                    if !matches!(
                        extend,
                        Extend::Uxtw | Extend::Uxtx | Extend::Sxtw | Extend::Sxtx
                    ) {
                        return err("register-offset extend option");
                    }
                    let shift = (w >> 12) & 1 != 0;
                    if v == 1 {
                        let fsz = fp_size_from(size)?;
                        return Ok(match opc {
                            0b01 => Inst::LdrFpReg {
                                size: fsz,
                                rt: rd(w),
                                rn: rn(w),
                                rm: rm(w),
                                extend,
                                shift,
                            },
                            0b00 => Inst::StrFpReg {
                                size: fsz,
                                rt: rd(w),
                                rn: rn(w),
                                rm: rm(w),
                                extend,
                                shift,
                            },
                            _ => return err("FP reg-offset opc"),
                        });
                    }
                    let (msz, load) = mem_size_from(size, opc)?;
                    return Ok(if load {
                        Inst::LdrReg {
                            size: msz,
                            rt: rd(w),
                            rn: rn(w),
                            rm: rm(w),
                            extend,
                            shift,
                        }
                    } else {
                        Inst::StrReg {
                            size: msz,
                            rt: rd(w),
                            rn: rn(w),
                            rm: rm(w),
                            extend,
                            shift,
                        }
                    });
                }
                // Immediate 9-bit forms.
                let mode = match (w >> 10) & 3 {
                    0b00 => IndexMode::Unscaled,
                    0b01 => IndexMode::Post,
                    0b11 => IndexMode::Pre,
                    _ => return err("unprivileged load/store not in subset"),
                };
                let simm9 = sext((w >> 12) & 0x1FF, 9) as i16;
                if v == 1 {
                    let fsz = fp_size_from(size)?;
                    return Ok(match opc {
                        0b01 => Inst::LdrFpIdx {
                            size: fsz,
                            mode,
                            rt: rd(w),
                            rn: rn(w),
                            simm9,
                        },
                        0b00 => Inst::StrFpIdx {
                            size: fsz,
                            mode,
                            rt: rd(w),
                            rn: rn(w),
                            simm9,
                        },
                        _ => return err("FP indexed opc"),
                    });
                }
                let (msz, load) = mem_size_from(size, opc)?;
                return Ok(if load {
                    Inst::LdrIdx {
                        size: msz,
                        mode,
                        rt: rd(w),
                        rn: rn(w),
                        simm9,
                    }
                } else {
                    Inst::StrIdx {
                        size: msz,
                        mode,
                        rt: rd(w),
                        rn: rn(w),
                        simm9,
                    }
                });
            }
            err("load/store sub-group not in subset")
        }
        g => err(format!("load/store group {g:#b}")),
    }
}

fn decode_dp_reg(w: u32) -> Result<Inst, DecodeError> {
    let op_bits = (w >> 24) & 0x1F; // bits 28:24
    if op_bits == 0b01011 {
        let sub = (w >> 30) & 1 != 0;
        let set_flags = (w >> 29) & 1 != 0;
        if (w >> 21) & 1 == 0 {
            // Shifted register.
            let shift = shift_type((w >> 22) & 3);
            if shift == ShiftType::Ror {
                return err("add/sub shifted with ROR");
            }
            let amount = ((w >> 10) & 0x3F) as u8;
            if !sf(w) && amount > 31 {
                return err("shift amount > 31 with sf=0");
            }
            return Ok(Inst::AddSubShifted {
                sub,
                set_flags,
                sf: sf(w),
                rd: rd(w),
                rn: rn(w),
                rm: rm(w),
                shift,
                amount,
            });
        }
        // Extended register: bits 23:22 must be 00.
        if (w >> 22) & 3 != 0 {
            return err("add/sub extended opt != 00");
        }
        let amount = ((w >> 10) & 0x7) as u8;
        if amount > 4 {
            return err("extended-register shift > 4");
        }
        return Ok(Inst::AddSubExtended {
            sub,
            set_flags,
            sf: sf(w),
            rd: rd(w),
            rn: rn(w),
            rm: rm(w),
            extend: Extend::from_bits((w >> 13) & 7),
            amount,
        });
    }
    if op_bits == 0b01010 {
        let opc = (w >> 29) & 3;
        let n = (w >> 21) & 1;
        let op = match (opc, n) {
            (0b00, 0) => LogicOp::And,
            (0b00, 1) => LogicOp::Bic,
            (0b01, 0) => LogicOp::Orr,
            (0b01, 1) => LogicOp::Orn,
            (0b10, 0) => LogicOp::Eor,
            (0b10, 1) => LogicOp::Eon,
            (0b11, 0) => LogicOp::Ands,
            _ => LogicOp::Bics,
        };
        let amount = ((w >> 10) & 0x3F) as u8;
        if !sf(w) && amount > 31 {
            return err("logical shift amount > 31 with sf=0");
        }
        return Ok(Inst::LogicalShifted {
            op,
            sf: sf(w),
            rd: rd(w),
            rn: rn(w),
            rm: rm(w),
            shift: shift_type((w >> 22) & 3),
            amount,
        });
    }
    if op_bits == 0b11011 {
        // 3-source.
        let op31 = (w >> 21) & 0x7;
        let o0 = (w >> 15) & 1;
        let top = (w >> 29) & 3;
        if top != 0 {
            return err("dp-3source opc54 != 00");
        }
        match op31 {
            0b000 => {
                return Ok(Inst::MulAdd {
                    sub: o0 != 0,
                    sf: sf(w),
                    rd: rd(w),
                    rn: rn(w),
                    rm: rm(w),
                    ra: ra(w),
                })
            }
            0b001 | 0b101 => {
                if !sf(w) {
                    return err("maddl requires sf=1");
                }
                return Ok(Inst::MulAddLong {
                    sub: o0 != 0,
                    unsigned: op31 == 0b101,
                    rd: rd(w),
                    rn: rn(w),
                    rm: rm(w),
                    ra: ra(w),
                });
            }
            0b010 | 0b110 => {
                if !sf(w) || o0 != 0 || ra(w) != 0b11111 {
                    return err("mulh encoding");
                }
                return Ok(Inst::MulHigh {
                    unsigned: op31 == 0b110,
                    rd: rd(w),
                    rn: rn(w),
                    rm: rm(w),
                });
            }
            _ => return err(format!("dp-3source op31 {op31:#b}")),
        }
    }
    if (w >> 21) & 0xFF == 0b11010110 && (w >> 29) & 3 == 0b00 {
        // 2-source.
        let opcode = (w >> 10) & 0x3F;
        match opcode {
            0b000010 => {
                return Ok(Inst::Div {
                    unsigned: true,
                    sf: sf(w),
                    rd: rd(w),
                    rn: rn(w),
                    rm: rm(w),
                })
            }
            0b000011 => {
                return Ok(Inst::Div {
                    unsigned: false,
                    sf: sf(w),
                    rd: rd(w),
                    rn: rn(w),
                    rm: rm(w),
                })
            }
            0b001000..=0b001011 => {
                let op = match opcode & 3 {
                    0 => ShiftVOp::Lslv,
                    1 => ShiftVOp::Lsrv,
                    2 => ShiftVOp::Asrv,
                    _ => ShiftVOp::Rorv,
                };
                return Ok(Inst::ShiftV {
                    op,
                    sf: sf(w),
                    rd: rd(w),
                    rn: rn(w),
                    rm: rm(w),
                });
            }
            _ => return err(format!("dp-2source opcode {opcode:#b}")),
        }
    }
    if (w >> 21) & 0xFF == 0b11010110 && (w >> 29) & 3 == 0b10 {
        // 1-source.
        if rm(w) != 0 {
            return err("dp-1source opcode2 != 0");
        }
        let opcode = (w >> 10) & 0x3F;
        let op = match (opcode, sf(w)) {
            (0b000000, _) => Unary1Op::Rbit,
            (0b000001, _) => Unary1Op::Rev16,
            (0b000010, false) => Unary1Op::Rev,
            (0b000010, true) => Unary1Op::Rev32,
            (0b000011, true) => Unary1Op::Rev,
            (0b000100, _) => Unary1Op::Clz,
            (0b000101, _) => Unary1Op::Cls,
            _ => return err(format!("dp-1source opcode {opcode:#b}")),
        };
        return Ok(Inst::Unary1 {
            op,
            sf: sf(w),
            rd: rd(w),
            rn: rn(w),
        });
    }
    if (w >> 21) & 0xFF == 0b11010100 && (w >> 29) & 1 == 0 {
        // Conditional select.
        let o = (w >> 30) & 1;
        let op2 = (w >> 10) & 3;
        let op = match (o, op2) {
            (0, 0b00) => CselOp::Csel,
            (0, 0b01) => CselOp::Csinc,
            (1, 0b00) => CselOp::Csinv,
            (1, 0b01) => CselOp::Csneg,
            _ => return err("csel op2"),
        };
        return Ok(Inst::CondSel {
            op,
            sf: sf(w),
            rd: rd(w),
            rn: rn(w),
            rm: rm(w),
            cond: Cond::from_bits((w >> 12) & 0xF),
        });
    }
    if (w >> 21) & 0xFF == 0b11010010 && (w >> 29) & 1 == 1 {
        // Conditional compare.
        if (w >> 10) & 1 != 0 || (w >> 4) & 1 != 0 {
            return err("ccmp o2/o3");
        }
        let negative = (w >> 30) & 1 == 0; // op=0 is CCMN
        let nzcv = (w & 0xF) as u8;
        let cond = Cond::from_bits((w >> 12) & 0xF);
        if (w >> 11) & 1 == 1 {
            return Ok(Inst::CondCmpImm {
                negative,
                sf: sf(w),
                rn: rn(w),
                imm5: rm(w),
                nzcv,
                cond,
            });
        }
        return Ok(Inst::CondCmpReg {
            negative,
            sf: sf(w),
            rn: rn(w),
            rm: rm(w),
            nzcv,
            cond,
        });
    }
    err(format!("unsupported dp-reg word {w:#010x}"))
}

fn decode_fp(w: u32) -> Result<Inst, DecodeError> {
    if (w >> 24) & 0x7F == 0b0011111 {
        // 3-source FMA.
        let size = fp_type_from((w >> 22) & 3)?;
        let o1 = (w >> 21) & 1;
        let o0 = (w >> 15) & 1;
        let op = match (o1, o0) {
            (0, 0) => FpFmaOp::Fmadd,
            (0, 1) => FpFmaOp::Fmsub,
            (1, 0) => FpFmaOp::Fnmadd,
            _ => FpFmaOp::Fnmsub,
        };
        return Ok(Inst::FpFma {
            op,
            size,
            rd: rd(w),
            rn: rn(w),
            rm: rm(w),
            ra: ra(w),
        });
    }
    if (w >> 24) & 0x7F != 0b0011110 || (w >> 21) & 1 != 1 {
        return err(format!("unsupported fp word {w:#010x}"));
    }
    let size = fp_type_from((w >> 22) & 3)?;
    let bits15_10 = (w >> 10) & 0x3F;
    if bits15_10 == 0b000000 {
        // FP <-> integer.
        let rmode = (w >> 19) & 3;
        let opcode = (w >> 16) & 7;
        let sfb = sf(w);
        return match (rmode, opcode) {
            (0b00, 0b010) => Ok(Inst::IntToFp {
                unsigned: false,
                sf: sfb,
                size,
                rd: rd(w),
                rn: rn(w),
            }),
            (0b00, 0b011) => Ok(Inst::IntToFp {
                unsigned: true,
                sf: sfb,
                size,
                rd: rd(w),
                rn: rn(w),
            }),
            (0b11, 0b000) => Ok(Inst::FpToInt {
                unsigned: false,
                sf: sfb,
                size,
                rd: rd(w),
                rn: rn(w),
            }),
            (0b11, 0b001) => Ok(Inst::FpToInt {
                unsigned: true,
                sf: sfb,
                size,
                rd: rd(w),
                rn: rn(w),
            }),
            (0b00, 0b110) => {
                // fmov to int requires matching sizes (w<->s, x<->d).
                if sfb != (size == FpSize::D) {
                    return err("fmov size/sf mismatch");
                }
                Ok(Inst::FmovIntFp {
                    to_fp: false,
                    sf: sfb,
                    size,
                    rd: rd(w),
                    rn: rn(w),
                })
            }
            (0b00, 0b111) => {
                if sfb != (size == FpSize::D) {
                    return err("fmov size/sf mismatch");
                }
                Ok(Inst::FmovIntFp {
                    to_fp: true,
                    sf: sfb,
                    size,
                    rd: rd(w),
                    rn: rn(w),
                })
            }
            _ => err(format!("fp<->int rmode/opcode {rmode:#b}/{opcode:#b}")),
        };
    }
    if sf(w) {
        return err("fp data-processing with sf=1");
    }
    if bits15_10 == 0b001000 {
        let opcode2 = w & 0x1F;
        return match opcode2 {
            0b00000 => Ok(Inst::Fcmp {
                size,
                rn: rn(w),
                rm: rm(w),
                zero: false,
            }),
            0b01000 => {
                if rm(w) != 0 {
                    return err("fcmp-zero with rm != 0");
                }
                Ok(Inst::Fcmp {
                    size,
                    rn: rn(w),
                    rm: 0,
                    zero: true,
                })
            }
            _ => err(format!("fcmp opcode2 {opcode2:#b}")),
        };
    }
    if bits15_10 & 0b000111 == 0b000100 && rn(w) == 0 {
        // FMOV immediate (bits 12:10 == 100, bits 9:5 == 0).
        let imm8 = ((w >> 13) & 0xFF) as u8;
        return Ok(Inst::FmovImm {
            size,
            rd: rd(w),
            imm8,
        });
    }
    match bits15_10 & 0b11 {
        0b10 => {
            let opcode = (w >> 12) & 0xF;
            let op = match opcode {
                0b0000 => FpBinOp::Fmul,
                0b0001 => FpBinOp::Fdiv,
                0b0010 => FpBinOp::Fadd,
                0b0011 => FpBinOp::Fsub,
                0b0100 => FpBinOp::Fmax,
                0b0101 => FpBinOp::Fmin,
                0b0110 => FpBinOp::Fmaxnm,
                0b0111 => FpBinOp::Fminnm,
                0b1000 => FpBinOp::Fnmul,
                _ => return err(format!("fp binop opcode {opcode:#b}")),
            };
            Ok(Inst::FpBin {
                op,
                size,
                rd: rd(w),
                rn: rn(w),
                rm: rm(w),
            })
        }
        0b11 => Ok(Inst::Fcsel {
            size,
            rd: rd(w),
            rn: rn(w),
            rm: rm(w),
            cond: Cond::from_bits((w >> 12) & 0xF),
        }),
        0b00 if (w >> 10) & 0x1F == 0b10000 => {
            let opcode = (w >> 15) & 0x3F;
            match opcode {
                0b000000 => Ok(Inst::FpUn {
                    op: FpUnOp::Fmov,
                    size,
                    rd: rd(w),
                    rn: rn(w),
                }),
                0b000001 => Ok(Inst::FpUn {
                    op: FpUnOp::Fabs,
                    size,
                    rd: rd(w),
                    rn: rn(w),
                }),
                0b000010 => Ok(Inst::FpUn {
                    op: FpUnOp::Fneg,
                    size,
                    rd: rd(w),
                    rn: rn(w),
                }),
                0b000011 => Ok(Inst::FpUn {
                    op: FpUnOp::Fsqrt,
                    size,
                    rd: rd(w),
                    rn: rn(w),
                }),
                0b000100 | 0b000101 => {
                    let to = if opcode & 1 == 0 {
                        FpSize::S
                    } else {
                        FpSize::D
                    };
                    if to == size {
                        return err("fcvt to same precision");
                    }
                    Ok(Inst::FcvtPrec {
                        to,
                        from: size,
                        rd: rd(w),
                        rn: rn(w),
                    })
                }
                _ => err(format!("fp 1-source opcode {opcode:#b}")),
            }
        }
        _ => err(format!("unsupported fp word {w:#010x}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode;

    #[test]
    fn decode_golden_words() {
        assert_eq!(decode(0xD503_201F).unwrap(), Inst::Nop);
        assert_eq!(
            decode(0x8B02_0020).unwrap(),
            Inst::AddSubShifted {
                sub: false,
                set_flags: false,
                sf: true,
                rd: 0,
                rn: 1,
                rm: 2,
                shift: ShiftType::Lsl,
                amount: 0
            }
        );
        assert_eq!(
            decode(0xEB14_001F).unwrap(),
            Inst::AddSubShifted {
                sub: true,
                set_flags: true,
                sf: true,
                rd: 31,
                rn: 0,
                rm: 20,
                shift: ShiftType::Lsl,
                amount: 0
            }
        );
        assert_eq!(
            decode(0xFC60_7AC1).unwrap(),
            Inst::LdrFpReg {
                size: FpSize::D,
                rt: 1,
                rn: 22,
                rm: 0,
                extend: Extend::Uxtx,
                shift: true
            }
        );
        assert_eq!(
            decode(0x54FF_FFC1).unwrap(),
            Inst::BCond {
                cond: Cond::Ne,
                offset: -8
            }
        );
    }

    #[test]
    fn negative_offsets_sign_extend() {
        let i = Inst::B {
            link: false,
            offset: -1024,
        };
        assert_eq!(decode(encode(&i)).unwrap(), i);
        let i = Inst::Ldp {
            sf: true,
            mode: None,
            rt: 0,
            rt2: 1,
            rn: 2,
            imm7: -64,
        };
        assert_eq!(decode(encode(&i)).unwrap(), i);
        let i = Inst::LdrIdx {
            size: MemSize::X,
            mode: IndexMode::Pre,
            rt: 3,
            rn: 4,
            simm9: -256,
        };
        assert_eq!(decode(encode(&i)).unwrap(), i);
    }

    #[test]
    fn adrp_page_offsets() {
        let i = Inst::Adrp {
            rd: 1,
            offset: 0x3000,
        };
        assert_eq!(decode(encode(&i)).unwrap(), i);
        let i = Inst::Adrp {
            rd: 1,
            offset: -(0x5000i64),
        };
        assert_eq!(decode(encode(&i)).unwrap(), i);
    }

    #[test]
    fn garbage_rejected() {
        assert!(decode(0x0000_0000).is_err());
        assert!(decode(0xFFFF_FFFF).is_err());
    }
}
