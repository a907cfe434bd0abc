//! Property tests: encodable A64 instructions round-trip through the binary
//! encoding; the decoder never panics on arbitrary words.

use isa_aarch64::bitmask::{decode_bitmask, encode_bitmask};
use isa_aarch64::*;
use proptest::prelude::*;

fn reg() -> impl Strategy<Value = u8> {
    0u8..32
}

fn reg30() -> impl Strategy<Value = u8> {
    0u8..31
}

fn cond() -> impl Strategy<Value = Cond> {
    (0u32..16).prop_map(Cond::from_bits)
}

fn fp_size() -> impl Strategy<Value = FpSize> {
    prop_oneof![Just(FpSize::S), Just(FpSize::D)]
}

fn mem_size() -> impl Strategy<Value = MemSize> {
    prop_oneof![
        Just(MemSize::B),
        Just(MemSize::H),
        Just(MemSize::W),
        Just(MemSize::X),
        Just(MemSize::Sb),
        Just(MemSize::Sh),
        Just(MemSize::Sw)
    ]
}

fn index_mode() -> impl Strategy<Value = IndexMode> {
    prop_oneof![
        Just(IndexMode::Pre),
        Just(IndexMode::Post),
        Just(IndexMode::Unscaled)
    ]
}

fn ldst_extend() -> impl Strategy<Value = Extend> {
    prop_oneof![
        Just(Extend::Uxtw),
        Just(Extend::Uxtx),
        Just(Extend::Sxtw),
        Just(Extend::Sxtx)
    ]
}

/// A valid bitmask immediate (generated from valid fields).
fn bitmask_imm(sf: bool) -> impl Strategy<Value = u64> {
    let max_n = if sf { 1u32 } else { 0 };
    (0..=max_n, 0u32..64, 0u32..64).prop_filter_map("reserved bitmask", move |(n, immr, imms)| {
        decode_bitmask(sf, n, immr, imms)
    })
}

fn simm9() -> impl Strategy<Value = i16> {
    -256i16..256
}

fn b_offset() -> impl Strategy<Value = i64> {
    (-(1i64 << 25)..(1 << 25)).prop_map(|v| v * 4)
}

fn b19_offset() -> impl Strategy<Value = i64> {
    (-(1i64 << 18)..(1 << 18)).prop_map(|v| v * 4)
}

fn any_inst() -> impl Strategy<Value = Inst> {
    let shift = prop_oneof![
        Just(ShiftType::Lsl),
        Just(ShiftType::Lsr),
        Just(ShiftType::Asr)
    ];
    let logic_shift = prop_oneof![
        Just(ShiftType::Lsl),
        Just(ShiftType::Lsr),
        Just(ShiftType::Asr),
        Just(ShiftType::Ror)
    ];
    let logic_op = prop_oneof![
        Just(LogicOp::And),
        Just(LogicOp::Bic),
        Just(LogicOp::Orr),
        Just(LogicOp::Orn),
        Just(LogicOp::Eor),
        Just(LogicOp::Eon),
        Just(LogicOp::Ands),
        Just(LogicOp::Bics)
    ];
    let logic_imm_op = prop_oneof![
        Just(LogicOp::And),
        Just(LogicOp::Orr),
        Just(LogicOp::Eor),
        Just(LogicOp::Ands)
    ];
    let mov_op = prop_oneof![Just(MovOp::Movn), Just(MovOp::Movz), Just(MovOp::Movk)];
    let csel_op = prop_oneof![
        Just(CselOp::Csel),
        Just(CselOp::Csinc),
        Just(CselOp::Csinv),
        Just(CselOp::Csneg)
    ];
    let fbin = prop_oneof![
        Just(FpBinOp::Fadd),
        Just(FpBinOp::Fsub),
        Just(FpBinOp::Fmul),
        Just(FpBinOp::Fdiv),
        Just(FpBinOp::Fmax),
        Just(FpBinOp::Fmin),
        Just(FpBinOp::Fmaxnm),
        Just(FpBinOp::Fminnm),
        Just(FpBinOp::Fnmul)
    ];
    let fun = prop_oneof![
        Just(FpUnOp::Fmov),
        Just(FpUnOp::Fabs),
        Just(FpUnOp::Fneg),
        Just(FpUnOp::Fsqrt)
    ];
    let ffma = prop_oneof![
        Just(FpFmaOp::Fmadd),
        Just(FpFmaOp::Fmsub),
        Just(FpFmaOp::Fnmadd),
        Just(FpFmaOp::Fnmsub)
    ];
    let shiftv = prop_oneof![
        Just(ShiftVOp::Lslv),
        Just(ShiftVOp::Lsrv),
        Just(ShiftVOp::Asrv),
        Just(ShiftVOp::Rorv)
    ];

    prop_oneof![
        (
            any::<bool>(),
            any::<bool>(),
            any::<bool>(),
            reg(),
            reg(),
            0u16..4096,
            any::<bool>()
        )
            .prop_map(
                |(sub, set_flags, sf, rd, rn, imm12, shift12)| Inst::AddSubImm {
                    sub,
                    set_flags,
                    sf,
                    rd,
                    rn,
                    imm12,
                    shift12
                }
            ),
        (
            any::<bool>(),
            any::<bool>(),
            any::<bool>(),
            reg(),
            reg(),
            reg(),
            shift
        )
            .prop_flat_map(|(sub, set_flags, sf, rd, rn, rm, shift)| {
                let max = if sf { 64u8 } else { 32 };
                (Just((sub, set_flags, sf, rd, rn, rm, shift)), 0..max)
            })
            .prop_map(
                |((sub, set_flags, sf, rd, rn, rm, shift), amount)| Inst::AddSubShifted {
                    sub,
                    set_flags,
                    sf,
                    rd,
                    rn,
                    rm,
                    shift,
                    amount
                }
            ),
        (
            any::<bool>(),
            any::<bool>(),
            any::<bool>(),
            reg(),
            reg(),
            reg(),
            0u32..8,
            0u8..5
        )
            .prop_map(|(sub, set_flags, sf, rd, rn, rm, ext, amount)| {
                Inst::AddSubExtended {
                    sub,
                    set_flags,
                    sf,
                    rd,
                    rn,
                    rm,
                    extend: Extend::from_bits(ext),
                    amount,
                }
            }),
        (logic_imm_op, any::<bool>(), reg(), reg()).prop_flat_map(|(op, sf, rd, rn)| {
            bitmask_imm(sf).prop_map(move |imm| Inst::LogicalImm {
                op,
                sf,
                rd,
                rn,
                imm,
            })
        }),
        (logic_op, any::<bool>(), reg(), reg(), reg(), logic_shift)
            .prop_flat_map(|(op, sf, rd, rn, rm, shift)| {
                let max = if sf { 64u8 } else { 32 };
                (Just((op, sf, rd, rn, rm, shift)), 0..max)
            })
            .prop_map(
                |((op, sf, rd, rn, rm, shift), amount)| Inst::LogicalShifted {
                    op,
                    sf,
                    rd,
                    rn,
                    rm,
                    shift,
                    amount
                }
            ),
        (mov_op, any::<bool>(), reg(), any::<u16>()).prop_flat_map(|(op, sf, rd, imm16)| {
            let max_hw = if sf { 4u8 } else { 2 };
            (0..max_hw).prop_map(move |hw| Inst::MovWide {
                op,
                sf,
                rd,
                imm16,
                hw,
            })
        }),
        (reg(), -(1i64 << 20)..(1 << 20)).prop_map(|(rd, offset)| Inst::Adr { rd, offset }),
        (reg(), -(1i64 << 20)..(1 << 20)).prop_map(|(rd, pages)| Inst::Adrp {
            rd,
            offset: pages << 12
        }),
        (
            prop_oneof![
                Just(BitfieldOp::Sbfm),
                Just(BitfieldOp::Bfm),
                Just(BitfieldOp::Ubfm)
            ],
            any::<bool>(),
            reg(),
            reg()
        )
            .prop_flat_map(|(op, sf, rd, rn)| {
                let max = if sf { 64u8 } else { 32 };
                (Just((op, sf, rd, rn)), 0..max, 0..max)
            })
            .prop_map(|((op, sf, rd, rn), immr, imms)| Inst::Bitfield {
                op,
                sf,
                rd,
                rn,
                immr,
                imms
            }),
        (any::<bool>(), reg(), reg(), reg())
            .prop_flat_map(|(sf, rd, rn, rm)| {
                let max = if sf { 64u8 } else { 32 };
                (Just((sf, rd, rn, rm)), 0..max)
            })
            .prop_map(|((sf, rd, rn, rm), lsb)| Inst::Extr {
                sf,
                rd,
                rn,
                rm,
                lsb
            }),
        (any::<bool>(), any::<bool>(), reg(), reg(), reg(), reg()).prop_map(
            |(sub, sf, rd, rn, rm, ra)| Inst::MulAdd {
                sub,
                sf,
                rd,
                rn,
                rm,
                ra
            }
        ),
        (any::<bool>(), any::<bool>(), reg(), reg(), reg(), reg()).prop_map(
            |(sub, unsigned, rd, rn, rm, ra)| Inst::MulAddLong {
                sub,
                unsigned,
                rd,
                rn,
                rm,
                ra
            }
        ),
        (any::<bool>(), reg(), reg(), reg()).prop_map(|(unsigned, rd, rn, rm)| Inst::MulHigh {
            unsigned,
            rd,
            rn,
            rm
        }),
        (any::<bool>(), any::<bool>(), reg(), reg(), reg()).prop_map(
            |(unsigned, sf, rd, rn, rm)| Inst::Div {
                unsigned,
                sf,
                rd,
                rn,
                rm
            }
        ),
        (shiftv, any::<bool>(), reg(), reg(), reg())
            .prop_map(|(op, sf, rd, rn, rm)| Inst::ShiftV { op, sf, rd, rn, rm }),
        (
            prop_oneof![
                Just(Unary1Op::Rbit),
                Just(Unary1Op::Rev16),
                Just(Unary1Op::Rev),
                Just(Unary1Op::Clz),
                Just(Unary1Op::Cls)
            ],
            any::<bool>(),
            reg(),
            reg()
        )
            .prop_map(|(op, sf, rd, rn)| Inst::Unary1 { op, sf, rd, rn }),
        (csel_op, any::<bool>(), reg(), reg(), reg(), cond()).prop_map(
            |(op, sf, rd, rn, rm, cond)| Inst::CondSel {
                op,
                sf,
                rd,
                rn,
                rm,
                cond
            }
        ),
        (any::<bool>(), any::<bool>(), reg(), reg(), 0u8..16, cond()).prop_map(
            |(negative, sf, rn, rm, nzcv, cond)| Inst::CondCmpReg {
                negative,
                sf,
                rn,
                rm,
                nzcv,
                cond
            }
        ),
        (
            any::<bool>(),
            any::<bool>(),
            reg(),
            0u8..32,
            0u8..16,
            cond()
        )
            .prop_map(|(negative, sf, rn, imm5, nzcv, cond)| Inst::CondCmpImm {
                negative,
                sf,
                rn,
                imm5,
                nzcv,
                cond
            }),
        (any::<bool>(), b_offset()).prop_map(|(link, offset)| Inst::B { link, offset }),
        (cond(), b19_offset()).prop_map(|(cond, offset)| Inst::BCond { cond, offset }),
        (any::<bool>(), any::<bool>(), reg(), b19_offset()).prop_map(
            |(nonzero, sf, rt, offset)| Inst::Cbz {
                nonzero,
                sf,
                rt,
                offset
            }
        ),
        (
            any::<bool>(),
            reg(),
            0u8..64,
            (-(1i64 << 13)..(1 << 13)).prop_map(|v| v * 4)
        )
            .prop_map(|(nonzero, rt, bit, offset)| Inst::Tbz {
                nonzero,
                rt,
                bit,
                offset
            }),
        (any::<bool>(), reg30()).prop_map(|(link, rn)| Inst::BrReg {
            link,
            ret: false,
            rn
        }),
        reg30().prop_map(|rn| Inst::BrReg {
            link: false,
            ret: true,
            rn
        }),
        (mem_size(), reg(), reg(), 0u16..4096).prop_map(|(size, rt, rn, imm12)| Inst::LdrImm {
            size,
            rt,
            rn,
            imm12
        }),
        (
            prop_oneof![
                Just(MemSize::B),
                Just(MemSize::H),
                Just(MemSize::W),
                Just(MemSize::X)
            ],
            reg(),
            reg(),
            0u16..4096
        )
            .prop_map(|(size, rt, rn, imm12)| Inst::StrImm {
                size,
                rt,
                rn,
                imm12
            }),
        (mem_size(), index_mode(), reg(), reg(), simm9()).prop_map(
            |(size, mode, rt, rn, simm9)| Inst::LdrIdx {
                size,
                mode,
                rt,
                rn,
                simm9
            }
        ),
        (
            prop_oneof![
                Just(MemSize::B),
                Just(MemSize::H),
                Just(MemSize::W),
                Just(MemSize::X)
            ],
            index_mode(),
            reg(),
            reg(),
            simm9()
        )
            .prop_map(|(size, mode, rt, rn, simm9)| Inst::StrIdx {
                size,
                mode,
                rt,
                rn,
                simm9
            }),
        (
            mem_size(),
            reg(),
            reg(),
            reg(),
            ldst_extend(),
            any::<bool>()
        )
            .prop_map(|(size, rt, rn, rm, extend, shift)| Inst::LdrReg {
                size,
                rt,
                rn,
                rm,
                extend,
                shift
            }),
        (
            prop_oneof![
                Just(MemSize::B),
                Just(MemSize::H),
                Just(MemSize::W),
                Just(MemSize::X)
            ],
            reg(),
            reg(),
            reg(),
            ldst_extend(),
            any::<bool>()
        )
            .prop_map(|(size, rt, rn, rm, extend, shift)| Inst::StrReg {
                size,
                rt,
                rn,
                rm,
                extend,
                shift
            }),
        (
            any::<bool>(),
            prop_oneof![
                Just(None),
                Just(Some(IndexMode::Pre)),
                Just(Some(IndexMode::Post))
            ],
            reg(),
            reg(),
            reg(),
            -64i16..64
        )
            .prop_map(|(sf, mode, rt, rt2, rn, imm7)| Inst::Ldp {
                sf,
                mode,
                rt,
                rt2,
                rn,
                imm7
            }),
        (
            any::<bool>(),
            prop_oneof![
                Just(None),
                Just(Some(IndexMode::Pre)),
                Just(Some(IndexMode::Post))
            ],
            reg(),
            reg(),
            reg(),
            -64i16..64
        )
            .prop_map(|(sf, mode, rt, rt2, rn, imm7)| Inst::Stp {
                sf,
                mode,
                rt,
                rt2,
                rn,
                imm7
            }),
        (fp_size(), reg(), reg(), 0u16..4096).prop_map(|(size, rt, rn, imm12)| Inst::LdrFpImm {
            size,
            rt,
            rn,
            imm12
        }),
        (fp_size(), reg(), reg(), 0u16..4096).prop_map(|(size, rt, rn, imm12)| Inst::StrFpImm {
            size,
            rt,
            rn,
            imm12
        }),
        (fp_size(), index_mode(), reg(), reg(), simm9()).prop_map(|(size, mode, rt, rn, simm9)| {
            Inst::LdrFpIdx {
                size,
                mode,
                rt,
                rn,
                simm9,
            }
        }),
        (fp_size(), index_mode(), reg(), reg(), simm9()).prop_map(|(size, mode, rt, rn, simm9)| {
            Inst::StrFpIdx {
                size,
                mode,
                rt,
                rn,
                simm9,
            }
        }),
        (fp_size(), reg(), reg(), reg(), ldst_extend(), any::<bool>()).prop_map(
            |(size, rt, rn, rm, extend, shift)| Inst::LdrFpReg {
                size,
                rt,
                rn,
                rm,
                extend,
                shift
            }
        ),
        (fp_size(), reg(), reg(), reg(), ldst_extend(), any::<bool>()).prop_map(
            |(size, rt, rn, rm, extend, shift)| Inst::StrFpReg {
                size,
                rt,
                rn,
                rm,
                extend,
                shift
            }
        ),
        (fbin, fp_size(), reg(), reg(), reg()).prop_map(|(op, size, rd, rn, rm)| Inst::FpBin {
            op,
            size,
            rd,
            rn,
            rm
        }),
        (fun, fp_size(), reg(), reg()).prop_map(|(op, size, rd, rn)| Inst::FpUn {
            op,
            size,
            rd,
            rn
        }),
        (ffma, fp_size(), reg(), reg(), reg(), reg()).prop_map(|(op, size, rd, rn, rm, ra)| {
            Inst::FpFma {
                op,
                size,
                rd,
                rn,
                rm,
                ra,
            }
        }),
        (fp_size(), reg(), reg()).prop_map(|(size, rn, rm)| Inst::Fcmp {
            size,
            rn,
            rm,
            zero: false
        }),
        (fp_size(), reg()).prop_map(|(size, rn)| Inst::Fcmp {
            size,
            rn,
            rm: 0,
            zero: true
        }),
        (fp_size(), reg(), reg(), reg(), cond()).prop_map(|(size, rd, rn, rm, cond)| Inst::Fcsel {
            size,
            rd,
            rn,
            rm,
            cond
        }),
        (any::<bool>(), reg(), reg()).prop_map(|(to_d, rd, rn)| Inst::FcvtPrec {
            to: if to_d { FpSize::D } else { FpSize::S },
            from: if to_d { FpSize::S } else { FpSize::D },
            rd,
            rn
        }),
        (any::<bool>(), any::<bool>(), fp_size(), reg(), reg()).prop_map(
            |(unsigned, sf, size, rd, rn)| Inst::IntToFp {
                unsigned,
                sf,
                size,
                rd,
                rn
            }
        ),
        (any::<bool>(), any::<bool>(), fp_size(), reg(), reg()).prop_map(
            |(unsigned, sf, size, rd, rn)| Inst::FpToInt {
                unsigned,
                sf,
                size,
                rd,
                rn
            }
        ),
        (any::<bool>(), fp_size(), reg(), reg()).prop_map(|(to_fp, size, rd, rn)| {
            Inst::FmovIntFp {
                to_fp,
                sf: size == FpSize::D,
                size,
                rd,
                rn,
            }
        }),
        (fp_size(), reg(), any::<u8>()).prop_map(|(size, rd, imm8)| Inst::FmovImm {
            size,
            rd,
            imm8
        }),
        Just(Inst::Nop),
        any::<u16>().prop_map(|imm16| Inst::Svc { imm16 }),
        any::<u16>().prop_map(|imm16| Inst::Brk { imm16 }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn encode_decode_round_trip(inst in any_inst()) {
        let word = encode(&inst);
        let back = decode(word).map_err(|e| {
            TestCaseError::fail(format!("decode of {inst:?} (word {word:#010x}) failed: {e}"))
        })?;
        prop_assert_eq!(back, inst);
    }

    #[test]
    fn decoder_never_panics(word in any::<u32>()) {
        let _ = decode(word);
    }

    #[test]
    fn disassembler_never_panics(inst in any_inst()) {
        prop_assert!(!disassemble(&inst).is_empty());
    }

    #[test]
    fn bitmask_round_trip(n in 0u32..2, immr in 0u32..64, imms in 0u32..64) {
        if let Some(mask) = decode_bitmask(true, n, immr, imms) {
            let (n2, r2, s2) = encode_bitmask(true, mask).expect("re-encodable");
            prop_assert_eq!(decode_bitmask(true, n2, r2, s2).unwrap(), mask);
        }
    }
}
