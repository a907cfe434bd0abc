//! Property tests: every encodable RV64G instruction round-trips through
//! the binary encoding, and the decoder never panics on arbitrary words.

use isa_riscv::*;
use proptest::prelude::*;

fn reg() -> impl Strategy<Value = u8> {
    0u8..32
}

fn imm12() -> impl Strategy<Value = i64> {
    -2048i64..2048
}

fn branch_offset() -> impl Strategy<Value = i64> {
    (-2048i64..2048).prop_map(|v| v * 2)
}

fn jal_offset() -> impl Strategy<Value = i64> {
    (-(1i64 << 19)..(1 << 19)).prop_map(|v| v * 2)
}

fn upper_imm() -> impl Strategy<Value = i64> {
    (-(1i64 << 19)..(1 << 19)).prop_map(|v| v << 12)
}

fn fp_width() -> impl Strategy<Value = FpWidth> {
    prop_oneof![Just(FpWidth::S), Just(FpWidth::D)]
}

fn amo_width() -> impl Strategy<Value = AmoWidth> {
    prop_oneof![Just(AmoWidth::W), Just(AmoWidth::D)]
}

fn int_ty() -> impl Strategy<Value = IntTy> {
    prop_oneof![
        Just(IntTy::W),
        Just(IntTy::Wu),
        Just(IntTy::L),
        Just(IntTy::Lu)
    ]
}

fn any_inst() -> impl Strategy<Value = Inst> {
    let branch_op = prop_oneof![
        Just(BranchOp::Beq),
        Just(BranchOp::Bne),
        Just(BranchOp::Blt),
        Just(BranchOp::Bge),
        Just(BranchOp::Bltu),
        Just(BranchOp::Bgeu)
    ];
    let load_op = prop_oneof![
        Just(LoadOp::Lb),
        Just(LoadOp::Lh),
        Just(LoadOp::Lw),
        Just(LoadOp::Ld),
        Just(LoadOp::Lbu),
        Just(LoadOp::Lhu),
        Just(LoadOp::Lwu)
    ];
    let store_op = prop_oneof![
        Just(StoreOp::Sb),
        Just(StoreOp::Sh),
        Just(StoreOp::Sw),
        Just(StoreOp::Sd)
    ];
    let imm_op = prop_oneof![
        Just(ImmOp::Addi),
        Just(ImmOp::Slti),
        Just(ImmOp::Sltiu),
        Just(ImmOp::Xori),
        Just(ImmOp::Ori),
        Just(ImmOp::Andi)
    ];
    let shift_op = prop_oneof![Just(ImmOp::Slli), Just(ImmOp::Srli), Just(ImmOp::Srai)];
    let reg_op = prop_oneof![
        Just(RegOp::Add),
        Just(RegOp::Sub),
        Just(RegOp::Sll),
        Just(RegOp::Slt),
        Just(RegOp::Sltu),
        Just(RegOp::Xor),
        Just(RegOp::Srl),
        Just(RegOp::Sra),
        Just(RegOp::Or),
        Just(RegOp::And),
        Just(RegOp::Mul),
        Just(RegOp::Mulh),
        Just(RegOp::Mulhsu),
        Just(RegOp::Mulhu),
        Just(RegOp::Div),
        Just(RegOp::Divu),
        Just(RegOp::Rem),
        Just(RegOp::Remu)
    ];
    let reg_op32 = prop_oneof![
        Just(RegOp32::Addw),
        Just(RegOp32::Subw),
        Just(RegOp32::Sllw),
        Just(RegOp32::Srlw),
        Just(RegOp32::Sraw),
        Just(RegOp32::Mulw),
        Just(RegOp32::Divw),
        Just(RegOp32::Divuw),
        Just(RegOp32::Remw),
        Just(RegOp32::Remuw)
    ];
    let fp_op = prop_oneof![
        Just(FpOp::Fadd),
        Just(FpOp::Fsub),
        Just(FpOp::Fmul),
        Just(FpOp::Fdiv),
        Just(FpOp::Fsgnj),
        Just(FpOp::Fsgnjn),
        Just(FpOp::Fsgnjx),
        Just(FpOp::Fmin),
        Just(FpOp::Fmax)
    ];
    let fma_op = prop_oneof![
        Just(FmaOp::Fmadd),
        Just(FmaOp::Fmsub),
        Just(FmaOp::Fnmsub),
        Just(FmaOp::Fnmadd)
    ];
    let fcmp_op = prop_oneof![Just(FpCmpOp::Feq), Just(FpCmpOp::Flt), Just(FpCmpOp::Fle)];
    let amo_op = prop_oneof![
        Just(AmoOp::Swap),
        Just(AmoOp::Add),
        Just(AmoOp::Xor),
        Just(AmoOp::And),
        Just(AmoOp::Or),
        Just(AmoOp::Min),
        Just(AmoOp::Max),
        Just(AmoOp::Minu),
        Just(AmoOp::Maxu)
    ];

    prop_oneof![
        (reg(), upper_imm()).prop_map(|(rd, imm)| Inst::Lui { rd, imm }),
        (reg(), upper_imm()).prop_map(|(rd, imm)| Inst::Auipc { rd, imm }),
        (reg(), jal_offset()).prop_map(|(rd, offset)| Inst::Jal { rd, offset }),
        (reg(), reg(), imm12()).prop_map(|(rd, rs1, offset)| Inst::Jalr { rd, rs1, offset }),
        (branch_op, reg(), reg(), branch_offset()).prop_map(|(op, rs1, rs2, offset)| {
            Inst::Branch {
                op,
                rs1,
                rs2,
                offset,
            }
        }),
        (load_op, reg(), reg(), imm12()).prop_map(|(op, rd, rs1, offset)| Inst::Load {
            op,
            rd,
            rs1,
            offset
        }),
        (store_op, reg(), reg(), imm12()).prop_map(|(op, rs2, rs1, offset)| Inst::Store {
            op,
            rs2,
            rs1,
            offset
        }),
        (imm_op, reg(), reg(), imm12()).prop_map(|(op, rd, rs1, imm)| Inst::OpImm {
            op,
            rd,
            rs1,
            imm
        }),
        (shift_op, reg(), reg(), 0i64..64).prop_map(|(op, rd, rs1, imm)| Inst::OpImm {
            op,
            rd,
            rs1,
            imm
        }),
        (reg(), reg(), imm12()).prop_map(|(rd, rs1, imm)| Inst::OpImm32 {
            op: ImmOp32::Addiw,
            rd,
            rs1,
            imm
        }),
        (
            prop_oneof![
                Just(ImmOp32::Slliw),
                Just(ImmOp32::Srliw),
                Just(ImmOp32::Sraiw)
            ],
            reg(),
            reg(),
            0i64..32
        )
            .prop_map(|(op, rd, rs1, imm)| Inst::OpImm32 { op, rd, rs1, imm }),
        (reg_op, reg(), reg(), reg()).prop_map(|(op, rd, rs1, rs2)| Inst::Op { op, rd, rs1, rs2 }),
        (reg_op32, reg(), reg(), reg()).prop_map(|(op, rd, rs1, rs2)| Inst::Op32 {
            op,
            rd,
            rs1,
            rs2
        }),
        Just(Inst::Fence),
        Just(Inst::Ecall),
        Just(Inst::Ebreak),
        (amo_width(), reg(), reg()).prop_map(|(width, rd, rs1)| Inst::Lr { width, rd, rs1 }),
        (amo_width(), reg(), reg(), reg()).prop_map(|(width, rd, rs1, rs2)| Inst::Sc {
            width,
            rd,
            rs1,
            rs2
        }),
        (amo_op, amo_width(), reg(), reg(), reg()).prop_map(|(op, width, rd, rs1, rs2)| {
            Inst::Amo {
                op,
                width,
                rd,
                rs1,
                rs2,
            }
        }),
        (fp_width(), reg(), reg(), imm12()).prop_map(|(width, frd, rs1, offset)| Inst::FpLoad {
            width,
            frd,
            rs1,
            offset
        }),
        (fp_width(), reg(), reg(), imm12()).prop_map(|(width, frs2, rs1, offset)| Inst::FpStore {
            width,
            frs2,
            rs1,
            offset
        }),
        (fp_op, fp_width(), reg(), reg(), reg()).prop_map(|(op, width, frd, frs1, frs2)| {
            Inst::FpReg {
                op,
                width,
                frd,
                frs1,
                frs2,
            }
        }),
        (fma_op, fp_width(), reg(), reg(), reg(), reg()).prop_map(
            |(op, width, frd, frs1, frs2, frs3)| Inst::FpFma {
                op,
                width,
                frd,
                frs1,
                frs2,
                frs3
            }
        ),
        (fp_width(), reg(), reg()).prop_map(|(width, frd, frs1)| Inst::FpSqrt { width, frd, frs1 }),
        (fcmp_op, fp_width(), reg(), reg(), reg()).prop_map(|(op, width, rd, frs1, frs2)| {
            Inst::FpCmp {
                op,
                width,
                rd,
                frs1,
                frs2,
            }
        }),
        (int_ty(), fp_width(), reg(), reg()).prop_map(|(ty, width, rd, frs1)| {
            Inst::FcvtIntFromFp {
                ty,
                width,
                rd,
                frs1,
            }
        }),
        (int_ty(), fp_width(), reg(), reg()).prop_map(|(ty, width, frd, rs1)| {
            Inst::FcvtFpFromInt {
                ty,
                width,
                frd,
                rs1,
            }
        }),
        (any::<bool>(), reg(), reg()).prop_map(|(to_s, frd, frs1)| Inst::FcvtFpFp {
            to: if to_s { FpWidth::S } else { FpWidth::D },
            from: if to_s { FpWidth::D } else { FpWidth::S },
            frd,
            frs1
        }),
        (fp_width(), reg(), reg()).prop_map(|(width, rd, frs1)| Inst::FmvToInt { width, rd, frs1 }),
        (fp_width(), reg(), reg()).prop_map(|(width, frd, rs1)| Inst::FmvToFp { width, frd, rs1 }),
        (fp_width(), reg(), reg()).prop_map(|(width, rd, frs1)| Inst::Fclass { width, rd, frs1 }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn encode_decode_round_trip(inst in any_inst()) {
        let word = encode(&inst);
        let back = decode(word).expect("decoding an encoded instruction");
        prop_assert_eq!(back, inst);
    }

    #[test]
    fn decoder_never_panics(word in any::<u32>()) {
        let _ = decode(word); // Ok or Err, but no panic
    }

    #[test]
    fn disassembler_never_panics(inst in any_inst()) {
        let text = disassemble(&inst);
        prop_assert!(!text.is_empty());
    }
}
