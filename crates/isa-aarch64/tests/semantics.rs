//! Unit tests for A64 instruction semantics, including NZCV flag behaviour.

use isa_aarch64::exec::{cond_holds, execute, execute_into};
use isa_aarch64::*;
use simcore::{CpuState, InstGroup, RegId, RetiredInst};

fn fresh() -> CpuState {
    CpuState::new()
}

fn run1(inst: Inst, st: &mut CpuState) -> simcore::RetiredInst {
    execute(&inst, st.pc, st).unwrap()
}

fn add_shifted(sub: bool, set_flags: bool, rd: u8, rn: u8, rm: u8) -> Inst {
    Inst::AddSubShifted {
        sub,
        set_flags,
        sf: true,
        rd,
        rn,
        rm,
        shift: ShiftType::Lsl,
        amount: 0,
    }
}

#[test]
fn add_and_zero_register() {
    let mut st = fresh();
    st.x[1] = 40;
    st.x[2] = 2;
    let ri = run1(add_shifted(false, false, 0, 1, 2), &mut st);
    assert_eq!(st.x[0], 42);
    assert!(ri.srcs.contains(RegId::Int(1)));
    assert!(!ri.dsts.contains(RegId::Flags));
    // Writes to xzr discarded, not reported.
    let ri = run1(add_shifted(false, false, 31, 1, 2), &mut st);
    assert!(ri.dsts.is_empty());
}

#[test]
fn subs_flag_semantics() {
    let mut st = fresh();
    // cmp 5, 5 -> Z and C set (no borrow).
    st.x[1] = 5;
    st.x[2] = 5;
    let ri = run1(add_shifted(true, true, 31, 1, 2), &mut st);
    assert!(ri.dsts.contains(RegId::Flags));
    assert!(cond_holds(Cond::Eq, st.nzcv));
    assert!(cond_holds(Cond::Cs, st.nzcv));
    // cmp 3, 5 -> borrow: C clear, N set.
    st.x[1] = 3;
    run1(add_shifted(true, true, 31, 1, 2), &mut st);
    assert!(cond_holds(Cond::Ne, st.nzcv));
    assert!(cond_holds(Cond::Lt, st.nzcv));
    assert!(cond_holds(Cond::Cc, st.nzcv));
    // Signed overflow: i64::MAX - (-1).
    st.x[1] = i64::MAX as u64;
    st.x[2] = (-1i64) as u64;
    run1(add_shifted(true, true, 31, 1, 2), &mut st);
    assert!(cond_holds(Cond::Vs, st.nzcv), "overflow flag set");
    // The wrapped result is negative AND V is set, so N == V: the signed
    // comparison still correctly reports MAX > -1.
    assert!(
        cond_holds(Cond::Gt, st.nzcv),
        "signed compare survives overflow"
    );
}

#[test]
fn flags_32_bit() {
    let mut st = fresh();
    st.x[1] = 0x8000_0000; // negative as w register
    st.x[2] = 0;
    let i = Inst::AddSubShifted {
        sub: true,
        set_flags: true,
        sf: false,
        rd: 31,
        rn: 1,
        rm: 2,
        shift: ShiftType::Lsl,
        amount: 0,
    };
    run1(i, &mut st);
    assert!(cond_holds(Cond::Mi, st.nzcv), "w-width sign bit drives N");
}

#[test]
fn csel_family() {
    let mut st = fresh();
    st.x[1] = 10;
    st.x[2] = 20;
    st.nzcv = 0b0100; // Z set
    let ri = run1(
        Inst::CondSel {
            op: CselOp::Csel,
            sf: true,
            rd: 0,
            rn: 1,
            rm: 2,
            cond: Cond::Eq,
        },
        &mut st,
    );
    assert_eq!(st.x[0], 10);
    assert!(ri.srcs.contains(RegId::Flags));
    run1(
        Inst::CondSel {
            op: CselOp::Csinc,
            sf: true,
            rd: 0,
            rn: 1,
            rm: 2,
            cond: Cond::Ne,
        },
        &mut st,
    );
    assert_eq!(st.x[0], 21, "csinc picks rm+1 when cond fails");
    run1(
        Inst::CondSel {
            op: CselOp::Csneg,
            sf: true,
            rd: 0,
            rn: 1,
            rm: 2,
            cond: Cond::Ne,
        },
        &mut st,
    );
    assert_eq!(st.x[0] as i64, -20);
}

#[test]
fn cset_idiom() {
    // cset xd, cond == csinc xd, xzr, xzr, invert(cond)
    let mut st = fresh();
    st.nzcv = 0b0100; // Z
    run1(
        Inst::CondSel {
            op: CselOp::Csinc,
            sf: true,
            rd: 3,
            rn: 31,
            rm: 31,
            cond: Cond::Ne,
        },
        &mut st,
    );
    assert_eq!(st.x[3], 1, "cset eq with Z set gives 1");
}

#[test]
fn ccmp_behaviour() {
    let mut st = fresh();
    st.x[1] = 5;
    st.x[2] = 5;
    st.nzcv = 0b0100; // Z: EQ holds -> perform the compare
    run1(
        Inst::CondCmpReg {
            negative: false,
            sf: true,
            rn: 1,
            rm: 2,
            nzcv: 0b0000,
            cond: Cond::Eq,
        },
        &mut st,
    );
    assert!(cond_holds(Cond::Eq, st.nzcv), "5 == 5");
    // Condition fails -> flags come from the immediate.
    st.nzcv = 0;
    run1(
        Inst::CondCmpReg {
            negative: false,
            sf: true,
            rn: 1,
            rm: 2,
            nzcv: 0b1010,
            cond: Cond::Eq,
        },
        &mut st,
    );
    assert_eq!(st.nzcv, 0b1010);
}

#[test]
fn movz_movn_movk() {
    let mut st = fresh();
    run1(
        Inst::MovWide {
            op: MovOp::Movz,
            sf: true,
            rd: 1,
            imm16: 0xABCD,
            hw: 1,
        },
        &mut st,
    );
    assert_eq!(st.x[1], 0xABCD_0000);
    run1(
        Inst::MovWide {
            op: MovOp::Movk,
            sf: true,
            rd: 1,
            imm16: 0x1234,
            hw: 0,
        },
        &mut st,
    );
    assert_eq!(st.x[1], 0xABCD_1234);
    let ri = run1(
        Inst::MovWide {
            op: MovOp::Movn,
            sf: true,
            rd: 2,
            imm16: 0,
            hw: 0,
        },
        &mut st,
    );
    assert_eq!(st.x[2], u64::MAX);
    assert!(ri.srcs.is_empty(), "movn reads nothing");
}

#[test]
fn movk_reports_rd_as_source() {
    let mut st = fresh();
    let ri = run1(
        Inst::MovWide {
            op: MovOp::Movk,
            sf: true,
            rd: 1,
            imm16: 1,
            hw: 0,
        },
        &mut st,
    );
    assert!(ri.srcs.contains(RegId::Int(1)), "movk merges into rd");
}

#[test]
fn bitfield_aliases() {
    let mut st = fresh();
    st.x[1] = 0xFF;
    // lsl x0, x1, #4 == ubfm x0, x1, #60, #59
    run1(
        Inst::Bitfield {
            op: BitfieldOp::Ubfm,
            sf: true,
            rd: 0,
            rn: 1,
            immr: 60,
            imms: 59,
        },
        &mut st,
    );
    assert_eq!(st.x[0], 0xFF0);
    // lsr x0, x1, #4 == ubfm x0, x1, #4, #63
    run1(
        Inst::Bitfield {
            op: BitfieldOp::Ubfm,
            sf: true,
            rd: 0,
            rn: 1,
            immr: 4,
            imms: 63,
        },
        &mut st,
    );
    assert_eq!(st.x[0], 0xF);
    // asr x0, x1, #4 with negative value
    st.x[1] = (-256i64) as u64;
    run1(
        Inst::Bitfield {
            op: BitfieldOp::Sbfm,
            sf: true,
            rd: 0,
            rn: 1,
            immr: 4,
            imms: 63,
        },
        &mut st,
    );
    assert_eq!(st.x[0] as i64, -16);
    // sxtw x0, w1
    st.x[1] = 0x8000_0000;
    run1(
        Inst::Bitfield {
            op: BitfieldOp::Sbfm,
            sf: true,
            rd: 0,
            rn: 1,
            immr: 0,
            imms: 31,
        },
        &mut st,
    );
    assert_eq!(st.x[0] as i64, i32::MIN as i64);
    // ubfx x0, x1, #8, #8
    st.x[1] = 0x00AB_CD00;
    run1(
        Inst::Bitfield {
            op: BitfieldOp::Ubfm,
            sf: true,
            rd: 0,
            rn: 1,
            immr: 8,
            imms: 15,
        },
        &mut st,
    );
    assert_eq!(st.x[0], 0xCD);
}

#[test]
fn extr_ror() {
    let mut st = fresh();
    st.x[1] = 0x1234_5678_9ABC_DEF0;
    run1(
        Inst::Extr {
            sf: true,
            rd: 0,
            rn: 1,
            rm: 1,
            lsb: 16,
        },
        &mut st,
    );
    assert_eq!(st.x[0], 0xDEF0_1234_5678_9ABC);
}

#[test]
fn mul_div_semantics() {
    let mut st = fresh();
    st.x[1] = 7;
    st.x[2] = 6;
    st.x[3] = 100;
    run1(
        Inst::MulAdd {
            sub: false,
            sf: true,
            rd: 0,
            rn: 1,
            rm: 2,
            ra: 3,
        },
        &mut st,
    );
    assert_eq!(st.x[0], 142);
    run1(
        Inst::MulAdd {
            sub: true,
            sf: true,
            rd: 0,
            rn: 1,
            rm: 2,
            ra: 3,
        },
        &mut st,
    );
    assert_eq!(st.x[0], 58);
    // Division by zero yields 0 on A64 (no trap).
    st.x[2] = 0;
    run1(
        Inst::Div {
            unsigned: false,
            sf: true,
            rd: 0,
            rn: 1,
            rm: 2,
        },
        &mut st,
    );
    assert_eq!(st.x[0], 0);
    // smulh
    st.x[1] = u64::MAX;
    st.x[2] = u64::MAX;
    run1(
        Inst::MulHigh {
            unsigned: false,
            rd: 0,
            rn: 1,
            rm: 2,
        },
        &mut st,
    );
    assert_eq!(st.x[0], 0);
    run1(
        Inst::MulHigh {
            unsigned: true,
            rd: 0,
            rn: 1,
            rm: 2,
        },
        &mut st,
    );
    assert_eq!(st.x[0], u64::MAX - 1);
}

#[test]
fn widening_multiplies() {
    let mut st = fresh();
    st.x[1] = 0xFFFF_FFFF; // -1 as w
    st.x[2] = 2;
    run1(
        Inst::MulAddLong {
            sub: false,
            unsigned: false,
            rd: 0,
            rn: 1,
            rm: 2,
            ra: 31,
        },
        &mut st,
    );
    assert_eq!(st.x[0] as i64, -2, "smull sign-extends");
    run1(
        Inst::MulAddLong {
            sub: false,
            unsigned: true,
            rd: 0,
            rn: 1,
            rm: 2,
            ra: 31,
        },
        &mut st,
    );
    assert_eq!(st.x[0], 0x1_FFFF_FFFE, "umull zero-extends");
}

#[test]
fn unary_ops() {
    let mut st = fresh();
    st.x[1] = 0x0000_0000_0000_00F0;
    run1(
        Inst::Unary1 {
            op: Unary1Op::Clz,
            sf: true,
            rd: 0,
            rn: 1,
        },
        &mut st,
    );
    assert_eq!(st.x[0], 56);
    run1(
        Inst::Unary1 {
            op: Unary1Op::Rbit,
            sf: true,
            rd: 0,
            rn: 1,
        },
        &mut st,
    );
    assert_eq!(st.x[0], 0x0F00_0000_0000_0000);
    st.x[1] = 0x0102_0304_0506_0708;
    run1(
        Inst::Unary1 {
            op: Unary1Op::Rev,
            sf: true,
            rd: 0,
            rn: 1,
        },
        &mut st,
    );
    assert_eq!(st.x[0], 0x0807_0605_0403_0201);
}

#[test]
fn branches() {
    let mut st = fresh();
    st.pc = 0x1000;
    let ri = run1(
        Inst::B {
            link: true,
            offset: 0x100,
        },
        &mut st,
    );
    assert_eq!(st.pc, 0x1100);
    assert_eq!(st.x[30], 0x1004);
    assert!(ri.taken);
    // b.cond not taken
    st.nzcv = 0;
    st.pc = 0x1000;
    let ri = run1(
        Inst::BCond {
            cond: Cond::Eq,
            offset: 0x50,
        },
        &mut st,
    );
    assert!(!ri.taken);
    assert_eq!(st.pc, 0x1004);
    assert!(ri.srcs.contains(RegId::Flags));
    // cbnz taken
    st.x[5] = 1;
    st.pc = 0x1000;
    let ri = run1(
        Inst::Cbz {
            nonzero: true,
            sf: true,
            rt: 5,
            offset: -16,
        },
        &mut st,
    );
    assert!(ri.taken);
    assert_eq!(st.pc, 0xFF0);
    // tbz on bit 7
    st.x[5] = 0x80;
    st.pc = 0x1000;
    let ri = run1(
        Inst::Tbz {
            nonzero: true,
            rt: 5,
            bit: 7,
            offset: 8,
        },
        &mut st,
    );
    assert!(ri.taken);
    assert_eq!(st.pc, 0x1008);
}

#[test]
fn loads_stores_addressing_modes() {
    let mut st = fresh();
    st.x[1] = 0x1000;
    st.x[2] = 0xDEAD_BEEF;
    // str x2, [x1, #8]
    run1(
        Inst::StrImm {
            size: MemSize::X,
            rt: 2,
            rn: 1,
            imm12: 1,
        },
        &mut st,
    );
    assert_eq!(st.mem.read_u64(0x1008).unwrap(), 0xDEAD_BEEF);
    // ldr with register offset and shift
    st.x[3] = 1;
    run1(
        Inst::LdrReg {
            size: MemSize::X,
            rt: 4,
            rn: 1,
            rm: 3,
            extend: Extend::Uxtx,
            shift: true,
        },
        &mut st,
    );
    assert_eq!(st.x[4], 0xDEAD_BEEF);
    // Pre-index: updates base before access.
    st.x[1] = 0x1000;
    let ri = run1(
        Inst::LdrIdx {
            size: MemSize::X,
            mode: IndexMode::Pre,
            rt: 5,
            rn: 1,
            simm9: 8,
        },
        &mut st,
    );
    assert_eq!(st.x[5], 0xDEAD_BEEF);
    assert_eq!(st.x[1], 0x1008, "writeback");
    assert!(
        ri.dsts.contains(RegId::Int(1)),
        "base register is a destination"
    );
    // Post-index: access at base, then update.
    st.x[1] = 0x1008;
    run1(
        Inst::LdrIdx {
            size: MemSize::X,
            mode: IndexMode::Post,
            rt: 6,
            rn: 1,
            simm9: 8,
        },
        &mut st,
    );
    assert_eq!(st.x[6], 0xDEAD_BEEF);
    assert_eq!(st.x[1], 0x1010);
}

#[test]
fn sign_extending_loads() {
    let mut st = fresh();
    st.x[1] = 0x2000;
    st.mem.write_u32(0x2000, 0x8000_0001).unwrap();
    run1(
        Inst::LdrImm {
            size: MemSize::Sw,
            rt: 2,
            rn: 1,
            imm12: 0,
        },
        &mut st,
    );
    assert_eq!(st.x[2] as i64, 0x8000_0001u32 as i32 as i64);
    run1(
        Inst::LdrImm {
            size: MemSize::W,
            rt: 2,
            rn: 1,
            imm12: 0,
        },
        &mut st,
    );
    assert_eq!(st.x[2], 0x8000_0001);
}

#[test]
fn pair_ops() {
    let mut st = fresh();
    st.x[1] = 0x3000;
    st.x[2] = 111;
    st.x[3] = 222;
    run1(
        Inst::Stp {
            sf: true,
            mode: None,
            rt: 2,
            rt2: 3,
            rn: 1,
            imm7: 2,
        },
        &mut st,
    );
    assert_eq!(st.mem.read_u64(0x3010).unwrap(), 111);
    assert_eq!(st.mem.read_u64(0x3018).unwrap(), 222);
    run1(
        Inst::Ldp {
            sf: true,
            mode: None,
            rt: 4,
            rt2: 5,
            rn: 1,
            imm7: 2,
        },
        &mut st,
    );
    assert_eq!(st.x[4], 111);
    assert_eq!(st.x[5], 222);
}

#[test]
fn fp_arithmetic_and_flags() {
    let mut st = fresh();
    st.set_fd(1, 2.0);
    st.set_fd(2, 3.0);
    run1(
        Inst::FpBin {
            op: FpBinOp::Fadd,
            size: FpSize::D,
            rd: 0,
            rn: 1,
            rm: 2,
        },
        &mut st,
    );
    assert_eq!(st.fd(0), 5.0);
    st.set_fd(3, 10.0);
    run1(
        Inst::FpFma {
            op: FpFmaOp::Fmadd,
            size: FpSize::D,
            rd: 0,
            rn: 1,
            rm: 2,
            ra: 3,
        },
        &mut st,
    );
    assert_eq!(st.fd(0), 16.0);
    run1(
        Inst::FpFma {
            op: FpFmaOp::Fmsub,
            size: FpSize::D,
            rd: 0,
            rn: 1,
            rm: 2,
            ra: 3,
        },
        &mut st,
    );
    assert_eq!(st.fd(0), 4.0, "fmsub is ra - rn*rm");
    // fcmp sets flags; fcsel reads them.
    let ri = run1(
        Inst::Fcmp {
            size: FpSize::D,
            rn: 1,
            rm: 2,
            zero: false,
        },
        &mut st,
    );
    assert!(ri.dsts.contains(RegId::Flags));
    assert!(
        cond_holds(Cond::Lt, st.nzcv),
        "2.0 < 3.0 -> LT (through MI)"
    );
    run1(
        Inst::Fcsel {
            size: FpSize::D,
            rd: 4,
            rn: 1,
            rm: 2,
            cond: Cond::Lt,
        },
        &mut st,
    );
    assert_eq!(st.fd(4), 2.0);
    // NaN compare is unordered: C and V.
    st.set_fd(1, f64::NAN);
    run1(
        Inst::Fcmp {
            size: FpSize::D,
            rn: 1,
            rm: 2,
            zero: false,
        },
        &mut st,
    );
    assert!(cond_holds(Cond::Vs, st.nzcv));
    assert!(!cond_holds(Cond::Eq, st.nzcv));
}

#[test]
fn fp_conversions() {
    let mut st = fresh();
    st.x[1] = (-7i64) as u64;
    run1(
        Inst::IntToFp {
            unsigned: false,
            sf: true,
            size: FpSize::D,
            rd: 0,
            rn: 1,
        },
        &mut st,
    );
    assert_eq!(st.fd(0), -7.0);
    st.set_fd(1, -2.9);
    run1(
        Inst::FpToInt {
            unsigned: false,
            sf: true,
            size: FpSize::D,
            rd: 2,
            rn: 1,
        },
        &mut st,
    );
    assert_eq!(st.x[2] as i64, -2, "fcvtzs truncates toward zero");
    st.set_fd(1, f64::NAN);
    run1(
        Inst::FpToInt {
            unsigned: false,
            sf: true,
            size: FpSize::D,
            rd: 2,
            rn: 1,
        },
        &mut st,
    );
    assert_eq!(st.x[2], 0, "A64 converts NaN to 0");
    // fmov bit transfer
    st.x[1] = 0x4008_0000_0000_0000;
    run1(
        Inst::FmovIntFp {
            to_fp: true,
            sf: true,
            size: FpSize::D,
            rd: 3,
            rn: 1,
        },
        &mut st,
    );
    assert_eq!(st.fd(3), 3.0);
    // fcvt d->s->d
    st.set_fd(1, 1.5);
    run1(
        Inst::FcvtPrec {
            to: FpSize::S,
            from: FpSize::D,
            rd: 2,
            rn: 1,
        },
        &mut st,
    );
    run1(
        Inst::FcvtPrec {
            to: FpSize::D,
            from: FpSize::S,
            rd: 3,
            rn: 2,
        },
        &mut st,
    );
    assert_eq!(st.fd(3), 1.5);
}

#[test]
fn fp_minmax_nan_semantics() {
    let mut st = fresh();
    st.set_fd(1, 1.0);
    st.set_fd(2, f64::NAN);
    run1(
        Inst::FpBin {
            op: FpBinOp::Fmax,
            size: FpSize::D,
            rd: 0,
            rn: 1,
            rm: 2,
        },
        &mut st,
    );
    assert!(st.fd(0).is_nan(), "fmax propagates NaN");
    run1(
        Inst::FpBin {
            op: FpBinOp::Fmaxnm,
            size: FpSize::D,
            rd: 0,
            rn: 1,
            rm: 2,
        },
        &mut st,
    );
    assert_eq!(st.fd(0), 1.0, "fmaxnm drops NaN");
}

#[test]
fn sp_vs_zr_selection() {
    let mut st = fresh();
    st.x[31] = 0x8000; // SP
                       // add x0, sp, #16 uses SP.
    run1(
        Inst::AddSubImm {
            sub: false,
            set_flags: false,
            sf: true,
            rd: 0,
            rn: 31,
            imm12: 16,
            shift12: false,
        },
        &mut st,
    );
    assert_eq!(st.x[0], 0x8010);
    // add x0, xzr, x1 (shifted-register form) uses ZR.
    st.x[1] = 5;
    run1(add_shifted(false, false, 0, 31, 1), &mut st);
    assert_eq!(st.x[0], 5);
}

#[test]
fn svc_exit() {
    let mut st = fresh();
    st.x[8] = 93;
    st.x[0] = 17;
    run1(Inst::Svc { imm16: 0 }, &mut st);
    assert_eq!(st.exited, Some(17));
}

#[test]
fn adr_adrp() {
    let mut st = fresh();
    st.pc = 0x1_0804;
    run1(
        Inst::Adr {
            rd: 1,
            offset: 0x10,
        },
        &mut st,
    );
    assert_eq!(st.x[1], 0x1_0814);
    st.pc = 0x1_0804;
    run1(
        Inst::Adrp {
            rd: 1,
            offset: 0x2000,
        },
        &mut st,
    );
    assert_eq!(st.x[1], 0x1_2000, "adrp is page-aligned");
}

#[test]
fn execute_into_leaves_nothing_of_the_record_it_overwrites() {
    let mut st = fresh();
    st.x[1] = 0x2000;
    st.mem.write_u64(0x2000, 7).unwrap();
    let ldr = Inst::LdrImm {
        size: MemSize::X,
        rt: 2,
        rn: 1,
        imm12: 0,
    };
    for next in [ldr, add_shifted(true, true, 31, 1, 2)] {
        // No A64 instruction in the subset makes two accesses, so the
        // slot's old record is built by hand: a read, a write, a branch.
        let mut slot = RetiredInst::new(0x40, InstGroup::Atomic);
        slot.push_read(0x3000, 8);
        slot.push_write(0x3008, 8);
        slot.is_branch = true;
        slot.taken = true;
        slot.dsts.insert(RegId::Int(9));
        execute_into(&next, 0x44, &mut st, &mut slot).unwrap();
        assert_eq!(slot, execute(&next, 0x44, &mut st).unwrap(), "{next:?}");
    }
}
