//! End-to-end guest programs exercising A64 instruction classes the
//! workloads use lightly: conditional selects, bitfield aliases, pair
//! loads/stores, widening multiplies and call/return control flow.

use isa_aarch64::{
    A64Asm, AArch64Executor, BitfieldOp, Cond, CselOp, IndexMode, Inst, MemSize, ShiftType,
};
use simcore::{CpuState, EmulationCore, Program};

fn run(program: &Program) -> CpuState {
    let mut st = CpuState::new();
    program.load(&mut st).unwrap();
    EmulationCore::new(AArch64Executor::new())
        .run(&mut st, &mut [])
        .unwrap();
    st
}

#[test]
fn abs_via_csneg() {
    // |x| = csneg(x, x, ge) after cmp x, #0 — the classic branchless abs.
    for (input, expect) in [(-17i64, 17u64), (23, 23), (0, 0)] {
        let mut a = A64Asm::new(0x1_0000, 0x10_0000);
        let out = a.data_zero(8, 8);
        a.mov_imm(1, input as u64);
        a.cmp_imm(1, 0);
        a.push(Inst::CondSel {
            op: CselOp::Csneg,
            sf: true,
            rd: 2,
            rn: 1,
            rm: 1,
            cond: Cond::Ge,
        });
        a.la(3, out);
        a.str_imm(2, 3, 0);
        a.exit(0);
        let st = run(&a.finish());
        assert_eq!(st.mem.read_u64(out).unwrap(), expect, "abs({input})");
    }
}

#[test]
fn gcd_with_flags_and_csel() {
    // Euclid with udiv/msub remainder (A64 has no rem instruction).
    let mut a = A64Asm::new(0x1_0000, 0x10_0000);
    let out = a.data_zero(8, 8);
    a.mov_imm(1, 1071);
    a.mov_imm(2, 462);
    let loop_top = a.new_label();
    let done = a.new_label();
    a.bind(loop_top);
    a.cbz(2, done);
    a.push(Inst::Div {
        unsigned: true,
        sf: true,
        rd: 3,
        rn: 1,
        rm: 2,
    });
    a.push(Inst::MulAdd {
        sub: true,
        sf: true,
        rd: 4,
        rn: 3,
        rm: 2,
        ra: 1,
    }); // r = a - q*b
    a.mov(1, 2);
    a.mov(2, 4);
    a.b(loop_top);
    a.bind(done);
    a.la(5, out);
    a.str_imm(1, 5, 0);
    a.exit(0);
    let st = run(&a.finish());
    assert_eq!(st.mem.read_u64(out).unwrap(), 21);
}

#[test]
fn stack_frames_with_stp_ldp() {
    // A call that saves/restores a frame with stp/ldp pre/post-indexing.
    let mut a = A64Asm::new(0x1_0000, 0x10_0000);
    let out = a.data_zero(8, 8);
    let func = a.new_label();
    let start = a.new_label();
    a.b(start);
    a.bind(func);
    // push {x19, x30}; clobber x19; pop; ret
    a.push(Inst::Stp {
        sf: true,
        mode: Some(IndexMode::Pre),
        rt: 19,
        rt2: 30,
        rn: 31,
        imm7: -2,
    });
    a.mov_imm(19, 0xDEAD);
    a.add_imm(0, 0, 5);
    a.push(Inst::Ldp {
        sf: true,
        mode: Some(IndexMode::Post),
        rt: 19,
        rt2: 30,
        rn: 31,
        imm7: 2,
    });
    a.ret();
    a.bind(start);
    a.set_entry_here();
    a.mov_imm(19, 7); // callee-saved value that must survive
    a.mov_imm(0, 10);
    a.bl(func);
    a.add(1, 0, 19); // 15 + 7... x0=15, x19=7 -> 22
    a.la(2, out);
    a.str_imm(1, 2, 0);
    a.exit(0);
    let st = run(&a.finish());
    assert_eq!(st.mem.read_u64(out).unwrap(), 22);
}

#[test]
fn bitfield_pack_unpack() {
    // Pack two 16-bit values with bfm/lsl, unpack with ubfx, verify.
    let mut a = A64Asm::new(0x1_0000, 0x10_0000);
    let out = a.data_zero(16, 8);
    a.mov_imm(1, 0xBEEF);
    a.mov_imm(2, 0xCAFE);
    a.lsl_imm(3, 2, 16);
    a.push(Inst::LogicalShifted {
        op: isa_aarch64::LogicOp::Orr,
        sf: true,
        rd: 3,
        rn: 3,
        rm: 1,
        shift: ShiftType::Lsl,
        amount: 0,
    });
    // ubfx x4, x3, #16, #16
    a.push(Inst::Bitfield {
        op: BitfieldOp::Ubfm,
        sf: true,
        rd: 4,
        rn: 3,
        immr: 16,
        imms: 31,
    });
    // uxth x5, w3
    a.push(Inst::Bitfield {
        op: BitfieldOp::Ubfm,
        sf: false,
        rd: 5,
        rn: 3,
        immr: 0,
        imms: 15,
    });
    a.la(6, out);
    a.str_imm(4, 6, 0);
    a.str_imm(5, 6, 8);
    a.exit(0);
    let st = run(&a.finish());
    assert_eq!(st.mem.read_u64(out).unwrap(), 0xCAFE);
    assert_eq!(st.mem.read_u64(out + 8).unwrap(), 0xBEEF);
}

#[test]
fn widening_dot_product() {
    // smull-style dot product of two small i32 vectors via MulAddLong.
    let xs: [i32; 4] = [3, -4, 5, -6];
    let ys: [i32; 4] = [7, 8, -9, 10];
    let expect: i64 = xs
        .iter()
        .zip(ys.iter())
        .map(|(&x, &y)| x as i64 * y as i64)
        .sum();
    let mut a = A64Asm::new(0x1_0000, 0x10_0000);
    let xa = a.data_bytes(&xs.iter().flat_map(|v| v.to_le_bytes()).collect::<Vec<_>>());
    let ya = a.data_bytes(&ys.iter().flat_map(|v| v.to_le_bytes()).collect::<Vec<_>>());
    let out = a.data_zero(8, 8);
    a.la(1, xa);
    a.la(2, ya);
    a.mov_imm(3, 0); // acc
    a.mov_imm(4, 0); // i
    let loop_top = a.new_label();
    a.bind(loop_top);
    a.push(Inst::LdrReg {
        size: MemSize::Sw,
        rt: 5,
        rn: 1,
        rm: 4,
        extend: isa_aarch64::Extend::Uxtx,
        shift: false,
    });
    a.push(Inst::LdrReg {
        size: MemSize::Sw,
        rt: 6,
        rn: 2,
        rm: 4,
        extend: isa_aarch64::Extend::Uxtx,
        shift: false,
    });
    a.push(Inst::MulAddLong {
        sub: false,
        unsigned: false,
        rd: 3,
        rn: 5,
        rm: 6,
        ra: 3,
    });
    a.add_imm(4, 4, 4);
    a.cmp_imm(4, 16);
    a.b_ne(loop_top);
    a.la(7, out);
    a.str_imm(3, 7, 0);
    a.exit(0);
    let st = run(&a.finish());
    assert_eq!(st.mem.read_u64(out).unwrap() as i64, expect);
}

#[test]
fn ccmp_range_check() {
    // Branchless range check: in_range = (lo <= x) && (x <= hi), via
    // cmp + ccmp + cset — the A64 idiom for fused conditions.
    for (x, expect) in [(5u64, 1u64), (0, 0), (15, 0), (10, 1), (1, 1)] {
        let mut a = A64Asm::new(0x1_0000, 0x10_0000);
        let out = a.data_zero(8, 8);
        a.mov_imm(1, x);
        // cmp x1, #1 ; ccmp x1, #10, #0b0010, hs ; "cset ls"
        // The fallback NZCV (C=1, Z=0) makes HI hold, so the final LS test
        // fails when x < 1 — the standard fused range-check idiom.
        a.cmp_imm(1, 1);
        a.push(Inst::CondCmpImm {
            negative: false,
            sf: true,
            rn: 1,
            imm5: 10,
            nzcv: 0b0010,
            cond: Cond::Cs,
        });
        a.push(Inst::CondSel {
            op: CselOp::Csinc,
            sf: true,
            rd: 2,
            rn: 31,
            rm: 31,
            cond: Cond::Hi,
        });
        a.la(3, out);
        a.str_imm(2, 3, 0);
        a.exit(0);
        let st = run(&a.finish());
        assert_eq!(st.mem.read_u64(out).unwrap(), expect, "range check of {x}");
    }
}

#[test]
fn tbz_bit_scan() {
    // Count trailing zero bits of 0b101000 by looping with tbz on bit 0
    // and shifting right: expect 3.
    let mut a = A64Asm::new(0x1_0000, 0x10_0000);
    let out = a.data_zero(8, 8);
    a.mov_imm(1, 0b101000);
    a.mov_imm(2, 0); // count
    let loop_top = a.new_label();
    let done = a.new_label();
    a.bind(loop_top);
    let bit_clear = a.new_label();
    a.tbz(1, 0, bit_clear);
    a.b(done);
    a.bind(bit_clear);
    a.add_imm(2, 2, 1);
    a.lsr_imm(1, 1, 1);
    a.b(loop_top);
    a.bind(done);
    a.la(3, out);
    a.str_imm(2, 3, 0);
    a.exit(0);
    let st = run(&a.finish());
    assert_eq!(st.mem.read_u64(out).unwrap(), 3);
}
