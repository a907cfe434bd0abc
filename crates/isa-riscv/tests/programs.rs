//! End-to-end guest programs exercising instruction classes the workloads
//! use lightly: M-extension division chains, atomics, byte loads/stores,
//! conversions and jump-and-link control flow.

use isa_riscv::{AmoOp, AmoWidth, Inst, RiscVExecutor, RvAsm};
use simcore::{CpuState, EmulationCore, Program};

fn run(program: &Program) -> CpuState {
    let mut st = CpuState::new();
    program.load(&mut st).unwrap();
    EmulationCore::new(RiscVExecutor::new())
        .run(&mut st, &mut [])
        .unwrap();
    st
}

#[test]
fn gcd_via_rem_loop() {
    // Euclid's algorithm: gcd(1071, 462) = 21, using rem + mv in a loop.
    let mut a = RvAsm::new(0x1_0000, 0x10_0000);
    let out = a.data_zero(8, 8);
    a.li(10, 1071);
    a.li(11, 462);
    let loop_top = a.new_label();
    let done = a.new_label();
    a.bind(loop_top);
    a.beq(11, 0, done);
    a.push(Inst::Op {
        op: isa_riscv::RegOp::Rem,
        rd: 12,
        rs1: 10,
        rs2: 11,
    });
    a.mv(10, 11);
    a.mv(11, 12);
    a.j(loop_top);
    a.bind(done);
    a.la(13, out);
    a.sd(10, 13, 0);
    a.exit(0);
    let st = run(&a.finish());
    assert_eq!(st.mem.read_u64(out).unwrap(), 21);
}

#[test]
fn fibonacci_iterative() {
    // fib(20) = 6765 with word-width adds.
    let mut a = RvAsm::new(0x1_0000, 0x10_0000);
    let out = a.data_zero(8, 8);
    a.li(10, 0); // a
    a.li(11, 1); // b
    a.li(12, 20); // n
    let loop_top = a.new_label();
    let done = a.new_label();
    a.bind(loop_top);
    a.beq(12, 0, done);
    a.add(13, 10, 11);
    a.mv(10, 11);
    a.mv(11, 13);
    a.addi(12, 12, -1);
    a.j(loop_top);
    a.bind(done);
    a.la(14, out);
    a.sd(10, 14, 0);
    a.exit(0);
    let st = run(&a.finish());
    assert_eq!(st.mem.read_u64(out).unwrap(), 6765);
}

#[test]
fn atomic_fetch_add_loop() {
    // amoadd.d accumulates 1..=10 into a memory cell; each op returns the
    // running value before the add.
    let mut a = RvAsm::new(0x1_0000, 0x10_0000);
    let cell = a.data_u64(0);
    let last = a.data_zero(8, 8);
    a.la(10, cell);
    a.li(11, 1);
    a.li(12, 10);
    let loop_top = a.new_label();
    a.bind(loop_top);
    a.push(Inst::Amo {
        op: AmoOp::Add,
        width: AmoWidth::D,
        rd: 13,
        rs1: 10,
        rs2: 11,
    });
    a.addi(11, 11, 1);
    a.bge(12, 11, loop_top);
    a.la(14, last);
    a.sd(13, 14, 0); // value observed by the final amoadd (sum of 1..9)
    a.exit(0);
    let st = run(&a.finish());
    assert_eq!(st.mem.read_u64(cell).unwrap(), 55);
    assert_eq!(st.mem.read_u64(last).unwrap(), 45);
}

#[test]
fn byte_memcpy() {
    // lb/sb copy of a string, including non-ASCII bytes.
    let src_data = b"RISC-V \xF0\x9F\xA6\x80!";
    let mut a = RvAsm::new(0x1_0000, 0x10_0000);
    let src = a.data_bytes(src_data);
    let dst = a.data_zero(src_data.len(), 1);
    a.la(10, src);
    a.la(11, dst);
    a.la(12, src + src_data.len() as u64);
    let loop_top = a.new_label();
    a.bind(loop_top);
    a.push(Inst::Load {
        op: isa_riscv::LoadOp::Lbu,
        rd: 13,
        rs1: 10,
        offset: 0,
    });
    a.push(Inst::Store {
        op: isa_riscv::StoreOp::Sb,
        rs2: 13,
        rs1: 11,
        offset: 0,
    });
    a.addi(10, 10, 1);
    a.addi(11, 11, 1);
    a.bne(10, 12, loop_top);
    a.exit(0);
    let st = run(&a.finish());
    let mut copied = vec![0u8; src_data.len()];
    st.mem.read_bytes(dst, &mut copied).unwrap();
    assert_eq!(&copied, src_data);
}

#[test]
fn int_fp_round_trip_loop() {
    // sum_{i=1..100} i via FP: convert, accumulate, convert back.
    let mut a = RvAsm::new(0x1_0000, 0x10_0000);
    let out = a.data_zero(8, 8);
    a.li(10, 1);
    a.li(11, 100);
    a.push(Inst::FcvtFpFromInt {
        ty: isa_riscv::IntTy::L,
        width: isa_riscv::FpWidth::D,
        frd: 0,
        rs1: 0,
    }); // acc = 0.0
    let loop_top = a.new_label();
    a.bind(loop_top);
    a.fcvt_d_l(1, 10);
    a.fadd_d(0, 0, 1);
    a.addi(10, 10, 1);
    a.bge(11, 10, loop_top);
    a.fcvt_l_d(12, 0);
    a.la(13, out);
    a.sd(12, 13, 0);
    a.exit(0);
    let st = run(&a.finish());
    assert_eq!(st.mem.read_u64(out).unwrap(), 5050);
}

#[test]
fn jal_call_and_return() {
    // A leaf "function" called twice via jal/jalr, doubling its argument.
    let mut a = RvAsm::new(0x1_0000, 0x10_0000);
    let out = a.data_zero(16, 8);
    let func = a.new_label();
    let start = a.new_label();
    a.j(start);
    a.bind(func); // a0 = a0 * 2; ret
    a.add(10, 10, 10);
    a.push(Inst::Jalr {
        rd: 0,
        rs1: 1,
        offset: 0,
    });
    a.bind(start);
    a.set_entry_here();
    a.li(10, 21);
    a.jal_to(1, func);
    a.la(11, out);
    a.sd(10, 11, 0);
    a.jal_to(1, func);
    a.sd(10, 11, 8);
    a.exit(0);
    let st = run(&a.finish());
    assert_eq!(st.mem.read_u64(out).unwrap(), 42);
    assert_eq!(st.mem.read_u64(out + 8).unwrap(), 84);
}

#[test]
fn entry_point_respected() {
    // set_entry_here after dead code: the dead prefix must not run.
    let mut a = RvAsm::new(0x1_0000, 0x10_0000);
    let out = a.data_u64(7);
    a.la(5, out);
    a.li(6, 999);
    a.sd(6, 5, 0); // dead: would clobber out
    a.set_entry_here();
    a.exit(0);
    let st = run(&a.finish());
    assert_eq!(st.mem.read_u64(out).unwrap(), 7, "dead prefix executed");
}
