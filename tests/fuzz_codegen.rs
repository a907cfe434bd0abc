//! Whole-stack differential fuzzing: random kernel-IR programs are
//! compiled by both ISA back-ends under both compiler personalities and
//! executed in the emulator; every run must reproduce the reference
//! interpreter's checksum bit-for-bit.
//!
//! This exercises, in one property: IR validation, both instruction
//! selectors, register allocation, the assemblers and encoders, both
//! decoders and executors, the loader, the syscall layer and the checksum
//! plumbing.
//!
//! Generated programs avoid NaN-producing operations (division and raw
//! square roots), and every statement's value is clamped to ±1e10 so
//! repeated feedback through arrays cannot overflow to infinity (inf-inf
//! would mint NaNs, whose min/max handling legitimately differs between
//! the interpreter's number semantics and each ISA's architectural rules).
//! Everything else must agree bit-exactly.

use isa_aarch64::AArch64Executor;
use isa_riscv::RiscVExecutor;
use kernelgen::{compile, interpret, KernelProgram, Personality};
use proptest::prelude::*;
use simcore::{CpuState, EmulationCore, IsaKind};

mod common;
use common::fuzz_programs::{program_spec, realise};

fn run_on(prog: &KernelProgram, isa: IsaKind, p: &Personality) -> f64 {
    let c = compile(prog, isa, p);
    let mut st = CpuState::new();
    c.program.load(&mut st).unwrap();
    match isa {
        IsaKind::RiscV => EmulationCore::new(RiscVExecutor::new())
            .run(&mut st, &mut [])
            .unwrap(),
        IsaKind::AArch64 => EmulationCore::new(AArch64Executor::new())
            .run(&mut st, &mut [])
            .unwrap(),
    };
    st.mem.read_f64(c.checksum_addr).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn random_programs_agree_everywhere(spec in program_spec()) {
        let prog = realise(&spec);
        for personality in [Personality::gcc92(), Personality::gcc122()] {
            let expected = interpret(&prog, &personality).checksum;
            prop_assert!(expected.is_finite(), "generator must keep values finite");
            for isa in [IsaKind::RiscV, IsaKind::AArch64] {
                let got = run_on(&prog, isa, &personality);
                prop_assert_eq!(
                    got.to_bits(),
                    expected.to_bits(),
                    "{:?} {} mismatch: got {}, expected {} for {:?}",
                    isa,
                    personality.label(),
                    got,
                    expected,
                    spec
                );
            }
        }
    }

    #[test]
    fn ablation_personalities_preserve_semantics(spec in program_spec()) {
        let prog = realise(&spec);
        let base = interpret(&prog, &Personality::gcc122()).checksum;
        let mut post = Personality::gcc122();
        post.arm_post_index = true;
        let mut noreg = Personality::gcc122();
        noreg.arm_register_offset = false;
        let mut nofuse = Personality::gcc122();
        nofuse.riscv_fused_compare_branch = false;
        prop_assert_eq!(run_on(&prog, IsaKind::AArch64, &post).to_bits(), base.to_bits());
        prop_assert_eq!(run_on(&prog, IsaKind::AArch64, &noreg).to_bits(), base.to_bits());
        prop_assert_eq!(run_on(&prog, IsaKind::RiscV, &nofuse).to_bits(), base.to_bits());
    }
}

/// Retire-loop differential fuzzing over *raw instruction sequences*:
/// DeckRng-generated branch-dense, self-branching, and
/// block-boundary-straddling code must retire identical (pc, instret,
/// state-hash) streams on the emulation core's block loop and on the
/// per-instruction stepper oracle (`tests/common/stepper.rs`) — with
/// observers attached (records built into a run buffer) and bare (none). On
/// the first divergence the failing sequence is shrunk by hand (prefix
/// truncation, then per-instruction nop substitution; the in-tree
/// proptest shim has no shrinker) before the panic reports it.
mod engine_fuzz {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    use simcore::{CpuState, EmulationCore, IsaExecutor, Observer, RetiredInst};

    use crate::common::stepper::run_stepped;

    const CODE_BASE: u64 = 0x1_0000;
    const SCRATCH: u64 = 0x8_0000;
    /// Retirement budget: bounds self-branching loops on the core and the
    /// stepper at the same count, so infinite loops are comparable, not
    /// fatal.
    const BUDGET: u64 = 4096;

    /// splitmix64, mirroring the workloads crate's (private) `DeckRng` so
    /// the generated decks here follow the repo's one blessed PRNG.
    struct DeckRng {
        state: u64,
    }

    impl DeckRng {
        fn new(seed: u64) -> Self {
            Self { state: seed }
        }

        fn next(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn chance(&mut self, pct: u64) -> bool {
            self.below(100) < pct
        }
    }

    /// One generation profile per satellite concern.
    #[derive(Clone, Copy)]
    struct Profile {
        len: usize,
        branch_pct: u64,
        mem_pct: u64,
    }

    fn profile_for(seed: u64) -> Profile {
        match seed % 3 {
            // Branch-dense (including self-branches): every block is short.
            0 => Profile {
                len: 32,
                branch_pct: 40,
                mem_pct: 0,
            },
            // Straight-line runs longer than MAX_BLOCK_LEN (64): straddles
            // block boundaries, so fuel splits mid-run.
            1 => Profile {
                len: 96 + (seed as usize % 65),
                branch_pct: 4,
                mem_pct: 10,
            },
            // Mixed ALU/memory/branch soup.
            _ => Profile {
                len: 48,
                branch_pct: 20,
                mem_pct: 25,
            },
        }
    }

    /// Branch target: any slot in the sequence (self-branch when t == i)
    /// or one past the end (falls into zero-filled page → decode fault,
    /// which the core and the stepper must surface identically).
    fn target_offset(rng: &mut DeckRng, i: usize, len: usize) -> i64 {
        let t = rng.below(len as u64 + 1) as i64;
        (t - i as i64) * 4
    }

    fn gen_riscv(seed: u64) -> Vec<u32> {
        use isa_riscv::{encode, BranchOp, ImmOp, Inst, LoadOp, RegOp, StoreOp};
        let p = profile_for(seed);
        let mut rng = DeckRng::new(seed.wrapping_mul(0xA5A5_0001).wrapping_add(1));
        let reg = |rng: &mut DeckRng| 1 + rng.below(15) as u8;
        (0..p.len)
            .map(|i| {
                let inst = if rng.chance(p.branch_pct) {
                    let offset = target_offset(&mut rng, i, p.len);
                    if rng.chance(25) {
                        Inst::Jal {
                            rd: reg(&mut rng),
                            offset,
                        }
                    } else {
                        let op = match rng.below(6) {
                            0 => BranchOp::Beq,
                            1 => BranchOp::Bne,
                            2 => BranchOp::Blt,
                            3 => BranchOp::Bge,
                            4 => BranchOp::Bltu,
                            _ => BranchOp::Bgeu,
                        };
                        Inst::Branch {
                            op,
                            rs1: reg(&mut rng),
                            rs2: reg(&mut rng),
                            offset,
                        }
                    }
                } else if rng.chance(p.mem_pct) {
                    // x8 is preset to SCRATCH; keep accesses inside the page.
                    let offset = (rng.below(512) * 8) as i64;
                    if rng.chance(50) {
                        Inst::Load {
                            op: LoadOp::Ld,
                            rd: reg(&mut rng),
                            rs1: 8,
                            offset,
                        }
                    } else {
                        Inst::Store {
                            op: StoreOp::Sd,
                            rs2: reg(&mut rng),
                            rs1: 8,
                            offset,
                        }
                    }
                } else if rng.chance(50) {
                    let op = match rng.below(4) {
                        0 => ImmOp::Addi,
                        1 => ImmOp::Xori,
                        2 => ImmOp::Ori,
                        _ => ImmOp::Andi,
                    };
                    let imm = rng.below(256) as i64 - 128;
                    Inst::OpImm {
                        op,
                        rd: reg(&mut rng),
                        rs1: reg(&mut rng),
                        imm,
                    }
                } else {
                    let op = match rng.below(4) {
                        0 => RegOp::Add,
                        1 => RegOp::Sub,
                        2 => RegOp::Xor,
                        _ => RegOp::Sltu,
                    };
                    Inst::Op {
                        op,
                        rd: reg(&mut rng),
                        rs1: reg(&mut rng),
                        rs2: reg(&mut rng),
                    }
                };
                encode(&inst)
            })
            .collect()
    }

    fn gen_aarch64(seed: u64) -> Vec<u32> {
        use isa_aarch64::{encode, Cond, Inst, LogicOp, MovOp, ShiftType};
        let p = profile_for(seed);
        let mut rng = DeckRng::new(seed.wrapping_mul(0x5A5A_0003).wrapping_add(2));
        let reg = |rng: &mut DeckRng| rng.below(15) as u8;
        (0..p.len)
            .map(|i| {
                let inst = if rng.chance(p.branch_pct) {
                    let offset = target_offset(&mut rng, i, p.len);
                    match rng.below(3) {
                        0 => Inst::B {
                            link: false,
                            offset,
                        },
                        1 => {
                            let cond = match rng.below(6) {
                                0 => Cond::Eq,
                                1 => Cond::Ne,
                                2 => Cond::Lt,
                                3 => Cond::Ge,
                                4 => Cond::Hi,
                                _ => Cond::Ls,
                            };
                            Inst::BCond { cond, offset }
                        }
                        _ => Inst::Cbz {
                            nonzero: rng.chance(50),
                            sf: true,
                            rt: reg(&mut rng),
                            offset,
                        },
                    }
                } else {
                    match rng.below(3) {
                        0 => Inst::AddSubImm {
                            sub: rng.chance(50),
                            set_flags: rng.chance(50),
                            sf: true,
                            rd: reg(&mut rng),
                            rn: reg(&mut rng),
                            imm12: rng.below(4096) as u16,
                            shift12: false,
                        },
                        1 => Inst::LogicalShifted {
                            op: if rng.chance(50) {
                                LogicOp::Orr
                            } else {
                                LogicOp::Eor
                            },
                            sf: true,
                            rd: reg(&mut rng),
                            rn: reg(&mut rng),
                            rm: reg(&mut rng),
                            shift: ShiftType::Lsl,
                            amount: rng.below(8) as u8,
                        },
                        _ => Inst::MovWide {
                            op: MovOp::Movz,
                            sf: true,
                            rd: reg(&mut rng),
                            imm16: rng.below(65536) as u16,
                            hw: rng.below(2) as u8,
                        },
                    }
                };
                encode(&inst)
            })
            .collect()
    }

    /// Streams every retired (pc, branch-taken) pair into a running hash.
    #[derive(Default)]
    struct PcStream {
        hash: u64,
        records: u64,
    }

    impl Observer for PcStream {
        fn on_retire(&mut self, ri: &RetiredInst) {
            let mut h = DefaultHasher::new();
            (self.hash, ri.pc, ri.is_branch, ri.taken).hash(&mut h);
            self.hash = h.finish();
            self.records += 1;
        }
    }

    /// Comparable fingerprint of one run: stop outcome, retirement count,
    /// final pc, final state hash, and (observed leg only) the pc stream.
    #[derive(Debug, PartialEq, Eq)]
    struct Fingerprint {
        result: Result<u64, String>,
        instret: u64,
        pc: u64,
        state_hash: u64,
        stream: Option<(u64, u64)>,
    }

    fn run_words<E: IsaExecutor>(
        words: &[u32],
        exec: E,
        stepped: bool,
        with_stream: bool,
    ) -> Fingerprint {
        let mut st = CpuState::new();
        st.pc = CODE_BASE;
        for (i, w) in words.iter().enumerate() {
            st.mem.write_u32(CODE_BASE + 4 * i as u64, *w).unwrap();
        }
        st.mem.write_bytes(SCRATCH, &[0u8; 4096]).unwrap();
        // Deterministic non-zero register file so compares and branches
        // see varied data; x8 doubles as the memory base.
        for i in 1..16 {
            st.x[i] = (i as u64).wrapping_mul(0x9E37_79B9) | 1;
        }
        st.x[8] = SCRATCH;
        let mut stream = PcStream::default();
        let mut obs: Vec<&mut dyn Observer> = Vec::new();
        if with_stream {
            obs.push(&mut stream);
        }
        let result = if stepped {
            run_stepped(&exec, &mut st, &mut obs, None, BUDGET)
        } else {
            EmulationCore::new(exec)
                .with_budget(BUDGET)
                .run(&mut st, &mut obs)
                .map(|s| s.retired)
        };
        Fingerprint {
            result: result.map_err(|e| e.to_string()),
            instret: st.instret,
            pc: st.pc,
            state_hash: st.state_hash(),
            stream: with_stream.then_some((stream.hash, stream.records)),
        }
    }

    /// `Some(description)` when the core and the stepper disagree on
    /// `words`, checked on both the observed (slow) and bare (fast) paths.
    fn divergence(words: &[u32], riscv: bool) -> Option<String> {
        let run = |stepped, with_stream| {
            if riscv {
                run_words(words, isa_riscv::RiscVExecutor::new(), stepped, with_stream)
            } else {
                run_words(
                    words,
                    isa_aarch64::AArch64Executor::new(),
                    stepped,
                    with_stream,
                )
            }
        };
        for with_stream in [true, false] {
            let (stepper, core) = (run(true, with_stream), run(false, with_stream));
            if stepper != core {
                return Some(format!(
                    "observers={with_stream}: stepper={stepper:?} core={core:?}"
                ));
            }
        }
        None
    }

    /// Hand-rolled shrinker: smallest still-diverging prefix first, then
    /// greedy per-instruction nop substitution.
    fn shrink(words: &[u32], riscv: bool, nop: u32) -> Vec<u32> {
        let mut cur: Vec<u32> = words.to_vec();
        for l in 1..cur.len() {
            if divergence(&cur[..l], riscv).is_some() {
                cur.truncate(l);
                break;
            }
        }
        for i in 0..cur.len() {
            let old = cur[i];
            if old == nop {
                continue;
            }
            cur[i] = nop;
            if divergence(&cur, riscv).is_none() {
                cur[i] = old;
            }
        }
        cur
    }

    fn check_seeds(riscv: bool, seeds: std::ops::Range<u64>) {
        let (nop, disasm): (u32, fn(u32) -> String) = if riscv {
            (
                isa_riscv::encode(&isa_riscv::Inst::OpImm {
                    op: isa_riscv::ImmOp::Addi,
                    rd: 0,
                    rs1: 0,
                    imm: 0,
                }),
                |w| match isa_riscv::decode(w) {
                    Ok(i) => isa_riscv::disassemble(&i),
                    Err(_) => format!("{w:#010x} (undecodable)"),
                },
            )
        } else {
            (
                isa_aarch64::encode(&isa_aarch64::Inst::MovWide {
                    op: isa_aarch64::MovOp::Movz,
                    sf: true,
                    rd: 20,
                    imm16: 0,
                    hw: 0,
                }),
                |w| match isa_aarch64::decode(w) {
                    Ok(i) => isa_aarch64::disassemble(&i),
                    Err(_) => format!("{w:#010x} (undecodable)"),
                },
            )
        };
        for seed in seeds {
            let words = if riscv {
                gen_riscv(seed)
            } else {
                gen_aarch64(seed)
            };
            if let Some(d) = divergence(&words, riscv) {
                let min = shrink(&words, riscv, nop);
                let listing: Vec<String> = min
                    .iter()
                    .enumerate()
                    .map(|(i, w)| format!("  {:#07x}: {}", CODE_BASE + 4 * i as u64, disasm(*w)))
                    .collect();
                panic!(
                    "core diverged from the stepper (seed {seed}, {} insts): {d}\n\
                     shrunk to {} insts:\n{}",
                    words.len(),
                    min.len(),
                    listing.join("\n")
                );
            }
        }
    }

    #[test]
    fn riscv_random_sequences_retire_identically_on_both_engines() {
        check_seeds(true, 0..60);
    }

    #[test]
    fn aarch64_random_sequences_retire_identically_on_both_engines() {
        check_seeds(false, 0..60);
    }
}
