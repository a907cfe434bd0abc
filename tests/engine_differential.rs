//! Differential conformance suite for the retire loop: every kernel ×
//! both ISAs × two size classes must come out of the emulation core's
//! block loop byte-identical to the per-instruction stepper oracle
//! (`tests/common/stepper.rs`) — identical final architectural state
//! hashes, identical retirement streams, and identical `matrix.json`
//! sweeps — including under injected faults and seeded campaign
//! schedules.
//!
//! The core runs blocks between a campaign's due points and single-steps
//! while a read flip is pending; the stepper consults the campaign before
//! every step. The faulted legs here pin that the two are the same run.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use isacmp::{
    compile, executor, interpret, isa_label, matrix_combos, record_outcome, run_matrix_opts,
    Campaign, CampaignManifest, CampaignSpec, CellAnalyses, CellError, CellOptions, CpuState,
    EmulationCore, ExperimentCell, FaultPlan, InjectSpec, IsaExecutor, IsaKind, MatrixOptions,
    Observer, Personality, ResultMatrix, RetiredInst, RiscVExecutor, SizeClass, Workload,
};

use simcore::source::RUN_RECORDS;
use simcore::MAX_BLOCK_LEN;

mod common;
use common::stepper::run_stepped;

/// The core's default budget, which the stepper must stop at too.
const BUDGET: u64 = EmulationCore::<RiscVExecutor>::DEFAULT_BUDGET;

/// Folds the full retirement stream — every field of every record, in
/// order — into one hash. In the core this also exercises run
/// dispatch.
#[derive(Default)]
struct StreamHash {
    hash: u64,
    records: u64,
}

impl Observer for StreamHash {
    fn on_retire(&mut self, ri: &RetiredInst) {
        let mut h = DefaultHasher::new();
        self.hash.hash(&mut h);
        format!("{ri:?}").hash(&mut h);
        self.hash = h.finish();
        self.records += 1;
    }
}

/// Everything observable about one run, comparable between the core and
/// the stepper.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    result: Result<u64, String>,
    state_hash: u64,
    instret: u64,
    pc: u64,
    stream: Option<(u64, u64)>,
}

/// Run `state` on the core, or on the stepper oracle when `stepped`.
fn drive<E: IsaExecutor>(
    exec: E,
    state: &mut CpuState,
    observers: &mut [&mut dyn Observer],
    campaign: Option<Campaign>,
    stepped: bool,
) -> Result<u64, isacmp::SimError> {
    if stepped {
        return run_stepped(&exec, state, observers, campaign, BUDGET);
    }
    let mut core = EmulationCore::new(exec);
    if let Some(c) = campaign {
        core = core.with_campaign(c);
    }
    core.run(state, observers).map(|s| s.retired)
}

fn drive_isa(
    isa: IsaKind,
    state: &mut CpuState,
    observers: &mut [&mut dyn Observer],
    campaign: Option<Campaign>,
    stepped: bool,
) -> Result<u64, isacmp::SimError> {
    drive(executor(isa), state, observers, campaign, stepped)
}

fn run_one(
    workload: Workload,
    isa: IsaKind,
    size: SizeClass,
    stepped: bool,
    campaign: Option<Campaign>,
    with_stream: bool,
) -> Outcome {
    let compiled = compile(&workload.build(size), isa, &Personality::gcc122());
    let mut st = CpuState::new();
    compiled.program.load(&mut st).expect("program loads");
    let mut stream = StreamHash::default();
    let mut obs: Vec<&mut dyn Observer> = Vec::new();
    if with_stream {
        obs.push(&mut stream);
    }
    let result = drive_isa(isa, &mut st, &mut obs, campaign, stepped);
    Outcome {
        result: result.map_err(|e| e.to_string()),
        state_hash: st.state_hash(),
        instret: st.instret,
        pc: st.pc,
        stream: with_stream.then_some((stream.hash, stream.records)),
    }
}

fn assert_core_matches_stepper(
    workload: Workload,
    isa: IsaKind,
    size: SizeClass,
    fault: Option<&FaultPlan>,
    with_stream: bool,
) {
    let inj = |f: Option<&FaultPlan>| f.map(|p| Campaign::from(p.clone()));
    let stepper = run_one(workload, isa, size, true, inj(fault), with_stream);
    let core = run_one(workload, isa, size, false, inj(fault), with_stream);
    assert_eq!(
        stepper,
        core,
        "core diverges from the stepper on {}/{:?}/{} fault={:?}",
        workload.name(),
        isa,
        size.name(),
        fault
    );
}

/// Every kernel × both ISAs at the small size class, bare (no
/// observers): final state hash, instret, pc, and stop outcome must be
/// identical. Bare runs hand the executor no run buffer, so this is the
/// leg that exercises block-cached execution without observer dispatch.
#[test]
fn small_runs_agree_bare_on_both_engines() {
    for workload in Workload::ALL {
        for isa in [IsaKind::RiscV, IsaKind::AArch64] {
            assert_core_matches_stepper(workload, isa, SizeClass::Small, None, false);
        }
    }
}

/// Every kernel × both ISAs at the test size class with a
/// per-instruction stream observer attached: the full retirement streams
/// (every field of every record, in order) must hash identically.
#[test]
fn test_runs_agree_with_full_retirement_streams() {
    for workload in Workload::ALL {
        for isa in [IsaKind::RiscV, IsaKind::AArch64] {
            assert_core_matches_stepper(workload, isa, SizeClass::Test, None, true);
        }
    }
}

/// Injected faults — a trap, a fetch corruption, and a read bit-flip —
/// must degrade the core exactly as the stepper: same error (or same
/// silent corruption), same final state hash, same faulting retirement
/// count.
#[test]
fn faulted_runs_agree_on_both_engines() {
    let faults = [
        FaultPlan::parse("trap@1000").unwrap(),
        FaultPlan::parse("fetch@500:0x4").unwrap(),
        FaultPlan::parse("read@40:62").unwrap(),
    ];
    for fault in &faults {
        for isa in [IsaKind::RiscV, IsaKind::AArch64] {
            assert_core_matches_stepper(Workload::Stream, isa, SizeClass::Test, Some(fault), true);
        }
    }
}

/// A seeded campaign schedule (multiple faults per run) must fire at the
/// same retirement counts and leave the same wreckage on the core as on
/// the stepper.
#[test]
fn campaign_runs_agree_on_both_engines() {
    let spec = CampaignSpec::parse("7:3").unwrap();
    let manifest = CampaignManifest::sample(spec);
    for isa in [IsaKind::RiscV, IsaKind::AArch64] {
        let campaign = || Some(manifest.campaign().unwrap());
        let stepper = run_one(Workload::Lbm, isa, SizeClass::Test, true, campaign(), true);
        let core = run_one(Workload::Lbm, isa, SizeClass::Test, false, campaign(), true);
        assert_eq!(stepper, core, "campaign runs diverge on {isa:?}");
    }
}

/// Every run of records an observer is handed, in order: single records
/// from the stepper, runs from the core.
#[derive(Default)]
struct RunLog(Vec<Vec<RetiredInst>>);

impl Observer for RunLog {
    fn on_retire(&mut self, ri: &RetiredInst) {
        self.0.push(vec![*ri]);
    }

    fn on_records(&mut self, run: &[RetiredInst]) {
        self.0.push(run.to_vec());
    }
}

fn logged_run(
    workload: Workload,
    isa: IsaKind,
    fault: Option<&FaultPlan>,
    stepped: bool,
) -> (Result<u64, String>, RunLog) {
    let compiled = compile(
        &workload.build(SizeClass::Test),
        isa,
        &Personality::gcc122(),
    );
    let mut st = CpuState::new();
    compiled.program.load(&mut st).expect("program loads");
    let mut log = RunLog::default();
    let campaign = fault.map(|p| Campaign::from(p.clone()));
    let result = drive_isa(isa, &mut st, &mut [&mut log], campaign, stepped);
    (result.map_err(|e| e.to_string()), log)
}

/// The core hands its observers runs: none empty, none longer than a full
/// run plus one block, and together exactly the stepper's records, in
/// order. That holds for every kernel, when a trap ends the run (the
/// observers then hold exactly the records retired before it) and while
/// a read flip is pending (records retire one step at a time).
#[test]
fn live_runs_are_bounded_and_concatenate_to_the_steppers_records() {
    let trap = FaultPlan::parse("trap@1000").unwrap();
    let flip = FaultPlan::parse("read@40:62").unwrap();
    let mut cases: Vec<(Workload, Option<&FaultPlan>)> =
        Workload::ALL.iter().map(|&w| (w, None)).collect();
    cases.extend([
        (Workload::Stream, Some(&trap)),
        (Workload::Stream, Some(&flip)),
    ]);
    for (workload, fault) in cases {
        for isa in [IsaKind::RiscV, IsaKind::AArch64] {
            let what = format!("{}/{isa:?} fault={fault:?}", workload.name());
            let (stepper_result, stepper) = logged_run(workload, isa, fault, true);
            let (core_result, core) = logged_run(workload, isa, fault, false);
            assert_eq!(core_result, stepper_result, "{what}");
            for run in &core.0 {
                assert!(
                    (1..=RUN_RECORDS + MAX_BLOCK_LEN).contains(&run.len()),
                    "{what}: a run of {} records",
                    run.len()
                );
            }
            let records = core.0.concat();
            assert!(records == stepper.0.concat(), "{what}: records differ");
            if fault == Some(&trap) {
                assert_eq!(records.len(), 1000, "{what}");
            }
        }
    }
}

/// One matrix cell measured on the stepper: the same analyses, exit-code
/// and checksum checks and failure kinds as a live cell, minus retries.
fn stepped_cell(
    workload: Workload,
    isa: IsaKind,
    p: &Personality,
    size: SizeClass,
    opts: &CellOptions,
) -> Result<ExperimentCell, CellError> {
    let prog = workload.build(size);
    let compiled = compile(&prog, isa, p);
    let mut st = CpuState::new();
    compiled.program.load(&mut st).map_err(CellError::Load)?;
    let mut analyses = CellAnalyses::new(&compiled.program.regions);
    let run = drive_isa(
        isa,
        &mut st,
        &mut [&mut analyses],
        opts.armed_campaign(),
        true,
    );
    run.map_err(|err| CellError::Sim {
        err,
        instret: st.instret,
    })?;
    if let Some(code) = st.exited.filter(|&c| c != 0) {
        return Err(CellError::NonZeroExit { code });
    }
    let expected = interpret(&prog, p).checksum;
    let got = st
        .mem
        .read_f64(compiled.checksum_addr)
        .map_err(|err| CellError::Sim {
            err,
            instret: st.instret,
        })?;
    if got.to_bits() != expected.to_bits() {
        return Err(CellError::ChecksumMismatch {
            expected_bits: expected.to_bits(),
            got_bits: got.to_bits(),
        });
    }
    Ok(analyses.into_cell(workload.name(), p.label(), isa_label(isa)))
}

/// The whole matrix, cell by cell on the stepper, in the matrix's order.
fn stepped_matrix(workloads: &[Workload], size: SizeClass, opts: &MatrixOptions) -> ResultMatrix {
    let mut m = ResultMatrix::default();
    for (w, p, isa) in matrix_combos(workloads) {
        let cell_opts = opts.cell_options(w.name(), p.label(), isa_label(isa));
        let outcome = stepped_cell(w, isa, &p, size, &cell_opts);
        record_outcome(
            &mut m,
            w.name(),
            p.label(),
            isa_label(isa),
            Ok(outcome),
            opts.retries,
        );
    }
    m
}

/// Whole-sweep equivalence: `matrix.json` — the analysis tables' on-disk
/// form, cells and failure records both — must serialize byte-identically
/// to the stepper's, clean, with a targeted `--inject` fault, and under a
/// `--campaign` schedule.
#[test]
fn matrix_json_is_byte_identical_across_engines() {
    let workloads = [Workload::Stream, Workload::Lbm];
    let agree = |opts: &MatrixOptions, what: &str| {
        assert_eq!(
            stepped_matrix(&workloads, SizeClass::Test, opts).to_json(),
            run_matrix_opts(&workloads, SizeClass::Test, opts).to_json(),
            "{what} sweeps diverge"
        );
    };

    agree(&MatrixOptions::default(), "clean");
    let inject = MatrixOptions {
        inject: Some(InjectSpec::parse("STREAM/gcc-12.2/RISC-V:trap@1000").unwrap()),
        ..Default::default()
    };
    agree(&inject, "injected");
    let campaign = MatrixOptions {
        campaign: Some(
            CampaignManifest::sample(CampaignSpec::parse("7:3").unwrap())
                .campaign()
                .unwrap(),
        ),
        ..Default::default()
    };
    agree(&campaign, "campaign");
}

mod invalidation {
    use isa_aarch64::{Cond, MovOp, ShiftType};
    use isa_riscv::{BranchOp, ImmOp};
    use isacmp::{executor, Campaign, CpuState, EmulationCore, FaultPlan, IsaExecutor, IsaKind};

    use super::common::stepper::run_stepped;

    const CODE: u64 = 0x1_0000;
    const ISAS: [IsaKind; 2] = [IsaKind::RiscV, IsaKind::AArch64];

    /// `x<rd> = imm`.
    fn mov(isa: IsaKind, rd: u8, imm: u16) -> u32 {
        match isa {
            IsaKind::RiscV => isa_riscv::encode(&isa_riscv::Inst::OpImm {
                op: ImmOp::Addi,
                rd,
                rs1: 0,
                imm: imm.into(),
            }),
            IsaKind::AArch64 => isa_aarch64::encode(&isa_aarch64::Inst::MovWide {
                op: MovOp::Movz,
                sf: true,
                rd,
                imm16: imm,
                hw: 0,
            }),
        }
    }

    /// The bit of a [`mov`] word that holds bit 6 of its immediate.
    fn mov_imm_bit6(isa: IsaKind) -> u32 {
        match isa {
            IsaKind::RiscV => 1 << 26,
            IsaKind::AArch64 => 1 << 11,
        }
    }

    /// `x1 += 1` until `x1 >= x2`, the increment first, and the bit of the
    /// increment's word that turns its immediate 1 into 3.
    fn count_loop(isa: IsaKind) -> (Vec<u32>, u32) {
        match isa {
            IsaKind::RiscV => {
                use isa_riscv::{encode, Inst};
                let program = vec![
                    encode(&Inst::OpImm {
                        op: ImmOp::Addi,
                        rd: 1,
                        rs1: 1,
                        imm: 1,
                    }),
                    encode(&Inst::Branch {
                        op: BranchOp::Blt,
                        rs1: 1,
                        rs2: 2,
                        offset: -4,
                    }),
                ];
                (program, 21)
            }
            IsaKind::AArch64 => {
                use isa_aarch64::{encode, Inst};
                let program = vec![
                    encode(&Inst::AddSubImm {
                        sub: false,
                        set_flags: false,
                        sf: true,
                        rd: 1,
                        rn: 1,
                        imm12: 1,
                        shift12: false,
                    }),
                    encode(&Inst::AddSubShifted {
                        sub: true,
                        set_flags: true,
                        sf: true,
                        rd: 31,
                        rn: 1,
                        rm: 2,
                        shift: ShiftType::Lsl,
                        amount: 0,
                    }),
                    encode(&Inst::BCond {
                        cond: Cond::Lt,
                        offset: -8,
                    }),
                ];
                (program, 11)
            }
        }
    }

    fn load(words: &[u32]) -> CpuState {
        let mut st = CpuState::new();
        st.pc = CODE;
        for (i, w) in words.iter().enumerate() {
            st.mem.write_u32(CODE + 4 * i as u64, *w).unwrap();
        }
        st
    }

    /// An explicit `flush_decode_cache` must drop cached blocks: after
    /// the program bytes at a warm PC change, a run must
    /// execute the new bytes, not the stale decode.
    #[test]
    fn flush_drops_cached_blocks_and_redecodes() {
        for isa in ISAS {
            let exec = executor(isa);

            // Warm the block cache with the original program.
            let mut st = load(&[mov(isa, 1, 5)]);
            let _ = EmulationCore::new(&exec).run(&mut st, &mut []);
            assert_eq!(st.x[1], 5, "{isa}");

            // Same PC, mutated bytes, same executor: without a flush the
            // stale block would replay the old immediate.
            exec.flush_decode_cache();
            let mut st = load(&[mov(isa, 1, 9)]);
            let _ = EmulationCore::new(&exec).run(&mut st, &mut []);
            assert_eq!(
                st.x[1], 9,
                "{isa}: flush must force a re-decode of the mutated bytes"
            );
        }
    }

    /// End-to-end: a `fetch@N:MASK` fault mutates the fetched word and
    /// flushes the decode caches. A later run on the same
    /// executor, over the mutated program image, must execute the
    /// mutated semantics — the pre-fault block cached at the same PC
    /// (with the original bytes) must not survive.
    #[test]
    fn fetch_fault_flushes_the_block_cache() {
        for isa in ISAS {
            let w_orig = mov(isa, 1, 5);
            let mask = mov_imm_bit6(isa); // 5 ^ 64 = 69
            let w_mut = w_orig ^ mask;
            assert_eq!(
                w_mut,
                mov(isa, 1, 69),
                "{isa}: mask must yield a decodable mutated instruction"
            );
            let program = [mov(isa, 2, 1), w_orig];

            let exec = executor(isa);

            // Warm the block cache with the pristine program.
            let mut st = load(&program);
            let _ = EmulationCore::new(&exec).run(&mut st, &mut []);
            assert_eq!(st.x[1], 5, "{isa}");

            // Fault at retirement 1: the word at CODE+4 is XOR-masked in
            // guest memory and the decode caches are flushed.
            let plan = FaultPlan::parse(&format!("fetch@1:{mask:#x}")).unwrap();
            let mut st = load(&program);
            let _ = EmulationCore::new(&exec)
                .with_campaign(plan.into())
                .run(&mut st, &mut []);
            assert_eq!(
                st.x[1], 69,
                "{isa}: the corrupted fetch must execute the mutated immediate"
            );
            assert_eq!(
                st.mem.read_u32(CODE + 4).unwrap(),
                w_mut,
                "{isa}: the fault mutates guest memory"
            );

            // A run over a mutated image at the warm PC: only the
            // fault's cache flush makes this re-decode instead of replaying
            // the pristine block cached in step one.
            let mut st = load(&[program[0], w_mut]);
            let _ = EmulationCore::new(&exec).run(&mut st, &mut []);
            assert_eq!(
                st.x[1], 69,
                "{isa}: stale pre-fault block must not survive the flush"
            );
        }
    }

    /// Run [`count_loop`] to `x2 = 50` on `exec` (or on the stepper over
    /// it), with its increment's first fetch flipped when `flip`: read #1
    /// is that fetch.
    fn run_loop<E: IsaExecutor>(
        isa: IsaKind,
        exec: &E,
        stepped: bool,
        flip: bool,
    ) -> (Result<u64, String>, u64, u64, u64) {
        let (program, bit) = count_loop(isa);
        let campaign =
            flip.then(|| Campaign::from(FaultPlan::parse(&format!("read@1:{bit}")).unwrap()));
        let mut st = load(&program);
        st.x[2] = 50;
        let result = if stepped {
            run_stepped(exec, &mut st, &mut [], campaign, 1000)
        } else {
            let mut core = EmulationCore::new(exec).with_budget(1000);
            if let Some(c) = campaign {
                core = core.with_campaign(c);
            }
            core.run(&mut st, &mut []).map(|s| s.retired)
        };
        (
            result.map_err(|e| e.to_string()),
            st.x[1],
            st.instret,
            st.pc,
        )
    }

    /// A read flip that lands on an instruction fetch is decoded and kept
    /// in the per-word decode cache, so every later pass over that pc
    /// runs the flipped instruction. Blocks built after the flip has fired
    /// must reuse that decode, not re-fetch the clean word.
    #[test]
    fn read_flip_on_a_fetch_stays_in_the_loop() {
        for isa in ISAS {
            let stepper = run_loop(isa, &executor(isa), true, true);
            assert_eq!(
                stepper.1, 51,
                "{isa}: every pass adds the flipped immediate 3"
            );
            assert_eq!(run_loop(isa, &executor(isa), false, true), stepper, "{isa}");
        }
    }

    /// An executor that backs several runs keeps its caches between them.
    /// A flip armed in a later run must still land on the fetch it names,
    /// so the run comes out as the stepper's on a fresh executor.
    #[test]
    fn read_flip_on_a_shared_executor_stays_in_the_loop() {
        for isa in ISAS {
            let stepper = run_loop(isa, &executor(isa), true, true);
            let exec = executor(isa);
            let warm = run_loop(isa, &exec, false, false);
            assert_eq!(warm.1, 50, "{isa}: the clean run counts by 1");
            assert_eq!(run_loop(isa, &exec, false, true), stepper, "{isa}");
        }
    }
}
