//! Integration: ELF round trips preserve measurement results, the
//! pipeline/cache extensions behave sensibly on real workloads, and a
//! pipeline-timed run is architecturally identical to plain emulation —
//! with fault injection off *and* on.

use isacmp::{
    compile, execute, run_pipeline, run_pipeline_full, try_execute, try_run_pipeline_full,
    CacheConfig, CacheModel, Campaign, CellError, DualCriticalPath, FaultPlan, IsaKind, Observer,
    PathLength, Personality, PipelineConfig, Program, SizeClass, Tx2Latency, Workload,
};

#[test]
fn elf_round_trip_preserves_measurements() {
    for isa in [IsaKind::AArch64, IsaKind::RiscV] {
        let compiled = compile(
            &Workload::Stream.build(SizeClass::Test),
            isa,
            &Personality::gcc122(),
        );

        // Direct run.
        let mut pl_direct = PathLength::new(&compiled.program.regions);
        execute(&compiled, &mut [&mut pl_direct]);

        // Through ELF bytes.
        let elf = compiled.program.to_elf();
        let loaded = Program::from_elf(&elf).expect("parse own ELF");
        assert_eq!(loaded.isa, isa);
        assert_eq!(
            loaded.regions, compiled.program.regions,
            "region note survives"
        );
        let reloaded = isacmp::Compiled {
            program: loaded,
            checksum_addr: compiled.checksum_addr,
            array_addrs: compiled.array_addrs.clone(),
        };
        let mut pl_elf = PathLength::new(&reloaded.program.regions);
        let mut cp = DualCriticalPath::new(Tx2Latency);
        let (st, _) = execute(&reloaded, &mut [&mut pl_elf, &mut cp]);

        assert_eq!(
            pl_elf.total(),
            pl_direct.total(),
            "identical execution after round trip"
        );
        assert_eq!(pl_elf.by_kernel(), pl_direct.by_kernel());
        assert!(st.mem.read_f64(reloaded.checksum_addr).unwrap().is_finite());
    }
}

#[test]
fn cached_pipeline_never_faster_than_ideal() {
    for w in [Workload::Stream, Workload::CloverLeaf] {
        for isa in [IsaKind::AArch64, IsaKind::RiscV] {
            let p = Personality::gcc122();
            let ideal = run_pipeline(w, isa, &p, SizeClass::Test, PipelineConfig::tx2(), true);
            let cached = run_pipeline_full(
                w,
                isa,
                &p,
                SizeClass::Test,
                PipelineConfig::tx2(),
                true,
                Some((CacheConfig::l1d_32k(), 100)),
            );
            assert!(
                cached.cycles >= ideal.cycles,
                "{} {}: cache made it faster? {} < {}",
                w.name(),
                isacmp::isa_label(isa),
                cached.cycles,
                ideal.cycles
            );
            assert_eq!(cached.retired, ideal.retired);
        }
    }
}

#[test]
fn pipeline_configs_order_sanely() {
    // More resources => never slower, for every workload and ISA.
    let p = Personality::gcc122();
    for w in Workload::ALL {
        for isa in [IsaKind::AArch64, IsaKind::RiscV] {
            let ino = run_pipeline(w, isa, &p, SizeClass::Test, PipelineConfig::a55(), false);
            let tx2 = run_pipeline(w, isa, &p, SizeClass::Test, PipelineConfig::tx2(), true);
            let fs = run_pipeline(
                w,
                isa,
                &p,
                SizeClass::Test,
                PipelineConfig::firestorm(),
                true,
            );
            assert!(
                tx2.cycles <= ino.cycles,
                "{}: TX2 {} > in-order {}",
                w.name(),
                tx2.cycles,
                ino.cycles
            );
            assert!(
                fs.cycles <= tx2.cycles,
                "{}: Firestorm {} > TX2 {}",
                w.name(),
                fs.cycles,
                tx2.cycles
            );
        }
    }
}

#[test]
fn pipeline_and_emulation_agree_architecturally() {
    // The pipeline models are timing observers over the same emulation
    // core, so the architectural outcome — retire count, final pc,
    // register files, guest checksum — must be bit-identical to a plain
    // emulation run for every seed kernel on both ISAs.
    let p = Personality::gcc122();
    for w in Workload::ALL {
        for isa in [IsaKind::AArch64, IsaKind::RiscV] {
            let compiled = compile(&w.build(SizeClass::Test), isa, &p);
            let (st_emu, stats) =
                try_execute(&compiled, &mut [], None, None).expect("emulation runs clean");
            let (st_pipe, pstats) =
                try_run_pipeline_full(&compiled, PipelineConfig::tx2(), true, None, None, None)
                    .expect("pipeline run is clean");
            let label = format!("{} / {}", w.name(), isacmp::isa_label(isa));
            assert_eq!(stats.retired, pstats.retired, "{label}: retire counts");
            assert_eq!(st_emu.instret, st_pipe.instret, "{label}: instret");
            assert_eq!(st_emu.pc, st_pipe.pc, "{label}: final pc");
            assert_eq!(st_emu.x, st_pipe.x, "{label}: integer registers");
            assert_eq!(st_emu.f, st_pipe.f, "{label}: fp registers");
            let sum_emu = st_emu.mem.read_f64(compiled.checksum_addr).unwrap();
            let sum_pipe = st_pipe.mem.read_f64(compiled.checksum_addr).unwrap();
            assert_eq!(sum_emu.to_bits(), sum_pipe.to_bits(), "{label}: checksum");
            assert!(
                st_emu.mem.pages_sorted() == st_pipe.mem.pages_sorted(),
                "{label}: guest memory"
            );
        }
    }
}

#[test]
fn pipeline_and_emulation_fail_identically_under_injection() {
    // Arm the same deterministic fault on both paths: each must degrade to
    // the same typed error at the same retirement point — the pipeline
    // models inherit the injection hook, they don't approximate it.
    let p = Personality::gcc122();
    let instret = |e: &CellError| match e {
        CellError::Sim { instret, .. } => *instret,
        other => panic!("expected a sim error, got {other}"),
    };
    for (at, config, out_of_order) in [
        (7, PipelineConfig::a55(), false),
        (1000, PipelineConfig::tx2(), true),
    ] {
        for isa in [IsaKind::AArch64, IsaKind::RiscV] {
            let fault = Campaign::from(FaultPlan::parse(&format!("trap@{at}")).unwrap());
            let compiled = compile(&Workload::Stream.build(SizeClass::Test), isa, &p);
            let err_emu = match try_execute(&compiled, &mut [], None, Some(&fault)) {
                Err(e) => e,
                Ok(_) => panic!("injected trap must fail emulation"),
            };
            let err_pipe = match try_run_pipeline_full(
                &compiled,
                config.clone(),
                out_of_order,
                None,
                None,
                Some(&fault),
            ) {
                Err(e) => e,
                Ok(_) => panic!("injected trap must fail the pipeline run"),
            };
            assert_eq!(err_emu.kind(), "sim");
            assert_eq!(err_emu.kind(), err_pipe.kind(), "same typed failure kind");
            assert_eq!(
                err_emu.to_string(),
                err_pipe.to_string(),
                "same fault, same pc, same instret on both paths"
            );
            assert_eq!(instret(&err_emu), at, "the trap lands on its count");
            assert_eq!(
                instret(&err_pipe),
                at,
                "both paths stop at the same retirement"
            );
        }
    }
}

#[test]
fn cache_model_under_a_campaign_fires_its_read_flip_once() {
    // A cache model is one more observer of the emulation core, so a whole
    // campaign arms on its run as on any other: the read flip fires once,
    // and the cache still sees the guest's loads.
    for isa in [IsaKind::AArch64, IsaKind::RiscV] {
        let compiled = compile(
            &Workload::Stream.build(SizeClass::Test),
            isa,
            &Personality::gcc122(),
        );
        let campaign = Campaign::from_plans(vec![FaultPlan::parse("read@1000:0").unwrap()], 0);
        let mut l1d = CacheModel::new(CacheConfig::l1d_32k());
        // The flip may or may not corrupt the result; only its firing and
        // the cache's view of the run are checked here.
        let _ = try_execute(&compiled, &mut [&mut l1d], None, Some(&campaign));
        assert_eq!(
            campaign.fired_count(),
            1,
            "the read flip armed (and fired) once"
        );
        assert!(l1d.stats().accesses > 0, "the cache saw the guest's loads");
    }
}

#[test]
fn cache_hit_rates_isa_symmetric() {
    // The paper compares ISAs, not data layouts: identical kernels touch
    // identical data, so L1D hit rates must match closely across ISAs.
    for w in Workload::ALL {
        let mut rates = Vec::new();
        for isa in [IsaKind::AArch64, IsaKind::RiscV] {
            let compiled = compile(&w.build(SizeClass::Test), isa, &Personality::gcc122());
            let mut l1d = CacheModel::new(CacheConfig::l1d_32k());
            {
                let mut obs: Vec<&mut dyn Observer> = vec![&mut l1d];
                execute(&compiled, &mut obs);
            }
            rates.push(l1d.stats().hit_rate());
        }
        assert!(
            (rates[0] - rates[1]).abs() < 0.02,
            "{}: hit rates diverge across ISAs: {rates:?}",
            w.name()
        );
    }
}
