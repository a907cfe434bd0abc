//! Every streaming dependency analysis against the brute-force DAG oracle
//! (`common::oracle`): unit and TX2-scaled critical paths, each window's
//! critical path, the dependency-distance histogram and the critical-chain
//! length, over random streams and over emulated fuzzed programs. The
//! fused bundle's critical paths are checked against the oracle's paths
//! through the merged stream a naive greedy pairing builds. Run it in the
//! debug profile too, where an overflowing lane panics.

use analysis::{
    CellAnalyses, CpComposition, DepDistance, DualCriticalPath, PathLength, WindowedCp,
    PAPER_WINDOW_SIZES,
};
use fusion::{merge, recognise, PairKind};
use isacmp::executor;
use kernelgen::{compile, KernelProgram, Personality};
use proptest::prelude::*;
use simcore::{
    CpuState, EmulationCore, InstGroup, IsaKind, Observer, RegId, RegSet, Region, RetiredInst,
};
use uarch::Tx2Latency;

mod common;
use common::fuzz_programs::{program_spec, realise};
use common::oracle::Dag;

/// Small sizes, so that short streams still close many windows.
const SMALL_WINDOWS: [usize; 7] = [2, 3, 4, 7, 16, 64, 200];
/// Odd sizes, whose slides fall out of step with the periodic pruning of
/// the windowed writer table.
const ODD_WINDOWS: [usize; 3] = [5, 150, 333];
/// Sizes needing 27 lanes, more than one 16-lane row.
const MULTI_ROW_WINDOWS: [usize; 10] = [2, 3, 5, 7, 9, 11, 13, 16, 33, 64];

/// Run every analysis over `stream` and require the oracle's numbers.
fn assert_matches_oracle(stream: &[RetiredInst]) {
    let dag = Dag::new(stream);
    let mut dual = DualCriticalPath::new(Tx2Latency);
    let mut comp = CpComposition::new();
    let mut dep = DepDistance::new();
    let mut small = WindowedCp::new(&SMALL_WINDOWS);
    let mut odd = WindowedCp::new(&ODD_WINDOWS);
    let mut multi_row = WindowedCp::new(&MULTI_ROW_WINDOWS);
    let mut paper = WindowedCp::paper();
    for ri in stream {
        dual.on_retire(ri);
        comp.on_retire(ri);
        dep.on_retire(ri);
        small.on_retire(ri);
        odd.on_retire(ri);
        multi_row.on_retire(ri);
        paper.on_retire(ri);
    }

    let unit = dag.unit_cp();
    assert_eq!(dual.unit().critical_path, unit, "unit CP");
    assert_eq!(dual.scaled().critical_path, dag.scaled_cp(), "scaled CP");
    assert_eq!(dual.unit().path_length, stream.len() as u64);
    assert_eq!(comp.critical_path(), unit, "CpComposition CP");

    let distances = dag.distances();
    assert_eq!(dep.edges(), distances.len() as u64, "dependency edges");
    assert_eq!(
        dep.histogram(),
        dag.distance_histogram(),
        "distance histogram"
    );
    let mean = distances.iter().sum::<u64>() as f64 / distances.len().max(1) as f64;
    assert_eq!(dep.mean(), mean, "mean distance");

    let analyzers = [
        (&small, &SMALL_WINDOWS[..]),
        (&odd, &ODD_WINDOWS[..]),
        (&multi_row, &MULTI_ROW_WINDOWS[..]),
        (&paper, &PAPER_WINDOW_SIZES[..]),
    ];
    for (w, sizes) in analyzers {
        assert_windows_match(&dag, w, sizes);
    }
}

/// Run lengths a bulk source might hand an observer: single records,
/// lengths that straddle a live run's 512, and the whole stream.
const RUN_LENGTHS: [usize; 7] = [1, 2, 3, 511, 512, 4_096, usize::MAX];

/// Hand `stream` to `obs` in runs of `run` records.
fn feed(obs: &mut dyn Observer, stream: &[RetiredInst], run: usize) {
    for part in stream.chunks(run) {
        obs.on_records(part);
    }
    obs.on_finish();
}

fn assert_windows_match(dag: &Dag, w: &WindowedCp, sizes: &[usize]) {
    let want: Vec<_> = sizes.iter().map(|&s| dag.window_stats(s)).collect();
    assert_eq!(w.stats(), want, "window stats for sizes {sizes:?}");
}

/// splitmix64: a seeded, dependency-free stream generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn reg(&mut self) -> RegId {
        match self.below(5) {
            0 | 1 => RegId::Int(self.below(8) as u8),
            2 | 3 => RegId::Fp(self.below(8) as u8),
            _ => RegId::Flags,
        }
    }

    /// An unaligned access of 1-16 bytes, so one access spans up to three
    /// words; mostly in a hot 128-byte region, sometimes in a cold one whose
    /// words stay unwritten for long stretches.
    fn access(&mut self) -> (u64, u8) {
        let addr = if self.below(4) == 0 {
            0x10_0000 + self.below(1 << 12)
        } else {
            0x8000 + self.below(128)
        };
        (addr, [1, 2, 4, 8, 16][self.below(5) as usize])
    }
}

/// Random records over FP, integer and flag registers and unaligned
/// memory, a quarter of which also write a register they read.
fn random_stream(seed: u64, len: usize) -> Vec<RetiredInst> {
    let mut rng = Rng(seed);
    (0..len)
        .map(|i| {
            let group = InstGroup::ALL[rng.below(InstGroup::ALL.len() as u64) as usize];
            let mut ri = RetiredInst::new(0x1000 + 4 * (i as u64 % 64), group);
            for _ in 0..rng.below(4) {
                ri.srcs.insert(rng.reg());
            }
            for _ in 0..rng.below(3) {
                ri.dsts.insert(rng.reg());
            }
            if rng.below(4) == 0 {
                if let Some(r) = ri.srcs.iter().next() {
                    ri.dsts.insert(r);
                }
            }
            // Up to two accesses, the record's capacity, in any mix of
            // reads and writes.
            for _ in 0..rng.below(3) {
                let (addr, size) = rng.access();
                if rng.below(2) == 0 {
                    ri.push_read(addr, size);
                } else {
                    ri.push_write(addr, size);
                }
            }
            ri
        })
        .collect()
}

#[test]
fn random_streams_match_the_oracle() {
    let mut lengths = Rng(7);
    for seed in 0..24 {
        let len = 1 + lengths.below(3000) as usize;
        assert_matches_oracle(&random_stream(seed, len));
    }
}

#[test]
fn long_random_stream_matches_the_oracle() {
    // Longer than four of the largest paper windows: the windowed writer
    // table is pruned several times.
    assert_matches_oracle(&random_stream(99, 9_000));
}

#[test]
fn lanes_survive_wrapping_their_depth_type() {
    // Over 70,000 retirements the lanes no window uses count past
    // `i16::MAX`, and so do the lanes of the largest legal size while they
    // wait between an odd size's windows. In the debug profile an
    // unwrapped overflow panics.
    let stream = random_stream(5, 72_000);
    assert_matches_oracle(&stream);
    let sizes = [3, i16::MAX as usize];
    let mut w = WindowedCp::new(&sizes);
    for ri in &stream {
        w.on_retire(ri);
    }
    assert_windows_match(&Dag::new(&stream), &w, &sizes);
}

#[test]
#[should_panic(expected = "window size 32768 exceeds the lane limit of 32767")]
fn windows_larger_than_the_lane_type_are_rejected() {
    WindowedCp::new(&[4, i16::MAX as usize + 1]);
}

#[test]
fn windows_ignore_writers_older_than_the_largest_window() {
    // A store, a long run of unrelated work, then a chain of loads of the
    // stored word: the store is never inside any window with the loads,
    // and the small-window table prunes the stored word meanwhile.
    let mut stream = Vec::new();
    let mut st = RetiredInst::new(0, InstGroup::Store);
    st.push_write(0x100, 8);
    stream.push(st);
    for i in 0..1_000u64 {
        let mut ri = RetiredInst::new(4, InstGroup::IntAlu);
        ri.dsts = RegSet::of(&[RegId::Int((i % 8) as u8 + 1)]);
        stream.push(ri);
    }
    for _ in 0..50 {
        let mut ld = RetiredInst::new(8, InstGroup::Load);
        ld.push_read(0x104, 4);
        ld.srcs = RegSet::of(&[RegId::Int(20)]);
        ld.dsts = RegSet::of(&[RegId::Int(20)]);
        stream.push(ld);
    }
    assert_matches_oracle(&stream);
}

#[test]
fn windows_keep_writers_up_to_the_largest_window_back() {
    // A chain through memory whose store-to-load links are 101-330
    // retirements long, up to just inside the largest window of the small
    // and odd sizes: each link must survive the pruning of the windowed
    // writer table.
    let mut stream = Vec::new();
    let chain = RegId::Int(20);
    for k in 0..60u64 {
        let mut st = RetiredInst::new(0, InstGroup::Store);
        st.srcs = RegSet::of(&[chain]);
        st.push_write(0x100 + 8 * k, 8);
        stream.push(st);
        for i in 0..100 + (k * 37) % 230 {
            let mut ri = RetiredInst::new(4, InstGroup::IntAlu);
            ri.dsts = RegSet::of(&[RegId::Int((i % 8) as u8 + 1)]);
            stream.push(ri);
        }
        let mut ld = RetiredInst::new(8, InstGroup::Load);
        ld.push_read(0x100 + 8 * k, 8);
        ld.dsts = RegSet::of(&[chain]);
        stream.push(ld);
    }
    assert_matches_oracle(&stream);
}

#[test]
fn dual_matches_oracle_on_mixed_stream() {
    let stream: Vec<RetiredInst> = (0..200)
        .map(|i| {
            let g = match i % 5 {
                0 => InstGroup::FpAdd,
                1 => InstGroup::Load,
                2 => InstGroup::Store,
                3 => InstGroup::IntMul,
                _ => InstGroup::IntAlu,
            };
            let mut ri = RetiredInst::new(0, g);
            ri.srcs = RegSet::of(&[RegId::Int((i % 7) as u8)]);
            ri.dsts = RegSet::of(&[RegId::Int((i % 3) as u8)]);
            if g == InstGroup::Load {
                ri.push_read(0x1000 + (i % 13) * 8, 8);
            }
            if g == InstGroup::Store {
                ri.push_write(0x1000 + (i % 13) * 8, 8);
            }
            ri
        })
        .collect();
    assert_matches_oracle(&stream);
}

#[test]
fn windows_do_not_depend_on_where_runs_break() {
    let size_sets: [&[usize]; 4] = [
        &PAPER_WINDOW_SIZES,
        &SMALL_WINDOWS,
        &ODD_WINDOWS,
        &MULTI_ROW_WINDOWS,
    ];
    let streams = [
        (IsaKind::RiscV, random_stream(3, 9_000)),
        (IsaKind::RiscV, pair_stream(IsaKind::RiscV, 3, 5_000)),
        (IsaKind::AArch64, pair_stream(IsaKind::AArch64, 4, 5_000)),
    ];
    for (isa, stream) in &streams {
        let dag = Dag::new(stream);
        let want: Vec<Vec<_>> = size_sets
            .iter()
            .map(|sizes| sizes.iter().map(|&s| dag.window_stats(s)).collect())
            .collect();
        for run in RUN_LENGTHS {
            for (sizes, want) in size_sets.iter().zip(&want) {
                let mut w = WindowedCp::new(sizes);
                feed(&mut w, stream, run);
                assert_eq!(&w.stats(), want, "sizes {sizes:?} in runs of {run}");
            }
            let mut plain = CellAnalyses::new(&[]);
            feed(&mut plain, stream, run);
            assert_eq!(
                plain.window_stats(),
                want[0],
                "plain bundle in runs of {run}"
            );
            let mut fused = CellAnalyses::fused(*isa, &[]);
            feed(&mut fused, stream, run);
            assert_eq!(
                fused.window_stats(),
                want[0],
                "fused bundle in runs of {run}"
            );
        }
    }
}

/// Fuse `stream` the naive way: at each record, try to pair it with the
/// next under `isa`'s table, merging a pair into one record. Returns the
/// merged stream and the count of each kind, in [`PairKind::ALL`] order.
fn naive_fuse(isa: IsaKind, stream: &[RetiredInst]) -> (Vec<RetiredInst>, Vec<u64>) {
    let mut merged = Vec::new();
    let mut counts = vec![0; PairKind::ALL.len()];
    let mut i = 0;
    while i < stream.len() {
        let pair = stream
            .get(i + 1)
            .and_then(|c| recognise(isa, &stream[i], c));
        match pair {
            Some(kind) => {
                counts[kind.index()] += 1;
                merged.push(merge(kind, &stream[i], &stream[i + 1]));
                i += 2;
            }
            None => {
                merged.push(stream[i]);
                i += 1;
            }
        }
    }
    (merged, counts)
}

/// Run the fused bundle over `stream` and require the oracle's numbers:
/// the unfused ones of `stream`, and the fused ones of the merged stream.
/// Returns the pair counts, in [`PairKind::ALL`] order.
fn assert_fused_matches_oracle(
    isa: IsaKind,
    stream: &[RetiredInst],
    regions: &[Region],
) -> Vec<u64> {
    let mut bundle = CellAnalyses::fused(isa, regions);
    let n = bundle.run(&mut &stream[..]).unwrap();
    assert_eq!(n, stream.len() as u64);
    let cell = bundle.into_cell("w", "c", "i");

    let dag = Dag::new(stream);
    assert_eq!(
        cell.critical_path,
        dag.unit_cp(),
        "unit CP of the fused bundle"
    );
    assert_eq!(
        cell.scaled_cp,
        dag.scaled_cp(),
        "scaled CP of the fused bundle"
    );
    let windows: Vec<_> = PAPER_WINDOW_SIZES
        .iter()
        .map(|&s| {
            let w = dag.window_stats(s);
            (s, w.mean_cp(), w.mean_ilp())
        })
        .collect();
    assert_eq!(cell.windows, windows, "windows of the fused bundle");

    let (merged, counts) = naive_fuse(isa, stream);
    let fused = cell.fused.expect("the fused bundle reports a fused cell");
    let merged_dag = Dag::new(&merged);
    assert_eq!(
        fused.fused_critical_path,
        merged_dag.unit_cp(),
        "fused unit CP under {isa:?}"
    );
    assert_eq!(
        fused.fused_scaled_cp,
        merged_dag.scaled_cp(),
        "fused scaled CP under {isa:?}"
    );
    assert_eq!(
        fused.effective_path_length,
        merged.len() as u64,
        "effective path length"
    );
    assert_eq!(fused.fused_pairs, counts.iter().sum::<u64>());
    let named: Vec<_> = PairKind::ALL
        .iter()
        .zip(&counts)
        .filter(|(_, n)| **n > 0)
        .map(|(k, n)| (k.name().to_string(), *n))
        .collect();
    assert_eq!(fused.pair_counts, named, "pair counts under {isa:?}");
    let mut effective = PathLength::new(regions);
    for ri in &merged {
        effective.on_retire(ri);
    }
    assert_eq!(
        fused.effective_kernels,
        effective.by_kernel(),
        "effective kernels"
    );
    counts
}

/// Two kernel regions, each over half the pair-rich streams' PCs.
fn pair_regions() -> Vec<Region> {
    vec![
        Region {
            name: "low".into(),
            start: 0x1000,
            end: 0x1080,
        },
        Region {
            name: "high".into(),
            start: 0x1080,
            end: 0x1100,
        },
    ]
}

/// A stream rich in `isa`'s fusible pairs, shaped the way the ISA retires
/// them: idioms of every pair kind among filler a real front end would
/// also see. Among them:
///
/// * an in-place shift or compare whose source, the pair's link, ends a
///   deep chain, so the producer's depth alone exceeds the merged one;
/// * on AArch64, two 4-byte halves of one 8-byte word stored as a store
///   pair, a store pair whose first half writes back its base, and a flag
///   setter that also writes a general register before `b.cond`.
///
/// Odd seeds end on a producer still waiting for its consumer.
fn pair_stream(isa: IsaKind, seed: u64, len: usize) -> Vec<RetiredInst> {
    let mut rng = Rng(seed);
    let mut out: Vec<RetiredInst> = Vec::with_capacity(len + 4);
    let x = |n: u64| RegId::Int(n as u8 + 1);
    while out.len() < len {
        let op = |group: InstGroup, srcs: &[RegId], dsts: &[RegId]| {
            let mut ri = RetiredInst::new(0, group);
            ri.srcs = RegSet::of(srcs);
            ri.dsts = RegSet::of(dsts);
            ri
        };
        let branch = |srcs: &[RegId]| {
            let mut b = op(InstGroup::Branch, srcs, &[]);
            b.is_branch = true;
            b.taken = srcs.len() == 1;
            b
        };
        let (a, b, d) = (x(rng.below(6)), x(rng.below(6)), x(rng.below(6)));
        let word = 0x8000 + 8 * rng.below(16);
        let deep = [InstGroup::IntMul, InstGroup::IntDiv, InstGroup::FpCmp][rng.below(3) as usize];
        match (isa, rng.below(12)) {
            // Filler: plain ALU work over few registers, loads and stores.
            (_, 0) => {
                let group = [
                    InstGroup::IntAlu,
                    InstGroup::IntMul,
                    InstGroup::Shift,
                    InstGroup::Logical,
                    InstGroup::FpAdd,
                    InstGroup::FpFma,
                ][rng.below(6) as usize];
                out.push(op(group, &[a, b], &[d]));
            }
            (_, 1) => {
                let mut ld = op(InstGroup::Load, &[a], &[d]);
                ld.push_read(word, 8);
                out.push(ld);
            }
            (_, 2) => {
                let mut st = op(InstGroup::Store, &[a, b], &[]);
                st.push_write(word + 4 * rng.below(2), [4, 8][rng.below(2) as usize]);
                out.push(st);
            }
            // A deep chain into `d`, then a pair whose producer reads `d`
            // as its link.
            (IsaKind::RiscV, 3) => {
                out.push(op(deep, &[d, a], &[d]));
                out.push(op(InstGroup::Shift, &[d], &[d]));
                out.push(op(InstGroup::IntAlu, &[b, d], &[d]));
            }
            (IsaKind::RiscV, 4) => {
                out.push(op(InstGroup::Shift, &[a], &[d]));
                let mut ld = op(InstGroup::Load, &[d], &[d]);
                ld.push_read(word, 8);
                out.push(ld);
            }
            (IsaKind::RiscV, 5) => {
                out.push(op(InstGroup::IntAlu, &[], &[d]));
                out.push(op(InstGroup::IntAlu, &[d], &[d]));
            }
            (IsaKind::RiscV, 6) => {
                out.push(op(InstGroup::IntAlu, &[], &[d]));
                let mut ld = op(InstGroup::Load, &[d], &[d]);
                ld.push_read(word, 8);
                out.push(ld);
            }
            (IsaKind::RiscV, 7) => {
                out.push(op(deep, &[d], &[d]));
                out.push(op(InstGroup::IntAlu, &[d, a], &[d]));
                out.push(branch(&[d]));
            }
            (IsaKind::RiscV, 8) => {
                out.push(op(InstGroup::IntAlu, &[a, b], &[d]));
                out.push(branch(&[d, a]));
            }
            (IsaKind::RiscV, _) => {
                out.push(op(InstGroup::Shift, &[a], &[d]));
                out.push(op(InstGroup::IntAlu, &[b, d], &[d]));
            }
            // cmp + b.cond, the compare reading a deep flags chain or also
            // writing a general register.
            (IsaKind::AArch64, 3) => {
                out.push(op(deep, &[a], &[RegId::Flags]));
                out.push(op(
                    InstGroup::IntAlu,
                    &[RegId::Flags, a],
                    &[RegId::Flags, d],
                ));
                out.push(branch(&[RegId::Flags]));
            }
            (IsaKind::AArch64, 4) => {
                out.push(op(InstGroup::IntAlu, &[d], &[d, RegId::Flags]));
                out.push(branch(&[RegId::Flags]));
            }
            (IsaKind::AArch64, 5) => {
                out.push(op(InstGroup::IntAlu, &[], &[d]));
                out.push(op(InstGroup::IntAlu, &[d], &[d]));
            }
            (IsaKind::AArch64, 6) => {
                let (u, v) = (x(6), x(7));
                let mut first = op(InstGroup::Load, &[a], &[u]);
                first.push_read(word, 8);
                let mut second = op(InstGroup::Load, &[a], &[v]);
                second.push_read(word + 8, 8);
                out.extend([first, second]);
            }
            (IsaKind::AArch64, 7) => {
                // Two 4-byte halves of one word.
                let mut first = op(InstGroup::Store, &[a, b], &[]);
                first.push_write(word, 4);
                let mut second = op(InstGroup::Store, &[d, b], &[]);
                second.push_write(word + 4, 4);
                out.extend([first, second]);
            }
            (IsaKind::AArch64, 8) => {
                // A pre-indexed store writes back its base; the second half
                // stores through the new base.
                let mut first = op(InstGroup::Store, &[a, b], &[b]);
                first.push_write(word, 8);
                let mut second = op(InstGroup::Store, &[d, b], &[]);
                second.push_write(word + 8, 8);
                out.extend([first, second]);
            }
            (IsaKind::AArch64, _) => {
                out.push(op(InstGroup::IntAlu, &[a, b], &[RegId::Flags]));
                out.push(branch(&[RegId::Flags]));
            }
        }
    }
    if seed % 2 == 1 {
        let producer = match isa {
            IsaKind::RiscV => RegSet::of(&[x(0)]),
            IsaKind::AArch64 => RegSet::of(&[RegId::Flags]),
        };
        let mut last = RetiredInst::new(0x1000, InstGroup::IntAlu);
        last.srcs = RegSet::of(&[x(1)]);
        last.dsts = producer;
        out.push(last);
    }
    // Consecutive PCs, so some pairs straddle the two regions.
    for (i, ri) in out.iter_mut().enumerate() {
        ri.pc = 0x1000 + 4 * (i as u64 % 64);
    }
    out
}

#[test]
fn fused_bundle_matches_the_merged_stream_oracle() {
    for isa in [IsaKind::RiscV, IsaKind::AArch64] {
        let mut totals = vec![0; PairKind::ALL.len()];
        let mut lengths = Rng(11);
        for seed in 0..16 {
            let len = 1 + lengths.below(2500) as usize;
            let counts =
                assert_fused_matches_oracle(isa, &pair_stream(isa, seed, len), &pair_regions());
            for (t, n) in totals.iter_mut().zip(counts) {
                *t += n;
            }
        }
        for (k, n) in PairKind::ALL.iter().zip(&totals) {
            if k.isa() == isa {
                assert!(*n > 0, "{k:?} never fused under {isa:?}");
            } else {
                assert_eq!(*n, 0, "{k:?} fused under {isa:?}");
            }
        }
    }
}

#[test]
fn fused_bundle_matches_the_oracle_on_streams_ending_in_a_producer() {
    // Streams of one to four records cover a producer pending at the end
    // with and without a pair before it.
    for isa in [IsaKind::RiscV, IsaKind::AArch64] {
        for seed in 0..40 {
            let stream = pair_stream(isa, 2 * seed + 1, 1 + seed as usize % 3);
            assert_fused_matches_oracle(isa, &stream, &pair_regions());
        }
    }
}

/// Collects the retired stream.
struct Capture(Vec<RetiredInst>);

impl Observer for Capture {
    fn on_retire(&mut self, ri: &RetiredInst) {
        self.0.push(*ri);
    }
}

fn emulate(prog: &KernelProgram, isa: IsaKind, p: &Personality) -> (Vec<RetiredInst>, Vec<Region>) {
    let c = compile(prog, isa, p);
    let mut st = CpuState::new();
    c.program.load(&mut st).unwrap();
    let mut capture = Capture(Vec::new());
    EmulationCore::new(executor(isa))
        .run(&mut st, &mut [&mut capture])
        .unwrap();
    (capture.0, c.program.regions)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn fuzzed_programs_match_the_oracle(spec in program_spec()) {
        let prog = realise(&spec);
        for p in [Personality::gcc92(), Personality::gcc122()] {
            for isa in [IsaKind::RiscV, IsaKind::AArch64] {
                let (stream, regions) = emulate(&prog, isa, &p);
                assert_matches_oracle(&stream);
                assert_fused_matches_oracle(isa, &stream, &regions);
            }
        }
    }
}
