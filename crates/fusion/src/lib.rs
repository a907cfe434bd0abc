#![warn(missing_docs)]
//! Macro-op fusion analysis over the retired stream.
//!
//! Celio et al. ("The Renewed Case for RISC") argue RISC-V closes the
//! dynamic-instruction-count gap against denser ISAs via macro-op fusion:
//! a front end that recognises adjacent fusible pairs and retires them as
//! one macro-op. This crate measures that claim for both of our ISAs: a
//! streaming [`FusionPass`] observer watches consecutive retirements,
//! recognises per-ISA fusible pairs ([`PairKind`]), and feeds the *fused*
//! stream — one merged record per fused pair — into its own
//! [`analysis::PathLength`] and [`analysis::DualCriticalPath`], yielding
//! the effective path length and fused critical path next to the
//! unfused baseline.
//!
//! The recognizers are structural: a [`simcore::RetiredInst`] carries
//! groups, register sets and memory accesses but no opcodes (by design —
//! the on-disk trace format carries exactly the same fields, which is
//! what guarantees a live run and a trace replay produce byte-identical
//! fusion reports). Each rule therefore matches the dataflow shape of the
//! idiom rather than its mnemonics; see [`PairKind`] for the pair tables.
//!
//! Pairing is greedy and non-overlapping, exactly like a real fusing
//! front end's adjacent-slot comparator: a retired instruction can
//! participate in at most one pair, and a pair never spans a basic-block
//! boundary — a branch closes the window, and the end of the stream
//! flushes an unconsumed producer unfused.
//!
//! The pair tables live in [`analysis::pairs`] and are re-exported here.
//! Matrix cells measure the fused axis with the fused form of the
//! per-cell bundle ([`analysis::CellAnalyses::fused`]), which folds the
//! fused chains into the same dependency table as the unfused ones.
//! [`FusionPass`] builds the merged stream record by record instead and
//! analyses it on its own: it is the independent reference for that fold,
//! and what `trace_tool fuse` and `bench_report --fusion` run.

use analysis::critical_path::DualCriticalPath;
use analysis::pairs::can_produce;
pub use analysis::pairs::{recognise, PairKind};
use analysis::path_length::PathLength;
use analysis::tables::FusedCell;
use simcore::{IsaKind, Observer, RegId, Region, RetireSource, RetiredInst, SimError};
use uarch::Tx2Latency;

/// Merge a recognised pair into the one macro-op record the fused stream
/// retires. The merged record keeps the producer's PC (region attribution
/// of the pair) and the consumer's group and branch bits (the macro-op
/// completes as its second half does); sources union minus the pair's
/// internal link, so the fused critical path sees the macro-op's true
/// external dependencies.
pub fn merge(kind: PairKind, p: &RetiredInst, c: &RetiredInst) -> RetiredInst {
    let mut m = RetiredInst::new(p.pc, c.group);
    // The register (or flags) produced by `p` purely for `c`'s benefit:
    // internal to the macro-op, not an external source.
    let link: Option<RegId> = kind.link(p);
    m.srcs = p
        .srcs
        .iter()
        .chain(c.srcs.iter())
        .filter(|r| Some(*r) != link)
        .collect();
    // Dead-intermediate kinds write exactly what the consumer writes; the
    // rest (cmp+branch keeps its compare result / flags live, pairs have
    // two destinations) keep the union.
    m.dsts = match kind {
        PairKind::RvShiftAdd
        | PairKind::RvShiftLoad
        | PairKind::RvLuiAddi
        | PairKind::RvLuiLoad
        | PairKind::A64AdrAdd => c.dsts,
        _ => p.dsts.union(c.dsts),
    };
    for a in p.mem_reads().chain(c.mem_reads()) {
        m.push_read(a.addr, a.size);
    }
    for a in p.mem_writes().chain(c.mem_writes()) {
        m.push_write(a.addr, a.size);
    }
    m.is_branch = c.is_branch;
    m.taken = c.taken;
    m
}

/// Everything the fusion pass measured over one retired stream.
#[derive(Debug, Clone, PartialEq)]
pub struct FusionReport {
    /// Instructions retired (the unfused path length).
    pub total_retired: u64,
    /// Pairs fused; each removes one instruction from the effective path.
    pub fused_pairs: u64,
    /// Per-kind fusion counts, in [`PairKind::ALL`] order, zeros included.
    pub counts: Vec<(PairKind, u64)>,
    /// Effective (fused) dynamic path length: `total_retired - fused_pairs`.
    pub effective_path_length: u64,
    /// Effective per-kernel instruction counts (macro-ops attributed to
    /// the producer's region).
    pub effective_kernels: Vec<(String, u64)>,
    /// Unit-cost critical path of the fused stream.
    pub fused_critical_path: u64,
    /// TX2-latency-scaled critical path of the fused stream.
    pub fused_scaled_cp: u64,
}

impl FusionReport {
    /// Fraction of the unfused path removed by fusion.
    pub fn reduction(&self) -> f64 {
        if self.total_retired == 0 {
            0.0
        } else {
            self.fused_pairs as f64 / self.total_retired as f64
        }
    }

    /// Count for one pair kind.
    pub fn count(&self, kind: PairKind) -> u64 {
        self.counts
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, n)| *n)
            .unwrap_or(0)
    }

    /// Package the report as the [`FusedCell`] carried inside an
    /// [`analysis::tables::ExperimentCell`].
    pub fn to_fused_cell(&self) -> FusedCell {
        FusedCell {
            fused_pairs: self.fused_pairs,
            effective_path_length: self.effective_path_length,
            fused_critical_path: self.fused_critical_path,
            fused_scaled_cp: self.fused_scaled_cp,
            pair_counts: self
                .counts
                .iter()
                .filter(|(_, n)| *n > 0)
                .map(|(k, n)| (k.name().to_string(), *n))
                .collect(),
            effective_kernels: self.effective_kernels.clone(),
        }
    }

    /// One human-readable line per non-zero pair kind.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "retired {}, fused {} pair(s) ({:.2}% of path), effective {}\n",
            self.total_retired,
            self.fused_pairs,
            100.0 * self.reduction(),
            self.effective_path_length,
        );
        for (k, n) in self.counts.iter().filter(|(_, n)| *n > 0) {
            out.push_str(&format!("  {:<14} {n}\n", k.name()));
        }
        out.push_str(&format!(
            "  fused CP {} (scaled {})\n",
            self.fused_critical_path, self.fused_scaled_cp
        ));
        out
    }
}

/// Streaming fusion pass: an [`Observer`] that pairs adjacent retirements
/// and measures the fused stream.
///
/// Holds at most one pending (unemitted) instruction. When the next
/// retirement fuses with it, one merged macro-op record flows to the
/// internal analyses; otherwise the pending record flows through unfused
/// and the new one takes its place. Branches are never left pending — a
/// taken-or-not branch ends the fusion window, so a pair can never span a
/// basic-block boundary — and [`Observer::on_finish`] flushes a pending
/// producer unfused, so a stream ending mid-pair fuses nothing across the
/// boundary.
pub struct FusionPass {
    isa: IsaKind,
    pending: Option<RetiredInst>,
    counts: [u64; PairKind::ALL.len()],
    total_retired: u64,
    effective: PathLength,
    fused_cp: DualCriticalPath,
}

impl FusionPass {
    /// Fusion pass for one ISA over a program with the given kernel
    /// regions (for effective per-kernel attribution).
    pub fn new(isa: IsaKind, regions: &[Region]) -> Self {
        FusionPass {
            isa,
            pending: None,
            counts: [0; PairKind::ALL.len()],
            total_retired: 0,
            effective: PathLength::new(regions),
            fused_cp: DualCriticalPath::new(Tx2Latency),
        }
    }

    #[inline]
    fn emit(&mut self, ri: &RetiredInst) {
        self.effective.on_retire(ri);
        self.fused_cp.on_retire(ri);
    }

    /// Pump an entire retirement source (live run, replayed trace, or
    /// record slice) through the pass.
    pub fn consume(&mut self, source: &mut dyn RetireSource) -> Result<u64, SimError> {
        let mut obs: [&mut dyn Observer; 1] = [self];
        source.drive(&mut obs)
    }

    /// The measurements so far. Call after the stream finishes (i.e. after
    /// [`Observer::on_finish`] flushed any pending producer).
    pub fn report(&self) -> FusionReport {
        let fused_pairs: u64 = self.counts.iter().sum();
        FusionReport {
            total_retired: self.total_retired,
            fused_pairs,
            counts: PairKind::ALL
                .iter()
                .zip(self.counts.iter())
                .map(|(k, n)| (*k, *n))
                .collect(),
            effective_path_length: self.effective.total(),
            effective_kernels: self.effective.by_kernel(),
            fused_critical_path: self.fused_cp.unit().critical_path,
            fused_scaled_cp: self.fused_cp.scaled().critical_path,
        }
    }
}

impl Observer for FusionPass {
    #[inline]
    fn on_retire(&mut self, ri: &RetiredInst) {
        self.total_retired += 1;
        match self.pending.take() {
            None => {
                // Only a possible producer is worth buffering; anything
                // else (branches included — nothing fuses across them)
                // retires straight through without the copy.
                if can_produce(self.isa, ri) {
                    self.pending = Some(*ri);
                } else {
                    self.emit(ri);
                }
            }
            Some(p) => {
                if let Some(kind) = recognise(self.isa, &p, ri) {
                    self.counts[kind.index()] += 1;
                    let merged = merge(kind, &p, ri);
                    self.emit(&merged);
                } else {
                    self.emit(&p);
                    if can_produce(self.isa, ri) {
                        self.pending = Some(*ri);
                    } else {
                        self.emit(ri);
                    }
                }
            }
        }
    }

    fn on_finish(&mut self) {
        // End of stream: a producer still waiting for its consumer retires
        // unfused. A pair never fuses across the stream boundary.
        if let Some(p) = self.pending.take() {
            self.emit(&p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{InstGroup, RegSet};

    fn op(group: InstGroup, srcs: &[RegId], dsts: &[RegId]) -> RetiredInst {
        let mut ri = RetiredInst::new(0x100, group);
        ri.srcs = RegSet::of(srcs);
        ri.dsts = RegSet::of(dsts);
        ri
    }

    fn x(n: u8) -> RegId {
        RegId::Int(n)
    }

    fn run(isa: IsaKind, stream: &[RetiredInst]) -> FusionReport {
        let mut pass = FusionPass::new(isa, &[]);
        let mut src: &[RetiredInst] = stream;
        pass.consume(&mut src).unwrap();
        pass.report()
    }

    #[test]
    fn shift_add_fuses_with_dead_intermediate() {
        let stream = vec![
            op(InstGroup::Shift, &[x(1)], &[x(5)]),
            op(InstGroup::IntAlu, &[x(2), x(5)], &[x(5)]),
        ];
        let r = run(IsaKind::RiscV, &stream);
        assert_eq!(r.count(PairKind::RvShiftAdd), 1);
        assert_eq!(r.total_retired, 2);
        assert_eq!(r.effective_path_length, 1);
        // The merged macro-op depends on x1 and x2, not the internal x5.
        assert_eq!(r.fused_critical_path, 1);
    }

    #[test]
    fn live_intermediate_does_not_fuse() {
        // The consumer writes elsewhere: x5 stays live past the pair.
        let stream = vec![
            op(InstGroup::Shift, &[x(1)], &[x(5)]),
            op(InstGroup::IntAlu, &[x(2), x(5)], &[x(6)]),
        ];
        let r = run(IsaKind::RiscV, &stream);
        assert_eq!(r.fused_pairs, 0);
        assert_eq!(r.effective_path_length, 2);
    }

    #[test]
    fn lui_addi_and_lui_load_fuse() {
        let mut ld = op(InstGroup::Load, &[x(7)], &[x(7)]);
        ld.push_read(0x2000, 8);
        let stream = vec![
            op(InstGroup::IntAlu, &[], &[x(7)]),     // lui
            op(InstGroup::IntAlu, &[x(7)], &[x(7)]), // addi
            op(InstGroup::IntAlu, &[], &[x(7)]),     // lui
            ld,
        ];
        let r = run(IsaKind::RiscV, &stream);
        assert_eq!(r.count(PairKind::RvLuiAddi), 1);
        assert_eq!(r.count(PairKind::RvLuiLoad), 1);
        assert_eq!(r.effective_path_length, 2);
    }

    #[test]
    fn riscv_cmp_branch_fuses_only_single_source_branches() {
        let mut bz = op(InstGroup::Branch, &[x(5)], &[]);
        bz.is_branch = true;
        let stream = vec![op(InstGroup::IntAlu, &[x(1), x(2)], &[x(5)]), bz];
        let r = run(IsaKind::RiscV, &stream);
        assert_eq!(r.count(PairKind::RvCmpBranch), 1);

        // A two-source branch (beq rs1, rs2) is not the fused shape.
        let mut beq = op(InstGroup::Branch, &[x(5), x(6)], &[]);
        beq.is_branch = true;
        let stream = vec![op(InstGroup::IntAlu, &[x(1), x(2)], &[x(5)]), beq];
        assert_eq!(run(IsaKind::RiscV, &stream).fused_pairs, 0);
    }

    #[test]
    fn aarch64_cmp_bcond_fuses_through_flags() {
        let cmp = op(InstGroup::IntAlu, &[x(1), x(2)], &[RegId::Flags]);
        let mut b = op(InstGroup::Branch, &[RegId::Flags], &[]);
        b.is_branch = true;
        b.taken = true;
        let r = run(IsaKind::AArch64, &[cmp, b]);
        assert_eq!(r.count(PairKind::A64CmpBranch), 1);
        assert_eq!(r.effective_path_length, 1);
        // RISC-V rules must not see flag-based pairs (RISC-V has no flags).
        let cmp = op(InstGroup::IntAlu, &[x(1), x(2)], &[RegId::Flags]);
        let mut b = op(InstGroup::Branch, &[RegId::Flags], &[]);
        b.is_branch = true;
        assert_eq!(run(IsaKind::RiscV, &[cmp, b]).fused_pairs, 0);
    }

    #[test]
    fn load_pair_requires_contiguous_same_base() {
        let mk = |addr: u64, dst: u8| {
            let mut ld = op(InstGroup::Load, &[x(1)], &[x(dst)]);
            ld.push_read(addr, 8);
            ld
        };
        let r = run(IsaKind::AArch64, &[mk(0x1000, 2), mk(0x1008, 3)]);
        assert_eq!(r.count(PairKind::A64LoadPair), 1);
        // Non-contiguous: no pair.
        assert_eq!(
            run(IsaKind::AArch64, &[mk(0x1000, 2), mk(0x1010, 3)]).fused_pairs,
            0
        );
        // Second load's address depends on the first's result: no pair.
        let dep = {
            let mut ld = op(InstGroup::Load, &[x(2)], &[x(3)]);
            ld.push_read(0x1008, 8);
            ld
        };
        assert_eq!(run(IsaKind::AArch64, &[mk(0x1000, 2), dep]).fused_pairs, 0);
    }

    #[test]
    fn store_pair_fuses_contiguous_writes() {
        let mk = |addr: u64, src: u8| {
            let mut st = op(InstGroup::Store, &[x(1), x(src)], &[]);
            st.push_write(addr, 8);
            st
        };
        let r = run(IsaKind::AArch64, &[mk(0x1000, 2), mk(0x1008, 3)]);
        assert_eq!(r.count(PairKind::A64StorePair), 1);
        let m = merge(PairKind::A64StorePair, &mk(0x1000, 2), &mk(0x1008, 3));
        assert_eq!(m.mem_writes().len(), 2);
    }

    #[test]
    fn fusion_is_greedy_and_non_overlapping() {
        // shift add shift: the first two fuse, the third waits — and a
        // following add fuses with *it*, not with the consumed middle op.
        let stream = vec![
            op(InstGroup::Shift, &[x(1)], &[x(5)]),
            op(InstGroup::IntAlu, &[x(2), x(5)], &[x(5)]),
            op(InstGroup::Shift, &[x(3)], &[x(6)]),
            op(InstGroup::IntAlu, &[x(4), x(6)], &[x(6)]),
        ];
        let r = run(IsaKind::RiscV, &stream);
        assert_eq!(r.count(PairKind::RvShiftAdd), 2);
        assert_eq!(r.effective_path_length, 2);
    }

    #[test]
    fn branch_closes_the_fusion_window() {
        // producer | branch | consumer: the branch between them must stop
        // the pair, and the branch itself must not be left pending.
        let mut br = op(InstGroup::Branch, &[x(9)], &[]);
        br.is_branch = true;
        let stream = vec![
            op(InstGroup::Shift, &[x(1)], &[x(5)]),
            br,
            op(InstGroup::IntAlu, &[x(2), x(5)], &[x(5)]),
        ];
        let r = run(IsaKind::RiscV, &stream);
        // The shift could have fused with the branch? No — shift+branch is
        // not a pair; and the post-branch add must not pair with the
        // pre-branch shift.
        assert_eq!(r.fused_pairs, 0);
        assert_eq!(r.effective_path_length, 3);
    }

    #[test]
    fn fused_cp_shortens_serial_address_chains() {
        // lui; addi; ld — unfused CP 3 (serial), fused (lui+addi) + ld:
        // CP 2. The fused stream's critical path must see the shortening.
        let mut ld = op(InstGroup::Load, &[x(7)], &[x(8)]);
        ld.push_read(0x3000, 8);
        let stream = vec![
            op(InstGroup::IntAlu, &[], &[x(7)]),
            op(InstGroup::IntAlu, &[x(7)], &[x(7)]),
            ld,
        ];
        let r = run(IsaKind::RiscV, &stream);
        assert_eq!(r.count(PairKind::RvLuiAddi), 1);
        assert_eq!(r.fused_critical_path, 2);
    }

    #[test]
    fn empty_stream_reports_zeroes() {
        let r = run(IsaKind::RiscV, &[]);
        assert_eq!(r.total_retired, 0);
        assert_eq!(r.fused_pairs, 0);
        assert_eq!(r.effective_path_length, 0);
        assert_eq!(r.fused_critical_path, 0);
        assert_eq!(r.reduction(), 0.0);
    }

    #[test]
    fn single_instruction_stream_flushes_unfused() {
        let r = run(IsaKind::RiscV, &[op(InstGroup::Shift, &[x(1)], &[x(5)])]);
        assert_eq!(r.total_retired, 1);
        assert_eq!(r.fused_pairs, 0);
        assert_eq!(
            r.effective_path_length, 1,
            "on_finish must flush the pending producer"
        );
    }

    #[test]
    fn stream_ending_mid_pair_does_not_fuse_across_the_boundary() {
        // First stream ends on a producer; second stream starts with what
        // would have been its consumer. Driven as two separate sources
        // (two on_finish flushes), nothing may fuse.
        let producer = op(InstGroup::Shift, &[x(1)], &[x(5)]);
        let consumer = op(InstGroup::IntAlu, &[x(2), x(5)], &[x(5)]);
        let mut pass = FusionPass::new(IsaKind::RiscV, &[]);
        let mut a: &[RetiredInst] = std::slice::from_ref(&producer);
        pass.consume(&mut a).unwrap();
        let mut b: &[RetiredInst] = std::slice::from_ref(&consumer);
        pass.consume(&mut b).unwrap();
        let r = pass.report();
        assert_eq!(
            r.fused_pairs, 0,
            "a pair must not fuse across a stream boundary"
        );
        assert_eq!(r.effective_path_length, 2);
        // The same two records in one stream do fuse — the boundary is
        // what stopped it above.
        assert_eq!(run(IsaKind::RiscV, &[producer, consumer]).fused_pairs, 1);
    }

    #[test]
    fn effective_length_always_equals_total_minus_pairs() {
        // Pseudo-random streams: the invariant the tables rely on.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        };
        for isa in [IsaKind::RiscV, IsaKind::AArch64] {
            let stream: Vec<RetiredInst> = (0..500)
                .map(|_| {
                    let r = next();
                    let g = match r % 5 {
                        0 => InstGroup::Shift,
                        1 => InstGroup::IntAlu,
                        2 => InstGroup::Load,
                        3 => InstGroup::Branch,
                        _ => InstGroup::Store,
                    };
                    let dst = [x((r >> 16) as u8 % 8)];
                    let dsts: &[_] = if g == InstGroup::Store { &[] } else { &dst };
                    let mut ri = op(g, &[x((r >> 8) as u8 % 8)], dsts);
                    ri.is_branch = g == InstGroup::Branch;
                    if g == InstGroup::Load {
                        ri.push_read(0x1000 + (r % 64) * 8, 8);
                    }
                    if g == InstGroup::Store {
                        ri.push_write(0x1000 + (r % 64) * 8, 8);
                    }
                    ri
                })
                .collect();
            let r = run(isa, &stream);
            assert_eq!(r.total_retired, 500);
            assert_eq!(r.effective_path_length, r.total_retired - r.fused_pairs);
            assert_eq!(r.fused_pairs, r.counts.iter().map(|(_, n)| n).sum::<u64>());
            // Only this ISA's kinds may fire.
            for (k, n) in &r.counts {
                if *n > 0 {
                    assert_eq!(k.isa(), isa, "{k:?} fired under {isa:?}");
                }
            }
        }
    }

    #[test]
    fn buffering_shortcut_matches_naive_reference_pairing() {
        // `on_retire` refuses to buffer instructions `can_produce` rejects;
        // that shortcut must be invisible. Compare against a naive greedy
        // pairing that consults `recognise` for every adjacent pair, on
        // streams biased to hit every rule family (srcless ALUs, flag
        // setters, contiguous memory runs).
        for (i, k) in PairKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i, "ALL must be in declaration order");
        }
        fn naive(
            isa: IsaKind,
            stream: &[RetiredInst],
        ) -> (Vec<RetiredInst>, [u64; PairKind::ALL.len()]) {
            let mut out = Vec::new();
            let mut counts = [0u64; PairKind::ALL.len()];
            let mut i = 0;
            while i < stream.len() {
                if i + 1 < stream.len() {
                    if let Some(k) = recognise(isa, &stream[i], &stream[i + 1]) {
                        counts[k.index()] += 1;
                        out.push(merge(k, &stream[i], &stream[i + 1]));
                        i += 2;
                        continue;
                    }
                }
                out.push(stream[i]);
                i += 1;
            }
            (out, counts)
        }
        let mut state = 0xfeed_face_cafe_f00du64;
        let mut next = move || {
            state = state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        };
        for isa in [IsaKind::RiscV, IsaKind::AArch64] {
            let stream: Vec<RetiredInst> = (0..800)
                .map(|_| {
                    let r = next();
                    let g = match r % 5 {
                        0 => InstGroup::Shift,
                        1 => InstGroup::IntAlu,
                        2 => InstGroup::Load,
                        3 => InstGroup::Branch,
                        _ => InstGroup::Store,
                    };
                    let mut ri = RetiredInst::new(0x100, g);
                    // A quarter of ops are srcless (lui/adr shapes); flag
                    // setters and flag readers appear for the A64 rules.
                    if (r >> 24) % 4 != 0 {
                        ri.srcs = RegSet::of(&[x((r >> 8) as u8 % 4)]);
                    }
                    if g == InstGroup::Branch {
                        ri.is_branch = true;
                        if (r >> 32) % 3 == 0 {
                            ri.srcs = RegSet::of(&[RegId::Flags]);
                        }
                    } else if g != InstGroup::Store {
                        ri.dsts = if g == InstGroup::IntAlu && (r >> 40) % 4 == 0 {
                            RegSet::of(&[RegId::Flags])
                        } else {
                            RegSet::of(&[x((r >> 16) as u8 % 4)])
                        };
                    }
                    // Addresses cluster on an 8-byte grid so contiguous
                    // ldp/stp candidates actually occur.
                    if g == InstGroup::Load {
                        ri.push_read(0x1000 + (r % 8) * 8, 8);
                    }
                    if g == InstGroup::Store {
                        ri.push_write(0x1000 + (r % 8) * 8, 8);
                    }
                    ri
                })
                .collect();
            let r = run(isa, &stream);
            let (fused_stream, counts) = naive(isa, &stream);
            assert_eq!(r.effective_path_length as usize, fused_stream.len());
            for (j, (k, n)) in r.counts.iter().enumerate() {
                assert_eq!(*n, counts[j], "{k:?} count diverged under {isa:?}");
            }
            assert!(
                r.fused_pairs > 0,
                "stream must actually exercise fusion under {isa:?}"
            );
            let mut cp = DualCriticalPath::new(Tx2Latency);
            for ri in &fused_stream {
                cp.on_retire(ri);
            }
            assert_eq!(r.fused_critical_path, cp.unit().critical_path);
            assert_eq!(r.fused_scaled_cp, cp.scaled().critical_path);
        }
    }

    #[test]
    fn report_round_trips_into_fused_cell() {
        let stream = vec![
            op(InstGroup::Shift, &[x(1)], &[x(5)]),
            op(InstGroup::IntAlu, &[x(2), x(5)], &[x(5)]),
        ];
        let r = run(IsaKind::RiscV, &stream);
        let fc = r.to_fused_cell();
        assert_eq!(fc.fused_pairs, 1);
        assert_eq!(fc.effective_path_length, 1);
        assert_eq!(fc.pair_counts, vec![("slli+add".to_string(), 1)]);
        let s = r.summary();
        assert!(s.contains("slli+add"), "{s}");
    }
}
