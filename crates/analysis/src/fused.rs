//! The fused critical path: the unit and TX2-scaled critical paths of the
//! stream a macro-op fusing front end would retire (Celio et al.), folded
//! over the same dependency table as the unfused ones.
//!
//! Pairing is the pair tables' greedy, non-overlapping rule
//! ([`crate::pairs`]): a record that could start a pair waits, *pending*,
//! for the next one. The merged-stream reference (`fusion::FusionPass`)
//! builds one merged record per pair and runs a second critical path over
//! that stream. Here each table entry holds both chains, so one resolve of
//! a record's reads serves the unfused and the fused path:
//!
//! * When consumer `c` fuses with pending producer `p`, the fused side
//!   skips the entries whose writer is `p`: they are the pair's link. For
//!   every [`PairKind`], in the shapes both ISAs retire, whatever else `c`
//!   reads that `p` wrote, `p` read too (a store pair's written-back
//!   base), so it is already among `p`'s sources.
//! * The merged depth is `max(p's sources, c's other sources) +
//!   cost(c.group)`, where `p`'s sources leave out the link register, as
//!   the merged record's do. Loads and stores cost 1, as in the unfused
//!   scaled path.
//! * `p` wrote its entries with the fused depth it has if it retires
//!   alone. After a fusion, [`DepTable::update`] gives the locations `p`
//!   still holds the merged depth, as the merged record writes them.
//! * A pending producer's own depth joins the longest fused chain only
//!   once it resolves: it can exceed the merged depth, when `p` read the
//!   link register from a deeper chain.

use std::num::NonZeroU64;

use simcore::{DepTable, InstGroup, IsaKind, Observer, RegId, Region, RetiredInst};
use uarch::{LatencyModel, Tx2Latency};

use crate::cell::DependencyFold;
use crate::critical_path::Chain;
use crate::pairs::{can_produce, recognise, single_dst, PairKind};
use crate::path_length::PathLength;
use crate::tables::{ExperimentCell, FusedCell};

/// A chain's unit-cost and latency-scaled depths.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Depths {
    unit: u64,
    scaled: u64,
}

impl Depths {
    #[inline]
    fn max(self, o: Depths) -> Depths {
        Depths {
            unit: self.unit.max(o.unit),
            scaled: self.scaled.max(o.scaled),
        }
    }

    /// One more instruction of scaled cost `cost` on top of this chain.
    #[inline]
    fn then(self, cost: u64) -> Depths {
        Depths {
            unit: self.unit + 1,
            scaled: self.scaled + cost,
        }
    }
}

/// The value in one location: the unfused chain and writer, as in
/// [`crate::DualCriticalPath`], and the fused chain. 40 bytes.
#[derive(Debug, Clone, Copy)]
struct Entry {
    chain: Chain,
    fused: Depths,
}

/// A record that may still fuse with the next one.
struct Pending {
    ri: RetiredInst,
    index: u64,
    /// The fused depth of its sources.
    sources: Depths,
    /// The same without the link register a pair from it would drop.
    sources_sans_link: Depths,
    /// Its fused depth should it retire alone.
    alone: Depths,
}

/// Unit-cost and TX2-scaled critical paths of a stream and of its fused
/// form, with the fused form's pair counts, in one dependency fold.
pub struct FusedCriticalPath {
    chains: DepTable<Entry>,
    longest: Depths,
    longest_fused: Depths,
    retired: u64,
    isa: IsaKind,
    pending: Option<Pending>,
    counts: [u64; PairKind::ALL.len()],
    /// The consumers fused into a pair, by region: the merged record
    /// counts in its producer's region, so the effective per-kernel counts
    /// are the stream's less these.
    absorbed: PathLength,
    /// Scaled cost of each group, by [`InstGroup::code`]: its TX2 latency,
    /// but 1 for loads and stores, which the paper assumes forwarded
    /// (§5.1).
    cost: [u64; InstGroup::ALL.len()],
}

/// The register a pair from `p` drops from `p`'s sources as its link
/// ([`PairKind::link`]). Every RISC-V kind links through `p`'s single
/// destination. On AArch64 only `cmp`+`b.cond` (the flags) and `adr`+`add`
/// have a link, and an `adr`-shaped producer reads no register at all.
#[inline]
fn link_of(isa: IsaKind, p: &RetiredInst) -> Option<RegId> {
    match isa {
        IsaKind::RiscV => single_dst(p),
        IsaKind::AArch64 => Some(RegId::Flags),
    }
}

impl FusedCriticalPath {
    /// The fold for `isa`'s pair table over a program with the given
    /// kernel regions.
    pub fn new(isa: IsaKind, regions: &[Region]) -> Self {
        FusedCriticalPath {
            chains: DepTable::new(),
            longest: Depths::default(),
            longest_fused: Depths::default(),
            retired: 0,
            isa,
            pending: None,
            counts: [0; PairKind::ALL.len()],
            absorbed: PathLength::new(regions),
            cost: InstGroup::ALL.map(|g| match g {
                InstGroup::Load | InstGroup::Store => 1,
                g => Tx2Latency.latency(g),
            }),
        }
    }

    /// The fused measurements, given the stream's per-kernel counts. A
    /// producer still pending counts as retired alone, as at the end of
    /// the stream.
    fn fused_cell(&self, kernels: &[(String, u64)]) -> FusedCell {
        let fused_pairs: u64 = self.counts.iter().sum();
        let longest = match &self.pending {
            Some(p) => self.longest_fused.max(p.alone),
            None => self.longest_fused,
        };
        FusedCell {
            fused_pairs,
            effective_path_length: self.retired - fused_pairs,
            fused_critical_path: longest.unit,
            fused_scaled_cp: longest.scaled,
            pair_counts: PairKind::ALL
                .iter()
                .zip(self.counts)
                .filter(|(_, n)| *n > 0)
                .map(|(k, n)| (k.name().to_string(), n))
                .collect(),
            effective_kernels: kernels
                .iter()
                .zip(self.absorbed.by_kernel())
                .map(|((name, n), (_, absorbed))| (name.clone(), n - absorbed))
                .collect(),
        }
    }

    /// The fused depth of `ri`'s sources other than the link register a
    /// pair from it would drop. Call it before `ri`'s own write.
    fn sources_sans_link(&self, ri: &RetiredInst, sources: Depths) -> Depths {
        match link_of(self.isa, ri) {
            Some(link) if ri.srcs.contains(link) => {
                let mut rest = *ri;
                rest.srcs = ri.srcs.iter().filter(|&r| r != link).collect();
                self.chains
                    .fold_reads(&rest, Depths::default(), |d, e| d.max(e.fused))
            }
            _ => sources,
        }
    }
}

impl DependencyFold for FusedCriticalPath {
    #[inline]
    fn retire(&mut self, ri: &RetiredInst, mut producer: impl FnMut(u64)) {
        let index = self.retired;
        self.retired += 1;
        let (kind, link_writer) = match &self.pending {
            Some(p) => match recognise(self.isa, &p.ri, ri) {
                // The fused side skips what the producer of a pair wrote.
                Some(kind) => (Some(kind), p.index),
                None => (None, u64::MAX),
            },
            None => (None, u64::MAX),
        };
        let (src, fused_src) =
            self.chains
                .fold_reads(ri, (Depths::default(), Depths::default()), |(s, f), e| {
                    producer(index - e.chain.writer);
                    let chain = Depths {
                        unit: e.chain.unit.get(),
                        scaled: e.chain.scaled,
                    };
                    let fused = if e.chain.writer != link_writer {
                        e.fused
                    } else {
                        Depths::default()
                    };
                    (s.max(chain), f.max(fused))
                });
        let cost = self.cost[ri.group.code() as usize];
        let own = src.then(cost);
        let chain = Chain {
            unit: NonZeroU64::MIN.saturating_add(src.unit),
            scaled: own.scaled,
            writer: index,
        };
        self.longest = self.longest.max(own);
        if let Some(kind) = kind {
            let p = self.pending.take().expect("a pair has a producer");
            self.counts[kind.index()] += 1;
            self.absorbed.on_retire(ri);
            let before = match kind.link(&p.ri) {
                Some(link) => {
                    debug_assert!(p.ri.srcs.is_empty() || link_of(self.isa, &p.ri) == Some(link));
                    p.sources_sans_link
                }
                None => p.sources,
            };
            let fused = before.max(fused_src).then(cost);
            self.chains.write(ri, Entry { chain, fused });
            self.chains.update(&p.ri, |e| {
                if e.chain.writer == p.index {
                    e.fused = fused;
                }
            });
            self.longest_fused = self.longest_fused.max(fused);
            return;
        }
        // Any pending producer retires alone. Only a record that could
        // start a pair is copied; the rest resolve at once.
        if let Some(p) = &self.pending {
            self.longest_fused = self.longest_fused.max(p.alone);
        }
        let fused = fused_src.then(cost);
        if can_produce(self.isa, ri) {
            let sources_sans_link = self.sources_sans_link(ri, fused_src);
            self.pending = Some(Pending {
                ri: *ri,
                index,
                sources: fused_src,
                sources_sans_link,
                alone: fused,
            });
        } else {
            self.pending = None;
            self.longest_fused = self.longest_fused.max(fused);
        }
        self.chains.write(ri, Entry { chain, fused });
    }

    /// A producer still pending retires alone: no pair spans the end of a
    /// stream.
    fn finish(&mut self) {
        if let Some(p) = self.pending.take() {
            self.longest_fused = self.longest_fused.max(p.alone);
        }
    }

    fn fill(&self, cell: &mut ExperimentCell) {
        cell.critical_path = self.longest.unit;
        cell.scaled_cp = self.longest.scaled;
        cell.fused = Some(self.fused_cell(&cell.kernels));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::RegSet;

    fn op(group: InstGroup, srcs: &[RegId], dsts: &[RegId]) -> RetiredInst {
        let mut ri = RetiredInst::new(0, group);
        ri.srcs = RegSet::of(srcs);
        ri.dsts = RegSet::of(dsts);
        ri.is_branch = group == InstGroup::Branch;
        ri
    }

    fn x(n: u8) -> RegId {
        RegId::Int(n)
    }

    /// Fold `stream` and return the fused cell's (unit, scaled) CP.
    fn fused_cp(isa: IsaKind, stream: &[RetiredInst]) -> (u64, u64) {
        let mut cp = FusedCriticalPath::new(isa, &[]);
        for ri in stream {
            cp.retire(ri, |_| {});
        }
        cp.finish();
        let cell = cp.fused_cell(&[]);
        (cell.fused_critical_path, cell.fused_scaled_cp)
    }

    #[test]
    fn cost_table_matches_the_model_for_every_group() {
        let cp = FusedCriticalPath::new(IsaKind::RiscV, &[]);
        for g in InstGroup::ALL {
            let want = match g {
                InstGroup::Load | InstGroup::Store => 1,
                g => Tx2Latency.latency(g),
            };
            assert_eq!(cp.cost[g.code() as usize], want, "{g:?}");
        }
    }

    #[test]
    fn table_entries_stay_40_bytes() {
        assert_eq!(std::mem::size_of::<Option<Entry>>(), 40);
    }

    #[test]
    fn a_producer_deeper_than_its_pair_never_counts() {
        // mul; mul; slli x2, x2; add x2, x3, x2: the merged record reads
        // neither the link x2 nor the muls behind it, so the shift's own
        // depth (3, scaled 11) is not on any fused chain.
        let stream = [
            op(InstGroup::IntMul, &[x(1)], &[x(2)]),
            op(InstGroup::IntMul, &[x(2)], &[x(2)]),
            op(InstGroup::Shift, &[x(2)], &[x(2)]),
            op(InstGroup::IntAlu, &[x(3), x(2)], &[x(2)]),
            op(InstGroup::IntAlu, &[x(2)], &[x(4)]),
        ];
        assert_eq!(fused_cp(IsaKind::RiscV, &stream), (2, 10));
    }

    #[test]
    fn pair_rewrites_what_the_producer_still_holds() {
        // A load pair whose second half reads a deep store: the first
        // half's destination x2 holds the merged depth afterwards.
        let mut st = op(InstGroup::Store, &[x(9), x(8)], &[]);
        st.push_write(0x108, 8);
        let mut first = op(InstGroup::Load, &[x(1)], &[x(2)]);
        first.push_read(0x100, 8);
        let mut second = op(InstGroup::Load, &[x(1)], &[x(3)]);
        second.push_read(0x108, 8);
        let stream = [
            op(InstGroup::IntDiv, &[x(9)], &[x(9)]),
            st,
            first,
            second,
            op(InstGroup::IntAlu, &[x(2)], &[x(4)]),
        ];
        assert_eq!(fused_cp(IsaKind::AArch64, &stream), (4, 26));
    }

    #[test]
    fn flag_setter_writing_a_register_drops_only_the_flags() {
        // fcmp; adcs x5, x2 (reads the flags); b.cond; add x6, x5. The
        // merged adcs+b.cond reads no flags, and x5 holds its depth.
        let stream = [
            op(InstGroup::FpCmp, &[x(1)], &[RegId::Flags]),
            op(
                InstGroup::IntAlu,
                &[RegId::Flags, x(2)],
                &[RegId::Flags, x(5)],
            ),
            op(InstGroup::Branch, &[RegId::Flags], &[]),
            op(InstGroup::IntAlu, &[x(5)], &[x(6)]),
        ];
        assert_eq!(fused_cp(IsaKind::AArch64, &stream), (2, 5));
    }

    #[test]
    fn store_pair_halves_in_one_word_chain_through_it() {
        // Two 4-byte halves of one word, then a load of the word: the load
        // depends on the merged store pair, which depends on the mul.
        let mut lo = op(InstGroup::Store, &[x(2), x(3)], &[]);
        lo.push_write(0x100, 4);
        let mut hi = op(InstGroup::Store, &[x(4), x(3)], &[]);
        hi.push_write(0x104, 4);
        let mut ld = op(InstGroup::Load, &[x(5)], &[x(6)]);
        ld.push_read(0x100, 8);
        let stream = [op(InstGroup::IntMul, &[x(1)], &[x(2)]), lo, hi, ld];
        assert_eq!(fused_cp(IsaKind::AArch64, &stream), (3, 7));
    }

    #[test]
    fn a_producer_pending_at_the_end_retires_alone() {
        let stream = [
            op(InstGroup::IntMul, &[x(1)], &[x(2)]),
            op(InstGroup::Shift, &[x(2)], &[x(3)]),
        ];
        let mut cp = FusedCriticalPath::new(IsaKind::RiscV, &[]);
        for ri in &stream {
            cp.retire(ri, |_| {});
        }
        let before = cp.fused_cell(&[]);
        assert_eq!((before.fused_critical_path, before.fused_scaled_cp), (2, 6));
        cp.finish();
        assert_eq!(cp.fused_cell(&[]), before);
        assert_eq!(before.effective_path_length, 2);
        // The next stream's first record does not fuse with it.
        cp.retire(&op(InstGroup::IntAlu, &[x(4), x(3)], &[x(3)]), |_| {});
        assert_eq!(cp.fused_cell(&[]).fused_pairs, 0);
    }
}
