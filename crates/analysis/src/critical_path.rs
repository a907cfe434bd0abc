//! Critical-path (longest RAW dependency chain) analysis — the paper's §4
//! method, plus the §5 latency-scaled variant.
//!
//! Quoting the method: "Using an array to maintain the critical path length
//! to the value held in each register, and a map to keep track of path
//! lengths for each memory address used ... We take the longest of these
//! dependencies, add one for the instruction currently being executed, and
//! write this value to the array and map, indexed with the destination
//! registers and memory addresses."
//!
//! The scaled variant adds the instruction's execution latency instead of
//! one; loads and stores are *not* scaled ("we assume store forwarding in
//! most cases").
//!
//! Both fold over [`simcore::DepTable`], which states the dependency
//! model (register slots, 8-byte words, sources before destinations).

use std::num::NonZeroU64;

use simcore::{DepTable, InstGroup, Observer, RetireSource, RetiredInst, SimError};
use uarch::LatencyModel;

use crate::cell::DependencyFold;
use crate::tables::ExperimentCell;

/// Result of a critical-path analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpResult {
    /// Length of the longest dependency chain, in cycles.
    pub critical_path: u64,
    /// Instructions retired.
    pub path_length: u64,
}

impl CpResult {
    /// Instruction-level parallelism: `path_length / critical_path`.
    pub fn ilp(&self) -> f64 {
        self.path_length as f64 / self.critical_path.max(1) as f64
    }

    /// Runtime estimate in ms at the paper's 2 GHz clock (runtime is purely
    /// a function of the CP on the ideal processor).
    pub fn runtime_ms(&self) -> f64 {
        crate::runtime_ms(self.critical_path)
    }
}

/// The value in one location: the chain depths its last writer reached,
/// and that writer's retirement index.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Chain {
    /// Unit-cost depth, at least 1. Being non-zero, it gives
    /// `Option<Chain>` its `None`, so table entries stay 24 bytes.
    pub(crate) unit: NonZeroU64,
    pub(crate) scaled: u64,
    pub(crate) writer: u64,
}

/// Unit-cost and latency-scaled critical paths computed in one pass.
///
/// The unit half is the paper's ideal-CPI analysis (§4, Table 1); the
/// scaled half adds each instruction's latency instead of one (§5,
/// Table 2). Both share one dependency table, so each memory word costs one
/// lookup — at paper scale the table holds tens of millions of words and
/// dominates the analysis time. The table also keeps each location's
/// writer, so the per-cell bundle can hand every producer's distance to
/// its windowed CP from the same fold.
pub struct DualCriticalPath {
    chains: DepTable<Chain>,
    longest_unit: u64,
    longest_scaled: u64,
    retired: u64,
    /// The latency model's cost of each group, by [`InstGroup::code`].
    latency: [u64; InstGroup::ALL.len()],
}

impl DualCriticalPath {
    /// Dual analysis with the given latency model for the scaled half.
    /// The model is asked once per group, here.
    pub fn new<M: LatencyModel>(model: M) -> Self {
        DualCriticalPath {
            chains: DepTable::new(),
            longest_unit: 0,
            longest_scaled: 0,
            retired: 0,
            latency: InstGroup::ALL.map(|g| model.latency(g)),
        }
    }

    /// Unit-cost result (the paper's Table 1).
    pub fn unit(&self) -> CpResult {
        CpResult {
            critical_path: self.longest_unit,
            path_length: self.retired,
        }
    }

    /// Latency-scaled result (the paper's Table 2).
    pub fn scaled(&self) -> CpResult {
        CpResult {
            critical_path: self.longest_scaled,
            path_length: self.retired,
        }
    }

    /// Pump an entire retirement source (live run, replayed trace, or
    /// record slice) through this analysis.
    pub fn consume(&mut self, source: &mut dyn RetireSource) -> Result<u64, SimError> {
        let mut obs: [&mut dyn Observer; 1] = [self];
        source.drive(&mut obs)
    }
}

impl DependencyFold for DualCriticalPath {
    /// Fold one retirement into both chains, reporting each producer (the
    /// last writer of a location it reads) as its distance back.
    #[inline]
    fn retire(&mut self, ri: &RetiredInst, mut producer: impl FnMut(u64)) {
        let index = self.retired;
        self.retired += 1;
        let (src_u, src_s) = self.chains.fold_reads(ri, (0, 0), |(u, s), c| {
            producer(index - c.writer);
            (u.max(c.unit.get()), s.max(c.scaled))
        });
        // Loads and stores are not scaled: the paper assumes store
        // forwarding (§5.1).
        let scaled_cost = match ri.group {
            InstGroup::Load | InstGroup::Store => 1,
            g => self.latency[g.code() as usize],
        };
        let chain = Chain {
            unit: NonZeroU64::MIN.saturating_add(src_u),
            scaled: src_s + scaled_cost,
            writer: index,
        };
        self.chains.write(ri, chain);
        self.longest_unit = self.longest_unit.max(chain.unit.get());
        self.longest_scaled = self.longest_scaled.max(chain.scaled);
    }

    fn fill(&self, cell: &mut ExperimentCell) {
        cell.critical_path = self.longest_unit;
        cell.scaled_cp = self.longest_scaled;
    }
}

impl Observer for DualCriticalPath {
    #[inline]
    fn on_retire(&mut self, ri: &RetiredInst) {
        self.retire(ri, |_| {});
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{RegId, RegSet, RetiredInst};
    use uarch::{Tx2Latency, UnitLatency};

    fn op(group: InstGroup, srcs: &[RegId], dsts: &[RegId]) -> RetiredInst {
        let mut ri = RetiredInst::new(0, group);
        ri.srcs = RegSet::of(srcs);
        ri.dsts = RegSet::of(dsts);
        ri
    }

    #[test]
    fn latency_table_matches_the_model_for_every_group() {
        fn check(model: impl LatencyModel + Clone) {
            let cp = DualCriticalPath::new(model.clone());
            for g in InstGroup::ALL {
                assert_eq!(
                    cp.latency[g.code() as usize],
                    model.latency(g),
                    "{} {g:?}",
                    model.name()
                );
            }
        }
        check(Tx2Latency);
        check(UnitLatency);
        let mut custom = Tx2Latency::table();
        custom.name = "custom".into();
        custom.fp_fma = 9;
        custom.int_div = 40;
        check(custom);
    }

    #[test]
    fn table_entries_stay_24_bytes() {
        assert_eq!(std::mem::size_of::<Option<Chain>>(), 24);
    }

    #[test]
    fn producers_are_reported_as_distances() {
        let mut cp = DualCriticalPath::new(Tx2Latency);
        let (x, y) = (RegId::Int(1), RegId::Int(2));
        cp.retire(&op(InstGroup::IntAlu, &[], &[x]), |_| {
            panic!("nothing written yet")
        });
        cp.retire(&op(InstGroup::IntAlu, &[], &[y]), |_| panic!("no sources"));
        let mut seen = Vec::new();
        cp.retire(&op(InstGroup::IntAlu, &[x, y], &[x]), |d| seen.push(d));
        assert_eq!(seen, vec![2, 1]);
    }

    #[test]
    fn serial_chain_equals_length() {
        let mut cp = DualCriticalPath::new(Tx2Latency);
        let x = RegId::Int(1);
        for _ in 0..10 {
            cp.on_retire(&op(InstGroup::IntAlu, &[x], &[x]));
        }
        let r = cp.unit();
        assert_eq!(r.critical_path, 10);
        assert_eq!(r.path_length, 10);
        assert_eq!(r.ilp(), 1.0);
    }

    #[test]
    fn independent_instructions_dont_chain() {
        let mut cp = DualCriticalPath::new(Tx2Latency);
        for i in 0..10u8 {
            cp.on_retire(&op(InstGroup::IntAlu, &[], &[RegId::Int(i)]));
        }
        let r = cp.unit();
        assert_eq!(r.critical_path, 1);
        assert_eq!(r.ilp(), 10.0);
    }

    #[test]
    fn chains_flow_through_memory() {
        let mut cp = DualCriticalPath::new(Tx2Latency);
        let x = RegId::Int(1);
        // x -> store -> load -> y
        cp.on_retire(&op(InstGroup::IntAlu, &[], &[x]));
        let mut st = op(InstGroup::Store, &[x], &[]);
        st.push_write(0x100, 8);
        cp.on_retire(&st);
        let mut ld = op(InstGroup::Load, &[], &[RegId::Int(2)]);
        ld.push_read(0x100, 8);
        cp.on_retire(&ld);
        assert_eq!(cp.unit().critical_path, 3);
        // A load from elsewhere doesn't extend the chain.
        let mut ld2 = op(InstGroup::Load, &[], &[RegId::Int(3)]);
        ld2.push_read(0x800, 8);
        cp.on_retire(&ld2);
        assert_eq!(cp.unit().critical_path, 3);
    }

    #[test]
    fn partial_word_overlap_conservative() {
        let mut cp = DualCriticalPath::new(Tx2Latency);
        let mut st = op(InstGroup::Store, &[], &[]);
        st.push_write(0x104, 4); // upper half of word 0x100
        cp.on_retire(&st);
        let mut ld = op(InstGroup::Load, &[], &[RegId::Int(1)]);
        ld.push_read(0x100, 4); // lower half: same 8-byte word
        cp.on_retire(&ld);
        assert_eq!(
            cp.unit().critical_path,
            2,
            "word granularity merges sub-word accesses"
        );
    }

    #[test]
    fn scaled_uses_latencies_but_not_for_memory() {
        let mut cp = DualCriticalPath::new(Tx2Latency);
        let f = RegId::Fp(0);
        // fadd chain of 3: 18 cycles.
        for _ in 0..3 {
            cp.on_retire(&op(InstGroup::FpAdd, &[f], &[f]));
        }
        assert_eq!(cp.scaled().critical_path, 18);
        // A store/load appended adds 1+1, not the L1 latency.
        let mut st = op(InstGroup::Store, &[f], &[]);
        st.push_write(0x0, 8);
        cp.on_retire(&st);
        let mut ld = op(InstGroup::Load, &[], &[f]);
        ld.push_read(0x0, 8);
        cp.on_retire(&ld);
        assert_eq!(cp.scaled().critical_path, 20);
    }

    #[test]
    fn scaled_never_below_unit() {
        // Scaled CP >= unit CP on the same stream.
        let stream: Vec<RetiredInst> = (0..50)
            .map(|i| {
                let g = if i % 3 == 0 {
                    InstGroup::FpMul
                } else {
                    InstGroup::IntAlu
                };
                op(g, &[RegId::Int(1)], &[RegId::Int(1)])
            })
            .collect();
        let mut cp = DualCriticalPath::new(Tx2Latency);
        for ri in &stream {
            cp.on_retire(ri);
        }
        assert!(cp.scaled().critical_path >= cp.unit().critical_path);
    }
}
