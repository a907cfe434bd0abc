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
//!
//! **Narrow entries.** A table entry (a `Chain`, and the fused fold's
//! entry) holds `u32` depths and a `u32` writer stamp, so at paper scale,
//! where the table holds tens of millions of words, it costs half the
//! memory `u64` fields would. A fold adds in `u64` and narrows once, where
//! it writes a depth to the table, with a checked conversion: a depth past
//! `u32::MAX` stops the cell with a panic naming the depth and the record,
//! never a wrapped or saturated value.
//!
//! **Exact stamps.** A writer's stamp is its retirement index modulo
//! 2^32, and a producer's distance back is the wrapping difference of two
//! stamps. Two things read it: the windowed lanes, which use a distance
//! only if it is below `max(sizes)`, at most `i16::MAX`; and the fused
//! fold's link test, which asks whether a writer is the record just
//! before, distance 1. So a distance need only be exact below `NEAR`
//! (2^15), and read `NEAR` or more otherwise. Before every retirement whose
//! index is a multiple of 2^31, a sweep makes every stamp that looks older
//! than `NEAR` look exactly `NEAR` old. Then, at every retirement, every
//! stamp looks from 1 to `2^32 - 1` old, so no difference wraps:
//!
//! * one written since the last sweep is less than 2^31 old;
//! * one the last sweep kept looked at most `NEAR` old then, and sweeps
//!   come 2^31 retirements apart, so it looks at most `NEAR + 2^31` old;
//! * one the last sweep clamped looks at most `NEAR + 2^31` old too, and
//!   the next sweep clamps it again.
//!
//! A stamp's apparent age is its true age until a sweep clamps it, which
//! happens only once it is more than `NEAR` old. So a true distance below
//! `NEAR` is reported exactly, and one of `NEAR` or more reads `NEAR` or
//! more, for a stream of any length. A sweep walks the whole table; past
//! its first record, no paper-scale cell (at most 2.82G records) sweeps
//! more than once.

use std::num::{NonZeroU32, NonZeroU64};

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
/// and that writer's stamp. `Option<Chain>` is 12 bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Chain {
    /// Unit-cost depth, at least 1. Being non-zero, it gives
    /// `Option<Chain>` its `None`.
    pub(crate) unit: NonZeroU32,
    /// Latency-scaled depth.
    pub(crate) scaled: u32,
    /// The writer's [`Stamp`].
    pub(crate) writer: Stamp,
}

/// A writer's retirement index modulo 2^32, kept exact by [`sweep`].
pub(crate) type Stamp = u32;

/// Distances below this are reported exactly; it exceeds every window
/// size the lanes accept.
pub(crate) const NEAR: Stamp = 1 << 15;
const _: () = assert!(crate::windowed::MAX_WINDOW < NEAR as usize);

/// Retirements between two sweeps of a table's stamps.
const SWEEP: u64 = 1 << 31;
const _: () = assert!(NEAR as u64 + SWEEP < 1 << 32);

/// A table entry that carries its writer's stamp.
pub(crate) trait Stamped {
    fn writer(&mut self) -> &mut Stamp;
}

impl Stamped for Chain {
    #[inline]
    fn writer(&mut self) -> &mut Stamp {
        &mut self.writer
    }
}

/// Count the retirement `*retired` and return its index and stamp. Before
/// every [`SWEEP`]th, first [`sweep`] `table`.
#[inline]
pub(crate) fn next_stamp<V: Stamped + Copy>(
    retired: &mut u64,
    table: &mut DepTable<V>,
) -> (u64, Stamp) {
    let index = *retired;
    *retired += 1;
    let stamp = index as Stamp;
    if index.is_multiple_of(SWEEP) {
        sweep(table, stamp);
    }
    (index, stamp)
}

/// Make every stamp in `table` older than [`NEAR`] at stamp `now` look
/// exactly `NEAR` old.
#[cold]
fn sweep<V: Stamped + Copy>(table: &mut DepTable<V>, now: Stamp) {
    table.update_all(|v| {
        let writer = v.writer();
        if now.wrapping_sub(*writer) > NEAR {
            *writer = now.wrapping_sub(NEAR);
        }
    });
}

/// `depth`, which the fold reached at record `index`, narrowed to a table
/// field. A depth the field cannot hold stops the cell.
#[inline]
pub(crate) fn narrow<W: Copy + Into<u64>, N: TryFrom<W>>(depth: W, index: u64) -> N {
    N::try_from(depth).unwrap_or_else(|_| too_deep(depth.into(), index))
}

#[cold]
#[inline(never)]
fn too_deep(depth: u64, index: u64) -> ! {
    panic!(
        "chain depth {depth} at record {index} exceeds the dependency table's limit of {}",
        u32::MAX
    )
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

    /// [`DualCriticalPath::new`] as if `start` records that touch no
    /// location had retired already.
    #[cfg(test)]
    pub(crate) fn starting_at<M: LatencyModel>(model: M, start: u64) -> Self {
        DualCriticalPath {
            retired: start,
            ..DualCriticalPath::new(model)
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
        let (index, stamp) = next_stamp(&mut self.retired, &mut self.chains);
        let (src_u, src_s) = self.chains.fold_reads(ri, (0, 0), |(u, s), c| {
            producer(u64::from(stamp.wrapping_sub(c.writer)));
            (u.max(c.unit.get()), s.max(c.scaled))
        });
        // Loads and stores are not scaled: the paper assumes store
        // forwarding (§5.1).
        let scaled_cost = match ri.group {
            InstGroup::Load | InstGroup::Store => 1,
            g => self.latency[g.code() as usize],
        };
        let unit = NonZeroU64::MIN.saturating_add(u64::from(src_u));
        let scaled = u64::from(src_s).saturating_add(scaled_cost);
        self.chains.write(
            ri,
            Chain {
                unit: narrow(unit, index),
                scaled: narrow(scaled, index),
                writer: stamp,
            },
        );
        self.longest_unit = self.longest_unit.max(unit.get());
        self.longest_scaled = self.longest_scaled.max(scaled);
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
    fn table_entries_stay_12_bytes() {
        assert_eq!(std::mem::size_of::<Option<Chain>>(), 12);
    }

    #[test]
    fn a_sweep_clamps_only_stamps_older_than_near() {
        // Just past a wrap, registers and a word whose stamps look from 1
        // to 2^32 - 1 retirements old.
        let now: Stamp = 7;
        let ages = [1, NEAR - 1, NEAR, NEAR + 1, 1 << 31, u32::MAX];
        let mut table = DepTable::new();
        for (r, &age) in ages.iter().enumerate() {
            let mut ri = op(InstGroup::IntAlu, &[], &[RegId::Int(r as u8 + 1)]);
            if r == ages.len() - 1 {
                ri.push_write(0x100, 8);
            }
            let chain = Chain {
                unit: NonZeroU32::MIN,
                scaled: 1,
                writer: now.wrapping_sub(age),
            };
            table.write(&ri, chain);
        }
        sweep(&mut table, now);
        let mut all = op(InstGroup::IntAlu, &[], &[]);
        all.srcs = (1..=ages.len() as u8).map(RegId::Int).collect();
        all.push_read(0x100, 8);
        let seen = table.fold_reads(&all, Vec::new(), |mut v, c| {
            v.push(now.wrapping_sub(c.writer));
            v
        });
        assert_eq!(seen, [1, NEAR - 1, NEAR, NEAR, NEAR, NEAR, NEAR]);
    }

    #[test]
    fn a_sweep_keeps_an_old_stamp_from_wrapping_into_the_windows() {
        // Eight records short of 2^32, x9 holds a stamp 2^32 - 16 records
        // old. Unswept, 24 records later it would look 8 old.
        const START: u64 = (1 << 32) - 8;
        let mut cp = DualCriticalPath::starting_at(Tx2Latency, START);
        let x9 = RegId::Int(9);
        let old = Chain {
            unit: NonZeroU32::MIN,
            scaled: 1,
            writer: (START as Stamp).wrapping_sub(u32::MAX - 15),
        };
        cp.chains.write(&op(InstGroup::IntAlu, &[], &[x9]), old);
        for _ in 0..40 {
            cp.retire(&op(InstGroup::IntAlu, &[x9], &[]), |d| {
                assert!(d >= NEAR.into(), "distance {d}")
            });
        }
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
