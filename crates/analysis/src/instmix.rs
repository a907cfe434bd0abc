//! Instruction-mix and critical-chain-composition observers.
//!
//! The paper's §3.3 reasons about differences through instruction mixes
//! (loads/stores per element, branch fractions, compare instructions) and
//! §5 explains scaled-CP changes through the *composition* of the critical
//! chain ("they were more computationally dense"). These observers make
//! both quantitative.

use simcore::{DepTable, InstGroup, Observer, RetireSource, RetiredInst, SimError};

/// Histogram of retired instructions per [`InstGroup`].
#[derive(Debug, Clone, Default)]
pub struct InstMix {
    counts: [u64; InstGroup::ALL.len()],
    total: u64,
    branches_taken: u64,
    branches: u64,
}

impl InstMix {
    /// Fresh histogram.
    pub fn new() -> Self {
        InstMix::default()
    }

    /// Pump an entire retirement source (live run, replayed trace, or
    /// record slice) through this histogram.
    pub fn consume(&mut self, source: &mut dyn RetireSource) -> Result<u64, SimError> {
        let mut obs: [&mut dyn Observer; 1] = [self];
        source.drive(&mut obs)
    }

    /// Total instructions retired.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Count for one group.
    pub fn count(&self, g: InstGroup) -> u64 {
        self.counts[g.code() as usize]
    }

    /// Fraction of the path length for one group.
    pub fn fraction(&self, g: InstGroup) -> f64 {
        self.count(g) as f64 / self.total.max(1) as f64
    }

    /// Fraction of control-flow instructions (the paper's ~15 % STREAM
    /// branch share).
    pub fn branch_fraction(&self) -> f64 {
        self.branches as f64 / self.total.max(1) as f64
    }

    /// Fraction of branches that were taken.
    pub fn taken_rate(&self) -> f64 {
        self.branches_taken as f64 / self.branches.max(1) as f64
    }

    /// Non-zero groups sorted by descending count.
    pub fn sorted(&self) -> Vec<(InstGroup, u64)> {
        let mut v: Vec<(InstGroup, u64)> = InstGroup::ALL
            .iter()
            .map(|&g| (g, self.count(g)))
            .filter(|&(_, c)| c > 0)
            .collect();
        v.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        v
    }

    /// Render as an aligned text table.
    pub fn table(&self) -> String {
        let mut out = format!("{:<10} {:>12} {:>8}\n", "group", "count", "share");
        for (g, c) in self.sorted() {
            out.push_str(&format!(
                "{:<10} {:>12} {:>7.2}%\n",
                format!("{g:?}"),
                c,
                100.0 * c as f64 / self.total.max(1) as f64
            ));
        }
        out
    }
}

impl Observer for InstMix {
    #[inline]
    fn on_retire(&mut self, ri: &RetiredInst) {
        self.counts[ri.group.code() as usize] += 1;
        self.total += 1;
        if ri.is_branch {
            self.branches += 1;
            if ri.taken {
                self.branches_taken += 1;
            }
        }
    }
}

/// Approximate composition of the critical chain.
///
/// Tracks unit-cost chain depths exactly like the unit half of
/// [`crate::DualCriticalPath`], and attributes every instruction that pushes
/// the *global* maximum depth forward — the frontier of the winning chain.
/// For a single dominant chain (the common case: a pointer bump or
/// reduction) this is exact; when the maximum hops between chains it is an
/// approximation, which is why it is reported separately rather than
/// folded into the CP result.
#[derive(Debug, Clone)]
pub struct CpComposition {
    chains: DepTable<u64>,
    longest: u64,
    frontier: [u64; InstGroup::ALL.len()],
}

impl CpComposition {
    /// Fresh analyzer.
    pub fn new() -> Self {
        CpComposition {
            chains: DepTable::new(),
            longest: 0,
            frontier: [0; InstGroup::ALL.len()],
        }
    }

    /// The critical path length (unit cost).
    pub fn critical_path(&self) -> u64 {
        self.longest
    }

    /// Frontier counts per group (sums to `critical_path()`).
    pub fn composition(&self) -> Vec<(InstGroup, u64)> {
        let mut v: Vec<(InstGroup, u64)> = InstGroup::ALL
            .iter()
            .map(|&g| (g, self.frontier[g.code() as usize]))
            .filter(|&(_, c)| c > 0)
            .collect();
        v.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        v
    }

    /// Share of the winning chain formed by FP arithmetic — the paper's
    /// "computational density" of the critical path.
    pub fn fp_share(&self) -> f64 {
        let fp: u64 = InstGroup::ALL
            .iter()
            .filter(|g| g.is_fp())
            .map(|&g| self.frontier[g.code() as usize])
            .sum();
        fp as f64 / self.longest.max(1) as f64
    }
}

impl Default for CpComposition {
    fn default() -> Self {
        CpComposition::new()
    }
}

impl Observer for CpComposition {
    #[inline]
    fn on_retire(&mut self, ri: &RetiredInst) {
        let depth = self.chains.fold_reads(ri, 0, u64::max) + 1;
        self.chains.write(ri, depth);
        if depth > self.longest {
            self.longest = depth;
            self.frontier[ri.group.code() as usize] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{RegId, RegSet};

    fn op(group: InstGroup, srcs: &[RegId], dsts: &[RegId]) -> RetiredInst {
        let mut ri = RetiredInst::new(0, group);
        ri.srcs = RegSet::of(srcs);
        ri.dsts = RegSet::of(dsts);
        ri
    }

    #[test]
    fn mix_counts_and_fractions() {
        let mut m = InstMix::new();
        for _ in 0..6 {
            m.on_retire(&op(InstGroup::IntAlu, &[], &[]));
        }
        for _ in 0..3 {
            m.on_retire(&op(InstGroup::Load, &[], &[]));
        }
        let mut b = op(InstGroup::Branch, &[], &[]);
        b.is_branch = true;
        b.taken = true;
        m.on_retire(&b);
        assert_eq!(m.total(), 10);
        assert_eq!(m.count(InstGroup::IntAlu), 6);
        assert!((m.fraction(InstGroup::Load) - 0.3).abs() < 1e-12);
        assert!((m.branch_fraction() - 0.1).abs() < 1e-12);
        assert_eq!(m.taken_rate(), 1.0);
        assert_eq!(m.sorted()[0].0, InstGroup::IntAlu);
        assert!(m.table().contains("IntAlu"));
    }

    #[test]
    fn composition_of_pure_chain() {
        let mut c = CpComposition::new();
        let f = RegId::Fp(0);
        for _ in 0..20 {
            c.on_retire(&op(InstGroup::FpAdd, &[f], &[f]));
        }
        assert_eq!(c.critical_path(), 20);
        assert_eq!(c.composition(), vec![(InstGroup::FpAdd, 20)]);
        assert_eq!(c.fp_share(), 1.0);
    }

    #[test]
    fn composition_tracks_dominant_chain() {
        let mut c = CpComposition::new();
        let x = RegId::Int(1);
        let f = RegId::Fp(0);
        // A short int chain, then a longer FP chain that overtakes it.
        for _ in 0..3 {
            c.on_retire(&op(InstGroup::IntAlu, &[x], &[x]));
        }
        for _ in 0..10 {
            c.on_retire(&op(InstGroup::FpMul, &[f], &[f]));
        }
        assert_eq!(c.critical_path(), 10);
        let comp = c.composition();
        assert_eq!(comp[0].0, InstGroup::FpMul);
        assert!(c.fp_share() > 0.6);
    }
}
