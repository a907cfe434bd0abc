//! Producer-consumer dependency-distance analysis.
//!
//! The paper explains the Figure 2 crossover (§6.2) by observing that
//! "local dependent instructions are more distantly spread for RISC-V
//! which could allow for increased throughput in OoO processors". This
//! observer measures that spread directly: for every retired instruction,
//! the distance (in retired instructions) back to the most recent producer
//! of each of its sources, bucketed into a histogram.

use simcore::{DepTable, Observer, RetireSource, RetiredInst, SimError};

/// Histogram bucket upper bounds (inclusive), in retired instructions.
pub const DIST_BUCKETS: [u64; 8] = [1, 2, 4, 8, 16, 64, 256, u64::MAX];

/// Dependency-distance histogram over the retirement stream.
pub struct DepDistance {
    /// Retirement index of the last writer of each location.
    writers: DepTable<u64>,
    /// Histogram: edges whose distance falls in each bucket.
    buckets: [u64; DIST_BUCKETS.len()],
    /// Total dependency edges observed.
    edges: u64,
    /// Sum of distances (for the mean).
    dist_sum: u64,
    index: u64,
}

impl DepDistance {
    /// Fresh analyzer.
    pub fn new() -> Self {
        DepDistance {
            writers: DepTable::new(),
            buckets: [0; DIST_BUCKETS.len()],
            edges: 0,
            dist_sum: 0,
            index: 0,
        }
    }

    /// Pump an entire retirement source (live run, replayed trace, or
    /// record slice) through this analysis.
    pub fn consume(&mut self, source: &mut dyn RetireSource) -> Result<u64, SimError> {
        let mut obs: [&mut dyn Observer; 1] = [self];
        source.drive(&mut obs)
    }

    /// Mean producer-consumer distance.
    pub fn mean(&self) -> f64 {
        self.dist_sum as f64 / self.edges.max(1) as f64
    }

    /// Fraction of dependency edges with distance `<= bound`.
    pub fn fraction_within(&self, bound: u64) -> f64 {
        let mut within = 0u64;
        for (i, &ub) in DIST_BUCKETS.iter().enumerate() {
            if ub <= bound {
                within += self.buckets[i];
            }
        }
        within as f64 / self.edges.max(1) as f64
    }

    /// Histogram as `(upper_bound, count)` pairs.
    pub fn histogram(&self) -> Vec<(u64, u64)> {
        DIST_BUCKETS
            .iter()
            .copied()
            .zip(self.buckets.iter().copied())
            .collect()
    }

    /// Total dependency edges observed.
    pub fn edges(&self) -> u64 {
        self.edges
    }
}

impl Default for DepDistance {
    fn default() -> Self {
        DepDistance::new()
    }
}

impl Observer for DepDistance {
    #[inline]
    fn on_retire(&mut self, ri: &RetiredInst) {
        self.index += 1;
        self.writers.fold_reads(ri, (), |(), producer| {
            let dist = self.index - producer;
            self.edges += 1;
            self.dist_sum += dist;
            let bucket = DIST_BUCKETS
                .iter()
                .position(|&ub| dist <= ub)
                .expect("last bucket is unbounded");
            self.buckets[bucket] += 1;
        });
        self.writers.write(ri, self.index);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{InstGroup, RegId};

    fn op(srcs: &[u8], dsts: &[u8]) -> RetiredInst {
        let mut ri = RetiredInst::new(0, InstGroup::IntAlu);
        ri.srcs = srcs.iter().map(|&r| RegId::Int(r)).collect();
        ri.dsts = dsts.iter().map(|&r| RegId::Int(r)).collect();
        ri
    }

    #[test]
    fn adjacent_chain_distance_one() {
        let mut d = DepDistance::new();
        d.on_retire(&op(&[], &[1]));
        for _ in 0..9 {
            d.on_retire(&op(&[1], &[1]));
        }
        assert_eq!(d.edges(), 9);
        assert_eq!(d.mean(), 1.0);
        assert_eq!(d.fraction_within(1), 1.0);
    }

    #[test]
    fn interleaving_spreads_distances() {
        // Two interleaved chains: every dependence skips one instruction.
        let mut d = DepDistance::new();
        d.on_retire(&op(&[], &[1]));
        d.on_retire(&op(&[], &[2]));
        for i in 0..10u8 {
            let r = 1 + (i % 2);
            d.on_retire(&op(&[r], &[r]));
        }
        assert_eq!(d.mean(), 2.0);
        assert_eq!(d.fraction_within(1), 0.0);
        assert_eq!(d.fraction_within(2), 1.0);
    }

    #[test]
    fn unwritten_sources_produce_no_edges() {
        let mut d = DepDistance::new();
        d.on_retire(&op(&[5], &[]));
        assert_eq!(d.edges(), 0);
    }

    #[test]
    fn memory_edges_counted() {
        let mut d = DepDistance::new();
        let mut st = RetiredInst::new(0, InstGroup::Store);
        st.push_write(0x100, 8);
        let mut ld = RetiredInst::new(4, InstGroup::Load);
        ld.push_read(0x100, 8);
        d.on_retire(&st);
        d.on_retire(&RetiredInst::new(8, InstGroup::IntAlu));
        d.on_retire(&ld);
        assert_eq!(d.edges(), 1);
        assert_eq!(d.mean(), 2.0);
    }

    #[test]
    fn histogram_buckets_sum_to_edges() {
        let mut d = DepDistance::new();
        d.on_retire(&op(&[], &[1]));
        for i in 0..100u8 {
            d.on_retire(&op(&[1], &[(i % 3) + 1]));
        }
        let total: u64 = d.histogram().iter().map(|&(_, c)| c).sum();
        assert_eq!(total, d.edges());
    }
}
