//! Branch-prediction models.
//!
//! The paper's analyses assume perfect branch prediction; this module
//! quantifies how much that assumption hides, per ISA. It matters for the
//! comparison because the two ISAs *execute different numbers of
//! branches* for the same program (RISC-V fuses compare-and-branch;
//! AArch64 splits them into `cmp` + `b.cond`), so prediction behaviour is
//! one of the ISA-visible effects the paper leaves to future work.
//!
//! Predictors are trace-driven observers over the retirement stream:
//! [`BimodalPredictor`] (per-PC 2-bit counters) and [`GsharePredictor`]
//! (global history XOR PC). Both report [`BranchStats`].

use simcore::{Observer, RetiredInst};

/// Outcome statistics for a predictor run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchStats {
    /// Conditional + unconditional control-flow instructions seen.
    pub branches: u64,
    /// Correct predictions.
    pub hits: u64,
    /// Taken branches.
    pub taken: u64,
}

impl BranchStats {
    /// Prediction accuracy in [0, 1].
    pub fn accuracy(&self) -> f64 {
        self.hits as f64 / self.branches.max(1) as f64
    }

    /// Mispredictions per kilo-instruction given a total path length.
    pub fn mpki(&self, path_length: u64) -> f64 {
        (self.branches - self.hits) as f64 * 1000.0 / path_length.max(1) as f64
    }
}

/// Saturating 2-bit counter.
#[derive(Debug, Clone, Copy, Default)]
struct Counter2(u8);

impl Counter2 {
    #[inline]
    fn predict(self) -> bool {
        self.0 >= 2
    }
    #[inline]
    fn update(&mut self, taken: bool) {
        if taken {
            self.0 = (self.0 + 1).min(3);
        } else {
            self.0 = self.0.saturating_sub(1);
        }
    }
}

/// Per-PC table of 2-bit counters.
pub struct BimodalPredictor {
    table: Vec<Counter2>,
    mask: usize,
    stats: BranchStats,
}

impl BimodalPredictor {
    /// Predictor with `2^log2_entries` counters.
    pub fn new(log2_entries: u32) -> Self {
        let n = 1usize << log2_entries;
        BimodalPredictor {
            table: vec![Counter2::default(); n],
            mask: n - 1,
            stats: BranchStats::default(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> BranchStats {
        self.stats
    }
}

impl Observer for BimodalPredictor {
    #[inline]
    fn on_retire(&mut self, ri: &RetiredInst) {
        if !ri.is_branch {
            return;
        }
        let idx = ((ri.pc >> 2) as usize) & self.mask;
        let predicted = self.table[idx].predict();
        self.table[idx].update(ri.taken);
        self.stats.branches += 1;
        if ri.taken {
            self.stats.taken += 1;
        }
        if predicted == ri.taken {
            self.stats.hits += 1;
        }
    }
}

/// Gshare: global-history register XORed into the PC index.
pub struct GsharePredictor {
    table: Vec<Counter2>,
    mask: usize,
    history: u64,
    history_bits: u32,
    stats: BranchStats,
}

impl GsharePredictor {
    /// Predictor with `2^log2_entries` counters and `history_bits` of
    /// global history.
    pub fn new(log2_entries: u32, history_bits: u32) -> Self {
        let n = 1usize << log2_entries;
        GsharePredictor {
            table: vec![Counter2::default(); n],
            mask: n - 1,
            history: 0,
            history_bits,
            stats: BranchStats::default(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> BranchStats {
        self.stats
    }
}

impl Observer for GsharePredictor {
    #[inline]
    fn on_retire(&mut self, ri: &RetiredInst) {
        if !ri.is_branch {
            return;
        }
        let idx = (((ri.pc >> 2) ^ self.history) as usize) & self.mask;
        let predicted = self.table[idx].predict();
        self.table[idx].update(ri.taken);
        self.history = ((self.history << 1) | ri.taken as u64) & ((1 << self.history_bits) - 1);
        self.stats.branches += 1;
        if ri.taken {
            self.stats.taken += 1;
        }
        if predicted == ri.taken {
            self.stats.hits += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::InstGroup;

    fn branch(pc: u64, taken: bool) -> RetiredInst {
        let mut ri = RetiredInst::new(pc, InstGroup::Branch);
        ri.is_branch = true;
        ri.taken = taken;
        ri
    }

    #[test]
    fn bimodal_learns_a_loop() {
        let mut p = BimodalPredictor::new(10);
        // Back edge taken 99 times, then falls through once.
        for _ in 0..99 {
            p.on_retire(&branch(0x100, true));
        }
        p.on_retire(&branch(0x100, false));
        let s = p.stats();
        assert_eq!(s.branches, 100);
        // Warm-up misses (2) + the final not-taken miss.
        assert!(s.accuracy() > 0.95, "accuracy {}", s.accuracy());
    }

    #[test]
    fn gshare_learns_alternation_bimodal_cannot() {
        // Strictly alternating branch: bimodal oscillates (~50 %); gshare
        // keys on history and converges.
        let mut bim = BimodalPredictor::new(10);
        let mut gs = GsharePredictor::new(10, 8);
        for i in 0..2000u64 {
            let b = branch(0x200, i % 2 == 0);
            bim.on_retire(&b);
            gs.on_retire(&b);
        }
        assert!(
            bim.stats().accuracy() < 0.75,
            "bimodal {}",
            bim.stats().accuracy()
        );
        assert!(
            gs.stats().accuracy() > 0.95,
            "gshare {}",
            gs.stats().accuracy()
        );
    }

    #[test]
    fn non_branches_ignored() {
        let mut p = BimodalPredictor::new(4);
        p.on_retire(&RetiredInst::new(0, InstGroup::IntAlu));
        assert_eq!(p.stats().branches, 0);
    }

    #[test]
    fn mpki_definition() {
        let s = BranchStats {
            branches: 100,
            hits: 90,
            taken: 50,
        };
        assert!((s.mpki(10_000) - 1.0).abs() < 1e-12);
    }
}
