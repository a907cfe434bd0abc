//! Windowed critical-path analysis — the paper's §6.
//!
//! "Sliding a window of differing sizes over the full execution path, we
//! determine the critical path for the set of instructions in the current
//! window, moving the window 50 % of its size further along the path once
//! this is done." The window models a ROB of that size with infinite
//! physical registers and perfect branch prediction; instruction latency is
//! not accounted for (§6.1).
//!
//! All window sizes are measured in a single pass. Each retirement is
//! resolved once, as it arrives, into its producers: the last writer of
//! each source register slot and of each word read ([`simcore::DepTable`]).
//! A window over retirements `[start, end)` is then hash-free array
//! max-plus, `depth[i] = 1 + max depth[p]` over producers `p >= start`.
//! This is exact: a location's last writer is unique, so if it precedes
//! `start`, no instruction in the window writes the location. A producer
//! `max(sizes)` or more retirements back can never fall inside a window, so
//! it is not stored, and the writer table drops memory words last written
//! that long ago: the analysis holds the producers of at most
//! `2 * max(max(sizes), 1024)` retirements, however long the run.

use simcore::{DepTable, Observer, RetireSource, RetiredInst, SimError};

/// The window sizes used in the paper's Figure 2.
pub const PAPER_WINDOW_SIZES: [usize; 7] = [4, 16, 64, 200, 500, 1000, 2000];

/// Fewest retirements one compaction forgets. Pruning the writer table
/// scans its pages, so with tiny windows it must not run every few
/// retirements.
const MIN_COMPACTION: usize = 1024;

/// Statistics for one window size.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowStats {
    /// Window size (hypothetical ROB entries).
    pub size: usize,
    /// Number of full windows measured.
    pub windows: u64,
    /// Sum of window CP lengths (for the mean).
    pub cp_sum: u64,
    /// Smallest window CP seen.
    pub cp_min: u64,
    /// Largest window CP seen.
    pub cp_max: u64,
}

impl WindowStats {
    /// Mean critical-path length per window (`windowAverages.txt` in the
    /// paper's artifact).
    pub fn mean_cp(&self) -> f64 {
        self.cp_sum as f64 / self.windows.max(1) as f64
    }

    /// Mean ILP available within the window (Figure 2's y-axis).
    pub fn mean_ilp(&self) -> f64 {
        self.size as f64 / self.mean_cp().max(1.0)
    }
}

struct PerSize {
    size: usize,
    until_next: usize,
    windows: u64,
    cp_sum: u64,
    cp_min: u64,
    cp_max: u64,
}

/// Single-pass windowed-CP analyzer for a set of window sizes.
pub struct WindowedCp {
    max_size: usize,
    sizes: Vec<PerSize>,
    /// Retirement index of the last writer of every register slot, and of
    /// every word written in the last `max_size` retirements.
    writers: DepTable<u64>,
    /// Retirements seen so far: the index of the next one.
    retired: u64,
    /// Producers of the retained retirements, oldest first, each stored as
    /// its distance back (`1..max_size`).
    producers: Vec<u32>,
    /// `producers[bounds[k]..bounds[k + 1]]` belong to the `k`-th retained
    /// retirement; the last one retained is retirement `retired - 1`.
    bounds: Vec<usize>,
    /// Scratch: chain depth per retirement of the window being measured.
    depth: Vec<u32>,
}

impl WindowedCp {
    /// Analyzer over the paper's window sizes.
    pub fn paper() -> Self {
        Self::new(&PAPER_WINDOW_SIZES)
    }

    /// Analyzer over custom window sizes.
    pub fn new(sizes: &[usize]) -> Self {
        assert!(!sizes.is_empty());
        let max_size = *sizes.iter().max().unwrap();
        assert!(max_size <= u32::MAX as usize, "window size must fit in u32");
        WindowedCp {
            max_size,
            sizes: sizes
                .iter()
                .map(|&size| {
                    assert!(size >= 2, "window size must be at least 2");
                    PerSize {
                        size,
                        until_next: size,
                        windows: 0,
                        cp_sum: 0,
                        cp_min: u64::MAX,
                        cp_max: 0,
                    }
                })
                .collect(),
            writers: DepTable::new(),
            retired: 0,
            producers: Vec::new(),
            bounds: vec![0],
            depth: vec![0; max_size],
        }
    }

    /// Unit-cost CP over the most recent `size` retirements.
    fn window_cp(&mut self, size: usize) -> u64 {
        let bounds = &self.bounds[self.bounds.len() - 1 - size..];
        let depth = &mut self.depth[..size];
        let mut longest = 0;
        for (j, span) in bounds.windows(2).enumerate() {
            // A producer `dist` back from the window's `j`-th retirement is
            // in the window iff `dist <= j`.
            let mut d = 0;
            for &dist in &self.producers[span[0]..span[1]] {
                if let Some(k) = j.checked_sub(dist as usize) {
                    d = d.max(depth[k]);
                }
            }
            depth[j] = d + 1;
            longest = longest.max(d + 1);
        }
        longest as u64
    }

    /// Forget the oldest `n` retirements, and the memory words last written
    /// `max_size` or more retirements ago: no window reaches back to them.
    fn compact(&mut self, n: usize) {
        let cut = self.bounds[n];
        self.producers.drain(..cut);
        self.bounds.drain(..n);
        for b in &mut self.bounds {
            *b -= cut;
        }
        let (next, max) = (self.retired, self.max_size as u64);
        self.writers.retain_words(|p| next - p < max);
    }

    /// Pump an entire retirement source (live run, replayed trace, or
    /// record slice) through this analysis.
    pub fn consume(&mut self, source: &mut dyn RetireSource) -> Result<u64, SimError> {
        let mut obs: [&mut dyn Observer; 1] = [self];
        source.drive(&mut obs)
    }

    /// Per-size statistics, in the order sizes were supplied.
    pub fn stats(&self) -> Vec<WindowStats> {
        self.sizes
            .iter()
            .map(|s| WindowStats {
                size: s.size,
                windows: s.windows,
                cp_sum: s.cp_sum,
                cp_min: if s.windows == 0 { 0 } else { s.cp_min },
                cp_max: s.cp_max,
            })
            .collect()
    }
}

impl Observer for WindowedCp {
    fn on_retire(&mut self, ri: &RetiredInst) {
        let (index, max) = (self.retired, self.max_size as u64);
        self.writers.fold_reads(ri, (), |(), p| {
            if index - p < max {
                self.producers.push((index - p) as u32);
            }
        });
        self.bounds.push(self.producers.len());
        self.writers.write(ri, index);
        self.retired += 1;

        // The first window of each size closes after `size` retirements,
        // each later one `size / 2` further on (50 % slide).
        for i in 0..self.sizes.len() {
            self.sizes[i].until_next -= 1;
            if self.sizes[i].until_next == 0 {
                let size = self.sizes[i].size;
                let cp = self.window_cp(size);
                let s = &mut self.sizes[i];
                s.windows += 1;
                s.cp_sum += cp;
                s.cp_min = s.cp_min.min(cp);
                s.cp_max = s.cp_max.max(cp);
                s.until_next = size / 2;
            }
        }
        let period = self.max_size.max(MIN_COMPACTION);
        if self.bounds.len() > 2 * period {
            self.compact(period);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{InstGroup, RegId, RegSet};

    fn serial() -> RetiredInst {
        let mut ri = RetiredInst::new(0, InstGroup::IntAlu);
        ri.srcs = RegSet::of(&[RegId::Int(1)]);
        ri.dsts = RegSet::of(&[RegId::Int(1)]);
        ri
    }

    fn parallel(i: u8) -> RetiredInst {
        let mut ri = RetiredInst::new(0, InstGroup::IntAlu);
        ri.dsts = RegSet::of(&[RegId::Int(i % 30)]);
        ri
    }

    #[test]
    fn serial_stream_cp_equals_window() {
        let mut w = WindowedCp::new(&[4, 8]);
        for _ in 0..64 {
            w.on_retire(&serial());
        }
        for s in w.stats() {
            assert_eq!(s.mean_cp(), s.size as f64, "fully serial: CP == window size");
            assert!((s.mean_ilp() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn parallel_stream_cp_is_one() {
        let mut w = WindowedCp::new(&[4, 16]);
        for i in 0..128u8 {
            w.on_retire(&parallel(i));
        }
        // Writers never read: every window's CP is 1.
        for s in w.stats() {
            assert_eq!(s.cp_min, 1);
            assert_eq!(s.cp_max, 1);
            assert_eq!(s.mean_ilp(), s.size as f64);
        }
    }

    #[test]
    fn window_count_matches_slide() {
        let mut w = WindowedCp::new(&[4]);
        for _ in 0..12 {
            w.on_retire(&serial());
        }
        // First window after 4, then every 2: retirements 4,6,8,10,12 -> 5.
        assert_eq!(w.stats()[0].windows, 5);
    }

    #[test]
    fn window_cp_bounded_by_size() {
        let mut w = WindowedCp::new(&[4, 16, 64]);
        // Mixed stream.
        for i in 0..500u32 {
            if i % 3 == 0 {
                w.on_retire(&serial());
            } else {
                w.on_retire(&parallel(i as u8));
            }
        }
        for s in w.stats() {
            assert!(s.cp_max as usize <= s.size);
            assert!(s.cp_min >= 1);
            assert!(s.mean_ilp() >= 1.0);
        }
    }

    #[test]
    fn chains_reset_between_windows() {
        // The serial register chain must not leak CP across window
        // evaluations (producers before the window are ignored).
        let mut w = WindowedCp::new(&[4]);
        for _ in 0..8 {
            w.on_retire(&serial());
        }
        let s = &w.stats()[0];
        assert_eq!(s.cp_max, 4, "window CP can never exceed the window size");
    }
}
