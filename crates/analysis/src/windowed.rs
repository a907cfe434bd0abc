//! Windowed critical-path analysis — the paper's §6.
//!
//! "Sliding a window of differing sizes over the full execution path, we
//! determine the critical path for the set of instructions in the current
//! window, moving the window 50 % of its size further along the path once
//! this is done." The window models a ROB of that size with infinite
//! physical registers and perfect branch prediction; instruction latency is
//! not accounted for (§6.1).
//!
//! Every window of every size is measured at once, with the same small
//! amount of work per retirement. With a 50 % slide, a size has
//! `ceil(size / (size / 2))` windows open at any time, 2 for an even size
//! and 3 for an odd one, and each open window owns a *lane*: an `i16`
//! slot in a row of 16. The paper's seven sizes need 14 lanes, one
//! row. Each retirement is resolved into its producers, the last writer of
//! each source register slot and of each word read ([`simcore::DepTable`]),
//! and its chain depth in every lane is
//! `depth[l] = 1 + max(row_p[l] if dist_p <= age[l] else 0)` over its
//! producers `p`. `age[l]` is the retirement's offset into lane `l`'s
//! window, `dist_p` how far back `p` retired, and `row_p` the producer's
//! depths, kept in a ring of the last `next_pow2(max(sizes))` retirements.
//! Each lane keeps the running max of its depths, which is the window's
//! CP when it closes; the lane's age and max reset when its next window
//! starts.
//!
//! This is exact: a location's last writer is unique, so if it precedes a
//! window's start, no instruction in the window writes the location. A
//! producer `max(sizes)` or more retirements back can never fall inside a
//! window, so it is ignored, and a standalone analyzer's writer table drops
//! memory words last written that long ago. The per-cell bundle
//! ([`crate::CellAnalyses`]) feeds the lanes from the table its critical
//! path keeps instead, so each retirement's reads are folded once.

use simcore::{DepTable, Observer, RetireSource, RetiredInst, SimError};

/// The window sizes used in the paper's Figure 2.
pub const PAPER_WINDOW_SIZES: [usize; 7] = [4, 16, 64, 200, 500, 1000, 2000];

/// A chain depth, age or producer distance within one window. A window
/// size must fit, which bounds sizes to `Depth::MAX`.
type Depth = i16;

/// Lanes per row: 16 `i16`s, two SSE2 registers.
const LANES: usize = 16;

/// One value per lane.
type Row = [Depth; LANES];

/// Fewest retirements between two prunings of the writer table. Pruning
/// scans the table's pages, so with tiny windows it must not run every few
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

/// One window size: its lanes, its schedule and its totals. Window `k`
/// covers retirements `[k * size / 2, k * size / 2 + size)` and owns lane
/// `first_lane + k % lanes`.
struct PerSize {
    size: usize,
    first_lane: usize,
    /// Windows open at once.
    lanes: usize,
    /// Windows started so far.
    started: u64,
    /// Retirement index at which the next window starts.
    next_start: u64,
    /// Retirement count at which the oldest open window closes.
    next_close: u64,
    windows: u64,
    cp_sum: u64,
    cp_min: u64,
    cp_max: u64,
}

/// The lane kernel: the chain depths of every open window, fed one
/// retirement's producer distances at a time.
pub(crate) struct Lanes {
    /// Producers this far back or further are outside every window.
    max_size: u64,
    /// Rows per retirement.
    rows: usize,
    /// Depths of the last `mask + 1` retirements, `rows` rows each.
    ring: Vec<Row>,
    mask: usize,
    /// Offset of the retirement being resolved into each lane's window.
    age: Vec<Row>,
    /// Deepest chain so far in each lane's window.
    longest: Vec<Row>,
    /// Distances back to the producers of the retirement being resolved
    /// that may lie inside a window.
    dists: Vec<Depth>,
    /// Retirements seen so far: the index of the one being resolved.
    retired: u64,
    /// Retirement count at which the next window of any size starts or
    /// closes.
    next_event: u64,
    sizes: Vec<PerSize>,
}

impl Lanes {
    fn new(sizes: &[usize]) -> Self {
        assert!(!sizes.is_empty());
        let mut first_lane = 0;
        let sizes: Vec<PerSize> = sizes
            .iter()
            .map(|&size| {
                assert!(size >= 2, "window size must be at least 2");
                assert!(
                    size <= Depth::MAX as usize,
                    "window size {size} exceeds the lane limit of {}",
                    Depth::MAX
                );
                let (first, lanes) = (first_lane, size.div_ceil(size / 2));
                first_lane += lanes;
                PerSize {
                    size,
                    first_lane: first,
                    lanes,
                    // Window 0 starts now, in a lane that is already clear.
                    started: 1,
                    next_start: (size / 2) as u64,
                    next_close: size as u64,
                    windows: 0,
                    cp_sum: 0,
                    cp_min: u64::MAX,
                    cp_max: 0,
                }
            })
            .collect();
        let max_size = sizes.iter().map(|s| s.size).max().unwrap();
        let min_size = sizes.iter().map(|s| s.size).min().unwrap();
        let rows = first_lane.div_ceil(LANES);
        let slots = max_size.next_power_of_two();
        Lanes {
            max_size: max_size as u64,
            rows,
            ring: vec![[0; LANES]; slots * rows],
            mask: slots - 1,
            age: vec![[0; LANES]; rows],
            longest: vec![[0; LANES]; rows],
            dists: Vec::new(),
            retired: 0,
            next_event: (min_size / 2) as u64,
            sizes,
        }
    }

    /// Count a producer `dist` retirements back from the retirement being
    /// resolved.
    #[inline]
    pub(crate) fn producer(&mut self, dist: u64) {
        if dist < self.max_size {
            self.dists.push(dist as Depth);
        }
    }

    /// Finish the retirement being resolved: record its depths, close the
    /// windows it completes and start those the next one opens.
    #[inline]
    pub(crate) fn retire(&mut self) {
        let (index, mask, rows) = (self.retired as usize, self.mask, self.rows);
        for r in 0..rows {
            let (age, mut longest) = (self.age[r], self.longest[r]);
            let mut depth = [0; LANES];
            for &d in &self.dists {
                let row = self.ring[((index - d as usize) & mask) * rows + r];
                for l in 0..LANES {
                    // In lane `l`'s window iff at most `age[l]` back;
                    // branch-free, so the lanes vectorize.
                    depth[l] = depth[l].max(row[l] & -((d <= age[l]) as Depth));
                }
            }
            let mut next = age;
            for l in 0..LANES {
                // Lanes no window uses, and an odd size's lanes between
                // windows, count past the lane type's range; wrapping keeps
                // them harmless until a window start resets them.
                depth[l] = depth[l].wrapping_add(1);
                longest[l] = longest[l].max(depth[l]);
                next[l] = next[l].wrapping_add(1);
            }
            self.ring[(index & mask) * rows + r] = depth;
            (self.age[r], self.longest[r]) = (next, longest);
        }
        self.dists.clear();
        self.retired += 1;
        if self.retired == self.next_event {
            self.boundaries();
        }
    }

    /// Close the windows the last retirement completed, then start those
    /// the next one opens: a lane can close one window and start the next.
    fn boundaries(&mut self) {
        let now = self.retired;
        let mut next = u64::MAX;
        for s in &mut self.sizes {
            let slide = (s.size / 2) as u64;
            if s.next_close == now {
                let lane = s.first_lane + (s.windows % s.lanes as u64) as usize;
                let cp = self.longest[lane / LANES][lane % LANES] as u64;
                s.windows += 1;
                s.cp_sum += cp;
                s.cp_min = s.cp_min.min(cp);
                s.cp_max = s.cp_max.max(cp);
                s.next_close += slide;
            }
            if s.next_start == now {
                let lane = s.first_lane + (s.started % s.lanes as u64) as usize;
                self.age[lane / LANES][lane % LANES] = 0;
                self.longest[lane / LANES][lane % LANES] = 0;
                s.started += 1;
                s.next_start += slide;
            }
            next = next.min(s.next_close).min(s.next_start);
        }
        self.next_event = next;
    }
}

/// Single-pass windowed-CP analyzer for a set of window sizes.
pub struct WindowedCp {
    lanes: Lanes,
    /// Retirement index of the last writer of every register slot, and of
    /// every word written in the last `max(sizes)` retirements.
    writers: DepTable<u64>,
    /// Retirements between two prunings of `writers`.
    period: usize,
    /// Retirements until `writers` is next pruned.
    to_prune: usize,
}

impl WindowedCp {
    /// Analyzer over the paper's window sizes.
    pub fn paper() -> Self {
        Self::new(&PAPER_WINDOW_SIZES)
    }

    /// Analyzer over custom window sizes, each from 2 to `i16::MAX`.
    pub fn new(sizes: &[usize]) -> Self {
        let lanes = Lanes::new(sizes);
        let period = (lanes.max_size as usize).max(MIN_COMPACTION);
        WindowedCp {
            lanes,
            writers: DepTable::new(),
            period,
            to_prune: period,
        }
    }

    /// The lane kernel, for a caller that resolves producers itself.
    pub(crate) fn lanes(&mut self) -> &mut Lanes {
        &mut self.lanes
    }

    /// Pump an entire retirement source (live run, replayed trace, or
    /// record slice) through this analysis.
    pub fn consume(&mut self, source: &mut dyn RetireSource) -> Result<u64, SimError> {
        let mut obs: [&mut dyn Observer; 1] = [self];
        source.drive(&mut obs)
    }

    /// Per-size statistics, in the order sizes were supplied.
    pub fn stats(&self) -> Vec<WindowStats> {
        self.lanes
            .sizes
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
        let lanes = &mut self.lanes;
        let index = lanes.retired;
        self.writers
            .fold_reads(ri, (), |(), p| lanes.producer(index - p));
        self.writers.write(ri, index);
        lanes.retire();

        self.to_prune -= 1;
        if self.to_prune == 0 {
            // Forget the memory words last written `max(sizes)` or more
            // retirements ago: no window reaches back to them.
            let (next, max) = (lanes.retired, lanes.max_size);
            self.writers.retain_words(|p| next - p < max);
            self.to_prune = self.period;
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
    fn each_size_takes_one_lane_per_open_window() {
        let paper = Lanes::new(&PAPER_WINDOW_SIZES);
        assert!(paper.sizes.iter().all(|s| s.lanes == 2));
        assert_eq!(paper.rows, 1, "the paper's sizes fit one row");
        let odd = Lanes::new(&[3, 5, 7, 9, 11, 13]);
        assert!(odd.sizes.iter().all(|s| s.lanes == 3));
        assert_eq!(odd.rows, 2);
        assert_eq!(
            odd.sizes[5].first_lane, 15,
            "a size's lanes may straddle rows"
        );
    }

    #[test]
    fn serial_stream_cp_equals_window() {
        let mut w = WindowedCp::new(&[4, 8]);
        for _ in 0..64 {
            w.on_retire(&serial());
        }
        for s in w.stats() {
            assert_eq!(
                s.mean_cp(),
                s.size as f64,
                "fully serial: CP == window size"
            );
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
