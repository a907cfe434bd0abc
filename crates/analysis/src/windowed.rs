//! Windowed critical-path analysis — the paper's §6.
//!
//! "Sliding a window of differing sizes over the full execution path, we
//! determine the critical path for the set of instructions in the current
//! window, moving the window 50 % of its size further along the path once
//! this is done." The window models a ROB of that size with infinite
//! physical registers and perfect branch prediction; instruction latency is
//! not accounted for (§6.1).
//!
//! Every window of every size is measured at once. With a slide of
//! `size / 2`, a size has `lanes = ceil(size / slide)` windows open at any
//! time, 2 for an even size and 3 for an odd one, and each open window
//! owns a *lane*: an `i16` slot in a row of 16. The paper's seven sizes
//! need 14 lanes, one row.
//!
//! **Depths.** Each retirement is resolved into its producers, the last
//! writer of each source register slot and of each word read
//! ([`simcore::DepTable`]), and its chain depth in every lane is
//! `depth[l] = 1 + max(row_p[l] if dist_p <= age[l] else 0)` over its
//! producers `p`. `age[l]` is the retirement's offset into lane `l`'s
//! window, `dist_p` how far back `p` retired, and `row_p` the producer's
//! depths, kept in a ring of the last `next_pow2(max(sizes))` retirements.
//! Each lane keeps the running max of its depths, `longest`, which is the
//! window's CP when it closes.
//!
//! **The schedule is two lane compares.** Each lane holds two constants:
//! its size and its period, `lanes * slide`. After a retirement, a lane
//! whose age equals its size closes its window if it is *armed*, that is,
//! if its first window has started. Before a retirement, a lane whose age
//! equals its period starts a window: masks clear its age and `longest`
//! and arm it. A size's lane `k < lanes` begins at age
//! `period - k * slide`, unarmed, so it starts window `k` at retirement
//! `k * slide` and window `k + lanes` a period later. The period is at
//! least the size, so a lane closes each window before it starts the next.
//! An odd size's lane then idles, and its age can count past `i16::MAX`
//! (a period is at most 49,149): ages wrap, and the schedule only compares
//! them for equality. No window is counted: after `n` retirements a size
//! has closed `(n - size) / slide + 1` windows once `n >= size`.
//!
//! **A run at a time.** A driver first folds every record of a run,
//! listing each record's in-window producer distances in one flat
//! `i16` list, then `Lanes::run` resolves the whole run row by row. A
//! row's ages, maxima, armed mask and close accumulators stay in locals
//! from the run's first record to its last, so a record costs a few
//! 16-lane operations and no schedule lookup.
//!
//! **Exact sums.** A closing lane adds its `longest` to a wrapping `u16`
//! sum and to its least and greatest CP. A lane closes windows at least a
//! period, hence at least `size`, retirements apart, each with a CP of at
//! most `size`, so over `FLUSH` retirements its CPs add up to less than
//! `FLUSH + i16::MAX`, which a `u16` holds. No run resolves more than
//! `FLUSH` retirements, and its lane sums are added to `u64` lane totals
//! when it ends.
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

/// Most retirements one run resolves, so a lane's `u16` CP sum cannot
/// wrap before the run's end adds it to the lane's `u64` total.
const FLUSH: usize = 1 << 15;
const _: () = assert!(FLUSH + Depth::MAX as usize <= u16::MAX as usize);

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

/// One window size and its lanes. Window `k` covers retirements
/// `[k * size / 2, k * size / 2 + size)` and owns lane
/// `first_lane + k % lanes`.
struct PerSize {
    size: usize,
    first_lane: usize,
    /// Windows open at once.
    lanes: usize,
}

/// One row of lanes: its schedule, and its state between runs. Lanes no
/// size uses run a schedule of zeros and are never read.
#[derive(Clone, Copy, Default)]
struct LaneRow {
    /// Age at which each lane's window closes: its size.
    close_at: Row,
    /// Age at which each lane starts a window: its size's period.
    start_at: Row,
    /// Offset of the next retirement into each lane's window.
    age: Row,
    /// Deepest chain so far in each lane's window.
    longest: Row,
    /// All ones in each lane whose first window has started.
    armed: Row,
    /// Smallest and largest CP of the windows each lane closed.
    least: Row,
    greatest: Row,
    /// Sum of the CPs of the windows each lane closed.
    cp_sum: [u64; LANES],
}

/// The lane kernel: the chain depths of every open window, fed a run of
/// retirements' producer distances at a time.
pub(crate) struct Lanes {
    /// Producers this far back or further are outside every window.
    max_size: u64,
    rows: Vec<LaneRow>,
    /// Depths of the last `slots` retirements, row by row: row `r` of
    /// retirement `i` is at `r * slots + i % slots`.
    ring: Vec<Row>,
    slots: usize,
    /// Distances back to the producers, in some window, of the pending
    /// retirements: folded, not yet resolved.
    dists: Vec<Depth>,
    /// Where each pending retirement's distances end in `dists`.
    ends: Vec<u32>,
    /// Retirements resolved so far.
    retired: u64,
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
                }
            })
            .collect();
        let mut rows = vec![LaneRow::default(); first_lane.div_ceil(LANES)];
        for s in &sizes {
            let (slide, period) = (s.size / 2, s.lanes * (s.size / 2));
            for k in 0..s.lanes {
                let (row, lane) = (
                    &mut rows[(s.first_lane + k) / LANES],
                    (s.first_lane + k) % LANES,
                );
                // Ages compare only for equality, so a period past the
                // lane type wraps to the same bits on both sides.
                row.close_at[lane] = s.size as Depth;
                row.start_at[lane] = period as u16 as Depth;
                row.age[lane] = (period - k * slide) as u16 as Depth;
                row.least[lane] = Depth::MAX;
            }
        }
        let max_size = sizes.iter().map(|s| s.size).max().unwrap();
        let slots = max_size.next_power_of_two();
        Lanes {
            max_size: max_size as u64,
            ring: vec![[0; LANES]; slots * rows.len()],
            slots,
            dists: Vec::new(),
            ends: Vec::new(),
            rows,
            retired: 0,
            sizes,
        }
    }

    /// Count a producer `dist` retirements back from the retirement being
    /// folded.
    #[inline]
    pub(crate) fn producer(&mut self, dist: u64) {
        if dist < self.max_size {
            self.dists.push(dist as Depth);
        }
    }

    /// End the retirement being folded. It waits, pending, for the next
    /// [`Lanes::run`], which comes at once if it is the `FLUSH`th.
    #[inline]
    pub(crate) fn end_record(&mut self) {
        self.ends.push(self.dists.len() as u32);
        if self.ends.len() == FLUSH {
            self.run();
        }
    }

    /// Index of the retirement being folded.
    #[inline]
    fn folding(&self) -> u64 {
        self.retired + self.ends.len() as u64
    }

    /// Resolve every pending retirement, row by row, each row over the
    /// whole run.
    pub(crate) fn run(&mut self) {
        let rings = self.ring.chunks_exact_mut(self.slots);
        for (row, ring) in self.rows.iter_mut().zip(rings) {
            resolve_row(row, ring, self.retired, &self.dists, &self.ends);
        }
        self.retired += self.ends.len() as u64;
        self.dists.clear();
        self.ends.clear();
    }

    /// Per-size statistics of the resolved retirements.
    fn stats(&self) -> Vec<WindowStats> {
        let lane = |l: usize| &self.rows[l / LANES];
        self.sizes
            .iter()
            .map(|s| {
                let (size, slide) = (s.size as u64, (s.size / 2) as u64);
                let windows = match self.retired.checked_sub(size) {
                    Some(past) => past / slide + 1,
                    None => 0,
                };
                let lanes = s.first_lane..s.first_lane + s.lanes;
                let least = lanes.clone().map(|l| lane(l).least[l % LANES]).min();
                let greatest = lanes.clone().map(|l| lane(l).greatest[l % LANES]).max();
                WindowStats {
                    size: s.size,
                    windows,
                    cp_sum: lanes.map(|l| lane(l).cp_sum[l % LANES]).sum(),
                    cp_min: if windows == 0 {
                        0
                    } else {
                        least.unwrap() as u64
                    },
                    cp_max: greatest.unwrap() as u64,
                }
            })
            .collect()
    }
}

/// Resolve the retirements whose producer distances `dists` and `ends`
/// list, the first of them retirement `first`, in one row's lanes, with
/// `ring` the row's ring. The run's lane sums, which fit a `u16` because
/// it is at most `FLUSH` long, are added to the lanes' totals at its end.
fn resolve_row(row: &mut LaneRow, ring: &mut [Row], first: u64, dists: &[Depth], ends: &[u32]) {
    let mask = ring.len() - 1;
    let LaneRow {
        close_at,
        start_at,
        mut age,
        mut longest,
        mut armed,
        mut least,
        mut greatest,
        mut cp_sum,
    } = *row;
    let mut sum = [0u16; LANES];
    let mut from = 0;
    for (i, &end) in ends.iter().enumerate() {
        let index = first as usize + i;
        for l in 0..LANES {
            let start = -((age[l] == start_at[l]) as Depth);
            age[l] &= !start;
            longest[l] &= !start;
            armed[l] |= start;
        }
        let mut depth = [0; LANES];
        for &d in &dists[from..end as usize] {
            let producer = ring[(index - d as usize) & mask];
            for l in 0..LANES {
                // In lane `l`'s window iff at most `age[l]` back;
                // branch-free, so the lanes vectorize.
                depth[l] = depth[l].max(producer[l] & -((d <= age[l]) as Depth));
            }
        }
        from = end as usize;
        for l in 0..LANES {
            // An idle lane's depths and ages count past the lane type's
            // range; wrapping keeps them harmless until its next start.
            depth[l] = depth[l].wrapping_add(1);
            longest[l] = longest[l].max(depth[l]);
            age[l] = age[l].wrapping_add(1);
            let close = -((age[l] == close_at[l]) as Depth) & armed[l];
            let cp = longest[l] & close;
            sum[l] = sum[l].wrapping_add(cp as u16);
            least[l] = least[l].min(cp | (Depth::MAX & !close));
            greatest[l] = greatest[l].max(cp);
        }
        ring[index & mask] = depth;
    }
    for l in 0..LANES {
        cp_sum[l] += sum[l] as u64;
    }
    *row = LaneRow {
        close_at,
        start_at,
        age,
        longest,
        armed,
        least,
        greatest,
        cp_sum,
    };
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
        self.lanes.stats()
    }
}

impl Observer for WindowedCp {
    fn on_retire(&mut self, ri: &RetiredInst) {
        self.on_records(std::slice::from_ref(ri));
    }

    /// Fold the run's records through the writer table, then resolve them
    /// in the lanes.
    fn on_records(&mut self, run: &[RetiredInst]) {
        let lanes = &mut self.lanes;
        for ri in run {
            let index = lanes.folding();
            self.writers
                .fold_reads(ri, (), |(), p| lanes.producer(index - p));
            self.writers.write(ri, index);
            lanes.end_record();

            self.to_prune -= 1;
            if self.to_prune == 0 {
                // Forget the memory words last written `max(sizes)` or more
                // retirements ago: no window reaches back to them.
                let (next, max) = (index + 1, lanes.max_size);
                self.writers.retain_words(|p| next - p < max);
                self.to_prune = self.period;
            }
        }
        lanes.run();
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
        assert_eq!(paper.rows.len(), 1, "the paper's sizes fit one row");
        let odd = Lanes::new(&[3, 5, 7, 9, 11, 13]);
        assert!(odd.sizes.iter().all(|s| s.lanes == 3));
        assert_eq!(odd.rows.len(), 2);
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
    fn lane_sums_stay_exact_over_one_long_run() {
        // One slice of a fully serial stream: every window's CP is its
        // size, and each lane's CPs add up to far more than a `u16` holds,
        // at size 2 (a close every other retirement per lane) and at the
        // largest legal size, whose odd period of 49,149 runs past `i16`.
        let sizes = [2, 4, 7, Depth::MAX as usize];
        let records = vec![serial(); 200_000];
        let mut w = WindowedCp::new(&sizes);
        w.on_records(&records);
        for s in w.stats() {
            let windows = (records.len() - s.size) / (s.size / 2) + 1;
            assert_eq!(s.windows, windows as u64, "size {}", s.size);
            assert_eq!(s.cp_sum, s.windows * s.size as u64, "size {}", s.size);
            assert_eq!((s.cp_min, s.cp_max), (s.size as u64, s.size as u64));
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
