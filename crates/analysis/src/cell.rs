//! The full per-cell analysis bundle, driven from any retirement source.
//!
//! Everything Table 1, Table 2 and Figure 2 need from one (workload,
//! compiler, ISA) cell — path length with per-kernel attribution, unit and
//! latency-scaled critical paths, and the windowed critical path — bundled
//! so the same measurement code runs off a live emulation pass *or* a
//! replayed trace ([`simcore::RetireSource`]). Its fused form adds the
//! macro-op fusion axis to the same fold.

use simcore::{IsaKind, Observer, Region, RetireSource, RetiredInst, SimError};
use uarch::Tx2Latency;

use crate::critical_path::DualCriticalPath;
use crate::fused::FusedCriticalPath;
use crate::path_length::PathLength;
use crate::tables::ExperimentCell;
use crate::windowed::{WindowStats, WindowedCp};

/// The dependency half of a [`CellAnalyses`] bundle: one table whose
/// reads, resolved once per retirement, feed its critical paths and, as
/// producer distances, the bundle's windowed lanes. Each implementation is
/// its own monomorphic bundle, so the choice costs nothing per record.
pub trait DependencyFold {
    /// Fold one retirement, reporting each producer (the last writer of a
    /// location it reads) as its distance back.
    fn retire(&mut self, ri: &RetiredInst, producer: impl FnMut(u64));

    /// The stream ended; the default does nothing.
    fn finish(&mut self) {}

    /// Write the critical-path fields of `cell`, whose other measurements
    /// are already in place.
    fn fill(&self, cell: &mut ExperimentCell);
}

/// The paper's per-cell measurement set, as one streaming observer.
pub struct CellAnalyses<D = DualCriticalPath> {
    /// Dynamic instruction counts, total and per kernel region.
    pub path_length: PathLength,
    /// Unit-cost and TX2-scaled critical paths, and in the fused form the
    /// fused ones too.
    critical_path: D,
    /// Windowed critical path over the paper's Figure 2 window sizes.
    windowed: WindowedCp,
}

/// One observer for the whole bundle, so every analysis takes each
/// retirement in the same call and their independent work overlaps in the
/// core; handed a run of records as separate observers, each would walk
/// the run in turn. The critical path's dependency table resolves each
/// read once and hands every producer's distance to the windowed lanes,
/// which resolve the whole run once it is folded.
impl<D: DependencyFold> Observer for CellAnalyses<D> {
    fn on_retire(&mut self, ri: &RetiredInst) {
        self.on_records(std::slice::from_ref(ri));
    }

    fn on_records(&mut self, run: &[RetiredInst]) {
        let lanes = self.windowed.lanes();
        for ri in run {
            self.path_length.on_retire(ri);
            self.critical_path.retire(ri, |dist| lanes.producer(dist));
            lanes.end_record();
        }
        lanes.run();
    }

    fn on_finish(&mut self) {
        self.critical_path.finish();
    }
}

impl CellAnalyses {
    /// Fresh bundle for a program with the given kernel regions.
    pub fn new(regions: &[Region]) -> Self {
        CellAnalyses {
            path_length: PathLength::new(regions),
            critical_path: DualCriticalPath::new(Tx2Latency),
            windowed: WindowedCp::paper(),
        }
    }
}

impl CellAnalyses<FusedCriticalPath> {
    /// Fresh bundle with the macro-op fusion axis armed for `isa`: the
    /// same measurements, plus the cell's [`crate::FusedCell`] from the
    /// same dependency fold.
    pub fn fused(isa: IsaKind, regions: &[Region]) -> Self {
        CellAnalyses {
            path_length: PathLength::new(regions),
            critical_path: FusedCriticalPath::new(isa, regions),
            windowed: WindowedCp::paper(),
        }
    }
}

impl<D: DependencyFold> CellAnalyses<D> {
    /// Pump an entire retirement source through the bundle, returning the
    /// number of instructions analyzed.
    pub fn run(&mut self, source: &mut dyn RetireSource) -> Result<u64, SimError> {
        source.drive(&mut [self])
    }

    /// The windowed critical path's statistics, per window size.
    pub fn window_stats(&self) -> Vec<WindowStats> {
        self.windowed.stats()
    }

    /// Package the measurements as an [`ExperimentCell`] for the given
    /// cell coordinates.
    pub fn into_cell(self, workload: &str, compiler: &str, isa: &str) -> ExperimentCell {
        let CellAnalyses {
            path_length,
            critical_path,
            windowed,
        } = self;
        let mut cell = ExperimentCell {
            workload: workload.to_string(),
            compiler: compiler.to_string(),
            isa: isa.to_string(),
            path_length: path_length.total(),
            critical_path: 0,
            scaled_cp: 0,
            kernels: path_length.by_kernel(),
            windows: windowed
                .stats()
                .iter()
                .map(|s| (s.size, s.mean_cp(), s.mean_ilp()))
                .collect(),
            fused: None,
        };
        critical_path.fill(&mut cell);
        cell
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{InstGroup, RegId, RegSet};

    /// Register chains, stores and loads over a few dozen words, and a
    /// base register written once and read ever after, so producers lie
    /// both inside and far beyond the largest window.
    fn stream(n: u64) -> Vec<RetiredInst> {
        (0..n)
            .map(|i| {
                let reg = RegId::Int((i % 4) as u8 + 1);
                let base = RegId::Int(9);
                let word = 0x1000 + (i * 7 % 40) * 8;
                let mut ri = match i % 3 {
                    0 if i > 0 => {
                        let mut st = RetiredInst::new(0x100 + (i % 16) * 4, InstGroup::Store);
                        st.srcs = RegSet::of(&[reg, base]);
                        st.push_write(word, 8);
                        st
                    }
                    1 => {
                        let mut ld = RetiredInst::new(0x100 + (i % 16) * 4, InstGroup::Load);
                        ld.srcs = RegSet::of(&[base]);
                        ld.push_read(word + 4, 8);
                        ld
                    }
                    _ => {
                        let mut alu = RetiredInst::new(0x100 + (i % 16) * 4, InstGroup::IntAlu);
                        alu.srcs = RegSet::of(&[reg]);
                        alu
                    }
                };
                if i == 0 {
                    ri.dsts.insert(base);
                } else if ri.group != InstGroup::Store {
                    ri.dsts.insert(reg);
                }
                ri
            })
            .collect()
    }

    #[test]
    fn bundle_matches_individual_observers() {
        let regions = vec![Region {
            name: "k".into(),
            start: 0x100,
            end: 0x120,
        }];
        // Long enough that three of the largest paper windows close.
        let records = stream(4_500);

        let mut bundle = CellAnalyses::new(&regions);
        let mut src: &[RetiredInst] = &records;
        let n = bundle.run(&mut src).unwrap();
        assert_eq!(n, 4_500);

        let mut pl = PathLength::new(&regions);
        let mut cp = DualCriticalPath::new(Tx2Latency);
        let mut windowed = WindowedCp::paper();
        for ri in &records {
            pl.on_retire(ri);
            cp.on_retire(ri);
            windowed.on_retire(ri);
        }
        let stats = windowed.stats();
        assert_eq!(stats.last().map(|s| s.windows), Some(3));
        assert_eq!(
            bundle.window_stats(),
            stats,
            "shared fold equals standalone"
        );
        let cell = bundle.into_cell("STREAM", "gcc-12.2", "RISC-V");
        assert_eq!(cell.path_length, pl.total());
        assert_eq!(cell.critical_path, cp.unit().critical_path);
        assert_eq!(cell.scaled_cp, cp.scaled().critical_path);
        assert_eq!(cell.kernels, pl.by_kernel());
        assert_eq!(cell.workload, "STREAM");
        let windows: Vec<_> = stats
            .iter()
            .map(|s| (s.size, s.mean_cp(), s.mean_ilp()))
            .collect();
        assert_eq!(cell.windows, windows);
    }
}
