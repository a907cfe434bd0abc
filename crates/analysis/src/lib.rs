#![warn(missing_docs)]
//! The paper's four analyses over the retirement stream.
//!
//! * [`PathLength`] — dynamic instruction counts, total and per named
//!   kernel region (Figure 1, Table 1 "Path Length" rows);
//! * [`DualCriticalPath`] — longest read-after-write dependency chain
//!   through registers and memory, unit cost per instruction (Table 1
//!   "CP"/"ILP"), and the same chain weighted by execution latencies,
//!   loads/stores unscaled per the paper's store-forwarding assumption
//!   (Table 2);
//! * [`WindowedCp`] — critical path within a sliding window over the
//!   execution (window sizes 4..2000, 50 % slide), modelling a finite ROB
//!   (Figure 2);
//! * [`FusedCriticalPath`] — both critical paths again, and the effective
//!   path length, of the stream a macro-op fusing front end retires
//!   (Celio et al.), under the pair tables in [`pairs`].
//!
//! Every dependency analysis here folds over one model of what depends on
//! what, [`simcore::DepTable`]. All analyses implement [`simcore::Observer`]
//! and stream: memory use is
//! bounded by the touched data set (critical path) or the largest window
//! (windowed), never by trace length. Each analysis (and the per-cell
//! [`CellAnalyses`] bundle) can also be pumped from any
//! [`simcore::RetireSource`] via its `consume` method — a live emulation
//! run and a replayed on-disk trace produce identical results.
//!
//! ```
//! use analysis::DualCriticalPath;
//! use simcore::{InstGroup, Observer, RegId, RegSet, RetiredInst};
//! use uarch::Tx2Latency;
//!
//! // A three-instruction serial fadd chain has CP 3 and ILP 1; at the
//! // TX2's 6-cycle fadd latency its scaled CP is 18.
//! let mut cp = DualCriticalPath::new(Tx2Latency);
//! for _ in 0..3 {
//!     let mut ri = RetiredInst::new(0, InstGroup::FpAdd);
//!     ri.srcs = RegSet::of(&[RegId::Fp(0)]);
//!     ri.dsts = RegSet::of(&[RegId::Fp(0)]);
//!     cp.on_retire(&ri);
//! }
//! let r = cp.unit();
//! assert_eq!(r.critical_path, 3);
//! assert_eq!(r.ilp(), 1.0);
//! assert_eq!(cp.scaled().critical_path, 18);
//! ```

pub mod cell;
pub mod critical_path;
pub mod depdist;
pub mod fused;
pub mod instmix;
pub mod pairs;
pub mod path_length;
pub mod tables;
pub mod windowed;

pub use cell::CellAnalyses;
pub use critical_path::{CpResult, DualCriticalPath};
pub use depdist::{DepDistance, DIST_BUCKETS};
pub use fused::FusedCriticalPath;
pub use instmix::{CpComposition, InstMix};
pub use path_length::PathLength;
pub use tables::*;
pub use windowed::{WindowStats, WindowedCp, PAPER_WINDOW_SIZES};

/// The paper's assumed clock rate for runtime estimates (2 GHz).
pub const CLOCK_GHZ: f64 = 2.0;

/// Convert a cycle count to milliseconds at the paper's 2 GHz clock.
pub fn runtime_ms(cycles: u64) -> f64 {
    cycles as f64 / (CLOCK_GHZ * 1e6)
}
