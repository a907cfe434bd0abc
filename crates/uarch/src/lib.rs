#![warn(missing_docs)]
//! Micro-architecture models: instruction-class latencies and trace-driven
//! pipeline timing.
//!
//! The latency tables mirror SimEng's yaml core descriptions. The paper's
//! scaled-critical-path experiment (§5) uses the ThunderX2 model — "a
//! classic, 4-way superscalar, OoO RISC microarchitecture, with 'typical'
//! latencies for most of its instructions" — for **both** ISAs, exactly as
//! the paper defines its RISC-V model from the TX2 latencies.
//!
//! The [`pipeline`] module implements the paper's Future Work (§8):
//! trace-driven in-order and out-of-order core models with finite
//! resources, fed by the same retirement stream as the analyses.
//!
//! ```
//! use uarch::{LatencyModel, Tx2Latency, UnitLatency};
//! use simcore::InstGroup;
//!
//! assert_eq!(UnitLatency.latency(InstGroup::FpAdd), 1);
//! assert_eq!(Tx2Latency.latency(InstGroup::FpAdd), 6); // the paper's 6x STREAM scaling
//! ```

pub mod branch;
pub mod cache;
pub mod latency;
pub mod pipeline;

pub use branch::{BimodalPredictor, BranchStats, GsharePredictor};
pub use cache::{CacheConfig, CacheModel, CacheStats};
pub use latency::{A64fxLatency, LatencyModel, LatencyTable, Tx2Latency, UnitLatency};
pub use pipeline::{InOrderCore, OoOCore, PipelineConfig, PipelineStats};
