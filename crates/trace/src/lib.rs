#![warn(missing_docs)]
//! Compact binary retired-instruction traces: capture, replay, verification.
//!
//! The emulator retires hundreds of millions of instructions per paper-size
//! cell, and every analysis re-run used to pay that emulation cost again.
//! This crate splits *execution* from *analysis*: a [`TraceWriter`] rides the
//! retirement stream as a [`simcore::Observer`] and encodes each
//! [`simcore::RetiredInst`] into a checksummed block format: each block
//! holds one template per static instruction shape, and a record is a
//! template id with delta-encoded PC and addresses (see [`mod@format`] for
//! the byte-level spec). A [`TraceReader`] replays the identical stream
//! later — no compile, no emulation, one block of memory — through the same
//! observers via [`simcore::RetireSource`].
//!
//! Provenance travels with the bytes: the header records workload /
//! compiler / ISA / size-class plus the program's kernel regions, and the
//! trailer records the capture run's final architectural
//! [`state hash`](simcore::CpuState::state_hash) and wall time, so cache
//! hits can be validated and replay speedups measured.
//!
//! ```
//! use simcore::{InstGroup, Observer, RetiredInst};
//! use trace::{TraceMeta, TraceReader, TraceWriter};
//!
//! let meta = TraceMeta {
//!     workload: "STREAM".into(),
//!     compiler: "gcc-12.2".into(),
//!     isa: "RISC-V".into(),
//!     size: "test".into(),
//!     regions: vec![],
//! };
//! let mut buf = Vec::new();
//! let mut w = TraceWriter::new(&mut buf, &meta).unwrap();
//! for i in 0..100u64 {
//!     w.on_retire(&RetiredInst::new(0x1000 + i * 4, InstGroup::IntAlu));
//! }
//! w.finish(0, std::time::Duration::ZERO).unwrap();
//!
//! let reader = TraceReader::new(std::io::Cursor::new(&buf)).unwrap();
//! assert_eq!(reader.map(|r| r.unwrap()).count(), 100);
//! ```

pub mod format;
pub mod reader;
pub mod writer;

pub use crate::format::{TraceMeta, TraceTrailer, BLOCK_RECORDS, VERSION};
pub use crate::reader::{TraceError, TraceReader, TraceSummary};
pub use crate::writer::{TraceWriter, WriteSummary};
