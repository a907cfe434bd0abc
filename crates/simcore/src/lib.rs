#![warn(missing_docs)]
//! SimEng-like simulation core shared by both ISA back-ends.
//!
//! This crate provides the pieces of the simulation environment that are
//! independent of any particular instruction set:
//!
//! * a sparse, paged [`Memory`] model, whose pages and the dependency
//!   table's share one cached [`PageMap`],
//! * the architectural [`CpuState`] (integer + FP register files, PC, NZCV
//!   flags, memory, syscall plumbing),
//! * the unified [`RegId`] register-identifier space and the
//!   [`DepTable`] dependency model every critical-path analysis folds over,
//! * the [`RetiredInst`] record emitted for every retired instruction and the
//!   [`Observer`] trait analyses implement to consume the retirement stream,
//! * the [`IsaExecutor`] trait the core drives, the block-caching
//!   [`BlockExecutor`] front end that implements it for both ISAs over
//!   each ISA crate's [`IsaSemantics`], and the single-cycle
//!   [`EmulationCore`] driver (the paper's "emulation core model which
//!   executes each instruction atomically to completion in a single
//!   cycle"),
//! * a [`Program`] container + loader for statically linked images produced
//!   by the `kernelgen` assembler back-ends.
//!
//! The design mirrors the subset of SimEng the paper relies on: execute a
//! static binary instruction-by-instruction and hand each decoded, retired
//! instruction (registers read/written, memory touched, instruction group)
//! to analysis passes.
//!
//! ```
//! use simcore::{CountingObserver, CpuState, Memory};
//! use simcore::observer::Observer;
//!
//! // Guest memory is paged and allocate-on-write.
//! let mut mem = Memory::new();
//! mem.write_f64(0x1000, 3.5).unwrap();
//! assert_eq!(mem.read_f64(0x1000).unwrap(), 3.5);
//! assert!(mem.read_u64(0xDEAD_0000).is_err(), "unmapped reads fault");
//!
//! // Observers stream over retirements.
//! let mut count = CountingObserver::default();
//! count.on_retire(&simcore::RetiredInst::new(0, simcore::InstGroup::IntAlu));
//! assert_eq!(count.retired, 1);
//! ```

pub mod checkpoint;
pub mod core;
pub mod deps;
pub mod durable;
pub mod elf;
pub mod error;
pub mod fault;
pub mod frontend;
pub mod hash;
pub mod mem;
pub mod observer;
pub mod pages;
pub mod program;
pub mod regid;
pub mod retire;
pub mod sample;
pub mod shutdown;
pub mod source;
pub mod state;

pub use crate::checkpoint::{CampaignState, Checkpoint, CheckpointError, TraceMark};
pub use crate::core::{
    host_mips, progress_interval, EmulationCore, IsaExecutor, RunStats, StopReason, MAX_BLOCK_LEN,
};
pub use crate::deps::DepTable;
pub use crate::error::SimError;
pub use crate::fault::{
    Campaign, CampaignSpec, FaultKind, FaultPlan, InjectAction, DEFAULT_CAMPAIGN_WINDOW,
    DEFAULT_FAULT_SEED,
};
pub use crate::frontend::{BlockExecutor, IsaSemantics};
pub use crate::hash::{WordHasher, WordMap};
pub use crate::mem::Memory;
pub use crate::observer::{CountingObserver, Observer};
pub use crate::pages::PageMap;
pub use crate::program::{IsaKind, Program, Region, Section};
pub use crate::regid::{RegId, RegSet, NUM_REG_SLOTS};
pub use crate::retire::{InstGroup, MemAccess, RetiredInst, MAX_MEM_ACCESSES};
pub use crate::sample::{Sample, SampleSnapshot};
pub use crate::source::RetireSource;
pub use crate::state::CpuState;
