//! Harness crate: the `make_tables` binary that regenerates every artefact,
//! plus `run_elf`, the trace tools and `bench_report`.
//!
//! See `src/bin/make_tables.rs`.
//!
//! [`cli`] holds the flag grammar shared by every bin in this crate and
//! by the `isacmpd` daemon / `load_driver` in `crates/server`;
//! [`experiments`] holds the reports `make_tables` prints, callable from
//! tests.

pub mod cli;
pub mod experiments;

/// The experiment ids this crate can regenerate.
pub const EXPERIMENTS: [&str; 8] = [
    "table1", "table2", "fig1", "fig2", "ablation", "pipeline", "mix", "elves",
];
