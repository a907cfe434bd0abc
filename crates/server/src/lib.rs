//! `isacmpd`: an always-on experiment server for the ISA-comparison
//! matrix, plus the client pieces that talk to it.
//!
//! The daemon accepts job submissions over a std-only TCP protocol
//! ([`proto`]: 4-byte big-endian length prefix + `telemetry::json`
//! payload). A job is a `make_tables` matrix run, described by the same
//! flags (size, retries, deadline, injection, campaign, fusion). The
//! daemon runs cells on the process-wide work-stealing shard pool
//! (`isacmp::pool::global`) and serves results from a provenance-keyed single-flight cell cache ([`cache`]) so
//! identical cells are computed exactly once no matter how many clients
//! ask. Jobs stream per-cell progress frames, survive daemon restarts via
//! per-job cell journals (the `make_tables --resume` machinery), and are
//! bounded by admission control (typed `busy` rejection) and per-cell
//! deadlines reusing the emulation watchdog.
//!
//! Layering:
//! - [`proto`] — framing, typed errors, client/server messages, job spec
//! - [`cache`] — the provenance-keyed single-flight result cache
//! - [`server`] — listener, connection handling, the job runner
//! - [`client`] — a small blocking client used by `load_driver`, the CI
//!   smoke tests, and anything else that wants results without running
//!   emulation locally

pub mod cache;
pub mod client;
pub mod proto;
pub mod server;

pub use cache::{CellKey, Claim, ResultCache};
pub use client::{Client, JobOutcome};
pub use proto::{
    ClientMsg, FrameReader, JobSpec, ProtoError, ReadOutcome, ServerMsg, StatsBody, MAX_FRAME,
    PROTO_VERSION,
};
pub use server::{Config, Server};
