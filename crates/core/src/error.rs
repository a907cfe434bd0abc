//! Typed per-cell errors and the options that control fault tolerance.
//!
//! One experiment cell can fail in several distinct ways — at compile
//! time, at load time, during emulation, by panicking, by producing a
//! wrong checksum, by tripping a watchdog, or by being interrupted by a
//! shutdown signal — and the matrix must survive all of them: a failed
//! cell becomes an `ERR(<kind>)` entry in a partial
//! [`ResultMatrix`](analysis::ResultMatrix) instead of killing the other
//! nineteen cells (an *interrupted* cell is the one exception: it is not
//! recorded at all, so a resumed run re-attempts it).

use std::time::Duration;

use analysis::CellFailure;
use simcore::{Campaign, FaultPlan, SimError, DEFAULT_FAULT_SEED};

/// Why one (workload, compiler, ISA) cell failed.
#[derive(Debug, Clone, PartialEq)]
pub enum CellError {
    /// The workload builder or compiler panicked.
    Compile {
        /// Panic payload (or other diagnostic).
        msg: String,
    },
    /// The compiled program image could not be loaded into guest memory.
    Load(SimError),
    /// The guest faulted during emulation (decode error, unmapped read,
    /// forced trap, ...). `instret` is how far the guest got.
    Sim {
        /// The underlying simulation error.
        err: SimError,
        /// Instructions retired when the error was raised.
        instret: u64,
    },
    /// The emulator or an observer panicked mid-run (caught, not fatal).
    Panic {
        /// Panic payload.
        msg: String,
    },
    /// The guest ran to completion but its checksum disagrees with the
    /// reference interpreter — silent corruption, caught.
    ChecksumMismatch {
        /// Reference checksum bits (`f64::to_bits`).
        expected_bits: u64,
        /// Measured checksum bits.
        got_bits: u64,
    },
    /// A watchdog fired: instruction budget or wall-clock deadline.
    Timeout {
        /// The watchdog error ([`SimError::is_watchdog`] is true).
        err: SimError,
        /// Instructions retired when the watchdog fired.
        instret: u64,
    },
    /// The guest exited with a non-zero status.
    NonZeroExit {
        /// The guest's exit code.
        code: i64,
    },
    /// The run was cut short by SIGINT/SIGTERM (graceful shutdown). Not a
    /// measurement failure: the cell is neither recorded nor journaled, so
    /// a resumed matrix simply re-runs it.
    Interrupted {
        /// Instructions retired when the shutdown flag was observed.
        instret: u64,
    },
}

impl CellError {
    /// Short failure class, rendered as `ERR(<kind>)` in tables.
    pub fn kind(&self) -> &'static str {
        match self {
            CellError::Compile { .. } => "compile",
            CellError::Load(_) => "load",
            CellError::Sim { .. } => "sim",
            CellError::Panic { .. } => "panic",
            CellError::ChecksumMismatch { .. } => "checksum",
            CellError::Timeout { .. } => "timeout",
            CellError::NonZeroExit { .. } => "exit",
            CellError::Interrupted { .. } => "interrupted",
        }
    }

    /// Whether retrying the cell could plausibly help. Runtime upsets
    /// (faults, panics, corruption) are retried; deterministic failures
    /// (compile, load, watchdogs, exit status) are not — they would only
    /// burn the same wall time again.
    pub fn retryable(&self) -> bool {
        matches!(
            self,
            CellError::Sim { .. } | CellError::Panic { .. } | CellError::ChecksumMismatch { .. }
        )
    }

    /// Convert to the serializable failure record carried by a partial
    /// [`analysis::ResultMatrix`].
    pub fn to_failure(
        &self,
        workload: &str,
        compiler: &str,
        isa: &str,
        retries: u64,
    ) -> CellFailure {
        CellFailure {
            workload: workload.to_string(),
            compiler: compiler.to_string(),
            isa: isa.to_string(),
            kind: self.kind().to_string(),
            detail: self.to_string(),
            retries,
        }
    }
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellError::Compile { msg } => write!(f, "compile failed: {msg}"),
            CellError::Load(e) => write!(f, "program load failed: {e}"),
            CellError::Sim { err, instret } => {
                write!(f, "guest fault after {instret} retirements: {err}")
            }
            CellError::Panic { msg } => write!(f, "panic during emulation: {msg}"),
            CellError::ChecksumMismatch {
                expected_bits,
                got_bits,
            } => write!(
                f,
                "checksum mismatch: expected {:#018x}, got {:#018x}",
                expected_bits, got_bits
            ),
            CellError::Timeout { err, instret } => {
                write!(f, "watchdog after {instret} retirements: {err}")
            }
            CellError::NonZeroExit { code } => write!(f, "guest exited with code {code}"),
            CellError::Interrupted { instret } => {
                write!(f, "interrupted by signal after {instret} retirements")
            }
        }
    }
}

impl std::error::Error for CellError {}

/// Render a caught panic payload as text.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Hard cap on per-cell retries, whatever the caller asks for.
pub const MAX_CELL_RETRIES: u32 = 3;

/// Fault-tolerance knobs for a single cell run.
#[derive(Debug, Clone, Default)]
pub struct CellOptions {
    /// Wall-clock watchdog for the emulation phase.
    pub deadline: Option<Duration>,
    /// Retries for [`CellError::retryable`] failures (clamped to
    /// [`MAX_CELL_RETRIES`]).
    pub retries: u32,
    /// Fault schedule to inject into the run: a seeded campaign, a lone
    /// targeted fault (a one-plan campaign), or both merged by
    /// [`MatrixOptions::cell_options`].
    pub campaign: Option<Campaign>,
    /// Trace cache directory: replay a matching capture instead of
    /// emulating, and capture one on a live run. Ignored (no capture, no
    /// replay) while a campaign is armed — an injected-fault run is not a
    /// reusable measurement.
    pub trace_dir: Option<std::path::PathBuf>,
    /// Honor the process shutdown flag ([`simcore::shutdown`]): abort the
    /// retire loop at the next masked boundary with
    /// [`CellError::Interrupted`] instead of running to completion.
    pub heed_shutdown: bool,
    /// Directory for resumable watchdog snapshots: when a cell trips its
    /// deadline, its machine state is checkpointed here (one `.ckpt` per
    /// cell label) before the `ERR(timeout)` is recorded.
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// Run the macro-op fusion pass alongside the cell analyses and carry
    /// its report in the cell (`ExperimentCell::fused`). A fused cell is
    /// a distinct scenario-axis point: it caches and journals under a
    /// different provenance key than the unfused cell, but shares the
    /// same captured trace (the retired stream itself is fusion-free).
    pub fusion: bool,
}

impl CellOptions {
    /// Retries actually granted (caller's ask, capped).
    pub fn effective_retries(&self) -> u32 {
        self.retries.min(MAX_CELL_RETRIES)
    }

    /// The campaign, freshly armed for one attempt. A new `Campaign`
    /// (fresh fired counter) is built per call, so every retry of a cell
    /// deterministically re-injects the same schedule from scratch.
    pub fn armed_campaign(&self) -> Option<Campaign> {
        self.campaign
            .as_ref()
            .filter(|c| !c.is_empty())
            .map(|c| Campaign::from_plans(c.plans().to_vec(), c.seed()))
    }
}

/// Selects cells of the experiment matrix, e.g. for targeted fault
/// injection. Fields compare case-insensitively; `*` matches anything.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellSelector {
    /// Workload name or `*`.
    pub workload: String,
    /// Compiler label or `*`.
    pub compiler: String,
    /// ISA label or `*`.
    pub isa: String,
}

impl CellSelector {
    /// Parse `workload/compiler/isa` (e.g. `STREAM/gcc-12.2/RISC-V`,
    /// `*/gcc-9.2/*`).
    pub fn parse(s: &str) -> Result<Self, String> {
        let parts: Vec<&str> = s.split('/').collect();
        match parts.as_slice() {
            [w, c, i] if !w.is_empty() && !c.is_empty() && !i.is_empty() => Ok(CellSelector {
                workload: w.to_string(),
                compiler: c.to_string(),
                isa: i.to_string(),
            }),
            _ => Err(format!(
                "bad cell selector {s:?}: expected workload/compiler/isa (\"*\" wildcards ok)"
            )),
        }
    }

    /// Does this selector match the labelled cell?
    pub fn matches(&self, workload: &str, compiler: &str, isa: &str) -> bool {
        let eq = |pat: &str, v: &str| pat == "*" || pat.eq_ignore_ascii_case(v);
        eq(&self.workload, workload) && eq(&self.compiler, compiler) && eq(&self.isa, isa)
    }
}

/// A targeted injection: which cell, and what fault.
#[derive(Debug, Clone)]
pub struct InjectSpec {
    /// Which matrix cell(s) receive the fault.
    pub selector: CellSelector,
    /// The deterministic fault to inject there.
    pub plan: FaultPlan,
}

impl InjectSpec {
    /// Parse `workload/compiler/isa:faultspec`, e.g.
    /// `STREAM/gcc-12.2/RISC-V:trap@1000`.
    pub fn parse(s: &str) -> Result<Self, String> {
        let (sel, spec) = s.split_once(':').ok_or_else(|| {
            format!("bad inject spec {s:?}: expected workload/compiler/isa:<fault>")
        })?;
        Ok(InjectSpec {
            selector: CellSelector::parse(sel)?,
            plan: FaultPlan::parse(spec)?,
        })
    }
}

/// Fault-tolerance knobs for a whole matrix run.
#[derive(Debug, Clone, Default)]
pub struct MatrixOptions {
    /// Per-cell wall-clock watchdog.
    pub deadline: Option<Duration>,
    /// Per-cell retries for retryable failures (clamped to
    /// [`MAX_CELL_RETRIES`]).
    pub retries: u32,
    /// Targeted deterministic fault injection.
    pub inject: Option<InjectSpec>,
    /// Seeded multi-fault campaign, injected into *every* cell (each cell
    /// gets its own freshly-armed copy of the same schedule, so the sweep
    /// is deterministic across cells and runs).
    pub campaign: Option<Campaign>,
    /// Trace cache directory shared by all cells (see
    /// [`CellOptions::trace_dir`]).
    pub trace_dir: Option<std::path::PathBuf>,
    /// Honor the process shutdown flag in every cell and in the worker
    /// pool (see [`CellOptions::heed_shutdown`]).
    pub heed_shutdown: bool,
    /// Directory for resumable watchdog snapshots (see
    /// [`CellOptions::checkpoint_dir`]).
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// Run the macro-op fusion pass in every cell (see
    /// [`CellOptions::fusion`]) — the matrix's third scenario axis.
    pub fusion: bool,
}

impl MatrixOptions {
    /// The per-cell options for one labelled cell: the campaign
    /// unconditionally, with the injected fault appended to its plans when
    /// the selector matches (a one-plan campaign tagged
    /// [`DEFAULT_FAULT_SEED`] when there is no campaign). Each such cell
    /// counts once in the `faults_injected` telemetry counter.
    pub fn cell_options(&self, workload: &str, compiler: &str, isa: &str) -> CellOptions {
        let mut campaign = self.campaign.clone();
        if let Some(i) = &self.inject {
            if i.selector.matches(workload, compiler, isa) {
                telemetry::global().counter_add("faults_injected", 1);
                campaign
                    .get_or_insert_with(|| Campaign::from_plans(Vec::new(), DEFAULT_FAULT_SEED))
                    .push(i.plan.clone());
            }
        }
        CellOptions {
            deadline: self.deadline,
            retries: self.retries,
            campaign,
            trace_dir: self.trace_dir.clone(),
            heed_shutdown: self.heed_shutdown,
            checkpoint_dir: self.checkpoint_dir.clone(),
            fusion: self.fusion,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_and_retryability() {
        let sim = CellError::Sim {
            err: SimError::MisalignedPc { pc: 2 },
            instret: 7,
        };
        assert_eq!(sim.kind(), "sim");
        assert!(sim.retryable());
        let timeout = CellError::Timeout {
            err: SimError::WallClockExceeded {
                limit_ms: 5,
                retired: 9,
            },
            instret: 9,
        };
        assert_eq!(timeout.kind(), "timeout");
        assert!(
            !timeout.retryable(),
            "watchdogs are deterministic, no retry"
        );
        assert!(!CellError::Compile { msg: "x".into() }.retryable());
        assert!(CellError::ChecksumMismatch {
            expected_bits: 1,
            got_bits: 2
        }
        .retryable());
    }

    #[test]
    fn failure_record_carries_labels_and_detail() {
        let e = CellError::NonZeroExit { code: 3 };
        let f = e.to_failure("STREAM", "gcc-12.2", "RISC-V", 2);
        assert_eq!(f.kind, "exit");
        assert_eq!(f.retries, 2);
        assert!(f.detail.contains("code 3"));
        assert_eq!((f.workload.as_str(), f.isa.as_str()), ("STREAM", "RISC-V"));
    }

    #[test]
    fn selector_parses_and_matches() {
        let sel = CellSelector::parse("STREAM/gcc-12.2/RISC-V").unwrap();
        assert!(sel.matches("STREAM", "gcc-12.2", "RISC-V"));
        assert!(
            sel.matches("stream", "GCC-12.2", "risc-v"),
            "case-insensitive"
        );
        assert!(!sel.matches("LBM", "gcc-12.2", "RISC-V"));
        let any = CellSelector::parse("*/*/RISC-V").unwrap();
        assert!(any.matches("LBM", "gcc-9.2", "RISC-V"));
        assert!(!any.matches("LBM", "gcc-9.2", "AArch64"));
        assert!(CellSelector::parse("STREAM/gcc-12.2").is_err());
        assert!(CellSelector::parse("//").is_err());
    }

    #[test]
    fn inject_spec_round_trip() {
        let i = InjectSpec::parse("STREAM/gcc-12.2/RISC-V:trap@1000").unwrap();
        assert!(i.selector.matches("STREAM", "gcc-12.2", "RISC-V"));
        assert_eq!(
            i.plan.kind(),
            &simcore::FaultKind::TrapAt { at_instret: 1000 }
        );
        assert!(InjectSpec::parse("STREAM:trap@1").is_err());
        assert!(InjectSpec::parse("a/b/c").is_err());
    }

    #[test]
    fn retries_are_capped() {
        let o = CellOptions {
            retries: 99,
            ..Default::default()
        };
        assert_eq!(o.effective_retries(), MAX_CELL_RETRIES);
    }

    #[test]
    fn armed_campaign_merges_fault_and_schedule() {
        assert!(CellOptions::default().armed_campaign().is_none());
        let o = MatrixOptions {
            inject: Some(InjectSpec::parse("*/*/*:trap@10").unwrap()),
            campaign: Some(Campaign::sample(7, 3, 100)),
            ..Default::default()
        }
        .cell_options("STREAM", "gcc-9.2", "AArch64");
        let armed = o.armed_campaign().unwrap();
        assert_eq!(armed.len(), 4, "3 sampled plans + the one-shot fault");
        assert_eq!(armed.seed(), 7, "campaign seed wins when both are set");
        assert_eq!(armed.fired_count(), 0, "armed fresh");
        // Each arming is independent: new fired state every retry.
        let again = o.armed_campaign().unwrap();
        assert_eq!(again.fired_count(), 0);
    }

    #[test]
    fn matrix_campaign_reaches_every_cell() {
        let opts = MatrixOptions {
            campaign: Some(Campaign::sample(1, 2, 100)),
            ..Default::default()
        };
        let a = opts.cell_options("STREAM", "gcc-9.2", "AArch64");
        let b = opts.cell_options("LBM", "gcc-12.2", "RISC-V");
        assert_eq!(a.campaign.as_ref().unwrap().len(), 2);
        assert_eq!(b.campaign.as_ref().unwrap().len(), 2);
    }
}
