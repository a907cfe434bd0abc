//! Simulation errors.

/// Errors raised while loading or executing a guest program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A load touched memory no store or loader section ever wrote.
    UnmappedRead {
        /// Faulting guest address.
        addr: u64,
    },
    /// The fetch unit could not decode the instruction word.
    Decode {
        /// PC of the undecodable word.
        pc: u64,
        /// The raw 32-bit instruction word.
        word: u32,
        /// Human-readable reason.
        msg: String,
    },
    /// The guest invoked a syscall number the trap layer does not implement.
    UnimplementedSyscall {
        /// PC of the trap instruction.
        pc: u64,
        /// Syscall number (Linux generic ABI).
        num: u64,
    },
    /// The PC became misaligned (not 4-byte aligned).
    MisalignedPc {
        /// The bad PC value.
        pc: u64,
    },
    /// The run exceeded the caller-supplied instruction budget.
    InstructionBudgetExceeded {
        /// The budget that was exceeded.
        budget: u64,
    },
    /// The run exceeded the caller-supplied wall-clock deadline (the
    /// watchdog complement to the instruction budget: it also catches
    /// guests that are *slow* rather than merely long).
    WallClockExceeded {
        /// The deadline that was exceeded, in milliseconds.
        limit_ms: u64,
        /// Instructions retired when the watchdog fired.
        retired: u64,
    },
    /// The run was stopped by an operator shutdown request (SIGINT /
    /// SIGTERM via [`crate::shutdown`]): the guest did not fault, the
    /// harness stopped it at a clean step boundary so its state could be
    /// checkpointed.
    Interrupted {
        /// Instructions retired when the shutdown flag was observed.
        retired: u64,
    },
    /// The guest executed an explicit trap/breakpoint instruction.
    Breakpoint {
        /// PC of the breakpoint.
        pc: u64,
    },
    /// The guest raised an arithmetic or semantic fault (e.g. an atomic on a
    /// misaligned address).
    Fault {
        /// PC of the faulting instruction.
        pc: u64,
        /// Human-readable reason.
        msg: String,
    },
}

impl SimError {
    /// True for the two watchdog variants (instruction budget and wall
    /// clock): the guest did not fault, the harness gave up on it.
    pub fn is_watchdog(&self) -> bool {
        matches!(
            self,
            SimError::InstructionBudgetExceeded { .. } | SimError::WallClockExceeded { .. }
        )
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::UnmappedRead { addr } => {
                write!(f, "read of unmapped guest memory at {addr:#x}")
            }
            SimError::Decode { pc, word, msg } => {
                write!(
                    f,
                    "undecodable instruction {word:#010x} at pc {pc:#x}: {msg}"
                )
            }
            SimError::UnimplementedSyscall { pc, num } => {
                write!(f, "unimplemented syscall {num} at pc {pc:#x}")
            }
            SimError::MisalignedPc { pc } => write!(f, "misaligned pc {pc:#x}"),
            SimError::InstructionBudgetExceeded { budget } => {
                write!(f, "instruction budget of {budget} exceeded")
            }
            SimError::WallClockExceeded { limit_ms, retired } => {
                write!(
                    f,
                    "wall-clock deadline of {limit_ms} ms exceeded after {retired} retirements"
                )
            }
            SimError::Interrupted { retired } => {
                write!(
                    f,
                    "interrupted by shutdown request after {retired} retirements"
                )
            }
            SimError::Breakpoint { pc } => write!(f, "breakpoint at pc {pc:#x}"),
            SimError::Fault { pc, msg } => write!(f, "fault at pc {pc:#x}: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}
