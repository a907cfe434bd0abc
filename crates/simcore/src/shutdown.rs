//! Graceful-shutdown flag: a process-wide "please stop" bit set from
//! SIGINT/SIGTERM and polled at safe points (the retire loop's masked
//! check, the matrix worker pool's claim loop).
//!
//! The container has no crates.io access, so instead of the `signal-hook`
//! or `ctrlc` crates this is a minimal std-only FFI shim over `signal(2)`,
//! which libc always provides and std always links on Unix. The handler
//! does the only async-signal-safe thing possible: store into a static
//! `AtomicBool`. Everything else — checkpointing, partial-matrix flushes,
//! exit codes — happens at the next poll point on a normal thread.
//!
//! On non-Unix targets [`install`] is a no-op returning `false`; the flag
//! can still be set programmatically via [`request`] (which is also how
//! tests drive the interruption paths deterministically).

use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};

/// The process-wide shutdown request flag.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Which signal raised the flag (0 = none / programmatic [`request`]).
/// Long-lived processes (the `isacmpd` daemon) report it in their typed
/// `Shutdown` frame so clients can tell SIGTERM drain from Ctrl-C.
static LAST_SIGNAL: AtomicI32 = AtomicI32::new(0);

/// Conventional exit status for a run ended by SIGINT/SIGTERM (128 + 2).
pub const EXIT_INTERRUPTED: i32 = 130;

/// `SIGINT` signal number (keyboard interrupt).
pub const SIGINT: i32 = 2;
/// `SIGTERM` signal number (orderly termination, e.g. service managers).
pub const SIGTERM: i32 = 15;

#[cfg(unix)]
mod sys {
    use std::sync::atomic::Ordering;

    extern "C" {
        // `signal(2)` from libc, which std links unconditionally on Unix.
        // Semantics we rely on: one handler per signal, handler stays
        // installed (glibc/musl give BSD semantics), returns SIG_ERR
        // (usize::MAX as a pointer) on failure.
        fn signal(signum: i32, handler: usize) -> usize;
    }

    const SIG_ERR: usize = usize::MAX;

    extern "C" fn on_signal(signum: i32) {
        // Only async-signal-safe operations: relaxed atomic stores.
        super::LAST_SIGNAL.store(signum, Ordering::Relaxed);
        super::SHUTDOWN.store(true, Ordering::Relaxed);
    }

    pub fn install() -> bool {
        let handler = on_signal as extern "C" fn(i32) as *const () as usize;
        let a = unsafe { signal(super::SIGINT, handler) };
        let b = unsafe { signal(super::SIGTERM, handler) };
        a != SIG_ERR && b != SIG_ERR
    }
}

/// Install the SIGINT/SIGTERM handler. Returns `true` when both handlers
/// were installed (always `false` on non-Unix, where only [`request`] can
/// set the flag). Safe to call more than once.
pub fn install() -> bool {
    #[cfg(unix)]
    {
        sys::install()
    }
    #[cfg(not(unix))]
    {
        false
    }
}

/// Has a shutdown been requested (by signal or [`request`])?
#[inline]
pub fn requested() -> bool {
    SHUTDOWN.load(Ordering::Relaxed)
}

/// Programmatically request a shutdown — what the signal handler does,
/// callable from tests and from orchestration code that wants to stop
/// sibling workers.
pub fn request() {
    SHUTDOWN.store(true, Ordering::Relaxed);
}

/// The signal that raised the shutdown flag, when one did:
/// `Some(SIGINT)` / `Some(SIGTERM)` after a real signal, `None` when the
/// flag is down or was raised programmatically via [`request`].
pub fn last_signal() -> Option<i32> {
    match LAST_SIGNAL.load(Ordering::Relaxed) {
        0 => None,
        sig => Some(sig),
    }
}

/// Human-readable name for a shutdown signal number ("SIGINT",
/// "SIGTERM", or the number itself) — the label daemon `Shutdown` frames
/// and drain logs carry.
pub fn signal_name(sig: i32) -> String {
    match sig {
        SIGINT => "SIGINT".to_string(),
        SIGTERM => "SIGTERM".to_string(),
        other => format!("signal {other}"),
    }
}

/// Clear the flag (and the recorded signal). For tests and for long-lived
/// processes that survive an orderly interruption (the CLI bins exit
/// instead).
pub fn reset() {
    SHUTDOWN.store(false, Ordering::Relaxed);
    LAST_SIGNAL.store(0, Ordering::Relaxed);
}

/// Serializes in-crate tests that toggle the process-wide flag, so they
/// cannot race each other under the parallel test runner.
#[cfg(test)]
pub(crate) static TEST_FLAG_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_sets_and_reset_clears() {
        let _guard = TEST_FLAG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        assert!(!requested());
        request();
        assert!(requested());
        assert_eq!(
            last_signal(),
            None,
            "programmatic request records no signal"
        );
        reset();
        assert!(!requested());
        assert_eq!(last_signal(), None);
    }

    #[test]
    fn signal_names_are_stable() {
        assert_eq!(signal_name(SIGINT), "SIGINT");
        assert_eq!(signal_name(SIGTERM), "SIGTERM");
        assert_eq!(signal_name(9), "signal 9");
    }

    #[cfg(unix)]
    #[test]
    fn real_signal_records_its_number() {
        let _guard = TEST_FLAG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert!(install());
        reset();
        // Raise SIGTERM at ourselves through libc; the handler must set
        // both the flag and the signal number.
        extern "C" {
            fn raise(signum: i32) -> i32;
        }
        assert_eq!(unsafe { raise(SIGTERM) }, 0);
        // signal delivery to the current thread is synchronous for raise().
        assert!(requested());
        assert_eq!(last_signal(), Some(SIGTERM));
        reset();
    }

    #[cfg(unix)]
    #[test]
    fn install_succeeds_on_unix() {
        let _guard = TEST_FLAG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert!(install());
        reset();
    }
}
