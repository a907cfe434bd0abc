//! Feature-gated retire-loop phase timers.
//!
//! The observability layer wants to know where a host cycle goes for each
//! retired guest instruction: fetching the word, decoding it, executing it,
//! or feeding observers. Measuring that honestly costs two `Instant::now()`
//! calls per scope, which is far too expensive to leave in the default hot
//! loop — so the timers are compiled in only under the `phase-timers`
//! feature and collapse to zero-sized no-ops otherwise.
//!
//! Usage (executors and the core run loop):
//!
//! ```
//! use simcore::phase::{self, Phase};
//! {
//!     let _t = phase::scoped(Phase::Execute);
//!     // ... work attributed to the execute phase ...
//! }
//! let breakdown = phase::take(); // zeros unless `phase-timers` is on
//! assert_eq!(breakdown.total_ns(), if phase::enabled() { breakdown.total_ns() } else { 0 });
//! ```
//!
//! Accumulation is thread-local: each emulation run happens on one thread,
//! and [`take`] snapshots-and-resets that thread's accumulator, so parallel
//! matrix cells never mix their phase costs.

/// One phase of the retire loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Reading the instruction word from guest memory (decode-cache miss).
    Fetch = 0,
    /// Decode-cache lookup and (on miss) decoding the fetched word.
    Decode = 1,
    /// Executing the decoded instruction against architectural state.
    Execute = 2,
    /// Streaming the retirement record through the attached observers.
    Observe = 3,
}

/// Nanoseconds attributed to each retire-loop phase. All-zero when the
/// `phase-timers` feature is off (the accessors still work, so reporting
/// code needs no `cfg`).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PhaseNanos {
    /// Instruction-word fetch time (cache-miss path only).
    pub fetch_ns: u64,
    /// Decode-cache lookup + decode time.
    pub decode_ns: u64,
    /// Execution time.
    pub execute_ns: u64,
    /// Observer-dispatch time.
    pub observe_ns: u64,
}

impl PhaseNanos {
    /// Sum over all phases.
    pub fn total_ns(&self) -> u64 {
        self.fetch_ns + self.decode_ns + self.execute_ns + self.observe_ns
    }

    /// `(phase name, nanoseconds)` pairs in fixed order.
    pub fn entries(&self) -> [(&'static str, u64); 4] {
        [
            ("fetch", self.fetch_ns),
            ("decode", self.decode_ns),
            ("execute", self.execute_ns),
            ("observe", self.observe_ns),
        ]
    }

    /// One-line rendering as percentages of the phase total, e.g.
    /// `fetch 1% | decode 17% | execute 64% | observe 18%`. Empty when no
    /// time was attributed (timers off or nothing ran).
    pub fn summary(&self) -> String {
        let total = self.total_ns();
        if total == 0 {
            return String::new();
        }
        self.entries()
            .iter()
            .map(|(name, ns)| format!("{name} {:.0}%", *ns as f64 * 100.0 / total as f64))
            .collect::<Vec<_>>()
            .join(" | ")
    }
}

/// Whether the `phase-timers` feature is compiled in.
pub fn enabled() -> bool {
    cfg!(feature = "phase-timers")
}

#[cfg(feature = "phase-timers")]
mod imp {
    use super::{Phase, PhaseNanos};
    use std::cell::Cell;
    use std::time::Instant;

    thread_local! {
        static ACC: Cell<[u64; 4]> = const { Cell::new([0; 4]) };
    }

    /// RAII guard attributing its lifetime to `phase`.
    pub struct PhaseGuard {
        phase: Phase,
        start: Instant,
    }

    impl Drop for PhaseGuard {
        fn drop(&mut self) {
            let ns = self.start.elapsed().as_nanos() as u64;
            ACC.with(|acc| {
                let mut a = acc.get();
                a[self.phase as usize] += ns;
                acc.set(a);
            });
        }
    }

    /// Open a scope attributed to `phase`.
    pub fn scoped(phase: Phase) -> PhaseGuard {
        PhaseGuard {
            phase,
            start: Instant::now(),
        }
    }

    /// Snapshot this thread's accumulated phase costs and reset them.
    pub fn take() -> PhaseNanos {
        ACC.with(|acc| {
            let a = acc.replace([0; 4]);
            PhaseNanos {
                fetch_ns: a[0],
                decode_ns: a[1],
                execute_ns: a[2],
                observe_ns: a[3],
            }
        })
    }
}

#[cfg(not(feature = "phase-timers"))]
mod imp {
    use super::{Phase, PhaseNanos};

    /// Zero-sized no-op guard (`phase-timers` off).
    pub struct PhaseGuard;

    /// No-op (`phase-timers` off); compiles away entirely.
    #[inline(always)]
    pub fn scoped(_phase: Phase) -> PhaseGuard {
        PhaseGuard
    }

    /// Always the zero breakdown (`phase-timers` off).
    #[inline(always)]
    pub fn take() -> PhaseNanos {
        PhaseNanos::default()
    }
}

pub use imp::{scoped, take, PhaseGuard};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_take_is_zero_or_consistent() {
        // Whatever was accumulated before, take() resets the accumulator.
        let _ = take();
        if !enabled() {
            let _ = scoped(Phase::Execute);
            assert_eq!(take(), PhaseNanos::default());
        }
    }

    #[test]
    fn scoped_attributes_to_the_right_phase() {
        let _ = take();
        {
            let _g = scoped(Phase::Decode);
            std::hint::black_box(1 + 1);
        }
        let p = take();
        if enabled() {
            assert!(p.decode_ns > 0 || p.total_ns() == p.decode_ns);
            assert_eq!(p.fetch_ns, 0);
            assert_eq!(p.execute_ns, 0);
        } else {
            assert_eq!(p, PhaseNanos::default());
        }
        // take() resets.
        assert_eq!(take(), PhaseNanos::default());
    }

    #[test]
    fn summary_renders_percentages() {
        let p = PhaseNanos {
            fetch_ns: 10,
            decode_ns: 20,
            execute_ns: 60,
            observe_ns: 10,
        };
        let s = p.summary();
        assert!(s.contains("execute 60%"), "{s}");
        assert!(s.contains("fetch 10%"), "{s}");
        assert_eq!(PhaseNanos::default().summary(), "");
        assert_eq!(p.total_ns(), 100);
    }
}
