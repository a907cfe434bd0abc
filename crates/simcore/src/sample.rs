//! Shared program-counter snapshot for the sampling profiler.
//!
//! The emulation core publishes `(pc, instret)` into a [`SampleSnapshot`]
//! every `2^k` retirements; a sampler thread (see `telemetry::sampler`)
//! polls the snapshot on a wall-clock period and attributes host time to
//! whatever guest PC was last published. The core never blocks: publication
//! is a seqlock write (two fetch-adds and two relaxed stores), and readers
//! retry if they observe a torn pair.
//!
//! Seqlock protocol: the writer bumps `seq` to an odd value, stores the
//! payload, then bumps `seq` to the next even value. A reader loads `seq`,
//! rejects odd values, loads the payload, re-loads `seq`, and accepts only
//! if the two loads match. There is exactly one writer (the emulation
//! thread), so writer-side increments need no stronger ordering than
//! Release, and the reader pairs them with Acquire.

use std::sync::atomic::{AtomicU64, Ordering};

/// One published sample: the guest PC and retirement count at publish time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Guest program counter last published by the core.
    pub pc: u64,
    /// Instructions retired when the sample was published.
    pub instret: u64,
}

/// Lock-free single-writer snapshot cell shared between the emulation core
/// and the sampler thread.
#[derive(Debug, Default)]
pub struct SampleSnapshot {
    seq: AtomicU64,
    pc: AtomicU64,
    instret: AtomicU64,
    publishes: AtomicU64,
}

impl SampleSnapshot {
    /// Empty snapshot; [`read`](Self::read) returns `None` until the first
    /// [`publish`](Self::publish).
    pub fn new() -> Self {
        Self::default()
    }

    /// Publish `(pc, instret)`. Called from the emulation hot loop on the
    /// sampling stride; must stay cheap and wait-free.
    #[inline]
    pub fn publish(&self, pc: u64, instret: u64) {
        // Odd seq = write in progress.
        self.seq.fetch_add(1, Ordering::Release);
        self.pc.store(pc, Ordering::Relaxed);
        self.instret.store(instret, Ordering::Relaxed);
        self.seq.fetch_add(1, Ordering::Release);
        self.publishes.fetch_add(1, Ordering::Relaxed);
    }

    /// Read the latest published sample, retrying on torn reads. Returns
    /// `None` if nothing has been published yet.
    pub fn read(&self) -> Option<Sample> {
        loop {
            let s0 = self.seq.load(Ordering::Acquire);
            if s0 == 0 {
                return None;
            }
            if s0 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let pc = self.pc.load(Ordering::Relaxed);
            let instret = self.instret.load(Ordering::Relaxed);
            // Acquire fence orders the payload loads before the re-check.
            std::sync::atomic::fence(Ordering::Acquire);
            if self.seq.load(Ordering::Relaxed) == s0 {
                return Some(Sample { pc, instret });
            }
        }
    }

    /// Total number of `publish` calls. Used by tests to assert the
    /// disabled path performs zero publishes (and hence zero hot-loop
    /// overhead beyond the sentinel-mask compare).
    pub fn publishes(&self) -> u64 {
        self.publishes.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn empty_snapshot_reads_none() {
        let s = SampleSnapshot::new();
        assert_eq!(s.read(), None);
        assert_eq!(s.publishes(), 0);
    }

    #[test]
    fn publish_then_read_round_trips() {
        let s = SampleSnapshot::new();
        s.publish(0x8000_0010, 42);
        assert_eq!(
            s.read(),
            Some(Sample {
                pc: 0x8000_0010,
                instret: 42
            })
        );
        s.publish(0x8000_0044, 99);
        assert_eq!(
            s.read(),
            Some(Sample {
                pc: 0x8000_0044,
                instret: 99
            })
        );
        assert_eq!(s.publishes(), 2);
    }

    #[test]
    fn concurrent_reads_never_tear() {
        // Writer publishes pairs where instret == pc + 1; any torn read
        // breaks that invariant.
        // The writer holds after its first publish until the reader has
        // seen a sample, so the reads overlap the writes however the two
        // threads are scheduled.
        let snap = Arc::new(SampleSnapshot::new());
        let observed = Arc::new(AtomicBool::new(false));
        let (w, flag) = (Arc::clone(&snap), Arc::clone(&observed));
        let writer = std::thread::spawn(move || {
            for i in 0..200_000u64 {
                w.publish(i, i + 1);
                while i == 0 && !flag.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            }
        });
        let mut seen = 0u64;
        while !writer.is_finished() {
            if let Some(s) = snap.read() {
                assert_eq!(s.instret, s.pc + 1, "torn read: {s:?}");
                seen += 1;
                observed.store(true, Ordering::Release);
            }
        }
        writer.join().unwrap();
        let last = snap.read().unwrap();
        assert_eq!(
            last,
            Sample {
                pc: 199_999,
                instret: 200_000
            }
        );
        assert_eq!(snap.publishes(), 200_000);
        assert!(seen > 0, "reader never observed a published sample");
    }
}
