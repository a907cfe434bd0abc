//! One reference checksum per workload for the cells of one matrix.
//!
//! Every cell checks its guest checksum against the IR interpreter
//! ([`kernelgen::interpret`]). The interpreter reads the program, which
//! the workload and size class fix, and only the part of the personality
//! that [`ReferenceKey`] names. Both compiler personalities share that key,
//! so the four cells of a workload expect the same checksum. A
//! [`ReferenceMemo`] computes it once and hands it to the rest.
//!
//! A memo lives as long as one matrix run or one daemon job: it is created
//! there and passed to that run's cells. Nothing keeps it beyond that, so
//! each run pays for its own references and no run sees another's.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use kernelgen::{Personality, ReferenceKey};
use workloads::{SizeClass, Workload};

type Key = (Workload, SizeClass, ReferenceKey);

/// Reference checksums by workload, size class and [`ReferenceKey`],
/// each computed at most once.
#[derive(Debug, Default)]
pub struct ReferenceMemo {
    slots: Mutex<HashMap<Key, Arc<OnceLock<f64>>>>,
}

impl ReferenceMemo {
    /// An empty memo.
    pub fn new() -> Self {
        ReferenceMemo::default()
    }

    /// The reference checksum of `workload` at `size` under `personality`.
    /// The first caller for a key runs `compute`; callers racing it wait
    /// for its answer, and later callers read it. A `compute` that panics
    /// leaves the key empty, so the next caller computes it again.
    pub fn checksum(
        &self,
        workload: Workload,
        size: SizeClass,
        personality: &Personality,
        compute: impl FnOnce() -> f64,
    ) -> f64 {
        let key = (workload, size, ReferenceKey::of(personality));
        let slot = Arc::clone(
            self.slots
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .entry(key)
                .or_default(),
        );
        *slot.get_or_init(compute)
    }

    /// How many checksums this memo has computed. Lets the crate's tests
    /// count a matrix's interpretations, whose `compute` closures they do
    /// not own.
    #[cfg(test)]
    pub(crate) fn computed(&self) -> usize {
        self.slots
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
            .filter(|slot| slot.get().is_some())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn keys_that_differ_only_in_codegen_share_a_checksum() {
        let memo = ReferenceMemo::new();
        let calls = AtomicUsize::new(0);
        let compute = |v: f64| {
            let calls = &calls;
            move || {
                calls.fetch_add(1, Ordering::SeqCst);
                v
            }
        };
        let (w, size) = (Workload::Stream, SizeClass::Test);
        assert_eq!(
            memo.checksum(w, size, &Personality::gcc92(), compute(1.0)),
            1.0
        );
        let never = || -> f64 { panic!("already computed") };
        assert_eq!(memo.checksum(w, size, &Personality::gcc122(), never), 1.0);
        let mut unfused = Personality::gcc122();
        unfused.fuse_fma = false;
        assert_eq!(memo.checksum(w, size, &unfused, compute(2.0)), 2.0);
        assert_eq!(
            memo.checksum(Workload::Lbm, size, &unfused, compute(3.0)),
            3.0
        );
        assert_eq!(
            memo.checksum(w, SizeClass::Small, &unfused, compute(4.0)),
            4.0
        );
        assert_eq!(calls.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn racing_callers_compute_once() {
        let memo = ReferenceMemo::new();
        let calls = AtomicUsize::new(0);
        let barrier = Barrier::new(4);
        let got: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    let (memo, calls, barrier) = (&memo, &calls, &barrier);
                    s.spawn(move || {
                        let p = [Personality::gcc92(), Personality::gcc122()][i % 2];
                        barrier.wait();
                        memo.checksum(Workload::MiniBude, SizeClass::Test, &p, || {
                            calls.fetch_add(1, Ordering::SeqCst);
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            7.5
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(got, vec![7.5; 4]);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn a_panicking_compute_leaves_the_key_for_the_next_caller() {
        let memo = ReferenceMemo::new();
        let p = Personality::gcc122();
        let (w, size) = (Workload::Stream, SizeClass::Test);
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            memo.checksum(w, size, &p, || panic!("interpreter bug"))
        }));
        assert!(died.is_err());
        let recomputed = AtomicUsize::new(0);
        let got = memo.checksum(w, size, &p, || {
            recomputed.fetch_add(1, Ordering::SeqCst);
            1.5
        });
        assert_eq!((got, recomputed.load(Ordering::SeqCst)), (1.5, 1));
    }
}
