//! The provenance-keyed, single-flight result cache.
//!
//! One entry per experiment cell, keyed by everything that determines the
//! cell's measurements: workload, compiler personality, ISA, size class
//! and the fusion axis ([`CellKey`]). Cell measurements are deterministic
//! (the emulator is), so a cached cell is byte-identical to a recomputed
//! one — which is what lets the daemon unify the in-memory cache, the
//! `core::tracecache` trace replay layer (cells run *through* the trace
//! cache when a job arms a trace dir) and one-shot `results/matrix.json`
//! artifacts (seeded in via [`ResultCache::warm`]) behind one lookup.
//!
//! Single-flight: the first claimant of a missing key becomes the
//! *leader* and computes the cell (on the shard pool); concurrent
//! claimants become *followers* and block — on their own connection
//! threads, never on pool workers (see `isacmp::pool`'s deadlock rule) —
//! until the leader completes. Failed or interrupted computations are
//! never cached: the entry is removed and the next claimant re-leads.
//!
//! Fault-armed cells (targeted injection or campaign) are *not*
//! cacheable — an injected-fault run is not a reusable measurement — and
//! never reach this module; the job runner computes them directly.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use isacmp::{ExperimentCell, ResultMatrix};

/// Everything that determines one cell's measurements.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CellKey {
    pub workload: String,
    pub compiler: String,
    pub isa: String,
    pub size: String,
    /// Whether the macro-op fusion pass was armed. Fused and unfused
    /// measurements of the same cell differ (the fused one carries the
    /// extra report), so they must never share a cache slot.
    pub fusion: bool,
}

impl CellKey {
    pub fn new(workload: &str, compiler: &str, isa: &str, size: &str, fusion: bool) -> CellKey {
        CellKey {
            workload: workload.into(),
            compiler: compiler.into(),
            isa: isa.into(),
            size: size.into(),
            fusion,
        }
    }
}

impl std::fmt::Display for CellKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{}/{}@{}{}",
            self.workload,
            self.compiler,
            self.isa,
            self.size,
            if self.fusion { "+fusion" } else { "" }
        )
    }
}

/// The slot a leader fills and followers wait on.
#[derive(Default)]
pub struct Flight {
    slot: Mutex<Option<Result<ExperimentCell, String>>>,
    cv: Condvar,
}

impl Flight {
    /// Wait up to `timeout` for the leader. `None` on timeout (caller
    /// should poll shutdown and either wait again or give up).
    pub fn wait_for(&self, timeout: Duration) -> Option<Result<ExperimentCell, String>> {
        let guard = self
            .slot
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(r) = guard.as_ref() {
            return Some(r.clone());
        }
        let (guard, _timeout) = self
            .cv
            .wait_timeout(guard, timeout)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        guard.as_ref().cloned()
    }

    fn fill(&self, result: Result<ExperimentCell, String>) {
        let mut guard = self
            .slot
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *guard = Some(result);
        self.cv.notify_all();
    }
}

enum Entry {
    InFlight(Arc<Flight>),
    Done(Box<ExperimentCell>),
}

/// What a claim resolved to.
pub enum Claim {
    /// Cached: here is the cell. (Counted as a hit.)
    Hit(Box<ExperimentCell>),
    /// You lead: compute the cell and call [`ResultCache::complete`].
    /// (Counted as a miss.)
    Lead,
    /// Another job is computing this cell; wait on the flight — from a
    /// connection thread only. (Counted as a hit: nothing is recomputed.)
    Follow(Arc<Flight>),
}

/// The daemon-wide cell cache.
#[derive(Default)]
pub struct ResultCache {
    map: Mutex<HashMap<CellKey, Entry>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ResultCache {
    pub fn new() -> ResultCache {
        ResultCache::default()
    }

    /// Resolve `key` to a hit, a leadership, or a flight to follow.
    pub fn claim(&self, key: &CellKey) -> Claim {
        let mut map = self
            .map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match map.get(key) {
            Some(Entry::Done(cell)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Claim::Hit(cell.clone())
            }
            Some(Entry::InFlight(flight)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Claim::Follow(Arc::clone(flight))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                map.insert(key.clone(), Entry::InFlight(Arc::new(Flight::default())));
                Claim::Lead
            }
        }
    }

    /// Leader hand-off: cache a successful cell, or drop the entry on
    /// failure/interruption so a later claimant re-leads. Followers are
    /// woken either way (failures propagate to *this* flight's followers;
    /// they decide whether to re-claim).
    pub fn complete(&self, key: &CellKey, result: Result<ExperimentCell, String>) {
        let flight = {
            let mut map = self
                .map
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let flight = match map.remove(key) {
                Some(Entry::InFlight(f)) => Some(f),
                _ => None,
            };
            if let Ok(cell) = &result {
                map.insert(key.clone(), Entry::Done(Box::new(cell.clone())));
            }
            flight
        };
        if let Some(f) = flight {
            f.fill(result);
        }
    }

    /// Seed the cache from a one-shot `matrix.json` artifact (only
    /// healthy cells; recorded failures are not reusable results).
    /// Returns how many cells were inserted.
    pub fn warm(&self, matrix: &ResultMatrix, size: &str) -> usize {
        let mut map = self
            .map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut n = 0;
        for cell in &matrix.cells {
            // A cell carrying a fusion report seeds the fused slot; its
            // plain twin stays a miss (and vice versa) — the two are
            // different measurements.
            let key = CellKey::new(
                &cell.workload,
                &cell.compiler,
                &cell.isa,
                size,
                cell.fused.is_some(),
            );
            if !matches!(map.get(&key), Some(Entry::Done(_))) {
                map.insert(key, Entry::Done(Box::new(cell.clone())));
                n += 1;
            }
        }
        n
    }

    /// (hits, misses) so far. Follows count as hits — nothing was
    /// recomputed for them.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Completed (Done) cells currently cached.
    pub fn len(&self) -> usize {
        let map = self
            .map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        map.values().filter(|e| matches!(e, Entry::Done(_))).count()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
