//! Set-associative cache model.
//!
//! The paper's analyses assume single-cycle loads ("perfect" memory); this
//! observer quantifies what that assumption hides by replaying the
//! retirement stream's memory accesses through an L1-data-cache model and
//! reporting hit rates and an average-memory-access-time estimate. Because
//! both ISAs traverse essentially the same data structures, near-identical
//! hit rates across ISAs are themselves a finding: the ISA comparison is
//! not perturbed by cache behaviour.

use simcore::{Observer, RetiredInst};

/// Cache geometry.
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size: usize,
    /// Line size in bytes (power of two).
    pub line: usize,
    /// Associativity (ways).
    pub ways: usize,
}

impl CacheConfig {
    /// A 32 KiB, 8-way, 64-byte-line L1D (Cortex-A55 / TX2 class).
    pub fn l1d_32k() -> Self {
        CacheConfig {
            size: 32 * 1024,
            line: 64,
            ways: 8,
        }
    }
}

/// Hit/miss statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand accesses (loads + stores).
    pub accesses: u64,
    /// Hits.
    pub hits: u64,
}

impl CacheStats {
    /// Hit rate in [0, 1].
    pub fn hit_rate(&self) -> f64 {
        self.hits as f64 / self.accesses.max(1) as f64
    }

    /// Average memory access time for the given hit/miss latencies.
    pub fn amat(&self, hit_cycles: f64, miss_cycles: f64) -> f64 {
        let hr = self.hit_rate();
        hr * hit_cycles + (1.0 - hr) * miss_cycles
    }
}

/// LRU set-associative cache fed by the retirement stream (writes
/// allocate, as in the write-allocate L1s of the cores the paper models).
pub struct CacheModel {
    /// Tag store: `sets x ways` entries, `u64::MAX` = invalid.
    tags: Vec<u64>,
    /// LRU stamps parallel to `tags`.
    stamps: Vec<u64>,
    sets: usize,
    ways: usize,
    line_shift: u32,
    clock: u64,
    stats: CacheStats,
}

impl CacheModel {
    /// Build a cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.line.is_power_of_two());
        let sets = config.size / (config.line * config.ways);
        assert!(
            sets.is_power_of_two() && sets > 0,
            "sets must be a power of two"
        );
        CacheModel {
            tags: vec![u64::MAX; sets * config.ways],
            stamps: vec![0; sets * config.ways],
            sets,
            ways: config.ways,
            line_shift: config.line.trailing_zeros(),
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Probe one address: updates LRU state and statistics, returns
    /// whether it hit. Used directly by the pipeline models to derive
    /// per-access load latencies.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.clock += 1;
        self.stats.accesses += 1;
        let line = addr >> self.line_shift;
        let set = (line as usize) & (self.sets - 1);
        let base = set * self.ways;
        // Hit?
        for w in 0..self.ways {
            if self.tags[base + w] == line {
                self.stamps[base + w] = self.clock;
                self.stats.hits += 1;
                return true;
            }
        }
        // Miss: evict LRU.
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for w in 0..self.ways {
            if self.stamps[base + w] < oldest {
                oldest = self.stamps[base + w];
                victim = w;
            }
        }
        self.tags[base + victim] = line;
        self.stamps[base + victim] = self.clock;
        false
    }

    /// Probe an access of `size` bytes at `addr` (straddles touch both
    /// lines); returns whether *all* touched lines hit.
    #[inline]
    pub fn access_sized(&mut self, addr: u64, size: u8) -> bool {
        let mut hit = self.access(addr);
        let last = addr + size.max(1) as u64 - 1;
        if last >> self.line_shift != addr >> self.line_shift {
            hit &= self.access(last);
        }
        hit
    }
}

impl Observer for CacheModel {
    #[inline]
    fn on_retire(&mut self, ri: &RetiredInst) {
        for a in ri.mem_reads() {
            self.access_sized(a.addr, a.size);
        }
        for a in ri.mem_writes() {
            self.access_sized(a.addr, a.size);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::InstGroup;

    fn load(addr: u64) -> RetiredInst {
        let mut ri = RetiredInst::new(0, InstGroup::Load);
        ri.push_read(addr, 8);
        ri
    }

    #[test]
    fn sequential_stream_hits_within_lines() {
        // 8 consecutive doubles share a 64-byte line: 1 miss + 7 hits.
        let mut c = CacheModel::new(CacheConfig::l1d_32k());
        for i in 0..8 {
            c.on_retire(&load(0x1000 + i * 8));
        }
        let s = c.stats();
        assert_eq!(s.accesses, 8);
        assert_eq!(s.hits, 7);
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = CacheModel::new(CacheConfig::l1d_32k());
        c.on_retire(&load(0x40));
        c.on_retire(&load(0x40));
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn capacity_misses_on_oversized_working_set() {
        // Stride through 4x the cache size twice: second pass still misses.
        let cfg = CacheConfig {
            size: 4096,
            line: 64,
            ways: 2,
        };
        let mut c = CacheModel::new(cfg);
        for pass in 0..2 {
            for i in 0..(4 * 4096 / 64) {
                c.on_retire(&load(i as u64 * 64));
            }
            if pass == 0 {
                assert_eq!(c.stats().hits, 0, "cold pass misses everywhere");
            }
        }
        assert_eq!(c.stats().hits, 0, "working set 4x capacity: LRU never hits");
    }

    #[test]
    fn lru_keeps_hot_line() {
        // 2-way set: hot line A touched between fills of B and C survives.
        let cfg = CacheConfig {
            size: 8192,
            line: 64,
            ways: 2,
        };
        let sets = 8192 / (64 * 2); // 64 sets
        let stride = (sets * 64) as u64; // same-set stride
        let mut c = CacheModel::new(cfg);
        let a = 0x0;
        let b = stride;
        let cc = 2 * stride;
        c.on_retire(&load(a)); // miss
        c.on_retire(&load(b)); // miss
        c.on_retire(&load(a)); // hit, refresh A
        c.on_retire(&load(cc)); // miss, evicts B
        c.on_retire(&load(a)); // hit: A survived
        assert_eq!(c.stats().hits, 2);
    }

    #[test]
    fn straddling_access_touches_two_lines() {
        let mut c = CacheModel::new(CacheConfig::l1d_32k());
        let mut ri = RetiredInst::new(0, InstGroup::Load);
        ri.push_read(0x103C, 8); // crosses the 0x1040 line boundary
        c.on_retire(&ri);
        assert_eq!(c.stats().accesses, 2);
    }

    #[test]
    fn amat_formula() {
        let s = CacheStats {
            accesses: 100,
            hits: 90,
        };
        assert!((s.amat(4.0, 100.0) - (0.9 * 4.0 + 0.1 * 100.0)).abs() < 1e-12);
    }
}
