//! Path-length measurement: total and per-kernel dynamic instruction
//! counts (the paper's §3).

use simcore::{Observer, Region, RetireSource, RetiredInst, SimError};

/// Streaming instruction counter with per-region attribution.
///
/// Regions come from the program image (named PC ranges per kernel); a
/// one-entry region cache makes the common case (tight loop inside one
/// kernel) a single range check.
pub struct PathLength {
    regions: Vec<Region>,
    counts: Vec<u64>,
    other: u64,
    total: u64,
    last_hit: usize,
}

impl PathLength {
    /// Create a counter for a program's regions.
    pub fn new(regions: &[Region]) -> Self {
        PathLength {
            regions: regions.to_vec(),
            counts: vec![0; regions.len()],
            other: 0,
            total: 0,
            last_hit: 0,
        }
    }

    /// Pump an entire retirement source (live run, replayed trace, or
    /// record slice) through this counter.
    pub fn consume(&mut self, source: &mut dyn RetireSource) -> Result<u64, SimError> {
        let mut obs: [&mut dyn Observer; 1] = [self];
        source.drive(&mut obs)
    }

    /// Total instructions retired (the paper's *path length*).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Instructions not attributable to any named region (setup, exit,
    /// harness glue).
    pub fn other(&self) -> u64 {
        self.other
    }

    /// Per-kernel counts, merging regions that share a name, in first
    /// appearance order.
    pub fn by_kernel(&self) -> Vec<(String, u64)> {
        let mut order: Vec<String> = Vec::new();
        let mut totals: std::collections::HashMap<&str, u64> = std::collections::HashMap::new();
        for (r, &c) in self.regions.iter().zip(self.counts.iter()) {
            if !totals.contains_key(r.name.as_str()) {
                order.push(r.name.clone());
            }
            *totals.entry(r.name.as_str()).or_insert(0) += c;
        }
        order
            .into_iter()
            .map(|name| {
                let c = totals[name.as_str()];
                (name, c)
            })
            .collect()
    }
}

impl Observer for PathLength {
    #[inline]
    fn on_retire(&mut self, ri: &RetiredInst) {
        self.total += 1;
        if !self.regions.is_empty() {
            // Fast path: same region as the previous instruction.
            let r = &self.regions[self.last_hit];
            if r.contains(ri.pc) {
                self.counts[self.last_hit] += 1;
                return;
            }
            for (i, r) in self.regions.iter().enumerate() {
                if r.contains(ri.pc) {
                    self.counts[i] += 1;
                    self.last_hit = i;
                    return;
                }
            }
        }
        self.other += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{InstGroup, RetiredInst};

    fn ri(pc: u64) -> RetiredInst {
        RetiredInst::new(pc, InstGroup::IntAlu)
    }

    #[test]
    fn attributes_to_regions() {
        let regions = vec![
            Region {
                name: "a".into(),
                start: 0x100,
                end: 0x200,
            },
            Region {
                name: "b".into(),
                start: 0x200,
                end: 0x300,
            },
            Region {
                name: "a".into(),
                start: 0x400,
                end: 0x500,
            },
        ];
        let mut pl = PathLength::new(&regions);
        for pc in [0x100, 0x104, 0x250, 0x404, 0x50] {
            pl.on_retire(&ri(pc));
        }
        assert_eq!(pl.total(), 5);
        assert_eq!(pl.other(), 1);
        let by = pl.by_kernel();
        assert_eq!(by, vec![("a".to_string(), 3), ("b".to_string(), 1)]);
    }

    #[test]
    fn empty_regions_counts_everything_as_other() {
        let mut pl = PathLength::new(&[]);
        for pc in 0..10 {
            pl.on_retire(&ri(pc * 4));
        }
        assert_eq!(pl.total(), 10);
        assert_eq!(pl.other(), 10);
        assert!(pl.by_kernel().is_empty());
    }
}
