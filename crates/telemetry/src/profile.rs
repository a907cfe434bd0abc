//! Guest-side profiling over the retirement stream.

use std::collections::HashMap;

use simcore::{InstGroup, Observer, Region, RetiredInst};

use crate::json::Json;

/// A streaming guest profiler: per-PC-bucket retirement histogram,
/// per-[`InstGroup`] mix, branch/memory statistics, and per-region counts
/// resolved against [`simcore::Program::regions`].
///
/// Memory is bounded like the windowed observer's ring: PC buckets start at
/// [`ProfilingObserver::DEFAULT_BUCKET_BYTES`] granularity and the bucket
/// map *coarsens itself* (doubling bucket size and rehashing) whenever it
/// would exceed [`ProfilingObserver::MAX_BUCKETS`] entries, so arbitrarily
/// large guests profile in O(1) space.
pub struct ProfilingObserver {
    /// Regions sorted by start PC, as `(name, start, end)`.
    regions: Vec<(String, u64, u64)>,
    region_counts: Vec<u64>,
    /// Index into `regions` last hit (PC locality makes this hit >90%).
    cached_region: usize,
    /// Retirements outside any named region.
    pub other_count: u64,
    buckets: HashMap<u64, u64>,
    shift: u32,
    group_counts: [u64; InstGroup::ALL.len()],
    retired: u64,
    branches: u64,
    taken: u64,
    loads: u64,
    stores: u64,
    bytes_read: u64,
    bytes_written: u64,
}

impl ProfilingObserver {
    /// Initial PC bucket width: 64 bytes (16 instructions).
    pub const DEFAULT_BUCKET_BYTES: u64 = 64;
    /// Bucket-map entry bound before the granularity doubles.
    pub const MAX_BUCKETS: usize = 1 << 14;

    /// Profiler attributing PCs to `regions` (pass `&program.regions`).
    pub fn new(regions: &[Region]) -> Self {
        let mut sorted: Vec<(String, u64, u64)> = regions
            .iter()
            .map(|r| (r.name.clone(), r.start, r.end))
            .collect();
        sorted.sort_by_key(|&(_, start, _)| start);
        let n = sorted.len();
        ProfilingObserver {
            regions: sorted,
            region_counts: vec![0; n],
            cached_region: usize::MAX,
            other_count: 0,
            buckets: HashMap::new(),
            shift: Self::DEFAULT_BUCKET_BYTES.trailing_zeros(),
            group_counts: [0; InstGroup::ALL.len()],
            retired: 0,
            branches: 0,
            taken: 0,
            loads: 0,
            stores: 0,
            bytes_read: 0,
            bytes_written: 0,
        }
    }

    fn attribute_region(&mut self, pc: u64) {
        if self.cached_region != usize::MAX {
            let (_, start, end) = &self.regions[self.cached_region];
            if pc >= *start && pc < *end {
                self.region_counts[self.cached_region] += 1;
                return;
            }
        }
        // Binary search over sorted disjoint regions.
        let idx = self.regions.partition_point(|&(_, start, _)| start <= pc);
        if idx > 0 {
            let (_, start, end) = &self.regions[idx - 1];
            if pc >= *start && pc < *end {
                self.cached_region = idx - 1;
                self.region_counts[idx - 1] += 1;
                return;
            }
        }
        self.cached_region = usize::MAX;
        self.other_count += 1;
    }

    fn bump_bucket(&mut self, pc: u64) {
        *self.buckets.entry(pc >> self.shift).or_insert(0) += 1;
        if self.buckets.len() > Self::MAX_BUCKETS {
            // Coarsen: double the bucket width, halving the entry count.
            self.shift += 1;
            let mut merged: HashMap<u64, u64> = HashMap::with_capacity(self.buckets.len() / 2 + 1);
            for (b, n) in self.buckets.drain() {
                *merged.entry(b >> 1).or_insert(0) += n;
            }
            self.buckets = merged;
        }
    }

    /// Total retirements seen.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Current PC bucket width in bytes.
    pub fn bucket_bytes(&self) -> u64 {
        1 << self.shift
    }

    /// Instruction mix as `(group, count)`, non-zero groups only, in
    /// [`InstGroup::ALL`] order.
    pub fn group_mix(&self) -> Vec<(InstGroup, u64)> {
        InstGroup::ALL
            .iter()
            .map(|&g| (g, self.group_counts[g.code() as usize]))
            .filter(|&(_, n)| n > 0)
            .collect()
    }

    /// Top-`n` regions by retirement count, descending.
    pub fn hot_regions(&self, n: usize) -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> = self
            .regions
            .iter()
            .zip(self.region_counts.iter())
            .filter(|(_, &c)| c > 0)
            .map(|((name, _, _), &c)| (name.clone(), c))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(n);
        v
    }

    /// Top-`n` PC buckets by retirement count as `(bucket start PC, count)`.
    pub fn hot_buckets(&self, n: usize) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self
            .buckets
            .iter()
            .map(|(&b, &c)| (b << self.shift, c))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(n);
        v
    }

    /// Fraction of retirements that were branches (0 if empty).
    pub fn branch_fraction(&self) -> f64 {
        if self.retired == 0 {
            0.0
        } else {
            self.branches as f64 / self.retired as f64
        }
    }

    /// Fraction of branches that were taken.
    pub fn taken_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.taken as f64 / self.branches as f64
        }
    }

    /// `(loads, stores, bytes read, bytes written)`.
    pub fn mem_stats(&self) -> (u64, u64, u64, u64) {
        (self.loads, self.stores, self.bytes_read, self.bytes_written)
    }

    /// JSON object with the full profile.
    pub fn to_json(&self, top_n: usize) -> Json {
        Json::obj(vec![
            ("retired", Json::Num(self.retired as f64)),
            (
                "group_mix",
                Json::Obj(
                    self.group_mix()
                        .into_iter()
                        .map(|(g, n)| (format!("{g:?}"), Json::Num(n as f64)))
                        .collect(),
                ),
            ),
            (
                "hot_regions",
                Json::Arr(
                    self.hot_regions(top_n)
                        .into_iter()
                        .map(|(name, n)| {
                            Json::obj(vec![
                                ("region", Json::Str(name)),
                                ("retired", Json::Num(n as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("other_retired", Json::Num(self.other_count as f64)),
            ("pc_bucket_bytes", Json::Num(self.bucket_bytes() as f64)),
            (
                "hot_pc_buckets",
                Json::Arr(
                    self.hot_buckets(top_n)
                        .into_iter()
                        .map(|(pc, n)| {
                            Json::obj(vec![
                                ("pc", Json::Str(format!("{pc:#x}"))),
                                ("retired", Json::Num(n as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("branches", Json::Num(self.branches as f64)),
            ("branch_taken_rate", Json::Num(self.taken_rate())),
            ("loads", Json::Num(self.loads as f64)),
            ("stores", Json::Num(self.stores as f64)),
            ("bytes_read", Json::Num(self.bytes_read as f64)),
            ("bytes_written", Json::Num(self.bytes_written as f64)),
        ])
    }
}

impl Observer for ProfilingObserver {
    fn on_retire(&mut self, ri: &RetiredInst) {
        self.retired += 1;
        self.group_counts[ri.group.code() as usize] += 1;
        if !self.regions.is_empty() {
            self.attribute_region(ri.pc);
        } else {
            self.other_count += 1;
        }
        self.bump_bucket(ri.pc);
        if ri.is_branch {
            self.branches += 1;
            self.taken += ri.taken as u64;
        }
        for a in ri.mem_reads() {
            self.loads += 1;
            self.bytes_read += a.size as u64;
        }
        for a in ri.mem_writes() {
            self.stores += 1;
            self.bytes_written += a.size as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::InstGroup;

    fn region(name: &str, start: u64, end: u64) -> Region {
        Region {
            name: name.into(),
            start,
            end,
        }
    }

    fn ri(pc: u64, group: InstGroup) -> RetiredInst {
        RetiredInst::new(pc, group)
    }

    #[test]
    fn region_attribution_synthetic_stream() {
        let regions = [
            region("copy", 0x100, 0x140),
            region("scale", 0x140, 0x180),
            region("triad", 0x200, 0x240),
        ];
        let mut p = ProfilingObserver::new(&regions);
        // 10 in copy, 3 in scale, 5 in triad, 2 outside.
        for _ in 0..10 {
            p.on_retire(&ri(0x104, InstGroup::Load));
        }
        for _ in 0..3 {
            p.on_retire(&ri(0x17C, InstGroup::FpAdd));
        }
        for _ in 0..5 {
            p.on_retire(&ri(0x200, InstGroup::FpFma));
        }
        p.on_retire(&ri(0x50, InstGroup::Branch));
        p.on_retire(&ri(0x1000, InstGroup::Branch));
        assert_eq!(p.retired(), 20);
        assert_eq!(p.other_count, 2);
        assert_eq!(
            p.hot_regions(10),
            vec![
                ("copy".into(), 10),
                ("triad".into(), 5),
                ("scale".into(), 3)
            ]
        );
        assert_eq!(p.hot_regions(1).len(), 1);
        let mix = p.group_mix();
        assert!(mix.contains(&(InstGroup::Load, 10)));
        assert!(mix.contains(&(InstGroup::Branch, 2)));
    }

    #[test]
    fn region_boundaries_are_half_open() {
        let mut p = ProfilingObserver::new(&[region("k", 0x100, 0x104)]);
        p.on_retire(&ri(0x100, InstGroup::IntAlu)); // inside
        p.on_retire(&ri(0x104, InstGroup::IntAlu)); // one past the end
        assert_eq!(p.hot_regions(1), vec![("k".into(), 1)]);
        assert_eq!(p.other_count, 1);
    }

    #[test]
    fn branch_and_mem_stats() {
        let mut p = ProfilingObserver::new(&[]);
        let mut b = ri(0, InstGroup::Branch);
        b.is_branch = true;
        b.taken = true;
        p.on_retire(&b);
        b.taken = false;
        p.on_retire(&b);
        let mut l = ri(4, InstGroup::Load);
        l.push_read(0x1000, 8);
        p.on_retire(&l);
        let mut s = ri(8, InstGroup::Store);
        s.push_write(0x2000, 4);
        p.on_retire(&s);
        assert_eq!(p.branch_fraction(), 0.5);
        assert_eq!(p.taken_rate(), 0.5);
        assert_eq!(p.mem_stats(), (1, 1, 8, 4));
    }

    #[test]
    fn bucket_map_is_bounded() {
        let mut p = ProfilingObserver::new(&[]);
        // Touch far more distinct 64-byte buckets than MAX_BUCKETS.
        let n = (ProfilingObserver::MAX_BUCKETS as u64) * 4;
        for i in 0..n {
            p.on_retire(&ri(
                i * ProfilingObserver::DEFAULT_BUCKET_BYTES,
                InstGroup::IntAlu,
            ));
        }
        assert!(p.buckets.len() <= ProfilingObserver::MAX_BUCKETS);
        assert!(p.bucket_bytes() > ProfilingObserver::DEFAULT_BUCKET_BYTES);
        // No retirements were lost to coarsening.
        let total: u64 = p.buckets.values().sum();
        assert_eq!(total, n);
    }

    #[test]
    fn profile_json_has_expected_keys() {
        let mut p = ProfilingObserver::new(&[region("k", 0, 0x40)]);
        p.on_retire(&ri(0x10, InstGroup::FpFma));
        let j = p.to_json(5);
        assert_eq!(j.get("retired").unwrap().as_u64(), Some(1));
        assert!(j.get("group_mix").unwrap().get("FpFma").is_some());
        assert_eq!(j.get("hot_regions").unwrap().as_arr().unwrap().len(), 1);
    }
}
