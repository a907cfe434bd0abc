//! Hot-block sampling profiler.
//!
//! The guest-side [`ProfilingObserver`](crate::ProfilingObserver) counts
//! *retirements* per region — it says where the guest spent instructions,
//! not where the *host* spent time. This module answers the host-cost
//! question: the emulation core publishes `(pc, instret)` into a
//! [`simcore::SampleSnapshot`] every `2^k` retirements (see
//! `EmulationCore::with_sampling`), and a background [`Sampler`] thread
//! wakes on a fixed wall-clock period, reads the snapshot, and charges one
//! period of host time to the guest PC it finds there. Sampled PCs
//! resolve to symbols via the program's named [`Region`]s, then bucket
//! into [`Sampler::BLOCK_BYTES`]-aligned "blocks" for display.
//!
//! A sample is charged only when `instret` advanced since the previous
//! read — a stale snapshot means the core is not running (finished, or
//! stuck outside the run loop), and charging its last PC would fabricate
//! cost. Stale reads are tallied separately as *idle*.
//!
//! The output side ([`HotBlockProfile`]) renders a top-N table, a JSON
//! object, and collapsed-stack lines (`sampler;symbol;block <us>`) that
//! concatenate directly with [`Timeline::to_collapsed`](crate::Timeline::to_collapsed)
//! output into one flamegraph.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use simcore::{Region, SampleSnapshot};

use crate::json::Json;

/// Raw sampling state accumulated by the sampler thread.
struct RawCounts {
    /// Samples per exact guest PC, attributed while the core ran. Block
    /// bucketing happens at attribution time so a region starting
    /// mid-block still claims its PCs.
    pcs: HashMap<u64, u64>,
    /// Reads where `instret` had not advanced (core idle/finished).
    idle: u64,
}

/// Background thread periodically reading a [`SampleSnapshot`].
///
/// ```no_run
/// # use std::sync::Arc;
/// # use simcore::SampleSnapshot;
/// # use telemetry::sampler::Sampler;
/// let snap = Arc::new(SampleSnapshot::new());
/// let sampler = Sampler::start(Arc::clone(&snap), Sampler::DEFAULT_PERIOD);
/// // ... run an EmulationCore built with .with_sampling(snap, 8) ...
/// let profile = sampler.stop();
/// println!("{}", profile.attribute(&[]).table(10));
/// ```
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<RawCounts>,
    period: Duration,
}

impl Sampler {
    /// Default sampling period: 250 µs — ~4000 samples/s, comfortably
    /// coarser than the publish stride at emulation speeds of a few MIPS.
    pub const DEFAULT_PERIOD: Duration = Duration::from_micros(250);

    /// PC bucket width defining a "block": 64 bytes (16 instructions),
    /// matching `ProfilingObserver::DEFAULT_BUCKET_BYTES` so the two
    /// profiles line up.
    pub const BLOCK_BYTES: u64 = 64;

    /// Spawn the sampler thread reading `snapshot` every `period`
    /// (clamped to at least 50 µs so a mistyped period cannot spin a CPU).
    pub fn start(snapshot: Arc<SampleSnapshot>, period: Duration) -> Sampler {
        let period = period.max(Duration::from_micros(50));
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("hotblock-sampler".into())
            .spawn(move || {
                let mut counts = RawCounts {
                    pcs: HashMap::new(),
                    idle: 0,
                };
                let mut last_instret: Option<u64> = None;
                while !stop_flag.load(Ordering::Relaxed) {
                    std::thread::sleep(period);
                    let Some(s) = snapshot.read() else { continue };
                    if last_instret == Some(s.instret) {
                        counts.idle += 1;
                    } else {
                        last_instret = Some(s.instret);
                        *counts.pcs.entry(s.pc).or_insert(0) += 1;
                    }
                }
                counts
            })
            .expect("spawn sampler thread");
        Sampler {
            stop,
            handle,
            period,
        }
    }

    /// Stop the thread and collect its counts.
    pub fn stop(self) -> SampleProfile {
        self.stop.store(true, Ordering::Relaxed);
        let counts = self.handle.join().expect("sampler thread panicked");
        SampleProfile {
            period: self.period,
            pcs: counts.pcs,
            idle: counts.idle,
        }
    }
}

/// Raw sample counts from one [`Sampler`] run, before symbol attribution.
pub struct SampleProfile {
    period: Duration,
    pcs: HashMap<u64, u64>,
    idle: u64,
}

impl SampleProfile {
    /// Build a profile from pre-counted samples — the deterministic entry
    /// point for tests and offline tools (`pcs` maps a sampled guest PC to
    /// its sample count; PCs need not be block-aligned).
    pub fn from_parts(period: Duration, pcs: HashMap<u64, u64>, idle: u64) -> Self {
        SampleProfile { period, pcs, idle }
    }

    /// Samples attributed to guest PCs.
    pub fn total_samples(&self) -> u64 {
        self.pcs.values().sum()
    }

    /// Reads that found the core idle (not charged to any PC).
    pub fn idle_samples(&self) -> u64 {
        self.idle
    }

    /// Resolve samples to symbols via `regions` (pass `&program.regions`;
    /// an empty slice leaves every block unresolved). Symbols resolve from
    /// the exact sampled PC *before* block bucketing, so a block straddling
    /// a region boundary splits into one row per symbol.
    pub fn attribute(&self, regions: &[Region]) -> HotBlockProfile {
        let mut sorted: Vec<&Region> = regions.iter().collect();
        sorted.sort_by_key(|r| r.start);
        let symbol_of = |pc: u64| -> Option<String> {
            let idx = sorted.partition_point(|r| r.start <= pc);
            let r = sorted.get(idx.checked_sub(1)?)?;
            r.contains(pc).then(|| r.name.clone())
        };
        let mut bucketed: HashMap<(u64, Option<String>), u64> = HashMap::new();
        for (&pc, &samples) in &self.pcs {
            let block = pc & !(Sampler::BLOCK_BYTES - 1);
            *bucketed.entry((block, symbol_of(pc))).or_insert(0) += samples;
        }
        let mut blocks: Vec<HotBlock> = bucketed
            .into_iter()
            .map(|((start, symbol), samples)| HotBlock {
                start,
                samples,
                symbol,
            })
            .collect();
        blocks.sort_by(|a, b| {
            b.samples
                .cmp(&a.samples)
                .then(a.start.cmp(&b.start))
                .then(a.symbol.cmp(&b.symbol))
        });
        let mut by_symbol: HashMap<&str, u64> = HashMap::new();
        let mut other = 0u64;
        for b in &blocks {
            match &b.symbol {
                Some(s) => *by_symbol.entry(s.as_str()).or_insert(0) += b.samples,
                None => other += b.samples,
            }
        }
        let mut symbols: Vec<(String, u64)> = by_symbol
            .into_iter()
            .map(|(s, n)| (s.to_string(), n))
            .collect();
        symbols.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        HotBlockProfile {
            period_us: self.period.as_micros() as u64,
            idle_samples: self.idle,
            blocks,
            symbols,
            other,
        }
    }
}

/// One sampled block: a [`Sampler::BLOCK_BYTES`]-aligned guest PC range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotBlock {
    /// Block start PC.
    pub start: u64,
    /// Samples charged to the block.
    pub samples: u64,
    /// Region/symbol containing the block, when one matched.
    pub symbol: Option<String>,
}

/// Symbol-attributed sampling profile: the renderable end product.
pub struct HotBlockProfile {
    /// Sampling period in microseconds (each sample ≈ this much host time).
    pub period_us: u64,
    /// Reads that found the core idle.
    pub idle_samples: u64,
    /// Blocks, most-sampled first.
    pub blocks: Vec<HotBlock>,
    /// Per-symbol sample totals, most-sampled first.
    pub symbols: Vec<(String, u64)>,
    /// Samples in blocks outside every named region.
    pub other: u64,
}

impl HotBlockProfile {
    /// Total attributed samples.
    pub fn total_samples(&self) -> u64 {
        self.blocks.iter().map(|b| b.samples).sum()
    }

    /// Samples charged to the named symbol.
    pub fn symbol_samples(&self, name: &str) -> u64 {
        self.symbols
            .iter()
            .find(|(s, _)| s == name)
            .map(|(_, n)| *n)
            .unwrap_or(0)
    }

    /// Fraction of attributed samples falling in any of `names` (0 when
    /// nothing was attributed).
    pub fn symbol_fraction(&self, names: &[&str]) -> f64 {
        let total = self.total_samples();
        if total == 0 {
            return 0.0;
        }
        let hit: u64 = names.iter().map(|n| self.symbol_samples(n)).sum();
        hit as f64 / total as f64
    }

    /// Human-readable top-`n` hot-block table with estimated host time.
    pub fn table(&self, n: usize) -> String {
        let total = self.total_samples();
        let mut out = format!(
            "hot blocks: {total} samples @ {} us (~{:.1} ms attributed, {} idle reads)\n",
            self.period_us,
            total as f64 * self.period_us as f64 / 1e3,
            self.idle_samples,
        );
        if total == 0 {
            out.push_str("  (no samples: run too short for the sampling period)\n");
            return out;
        }
        out.push_str(&format!(
            "  {:<18} {:<12} {:>8} {:>9} {:>7}\n",
            "block", "symbol", "samples", "time(ms)", "pct"
        ));
        for b in self.blocks.iter().take(n) {
            out.push_str(&format!(
                "  {:<18} {:<12} {:>8} {:>9.2} {:>6.1}%\n",
                format!("{:#x}", b.start),
                b.symbol.as_deref().unwrap_or("?"),
                b.samples,
                b.samples as f64 * self.period_us as f64 / 1e3,
                b.samples as f64 * 100.0 / total as f64,
            ));
        }
        out.push_str("  per-symbol: ");
        let mut parts: Vec<String> = self
            .symbols
            .iter()
            .map(|(s, c)| format!("{s} {:.0}%", *c as f64 * 100.0 / total as f64))
            .collect();
        if self.other > 0 {
            parts.push(format!(
                "? {:.0}%",
                self.other as f64 * 100.0 / total as f64
            ));
        }
        out.push_str(&parts.join(" | "));
        out.push('\n');
        out
    }

    /// Collapsed-stack lines (`sampler;symbol;0xPC <us>`), sorted for
    /// determinism. The `sampler;` root keeps guest-time frames visually
    /// separate from host span frames when both feed one flamegraph, and
    /// the grammar matches [`Timeline::to_collapsed`](crate::Timeline::to_collapsed)
    /// so outputs concatenate.
    pub fn to_collapsed(&self) -> String {
        let mut merged: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
        for b in &self.blocks {
            let stack = format!(
                "sampler;{};{:#x}",
                b.symbol.as_deref().unwrap_or("?"),
                b.start
            );
            *merged.entry(stack).or_insert(0) += b.samples * self.period_us;
        }
        let mut out = String::new();
        for (stack, us) in merged {
            out.push_str(&format!("{stack} {us}\n"));
        }
        out
    }

    /// JSON object: period, totals, top-`n` blocks, per-symbol totals.
    pub fn to_json(&self, n: usize) -> Json {
        Json::obj(vec![
            ("period_us", Json::Num(self.period_us as f64)),
            ("total_samples", Json::Num(self.total_samples() as f64)),
            ("idle_samples", Json::Num(self.idle_samples as f64)),
            (
                "hot_blocks",
                Json::Arr(
                    self.blocks
                        .iter()
                        .take(n)
                        .map(|b| {
                            Json::obj(vec![
                                ("pc", Json::Str(format!("{:#x}", b.start))),
                                (
                                    "symbol",
                                    match &b.symbol {
                                        Some(s) => Json::Str(s.clone()),
                                        None => Json::Null,
                                    },
                                ),
                                ("samples", Json::Num(b.samples as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "symbols",
                Json::Obj(
                    self.symbols
                        .iter()
                        .map(|(s, c)| (s.clone(), Json::Num(*c as f64)))
                        .collect(),
                ),
            ),
            ("other_samples", Json::Num(self.other as f64)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region(name: &str, start: u64, end: u64) -> Region {
        Region {
            name: name.into(),
            start,
            end,
        }
    }

    fn profile() -> SampleProfile {
        let mut blocks = HashMap::new();
        blocks.insert(0x1000, 60u64); // inside "triad"
        blocks.insert(0x1040, 25); // inside "triad"
        blocks.insert(0x2000, 10); // inside "copy"
        blocks.insert(0x9000, 5); // outside any region
        SampleProfile::from_parts(Duration::from_micros(250), blocks, 3)
    }

    fn regions() -> Vec<Region> {
        vec![
            region("triad", 0x1000, 0x1080),
            region("copy", 0x2000, 0x2040),
        ]
    }

    #[test]
    fn attribution_and_fractions() {
        let p = profile();
        assert_eq!(p.total_samples(), 100);
        assert_eq!(p.idle_samples(), 3);
        let hb = p.attribute(&regions());
        assert_eq!(hb.total_samples(), 100);
        assert_eq!(hb.symbol_samples("triad"), 85);
        assert_eq!(hb.symbol_samples("copy"), 10);
        assert_eq!(hb.other, 5);
        assert!((hb.symbol_fraction(&["triad"]) - 0.85).abs() < 1e-12);
        assert!((hb.symbol_fraction(&["triad", "copy"]) - 0.95).abs() < 1e-12);
        // Blocks sorted by samples descending.
        assert_eq!(hb.blocks[0].start, 0x1000);
        assert_eq!(hb.blocks[0].symbol.as_deref(), Some("triad"));
        // Symbols sorted descending too.
        assert_eq!(hb.symbols[0].0, "triad");
    }

    #[test]
    fn region_starting_mid_block_still_claims_its_pcs() {
        // Block 0x1000..0x1040 holds an unlabelled entry stub (0x1000) and
        // the first instructions of "copy" (0x1020): the block must split
        // into one row per symbol instead of charging everything to "?".
        let mut pcs = HashMap::new();
        pcs.insert(0x1000u64, 4u64);
        pcs.insert(0x1020, 6);
        let hb = SampleProfile::from_parts(Duration::from_micros(250), pcs, 0)
            .attribute(&[region("copy", 0x1020, 0x1100)]);
        assert_eq!(hb.symbol_samples("copy"), 6);
        assert_eq!(hb.other, 4);
        assert_eq!(hb.blocks.len(), 2);
        assert!(hb.blocks.iter().all(|b| b.start == 0x1000));
    }

    #[test]
    fn no_regions_leaves_blocks_unresolved() {
        let hb = profile().attribute(&[]);
        assert!(hb.blocks.iter().all(|b| b.symbol.is_none()));
        assert_eq!(hb.other, 100);
        assert_eq!(hb.symbol_fraction(&["triad"]), 0.0);
    }

    #[test]
    fn table_and_json_render() {
        let hb = profile().attribute(&regions());
        let t = hb.table(3);
        assert!(t.contains("100 samples @ 250 us"), "{t}");
        assert!(t.contains("triad"), "{t}");
        assert!(t.contains("60.0%"), "{t}");
        assert!(t.contains("per-symbol: triad 85% | copy 10% | ? 5%"), "{t}");
        let j = hb.to_json(2);
        assert_eq!(j.get("total_samples").unwrap().as_u64(), Some(100));
        assert_eq!(j.get("hot_blocks").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(
            j.get("symbols").unwrap().get("triad").unwrap().as_u64(),
            Some(85)
        );
        // Empty profile renders a hint instead of a header-only table.
        let empty =
            SampleProfile::from_parts(Duration::from_micros(250), HashMap::new(), 0).attribute(&[]);
        assert!(empty.table(5).contains("no samples"));
    }

    #[test]
    fn collapsed_output_matches_span_grammar() {
        let hb = profile().attribute(&regions());
        let out = hb.to_collapsed();
        assert!(out.contains("sampler;triad;0x1000 15000\n"), "{out}");
        assert!(out.contains("sampler;?;0x9000 1250\n"), "{out}");
        for line in out.lines() {
            let (stack, n) = line.rsplit_once(' ').unwrap();
            assert!(stack.starts_with("sampler;"));
            n.parse::<u64>().expect("numeric self time");
        }
    }

    #[test]
    fn live_sampler_thread_charges_running_core() {
        let snap = Arc::new(SampleSnapshot::new());
        let sampler = Sampler::start(Arc::clone(&snap), Duration::from_micros(100));
        // Emulate a core advancing instret at a fixed pc bucket.
        for i in 0..100u64 {
            snap.publish(0x4000 + (i % 16) * 4, i * 64);
            std::thread::sleep(Duration::from_micros(200));
        }
        let profile = sampler.stop();
        assert!(
            profile.total_samples() > 0,
            "sampler never saw the advancing core"
        );
        let hb = profile.attribute(&[region("kernel", 0x4000, 0x4100)]);
        assert_eq!(hb.other, 0, "all samples must land in the kernel region");
        assert!(hb.symbol_fraction(&["kernel"]) > 0.99);
    }

    #[test]
    fn stale_snapshot_counts_as_idle() {
        let snap = Arc::new(SampleSnapshot::new());
        snap.publish(0x4000, 42);
        let sampler = Sampler::start(Arc::clone(&snap), Duration::from_micros(100));
        std::thread::sleep(Duration::from_millis(20));
        let profile = sampler.stop();
        // First read attributes once; every later read sees the same
        // instret and must count as idle.
        assert_eq!(profile.total_samples(), 1);
        assert!(profile.idle_samples() > 0);
    }
}
