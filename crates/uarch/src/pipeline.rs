//! Trace-driven pipeline timing models (the paper's §8 Future Work).
//!
//! Both models consume the retirement stream as [`simcore::Observer`]s and
//! estimate cycle counts under finite resources, assuming perfect branch
//! prediction and ideal caches (L1-hit load latency) — the same idealising
//! assumptions as the paper's windowed analysis, but with real issue
//! widths, ROB sizes and execution latencies.
//!
//! * [`InOrderCore`] — dual-issue in-order (Cortex-A55 / SiFive-7-class,
//!   the `-mtune` targets the paper compiled for);
//! * [`OoOCore`] — out-of-order with a ROB, issue width and per-class
//!   functional units (TX2-class by default).

use std::marker::PhantomData;

use simcore::{DepTable, InstGroup, Observer, RetiredInst};

use crate::cache::{CacheConfig, CacheModel};
use crate::latency::LatencyModel;

/// Resource configuration for the pipeline models.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Instructions fetched/issued per cycle.
    pub width: u64,
    /// Reorder-buffer entries (ignored by the in-order model).
    pub rob: usize,
    /// Functional units per class: (FP pipes, integer pipes, load/store
    /// pipes). Branches issue on integer pipes.
    pub fp_units: u64,
    /// Integer pipes.
    pub int_units: u64,
    /// Load/store pipes.
    pub mem_units: u64,
}

impl PipelineConfig {
    /// Dual-issue in-order configuration (Cortex-A55-class).
    pub fn a55() -> Self {
        PipelineConfig {
            width: 2,
            rob: 1,
            fp_units: 1,
            int_units: 2,
            mem_units: 1,
        }
    }

    /// ThunderX2-class OoO: 4-wide, 180-entry ROB.
    pub fn tx2() -> Self {
        PipelineConfig {
            width: 4,
            rob: 180,
            fp_units: 2,
            int_units: 2,
            mem_units: 2,
        }
    }

    /// Apple-M1-Firestorm-class OoO: 8-wide, ~630-entry ROB (the largest
    /// modern ROB the paper cites).
    pub fn firestorm() -> Self {
        PipelineConfig {
            width: 8,
            rob: 630,
            fp_units: 4,
            int_units: 6,
            mem_units: 3,
        }
    }
}

/// Cycle statistics from a pipeline run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineStats {
    /// Total cycles.
    pub cycles: u64,
    /// Instructions retired.
    pub retired: u64,
}

impl PipelineStats {
    /// Cycles per instruction.
    pub fn cpi(&self) -> f64 {
        self.cycles as f64 / self.retired.max(1) as f64
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.retired as f64 / self.cycles.max(1) as f64
    }

    /// Estimated runtime in milliseconds at `clock_ghz`.
    pub fn runtime_ms(&self, clock_ghz: f64) -> f64 {
        self.cycles as f64 / (clock_ghz * 1e6)
    }
}

/// A model's latency for each group, by [`InstGroup::code`]: filled once,
/// so a retirement costs one index instead of a call into the model.
type Latencies = [u64; InstGroup::ALL.len()];

fn latencies<M: LatencyModel>(model: &M) -> Latencies {
    InstGroup::ALL.map(|g| model.latency(g))
}

fn unit_class(group: InstGroup) -> usize {
    // 0 = FP, 1 = integer (incl. branch/system), 2 = memory.
    match group {
        g if g.is_fp() => 0,
        InstGroup::Load | InstGroup::Store | InstGroup::Atomic => 2,
        _ => 1,
    }
}

/// Optional L1D timing attached to a pipeline model: on a miss, a load's
/// latency becomes `miss_penalty` instead of the model's L1-hit latency.
struct DCache {
    cache: CacheModel,
    miss_penalty: u64,
}

fn dcache_extra(dcache: &mut Option<DCache>, ri: &RetiredInst) -> u64 {
    let Some(d) = dcache.as_mut() else { return 0 };
    let mut all_hit = true;
    for a in ri.mem_reads() {
        all_hit &= d.cache.access_sized(a.addr, a.size);
    }
    for a in ri.mem_writes() {
        // Stores allocate/update but don't stall the pipe (write buffer).
        d.cache.access_sized(a.addr, a.size);
    }
    if ri.group == InstGroup::Load && !all_hit {
        d.miss_penalty
    } else {
        0
    }
}

/// Dual-issue, in-order, stall-on-use pipeline model.
pub struct InOrderCore<M: LatencyModel> {
    latency: Latencies,
    model: PhantomData<M>,
    config: PipelineConfig,
    cycle: u64,
    issued_this_cycle: u64,
    /// Completion cycle of the value in each location.
    ready: DepTable<u64>,
    retired: u64,
    done_max: u64,
    dcache: Option<DCache>,
}

impl<M: LatencyModel> InOrderCore<M> {
    /// Create an in-order core with the given latency model and resources.
    pub fn new(model: M, config: PipelineConfig) -> Self {
        InOrderCore {
            latency: latencies(&model),
            model: PhantomData,
            config,
            cycle: 0,
            issued_this_cycle: 0,
            ready: DepTable::new(),
            retired: 0,
            done_max: 0,
            dcache: None,
        }
    }

    /// Attach an L1D model: loads that miss take `miss_penalty` cycles.
    pub fn with_dcache(mut self, config: CacheConfig, miss_penalty: u64) -> Self {
        self.dcache = Some(DCache {
            cache: CacheModel::new(config),
            miss_penalty,
        });
        self
    }

    /// Final statistics (cycles = completion time of the last instruction).
    pub fn stats(&self) -> PipelineStats {
        PipelineStats {
            cycles: self.done_max,
            retired: self.retired,
        }
    }
}

impl<M: LatencyModel> Observer for InOrderCore<M> {
    fn on_retire(&mut self, ri: &RetiredInst) {
        // Issue constraint: `width` instructions per cycle, in order.
        if self.issued_this_cycle >= self.config.width {
            self.cycle += 1;
            self.issued_this_cycle = 0;
        }
        // Stall until sources are ready (in-order: the whole front stalls).
        let ready = self.ready.fold_reads(ri, self.cycle, u64::max);
        if ready > self.cycle {
            self.cycle = ready;
            self.issued_this_cycle = 0;
        }
        let done = self.cycle
            + self.latency[ri.group.code() as usize]
            + dcache_extra(&mut self.dcache, ri);
        self.done_max = self.done_max.max(done);
        self.ready.write(ri, done);
        self.issued_this_cycle += 1;
        self.retired += 1;
    }
}

/// Out-of-order pipeline model: finite ROB, issue width and functional
/// units, perfect branch prediction and renaming.
pub struct OoOCore<M: LatencyModel> {
    latency: Latencies,
    model: PhantomData<M>,
    config: PipelineConfig,
    /// Completion cycle of the value in each location.
    ready: DepTable<u64>,
    /// Retire cycle of the i-th most recent instruction (ring, ROB-sized).
    rob_retire: Vec<u64>,
    rob_head: usize,
    /// Next free cycle per functional-unit class pipe.
    fu_free: [Vec<u64>; 3],
    index: u64,
    last_retire: u64,
    last_done_max: u64,
    dcache: Option<DCache>,
}

impl<M: LatencyModel> OoOCore<M> {
    /// Create an OoO core with the given latency model and resources.
    pub fn new(model: M, config: PipelineConfig) -> Self {
        let fu_free = [
            vec![0u64; config.fp_units as usize],
            vec![0u64; config.int_units as usize],
            vec![0u64; config.mem_units as usize],
        ];
        OoOCore {
            latency: latencies(&model),
            model: PhantomData,
            ready: DepTable::new(),
            rob_retire: vec![0; config.rob.max(1)],
            rob_head: 0,
            fu_free,
            index: 0,
            last_retire: 0,
            last_done_max: 0,
            dcache: None,
            config,
        }
    }

    /// Attach an L1D model: loads that miss take `miss_penalty` cycles.
    pub fn with_dcache(mut self, config: CacheConfig, miss_penalty: u64) -> Self {
        self.dcache = Some(DCache {
            cache: CacheModel::new(config),
            miss_penalty,
        });
        self
    }

    /// Final statistics (cycles = completion time of the last instruction).
    pub fn stats(&self) -> PipelineStats {
        PipelineStats {
            cycles: self.last_done_max.max(self.last_retire),
            retired: self.index,
        }
    }
}

impl<M: LatencyModel> Observer for OoOCore<M> {
    fn on_retire(&mut self, ri: &RetiredInst) {
        // Dispatch: bounded by fetch width and by ROB occupancy (cannot
        // dispatch until the instruction `rob` places earlier retired).
        let width_cycle = self.index / self.config.width;
        let rob_cycle = self.rob_retire[self.rob_head];
        let dispatch = width_cycle.max(rob_cycle);

        // Operand readiness.
        let ready = self.ready.fold_reads(ri, dispatch, u64::max);

        // Functional-unit contention: pick the earliest-free pipe of the
        // class, but not before `ready`.
        let class = unit_class(ri.group);
        let (best, _) = self.fu_free[class]
            .iter()
            .enumerate()
            .min_by_key(|(_, &free)| free)
            .map(|(i, &free)| (i, free))
            .unwrap();
        let start = ready.max(self.fu_free[class][best]);
        self.fu_free[class][best] = start + 1; // pipelined unit: 1/cycle
        let done =
            start + self.latency[ri.group.code() as usize] + dcache_extra(&mut self.dcache, ri);
        self.ready.write(ri, done);

        // In-order retirement.
        let retire = done.max(self.last_retire);
        self.last_retire = retire;
        self.last_done_max = self.last_done_max.max(done);
        self.rob_retire[self.rob_head] = retire;
        self.rob_head = (self.rob_head + 1) % self.rob_retire.len();
        self.index += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::{A64fxLatency, Tx2Latency, UnitLatency};
    use simcore::{RegId, RegSet};

    fn alu(dst: u8, srcs: &[u8]) -> RetiredInst {
        let mut ri = RetiredInst::new(0, InstGroup::IntAlu);
        ri.dsts = RegSet::of(&[RegId::Int(dst)]);
        ri.srcs = srcs.iter().map(|&r| RegId::Int(r)).collect();
        ri
    }

    fn fp(dst: u8, srcs: &[u8]) -> RetiredInst {
        let mut ri = RetiredInst::new(0, InstGroup::FpAdd);
        ri.dsts = RegSet::of(&[RegId::Fp(dst)]);
        ri.srcs = srcs.iter().map(|&r| RegId::Fp(r)).collect();
        ri
    }

    #[test]
    fn latency_tables_match_the_model_for_every_group() {
        fn check(model: impl LatencyModel + Clone) {
            let in_order = InOrderCore::new(model.clone(), PipelineConfig::a55());
            let ooo = OoOCore::new(model.clone(), PipelineConfig::tx2());
            for g in InstGroup::ALL {
                let want = model.latency(g);
                let at = g.code() as usize;
                assert_eq!(in_order.latency[at], want, "{} {g:?}", model.name());
                assert_eq!(ooo.latency[at], want, "{} {g:?}", model.name());
            }
        }
        check(Tx2Latency);
        check(A64fxLatency);
        check(UnitLatency);
        let mut custom = Tx2Latency::table();
        custom.name = "custom".into();
        custom.fp_fma = 9;
        custom.int_div = 40;
        check(custom);
    }

    #[test]
    fn independent_ops_dual_issue() {
        let mut core = InOrderCore::new(UnitLatency, PipelineConfig::a55());
        for i in 0..8u8 {
            core.on_retire(&alu(i, &[]));
        }
        // 8 independent ALU ops on a 2-wide machine: 4 cycles.
        assert_eq!(core.stats().cycles, 4);
    }

    #[test]
    fn dependent_chain_serialises_in_order() {
        let mut core = InOrderCore::new(Tx2Latency, PipelineConfig::a55());
        for _ in 0..4 {
            core.on_retire(&fp(0, &[0])); // serial fadd chain
        }
        // Each fadd waits 6 cycles for the previous: >= 18 cycles.
        assert!(core.stats().cycles >= 18, "got {}", core.stats().cycles);
    }

    #[test]
    fn ooo_hides_independent_latency() {
        // Two back-to-back FP chains: the OoO core overlaps the second
        // chain with the first; the in-order core must finish issuing the
        // first chain before the second starts making progress.
        let seq: Vec<RetiredInst> = (0..20)
            .map(|i| if i < 10 { fp(0, &[0]) } else { fp(1, &[1]) })
            .collect();
        let mut ino = InOrderCore::new(Tx2Latency, PipelineConfig::a55());
        let mut ooo = OoOCore::new(Tx2Latency, PipelineConfig::tx2());
        for ri in &seq {
            ino.on_retire(ri);
            ooo.on_retire(ri);
        }
        assert!(
            ooo.stats().cycles < ino.stats().cycles,
            "ooo {} should beat in-order {}",
            ooo.stats().cycles,
            ino.stats().cycles
        );
    }

    #[test]
    fn rob_limits_lookahead() {
        // One long dependent chain followed by independent work: a tiny ROB
        // cannot run ahead of the chain; a big ROB can.
        let mut seq = Vec::new();
        for _ in 0..50 {
            seq.push(fp(0, &[0]));
        }
        for i in 0..200u8 {
            seq.push(alu(1 + (i % 20), &[]));
        }
        let small = PipelineConfig {
            rob: 4,
            ..PipelineConfig::tx2()
        };
        let mut small_core = OoOCore::new(Tx2Latency, small);
        let mut big_core = OoOCore::new(Tx2Latency, PipelineConfig::tx2());
        for ri in &seq {
            small_core.on_retire(ri);
            big_core.on_retire(ri);
        }
        assert!(
            big_core.stats().cycles < small_core.stats().cycles,
            "big ROB {} should beat small ROB {}",
            big_core.stats().cycles,
            small_core.stats().cycles
        );
    }

    #[test]
    fn memory_dependency_through_store_load() {
        let mut store = RetiredInst::new(0, InstGroup::Store);
        store.push_write(0x100, 8);
        let mut load = RetiredInst::new(4, InstGroup::Load);
        load.push_read(0x100, 8);
        load.dsts = RegSet::of(&[RegId::Int(1)]);

        let mut core = OoOCore::new(Tx2Latency, PipelineConfig::tx2());
        core.on_retire(&store);
        core.on_retire(&load);
        let dependent = core.stats().cycles;

        let mut load2 = load;
        load2.set_accesses([0x200, 0], [8, 0], 1, 0);
        let mut core2 = OoOCore::new(Tx2Latency, PipelineConfig::tx2());
        core2.on_retire(&store);
        core2.on_retire(&load2);
        assert!(core2.stats().cycles <= dependent);
    }

    #[test]
    fn dcache_misses_slow_the_core() {
        use crate::cache::CacheConfig;
        // Strided loads that miss every line vs the same core without a
        // cache: the cached core must take longer.
        let mk_load = |i: u64| {
            let mut ri = RetiredInst::new(0, InstGroup::Load);
            ri.push_read(i * 4096, 8); // new page every time: all misses
            ri.dsts = RegSet::of(&[RegId::Int(1)]);
            ri
        };
        let mut ideal = OoOCore::new(Tx2Latency, PipelineConfig::tx2());
        let mut cached = OoOCore::new(Tx2Latency, PipelineConfig::tx2())
            .with_dcache(CacheConfig::l1d_32k(), 100);
        for i in 0..50 {
            ideal.on_retire(&mk_load(i));
            cached.on_retire(&mk_load(i));
        }
        // Independent misses overlap in the OoO core (memory-level
        // parallelism), so the penalty shows up once at the tail, not
        // 50 times serially.
        assert!(
            cached.stats().cycles >= ideal.stats().cycles + 90,
            "cached {} vs ideal {}",
            cached.stats().cycles,
            ideal.stats().cycles
        );
        // Hot loads (same line) pay no penalty after the first.
        let mut hot = InOrderCore::new(Tx2Latency, PipelineConfig::a55())
            .with_dcache(CacheConfig::l1d_32k(), 100);
        let mut hot_ideal = InOrderCore::new(Tx2Latency, PipelineConfig::a55());
        for _ in 0..50 {
            let mut ri = RetiredInst::new(0, InstGroup::Load);
            ri.push_read(0x100, 8);
            hot.on_retire(&ri);
            hot_ideal.on_retire(&ri);
        }
        assert!(hot.stats().cycles <= hot_ideal.stats().cycles + 100);
    }

    #[test]
    fn stats_derived_metrics() {
        let s = PipelineStats {
            cycles: 2000,
            retired: 1000,
        };
        assert_eq!(s.cpi(), 2.0);
        assert_eq!(s.ipc(), 0.5);
        assert!((s.runtime_ms(2.0) - 0.001).abs() < 1e-12);
    }
}
