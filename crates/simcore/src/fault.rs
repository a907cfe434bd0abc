//! Deterministic fault injection.
//!
//! A [`FaultPlan`] describes exactly one fault to inject into an emulation
//! run: force a trap at a chosen retirement count, corrupt the instruction
//! word about to be fetched, or flip a bit in the value returned by the Nth
//! guest memory read. Plans are parsed from compact CLI specs
//! (`trap@N`, `fetch@N[:MASK]`, `read@N[:BIT]`) and are fully
//! deterministic: unspecified bit positions and corruption masks are
//! derived from a SplitMix64 stream seeded by [`FaultPlan::with_seed`]
//! (default [`DEFAULT_FAULT_SEED`]), so the same spec + seed always
//! produces the same fault.
//!
//! A [`Campaign`] scales this from one fault to a seeded *schedule* of
//! many: `Campaign::sample(seed, n, window)` draws `n` fully explicit
//! plans from a SplitMix64 stream (the same generator as the workloads'
//! `DeckRng` input decks), so an entire coverage sweep is replayable from
//! its seed alone. Each plan's canonical spec is recoverable via
//! [`FaultPlan::spec`], which is what campaign manifests serialize.
//!
//! Injection is driven by the [`FaultInjector`] hook — the pre-step
//! counterpart of [`crate::Observer`]. An injector names the retirement
//! counts at which it acts ([`FaultInjector::next_due`]); the
//! [`EmulationCore`](crate::EmulationCore) treats each as one more fuel
//! boundary of its retire loop and calls `before_step` there (see
//! `EmulationCore::with_injector`). The uarch pipeline and cache models
//! are observers of that same core, so they see the same faults.
//! Read-value flips are armed directly on the [`Memory`](crate::Memory)
//! at the start of the run (several can be armed at once); arming one
//! flushes the executor's decode caches, so every fetch is counted.
//!
//! The layer exists to *prove* the harness's fault tolerance: checksum
//! verification must catch silent data corruption, and the experiment
//! matrix must degrade each injected failure to an `ERR` cell instead of
//! losing the whole run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::SimError;
use crate::state::CpuState;

/// Seed used when the caller does not pick one ("FA17" ~ "fault").
pub const DEFAULT_FAULT_SEED: u64 = 0xFA17_FA17_FA17_FA17;

/// One step of a SplitMix64 stream (same generator as the workloads'
/// `DeckRng` input decks — tiny, seedable, and identical everywhere).
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What kind of fault a plan injects, and when.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// Raise [`SimError::Fault`] just before the instruction at retirement
    /// count `at_instret` executes (a forced machine check).
    TrapAt {
        /// Retirement count at which the trap fires.
        at_instret: u64,
    },
    /// XOR the instruction word at the current PC with `mask` just before
    /// the instruction at retirement count `at_instret` executes — a
    /// persistent bit flip in instruction memory. `None` derives a
    /// non-zero mask from the seed.
    CorruptFetch {
        /// Retirement count at which the word is corrupted.
        at_instret: u64,
        /// XOR mask; `None` = derived from the seed.
        mask: Option<u32>,
    },
    /// Flip one bit of the value returned by the Nth guest memory read
    /// (1-based, counting every sized read including instruction fetches).
    /// The stored memory is untouched — a transient read upset. `None`
    /// derives the bit index from the seed.
    FlipRead {
        /// Which read to corrupt (1-based).
        nth: u64,
        /// Bit to flip (modulo the read width); `None` = derived.
        bit: Option<u32>,
    },
}

/// Action requested by a [`FaultInjector`] after mutating guest state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectAction {
    /// Nothing to do; proceed with the step.
    Continue,
    /// Instruction memory changed, or a read flip armed that must count
    /// every fetch: the executor must drop cached decodes.
    FlushDecodeCache,
}

/// Pre-step hook consulted by the emulation core — the fault-injection
/// counterpart of [`crate::Observer`]. Called with the retirement count the
/// next step will have; may mutate state, request a decode-cache flush, or
/// abort the run with an injected [`SimError`].
pub trait FaultInjector {
    /// Called before a step; `retired` is the number of instructions
    /// retired so far (0 before the first).
    fn before_step(&mut self, state: &mut CpuState, retired: u64)
        -> Result<InjectAction, SimError>;

    /// The first retirement count, at or after `retired`, at which
    /// [`FaultInjector::before_step`] would act; `None` when it never will
    /// again. The core calls `before_step` only at these counts, so a call
    /// at any other count must be a no-op. The default, `Some(retired)`,
    /// asks to be consulted before every step.
    fn next_due(&self, retired: u64) -> Option<u64> {
        Some(retired)
    }
}

/// A deterministic single-fault plan. See the module docs for the spec
/// grammar. Cloning a plan re-arms it (the fired flag is per-instance), so
/// retries of a failed cell deterministically re-inject the same fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    kind: FaultKind,
    seed: u64,
    fired: bool,
}

impl FaultPlan {
    /// Build a plan from a kind, with the default seed.
    pub fn new(kind: FaultKind) -> Self {
        FaultPlan {
            kind,
            seed: DEFAULT_FAULT_SEED,
            fired: false,
        }
    }

    /// Parse a CLI spec: `trap@N`, `fetch@N[:MASK]` (mask hex with `0x` or
    /// decimal), or `read@N[:BIT]`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (what, rest) = spec
            .split_once('@')
            .ok_or_else(|| format!("bad fault spec {spec:?}: expected <kind>@<n>[:arg]"))?;
        let (n_str, arg) = match rest.split_once(':') {
            Some((n, a)) => (n, Some(a)),
            None => (rest, None),
        };
        let n: u64 = n_str
            .parse()
            .map_err(|_| format!("bad fault spec {spec:?}: {n_str:?} is not a count"))?;
        let kind = match what {
            "trap" => {
                if arg.is_some() {
                    return Err(format!("bad fault spec {spec:?}: trap takes no argument"));
                }
                FaultKind::TrapAt { at_instret: n }
            }
            "fetch" => {
                let mask = arg
                    .map(|a| parse_u64_maybe_hex(a).map(|v| v as u32))
                    .transpose()
                    .map_err(|e| format!("bad fault spec {spec:?}: {e}"))?;
                if mask == Some(0) {
                    return Err(format!(
                        "bad fault spec {spec:?}: a zero mask flips nothing"
                    ));
                }
                FaultKind::CorruptFetch {
                    at_instret: n,
                    mask,
                }
            }
            "read" => {
                let bit = arg
                    .map(|a| {
                        a.parse::<u32>()
                            .map_err(|_| format!("{a:?} is not a bit index"))
                    })
                    .transpose()
                    .map_err(|e| format!("bad fault spec {spec:?}: {e}"))?;
                if n == 0 {
                    return Err(format!("bad fault spec {spec:?}: reads are counted from 1"));
                }
                FaultKind::FlipRead { nth: n, bit }
            }
            other => {
                return Err(format!(
                    "bad fault spec {spec:?}: unknown kind {other:?} (trap, fetch, read)"
                ))
            }
        };
        Ok(FaultPlan::new(kind))
    }

    /// Replace the seed used to derive unspecified masks / bit indices.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The planned fault.
    pub fn kind(&self) -> &FaultKind {
        &self.kind
    }

    /// Whether this plan instance has already fired.
    pub fn fired(&self) -> bool {
        self.fired
    }

    /// Force the fired flag (checkpoint-restore path: a restored run must
    /// not re-inject faults that fired before the snapshot).
    pub fn set_fired(&mut self, fired: bool) {
        self.fired = fired;
    }

    /// Whether this plan *would have fired* by the time `retired`
    /// instructions have retired, given the injector's polling discipline
    /// (`before_step` consulted with `retired` = 0, 1, 2, ... before each
    /// step). `FlipRead` arms on the very first poll; `trap`/`fetch` fire
    /// on the poll where `retired == at_instret`. This is how a checkpoint
    /// taken at a step boundary reconstructs fired flags without access to
    /// the boxed injector the core owns.
    pub fn fired_by(&self, retired: u64) -> bool {
        match self.kind {
            FaultKind::FlipRead { .. } => retired > 0,
            FaultKind::TrapAt { at_instret } | FaultKind::CorruptFetch { at_instret, .. } => {
                at_instret < retired
            }
        }
    }

    /// The XOR mask a `fetch` fault will apply (explicit or seed-derived,
    /// always non-zero).
    pub fn fetch_mask(&self) -> u32 {
        match self.kind {
            FaultKind::CorruptFetch { mask: Some(m), .. } => m,
            _ => {
                let mut s = self.seed;
                (splitmix64(&mut s) as u32) | 1
            }
        }
    }

    /// The bit index a `read` fault will flip (explicit or seed-derived;
    /// reduced modulo the read width when applied).
    pub fn read_bit(&self) -> u32 {
        match self.kind {
            FaultKind::FlipRead { bit: Some(b), .. } => b,
            _ => {
                let mut s = self.seed;
                let _ = splitmix64(&mut s); // first draw feeds fetch_mask
                (splitmix64(&mut s) % 64) as u32
            }
        }
    }

    /// Compact human description (for logs and `ERR` cell details).
    pub fn describe(&self) -> String {
        match &self.kind {
            FaultKind::TrapAt { at_instret } => format!("forced trap at instret {at_instret}"),
            FaultKind::CorruptFetch { at_instret, .. } => format!(
                "instruction word xor {:#010x} at instret {at_instret}",
                self.fetch_mask()
            ),
            FaultKind::FlipRead { nth, .. } => {
                format!("bit {} flip on memory read #{nth}", self.read_bit())
            }
        }
    }

    /// Canonical replayable spec for this plan, in the grammar accepted by
    /// [`FaultPlan::parse`]. Derived arguments are made explicit
    /// (`fetch@N:0xMASK`, `read@N:B`), so a spec written into a campaign
    /// manifest reproduces the exact same fault regardless of seed.
    pub fn spec(&self) -> String {
        match &self.kind {
            FaultKind::TrapAt { at_instret } => format!("trap@{at_instret}"),
            FaultKind::CorruptFetch { at_instret, .. } => {
                format!("fetch@{at_instret}:{:#x}", self.fetch_mask())
            }
            FaultKind::FlipRead { nth, .. } => format!("read@{nth}:{}", self.read_bit()),
        }
    }

    /// Draw one fully explicit plan from a SplitMix64 stream. Injection
    /// points are sampled uniformly from `1..=window` (retirement counts
    /// for `trap`/`fetch`, 1-based read ordinals for `read`); masks and bit
    /// indices are always made explicit so [`FaultPlan::spec`] round-trips.
    pub fn sample(stream: &mut u64, window: u64) -> Self {
        let window = window.max(1);
        let at = 1 + splitmix64(stream) % window;
        let kind = match splitmix64(stream) % 3 {
            0 => FaultKind::TrapAt { at_instret: at },
            1 => {
                let mask = (splitmix64(stream) as u32) | 1; // non-zero
                FaultKind::CorruptFetch {
                    at_instret: at,
                    mask: Some(mask),
                }
            }
            _ => {
                let bit = (splitmix64(stream) % 64) as u32;
                FaultKind::FlipRead {
                    nth: at,
                    bit: Some(bit),
                }
            }
        };
        FaultPlan::new(kind)
    }
}

/// Default sampling window for campaign injection points. Chosen so that
/// every Test-size workload (shortest path: ~4.3k retirements) executes
/// past any sampled target — a campaign fault always has the chance to
/// fire rather than landing beyond the end of the run.
pub const DEFAULT_CAMPAIGN_WINDOW: u64 = 4096;

/// Parsed form of the CLI campaign spec `<seed>:<n-faults>` (seed decimal
/// or `0x` hex).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignSpec {
    /// SplitMix64 seed the schedule is drawn from.
    pub seed: u64,
    /// How many faults to sample.
    pub n_faults: usize,
}

impl CampaignSpec {
    /// Parse `<seed>:<n-faults>`, e.g. `42:6` or `0xfa17:12`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (seed_str, n_str) = spec
            .split_once(':')
            .ok_or_else(|| format!("bad campaign spec {spec:?}: expected <seed>:<n-faults>"))?;
        let seed = parse_u64_maybe_hex(seed_str)
            .map_err(|e| format!("bad campaign spec {spec:?}: {e}"))?;
        let n_faults: usize = n_str
            .parse()
            .map_err(|_| format!("bad campaign spec {spec:?}: {n_str:?} is not a fault count"))?;
        if n_faults == 0 {
            return Err(format!(
                "bad campaign spec {spec:?}: a campaign needs at least one fault"
            ));
        }
        Ok(CampaignSpec { seed, n_faults })
    }
}

/// A seeded schedule of many faults injected into one run.
///
/// Sampling is pure SplitMix64, so `Campaign::sample(seed, n, window)`
/// always yields the same schedule; the sampled plans are fully explicit
/// (see [`FaultPlan::sample`]) so the whole campaign serializes to specs
/// and replays exactly. The campaign implements [`FaultInjector`] by
/// polling every still-armed plan each step; clones share a fired counter
/// (an `Arc`), so the caller can observe how many faults actually fired
/// even after handing a boxed clone to a core.
#[derive(Debug, Clone)]
pub struct Campaign {
    plans: Vec<FaultPlan>,
    seed: u64,
    fired: Arc<AtomicU64>,
}

impl Campaign {
    /// Draw `n` plans from a SplitMix64 stream seeded with `seed`.
    pub fn sample(seed: u64, n: usize, window: u64) -> Self {
        let mut stream = seed;
        let plans = (0..n)
            .map(|_| FaultPlan::sample(&mut stream, window))
            .collect();
        Campaign {
            plans,
            seed,
            fired: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Build a campaign from explicit plans (e.g. replayed from a
    /// manifest's spec strings).
    pub fn from_plans(plans: Vec<FaultPlan>, seed: u64) -> Self {
        Campaign {
            plans,
            seed,
            fired: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Append one more plan to the schedule.
    pub fn push(&mut self, plan: FaultPlan) {
        self.plans.push(plan);
    }

    /// The scheduled plans, in injection-priority order.
    pub fn plans(&self) -> &[FaultPlan] {
        &self.plans
    }

    /// The seed the schedule was sampled from (or tagged with).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// True when the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// How many faults have fired so far, across every clone of this
    /// campaign (the counter is shared).
    pub fn fired_count(&self) -> u64 {
        self.fired.load(Ordering::SeqCst)
    }

    /// Compact human description (for logs and `ERR` cell details).
    pub fn describe(&self) -> String {
        format!(
            "campaign seed {:#x}: {} fault(s) scheduled",
            self.seed,
            self.plans.len()
        )
    }

    /// Restore per-plan fired flags and the shared fired counter from a
    /// checkpoint: plans marked fired will not re-inject, and
    /// [`Campaign::fired_count`] resumes from the snapshot's value.
    pub fn restore_fired(&mut self, fired_flags: &[bool], fired_count: u64) {
        for (plan, &fired) in self.plans.iter_mut().zip(fired_flags) {
            plan.set_fired(fired);
        }
        self.fired.store(fired_count, Ordering::SeqCst);
    }
}

impl FaultInjector for Campaign {
    fn next_due(&self, retired: u64) -> Option<u64> {
        self.plans.iter().filter_map(|p| p.next_due(retired)).min()
    }

    fn before_step(
        &mut self,
        state: &mut CpuState,
        retired: u64,
    ) -> Result<InjectAction, SimError> {
        let mut action = InjectAction::Continue;
        for plan in &mut self.plans {
            if plan.fired {
                continue;
            }
            let res = plan.before_step(state, retired);
            if plan.fired {
                self.fired.fetch_add(1, Ordering::SeqCst);
            }
            match res? {
                InjectAction::Continue => {}
                InjectAction::FlushDecodeCache => action = InjectAction::FlushDecodeCache,
            }
        }
        Ok(action)
    }
}

fn parse_u64_maybe_hex(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|_| format!("{s:?} is not a number"))
}

impl FaultInjector for FaultPlan {
    /// `trap@N` and `fetch@N` act once, at `N`; an unfired `read@N` acts
    /// on the first poll, where it arms the flip on the memory.
    fn next_due(&self, retired: u64) -> Option<u64> {
        if self.fired {
            return None;
        }
        match self.kind {
            FaultKind::FlipRead { .. } => Some(retired),
            FaultKind::TrapAt { at_instret } | FaultKind::CorruptFetch { at_instret, .. } => {
                (at_instret >= retired).then_some(at_instret)
            }
        }
    }

    fn before_step(
        &mut self,
        state: &mut CpuState,
        retired: u64,
    ) -> Result<InjectAction, SimError> {
        if self.fired {
            return Ok(InjectAction::Continue);
        }
        match self.kind {
            FaultKind::FlipRead { nth, .. } => {
                // Armed once, on the memory itself, before the first step.
                // Decodes cached by an earlier run on a shared executor
                // would skip fetches the flip must count, so drop them.
                self.fired = true;
                state.mem.arm_read_fault(nth, self.read_bit());
                Ok(InjectAction::FlushDecodeCache)
            }
            FaultKind::TrapAt { at_instret } if retired == at_instret => {
                self.fired = true;
                Err(SimError::Fault {
                    pc: state.pc,
                    msg: format!("injected fault: {}", self.describe()),
                })
            }
            FaultKind::CorruptFetch { at_instret, .. } if retired == at_instret => {
                self.fired = true;
                let word = state.mem.read_u32(state.pc)?;
                state.mem.write_u32(state.pc, word ^ self.fetch_mask())?;
                Ok(InjectAction::FlushDecodeCache)
            }
            _ => Ok(InjectAction::Continue),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_moves() {
        let mut a = 42;
        let mut b = 42;
        let x = splitmix64(&mut a);
        assert_eq!(x, splitmix64(&mut b));
        assert_ne!(splitmix64(&mut a), x, "stream must advance");
    }

    #[test]
    fn parse_all_kinds() {
        assert_eq!(
            FaultPlan::parse("trap@1000").unwrap().kind(),
            &FaultKind::TrapAt { at_instret: 1000 }
        );
        assert_eq!(
            FaultPlan::parse("fetch@7:0xdead").unwrap().kind(),
            &FaultKind::CorruptFetch {
                at_instret: 7,
                mask: Some(0xDEAD)
            }
        );
        assert_eq!(
            FaultPlan::parse("read@5:63").unwrap().kind(),
            &FaultKind::FlipRead {
                nth: 5,
                bit: Some(63)
            }
        );
        assert_eq!(
            FaultPlan::parse("read@5").unwrap().kind(),
            &FaultKind::FlipRead { nth: 5, bit: None }
        );
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "",
            "trap",
            "trap@",
            "trap@x",
            "trap@3:1",
            "boom@3",
            "read@0",
            "fetch@1:0x0",
            "fetch@1:zz",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn derived_values_are_seed_deterministic() {
        let a = FaultPlan::parse("fetch@10").unwrap();
        let b = FaultPlan::parse("fetch@10").unwrap();
        assert_eq!(a.fetch_mask(), b.fetch_mask());
        assert_ne!(a.fetch_mask(), 0);
        let c = FaultPlan::parse("fetch@10").unwrap().with_seed(1);
        assert_ne!(
            c.fetch_mask(),
            a.fetch_mask(),
            "different seed, different mask"
        );
        let r1 = FaultPlan::parse("read@3").unwrap();
        let r2 = FaultPlan::parse("read@3").unwrap();
        assert_eq!(r1.read_bit(), r2.read_bit());
        assert!(r1.read_bit() < 64);
    }

    #[test]
    fn trap_fires_exactly_once_at_target() {
        let mut plan = FaultPlan::parse("trap@3").unwrap();
        let mut st = CpuState::new();
        for retired in 0..3 {
            assert_eq!(
                plan.before_step(&mut st, retired).unwrap(),
                InjectAction::Continue
            );
        }
        let err = plan.before_step(&mut st, 3).unwrap_err();
        assert!(matches!(err, SimError::Fault { .. }), "{err}");
        // Re-polling after firing is inert (the plan is one-shot).
        assert!(plan.before_step(&mut st, 3).is_ok());
    }

    #[test]
    fn spec_round_trips_through_parse() {
        let mut stream = 0xC0FF_EE00_u64;
        for _ in 0..64 {
            let plan = FaultPlan::sample(&mut stream, DEFAULT_CAMPAIGN_WINDOW);
            let reparsed = FaultPlan::parse(&plan.spec()).unwrap();
            assert_eq!(reparsed.spec(), plan.spec(), "spec must be canonical");
            assert_eq!(reparsed.kind(), plan.kind(), "explicit args must survive");
        }
        // Derived (None) arguments become explicit in the spec.
        let derived = FaultPlan::parse("fetch@9").unwrap();
        assert_eq!(
            derived.spec(),
            format!("fetch@9:{:#x}", derived.fetch_mask())
        );
        let derived = FaultPlan::parse("read@9").unwrap();
        assert_eq!(derived.spec(), format!("read@9:{}", derived.read_bit()));
    }

    #[test]
    fn sample_stays_inside_the_window() {
        let mut stream = 7u64;
        for _ in 0..256 {
            let plan = FaultPlan::sample(&mut stream, 100);
            let at = match *plan.kind() {
                FaultKind::TrapAt { at_instret } => at_instret,
                FaultKind::CorruptFetch { at_instret, mask } => {
                    assert!(mask.unwrap() != 0);
                    at_instret
                }
                FaultKind::FlipRead { nth, bit } => {
                    assert!(bit.unwrap() < 64);
                    nth
                }
            };
            assert!((1..=100).contains(&at), "target {at} outside window");
        }
    }

    #[test]
    fn campaign_spec_parses_seed_and_count() {
        assert_eq!(
            CampaignSpec::parse("42:6").unwrap(),
            CampaignSpec {
                seed: 42,
                n_faults: 6
            }
        );
        assert_eq!(
            CampaignSpec::parse("0xfa17:12").unwrap(),
            CampaignSpec {
                seed: 0xFA17,
                n_faults: 12
            }
        );
        for bad in ["", "42", "42:", ":6", "42:0", "zz:6", "42:x"] {
            assert!(
                CampaignSpec::parse(bad).is_err(),
                "{bad:?} should not parse"
            );
        }
    }

    #[test]
    fn campaign_sampling_is_seed_deterministic() {
        let a = Campaign::sample(99, 8, DEFAULT_CAMPAIGN_WINDOW);
        let b = Campaign::sample(99, 8, DEFAULT_CAMPAIGN_WINDOW);
        let specs = |c: &Campaign| c.plans().iter().map(FaultPlan::spec).collect::<Vec<_>>();
        assert_eq!(specs(&a), specs(&b));
        let c = Campaign::sample(100, 8, DEFAULT_CAMPAIGN_WINDOW);
        assert_ne!(specs(&a), specs(&c), "different seed, different schedule");
    }

    #[test]
    fn campaign_fires_each_plan_and_shares_the_counter() {
        let campaign = Campaign::from_plans(
            vec![
                FaultPlan::parse("fetch@1:0x1").unwrap(),
                FaultPlan::parse("fetch@2:0x2").unwrap(),
            ],
            0,
        );
        let mut live = campaign.clone(); // boxed-injector stand-in
        let mut st = CpuState::new();
        st.pc = 0x1000;
        st.mem.write_u32(0x1000, 0).unwrap();
        assert_eq!(
            live.before_step(&mut st, 0).unwrap(),
            InjectAction::Continue
        );
        assert_eq!(
            live.before_step(&mut st, 1).unwrap(),
            InjectAction::FlushDecodeCache
        );
        assert_eq!(
            live.before_step(&mut st, 2).unwrap(),
            InjectAction::FlushDecodeCache
        );
        assert_eq!(st.mem.read_u32(0x1000).unwrap(), 0x3);
        // The original observes the clone's firings through the shared Arc.
        assert_eq!(campaign.fired_count(), 2);
        assert_eq!(
            live.before_step(&mut st, 3).unwrap(),
            InjectAction::Continue
        );
        assert_eq!(campaign.fired_count(), 2, "one-shot plans stay fired");
    }

    #[test]
    fn campaign_trap_aborts_but_counts_first() {
        let campaign = Campaign::from_plans(vec![FaultPlan::parse("trap@0").unwrap()], 0);
        let mut live = campaign.clone();
        let mut st = CpuState::new();
        assert!(live.before_step(&mut st, 0).is_err());
        assert_eq!(campaign.fired_count(), 1);
    }

    #[test]
    fn fired_by_matches_live_polling() {
        // For each kind, drive a live plan through before_step and check
        // fired_by(retired) agrees with the real fired flag at every
        // checkpoint-eligible boundary.
        for spec in ["trap@3", "fetch@3:0x1", "read@2:0"] {
            let mut live = FaultPlan::parse(spec).unwrap();
            let reference = FaultPlan::parse(spec).unwrap();
            for retired in 0..6u64 {
                assert_eq!(
                    reference.fired_by(retired),
                    live.fired(),
                    "{spec}: divergence before poll at retired={retired}"
                );
                let mut st = CpuState::new();
                st.pc = 0x1000;
                st.mem.write_u32(0x1000, 0).unwrap();
                let _ = live.before_step(&mut st, retired);
            }
        }
    }

    #[test]
    fn next_due_names_every_count_where_before_step_acts() {
        // Poll at every count, as a stepper does: `before_step` must act
        // (fire, flush or fail) exactly at the counts `next_due` names.
        for spec in ["trap@3", "fetch@3:0x1", "read@2:0"] {
            let mut live = FaultPlan::parse(spec).unwrap();
            let mut st = CpuState::new();
            st.pc = 0x1000;
            st.mem.write_u32(0x1000, 0).unwrap();
            for retired in 0..6u64 {
                let due = live.next_due(retired);
                assert!(
                    due.is_none_or(|d| d >= retired),
                    "{spec}: due {due:?} before {retired}"
                );
                let was_fired = live.fired();
                let res = live.before_step(&mut st, retired);
                let acted = res != Ok(InjectAction::Continue) || live.fired() != was_fired;
                assert_eq!(acted, due == Some(retired), "{spec} at retired={retired}");
            }
            assert_eq!(
                live.next_due(6),
                None,
                "{spec}: a fired plan is never due again"
            );
        }
        // A plan whose count has already passed unfired never acts.
        assert_eq!(FaultPlan::parse("trap@3").unwrap().next_due(4), None);
        // A campaign is due at its earliest unfired plan.
        let mut campaign = Campaign::from_plans(
            vec![
                FaultPlan::parse("trap@4").unwrap(),
                FaultPlan::parse("fetch@2:0x1").unwrap(),
            ],
            0,
        );
        assert_eq!(campaign.next_due(0), Some(2));
        let mut st = CpuState::new();
        st.pc = 0x1000;
        st.mem.write_u32(0x1000, 0).unwrap();
        campaign.before_step(&mut st, 2).unwrap();
        assert_eq!(campaign.next_due(3), Some(4));
    }

    #[test]
    fn restore_fired_suppresses_reinjection() {
        let mut campaign = Campaign::from_plans(
            vec![
                FaultPlan::parse("trap@1").unwrap(),
                FaultPlan::parse("trap@5").unwrap(),
            ],
            0,
        );
        campaign.restore_fired(&[true, false], 1);
        assert_eq!(campaign.fired_count(), 1);
        let mut st = CpuState::new();
        // trap@1 is marked fired: polling at retired=1 must NOT abort.
        assert!(campaign.before_step(&mut st, 1).is_ok());
        // trap@5 is still live.
        assert!(campaign.before_step(&mut st, 5).is_err());
        assert_eq!(campaign.fired_count(), 2);
    }

    #[test]
    fn corrupt_fetch_flips_bits_and_requests_flush() {
        let mut plan = FaultPlan::parse("fetch@2:0x1").unwrap();
        let mut st = CpuState::new();
        st.pc = 0x1000;
        st.mem.write_u32(0x1000, 0x0000_0013).unwrap();
        assert_eq!(
            plan.before_step(&mut st, 0).unwrap(),
            InjectAction::Continue
        );
        assert_eq!(
            plan.before_step(&mut st, 2).unwrap(),
            InjectAction::FlushDecodeCache
        );
        assert_eq!(st.mem.read_u32(0x1000).unwrap(), 0x0000_0012);
    }
}
