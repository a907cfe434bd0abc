//! The single-cycle emulation core.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::SimError;
use crate::fault::{FaultInjector, InjectAction};
use crate::observer::Observer;
use crate::retire::{InstGroup, RetiredInst};
use crate::sample::SampleSnapshot;
use crate::source::RUN_RECORDS;
use crate::state::CpuState;

/// Host emulation rate in million instructions per second. The single
/// definition used by [`RunStats::host_mips`], the telemetry reports, and
/// every CLI table — keep derived speed numbers consistent by routing all
/// of them through here.
pub fn host_mips(retired: u64, wall: Duration) -> f64 {
    if wall.is_zero() {
        0.0
    } else {
        retired as f64 / wall.as_secs_f64() / 1e6
    }
}

/// Longest straight-line run the front end pre-decodes into one block.
/// It bounds the work a block-cache miss performs, how far past a hot
/// loop's entry the builder decodes, and how far a block carries a run
/// past [`RUN_RECORDS`]: executors look at the run's length only between
/// blocks, so the core sizes each run buffer for [`RUN_RECORDS`] plus
/// this many records and it never reallocates.
pub const MAX_BLOCK_LEN: usize = 64;

/// What the core drives: fetch, decode and execute exactly one
/// instruction, mutating `state` and describing what happened. Both ISAs
/// implement it through the shared [`crate::BlockExecutor`] front end.
pub trait IsaExecutor {
    /// Execute the instruction at `state.pc`, advance the PC, and return the
    /// retirement record.
    fn step(&self, state: &mut CpuState) -> Result<RetiredInst, SimError>;

    /// Disassemble the 32-bit word at `pc` (for diagnostics and the paper's
    /// listing-level analysis).
    fn disassemble(&self, word: u32) -> String;

    /// Short ISA name ("rv64g", "aarch64").
    fn name(&self) -> &'static str;

    /// Drop any cached decodes. Called by the core when a fault injector
    /// asks: after it mutates instruction memory behind the executor's
    /// back, or when it arms a read flip that must count every fetch. The
    /// default suits executors that do not cache. Block-building executors must
    /// drop their block cache here too, not just per-instruction decodes.
    fn flush_decode_cache(&self) {}

    /// Retire up to `fuel` instructions (block by block), stopping early if
    /// the guest exits or an instruction faults. Returns how many retired
    /// and the fault, if any; on a fault `state.pc` addresses the faulting
    /// instruction, exactly as a failed [`IsaExecutor::step`] leaves it.
    ///
    /// When `run` is present, every retirement record is appended to it in
    /// program order, built in place in its slot; a
    /// faulting instruction's slot is taken back, so the run ends with the
    /// last record that retired. The executor also returns at the first
    /// block boundary at which the run holds [`RUN_RECORDS`] records, so a
    /// run buffer with room for [`MAX_BLOCK_LEN`] more never reallocates.
    /// The core passes no run when no observer is attached.
    ///
    /// The default implementation steps one instruction at a time, which is
    /// semantically exact but gains nothing; [`crate::BlockExecutor`]
    /// overrides it.
    fn run_block(
        &self,
        state: &mut CpuState,
        fuel: u64,
        run: Option<&mut Vec<RetiredInst>>,
    ) -> (u64, Option<SimError>) {
        let mut slots = RunSlots::new(run);
        let mut done = 0u64;
        while done < fuel && state.exited.is_none() && !slots.full() {
            match self.step(state) {
                Ok(ri) => {
                    done += 1;
                    slots.push(ri);
                }
                Err(e) => return (done, Some(e)),
            }
        }
        (done, None)
    }
}

/// Where [`IsaExecutor::run_block`] builds retirement records: in the next
/// slot of the observers' run buffer, or, on a bare run, in one scratch
/// record that every retirement overwrites.
pub(crate) struct RunSlots<'a> {
    run: Option<&'a mut Vec<RetiredInst>>,
    scratch: RetiredInst,
}

impl<'a> RunSlots<'a> {
    /// Slots in `run`, or scratch slots when it is `None`.
    pub fn new(run: Option<&'a mut Vec<RetiredInst>>) -> Self {
        RunSlots {
            run,
            scratch: RetiredInst::new(0, InstGroup::IntAlu),
        }
    }

    /// Whether the run holds [`RUN_RECORDS`] records, so the executor
    /// returns at this block boundary. A bare run never fills.
    #[inline]
    pub fn full(&self) -> bool {
        self.run
            .as_ref()
            .is_some_and(|run| run.len() >= RUN_RECORDS)
    }

    /// The slot the next retirement is built in: a new slot at the end of
    /// the run, or the scratch record. The caller resets it before filling
    /// it (the ISA back-ends' `execute_into` does).
    #[inline]
    pub fn next_slot(&mut self) -> &mut RetiredInst {
        match self.run.as_deref_mut() {
            Some(run) => {
                debug_assert!(run.len() < run.capacity(), "the run buffer reallocated");
                let at = run.len();
                run.push(RetiredInst::new(0, InstGroup::IntAlu));
                &mut run[at]
            }
            None => &mut self.scratch,
        }
    }

    /// Take back the slot [`RunSlots::next_slot`] handed out last: its
    /// instruction faulted, so no observer may see its half-built record.
    #[inline]
    pub fn discard(&mut self) {
        if let Some(run) = self.run.as_deref_mut() {
            run.pop();
        }
    }

    /// Append a record built elsewhere, such as by [`IsaExecutor::step`].
    #[inline]
    pub fn push(&mut self, ri: RetiredInst) {
        if let Some(run) = self.run.as_deref_mut() {
            run.push(ri);
        }
    }
}

/// A shared reference or a box around an executor is itself an executor:
/// every trait method takes `&self`. A reference lets one executor (and
/// its decode/block caches) back several [`EmulationCore`]s in sequence;
/// a box lets a caller pick the ISA at run time.
macro_rules! forward_executor {
    ($($ty:ty),*) => {$(
        impl<E: IsaExecutor + ?Sized> IsaExecutor for $ty {
            fn step(&self, state: &mut CpuState) -> Result<RetiredInst, SimError> {
                (**self).step(state)
            }

            fn disassemble(&self, word: u32) -> String {
                (**self).disassemble(word)
            }

            fn name(&self) -> &'static str {
                (**self).name()
            }

            fn flush_decode_cache(&self) {
                (**self).flush_decode_cache()
            }

            fn run_block(
                &self,
                state: &mut CpuState,
                fuel: u64,
                run: Option<&mut Vec<RetiredInst>>,
            ) -> (u64, Option<SimError>) {
                (**self).run_block(state, fuel, run)
            }
        }
    )*};
}

forward_executor!(&E, Box<E>);

/// Why [`EmulationCore::run`] returned `Ok`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The guest exited; observers received `on_finish` and the run is
    /// complete.
    Exited,
    /// A periodic checkpoint came due (see
    /// [`EmulationCore::with_checkpoint_every`]): the run paused at a
    /// clean step boundary with `state.instret` holding the resume point.
    /// Observers did *not* receive `on_finish`; call `run` again on the
    /// same state to continue.
    CheckpointDue,
}

/// Statistics from one emulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunStats {
    /// Instructions retired so far (the paper's *path length*). Counts
    /// from the state's initial `instret`, so a resumed run reports the
    /// absolute total, not just this segment.
    pub retired: u64,
    /// Guest exit status (0 for a [`StopReason::CheckpointDue`] pause).
    pub exit_code: i64,
    /// Why the run stopped.
    pub stop: StopReason,
    /// Host wall-clock time spent inside the run loop (this segment only).
    pub wall: Duration,
}

impl RunStats {
    /// Host emulation rate in million instructions per second.
    pub fn host_mips(&self) -> f64 {
        host_mips(self.retired, self.wall)
    }
}

/// The paper's measurement vehicle: SimEng's "emulation core model which
/// executes each instruction atomically to completion in a single cycle".
///
/// Runs a loaded [`CpuState`] until the guest exits, feeding every retired
/// instruction to the supplied observers in program order.
///
/// When the `ISACMP_PROGRESS` environment variable is set to a retirement
/// interval (or to `1` for the default of 50M), the core prints a heartbeat
/// line to stderr every interval: instructions retired and host MIPS. The
/// heartbeat is one more boundary the retire loop never runs a block past;
/// disabled, its sentinel is `u64::MAX` and it bounds nothing.
pub struct EmulationCore<E: IsaExecutor> {
    exec: E,
    /// Abort if this many instructions retire without the guest exiting.
    max_insts: u64,
    /// Heartbeat interval in retirements; `u64::MAX` disables it.
    progress_every: u64,
    /// Wall-clock watchdog; checked every [`Self::DEADLINE_CHECK_INTERVAL`]
    /// retirements so the hot loop pays only an AND and a branch.
    deadline: Option<Duration>,
    /// Fault-injection hook, consulted before each step at which it is due
    /// (see [`FaultInjector::next_due`]). `RefCell` keeps
    /// [`EmulationCore::run`] callable on a shared core.
    injector: Option<RefCell<Box<dyn FaultInjector>>>,
    /// Shared snapshot for the sampling profiler, written every
    /// `sample_mask + 1` retirements when attached.
    sample: Option<Arc<SampleSnapshot>>,
    /// `stride - 1` for the sampling publish check (stride is a power of
    /// two); `u64::MAX` when sampling is disabled, so — exactly like the
    /// deadline check — the hot loop pays one AND and one never-taken
    /// branch.
    sample_mask: u64,
    /// Pause for a checkpoint every this many retirements (rounded up to a
    /// multiple of [`Self::DEADLINE_CHECK_INTERVAL`] so pauses land on
    /// trace-block boundaries); `u64::MAX` disables checkpointing. The
    /// check lives inside the already-masked deadline block, so the
    /// disabled path adds nothing to the hot loop.
    checkpoint_every: u64,
    /// Poll [`crate::shutdown::requested`] at the masked check and stop
    /// with [`SimError::Interrupted`] when set. Off by default so library
    /// users and tests are unaffected by the process-wide flag.
    heed_shutdown: bool,
}

/// Default heartbeat interval when `ISACMP_PROGRESS` is set without a count.
const DEFAULT_PROGRESS_INTERVAL: u64 = 50_000_000;

/// Heartbeat interval for a count as `ISACMP_PROGRESS` spells it: 0
/// disables the heartbeat (`u64::MAX`), 1 picks the 50M default, and any
/// other count is the interval itself.
pub fn progress_interval(n: u64) -> u64 {
    match n {
        0 => u64::MAX,
        1 => DEFAULT_PROGRESS_INTERVAL,
        n => n,
    }
}

fn progress_interval_from_env() -> u64 {
    std::env::var("ISACMP_PROGRESS")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .map_or(u64::MAX, progress_interval)
}

impl<E: IsaExecutor> EmulationCore<E> {
    /// Default runaway-guest budget (no paper workload at our scaled sizes
    /// exceeds a few hundred million instructions).
    pub const DEFAULT_BUDGET: u64 = 5_000_000_000;

    /// How often (in retirements) the wall-clock watchdog consults the
    /// host clock. Power of two so the check is a mask.
    pub const DEADLINE_CHECK_INTERVAL: u64 = 1 << 14;

    /// Create a core around an ISA executor.
    pub fn new(exec: E) -> Self {
        EmulationCore {
            exec,
            max_insts: Self::DEFAULT_BUDGET,
            progress_every: progress_interval_from_env(),
            deadline: None,
            injector: None,
            sample: None,
            sample_mask: u64::MAX,
            checkpoint_every: u64::MAX,
            heed_shutdown: false,
        }
    }

    /// Override the instruction budget.
    pub fn with_budget(mut self, max_insts: u64) -> Self {
        self.max_insts = max_insts;
        self
    }

    /// Attach a wall-clock watchdog: the run fails with
    /// [`SimError::WallClockExceeded`] once `deadline` elapses. The clock is
    /// polled every [`Self::DEADLINE_CHECK_INTERVAL`] retirements, so
    /// enforcement granularity is a few tens of microseconds of guest time.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attach a fault injector (e.g. a [`crate::FaultPlan`]), consulted
    /// before every step at which it is due.
    pub fn with_injector(mut self, injector: Box<dyn FaultInjector>) -> Self {
        self.injector = Some(RefCell::new(injector));
        self
    }

    /// Override the heartbeat interval (`u64::MAX` disables; normally taken
    /// from `ISACMP_PROGRESS`).
    pub fn with_progress(mut self, every: u64) -> Self {
        self.progress_every = every.max(1);
        self
    }

    /// Attach a sampling-profiler snapshot: `(pc, instret)` is published
    /// into `snapshot` every `2^log2_stride` retirements. `log2_stride` is
    /// clamped to `[6, 30]` — below 64 the publish itself would distort the
    /// measurement, above 2^30 a short run would never publish.
    pub fn with_sampling(mut self, snapshot: Arc<SampleSnapshot>, log2_stride: u32) -> Self {
        self.sample = Some(snapshot);
        self.sample_mask = (1u64 << log2_stride.clamp(6, 30)) - 1;
        self
    }

    /// Pause the run every `every` retirements so the caller can snapshot
    /// the machine state, then call `run` again to continue. The interval
    /// is rounded **up** to a multiple of
    /// [`Self::DEADLINE_CHECK_INTERVAL`]; since that interval is a
    /// multiple of the trace block size, every pause lands exactly on a
    /// flushed-trace boundary — a restored capture stays a byte prefix of
    /// an uninterrupted one. Pass `u64::MAX` to disable (the default).
    pub fn with_checkpoint_every(mut self, every: u64) -> Self {
        self.checkpoint_every = if every == u64::MAX {
            u64::MAX
        } else {
            every
                .max(1)
                .div_ceil(Self::DEADLINE_CHECK_INTERVAL)
                .saturating_mul(Self::DEADLINE_CHECK_INTERVAL)
        };
        self
    }

    /// Poll the process-wide [`crate::shutdown`] flag at the masked check
    /// and stop with [`SimError::Interrupted`] at a clean step boundary
    /// when it is set. Off by default.
    pub fn with_shutdown(mut self) -> Self {
        self.heed_shutdown = true;
        self
    }

    /// Access the underlying executor (e.g. for disassembly).
    pub fn executor(&self) -> &E {
        &self.exec
    }

    /// Run until the guest exits, pumping retirements through `observers`.
    ///
    /// On error, `state.instret` holds the retirement count reached and
    /// `state.pc` the faulting program counter, so callers can report how
    /// far the guest got.
    ///
    /// There is one retire loop. Each iteration computes the earliest
    /// retirement count at which any event is due — budget, masked
    /// boundary (checkpoint / shutdown / deadline), sampling boundary,
    /// heartbeat, and the injector's next due point — and hands the
    /// executor exactly that much fuel, so blocks never straddle an event
    /// and every event lands at the same `instret` (and `state.pc`) as it
    /// would when checked before every single step. At one count the
    /// order is: masked checks, sample publish, injector.
    ///
    /// While an armed read fault is pending the loop advances through
    /// [`IsaExecutor::step`] only: a block build fetches words ahead of
    /// execution, which would move the read the flip lands on, and a flip
    /// that hits an instruction fetch must reach the per-word decode
    /// cache exactly as a single step leaves it.
    ///
    /// Observers receive records in runs. The executor builds each record
    /// in place in a run buffer, and the core hands the buffer to every
    /// observer with one [`Observer::on_records`] call once it holds
    /// [`RUN_RECORDS`] records, and before `run` returns for any reason: an
    /// error, a checkpoint pause, or the guest's exit, ahead of
    /// [`Observer::on_finish`]. Whenever `run` returns, the observers hold
    /// exactly the records retired up to `state.instret`.
    pub fn run(
        &self,
        state: &mut CpuState,
        observers: &mut [&mut dyn Observer],
    ) -> Result<RunStats, SimError> {
        let start = Instant::now();
        // One allocation per call, with room for a block past a full run,
        // so the buffer never reallocates. A bare run keeps no records.
        let mut run =
            (!observers.is_empty()).then(|| Vec::with_capacity(RUN_RECORDS + MAX_BLOCK_LEN));
        let outcome = self.retire_loop(state, observers, &mut run, start);
        if let Some(run) = run.as_mut() {
            dispatch(run, observers);
        }
        let stop = outcome?;
        let mut exit_code = 0;
        if stop == StopReason::Exited {
            exit_code = state.exited.unwrap_or(0);
            for obs in observers.iter_mut() {
                obs.on_finish();
            }
        }
        Ok(RunStats {
            retired: state.instret,
            exit_code,
            stop,
            wall: start.elapsed(),
        })
    }

    /// The retire loop behind [`EmulationCore::run`]: retires into `run`,
    /// dispatching it whenever it fills, and leaves `state.instret` at the
    /// count reached on every return. The caller dispatches what is left.
    fn retire_loop(
        &self,
        state: &mut CpuState,
        observers: &mut [&mut dyn Observer],
        run: &mut Option<Vec<RetiredInst>>,
        start: Instant,
    ) -> Result<StopReason, SimError> {
        // A restored state resumes counting where the snapshot left off;
        // fresh states start at instret 0, so nothing changes for them.
        let start_retired = state.instret;
        let mut retired: u64 = start_retired;
        let next_checkpoint = if self.checkpoint_every == u64::MAX {
            u64::MAX
        } else {
            start_retired.saturating_add(self.checkpoint_every)
        };
        // Beats fall on multiples of the interval counted from 0, so a run
        // resumed past the first beat never beats again.
        let mut next_beat = if self.progress_every > start_retired {
            self.progress_every
        } else {
            u64::MAX
        };
        // The masked 2^14 boundary only matters when one of its three
        // tenants is live; otherwise blocks run straight through it.
        let masked_live =
            next_checkpoint != u64::MAX || self.heed_shutdown || self.deadline.is_some();
        while state.exited.is_none() {
            if retired >= self.max_insts {
                state.instret = retired;
                return Err(SimError::InstructionBudgetExceeded {
                    budget: self.max_insts,
                });
            }
            if retired & (Self::DEADLINE_CHECK_INTERVAL - 1) == 0 {
                // Everything in this block runs once per 2^14 retirements,
                // so the checkpoint/shutdown polls are off the hot path.
                if retired >= next_checkpoint {
                    state.instret = retired;
                    return Ok(StopReason::CheckpointDue);
                }
                if self.heed_shutdown && crate::shutdown::requested() {
                    state.instret = retired;
                    return Err(SimError::Interrupted { retired });
                }
                if let Some(deadline) = self.deadline {
                    if start.elapsed() >= deadline {
                        state.instret = retired;
                        return Err(SimError::WallClockExceeded {
                            limit_ms: deadline.as_millis() as u64,
                            retired,
                        });
                    }
                }
            }
            if retired & self.sample_mask == 0 {
                if let Some(snap) = &self.sample {
                    snap.publish(state.pc, retired);
                }
            }
            let mut injector_due = u64::MAX;
            if let Some(inj) = &self.injector {
                let mut inj = inj.borrow_mut();
                if inj.next_due(retired) == Some(retired) {
                    match inj.before_step(state, retired) {
                        Ok(InjectAction::Continue) => {}
                        Ok(InjectAction::FlushDecodeCache) => self.exec.flush_decode_cache(),
                        Err(e) => {
                            state.instret = retired;
                            return Err(e);
                        }
                    }
                }
                injector_due = inj.next_due(retired + 1).unwrap_or(u64::MAX);
            }
            if state.mem.read_fault_pending() {
                if let Err(e) = self.step_one(state, run.as_mut()) {
                    state.instret = retired;
                    return Err(e);
                }
                retired += 1;
            } else {
                // Earliest retirement count at which an event is due again.
                // Every candidate is strictly greater than `retired` (the
                // budget was just checked; the boundary expressions round
                // up), so the executor always gets at least one instruction
                // of fuel.
                let mut stop = self.max_insts.min(next_beat).min(injector_due);
                if masked_live {
                    stop = stop.min((retired | (Self::DEADLINE_CHECK_INTERVAL - 1)) + 1);
                }
                if self.sample_mask != u64::MAX {
                    stop = stop.min((retired | self.sample_mask) + 1);
                }
                let (done, err) = self.exec.run_block(state, stop - retired, run.as_mut());
                retired += done;
                if let Some(e) = err {
                    state.instret = retired;
                    return Err(e);
                }
                if done == 0 && state.exited.is_none() {
                    // Forward-progress guard against a miscounting executor:
                    // one step either retires or surfaces the fault. The run
                    // is never full here, so a full run cannot trip it.
                    if let Err(e) = self.step_one(state, run.as_mut()) {
                        state.instret = retired;
                        return Err(e);
                    }
                    retired += 1;
                }
            }
            if let Some(run) = run.as_mut().filter(|run| run.len() >= RUN_RECORDS) {
                dispatch(run, observers);
            }
            if retired == next_beat {
                let mips = host_mips(retired, start.elapsed());
                eprintln!(
                    "[{}] {retired} retired, {mips:.1} MIPS, pc={:#x}",
                    self.exec.name(),
                    state.pc
                );
                next_beat = next_beat.saturating_add(self.progress_every);
            }
        }
        state.instret = retired;
        Ok(StopReason::Exited)
    }

    /// Retire exactly one instruction through [`IsaExecutor::step`] and
    /// append its record to the run, as a block of one would.
    fn step_one(
        &self,
        state: &mut CpuState,
        run: Option<&mut Vec<RetiredInst>>,
    ) -> Result<(), SimError> {
        let ri = self.exec.step(state)?;
        if let Some(run) = run {
            run.push(ri);
        }
        Ok(())
    }
}

/// Hand `run` to every observer, one [`Observer::on_records`] call each,
/// and empty it. An empty run goes to no one.
fn dispatch(run: &mut Vec<RetiredInst>, observers: &mut [&mut dyn Observer]) {
    if !run.is_empty() {
        for obs in observers.iter_mut() {
            obs.on_records(run);
        }
        run.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::observer::CountingObserver;
    use crate::retire::InstGroup;
    use std::cell::Cell;

    /// Minimal executor: reads the word at pc (a real memory fetch, so read
    /// faults and fetch corruption are visible); word 0 = nop, anything
    /// else = exit with that word as the code.
    struct SpinExec {
        flushes: Cell<u32>,
    }

    impl SpinExec {
        fn new() -> Self {
            SpinExec {
                flushes: Cell::new(0),
            }
        }
    }

    impl IsaExecutor for SpinExec {
        fn step(&self, state: &mut CpuState) -> Result<RetiredInst, SimError> {
            let word = state.mem.read_u32(state.pc)?;
            if word != 0 {
                state.exited = Some(word as i64);
            }
            state.pc = state.pc.wrapping_add(4);
            Ok(RetiredInst::new(state.pc - 4, InstGroup::IntAlu))
        }

        fn disassemble(&self, _word: u32) -> String {
            "nop".into()
        }

        fn name(&self) -> &'static str {
            "spin"
        }

        fn flush_decode_cache(&self) {
            self.flushes.set(self.flushes.get() + 1);
        }
    }

    /// A looping guest: one mapped page of nops, pc wrapped back each 1024
    /// instructions by the test via a tiny budget instead.
    fn spinning_state() -> CpuState {
        let mut st = CpuState::new();
        st.pc = 0x1000;
        // Map several pages of nops so the spin runs for a while.
        for page in 0..64u64 {
            st.mem.write_u64(0x1000 + page * 4096, 0).unwrap();
        }
        st
    }

    #[test]
    fn wall_clock_watchdog_fires() {
        let mut st = spinning_state();
        let core = EmulationCore::new(SpinExec::new()).with_deadline(Duration::ZERO);
        let err = core.run(&mut st, &mut []).unwrap_err();
        assert!(
            matches!(err, SimError::WallClockExceeded { .. }),
            "expected WallClockExceeded, got {err}"
        );
        assert!(err.is_watchdog());
    }

    #[test]
    fn generous_deadline_does_not_fire() {
        let mut st = CpuState::new();
        st.pc = 0x1000;
        st.mem.write_u32(0x1000, 7).unwrap(); // immediate exit(7)
        let core = EmulationCore::new(SpinExec::new()).with_deadline(Duration::from_secs(3600));
        let stats = core.run(&mut st, &mut []).unwrap();
        assert_eq!(stats.exit_code, 7);
    }

    #[test]
    fn injected_trap_stops_run_at_target_instret() {
        let mut st = spinning_state();
        let plan = FaultPlan::parse("trap@5").unwrap();
        let core = EmulationCore::new(SpinExec::new()).with_injector(Box::new(plan));
        let err = core.run(&mut st, &mut []).unwrap_err();
        assert!(matches!(err, SimError::Fault { .. }), "{err}");
        assert_eq!(st.instret, 5, "trap must fire before the 6th instruction");
    }

    #[test]
    fn injected_fetch_corruption_flushes_and_alters_execution() {
        let mut st = spinning_state();
        // Corrupt the word fetched at retirement 3: nop (0) becomes
        // non-zero, which SpinExec treats as exit.
        let plan = FaultPlan::parse("fetch@3:0x2a").unwrap();
        let exec = SpinExec::new();
        let core = EmulationCore::new(exec).with_injector(Box::new(plan));
        let stats = core.run(&mut st, &mut []).unwrap();
        assert_eq!(stats.exit_code, 0x2a, "corrupted word drives the exit");
        assert_eq!(stats.retired, 4);
        assert_eq!(
            core.executor().flushes.get(),
            1,
            "decode cache flushed once"
        );
    }

    #[test]
    fn sampling_publishes_on_the_configured_stride() {
        let mut st = spinning_state();
        let snap = std::sync::Arc::new(crate::sample::SampleSnapshot::new());
        // Budget of 4096 retirements at stride 2^6 = 64 publishes (one per
        // stride boundary, starting at retirement 0).
        let core = EmulationCore::new(SpinExec::new())
            .with_budget(4096)
            .with_sampling(std::sync::Arc::clone(&snap), 6);
        let err = core.run(&mut st, &mut []).unwrap_err();
        assert!(matches!(err, SimError::InstructionBudgetExceeded { .. }));
        assert_eq!(snap.publishes(), 4096 / 64);
        let last = snap.read().expect("samples were published");
        assert_eq!(last.instret % 64, 0);
        assert!(
            last.pc >= 0x1000,
            "published pc must be a guest pc: {:#x}",
            last.pc
        );
    }

    #[test]
    fn no_sampling_means_zero_publishes() {
        let mut st = spinning_state();
        let snap = crate::sample::SampleSnapshot::new();
        let core = EmulationCore::new(SpinExec::new()).with_budget(4096);
        let _ = core.run(&mut st, &mut []);
        // The disabled path never touches a snapshot: the hot loop's mask is
        // the u64::MAX sentinel and no snapshot is attached.
        assert_eq!(snap.publishes(), 0);
        assert_eq!(snap.read(), None);
    }

    #[test]
    fn checkpoint_pauses_land_on_masked_boundaries_and_resume_seamlessly() {
        let interval = EmulationCore::<SpinExec>::DEADLINE_CHECK_INTERVAL;
        let budget = interval * 3 + 100;
        let mut st = spinning_state();
        // Request a tiny interval: it must round UP to the masked interval.
        let core = EmulationCore::new(SpinExec::new())
            .with_budget(budget)
            .with_checkpoint_every(1);
        let mut pauses = 0;
        loop {
            match core.run(&mut st, &mut []) {
                Ok(stats) => {
                    assert_eq!(stats.stop, StopReason::CheckpointDue);
                    assert_eq!(
                        stats.retired % interval,
                        0,
                        "pause at {} is not a masked boundary",
                        stats.retired
                    );
                    assert_eq!(st.instret, stats.retired, "resume point recorded");
                    pauses += 1;
                }
                Err(SimError::InstructionBudgetExceeded { .. }) => break,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert_eq!(pauses, 3, "one pause per interval before the budget trips");
        assert_eq!(
            st.instret, budget,
            "error path still records absolute instret"
        );
    }

    #[test]
    fn disabled_checkpointing_never_pauses() {
        // The overhead assertion, in the same style as
        // no_sampling_means_zero_publishes: with checkpointing disabled the
        // run reaches its budget in one Ok-free pass — zero CheckpointDue
        // stops — because the sentinel comparison can never be true.
        let mut st = spinning_state();
        let core = EmulationCore::new(SpinExec::new())
            .with_budget(EmulationCore::<SpinExec>::DEADLINE_CHECK_INTERVAL * 2);
        let err = core.run(&mut st, &mut []).unwrap_err();
        assert!(matches!(err, SimError::InstructionBudgetExceeded { .. }));
    }

    #[test]
    fn resumed_run_counts_retirements_absolutely() {
        // A state claiming N prior retirements budgets and reports from N.
        let mut st = CpuState::new();
        st.pc = 0x1000;
        st.mem.write_u32(0x1000, 0).unwrap();
        st.mem.write_u32(0x1004, 9).unwrap(); // nop, then exit(9)
        st.instret = 1_000;
        let stats = EmulationCore::new(SpinExec::new())
            .run(&mut st, &mut [])
            .unwrap();
        assert_eq!(stats.retired, 1_002);
        assert_eq!(stats.stop, StopReason::Exited);
        assert_eq!(st.instret, 1_002);
    }

    #[test]
    fn shutdown_flag_interrupts_at_a_clean_boundary_only_when_heeded() {
        let _guard = crate::shutdown::TEST_FLAG_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let interval = EmulationCore::<SpinExec>::DEADLINE_CHECK_INTERVAL;
        crate::shutdown::request();
        // Not heeded: the flag is ignored and the budget trips instead.
        let mut st = spinning_state();
        let core = EmulationCore::new(SpinExec::new()).with_budget(interval);
        assert!(matches!(
            core.run(&mut st, &mut []).unwrap_err(),
            SimError::InstructionBudgetExceeded { .. }
        ));
        // Heeded: the very first masked check (retired = 0) observes it.
        let mut st = spinning_state();
        let core = EmulationCore::new(SpinExec::new())
            .with_budget(interval)
            .with_shutdown();
        let err = core.run(&mut st, &mut []).unwrap_err();
        assert_eq!(err, SimError::Interrupted { retired: 0 });
        assert_eq!(st.instret, 0);
        crate::shutdown::reset();
        // Flag cleared: the same core runs to its budget.
        let mut st = spinning_state();
        assert!(matches!(
            core.run(&mut st, &mut []).unwrap_err(),
            SimError::InstructionBudgetExceeded { .. }
        ));
    }

    #[test]
    fn injected_read_flip_reaches_the_guest() {
        let mut st = spinning_state();
        // Flip a low bit of the very first fetch: nop becomes exit(1<<b).
        let plan = FaultPlan::parse("read@1:0").unwrap();
        let core = EmulationCore::new(SpinExec::new()).with_injector(Box::new(plan));
        let stats = core.run(&mut st, &mut []).unwrap();
        assert_eq!(stats.exit_code, 1);
    }

    /// SpinExec with genuine block support: retires up to 16 instructions
    /// per `run_block` call (a fixed pretend block length), so fuel
    /// splitting, mid-block exits, and per-block dispatch all get exercised
    /// without an ISA decoder. Records the pc each block starts at.
    struct BlockSpinExec {
        inner: SpinExec,
        block_calls: Cell<u32>,
        block_starts: std::cell::RefCell<Vec<u64>>,
    }

    impl BlockSpinExec {
        fn new() -> Self {
            BlockSpinExec {
                inner: SpinExec::new(),
                block_calls: Cell::new(0),
                block_starts: Default::default(),
            }
        }

        /// How many blocks started before and at-or-after retirement `n`
        /// of a spinning guest.
        fn blocks_around(&self, n: u64) -> (usize, usize) {
            let starts = self.block_starts.borrow();
            let before = starts.iter().filter(|&&pc| pc < pc_at(n)).count();
            (before, starts.len() - before)
        }
    }

    impl IsaExecutor for BlockSpinExec {
        fn step(&self, state: &mut CpuState) -> Result<RetiredInst, SimError> {
            self.inner.step(state)
        }

        fn disassemble(&self, word: u32) -> String {
            self.inner.disassemble(word)
        }

        fn name(&self) -> &'static str {
            "block-spin"
        }

        fn flush_decode_cache(&self) {
            self.inner.flush_decode_cache()
        }

        fn run_block(
            &self,
            state: &mut CpuState,
            fuel: u64,
            run: Option<&mut Vec<RetiredInst>>,
        ) -> (u64, Option<SimError>) {
            self.block_calls.set(self.block_calls.get() + 1);
            self.block_starts.borrow_mut().push(state.pc);
            let mut slots = RunSlots::new(run);
            let take = fuel.min(16);
            let mut done = 0;
            while done < take && state.exited.is_none() {
                match self.step(state) {
                    Ok(ri) => {
                        done += 1;
                        slots.push(ri);
                    }
                    Err(e) => return (done, Some(e)),
                }
            }
            (done, None)
        }
    }

    /// The pc a spinning guest executes as its `n`th retirement (from 0).
    fn pc_at(n: u64) -> u64 {
        0x1000 + 4 * n
    }

    /// A full-record observer: keeps the count and the last record's pc.
    #[derive(Default)]
    struct EveryRecord {
        records: u64,
        last_pc: u64,
    }

    impl Observer for EveryRecord {
        fn on_retire(&mut self, ri: &RetiredInst) {
            self.records += 1;
            self.last_pc = ri.pc;
        }
    }

    /// Keeps every run it is handed. The core hands out runs only, so a
    /// record handed on its own fails the test.
    #[derive(Default)]
    struct Runs {
        runs: Vec<Vec<RetiredInst>>,
        finished: bool,
    }

    impl Runs {
        fn records(&self) -> Vec<RetiredInst> {
            self.runs.concat()
        }

        /// No run is empty, and none is longer than a full run plus one
        /// of `BlockSpinExec`'s 16-instruction blocks.
        fn assert_bounded(&self) {
            for run in &self.runs {
                assert!(
                    !run.is_empty() && run.len() <= RUN_RECORDS + 16,
                    "run of {} records",
                    run.len()
                );
            }
        }
    }

    impl Observer for Runs {
        fn on_retire(&mut self, _ri: &RetiredInst) {
            panic!("the core hands observers runs, not single records");
        }

        fn on_records(&mut self, run: &[RetiredInst]) {
            self.runs.push(run.to_vec());
        }

        fn on_finish(&mut self) {
            self.finished = true;
        }
    }

    /// The records a spinning guest retires as its retirements `range`.
    fn spin_records(range: std::ops::Range<u64>) -> Vec<RetiredInst> {
        range
            .map(|n| RetiredInst::new(pc_at(n), InstGroup::IntAlu))
            .collect()
    }

    #[test]
    fn observers_get_bounded_runs_that_concatenate_to_the_stream() {
        let n = 3 * RUN_RECORDS as u64 + 37;
        for blocks in [false, true] {
            let mut st = spinning_state();
            st.mem.write_u32(pc_at(n - 1), 1).unwrap();
            let (mut a, mut b) = (Runs::default(), Runs::default());
            let mut observers: [&mut dyn Observer; 2] = [&mut a, &mut b];
            let stats = if blocks {
                EmulationCore::new(BlockSpinExec::new()).run(&mut st, &mut observers)
            } else {
                EmulationCore::new(SpinExec::new()).run(&mut st, &mut observers)
            }
            .unwrap();
            assert_eq!(stats.retired, n);
            for runs in [&a, &b] {
                runs.assert_bounded();
                assert_eq!(runs.records(), spin_records(0..n), "blocks: {blocks}");
                assert!(runs.finished);
            }
        }
    }

    #[test]
    fn a_trap_leaves_observers_holding_exactly_the_records_before_it() {
        let n = 2 * RUN_RECORDS as u64 + 5;
        let mut st = spinning_state();
        let mut runs = Runs::default();
        let plan = FaultPlan::parse(&format!("trap@{n}")).unwrap();
        let err = EmulationCore::new(BlockSpinExec::new())
            .with_injector(Box::new(plan))
            .run(&mut st, &mut [&mut runs])
            .unwrap_err();
        assert!(matches!(err, SimError::Fault { .. }), "{err}");
        assert_eq!(st.instret, n);
        assert_eq!(runs.records(), spin_records(0..n));
        assert!(!runs.finished, "a failed run does not finish");
    }

    #[test]
    fn a_checkpoint_pause_leaves_observers_holding_every_record() {
        let interval = EmulationCore::<SpinExec>::DEADLINE_CHECK_INTERVAL;
        // Resumed 5 retirements in, the run pauses at the masked boundary
        // 2 * interval with a partial run pending.
        let mut st = spinning_state();
        st.instret = 5;
        let paused = 2 * interval - 5;
        assert_ne!(paused % RUN_RECORDS as u64, 0);
        st.mem.write_u32(pc_at(paused + 99), 4).unwrap();
        let core = EmulationCore::new(BlockSpinExec::new()).with_checkpoint_every(interval);
        let mut runs = Runs::default();
        let stats = core.run(&mut st, &mut [&mut runs]).unwrap();
        assert_eq!(stats.stop, StopReason::CheckpointDue);
        assert_eq!(st.instret, 2 * interval);
        assert_eq!(runs.records(), spin_records(0..paused));
        assert!(!runs.finished, "a pause does not finish");
        let stats = core.run(&mut st, &mut [&mut runs]).unwrap();
        assert_eq!(stats.stop, StopReason::Exited);
        runs.assert_bounded();
        assert_eq!(runs.records(), spin_records(0..paused + 100));
        assert!(runs.finished);
    }

    #[test]
    fn records_keep_retirement_order_while_a_read_flip_is_pending() {
        // SpinExec fetches once per step, so read #1200 is the fetch of
        // retirement 1199: its exit(8) loses bit 3 and becomes a nop. The
        // 1,199 single steps before it fill more than two runs.
        let mut st = spinning_state();
        st.mem.write_u32(pc_at(1199), 8).unwrap();
        st.mem.write_u32(pc_at(3000), 9).unwrap();
        let plan = FaultPlan::parse("read@1200:3").unwrap();
        let mut runs = Runs::default();
        let stats = EmulationCore::new(BlockSpinExec::new())
            .with_injector(Box::new(plan))
            .run(&mut st, &mut [&mut runs])
            .unwrap();
        assert_eq!((stats.retired, stats.exit_code), (3001, 9));
        runs.assert_bounded();
        assert_eq!(runs.records(), spin_records(0..3001));
    }

    #[test]
    fn block_engine_pauses_checkpoints_at_the_legacy_boundary() {
        let mut st = spinning_state();
        let exec = BlockSpinExec::new();
        let stats = EmulationCore::new(&exec)
            .with_checkpoint_every(16384)
            .run(&mut st, &mut [])
            .expect("pause, not error");
        assert_eq!(stats.stop, StopReason::CheckpointDue);
        // 16384 = DEADLINE_CHECK_INTERVAL: pauses land on masked boundaries.
        assert_eq!(
            stats.retired, 16384,
            "pause lands exactly on the masked boundary"
        );
        assert_eq!((st.instret, st.pc), (16384, pc_at(16384)));
        assert!(
            exec.block_calls.get() > 0,
            "the block path must actually have run blocks"
        );
    }

    #[test]
    fn block_engine_trips_the_budget_at_the_exact_count() {
        let mut st = spinning_state();
        let err = EmulationCore::new(BlockSpinExec::new())
            .with_budget(1000)
            .run(&mut st, &mut [])
            .unwrap_err();
        assert!(
            matches!(err, SimError::InstructionBudgetExceeded { budget: 1000 }),
            "{err}"
        );
        assert_eq!(st.instret, 1000, "instret at the budget stop");
    }

    #[test]
    fn block_engine_publishes_samples_on_the_legacy_stride() {
        let mut st = spinning_state();
        st.mem.write_u32(pc_at(200), 3).unwrap(); // exit at retirement 201
        let snap = std::sync::Arc::new(crate::sample::SampleSnapshot::new());
        EmulationCore::new(BlockSpinExec::new())
            .with_sampling(std::sync::Arc::clone(&snap), 6)
            .run(&mut st, &mut [])
            .expect("run exits");
        // Stride 64 over 201 retirements: publishes at 0, 64, 128 and 192.
        assert_eq!(snap.publishes(), 4);
        let last = snap.read().expect("samples were published");
        assert_eq!((last.pc, last.instret), (pc_at(192), 192));
    }

    #[test]
    fn block_engine_heartbeat_path_matches_legacy_results() {
        let mut st = spinning_state();
        st.mem.write_u32(pc_at(500), 9).unwrap();
        let stats = EmulationCore::new(BlockSpinExec::new())
            .with_progress(64)
            .run(&mut st, &mut [])
            .expect("run exits");
        assert_eq!(stats.retired, 501);
        assert_eq!(stats.exit_code, 9);
    }

    #[test]
    fn a_boxed_executor_forwards_every_call() {
        let exec = BlockSpinExec::new();
        let boxed: Box<dyn IsaExecutor + '_> = Box::new(&exec);
        assert_eq!(boxed.name(), "block-spin");
        boxed.flush_decode_cache();
        assert_eq!(exec.inner.flushes.get(), 1);
        let mut st = spinning_state();
        st.mem.write_u32(pc_at(100), 1).unwrap();
        let stats = EmulationCore::new(boxed)
            .run(&mut st, &mut [])
            .expect("run exits");
        assert_eq!(stats.retired, 101);
        assert!(
            exec.block_calls.get() > 0,
            "the box must forward run_block, not fall back to stepping"
        );
    }

    #[test]
    fn block_dispatch_delivers_every_record_to_every_observer() {
        let mut st = spinning_state();
        st.mem.write_u32(pc_at(100), 1).unwrap();
        let mut count = CountingObserver::default();
        let mut every = EveryRecord::default();
        let exec = BlockSpinExec::new();
        EmulationCore::new(&exec)
            .run(&mut st, &mut [&mut count, &mut every])
            .expect("run exits");
        assert_eq!(count.retired, 101, "counts must equal retirements");
        assert!(
            exec.block_calls.get() > 1,
            "a 101-instruction run must span several 16-instruction blocks"
        );
        assert_eq!(every.records, 101);
        assert_eq!(
            every.last_pc,
            pc_at(100),
            "last record is the exiting instruction"
        );
    }

    #[test]
    fn injected_trap_lands_on_its_count_between_blocks() {
        let mut st = spinning_state();
        st.mem.write_u32(pc_at(3000), 9).unwrap();
        let exec = BlockSpinExec::new();
        let plan = FaultPlan::parse("trap@1000").unwrap();
        let core = EmulationCore::new(&exec).with_injector(Box::new(plan));
        let err = core.run(&mut st, &mut []).unwrap_err();
        assert!(matches!(err, SimError::Fault { .. }), "{err}");
        assert_eq!((st.instret, st.pc), (1000, pc_at(1000)));
        assert!(exec.blocks_around(1000).0 > 0, "blocks ran up to the trap");
        // The plan is spent, so the same core carries the guest on.
        let stats = core.run(&mut st, &mut []).unwrap();
        assert_eq!((stats.retired, stats.exit_code), (3001, 9));
        assert!(exec.blocks_around(1000).1 > 0, "blocks ran after the trap");
    }

    #[test]
    fn injected_fetch_corruption_lands_on_its_count_between_blocks() {
        let mut st = spinning_state();
        // exit(7) as retirement 1000: only a flip at exactly 1000 turns it
        // into a nop (one earlier exits with 7 at 1000, one later never
        // comes), and the guest runs on to exit(9).
        st.mem.write_u32(pc_at(1000), 7).unwrap();
        st.mem.write_u32(pc_at(3000), 9).unwrap();
        let exec = BlockSpinExec::new();
        let plan = FaultPlan::parse("fetch@1000:0x7").unwrap();
        let stats = EmulationCore::new(&exec)
            .with_injector(Box::new(plan))
            .run(&mut st, &mut [])
            .unwrap();
        assert_eq!((stats.retired, stats.exit_code), (3001, 9));
        assert_eq!(exec.inner.flushes.get(), 1, "decode cache flushed once");
        let (before, after) = exec.blocks_around(1000);
        assert!(
            before > 0 && after > 0,
            "blocks ran on both sides: {before}/{after}"
        );
        assert!(
            exec.block_starts.borrow().contains(&pc_at(1000)),
            "no block spans the fault"
        );
    }

    #[test]
    fn read_flip_runs_blocks_only_after_it_fires() {
        let mut st = spinning_state();
        // SpinExec fetches once per step, so read #500 is the fetch of
        // retirement 499: its exit(8) loses bit 3 and becomes a nop.
        st.mem.write_u32(pc_at(499), 8).unwrap();
        st.mem.write_u32(pc_at(3000), 9).unwrap();
        let exec = BlockSpinExec::new();
        let plan = FaultPlan::parse("read@500:3").unwrap();
        let stats = EmulationCore::new(&exec)
            .with_injector(Box::new(plan))
            .run(&mut st, &mut [])
            .unwrap();
        assert_eq!((stats.retired, stats.exit_code), (3001, 9));
        assert_eq!(
            exec.blocks_around(500),
            (0, exec.block_calls.get() as usize)
        );
        assert!(
            exec.block_calls.get() > 0,
            "blocks ran once the flip had fired"
        );
        assert_eq!(exec.block_starts.borrow()[0], pc_at(500));
    }

    #[test]
    fn campaign_restored_between_its_faults_fires_the_second_once() {
        use crate::checkpoint::{Checkpoint, TraceMark};
        use crate::fault::Campaign;
        let schedule = || {
            let plans = ["fetch@100:0x5", "trap@20000"].map(|s| FaultPlan::parse(s).unwrap());
            Campaign::from_plans(plans.to_vec(), 0)
        };
        let guest = || {
            let mut st = spinning_state();
            st.mem.write_u32(pc_at(100), 5).unwrap(); // the fetch fault turns it into a nop
            st
        };

        // Uninterrupted reference.
        let mut st = guest();
        let campaign = schedule();
        let err = EmulationCore::new(BlockSpinExec::new())
            .with_injector(Box::new(campaign.clone()))
            .run(&mut st, &mut [])
            .unwrap_err();
        assert!(matches!(err, SimError::Fault { .. }), "{err}");
        assert_eq!((st.instret, campaign.fired_count()), (20000, 2));

        // Paused between the two faults, snapshotted, restored, resumed.
        let mut st = guest();
        let campaign = schedule();
        let stats = EmulationCore::new(BlockSpinExec::new())
            .with_injector(Box::new(campaign.clone()))
            .with_checkpoint_every(16384)
            .run(&mut st, &mut [])
            .unwrap();
        assert_eq!(stats.stop, StopReason::CheckpointDue);
        assert_eq!((stats.retired, campaign.fired_count()), (16384, 1));
        let bytes = Checkpoint::capture(&st, Some(&campaign), TraceMark::default()).to_bytes();
        let ckpt = Checkpoint::from_bytes(&bytes).unwrap();
        let mut st = ckpt.restore_state().unwrap();
        let restored = ckpt.campaign.as_ref().unwrap().rearm().unwrap();
        let exec = BlockSpinExec::new();
        let err = EmulationCore::new(&exec)
            .with_injector(Box::new(restored.clone()))
            .run(&mut st, &mut [])
            .unwrap_err();
        assert!(matches!(err, SimError::Fault { .. }), "{err}");
        assert_eq!(
            st.instret, 20000,
            "the second fault lands where it does uninterrupted"
        );
        assert_eq!(restored.fired_count(), 2, "the second fault fired once");
        assert_eq!(
            exec.inner.flushes.get(),
            0,
            "the first fault did not fire again"
        );
        assert!(exec.block_calls.get() > 0);
    }
}
