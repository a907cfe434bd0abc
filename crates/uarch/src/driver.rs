//! Guest-run drivers: fault-injectable execution for the timing models.
//!
//! The pipeline and cache models are trace consumers ([`simcore::Observer`]s)
//! — they have no fetch path of their own, so a fault cannot be injected
//! "into" them directly. [`run_guest`] closes that gap: it drives the model
//! from an [`EmulationCore`] over the caller's executor, with the same
//! optional [`FaultInjector`] hook the plain emulation path uses. The two
//! paths therefore share one set of execution semantics by construction,
//! and the differential test pass verifies exactly that: with injection
//! disabled, a pipeline-driven run and a plain emulation run retire
//! identical streams and agree on final architectural state; with the same
//! armed fault, both degrade to the same error.

use std::time::Duration;

use simcore::{CpuState, EmulationCore, FaultInjector, IsaExecutor, Observer, RunStats, SimError};

use crate::cache::CacheModel;
use crate::latency::LatencyModel;
use crate::pipeline::{InOrderCore, OoOCore};

/// Run the guest in `state` to completion on `exec`, feeding every
/// retirement to `observer`, with an optional wall-clock deadline and
/// fault injector — the same knobs as the emulation path. Records are
/// delivered one by one; only decode overhead is amortized over blocks.
pub fn run_guest<E: IsaExecutor>(
    observer: &mut dyn Observer,
    exec: E,
    state: &mut CpuState,
    deadline: Option<Duration>,
    injector: Option<Box<dyn FaultInjector>>,
) -> Result<RunStats, SimError> {
    let mut core = EmulationCore::new(exec);
    if let Some(d) = deadline {
        core = core.with_deadline(d);
    }
    if let Some(inj) = injector {
        core = core.with_injector(inj);
    }
    core.run(state, &mut [observer])
}

impl<M: LatencyModel> InOrderCore<M> {
    /// Execute the guest in `state` on `exec` and time it on this core,
    /// consulting `injector` wherever it is due (see [`run_guest`]).
    pub fn run_guest<E: IsaExecutor>(
        &mut self,
        exec: E,
        state: &mut CpuState,
        deadline: Option<Duration>,
        injector: Option<Box<dyn FaultInjector>>,
    ) -> Result<RunStats, SimError> {
        run_guest(self, exec, state, deadline, injector)
    }
}

impl<M: LatencyModel> OoOCore<M> {
    /// Execute the guest in `state` on `exec` and time it on this core,
    /// consulting `injector` wherever it is due (see [`run_guest`]).
    pub fn run_guest<E: IsaExecutor>(
        &mut self,
        exec: E,
        state: &mut CpuState,
        deadline: Option<Duration>,
        injector: Option<Box<dyn FaultInjector>>,
    ) -> Result<RunStats, SimError> {
        run_guest(self, exec, state, deadline, injector)
    }
}

impl CacheModel {
    /// Execute the guest in `state` on `exec` and replay its memory
    /// accesses through this cache, consulting `injector` wherever it is
    /// due (see [`run_guest`]).
    pub fn run_guest<E: IsaExecutor>(
        &mut self,
        exec: E,
        state: &mut CpuState,
        deadline: Option<Duration>,
        injector: Option<Box<dyn FaultInjector>>,
    ) -> Result<RunStats, SimError> {
        run_guest(self, exec, state, deadline, injector)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use crate::latency::Tx2Latency;
    use crate::pipeline::PipelineConfig;
    use simcore::{Campaign, FaultPlan, InstGroup, RetiredInst};

    /// Counting guest: each step loads a counter from memory, increments
    /// it, and exits after `limit` iterations — real memory traffic, so
    /// read faults are visible and the cache model sees accesses.
    struct CountExec {
        limit: u64,
    }

    impl IsaExecutor for CountExec {
        fn step(&self, state: &mut CpuState) -> Result<RetiredInst, SimError> {
            let n = state.mem.read_u64(0x2000)?;
            if n >= self.limit {
                state.exited = Some(0);
            } else {
                state.mem.write_u64(0x2000, n + 1)?;
            }
            let mut ri = RetiredInst::new(state.pc, InstGroup::Load);
            ri.push_read(0x2000, 8);
            state.pc = state.pc.wrapping_add(4);
            Ok(ri)
        }

        fn disassemble(&self, _word: u32) -> String {
            "count".into()
        }

        fn name(&self) -> &'static str {
            "count"
        }
    }

    fn fresh_state() -> CpuState {
        let mut st = CpuState::new();
        st.pc = 0x1000;
        st.mem.write_u64(0x2000, 0).unwrap();
        st
    }

    #[test]
    fn pipeline_run_matches_plain_emulation() {
        let mut st_plain = fresh_state();
        let plain = EmulationCore::new(CountExec { limit: 100 })
            .run(&mut st_plain, &mut [])
            .unwrap();

        let mut core = OoOCore::new(Tx2Latency, PipelineConfig::tx2());
        let mut st = fresh_state();
        let timed = core
            .run_guest(CountExec { limit: 100 }, &mut st, None, None)
            .unwrap();
        assert_eq!(timed.retired, plain.retired);
        assert_eq!(core.stats().retired, plain.retired);
        assert_eq!(
            st.mem.read_u64(0x2000).unwrap(),
            st_plain.mem.read_u64(0x2000).unwrap()
        );
    }

    #[test]
    fn injected_trap_fails_pipeline_and_emulation_identically() {
        let plan = FaultPlan::parse("trap@7").unwrap();

        let mut st = fresh_state();
        let plain_err = EmulationCore::new(CountExec { limit: 100 })
            .with_injector(Box::new(plan.clone()))
            .run(&mut st, &mut [])
            .unwrap_err();

        let mut core = InOrderCore::new(Tx2Latency, PipelineConfig::a55());
        let mut st2 = fresh_state();
        let piped_err = core
            .run_guest(
                CountExec { limit: 100 },
                &mut st2,
                None,
                Some(Box::new(plan)),
            )
            .unwrap_err();
        assert!(matches!(plain_err, SimError::Fault { .. }));
        assert!(matches!(piped_err, SimError::Fault { .. }));
        assert_eq!(
            st.instret, st2.instret,
            "both paths stop at the same retirement"
        );
    }

    #[test]
    fn cache_model_accepts_a_campaign() {
        let campaign = Campaign::from_plans(vec![FaultPlan::parse("read@3:0").unwrap()], 0);
        let mut cache = CacheModel::new(CacheConfig::l1d_32k());
        let mut st = fresh_state();
        cache
            .run_guest(
                CountExec { limit: 50 },
                &mut st,
                None,
                Some(Box::new(campaign.clone())),
            )
            .unwrap();
        assert_eq!(
            campaign.fired_count(),
            1,
            "the read flip armed (and fired) once"
        );
        assert!(
            cache.stats().accesses > 0,
            "the cache saw the guest's loads"
        );
    }
}
