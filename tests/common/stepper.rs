//! The per-instruction stepper: the oracle the emulation core's retire
//! loop is held to. It consults the fault campaign before every step and
//! retires one instruction at a time through `IsaExecutor::step` — no
//! blocks, no fuel boundaries — so whatever the core does
//! to go faster, a run must come out exactly as it does here.

use simcore::{Campaign, CpuState, InjectAction, IsaExecutor, Observer, SimError};

/// Run `state` until the guest exits or `budget` instructions have
/// retired, calling the campaign's `before_step` before every step and
/// each observer's `on_retire` after it. Returns the retirement count,
/// counted from the state's `instret`; on an error `state.instret` holds
/// the count reached, as the core leaves it.
pub fn run_stepped<E: IsaExecutor>(
    exec: &E,
    state: &mut CpuState,
    observers: &mut [&mut dyn Observer],
    mut campaign: Option<Campaign>,
    budget: u64,
) -> Result<u64, SimError> {
    let mut retired = state.instret;
    let result = loop {
        if state.exited.is_some() {
            break Ok(retired);
        }
        if retired >= budget {
            break Err(SimError::InstructionBudgetExceeded { budget });
        }
        if let Some(c) = campaign.as_mut() {
            match c.before_step(state, retired) {
                Ok(InjectAction::Continue) => {}
                Ok(InjectAction::FlushDecodeCache) => exec.flush_decode_cache(),
                Err(e) => break Err(e),
            }
        }
        match exec.step(state) {
            Ok(ri) => {
                retired += 1;
                for obs in observers.iter_mut() {
                    obs.on_retire(&ri);
                }
            }
            Err(e) => break Err(e),
        }
    };
    state.instret = retired;
    if result.is_ok() {
        for obs in observers.iter_mut() {
            obs.on_finish();
        }
    }
    result
}
