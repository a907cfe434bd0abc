//! Retirement-stream observers.

use crate::retire::RetiredInst;

/// An analysis pass that consumes the retirement stream.
///
/// The emulation core calls [`Observer::on_retire`] once per retired
/// instruction, in program order. Observers are deliberately streaming: the
/// paper's traces run to billions of instructions, so analyses must not
/// buffer the whole trace (the windowed critical path keeps only a bounded
/// ring of the most recent records).
pub trait Observer {
    /// Called after each instruction retires.
    fn on_retire(&mut self, ri: &RetiredInst);

    /// Called with a run of consecutive retirements, in program order, by
    /// sources that hold records in bulk (a decoded trace block, an
    /// in-memory slice): one dynamic call per run instead of one per
    /// record. The default loops over [`Observer::on_retire`]; since it is
    /// instantiated for each implementing type, those calls are direct and
    /// inlinable, so observers need not override it.
    #[inline]
    fn on_records(&mut self, run: &[RetiredInst]) {
        for ri in run {
            self.on_retire(ri);
        }
    }

    /// Called once when the program exits; default does nothing.
    fn on_finish(&mut self) {}

    /// Whether this observer needs the per-instruction
    /// [`Observer::on_retire`] stream. The core's block loop only takes its
    /// fast path (no retirement records materialized) when **every**
    /// attached observer returns `false`; those observers then receive
    /// [`Observer::on_batch`] instead. Defaults to `true`, so existing
    /// observers keep exact per-instruction semantics unchanged.
    fn wants_retires(&self) -> bool {
        true
    }

    /// Called with the size of each retired batch when the block loop
    /// runs its fast path (see [`Observer::wants_retires`]). An observer
    /// returning `false` from `wants_retires` must account for `n`
    /// retirements here; the default does nothing.
    fn on_batch(&mut self, n: u64) {
        let _ = n;
    }
}

/// A no-op observer, useful for raw speed measurements.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl Observer for NullObserver {
    #[inline]
    fn on_retire(&mut self, _ri: &RetiredInst) {}

    /// Needs nothing per instruction, so it never forces the slow path.
    fn wants_retires(&self) -> bool {
        false
    }
}

/// An observer that simply counts retirements; the cheapest possible
/// path-length measurement when no per-kernel breakdown is needed.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingObserver {
    /// Number of instructions retired so far.
    pub retired: u64,
}

impl Observer for CountingObserver {
    #[inline]
    fn on_retire(&mut self, _ri: &RetiredInst) {
        self.retired += 1;
    }

    /// Counting needs only batch sizes, not records.
    fn wants_retires(&self) -> bool {
        false
    }

    #[inline]
    fn on_batch(&mut self, n: u64) {
        self.retired += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retire::{InstGroup, RetiredInst};

    #[test]
    fn counting_observer_counts() {
        let mut c = CountingObserver::default();
        let ri = RetiredInst::new(0, InstGroup::IntAlu);
        for _ in 0..5 {
            c.on_retire(&ri);
        }
        assert_eq!(c.retired, 5);
    }
}
