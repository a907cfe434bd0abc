//! Retirement-stream observers.

use crate::retire::RetiredInst;

/// An analysis pass that consumes the retirement stream.
///
/// Every retired instruction reaches the observer once, in program order.
/// The emulation core and the bulk sources hand records over in runs,
/// through [`Observer::on_records`]; a record-at-a-time driver (the
/// stepper oracle, a trace iterator) calls [`Observer::on_retire`].
/// Observers are deliberately streaming: the paper's traces run to
/// billions of instructions, so analyses must not buffer the whole trace
/// (the windowed critical path keeps only a bounded ring of the most
/// recent records).
pub trait Observer {
    /// Called after each instruction retires.
    fn on_retire(&mut self, ri: &RetiredInst);

    /// Called with a run of consecutive retirements, in program order, by
    /// sources that hold records in bulk (the emulation core's run buffer,
    /// a decoded trace block, an in-memory slice): one dynamic call per run
    /// instead of one per record. The default loops over
    /// [`Observer::on_retire`]; since it is instantiated for each
    /// implementing type, those calls are direct and inlinable, so
    /// observers need not override it.
    #[inline]
    fn on_records(&mut self, run: &[RetiredInst]) {
        for ri in run {
            self.on_retire(ri);
        }
    }

    /// Called once when the program exits; default does nothing.
    fn on_finish(&mut self) {}
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
