//! A generic source of retired-instruction events.
//!
//! Every analysis in this reproduction consumes the same retirement stream,
//! but the stream can come from more than one place: a live
//! [`EmulationCore`](crate::EmulationCore) run, a replayed on-disk trace
//! (the `trace` crate), or an in-memory record list in tests. The
//! [`RetireSource`] trait abstracts over all of them so an analysis pass is
//! written once and driven from whichever source is cheapest.

use crate::error::SimError;
use crate::observer::Observer;
use crate::retire::RetiredInst;

/// Something that can stream retired instructions, in program order, into a
/// set of [`Observer`]s.
///
/// Implementations: a live emulation run (`isacmp::LiveSource`), a replayed
/// trace (`trace::TraceReader`), or any slice of records (below).
pub trait RetireSource {
    /// Pump every remaining retirement through `observers` (calling
    /// [`Observer::on_finish`] at the end), returning the number of
    /// instructions delivered.
    fn drive(&mut self, observers: &mut [&mut dyn Observer]) -> Result<u64, SimError>;

    /// Short label for diagnostics ("live", "trace", ...).
    fn source_name(&self) -> &'static str {
        "source"
    }
}

/// Longest run of records an in-memory slice hands an observer in one
/// [`Observer::on_records`] call, and the length at which a live
/// [`EmulationCore`](crate::EmulationCore) run hands its run buffer on (a
/// live run can exceed it by less than one block). 512 records are
/// 32 KiB: the live matrix spent less CPU at 512 than at 4,096, and the
/// larger buffer also raised peak RSS by 3–4%.
pub const RUN_RECORDS: usize = 512;

/// In-memory record lists are sources too — handy for tests and for
/// re-analyzing a stream that was buffered anyway. Records go out in runs
/// of at most [`RUN_RECORDS`], each observer taking a whole run before the
/// next observer sees it.
impl RetireSource for &[RetiredInst] {
    fn drive(&mut self, observers: &mut [&mut dyn Observer]) -> Result<u64, SimError> {
        for run in self.chunks(RUN_RECORDS) {
            for obs in observers.iter_mut() {
                obs.on_records(run);
            }
        }
        for obs in observers.iter_mut() {
            obs.on_finish();
        }
        Ok(self.len() as u64)
    }

    fn source_name(&self) -> &'static str {
        "slice"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::CountingObserver;
    use crate::retire::InstGroup;

    #[test]
    fn slice_source_drives_observers() {
        let records: Vec<RetiredInst> = (0..7)
            .map(|i| RetiredInst::new(i * 4, InstGroup::IntAlu))
            .collect();
        let mut count = CountingObserver::default();
        let mut src: &[RetiredInst] = &records;
        let n = {
            let mut obs: Vec<&mut dyn Observer> = vec![&mut count];
            src.drive(&mut obs).unwrap()
        };
        assert_eq!(n, 7);
        assert_eq!(count.retired, 7);
    }

    /// Keeps every run it is handed, so the hand-off itself is visible.
    #[derive(Default)]
    struct Runs(Vec<Vec<RetiredInst>>);

    impl Observer for Runs {
        fn on_retire(&mut self, ri: &RetiredInst) {
            self.0.push(vec![*ri]);
        }

        fn on_records(&mut self, run: &[RetiredInst]) {
            self.0.push(run.to_vec());
        }
    }

    #[test]
    fn slice_source_hands_out_bounded_runs_in_order() {
        let n = 2 * RUN_RECORDS as u64 + 5;
        let records: Vec<RetiredInst> = (0..n)
            .map(|i| RetiredInst::new(i * 4, InstGroup::IntAlu))
            .collect();
        let (mut a, mut b) = (Runs::default(), Runs::default());
        let mut src: &[RetiredInst] = &records;
        let delivered = {
            let mut obs: Vec<&mut dyn Observer> = vec![&mut a, &mut b];
            src.drive(&mut obs).unwrap()
        };
        assert_eq!(delivered, n);
        for seen in [&a, &b] {
            let lens: Vec<usize> = seen.0.iter().map(Vec::len).collect();
            assert_eq!(lens, [RUN_RECORDS, RUN_RECORDS, 5]);
            assert_eq!(seen.0.concat(), records);
        }
    }
}
