//! The per-cell trace cache behind `CellOptions::trace_dir`.
//!
//! Capture-then-replay: the first measurement of a cell emulates the guest
//! and streams the retirements into a `.trace` file next to the results;
//! every later measurement of the same cell replays that file through the
//! identical analysis bundle — no workload build, no compile, no emulation.
//! A cache hit requires the header provenance (workload / compiler / ISA /
//! size class) *and* the format version to match; anything else — missing
//! file, stale provenance, corruption, truncation — falls back to a live
//! run that recaptures.

use std::path::{Path, PathBuf};
use std::time::Instant;

use analysis::ExperimentCell;
use kernelgen::Personality;
use simcore::{IsaKind, RetireSource};
use trace::{TraceMeta, TraceReader};
use workloads::{SizeClass, Workload};

use crate::error::CellError;
use crate::{isa_label, Bundle};

/// The cache file for one cell: `{workload}-{compiler}-{isa}-{size}.trace`.
pub fn trace_path(
    dir: &Path,
    workload: Workload,
    personality: &Personality,
    isa: IsaKind,
    size: SizeClass,
) -> PathBuf {
    dir.join(format!(
        "{}-{}-{}-{}.trace",
        workload.name(),
        personality.label(),
        isa_label(isa),
        size.name()
    ))
}

/// The provenance header a capture of this cell must carry.
pub fn cell_meta(
    workload: Workload,
    personality: &Personality,
    isa: IsaKind,
    size: SizeClass,
    regions: &[simcore::Region],
) -> TraceMeta {
    TraceMeta {
        workload: workload.name().to_string(),
        compiler: personality.label().to_string(),
        isa: isa_label(isa).to_string(),
        size: size.name().to_string(),
        regions: regions.to_vec(),
    }
}

/// Replay a cached trace into a fresh [`analysis::CellAnalyses`] bundle.
///
/// Returns `Ok(None)` when the file is stale — its provenance names
/// another cell, or it was written in another format version — so the
/// caller runs live and recaptures. Corruption or I/O trouble comes back
/// as a [`CellError::Sim`] so the caller can count it and likewise fall
/// back.
///
/// Telemetry: counter `trace_replays`, histogram `trace_replay_ms`, and
/// gauge `trace_replay_speedup` (capture emulation wall time over replay
/// wall time, from the trailer).
///
/// Trace files are fusion-independent — they carry the raw retired stream
/// — so one capture serves both the plain and the `fusion` scenario; the
/// flag only decides whether the bundle replayed into is the fused form
/// ([`analysis::CellAnalyses::fused`]).
pub fn replay_cell(
    path: &Path,
    workload: Workload,
    personality: &Personality,
    isa: IsaKind,
    size: SizeClass,
    fuse: bool,
) -> Result<Option<ExperimentCell>, CellError> {
    let tel = telemetry::global();
    let _span = tel.enter("trace_replay");
    let start = Instant::now();
    let to_cell_err = |e: trace::TraceError| CellError::Sim {
        err: simcore::SimError::Fault {
            pc: 0,
            msg: format!("trace replay: {e}"),
        },
        instret: 0,
    };
    let mut reader = match TraceReader::open(path) {
        Ok(reader) => reader,
        Err(trace::TraceError::UnsupportedVersion { .. }) => return Ok(None),
        Err(e) => return Err(to_cell_err(e)),
    };
    if !reader.meta().matches_cell(
        workload.name(),
        personality.label(),
        isa_label(isa),
        size.name(),
    ) {
        return Ok(None);
    }
    let regions = reader.meta().regions.clone();
    let mut analyses = Bundle::new(isa, &regions, fuse);
    reader
        .drive(&mut [analyses.observer()])
        .map_err(|err| CellError::Sim { err, instret: 0 })?;
    let trailer = *reader.trailer().expect("drive() validated the trailer");
    let elapsed = start.elapsed();
    tel.counter_add("trace_replays", 1);
    tel.counter_add("trace_records_replayed", trailer.total_records);
    tel.histogram_record("trace_replay_ms", elapsed.as_millis() as u64);
    if trailer.capture_wall_us > 0 {
        let speedup = trailer.capture_wall_us as f64 / elapsed.as_micros().max(1) as f64;
        tel.gauge_set("trace_replay_speedup", speedup);
    }
    Ok(Some(analyses.into_cell(
        workload.name(),
        personality.label(),
        isa_label(isa),
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_scheme_is_stable() {
        let p = trace_path(
            Path::new("/tmp/traces"),
            Workload::Stream,
            &Personality::gcc122(),
            IsaKind::RiscV,
            SizeClass::Test,
        );
        assert_eq!(
            p,
            PathBuf::from("/tmp/traces/STREAM-gcc-12.2-RISC-V-test.trace")
        );
    }

    #[test]
    fn replay_of_missing_file_is_sim_error() {
        let err = replay_cell(
            Path::new("/nonexistent/x.trace"),
            Workload::Stream,
            &Personality::gcc122(),
            IsaKind::RiscV,
            SizeClass::Test,
            false,
        )
        .expect_err("missing file is an error, not a silent miss");
        assert_eq!(err.kind(), "sim");
    }
}
