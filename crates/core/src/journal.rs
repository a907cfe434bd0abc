//! Crash-safe cell journal for matrix runs (`results/matrix.journal.jsonl`).
//!
//! `matrix.json` is written once, after every cell finishes — a SIGKILL
//! mid-matrix loses hours of completed work. The journal closes that
//! window: as each cell completes (or exhausts its retries), one JSONL
//! record is appended and fsynced via [`simcore::durable::DurableLog`]
//! before the worker moves on. After a crash, [`read_journal`] recovers
//! every acknowledged outcome and `make_tables --resume` re-runs only the
//! combos with no record, re-arming any fault campaign from the manifest
//! embedded in the journal's `begin` record.
//!
//! Record shapes (one compact JSON object per line):
//!
//! ```text
//! {"kind":"begin","schema":1,"size":"test","campaign":{...manifest...}}
//! {"kind":"cell","cell":{...ExperimentCell...}}
//! {"kind":"failure","failure":{...CellFailure...}}
//! ```
//!
//! The `begin` record pins the size class (resuming under a different
//! `--size` would silently mix incomparable measurements) and carries the
//! campaign manifest so a resumed sweep re-arms the *exact* recorded
//! schedule. Appends are whole-line writes followed by `fdatasync`, so a
//! crash can tear at most the final line; [`read_journal`] tolerates an
//! unterminated tail and reports it via [`JournalContents::torn_tail`].
//! Cells interrupted by SIGINT/SIGTERM are never journaled — an absent
//! record is exactly what marks a combo for re-running on resume.

use std::io;
use std::path::Path;

use analysis::{CellFailure, ExperimentCell, ResultMatrix};
use simcore::durable::DurableLog;
use telemetry::Json;

use crate::campaign::CampaignManifest;

/// Journal record schema version; bump on incompatible shape changes.
pub const JOURNAL_SCHEMA: u64 = 1;

/// Append-only, fsync-per-record writer for matrix cell outcomes.
pub struct CellJournal {
    log: DurableLog,
}

impl CellJournal {
    /// Start a fresh journal at `path`: any stale journal from a previous
    /// run is removed, then the `begin` record (schema, size class, and
    /// optional campaign manifest) is durably appended.
    pub fn create(
        path: &Path,
        size: &str,
        campaign: Option<&CampaignManifest>,
    ) -> io::Result<CellJournal> {
        match std::fs::remove_file(path) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let mut journal = CellJournal {
            log: DurableLog::open(path)?,
        };
        let mut fields = vec![
            ("kind", Json::Str("begin".into())),
            ("schema", Json::Num(JOURNAL_SCHEMA as f64)),
            ("size", Json::Str(size.to_string())),
        ];
        if let Some(m) = campaign {
            fields.push(("campaign", manifest_value(m)));
        }
        journal.append(Json::obj(fields))?;
        Ok(journal)
    }

    /// Reopen an existing journal to continue appending after a resume.
    /// No `begin` record is written — the original one still governs.
    pub fn append_to(path: &Path) -> io::Result<CellJournal> {
        Ok(CellJournal {
            log: DurableLog::open(path)?,
        })
    }

    /// Durably record one measured cell.
    pub fn record_cell(&mut self, cell: &ExperimentCell) -> io::Result<()> {
        self.append(Json::obj(vec![
            ("kind", Json::Str("cell".into())),
            ("cell", cell.to_json_value()),
        ]))
    }

    /// Durably record one terminal failure (retries exhausted or
    /// non-retryable).
    pub fn record_failure(&mut self, failure: &CellFailure) -> io::Result<()> {
        self.append(Json::obj(vec![
            ("kind", Json::Str("failure".into())),
            ("failure", failure.to_json_value()),
        ]))
    }

    fn append(&mut self, record: Json) -> io::Result<()> {
        let mut line = record.compact();
        line.push('\n');
        self.log.append(line.as_bytes())?;
        telemetry::global().counter_add("journal_records", 1);
        Ok(())
    }
}

/// Everything a resumed run recovers from a journal.
#[derive(Debug)]
pub struct JournalContents {
    /// Size-class name pinned by the `begin` record.
    pub size: String,
    /// Campaign manifest recorded at `begin`, if the run was a fault sweep.
    pub campaign: Option<CampaignManifest>,
    /// Recovered outcomes, in append (completion) order.
    pub matrix: ResultMatrix,
    /// True when the final line was torn by a crash mid-append (the torn
    /// record is discarded; its combo simply re-runs).
    pub torn_tail: bool,
}

/// Read a journal back, tolerating a torn final line.
///
/// Errors on: unreadable file, missing/invalid `begin` record, unknown
/// schema, or any *complete* line that does not parse — those indicate
/// corruption beyond the single torn-tail window the append discipline
/// permits.
pub fn read_journal(path: &Path) -> Result<JournalContents, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read journal {}: {e}", path.display()))?;

    // Split into complete (newline-terminated) records; trailing bytes
    // without a newline are a torn append.
    let mut records: Vec<&str> = Vec::new();
    let mut rest = text.as_str();
    while let Some(pos) = rest.find('\n') {
        records.push(&rest[..pos]);
        rest = &rest[pos + 1..];
    }
    let torn_tail = !rest.is_empty();

    let mut it = records.iter().filter(|l| !l.trim().is_empty());
    let begin_line = it.next().ok_or("journal is empty (no begin record)")?;
    let begin = Json::parse(begin_line).map_err(|e| format!("journal begin record: {e}"))?;
    if begin.get("kind").and_then(Json::as_str) != Some("begin") {
        return Err("journal does not start with a begin record".into());
    }
    let schema = begin
        .get("schema")
        .and_then(Json::as_u64)
        .ok_or("journal begin record: missing schema")?;
    if schema != JOURNAL_SCHEMA {
        return Err(format!(
            "journal schema {schema} is not supported (expected {JOURNAL_SCHEMA})"
        ));
    }
    let size = begin
        .get("size")
        .and_then(Json::as_str)
        .ok_or("journal begin record: missing size")?
        .to_string();
    let campaign = match begin.get("campaign") {
        Some(c) => Some(
            CampaignManifest::from_json(&c.compact())
                .map_err(|e| format!("journal begin record: {e}"))?,
        ),
        None => None,
    };

    let mut matrix = ResultMatrix::default();
    for (i, line) in it.enumerate() {
        let rec = Json::parse(line).map_err(|e| format!("journal record {}: {e}", i + 2))?;
        match rec.get("kind").and_then(Json::as_str) {
            Some("cell") => {
                let cell = rec
                    .get("cell")
                    .ok_or_else(|| format!("journal record {}: missing cell body", i + 2))
                    .and_then(|c| {
                        ExperimentCell::from_json_value(c)
                            .map_err(|e| format!("journal record {}: {e}", i + 2))
                    })?;
                matrix.cells.push(cell);
            }
            Some("failure") => {
                let failure = rec
                    .get("failure")
                    .ok_or_else(|| format!("journal record {}: missing failure body", i + 2))
                    .and_then(|f| {
                        CellFailure::from_json_value(f)
                            .map_err(|e| format!("journal record {}: {e}", i + 2))
                    })?;
                matrix.failures.push(failure);
            }
            Some(other) => return Err(format!("journal record {}: unknown kind {other:?}", i + 2)),
            None => return Err(format!("journal record {}: missing kind", i + 2)),
        }
    }

    Ok(JournalContents {
        size,
        campaign,
        matrix,
        torn_tail,
    })
}

/// Embed a campaign manifest as a JSON value (same shape as
/// `CampaignManifest::to_json`, minus the pretty-printing).
fn manifest_value(m: &CampaignManifest) -> Json {
    Json::obj(vec![
        ("seed", Json::Str(format!("{:#x}", m.seed))),
        ("window", Json::Num(m.window as f64)),
        (
            "faults",
            Json::Arr(m.specs.iter().map(|s| Json::Str(s.clone())).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::CampaignSpec;

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("isacmp-journal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_cell(workload: &str) -> ExperimentCell {
        ExperimentCell {
            workload: workload.into(),
            compiler: "gcc-12.2".into(),
            isa: "AArch64".into(),
            path_length: 123_456,
            critical_path: 10_000,
            scaled_cp: 60_000,
            kernels: vec![("copy".into(), 61_728), ("scale".into(), 61_728)],
            windows: vec![(4, 2.5, 1.5), (16, 8.0, 2.0)],
            fused: None,
        }
    }

    fn sample_failure() -> CellFailure {
        CellFailure {
            workload: "STREAM".into(),
            compiler: "gcc-9.2".into(),
            isa: "RISC-V".into(),
            kind: "timeout".into(),
            detail: "watchdog after 1s".into(),
            retries: 0,
        }
    }

    #[test]
    fn journal_round_trips_cells_failures_and_manifest() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("matrix.journal.jsonl");
        let manifest = CampaignManifest::sample(CampaignSpec {
            seed: 7,
            n_faults: 3,
        });
        {
            let mut j = CellJournal::create(&path, "test", Some(&manifest)).unwrap();
            j.record_cell(&sample_cell("stream")).unwrap();
            j.record_failure(&sample_failure()).unwrap();
            j.record_cell(&sample_cell("crc32")).unwrap();
        }
        let back = read_journal(&path).unwrap();
        assert_eq!(back.size, "test");
        assert_eq!(back.campaign.as_ref(), Some(&manifest));
        assert!(!back.torn_tail);
        assert_eq!(back.matrix.cells.len(), 2);
        assert_eq!(back.matrix.cells[0], sample_cell("stream"));
        assert_eq!(back.matrix.cells[1], sample_cell("crc32"));
        assert_eq!(back.matrix.failures, vec![sample_failure()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_tolerated_and_reported() {
        let dir = tmp_dir("torn");
        let path = dir.join("matrix.journal.jsonl");
        {
            let mut j = CellJournal::create(&path, "small", None).unwrap();
            j.record_cell(&sample_cell("stream")).unwrap();
        }
        // Simulate a SIGKILL mid-append: a prefix of a record, no newline.
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(b"{\"kind\":\"cell\",\"cell\":{\"worklo")
            .unwrap();
        drop(f);

        let back = read_journal(&path).unwrap();
        assert!(back.torn_tail, "unterminated tail must be flagged");
        assert_eq!(back.matrix.cells.len(), 1, "torn record is discarded");
        assert!(back.campaign.is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_truncates_a_stale_journal_and_append_to_does_not() {
        let dir = tmp_dir("truncate");
        let path = dir.join("matrix.journal.jsonl");
        {
            let mut j = CellJournal::create(&path, "test", None).unwrap();
            j.record_cell(&sample_cell("stream")).unwrap();
        }
        {
            let mut j = CellJournal::append_to(&path).unwrap();
            j.record_cell(&sample_cell("crc32")).unwrap();
        }
        assert_eq!(read_journal(&path).unwrap().matrix.cells.len(), 2);
        {
            let _j = CellJournal::create(&path, "test", None).unwrap();
        }
        assert_eq!(read_journal(&path).unwrap().matrix.cells.len(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_complete_lines_and_bad_schema_are_rejected() {
        let dir = tmp_dir("corrupt");
        let path = dir.join("matrix.journal.jsonl");
        std::fs::write(
            &path,
            "{\"kind\":\"begin\",\"schema\":1,\"size\":\"test\"}\nnot json\n",
        )
        .unwrap();
        assert!(read_journal(&path)
            .unwrap_err()
            .contains("journal record 2"));

        std::fs::write(
            &path,
            "{\"kind\":\"begin\",\"schema\":99,\"size\":\"test\"}\n",
        )
        .unwrap();
        assert!(read_journal(&path).unwrap_err().contains("schema 99"));

        std::fs::write(&path, "").unwrap();
        assert!(read_journal(&path).unwrap_err().contains("empty"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
