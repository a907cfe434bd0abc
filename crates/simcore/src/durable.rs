//! Crash-durable file writes: the fsync discipline every persistent
//! artifact in the workspace routes through.
//!
//! A bare `File::create` + `write_all` (or even tmp+rename without fsync)
//! leaves two windows where a crash or power loss loses or corrupts data:
//! the file contents may still be in the page cache when the rename makes
//! the new name visible, and the rename itself may not have reached the
//! directory's metadata. The helpers here close both windows:
//!
//! - [`durable_write`]: write to `<path>.tmp`, fsync the tmp, rename over
//!   the final name, fsync the parent directory. A reader either sees the
//!   complete old contents or the complete new contents — never a torn
//!   file, even across SIGKILL or power loss.
//! - [`commit`]: the same rename + directory-fsync discipline for a tmp
//!   file some other writer already produced (e.g. a streamed trace
//!   capture), fsyncing it first.
//! - [`DurableLog::append`]: append one record to a log and `fdatasync`
//!   it before returning, so an append-only journal survives a crash with
//!   every acknowledged record intact (the final record may be torn — a
//!   torn *line* — which readers must tolerate).
//!
//! Directory fsync is a no-op on platforms where directories cannot be
//! opened for reading (e.g. Windows); the rename is still atomic there.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;

/// Fsync the directory containing `path`, so a rename or creation inside
/// it is durable. Best-effort: errors opening the directory are ignored
/// (not every platform allows it), but a failed `sync_all` on an opened
/// directory is reported.
fn sync_parent_dir(path: &Path) -> io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    match File::open(parent) {
        Ok(dir) => dir.sync_all(),
        // Opening a directory read-only fails on some platforms; the
        // rename is still atomic, just not power-loss durable there.
        Err(_) => Ok(()),
    }
}

/// Atomically and durably replace `path` with `contents`.
///
/// Writes `<path>.tmp`, fsyncs it, renames it over `path`, then fsyncs the
/// parent directory. On any error the final file is untouched (a stale
/// `.tmp` may remain; the next write truncates it).
pub fn durable_write(path: &Path, contents: &[u8]) -> io::Result<()> {
    let tmp = tmp_path(path);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(contents)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    sync_parent_dir(path)
}

/// Durably promote an existing fully-written `tmp` file to `path`:
/// fsync `tmp`, rename it over `path`, fsync the parent directory.
///
/// For writers that stream into a tmp file themselves (trace captures,
/// checkpoint snapshots) and only need the commit step.
pub fn commit(tmp: &Path, path: &Path) -> io::Result<()> {
    File::open(tmp)?.sync_all()?;
    std::fs::rename(tmp, path)?;
    sync_parent_dir(path)
}

/// The sibling tmp name `durable_write` stages into: `<path>.tmp`.
pub fn tmp_path(path: &Path) -> std::path::PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    std::path::PathBuf::from(os)
}

/// An append-only log where every appended record is synced to disk
/// before the append returns — the fsync-per-record discipline the cell
/// journal needs to survive SIGKILL with all acknowledged records intact.
pub struct DurableLog {
    file: File,
}

impl DurableLog {
    /// Open (creating if needed) an append-only log at `path`, and make
    /// the creation itself durable by fsyncing the parent directory.
    pub fn open(path: &Path) -> io::Result<DurableLog> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        sync_parent_dir(path)?;
        Ok(DurableLog { file })
    }

    /// Append `record` (the caller includes any terminator, typically a
    /// trailing newline) and `fdatasync` before returning.
    pub fn append(&mut self, record: &[u8]) -> io::Result<()> {
        self.file.write_all(record)?;
        self.file.sync_data()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("isacmp-durable-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn write_replaces_atomically_and_leaves_no_tmp() {
        let dir = tmp_dir("write");
        let path = dir.join("out.json");
        durable_write(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        durable_write(&path, b"second, longer contents").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second, longer contents");
        assert!(
            !tmp_path(&path).exists(),
            "tmp staging file is consumed by the rename"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_into_missing_directory_errors_without_touching_target() {
        let dir = tmp_dir("missing");
        let path = dir.join("no-such-subdir").join("out.json");
        assert!(durable_write(&path, b"x").is_err());
        assert!(!path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn commit_promotes_existing_tmp() {
        let dir = tmp_dir("commit");
        let tmp = dir.join("cap.trace.tmp");
        let fin = dir.join("cap.trace");
        std::fs::write(&tmp, b"streamed bytes").unwrap();
        commit(&tmp, &fin).unwrap();
        assert_eq!(std::fs::read(&fin).unwrap(), b"streamed bytes");
        assert!(!tmp.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn log_appends_accumulate_in_order() {
        let dir = tmp_dir("log");
        let path = dir.join("journal.jsonl");
        {
            let mut log = DurableLog::open(&path).unwrap();
            log.append(b"{\"a\":1}\n").unwrap();
            log.append(b"{\"b\":2}\n").unwrap();
        }
        // Reopening appends, never truncates.
        let mut log = DurableLog::open(&path).unwrap();
        log.append(b"{\"c\":3}\n").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "{\"a\":1}\n{\"b\":2}\n{\"c\":3}\n");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
