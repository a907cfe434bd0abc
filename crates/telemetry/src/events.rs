//! Bounded structured event log.
//!
//! Failure-path diagnostics (cell retries, watchdog trips, fault
//! injections) used to go to stderr as ad-hoc `eprintln!` lines —
//! unparseable and unbounded. An [`EventLog`] is a fixed-capacity ring of
//! structured [`Event`]s: emitting is cheap and never allocates beyond the
//! ring, the oldest events are dropped (and counted) under pressure, and
//! the whole log drains to JSON Lines for post-run analysis.
//!
//! ```
//! use telemetry::events::EventLog;
//! use telemetry::Json;
//! let log = EventLog::with_capacity(2);
//! log.emit("cell_retry", &[("cell", Json::Str("STREAM/RISC-V".into()))]);
//! log.emit("watchdog_trip", &[("limit_ms", Json::Num(2000.0))]);
//! log.emit("cell_retry", &[]); // ring is full: the oldest event drops
//! assert_eq!(log.len(), 2);
//! assert_eq!(log.dropped(), 1);
//! let jsonl = log.to_jsonl();
//! assert_eq!(jsonl.lines().count(), 2);
//! ```

use std::collections::VecDeque;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;

/// One structured event.
#[derive(Debug, Clone)]
pub struct Event {
    /// Monotone sequence number (counts all events ever emitted, including
    /// later-dropped ones — gaps at the front reveal ring overflow).
    pub seq: u64,
    /// Microseconds since the log was created.
    pub t_us: u64,
    /// Event kind (`"cell_retry"`, `"watchdog_trip"`, `"fault_injected"`, ...).
    pub kind: String,
    /// Kind-specific payload, order preserved.
    pub fields: Vec<(String, Json)>,
}

impl Event {
    /// JSON object: `seq`, `t_us`, `kind`, then the payload fields.
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("seq".to_string(), Json::Num(self.seq as f64)),
            ("t_us".to_string(), Json::Num(self.t_us as f64)),
            ("kind".to_string(), Json::Str(self.kind.clone())),
        ];
        members.extend(self.fields.iter().cloned());
        Json::Obj(members)
    }
}

#[derive(Default)]
struct LogInner {
    ring: VecDeque<Event>,
    next_seq: u64,
    dropped: u64,
}

/// Fixed-capacity, thread-safe ring of [`Event`]s.
pub struct EventLog {
    epoch: Instant,
    cap: usize,
    inner: Mutex<LogInner>,
}

impl Default for EventLog {
    fn default() -> Self {
        Self::new()
    }
}

impl EventLog {
    /// Default ring capacity. Failure events are rare; a campaign that
    /// overflows this is itself a diagnostic (see [`EventLog::dropped`]).
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// Log with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Log holding at most `cap` events (minimum 1); older events drop first.
    pub fn with_capacity(cap: usize) -> Self {
        EventLog {
            epoch: Instant::now(),
            cap: cap.max(1),
            inner: Mutex::new(LogInner::default()),
        }
    }

    /// Append an event, evicting the oldest if the ring is full.
    pub fn emit(&self, kind: &str, fields: &[(&str, Json)]) {
        let t_us = self.epoch.elapsed().as_micros() as u64;
        let mut inner = self.inner.lock().unwrap();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        if inner.ring.len() == self.cap {
            inner.ring.pop_front();
            inner.dropped += 1;
        }
        inner.ring.push_back(Event {
            seq,
            t_us,
            kind: kind.to_string(),
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        });
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().ring.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever emitted (held + dropped).
    pub fn total(&self) -> u64 {
        self.inner.lock().unwrap().next_seq
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().unwrap().dropped
    }

    /// Copy of the events currently held, oldest first.
    pub fn snapshot(&self) -> Vec<Event> {
        self.inner.lock().unwrap().ring.iter().cloned().collect()
    }

    /// Remove and return all held events, oldest first. The sequence
    /// counter keeps running, so later events stay globally ordered.
    pub fn drain(&self) -> Vec<Event> {
        self.inner.lock().unwrap().ring.drain(..).collect()
    }

    /// JSON Lines rendering of the held events (one compact object per
    /// line), without draining.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in self.snapshot() {
            out.push_str(&e.to_json().compact());
            out.push('\n');
        }
        out
    }

    /// Drain the log to `path` as JSON Lines. Writes nothing (and creates
    /// no file) when the log is empty; returns how many events were written.
    pub fn drain_to_file(&self, path: &Path) -> std::io::Result<usize> {
        let events = self.drain();
        if events.is_empty() {
            return Ok(0);
        }
        let mut f = std::fs::File::create(path)?;
        for e in &events {
            writeln!(f, "{}", e.to_json().compact())?;
        }
        Ok(events.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_snapshot_and_sequences() {
        let log = EventLog::new();
        assert!(log.is_empty());
        log.emit("a", &[("x", Json::Num(1.0))]);
        log.emit("b", &[]);
        let events = log.snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, "a");
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[1].seq, 1);
        assert!(events[1].t_us >= events[0].t_us);
        assert_eq!(events[0].fields[0].0, "x");
    }

    #[test]
    fn ring_bounds_and_counts_drops() {
        let log = EventLog::with_capacity(3);
        for i in 0..10 {
            log.emit("e", &[("i", Json::Num(i as f64))]);
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.total(), 10);
        assert_eq!(log.dropped(), 7);
        // Survivors are the newest three, in order.
        let seqs: Vec<u64> = log.snapshot().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9]);
    }

    #[test]
    fn jsonl_lines_parse_individually() {
        let log = EventLog::new();
        log.emit(
            "watchdog_trip",
            &[
                ("limit_ms", Json::Num(2000.0)),
                ("cell", Json::Str("LBM/RISC-V".into())),
            ],
        );
        log.emit("cell_retry", &[("attempt", Json::Num(2.0))]);
        let jsonl = log.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let j = Json::parse(line).expect("each line is standalone JSON");
            assert!(j.get("kind").unwrap().as_str().is_some());
            assert!(j.get("seq").unwrap().as_u64().is_some());
        }
        assert!(lines[0].contains("\"watchdog_trip\""));
        // to_jsonl does not drain...
        assert_eq!(log.len(), 2);
        // ...drain does.
        assert_eq!(log.drain().len(), 2);
        assert!(log.is_empty());
        assert_eq!(log.total(), 2, "sequence counter survives a drain");
    }

    #[test]
    fn drain_to_file_skips_empty_logs() {
        let dir = std::env::temp_dir().join("telemetry-events-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        std::fs::remove_file(&path).ok();
        let log = EventLog::new();
        assert_eq!(log.drain_to_file(&path).unwrap(), 0);
        assert!(!path.exists(), "empty drain must not create a file");
        log.emit("fault_injected", &[("kind", Json::Str("trap".into()))]);
        assert_eq!(log.drain_to_file(&path).unwrap(), 1);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("fault_injected"));
        std::fs::remove_file(&path).ok();
    }
}
