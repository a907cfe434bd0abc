//! Run telemetry: metrics, spans, guest profiling and structured reports.
//!
//! This crate is deliberately std-only — it hand-rolls its JSON
//! representation ([`json::Json`]) so the whole workspace builds with no
//! registry access. Four pieces:
//!
//! - [`MetricsRegistry`]: named counters, gauges, and log2-bucketed
//!   [`Histogram`]s.
//! - [`Timeline`]: hierarchical RAII wall-clock spans
//!   (`let _g = telemetry::global().enter("compile");`).
//! - [`ProfilingObserver`]: a [`simcore::Observer`] that streams the
//!   retirement trace into per-region / per-PC-bucket / per-group
//!   histograms in bounded memory.
//! - [`RunReport`]: a serializable record of one tool invocation (stage
//!   timings, host MIPS, guest profile) written by `--metrics <path>`.

#![warn(missing_docs)]

pub mod events;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod report;
pub mod sampler;
pub mod span;

pub use events::{Event, EventLog};
pub use json::Json;
pub use metrics::{bucket_index, bucket_low, Histogram, MetricsRegistry};
pub use profile::ProfilingObserver;
pub use report::RunReport;
pub use sampler::{HotBlockProfile, Sampler};
pub use span::{SpanGuard, SpanRecord, Timeline};

/// The one `host_mips` definition, re-exported so CLI code can reach it
/// through either crate without duplicating the formula.
pub use simcore::host_mips;

use std::sync::{Mutex, OnceLock};

/// A timeline plus a metrics registry — the per-process telemetry hub.
/// Usually accessed through [`global()`], but tests can make their own.
pub struct Telemetry {
    timeline: Timeline,
    metrics: Mutex<MetricsRegistry>,
    events: EventLog,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// Fresh hub with an empty timeline, registry, and event log.
    pub fn new() -> Self {
        Telemetry {
            timeline: Timeline::new(),
            metrics: Mutex::new(MetricsRegistry::new()),
            events: EventLog::new(),
        }
    }

    /// The span timeline.
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// Open a span on the timeline (RAII: closes when the guard drops).
    pub fn enter(&self, name: &str) -> SpanGuard<'_> {
        self.timeline.enter(name)
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        self.timeline.time(name, f)
    }

    /// Add `v` to the named counter.
    pub fn counter_add(&self, name: &str, v: u64) {
        self.metrics.lock().unwrap().counter_add(name, v);
    }

    /// Current counter value (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.metrics.lock().unwrap().counter(name)
    }

    /// Set the named gauge.
    pub fn gauge_set(&self, name: &str, v: f64) {
        self.metrics.lock().unwrap().gauge_set(name, v);
    }

    /// Record a sample into the named histogram.
    pub fn histogram_record(&self, name: &str, v: u64) {
        self.metrics.lock().unwrap().histogram_record(name, v);
    }

    /// The structured event log (bounded ring; see [`events`]).
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// Emit a structured event (shorthand for `events().emit(...)`).
    pub fn event(&self, kind: &str, fields: &[(&str, Json)]) {
        self.events.emit(kind, fields);
    }

    /// Snapshot of the registry.
    pub fn metrics_snapshot(&self) -> MetricsRegistry {
        self.metrics.lock().unwrap().clone()
    }

    /// JSON snapshot of the registry.
    pub fn metrics_json(&self) -> Json {
        self.metrics.lock().unwrap().to_json()
    }
}

/// The process-wide telemetry hub. First call initializes it; the timeline
/// epoch is that moment.
pub fn global() -> &'static Telemetry {
    static GLOBAL: OnceLock<Telemetry> = OnceLock::new();
    GLOBAL.get_or_init(Telemetry::new)
}

/// Format a `u64` with `_` thousands separators (`1_234_567`), matching the
/// style the analysis tables use.
pub fn fmt_u64(v: u64) -> String {
    let digits = v.to_string();
    let mut out = String::with_capacity(digits.len() + digits.len() / 3);
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push('_');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hub_counters_and_spans() {
        let t = Telemetry::new();
        t.counter_add("cells", 2);
        t.counter_add("cells", 1);
        assert_eq!(t.counter("cells"), 3);
        let v = t.time("stage", || 7);
        assert_eq!(v, 7);
        assert_eq!(t.timeline().records().len(), 1);
    }

    #[test]
    fn global_is_shared() {
        global().counter_add("test_global_shared", 1);
        assert!(global().counter("test_global_shared") >= 1);
    }

    #[test]
    fn fmt_u64_groups() {
        assert_eq!(fmt_u64(0), "0");
        assert_eq!(fmt_u64(999), "999");
        assert_eq!(fmt_u64(1000), "1_000");
        assert_eq!(fmt_u64(1234567), "1_234_567");
    }
}
