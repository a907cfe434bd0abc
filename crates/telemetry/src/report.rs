//! Structured, serializable run reports.

use std::io::Write;
use std::path::Path;
use std::time::Duration;

use crate::json::Json;
use crate::profile::ProfilingObserver;
use crate::sampler::HotBlockProfile;
use crate::Telemetry;

/// Everything one tool invocation wants to persist about itself: what ran,
/// how long each stage took, how fast the guest executed, and (optionally) a
/// guest profile. Serializes to/from JSON without any external crates.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// The command line (or a description of it) that produced this report.
    pub command: String,
    /// Total wall time of the run in milliseconds.
    pub wall_ms: f64,
    /// Guest instructions retired (summed over all cells for batch tools).
    pub retired: u64,
    /// Guest exit code, if a single guest ran.
    pub exit_code: Option<u64>,
    /// Host emulation rate in million instructions per second.
    pub host_mips: f64,
    /// Estimated observer overhead as a percentage of bare emulation time
    /// (populated only when a calibration run was done).
    pub observer_overhead_pct: Option<f64>,
    /// Per-observer overhead attribution: `(observer name, pct of bare
    /// emulation time)`, from one calibration run per observer.
    pub observer_overheads: Vec<(String, f64)>,
    /// Span tree from the global [`Timeline`](crate::Timeline).
    pub spans: Json,
    /// Snapshot of the global [`MetricsRegistry`](crate::MetricsRegistry).
    pub metrics: Json,
    /// Guest profile from a [`ProfilingObserver`], if one was attached.
    pub profile: Option<Json>,
    /// Hot-block sampling profile (see [`crate::sampler`]), if one ran.
    pub sampler: Option<Json>,
    /// Structured events drained from the hub's [`crate::EventLog`]
    /// (empty array when the run emitted none).
    pub events: Json,
    /// Free-form annotations.
    pub notes: Vec<String>,
}

impl RunReport {
    /// Report for `command`, everything else empty.
    pub fn new(command: &str) -> Self {
        RunReport {
            command: command.to_string(),
            spans: Json::Arr(Vec::new()),
            metrics: Json::obj(vec![]),
            events: Json::Arr(Vec::new()),
            ..Default::default()
        }
    }

    /// Record the headline run numbers; MIPS is derived from `retired`/`wall`
    /// via the shared [`simcore::host_mips`].
    pub fn with_run(mut self, wall: Duration, retired: u64, exit_code: Option<u64>) -> Self {
        self.wall_ms = wall.as_secs_f64() * 1e3;
        self.retired = retired;
        self.exit_code = exit_code;
        self.host_mips = simcore::host_mips(retired, wall);
        self
    }

    /// Attach a guest profile (top 10 regions/buckets).
    pub fn with_profile(mut self, profile: &ProfilingObserver) -> Self {
        self.profile = Some(profile.to_json(10));
        self
    }

    /// Attach a hot-block sampling profile (top 10 blocks).
    pub fn with_sampler(mut self, sampler: &HotBlockProfile) -> Self {
        self.sampler = Some(sampler.to_json(10));
        self
    }

    /// Pull the span tree, metrics snapshot, and pending events out of
    /// `telemetry` (typically [`crate::global()`]). Events are snapshotted,
    /// not drained, so a later `--events` file still sees them.
    pub fn finish_from(mut self, telemetry: &Telemetry) -> Self {
        self.spans = telemetry.timeline().to_json();
        self.metrics = telemetry.metrics_json();
        self.events = Json::Arr(
            telemetry
                .events()
                .snapshot()
                .iter()
                .map(|e| e.to_json())
                .collect(),
        );
        self
    }

    /// Add a free-form note.
    pub fn note(mut self, s: &str) -> Self {
        self.notes.push(s.to_string());
        self
    }

    /// Full JSON object.
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("command", Json::Str(self.command.clone())),
            ("wall_ms", Json::Num(self.wall_ms)),
            ("retired", Json::Num(self.retired as f64)),
            (
                "exit_code",
                match self.exit_code {
                    Some(c) => Json::Num(c as f64),
                    None => Json::Null,
                },
            ),
            ("host_mips", Json::Num(self.host_mips)),
        ];
        if let Some(pct) = self.observer_overhead_pct {
            members.push(("observer_overhead_pct", Json::Num(pct)));
        }
        if !self.observer_overheads.is_empty() {
            members.push((
                "observer_overheads",
                Json::Arr(
                    self.observer_overheads
                        .iter()
                        .map(|(name, pct)| {
                            Json::obj(vec![
                                ("name", Json::Str(name.clone())),
                                ("pct", Json::Num(*pct)),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        members.push(("spans", self.spans.clone()));
        members.push(("metrics", self.metrics.clone()));
        if let Some(p) = &self.profile {
            members.push(("profile", p.clone()));
        }
        if let Some(s) = &self.sampler {
            members.push(("sampler", s.clone()));
        }
        if self.events.as_arr().is_some_and(|a| !a.is_empty()) {
            members.push(("events", self.events.clone()));
        }
        members.push((
            "notes",
            Json::Arr(self.notes.iter().map(|n| Json::Str(n.clone())).collect()),
        ));
        Json::obj(members)
    }

    /// Parse a report previously written by [`RunReport::to_json`].
    pub fn from_json(j: &Json) -> Option<Self> {
        Some(RunReport {
            command: j.get("command")?.as_str()?.to_string(),
            wall_ms: j.get("wall_ms")?.as_f64()?,
            retired: j.get("retired")?.as_u64()?,
            exit_code: j.get("exit_code").and_then(Json::as_u64),
            host_mips: j.get("host_mips")?.as_f64()?,
            observer_overhead_pct: j.get("observer_overhead_pct").and_then(Json::as_f64),
            observer_overheads: j
                .get("observer_overheads")
                .and_then(Json::as_arr)
                .map(|a| {
                    a.iter()
                        .filter_map(|o| {
                            Some((
                                o.get("name")?.as_str()?.to_string(),
                                o.get("pct")?.as_f64()?,
                            ))
                        })
                        .collect()
                })
                .unwrap_or_default(),
            spans: j.get("spans").cloned().unwrap_or(Json::Arr(Vec::new())),
            metrics: j.get("metrics").cloned().unwrap_or(Json::obj(vec![])),
            profile: j.get("profile").cloned(),
            sampler: j.get("sampler").cloned(),
            events: j.get("events").cloned().unwrap_or(Json::Arr(Vec::new())),
            notes: j
                .get("notes")
                .and_then(Json::as_arr)
                .map(|a| {
                    a.iter()
                        .filter_map(|n| n.as_str().map(str::to_string))
                        .collect()
                })
                .unwrap_or_default(),
        })
    }

    /// Host nanoseconds per retired guest instruction (rvr's headline
    /// cost column); 0 when nothing retired.
    pub fn host_ns_per_op(&self) -> f64 {
        if self.retired == 0 {
            0.0
        } else {
            self.wall_ms * 1e6 / self.retired as f64
        }
    }

    /// One-line human summary: wall time, retired count, MIPS, ns/op.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "wall {:.1} ms | retired {} | {:.1} MIPS | {:.0} ns/op",
            self.wall_ms,
            crate::fmt_u64(self.retired),
            self.host_mips,
            self.host_ns_per_op(),
        );
        if let Some(c) = self.exit_code {
            s.push_str(&format!(" | exit {c}"));
        }
        if let Some(pct) = self.observer_overhead_pct {
            s.push_str(&format!(" | observer overhead ~{pct:.0}%"));
        }
        for (name, pct) in &self.observer_overheads {
            s.push_str(&format!(" | {name} ~{pct:.0}%"));
        }
        s
    }

    /// Flamegraph-style collapsed stacks from the report's span tree (see
    /// [`crate::Timeline::to_collapsed`]). Works on freshly-built reports
    /// and on reports loaded back from JSON, since it reads the serialized
    /// `spans` array.
    pub fn to_collapsed(&self) -> String {
        let tuples: Vec<(String, Option<usize>, Option<u64>)> = self
            .spans
            .as_arr()
            .map(|a| {
                a.iter()
                    .filter_map(|s| {
                        Some((
                            s.get("name")?.as_str()?.to_string(),
                            s.get("parent").and_then(Json::as_u64).map(|p| p as usize),
                            s.get("dur_us").and_then(Json::as_u64),
                        ))
                    })
                    .collect()
            })
            .unwrap_or_default();
        crate::span::collapse_spans(&tuples)
    }

    /// Write the pretty-printed report to `path`.
    pub fn write_file(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_json().pretty().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_parse_back() {
        let report = RunReport::new("run_elf vec_add.elf")
            .with_run(Duration::from_millis(250), 1_000_000, Some(0))
            .note("test run");
        let text = report.to_json().pretty();
        let parsed = RunReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed.command, "run_elf vec_add.elf");
        assert_eq!(parsed.retired, 1_000_000);
        assert_eq!(parsed.exit_code, Some(0));
        assert!((parsed.wall_ms - 250.0).abs() < 1e-9);
        assert!((parsed.host_mips - 4.0).abs() < 1e-9);
        assert_eq!(parsed.notes, vec!["test run".to_string()]);
    }

    #[test]
    fn mips_derivation_handles_zero_wall() {
        let r = RunReport::new("x").with_run(Duration::ZERO, 100, None);
        assert_eq!(r.host_mips, 0.0);
        assert_eq!(r.exit_code, None);
    }

    #[test]
    fn summary_mentions_headline_numbers() {
        let mut r = RunReport::new("x").with_run(Duration::from_secs(1), 2_000_000, Some(3));
        r.observer_overhead_pct = Some(12.0);
        let s = r.summary();
        assert!(s.contains("2.0 MIPS"), "{s}");
        assert!(s.contains("exit 3"), "{s}");
        assert!(s.contains("12%"), "{s}");
    }

    #[test]
    fn observer_overheads_round_trip_and_collapse() {
        let tl = crate::Timeline::new();
        {
            let _a = tl.enter("emulate");
            let _b = tl.enter("verify");
        }
        let mut report = RunReport::new("run_elf x.elf");
        report.spans = tl.to_json();
        report.observer_overheads = vec![
            ("path_length".to_string(), 3.5),
            ("trace_writer".to_string(), 12.0),
        ];
        let text = report.to_json().pretty();
        let parsed = RunReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed.observer_overheads, report.observer_overheads);
        assert!(parsed.summary().contains("trace_writer ~12%"));
        // Collapsed export works on the *parsed* report too.
        let collapsed = parsed.to_collapsed();
        assert!(collapsed.contains("emulate;verify "), "{collapsed}");
    }

    #[test]
    fn sampler_and_events_round_trip() {
        let tel = Telemetry::new();
        tel.event("watchdog_trip", &[("limit_ms", Json::Num(2000.0))]);
        let mut blocks = std::collections::HashMap::new();
        blocks.insert(0x1000u64, 4u64);
        let hb = crate::sampler::SampleProfile::from_parts(Duration::from_micros(250), blocks, 0)
            .attribute(&[]);
        let report = RunReport::new("run_elf x.elf")
            .with_run(Duration::from_millis(10), 20_000, Some(0))
            .with_sampler(&hb)
            .finish_from(&tel);
        assert!((report.host_ns_per_op() - 500.0).abs() < 1e-9);
        let text = report.to_json().pretty();
        let parsed = RunReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(
            parsed
                .sampler
                .as_ref()
                .unwrap()
                .get("total_samples")
                .unwrap()
                .as_u64(),
            Some(4)
        );
        let events = parsed.events.as_arr().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0].get("kind").unwrap().as_str(),
            Some("watchdog_trip")
        );
        assert!(parsed.summary().contains("ns/op"), "{}", parsed.summary());
    }

    #[test]
    fn write_file_round_trips() {
        let dir = std::env::temp_dir().join("telemetry-report-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        let report =
            RunReport::new("make_tables table1").with_run(Duration::from_millis(10), 42, None);
        report.write_file(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed = RunReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed.retired, 42);
        std::fs::remove_file(&path).ok();
    }
}
