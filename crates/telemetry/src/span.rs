//! Hierarchical wall-clock spans.
//!
//! A [`Timeline`] records named spans with RAII guards:
//!
//! ```
//! let tl = telemetry::Timeline::new();
//! {
//!     let _outer = tl.enter("compile");
//!     let _inner = tl.enter("regalloc"); // nests under "compile"
//! }
//! assert_eq!(tl.records().len(), 2);
//! ```
//!
//! Nesting is tracked per thread (spans opened on a worker thread nest under
//! that thread's open spans, not another's), so parallel experiment cells
//! each produce their own subtree.

use std::collections::HashMap;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use crate::json::Json;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name ("compile", "emulate", ...).
    pub name: String,
    /// Index of the enclosing span in [`Timeline::records`], if nested.
    pub parent: Option<usize>,
    /// Start offset from the timeline's epoch.
    pub start: Duration,
    /// Wall-clock duration; `None` while the span is still open.
    pub dur: Option<Duration>,
    /// Small integer identifying the opening thread (0 = first seen).
    pub thread: u64,
}

#[derive(Default)]
struct TimelineInner {
    spans: Vec<SpanRecord>,
    /// Stack of open span indices, per thread.
    open: HashMap<ThreadId, Vec<usize>>,
    /// Stable small ids for threads, in order of first appearance.
    thread_ids: Vec<ThreadId>,
}

/// A thread-safe collector of hierarchical spans.
pub struct Timeline {
    epoch: Instant,
    inner: Mutex<TimelineInner>,
}

impl Default for Timeline {
    fn default() -> Self {
        Self::new()
    }
}

impl Timeline {
    /// Fresh timeline; the epoch (time zero) is now.
    pub fn new() -> Self {
        Timeline {
            epoch: Instant::now(),
            inner: Mutex::new(TimelineInner::default()),
        }
    }

    /// Open a span; it closes (recording its duration) when the returned
    /// guard drops. Spans opened while another span from the same thread is
    /// open become its children.
    pub fn enter(&self, name: &str) -> SpanGuard<'_> {
        let start = self.epoch.elapsed();
        let tid = std::thread::current().id();
        let mut inner = self.inner.lock().unwrap();
        let thread = match inner.thread_ids.iter().position(|&t| t == tid) {
            Some(i) => i as u64,
            None => {
                inner.thread_ids.push(tid);
                (inner.thread_ids.len() - 1) as u64
            }
        };
        let parent = inner.open.get(&tid).and_then(|stack| stack.last().copied());
        let index = inner.spans.len();
        inner.spans.push(SpanRecord {
            name: name.to_string(),
            parent,
            start,
            dur: None,
            thread,
        });
        inner.open.entry(tid).or_default().push(index);
        SpanGuard {
            timeline: self,
            index,
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let _guard = self.enter(name);
        f()
    }

    /// Snapshot of all spans recorded so far.
    pub fn records(&self) -> Vec<SpanRecord> {
        self.inner.lock().unwrap().spans.clone()
    }

    /// Total duration of all *closed* spans with this name (nested spans of
    /// the same name double-count, as in any tracing system).
    pub fn total_of(&self, name: &str) -> Duration {
        self.inner
            .lock()
            .unwrap()
            .spans
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| s.dur)
            .sum()
    }

    /// Drop all recorded spans (the epoch is retained).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.spans.clear();
        inner.open.clear();
    }

    /// Indented text rendering of the span tree with millisecond timings.
    pub fn tree_string(&self) -> String {
        let spans = self.records();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        let mut roots = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            match s.parent {
                Some(p) => children[p].push(i),
                None => roots.push(i),
            }
        }
        let mut out = String::new();
        fn render(
            out: &mut String,
            spans: &[SpanRecord],
            children: &[Vec<usize>],
            i: usize,
            depth: usize,
        ) {
            let s = &spans[i];
            let dur = match s.dur {
                Some(d) => format!("{:.3} ms", d.as_secs_f64() * 1e3),
                None => "open".to_string(),
            };
            out.push_str(&format!("{}{} {}\n", "  ".repeat(depth), s.name, dur));
            for &c in &children[i] {
                render(out, spans, children, c, depth + 1);
            }
        }
        for r in roots {
            render(&mut out, &spans, &children, r, 0);
        }
        out
    }

    /// Flamegraph-style collapsed stacks: one `root;child;leaf <us>` line
    /// per unique stack, where the count is the stack's *self* time in
    /// microseconds (duration minus closed children). The output feeds
    /// standard flamegraph renderers directly.
    pub fn to_collapsed(&self) -> String {
        let tuples: Vec<(String, Option<usize>, Option<u64>)> = self
            .records()
            .into_iter()
            .map(|s| (s.name, s.parent, s.dur.map(|d| d.as_micros() as u64)))
            .collect();
        collapse_spans(&tuples)
    }

    /// JSON array of span objects (`name`, `parent`, `start_us`, `dur_us`,
    /// `thread`).
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.records()
                .into_iter()
                .map(|s| {
                    Json::obj(vec![
                        ("name", Json::Str(s.name)),
                        (
                            "parent",
                            match s.parent {
                                Some(p) => Json::Num(p as f64),
                                None => Json::Null,
                            },
                        ),
                        ("start_us", Json::Num(s.start.as_micros() as f64)),
                        (
                            "dur_us",
                            match s.dur {
                                Some(d) => Json::Num(d.as_micros() as f64),
                                None => Json::Null,
                            },
                        ),
                        ("thread", Json::Num(s.thread as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// Shared collapsed-stack builder over `(name, parent, dur_us)` tuples —
/// used by [`Timeline::to_collapsed`] on live records and by
/// `RunReport::to_collapsed` on spans parsed back from JSON. Open spans
/// (no duration) are skipped; identical stacks merge; output lines are
/// sorted for determinism.
pub(crate) fn collapse_spans(spans: &[(String, Option<usize>, Option<u64>)]) -> String {
    // Self time = own duration minus the durations of direct children.
    let mut self_us: Vec<i64> = spans
        .iter()
        .map(|(_, _, d)| d.unwrap_or(0) as i64)
        .collect();
    for s in spans {
        if let (Some(p), Some(d)) = (s.1, s.2) {
            if p < self_us.len() {
                self_us[p] -= d as i64;
            }
        }
    }
    let stack_of = |mut i: usize| -> String {
        let mut parts = vec![spans[i].0.as_str()];
        while let Some(p) = spans[i].1 {
            if p >= spans.len() {
                break;
            }
            parts.push(spans[p].0.as_str());
            i = p;
        }
        parts.reverse();
        parts.join(";")
    };
    let mut merged: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    for (i, (_, _, dur)) in spans.iter().enumerate() {
        if dur.is_none() {
            continue; // still open: no reliable time
        }
        *merged.entry(stack_of(i)).or_insert(0) += self_us[i].max(0) as u64;
    }
    let mut out = String::new();
    for (stack, us) in merged {
        out.push_str(&format!("{stack} {us}\n"));
    }
    out
}

/// RAII guard closing a span on drop.
pub struct SpanGuard<'a> {
    timeline: &'a Timeline,
    index: usize,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let elapsed = self.timeline.epoch.elapsed();
        let tid = std::thread::current().id();
        let mut inner = self.timeline.inner.lock().unwrap();
        let start = inner.spans[self.index].start;
        inner.spans[self.index].dur = Some(elapsed.saturating_sub(start));
        if let Some(stack) = inner.open.get_mut(&tid) {
            if let Some(pos) = stack.iter().rposition(|&i| i == self.index) {
                stack.remove(pos);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_parents() {
        let tl = Timeline::new();
        {
            let _a = tl.enter("outer");
            {
                let _b = tl.enter("inner");
            }
            let _c = tl.enter("sibling");
        }
        let spans = tl.records();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.dur.is_some()));
    }

    #[test]
    fn timing_monotonicity() {
        let tl = Timeline::new();
        {
            let _a = tl.enter("outer");
            std::thread::sleep(Duration::from_millis(2));
            let _b = tl.enter("inner");
            std::thread::sleep(Duration::from_millis(2));
        }
        let spans = tl.records();
        let outer = &spans[0];
        let inner = &spans[1];
        // Children start after their parent and fit inside it.
        assert!(inner.start >= outer.start);
        assert!(inner.dur.unwrap() <= outer.dur.unwrap());
        // Both saw the sleeps.
        assert!(outer.dur.unwrap() >= Duration::from_millis(4));
        assert!(inner.dur.unwrap() >= Duration::from_millis(2));
    }

    #[test]
    fn cross_thread_spans_do_not_nest_into_other_threads() {
        let tl = Timeline::new();
        let _main = tl.enter("main");
        std::thread::scope(|s| {
            s.spawn(|| {
                let _w = tl.enter("worker");
            });
        });
        let spans = tl.records();
        let worker = spans.iter().find(|s| s.name == "worker").unwrap();
        assert_eq!(
            worker.parent, None,
            "worker span must not nest under main-thread span"
        );
        assert_ne!(worker.thread, spans[0].thread);
    }

    #[test]
    fn time_helper_and_totals() {
        let tl = Timeline::new();
        let v = tl.time("work", || 42);
        assert_eq!(v, 42);
        tl.time("work", || ());
        assert_eq!(tl.records().len(), 2);
        assert!(tl.total_of("work") >= Duration::ZERO);
        assert_eq!(tl.total_of("absent"), Duration::ZERO);
    }

    #[test]
    fn collapsed_stacks_merge_and_subtract_children() {
        // Hand-built span list: root (1000us) with two children (300+200),
        // plus a second occurrence of the same leaf stack (100).
        let spans = vec![
            ("root".to_string(), None, Some(1000u64)),
            ("child".to_string(), Some(0), Some(300)),
            ("leaf".to_string(), Some(1), Some(50)),
            ("child".to_string(), Some(0), Some(200)),
            ("open".to_string(), Some(0), None),
        ];
        let out = collapse_spans(&spans);
        // root self = 1000 - 300 - 200 = 500; the two child stacks merge
        // (300-50 + 200 = 450); open spans are skipped.
        assert!(out.contains("root 500\n"), "{out}");
        assert!(out.contains("root;child 450\n"), "{out}");
        assert!(out.contains("root;child;leaf 50\n"), "{out}");
        assert!(!out.contains("open"), "{out}");
    }

    #[test]
    fn timeline_collapsed_export() {
        let tl = Timeline::new();
        {
            let _a = tl.enter("compile");
            let _b = tl.enter("emit");
        }
        let out = tl.to_collapsed();
        assert!(out.contains("compile;emit "), "{out}");
        for line in out.lines() {
            let (stack, n) = line.rsplit_once(' ').unwrap();
            assert!(!stack.is_empty());
            n.parse::<u64>().expect("numeric self time");
        }
    }

    #[test]
    fn tree_rendering() {
        let tl = Timeline::new();
        {
            let _a = tl.enter("compile");
            let _b = tl.enter("emit");
        }
        let tree = tl.tree_string();
        assert!(tree.contains("compile"));
        assert!(tree.contains("  emit"), "{tree}");
    }
}
