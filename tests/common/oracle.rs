//! A brute-force reference for the dependency analyses: the explicit
//! dependency graph of a retirement stream, with every longest path
//! computed from scratch.
//!
//! It shares no code with the streaming analyses. Memory words are found
//! byte by byte, last writers live in one map over the whole run, and each
//! window is measured on its own subgraph rather than slid.

use std::collections::HashMap;
use std::ops::Range;

use analysis::{WindowStats, DIST_BUCKETS};
use simcore::{InstGroup, MemAccess, RetiredInst};
use uarch::{LatencyModel, Tx2Latency};

/// A location a value lives in.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Loc {
    Reg(usize),
    Word(u64),
}

/// The 8-byte words holding any byte of `a` (a zero-width access touches
/// its first byte).
fn words(a: MemAccess) -> Vec<u64> {
    let mut w: Vec<u64> = (a.addr..a.addr + u64::from(a.size.max(1)))
        .map(|b| b / 8)
        .collect();
    w.dedup();
    w
}

/// The dependency graph of a retirement stream.
pub struct Dag {
    groups: Vec<InstGroup>,
    /// Each retirement's producers: the last writer of every location it
    /// reads, once per location (so a producer can repeat).
    preds: Vec<Vec<usize>>,
}

impl Dag {
    pub fn new(stream: &[RetiredInst]) -> Dag {
        let mut last_writer: HashMap<Loc, usize> = HashMap::new();
        let mut preds = Vec::with_capacity(stream.len());
        for (i, ri) in stream.iter().enumerate() {
            let reads = ri
                .srcs
                .iter()
                .map(|r| Loc::Reg(r.index()))
                .chain(ri.mem_reads().flat_map(words).map(Loc::Word));
            preds.push(
                reads
                    .filter_map(|loc| last_writer.get(&loc).copied())
                    .collect(),
            );
            let writes = ri
                .dsts
                .iter()
                .map(|r| Loc::Reg(r.index()))
                .chain(ri.mem_writes().flat_map(words).map(Loc::Word));
            for loc in writes {
                last_writer.insert(loc, i);
            }
        }
        Dag {
            groups: stream.iter().map(|ri| ri.group).collect(),
            preds,
        }
    }

    /// Longest path through the subgraph of retirements `range`, each
    /// weighing `cost` of its group.
    pub fn longest_path(&self, range: Range<usize>, cost: impl Fn(InstGroup) -> u64) -> u64 {
        let mut depth = vec![0u64; range.len()];
        for i in range.clone() {
            let inner = self.preds[i].iter().filter(|&&p| p >= range.start);
            let longest_in = inner.map(|&p| depth[p - range.start]).max().unwrap_or(0);
            depth[i - range.start] = longest_in + cost(self.groups[i]);
        }
        depth.into_iter().max().unwrap_or(0)
    }

    /// Unit-cost critical path of the whole stream.
    pub fn unit_cp(&self) -> u64 {
        self.longest_path(0..self.groups.len(), |_| 1)
    }

    /// TX2-latency critical path, loads and stores unscaled.
    pub fn scaled_cp(&self) -> u64 {
        self.longest_path(0..self.groups.len(), |g| match g {
            InstGroup::Load | InstGroup::Store => 1,
            g => Tx2Latency.latency(g),
        })
    }

    /// Unit-cost critical paths of the windows of `size`: the first ends
    /// after `size` retirements, each later one `size / 2` further on.
    pub fn window_stats(&self, size: usize) -> WindowStats {
        let cps: Vec<u64> = (size..=self.groups.len())
            .step_by(size / 2)
            .map(|end| self.longest_path(end - size..end, |_| 1))
            .collect();
        WindowStats {
            size,
            windows: cps.len() as u64,
            cp_sum: cps.iter().sum(),
            cp_min: cps.iter().copied().min().unwrap_or(0),
            cp_max: cps.iter().copied().max().unwrap_or(0),
        }
    }

    /// Every dependency edge's producer-to-consumer distance.
    pub fn distances(&self) -> Vec<u64> {
        let edges = self.preds.iter().enumerate();
        edges
            .flat_map(|(i, ps)| ps.iter().map(move |&p| (i - p) as u64))
            .collect()
    }

    /// [`analysis::DepDistance::histogram`] of the edges.
    pub fn distance_histogram(&self) -> Vec<(u64, u64)> {
        let d = self.distances();
        let mut lower = 0;
        DIST_BUCKETS
            .iter()
            .map(|&ub| {
                let n = d.iter().filter(|&&x| x > lower && x <= ub).count() as u64;
                lower = ub;
                (ub, n)
            })
            .collect()
    }
}
