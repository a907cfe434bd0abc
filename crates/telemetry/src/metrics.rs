//! Named counters, gauges and log2-bucketed histograms.

use std::collections::BTreeMap;

use crate::json::Json;

/// A histogram over `u64` samples with power-of-two bucket boundaries:
/// bucket 0 holds the value 0, bucket `i` (1..=64) holds values in
/// `[2^(i-1), 2^i)`. Fixed 65-slot storage — recording is O(1) and the
/// memory footprint is constant regardless of sample count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

/// Index of the bucket holding `v`: 0 for 0, else `ilog2(v) + 1`.
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive lower bound of bucket `i`.
pub fn bucket_low(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

impl Histogram {
    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile (`q` in 0..=1): the inclusive lower bound of the
    /// first bucket at which the cumulative count reaches `q * count`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return bucket_low(i);
            }
        }
        self.max
    }

    /// Non-empty buckets as `(inclusive lower bound, count)` pairs.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (bucket_low(i), n))
            .collect()
    }

    /// JSON summary (count/sum/min/max/mean/p50/p99 + bucket list).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("count", Json::Num(self.count as f64)),
            ("sum", Json::Num(self.sum as f64)),
            ("min", Json::Num(self.min() as f64)),
            ("max", Json::Num(self.max as f64)),
            ("mean", Json::Num(self.mean())),
            ("p50", Json::Num(self.quantile(0.5) as f64)),
            ("p99", Json::Num(self.quantile(0.99) as f64)),
            (
                "buckets",
                Json::Arr(
                    self.nonzero_buckets()
                        .into_iter()
                        .map(|(low, n)| Json::Arr(vec![Json::Num(low as f64), Json::Num(n as f64)]))
                        .collect(),
                ),
            ),
        ])
    }
}

/// A registry of named counters (monotonic `u64`), gauges (`f64` last-value)
/// and [`Histogram`]s. Names are free-form; `BTreeMap` keys keep report
/// output deterministically sorted.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Fresh empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `v` to the named counter (creating it at 0).
    pub fn counter_add(&mut self, name: &str, v: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += v;
    }

    /// Current counter value (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Set the named gauge to `v`.
    pub fn gauge_set(&mut self, name: &str, v: f64) {
        self.gauges.insert(name.to_string(), v);
    }

    /// Current gauge value.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Record a sample into the named histogram (creating it if needed).
    pub fn histogram_record(&mut self, name: &str, v: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(v);
    }

    /// Read access to a histogram.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All gauges, sorted by name.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All histograms, sorted by name.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// JSON object with `counters`, `gauges` and `histograms` members.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "counters",
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, &v)| (k.clone(), Json::Num(v as f64)))
                        .collect(),
                ),
            ),
            (
                "gauges",
                Json::Obj(
                    self.gauges
                        .iter()
                        .map(|(k, &v)| (k.clone(), Json::Num(v)))
                        .collect(),
                ),
            ),
            (
                "histograms",
                Json::Obj(
                    self.histograms
                        .iter()
                        .map(|(k, h)| (k.clone(), h.to_json()))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        // Low bound of the bucket containing v is always <= v.
        for v in [0u64, 1, 2, 3, 7, 8, 1 << 40, u64::MAX] {
            assert!(bucket_low(bucket_index(v)) <= v, "{v}");
        }
    }

    #[test]
    fn histogram_stats() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1106);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 1106.0 / 6.0).abs() < 1e-9);
        assert_eq!(h.quantile(0.0), 0);
        // p100 lands in the top non-empty bucket (lower bound 512 for 1000).
        assert_eq!(h.quantile(1.0), 512);
    }

    #[test]
    fn empty_histogram_is_sane() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0);
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    fn registry_basics() {
        let mut r = MetricsRegistry::new();
        r.counter_add("retired", 10);
        r.counter_add("retired", 5);
        r.gauge_set("mips", 123.5);
        r.histogram_record("cell_ms", 8);
        assert_eq!(r.counter("retired"), 15);
        assert_eq!(r.gauge("mips"), Some(123.5));
        assert_eq!(r.histogram("cell_ms").unwrap().count(), 1);
        assert_eq!(r.counter("missing"), 0);
        let j = r.to_json().to_string();
        assert!(j.contains("\"retired\": 15"), "{j}");
    }
}
