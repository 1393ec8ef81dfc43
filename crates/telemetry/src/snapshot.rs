//! Point-in-time metric snapshots. A [`Snapshot`] is plain serde-derived
//! data — it serializes to the JSON the bench trajectory files store and
//! deserializes back for diffing, so `snapshot → JSON → snapshot` is an
//! identity.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;

use serde::{Deserialize, Serialize};

use crate::metrics::{bucket_lower_bound, Counter, Gauge, Histogram};

/// One named counter value.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricEntry {
    pub name: String,
    pub value: u64,
}

/// One named gauge value.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GaugeEntry {
    pub name: String,
    pub value: i64,
}

/// A non-empty histogram bucket: samples in `[lower_ns, 2*lower_ns)`
/// (bucket 0: `[0, 2)` ns; the top bucket is open-ended).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BucketCount {
    pub lower_ns: u64,
    pub count: u64,
}

/// One named histogram: exact count/sum/min/max plus its non-empty
/// buckets. `min_ns`/`max_ns` are both 0 when `count` is 0.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    pub name: String,
    pub count: u64,
    pub sum_ns: u64,
    pub min_ns: u64,
    pub max_ns: u64,
    pub buckets: Vec<BucketCount>,
}

impl HistogramSnapshot {
    /// Mean sample duration in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Estimated `q`-quantile in nanoseconds (`q` clamped to `[0, 1]`;
    /// 0 when empty).
    ///
    /// The estimate locates the target rank `⌈q·count⌉` in the log₂
    /// buckets and interpolates linearly *toward the bucket's upper
    /// bound* — so with b samples in `[lo, 2·lo)`, rank r estimates
    /// `lo + r·lo/b`. The documented bias: estimates never undershoot
    /// the true quantile by more than one bucket width and tend to
    /// overshoot within the bucket, which is the conservative direction
    /// for latency targets. Results are clamped to the exactly-tracked
    /// `[min_ns, max_ns]`, which also bounds the open-ended top bucket.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // Target rank ⌈q·count⌉ in 1..=count.
        let scaled = q.clamp(0.0, 1.0) * self.count as f64;
        // A unit fraction of a u64 count is finite and non-negative; the
        // guard pins that invariant at the conversion.
        let scaled = if scaled.is_finite() && scaled >= 0.0 { scaled } else { 0.0 };
        let target = (scaled.ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for bucket in &self.buckets {
            let next = cum + bucket.count;
            if target <= next {
                let lo = bucket.lower_ns;
                let hi = if lo == 0 { 2 } else { lo.saturating_mul(2) };
                // `cum < target` on this branch (previous buckets all
                // ended below `target`), so the rank is in 1..=count.
                let rank = target.saturating_sub(cum);
                let est = lo.saturating_add(
                    (rank.saturating_mul(hi - lo).saturating_add(bucket.count - 1)) / bucket.count,
                );
                return est.clamp(self.min_ns, self.max_ns);
            }
            cum = next;
        }
        self.max_ns
    }

    /// Median estimate (see [`Self::quantile_ns`]).
    pub fn p50_ns(&self) -> u64 {
        self.quantile_ns(0.50)
    }

    /// 90th-percentile estimate (see [`Self::quantile_ns`]).
    pub fn p90_ns(&self) -> u64 {
        self.quantile_ns(0.90)
    }

    /// 99th-percentile estimate (see [`Self::quantile_ns`]).
    pub fn p99_ns(&self) -> u64 {
        self.quantile_ns(0.99)
    }

    /// 99.9th-percentile estimate (see [`Self::quantile_ns`]).
    pub fn p999_ns(&self) -> u64 {
        self.quantile_ns(0.999)
    }
}

/// A point-in-time copy of a registry's metrics, sorted by name within
/// each section. This is the unit the sinks export and
/// [`Report`](crate::Report) diffs.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Snapshot {
    pub counters: Vec<MetricEntry>,
    pub gauges: Vec<GaugeEntry>,
    pub histograms: Vec<HistogramSnapshot>,
}

impl Snapshot {
    pub(crate) fn capture(
        counters: &BTreeMap<String, Counter>,
        gauges: &BTreeMap<String, Gauge>,
        histograms: &BTreeMap<String, Histogram>,
    ) -> Snapshot {
        Snapshot {
            counters: counters
                .iter()
                .map(|(name, c)| MetricEntry { name: name.clone(), value: c.get() })
                .collect(),
            gauges: gauges
                .iter()
                .map(|(name, g)| GaugeEntry { name: name.clone(), value: g.get() })
                .collect(),
            histograms: histograms.iter().map(|(name, h)| capture_histogram(name, h)).collect(),
        }
    }

    /// Value of the counter named `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|e| e.name == name).map(|e| e.value)
    }

    /// Value of the gauge named `name`, if registered.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|e| e.name == name).map(|e| e.value)
    }

    /// The histogram named `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// True when no metric has recorded anything (all counters zero, all
    /// gauges zero, all histograms empty).
    pub fn is_empty_of_data(&self) -> bool {
        self.counters.iter().all(|c| c.value == 0)
            && self.gauges.iter().all(|g| g.value == 0)
            && self.histograms.iter().all(|h| h.count == 0)
    }

    /// Serializes to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde::json::to_string_pretty(self)
    }

    /// Parses a snapshot back from JSON text.
    pub fn from_json(text: &str) -> Result<Snapshot, serde::Error> {
        serde::json::from_str(text)
    }
}

fn capture_histogram(name: &str, h: &Histogram) -> HistogramSnapshot {
    let inner = &*h.0;
    let count = inner.count.load(Ordering::Relaxed);
    let min_raw = inner.min_ns.load(Ordering::Relaxed);
    HistogramSnapshot {
        name: name.to_owned(),
        count,
        sum_ns: inner.sum_ns.load(Ordering::Relaxed),
        min_ns: if min_raw == u64::MAX { 0 } else { min_raw },
        max_ns: inner.max_ns.load(Ordering::Relaxed),
        buckets: inner
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let count = b.load(Ordering::Relaxed);
                (count > 0).then(|| BucketCount { lower_ns: bucket_lower_bound(i), count })
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn snapshot_round_trips_through_json() {
        let r = Registry::new();
        r.counter("ta.sorted_accesses").add(42);
        r.gauge("cube.live_cells").set(-3);
        r.histogram("cube.cell").record_ns(900);
        r.histogram("cube.cell").record_ns(1100);
        let snap = r.snapshot();
        let json = snap.to_json();
        let back = Snapshot::from_json(&json).expect("snapshot JSON parses");
        assert_eq!(back, snap);
    }

    fn hist(count: u64, min_ns: u64, max_ns: u64, buckets: Vec<BucketCount>) -> HistogramSnapshot {
        let sum_ns = count * (min_ns + max_ns) / 2; // irrelevant to quantiles
        HistogramSnapshot { name: "h".into(), count, sum_ns, min_ns, max_ns, buckets }
    }

    #[test]
    fn quantiles_of_empty_histogram_are_zero() {
        let h = hist(0, 0, 0, Vec::new());
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile_ns(q), 0);
        }
    }

    #[test]
    fn quantiles_within_a_single_bucket_interpolate_to_upper_bound() {
        // 4 samples, all in [1024, 2048): ranks 1..=4 estimate
        // 1024 + r·256, clamped to the exact [min, max].
        let h = hist(4, 1100, 1900, vec![BucketCount { lower_ns: 1024, count: 4 }]);
        assert_eq!(h.quantile_ns(0.0), 1280, "q=0 targets rank 1");
        assert_eq!(h.p50_ns(), 1536);
        assert_eq!(h.quantile_ns(0.75), 1792);
        assert_eq!(h.p99_ns(), 1900, "rank 4 interpolates to 2048, clamped to max");
        assert_eq!(h.quantile_ns(1.0), 1900);
        // Estimates never leave the observed range.
        for q in [0.0, 0.1, 0.5, 0.9, 0.999, 1.0] {
            let v = h.quantile_ns(q);
            assert!((1100..=1900).contains(&v), "q={q}: {v}");
        }
    }

    #[test]
    fn quantiles_with_all_samples_in_overflow_bucket_clamp_to_max() {
        // Everything landed in the open-ended top bucket: the upper
        // bound would be 2^40, but max_ns is tracked exactly.
        let top = 1u64 << 39;
        let h = hist(3, top + 5, top + 999, vec![BucketCount { lower_ns: top, count: 3 }]);
        for q in [0.5, 0.9, 0.99, 0.999] {
            assert_eq!(h.quantile_ns(q), top + 999, "q={q}");
        }
        assert_eq!(h.p999_ns(), top + 999);
    }

    #[test]
    fn quantiles_walk_across_buckets() {
        // 90 fast samples in [0, 2), 10 slow in [1024, 2048):
        // p50/p90 stay in the fast bucket, p99/p999 land in the slow one.
        let h = hist(
            100,
            1,
            1500,
            vec![BucketCount { lower_ns: 0, count: 90 }, BucketCount { lower_ns: 1024, count: 10 }],
        );
        assert!(h.p50_ns() <= 2, "median in the fast bucket: {}", h.p50_ns());
        assert!(h.p90_ns() <= 2, "p90 is rank 90, still fast: {}", h.p90_ns());
        assert!(h.p99_ns() >= 1024, "p99 in the slow bucket: {}", h.p99_ns());
        assert_eq!(h.quantile_ns(1.0), 1500);
        // Monotone in q.
        let qs = [0.0, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0];
        for pair in qs.windows(2) {
            assert!(h.quantile_ns(pair[0]) <= h.quantile_ns(pair[1]), "{pair:?}");
        }
    }

    #[test]
    fn empty_histogram_snapshots_cleanly() {
        let r = Registry::new();
        let _ = r.histogram("never.recorded");
        let snap = r.snapshot();
        let h = snap.histogram("never.recorded").unwrap();
        assert_eq!((h.count, h.min_ns, h.max_ns), (0, 0, 0));
        assert!(h.buckets.is_empty());
        assert!(snap.is_empty_of_data());
    }
}
