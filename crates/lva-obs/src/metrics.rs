//! Lightweight metrics: counters, gauges, log2 histograms, and a
//! hierarchical registry.
//!
//! Everything here is plain data behind `&mut` — no atomics, no locks, no
//! allocation per observation — so a registry can stay enabled inside the
//! simulation harness and sweep hot loops. Hierarchy is by convention:
//! metric paths are `/`-separated (`core0/l1/miss`, `sweep/point_wall_ns`),
//! and [`MetricsRegistry::dump`] flattens the whole tree into ordered
//! `(path, f64)` pairs ready for a run manifest.
//!
//! Two path prefixes carry meaning downstream (see [`crate::compare`](mod@crate::compare)):
//! `time/` and `env/` mark metrics that describe the run's machine or
//! wall-clock and are therefore excluded from regression comparison, as is
//! any path segment ending in `_ns`.

use std::collections::HashMap;
use std::fmt;

/// A monotonically increasing event count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(pub u64);

impl Counter {
    /// Adds one.
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }
}

/// A point-in-time value.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Gauge(pub f64);

impl Gauge {
    /// Overwrites the value.
    pub fn set(&mut self, v: f64) {
        self.0 = v;
    }
}

/// Number of histogram buckets: one for zero plus one per power of two up
/// to `u64::MAX`.
pub(crate) const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed-bucket base-2 histogram of `u64` observations.
///
/// Bucket 0 holds the value 0; bucket `i` (1..=64) holds values in
/// `[2^(i-1), 2^i)`. Recording is a handful of integer ops — cheap enough
/// for per-event use in hot loops. Quantiles are *exact over the bucket
/// counts*: [`Histogram::quantile`] walks the cumulative counts to the
/// requested rank and reports that bucket's inclusive upper bound, clamped
/// into the observed `[min, max]` range (so single-valued distributions
/// report the value itself, exactly).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// Bucket index of a value (see the type docs for the layout).
    #[must_use]
    pub(crate) fn bucket_of(v: u64) -> usize {
        (u64::BITS - v.leading_zeros()) as usize
    }

    /// Inclusive upper bound of a bucket.
    #[must_use]
    pub(crate) fn bucket_bound(bucket: usize) -> u64 {
        if bucket == 0 {
            0
        } else if bucket >= 64 {
            u64::MAX
        } else {
            (1u64 << bucket) - 1
        }
    }

    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Observations recorded so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    #[must_use]
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest observation (0 if empty).
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation (0 if empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean. An empty histogram has no mean: NaN, which the
    /// JSON layer serializes as `null` (see `crate::json`) and the
    /// compare engine treats as equal to any other non-finite value.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0.0..=1.0`) at bucket resolution: the inclusive
    /// upper bound of the bucket containing the rank-`ceil(q * count)`
    /// observation, clamped to the observed range. Returns 0 if empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank in 1..=count; q=0 maps to the first observation.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= rank {
                return Self::bucket_bound(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median at bucket resolution.
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile at bucket resolution.
    #[must_use]
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile at bucket resolution.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Observations recorded into one bucket (see [`Histogram::bucket_of`]).
    #[must_use]
    pub(crate) fn bucket_count(&self, bucket: usize) -> u64 {
        self.buckets.get(bucket).copied().unwrap_or(0)
    }

    /// Folds another histogram's observations into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The observations recorded since `prev`, where `prev` is an earlier
    /// snapshot of *this same* histogram: bucket counts and the sum are
    /// subtracted exactly; the interval `min`/`max` are reconstructed from
    /// the delta buckets at bucket resolution (the cumulative extremes may
    /// predate the interval). Merging every interval in order reproduces
    /// the cumulative bucket counts, count and sum exactly — the property
    /// the epoch timeline's delta frames rely on.
    #[must_use]
    pub(crate) fn interval_since(&self, prev: &Histogram) -> Histogram {
        let mut delta = Histogram::default();
        for (i, (&cur, &old)) in self.buckets.iter().zip(prev.buckets.iter()).enumerate() {
            let d = cur.saturating_sub(old);
            if d == 0 {
                continue;
            }
            delta.buckets[i] = d;
            // Tightest provable bounds: values in bucket i lie in
            // [bucket_bound(i-1) + 1, bucket_bound(i)] (bucket 0 holds 0).
            let lo = if i == 0 {
                0
            } else {
                Self::bucket_bound(i - 1) + 1
            };
            delta.min = delta.min.min(lo.max(self.min));
            delta.max = delta.max.max(Self::bucket_bound(i).min(self.max));
        }
        delta.count = self.count.saturating_sub(prev.count);
        delta.sum = self.sum.saturating_sub(prev.sum);
        delta
    }
}

/// One registered metric.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// An event count.
    Counter(Counter),
    /// A point-in-time value.
    Gauge(Gauge),
    /// A distribution of `u64` observations.
    Histogram(Box<Histogram>),
}

/// A hierarchical metrics registry.
///
/// Metrics are registered lazily on first touch and kept in registration
/// order (the order [`dump`](Self::dump) emits). Lookups go through a
/// side map, so repeated hot-loop touches are a hash lookup plus an
/// integer op; for the very hottest loops, grab the typed handle once
/// ([`counter`](Self::counter) etc. return `&mut`) and reuse it.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    entries: Vec<(String, Metric)>,
    index: HashMap<String, usize>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn slot(&mut self, path: &str, make: impl FnOnce() -> Metric) -> &mut Metric {
        let idx = match self.index.get(path) {
            Some(&i) => i,
            None => {
                let i = self.entries.len();
                self.entries.push((path.to_owned(), make()));
                self.index.insert(path.to_owned(), i);
                i
            }
        };
        &mut self.entries[idx].1
    }

    /// The counter at `path`, created zeroed on first touch.
    ///
    /// # Panics
    ///
    /// Panics if `path` is already registered as a different metric kind.
    pub fn counter(&mut self, path: &str) -> &mut Counter {
        match self.slot(path, || Metric::Counter(Counter::default())) {
            Metric::Counter(c) => c,
            other => panic!("metric {path} is not a counter: {other:?}"),
        }
    }

    /// The gauge at `path`, created zeroed on first touch.
    ///
    /// # Panics
    ///
    /// Panics if `path` is already registered as a different metric kind.
    pub fn gauge(&mut self, path: &str) -> &mut Gauge {
        match self.slot(path, || Metric::Gauge(Gauge::default())) {
            Metric::Gauge(g) => g,
            other => panic!("metric {path} is not a gauge: {other:?}"),
        }
    }

    /// The histogram at `path`, created empty on first touch.
    ///
    /// # Panics
    ///
    /// Panics if `path` is already registered as a different metric kind.
    pub fn histogram(&mut self, path: &str) -> &mut Histogram {
        match self.slot(path, || Metric::Histogram(Box::default())) {
            Metric::Histogram(h) => h,
            other => panic!("metric {path} is not a histogram: {other:?}"),
        }
    }

    /// Read-only lookup.
    #[must_use]
    pub fn get(&self, path: &str) -> Option<&Metric> {
        self.index.get(path).map(|&i| &self.entries[i].1)
    }

    /// Iterates every registered metric in registration order, without
    /// the flattening [`dump`](Self::dump) applies — the raw view the
    /// epoch sampler diffs between snapshots.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.entries.iter().map(|(path, m)| (path.as_str(), m))
    }

    /// Number of registered metrics.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Flattens every metric into ordered `(path, value)` pairs, in
    /// registration order. Counters and gauges emit one pair; a histogram
    /// at `p` expands into `p/count`, `p/sum`, `p/min`, `p/max`, `p/mean`,
    /// `p/p50`, `p/p95`, `p/p99`.
    #[must_use]
    pub fn dump(&self) -> Vec<(String, f64)> {
        let mut out = Vec::with_capacity(self.entries.len());
        for (path, metric) in &self.entries {
            match metric {
                Metric::Counter(c) => out.push((path.clone(), c.0 as f64)),
                Metric::Gauge(g) => out.push((path.clone(), g.0)),
                Metric::Histogram(h) => {
                    out.push((format!("{path}/count"), h.count() as f64));
                    out.push((format!("{path}/sum"), h.sum() as f64));
                    out.push((format!("{path}/min"), h.min() as f64));
                    out.push((format!("{path}/max"), h.max() as f64));
                    out.push((format!("{path}/mean"), h.mean()));
                    out.push((format!("{path}/p50"), h.p50() as f64));
                    out.push((format!("{path}/p95"), h.p95() as f64));
                    out.push((format!("{path}/p99"), h.p99() as f64));
                }
            }
        }
        out
    }
}

impl fmt::Display for MetricsRegistry {
    /// One `path = value` line per dumped metric.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (path, value) in self.dump() {
            writeln!(f, "{path} = {value}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let mut reg = MetricsRegistry::new();
        reg.counter("core0/l1/miss").inc();
        reg.counter("core0/l1/miss").add(4);
        reg.gauge("sweep/workers").set(8.0);
        assert_eq!(reg.len(), 2);
        let dump = reg.dump();
        assert_eq!(dump[0], ("core0/l1/miss".into(), 5.0));
        assert_eq!(dump[1], ("sweep/workers".into(), 8.0));
    }

    #[test]
    fn dump_preserves_registration_order() {
        let mut reg = MetricsRegistry::new();
        for name in ["z", "a", "m/q", "b"] {
            reg.counter(name).inc();
        }
        let names: Vec<String> = reg.dump().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["z", "a", "m/q", "b"]);
    }

    #[test]
    #[should_panic(expected = "is not a gauge")]
    fn kind_mismatch_panics() {
        let mut reg = MetricsRegistry::new();
        reg.counter("x").inc();
        reg.gauge("x");
    }

    #[test]
    fn histogram_bucket_layout() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        assert_eq!(Histogram::bucket_bound(0), 0);
        assert_eq!(Histogram::bucket_bound(2), 3);
        assert_eq!(Histogram::bucket_bound(64), u64::MAX);
    }

    #[test]
    fn histogram_quantiles_at_bucket_boundaries() {
        let mut h = Histogram::default();
        // 100 observations of exactly 8 (the lower boundary of bucket 4,
        // whose bound is 15): clamping to max must report exactly 8.
        for _ in 0..100 {
            h.record(8);
        }
        assert_eq!(h.p50(), 8);
        assert_eq!(h.p95(), 8);
        assert_eq!(h.p99(), 8);
        assert_eq!(h.min(), 8);
        assert_eq!(h.max(), 8);
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 800);
        assert!((h.mean() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_quantiles_split_across_buckets() {
        let mut h = Histogram::default();
        // 50 observations in bucket 1 (value 1) and 50 in bucket 7
        // (value 100, bound 127): p50 lands on the *last* rank of the low
        // bucket, p95/p99 in the high one.
        for _ in 0..50 {
            h.record(1);
        }
        for _ in 0..50 {
            h.record(100);
        }
        assert_eq!(h.p50(), 1, "rank 50 is the final low-bucket observation");
        assert_eq!(
            h.quantile(0.51),
            100,
            "rank 51 crosses into the high bucket"
        );
        assert_eq!(h.p95(), 100);
        assert_eq!(h.p99(), 100);
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(1.0), 100);
    }

    #[test]
    fn histogram_empty_is_all_zero() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.p50(), 0);
        assert!(h.mean().is_nan(), "an empty histogram has no mean");
    }

    #[test]
    fn histogram_zero_values_use_bucket_zero() {
        let mut h = Histogram::default();
        h.record(0);
        h.record(0);
        h.record(1);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.quantile(1.0), 1);
    }

    #[test]
    fn histogram_dump_paths() {
        let mut reg = MetricsRegistry::new();
        reg.histogram("sweep/point_wall_ns").record(1000);
        let names: Vec<String> = reg.dump().into_iter().map(|(n, _)| n).collect();
        assert_eq!(
            names,
            [
                "sweep/point_wall_ns/count",
                "sweep/point_wall_ns/sum",
                "sweep/point_wall_ns/min",
                "sweep/point_wall_ns/max",
                "sweep/point_wall_ns/mean",
                "sweep/point_wall_ns/p50",
                "sweep/point_wall_ns/p95",
                "sweep/point_wall_ns/p99",
            ]
        );
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert!(h.mean().is_nan(), "an empty histogram has no mean");
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0, "q={q}");
        }
    }

    #[test]
    fn single_sample_reports_itself_at_every_quantile() {
        let mut h = Histogram::default();
        h.record(42);
        for q in [0.0, 0.25, 0.5, 0.95, 1.0] {
            assert_eq!(h.quantile(q), 42, "q={q}");
        }
        assert_eq!(h.min(), 42);
        assert_eq!(h.max(), 42);
        assert_eq!(h.mean(), 42.0);
    }

    #[test]
    fn all_samples_in_one_bucket_clamp_to_observed_range() {
        // 9..=15 all land in bucket 4 (bound 15); quantiles must stay
        // within [min, max] = [9, 15].
        let mut h = Histogram::default();
        for v in 9..=15 {
            h.record(v);
        }
        assert_eq!(Histogram::bucket_of(9), Histogram::bucket_of(15));
        assert_eq!(h.bucket_count(Histogram::bucket_of(9)), 7);
        // Every quantile resolves to the shared bucket's upper bound…
        assert_eq!(h.quantile(0.0), 15);
        assert_eq!(h.p50(), 15);
        assert_eq!(h.p99(), 15);
        assert!(h.quantile(0.5) >= h.min() && h.quantile(0.5) <= h.max());
    }

    #[test]
    fn top_log2_bucket_saturates_without_overflow() {
        let mut h = Histogram::default();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        h.record(1u64 << 63);
        assert_eq!(h.bucket_count(HISTOGRAM_BUCKETS - 1), 3);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.p99(), u64::MAX);
        // Mixing in a small value keeps low quantiles sane.
        h.record(1);
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(1.0), u64::MAX);
    }

    /// A tiny deterministic xorshift generator for the seeded property
    /// tests — lva-obs is a leaf crate, so it carries its own.
    struct TestRng(u64);

    impl TestRng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    #[test]
    fn quantile_is_monotone_in_q_for_seeded_random_histograms() {
        for seed in 1..=20u64 {
            let mut rng = TestRng(0x9E37_79B9_7F4A_7C15 ^ seed);
            let mut h = Histogram::default();
            let n = 1 + (rng.next() % 500) as usize;
            for _ in 0..n {
                // Spread observations across the full bucket range,
                // including 0 and the saturating top bucket.
                let shift = rng.next() % 64;
                h.record(rng.next() >> shift);
            }
            let qs: Vec<f64> = (0..=100).map(|i| f64::from(i) / 100.0).collect();
            let mut prev = h.quantile(0.0);
            for &q in &qs {
                let v = h.quantile(q);
                assert!(v >= prev, "seed {seed}: quantile({q}) = {v} < {prev}");
                assert!(v >= h.min() && v <= h.max(), "seed {seed}: q={q}");
                prev = v;
            }
            assert_eq!(h.quantile(1.0), h.max(), "seed {seed}");
            // Out-of-range q clamps instead of panicking or escaping range.
            assert_eq!(h.quantile(-1.0), h.quantile(0.0), "seed {seed}");
            assert_eq!(h.quantile(2.0), h.quantile(1.0), "seed {seed}");
        }
    }

    #[test]
    fn interval_since_reconstructs_the_cumulative_histogram() {
        let mut rng = TestRng(0xDEAD_BEEF);
        let mut cumulative = Histogram::default();
        let mut prev = cumulative.clone();
        let mut rebuilt = Histogram::default();
        for _epoch in 0..8 {
            for _ in 0..(rng.next() % 40) {
                let shift = rng.next() % 64;
                cumulative.record(rng.next() >> shift);
            }
            let interval = cumulative.interval_since(&prev);
            assert_eq!(
                interval.count(),
                cumulative.count() - prev.count(),
                "interval count is the exact delta"
            );
            assert_eq!(interval.sum(), cumulative.sum() - prev.sum());
            if interval.count() > 0 {
                assert!(interval.min() >= cumulative.min());
                assert!(interval.max() <= cumulative.max());
                assert!(interval.p50() >= interval.min() && interval.p50() <= interval.max());
            }
            rebuilt.merge(&interval);
            prev = cumulative.clone();
        }
        assert_eq!(rebuilt.count(), cumulative.count());
        assert_eq!(rebuilt.sum(), cumulative.sum());
        for b in 0..HISTOGRAM_BUCKETS {
            assert_eq!(
                rebuilt.bucket_count(b),
                cumulative.bucket_count(b),
                "bucket {b}"
            );
        }
    }

    #[test]
    fn empty_interval_is_the_empty_histogram() {
        let mut h = Histogram::default();
        h.record(42);
        let interval = h.interval_since(&h);
        assert_eq!(interval.count(), 0);
        assert!(interval.mean().is_nan());
        assert_eq!(interval, Histogram::default());
    }

    #[test]
    fn registry_iter_exposes_raw_metrics_in_order() {
        let mut reg = MetricsRegistry::new();
        reg.counter("a").add(3);
        reg.gauge("b").set(1.5);
        reg.histogram("c").record(7);
        let kinds: Vec<(&str, bool, bool, bool)> = reg
            .iter()
            .map(|(p, m)| {
                (
                    p,
                    matches!(m, Metric::Counter(_)),
                    matches!(m, Metric::Gauge(_)),
                    matches!(m, Metric::Histogram(_)),
                )
            })
            .collect();
        assert_eq!(
            kinds,
            [
                ("a", true, false, false),
                ("b", false, true, false),
                ("c", false, false, true),
            ]
        );
    }

    #[test]
    fn histogram_merge_matches_recording_directly() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut all = Histogram::default();
        for v in [1u64, 7, 100, 4096] {
            a.record(v);
            all.record(v);
        }
        for v in [0u64, 3, u64::MAX] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
        // Merging an empty histogram is a no-op.
        a.merge(&Histogram::default());
        assert_eq!(a, all);
    }
}
