//! Lock-free metric instruments: monotonic counters, gauges, and
//! log-bucketed latency histograms.
//!
//! Every instrument is a handful of [`AtomicU64`]/[`AtomicI64`] cells —
//! recording never takes a lock, never allocates, and never blocks, so
//! instruments can sit directly on serving hot paths. (Their cost on
//! the served path is not measured yet; ROADMAP item 1's overhead gates
//! will measure it.) Reading is equally lock-free: a reader snapshots the atomics and derives
//! quantiles from the bucket counts.
//!
//! # Histogram bucketing
//!
//! [`Histogram`] buckets values (typically nanoseconds) by power of two:
//! bucket `0` holds exactly the value `0`, bucket `i > 0` holds values in
//! `[2^(i-1), 2^i - 1]`. With [`BUCKETS`] = 65 fixed buckets the full
//! `u64` range is covered — `0` and `u64::MAX` both land in a bucket —
//! and a quantile query walks the cumulative counts and reports the
//! bucket's inclusive upper bound. The price is quantization: a reported
//! quantile is exact to within one power-of-two bucket, which is the
//! resolution latency tuning actually uses (is p99 ~1us or ~1ms?).

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Duration;

/// Number of histogram buckets: one for zero plus one per power of two.
pub const BUCKETS: usize = 65;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down (queue depths, active
/// connections).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` (negative to decrease).
    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Sets the value outright.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// The bucket a value lands in: `0` for zero, otherwise one plus the
/// position of the highest set bit (`v` in `[2^(i-1), 2^i - 1]` goes to
/// bucket `i`).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// The inclusive upper bound of bucket `i` (what a quantile query
/// reports for values in that bucket).
#[inline]
pub fn bucket_upper(i: usize) -> u64 {
    match i {
        0 => 0,
        _ if i >= BUCKETS - 1 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

/// A fixed-bucket, power-of-two latency histogram. Recording is three
/// relaxed atomic RMW operations (bucket, sum, max); no locks, no
/// allocation, no sample retention — memory is constant no matter how
/// many values are recorded.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    /// Sum of recorded values (wrapping on overflow; with nanosecond
    /// samples that takes ~584 years of accumulated latency).
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [(); BUCKETS].map(|()| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one value.
    #[inline]
    pub fn record(&self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` occurrences of the same value with one set of atomic
    /// operations — e.g. a batch of `n` probes that shared one service
    /// time, so the histogram's count tracks probes, not batches.
    #[inline]
    pub fn record_n(&self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[bucket_index(v)].fetch_add(n, Ordering::Relaxed);
        self.sum.fetch_add(v.wrapping_mul(n), Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// [`record_n`](Self::record_n) for a duration in nanoseconds.
    #[inline]
    pub fn record_duration_n(&self, d: Duration, n: u64) {
        self.record_n(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX), n);
    }

    /// A point-in-time copy of the bucket counts. Concurrent recorders
    /// may land between bucket reads; each recorded value still appears
    /// exactly once in some later snapshot (counts are monotone).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (b, a) in buckets.iter_mut().zip(&self.buckets) {
            *b = a.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An immutable copy of a [`Histogram`]'s state, with quantile queries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts (see [`bucket_index`]).
    pub buckets: [u64; BUCKETS],
    /// Sum of all recorded values (wrapping).
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The quantile `q` in `[0, 1]`, reported as the inclusive upper
    /// bound of the bucket containing it (0 for an empty histogram).
    /// Exact to within one power-of-two bucket.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        // Rank of the quantile sample, 1-based, clamped into range.
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Never report past the observed maximum: the top bucket
                // spans half the u64 range, but we know the true extreme.
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// [`quantile`](Self::quantile) as a [`Duration`] of nanoseconds.
    pub fn quantile_duration(&self, q: f64) -> Duration {
        Duration::from_nanos(self.quantile(q))
    }

    /// Arithmetic mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum as f64 / count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn bucket_index_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_index(1 << 63), 64);
        assert_eq!(bucket_index((1 << 63) - 1), 63);
        // Every boundary: 2^k opens bucket k+1, 2^k - 1 closes bucket k.
        for k in 1..64 {
            assert_eq!(bucket_index(1u64 << k), k + 1, "2^{k}");
            assert_eq!(bucket_index((1u64 << k) - 1), k, "2^{k}-1");
        }
    }

    #[test]
    fn bucket_upper_is_inclusive_and_consistent_with_index() {
        for i in 0..BUCKETS {
            let upper = bucket_upper(i);
            assert_eq!(bucket_index(upper), i, "upper bound of bucket {i}");
            if i + 1 < BUCKETS {
                assert_eq!(bucket_index(upper.wrapping_add(1)), i + 1);
            }
        }
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn zero_and_max_are_both_recorded() {
        let h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count(), 2);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[64], 1);
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.sum, u64::MAX); // 0 + MAX
        assert_eq!(s.quantile(0.0), 0);
        assert_eq!(s.quantile(1.0), u64::MAX);
    }

    #[test]
    fn quantiles_track_known_distributions() {
        let h = Histogram::new();
        // 100 values of 1000ns, one outlier of ~1ms.
        for _ in 0..100 {
            h.record(1000);
        }
        h.record(1_000_000);
        let s = h.snapshot();
        assert_eq!(s.count(), 101);
        // p50 and p90 sit in 1000's bucket [512, 1023].
        assert_eq!(bucket_index(s.quantile(0.50)), bucket_index(1000));
        assert_eq!(bucket_index(s.quantile(0.90)), bucket_index(1000));
        // p999 reaches the outlier's bucket, clamped to the true max.
        assert_eq!(s.quantile(0.9999), 1_000_000);
        assert_eq!(s.max, 1_000_000);
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn record_n_counts_every_occurrence() {
        let h = Histogram::new();
        h.record_n(64, 1024);
        h.record_n(7, 0); // no-op
        let s = h.snapshot();
        assert_eq!(s.count(), 1024);
        assert_eq!(s.sum, 64 * 1024);
        // Bucket upper bound, clamped to the observed maximum.
        assert_eq!(s.quantile(0.5), 64);
    }

    #[test]
    fn concurrent_recording_keeps_totals_exact() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 10_000;
        let h = Arc::new(Histogram::new());
        let c = Arc::new(Counter::new());
        let g = Arc::new(Gauge::new());
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (h, c, g) = (Arc::clone(&h), Arc::clone(&c), Arc::clone(&g));
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        // Everything lands in bucket_index(500)=9 except a
                        // per-thread sprinkle of outliers.
                        let v = if i % 1000 == t { 1 << 20 } else { 500 };
                        h.record(v);
                        c.inc();
                        g.add(1);
                        g.sub(1);
                    }
                })
            })
            .collect();
        for hd in handles {
            hd.join().expect("recorder thread");
        }
        let s = h.snapshot();
        let total = THREADS * PER_THREAD;
        let outliers = THREADS * (PER_THREAD / 1000);
        assert_eq!(s.count(), total, "histogram total exact");
        assert_eq!(c.get(), total, "counter total exact");
        assert_eq!(g.get(), 0, "gauge balanced");
        assert_eq!(s.sum, (total - outliers) * 500 + outliers * (1 << 20));
        assert_eq!(s.max, 1 << 20);
        // Quantiles land within one bucket of the true values: p50 in
        // 500's bucket, p9999+ in the outlier bucket.
        assert_eq!(bucket_index(s.quantile(0.5)), bucket_index(500));
        assert_eq!(bucket_index(s.quantile(0.9999)), bucket_index(1 << 20));
    }

    #[test]
    fn durations_record_as_nanoseconds() {
        let h = Histogram::new();
        h.record_duration(Duration::from_micros(3));
        h.record_duration_n(Duration::from_nanos(100), 5);
        let s = h.snapshot();
        assert_eq!(s.count(), 6);
        assert_eq!(s.sum, 3000 + 500);
        assert_eq!(s.max, 3000);
    }
}
