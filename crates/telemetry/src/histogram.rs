//! Fixed-bucket log-scale latency histograms.
//!
//! Values (typically microsecond durations) land in one of 65 power-of-two
//! buckets: bucket 0 holds exactly the value 0, and bucket `i` (1..=64)
//! holds `[2^(i-1), 2^i)` — so every `u64` including `u64::MAX` maps to a
//! bucket and bucket upper bounds are `2^i - 1`. Quantiles derived from the
//! buckets are upper bounds that overshoot the true value by strictly less
//! than 2x, which is plenty for latency dashboards and for the server's
//! client-vs-server cross-check test.
//!
//! Recording is lock-free: the bucket counters are sharded per recording
//! thread exactly like [`Counter`](crate::Counter), plus a per-shard
//! running sum and max. Snapshots read all shards and merge, and two
//! snapshots (e.g. from different scrape intervals or processes) merge
//! count-for-count.

#[cfg(not(feature = "noop"))]
use crate::metrics::thread_shard;
use crate::metrics::{PaddedU64, SHARDS};
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Number of buckets: one for zero plus one per bit of `u64`.
pub const BUCKET_COUNT: usize = 65;

/// Map a value to its bucket index: 0 → 0, `v` in `[2^(i-1), 2^i)` → `i`.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i`: `2^i - 1` (saturating at
/// `u64::MAX` for `i = 64`). Bucket 0's bound is 0.
#[inline]
pub fn bucket_upper(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

#[repr(align(64))]
struct HistogramShard {
    buckets: [PaddedU64; BUCKET_COUNT],
    sum: PaddedU64,
    max: PaddedU64,
}

impl Default for HistogramShard {
    fn default() -> Self {
        Self {
            // Arrays only derive Default up to 32 elements.
            buckets: std::array::from_fn(|_| PaddedU64::default()),
            sum: PaddedU64::default(),
            max: PaddedU64::default(),
        }
    }
}

/// A log-scale latency histogram with sharded atomic buckets.
///
/// With the `noop` feature [`Histogram::record`] compiles to nothing and
/// snapshots are all zeros.
#[derive(Default)]
pub struct Histogram {
    shards: [HistogramShard; SHARDS],
}

impl Histogram {
    /// Create an empty histogram. Usually obtained via
    /// [`Registry::histogram`](crate::Registry::histogram) instead.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        #[cfg(not(feature = "noop"))]
        {
            let shard = &self.shards[thread_shard()];
            shard.buckets[bucket_of(v)]
                .0
                .fetch_add(1, Ordering::Relaxed);
            shard.sum.0.fetch_add(v, Ordering::Relaxed);
            shard.max.0.fetch_max(v, Ordering::Relaxed);
        }
        #[cfg(feature = "noop")]
        let _ = v;
    }

    /// Start a timer that records its elapsed microseconds into this
    /// histogram when dropped.
    pub fn start_timer(&self) -> Timer<'_> {
        Timer {
            histogram: self,
            start: Instant::now(),
        }
    }

    /// Merge all shards into a point-in-time snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut snap = HistogramSnapshot::default();
        for shard in &self.shards {
            for (i, b) in shard.buckets.iter().enumerate() {
                snap.buckets[i] = snap.buckets[i].wrapping_add(b.0.load(Ordering::Relaxed));
            }
            snap.sum = snap.sum.wrapping_add(shard.sum.0.load(Ordering::Relaxed));
            snap.max = snap.max.max(shard.max.0.load(Ordering::Relaxed));
        }
        snap
    }
}

/// Guard that records elapsed wall time (in microseconds) into a histogram
/// when dropped. Created by [`Histogram::start_timer`].
pub struct Timer<'a> {
    histogram: &'a Histogram,
    start: Instant,
}

impl Timer<'_> {
    /// Microseconds elapsed since the timer started.
    pub fn elapsed_us(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

impl Drop for Timer<'_> {
    fn drop(&mut self) {
        self.histogram.record(self.elapsed_us());
    }
}

/// A merged, point-in-time view of a [`Histogram`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts (see [`bucket_of`] for the bucket scheme).
    pub buckets: [u64; BUCKET_COUNT],
    /// Sum of all recorded values.
    pub sum: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            buckets: [0; BUCKET_COUNT],
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().fold(0u64, |a, &b| a.wrapping_add(b))
    }

    /// Mean of observed values, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum as f64 / count as f64
        }
    }

    /// Fold another snapshot into this one count-for-count.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a = a.wrapping_add(*b);
        }
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Upper-bound estimate of quantile `q` in `[0, 1]`: the bucket upper
    /// bound that the `ceil(q * count)`-th smallest observation falls under,
    /// clamped to the observed max. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen = seen.wrapping_add(b);
            if seen >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Median upper bound. See [`HistogramSnapshot::quantile`].
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile upper bound. See [`HistogramSnapshot::quantile`].
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile upper bound. See [`HistogramSnapshot::quantile`].
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_scheme_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for i in 0..BUCKET_COUNT {
            assert_eq!(bucket_of(bucket_upper(i)), i, "upper bound of bucket {i}");
        }
        for i in 1..64 {
            assert_eq!(bucket_of(1u64 << (i - 1)), i, "lower bound of bucket {i}");
        }
    }

    #[test]
    fn quantiles_bound_true_values() {
        if !crate::enabled() {
            return;
        }
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 1000);
        assert_eq!(snap.max, 1000);
        // True p50 is 500; the bucket upper bound may overshoot but by < 2x.
        let p50 = snap.p50();
        assert!((500..1000).contains(&p50), "p50 = {p50}");
        assert!(snap.p90() >= 900);
        assert!(snap.p99() <= snap.max);
        assert!(snap.p50() <= snap.p90() && snap.p90() <= snap.p99());
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap.count(), 0);
        assert_eq!(snap.quantile(0.5), 0);
        assert_eq!(snap.mean(), 0.0);
        assert_eq!(snap.max, 0);
    }
}
