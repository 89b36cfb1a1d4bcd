//! Log-bucketed histogram for latency and duration distributions.
//!
//! The serving engine records one latency sample per request and needs
//! p50/p95/p99 over millions of samples without keeping them all; power
//! and trace analysis need the same shape for span durations. A histogram
//! with geometrically growing buckets gives bounded *relative* quantile
//! error at O(buckets) memory: every sample lands in the bucket whose
//! bounds bracket it, and a quantile is reported as the geometric mean of
//! its bucket's bounds, so the answer is within one growth factor of the
//! exact order statistic.
//!
//! It lives in `obs` (not the serving crate) because it is shared: the
//! serving engine and the fleet summarize request latencies with it,
//! recovery summarizes restore times, and merging per-shard histograms is
//! how multi-worker stats are combined. [`LatencySummary`] is its
//! fixed-quantile digest.

/// A histogram over positive values with geometrically spaced buckets.
///
/// Bucket `i` (for `i >= 1`) covers `[base·growth^(i-1), base·growth^i)`;
/// bucket `0` collects every value below `base` (underflow) and the last
/// bucket additionally collects overflow. Exact `count`, `sum`, `min` and
/// `max` are tracked on the side, so only interior quantiles carry the
/// bucketing error.
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    base: f64,
    growth: f64,
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl LogHistogram {
    /// Creates a histogram with `buckets` geometric buckets starting at
    /// `base` and growing by `growth` per bucket.
    ///
    /// # Panics
    /// Panics unless `base > 0`, `growth > 1` and `buckets >= 2`.
    pub fn new(base: f64, growth: f64, buckets: usize) -> Self {
        assert!(base > 0.0, "LogHistogram: base must be positive");
        assert!(growth > 1.0, "LogHistogram: growth must exceed 1");
        assert!(buckets >= 2, "LogHistogram: need at least 2 buckets");
        Self {
            base,
            growth,
            buckets: vec![0; buckets],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The workspace-default latency histogram: 1 µs resolution, ~9.5%
    /// relative bucket width, top bucket above 40 000 s. Suitable for
    /// anything from sub-millisecond forwards to multi-hour spans.
    pub fn for_latency_seconds() -> Self {
        Self::new(1e-6, 1.1, 260)
    }

    /// Records one sample. Non-finite and negative samples are ignored
    /// (durations cannot be negative; NaN would poison `sum`).
    pub fn record(&mut self, value: f64) {
        if !value.is_finite() || value < 0.0 {
            return;
        }
        let idx = self.bucket_index(value);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    fn bucket_index(&self, value: f64) -> usize {
        if value < self.base {
            return 0;
        }
        let i = (value / self.base).ln() / self.growth.ln();
        // +1 because bucket 0 is the underflow bucket.
        ((i.floor() as usize) + 1).min(self.buckets.len() - 1)
    }

    /// Lower and upper bounds of bucket `i` (bucket 0 starts at 0).
    fn bucket_bounds(&self, i: usize) -> (f64, f64) {
        if i == 0 {
            (0.0, self.base)
        } else {
            let lo = self.base * self.growth.powi(i as i32 - 1);
            (lo, lo * self.growth)
        }
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum of all recorded samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Exact minimum recorded sample (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Exact maximum recorded sample (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Approximate `q`-quantile (`0 <= q <= 1`), within one bucket's
    /// relative width of the exact order statistic. Returns 0 when empty;
    /// `q = 0` returns the exact min and `q = 1` the exact max.
    ///
    /// # Panics
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.count == 0 {
            return 0.0;
        }
        if q <= 0.0 {
            return self.min();
        }
        if q >= 1.0 {
            return self.max();
        }
        // Rank of the order statistic we are after (1-based ceil, the
        // "nearest-rank" definition).
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, hi) = self.bucket_bounds(i);
                // Geometric midpoint, clamped to the observed range so a
                // sparse top bucket cannot report past the true extremes.
                let mid = if lo == 0.0 {
                    hi / 2.0
                } else {
                    (lo * hi).sqrt()
                };
                return mid.clamp(self.min(), self.max());
            }
        }
        self.max()
    }

    /// Merges another histogram of identical geometry into this one; the
    /// result is exactly the histogram of the concatenated sample streams.
    ///
    /// # Panics
    /// Panics if geometries (base, growth, bucket count) differ.
    pub fn merge(&mut self, other: &LogHistogram) {
        assert!(
            self.base == other.base
                && self.growth == other.growth
                && self.buckets.len() == other.buckets.len(),
            "LogHistogram: cannot merge differing geometries"
        );
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// The maximum relative error of an interior quantile: half a bucket
    /// width each way, i.e. `sqrt(growth) - 1`.
    pub fn relative_error(&self) -> f64 {
        self.growth.sqrt() - 1.0
    }

    /// Drops every sample, keeping the geometry.
    pub fn clear(&mut self) {
        self.buckets.iter_mut().for_each(|b| *b = 0);
        self.count = 0;
        self.sum = 0.0;
        self.min = f64::INFINITY;
        self.max = f64::NEG_INFINITY;
    }
}

/// Quantile summary of one latency histogram, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Number of recorded samples.
    pub count: u64,
    /// Exact mean.
    pub mean_s: f64,
    /// Median (within histogram bucket error).
    pub p50_s: f64,
    /// 95th percentile.
    pub p95_s: f64,
    /// 99th percentile.
    pub p99_s: f64,
    /// Exact maximum.
    pub max_s: f64,
}

impl LatencySummary {
    /// Summarizes a histogram.
    pub fn from_histogram(h: &LogHistogram) -> Self {
        Self {
            count: h.count(),
            mean_s: h.mean(),
            p50_s: h.quantile(0.50),
            p95_s: h.quantile(0.95),
            p99_s: h.quantile(0.99),
            max_s: h.max(),
        }
    }

    /// Renders as `p50/p95/p99/max` milliseconds.
    pub fn to_millis_string(&self) -> String {
        format!(
            "{:.2}/{:.2}/{:.2}/{:.2} ms",
            self.p50_s * 1e3,
            self.p95_s * 1e3,
            self.p99_s * 1e3,
            self.max_s * 1e3
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(values: &[f64]) -> LogHistogram {
        let mut h = LogHistogram::for_latency_seconds();
        for &v in values {
            h.record(v);
        }
        h
    }

    /// Exact nearest-rank quantile on a sorted copy.
    fn oracle(values: &[f64], q: f64) -> f64 {
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        if q <= 0.0 {
            return sorted[0];
        }
        let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
        sorted[rank.min(sorted.len()) - 1]
    }

    /// Deterministic pseudo-random latencies spanning µs to tens of
    /// seconds (log-uniform-ish via squaring a uniform draw).
    fn random_latencies(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let u = (state >> 11) as f64 / (1u64 << 53) as f64;
                1e-6 * (10f64).powf(u * 7.0) // 1 µs .. 10 s
            })
            .collect()
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LogHistogram::for_latency_seconds();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
    }

    #[test]
    fn exact_stats_are_exact() {
        let h = filled(&[0.001, 0.004, 0.002, 0.010]);
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 0.017).abs() < 1e-12);
        assert!((h.mean() - 0.00425).abs() < 1e-12);
        assert_eq!(h.min(), 0.001);
        assert_eq!(h.max(), 0.010);
    }

    #[test]
    fn ignores_nan_and_negative() {
        let h = filled(&[f64::NAN, -1.0, f64::INFINITY, 0.5]);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 0.5);
    }

    #[test]
    fn quantile_extremes_are_exact() {
        let vals = random_latencies(500, 7);
        let h = filled(&vals);
        assert_eq!(h.quantile(0.0), oracle(&vals, 0.0));
        assert_eq!(h.quantile(1.0), vals.iter().cloned().fold(0.0, f64::max));
    }

    #[test]
    fn quantiles_match_sorted_oracle_within_bucket_error() {
        for seed in [1u64, 2, 3, 4, 5] {
            let vals = random_latencies(4000, seed);
            let h = filled(&vals);
            // A bucket mid-point answer can sit half a bucket away from
            // the exact order statistic, plus a tiny rank slop at ties.
            let tol = h.relative_error() + 0.02;
            for q in [0.1, 0.25, 0.5, 0.9, 0.95, 0.99] {
                let approx = h.quantile(q);
                let exact = oracle(&vals, q);
                let rel = (approx - exact).abs() / exact;
                assert!(
                    rel <= tol,
                    "seed {seed} q {q}: approx {approx} vs exact {exact} (rel {rel:.4})"
                );
            }
        }
    }

    #[test]
    fn merge_of_shards_equals_whole_stream() {
        let all = random_latencies(3000, 99);
        let whole = filled(&all);
        // Split into 4 uneven shards, histogram each, merge.
        let mut merged = LogHistogram::for_latency_seconds();
        for chunk in all.chunks(700) {
            merged.merge(&filled(chunk));
        }
        // Bucket counts and extremes are order-independent, so every
        // quantile matches bit-for-bit, not just within tolerance. Only
        // `sum` picks up float addition-order noise.
        assert_eq!(merged.count(), whole.count());
        assert_eq!(merged.min(), whole.min());
        assert_eq!(merged.max(), whole.max());
        for q in [0.05, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(merged.quantile(q), whole.quantile(q));
        }
        assert!((merged.sum() - whole.sum()).abs() < 1e-9 * whole.sum().abs());
    }

    #[test]
    fn merge_with_empty_keeps_extremes() {
        let mut h = filled(&[0.25]);
        h.merge(&LogHistogram::for_latency_seconds());
        assert_eq!(h.min(), 0.25);
        assert_eq!(h.max(), 0.25);
        assert_eq!(h.count(), 1);
    }

    #[test]
    #[should_panic(expected = "differing geometries")]
    fn merge_rejects_different_geometry() {
        let mut a = LogHistogram::new(1e-6, 1.1, 100);
        let b = LogHistogram::new(1e-6, 1.2, 100);
        a.merge(&b);
    }

    #[test]
    fn underflow_and_overflow_are_captured() {
        let mut h = LogHistogram::new(1.0, 2.0, 4);
        // Below base -> bucket 0; far above top -> last bucket.
        h.record(0.001);
        h.record(1e12);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), 1e12);
        // Median must stay inside the observed range despite clamping.
        let m = h.quantile(0.5);
        assert!((0.001..=1e12).contains(&m));
    }

    #[test]
    fn constant_stream_quantiles_are_tight() {
        let h = filled(&[0.010; 100]);
        for q in [0.01, 0.5, 0.99] {
            let v = h.quantile(q);
            assert!((v - 0.010).abs() / 0.010 <= h.relative_error() + 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "quantile must be in")]
    fn out_of_range_quantile_panics() {
        filled(&[1.0]).quantile(1.5);
    }
}
