//! Rolling-window histogram snapshots over a [`LogHistogram`] ring.
//!
//! An autoscaler must react to the *recent* p99, not the since-boot p99:
//! a cumulative histogram stops moving once millions of samples are in
//! it, so a latency regression at hour two is invisible under hour one's
//! mass. [`WindowedHistogram`] keeps a ring of time slices, each its own
//! [`LogHistogram`]; recording routes a sample to the slice covering its
//! timestamp and [`WindowedHistogram::snapshot`] merges the slices that
//! fall inside the trailing window into one histogram with all of
//! `LogHistogram`'s quantile machinery.
//!
//! The window boundary is slice-granular: a snapshot at time `t` covers
//! between `window` and `window + slice` seconds of samples (every whole
//! slice intersecting `(t - window, t]`). That granularity error is the
//! price of O(slices) memory and O(1) record; the quantile itself is
//! still within [`LogHistogram::relative_error`] of the exact order
//! statistic over the covered span, which the tests pin against a sorted
//! oracle.

use crate::hist::LogHistogram;

/// One ring slot: the absolute slice index it currently holds, or `None`
/// when empty/stale.
#[derive(Debug, Clone, PartialEq)]
struct Slice {
    /// Absolute slice number (`floor(t / slice_s)`) of the held data.
    index: u64,
    hist: LogHistogram,
}

/// A rolling-window histogram: a time-sliced ring of [`LogHistogram`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowedHistogram {
    /// Width of one ring slice, seconds.
    slice_s: f64,
    /// Ring of slices; position `index % ring.len()`.
    ring: Vec<Option<Slice>>,
    /// Geometry template for fresh slices and empty snapshots.
    template: LogHistogram,
}

impl WindowedHistogram {
    /// Creates a window of `window_s` seconds split into `slices` ring
    /// slices, each holding a histogram with `template`'s geometry
    /// (counts are ignored; pass a fresh histogram).
    ///
    /// # Panics
    /// Panics unless `window_s > 0` and `slices >= 1`.
    pub fn new(window_s: f64, slices: usize, mut template: LogHistogram) -> Self {
        assert!(window_s > 0.0, "WindowedHistogram: window must be positive");
        assert!(slices >= 1, "WindowedHistogram: need at least one slice");
        let slice_s = window_s / slices as f64;
        template.clear();
        Self {
            slice_s,
            // One extra slot so the slice currently filling does not
            // evict the oldest slice still inside the window.
            ring: vec![None; slices + 1],
            template,
        }
    }

    /// The workspace-default latency window: `window_s` seconds in ten
    /// slices of [`LogHistogram::for_latency_seconds`] geometry.
    pub fn for_latency_seconds(window_s: f64) -> Self {
        Self::new(window_s, 10, LogHistogram::for_latency_seconds())
    }

    /// Records `value` at timestamp `t_s` (seconds on the caller's
    /// clock — wall or simulated, as long as it is monotone). Samples
    /// older than the ring (more than `window + slice` behind the latest
    /// recorded timestamp) are dropped. Negative timestamps and
    /// non-finite values are ignored.
    pub fn record(&mut self, t_s: f64, value: f64) {
        if !t_s.is_finite() || t_s < 0.0 {
            return;
        }
        let index = self.slice_index(t_s);
        // A sample may arrive slightly out of order (a straggler reply);
        // accept it only while its slice is still representable.
        let pos = (index % self.ring.len() as u64) as usize;
        match &mut self.ring[pos] {
            Some(s) if s.index == index => s.hist.record(value),
            slot => {
                // The slot holds a stale slice (or nothing). Only evict
                // forward in time: a straggler older than the ring must
                // not clobber a live slice.
                if slot.as_ref().is_some_and(|s| s.index > index) {
                    return;
                }
                let mut hist = self.template.clone();
                hist.record(value);
                *slot = Some(Slice { index, hist });
            }
        }
    }

    /// Merges every slice covering `(now_s - window, now_s]` into one
    /// histogram. Slices are whole: the snapshot actually spans from the
    /// start of the oldest covered slice, i.e. up to one slice more than
    /// the nominal window.
    pub fn snapshot(&self, now_s: f64) -> LogHistogram {
        let mut out = self.template.clone();
        if now_s < 0.0 {
            return out;
        }
        let now_index = self.slice_index(now_s);
        let oldest = now_index.saturating_sub(self.ring.len() as u64 - 1);
        for slice in self.ring.iter().flatten() {
            if slice.index >= oldest && slice.index <= now_index {
                out.merge(&slice.hist);
            }
        }
        out
    }

    fn slice_index(&self, t_s: f64) -> u64 {
        (t_s / self.slice_s) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn windowed() -> WindowedHistogram {
        WindowedHistogram::for_latency_seconds(10.0)
    }

    /// Deterministic log-uniform-ish latencies (µs to seconds).
    fn stream(n: usize, seed: u64) -> Vec<(f64, f64)> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut t = 0.0f64;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let u = (state >> 11) as f64 / (1u64 << 53) as f64;
                t += u * 0.05; // arrivals every 0..50 ms
                (t, 1e-6 * (10f64).powf(u * 6.0))
            })
            .collect()
    }

    /// Exact nearest-rank quantile on a sorted copy.
    fn oracle(values: &[f64], q: f64) -> f64 {
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
        sorted[rank.min(sorted.len()) - 1]
    }

    #[test]
    fn empty_snapshot_is_empty() {
        let w = windowed();
        assert!(w.snapshot(5.0).is_empty());
    }

    #[test]
    fn snapshot_sees_only_the_window() {
        let mut w = windowed(); // 10 s window, 1 s slices
        w.record(1.0, 0.001);
        w.record(14.5, 0.002);
        // At t=20 the sample at t=1 has aged out; the one at 14.5 is in.
        let snap = w.snapshot(20.0);
        assert_eq!(snap.count(), 1);
        assert_eq!(snap.max(), 0.002);
        // At t=5 only the early sample is visible.
        assert_eq!(w.snapshot(5.0).count(), 1);
        assert_eq!(w.snapshot(5.0).max(), 0.001);
    }

    #[test]
    fn old_slices_are_evicted_by_new_recordings() {
        let mut w = windowed();
        w.record(0.5, 0.001);
        // Write far enough ahead that the t=0.5 slice's ring slot is
        // reused (ring holds 11 slices of 1 s).
        w.record(11.5, 0.002);
        let snap = w.snapshot(11.5);
        assert_eq!(snap.count(), 1);
        assert_eq!(snap.max(), 0.002);
    }

    #[test]
    fn straggler_older_than_ring_is_dropped() {
        let mut w = windowed();
        w.record(100.0, 0.002);
        // A straggler whose slice slot now belongs to the future must
        // not clobber live data.
        w.record(1.0, 0.5);
        let snap = w.snapshot(100.0);
        assert_eq!(snap.count(), 1);
        assert_eq!(snap.max(), 0.002);
    }

    /// The property the autoscaler depends on: the rolling p99 (and
    /// other quantiles) of a snapshot matches a sorted oracle computed
    /// over exactly the slices the snapshot covers, within the element
    /// histogram's relative bucket error.
    #[test]
    fn rolling_quantiles_match_windowed_oracle() {
        for seed in [3u64, 17, 99, 2024] {
            let events = stream(6000, seed);
            let mut w = windowed();
            for &(t, v) in &events {
                w.record(t, v);
            }
            let now = events.last().unwrap().0;
            // Oracle over the slice-aligned span the snapshot covers
            // (1 s slices: a 10 s window in ten).
            let now_index = now as u64;
            let oldest = now_index.saturating_sub(10); // ring len - 1
            let covered: Vec<f64> = events
                .iter()
                .filter(|(t, _)| {
                    let i = *t as u64;
                    i >= oldest && i <= now_index
                })
                .map(|&(_, v)| v)
                .collect();
            assert!(!covered.is_empty(), "seed {seed} produced no window data");
            let snap = w.snapshot(now);
            assert_eq!(snap.count(), covered.len() as u64, "seed {seed}");
            let tol = snap.relative_error() + 0.02;
            for q in [0.5, 0.9, 0.95, 0.99] {
                let approx = snap.quantile(q);
                let exact = oracle(&covered, q);
                let rel = (approx - exact).abs() / exact;
                assert!(
                    rel <= tol,
                    "seed {seed} q {q}: approx {approx} vs exact {exact} (rel {rel:.4})"
                );
            }
        }
    }

    #[test]
    fn ignores_bad_inputs() {
        let mut w = windowed();
        w.record(f64::NAN, 0.5);
        w.record(-1.0, 0.5);
        w.record(1.0, f64::NAN);
        assert_eq!(w.snapshot(1.0).count(), 0);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        WindowedHistogram::new(0.0, 4, LogHistogram::for_latency_seconds());
    }
}
