//! Serving statistics: lock-free counters plus histogram-backed latency
//! summaries, recorded by the workers one batch at a time.

use obs::{LatencySummary, LogHistogram};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Shared mutable recording state. Counters are atomics; the three
/// histograms sit behind one mutex that a worker takes once per batch
/// (see [`StatsInner::batch`]), far off the matmul critical path.
pub(crate) struct StatsInner {
    pub completed: AtomicU64,
    pub shed: AtomicU64,
    pub batches: AtomicU64,
    pub slo_violations: AtomicU64,
    /// Workers that died mid-batch and carried on (see
    /// [`ServeReport::worker_restarts`]).
    pub restarts: AtomicU64,
    histograms: Mutex<Histograms>,
}

struct Histograms {
    latency: LogHistogram,
    wait: LogHistogram,
    forward: LogHistogram,
}

/// One executed batch being recorded: holds the histogram lock from the
/// forward's end to the last reply, so a batch costs one lock however
/// many rows it has.
pub(crate) struct BatchStats<'a> {
    stats: &'a StatsInner,
    histograms: MutexGuard<'a, Histograms>,
}

impl BatchStats<'_> {
    /// Records one completed request of this batch.
    pub fn request(&mut self, wait: Duration, latency: Duration, slo: Option<Duration>) {
        self.stats.completed.fetch_add(1, Ordering::Relaxed);
        if slo.is_some_and(|target| latency > target) {
            self.stats.slo_violations.fetch_add(1, Ordering::Relaxed);
        }
        self.histograms.wait.record(wait.as_secs_f64());
        self.histograms.latency.record(latency.as_secs_f64());
    }
}

impl StatsInner {
    pub fn new() -> Self {
        Self {
            completed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            slo_violations: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
            histograms: Mutex::new(Histograms {
                latency: LogHistogram::for_latency_seconds(),
                wait: LogHistogram::for_latency_seconds(),
                forward: LogHistogram::for_latency_seconds(),
            }),
        }
    }

    /// Records one executed batch's forward time and returns the recorder
    /// for its requests.
    pub fn batch(&self, forward: Duration) -> BatchStats<'_> {
        self.batches.fetch_add(1, Ordering::Relaxed);
        let mut histograms = self.histograms.lock().unwrap();
        histograms.forward.record(forward.as_secs_f64());
        BatchStats {
            stats: self,
            histograms,
        }
    }

    /// Snapshot over `elapsed_s` seconds of serving.
    pub fn report(&self, elapsed_s: f64) -> ServeReport {
        let completed = self.completed.load(Ordering::Relaxed);
        let batches = self.batches.load(Ordering::Relaxed);
        let histograms = self.histograms.lock().unwrap();
        ServeReport {
            completed,
            shed: self.shed.load(Ordering::Relaxed),
            batches,
            slo_violations: self.slo_violations.load(Ordering::Relaxed),
            worker_restarts: self.restarts.load(Ordering::Relaxed),
            mean_batch: if batches == 0 {
                0.0
            } else {
                completed as f64 / batches as f64
            },
            elapsed_s,
            throughput_rps: if elapsed_s > 0.0 {
                completed as f64 / elapsed_s
            } else {
                0.0
            },
            latency: LatencySummary::from_histogram(&histograms.latency),
            enqueue_wait: LatencySummary::from_histogram(&histograms.wait),
            batch_forward: LatencySummary::from_histogram(&histograms.forward),
        }
    }
}

/// A point-in-time summary of a serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests rejected at the queue watermark ([`crate::ServeError::Overloaded`]).
    pub shed: u64,
    /// Batches that ran a forward pass.
    pub batches: u64,
    /// Completed requests whose end-to-end latency exceeded the SLO
    /// target (0 when no SLO is configured).
    pub slo_violations: u64,
    /// Workers that died mid-batch and were restarted (0 in a healthy
    /// run; see [`crate::ServeError::WorkerCrashed`]).
    pub worker_restarts: u64,
    /// Mean rows per batch.
    pub mean_batch: f64,
    /// Serving wall-clock covered by this report, seconds.
    pub elapsed_s: f64,
    /// Completed requests per second over `elapsed_s`.
    pub throughput_rps: f64,
    /// End-to-end (submit → reply) per-request latency.
    pub latency: LatencySummary,
    /// Per-request time spent queued before a worker pulled its batch.
    pub enqueue_wait: LatencySummary,
    /// Per-batch forward-pass time.
    pub batch_forward: LatencySummary,
}

impl ServeReport {
    /// Fraction of completed requests that met the SLO (1.0 when no SLO
    /// was configured or nothing completed).
    pub fn slo_attainment(&self) -> f64 {
        if self.completed == 0 {
            1.0
        } else {
            1.0 - self.slo_violations as f64 / self.completed as f64
        }
    }
}

impl std::fmt::Display for ServeReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "completed {} | shed {} | batches {} (mean {:.2} rows) | {:.0} req/s | {} restarts",
            self.completed,
            self.shed,
            self.batches,
            self.mean_batch,
            self.throughput_rps,
            self.worker_restarts
        )?;
        writeln!(
            f,
            "latency  p50/p95/p99/max: {}",
            self.latency.to_millis_string()
        )?;
        writeln!(
            f,
            "queue    p50/p95/p99/max: {}",
            self.enqueue_wait.to_millis_string()
        )?;
        write!(
            f,
            "forward  p50/p95/p99/max: {} | SLO attainment {:.1}%",
            self.batch_forward.to_millis_string(),
            self.slo_attainment() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_ratios() {
        let inner = StatsInner::new();
        let mut batch = inner.batch(Duration::from_millis(4));
        for _ in 0..8 {
            batch.request(
                Duration::from_millis(1),
                Duration::from_millis(5),
                Some(Duration::from_millis(3)),
            );
        }
        drop(batch);
        inner.restarts.fetch_add(1, Ordering::Relaxed);
        let r = inner.report(2.0);
        assert_eq!(r.worker_restarts, 1);
        assert_eq!(r.completed, 8);
        assert_eq!(r.batches, 1);
        assert_eq!(r.mean_batch, 8.0);
        assert_eq!(r.throughput_rps, 4.0);
        assert_eq!(r.slo_violations, 8);
        assert_eq!(r.slo_attainment(), 0.0);
        assert_eq!(r.latency.count, 8);
        assert!(r.latency.max_s >= 0.005 - 1e-9);
    }

    #[test]
    fn empty_report_is_benign() {
        let r = StatsInner::new().report(0.0);
        assert_eq!(r.completed, 0);
        assert_eq!(r.throughput_rps, 0.0);
        assert_eq!(r.mean_batch, 0.0);
        assert_eq!(r.slo_attainment(), 1.0);
        assert!(r.to_string().contains("completed 0"));
    }
}
