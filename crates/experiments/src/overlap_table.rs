//! Overlapped vs blocking gradient synchronization on the functional
//! NT3 pipeline.
//!
//! The paper's Horovod timelines (Figures 7, 12, 19) show gradient
//! allreduce serialized after backward compute — the classic exposed
//! communication that tensor fusion plus overlap hides. This driver runs
//! the real training pipeline twice per worker count — once with the
//! blocking post-backward [`collectives::DistributedOptimizer`] and once
//! with the overlapped [`collectives::AsyncBucketedOptimizer`] — and
//! reports seconds/epoch, the measured hidden/exposed communication
//! split, and the `cluster` α–β overlap model's prediction of the exposed
//! time calibrated from the measured per-bucket allreduce cost.

use crate::report::{format_table, Experiment};
use candle::pipeline::{DataMode, FuncScaling};
use candle::{BenchDataKind, ParallelRunOutcome, ParallelRunSpec};
use cluster::calib::Bench;
use cluster::overlap_exposed_seconds;

/// Fusion threshold for the overlapped runs: small enough that even the
/// tiny NT3 model splits into several buckets, so the engine actually
/// pipelines instead of degenerating to one blocking allreduce.
const OVERLAP_THRESHOLD_BYTES: usize = 2 * 1024;

/// One blocking-vs-overlapped measurement at a fixed worker count.
#[derive(Debug, Clone)]
pub struct OverlapComparison {
    /// Simulated worker count.
    pub workers: usize,
    /// Blocking-sync seconds per epoch (rank 0 training phase).
    pub blocking_epoch_s: f64,
    /// Overlapped-sync seconds per epoch (rank 0 training phase).
    pub overlapped_epoch_s: f64,
    /// Communication hidden under backward compute (`comm_overlap`).
    pub comm_hidden_s: f64,
    /// Communication the optimizer step had to wait for (`comm_exposed`).
    pub comm_exposed_s: f64,
    /// Backward-compute seconds on rank 0 across the run.
    pub backward_s: f64,
    /// Buckets the overlap engine dispatched across the run.
    pub buckets: u64,
    /// Batch steps the overlap engine completed.
    pub steps: u64,
    /// Exposed seconds the calibrated α–β overlap recurrence predicts for
    /// the whole run (per-bucket cost taken from the measured comm-busy
    /// time, readiness spread evenly across measured backward time).
    pub predicted_exposed_s: f64,
}

impl OverlapComparison {
    /// Blocking time over overlapped time (>1 means overlap won).
    pub fn speedup(&self) -> f64 {
        self.blocking_epoch_s / self.overlapped_epoch_s.max(1e-12)
    }

    /// Total wall-clock the rank spent posting, folding and waiting.
    pub fn comm_busy_s(&self) -> f64 {
        self.comm_hidden_s + self.comm_exposed_s
    }

    /// Fraction of communication backward compute failed to hide.
    pub fn exposed_fraction(&self) -> f64 {
        if self.comm_busy_s() <= 0.0 {
            return 0.0;
        }
        (self.comm_exposed_s / self.comm_busy_s()).clamp(0.0, 1.0)
    }

    /// The model's predicted exposed fraction under the same calibration.
    pub fn predicted_exposed_fraction(&self) -> f64 {
        if self.comm_busy_s() <= 0.0 {
            return 0.0;
        }
        (self.predicted_exposed_s / self.comm_busy_s()).clamp(0.0, 1.0)
    }

    /// The error band the table asserts the model prediction within (full
    /// release mode): half the measured comm-busy time plus 25 ms of
    /// scheduler noise per batch step. Thread-simulated ranks on a shared
    /// host jitter far more than the α–β terms, so the band is wide by
    /// design — it catches model-shape mistakes (e.g. predicting full
    /// exposure when comm is hidden), not microsecond drift.
    pub fn error_band_s(&self) -> f64 {
        0.5 * self.comm_busy_s() + 0.025 * self.steps as f64
    }
}

pub(crate) fn spec(
    workers: usize,
    epochs_per_worker: usize,
    overlap: Option<usize>,
) -> ParallelRunSpec {
    ParallelRunSpec {
        bench: Bench::Nt3,
        workers,
        scaling: FuncScaling::Weak { epochs_per_worker },
        batch: 20,
        base_lr: 0.02,
        data: BenchDataKind::tiny(Bench::Nt3),
        seed: 42,
        record_timeline: false,
        data_mode: DataMode::FullReplicated,
        cache: None,
        data_service: None,
        comm_overlap: overlap,
    }
}

pub(crate) fn phase(out: &ParallelRunOutcome, name: &str) -> (f64, u64) {
    out.profile
        .records()
        .iter()
        .find(|r| r.name == name)
        .map(|r| (r.elapsed.as_secs_f64(), r.calls))
        .unwrap_or((0.0, 0))
}

/// Predicts the run's exposed communication from the measured totals: the
/// per-bucket allreduce cost calibrates the α–β comm term, bucket
/// readiness is spread evenly across the measured backward time, and the
/// per-step recurrence result is scaled back up by the step count.
fn predict_exposed(comm_busy_s: f64, backward_s: f64, buckets: u64, steps: u64) -> f64 {
    if buckets == 0 || steps == 0 {
        return 0.0;
    }
    let buckets_per_step = (buckets / steps).max(1) as usize;
    let per_bucket = comm_busy_s / buckets as f64;
    let backward_step = backward_s / steps as f64;
    let comm = vec![per_bucket; buckets_per_step];
    let ready: Vec<f64> = (0..buckets_per_step)
        .map(|i| backward_step * (i + 1) as f64 / buckets_per_step as f64)
        .collect();
    overlap_exposed_seconds(&comm, &ready) * steps as f64
}

/// Runs blocking and overlapped NT3 training at each worker count.
/// `quick` uses one epoch per worker at counts {1, 2, 4}; the full mode
/// runs four epochs per worker at counts {1, 2, 4, 8}.
pub fn measure_overlap_comparison(quick: bool) -> Vec<OverlapComparison> {
    let (worker_counts, epochs): (&[usize], usize) = if quick {
        (&[1, 2, 4], 1)
    } else {
        (&[1, 2, 4, 8], 4)
    };
    worker_counts
        .iter()
        .map(|&w| {
            let blocking = candle::run_parallel(&spec(w, epochs, None)).expect("blocking NT3 run");
            let overlapped = candle::run_parallel(&spec(w, epochs, Some(OVERLAP_THRESHOLD_BYTES)))
                .expect("overlapped NT3 run");
            let (blocking_train, _) = phase(&blocking, "training");
            let (overlapped_train, _) = phase(&overlapped, "training");
            let (hidden, buckets) = phase(&overlapped, "comm_overlap");
            let (exposed, steps) = phase(&overlapped, "comm_exposed");
            let (backward, _) = phase(&overlapped, "train_backward");
            OverlapComparison {
                workers: w,
                blocking_epoch_s: blocking_train / epochs as f64,
                overlapped_epoch_s: overlapped_train / epochs as f64,
                comm_hidden_s: hidden,
                comm_exposed_s: exposed,
                backward_s: backward,
                buckets,
                steps,
                predicted_exposed_s: predict_exposed(hidden + exposed, backward, buckets, steps),
            }
        })
        .collect()
}

/// A named sum-allreduce algorithm.
pub(crate) type Allreduce =
    fn(&mut collectives::Communicator, &mut [f32]) -> Result<(), collectives::CommError>;

/// Rank 0's mean seconds per call over `calls` back-to-back allreduces of
/// `elements` floats in one world of `workers`, after a tenth as many
/// warm-up calls and a barrier.
pub(crate) fn allreduce_call_seconds(
    workers: usize,
    elements: usize,
    calls: usize,
    algo: Allreduce,
) -> f64 {
    collectives::run_workers(workers, |comm| {
        let mut data = vec![comm.rank() as f32; elements];
        for _ in 0..calls / 10 {
            algo(comm, &mut data).expect("warm-up allreduce");
        }
        comm.barrier();
        let start = std::time::Instant::now();
        for _ in 0..calls {
            algo(comm, &mut data).expect("timed allreduce");
            // Keep the values finite without another pass.
            data[0] = 1.0;
        }
        start.elapsed().as_secs_f64() / calls as f64
    })[0]
}

/// Per-call latency of one sum-allreduce at a payload size and world
/// size: what [`collectives::Communicator::allreduce_sum`] costs, and what
/// each of the two algorithms it chooses between would.
#[derive(Debug, Clone)]
pub struct SyncCallLatency {
    /// World size.
    pub workers: usize,
    /// Payload bytes per rank.
    pub bytes: usize,
    /// `allreduce_sum`, microseconds per call.
    pub auto_us: f64,
    /// `ring_allreduce`, microseconds per call.
    pub ring_us: f64,
    /// `exchange_allreduce`, microseconds per call.
    pub exchange_us: f64,
}

/// Measures back-to-back allreduce calls (no compute between them, so no
/// rank skew: wire latency and copy rate only) at payloads 4 KiB … 4 MiB
/// and worlds {2, 4}. Rank 0's mean over the timed calls, best of three
/// rounds of a 64 MiB budget. These are the numbers the crossover between
/// the two algorithms and the spin budget of the wire are set from
/// (DESIGN §5k); [`table_overlap`] renders them. `quick` times three
/// payloads in one round of a 1 MiB budget (at least 20 calls each), so
/// the unit tests that render it stay short.
pub fn measure_sync_call_latency(quick: bool) -> Vec<SyncCallLatency> {
    use collectives::{exchange_allreduce, ring_allreduce};
    let kib: &[usize] = if quick {
        &[4, 64, 1024]
    } else {
        &[4, 16, 48, 64, 128, 256, 512, 1024, 4096]
    };
    let per_call_us = |workers: usize, bytes: usize, algo: Allreduce| -> f64 {
        let (budget, rounds) = if quick { (1 << 20, 1) } else { (64 << 20, 3) };
        let calls = (budget / bytes).clamp(20, 2000);
        (0..rounds)
            .map(|_| allreduce_call_seconds(workers, bytes / 4, calls, algo) * 1e6)
            .fold(f64::INFINITY, f64::min)
    };
    let mut rows = Vec::new();
    for workers in [2usize, 4] {
        for &k in kib {
            let bytes = k * 1024;
            rows.push(SyncCallLatency {
                workers,
                bytes,
                auto_us: per_call_us(workers, bytes, |c, d| c.allreduce_sum(d)),
                ring_us: per_call_us(workers, bytes, ring_allreduce),
                exchange_us: per_call_us(workers, bytes, exchange_allreduce),
            });
        }
    }
    rows
}

/// The comm/compute-overlap experiment: blocking post-backward allreduce
/// vs the async bucketed engine on real NT3 training, followed by the
/// per-call allreduce latency sweep ([`measure_sync_call_latency`]) that
/// sets `collectives`' exchange crossover and spin budget.
///
/// In full mode on a release build it asserts (a) the calibrated α–β
/// overlap model predicts the measured exposed time within
/// [`OverlapComparison::error_band_s`], and (b) that the overlapped engine
/// strictly improves seconds/epoch at four or more workers — where every
/// rank has a hardware thread of its own ([`crate::gate::ranks_fit_host`]):
/// the engine folds a bucket while the peers compute, which they only do
/// if they are running. Worker counts at which overlap did not win are
/// listed under the table either way. Debug timings are too distorted to
/// gate on, and quick mode's single epoch is too noisy.
pub fn table_overlap(quick: bool) -> Experiment {
    let rows = measure_overlap_comparison(quick);
    if crate::gate::timed_asserts_enabled(quick) {
        for r in &rows {
            let err = (r.predicted_exposed_s - r.comm_exposed_s).abs();
            assert!(
                err <= r.error_band_s(),
                "overlap model missed at {} workers: predicted {:.4}s exposed, \
                 measured {:.4}s (band {:.4}s)",
                r.workers,
                r.predicted_exposed_s,
                r.comm_exposed_s,
                r.error_band_s()
            );
            if crate::gate::ranks_fit_host(r.workers) && r.workers >= 4 {
                assert!(
                    r.overlapped_epoch_s < r.blocking_epoch_s,
                    "overlap failed to beat blocking sync at {} workers: \
                     {:.4}s/epoch vs {:.4}s/epoch",
                    r.workers,
                    r.overlapped_epoch_s,
                    r.blocking_epoch_s
                );
            }
        }
    }
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.workers.to_string(),
                format!("{:.3}s", r.blocking_epoch_s),
                format!("{:.3}s", r.overlapped_epoch_s),
                format!("{:.2}x", r.speedup()),
                format!("{:.2}ms", r.comm_hidden_s * 1e3),
                format!("{:.2}ms", r.comm_exposed_s * 1e3),
                format!("{:.0}%", r.exposed_fraction() * 100.0),
                format!("{:.0}%", r.predicted_exposed_fraction() * 100.0),
            ]
        })
        .collect();
    let mut text = String::from(
        "Blocking post-backward allreduce vs bucketed overlap on real NT3\n\
         training (each bucket posted to the peers as backward completes it\n\
         and folded on the rank's own thread once they have posted theirs;\n\
         identical bucket boundaries keep weights bit-identical). Hidden =\n\
         posting and folding during backward, exposed = what finish_step\n\
         still had to do; the model column is the calibrated alpha-beta\n\
         overlap recurrence:\n",
    );
    text.push_str(&format_table(
        &[
            "workers",
            "blocking s/ep",
            "overlap s/ep",
            "speedup",
            "hidden",
            "exposed",
            "exposed frac",
            "model frac",
        ],
        &cells,
    ));
    let host = std::thread::available_parallelism().map_or(1, |p| p.get());
    for r in rows.iter().filter(|r| r.workers > 1 && r.speedup() <= 1.0) {
        text.push_str(&format!(
            "overlap did not beat blocking at {} workers ({:.2}x) on {host} hardware threads\n",
            r.workers,
            r.speedup()
        ));
    }
    text.push_str(
        "\nPer-call sum-allreduce latency, back-to-back calls with no compute\n\
         between them (rank 0's mean), in us per call:\n",
    );
    let sweep: Vec<Vec<String>> = measure_sync_call_latency(quick)
        .iter()
        .map(|r| {
            vec![
                r.workers.to_string(),
                format!("{} KiB", r.bytes / 1024),
                format!("{:.1}", r.auto_us),
                format!("{:.1}", r.ring_us),
                format!("{:.1}", r.exchange_us),
            ]
        })
        .collect();
    text.push_str(&format_table(
        &[
            "workers",
            "payload",
            "allreduce_sum",
            "ring",
            "one exchange",
        ],
        &sweep,
    ));
    Experiment {
        id: "table_overlap",
        title: "Comm/compute overlap: blocking vs async bucketed allreduce",
        text,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_every_worker_count() {
        let e = table_overlap(true);
        assert_eq!(e.id, "table_overlap");
        for needle in ["workers", "exposed frac", "model frac"] {
            assert!(e.text.contains(needle), "missing column {needle}");
        }
        let (_, sweep) = e
            .text
            .split_once("Per-call sum-allreduce latency")
            .expect("sync-call sweep rendered under the epoch table");
        for needle in ["payload", "allreduce_sum", "ring", "one exchange"] {
            assert!(sweep.contains(needle), "missing sweep column {needle}");
        }
        let rows: Vec<(String, String)> = sweep
            .lines()
            .filter_map(|line| {
                let mut cells = line.split_whitespace();
                let (workers, kib, unit) = (cells.next()?, cells.next()?, cells.next()?);
                (unit == "KiB").then(|| (workers.to_string(), kib.to_string()))
            })
            .collect();
        let expected: Vec<(String, String)> = [2, 4]
            .iter()
            .flat_map(|w| [4, 64, 1024].map(|k| (w.to_string(), k.to_string())))
            .collect();
        assert_eq!(
            rows, expected,
            "one sweep row per (world, quick payload):\n{sweep}"
        );
    }

    #[test]
    fn measurements_are_coherent() {
        let rows = measure_overlap_comparison(true);
        assert_eq!(rows.len(), 3);
        assert_eq!(
            rows.iter().map(|r| r.workers).collect::<Vec<_>>(),
            vec![1, 2, 4]
        );
        for r in &rows {
            assert!(r.blocking_epoch_s > 0.0 && r.overlapped_epoch_s > 0.0);
            assert!(r.steps > 0, "overlap engine must report steps");
            assert!(
                r.buckets >= r.steps,
                "every step ships at least one bucket ({} buckets, {} steps)",
                r.buckets,
                r.steps
            );
            assert!((0.0..=1.0).contains(&r.exposed_fraction()));
            assert!((0.0..=1.0).contains(&r.predicted_exposed_fraction()));
            assert!(r.error_band_s() > 0.0);
        }
        // The tiny NT3 model at a 2 KB threshold must actually split into
        // multiple buckets per step, or the engine is not pipelining.
        assert!(rows[0].buckets > rows[0].steps);
    }

    #[test]
    fn prediction_degenerates_sensibly() {
        assert_eq!(predict_exposed(1.0, 1.0, 0, 0), 0.0);
        // Comm far cheaper than backward and fully bucketed: almost all
        // hidden (only the last bucket's tail can show).
        let hidden = predict_exposed(0.01, 10.0, 100, 10);
        assert!(hidden < 0.005, "cheap comm should hide: {hidden}");
        // Comm far more expensive than backward: nearly all exposed.
        let exposed = predict_exposed(10.0, 0.01, 10, 10);
        assert!(exposed > 9.0, "expensive comm must show: {exposed}");
    }
}
