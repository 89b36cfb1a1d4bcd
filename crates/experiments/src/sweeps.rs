//! Shared model-plane sweep helpers.

use candle::{BenchId, HyperParams};
use cluster::run::{simulate, RunError};
use cluster::{sweep_reports, LoadMethod, Machine, RunConfig, RunReport, ScalingMode};

/// The paper's Summit GPU counts for strong scaling (Figs 6/8/9/11/14/16).
pub const SUMMIT_GPU_SWEEP: [usize; 8] = [1, 6, 12, 24, 48, 96, 192, 384];

/// The paper's Theta node counts (Figs 13/15/17; up to 384 nodes).
pub const THETA_NODE_SWEEP: [usize; 6] = [12, 24, 48, 96, 192, 384];

/// The paper's weak-scaling GPU counts (Figs 18/20/21; up to 3,072).
pub const WEAK_GPU_SWEEP: [usize; 7] = [48, 96, 192, 384, 768, 1536, 3072];

/// Simulates `bench` strong-scaled on `workers` Summit GPUs at `batch`,
/// loading with `pandas.read_csv` defaults. `None` is a point the paper's
/// configuration cannot run: the batch does not fit device memory, or the
/// epoch budget does not divide over that many workers.
///
/// # Panics
/// Panics on any other simulator error (a zero batch or worker count),
/// naming the run.
pub(crate) fn summit_strong_run(bench: BenchId, workers: usize, batch: usize) -> Option<RunReport> {
    let config = RunConfig {
        machine: Machine::Summit,
        workers,
        batch_size: batch,
        scaling: ScalingMode::Strong,
        load_method: LoadMethod::PandasDefault,
    };
    match simulate(&HyperParams::of(bench).workload(), &config) {
        Ok(report) => Some(report),
        Err(RunError::OutOfMemory { .. } | RunError::TooManyWorkers { .. }) => None,
        Err(e) => panic!(
            "Summit strong run of {} at {workers} workers, batch {batch}: {e:?}",
            bench.name()
        ),
    }
}

/// Original vs optimized at one scale point.
#[derive(Debug, Clone)]
pub struct MethodComparisonRow {
    /// Worker count (GPUs or nodes).
    pub workers: usize,
    /// Run with `pandas.read_csv` defaults.
    pub original: RunReport,
    /// Run with the chunked `low_memory=False` loader.
    pub optimized: RunReport,
}

impl MethodComparisonRow {
    /// Total-runtime improvement percentage.
    pub fn improvement_pct(&self) -> f64 {
        self.optimized.runtime_improvement_pct(&self.original)
    }

    /// Energy-saving percentage.
    pub fn energy_saving_pct(&self) -> f64 {
        self.optimized.energy_saving_pct(&self.original)
    }
}

/// Simulates original-vs-optimized across a worker sweep on the shared
/// [`cluster::sweep_reports`] code path, skipping scale points the
/// configuration cannot run (e.g. strong scaling with more workers than
/// epochs).
pub fn method_comparison_sweep(
    bench: BenchId,
    machine: Machine,
    scaling: ScalingMode,
    workers: &[usize],
) -> Vec<MethodComparisonRow> {
    let hp = HyperParams::of(bench);
    let profile = hp.workload();
    let config = |method: LoadMethod| {
        move |w: usize| RunConfig {
            machine,
            workers: w,
            batch_size: hp.batch_size,
            scaling,
            load_method: method,
        }
    };
    let original = sweep_reports(&profile, workers, config(LoadMethod::PandasDefault));
    let optimized = sweep_reports(&profile, workers, config(LoadMethod::ChunkedLowMemoryFalse));
    // The load method never changes feasibility, so the two sweeps skip
    // identical points and zip cleanly.
    assert_eq!(original.len(), optimized.len());
    original
        .into_iter()
        .zip(optimized)
        .map(|((w, original), (w2, optimized))| {
            debug_assert_eq!(w, w2);
            MethodComparisonRow {
                workers: w,
                original,
                optimized,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::calib::Bench;

    #[test]
    fn strong_run_is_none_only_where_the_paper_cannot_run() {
        assert!(summit_strong_run(Bench::Nt3, 6, 20).is_some());
        // NT3 at batch >= 50 does not fit a 16 GB V100.
        assert!(summit_strong_run(Bench::Nt3, 6, 50).is_none());
        // P1B1 needs at least 4 epochs per worker.
        assert!(summit_strong_run(Bench::P1b1, 384, 100).is_none());
    }

    #[test]
    #[should_panic(expected = "InvalidConfig")]
    fn strong_run_panics_on_a_zero_batch() {
        summit_strong_run(Bench::Nt3, 6, 0);
    }

    #[test]
    fn sweep_produces_rows_and_positive_improvement() {
        let rows = method_comparison_sweep(
            Bench::Nt3,
            Machine::Summit,
            ScalingMode::Strong,
            &SUMMIT_GPU_SWEEP,
        );
        assert_eq!(rows.len(), 8);
        for r in &rows {
            assert!(r.improvement_pct() > 0.0, "at {} workers", r.workers);
            assert!(r.energy_saving_pct() > 0.0, "at {} workers", r.workers);
        }
        // Improvement grows as loading dominates (strong scaling).
        assert!(rows.last().unwrap().improvement_pct() > rows[0].improvement_pct());
    }

    #[test]
    fn sweep_skips_impossible_points() {
        // P1B3 has 1 epoch: strong scaling beyond 1 worker is impossible.
        let rows = method_comparison_sweep(
            Bench::P1b3,
            Machine::Summit,
            ScalingMode::Strong,
            &SUMMIT_GPU_SWEEP,
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].workers, 1);
    }

    #[test]
    fn weak_scaling_sweep_reaches_3072() {
        let rows = method_comparison_sweep(
            Bench::Nt3,
            Machine::Summit,
            ScalingMode::Weak {
                epochs_per_worker: 8,
            },
            &WEAK_GPU_SWEEP,
        );
        assert_eq!(rows.len(), 7);
        assert_eq!(rows.last().unwrap().workers, 3072);
    }
}
