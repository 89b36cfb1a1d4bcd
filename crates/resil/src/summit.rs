//! Modelled recovery economics at Summit scale.
//!
//! The measured half of this crate ([`crate::run_resilient`]) proves the
//! mechanism is correct at laptop scale; this module prices it at the
//! paper's scale. A crash near the end of an un-checkpointed 1,500-GPU
//! CANDLE run re-bills every joule from `read_csv` onward, and the paper's
//! energy tables make that bill concrete. [`summit_recovery_sweep`] runs
//! `cluster`'s calibrated Summit simulation across GPU counts and asks
//! [`cluster::RunReport::failure_recovery`] for the two bills — crash +
//! restart-from-scratch versus crash + resume-from-checkpoint — in wall
//! time and per-device joules, which `experiments::table_resil` tabulates.

use candle::{BenchId, HyperParams};
use cluster::{run::simulate, LoadMethod, Machine, RecoveryCost, RunConfig, RunError, ScalingMode};

/// One GPU-count point of the sweep.
#[derive(Debug, Clone)]
pub struct SummitRecoveryRow {
    /// Summit GPUs.
    pub gpus: usize,
    /// Epochs each worker runs.
    pub epochs_per_worker: usize,
    /// Epoch the injected crash hits.
    pub fail_epoch: usize,
    /// Modelled costs of both recovery strategies.
    pub cost: RecoveryCost,
}

/// Sweeps the modelled crash-recovery costs for `bench` on Summit.
///
/// The crash is injected at `fail_fraction` of the per-worker epoch
/// budget (clamped to at least one completed epoch — a crash before any
/// work is free to restart and uninteresting). `checkpoint_every` is
/// clamped into the epoch budget so every row has at least one potential
/// restore point.
pub fn summit_recovery_sweep(
    bench: BenchId,
    gpus: &[usize],
    fail_fraction: f64,
    checkpoint_every: usize,
    checkpoint_write_s: f64,
) -> Result<Vec<SummitRecoveryRow>, RunError> {
    assert!(
        (0.0..=1.0).contains(&fail_fraction),
        "fail fraction must be in [0, 1]"
    );
    let hp = HyperParams::of(bench);
    let workload = hp.workload();
    let mut rows = Vec::with_capacity(gpus.len());
    for &g in gpus {
        let report = simulate(
            &workload,
            &RunConfig {
                machine: Machine::Summit,
                workers: g,
                batch_size: hp.batch_size,
                // The paper's weak-scaling setup: 8 epochs per worker.
                scaling: ScalingMode::Weak {
                    epochs_per_worker: 8,
                },
                load_method: LoadMethod::PandasDefault,
            },
        )?;
        let epochs = report.epochs_per_worker;
        let fail_epoch = ((epochs as f64 * fail_fraction).floor() as usize).clamp(1, epochs);
        let every = checkpoint_every.clamp(1, epochs);
        let cost = report.failure_recovery(fail_epoch, every, checkpoint_write_s);
        rows.push(SummitRecoveryRow {
            gpus: g,
            epochs_per_worker: epochs,
            fail_epoch,
            cost,
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::calib::Bench;

    #[test]
    fn resume_beats_restart_across_scales() {
        let rows = summit_recovery_sweep(Bench::Nt3, &[1, 6, 96, 1536], 0.75, 2, 5.0).unwrap();
        assert_eq!(rows.len(), 4);
        for row in &rows {
            // The whole point: resuming is strictly cheaper than paying the
            // run's full bill twice — in time AND joules.
            assert!(
                row.cost.saved_s() > 0.0,
                "resume not cheaper in time at {} GPUs",
                row.gpus
            );
            assert!(
                row.cost.saved_energy_j() > 0.0,
                "resume not cheaper in energy at {} GPUs",
                row.gpus
            );
            assert!(row.cost.redone_epochs < row.epochs_per_worker);
            assert!(row.fail_epoch >= 1 && row.fail_epoch <= row.epochs_per_worker);
        }
    }

    #[test]
    fn late_crash_saves_more_than_early_crash() {
        let late = summit_recovery_sweep(Bench::Nt3, &[96], 0.9, 1, 5.0).unwrap();
        let early = summit_recovery_sweep(Bench::Nt3, &[96], 0.2, 1, 5.0).unwrap();
        assert!(late[0].cost.saved_s() > early[0].cost.saved_s());
        assert!(late[0].cost.saved_energy_j() > early[0].cost.saved_energy_j());
    }

    #[test]
    fn checkpoint_interval_is_clamped() {
        let rows = summit_recovery_sweep(Bench::P1b1, &[6], 0.5, 1000, 5.0).unwrap();
        // Interval clamped into the 8-epoch budget: the restore point is
        // epoch 0 at worst, and the sweep still returns a row.
        assert_eq!(rows.len(), 1);
        assert!(rows[0].cost.redone_epochs <= rows[0].epochs_per_worker);
    }
}
