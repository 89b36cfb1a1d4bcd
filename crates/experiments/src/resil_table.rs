//! Recovery overhead and savings: measured bit-exact resume + modelled
//! Summit economics.
//!
//! Two halves, same question — what does a crash cost, and what does a
//! checkpoint buy back?
//!
//! * the **measured** half runs `resil::run_resilient` twice on a tiny
//!   NT3: once healthy, once with an injected worker crash. The resumed
//!   run must end with **bit-exactly** the same weights (the checkpoint
//!   carries every `xrng` stream position), and the table reports what
//!   the resilience cost in checkpoint writes, bytes, and re-done epochs;
//! * the **modelled** half prices the same crash at the paper's scale:
//!   `cluster`'s calibrated Summit simulation bills crash + restart
//!   against crash + resume across GPU counts, in wall time and
//!   per-device joules. Resuming must be strictly cheaper in both — the
//!   energy chapters of the paper are exactly why.

use crate::report::{format_table, secs, Experiment};
use cluster::calib::Bench;
use parx::scratch;
use resil::{run_resilient, summit_recovery_sweep, FaultEvent, FaultKind, FaultPlan, ResilSpec};

fn measured_spec(dir: std::path::PathBuf, epochs: usize, plan: FaultPlan) -> ResilSpec {
    ResilSpec {
        bench: Bench::Nt3,
        workers: 2,
        epochs,
        batch: 20,
        base_lr: 0.02,
        data: candle::BenchDataKind::tiny(Bench::Nt3),
        seed: 2025,
        checkpoint_every: 2,
        keep: 2,
        dir,
        plan,
        record_timeline: false,
    }
}

/// The recovery experiment: measured bit-exact resume plus the modelled
/// Summit restart-vs-resume bill.
///
/// # Panics
/// Panics if the resumed run is not bit-identical to the healthy run, or
/// if the modelled resume is not strictly cheaper than restart in both
/// wall time and energy at every scale.
pub fn table_resil(quick: bool) -> Experiment {
    let epochs = if quick { 4 } else { 8 };
    // Crash one epoch past the last checkpoint: one epoch of work is lost
    // and must be re-trained after the restore.
    let crash_epoch = 3;
    let dir = scratch("table_resil").expect("scratch dir");
    let healthy = measured_spec(dir.join("healthy"), epochs, FaultPlan::none());
    let faulted = measured_spec(
        dir.join("faulted"),
        epochs,
        FaultPlan::manual(vec![FaultEvent {
            epoch: crash_epoch,
            kind: FaultKind::WorkerCrash { rank: 1 },
        }]),
    );
    let reference = run_resilient(&healthy).expect("healthy run");
    let recovered = run_resilient(&faulted).expect("faulted run");
    assert_eq!(
        recovered.final_hash, reference.final_hash,
        "resumed run is not bit-identical to the uninterrupted run"
    );
    assert_eq!(recovered.recoveries.len(), 1);

    let measured = format_table(
        &[
            "run",
            "epochs run",
            "redone",
            "ckpt writes",
            "ckpt KiB",
            "final weight hash",
        ],
        &[
            vec![
                "healthy".into(),
                reference.epochs_run.to_string(),
                reference.redone_epochs.to_string(),
                reference.checkpoint_writes.to_string(),
                format!("{:.1}", reference.checkpoint_bytes as f64 / 1024.0),
                format!("{:016x}", reference.final_hash),
            ],
            vec![
                format!("crash@{crash_epoch}+resume"),
                recovered.epochs_run.to_string(),
                recovered.redone_epochs.to_string(),
                recovered.checkpoint_writes.to_string(),
                format!("{:.1}", recovered.checkpoint_bytes as f64 / 1024.0),
                format!("{:016x}", recovered.final_hash),
            ],
        ],
    );

    // Modelled at the paper's scale: NT3 weak scaling on Summit, crash at
    // 3/4 of the 8-epoch budget, checkpoints every 2 epochs.
    let gpus: &[usize] = if quick {
        &[1, 96, 1536]
    } else {
        &[1, 6, 24, 96, 384, 1536]
    };
    let rows = summit_recovery_sweep(Bench::Nt3, gpus, 0.75, 2, 5.0).expect("summit sweep");
    for row in &rows {
        assert!(
            row.cost.saved_s() > 0.0 && row.cost.saved_energy_j() > 0.0,
            "modelled resume must beat restart at {} GPUs",
            row.gpus
        );
    }
    let modelled = format_table(
        &[
            "GPUs",
            "fail@",
            "redone",
            "restart s",
            "resume s",
            "saved s",
            "saved kJ/device",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.gpus.to_string(),
                    format!("{}/{}", r.fail_epoch, r.epochs_per_worker),
                    r.cost.redone_epochs.to_string(),
                    secs(r.cost.restart_total_s),
                    secs(r.cost.resume_total_s),
                    secs(r.cost.saved_s()),
                    format!("{:.2}", r.cost.saved_energy_j() / 1e3),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let text = format!(
        "Measured (NT3-tiny, 2 workers, checkpoint every 2 epochs, worker crash \
         injected at epoch {crash_epoch}):\n{measured}\
         resumed run restored epoch {}, re-trained {} epoch(s), and finished \
         bit-identical to the uninterrupted run\n\n\
         Modelled (Summit, NT3 weak scaling, 8 epochs/worker, crash at epoch 6, \
         checkpoint every 2 epochs @ 5 s/write):\n{modelled}\
         resume-from-checkpoint is strictly cheaper than restart-from-scratch in \
         wall time and per-device energy at every scale\n",
        recovered.recoveries[0].restored_epoch, recovered.redone_epochs,
    );
    Experiment {
        id: "table_resil",
        title: "Failure recovery: bit-exact resume cost vs restart-from-scratch",
        text,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resume_is_bit_exact_and_cheaper_than_restart() {
        let e = table_resil(true);
        assert_eq!(e.id, "table_resil");
        assert!(e.text.contains("bit-identical"));
        assert!(e.text.contains("strictly cheaper"));
        assert!(e.text.contains("GPUs"));
    }
}
