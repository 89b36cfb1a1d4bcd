//! Figures 6–9: strong-scaling performance, power, and accuracy analysis.

use crate::functional::accuracy_sweep;
use crate::report::{format_table, secs, Experiment};
use crate::sweeps::{summit_strong_run, SUMMIT_GPU_SWEEP};
use cluster::calib::Bench;

/// Renders the (a) performance panel shared by Figures 6/8/9: time in
/// training ("TensorFlow"), data loading, and total runtime for two batch
/// sizes.
fn strong_perf_panel(bench: Bench, batch_a: usize, batch_b: usize) -> String {
    let mut rows = Vec::new();
    for &gpus in &SUMMIT_GPU_SWEEP {
        let a = summit_strong_run(bench, gpus, batch_a);
        let b = summit_strong_run(bench, gpus, batch_b);
        if let Some(a) = a {
            rows.push(vec![
                gpus.to_string(),
                secs(a.train_s),
                secs(a.data_load_s),
                secs(a.total_s),
                b.map_or("-".into(), |b| secs(b.total_s)),
                if a.data_load_s > a.train_s {
                    "load-bound".into()
                } else {
                    "compute-bound".into()
                },
            ]);
        }
    }
    format_table(
        &[
            "GPUs",
            &format!("TensorFlow B={batch_a}"),
            "Data Loading",
            &format!("Total B={batch_a}"),
            &format!("Total B={batch_b}"),
            "regime",
        ],
        &rows,
    )
}

/// Figure 6: Horovod NT3 on Summit — (a) runtime components for batch 20
/// vs 40; (b) training accuracy vs GPUs (real training, scaled budget).
pub fn fig6(quick: bool) -> Experiment {
    let mut text = String::from("(a) Performance (modelled, Summit strong scaling):\n");
    text.push_str(&strong_perf_panel(Bench::Nt3, 20, 40));

    text.push_str("\n(b) Training accuracy vs workers (real training; scaled epoch budget):\n");
    let budget = if quick { 16 } else { 32 };
    let workers: &[usize] = if quick {
        &[1, 2, 4, 8, 16]
    } else {
        &[1, 2, 4, 8, 16, 32]
    };
    let mut rows = Vec::new();
    for batch in [20usize, 40] {
        for p in accuracy_sweep(Bench::Nt3, budget, workers, batch, 6) {
            rows.push(vec![
                batch.to_string(),
                p.workers.to_string(),
                p.epochs_per_worker.to_string(),
                p.train_accuracy.map_or("-".into(), |a| format!("{a:.3}")),
                format!("{:.3}", p.test_accuracy),
            ]);
        }
    }
    text.push_str(&format_table(
        &["batch", "workers", "epochs/worker", "train acc", "test acc"],
        &rows,
    ));
    Experiment {
        id: "fig6",
        title: "Horovod NT3 on Summit (performance and accuracy)",
        text,
    }
}

/// Figure 7: (a) GPU power over time on 384 GPUs; (b) the Horovod timeline
/// with broadcast and allreduce activity.
pub fn fig7() -> Experiment {
    let report = summit_strong_run(Bench::Nt3, 384, 20).expect("384-GPU NT3 run is feasible");
    let mut text = String::from("(a) GPU power over time (nvidia-smi-style 1 Hz samples):\n");
    // Downsample the trace for the report: every 20th second.
    let rows: Vec<Vec<String>> = report
        .power
        .samples
        .iter()
        .step_by(20)
        .map(|(t, w)| vec![format!("{t:.0}s"), format!("{w:.0}W")])
        .collect();
    text.push_str(&format_table(&["time", "GPU power"], &rows));
    text.push_str("\n(b) Horovod timeline (Chrome-trace events):\n");
    let events = report.timeline.events();
    let rows: Vec<Vec<String>> = events
        .iter()
        .take(12)
        .map(|e| {
            vec![
                e.name.clone(),
                format!("{:.2}s", e.start_us as f64 / 1e6),
                format!("{:.2}s", e.dur_us as f64 / 1e6),
            ]
        })
        .collect();
    text.push_str(&format_table(&["activity", "start", "duration"], &rows));
    text.push_str(&format!(
        "\nbroadcast span: {:.2}s (paper: 43.72s on 384 GPUs)\n",
        report.broadcast_s
    ));
    Experiment {
        id: "fig7",
        title: "NT3 on 384 GPUs: power behaviour and Horovod timeline",
        text,
    }
}

/// Figure 8: Horovod P1B1 on Summit — (a) runtime for batch 100 vs 110;
/// (b) training loss (autoencoder) vs workers.
pub fn fig8(quick: bool) -> Experiment {
    let mut text = String::from("(a) Performance (modelled, Summit strong scaling):\n");
    text.push_str(&strong_perf_panel(Bench::P1b1, 100, 110));
    text.push_str("\n(b) Training loss vs workers (real training; scaled budget):\n");
    let budget = if quick { 8 } else { 16 };
    let workers: &[usize] = if quick { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    let rows: Vec<Vec<String>> = accuracy_sweep(Bench::P1b1, budget, workers, 30, 16)
        .into_iter()
        .map(|p| {
            vec![
                p.workers.to_string(),
                p.epochs_per_worker.to_string(),
                format!("{:.4}", p.train_loss),
                format!("{:.4}", p.test_loss),
            ]
        })
        .collect();
    text.push_str(&format_table(
        &["workers", "epochs/worker", "train loss", "test loss"],
        &rows,
    ));
    Experiment {
        id: "fig8",
        title: "Horovod P1B1 on Summit (performance and loss)",
        text,
    }
}

/// Figure 9: Horovod P1B2 on Summit — (a) runtime for batch 60 vs 100;
/// (b) training accuracy vs workers (drops when epochs/worker < 16).
pub fn fig9(quick: bool) -> Experiment {
    let mut text = String::from("(a) Performance (modelled, Summit strong scaling):\n");
    text.push_str(&strong_perf_panel(Bench::P1b2, 60, 100));
    text.push_str("\n(b) Training accuracy vs workers (real training; scaled budget):\n");
    let budget = if quick { 32 } else { 96 };
    let workers: &[usize] = if quick {
        &[1, 2, 8, 32]
    } else {
        &[1, 2, 4, 8, 16, 32, 96]
    };
    let rows: Vec<Vec<String>> = accuracy_sweep(Bench::P1b2, budget, workers, 20, 26)
        .into_iter()
        .map(|p| {
            vec![
                p.workers.to_string(),
                p.epochs_per_worker.to_string(),
                p.train_accuracy.map_or("-".into(), |a| format!("{a:.3}")),
                format!("{:.3}", p.test_accuracy),
            ]
        })
        .collect();
    text.push_str(&format_table(
        &["workers", "epochs/worker", "train acc", "test acc"],
        &rows,
    ));
    Experiment {
        id: "fig9",
        title: "Horovod P1B2 on Summit (performance and accuracy)",
        text,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_quick_renders_both_panels() {
        let e = fig6(true);
        assert!(e.text.contains("(a) Performance"));
        assert!(e.text.contains("(b) Training accuracy"));
        assert!(
            e.text.contains("load-bound"),
            "48+ GPUs should be load-bound"
        );
        assert!(
            e.text.contains("compute-bound"),
            "small counts compute-bound"
        );
    }

    #[test]
    fn fig7_power_trace_shows_low_then_high_power() {
        let e = fig7();
        assert!(e.text.contains("45W"), "data-loading power level visible");
        assert!(e.text.contains("mpi_broadcast"));
        assert!(e.text.contains("nccl_allreduce"));
    }

    #[test]
    fn fig8_has_loss_panel() {
        let e = fig8(true);
        assert!(e.text.contains("train loss"));
    }

    #[test]
    fn fig9_has_accuracy_panel() {
        let e = fig9(true);
        assert!(e.text.contains("train acc"));
    }
}
