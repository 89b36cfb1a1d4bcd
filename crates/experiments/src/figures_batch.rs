//! Figure 10: P1B3 batch-size scaling strategies.

use crate::report::{format_table, secs, Experiment};
use candle::pipeline::FuncScaling;
use candle::{scaled_batch, BatchScaling, BenchDataKind, HyperParams, ParallelRunSpec};
use cluster::calib::Bench;
use cluster::run::{simulate, RunError};
use cluster::{LoadMethod, Machine, RunConfig, ScalingMode};

const STRATEGIES: [BatchScaling; 3] = [
    BatchScaling::Linear,
    BatchScaling::SquareRoot,
    BatchScaling::CubicRoot,
];

/// Figure 10: P1B3 under linear / square-root / cubic-root batch scaling —
/// (a) modelled runtime per strategy (with the paper's OOM failures at
/// linear 192/384 GPUs); (b) real-training accuracy per strategy.
pub fn fig10(quick: bool) -> Experiment {
    let hp = HyperParams::of(Bench::P1b3);
    let mut text = String::from("(a) Performance by batch-scaling strategy (modelled, Summit):\n");
    let mut rows = Vec::new();
    for &gpus in &[1usize, 6, 12, 24, 48, 96, 192, 384] {
        let mut cells = vec![gpus.to_string()];
        for strategy in STRATEGIES {
            let batch = scaled_batch(hp.batch_size, gpus, strategy);
            let result = simulate(
                &hp.workload(),
                &RunConfig {
                    machine: Machine::Summit,
                    workers: gpus,
                    batch_size: batch,
                    // P1B3 has 1 epoch: every GPU runs it (weak-style).
                    scaling: ScalingMode::Weak {
                        epochs_per_worker: 1,
                    },
                    load_method: LoadMethod::PandasDefault,
                },
            );
            cells.push(match result {
                Ok(r) => format!("{} (B={batch})", secs(r.total_s)),
                Err(RunError::OutOfMemory { .. }) => format!("OOM (B={batch})"),
                Err(e) => format!("err: {e}"),
            });
        }
        rows.push(cells);
    }
    text.push_str(&format_table(
        &["GPUs", "linear", "square root", "cubic root"],
        &rows,
    ));

    text.push_str("\n(b) Accuracy by strategy (real training, scaled dataset):\n");
    // P1B3 is regression; the paper reports R²-like accuracy. We report
    // 1 - MSE/Var as the comparable "growth prediction accuracy".
    let workers: &[usize] = if quick {
        &[1, 4, 8]
    } else {
        &[1, 4, 8, 16, 48]
    };
    let mut rows = Vec::new();
    for strategy in STRATEGIES {
        for &w in workers {
            let batch = scaled_batch(hp.batch_size, w, strategy);
            let spec = ParallelRunSpec {
                bench: Bench::P1b3,
                workers: w,
                scaling: FuncScaling::Weak {
                    epochs_per_worker: 1,
                },
                batch,
                base_lr: 1.0,
                data: BenchDataKind::tiny(Bench::P1b3),
                seed: 1010,
                record_timeline: false,
                data_mode: candle::pipeline::DataMode::FullReplicated,
                cache: None,
                data_service: None,
                comm_overlap: None,
            };
            let out = candle::run_parallel(&spec).unwrap_or_else(|e| {
                panic!(
                    "P1B3 {} run at {w} workers, batch {batch}: {e}",
                    strategy.label()
                )
            });
            // R²-style accuracy: 1 − MSE / Var(target).
            let accuracy = (1.0 - out.test_loss / out.test_target_variance.max(1e-9)).max(0.0);
            rows.push(vec![
                strategy.label().to_string(),
                w.to_string(),
                batch.to_string(),
                format!("{:.4}", out.test_loss),
                format!("{accuracy:.3}"),
            ]);
        }
    }
    text.push_str(&format_table(
        &["strategy", "workers", "batch", "test mse", "R2 accuracy"],
        &rows,
    ));
    text.push_str(
        "\npaper: linear fastest but fails (OOM) at 19,200/38,400; cubic root slowest but most accurate\n",
    );
    Experiment {
        id: "fig10",
        title: "P1B3 batch-size scaling strategies (performance and accuracy)",
        text,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig10_shows_oom_for_linear_at_192_and_384() {
        let e = fig10(true);
        assert!(e.text.contains("OOM (B=19200)"));
        assert!(e.text.contains("OOM (B=38400)"));
    }

    #[test]
    fn fig10_linear_is_fastest_where_it_fits() {
        let hp = HyperParams::of(Bench::P1b3);
        let run = |strategy: BatchScaling| {
            let batch = scaled_batch(hp.batch_size, 96, strategy);
            simulate(
                &hp.workload(),
                &RunConfig {
                    machine: Machine::Summit,
                    workers: 96,
                    batch_size: batch,
                    scaling: ScalingMode::Weak {
                        epochs_per_worker: 1,
                    },
                    load_method: LoadMethod::PandasDefault,
                },
            )
            .unwrap()
            .total_s
        };
        let linear = run(BatchScaling::Linear);
        let sqrt = run(BatchScaling::SquareRoot);
        let cbrt = run(BatchScaling::CubicRoot);
        assert!(linear < sqrt, "linear {linear:.0} vs sqrt {sqrt:.0}");
        assert!(sqrt < cbrt, "sqrt {sqrt:.0} vs cbrt {cbrt:.0}");
    }

    #[test]
    fn fig10_cubic_root_beats_linear_accuracy() {
        // Paper Fig 10b: cubic-root scaling gives the best accuracy.
        let run = |strategy: BatchScaling| {
            let batch = scaled_batch(100, 8, strategy);
            let spec = ParallelRunSpec {
                bench: Bench::P1b3,
                workers: 8,
                scaling: FuncScaling::Weak {
                    epochs_per_worker: 1,
                },
                batch,
                base_lr: 1.0,
                data: BenchDataKind::tiny(Bench::P1b3),
                seed: 1010,
                record_timeline: false,
                data_mode: candle::pipeline::DataMode::FullReplicated,
                cache: None,
                data_service: None,
                comm_overlap: None,
            };
            let out = candle::run_parallel(&spec).unwrap();
            1.0 - out.test_loss / out.test_target_variance
        };
        let linear = run(BatchScaling::Linear);
        let cubic = run(BatchScaling::CubicRoot);
        assert!(
            cubic > linear + 0.1,
            "cubic root R2 {cubic:.3} should beat linear {linear:.3}"
        );
        assert!(cubic > 0.4, "cubic root R2 {cubic:.3}");
    }

    #[test]
    fn fig10_mentions_both_panels() {
        let e = fig10(true);
        assert!(e.text.contains("(a) Performance"));
        assert!(e.text.contains("(b) Accuracy"));
    }
}
