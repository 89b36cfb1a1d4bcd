//! Drivers for the paper's tables.

use crate::ingest_table::measure_ingest_comparison;
use crate::report::{format_table, pct, secs, Experiment};
use crate::sweeps::{method_comparison_sweep, summit_strong_run, SUMMIT_GPU_SWEEP, WEAK_GPU_SWEEP};
use candle::HyperParams;
use cluster::calib::{self, Bench, Split};
use cluster::{LoadMethod, Machine, RunReport, ScalingMode};
use dataio::ReadStrategy;

/// Table 1: epochs, batch size, data samples, and file sizes per benchmark.
pub fn table1() -> Experiment {
    let rows: Vec<Vec<String>> = Bench::ALL
        .iter()
        .map(|&b| {
            let hp = HyperParams::of(b);
            vec![
                b.name().to_string(),
                format!("{}MB", calib::file_size_mb(b, Split::Train)),
                format!("{}MB", calib::file_size_mb(b, Split::Test)),
                hp.epochs.to_string(),
                hp.batch_size.to_string(),
                hp.learning_rate.map_or("none".into(), |l| l.to_string()),
                optimizer_name(&hp),
                hp.train_samples.to_string(),
                hp.batch_steps_per_epoch().to_string(),
            ]
        })
        .collect();
    Experiment {
        id: "table1",
        title: "Benchmark configurations (epochs, batch size, data sizes)",
        text: format_table(
            &[
                "bench",
                "train",
                "test",
                "epochs",
                "batch",
                "lr",
                "optimizer",
                "samples",
                "steps/epoch",
            ],
            &rows,
        ),
    }
}

fn optimizer_name(hp: &HyperParams) -> String {
    use dlframe::OptimizerKind::*;
    match hp.optimizer {
        Sgd => "sgd".into(),
        Adam { .. } => "adam".into(),
        RmsProp { .. } => "rmsprop".into(),
    }
}

/// Average device power during the training phase of a simulated run.
fn training_power_w(report: &RunReport) -> f64 {
    report
        .phases
        .iter()
        .find(|p| p.name == "training")
        .map(|p| report.power.trace.value_at(p.start_s + p.duration_s * 0.5))
        .unwrap_or(0.0)
}

/// Table 2: time per epoch (s) and average GPU power (W) for Horovod NT3
/// at batch sizes 20 and 40.
pub fn table2() -> Experiment {
    let mut rows = Vec::new();
    for &gpus in &SUMMIT_GPU_SWEEP {
        let b20 = summit_strong_run(Bench::Nt3, gpus, 20);
        let b40 = summit_strong_run(Bench::Nt3, gpus, 40);
        if let (Some(b20), Some(b40)) = (b20, b40) {
            rows.push(vec![
                gpus.to_string(),
                secs(b20.time_per_epoch_s),
                format!("{:.0}", training_power_w(&b20)),
                secs(b40.time_per_epoch_s),
                format!("{:.0}", training_power_w(&b40)),
            ]);
        }
    }
    Experiment {
        id: "table2",
        title: "NT3 time per epoch (s) and average GPU power (W), batch 20 vs 40",
        text: format_table(
            &[
                "GPUs",
                "t/epoch B=20",
                "power B=20",
                "t/epoch B=40",
                "power B=40",
            ],
            &rows,
        ),
    }
}

fn loading_table(machine: Machine, id: &'static str, title: &'static str) -> Experiment {
    let mut rows = Vec::new();
    for &b in &Bench::ALL {
        for split in [Split::Train, Split::Test] {
            let label = match split {
                Split::Train => format!("{} train ({}MB)", b.name(), calib::file_size_mb(b, split)),
                Split::Test => format!("{} test ({}MB)", b.name(), calib::file_size_mb(b, split)),
            };
            let pandas = calib::load_base_seconds(machine, b, split, LoadMethod::PandasDefault);
            let chunked =
                calib::load_base_seconds(machine, b, split, LoadMethod::ChunkedLowMemoryFalse);
            let dask = calib::load_base_seconds(machine, b, split, LoadMethod::Dask);
            rows.push(vec![
                label,
                format!("{pandas:.2}"),
                format!("{chunked:.2}"),
                format!("{dask:.2}"),
                format!("{:.2}x", pandas / chunked),
            ]);
        }
    }
    Experiment {
        id,
        title,
        text: format_table(
            &[
                "file",
                "pandas (orig)",
                "chunked low_mem=F",
                "dask (modelled)",
                "speedup",
            ],
            &rows,
        ),
    }
}

/// Table 3: data-loading seconds by method on Summit (model inputs from
/// the paper), plus the real Rust CSV engine's strategies measured on the
/// paper's two file geometries by [`measure_ingest_comparison`]. `quick`
/// shrinks the files as it does there; a failed measurement panics with
/// its cause instead of rendering a shorter table.
pub fn table3(quick: bool) -> Experiment {
    let measured = measure_ingest_comparison(quick).unwrap_or_else(|e| panic!("table3: {e}"));
    let mut e = loading_table(
        Machine::Summit,
        "table3",
        "Data-loading time by method, Summit",
    );
    e.text
        .push_str("\nLocal Rust CSV engine validation (generated files):\n");
    // One row per geometry: `measure_ingest_comparison` times a
    // geometry's strategies back to back.
    let rows: Vec<Vec<String>> = measured
        .chunk_by(|a, b| a.geometry == b.geometry)
        .map(|group| {
            let seconds = |s: ReadStrategy| {
                group
                    .iter()
                    .find(|r| r.strategy == s)
                    .map(|r| r.seconds)
                    .expect("every strategy is measured at every geometry")
            };
            let mut cells = vec![group[0].geometry.clone()];
            for s in [
                ReadStrategy::PandasDefault,
                ReadStrategy::ChunkedLowMemory,
                ReadStrategy::DaskParallel,
                ReadStrategy::TurboParallel,
            ] {
                cells.push(format!("{:.3}s", seconds(s)));
            }
            cells.push(format!(
                "{:.2}x",
                seconds(ReadStrategy::PandasDefault)
                    / seconds(ReadStrategy::ChunkedLowMemory).max(1e-9)
            ));
            cells
        })
        .collect();
    e.text.push_str(&format_table(
        &[
            "file geometry",
            "pandas-style",
            "chunked",
            "dask-style",
            "turbo",
            "speedup",
        ],
        &rows,
    ));
    e
}

/// Table 4: data-loading seconds by method on Theta.
pub fn table4() -> Experiment {
    loading_table(
        Machine::Theta,
        "table4",
        "Data-loading time by method, Theta",
    )
}

/// Table 5: NT3 average GPU power (W) and energy (J) for the original vs
/// optimized loader under strong scaling on Summit.
pub fn table5() -> Experiment {
    let rows: Vec<Vec<String>> = method_comparison_sweep(
        Bench::Nt3,
        Machine::Summit,
        ScalingMode::Strong,
        &SUMMIT_GPU_SWEEP,
    )
    .iter()
    .map(|r| {
        let dp = (r.optimized.power.avg_power_w - r.original.power.avg_power_w)
            / r.original.power.avg_power_w
            * 100.0;
        vec![
            r.workers.to_string(),
            format!("{:.1}", r.original.power.avg_power_w),
            format!("{:.1}", r.optimized.power.avg_power_w),
            pct(dp),
            format!("{:.0}", r.original.power.energy_j),
            format!("{:.0}", r.optimized.power.energy_j),
            pct(r.energy_saving_pct()),
        ]
    })
    .collect();
    Experiment {
        id: "table5",
        title: "NT3 GPU power (W) and energy (J), original vs optimized (Summit)",
        text: format_table(
            &["GPUs", "P orig", "P opt", "ΔP", "E orig", "E opt", "saving"],
            &rows,
        ),
    }
}

/// Table 6: weak-scaling NT3 — training accuracy (real training, scaled
/// budget), time per epoch, and average GPU power, original vs optimized.
pub fn table6(quick: bool) -> Experiment {
    // Performance plane: modelled time/epoch and power across the weak
    // sweep.
    let rows_perf = method_comparison_sweep(
        Bench::Nt3,
        Machine::Summit,
        ScalingMode::Weak {
            epochs_per_worker: 8,
        },
        &WEAK_GPU_SWEEP,
    );
    // Functional plane: with 8 epochs per worker, training reaches accuracy
    // ~1 regardless of worker count (the paper's rationale for weak
    // scaling at 8 epochs/GPU).
    let workers = if quick {
        vec![1usize, 2, 4]
    } else {
        vec![1usize, 2, 4, 8, 16]
    };
    let acc_points: Vec<(usize, f64)> = workers
        .iter()
        .map(|&w| {
            let hp = HyperParams::of(Bench::Nt3);
            let spec = candle::ParallelRunSpec {
                bench: Bench::Nt3,
                workers: w,
                scaling: candle::pipeline::FuncScaling::Weak {
                    epochs_per_worker: 8,
                },
                batch: hp.batch_size,
                base_lr: 0.008,
                data: candle::BenchDataKind::tiny(Bench::Nt3),
                seed: 99,
                record_timeline: false,
                data_mode: candle::pipeline::DataMode::FullReplicated,
                cache: None,
                data_service: None,
                comm_overlap: None,
            };
            let out = candle::run_parallel(&spec).expect("weak run");
            (w, out.train_accuracy.unwrap_or(0.0))
        })
        .collect();

    let mut text = String::from("Functional accuracy at 8 epochs/worker (real training):\n");
    let acc_rows: Vec<Vec<String>> = acc_points
        .iter()
        .map(|(w, a)| vec![w.to_string(), format!("{a:.3}")])
        .collect();
    text.push_str(&format_table(&["workers", "train acc"], &acc_rows));
    text.push_str("\nModelled time/epoch and power (Summit weak scaling):\n");
    let perf_rows: Vec<Vec<String>> = rows_perf
        .iter()
        .map(|r| {
            vec![
                r.workers.to_string(),
                secs(r.original.time_per_epoch_s),
                format!("{:.1}", r.original.power.avg_power_w),
                format!("{:.1}", r.optimized.power.avg_power_w),
            ]
        })
        .collect();
    text.push_str(&format_table(
        &["GPUs", "t/epoch", "P orig (W)", "P opt (W)"],
        &perf_rows,
    ));
    Experiment {
        id: "table6",
        title: "NT3 weak scaling: accuracy, time per epoch, average GPU power",
        text,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_lists_all_benchmarks() {
        let t = table1();
        for name in ["NT3", "P1B1", "P1B2", "P1B3"] {
            assert!(t.text.contains(name), "missing {name}");
        }
        assert!(t.text.contains("9001"));
        assert!(t.text.contains("rmsprop"));
    }

    #[test]
    fn table2_epoch_time_grows_with_gpus() {
        let t = table2();
        let lines: Vec<&str> = t.text.lines().skip(2).collect();
        assert_eq!(lines.len(), 8);
        // First data row is 1 GPU (~10.3 s), last is 384 (~23 s).
        assert!(lines[0].trim_start().starts_with('1'));
        assert!(lines[7].trim_start().starts_with("384"));
    }

    #[test]
    fn table3_contains_paper_values_and_local_validation() {
        let t = table3(true);
        assert!(t.text.contains("81.72"));
        assert!(t.text.contains("14.30"));
        assert!(t.text.contains("wide NT3-like"));
        assert!(t.text.contains("narrow P1B3-like"));
    }

    #[test]
    fn table4_is_theta() {
        let t = table4();
        assert!(t.text.contains("52.91"));
        assert!(t.text.contains("13.84"));
    }

    #[test]
    fn table5_shows_power_rise_and_energy_saving() {
        let t = table5();
        assert!(t.text.contains('%'));
        // The 384-GPU row exists.
        assert!(t.text.lines().any(|l| l.trim_start().starts_with("384")));
    }

    #[test]
    fn table6_quick_has_both_planes() {
        let t = table6(true);
        assert!(t.text.contains("Functional accuracy"));
        assert!(t.text.contains("Modelled time/epoch"));
        assert!(t.text.lines().any(|l| l.trim_start().starts_with("3072")));
    }
}
