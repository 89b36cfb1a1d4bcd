//! Inference serving throughput: batch-1 vs dynamic micro-batching.
//!
//! The training-side chapters of the paper show that the pipeline around
//! the math — not the math itself — sets end-to-end performance. This
//! driver demonstrates the same effect on the inference side: a trained
//! NT3-like classifier is served through `serve`'s engine once with
//! micro-batching disabled (`max_batch = 1`, every request pays a full
//! forward pass and queue pull of its own) and once per dynamic batch
//! limit, under an identical deterministic closed-loop workload. Dynamic
//! batching amortizes the pull and the per-forward overhead across the
//! rows that queued up while the workers were busy and must deliver
//! strictly higher throughput; bit-exact row-independent matmul
//! means every configuration also returns bit-identical predictions,
//! which the shared output hash verifies.

use crate::report::{format_table, Experiment};
use dlframe::{Activation, Dataset, Dense, FitConfig, Loss, NoSync, Optimizer, Sequential};
use serve::{run_closed_loop, ClosedLoopConfig, LoadReport, ServeConfig, ServeEngine};
use std::sync::Arc;
use tensor::Tensor;
use xrng::RandomSource;

/// One serving configuration's measured outcome.
#[derive(Debug, Clone)]
pub struct ServingRow {
    /// Micro-batch limit (1 = batching disabled).
    pub max_batch: usize,
    /// Completed requests per second.
    pub throughput_rps: f64,
    /// Mean rows per dispatched batch.
    pub mean_batch: f64,
    /// End-to-end latency p50, milliseconds.
    pub p50_ms: f64,
    /// End-to-end latency p99, milliseconds.
    pub p99_ms: f64,
    /// Time queued before a worker pulled the request, p50, milliseconds:
    /// the share of the latency that is waiting for a busy worker.
    pub enqueue_wait_p50_ms: f64,
    /// Order-independent hash of all served predictions.
    pub output_hash: u64,
}

const FEATURES: usize = 48;
const CLASSES: usize = 4;

/// Trains the small classifier every serving run shares: Gaussian class
/// blobs, enough to give the forward pass realistic dense layers.
fn trained_model(seed: u64) -> Arc<Sequential> {
    let mut rng = xrng::seeded(seed);
    let samples = 256;
    let mut x = Vec::with_capacity(samples * FEATURES);
    let mut y = vec![0.0f32; samples * CLASSES];
    let centers: Vec<Vec<f32>> = (0..CLASSES)
        .map(|_| (0..FEATURES).map(|_| rng.next_f32() * 4.0 - 2.0).collect())
        .collect();
    for s in 0..samples {
        let class = s % CLASSES;
        for &center in &centers[class] {
            x.push(center + (rng.next_f32() - 0.5));
        }
        y[s * CLASSES + class] = 1.0;
    }
    let data = Dataset::new(
        Tensor::from_vec([samples, FEATURES], x).expect("x shape"),
        Tensor::from_vec([samples, CLASSES], y).expect("y shape"),
    );
    let mut model = Sequential::new(seed);
    model
        .add(Box::new(Dense::new(
            FEATURES,
            64,
            Activation::Relu,
            &mut rng,
        )))
        .add(Box::new(Dense::new(64, 64, Activation::Relu, &mut rng)))
        .add(Box::new(Dense::new(
            64,
            CLASSES,
            Activation::Linear,
            &mut rng,
        )))
        .compile(Loss::SoftmaxCrossEntropy, Optimizer::sgd(0.05));
    model
        .fit(
            &data,
            &FitConfig {
                epochs: 3,
                batch_size: 32,
                ..Default::default()
            },
            &mut NoSync,
        )
        .expect("training the serving model");
    Arc::new(model)
}

/// Checks that a closed-loop run answered every request it issued: a
/// failed or missing request is an `Err` naming the run's `max_batch`,
/// not a row with a smaller count.
fn check_complete(
    max_batch: usize,
    load: &ClosedLoopConfig,
    run: &LoadReport,
) -> Result<(), String> {
    let issued = (load.clients * load.requests_per_client) as u64;
    if run.errors > 0 || run.completed < issued {
        return Err(format!(
            "max_batch={max_batch}: {} of {issued} requests completed, {} failed",
            run.completed, run.errors
        ));
    }
    Ok(())
}

/// Serves the same closed-loop workload once per `max_batch` limit and
/// returns one row per configuration, or the first run that did not
/// answer every request.
pub fn measure_serving_sweep(quick: bool, seed: u64) -> Result<Vec<ServingRow>, String> {
    let model = trained_model(xrng::derive_seed(seed, 0));
    // Keep more clients outstanding than the largest batch limit: a
    // closed loop can only ever queue `clients` requests, so a larger
    // batch limit could never fill.
    let load = ClosedLoopConfig {
        clients: 32,
        requests_per_client: if quick { 40 } else { 150 },
        features: FEATURES,
        seed: xrng::derive_seed(seed, 1),
    };
    [1usize, 8, 16]
        .iter()
        .map(|&max_batch| {
            let engine = ServeEngine::start(
                Arc::clone(&model),
                ServeConfig {
                    max_batch,
                    queue_capacity: 4096,
                    workers: 2,
                    ..Default::default()
                },
            );
            let run = run_closed_loop(&engine.handle(), &load);
            let report = engine.shutdown();
            check_complete(max_batch, &load, &run)?;
            Ok(ServingRow {
                max_batch,
                throughput_rps: run.throughput_rps,
                mean_batch: report.mean_batch,
                p50_ms: report.latency.p50_s * 1e3,
                p99_ms: report.latency.p99_s * 1e3,
                enqueue_wait_p50_ms: report.enqueue_wait.p50_s * 1e3,
                output_hash: run.output_hash,
            })
        })
        .collect()
}

/// The serving experiment: a batch-limit sweep under one workload, with
/// the dynamic-batching throughput gain asserted.
///
/// # Panics
/// Panics if a run fails or drops a request, if (after retries, to ride
/// out scheduler noise) dynamic batching fails to beat batch-1
/// throughput, or if any configuration serves different prediction bits.
pub fn table_serve(quick: bool) -> Experiment {
    let sweep =
        |seed| measure_serving_sweep(quick, seed).unwrap_or_else(|e| panic!("table_serve: {e}"));
    let mut rows = sweep(2024);
    for attempt in 1.. {
        let batch1 = rows[0].throughput_rps;
        let dynamic = rows
            .iter()
            .filter(|r| r.max_batch >= 8)
            .map(|r| r.throughput_rps)
            .fold(0.0f64, f64::max);
        if dynamic > batch1 {
            break;
        }
        assert!(
            attempt < 3,
            "dynamic batching ({dynamic:.0} req/s) failed to beat batch-1 \
             ({batch1:.0} req/s) in {attempt} attempts"
        );
        rows = sweep(2024 + attempt);
    }
    for r in &rows {
        assert_eq!(
            r.output_hash, rows[0].output_hash,
            "max_batch={} served different prediction bits",
            r.max_batch
        );
    }

    let batch1 = rows[0].throughput_rps;
    let table = format_table(
        &[
            "max_batch",
            "req/s",
            "speedup",
            "mean rows/batch",
            "p50 ms",
            "p99 ms",
            "enqueue wait p50 ms",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.max_batch.to_string(),
                    format!("{:.0}", r.throughput_rps),
                    format!("{:.2}x", r.throughput_rps / batch1.max(1e-9)),
                    format!("{:.2}", r.mean_batch),
                    format!("{:.3}", r.p50_ms),
                    format!("{:.3}", r.p99_ms),
                    format!("{:.3}", r.enqueue_wait_p50_ms),
                ]
            })
            .collect::<Vec<_>>(),
    );
    let text = format!(
        "Closed-loop serving of a trained {FEATURES}-feature classifier \
         (32 clients, 2 workers):\n{table}\
         identical output hash across all configurations: \
         predictions are bit-identical regardless of batch composition\n"
    );
    Experiment {
        id: "table_serve",
        title: "Inference serving: dynamic micro-batching vs batch-1 dispatch",
        text,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dynamic_batching_beats_batch1_and_preserves_bits() {
        let e = table_serve(true);
        assert_eq!(e.id, "table_serve");
        assert!(e.text.contains("max_batch"));
        assert!(e.text.contains("identical output hash"));
    }

    #[test]
    fn sweep_coalesces_only_when_allowed() {
        let rows = measure_serving_sweep(true, 7).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].max_batch, 1);
        assert!(
            (rows[0].mean_batch - 1.0).abs() < 1e-9,
            "batch-1 must not coalesce"
        );
        assert!(
            rows.iter().any(|r| r.mean_batch > 1.0),
            "dynamic limits never coalesced: {rows:?}"
        );
    }

    #[test]
    fn incomplete_or_failed_run_is_an_error_naming_max_batch() {
        let load = ClosedLoopConfig {
            clients: 4,
            requests_per_client: 10,
            features: FEATURES,
            seed: 1,
        };
        let run = |completed: u64, errors: u64| LoadReport {
            submitted: completed + errors,
            completed,
            shed: 0,
            errors,
            elapsed_s: 1.0,
            throughput_rps: completed as f64,
            output_hash: 0,
        };
        assert_eq!(check_complete(8, &load, &run(40, 0)), Ok(()));
        let failed = check_complete(8, &load, &run(39, 1)).unwrap_err();
        assert!(failed.contains("max_batch=8"), "{failed}");
        assert!(
            failed.contains("39 of 40") && failed.contains("1 failed"),
            "{failed}"
        );
        let short = check_complete(16, &load, &run(30, 0)).unwrap_err();
        assert!(
            short.contains("max_batch=16") && short.contains("30 of 40"),
            "{short}"
        );
    }
}
