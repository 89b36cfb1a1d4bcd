//! End-to-end serving demo: train a small classifier, serve it with
//! dynamic micro-batching under closed-loop load, print the
//! latency/throughput report, and dump a chrome://tracing timeline of
//! the batch dispatches to `out/serve_timeline.json`.
//!
//! ```text
//! cargo run --release --example serve_demo
//! ```

use dlframe::{Activation, Dataset, Dense, FitConfig, Loss, NoSync, Optimizer, Sequential};
use serve::{run_closed_loop, ClosedLoopConfig, ServeConfig, ServeEngine};
use std::sync::Arc;
use std::time::Duration;
use tensor::Tensor;
use xrng::RandomSource;

const FEATURES: usize = 32;
const CLASSES: usize = 3;

fn trained_model(seed: u64) -> Arc<Sequential> {
    let mut rng = xrng::seeded(seed);
    let samples = 192;
    let mut x = Vec::with_capacity(samples * FEATURES);
    let mut y = vec![0.0f32; samples * CLASSES];
    for s in 0..samples {
        let class = s % CLASSES;
        for f in 0..FEATURES {
            let center = (class as f32 - 1.0) * ((f % 5) as f32 - 2.0);
            x.push(center + rng.next_f32() - 0.5);
        }
        y[s * CLASSES + class] = 1.0;
    }
    let data = Dataset::new(
        Tensor::from_vec([samples, FEATURES], x).unwrap(),
        Tensor::from_vec([samples, CLASSES], y).unwrap(),
    );
    let mut model = Sequential::new(seed);
    model
        .add(Box::new(Dense::new(
            FEATURES,
            48,
            Activation::Relu,
            &mut rng,
        )))
        .add(Box::new(Dense::new(
            48,
            CLASSES,
            Activation::Linear,
            &mut rng,
        )))
        .compile(Loss::SoftmaxCrossEntropy, Optimizer::sgd(0.05));
    model
        .fit(
            &data,
            &FitConfig {
                epochs: 4,
                batch_size: 24,
                ..Default::default()
            },
            &mut NoSync,
        )
        .expect("training");
    Arc::new(model)
}

fn main() {
    let model = trained_model(99);
    let timeline = obs::Timeline::new();
    let engine = ServeEngine::with_timeline(
        Arc::clone(&model),
        ServeConfig {
            max_batch: 16,
            queue_capacity: 2048,
            workers: 2,
            slo: Some(Duration::from_millis(5)),
            ..Default::default()
        },
        timeline.clone(),
    );
    let handle = engine.handle();

    println!("== closed loop: 8 clients x 200 requests ==");
    let closed = run_closed_loop(
        &handle,
        &ClosedLoopConfig {
            clients: 8,
            requests_per_client: 200,
            features: FEATURES,
            seed: 1,
        },
    );
    println!(
        "completed {} | shed-retries {} | {:.0} req/s | output hash {:#018x}",
        closed.completed, closed.shed, closed.throughput_rps, closed.output_hash
    );

    let report = engine.shutdown();
    println!("\n== engine report ==\n{report}");

    std::fs::create_dir_all("out").expect("create out/");
    timeline
        .write_chrome_trace(std::path::Path::new("out/serve_timeline.json"))
        .expect("write timeline");
    println!("\nbatch timeline written to out/serve_timeline.json (open in chrome://tracing)");
}
