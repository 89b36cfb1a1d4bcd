//! Quickstart: train the NT3 benchmark on four simulated Horovod workers.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! This exercises the whole functional plane: synthetic NT3-shaped data,
//! the 1-D conv classifier, rank-0 weight broadcast, per-batch ring
//! allreduce gradient averaging, and linear learning-rate scaling — then
//! evaluates on a held-out test set.

use candle::pipeline::FuncScaling;
use candle::{BenchDataKind, ParallelRunSpec};
use cluster::calib::Bench;

fn main() {
    let workers = 4;
    let spec = ParallelRunSpec {
        bench: Bench::Nt3,
        workers,
        // Strong scaling: a 16-epoch budget split across the workers.
        scaling: FuncScaling::Strong { total_epochs: 16 },
        batch: 20,
        base_lr: 0.01,
        data: BenchDataKind::tiny(Bench::Nt3),
        seed: 2024,
        record_timeline: true,
        data_mode: candle::pipeline::DataMode::FullReplicated,
        cache: None,
        data_service: None,
        comm_overlap: None,
    };
    println!("training NT3 on {workers} simulated workers (ring allreduce, lr x{workers})...");
    let out = candle::run_parallel(&spec).expect("training run");
    println!("  epochs per worker : {}", out.epochs_per_worker);
    println!("  final train loss  : {:.4}", out.train_loss);
    println!(
        "  final train acc   : {:.3}",
        out.train_accuracy.unwrap_or(f64::NAN)
    );
    println!("  test accuracy     : {:.3}", out.test_accuracy);
    println!("  test loss         : {:.4}", out.test_loss);
    println!(
        "  allreduce calls   : {} ({} elements averaged)",
        out.comm_stats.allreduce_calls, out.comm_stats.allreduce_elements
    );
    println!("  wall time         : {:.2?}", out.wall);
    if let Some(tl) = &out.timeline {
        let broadcast_us = tl.max_duration_us("mpi_broadcast");
        println!("  broadcast span    : {broadcast_us} us (Horovod timeline recorded)");
    }
    println!(
        "
phase profile (cProfile-style, rank 0):"
    );
    print!("{}", out.profile.report());
}
