//! Autoscaling fleet demo: replay a diurnal + burst trace against a
//! *live* fleet of serving engines (real forward passes, wall-clock
//! latencies), once at a fixed mean-sized fleet and once autoscaled,
//! then print the deterministic virtual-time comparison table
//! (`experiments::table_fleet`) that pins the SLO/energy contract.
//!
//! ```text
//! cargo run --release --example fleet_demo
//! ```

use dlframe::{Activation, Dense, Loss, Optimizer, Sequential};
use fleet::sim::ScalePolicy;
use fleet::{AutoscaleConfig, Burst, RealFleetConfig, RouterPolicy, TraceConfig};
use serve::ServeConfig;
use std::sync::Arc;

const FEATURES: usize = 256;

fn model(seed: u64) -> Arc<Sequential> {
    let mut rng = xrng::seeded(seed);
    let mut m = Sequential::new(seed);
    m.add(Box::new(Dense::new(
        FEATURES,
        512,
        Activation::Relu,
        &mut rng,
    )));
    m.add(Box::new(Dense::new(512, 256, Activation::Relu, &mut rng)));
    m.add(Box::new(Dense::new(256, 8, Activation::Linear, &mut rng)));
    m.compile(Loss::SoftmaxCrossEntropy, Optimizer::sgd(0.05));
    Arc::new(m)
}

fn real_config(scaling: ScalePolicy) -> RealFleetConfig {
    RealFleetConfig {
        engine: ServeConfig {
            max_batch: 16,
            queue_capacity: 512,
            workers: 1,
            ..Default::default()
        },
        router: RouterPolicy::PowerOfTwo,
        scaling,
        slo_p99_s: 0.05,
        shed_depth_frac: 0.5,
        control_interval_s: 0.1,
        stats_window_s: 1.0,
        machine: cluster::Machine::Summit,
        seed: 33,
        features: FEATURES,
    }
}

fn main() {
    // A 24 s diurnal trace with a 6x burst, replayed at 2x compression
    // (~12 s of wall clock per fleet).
    let trace = TraceConfig {
        seed: 19,
        duration_s: 24.0,
        base_rps: 1000.0,
        diurnal_amplitude: 0.25,
        diurnal_period_s: 24.0,
        bursts: vec![Burst {
            start_s: 8.0,
            duration_s: 6.0,
            extra_rps: 5000.0,
        }],
    };
    let speedup = 2.0;
    let autoscale = AutoscaleConfig {
        min_replicas: 1,
        max_replicas: 6,
        slo_p99_s: 0.05,
        scale_out_frac: 0.6,
        queue_high_per_replica: 32,
        scale_in_util: 0.5,
        scale_in_p99_frac: 0.3,
        idle_intervals: 4,
        cooldown_s: 0.3,
        step_out: 2,
        step_in: 1,
    };

    println!(
        "== live fleet replay: {:.0} rps base + {:.0} rps burst, {speedup}x compressed ==\n",
        trace.base_rps, trace.bursts[0].extra_rps
    );
    println!(
        "{:<12} {:>8} {:>9} {:>6} {:>9} {:>10} {:>10} {:>9} {:>8}",
        "fleet",
        "offered",
        "completed",
        "shed",
        "p99 ms",
        "worst p99",
        "replica-s",
        "energy J",
        "J/req"
    );
    for (label, scaling) in [
        ("fixed(2)", ScalePolicy::Fixed(2)),
        ("autoscaled", ScalePolicy::Auto(autoscale.clone())),
    ] {
        let report = fleet::run_serve_fleet(model(7), &real_config(scaling), &trace, speedup);
        println!(
            "{:<12} {:>8} {:>9} {:>6} {:>9.2} {:>10.2} {:>9.1} {:>9.0} {:>8.3}",
            label,
            report.offered,
            report.completed,
            report.shed,
            report.latency.p99_s * 1e3,
            report.worst_window_p99_s * 1e3,
            report.replica_seconds,
            report.energy_j,
            report.joules_per_request,
        );
        for d in &report.decisions {
            println!(
                "    t={:>5.2}s  {} -> {} replicas ({}, p99 {:.1} ms, queue {}, util {:.2}, {:+.0} W)",
                d.at_s,
                d.from,
                d.to,
                d.reason.token(),
                d.p99_ms,
                d.queued,
                d.utilization,
                d.marginal_watts
            );
        }
    }

    println!("\n== deterministic virtual-time comparison (experiments::table_fleet) ==\n");
    print!("{}", experiments::table_fleet(true));
}
