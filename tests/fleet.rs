//! Acceptance tests for the autoscaling serving fleet.
//!
//! The contract under test: the virtual-time fleet simulator is a pure
//! function of its config — bit-identical scaling-decision logs and
//! request-outcome fingerprints at any worker thread count; the
//! autoscaler's hysteresis band prevents flapping; admission control
//! sheds load *before* admitted requests blow the SLO.

use fleet::sim::{run_fleet_sim, ScalePolicy, ServiceModel, SimFleetConfig};
use fleet::{AutoscaleConfig, Burst, RouterPolicy, TraceConfig};

fn trace() -> TraceConfig {
    TraceConfig {
        seed: 97,
        duration_s: 50.0,
        base_rps: 250.0,
        diurnal_amplitude: 0.2,
        diurnal_period_s: 50.0,
        bursts: vec![Burst {
            start_s: 12.0,
            duration_s: 10.0,
            extra_rps: 1600.0,
        }],
    }
}

fn autoscale() -> AutoscaleConfig {
    AutoscaleConfig {
        // The floor must hold the diurnal base on its own: a floor below
        // steady-state need guarantees an out/in limit cycle around it.
        min_replicas: 2,
        max_replicas: 6,
        slo_p99_s: 0.15,
        scale_out_frac: 0.6,
        queue_high_per_replica: 32,
        scale_in_util: 0.35,
        scale_in_p99_frac: 0.3,
        idle_intervals: 3,
        cooldown_s: 2.0,
        step_out: 2,
        step_in: 1,
    }
}

fn sim_config(scaling: ScalePolicy, shed_wait_frac: f64, threads: usize) -> SimFleetConfig {
    SimFleetConfig {
        trace: trace(),
        service: ServiceModel {
            batch_base_s: 0.002,
            batch_per_row_s: 0.001,
            max_batch: 4,
        },
        router: RouterPolicy::PowerOfTwo,
        scaling,
        slo_p99_s: 0.15,
        queue_capacity: 2048,
        shed_wait_frac,
        control_interval_s: 0.5,
        stats_window_s: 5.0,
        tick_s: 0.1,
        provision_delay_s: 0.5,
        machine: cluster::Machine::Summit,
        threads,
    }
}

#[test]
fn simulated_fleet_is_bit_identical_across_thread_counts() {
    let baseline = run_fleet_sim(&sim_config(ScalePolicy::Auto(autoscale()), 0.9, 1));
    assert!(baseline.offered > 10_000, "trace too small to be probative");
    assert_eq!(
        baseline.offered,
        baseline.completed + baseline.shed + baseline.overloaded
    );
    // 7 threads is above the autoscaler's 6-replica ceiling.
    for threads in [2, 4, 7] {
        let run = run_fleet_sim(&sim_config(ScalePolicy::Auto(autoscale()), 0.9, threads));
        assert_eq!(
            baseline.outcome_fingerprint, run.outcome_fingerprint,
            "request outcomes diverged at {threads} threads"
        );
        assert_eq!(
            baseline.decision_fingerprint, run.decision_fingerprint,
            "scaling-decision log diverged at {threads} threads"
        );
        assert_eq!(baseline.energy_j.to_bits(), run.energy_j.to_bits());
        assert_eq!(
            baseline.latency.p99_s.to_bits(),
            run.latency.p99_s.to_bits()
        );
    }
}

#[test]
fn hysteresis_prevents_scaling_flaps() {
    let report = run_fleet_sim(&sim_config(ScalePolicy::Auto(autoscale()), 0.9, 2));
    assert!(
        report.decisions.iter().any(|d| d.to > d.from),
        "the burst must force a scale-out"
    );
    assert!(
        report.decisions.iter().any(|d| d.to < d.from),
        "the calm tail must force a scale-in"
    );
    // Cooldown: no two decisions closer than the configured 2 s.
    for pair in report.decisions.windows(2) {
        assert!(
            pair[1].at_s - pair[0].at_s >= 2.0 - 1e-9,
            "decisions {:.1}s and {:.1}s violate the cooldown",
            pair[0].at_s,
            pair[1].at_s
        );
    }
    // Hysteresis: one burst should produce one out-phase and one
    // in-phase, not an out/in ping-pong. Count direction reversals.
    let dirs: Vec<bool> = report.decisions.iter().map(|d| d.to > d.from).collect();
    let reversals = dirs.windows(2).filter(|w| w[0] != w[1]).count();
    assert!(
        reversals <= 3,
        "{reversals} scaling direction reversals — the fleet is flapping: {:?}",
        report
            .decisions
            .iter()
            .map(|d| (d.at_s, d.from, d.to))
            .collect::<Vec<_>>()
    );
    // Every priced decision carries the platform's marginal wattage.
    for d in &report.decisions {
        let replicas_delta = d.to as f64 - d.from as f64;
        assert!((d.marginal_watts - replicas_delta * 180.0).abs() < 1e-9);
    }
}

#[test]
fn admission_control_sheds_before_the_slo_collapses() {
    // Undersized fleet with shedding: rejects load, protects admitted p99.
    let shed = run_fleet_sim(&sim_config(ScalePolicy::Fixed(1), 0.9, 1));
    assert!(shed.shed > 0, "admission control never fired");
    assert!(
        shed.latency.p99_s < 0.15,
        "admitted requests blew the SLO anyway: p99 {:.3}s",
        shed.latency.p99_s
    );
    // The same fleet without shedding: queues build and the SLO collapses.
    let unprotected = run_fleet_sim(&sim_config(ScalePolicy::Fixed(1), f64::INFINITY, 1));
    assert_eq!(unprotected.shed, 0);
    assert!(
        unprotected.worst_window_p99_s > 0.15,
        "without shedding the windowed p99 should collapse, got {:.3}s",
        unprotected.worst_window_p99_s
    );
    assert!(unprotected.worst_window_p99_s > shed.worst_window_p99_s);
}
