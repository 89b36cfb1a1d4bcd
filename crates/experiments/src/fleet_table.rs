//! Autoscaled serving fleet vs fixed sizing: SLO attainment and
//! joules per request.
//!
//! The paper's central trade-off — provisioned capacity versus energy —
//! reappears verbatim on the serving side. This driver runs the same
//! seeded diurnal-plus-burst arrival trace through three fleets built
//! from `fleet`'s deterministic virtual-time simulator:
//!
//! * **fixed-mean** — sized for the trace's *mean* rate, admission
//!   control disabled: the burst collapses its queues and the rolling
//!   p99 blows through the SLO;
//! * **fixed-peak** — sized for the trace's *peak* rate: it holds the
//!   SLO everywhere but burns idle watts for the whole run;
//! * **autoscaled** — the SLO-driven control loop with admission
//!   shedding: it holds the SLO through the bursts at a fraction of the
//!   peak fleet's energy.
//!
//! Every run is a pure function of its config (bit-identical decision
//! logs and outcome fingerprints at any thread count), so the SLO and
//! energy assertions below are exact, not statistical.

use crate::report::{format_table, Experiment};
use cluster::Machine;
use fleet::sim::{run_fleet_sim, FleetSimReport, ScalePolicy, ServiceModel, SimFleetConfig};
use fleet::{AutoscaleConfig, Burst, RouterPolicy, TraceConfig};

/// One fleet configuration's measured outcome.
#[derive(Debug, Clone)]
pub struct FleetComparison {
    /// Human label of the sizing policy.
    pub label: &'static str,
    /// Replica count (fixed size, or autoscaler peak).
    pub replicas: usize,
    /// The full simulation report.
    pub report: FleetSimReport,
}

/// The latency objective every fleet is held to (shared with the
/// perfmodel table's fleet-sizing tuner).
pub(crate) const SLO_P99_S: f64 = 0.25;

pub(crate) fn service() -> ServiceModel {
    ServiceModel {
        batch_base_s: 0.002,
        batch_per_row_s: 0.0005,
        max_batch: 8,
    }
}

pub(crate) fn trace(quick: bool) -> TraceConfig {
    if quick {
        TraceConfig {
            seed: 7,
            duration_s: 60.0,
            base_rps: 600.0,
            diurnal_amplitude: 0.25,
            diurnal_period_s: 60.0,
            bursts: vec![
                Burst {
                    start_s: 20.0,
                    duration_s: 5.0,
                    extra_rps: 4000.0,
                },
                Burst {
                    start_s: 40.0,
                    duration_s: 4.0,
                    extra_rps: 5000.0,
                },
            ],
        }
    } else {
        TraceConfig {
            seed: 7,
            duration_s: 1200.0,
            base_rps: 2000.0,
            diurnal_amplitude: 0.25,
            diurnal_period_s: 600.0,
            bursts: vec![
                Burst {
                    start_s: 300.0,
                    duration_s: 60.0,
                    extra_rps: 6000.0,
                },
                Burst {
                    start_s: 700.0,
                    duration_s: 40.0,
                    extra_rps: 9000.0,
                },
            ],
        }
    }
}

/// Largest instantaneous rate the trace actually reaches (the envelope
/// `peak_rps` over-counts when bursts do not overlap).
pub(crate) fn actual_peak_rps(t: &TraceConfig) -> f64 {
    let steps = (t.duration_s * 10.0).ceil() as usize;
    (0..=steps)
        .map(|k| t.rate_at(k as f64 * 0.1))
        .fold(0.0f64, f64::max)
}

pub(crate) fn base_config(
    quick: bool,
    scaling: ScalePolicy,
    shed_wait_frac: f64,
) -> SimFleetConfig {
    SimFleetConfig {
        trace: trace(quick),
        service: service(),
        router: RouterPolicy::PowerOfTwo,
        scaling,
        slo_p99_s: SLO_P99_S,
        queue_capacity: 4096,
        shed_wait_frac,
        control_interval_s: if quick { 0.5 } else { 1.0 },
        stats_window_s: if quick { 5.0 } else { 10.0 },
        tick_s: 0.1,
        provision_delay_s: if quick { 1.0 } else { 2.0 },
        machine: Machine::Summit,
        threads: 4,
    }
}

/// Runs the three-fleet comparison: fixed-mean, fixed-peak, autoscaled.
pub fn measure_fleet_comparison(quick: bool) -> Vec<FleetComparison> {
    let t = trace(quick);
    let per_replica_rps = service().peak_rps();
    let mean_n = ((t.mean_rps() / per_replica_rps).ceil() as usize).max(1);
    let peak_n = ((actual_peak_rps(&t) / per_replica_rps).ceil() as usize).max(mean_n + 1);
    // Cap the autoscaler at the peak-sized fleet: anything above it is
    // pure overshoot from stale windowed latencies during burst decay.
    let auto = AutoscaleConfig {
        min_replicas: mean_n,
        max_replicas: peak_n,
        slo_p99_s: SLO_P99_S,
        scale_out_frac: 0.6,
        queue_high_per_replica: 64,
        // Generous: an over-provisioned fleet loses batch coalescing
        // (singleton forwards pay the full base cost), which inflates
        // busy-time utilization and would otherwise pin the fleet at
        // its burst size forever.
        scale_in_util: 0.7,
        scale_in_p99_frac: 0.3,
        idle_intervals: 3,
        cooldown_s: if quick { 1.0 } else { 2.0 },
        step_out: 2,
        step_in: 1,
    };
    // Shedding (0.9 of the SLO) must sit *above* the scale-out trigger
    // (0.6): if admission capped latency below the trigger the
    // autoscaler would never see the breach it needs to react to.
    let runs = [
        (
            "fixed-mean",
            mean_n,
            base_config(quick, ScalePolicy::Fixed(mean_n), f64::INFINITY),
        ),
        (
            "fixed-peak",
            peak_n,
            base_config(quick, ScalePolicy::Fixed(peak_n), 0.9),
        ),
        (
            "autoscaled",
            peak_n,
            base_config(quick, ScalePolicy::Auto(auto), 0.9),
        ),
    ];
    runs.into_iter()
        .map(|(label, sized, config)| {
            let report = run_fleet_sim(&config);
            FleetComparison {
                label,
                replicas: match config.scaling {
                    ScalePolicy::Fixed(_) => sized,
                    ScalePolicy::Auto(_) => report.peak_replicas,
                },
                report,
            }
        })
        .collect()
}

/// The fleet-sizing experiment: one burst trace, three capacity policies,
/// with the SLO and energy ordering asserted.
///
/// # Panics
/// Panics if the fixed-mean fleet fails to violate the SLO, if the
/// autoscaled fleet violates it, or if the autoscaler does not spend
/// measurably fewer joules than the fixed-peak fleet.
pub fn table_fleet(quick: bool) -> Experiment {
    let rows = measure_fleet_comparison(quick);
    let mean = &rows[0].report;
    let peak = &rows[1].report;
    let auto = &rows[2].report;

    // The story the table must actually tell, enforced exactly: the
    // virtual-time simulator is deterministic, so these are not flaky.
    assert!(
        mean.worst_window_p99_s > SLO_P99_S,
        "fixed-mean fleet should blow the {SLO_P99_S}s SLO in the burst, worst p99 {:.3}s",
        mean.worst_window_p99_s
    );
    assert!(
        peak.worst_window_p99_s <= SLO_P99_S,
        "fixed-peak fleet should hold the SLO, worst p99 {:.3}s",
        peak.worst_window_p99_s
    );
    assert!(
        auto.worst_window_p99_s <= SLO_P99_S,
        "autoscaled fleet should hold the SLO, worst p99 {:.3}s",
        auto.worst_window_p99_s
    );
    assert!(
        auto.energy_j < 0.9 * peak.energy_j,
        "autoscaler should be measurably cheaper than fixed-peak: {:.0} J vs {:.0} J",
        auto.energy_j,
        peak.energy_j
    );
    assert!(
        auto.joules_per_request < peak.joules_per_request,
        "autoscaler should win on joules/request too"
    );
    assert!(
        !auto.decisions.is_empty(),
        "autoscaled run recorded no scaling decisions"
    );

    let fmt = |c: &FleetComparison| {
        let r = &c.report;
        vec![
            c.label.to_string(),
            c.replicas.to_string(),
            r.offered.to_string(),
            format!("{:.2}%", r.rejection_rate() * 100.0),
            format!("{:.1}", r.worst_window_p99_s * 1e3),
            format!("{:.2}%", r.slo_attainment() * 100.0),
            format!("{:.0}", r.replica_seconds),
            format!("{:.1}", r.energy_j / 1e3),
            format!("{:.0}", r.avg_power_w),
            format!("{:.3}", r.joules_per_request),
        ]
    };
    let table = format_table(
        &[
            "fleet",
            "replicas",
            "offered",
            "rejected",
            "worst p99 ms",
            "SLO attain",
            "replica-s",
            "energy kJ",
            "avg W",
            "J/req",
        ],
        &rows.iter().map(fmt).collect::<Vec<_>>(),
    );
    let t = trace(quick);
    let scale_outs = auto.decisions.iter().filter(|d| d.to > d.from).count();
    let scale_ins = auto.decisions.len() - scale_outs;
    let out_watts: f64 = auto
        .decisions
        .iter()
        .filter(|d| d.to > d.from)
        .map(|d| d.marginal_watts)
        .sum();
    let text = format!(
        "Diurnal + burst arrival trace ({:.0} rps mean, {:.0} rps peak, \
         {:.0}s, SLO p99 <= {:.0} ms) served by three capacity policies:\n{table}\
         autoscaler: {} scale-out / {} scale-in decisions, \
         {:.0} W total marginal scale-out power\n\
         replicas priced with Summit power states: 180 W busy, 40 W idle, \
         45 W warming, 0 W offline\n",
        t.mean_rps(),
        actual_peak_rps(&t),
        t.duration_s,
        SLO_P99_S * 1e3,
        scale_outs,
        scale_ins,
        out_watts,
    );
    Experiment {
        id: "table_fleet",
        title: "Autoscaled serving fleet: SLO attainment vs joules per request",
        text,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_table_orders_the_three_policies() {
        let e = table_fleet(true);
        assert_eq!(e.id, "table_fleet");
        assert!(e.text.contains("fixed-mean"));
        assert!(e.text.contains("fixed-peak"));
        assert!(e.text.contains("autoscaled"));
        assert!(e.text.contains("J/req"));
    }

    #[test]
    fn comparison_is_deterministic() {
        let a = measure_fleet_comparison(true);
        let b = measure_fleet_comparison(true);
        assert_eq!(a.len(), 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                x.report.outcome_fingerprint, y.report.outcome_fingerprint,
                "{} diverged between identical runs",
                x.label
            );
            assert_eq!(x.report.energy_j.to_bits(), y.report.energy_j.to_bits());
        }
    }
}
