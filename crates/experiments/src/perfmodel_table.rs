//! Extra-P-style performance modeling closed into a loop: fit scaling
//! laws, predict beyond the measured range, tune knobs from the models,
//! and flag points that fall off their own curve.
//!
//! The paper stops at *measuring* scaling; Extra-P (and its DeepScale /
//! Extra-Deep application to deep-learning benchmarks) turns the same
//! measurements into analytic models `c0 + c1·N^a·log2^b(N)` that
//! extrapolate. This 32nd experiment pins that whole pipeline with four
//! sections:
//!
//! 1. **Sim fit + extrapolation** — fit the `cluster` simulator's NT3
//!    strong-scaling seconds and joules on 1–96 workers, hold out 192
//!    (2× beyond the largest fitted scale) and 384 (4×), and assert the
//!    2× prediction lands inside the model's stated error band. The
//!    simulator is deterministic, so this is asserted unconditionally.
//! 2. **Measured fit** — fit real NT3 weak-scaling epoch times from
//!    `candle::run_parallel`, hold out the largest worker count in full
//!    mode, and assert the same contract under the timed-assert gate
//!    (release build, full mode, multicore host).
//! 3. **Model-driven autotuning** — the three `perfmodel::tune` pickers
//!    fed from measurements made here: the comm-overlap fusion threshold
//!    (α–β calibration from two runs at different thresholds), the
//!    training worker count (argmin of the fitted wall-clock law), and
//!    the serving fleet's initial size (smallest replica count whose
//!    fitted p99 law holds the SLO, then verified by direct simulation).
//!    Each tuned knob is asserted no worse than the hardcoded default.
//! 4. **Regression gate demo** — inject a +60% slowdown into one point
//!    of the clean sim series and assert `perfmodel::check_points` flags
//!    exactly that point and nothing on the clean series. The unit tests
//!    in `perfmodel::regress` pin the same detector on a synthetic series.

use crate::overlap_table::{phase, spec};
use crate::report::{format_table, Experiment};
use cluster::calib::Bench;
use cluster::{LoadMethod, Machine, RunConfig, ScalingMode, WorkloadProfile};
use collectives::DEFAULT_FUSION_THRESHOLD_BYTES;
use fleet::sim::{run_fleet_sim, FleetSimReport, ScalePolicy};
use perfmodel::{
    check_points, fit_series, pick_fleet_initial_size, pick_overlap_threshold, pick_worker_count,
    FittedModel, OverlapCostModel, SamplePoint,
};

/// Worker counts the simulator fit trains on (NT3 strong scaling).
const SIM_FIT_WORKERS: &[usize] = &[1, 6, 12, 24, 48, 96];
/// Held-out extrapolation targets: 2× and 4× the largest fitted scale.
const SIM_HOLDOUT_2X: usize = 192;
const SIM_HOLDOUT_4X: usize = 384;
/// Epoch budget the worker-count tuner minimises wall-clock for.
const TUNE_EPOCH_BUDGET: usize = 8;

/// One fitted law validated against a held-out point.
#[derive(Debug, Clone)]
pub struct FitValidation {
    /// Series label for the report.
    pub series: &'static str,
    /// The fitted scaling law.
    pub fitted: FittedModel,
    /// Held-out scale the model predicts.
    pub holdout_scale: f64,
    /// Model prediction at the held-out scale.
    pub predicted: f64,
    /// Ground truth at the held-out scale.
    pub measured: f64,
    /// Relative error band the prediction is held to.
    pub band_frac: f64,
    /// Whether the band is asserted (2× extrapolations; the 4× row is
    /// reported for context but outside the model's stated contract).
    pub asserted: bool,
    /// Whether the assertion needs the timed gate (real measurements
    /// jitter; simulator output does not).
    pub timed_only: bool,
}

impl FitValidation {
    /// Relative prediction error against the held-out truth.
    pub fn rel_err(&self) -> f64 {
        (self.predicted - self.measured).abs() / self.measured.abs().max(1e-12)
    }
}

/// One autotuned knob with its default, its model-driven choice, and the
/// evidence backing it.
#[derive(Debug, Clone)]
pub struct TunedKnob {
    /// Knob name.
    pub knob: &'static str,
    /// The hardcoded default.
    pub default: String,
    /// The tuner's choice.
    pub tuned: String,
    /// Model evidence (prediction at the choice).
    pub predicted: String,
    /// Measured outcome backing the choice.
    pub measured: String,
}

/// NT3's Table-1 workload, the scaling subject throughout.
fn nt3_profile() -> WorkloadProfile {
    candle::HyperParams::of(Bench::Nt3).workload()
}

fn nt3_strong_config(batch: usize) -> impl Fn(usize) -> RunConfig {
    move |workers| RunConfig {
        machine: Machine::Summit,
        workers,
        batch_size: batch,
        scaling: ScalingMode::Strong,
        load_method: LoadMethod::ChunkedLowMemoryFalse,
    }
}

/// Section 1: fit the simulator's strong-scaling series and validate the
/// extrapolations against held-out simulator runs.
fn sim_fit_validations() -> (Vec<FitValidation>, Vec<SamplePoint>) {
    let profile = nt3_profile();
    let config = nt3_strong_config(profile.default_batch);
    let train = cluster::sweep(&profile, SIM_FIT_WORKERS, &config);
    let held = cluster::sweep(&profile, &[SIM_HOLDOUT_2X, SIM_HOLDOUT_4X], &config);
    assert_eq!(
        train.len(),
        SIM_FIT_WORKERS.len(),
        "sim fit sweep lost points"
    );
    assert_eq!(held.len(), 2, "sim holdout sweep lost points");

    let sec_pts: Vec<SamplePoint> = train
        .iter()
        .map(|p| SamplePoint {
            scale: p.scale,
            value: p.seconds,
        })
        .collect();
    let joule_pts: Vec<SamplePoint> = train
        .iter()
        .map(|p| SamplePoint {
            scale: p.scale,
            value: p.joules,
        })
        .collect();
    let sec_fit = fit_series(&sec_pts).expect("sim seconds series must fit");
    let joule_fit = fit_series(&joule_pts).expect("sim joules series must fit");

    let rows = vec![
        FitValidation {
            series: "sim NT3 strong seconds",
            holdout_scale: held[0].scale,
            predicted: sec_fit.predict(held[0].scale),
            measured: held[0].seconds,
            band_frac: sec_fit.error_band_frac(),
            asserted: true,
            timed_only: false,
            fitted: sec_fit.clone(),
        },
        FitValidation {
            series: "sim NT3 strong joules",
            holdout_scale: held[0].scale,
            predicted: joule_fit.predict(held[0].scale),
            measured: held[0].joules,
            band_frac: joule_fit.error_band_frac(),
            asserted: true,
            timed_only: false,
            fitted: joule_fit,
        },
        FitValidation {
            series: "sim NT3 strong seconds (4x)",
            holdout_scale: held[1].scale,
            predicted: sec_fit.predict(held[1].scale),
            measured: held[1].seconds,
            band_frac: sec_fit.error_band_frac(),
            asserted: false,
            timed_only: false,
            fitted: sec_fit,
        },
    ];
    (rows, sec_pts)
}

/// Section 2: real NT3 weak-scaling epoch times. Returns the per-worker
/// measurements alongside the validation row (quick mode has too few
/// points to hold one out, so its row validates the largest in-sample
/// point and is never asserted).
fn measured_fit_validation(quick: bool) -> (Vec<(usize, f64)>, FitValidation) {
    let (workers, epochs): (&[usize], usize) = if quick {
        (&[1, 2, 4], 1)
    } else {
        (&[1, 2, 4, 8], 4)
    };
    let epoch_s: Vec<(usize, f64)> = workers
        .iter()
        .map(|&w| {
            let out = candle::run_parallel(&spec(w, epochs, None)).expect("blocking NT3 run");
            let (train_s, _) = phase(&out, "training");
            (w, train_s / epochs as f64)
        })
        .collect();
    let (fit_on, holdout) = if quick {
        (
            &epoch_s[..],
            *epoch_s.last().expect("measured at least one point"),
        )
    } else {
        let (last, rest) = epoch_s.split_last().expect("measured at least one point");
        (rest, *last)
    };
    let pts: Vec<SamplePoint> = fit_on
        .iter()
        .map(|&(w, s)| SamplePoint {
            scale: w as f64,
            value: s,
        })
        .collect();
    let fitted = fit_series(&pts).expect("measured epoch series must fit");
    // Thread-simulated ranks on a shared host jitter far beyond the
    // simulator's determinism: never state a band under 50%.
    let band = fitted.error_band_frac().max(0.5);
    let row = FitValidation {
        series: "measured NT3 weak s/epoch",
        holdout_scale: holdout.0 as f64,
        predicted: fitted.predict(holdout.0 as f64),
        measured: holdout.1,
        band_frac: band,
        asserted: !quick,
        timed_only: true,
        fitted,
    };
    (epoch_s, row)
}

/// Section 3a: α–β-calibrate the per-bucket allreduce cost from two runs
/// at different fusion thresholds, pick the threshold minimising the
/// predicted step time, then measure the tuned choice against the 64 MiB
/// default. Returns the knob row and `(tuned, default)` seconds/epoch.
fn tune_overlap_threshold(quick: bool) -> (TunedKnob, f64, f64) {
    let (w, epochs) = if quick { (2, 1) } else { (4, 2) };
    let run_at = |threshold: usize| {
        candle::run_parallel(&spec(w, epochs, Some(threshold))).expect("overlapped NT3 run")
    };
    let lo = run_at(2 * 1024);
    let hi = run_at(32 * 1024);
    let busy = |out: &candle::ParallelRunOutcome| {
        let (hidden, buckets) = phase(out, "comm_overlap");
        let (exposed, steps) = phase(out, "comm_exposed");
        (hidden + exposed, buckets, steps)
    };
    let (busy_lo, buckets_lo, steps_lo) = busy(&lo);
    let (busy_hi, buckets_hi, _) = busy(&hi);
    let (backward_s, _) = phase(&lo, "train_backward");

    // Gradient regions in arrival order: backward produces layer
    // gradients back-to-front, zero-parameter layers ship nothing.
    let model = candle::build_rank_model(&spec(w, epochs, None), 0);
    let mut regions = model.layer_param_counts();
    regions.reverse();
    regions.retain(|&e| e > 0);
    let total_elems: usize = regions.iter().sum();
    let total_bytes = 4.0 * total_elems as f64 * steps_lo as f64;

    let cost = OverlapCostModel::calibrate(buckets_lo, busy_lo, buckets_hi, busy_hi, total_bytes);
    let backward_step_s = backward_s / steps_lo.max(1) as f64;
    let candidates: Vec<usize> = (10..=26).map(|p| 1usize << p).collect();
    let choice = pick_overlap_threshold(&regions, backward_step_s, &cost, &candidates);

    let tuned_s = {
        let out = run_at(choice.threshold_bytes);
        phase(&out, "training").0 / epochs as f64
    };
    let default_s = {
        let out = run_at(DEFAULT_FUSION_THRESHOLD_BYTES);
        phase(&out, "training").0 / epochs as f64
    };
    let fmt_threshold = |bytes: usize| {
        if bytes >= 1024 * 1024 {
            format!("{} MiB", bytes / (1024 * 1024))
        } else {
            format!("{} KiB", bytes / 1024)
        }
    };
    let knob = TunedKnob {
        knob: "fusion threshold",
        default: fmt_threshold(DEFAULT_FUSION_THRESHOLD_BYTES),
        tuned: fmt_threshold(choice.threshold_bytes),
        predicted: format!(
            "{:.1} ms/step, {} buckets",
            choice.predicted_step_s * 1e3,
            choice.buckets_per_step
        ),
        measured: format!("{tuned_s:.3} vs {default_s:.3} s/epoch"),
    };
    (knob, tuned_s, default_s)
}

/// Section 3b: fit wall-clock for a fixed epoch budget, derived from the
/// measured weak-scaling epoch times, and pick the worker count. Returns
/// the knob row and `(picked, derived wall at picked, at 1 worker)`.
fn tune_worker_count(epoch_s: &[(usize, f64)]) -> (TunedKnob, usize, f64, f64) {
    let wall = |w: usize, s: f64| (TUNE_EPOCH_BUDGET as f64 / w as f64) * s;
    let pts: Vec<SamplePoint> = epoch_s
        .iter()
        .map(|&(w, s)| SamplePoint {
            scale: w as f64,
            value: wall(w, s),
        })
        .collect();
    let fitted = fit_series(&pts).expect("wall-clock series must fit");
    let candidates: Vec<usize> = epoch_s.iter().map(|&(w, _)| w).collect();
    let (picked, predicted) = pick_worker_count(&fitted, &candidates);
    let measured_at = |n: usize| {
        epoch_s
            .iter()
            .find(|&&(w, _)| w == n)
            .map(|&(w, s)| wall(w, s))
            .expect("picked worker count was measured")
    };
    let tuned_wall = measured_at(picked);
    let serial_wall = measured_at(1);
    let knob = TunedKnob {
        knob: "training workers",
        default: "1 (serial)".to_string(),
        tuned: picked.to_string(),
        predicted: format!("{predicted:.3} s wall ({} epochs)", TUNE_EPOCH_BUDGET),
        measured: format!("{tuned_wall:.3} vs {serial_wall:.3} s wall"),
    };
    (knob, picked, tuned_wall, serial_wall)
}

/// Section 3c: sweep fixed fleet sizes through the deterministic fleet
/// simulator, fit p99-vs-replicas, pick the smallest size whose fitted
/// law holds the SLO, and verify the pick by direct simulation (bumping
/// upward when the model was optimistic — a tuner proposes, the
/// simulator disposes). Returns the knob row plus the verified size, its
/// report, the peak default size, and the peak-sized report.
fn tune_fleet_size(quick: bool) -> (TunedKnob, usize, FleetSimReport, usize, FleetSimReport) {
    let slo = crate::fleet_table::SLO_P99_S;
    let t = crate::fleet_table::trace(quick);
    let per_replica_rps = crate::fleet_table::service().peak_rps();
    let mean_n = ((t.mean_rps() / per_replica_rps).ceil() as usize).max(1);
    let peak_n = ((crate::fleet_table::actual_peak_rps(&t) / per_replica_rps).ceil() as usize)
        .max(mean_n + 1);

    let sim_fixed = |n: usize| {
        run_fleet_sim(&crate::fleet_table::base_config(
            quick,
            ScalePolicy::Fixed(n),
            f64::INFINITY,
        ))
    };
    // Five candidate sizes spanning mean- to peak-sized, extended past
    // the peak when the span is too narrow to fit a law on.
    let mut sizes: Vec<usize> = (0..5).map(|i| mean_n + i * (peak_n - mean_n) / 4).collect();
    sizes.dedup();
    while sizes.len() < 4 {
        sizes.push(sizes.last().expect("sizes non-empty") + 1);
    }
    let pts: Vec<SamplePoint> = sizes
        .iter()
        .map(|&n| SamplePoint {
            scale: n as f64,
            value: sim_fixed(n).worst_window_p99_s.max(1e-6),
        })
        .collect();
    let p99_fit = fit_series(&pts).expect("fleet p99 series must fit");
    let sizing = pick_fleet_initial_size(&p99_fit, slo, peak_n);

    let mut verified = sizing.initial_replicas;
    let mut report = sim_fixed(verified);
    while report.worst_window_p99_s > slo && verified < peak_n {
        verified += 1;
        report = sim_fixed(verified);
    }
    let peak_report = if verified == peak_n {
        report.clone()
    } else {
        sim_fixed(peak_n)
    };
    let knob = TunedKnob {
        knob: "fleet replicas",
        default: format!("{peak_n} (peak-sized)"),
        tuned: verified.to_string(),
        predicted: format!(
            "p99 {:.0} ms at n={}",
            sizing.predicted_p99_s * 1e3,
            sizing.initial_replicas
        ),
        measured: format!(
            "p99 {:.0} ms, {:.1} vs {:.1} kJ",
            report.worst_window_p99_s * 1e3,
            report.energy_j / 1e3,
            peak_report.energy_j / 1e3
        ),
    };
    (knob, verified, report, peak_n, peak_report)
}

/// Section 4: the regression detector must flag an injected +60%
/// slowdown at exactly one scale and stay silent on the clean series.
/// Uses a denser sweep than the fit validation — the median-based flag
/// threshold needs enough points that one corrupted measurement cannot
/// drag the whole model after it. N=1 is deliberately excluded: a
/// leave-one-out detector cannot predict an Amdahl constant term without
/// its own anchor point, so the boundary point flags collaterally.
fn regression_demo() -> (f64, usize, usize) {
    let profile = nt3_profile();
    let workers: &[usize] = &[2, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96];
    let clean: Vec<SamplePoint> =
        cluster::sweep(&profile, workers, nt3_strong_config(profile.default_batch))
            .iter()
            .map(|p| SamplePoint {
                scale: p.scale,
                value: p.seconds,
            })
            .collect();
    let (_, clean_flags) = check_points(&clean).expect("clean series must fit");
    let mut corrupted = clean.clone();
    let idx = clean.len() / 2;
    corrupted[idx].value *= 1.6;
    let (_, flags) = check_points(&corrupted).expect("corrupted series must fit");
    assert!(
        clean_flags.is_empty(),
        "regression gate flagged the clean simulator series: {clean_flags:?}"
    );
    assert_eq!(
        flags.len(),
        1,
        "injected regression must raise exactly one flag, got {flags:?}"
    );
    assert_eq!(
        flags[0].scale, corrupted[idx].scale,
        "regression flagged the wrong scale"
    );
    (corrupted[idx].scale, clean_flags.len(), flags.len())
}

/// The performance-modeling experiment: fitted scaling laws validated at
/// 2× extrapolation, model-driven autotuning of three knobs, and the
/// CI regression gate demonstrated end to end.
///
/// # Panics
/// Panics when a simulator-backed prediction leaves its stated error
/// band, when the regression demo mis-flags, or — under the timed-assert
/// gate (release build, full mode, multicore host) — when a measured
/// prediction leaves its band or a tuned knob loses to its default.
pub fn table_perfmodel(quick: bool) -> Experiment {
    let (mut fit_rows, _sim_seconds) = sim_fit_validations();
    let (epoch_s, measured_row) = measured_fit_validation(quick);
    fit_rows.push(measured_row);

    let timed = crate::gate::timed_asserts_enabled(quick);
    let multicore = crate::gate::multicore_host();
    for r in &fit_rows {
        if !r.asserted || (r.timed_only && !(timed && multicore)) {
            continue;
        }
        assert!(
            r.rel_err() <= r.band_frac,
            "{}: prediction {:.4} vs measured {:.4} at N={} — rel err {:.1}% \
             outside the stated {:.1}% band",
            r.series,
            r.predicted,
            r.measured,
            r.holdout_scale,
            r.rel_err() * 100.0,
            r.band_frac * 100.0
        );
    }

    let (threshold_knob, tuned_s, default_s) = tune_overlap_threshold(quick);
    let (worker_knob, _picked_w, tuned_wall, serial_wall) = tune_worker_count(&epoch_s);
    let (fleet_knob, verified_n, fleet_report, peak_n, peak_report) = tune_fleet_size(quick);
    if timed && multicore {
        assert!(
            tuned_s <= default_s * 1.05,
            "tuned fusion threshold lost to the default: {tuned_s:.4} vs {default_s:.4} s/epoch"
        );
        assert!(
            tuned_wall <= serial_wall * 1.05,
            "tuned worker count lost to serial: {tuned_wall:.4} vs {serial_wall:.4} s wall"
        );
    }
    // The fleet simulator is deterministic: its tuning contract holds
    // everywhere, not just under the timed gate.
    assert!(
        fleet_report.worst_window_p99_s <= crate::fleet_table::SLO_P99_S,
        "verified fleet size {verified_n} still violates the SLO: p99 {:.3}s",
        fleet_report.worst_window_p99_s
    );
    assert!(
        verified_n <= peak_n,
        "fleet tuner exceeded the peak-sized default"
    );
    assert!(
        fleet_report.energy_j <= peak_report.energy_j * 1.0001,
        "tuned fleet burned more energy than the peak-sized default: {:.0} vs {:.0} J",
        fleet_report.energy_j,
        peak_report.energy_j
    );

    let (flagged_scale, clean_flags, injected_flags) = regression_demo();

    let fit_cells: Vec<Vec<String>> = fit_rows
        .iter()
        .map(|r| {
            vec![
                r.series.to_string(),
                r.fitted.model.to_string(),
                format!("{:.1}%", r.fitted.cv_mean_rel_err * 100.0),
                format!("{:.0}%", r.band_frac * 100.0),
                format!("{:.0}", r.holdout_scale),
                format!("{:.4}", r.predicted),
                format!("{:.4}", r.measured),
                format!("{:.1}%", r.rel_err() * 100.0),
                if !r.asserted {
                    "report"
                } else if r.timed_only {
                    "timed"
                } else {
                    "always"
                }
                .to_string(),
            ]
        })
        .collect();
    let knob_cells: Vec<Vec<String>> = [&threshold_knob, &worker_knob, &fleet_knob]
        .iter()
        .map(|k| {
            vec![
                k.knob.to_string(),
                k.default.clone(),
                k.tuned.clone(),
                k.predicted.clone(),
                k.measured.clone(),
            ]
        })
        .collect();

    let mut text = String::from(
        "Extra-P-style scaling laws fitted on measured/simulated series\n\
         (c0 + c1*N^a*log2^b(N), rational exponent grid, leave-one-out\n\
         model selection), validated against held-out points beyond the\n\
         fitted range:\n",
    );
    text.push_str(&format_table(
        &[
            "series",
            "fitted law",
            "cv",
            "band",
            "N*",
            "predicted",
            "measured",
            "err",
            "assert",
        ],
        &fit_cells,
    ));
    text.push_str("model-driven autotuning vs hardcoded defaults:\n");
    text.push_str(&format_table(
        &["knob", "default", "tuned", "model prediction", "measured"],
        &knob_cells,
    ));
    text.push_str(&format!(
        "regression gate: clean sim series {} flags; +60% injected at \
         N={:.0} -> {} flag at N={:.0} (leave-one-out detector, \
         perfmodel::check_points)\n",
        clean_flags, flagged_scale, injected_flags, flagged_scale,
    ));
    Experiment {
        id: "table_perfmodel",
        title: "Performance models: fitted scaling laws, autotuning, regression gate",
        text,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_fit_holds_its_stated_band() {
        let (rows, pts) = sim_fit_validations();
        assert_eq!(rows.len(), 3);
        assert_eq!(pts.len(), SIM_FIT_WORKERS.len());
        for r in &rows {
            assert!(r.predicted > 0.0 && r.measured > 0.0);
            if r.asserted {
                assert!(
                    r.rel_err() <= r.band_frac,
                    "{}: {:.1}% err vs {:.0}% band",
                    r.series,
                    r.rel_err() * 100.0,
                    r.band_frac * 100.0
                );
            }
        }
        // Strong scaling must fit a decreasing law.
        assert!(rows[0].fitted.model.exponent() < 0.0);
    }

    #[test]
    fn regression_demo_is_exact() {
        let (scale, clean, injected) = regression_demo();
        assert_eq!(clean, 0);
        assert_eq!(injected, 1);
        assert!(scale > 1.0);
    }

    #[test]
    fn fleet_tuner_stays_within_the_peak_default() {
        let (knob, verified, report, peak_n, peak_report) = tune_fleet_size(true);
        assert!(verified <= peak_n);
        assert!(report.worst_window_p99_s <= crate::fleet_table::SLO_P99_S);
        assert!(report.energy_j <= peak_report.energy_j * 1.0001);
        assert_eq!(knob.knob, "fleet replicas");
    }

    #[test]
    fn table_renders_all_sections() {
        let e = table_perfmodel(true);
        assert_eq!(e.id, "table_perfmodel");
        for needle in [
            "fitted law",
            "sim NT3 strong seconds",
            "measured NT3 weak s/epoch",
            "fusion threshold",
            "training workers",
            "fleet replicas",
            "regression gate",
        ] {
            assert!(e.text.contains(needle), "missing section marker {needle}");
        }
    }
}
