//! Power-trace construction and energy accounting.
//!
//! A simulated run is a schedule of phases, each with a device power level.
//! Its power-level changes, in time order, are the breakpoints of a
//! [`TimeSeries`] step function of simulated seconds; energy is its exact
//! integral and the "measured" trace is the series sampled at the
//! platform's meter rate (nvidia-smi 1 Hz on Summit, CapMC ~2 Hz on Theta)
//! — reproducing what the paper's Figure 7a plots.

use crate::machine::MachineSpec;

/// A right-continuous step function of simulated time: the device holds a
/// power level until the next state change, so energy is its exact
/// integral — no trapezoid approximation needed.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    /// Breakpoints `(t_s, value)`: the series equals `value` on
    /// `[t_s, next_t_s)`. Times are finite, non-negative seconds in
    /// strictly increasing order.
    points: Vec<(f64, f64)>,
}

impl TimeSeries {
    /// Appends a breakpoint at `t_s` seconds; times must be non-decreasing.
    /// A breakpoint at the same time as the previous one replaces it.
    ///
    /// # Panics
    /// Panics if `t_s` is not finite, is negative or precedes the last
    /// breakpoint.
    fn push(&mut self, t_s: f64, value: f64) {
        assert!(t_s.is_finite(), "TimeSeries time must be finite");
        assert!(t_s >= 0.0, "TimeSeries time must be non-negative");
        if let Some(&(last_s, _)) = self.points.last() {
            assert!(
                t_s >= last_s,
                "TimeSeries breakpoints must be non-decreasing"
            );
            if t_s == last_s {
                self.points.pop();
            }
        }
        self.points.push((t_s, value));
    }

    /// Value at `t_s` seconds (the most recent breakpoint at or before
    /// it). Returns 0 before the first breakpoint or for an empty series.
    pub fn value_at(&self, t_s: f64) -> f64 {
        match self.points.partition_point(|&(t, _)| t <= t_s) {
            0 => 0.0,
            i => self.points[i - 1].1,
        }
    }

    /// Exact integral over `[from_s, to_s]` (for power in watts this is
    /// energy in joules).
    ///
    /// # Panics
    /// Panics if `from_s > to_s`.
    pub(crate) fn integral(&self, from_s: f64, to_s: f64) -> f64 {
        assert!(from_s <= to_s, "integral bounds reversed");
        if self.points.is_empty() || from_s == to_s {
            return 0.0;
        }
        let mut total = 0.0;
        let mut cursor = from_s;
        // Walk breakpoints inside (from_s, to_s].
        for &(t, _) in &self.points {
            if t <= cursor {
                continue;
            }
            if t >= to_s {
                break;
            }
            total += self.value_at(cursor) * (t - cursor);
            cursor = t;
        }
        total += self.value_at(cursor) * (to_s - cursor);
        total
    }

    /// Samples the series every `interval` seconds over `[0, end_s]`,
    /// mimicking a polling power meter. Returns `(t, value)` pairs.
    ///
    /// # Panics
    /// Panics if `interval <= 0`.
    fn sample(&self, interval: f64, end_s: f64) -> Vec<(f64, f64)> {
        assert!(interval > 0.0, "sample interval must be positive");
        let mut out = Vec::new();
        let mut t = 0.0;
        while t <= end_s + 1e-12 {
            out.push((t, self.value_at(t)));
            t += interval;
        }
        out
    }
}

/// One scheduled run phase with its device power level.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerPhase {
    /// Phase label (matches `RunPhase` names).
    pub name: String,
    /// Start time (seconds from run start).
    pub start_s: f64,
    /// Duration in seconds.
    pub duration_s: f64,
    /// Device power during the phase (watts).
    pub power_w: f64,
}

/// Energy/power results for one device over a run.
#[derive(Debug, Clone)]
pub struct PowerSummary {
    /// Exact per-device energy over the run (joules).
    pub energy_j: f64,
    /// Time-weighted average device power (watts).
    pub avg_power_w: f64,
    /// The underlying step-function trace.
    pub trace: TimeSeries,
    /// Metered samples `(t_seconds, watts)` at the platform sampling rate.
    pub samples: Vec<(f64, f64)>,
    /// Run duration in seconds.
    pub duration_s: f64,
}

/// Builds the power trace and energy summary for a phase schedule.
///
/// Each phase start, each gap before one and the end of the schedule is a
/// breakpoint. Breakpoints are taken in time order, ties in schedule order,
/// so a phase that starts within the 1e-9 s tolerance before the previous
/// end sorts ahead of it.
///
/// # Panics
/// Panics if phases overlap or run backwards in time.
pub fn build_power_trace(spec: &MachineSpec, phases: &[PowerPhase]) -> PowerSummary {
    let idle = spec.power.idle_w;
    let mut breaks = Vec::with_capacity(2 * phases.len() + 1);
    let mut cursor = 0.0f64;
    for phase in phases {
        assert!(
            phase.start_s + 1e-9 >= cursor,
            "phase '{}' starts at {} before previous end {}",
            phase.name,
            phase.start_s,
            cursor
        );
        assert!(phase.duration_s >= 0.0, "negative phase duration");
        // Gap between phases idles the device.
        if phase.start_s > cursor {
            breaks.push((cursor, idle));
        }
        breaks.push((phase.start_s, phase.power_w));
        cursor = phase.start_s + phase.duration_s;
    }
    let duration_s = cursor.max(0.0);
    // Close the trace at idle power.
    breaks.push((duration_s, idle));
    // Stable: equal times (-0.0 and 0.0 among them) keep their schedule
    // order. The asserts above rule out NaN; `push` rejects infinities.
    breaks.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("breakpoint times are not NaN"));
    let mut trace = TimeSeries::default();
    for (t, watts) in breaks {
        trace.push(t, watts);
    }

    let energy_j = trace.integral(0.0, duration_s);
    let avg_power_w = if duration_s > 0.0 {
        energy_j / duration_s
    } else {
        0.0
    };
    let samples = trace.sample(spec.power_sample_interval_s, duration_s);
    PowerSummary {
        energy_j,
        avg_power_w,
        trace,
        samples,
        duration_s,
    }
}

/// Energy accounting for a *fleet* of devices — one phase schedule per
/// replica slot, each replayed through [`build_power_trace`].
///
/// The serving fleet prices every scaling decision in watts: a replica
/// that exists burns at least idle power, so the cheapest fleet that
/// holds the SLO is the one that holds capacity only while the traffic
/// needs it. This summary is how that claim is settled — total joules
/// over the run, per-replica breakdown, and joules per served request.
#[derive(Debug, Clone)]
pub struct FleetPowerSummary {
    /// Exact energy of each replica slot over the run (joules).
    pub replica_energy_j: Vec<f64>,
    /// Total fleet energy (joules).
    pub energy_j: f64,
    /// Time-weighted average fleet power (watts), over the longest
    /// replica schedule.
    pub avg_power_w: f64,
    /// Duration of the longest replica schedule (seconds).
    pub duration_s: f64,
}

impl FleetPowerSummary {
    /// Joules per request for `completed` served requests (infinite when
    /// nothing completed — an idle fleet has no useful work to amortize
    /// its wattage over).
    pub fn joules_per_request(&self, completed: u64) -> f64 {
        if completed == 0 {
            f64::INFINITY
        } else {
            self.energy_j / completed as f64
        }
    }
}

/// Builds per-replica power traces and sums fleet energy.
///
/// Each element of `replicas` is one replica slot's phase schedule.
/// A slot that is offline for part of the run must say so explicitly
/// with 0 W phases — [`build_power_trace`] idles gaps at the machine's
/// idle wattage, which models a powered-but-idle device, not an
/// unprovisioned one.
///
/// # Panics
/// Panics if any replica's phases overlap or run backwards in time.
pub fn fleet_power(spec: &MachineSpec, replicas: &[Vec<PowerPhase>]) -> FleetPowerSummary {
    let summaries: Vec<PowerSummary> = replicas
        .iter()
        .map(|phases| build_power_trace(spec, phases))
        .collect();
    let replica_energy_j: Vec<f64> = summaries.iter().map(|s| s.energy_j).collect();
    let energy_j = replica_energy_j.iter().sum();
    let duration_s = summaries.iter().map(|s| s.duration_s).fold(0.0, f64::max);
    FleetPowerSummary {
        replica_energy_j,
        energy_j,
        avg_power_w: if duration_s > 0.0 {
            energy_j / duration_s
        } else {
            0.0
        },
        duration_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use proptest::prelude::*;

    fn series(points: &[(f64, f64)]) -> TimeSeries {
        let mut ts = TimeSeries::default();
        for &(t, v) in points {
            ts.push(t, v);
        }
        ts
    }

    #[test]
    fn value_at_steps() {
        let ts = series(&[(1.0, 10.0), (3.0, 20.0)]);
        assert_eq!(ts.value_at(0.5), 0.0);
        assert_eq!(ts.value_at(1.0), 10.0);
        assert_eq!(ts.value_at(2.9), 10.0);
        assert_eq!(ts.value_at(3.0), 20.0);
        assert_eq!(ts.value_at(100.0), 20.0);
    }

    #[test]
    fn integral_exact() {
        let ts = series(&[(0.0, 100.0), (10.0, 300.0), (20.0, 50.0)]);
        // [0,10): 100*10 = 1000; [10,20): 300*10 = 3000; [20,30]: 50*10 = 500.
        assert!((ts.integral(0.0, 30.0) - 4500.0).abs() < 1e-9);
        // Partial spans.
        assert!((ts.integral(5.0, 15.0) - (100.0 * 5.0 + 300.0 * 5.0)).abs() < 1e-9);
        assert_eq!(ts.integral(7.0, 7.0), 0.0);
    }

    #[test]
    fn duplicate_time_replaces() {
        let ts = series(&[(1.0, 5.0), (1.0, 9.0)]);
        assert_eq!(ts.points, [(1.0, 9.0)]);
        // -0.0 and 0.0 are the same instant.
        assert_eq!(series(&[(-0.0, 5.0), (0.0, 9.0)]).points, [(0.0, 9.0)]);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn decreasing_time_panics() {
        series(&[(2.0, 1.0), (1.0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_rejected() {
        series(&[(f64::NAN, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn infinite_rejected() {
        series(&[(0.0, 1.0), (f64::INFINITY, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_rejected() {
        series(&[(-1.0, 1.0)]);
    }

    #[test]
    fn sampling_mimics_polling_meter() {
        let ts = series(&[(0.0, 60.0), (2.5, 120.0)]);
        let samples = ts.sample(1.0, 4.0);
        assert_eq!(samples.len(), 5);
        assert_eq!(samples[0], (0.0, 60.0));
        assert_eq!(samples[2], (2.0, 60.0));
        assert_eq!(samples[3], (3.0, 120.0));
    }

    #[test]
    fn empty_series_is_zero_everywhere() {
        let ts = TimeSeries::default();
        assert_eq!(ts.value_at(5.0), 0.0);
        assert_eq!(ts.integral(0.0, 10.0), 0.0);
    }

    proptest! {
        #[test]
        fn integral_is_additive(
            values in proptest::collection::vec(0.0f64..500.0, 1..10),
            split in 0.0f64..100.0
        ) {
            let points: Vec<_> =
                values.iter().enumerate().map(|(i, &v)| (i as f64 * 7.0, v)).collect();
            let ts = series(&points);
            let whole = ts.integral(0.0, 100.0);
            let parts = ts.integral(0.0, split) + ts.integral(split, 100.0);
            prop_assert!((whole - parts).abs() < 1e-6);
        }
    }

    fn phases() -> Vec<PowerPhase> {
        vec![
            PowerPhase {
                name: "load".into(),
                start_s: 0.0,
                duration_s: 100.0,
                power_w: 45.0,
            },
            PowerPhase {
                name: "broadcast".into(),
                start_s: 100.0,
                duration_s: 20.0,
                power_w: 47.0,
            },
            PowerPhase {
                name: "train".into(),
                start_s: 120.0,
                duration_s: 80.0,
                power_w: 170.0,
            },
        ]
    }

    #[test]
    fn energy_is_exact_sum_of_phases() {
        let spec = Machine::Summit.spec();
        let s = build_power_trace(&spec, &phases());
        let expect = 100.0 * 45.0 + 20.0 * 47.0 + 80.0 * 170.0;
        assert!(
            (s.energy_j - expect).abs() < 1e-6,
            "{} vs {expect}",
            s.energy_j
        );
        assert!((s.duration_s - 200.0).abs() < 1e-9);
        assert!((s.avg_power_w - expect / 200.0).abs() < 1e-9);
    }

    fn phase(start_s: f64, duration_s: f64, power_w: f64) -> PowerPhase {
        PowerPhase {
            name: "p".into(),
            start_s,
            duration_s,
            power_w,
        }
    }

    /// The trace's breakpoints as `(seconds, watts)`, and the energy and
    /// duration, of `(start_s, duration_s, power_w)` phases on Summit.
    fn breakpoints(phases: &[(f64, f64, f64)]) -> (Vec<(f64, f64)>, f64, f64) {
        let phases: Vec<_> = phases.iter().map(|&(s, d, w)| phase(s, d, w)).collect();
        let s = build_power_trace(&Machine::Summit.spec(), &phases);
        (s.trace.points, s.energy_j, s.duration_s)
    }

    #[test]
    fn zero_length_phases_pin_their_breakpoints() {
        // Back to back: the later breakpoint at 10 s replaces the blip.
        let (points, energy_j, duration_s) =
            breakpoints(&[(0.0, 10.0, 45.0), (10.0, 0.0, 300.0), (10.0, 5.0, 170.0)]);
        assert_eq!(points, [(0.0, 45.0), (10.0, 170.0), (15.0, 40.0)]);
        assert_eq!((energy_j, duration_s), (1300.0, 15.0));
        // Between gaps: the idle breakpoint of the second gap, scheduled
        // after the blip at the same time, wins.
        let (points, energy_j, duration_s) =
            breakpoints(&[(0.0, 10.0, 45.0), (12.0, 0.0, 300.0), (14.0, 1.0, 170.0)]);
        let expect = [
            (0.0, 45.0),
            (10.0, 40.0),
            (12.0, 40.0),
            (14.0, 170.0),
            (15.0, 40.0),
        ];
        assert_eq!(points, expect);
        assert_eq!((energy_j, duration_s), (780.0, 15.0));
    }

    #[test]
    fn a_phase_inside_the_tolerance_sorts_before_the_previous_end() {
        let (points, energy_j, duration_s) =
            breakpoints(&[(0.0, 10.0, 45.0), (10.0 - 5e-10, 5.0, 170.0)]);
        let expect = [(0.0, 45.0), (9.9999999995, 170.0), (14.9999999995, 40.0)];
        assert_eq!(points, expect);
        assert_eq!((energy_j, duration_s), (1299.9999999775, 14.9999999995));
        // After a zero-length phase the next start precedes that phase's
        // own breakpoint, and so can the end of the schedule.
        let (points, energy_j, duration_s) =
            breakpoints(&[(5.0, 0.0, 300.0), (5.0 - 5e-10, 2.0, 170.0)]);
        let expect = [
            (0.0, 40.0),
            (4.9999999995, 170.0),
            (5.0, 300.0),
            (6.9999999995, 40.0),
        ];
        assert_eq!(points, expect);
        assert_eq!((energy_j, duration_s), (799.999999915, 6.9999999995));
        let (points, energy_j, duration_s) = breakpoints(&[
            (0.0, 3.0, 45.0),
            (3.0, 0.0, 300.0),
            (3.0 - 5e-10, 0.0, 250.0),
        ]);
        assert_eq!(points, [(0.0, 45.0), (2.9999999995, 40.0), (3.0, 300.0)]);
        assert_eq!((energy_j, duration_s), (134.9999999775, 2.9999999995));
    }

    #[test]
    fn sampling_rate_matches_machine() {
        let summit = build_power_trace(&Machine::Summit.spec(), &phases());
        // 1 Hz over 200 s → 201 samples.
        assert_eq!(summit.samples.len(), 201);
        let theta = build_power_trace(&Machine::Theta.spec(), &phases());
        // 2 Hz over 200 s → 401 samples.
        assert_eq!(theta.samples.len(), 401);
    }

    #[test]
    fn samples_reflect_phase_levels() {
        let s = build_power_trace(&Machine::Summit.spec(), &phases());
        let at = |t: f64| {
            s.samples
                .iter()
                .find(|(st, _)| (*st - t).abs() < 1e-9)
                .unwrap()
                .1
        };
        assert_eq!(at(50.0), 45.0);
        assert_eq!(at(110.0), 47.0);
        assert_eq!(at(150.0), 170.0);
    }

    #[test]
    fn gaps_idle_the_device() {
        let spec = Machine::Summit.spec();
        let s = build_power_trace(
            &spec,
            &[
                PowerPhase {
                    name: "a".into(),
                    start_s: 0.0,
                    duration_s: 10.0,
                    power_w: 100.0,
                },
                PowerPhase {
                    name: "b".into(),
                    start_s: 20.0,
                    duration_s: 10.0,
                    power_w: 100.0,
                },
            ],
        );
        let expect = 10.0 * 100.0 + 10.0 * spec.power.idle_w + 10.0 * 100.0;
        assert!((s.energy_j - expect).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "before previous end")]
    fn overlapping_phases_panic() {
        build_power_trace(
            &Machine::Summit.spec(),
            &[
                PowerPhase {
                    name: "a".into(),
                    start_s: 0.0,
                    duration_s: 10.0,
                    power_w: 1.0,
                },
                PowerPhase {
                    name: "b".into(),
                    start_s: 5.0,
                    duration_s: 1.0,
                    power_w: 1.0,
                },
            ],
        );
    }

    #[test]
    fn empty_schedule_is_zero_energy() {
        let s = build_power_trace(&Machine::Summit.spec(), &[]);
        assert_eq!(s.energy_j, 0.0);
        assert_eq!(s.duration_s, 0.0);
    }

    #[test]
    fn fleet_power_sums_replica_energies() {
        let spec = Machine::Summit.spec();
        let serving = |w: f64| {
            vec![PowerPhase {
                name: "serve".into(),
                start_s: 0.0,
                duration_s: 100.0,
                power_w: w,
            }]
        };
        let f = fleet_power(&spec, &[serving(100.0), serving(50.0)]);
        assert_eq!(f.replica_energy_j.len(), 2);
        assert!((f.replica_energy_j[0] - 10_000.0).abs() < 1e-6);
        assert!((f.replica_energy_j[1] - 5_000.0).abs() < 1e-6);
        assert!((f.energy_j - 15_000.0).abs() < 1e-6);
        assert!((f.duration_s - 100.0).abs() < 1e-9);
        assert!((f.avg_power_w - 150.0).abs() < 1e-9);
    }

    #[test]
    fn offline_slots_burn_nothing() {
        let spec = Machine::Summit.spec();
        // Replica 1 exists only for the second half of the run; the
        // first half is explicit 0 W (unprovisioned, not idle).
        let late = vec![
            PowerPhase {
                name: "offline".into(),
                start_s: 0.0,
                duration_s: 50.0,
                power_w: 0.0,
            },
            PowerPhase {
                name: "serve".into(),
                start_s: 50.0,
                duration_s: 50.0,
                power_w: 100.0,
            },
        ];
        let f = fleet_power(&spec, &[late]);
        assert!((f.energy_j - 5_000.0).abs() < 1e-6);
    }

    #[test]
    fn joules_per_request_amortizes_or_diverges() {
        let spec = Machine::Summit.spec();
        let f = fleet_power(
            &spec,
            &[vec![PowerPhase {
                name: "serve".into(),
                start_s: 0.0,
                duration_s: 10.0,
                power_w: 100.0,
            }]],
        );
        assert!((f.joules_per_request(1000) - 1.0).abs() < 1e-9);
        assert!(f.joules_per_request(0).is_infinite());
    }

    #[test]
    fn empty_fleet_is_zero() {
        let f = fleet_power(&Machine::Summit.spec(), &[]);
        assert_eq!(f.energy_j, 0.0);
        assert_eq!(f.duration_s, 0.0);
        assert_eq!(f.avg_power_w, 0.0);
    }
}
