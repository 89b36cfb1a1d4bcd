//! SLO-driven autoscaling with hysteresis and cooldown.
//!
//! The control loop samples a [`ControlSignal`] once per control interval
//! (windowed p99 over the last N seconds, total queued work, utilization)
//! and decides whether to add or remove replicas:
//!
//! * **scale out** when the rolling p99 breaches the SLO threshold or the
//!   backlog exceeds `queue_high_per_replica` per active replica;
//! * **scale in** only after `idle_intervals` *consecutive* calm
//!   intervals (low utilization **and** p99 comfortably under SLO) — the
//!   asymmetric thresholds plus the calm-streak requirement are the
//!   hysteresis band that keeps the fleet from flapping;
//! * a **cooldown** suppresses any action within `cooldown_s` of the
//!   previous one, so the loop acts on the *consequences* of its last
//!   decision rather than on the stale window that preceded it.
//!
//! Every decision is priced: the autoscaler is constructed with the
//! marginal power draw of one replica and stamps each [`ScaleDecision`]
//! with the watts it adds or sheds, so the scaling log doubles as an
//! energy ledger.

/// Tuning knobs for the autoscaling control loop.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoscaleConfig {
    /// Never drop below this many replicas.
    pub min_replicas: usize,
    /// Never grow beyond this many replicas.
    pub max_replicas: usize,
    /// The latency objective: windowed p99 must stay at or under this.
    pub slo_p99_s: f64,
    /// Scale out when windowed p99 exceeds `scale_out_frac · slo_p99_s`.
    /// Values below 1.0 act *before* the SLO is formally violated.
    pub scale_out_frac: f64,
    /// Scale out when total queued requests exceed this many per active
    /// replica (a backlog signal that fires before latency does).
    pub queue_high_per_replica: usize,
    /// A calm interval requires utilization at or below this fraction.
    pub scale_in_util: f64,
    /// A calm interval requires windowed p99 at or below
    /// `scale_in_p99_frac · slo_p99_s`. Keep well under `scale_out_frac`
    /// — the gap between the two is the hysteresis band.
    pub scale_in_p99_frac: f64,
    /// Consecutive calm control intervals required before scaling in.
    pub idle_intervals: u32,
    /// Minimum seconds between any two scaling actions.
    pub cooldown_s: f64,
    /// Replicas added per scale-out action.
    pub step_out: usize,
    /// Replicas removed per scale-in action.
    pub step_in: usize,
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        AutoscaleConfig {
            min_replicas: 1,
            max_replicas: 16,
            slo_p99_s: 0.050,
            scale_out_frac: 0.9,
            queue_high_per_replica: 64,
            scale_in_util: 0.35,
            scale_in_p99_frac: 0.4,
            idle_intervals: 4,
            cooldown_s: 10.0,
            step_out: 2,
            step_in: 1,
        }
    }
}

/// One control-interval observation of the fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlSignal {
    /// Observation time, seconds from trace start.
    pub now_s: f64,
    /// Rolling p99 latency over the stats window, seconds. Meaningless
    /// when `samples == 0`.
    pub p99_s: f64,
    /// Completed requests inside the stats window backing `p99_s`.
    pub samples: u64,
    /// Residual backlog at decision time (admitted, not yet served).
    pub queued: usize,
    /// Largest instantaneous backlog observed during the interval. The
    /// scale-out trigger watches this — a saturated fleet can drain its
    /// residual queue right at the interval boundary while requests
    /// queued heavily the whole interval through.
    pub queued_peak: usize,
    /// Replicas currently active or warming.
    pub active_replicas: usize,
    /// Mean fraction of the last control interval the active replicas
    /// spent serving batches, in `[0, 1]`.
    pub utilization: f64,
}

/// Why the autoscaler acted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleReason {
    /// Rolling p99 breached `scale_out_frac · slo_p99_s`.
    P99Breach,
    /// Backlog exceeded `queue_high_per_replica` per active replica.
    QueueDepth,
    /// `idle_intervals` consecutive calm intervals.
    SustainedIdle,
}

impl ScaleReason {
    /// Short stable token for logs and fingerprints.
    pub fn token(&self) -> &'static str {
        match self {
            ScaleReason::P99Breach => "p99",
            ScaleReason::QueueDepth => "queue",
            ScaleReason::SustainedIdle => "idle",
        }
    }
}

/// One entry of the scaling-decision log.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleDecision {
    /// Decision time, seconds from trace start.
    pub at_s: f64,
    /// Replica count before the action.
    pub from: usize,
    /// Replica count after the action.
    pub to: usize,
    /// What triggered the action.
    pub reason: ScaleReason,
    /// The windowed p99 that informed the decision, milliseconds.
    pub p99_ms: f64,
    /// Fleet backlog at decision time.
    pub queued: usize,
    /// Utilization at decision time.
    pub utilization: f64,
    /// Power added (positive, scale out) or shed (negative, scale in)
    /// by this action, watts.
    pub marginal_watts: f64,
}

/// The autoscaling control loop (state machine over [`ControlSignal`]s).
#[derive(Debug, Clone)]
pub struct Autoscaler {
    config: AutoscaleConfig,
    /// Marginal steady-state draw of one active replica, watts.
    replica_watts: f64,
    last_action_s: f64,
    idle_streak: u32,
}

impl Autoscaler {
    /// `replica_watts` prices each decision: the steady-state draw one
    /// replica adds when active (e.g. `compute_w - idle_w` headroom, or
    /// the full device budget when scaled-in replicas power off).
    pub fn new(config: AutoscaleConfig, replica_watts: f64) -> Self {
        assert!(config.min_replicas >= 1, "fleet needs at least 1 replica");
        assert!(
            config.max_replicas >= config.min_replicas,
            "max_replicas < min_replicas"
        );
        assert!(
            config.scale_in_p99_frac < config.scale_out_frac,
            "hysteresis band is inverted: scale_in_p99_frac must sit below scale_out_frac"
        );
        assert!(config.step_out >= 1 && config.step_in >= 1);
        Autoscaler {
            config,
            replica_watts,
            last_action_s: f64::NEG_INFINITY,
            idle_streak: 0,
        }
    }

    /// The configuration this loop runs under.
    pub fn config(&self) -> &AutoscaleConfig {
        &self.config
    }

    /// Consume one control-interval observation; return the action taken,
    /// if any. Pure state machine: identical signal sequences produce
    /// identical decision sequences.
    pub fn decide(&mut self, sig: &ControlSignal) -> Option<ScaleDecision> {
        let c = &self.config;
        let hot_p99 = sig.samples > 0 && sig.p99_s > c.scale_out_frac * c.slo_p99_s;
        let hot_queue = sig.queued_peak > c.queue_high_per_replica * sig.active_replicas.max(1);
        let calm = sig.utilization <= c.scale_in_util
            && sig.queued <= sig.active_replicas
            && (sig.samples == 0 || sig.p99_s <= c.scale_in_p99_frac * c.slo_p99_s);

        // The calm streak resets on any non-calm interval — hysteresis.
        if calm {
            self.idle_streak = self.idle_streak.saturating_add(1);
        } else {
            self.idle_streak = 0;
        }

        if sig.now_s - self.last_action_s < c.cooldown_s {
            return None;
        }

        if (hot_p99 || hot_queue) && sig.active_replicas < c.max_replicas {
            let to = (sig.active_replicas + c.step_out).min(c.max_replicas);
            self.last_action_s = sig.now_s;
            self.idle_streak = 0;
            return Some(self.stamp(
                sig,
                to,
                if hot_p99 {
                    ScaleReason::P99Breach
                } else {
                    ScaleReason::QueueDepth
                },
            ));
        }

        if self.idle_streak >= c.idle_intervals && sig.active_replicas > c.min_replicas {
            let to = sig
                .active_replicas
                .saturating_sub(c.step_in)
                .max(c.min_replicas);
            self.last_action_s = sig.now_s;
            self.idle_streak = 0;
            return Some(self.stamp(sig, to, ScaleReason::SustainedIdle));
        }

        None
    }

    fn stamp(&self, sig: &ControlSignal, to: usize, reason: ScaleReason) -> ScaleDecision {
        ScaleDecision {
            at_s: sig.now_s,
            from: sig.active_replicas,
            to,
            reason,
            p99_ms: if sig.samples > 0 {
                sig.p99_s * 1e3
            } else {
                0.0
            },
            queued: sig.queued.max(sig.queued_peak),
            utilization: sig.utilization,
            marginal_watts: (to as f64 - sig.active_replicas as f64) * self.replica_watts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> AutoscaleConfig {
        AutoscaleConfig {
            min_replicas: 2,
            max_replicas: 8,
            slo_p99_s: 0.050,
            cooldown_s: 10.0,
            idle_intervals: 3,
            ..AutoscaleConfig::default()
        }
    }

    fn sig(now_s: f64, p99_ms: f64, queued: usize, active: usize, util: f64) -> ControlSignal {
        ControlSignal {
            now_s,
            p99_s: p99_ms / 1e3,
            samples: 100,
            queued,
            queued_peak: queued,
            active_replicas: active,
            utilization: util,
        }
    }

    #[test]
    fn p99_breach_scales_out_and_prices_it() {
        let mut a = Autoscaler::new(config(), 140.0);
        let d = a.decide(&sig(20.0, 60.0, 10, 2, 0.9)).expect("breach");
        assert_eq!((d.from, d.to), (2, 4));
        assert_eq!(d.reason, ScaleReason::P99Breach);
        assert!((d.marginal_watts - 280.0).abs() < 1e-9);
    }

    #[test]
    fn queue_depth_scales_out_before_latency_moves() {
        let mut a = Autoscaler::new(config(), 140.0);
        // p99 healthy but 200 queued over 2 replicas > 64 each.
        let d = a.decide(&sig(20.0, 10.0, 200, 2, 0.9)).expect("backlog");
        assert_eq!(d.reason, ScaleReason::QueueDepth);
    }

    #[test]
    fn cooldown_suppresses_back_to_back_actions() {
        let mut a = Autoscaler::new(config(), 140.0);
        assert!(a.decide(&sig(20.0, 60.0, 10, 2, 0.9)).is_some());
        // Still breaching 1 s later: cooldown holds the loop.
        assert!(a.decide(&sig(21.0, 60.0, 10, 4, 0.9)).is_none());
        // Past cooldown the breach may act again.
        assert!(a.decide(&sig(31.0, 60.0, 10, 4, 0.9)).is_some());
    }

    #[test]
    fn scale_in_requires_a_sustained_calm_streak() {
        let mut a = Autoscaler::new(config(), 140.0);
        // Two calm intervals, one busy blip, two more calm: no action —
        // the blip reset the streak.
        assert!(a.decide(&sig(10.0, 5.0, 0, 4, 0.1)).is_none());
        assert!(a.decide(&sig(15.0, 5.0, 0, 4, 0.1)).is_none());
        assert!(a.decide(&sig(20.0, 5.0, 0, 4, 0.9)).is_none()); // busy blip
        assert!(a.decide(&sig(25.0, 5.0, 0, 4, 0.1)).is_none());
        assert!(a.decide(&sig(30.0, 5.0, 0, 4, 0.1)).is_none());
        // Third consecutive calm interval: scale in by step_in.
        let d = a
            .decide(&sig(35.0, 5.0, 0, 4, 0.1))
            .expect("sustained idle");
        assert_eq!((d.from, d.to), (4, 3));
        assert_eq!(d.reason, ScaleReason::SustainedIdle);
        assert!((d.marginal_watts + 140.0).abs() < 1e-9);
    }

    #[test]
    fn hysteresis_band_holds_steady_load_without_flapping() {
        // Mid-band signal: p99 between the in/out thresholds, moderate
        // utilization. The loop must never act, in either direction.
        let mut a = Autoscaler::new(config(), 140.0);
        for i in 0..100 {
            let d = a.decide(&sig(i as f64 * 5.0, 30.0, 8, 4, 0.6));
            assert!(d.is_none(), "flapped at interval {i}: {d:?}");
        }
    }

    #[test]
    fn respects_min_and_max_bounds() {
        let mut a = Autoscaler::new(config(), 140.0);
        // At max: breach cannot grow the fleet.
        assert!(a.decide(&sig(20.0, 60.0, 10, 8, 0.9)).is_none());
        // At min: calm streak cannot shrink it.
        let mut b = Autoscaler::new(config(), 140.0);
        for i in 0..10 {
            assert!(b.decide(&sig(i as f64 * 20.0, 1.0, 0, 2, 0.0)).is_none());
        }
        // Near max: step_out clamps to the ceiling.
        let mut c = Autoscaler::new(config(), 140.0);
        let d = c.decide(&sig(20.0, 60.0, 10, 7, 0.9)).unwrap();
        assert_eq!(d.to, 8);
    }

    #[test]
    fn empty_window_never_scales_out_on_latency() {
        // No samples: p99 is meaningless and must not trigger P99Breach.
        let mut a = Autoscaler::new(config(), 140.0);
        let mut s = sig(20.0, 999.0, 0, 2, 0.0);
        s.samples = 0;
        assert!(a.decide(&s).is_none());
    }

    #[test]
    #[should_panic(expected = "hysteresis band is inverted")]
    fn inverted_band_is_rejected() {
        let mut c = config();
        c.scale_in_p99_frac = 0.95;
        c.scale_out_frac = 0.9;
        let _ = Autoscaler::new(c, 140.0);
    }
}
