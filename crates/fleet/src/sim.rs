//! Deterministic virtual-time fleet simulation.
//!
//! Wall-clock latencies can never be bit-identical across runs, so the
//! fleet runs its router, autoscaler, and admission policy on *virtual*
//! time — a modelled batch server per replica, discrete ticks, and
//! windowed virtual-time SLO statistics. Everything downstream of the seeded trace
//! is pure arithmetic, so a run is a function of its config alone:
//! identical configs produce bit-identical scaling-decision logs and
//! request-outcome fingerprints at any thread count (per-replica advance
//! parallelises over replicas; each replica's evolution depends only on
//! its own queue).
//!
//! Every scaling decision is priced in watts and the report carries
//! joules-per-request: replica power schedules (offline 0 W → warming at
//! `data_load_w` → active at `busy·compute_w + (1−busy)·idle_w`) feed
//! [`cluster::fleet_power`], the same calibrated power model the training
//! simulations use.

use std::collections::VecDeque;
use std::time::Duration;

use cluster::{fleet_power, Machine, MachineSpec, PowerPhase};
use obs::{LatencySummary, LogHistogram, PhaseProfiler, WindowedHistogram};
use xrng::derive_seed;

use crate::autoscale::{AutoscaleConfig, Autoscaler, ControlSignal, ScaleDecision};
use crate::router::{Router, RouterPolicy};
use crate::trace::TraceConfig;

/// Modelled batched inference cost of one replica.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceModel {
    /// Fixed cost per forward pass (kernel launch, batcher overhead).
    pub batch_base_s: f64,
    /// Marginal cost per request in the batch.
    pub batch_per_row_s: f64,
    /// Largest batch one forward pass coalesces.
    pub max_batch: usize,
}

impl ServiceModel {
    /// Service time of one batch of `rows` requests.
    pub fn batch_seconds(&self, rows: usize) -> f64 {
        self.batch_base_s + rows as f64 * self.batch_per_row_s
    }

    /// Sustained per-replica throughput at full batches, requests/s.
    pub fn peak_rps(&self) -> f64 {
        self.max_batch as f64 / self.batch_seconds(self.max_batch)
    }

    /// Amortised seconds of server time one queued request represents.
    pub fn amortized_row_s(&self) -> f64 {
        self.batch_seconds(self.max_batch) / self.max_batch as f64
    }
}

/// How the fleet decides its replica count.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalePolicy {
    /// A fixed fleet of `n` replicas for the whole trace (baseline).
    Fixed(usize),
    /// The SLO-driven autoscaling control loop.
    Auto(AutoscaleConfig),
}

/// Full configuration of one simulated fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimFleetConfig {
    /// The arrival trace.
    pub trace: TraceConfig,
    /// Per-replica service cost model.
    pub service: ServiceModel,
    /// Request routing policy.
    pub router: RouterPolicy,
    /// Fixed or autoscaled replica count.
    pub scaling: ScalePolicy,
    /// The latency objective reported against (for [`ScalePolicy::Auto`]
    /// keep it equal to the autoscaler's own `slo_p99_s`).
    pub slo_p99_s: f64,
    /// Hard per-replica queue bound; routing a request to a full replica
    /// rejects it as `Overloaded`.
    pub queue_capacity: usize,
    /// Admission control: shed an arrival when the estimated fleet drain
    /// time of the current backlog exceeds `shed_wait_frac · slo_p99_s`.
    /// `f64::INFINITY` disables proactive shedding (hard queue overflow
    /// still rejects).
    pub shed_wait_frac: f64,
    /// Seconds between autoscaler control decisions (and power-accounting
    /// segments).
    pub control_interval_s: f64,
    /// Rolling window backing the control loop's p99, seconds.
    pub stats_window_s: f64,
    /// Simulation tick: arrivals are admitted and replicas advanced at
    /// this granularity. Keep well under `control_interval_s`.
    pub tick_s: f64,
    /// Seconds between a scale-out decision and the new replica serving
    /// its first batch (it queues work while warming).
    pub provision_delay_s: f64,
    /// Platform whose power states price the fleet.
    pub machine: Machine,
    /// Worker threads for the per-replica advance. Any value produces
    /// bit-identical results; it only changes wall-clock time.
    pub threads: usize,
}

/// What happened to each request (fingerprint codes).
const SERVED: u64 = 1;
const SHED: u64 = 2;
const OVERLOADED: u64 = 3;

/// Report of one simulated fleet run.
#[derive(Debug, Clone)]
pub struct FleetSimReport {
    /// Requests offered by the trace.
    pub offered: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// Requests shed proactively by admission control.
    pub shed: u64,
    /// Requests rejected on a full replica queue.
    pub overloaded: u64,
    /// Completed requests that met the SLO.
    pub within_slo: u64,
    /// End-to-end latency of completed requests.
    pub latency: LatencySummary,
    /// Largest rolling-window p99 observed at any control interval — the
    /// "did the fleet ever violate the SLO" statistic.
    pub worst_window_p99_s: f64,
    /// Control intervals whose windowed p99 exceeded the SLO.
    pub slo_violation_intervals: u64,
    /// Total control intervals evaluated.
    pub control_intervals: u64,
    /// The scaling-decision log (empty for [`ScalePolicy::Fixed`]).
    pub decisions: Vec<ScaleDecision>,
    /// Largest concurrently-routable replica count.
    pub peak_replicas: usize,
    /// Integral of provisioned replicas over time, replica·seconds.
    pub replica_seconds: f64,
    /// Virtual duration of the run (trace plus drain), seconds.
    pub duration_s: f64,
    /// Total fleet energy from the calibrated power model, joules.
    pub energy_j: f64,
    /// Mean fleet power over the run, watts.
    pub avg_power_w: f64,
    /// `energy_j / completed`.
    pub joules_per_request: f64,
    /// Order-independent digest over every request outcome.
    pub outcome_fingerprint: u64,
    /// Ordered digest over the scaling-decision log.
    pub decision_fingerprint: u64,
    /// Phase profiler report covering scale events.
    pub profile: String,
}

impl FleetSimReport {
    /// Fraction of completed requests that met the SLO.
    pub fn slo_attainment(&self) -> f64 {
        if self.completed == 0 {
            return 1.0;
        }
        self.within_slo as f64 / self.completed as f64
    }

    /// Fraction of offered requests rejected (shed + overloaded).
    pub fn rejection_rate(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        (self.shed + self.overloaded) as f64 / self.offered as f64
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReplicaState {
    /// Accepts routed requests (serving, or warming towards `ready_at_s`).
    Routable,
    /// Excluded from routing; finishing its queue before going offline.
    Draining,
    /// Decommissioned: 0 W, no queue.
    Offline,
}

#[derive(Debug)]
struct SimReplica {
    queue: VecDeque<Queued>,
    state: ReplicaState,
    /// Provision time (0 W before this).
    online_at_s: f64,
    /// First instant the replica can start a batch.
    ready_at_s: f64,
    /// Server clock: when the replica finishes its current batch.
    free_at_s: f64,
    /// Decommission time (0 W after this; `None` while provisioned).
    offline_at_s: Option<f64>,
    /// When draining started (for the profiler span).
    drain_started_s: f64,
    /// Batch-service seconds attributed to the current control interval.
    busy_in_interval_s: f64,
    /// Power schedule accumulated over the run.
    phases: Vec<PowerPhase>,
}

impl SimReplica {
    fn provisioned(online_at_s: f64, ready_at_s: f64) -> Self {
        let mut phases = Vec::new();
        // A replica born mid-run must declare the time before its birth
        // as explicit 0 W: the power-trace builder gap-fills at idle
        // wattage, which would charge phantom idle energy to a device
        // that did not exist yet.
        if online_at_s > 0.0 {
            phases.push(PowerPhase {
                name: "offline".into(),
                start_s: 0.0,
                duration_s: online_at_s,
                power_w: 0.0,
            });
        }
        SimReplica {
            queue: VecDeque::new(),
            state: ReplicaState::Routable,
            online_at_s,
            ready_at_s,
            free_at_s: ready_at_s,
            offline_at_s: None,
            drain_started_s: 0.0,
            busy_in_interval_s: 0.0,
            phases,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Queued {
    index: u64,
    arrival_s: f64,
}

#[derive(Debug, Clone, Copy)]
struct Done {
    index: u64,
    done_s: f64,
    latency_s: f64,
}

/// Advance one replica's batch server to `tick_end`. Pure in the replica's
/// own state — the parallel-over-replicas call cannot change its result.
fn advance_replica(r: &mut SimReplica, tick_end: f64, service: &ServiceModel) -> Vec<Done> {
    let mut out = Vec::new();
    if r.state == ReplicaState::Offline {
        return out;
    }
    while let Some(front) = r.queue.front() {
        let start = r.free_at_s.max(front.arrival_s);
        if start >= tick_end {
            break;
        }
        let mut rows = 0usize;
        let mut batch = [Queued {
            index: 0,
            arrival_s: 0.0,
        }; 64];
        while rows < service.max_batch.min(64) {
            match r.queue.front() {
                Some(q) if q.arrival_s <= start => {
                    batch[rows] = *q;
                    r.queue.pop_front();
                    rows += 1;
                }
                _ => break,
            }
        }
        let dur = service.batch_seconds(rows);
        let done = start + dur;
        r.busy_in_interval_s += dur;
        for q in &batch[..rows] {
            out.push(Done {
                index: q.index,
                done_s: done,
                latency_s: done - q.arrival_s,
            });
        }
        r.free_at_s = done;
    }
    out
}

struct SimState {
    config: SimFleetConfig,
    spec: MachineSpec,
    replicas: Vec<SimReplica>,
    router: Router,
    autoscaler: Option<Autoscaler>,
    windowed: WindowedHistogram,
    cumulative: LogHistogram,
    completed: u64,
    within_slo: u64,
    shed: u64,
    overloaded: u64,
    offered: u64,
    outcome_fp: u64,
    decisions: Vec<ScaleDecision>,
    worst_window_p99_s: f64,
    slo_violation_intervals: u64,
    control_intervals: u64,
    peak_replicas: usize,
    /// Largest instantaneous backlog seen since the last control tick.
    queued_peak: usize,
    profiler: PhaseProfiler,
    done_scratch: Vec<Vec<Done>>,
}

impl SimState {
    fn new(config: SimFleetConfig) -> Self {
        assert!(config.threads >= 1, "threads must be >= 1");
        assert!(config.tick_s > 0.0 && config.control_interval_s >= config.tick_s);
        assert!(
            (1..=64).contains(&config.service.max_batch),
            "max_batch must be in 1..=64"
        );
        let spec = config.machine.spec();
        let initial = match &config.scaling {
            ScalePolicy::Fixed(n) => {
                assert!(*n >= 1, "fixed fleet needs at least 1 replica");
                *n
            }
            ScalePolicy::Auto(c) => c.min_replicas,
        };
        let autoscaler = match &config.scaling {
            ScalePolicy::Fixed(_) => None,
            // Price each replica at its full compute budget: scaled-in
            // replicas power off entirely in this model.
            ScalePolicy::Auto(c) => Some(Autoscaler::new(c.clone(), spec.power.compute_w)),
        };
        let replicas = (0..initial)
            .map(|_| SimReplica::provisioned(0.0, 0.0))
            .collect();
        SimState {
            router: Router::new(config.router, derive_seed(config.trace.seed, 0x666c_6565)),
            windowed: WindowedHistogram::for_latency_seconds(config.stats_window_s),
            cumulative: LogHistogram::for_latency_seconds(),
            spec,
            config,
            replicas,
            autoscaler,
            completed: 0,
            within_slo: 0,
            shed: 0,
            overloaded: 0,
            offered: 0,
            outcome_fp: 0,
            decisions: Vec::new(),
            worst_window_p99_s: 0.0,
            slo_violation_intervals: 0,
            control_intervals: 0,
            peak_replicas: initial,
            queued_peak: 0,
            profiler: PhaseProfiler::new(),
            done_scratch: Vec::new(),
        }
    }

    /// Commutative outcome digest: order of accumulation cannot matter.
    fn stamp_outcome(&mut self, index: u64, code: u64, latency_bits: u64) {
        self.outcome_fp = self
            .outcome_fp
            .wrapping_add(derive_seed(derive_seed(index, code), latency_bits));
    }

    fn routable_count(&self) -> usize {
        self.replicas
            .iter()
            .filter(|r| r.state == ReplicaState::Routable)
            .count()
    }

    fn fleet_backlog(&self) -> usize {
        self.replicas
            .iter()
            .filter(|r| r.state != ReplicaState::Offline)
            .map(|r| r.queue.len())
            .sum()
    }

    /// Admission + routing for one arrival, in arrival order.
    fn admit(&mut self, index: u64, arrival_s: f64, scratch: &mut AdmitScratch) {
        self.offered += 1;
        scratch.routable.clear();
        scratch.depths.clear();
        let mut ready = 0usize;
        let mut backlog = 0usize;
        // Route to *ready* replicas only: a warming replica cannot serve
        // until `ready_at_s`, so queueing on it bakes the whole provision
        // delay into every routed request's latency.
        for (i, r) in self.replicas.iter().enumerate() {
            if r.state == ReplicaState::Offline {
                continue;
            }
            backlog += r.queue.len();
            if r.state == ReplicaState::Routable && r.ready_at_s <= arrival_s {
                scratch.routable.push(i);
                scratch.depths.push(r.queue.len());
                ready += 1;
            }
        }
        if scratch.routable.is_empty() {
            // Nothing ready (every routable replica still warming): fall
            // back to queueing on warming replicas rather than rejecting.
            for (i, r) in self.replicas.iter().enumerate() {
                if r.state == ReplicaState::Routable {
                    scratch.routable.push(i);
                    scratch.depths.push(r.queue.len());
                }
            }
        }
        if scratch.routable.is_empty() {
            self.stamp_outcome(index, OVERLOADED, 0);
            self.overloaded += 1;
            return;
        }
        // Shed before SLO collapse: estimate how long the present backlog
        // takes the *ready* replicas to drain. Warming replicas accept no
        // traffic and add no drain rate yet, so counting them would admit
        // requests destined to blow the SLO during every scale-out.
        let drain_rate = ready.max(1) as f64 / self.config.service.amortized_row_s();
        let est_wait_s = backlog as f64 / drain_rate;
        if est_wait_s > self.config.shed_wait_frac * self.config.slo_p99_s {
            self.stamp_outcome(index, SHED, 0);
            self.shed += 1;
            return;
        }
        let pick = self
            .router
            .pick(index, &scratch.depths)
            .expect("non-empty routable set");
        let target = scratch.routable[pick];
        if self.replicas[target].queue.len() >= self.config.queue_capacity {
            self.stamp_outcome(index, OVERLOADED, 0);
            self.overloaded += 1;
            return;
        }
        self.replicas[target]
            .queue
            .push_back(Queued { index, arrival_s });
    }

    /// Parallel per-replica advance; completions merged in replica order.
    fn advance_all(&mut self, tick_end: f64) {
        let n = self.replicas.len();
        let threads = self.config.threads;
        self.done_scratch.clear();
        self.done_scratch.resize_with(n, Vec::new);
        let service = self.config.service;
        // Each replica advances alone, so how they are grouped into at most
        // `threads` chunks cannot change a bit; one chunk runs inline.
        let per_chunk = n.div_ceil(threads).max(1);
        let chunks = self
            .replicas
            .chunks_mut(per_chunk)
            .zip(self.done_scratch.chunks_mut(per_chunk));
        parx::parallel_each(chunks, |_, (reps, outs)| {
            for (r, out) in reps.iter_mut().zip(outs) {
                *out = advance_replica(r, tick_end, &service);
            }
        });
        // Merge in replica order. Histogram contents are additive, so the
        // record order cannot change them; iterating in a fixed order
        // keeps the loop itself deterministic too.
        let mut done_scratch = std::mem::take(&mut self.done_scratch);
        for dones in &done_scratch {
            for d in dones {
                self.windowed.record(d.done_s, d.latency_s);
                self.cumulative.record(d.latency_s);
                self.completed += 1;
                if d.latency_s <= self.config.slo_p99_s {
                    self.within_slo += 1;
                }
                self.stamp_outcome(d.index, SERVED, d.latency_s.to_bits());
            }
        }
        done_scratch.clear();
        self.done_scratch = done_scratch;
        // Draining replicas with empty queues finish their drain.
        for r in &mut self.replicas {
            if r.state == ReplicaState::Draining && r.queue.is_empty() && r.free_at_s <= tick_end {
                r.state = ReplicaState::Offline;
                let off = r.free_at_s.max(r.drain_started_s);
                r.offline_at_s = Some(off);
                self.profiler.record(
                    "scale-in drain",
                    Duration::from_secs_f64((off - r.drain_started_s).max(0.0)),
                );
            }
        }
    }

    /// Emit the power phases of one control interval `[t0, t1)`.
    fn emit_power(&mut self, t0: f64, t1: f64) {
        let power = self.spec.power;
        for r in &mut self.replicas {
            // A replica born at this interval's end (the control step
            // runs just before power emission) has no span here; its
            // prepended 0 W phase already covers `[0, t1)`.
            if r.online_at_s >= t1 {
                continue;
            }
            let online = r.online_at_s.max(t0).min(t1);
            let offline = r.offline_at_s.unwrap_or(f64::INFINITY).max(t0).min(t1);
            // [t0, online): not yet provisioned — explicitly 0 W so the
            // trace builder cannot gap-fill the slot at idle draw.
            if online > t0 {
                r.phases.push(PowerPhase {
                    name: "offline".into(),
                    start_s: t0,
                    duration_s: online - t0,
                    power_w: 0.0,
                });
            }
            // [online, ready): warming — data loading / model broadcast.
            let ready = r.ready_at_s.clamp(online, offline);
            if ready > online {
                r.phases.push(PowerPhase {
                    name: "warming".into(),
                    start_s: online,
                    duration_s: ready - online,
                    power_w: power.data_load_w,
                });
            }
            // [ready, offline): active — blend compute and idle draw by
            // the fraction of the span spent serving batches. Equivalent
            // in energy to segmenting each batch exactly.
            if offline > ready {
                let span = offline - ready;
                let busy = (r.busy_in_interval_s / span).clamp(0.0, 1.0);
                r.phases.push(PowerPhase {
                    name: "serving".into(),
                    start_s: ready,
                    duration_s: span,
                    power_w: busy * power.compute_w + (1.0 - busy) * power.idle_w,
                });
            }
            // [offline, t1): decommissioned.
            if t1 > offline {
                r.phases.push(PowerPhase {
                    name: "offline".into(),
                    start_s: offline,
                    duration_s: t1 - offline,
                    power_w: 0.0,
                });
            }
            r.busy_in_interval_s = 0.0;
        }
    }

    /// Control decision at interval end `now`; returns utilization used.
    fn control(&mut self, now: f64, interval_s: f64) {
        let active = self.routable_count();
        let busy: f64 = self
            .replicas
            .iter()
            .filter(|r| r.state == ReplicaState::Routable)
            .map(|r| r.busy_in_interval_s)
            .sum();
        let utilization = (busy / (active.max(1) as f64 * interval_s)).clamp(0.0, 1.0);
        let snap = self.windowed.snapshot(now);
        let samples = snap.count();
        let p99_s = if samples > 0 {
            snap.quantile(0.99)
        } else {
            0.0
        };
        self.control_intervals += 1;
        if samples > 0 {
            if p99_s > self.worst_window_p99_s {
                self.worst_window_p99_s = p99_s;
            }
            if p99_s > self.config.slo_p99_s {
                self.slo_violation_intervals += 1;
            }
        }
        let queued = self.fleet_backlog();
        let queued_peak = self.queued_peak.max(queued);
        self.queued_peak = 0;
        let Some(autoscaler) = self.autoscaler.as_mut() else {
            return;
        };
        let signal = ControlSignal {
            now_s: now,
            p99_s,
            samples,
            queued,
            queued_peak,
            active_replicas: active,
            utilization,
        };
        let Some(decision) = autoscaler.decide(&signal) else {
            return;
        };
        if decision.to > decision.from {
            let added = decision.to - decision.from;
            for _ in 0..added {
                self.replicas.push(SimReplica::provisioned(
                    now,
                    now + self.config.provision_delay_s,
                ));
            }
            self.profiler.record_n(
                "scale-out warmup",
                Duration::from_secs_f64(self.config.provision_delay_s * added as f64),
                added as u64,
            );
            self.peak_replicas = self.peak_replicas.max(self.routable_count());
        } else {
            // Retire the highest-index routable replicas (deterministic
            // choice); they drain their queues before powering off.
            let mut to_drain = decision.from - decision.to;
            for i in (0..self.replicas.len()).rev() {
                if to_drain == 0 {
                    break;
                }
                if self.replicas[i].state == ReplicaState::Routable {
                    self.replicas[i].state = ReplicaState::Draining;
                    self.replicas[i].drain_started_s = now;
                    to_drain -= 1;
                }
            }
        }
        self.decisions.push(decision);
    }

    fn finish(mut self, end_s: f64) -> FleetSimReport {
        // Anything still provisioned powers off with the fleet.
        for r in &mut self.replicas {
            if r.offline_at_s.is_none() {
                r.offline_at_s = Some(end_s);
            }
        }
        let replica_seconds: f64 = self
            .replicas
            .iter()
            .map(|r| (r.offline_at_s.unwrap_or(end_s) - r.online_at_s).max(0.0))
            .sum();
        let schedules: Vec<Vec<PowerPhase>> = self
            .replicas
            .iter_mut()
            .map(|r| std::mem::take(&mut r.phases))
            .collect();
        let power = fleet_power(&self.spec, &schedules);
        let mut decision_fp = 0x6a6f_756c_6573u64; // "joules"
        for d in &self.decisions {
            decision_fp = derive_seed(decision_fp, d.at_s.to_bits());
            decision_fp = derive_seed(decision_fp, ((d.from as u64) << 32) | d.to as u64);
            decision_fp = derive_seed(decision_fp, d.reason.token().len() as u64 ^ d.queued as u64);
            decision_fp = derive_seed(decision_fp, d.marginal_watts.to_bits());
        }
        FleetSimReport {
            offered: self.offered,
            completed: self.completed,
            shed: self.shed,
            overloaded: self.overloaded,
            within_slo: self.within_slo,
            latency: LatencySummary::from_histogram(&self.cumulative),
            worst_window_p99_s: self.worst_window_p99_s,
            slo_violation_intervals: self.slo_violation_intervals,
            control_intervals: self.control_intervals,
            decisions: self.decisions,
            peak_replicas: self.peak_replicas,
            replica_seconds,
            duration_s: end_s,
            energy_j: power.energy_j,
            avg_power_w: power.avg_power_w,
            joules_per_request: power.joules_per_request(self.completed),
            outcome_fingerprint: self.outcome_fp,
            decision_fingerprint: decision_fp,
            profile: self.profiler.report(),
        }
    }
}

#[derive(Default)]
struct AdmitScratch {
    routable: Vec<usize>,
    depths: Vec<usize>,
}

/// Run one simulated fleet to completion (trace plus queue drain).
pub fn run_fleet_sim(config: &SimFleetConfig) -> FleetSimReport {
    let mut state = SimState::new(config.clone());
    let trace = config.trace.clone();
    let mut arrivals = trace.arrivals().peekable();
    let mut scratch = AdmitScratch::default();
    let ticks_per_interval = ((config.control_interval_s / config.tick_s).round() as usize).max(1);
    let tick_s = config.control_interval_s / ticks_per_interval as f64;
    let mut interval: u64 = 0;
    loop {
        let t0 = interval as f64 * config.control_interval_s;
        let t1 = t0 + config.control_interval_s;
        for k in 0..ticks_per_interval {
            let tick_end = t0 + (k + 1) as f64 * tick_s;
            while let Some(a) = arrivals.peek() {
                if a.t_s >= tick_end {
                    break;
                }
                let a = *a;
                arrivals.next();
                state.admit(a.index, a.t_s, &mut scratch);
            }
            // Sample the backlog between admission and service: the
            // control loop's queue signal must see mid-interval pressure
            // that the per-tick advance would otherwise drain away.
            state.queued_peak = state.queued_peak.max(state.fleet_backlog());
            state.advance_all(tick_end);
        }
        state.control(t1, config.control_interval_s);
        state.emit_power(t0, t1);
        interval += 1;
        let drained = state.fleet_backlog() == 0;
        if arrivals.peek().is_none() && drained {
            return state.finish(t1);
        }
        // Backstop against a pathological config that can never drain.
        if t1 > trace.duration_s * 20.0 + 100.0 * config.control_interval_s {
            return state.finish(t1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Burst;

    fn base_trace() -> TraceConfig {
        TraceConfig {
            seed: 42,
            duration_s: 40.0,
            base_rps: 300.0,
            diurnal_amplitude: 0.2,
            diurnal_period_s: 40.0,
            bursts: vec![Burst {
                start_s: 10.0,
                duration_s: 8.0,
                extra_rps: 1500.0,
            }],
        }
    }

    fn service() -> ServiceModel {
        ServiceModel {
            batch_base_s: 0.002,
            batch_per_row_s: 0.001,
            max_batch: 4,
        }
    }

    fn auto_config(threads: usize) -> SimFleetConfig {
        SimFleetConfig {
            trace: base_trace(),
            service: service(),
            router: RouterPolicy::PowerOfTwo,
            scaling: ScalePolicy::Auto(AutoscaleConfig {
                min_replicas: 1,
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
            }),
            slo_p99_s: 0.15,
            queue_capacity: 2048,
            // Shed just under the SLO — above the 0.6 scale-out trigger,
            // so admission control cannot mask a breach from the
            // autoscaler by capping observed latency below it.
            shed_wait_frac: 0.9,
            control_interval_s: 0.5,
            stats_window_s: 5.0,
            tick_s: 0.1,
            provision_delay_s: 0.5,
            machine: Machine::Summit,
            threads,
        }
    }

    fn fixed_config(n: usize, shed_wait_frac: f64) -> SimFleetConfig {
        SimFleetConfig {
            scaling: ScalePolicy::Fixed(n),
            shed_wait_frac,
            ..auto_config(1)
        }
    }

    #[test]
    fn conservation_every_request_has_exactly_one_outcome() {
        let r = run_fleet_sim(&auto_config(1));
        assert!(r.offered > 5_000, "trace too small: {}", r.offered);
        assert_eq!(r.offered, r.completed + r.shed + r.overloaded);
        assert!(r.completed > 0);
    }

    #[test]
    fn identical_runs_are_bit_identical() {
        let a = run_fleet_sim(&auto_config(1));
        let b = run_fleet_sim(&auto_config(1));
        assert_eq!(a.outcome_fingerprint, b.outcome_fingerprint);
        assert_eq!(a.decision_fingerprint, b.decision_fingerprint);
        assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits());
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let one = run_fleet_sim(&auto_config(1));
        for threads in [2, 4] {
            let t = run_fleet_sim(&auto_config(threads));
            assert_eq!(
                one.outcome_fingerprint, t.outcome_fingerprint,
                "outcome fingerprint diverged at {threads} threads"
            );
            assert_eq!(
                one.decision_fingerprint, t.decision_fingerprint,
                "decision log diverged at {threads} threads"
            );
            assert_eq!(one.completed, t.completed);
            assert_eq!(one.energy_j.to_bits(), t.energy_j.to_bits());
        }
    }

    #[test]
    fn autoscaler_scales_out_for_the_burst_and_back_in_after() {
        let r = run_fleet_sim(&auto_config(1));
        assert!(
            r.peak_replicas > 1,
            "burst did not trigger scale-out: peak {}",
            r.peak_replicas
        );
        assert!(
            r.decisions.iter().any(|d| d.to > d.from),
            "no scale-out decision recorded"
        );
        assert!(
            r.decisions.iter().any(|d| d.to < d.from),
            "no scale-in decision after the burst"
        );
        let out_watts: f64 = r
            .decisions
            .iter()
            .filter(|d| d.to > d.from)
            .map(|d| d.marginal_watts)
            .sum();
        assert!(out_watts > 0.0, "scale-out decisions must be priced");
        assert!(r.profile.contains("scale-out warmup"));
    }

    #[test]
    fn fixed_undersized_fleet_blows_the_slo_autoscaler_holds_it() {
        let auto = run_fleet_sim(&auto_config(1));
        let fixed = run_fleet_sim(&fixed_config(1, f64::INFINITY));
        assert!(
            fixed.worst_window_p99_s > fixed.latency.p99_s.min(auto.worst_window_p99_s),
            "undersized fixed fleet should queue badly"
        );
        assert!(
            fixed.worst_window_p99_s > 0.15,
            "fixed(1) should violate the 150 ms SLO, got {:.3}s",
            fixed.worst_window_p99_s
        );
        assert!(
            auto.worst_window_p99_s <= 0.15,
            "autoscaled fleet violated the SLO: worst window p99 {:.3}s",
            auto.worst_window_p99_s
        );
    }

    #[test]
    fn autoscaler_cheaper_than_peak_fixed_fleet() {
        let auto = run_fleet_sim(&auto_config(1));
        let peak = run_fleet_sim(&fixed_config(5, 0.9));
        assert!(
            peak.worst_window_p99_s <= 0.15,
            "peak-sized fixed fleet should hold the SLO"
        );
        assert!(
            auto.energy_j < peak.energy_j,
            "autoscaler should spend fewer joules: {} vs {}",
            auto.energy_j,
            peak.energy_j
        );
        assert!(auto.joules_per_request.is_finite());
        assert!(auto.joules_per_request < peak.joules_per_request);
        assert!(auto.replica_seconds < peak.replica_seconds);
    }

    #[test]
    fn shedding_is_proactive_and_typed() {
        // Undersized fixed fleet WITH admission control: sheds instead of
        // building an SLO-collapsing queue.
        let shed = run_fleet_sim(&fixed_config(1, 0.9));
        assert!(shed.shed > 0, "admission control never fired");
        assert!(
            shed.latency.p99_s < 0.15,
            "admitted requests should stay under the SLO, p99 {:.3}s",
            shed.latency.p99_s
        );
        // Same fleet without admission control: queue overflow instead.
        let hard = run_fleet_sim(&fixed_config(1, f64::INFINITY));
        assert_eq!(hard.shed, 0);
        assert!(hard.worst_window_p99_s > shed.latency.p99_s);
    }

    #[test]
    fn report_bookkeeping_is_consistent() {
        let r = run_fleet_sim(&auto_config(2));
        assert!(r.duration_s >= r.latency.max_s);
        assert!(r.replica_seconds > 0.0);
        assert!(r.energy_j > 0.0);
        assert!(r.avg_power_w > 0.0);
        assert!(r.within_slo <= r.completed);
        assert!(r.control_intervals as f64 * 0.5 >= r.duration_s - 1e-9);
        assert_eq!(r.latency.count, r.completed);
    }
}
