//! The real data plane: an autoscaling fleet of live [`ServeEngine`]s.
//!
//! Where [`crate::sim`] proves control-loop properties in virtual time,
//! this module runs the same router / autoscaler / admission-control
//! stack over actual serving engines executing real batched forward
//! passes. Wall-clock latencies are inherently non-reproducible, so this
//! path is for *measurement* (the README burst table, the bench JSON),
//! not for the determinism guarantees — those live in the simulator.
//!
//! A trace replay compresses virtual trace time by `speedup` (a 1200 s
//! diurnal trace replays in seconds), drives an open loop (no retries —
//! rejected requests are the signal, not an inconvenience), and prices
//! the run with the same Summit/Theta power states the simulator uses:
//! per-replica busy time is *measured* from each engine's forward-pass
//! histogram, then blended as `busy·compute_w + (1−busy)·idle_w` over
//! the replica's uptime.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cluster::Machine;
use dlframe::Sequential;
use obs::{LatencySummary, LogHistogram, WindowedHistogram};
use serve::{request_row, ServeConfig, ServeEngine, ServeError, ServeHandle};
use xrng::derive_seed;

use crate::autoscale::{Autoscaler, ControlSignal, ScaleDecision};
use crate::router::Router;
use crate::sim::ScalePolicy;
use crate::trace::TraceConfig;

/// Configuration of a live fleet replay. Time fields are **real**
/// (post-compression) seconds.
#[derive(Debug, Clone)]
pub struct RealFleetConfig {
    /// Per-replica engine knobs (batching, queue capacity, workers).
    pub engine: ServeConfig,
    /// Request routing policy over live queue depths.
    pub router: crate::router::RouterPolicy,
    /// Fixed or autoscaled replica count. For [`ScalePolicy::Auto`] the
    /// autoscaler's time fields are interpreted in real seconds.
    pub scaling: ScalePolicy,
    /// Latency objective, real seconds.
    pub slo_p99_s: f64,
    /// Admission control: shed when total in-flight depth exceeds this
    /// fraction of total routable queue capacity. `f64::INFINITY`
    /// disables proactive shedding.
    pub shed_depth_frac: f64,
    /// Real seconds between control decisions.
    pub control_interval_s: f64,
    /// Rolling latency window backing control decisions, real seconds.
    pub stats_window_s: f64,
    /// Platform whose power states price the measured utilization.
    pub machine: Machine,
    /// Seed for request feature rows and the router.
    pub seed: u64,
    /// Feature width of generated request rows.
    pub features: usize,
}

/// Report of one live fleet replay.
#[derive(Debug, Clone)]
pub struct RealFleetReport {
    /// Requests offered by the (compressed) trace.
    pub offered: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests shed by fleet admission control.
    pub shed: u64,
    /// Requests rejected by a full engine queue.
    pub overloaded: u64,
    /// Requests that failed after admission (crash, shutdown races).
    pub failed: u64,
    /// End-to-end latency of completed requests, real seconds.
    pub latency: LatencySummary,
    /// Largest rolling-window p99 observed at any control check.
    pub worst_window_p99_s: f64,
    /// The scaling-decision log (empty for [`ScalePolicy::Fixed`]).
    pub decisions: Vec<ScaleDecision>,
    /// Largest concurrently-routable replica count.
    pub peak_replicas: usize,
    /// Integral of provisioned replicas over real time.
    pub replica_seconds: f64,
    /// Modelled energy over measured busy fractions, joules.
    pub energy_j: f64,
    /// `energy_j / completed`.
    pub joules_per_request: f64,
    /// Wall-clock duration of the replay, seconds.
    pub elapsed_s: f64,
}

impl RealFleetReport {
    /// Fraction of offered requests rejected before service.
    pub fn rejection_rate(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        (self.shed + self.overloaded) as f64 / self.offered as f64
    }
}

struct SharedStats {
    windowed: WindowedHistogram,
    cumulative: LogHistogram,
    completed: u64,
    failed: u64,
}

struct Slot {
    handle: ServeHandle,
    engine: Option<ServeEngine>,
    online_s: f64,
    draining: bool,
}

/// Energy ledger entry for one replica's provisioned span.
struct ReplicaSpan {
    uptime_s: f64,
    busy_s: f64,
}

fn engine_busy_seconds(engine: &ServeEngine) -> f64 {
    let r = engine.report();
    // The forward histogram's mean×count reconstructs total forward time.
    r.batch_forward.mean_s * r.batch_forward.count as f64
}

/// Records the outcome of every admitted request, in submission order,
/// until the sending side hangs up. The latency recorded is the engine's
/// own submit → reply measurement, not the time until this loop got to
/// the ticket: a fast reply queued behind a slow replica's ticket must
/// not count as slow in the p99 the autoscaler reads.
fn collect_replies(replies: Receiver<serve::Ticket>, stats: &Mutex<SharedStats>, start: Instant) {
    for ticket in replies {
        let outcome = ticket.wait();
        let t = start.elapsed().as_secs_f64();
        let mut s = stats.lock().unwrap();
        match outcome {
            Ok(p) => {
                let lat = p.latency.as_secs_f64();
                s.windowed.record(t, lat);
                s.cumulative.record(lat);
                s.completed += 1;
            }
            Err(_) => s.failed += 1,
        }
    }
}

/// Replay `trace` against a live fleet, compressing virtual trace time by
/// `speedup` (arrival at virtual `t` fires at real `t / speedup`). All
/// replicas serve the same `model` (a replicated-weights fleet).
pub fn run_serve_fleet(
    model: Arc<Sequential>,
    config: &RealFleetConfig,
    trace: &TraceConfig,
    speedup: f64,
) -> RealFleetReport {
    assert!(speedup > 0.0, "speedup must be positive");
    let router = Router::new(config.router, derive_seed(config.seed, 0x7265_616c));
    let initial = match &config.scaling {
        ScalePolicy::Fixed(n) => {
            assert!(*n >= 1, "fixed fleet needs at least 1 replica");
            *n
        }
        ScalePolicy::Auto(c) => c.min_replicas,
    };
    let mut autoscaler = match &config.scaling {
        ScalePolicy::Fixed(_) => None,
        ScalePolicy::Auto(c) => Some(Autoscaler::new(
            c.clone(),
            config.machine.spec().power.compute_w,
        )),
    };

    let start = Instant::now();
    let spawn = |_: usize| {
        let engine = ServeEngine::start(Arc::clone(&model), config.engine.clone());
        Slot {
            handle: engine.handle(),
            engine: Some(engine),
            online_s: start.elapsed().as_secs_f64(),
            draining: false,
        }
    };
    let mut slots: Vec<Slot> = (0..initial).map(spawn).collect();
    let mut spans: Vec<ReplicaSpan> = Vec::new();
    let mut peak_replicas = initial;

    let stats = Mutex::new(SharedStats {
        windowed: WindowedHistogram::for_latency_seconds(config.stats_window_s),
        cumulative: LogHistogram::for_latency_seconds(),
        completed: 0,
        failed: 0,
    });

    let mut offered = 0u64;
    let mut shed = 0u64;
    let mut overloaded = 0u64;
    let mut decisions: Vec<ScaleDecision> = Vec::new();
    let mut worst_window_p99_s = 0.0f64;
    let mut busy_prev = 0.0f64;
    let mut next_control_s = config.control_interval_s;
    // Background drains for scaled-in engines finish on their own time.
    let drained_busy = Arc::new(Mutex::new(Vec::<ReplicaSpan>::new()));
    let in_flight_drains = Arc::new(AtomicU64::new(0));

    std::thread::scope(|scope| {
        let (tx, rx) = channel();
        scope.spawn(|| collect_replies(rx, &stats, start));

        let mut depths: Vec<usize> = Vec::new();
        let mut routable: Vec<usize> = Vec::new();
        for arrival in trace.arrivals() {
            let due = start + Duration::from_secs_f64(arrival.t_s / speedup);
            // Sleep towards the arrival, but wake for control boundaries.
            loop {
                let now_s = start.elapsed().as_secs_f64();
                if now_s >= next_control_s {
                    control_step(
                        &mut slots,
                        &mut autoscaler,
                        &stats,
                        &mut busy_prev,
                        &mut decisions,
                        &mut worst_window_p99_s,
                        &mut peak_replicas,
                        config,
                        now_s,
                        spawn,
                        scope,
                        &drained_busy,
                        &in_flight_drains,
                    );
                    next_control_s += config.control_interval_s;
                    continue;
                }
                let now = Instant::now();
                if due <= now {
                    break;
                }
                let until_control = Duration::from_secs_f64(next_control_s - now_s);
                std::thread::sleep((due - now).min(until_control).min(Duration::from_millis(5)));
            }
            offered += 1;
            routable.clear();
            depths.clear();
            let mut total_depth = 0usize;
            for (i, s) in slots.iter().enumerate() {
                if s.engine.is_some() && !s.draining {
                    routable.push(i);
                    let d = s.handle.depth();
                    depths.push(d);
                    total_depth += d;
                }
            }
            if routable.is_empty() {
                overloaded += 1;
                continue;
            }
            let capacity = routable.len() * config.engine.queue_capacity;
            if (total_depth as f64) > config.shed_depth_frac * capacity as f64 {
                shed += 1;
                continue;
            }
            let pick = router
                .pick(arrival.index, &depths)
                .expect("non-empty routable set");
            let row = request_row(config.seed, arrival.index, config.features);
            match slots[routable[pick]].handle.submit(row) {
                Ok(ticket) => {
                    let _ = tx.send(ticket);
                }
                Err(ServeError::Overloaded { .. }) => overloaded += 1,
                Err(_) => overloaded += 1,
            }
        }
        // Hanging up lets the collector finish once every admitted request
        // has been answered; the scope waits for it.
        drop(tx);
    });

    // Shut the remaining fleet down and close the energy ledger.
    let end_s = start.elapsed().as_secs_f64();
    for slot in &mut slots {
        if let Some(engine) = slot.engine.take() {
            let busy = engine_busy_seconds(&engine);
            engine.shutdown();
            spans.push(ReplicaSpan {
                uptime_s: (end_s - slot.online_s).max(0.0),
                busy_s: busy,
            });
        }
    }
    // Background drains hold engine ownership; they finished before the
    // scope exited, so their ledger entries are complete.
    assert_eq!(in_flight_drains.load(Ordering::SeqCst), 0);
    spans.extend(drained_busy.lock().unwrap().drain(..));

    let power = config.machine.spec().power;
    let mut energy_j = 0.0;
    let mut replica_seconds = 0.0;
    for s in &spans {
        let busy_frac = if s.uptime_s > 0.0 {
            (s.busy_s / s.uptime_s).clamp(0.0, 1.0)
        } else {
            0.0
        };
        energy_j += s.uptime_s * (busy_frac * power.compute_w + (1.0 - busy_frac) * power.idle_w);
        replica_seconds += s.uptime_s;
    }

    let (completed, failed, latency) = {
        let s = stats.lock().unwrap();
        (
            s.completed,
            s.failed,
            LatencySummary::from_histogram(&s.cumulative),
        )
    };
    RealFleetReport {
        offered,
        completed,
        shed,
        overloaded,
        failed,
        latency,
        worst_window_p99_s,
        decisions,
        peak_replicas,
        replica_seconds,
        energy_j,
        joules_per_request: if completed == 0 {
            f64::INFINITY
        } else {
            energy_j / completed as f64
        },
        elapsed_s: end_s,
    }
}

/// One control-loop step over the live fleet (extracted so the replay
/// loop stays readable; `&mut` plumbing instead of a struct because the
/// thread scope pins the borrows).
#[allow(clippy::too_many_arguments)]
fn control_step<'scope, 'env, F>(
    slots: &mut Vec<Slot>,
    autoscaler: &mut Option<Autoscaler>,
    stats: &Mutex<SharedStats>,
    busy_prev: &mut f64,
    decisions: &mut Vec<ScaleDecision>,
    worst_window_p99_s: &mut f64,
    peak_replicas: &mut usize,
    config: &RealFleetConfig,
    now_s: f64,
    spawn: F,
    scope: &'scope std::thread::Scope<'scope, 'env>,
    drained_busy: &Arc<Mutex<Vec<ReplicaSpan>>>,
    in_flight_drains: &Arc<AtomicU64>,
) where
    F: Fn(usize) -> Slot,
{
    let (p99_s, samples) = {
        let s = stats.lock().unwrap();
        let snap = s.windowed.snapshot(now_s);
        let n = snap.count();
        (if n > 0 { snap.quantile(0.99) } else { 0.0 }, n)
    };
    if samples > 0 && p99_s > *worst_window_p99_s {
        *worst_window_p99_s = p99_s;
    }
    let Some(autoscaler) = autoscaler.as_mut() else {
        return;
    };
    let mut active = 0usize;
    let mut queued = 0usize;
    let mut busy_now = 0.0f64;
    for s in slots.iter() {
        if let Some(engine) = &s.engine {
            busy_now += engine_busy_seconds(engine);
            if !s.draining {
                active += 1;
                queued += s.handle.depth();
            }
        }
    }
    let utilization = ((busy_now - *busy_prev)
        / (active.max(1) as f64 * config.control_interval_s))
        .clamp(0.0, 1.0);
    *busy_prev = busy_now;
    let signal = ControlSignal {
        now_s,
        p99_s,
        samples,
        queued,
        // Live depths are an instantaneous sample already; no per-tick
        // residual distortion to correct for.
        queued_peak: queued,
        active_replicas: active,
        utilization,
    };
    let Some(decision) = autoscaler.decide(&signal) else {
        return;
    };
    if decision.to > decision.from {
        for _ in decision.from..decision.to {
            slots.push(spawn(slots.len()));
        }
        let routable = slots
            .iter()
            .filter(|s| s.engine.is_some() && !s.draining)
            .count();
        *peak_replicas = (*peak_replicas).max(routable);
    } else {
        let mut to_drain = decision.from - decision.to;
        for i in (0..slots.len()).rev() {
            if to_drain == 0 {
                break;
            }
            if slots[i].engine.is_some() && !slots[i].draining {
                slots[i].draining = true;
                let engine = slots[i].engine.take().expect("engine present");
                let online_s = slots[i].online_s;
                let ledger = Arc::clone(drained_busy);
                let pending = Arc::clone(in_flight_drains);
                pending.fetch_add(1, Ordering::SeqCst);
                let drain_start = Instant::now();
                scope.spawn(move || {
                    let busy = engine_busy_seconds(&engine);
                    engine.shutdown();
                    let uptime = (now_s - online_s).max(0.0) + drain_start.elapsed().as_secs_f64();
                    ledger.lock().unwrap().push(ReplicaSpan {
                        uptime_s: uptime,
                        busy_s: busy,
                    });
                    pending.fetch_sub(1, Ordering::SeqCst);
                });
                to_drain -= 1;
            }
        }
    }
    decisions.push(decision);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autoscale::AutoscaleConfig;
    use crate::router::RouterPolicy;
    use crate::trace::Burst;
    use dlframe::{Activation, Dense, DlError, Layer, Loss, Optimizer};
    use std::sync::RwLock;
    use tensor::{Tensor, Workspace};

    /// An identity layer whose inference forward blocks while the test
    /// holds the write lock: the replica serving through it is slow for
    /// exactly as long as the test says.
    #[derive(Clone, Default)]
    struct Gate(Arc<RwLock<()>>);

    impl Layer for Gate {
        fn name(&self) -> &'static str {
            "gate"
        }

        fn forward(&mut self, x: &Tensor, _: bool, ws: &mut Workspace) -> Result<Tensor, DlError> {
            Ok(ws.alloc_copy(x))
        }

        fn forward_infer(&self, x: &Tensor, ws: &mut Workspace) -> Result<Tensor, DlError> {
            drop(self.0.read().unwrap());
            Ok(ws.alloc_copy(x))
        }

        fn backward(
            &mut self,
            _input: &Tensor,
            _output: &Tensor,
            grad_out: &Tensor,
            input_grad: bool,
            ws: &mut Workspace,
        ) -> Result<Option<Tensor>, DlError> {
            Ok(input_grad.then(|| ws.alloc_copy(grad_out)))
        }
    }

    fn model(seed: u64, features: usize, gate: Option<&Gate>) -> Arc<Sequential> {
        let mut rng = xrng::seeded(seed);
        let mut m = Sequential::new(seed);
        if let Some(gate) = gate {
            m.add(Box::new(gate.clone()));
        }
        m.add(Box::new(Dense::new(
            features,
            16,
            Activation::Relu,
            &mut rng,
        )));
        m.add(Box::new(Dense::new(16, 3, Activation::Linear, &mut rng)));
        m.compile(Loss::SoftmaxCrossEntropy, Optimizer::sgd(0.1));
        Arc::new(m)
    }

    fn config(scaling: ScalePolicy) -> RealFleetConfig {
        RealFleetConfig {
            engine: ServeConfig {
                max_batch: 8,
                max_wait: Duration::from_millis(1),
                queue_capacity: 256,
                workers: 1,
                slo: None,
                kill_batches: Vec::new(),
            },
            router: RouterPolicy::PowerOfTwo,
            scaling,
            slo_p99_s: 0.25,
            shed_depth_frac: 0.5,
            control_interval_s: 0.05,
            stats_window_s: 0.5,
            machine: Machine::Summit,
            seed: 11,
            features: 6,
        }
    }

    fn trace() -> TraceConfig {
        TraceConfig {
            seed: 3,
            duration_s: 10.0,
            base_rps: 150.0,
            diurnal_amplitude: 0.2,
            diurnal_period_s: 10.0,
            bursts: vec![Burst {
                start_s: 3.0,
                duration_s: 2.0,
                extra_rps: 600.0,
            }],
        }
    }

    #[test]
    fn fixed_live_fleet_serves_a_trace() {
        let report = run_serve_fleet(
            model(1, 6, None),
            &config(ScalePolicy::Fixed(2)),
            &trace(),
            10.0, // 10 s of trace in ~1 s real
        );
        assert!(report.offered > 500, "offered {}", report.offered);
        assert_eq!(
            report.offered,
            report.completed + report.shed + report.overloaded + report.failed
        );
        assert!(report.completed > 0);
        assert!(report.energy_j > 0.0);
        assert!(report.joules_per_request.is_finite());
        assert!(report.replica_seconds > 0.0);
        assert!(report.decisions.is_empty());
    }

    /// Two replicas, one stuck in its first forward: the fast replica's
    /// replies are collected only after the slow replica's two tickets at
    /// the head of the queue, yet each is recorded at its own latency.
    #[test]
    fn replies_collected_behind_a_blocked_replica_keep_their_own_latency() {
        const FAST: u64 = 20;
        // How long the gate stays shut after the last fast reply is in: a
        // lower bound on the blocked forward.
        let hold = Duration::from_millis(250);
        let gate = Gate::default();
        let shut = gate.0.write().unwrap();
        let engine_config = ServeConfig {
            max_batch: 1,
            workers: 1,
            ..config(ScalePolicy::Fixed(2)).engine
        };
        let slow = ServeEngine::start(model(1, 6, Some(&gate)), engine_config.clone());
        let fast = ServeEngine::start(model(1, 6, None), engine_config);
        let stats = Mutex::new(SharedStats {
            windowed: WindowedHistogram::for_latency_seconds(60.0),
            cumulative: LogHistogram::for_latency_seconds(),
            completed: 0,
            failed: 0,
        });
        let start = Instant::now();
        std::thread::scope(|scope| {
            let (tx, rx) = channel();
            scope.spawn(|| collect_replies(rx, &stats, start));
            for i in 0..2 {
                tx.send(slow.handle().submit(request_row(5, i, 6)).unwrap())
                    .unwrap();
            }
            for i in 0..FAST {
                tx.send(fast.handle().submit(request_row(6, i, 6)).unwrap())
                    .unwrap();
            }
            drop(tx);
            while fast.report().completed < FAST {
                std::thread::yield_now();
            }
            std::thread::sleep(hold);
            drop(shut);
        });
        let s = stats.lock().unwrap();
        assert_eq!(s.completed, FAST + 2);
        assert_eq!(s.failed, 0);
        // The two largest samples are the gated replica's; the next one
        // down (rank FAST) is the slowest fast reply.
        assert!(s.cumulative.max() >= hold.as_secs_f64());
        let slowest_fast = s
            .cumulative
            .quantile((FAST as f64 - 0.5) / (FAST + 2) as f64);
        assert!(
            slowest_fast < hold.as_secs_f64(),
            "a fast reply was recorded at {slowest_fast:.3}s, behind a {hold:?} blocked forward"
        );
    }

    #[test]
    fn autoscaled_live_fleet_reacts_and_accounts_every_replica() {
        let report = run_serve_fleet(
            model(1, 6, None),
            &config(ScalePolicy::Auto(AutoscaleConfig {
                min_replicas: 1,
                max_replicas: 4,
                slo_p99_s: 0.25,
                scale_out_frac: 0.8,
                queue_high_per_replica: 16,
                scale_in_util: 0.35,
                scale_in_p99_frac: 0.3,
                idle_intervals: 3,
                cooldown_s: 0.2,
                step_out: 1,
                step_in: 1,
            })),
            &trace(),
            10.0,
        );
        assert_eq!(
            report.offered,
            report.completed + report.shed + report.overloaded + report.failed
        );
        assert!(report.completed > 0);
        // Replica-seconds must cover at least the whole run for min=1.
        assert!(report.replica_seconds >= report.elapsed_s * 0.9);
        assert!(report.energy_j > 0.0);
    }
}
