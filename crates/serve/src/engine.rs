//! The serving engine: bounded submission, work-conserving micro-batching
//! and batch execution on the engine's own workers.
//!
//! Data path: [`ServeHandle::submit`] reserves an in-flight slot (or sheds
//! with [`ServeError::Overloaded`]) and pushes the request onto the one
//! queue every worker shares. A worker blocks for a first request, takes
//! whatever else is *already* queued up to `max_batch` rows — it never
//! waits for more — runs one forward pass against the shared immutable
//! model replica and answers every request of the batch through its
//! one-shot reply slot. A request therefore waits only for a busy worker,
//! and batches grow on their own exactly when that wait exists. The
//! in-flight slot is released when the reply is written, so the capacity
//! bound covers queued *and* executing requests — memory is bounded end to
//! end.

use crate::stats::StatsInner;
use crate::{ServeError, ServeReport};
use dlframe::Sequential;
use obs::Timeline;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use tensor::Tensor;

/// Serving knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Maximum rows coalesced into one forward pass.
    pub max_batch: usize,
    /// Upper bound on the latency batching adds to a request on an idle
    /// server. Nothing reads this field: workers never hold a batch open
    /// (they take what is queued and run), so the latency added is zero
    /// and every value satisfies the bound. It remains only because the
    /// benchmark builds this struct with a literal that names it; it goes
    /// when a benchmark-archetype PR drops it there.
    pub max_wait: Duration,
    /// Maximum in-flight requests (queued + executing). Submissions
    /// beyond this are shed with [`ServeError::Overloaded`].
    pub queue_capacity: usize,
    /// Worker threads, each pulling its own batches off the shared queue.
    pub workers: usize,
    /// Optional per-request latency target; completed requests slower
    /// than this are counted in [`ServeReport::slo_violations`].
    pub slo: Option<Duration>,
    /// Fault injection: batch sequence numbers (0-based, in the order
    /// workers start them) whose executing worker dies mid-batch. The
    /// affected batch's requests are answered with
    /// [`ServeError::WorkerCrashed`], the worker restarts (counted in
    /// [`ServeReport::worker_restarts`]), and serving continues. Empty in
    /// production.
    pub kill_batches: Vec<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_batch: 16,
            max_wait: Duration::from_millis(2),
            queue_capacity: 1024,
            workers: 2,
            slo: None,
            kill_batches: Vec::new(),
        }
    }
}

/// One answered request.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// The model's output row for this request.
    pub output: Vec<f32>,
    /// Rows in the batch this request was served in.
    pub batch_size: usize,
    /// Time spent queued before a worker pulled the request's batch.
    pub enqueue_wait: Duration,
    /// End-to-end submit → reply latency.
    pub latency: Duration,
}

type Answer = Result<Prediction, ServeError>;

/// The one-shot reply slot a [`Ticket`] and its queued [`Request`] share:
/// the request's only allocation besides its rows.
struct Slot {
    state: Mutex<SlotState>,
    ready: Condvar,
}

enum SlotState {
    Empty,
    Filled(Answer),
    Taken,
}

impl Slot {
    /// Writes the answer if none was written before, and wakes the
    /// ticket's holder.
    fn fill(&self, answer: Answer) {
        let mut state = self.state.lock().unwrap();
        if matches!(*state, SlotState::Empty) {
            *state = SlotState::Filled(answer);
            drop(state);
            self.ready.notify_one();
        }
    }
}

/// A pending request's receipt; resolves via [`Ticket::wait`].
pub struct Ticket {
    slot: Arc<Slot>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket").finish_non_exhaustive()
    }
}

impl Ticket {
    /// Blocks until the prediction (or its error) arrives. Returns
    /// [`ServeError::ShuttingDown`] if the engine dropped the request
    /// without answering.
    pub fn wait(self) -> Result<Prediction, ServeError> {
        let mut state = self.slot.state.lock().unwrap();
        loop {
            match std::mem::replace(&mut *state, SlotState::Taken) {
                SlotState::Filled(answer) => return answer,
                waiting => *state = waiting,
            }
            state = self.slot.ready.wait(state).unwrap();
        }
    }
}

/// One queued inference request.
struct Request {
    features: Vec<f32>,
    enqueued: Instant,
    reply: Arc<Slot>,
}

impl Drop for Request {
    fn drop(&mut self) {
        // No-op for an answered request; one dropped unanswered must not
        // leave its ticket waiting forever.
        self.reply.fill(Err(ServeError::ShuttingDown));
    }
}

/// What submitters and workers share: the queue, the in-flight count and
/// the stop flag.
struct Shared {
    queue: Mutex<VecDeque<Request>>,
    /// Signalled once per pushed request, and to every worker when the
    /// exit condition of [`Shared::pull`] may have become true.
    ready: Condvar,
    depth: AtomicUsize,
    stopping: AtomicBool,
    stats: StatsInner,
}

impl Shared {
    /// Blocks for a first request, then moves it and whatever else is
    /// already queued — at most `max` rows, never waiting for more — into
    /// `batch`. Returns `false` once the engine is stopping and every
    /// admitted request has been answered.
    fn pull(&self, batch: &mut Vec<Request>, max: usize) -> bool {
        let mut queue = self.queue.lock().unwrap();
        loop {
            if !queue.is_empty() {
                let rows = queue.len().min(max);
                batch.extend(queue.drain(..rows));
                return true;
            }
            // `depth` counts queued + executing requests, and a submission
            // that raced the stop flag has already reserved its slot
            // (SeqCst pairing in `ServeHandle::submit`), so leaving
            // only at depth zero strands nothing — including a request
            // pushed *after* the flag was set by a submit that won the
            // race.
            if self.stopping.load(Ordering::SeqCst) && self.depth.load(Ordering::SeqCst) == 0 {
                return false;
            }
            queue = self.ready.wait(queue).unwrap();
        }
    }

    /// Releases one in-flight slot. The release that empties a stopping
    /// engine wakes the workers parked in [`Shared::pull`] so they leave.
    fn release(&self) {
        if self.depth.fetch_sub(1, Ordering::SeqCst) == 1 && self.stopping.load(Ordering::SeqCst) {
            self.wake_all();
        }
    }

    /// Wakes every parked worker. Passing through the queue lock first
    /// orders the wake-up after a worker's check-then-wait, which runs
    /// under that lock: the worker either sees the new state or is already
    /// waiting.
    fn wake_all(&self) {
        drop(self.queue.lock().unwrap());
        self.ready.notify_all();
    }
}

/// What only the workers need.
struct Ctx {
    shared: Arc<Shared>,
    model: Arc<Sequential>,
    max_batch: usize,
    trace: Option<Trace>,
    origin: Instant,
    slo: Option<Duration>,
    /// Batches started so far; gives each batch its deterministic
    /// sequence number for fault injection.
    batch_seq: AtomicU64,
    /// Sorted copy of [`ServeConfig::kill_batches`].
    kill_batches: Vec<u64>,
}

/// The timeline and its two span names, built once so that recording a
/// batch allocates nothing.
struct Trace {
    timeline: Timeline,
    enqueue_wait: Arc<str>,
    batch_forward: Arc<str>,
}

/// The submitting half of the engine; cheap to clone, one per client.
#[derive(Clone)]
pub struct ServeHandle {
    shared: Arc<Shared>,
    capacity: usize,
}

impl ServeHandle {
    /// Submits one feature row for prediction, failing fast when the
    /// engine is at capacity ([`ServeError::Overloaded`]) or stopping.
    pub fn submit(&self, features: Vec<f32>) -> Result<Ticket, ServeError> {
        let shared = &*self.shared;
        // Reserve the in-flight slot BEFORE the stopping check (SeqCst,
        // Dekker-style pairing with the workers' exit condition): a worker
        // only leaves once `depth` reaches zero, so a submission that
        // observed `stopping == false` has already published its slot
        // and is guaranteed to be answered. The slot is released by the
        // worker when the reply is written.
        let depth = shared.depth.fetch_add(1, Ordering::SeqCst);
        if shared.stopping.load(Ordering::SeqCst) {
            shared.release();
            return Err(ServeError::ShuttingDown);
        }
        if depth >= self.capacity {
            shared.release();
            shared.stats.shed.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Overloaded {
                depth,
                capacity: self.capacity,
            });
        }
        let slot = Arc::new(Slot {
            state: Mutex::new(SlotState::Empty),
            ready: Condvar::new(),
        });
        let request = Request {
            features,
            enqueued: Instant::now(),
            reply: Arc::clone(&slot),
        };
        shared.queue.lock().unwrap().push_back(request);
        shared.ready.notify_one();
        Ok(Ticket { slot })
    }

    /// Submit-and-wait convenience for closed-loop clients.
    pub fn predict(&self, features: Vec<f32>) -> Result<Prediction, ServeError> {
        self.submit(features)?.wait()
    }

    /// Current in-flight depth (queued + executing).
    pub fn depth(&self) -> usize {
        self.shared.depth.load(Ordering::Acquire)
    }

    /// Configured in-flight capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// A running serving engine; dropping or [`ServeEngine::shutdown`] stops it.
pub struct ServeEngine {
    handle: ServeHandle,
    workers: Vec<std::thread::JoinHandle<()>>,
    started: Instant,
}

impl ServeEngine {
    /// Starts serving `model` with `config`.
    ///
    /// # Panics
    /// Panics if `max_batch`, `queue_capacity` or `workers` is zero.
    pub fn start(model: Arc<Sequential>, config: ServeConfig) -> Self {
        Self::build(model, config, None)
    }

    /// Starts serving with batch spans (`enqueue_wait`, `batch_forward`)
    /// recorded to `timeline` for `chrome://tracing` inspection, one lane
    /// per worker.
    pub fn with_timeline(model: Arc<Sequential>, config: ServeConfig, timeline: Timeline) -> Self {
        Self::build(model, config, Some(timeline))
    }

    fn build(model: Arc<Sequential>, config: ServeConfig, timeline: Option<Timeline>) -> Self {
        assert!(config.max_batch >= 1, "serve: max_batch must be positive");
        assert!(
            config.queue_capacity >= 1,
            "serve: queue_capacity must be positive"
        );
        assert!(config.workers >= 1, "serve: workers must be positive");
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            depth: AtomicUsize::new(0),
            stopping: AtomicBool::new(false),
            stats: StatsInner::new(),
        });
        let mut kill_batches = config.kill_batches;
        kill_batches.sort_unstable();
        let ctx = Arc::new(Ctx {
            shared: Arc::clone(&shared),
            model,
            max_batch: config.max_batch,
            trace: timeline.map(|timeline| Trace {
                timeline,
                enqueue_wait: "enqueue_wait".into(),
                batch_forward: "batch_forward".into(),
            }),
            origin: Instant::now(),
            slo: config.slo,
            batch_seq: AtomicU64::new(0),
            kill_batches,
        });
        let workers = (0..config.workers)
            .map(|lane| {
                let ctx = Arc::clone(&ctx);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{lane}"))
                    .spawn(move || worker_loop(lane, &ctx))
                    .expect("failed to spawn serve worker")
            })
            .collect();
        Self {
            handle: ServeHandle {
                shared,
                capacity: config.queue_capacity,
            },
            workers,
            started: Instant::now(),
        }
    }

    /// Returns a new submission handle.
    pub fn handle(&self) -> ServeHandle {
        self.handle.clone()
    }

    /// Snapshot of serving stats so far.
    pub fn report(&self) -> ServeReport {
        self.handle
            .shared
            .stats
            .report(self.started.elapsed().as_secs_f64())
    }

    /// Stops accepting requests, answers every request already admitted
    /// and returns the final stats.
    pub fn shutdown(mut self) -> ServeReport {
        self.stop_and_join();
        self.report()
    }

    fn stop_and_join(&mut self) {
        let shared = &self.handle.shared;
        shared.stopping.store(true, Ordering::SeqCst);
        shared.wake_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// One worker: pull a batch, run it, repeat until the engine has stopped
/// and drained. `lane` is the worker's timeline lane.
fn worker_loop(lane: usize, ctx: &Ctx) {
    let mut batch = Vec::with_capacity(ctx.max_batch.min(64));
    // The assembled input rows; the buffer goes into the batch's tensor
    // and comes back out, so a warm worker assembles without allocating.
    let mut rows = Vec::new();
    while ctx.shared.pull(&mut batch, ctx.max_batch) {
        // A batch that panics must not take the worker down with it: that
        // would silently shrink the engine. Its requests are answered by
        // the `PendingBatch` guard on the way out; count the restart and
        // keep serving.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_batch(&mut batch, &mut rows, lane, ctx);
        }));
        if outcome.is_err() {
            ctx.shared.stats.restarts.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Holds a batch's unanswered requests while the worker executes it. If
/// the worker dies mid-batch (a panic anywhere during filtering, assembly
/// or the forward pass), the drop during unwinding still answers every
/// pending request with [`ServeError::WorkerCrashed`] and releases its
/// in-flight slot — a crash must not leak capacity or strand waiting
/// clients. After normal completion it finds the batch empty.
struct PendingBatch<'a> {
    requests: &'a mut Vec<Request>,
    ctx: &'a Ctx,
}

impl PendingBatch<'_> {
    /// Answers, and removes from the batch, every request `reject` has an
    /// error for.
    fn reject(&mut self, mut reject: impl FnMut(&Request) -> Option<ServeError>) {
        let ctx = self.ctx;
        self.requests.retain(|r| match reject(r) {
            Some(e) => {
                finish(r, Err(e), ctx);
                false
            }
            None => true,
        });
    }
}

impl Drop for PendingBatch<'_> {
    fn drop(&mut self) {
        for r in self.requests.drain(..) {
            finish(&r, Err(ServeError::WorkerCrashed), self.ctx);
        }
    }
}

/// Executes one batch on its worker: drop what cannot be served, assemble
/// rows, one forward pass, scatter replies, record stats and timeline
/// spans. Leaves `batch` empty.
fn run_batch(batch: &mut Vec<Request>, rows: &mut Vec<f32>, lane: usize, ctx: &Ctx) {
    let pulled = Instant::now();
    let seq = ctx.batch_seq.fetch_add(1, Ordering::Relaxed);
    let stats = &ctx.shared.stats;
    let mut pending = PendingBatch {
        requests: batch,
        ctx,
    };
    // All rows in a batch must share the first row's width; stragglers
    // are answered individually so they cannot poison the forward pass.
    let Some(width) = pending.requests.first().map(|r| r.features.len()) else {
        return;
    };
    pending.reject(|r| {
        (r.features.len() != width).then(|| {
            ServeError::BadRequest(format!(
                "feature width {} differs from batch width {width}",
                r.features.len()
            ))
        })
    });
    // Injected fault: this worker dies mid-batch. The PendingBatch guard
    // answers the batch with WorkerCrashed on the way down, and the
    // worker loop counts the restart.
    if ctx.kill_batches.binary_search(&seq).is_ok() {
        panic!("injected worker death at batch {seq}");
    }
    let n = pending.requests.len();
    rows.clear();
    for r in pending.requests.iter() {
        rows.extend_from_slice(&r.features);
    }
    let x =
        Tensor::from_vec([n, width], std::mem::take(rows)).expect("batch assembly is shape-exact");
    let forward_start = Instant::now();
    let result = ctx.model.predict(&x);
    let forward = forward_start.elapsed();
    *rows = x.into_vec();
    if let Some(trace) = &ctx.trace {
        let earliest = pending
            .requests
            .iter()
            .map(|r| r.enqueued)
            .min()
            .expect("batch is non-empty");
        trace.timeline.record(
            Arc::clone(&trace.enqueue_wait),
            lane,
            micros_since(ctx.origin, earliest),
            (pulled - earliest).as_micros() as u64,
        );
        trace.timeline.record(
            Arc::clone(&trace.batch_forward),
            lane,
            micros_since(ctx.origin, forward_start),
            forward.as_micros() as u64,
        );
    }
    let mut recorder = stats.batch(forward);
    match result {
        Ok(out) => {
            let out_width = out.len() / n;
            for (i, r) in pending.requests.drain(..).enumerate() {
                let wait = pulled - r.enqueued;
                let latency = r.enqueued.elapsed();
                recorder.request(wait, latency, ctx.slo);
                let answer = Prediction {
                    output: out.data()[i * out_width..(i + 1) * out_width].to_vec(),
                    batch_size: n,
                    enqueue_wait: wait,
                    latency,
                };
                finish(&r, Ok(answer), ctx);
            }
            drop(recorder);
            // The output came from this thread's scratch workspace; hand
            // the buffer back so the next batch's last layer reuses it.
            tensor::with_scratch(|ws| ws.recycle(out));
        }
        Err(e) => {
            drop(recorder);
            pending.reject(|_| Some(ServeError::Model(e.clone())));
        }
    }
}

/// Writes a reply and releases the request's in-flight slot.
fn finish(r: &Request, answer: Answer, ctx: &Ctx) {
    // Release the slot before the reply hand-off: a client that has its
    // reply must observe the slot free too, or a sequential caller can
    // read a stale nonzero depth from an otherwise idle engine.
    ctx.shared.release();
    r.reply.fill(answer);
}

/// Microseconds from `origin` to `t`, saturating at 0.
fn micros_since(origin: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(origin).as_micros() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_gate::Gate;
    use dlframe::{Activation, Dense, Loss, Optimizer};

    /// A small deterministic MLP (untrained weights are fine: inference
    /// is a pure function of the weights).
    fn model(seed: u64, in_dim: usize, out_dim: usize) -> Arc<Sequential> {
        Arc::new(build_model(seed, in_dim, out_dim, None))
    }

    /// The same MLP behind `gate`.
    fn gated_model(gate: &Gate, seed: u64, in_dim: usize, out_dim: usize) -> Arc<Sequential> {
        Arc::new(build_model(seed, in_dim, out_dim, Some(gate)))
    }

    fn build_model(seed: u64, in_dim: usize, out_dim: usize, gate: Option<&Gate>) -> Sequential {
        let mut rng = xrng::seeded(seed);
        let mut m = Sequential::new(seed);
        if let Some(gate) = gate {
            m.add(Box::new(gate.clone()));
        }
        m.add(Box::new(Dense::new(in_dim, 32, Activation::Relu, &mut rng)));
        m.add(Box::new(Dense::new(
            32,
            out_dim,
            Activation::Linear,
            &mut rng,
        )));
        m.compile(Loss::SoftmaxCrossEntropy, Optimizer::sgd(0.1));
        m
    }

    fn row(i: usize, width: usize) -> Vec<f32> {
        (0..width)
            .map(|j| ((i * width + j) % 13) as f32 * 0.1)
            .collect()
    }

    #[test]
    fn serves_correct_predictions() {
        let m = model(1, 8, 3);
        let engine = ServeEngine::start(Arc::clone(&m), ServeConfig::default());
        let handle = engine.handle();
        for i in 0..20 {
            let p = handle.predict(row(i, 8)).unwrap();
            let direct = m
                .predict(&Tensor::from_vec([1, 8], row(i, 8)).unwrap())
                .unwrap();
            assert_eq!(p.output, direct.data(), "request {i}");
            assert!(p.batch_size >= 1);
        }
        let report = engine.shutdown();
        assert_eq!(report.completed, 20);
        assert_eq!(report.shed, 0);
        assert!(report.batches >= 1 && report.batches <= 20);
        assert_eq!(report.latency.count, 20);
    }

    #[test]
    fn batch_one_config_never_coalesces() {
        let m = model(2, 4, 2);
        let engine = ServeEngine::start(
            m,
            ServeConfig {
                max_batch: 1,
                workers: 2,
                ..Default::default()
            },
        );
        let handle = engine.handle();
        let tickets: Vec<_> = (0..16).map(|i| handle.submit(row(i, 4)).unwrap()).collect();
        for t in tickets {
            assert_eq!(t.wait().unwrap().batch_size, 1);
        }
        let report = engine.shutdown();
        assert_eq!(report.batches, 16);
        assert_eq!(report.mean_batch, 1.0);
    }

    #[test]
    fn dynamic_batching_coalesces_queued_requests() {
        let gate = Gate::shut();
        // One worker, parked at the gate: the burst submitted meanwhile
        // is all queued when the worker comes back, and must coalesce.
        let engine = ServeEngine::start(
            gated_model(&gate, 3, 6, 2),
            ServeConfig {
                max_batch: 32,
                workers: 1,
                ..Default::default()
            },
        );
        let handle = engine.handle();
        let plug = gate.plug(&handle, row(99, 6));
        let tickets: Vec<_> = (0..32).map(|i| handle.submit(row(i, 6)).unwrap()).collect();
        gate.open();
        assert_eq!(plug.wait().unwrap().batch_size, 1);
        for t in tickets {
            assert_eq!(t.wait().unwrap().batch_size, 32);
        }
        let report = engine.shutdown();
        assert_eq!(report.batches, 2);
        assert_eq!(report.completed, 33);
    }

    #[test]
    fn lone_request_is_served_at_once_whatever_max_wait_says() {
        // Nothing holds a batch open for more rows: with an hour of
        // `max_wait` and room for 16, a lone request still runs alone and
        // returns (under a batcher that waits, this test never ends).
        let m = model(13, 4, 2);
        let engine = ServeEngine::start(
            Arc::clone(&m),
            ServeConfig {
                max_batch: 16,
                max_wait: Duration::from_secs(3600),
                workers: 1,
                ..Default::default()
            },
        );
        let p = engine.handle().predict(row(0, 4)).unwrap();
        assert_eq!(p.batch_size, 1);
        let direct = m
            .predict(&Tensor::from_vec([1, 4], row(0, 4)).unwrap())
            .unwrap();
        assert_eq!(p.output, direct.data());
        assert_eq!(engine.shutdown().batches, 1);
    }

    #[test]
    fn queued_rows_are_pulled_in_order_up_to_max_batch() {
        let gate = Gate::shut();
        let m = gated_model(&gate, 14, 6, 3);
        let engine = ServeEngine::start(
            Arc::clone(&m),
            ServeConfig {
                max_batch: 16,
                workers: 1,
                ..Default::default()
            },
        );
        let handle = engine.handle();
        let plug = gate.plug(&handle, row(99, 6));
        let tickets: Vec<_> = (0..40).map(|i| handle.submit(row(i, 6)).unwrap()).collect();
        assert_eq!(handle.depth(), 41);
        gate.open();
        plug.wait().unwrap();
        let served: Vec<Prediction> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        // 40 queued rows leave as 16, 16, 8 in submission order ...
        let sizes: Vec<usize> = served.iter().map(|p| p.batch_size).collect();
        let expected: Vec<usize> = [[16; 16].as_slice(), &[16; 16], &[8; 8]].concat();
        assert_eq!(sizes, expected);
        // ... each row bit-equal to the model run directly on it.
        for (i, p) in served.iter().enumerate() {
            let direct = m
                .predict(&Tensor::from_vec([1, 6], row(i, 6)).unwrap())
                .unwrap();
            assert_eq!(p.output, direct.data(), "request {i}");
        }
        let report = engine.shutdown();
        assert_eq!(report.batches, 4);
        assert_eq!(report.completed, 41);
    }

    #[test]
    fn overload_sheds_fast_without_deadlock() {
        let gate = Gate::shut();
        // The one worker is parked at the gate, so admitted requests
        // stay in flight; then overflow the capacity.
        let engine = ServeEngine::start(
            gated_model(&gate, 4, 4, 2),
            ServeConfig {
                max_batch: 64,
                queue_capacity: 4,
                workers: 1,
                ..Default::default()
            },
        );
        let handle = engine.handle();
        let mut tickets = vec![gate.plug(&handle, row(0, 4))];
        tickets.extend((1..4).map(|i| handle.submit(row(i, 4)).unwrap()));
        // The engine is at the watermark: further submissions shed immediately.
        for i in 4..8 {
            match handle.submit(row(i, 4)) {
                Err(ServeError::Overloaded { depth, capacity }) => {
                    assert_eq!(capacity, 4);
                    assert!(depth >= 4);
                }
                other => panic!("expected Overloaded, got {other:?}"),
            }
        }
        // Admitted requests still complete once the worker moves on.
        gate.open();
        for t in tickets {
            t.wait().unwrap();
        }
        assert_eq!(handle.depth(), 0);
        let report = engine.shutdown();
        assert_eq!(report.completed, 4);
        assert_eq!(report.shed, 4);
    }

    #[test]
    fn mismatched_width_rejected_individually() {
        let gate = Gate::shut();
        let engine = ServeEngine::start(
            gated_model(&gate, 5, 8, 2),
            ServeConfig {
                max_batch: 8,
                workers: 1,
                ..Default::default()
            },
        );
        let handle = engine.handle();
        // Queued behind the plug, the two rows share one batch.
        let plug = gate.plug(&handle, row(9, 8));
        let good = handle.submit(row(0, 8)).unwrap();
        let bad = handle.submit(row(1, 5)).unwrap();
        gate.open();
        plug.wait().unwrap();
        assert_eq!(good.wait().unwrap().batch_size, 1);
        assert!(matches!(bad.wait(), Err(ServeError::BadRequest(_))));
        assert_eq!(handle.depth(), 0);
        engine.shutdown();
    }

    #[test]
    fn shutdown_rejects_new_submissions_and_drains_queue() {
        let m = model(6, 4, 2);
        let engine = ServeEngine::start(
            Arc::clone(&m),
            ServeConfig {
                max_batch: 4,
                ..Default::default()
            },
        );
        let handle = engine.handle();
        let tickets: Vec<_> = (0..8).map(|i| handle.submit(row(i, 4)).unwrap()).collect();
        let report = engine.shutdown();
        // Every admitted request was answered before shutdown returned.
        assert_eq!(report.completed, 8);
        for t in tickets {
            assert!(t.wait().is_ok());
        }
        assert!(matches!(
            handle.submit(row(9, 4)),
            Err(ServeError::ShuttingDown)
        ));
    }

    #[test]
    fn timeline_records_batch_spans() {
        let m = model(7, 4, 2);
        let tl = Timeline::new();
        let engine = ServeEngine::with_timeline(m, ServeConfig::default(), tl.clone());
        let handle = engine.handle();
        for i in 0..6 {
            handle.predict(row(i, 4)).unwrap();
        }
        engine.shutdown();
        let events = tl.events();
        assert!(events.iter().any(|e| e.name == "enqueue_wait"));
        assert!(events.iter().any(|e| e.name == "batch_forward"));
        // Spans pair up: one wait span per forward span.
        assert_eq!(
            events.iter().filter(|e| e.name == "enqueue_wait").count(),
            events.iter().filter(|e| e.name == "batch_forward").count()
        );
        let json = tl.to_chrome_trace();
        assert!(json.contains("batch_forward"));
    }

    #[test]
    fn slo_violations_counted() {
        let m = model(8, 4, 2);
        // Zero-duration SLO: every completed request violates it.
        let engine = ServeEngine::start(
            m,
            ServeConfig {
                slo: Some(Duration::from_secs(0)),
                ..Default::default()
            },
        );
        let handle = engine.handle();
        for i in 0..5 {
            handle.predict(row(i, 4)).unwrap();
        }
        let report = engine.shutdown();
        assert_eq!(report.slo_violations, 5);
        assert_eq!(report.slo_attainment(), 0.0);
    }

    #[test]
    fn killed_worker_restarts_and_serving_continues() {
        let m = model(10, 4, 2);
        // Batch-1 mode makes batch sequence numbers align with requests:
        // batch 2 (the third) is killed mid-execution.
        let engine = ServeEngine::start(
            Arc::clone(&m),
            ServeConfig {
                max_batch: 1,
                workers: 2,
                kill_batches: vec![2],
                ..Default::default()
            },
        );
        let handle = engine.handle();
        let mut crashed = 0;
        let mut completed = 0;
        for i in 0..12 {
            match handle.predict(row(i, 4)) {
                Ok(p) => {
                    // Served rows stay bit-identical to direct inference.
                    let direct = m
                        .predict(&Tensor::from_vec([1, 4], row(i, 4)).unwrap())
                        .unwrap();
                    assert_eq!(p.output, direct.data());
                    completed += 1;
                }
                Err(ServeError::WorkerCrashed) => crashed += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(crashed, 1, "exactly the killed batch fails");
        assert_eq!(completed, 11);
        // No leaked in-flight slots: the engine is idle again.
        assert_eq!(handle.depth(), 0);
        let report = engine.shutdown();
        assert_eq!(report.worker_restarts, 1);
        assert_eq!(report.completed, 11);
    }

    #[test]
    fn idle_engine_shuts_down_without_waiting_out_a_tick() {
        // Stopping wakes the parked workers; nothing polls. A hundred
        // start → one request → shutdown cycles took over 1.1 s when an
        // idle engine noticed the stop flag on a 10 ms tick.
        let m = model(15, 4, 2);
        let start = Instant::now();
        for i in 0..100 {
            let engine = ServeEngine::start(Arc::clone(&m), ServeConfig::default());
            engine.handle().predict(row(i, 4)).unwrap();
            assert_eq!(engine.shutdown().completed, 1);
        }
        let took = start.elapsed();
        assert!(
            took < Duration::from_millis(500),
            "100 cycles took {took:?}"
        );
    }

    #[test]
    fn shutdown_under_load_answers_every_admitted_request() {
        use std::sync::atomic::AtomicU64;
        // Regression for the submit-vs-drain race: a submission that
        // observes `stopping == false` just as shutdown begins must still
        // be served — previously the drain loop could finish before the
        // racing request hit the queue, stranding its ticket.
        for round in 0..5u64 {
            let m = model(20 + round, 4, 2);
            let engine = ServeEngine::start(
                m,
                ServeConfig {
                    max_batch: 8,
                    max_wait: Duration::from_micros(200),
                    queue_capacity: 4096,
                    workers: 2,
                    ..Default::default()
                },
            );
            let handle = engine.handle();
            let admitted = AtomicU64::new(0);
            let answered = AtomicU64::new(0);
            std::thread::scope(|scope| {
                for c in 0..4u64 {
                    let handle = handle.clone();
                    let (admitted, answered) = (&admitted, &answered);
                    scope.spawn(move || {
                        for i in 0..300u64 {
                            match handle.submit(row((c * 1000 + i) as usize, 4)) {
                                Ok(t) => {
                                    admitted.fetch_add(1, Ordering::Relaxed);
                                    // Every admitted ticket must resolve to a
                                    // real prediction, never hang or error.
                                    t.wait().expect("admitted request stranded by shutdown");
                                    answered.fetch_add(1, Ordering::Relaxed);
                                }
                                Err(ServeError::ShuttingDown) => break,
                                Err(e) => panic!("unexpected error: {e}"),
                            }
                        }
                    });
                }
                // Stop mid-stream while the submitters are racing.
                std::thread::sleep(Duration::from_millis(2));
                let report = engine.shutdown();
                assert_eq!(report.shed, 0);
            });
            let (a, b) = (admitted.into_inner(), answered.into_inner());
            assert_eq!(a, b, "round {round}: {a} admitted but only {b} answered");
        }
    }

    #[test]
    #[should_panic(expected = "max_batch must be positive")]
    fn zero_max_batch_panics() {
        let m = model(9, 4, 2);
        ServeEngine::start(
            m,
            ServeConfig {
                max_batch: 0,
                ..Default::default()
            },
        );
    }
}
