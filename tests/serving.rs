//! Cross-crate serving guarantees: batching must not change prediction
//! bits, and overload must shed fast instead of deadlocking.

use dlframe::{
    Activation, Dataset, Dense, DlError, FitConfig, Layer, Loss, NoSync, Optimizer, Sequential,
};
use serve::{request_row, run_closed_loop, ClosedLoopConfig, ServeConfig, ServeEngine, ServeError};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use tensor::{Tensor, Workspace};
use xrng::RandomSource;

const FEATURES: usize = 24;
const CLASSES: usize = 3;

/// Trains a small classifier so served weights are post-optimization
/// values, not just initialization.
fn trained_model(seed: u64) -> Arc<Sequential> {
    Arc::new(train(seed))
}

fn train(seed: u64) -> Sequential {
    let mut rng = xrng::seeded(seed);
    let samples = 120;
    let mut x = Vec::with_capacity(samples * FEATURES);
    let mut y = vec![0.0f32; samples * CLASSES];
    for s in 0..samples {
        let class = s % CLASSES;
        for f in 0..FEATURES {
            x.push((class as f32 - 1.0) * 0.8 + rng.next_f32() - 0.5 + f as f32 * 0.01);
        }
        y[s * CLASSES + class] = 1.0;
    }
    let data = Dataset::new(
        Tensor::from_vec([samples, FEATURES], x).unwrap(),
        Tensor::from_vec([samples, CLASSES], y).unwrap(),
    );
    let mut model = Sequential::new(seed);
    model
        .add(Box::new(Dense::new(
            FEATURES,
            32,
            Activation::Relu,
            &mut rng,
        )))
        .add(Box::new(Dense::new(
            32,
            CLASSES,
            Activation::Linear,
            &mut rng,
        )))
        .compile(Loss::SoftmaxCrossEntropy, Optimizer::sgd(0.05));
    model
        .fit(
            &data,
            &FitConfig {
                epochs: 3,
                batch_size: 20,
                ..Default::default()
            },
            &mut NoSync,
        )
        .expect("training");
    model
}

/// An identity layer whose inference forward blocks until the gate
/// opens: a worker parked in it is busy for exactly as long as the test
/// says, so requests submitted meanwhile stay in flight.
#[derive(Clone, Default)]
struct Gate(Arc<GateState>);

#[derive(Default)]
struct GateState {
    /// `(open, forwards waiting at the gate)`.
    state: Mutex<(bool, usize)>,
    changed: Condvar,
}

impl Gate {
    /// Returns once a worker is parked at the gate.
    fn wait_until_occupied(&self) {
        let mut state = self.0.state.lock().unwrap();
        while state.1 == 0 {
            state = self.0.changed.wait(state).unwrap();
        }
    }

    fn open(&self) {
        self.0.state.lock().unwrap().0 = true;
        self.0.changed.notify_all();
    }
}

impl Layer for Gate {
    fn name(&self) -> &'static str {
        "gate"
    }

    fn forward(&mut self, x: &Tensor, _: bool, ws: &mut Workspace) -> Result<Tensor, DlError> {
        Ok(ws.alloc_copy(x))
    }

    fn forward_infer(&self, x: &Tensor, ws: &mut Workspace) -> Result<Tensor, DlError> {
        let mut state = self.0.state.lock().unwrap();
        state.1 += 1;
        self.0.changed.notify_all();
        while !state.0 {
            state = self.0.changed.wait(state).unwrap();
        }
        state.1 -= 1;
        drop(state);
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

/// Serves `requests` deterministic rows through one engine configuration
/// and returns every output row in request order.
fn serve_all(
    model: &Arc<Sequential>,
    config: ServeConfig,
    requests: usize,
    seed: u64,
) -> Vec<Vec<f32>> {
    let engine = ServeEngine::start(Arc::clone(model), config);
    let handle = engine.handle();
    let tickets: Vec<_> = (0..requests)
        .map(|i| {
            handle
                .submit(request_row(seed, i as u64, FEATURES))
                .expect("capacity is ample")
        })
        .collect();
    let outputs = tickets
        .into_iter()
        .map(|t| t.wait().expect("request served").output)
        .collect();
    engine.shutdown();
    outputs
}

/// The acceptance property of the serving engine: the same seeded
/// workload yields bit-identical predictions via direct `predict`, a
/// batch-1 engine, and a dynamic-batching engine, with 1 and 4 workers.
#[test]
fn served_predictions_are_bit_identical_across_batching_and_workers() {
    let model = trained_model(501);
    let (requests, seed) = (64usize, 9u64);

    let direct: Vec<Vec<f32>> = (0..requests)
        .map(|i| {
            let row = request_row(seed, i as u64, FEATURES);
            let x = Tensor::from_vec([1, FEATURES], row).unwrap();
            model.predict(&x).expect("direct predict").data().to_vec()
        })
        .collect();

    for workers in [1usize, 4] {
        let batch1 = serve_all(
            &model,
            ServeConfig {
                max_batch: 1,
                workers,
                ..Default::default()
            },
            requests,
            seed,
        );
        let dynamic = serve_all(
            &model,
            ServeConfig {
                max_batch: 16,
                max_wait: Duration::from_millis(2),
                workers,
                ..Default::default()
            },
            requests,
            seed,
        );
        // Bit-level comparison: f32 equality here is exact, not approximate,
        // because matmul accumulates each output row independently in a
        // fixed order regardless of batch composition.
        assert_eq!(
            batch1, direct,
            "batch-1 serving diverged ({workers} workers)"
        );
        assert_eq!(
            dynamic, direct,
            "dynamic batching diverged ({workers} workers)"
        );
    }
}

/// Two full engine runs with the same seed agree hash-for-hash even under
/// concurrent clients and different worker counts.
#[test]
fn closed_loop_hash_is_worker_count_invariant() {
    let model = trained_model(502);
    let load = ClosedLoopConfig {
        clients: 6,
        requests_per_client: 30,
        features: FEATURES,
        seed: 77,
    };
    let run = |workers: usize| {
        let engine = ServeEngine::start(
            Arc::clone(&model),
            ServeConfig {
                max_batch: 8,
                workers,
                ..Default::default()
            },
        );
        let r = run_closed_loop(&engine.handle(), &load);
        engine.shutdown();
        r
    };
    let one = run(1);
    let four = run(4);
    assert_eq!(one.completed, 180);
    assert_eq!(four.completed, 180);
    assert_eq!(
        one.output_hash, four.output_hash,
        "worker count changed served prediction bits"
    );
}

/// Overload behaviour: a full queue rejects immediately with
/// `Overloaded`, sheds are counted, admitted requests still complete, and
/// nothing deadlocks.
#[test]
fn overload_sheds_fast_and_recovers() {
    // The one worker parks at the gate with the first request, so the
    // admitted requests stay in flight while the overflow submissions
    // arrive.
    let gate = Gate::default();
    let mut model = train(503);
    model.add(Box::new(gate.clone()));
    let capacity = 8usize;
    let engine = ServeEngine::start(
        Arc::new(model),
        ServeConfig {
            max_batch: 64,
            queue_capacity: capacity,
            workers: 1,
            ..Default::default()
        },
    );
    let handle = engine.handle();

    let admitted: Vec<_> = (0..capacity)
        .map(|i| {
            handle
                .submit(request_row(3, i as u64, FEATURES))
                .expect("under capacity")
        })
        .collect();
    gate.wait_until_occupied();

    let shed_start = Instant::now();
    let mut shed = 0;
    for i in 0..20u64 {
        match handle.submit(request_row(3, 100 + i, FEATURES)) {
            Err(ServeError::Overloaded { capacity: c, .. }) => {
                assert_eq!(c, capacity);
                shed += 1;
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
    }
    // Shedding is a constant-time counter check.
    assert!(
        shed_start.elapsed() < Duration::from_millis(200),
        "shedding 20 requests took {:?}",
        shed_start.elapsed()
    );
    assert_eq!(shed, 20);

    gate.open();
    for t in admitted {
        t.wait()
            .expect("admitted requests complete once the worker moves on");
    }
    // Capacity freed: the engine accepts and serves again.
    handle
        .predict(request_row(3, 999, FEATURES))
        .expect("engine recovered after overload");

    let report = engine.shutdown();
    assert_eq!(report.completed, capacity as u64 + 1);
    assert_eq!(report.shed, 20);
}
