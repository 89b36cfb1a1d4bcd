//! Pins what a served batch allocates on its worker thread: the reply
//! rows — one `Vec<f32>` per request, which the client keeps — and nothing
//! else. The batch's request list, its assembled input rows, every
//! intermediate of the forward pass and the output tensor live in buffers
//! the worker reuses, and recording stats and timeline spans allocates
//! nothing, so the count does not depend on how many batches have run.
//!
//! [`parx::CountingAlloc`] is the global allocator and counts per thread.
//! A probe layer at the front of the model reads the counter from inside
//! `forward_infer`, i.e. on the worker thread, once per batch: the
//! difference between two consecutive readings is one full turn of the
//! worker loop — the rest of batch `k`'s forward, its replies and stats,
//! the pull and the assembly of batch `k + 1`. The probe is also a gate,
//! so the test decides how many rows each batch has.

use dlframe::{Activation, Dense, DlError, Layer, Loss, Optimizer, Sequential};
use obs::Timeline;
use parx::{thread_allocs, CountingAlloc};
use serve::{ServeConfig, ServeEngine, ServeHandle, Ticket};
use std::sync::{Arc, Condvar, Mutex};
use tensor::{Tensor, Workspace};

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

const FEATURES: usize = 24;
/// Allocations per batch beyond its reply rows.
const PER_BATCH: u64 = 0;

#[derive(Default)]
struct ProbeState {
    open: bool,
    /// Forwards waiting at the gate.
    waiting: usize,
    /// `(worker's allocation count, rows)` at each batch's forward.
    readings: Vec<(u64, usize)>,
}

/// Identity layer: notes the worker's allocation count and the batch's
/// rows, then blocks while the gate is shut.
#[derive(Clone)]
struct Probe(Arc<(Mutex<ProbeState>, Condvar)>);

impl Probe {
    fn new() -> Self {
        let state = ProbeState {
            open: true,
            // Room for every reading up front: the worker must not be
            // seen growing the probe's own list.
            readings: Vec::with_capacity(4096),
            ..Default::default()
        };
        Probe(Arc::new((Mutex::new(state), Condvar::new())))
    }

    /// Serves `rows` requests as ONE batch: a first request parks the
    /// worker at the shut gate, the rest queue up behind it, and opening
    /// the gate lets the worker pull them together.
    fn serve_batch(&self, handle: &ServeHandle, rows: usize, next_row: &mut usize) {
        let (state, changed) = &*self.0;
        let submit = |next_row: &mut usize| -> Ticket {
            *next_row += 1;
            handle
                .submit(serve::request_row(5, *next_row as u64, FEATURES))
                .unwrap()
        };
        state.lock().unwrap().open = false;
        let plug = submit(next_row);
        let mut guard = state.lock().unwrap();
        while guard.waiting == 0 {
            guard = changed.wait(guard).unwrap();
        }
        drop(guard);
        let tickets: Vec<Ticket> = (0..rows).map(|_| submit(next_row)).collect();
        state.lock().unwrap().open = true;
        changed.notify_all();
        assert_eq!(plug.wait().unwrap().batch_size, 1);
        for t in tickets {
            assert_eq!(t.wait().unwrap().batch_size, rows);
        }
    }

    fn readings(&self) -> Vec<(u64, usize)> {
        self.0 .0.lock().unwrap().readings.clone()
    }
}

impl Layer for Probe {
    fn name(&self) -> &'static str {
        "probe"
    }

    fn forward(&mut self, x: &Tensor, _: bool, ws: &mut Workspace) -> Result<Tensor, DlError> {
        Ok(ws.alloc_copy(x))
    }

    fn forward_infer(&self, x: &Tensor, ws: &mut Workspace) -> Result<Tensor, DlError> {
        let (state, changed) = &*self.0;
        let mut guard = state.lock().unwrap();
        let rows = x.shape().as_2d().0;
        guard.readings.push((thread_allocs(), rows));
        guard.waiting += 1;
        changed.notify_all();
        while !guard.open {
            guard = changed.wait(guard).unwrap();
        }
        guard.waiting -= 1;
        drop(guard);
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

fn probed_model(probe: &Probe) -> Arc<Sequential> {
    let mut rng = xrng::seeded(31);
    let mut m = Sequential::new(31);
    m.add(Box::new(probe.clone()))
        .add(Box::new(Dense::new(
            FEATURES,
            32,
            Activation::Relu,
            &mut rng,
        )))
        .add(Box::new(Dense::new(32, 3, Activation::Linear, &mut rng)))
        .compile(Loss::SoftmaxCrossEntropy, Optimizer::sgd(0.1));
    Arc::new(m)
}

/// A timeline whose event list already has room for everything the test
/// records: growing that list is the recorder's amortized cost, not the
/// serving path's.
fn roomy_timeline() -> Timeline {
    let tl = Timeline::new();
    for i in 0..5000 {
        tl.record("warm", 0, i, 1);
    }
    tl
}

#[test]
fn a_served_batch_allocates_its_reply_rows_and_nothing_else() {
    for traced in [false, true] {
        let probe = Probe::new();
        let config = ServeConfig {
            max_batch: 16,
            workers: 1,
            ..Default::default()
        };
        let engine = match traced {
            true => ServeEngine::with_timeline(probed_model(&probe), config, roomy_timeline()),
            false => ServeEngine::start(probed_model(&probe), config),
        };
        let handle = engine.handle();
        let mut next_row = 0;
        // Warm-up: every buffer meets the largest batch once.
        for rows in [16, 1, 16] {
            probe.serve_batch(&handle, rows, &mut next_row);
        }
        let warm = probe.readings().len();
        // Lone requests, mid-size and full batches, interleaved.
        for round in 0..40 {
            handle
                .predict(serve::request_row(6, round, FEATURES))
                .unwrap();
            probe.serve_batch(&handle, [3, 16, 8, 1][round as usize % 4], &mut next_row);
        }
        let report = engine.shutdown();
        let readings = probe.readings();
        assert_eq!(readings.len() as u64, report.batches);
        assert_eq!(readings.len(), warm + 40 * 3);
        assert!(
            readings[warm].0 > 0,
            "warm-up allocated: the counter must have seen it"
        );
        for (k, pair) in readings.windows(2).enumerate().skip(warm) {
            let ((before, rows), (after, _)) = (pair[0], pair[1]);
            assert_eq!(
                after - before,
                rows as u64 + PER_BATCH,
                "batch {k} ({rows} rows), timeline {traced}"
            );
        }
    }
}
