//! The [`Layer`] contract, checked once over every layer the crate ships:
//!
//! 1. `forward_infer` is bit-identical to `forward` with `training = false`;
//! 2. a layer keeps no activation — `backward` is handed the input and
//!    the output of the forward pass it differentiates — so the error
//!    there is to misuse is tensors that do not fit together: a gradient
//!    that is not shaped like the output, or an input the layer cannot
//!    have mapped to that output, is `DlError::BadInput` from every layer,
//!    whether or not the input gradient was asked for — never a short or
//!    misrouted gradient;
//! 3. a second training forward+backward through a warm [`Workspace`]
//!    performs zero heap allocations;
//! 4. a parameters-only `backward` (`input_grad = false`) returns no
//!    input gradient and leaves the same parameter gradients, bit for
//!    bit, as the full one — and `Sequential::train_batch`, which asks
//!    only the lowest parameterized layer for it, trains the same whether
//!    or not parameter-free layers sit below that layer;
//! 5. a `train_batch` that fails in any layer, forward or backward,
//!    leaves the model as it found it: every tensor back in the pool, and
//!    the next step the one a fresh model would take.
//!
//! [`parx::CountingAlloc`] counts per thread, so the tests can run in
//! parallel without seeing each other.

use dlframe::{
    Activation, ActivationLayer, Conv1D, Dense, DlError, Dropout, Flatten, Layer, Loss,
    MaxPooling1D, NoSync, Optimizer, Reshape3, Sequential,
};
use parx::{thread_allocs, CountingAlloc};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use tensor::{Tensor, Workspace};

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

struct Case {
    make: fn() -> Box<dyn Layer>,
    /// Dimensions of a valid input batch.
    input: &'static [usize],
}

const CASES: [Case; 7] = [
    Case {
        make: || Box::new(Dense::new(6, 4, Activation::Tanh, &mut xrng::seeded(1))),
        input: &[5, 6],
    },
    Case {
        make: || {
            Box::new(Conv1D::new(
                2,
                3,
                3,
                2,
                Activation::Relu,
                &mut xrng::seeded(2),
            ))
        },
        input: &[4, 11, 2],
    },
    Case {
        make: || Box::new(MaxPooling1D::new(2)),
        input: &[3, 8, 2],
    },
    Case {
        make: || Box::new(Dropout::new(0.5, xrng::seeded(3))),
        input: &[4, 9],
    },
    Case {
        make: || Box::new(Flatten::new()),
        input: &[3, 4, 2],
    },
    Case {
        make: || Box::new(Reshape3::new(5, 2)),
        input: &[3, 10],
    },
    Case {
        make: || Box::new(ActivationLayer::new(Activation::Sigmoid)),
        input: &[4, 5],
    },
];

impl Case {
    fn input(&self) -> Tensor {
        Tensor::from_fn(self.input.to_vec(), |i| {
            (i.wrapping_mul(2_654_435_761) % 2001) as f32 / 1000.0 - 1.0
        })
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn inference_forward_is_bit_identical_to_training_forward_with_training_off() {
    for case in &CASES {
        let mut layer = (case.make)();
        let ws = &mut Workspace::new();
        let x = case.input();
        let trained = layer.forward(&x, false, ws).unwrap();
        let inferred = layer.forward_infer(&x, ws).unwrap();
        assert_eq!(trained.shape(), inferred.shape(), "{}", layer.name());
        assert_eq!(bits(&trained), bits(&inferred), "{}", layer.name());
    }
}

/// `t` with one more (all-zero) entry along its first dimension.
fn one_more_row(t: &Tensor) -> Tensor {
    let mut dims = t.shape().dims().to_vec();
    dims[0] += 1;
    let mut grown = Tensor::zeros(dims);
    grown.data_mut()[..t.len()].copy_from_slice(t.data());
    grown
}

#[test]
fn tensors_that_do_not_fit_together_are_bad_input() {
    for case in &CASES {
        let mut layer = (case.make)();
        let ws = &mut Workspace::new();
        let x = case.input();
        let y = layer.forward(&x, true, ws).unwrap();
        // The same volume under another shape, and another volume.
        let relabelled = y.clone().reshape([y.len()]).unwrap();
        let (longer_x, longer_y) = (one_more_row(&x), one_more_row(&y));
        for input_grad in [true, false] {
            let misfits = [
                ("a relabelled gradient", &x, &y, &relabelled),
                ("a longer gradient", &x, &y, &longer_y),
                ("an output that is not the gradient's", &x, &longer_y, &y),
                ("an input of another batch", &longer_x, &y, &y),
            ];
            for (what, input, output, grad_out) in misfits {
                let result = layer.backward(input, output, grad_out, input_grad, ws);
                assert!(
                    matches!(result, Err(DlError::BadInput(_))),
                    "{}: {what} (input_grad {input_grad}) gave {:?}",
                    layer.name(),
                    result.map(|g| g.map(|g| g.shape().clone()))
                );
            }
            // And the tensors that do fit still pass.
            let grad_in = layer.backward(&x, &y, &y, input_grad, ws).unwrap();
            assert_eq!(grad_in.is_some(), input_grad, "{}", layer.name());
        }
    }
}

#[test]
fn second_pass_through_a_warm_workspace_allocates_nothing() {
    for case in &CASES {
        let mut layer = (case.make)();
        let ws = &mut Workspace::new();
        let x = case.input();
        let mut step = |grad_out: Option<Tensor>| {
            let y = layer.forward(&x, true, ws).unwrap();
            let grad_out = grad_out.unwrap_or_else(|| y.clone());
            let grad_in = layer
                .backward(&x, &y, &grad_out, true, ws)
                .unwrap()
                .unwrap();
            assert_eq!(grad_in.shape(), x.shape());
            ws.recycle(y);
            ws.recycle(grad_in);
            grad_out
        };
        let grad_out = step(None);
        let before = thread_allocs();
        assert!(
            before > 0,
            "the warm-up pass allocated: the counter must have seen it"
        );
        step(Some(grad_out));
        assert_eq!(
            thread_allocs() - before,
            0,
            "{}: warm forward+backward allocated",
            layer.name()
        );
    }
}

#[test]
fn parameters_only_backward_leaves_the_same_parameter_gradients() {
    for case in &CASES {
        let param_grads = |input_grad: bool| {
            let mut layer = (case.make)();
            let ws = &mut Workspace::new();
            let x = case.input();
            let y = layer.forward(&x, true, ws).unwrap();
            let grad_in = layer.backward(&x, &y, &y, input_grad, ws).unwrap();
            assert_eq!(grad_in.is_some(), input_grad, "{}", layer.name());
            let mut grads = Vec::new();
            layer.for_each_grad(&mut |g| grads.push(bits(g)));
            grads
        };
        let full = param_grads(true);
        assert_eq!(param_grads(false), full, "{}", (case.make)().name());
        if (case.make)().param_count() > 0 {
            assert!(
                full.iter().flatten().any(|&b| b != 0),
                "gradients are all zero"
            );
        }
    }
}

#[test]
fn layers_below_the_lowest_parameters_do_not_change_training() {
    // The same conv → flatten → dense stack, fed `(batch, 24)` rows through
    // a `Reshape3` (which backward never reaches), or fed the reshaped
    // `(batch, 12, 2)` tensor directly and with an identity dropout first.
    let model = |below: Vec<Box<dyn Layer>>| {
        let rng = &mut xrng::seeded(21);
        let mut m = Sequential::new(22);
        for layer in below {
            m.add(layer);
        }
        m.add(Box::new(Conv1D::new(2, 3, 3, 2, Activation::Relu, rng)));
        m.add(Box::new(Flatten::new()));
        m.add(Box::new(Dense::new(15, 2, Activation::Linear, rng)));
        m.compile(Loss::SoftmaxCrossEntropy, Optimizer::sgd(0.05));
        m
    };
    let mut flat = model(vec![Box::new(Reshape3::new(12, 2))]);
    let mut bare = model(vec![]);
    let mut padded = model(vec![
        Box::new(Dropout::new(0.0, xrng::seeded(23))),
        Box::new(ActivationLayer::new(Activation::Linear)),
    ]);
    let x = Tensor::from_fn([6, 24], |i| {
        (i.wrapping_mul(2_654_435_761) % 2001) as f32 / 1000.0 - 1.0
    });
    let x3 = x.clone().reshape([6, 12, 2]).unwrap();
    let y = Tensor::from_fn([6, 2], |i| ((i / 2 + i) % 2) as f32);
    for step in 0..4 {
        let want = flat.train_batch(&x, &y, &mut NoSync).unwrap();
        for other in [&mut bare, &mut padded] {
            let got = other.train_batch(&x3, &y, &mut NoSync).unwrap();
            assert_eq!(got.0.to_bits(), want.0.to_bits(), "loss at step {step}");
            assert_eq!(got.1, want.1);
            let params = |m: &Sequential| m.flat_params().iter().map(|v| v.to_bits()).collect();
            let (got, want): (Vec<u32>, Vec<u32>) = (params(other), params(&flat));
            assert_eq!(got, want, "parameters after step {step}");
        }
    }
}

/// Where a [`Faulty`] layer fails next.
const NOWHERE: u8 = 0;
const IN_FORWARD: u8 = 1;
const IN_BACKWARD: u8 = 2;

/// A test-only identity layer that fails on request. The error carries an
/// empty message, so raising it allocates nothing.
struct Faulty(Arc<AtomicU8>);

impl Faulty {
    fn fail_if(&self, at: u8) -> Result<(), DlError> {
        match self.0.load(Ordering::Relaxed) == at {
            true => Err(DlError::BadInput(String::new())),
            false => Ok(()),
        }
    }
}

impl Layer for Faulty {
    fn name(&self) -> &'static str {
        "faulty"
    }

    fn forward(&mut self, x: &Tensor, _: bool, ws: &mut Workspace) -> Result<Tensor, DlError> {
        self.fail_if(IN_FORWARD)?;
        Ok(ws.alloc_copy(x))
    }

    fn forward_infer(&self, x: &Tensor, ws: &mut Workspace) -> Result<Tensor, DlError> {
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
        self.fail_if(IN_BACKWARD)?;
        Ok(input_grad.then(|| ws.alloc_copy(grad_out)))
    }
}

#[test]
fn a_failed_step_leaves_the_model_as_it_found_it() {
    // conv → pool → faulty → flatten → dense: the fault sits mid-stack, so
    // a failed forward strands two boundaries in the chain and a failed
    // backward three, plus the gradient in flight.
    let model = |fault: &Arc<AtomicU8>| {
        let rng = &mut xrng::seeded(41);
        let mut m = Sequential::new(42);
        m.add(Box::new(Conv1D::new(2, 3, 3, 1, Activation::Relu, rng)));
        m.add(Box::new(MaxPooling1D::new(2)));
        m.add(Box::new(Faulty(Arc::clone(fault))));
        m.add(Box::new(Flatten::new()));
        m.add(Box::new(Dense::new(15, 2, Activation::Linear, rng)));
        m.compile(Loss::SoftmaxCrossEntropy, Optimizer::sgd(0.05));
        m
    };
    let x = Tensor::from_fn([6, 12, 2], |i| {
        (i.wrapping_mul(2_654_435_761) % 2001) as f32 / 1000.0 - 1.0
    });
    let y = Tensor::from_fn([6, 2], |i| ((i / 2 + i) % 2) as f32);
    let params =
        |m: &Sequential| -> Vec<u32> { m.flat_params().iter().map(|v| v.to_bits()).collect() };
    for at in [IN_FORWARD, IN_BACKWARD] {
        let fault = Arc::new(AtomicU8::new(at));
        let mut broken = model(&fault);
        let mut fresh = model(&Arc::new(AtomicU8::new(NOWHERE)));
        // A failure on the very first step, then the step a fresh model
        // takes.
        assert!(matches!(
            broken.train_batch(&x, &y, &mut NoSync),
            Err(DlError::BadInput(_))
        ));
        assert_eq!(
            params(&broken),
            params(&fresh),
            "a failed step moved parameters"
        );
        fault.store(NOWHERE, Ordering::Relaxed);
        for step in 0..2 {
            let got = broken.train_batch(&x, &y, &mut NoSync).unwrap();
            let want = fresh.train_batch(&x, &y, &mut NoSync).unwrap();
            assert_eq!(got.0.to_bits(), want.0.to_bits(), "loss at step {step}");
            assert_eq!(
                params(&broken),
                params(&fresh),
                "parameters after step {step}"
            );
        }
        // Warm now. A failure must hand every tensor back rather than
        // drop it: the failed step and the good one after it find all
        // their buffers in the pool.
        fault.store(at, Ordering::Relaxed);
        let before = thread_allocs();
        assert!(broken.train_batch(&x, &y, &mut NoSync).is_err());
        fault.store(NOWHERE, Ordering::Relaxed);
        let got = broken.train_batch(&x, &y, &mut NoSync).unwrap();
        assert_eq!(
            thread_allocs() - before,
            0,
            "a failed step (fault {at}) dropped buffers the next one had to allocate"
        );
        let want = fresh.train_batch(&x, &y, &mut NoSync).unwrap();
        assert_eq!(got.0.to_bits(), want.0.to_bits());
        assert_eq!(params(&broken), params(&fresh));
    }
}
