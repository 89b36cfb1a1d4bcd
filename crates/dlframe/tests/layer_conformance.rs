//! The [`Layer`] contract, checked once over every layer the crate ships:
//!
//! 1. `forward_infer` is bit-identical to `forward` with `training = false`;
//! 2. `backward` before any `forward` is `DlError::NotReady` for every
//!    layer whose backward reads forward state (the two that keep none,
//!    `Dropout` and `Reshape3`, pass the gradient through instead);
//! 3. a second training forward+backward through a warm [`Workspace`]
//!    performs zero heap allocations;
//! 4. a parameters-only `backward` (`input_grad = false`) returns no
//!    input gradient and leaves the same parameter gradients, bit for
//!    bit, as the full one — and `Sequential::train_batch`, which asks
//!    only the lowest parameterized layer for it, trains the same whether
//!    or not parameter-free layers sit below that layer.
//!
//! [`parx::CountingAlloc`] counts per thread, so the tests can run in
//! parallel without seeing each other.

use dlframe::{
    Activation, ActivationLayer, Conv1D, Dense, DlError, Dropout, Flatten, Layer, Loss,
    MaxPooling1D, NoSync, Optimizer, Reshape3, Sequential,
};
use parx::{thread_allocs, CountingAlloc};
use tensor::{Tensor, Workspace};

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

struct Case {
    make: fn() -> Box<dyn Layer>,
    /// Dimensions of a valid input batch.
    input: &'static [usize],
    /// Backward reads state that only a forward pass writes.
    backward_needs_forward: bool,
}

const CASES: [Case; 7] = [
    Case {
        make: || Box::new(Dense::new(6, 4, Activation::Tanh, &mut xrng::seeded(1))),
        input: &[5, 6],
        backward_needs_forward: true,
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
        backward_needs_forward: true,
    },
    Case {
        make: || Box::new(MaxPooling1D::new(2)),
        input: &[3, 8, 2],
        backward_needs_forward: true,
    },
    Case {
        make: || Box::new(Dropout::new(0.5, xrng::seeded(3))),
        input: &[4, 9],
        backward_needs_forward: false,
    },
    Case {
        make: || Box::new(Flatten::new()),
        input: &[3, 4, 2],
        backward_needs_forward: true,
    },
    Case {
        make: || Box::new(Reshape3::new(5, 2)),
        input: &[3, 10],
        backward_needs_forward: false,
    },
    Case {
        make: || Box::new(ActivationLayer::new(Activation::Sigmoid)),
        input: &[4, 5],
        backward_needs_forward: true,
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

#[test]
fn backward_before_forward_is_not_ready() {
    for case in &CASES {
        let mut layer = (case.make)();
        let ws = &mut Workspace::new();
        // `forward_infer` writes no cache, so it can size the gradient
        // without counting as the forward that backward is waiting for.
        let grad_out = layer.forward_infer(&case.input(), ws).unwrap();
        let result = layer.backward(&grad_out, true, ws);
        if case.backward_needs_forward {
            assert!(
                matches!(result, Err(DlError::NotReady(_))),
                "{}: expected NotReady",
                layer.name()
            );
        } else {
            let passed = result.unwrap().expect("asked for the input gradient");
            assert_eq!(bits(&passed), bits(&grad_out), "{}", layer.name());
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
            let grad_in = layer.backward(&grad_out, true, ws).unwrap().unwrap();
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
            let grad_out = layer.forward(&case.input(), true, ws).unwrap();
            let grad_in = layer.backward(&grad_out, input_grad, ws).unwrap();
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
