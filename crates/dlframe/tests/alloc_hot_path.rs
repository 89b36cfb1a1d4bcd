//! Proves the zero-allocation training hot path: once the workspace pool,
//! layer caches, and batch buffers are warm, repeated `train_batch` calls
//! perform **zero** heap allocations.
//!
//! [`parx::CountingAlloc`] is the global allocator; the test runs a
//! warm-up phase, snapshots this thread's allocation counter, trains three
//! more epochs, and asserts the counter did not move.

use parx::{thread_allocs, CountingAlloc};

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

use dlframe::{
    Activation, Conv1D, Dataset, Dense, Dropout, Flatten, Loss, MaxPooling1D, NoSync, Optimizer,
    Reshape3, Sequential,
};
use tensor::Tensor;
use xrng::RandomSource;

/// A scaled-down NT3: reshape → conv → pool → conv → flatten → dense →
/// dropout → dense, exercising every layer kind in the hot path.
fn nt3ish_model() -> Sequential {
    let mut rng = xrng::seeded(11);
    let mut model = Sequential::new(7);
    model.add(Box::new(Reshape3::new(60, 1)));
    model.add(Box::new(Conv1D::new(1, 8, 5, 2, Activation::Relu, &mut rng)));
    model.add(Box::new(MaxPooling1D::new(2)));
    model.add(Box::new(Conv1D::new(8, 8, 3, 1, Activation::Relu, &mut rng)));
    model.add(Box::new(Flatten::new()));
    model.add(Box::new(Dense::new(96, 16, Activation::Relu, &mut rng)));
    model.add(Box::new(Dropout::new(0.1, xrng::seeded(12))));
    model.add(Box::new(Dense::new(16, 2, Activation::Linear, &mut rng)));
    model.compile(Loss::SoftmaxCrossEntropy, Optimizer::sgd(0.01));
    model
}

fn toy_data() -> Dataset {
    let mut rng = xrng::seeded(13);
    let x = Tensor::from_fn([64, 60], |_| rng.next_f32() - 0.5);
    let y = Tensor::from_fn([64, 2], |i| if i % 2 == (i / 2) % 2 { 1.0 } else { 0.0 });
    Dataset::new(x, y)
}

#[test]
fn train_batch_steady_state_allocates_nothing() {
    let mut model = nt3ish_model();
    let data = toy_data();
    let mut sync = NoSync;
    // 64 samples / batch 16 → four equal batches; fixed order (no shuffle)
    // so every epoch replays the same shapes.
    let batches = data.batch_indices(16, None);
    let mut bx = Tensor::zeros([1, 1]);
    let mut by = Tensor::zeros([1, 1]);
    // Warm-up: populates the workspace pool, the layers' cache slots, the
    // dropout mask / pooling argmax buffers, and the flat gradient buffer.
    for _ in 0..2 {
        for idx in &batches {
            data.batch_into(idx, &mut bx, &mut by);
            model.train_batch(&bx, &by, &mut sync).unwrap();
        }
    }
    let before = thread_allocs();
    assert!(before > 0, "building the model allocated: the counter must have seen it");
    for _ in 0..3 {
        for idx in &batches {
            data.batch_into(idx, &mut bx, &mut by);
            model.train_batch(&bx, &by, &mut sync).unwrap();
        }
    }
    let after = thread_allocs();
    assert_eq!(
        after - before,
        0,
        "steady-state training epochs performed {} heap allocations",
        after - before
    );
    // The accounting also proves the batches actually ran.
    assert_eq!(model.hot_stats().batches, 20);
}
