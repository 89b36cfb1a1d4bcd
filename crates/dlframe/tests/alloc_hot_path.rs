//! Proves the zero-allocation training hot path: once the workspace pool,
//! the model's activation chain, and batch buffers are warm, repeated
//! `train_batch` calls perform **zero** heap allocations — also when the
//! batch size alternates, as it does at the ragged end of every epoch.
//!
//! [`parx::CountingAlloc`] is the global allocator; each test runs a
//! warm-up phase, snapshots this thread's allocation counter, trains
//! further, and asserts the counter did not move.

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
    model.add(Box::new(Conv1D::new(
        1,
        8,
        5,
        2,
        Activation::Relu,
        &mut rng,
    )));
    model.add(Box::new(MaxPooling1D::new(2)));
    model.add(Box::new(Conv1D::new(
        8,
        8,
        3,
        1,
        Activation::Relu,
        &mut rng,
    )));
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
    // Warm-up: populates the workspace pool, the model's activation chain,
    // the dropout mask / pooling offset buffers, and the flat gradient
    // buffer.
    for _ in 0..2 {
        for idx in &batches {
            data.batch_into(idx, &mut bx, &mut by);
            model.train_batch(&bx, &by, &mut sync).unwrap();
        }
    }
    let before = thread_allocs();
    assert!(
        before > 0,
        "building the model allocated: the counter must have seen it"
    );
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

#[test]
fn alternating_batch_sizes_stay_allocation_free_and_train_the_same() {
    // An epoch that does not divide by the batch size ends on a short
    // batch, so the chain's tensors — taken from the pool as they are —
    // have to fit 16 rows, then 5, then 16 again: buffers that are larger
    // than asked for, and hold another batch's values.
    let data = toy_data();
    let sizes: [&[usize]; 3] = [
        &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15],
        &[16, 17, 18, 19, 20],
        &[
            21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36,
        ],
    ];
    let mut bx = Tensor::zeros([1, 1]);
    let mut by = Tensor::zeros([1, 1]);
    let mut train = |model: &mut Sequential| {
        for idx in sizes {
            data.batch_into(idx, &mut bx, &mut by);
            model.train_batch(&bx, &by, &mut NoSync).unwrap();
        }
    };
    let mut warm = nt3ish_model();
    // See each size (twice over), then put the parameters and the random
    // streams back: what stays warm is only the memory.
    let (params, streams) = (warm.flat_params(), warm.rng_states());
    train(&mut warm);
    train(&mut warm);
    warm.set_flat_params(&params);
    warm.set_rng_states(&streams);
    let before = thread_allocs();
    train(&mut warm);
    assert_eq!(
        thread_allocs() - before,
        0,
        "training on batch sizes already seen allocated"
    );
    let mut fresh = nt3ish_model();
    train(&mut fresh);
    let bits =
        |m: &Sequential| -> Vec<u32> { m.flat_params().iter().map(|v| v.to_bits()).collect() };
    assert_eq!(
        bits(&warm),
        bits(&fresh),
        "a warm pool's oversized, stale buffers changed what was computed"
    );
}
