//! The forward-only max pool against the training kernel, bit for bit.
//!
//! Inference (`MaxPooling1D::forward_infer`, so every served batch and
//! every `Sequential::evaluate`) pools with [`maxpool1d_infer_ws`], which
//! keeps no argmax; training pools with [`maxpool1d_forward_ws`], which
//! does. `Layer::forward_infer` promises the bits of `forward`, so the two
//! kernels must agree on every output value — including the cases where a
//! running maximum and a compare-and-select could differ: windows holding
//! nothing above `-inf`, NaNs (which never win), signed zeros (ties go to
//! the first candidate), a trailing remainder of steps that no window
//! covers, and channel counts that leave the training kernel's 16-wide
//! tile ragged.

use tensor::{maxpool1d_forward_ws, maxpool1d_infer_ws, Tensor, Workspace};
use xrng::RandomSource;

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Both kernels on `input`; returns the (equal) pooled bits.
fn assert_same(input: &Tensor, pool: usize, what: &str) -> Vec<u32> {
    let ws = &mut Workspace::new();
    let mut argmax = Vec::new();
    let trained = maxpool1d_forward_ws(input, pool, &mut argmax, ws).unwrap();
    let inferred = maxpool1d_infer_ws(input, pool, ws).unwrap();
    assert_eq!(inferred.shape(), trained.shape(), "{what}");
    assert_eq!(bits(&inferred), bits(&trained), "{what}");
    bits(&inferred)
}

#[test]
fn forward_only_pool_matches_the_training_kernel_bit_for_bit() {
    let mut rng = xrng::seeded(1717);
    for pool in [1usize, 2, 3, 4] {
        // Multiples of the pool, and lengths with a remainder no window
        // covers.
        for steps in [pool, 4 * pool, 4 * pool + 1, 7 * pool + pool - 1] {
            for ch in [1usize, 7, 16, 17, 33] {
                for batch in [1usize, 3] {
                    let what = format!("pool {pool}, steps {steps}, ch {ch}, batch {batch}");
                    let random =
                        Tensor::from_fn([batch, steps, ch], |_| rng.next_f32() * 2.0 - 1.0);
                    assert_same(&random, pool, &what);

                    // The same input salted with the values a maximum
                    // treats specially.
                    let mut hostile = random.clone();
                    for (i, v) in hostile.data_mut().iter_mut().enumerate() {
                        match i % 11 {
                            0 => *v = f32::NEG_INFINITY,
                            3 => *v = f32::NAN,
                            5 => *v = 0.0,
                            7 => *v = -0.0,
                            9 => *v = f32::INFINITY,
                            _ => {}
                        }
                    }
                    assert_same(&hostile, pool, &format!("{what}, hostile values"));

                    let empty = Tensor::full([batch, steps, ch], f32::NEG_INFINITY);
                    let pooled = assert_same(&empty, pool, &format!("{what}, all -inf"));
                    assert!(
                        pooled.iter().all(|&b| b == f32::NEG_INFINITY.to_bits()),
                        "{what}: an all -inf window pools to -inf"
                    );
                }
            }
        }
    }
}

#[test]
fn forward_only_pool_rejects_what_the_training_kernel_rejects() {
    let ws = &mut Workspace::new();
    let short = Tensor::zeros([2, 3, 4]);
    assert!(maxpool1d_infer_ws(&short, 4, ws).is_err());
    assert!(maxpool1d_infer_ws(&short, 0, ws).is_err());
    // No channels: an empty output of the right shape, not a panic.
    let hollow = Tensor::zeros([2, 4, 0]);
    let out = maxpool1d_infer_ws(&hollow, 2, ws).unwrap();
    assert_eq!(out.shape().as_3d(), (2, 2, 0));
}
