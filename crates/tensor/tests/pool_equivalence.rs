//! The max-pool kernels against each other and against a scalar oracle,
//! bit for bit.
//!
//! Inference (`MaxPooling1D::forward_infer`, so every served batch and
//! every `Sequential::evaluate`) pools with [`maxpool1d_infer_ws`], which
//! keeps nothing for a backward pass; training pools with
//! [`maxpool1d_forward_ws`], which records each output's winning window
//! offset. `Layer::forward_infer` promises the bits of `forward`, so the
//! two kernels must agree on every output value — including the cases
//! where a running maximum and a compare-and-select could differ: windows
//! holding nothing above `-inf`, NaNs (which never win), signed zeros
//! (ties go to the first candidate), a trailing remainder of steps that no
//! window covers, and channel counts that leave a vector lane ragged.
//!
//! [`maxpool1d_backward_ws`] is checked on the same grid against a scalar
//! first-maximum scatter written here: every window that has a winner
//! routes its gradient to that position and writes zero everywhere else,
//! and a window without one (all NaN / `-inf`) drops its gradient instead
//! of adding it to element 0 of the batch, as a flat argmax once did.

use tensor::{maxpool1d_backward_ws, maxpool1d_forward_ws, maxpool1d_infer_ws, Tensor, Workspace};
use xrng::RandomSource;

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// A gradient with no zeros and no repeats nearby, so a misrouted or
/// dropped element shows.
fn grad_like(pooled: &Tensor) -> Tensor {
    Tensor::from_fn(pooled.shape().clone(), |i| 1.0 + (i % 97) as f32 * 0.125)
}

/// Scalar oracle: each window's gradient goes to its first strict maximum
/// above `-inf`; everything else is zero.
fn scatter_to_first_maximum(input: &Tensor, pool: usize, grad_out: &Tensor) -> Tensor {
    let (batch, steps, ch) = input.shape().as_3d();
    let out_steps = steps / pool;
    let mut want = Tensor::zeros(input.shape().clone());
    for b in 0..batch {
        for t in 0..out_steps {
            for c in 0..ch {
                let at = |p: usize| (b * steps + t * pool + p) * ch + c;
                let mut best = f32::NEG_INFINITY;
                let mut winner = None;
                for p in 0..pool {
                    let v = input.data()[at(p)];
                    if v > best {
                        best = v;
                        winner = Some(p);
                    }
                }
                if let Some(p) = winner {
                    want.data_mut()[at(p)] = grad_out.data()[(b * out_steps + t) * ch + c];
                }
            }
        }
    }
    want
}

/// Both forward kernels on `input`, then backward against the oracle;
/// returns the (equal) pooled bits and the input gradient.
fn assert_same(input: &Tensor, pool: usize, what: &str) -> (Vec<u32>, Tensor) {
    let ws = &mut Workspace::new();
    let mut offsets = Vec::new();
    let trained = maxpool1d_forward_ws(input, pool, &mut offsets, ws).unwrap();
    let inferred = maxpool1d_infer_ws(input, pool, ws).unwrap();
    assert_eq!(inferred.shape(), trained.shape(), "{what}");
    assert_eq!(bits(&inferred), bits(&trained), "{what}");
    let grad_out = grad_like(&trained);
    let got = maxpool1d_backward_ws(input.shape(), &grad_out, pool, &offsets, ws).unwrap();
    let want = scatter_to_first_maximum(input, pool, &grad_out);
    assert_eq!(got.shape(), want.shape(), "{what}");
    assert_eq!(bits(&got), bits(&want), "{what}: backward");
    (bits(&inferred), got)
}

#[test]
fn pool_kernels_agree_with_each_other_and_with_the_scalar_oracle() {
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
                    let (pooled, grad) = assert_same(&empty, pool, &format!("{what}, all -inf"));
                    assert!(
                        pooled.iter().all(|&b| b == f32::NEG_INFINITY.to_bits()),
                        "{what}: an all -inf window pools to -inf"
                    );
                    assert!(
                        bits(&grad).iter().all(|&b| b == 0),
                        "{what}: no window has a winner, so no gradient lands anywhere"
                    );
                }
            }
        }
    }
}

#[test]
fn a_window_without_a_winner_drops_its_gradient_and_disturbs_nothing_else() {
    let mut rng = xrng::seeded(2929);
    let (batch, steps, ch, pool) = (3usize, 9usize, 17usize, 2usize);
    let ordinary = Tensor::from_fn([batch, steps, ch], |_| rng.next_f32() * 2.0 - 1.0);
    // The window of sample 2, output step 1: far from element 0 of the
    // batch, where a flat argmax of 0 used to send its gradient.
    let (b0, t0) = (2usize, 1usize);
    let window = (b0 * steps + t0 * pool) * ch..(b0 * steps + (t0 + 1) * pool) * ch;
    let mut hostile = ordinary.clone();
    for (i, v) in hostile.data_mut()[window.clone()].iter_mut().enumerate() {
        *v = if i % 2 == 0 {
            f32::NAN
        } else {
            f32::NEG_INFINITY
        };
    }
    let (_, plain) = assert_same(&ordinary, pool, "ordinary window");
    let (_, dropped) = assert_same(&hostile, pool, "window of NaN and -inf");
    for (i, (got, was)) in bits(&dropped).into_iter().zip(bits(&plain)).enumerate() {
        if window.contains(&i) {
            assert_eq!(got, 0, "element {i} lies in the window without a winner");
        } else {
            assert_eq!(got, was, "element {i} is outside it and must not move");
        }
    }
    // Each of the window's channels had a winner while its values were
    // ordinary, so the comparison above did see gradient disappear.
    assert!(bits(&plain)[window].iter().filter(|&&b| b != 0).count() == ch);
}

#[test]
fn pool_kernels_reject_bad_geometry() {
    let ws = &mut Workspace::new();
    let short = Tensor::zeros([2, 3, 4]);
    assert!(maxpool1d_infer_ws(&short, 4, ws).is_err());
    assert!(maxpool1d_infer_ws(&short, 0, ws).is_err());
    assert!(maxpool1d_forward_ws(&short, 4, &mut Vec::new(), ws).is_err());
    // No channels: an empty output of the right shape, not a panic.
    let hollow = Tensor::zeros([2, 4, 0]);
    let out = maxpool1d_infer_ws(&hollow, 2, ws).unwrap();
    assert_eq!(out.shape().as_3d(), (2, 2, 0));
    // Backward: a gradient or an offset buffer that does not belong to
    // the input's geometry is an error, not a short or misrouted result.
    let input = Tensor::zeros([2, 8, 3]);
    let mut offsets = Vec::new();
    let pooled = maxpool1d_forward_ws(&input, 2, &mut offsets, ws).unwrap();
    let wrong_steps = Tensor::zeros([2, 3, 3]);
    assert!(maxpool1d_backward_ws(input.shape(), &wrong_steps, 2, &offsets, ws).is_err());
    assert!(maxpool1d_backward_ws(input.shape(), &pooled, 2, &offsets[1..], ws).is_err());
    assert!(maxpool1d_backward_ws(input.shape(), &pooled, 2, &offsets, ws).is_ok());
}
