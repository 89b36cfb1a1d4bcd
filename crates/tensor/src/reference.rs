//! Seed kernels, kept verbatim as a baseline.
//!
//! These are the pre-blocked-GEMM implementations the workspace shipped
//! with: scalar i-k-j matmul loops with the `aval == 0.0` skip, and the
//! direct 4-deep Conv1D loop nest. They are retained so benchmarks and
//! the `table_kernels` experiment can measure the blocked engine against
//! the exact code it replaced, and so property tests have an independent
//! oracle. Each kernel forks over its output rows (batch elements, for the
//! convolutions) by the seed's rule: in one part below 256 rows per kernel
//! thread, otherwise one part per kernel thread.

use crate::conv1d_output_len;
use crate::{Tensor, TensorError};
use parx::kernel_threads;

/// Seed `C = A·B`: scalar i-k-j with a zero-skip branch.
pub fn matmul_seed(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    let (m, ka) = a.shape().as_2d();
    let (kb, n) = b.shape().as_2d();
    if ka != kb {
        return Err(TensorError::ShapeMismatch {
            left: a.shape().clone(),
            right: b.shape().clone(),
        });
    }
    let mut c = Tensor::zeros([m, n]);
    let (ad, bd) = (a.data(), b.data());
    for_each_row(c.data_mut(), n, |i, crow| {
        let arow = &ad[i * ka..(i + 1) * ka];
        for (l, &aval) in arow.iter().enumerate() {
            if aval == 0.0 {
                continue;
            }
            let brow = &bd[l * n..(l + 1) * n];
            for (cv, &bv) in crow.iter_mut().zip(brow) {
                *cv += aval * bv;
            }
        }
    });
    Ok(c)
}

/// Seed `C = Aᵀ·B` for `A: (m×k)`, `B: (m×n)`, producing `(k×n)`.
pub fn matmul_at_b_seed(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    let (ma, k) = a.shape().as_2d();
    let (mb, n) = b.shape().as_2d();
    if ma != mb {
        return Err(TensorError::ShapeMismatch {
            left: a.shape().clone(),
            right: b.shape().clone(),
        });
    }
    let mut c = Tensor::zeros([k, n]);
    let (ad, bd) = (a.data(), b.data());
    for_each_row(c.data_mut(), n, |j, crow| {
        for i in 0..ma {
            let aval = ad[i * k + j];
            if aval == 0.0 {
                continue;
            }
            let brow = &bd[i * n..(i + 1) * n];
            for (cv, &bv) in crow.iter_mut().zip(brow) {
                *cv += aval * bv;
            }
        }
    });
    Ok(c)
}

/// Seed `C = A·Bᵀ` for `A: (m×k)`, `B: (n×k)`, producing `(m×n)`.
pub fn matmul_a_bt_seed(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    let (m, ka) = a.shape().as_2d();
    let (n, kb) = b.shape().as_2d();
    if ka != kb {
        return Err(TensorError::ShapeMismatch {
            left: a.shape().clone(),
            right: b.shape().clone(),
        });
    }
    let mut c = Tensor::zeros([m, n]);
    let (ad, bd) = (a.data(), b.data());
    for_each_row(c.data_mut(), n, |i, crow| {
        let arow = &ad[i * ka..(i + 1) * ka];
        for (j, cv) in crow.iter_mut().enumerate() {
            let brow = &bd[j * ka..(j + 1) * ka];
            let mut acc = 0.0f32;
            for (&av, &bv) in arow.iter().zip(brow) {
                acc += av * bv;
            }
            *cv = acc;
        }
    });
    Ok(c)
}

/// Seed forward Conv1D: the direct batch/step/kernel/channel loop nest
/// with the `iv == 0.0` skip.
pub fn conv1d_forward_seed(
    input: &Tensor,
    weights: &Tensor,
    stride: usize,
) -> Result<Tensor, TensorError> {
    let (batch, steps, in_ch) = input.shape().as_3d();
    let (kernel, w_in, out_ch) = weights.shape().as_3d();
    let out_steps =
        conv1d_output_len(steps, kernel, stride).ok_or_else(|| TensorError::ShapeMismatch {
            left: input.shape().clone(),
            right: weights.shape().clone(),
        })?;
    if w_in != in_ch {
        return Err(TensorError::ShapeMismatch {
            left: input.shape().clone(),
            right: weights.shape().clone(),
        });
    }
    let mut out = Tensor::zeros([batch, out_steps, out_ch]);
    let (id, wd) = (input.data(), weights.data());
    for_each_row(out.data_mut(), out_steps * out_ch, |b, obatch| {
        let ibatch = &id[b * steps * in_ch..(b + 1) * steps * in_ch];
        for t in 0..out_steps {
            let orow = &mut obatch[t * out_ch..(t + 1) * out_ch];
            for k in 0..kernel {
                let irow = &ibatch[(t * stride + k) * in_ch..(t * stride + k + 1) * in_ch];
                let wslab = &wd[k * in_ch * out_ch..(k + 1) * in_ch * out_ch];
                for (c, &iv) in irow.iter().enumerate() {
                    if iv == 0.0 {
                        continue;
                    }
                    let wrow = &wslab[c * out_ch..(c + 1) * out_ch];
                    for (ov, &wv) in orow.iter_mut().zip(wrow) {
                        *ov += iv * wv;
                    }
                }
            }
        }
    });
    Ok(out)
}

/// Seed backward Conv1D: batch-parallel input gradient plus the *serial*
/// whole-batch weight-gradient loop the blocked engine replaced.
pub fn conv1d_backward_seed(
    input: &Tensor,
    weights: &Tensor,
    grad_out: &Tensor,
    stride: usize,
) -> Result<(Tensor, Tensor), TensorError> {
    let (batch, steps, in_ch) = input.shape().as_3d();
    let (kernel, _, out_ch) = weights.shape().as_3d();
    let (gb, out_steps, g_out_ch) = grad_out.shape().as_3d();
    if gb != batch
        || g_out_ch != out_ch
        || conv1d_output_len(steps, kernel, stride) != Some(out_steps)
    {
        return Err(TensorError::ShapeMismatch {
            left: input.shape().clone(),
            right: grad_out.shape().clone(),
        });
    }
    let mut grad_input = Tensor::zeros([batch, steps, in_ch]);
    let mut grad_weights = Tensor::zeros([kernel, in_ch, out_ch]);
    let (id, wd, gd) = (input.data(), weights.data(), grad_out.data());

    for_each_row(grad_input.data_mut(), steps * in_ch, |b, gibatch| {
        let gbatch = &gd[b * out_steps * out_ch..(b + 1) * out_steps * out_ch];
        for t in 0..out_steps {
            let grow = &gbatch[t * out_ch..(t + 1) * out_ch];
            for k in 0..kernel {
                let girow = &mut gibatch[(t * stride + k) * in_ch..(t * stride + k + 1) * in_ch];
                let wslab = &wd[k * in_ch * out_ch..(k + 1) * in_ch * out_ch];
                for (c, gv) in girow.iter_mut().enumerate() {
                    let wrow = &wslab[c * out_ch..(c + 1) * out_ch];
                    let mut acc = 0.0f32;
                    for (&g, &w) in grow.iter().zip(wrow) {
                        acc += g * w;
                    }
                    *gv += acc;
                }
            }
        }
    });

    for b in 0..batch {
        let ibatch = &id[b * steps * in_ch..(b + 1) * steps * in_ch];
        let gbatch = &gd[b * out_steps * out_ch..(b + 1) * out_steps * out_ch];
        for t in 0..out_steps {
            let grow = &gbatch[t * out_ch..(t + 1) * out_ch];
            for k in 0..kernel {
                let irow = &ibatch[(t * stride + k) * in_ch..(t * stride + k + 1) * in_ch];
                let gwslab =
                    &mut grad_weights.data_mut()[k * in_ch * out_ch..(k + 1) * in_ch * out_ch];
                for (c, &iv) in irow.iter().enumerate() {
                    if iv == 0.0 {
                        continue;
                    }
                    let gwrow = &mut gwslab[c * out_ch..(c + 1) * out_ch];
                    for (gw, &g) in gwrow.iter_mut().zip(grow) {
                        *gw += iv * g;
                    }
                }
            }
        }
    }
    Ok((grad_input, grad_weights))
}

/// Rows per kernel thread below which a seed kernel runs in one part.
const SEED_ROWS_PER_THREAD: usize = 256;

/// Runs `row(i, &mut out[i * row_len..(i + 1) * row_len])` for every row of
/// `out`: in one part below [`SEED_ROWS_PER_THREAD`] rows per kernel thread,
/// otherwise in one contiguous block of rows per kernel thread.
fn for_each_row(out: &mut [f32], row_len: usize, row: impl Fn(usize, &mut [f32]) + Sync) {
    // No rows, or rows of nothing: there is nothing to write, and
    // `chunks_mut(0)` panics.
    if out.is_empty() {
        return;
    }
    let rows = out.len() / row_len;
    let threads = kernel_threads();
    let parts = if rows >= SEED_ROWS_PER_THREAD * threads {
        threads
    } else {
        1
    };
    let per_part = rows.div_ceil(parts);
    parx::parallel_each(out.chunks_mut(per_part * row_len), |p, block| {
        for (r, out_row) in block.chunks_mut(row_len).enumerate() {
            row(p * per_part + r, out_row);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Shape;
    use xrng::RandomSource;

    /// Uniform in [-1, 1) with every fourth value zero, so the seed
    /// kernels' zero-skip branches run too.
    fn random(shape: impl Into<Shape>, seed: u64) -> Tensor {
        let mut rng = xrng::seeded(seed);
        Tensor::from_fn(shape, |i| match i % 4 {
            0 => 0.0,
            _ => rng.next_f32() * 2.0 - 1.0,
        })
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn many_rows_give_the_bits_of_one_part() {
        // Enough rows for one part per kernel thread, and a short last part.
        let rows = SEED_ROWS_PER_THREAD * kernel_threads() + 3;
        let (a, b) = (random([rows, 5], 1), random([5, 7], 2));
        let (x, d) = (random([6, rows], 3), random([6, 7], 4));
        let w = random([7, 5], 5);
        let input = random([rows, 9, 3], 6);
        let weights = random([3, 3, 4], 7);
        let grad_out = random([rows, 4, 4], 8);
        let run = || {
            let (gi, gw) = conv1d_backward_seed(&input, &weights, &grad_out, 2).unwrap();
            [
                bits(&matmul_seed(&a, &b).unwrap()),
                bits(&matmul_at_b_seed(&x, &d).unwrap()),
                bits(&matmul_a_bt_seed(&a, &w).unwrap()),
                bits(&conv1d_forward_seed(&input, &weights, 2).unwrap()),
                bits(&gi),
                bits(&gw),
            ]
        };
        let forked = run();
        let one_part = parx::among_peers(usize::MAX, run);
        for (kernel, (f, o)) in forked.iter().zip(&one_part).enumerate() {
            assert_eq!(f, o, "kernel {kernel}");
        }
    }

    #[test]
    fn empty_outputs_are_empty() {
        let c = matmul_seed(&Tensor::zeros([0, 4]), &random([4, 3], 1)).unwrap();
        assert_eq!(c.shape().as_2d(), (0, 3));
        let c = matmul_seed(&random([5, 4], 2), &Tensor::zeros([4, 0])).unwrap();
        assert_eq!(c.shape().as_2d(), (5, 0));
        let c = matmul_at_b_seed(&Tensor::zeros([3, 0]), &random([3, 2], 3)).unwrap();
        assert_eq!(c.shape().as_2d(), (0, 2));
        let out = conv1d_forward_seed(&Tensor::zeros([0, 9, 3]), &random([3, 3, 4], 4), 2);
        assert_eq!(out.unwrap().shape().as_3d(), (0, 4, 4));
    }
}
