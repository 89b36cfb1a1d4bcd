//! Seed kernels, kept verbatim as a baseline.
//!
//! These are the pre-blocked-GEMM implementations the workspace shipped
//! with: scalar i-k-j matmul loops with the `aval == 0.0` skip, and the
//! direct 4-deep Conv1D loop nest. They are retained so benchmarks and
//! the `table_kernels` experiment can measure the blocked engine against
//! the exact code it replaced, and so property tests have an independent
//! oracle.

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
    let cd = RawRows {
        base: c.data_mut().as_mut_ptr() as usize,
    };
    parx::parallel_for(m, kernel_threads(), |chunk| {
        for i in chunk.start..chunk.end {
            // SAFETY: each output row i is written by exactly one chunk.
            let crow =
                unsafe { std::slice::from_raw_parts_mut((cd.base as *mut f32).add(i * n), n) };
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
    let cd = RawRows {
        base: c.data_mut().as_mut_ptr() as usize,
    };
    parx::parallel_for(k, kernel_threads(), |chunk| {
        for j in chunk.start..chunk.end {
            // SAFETY: disjoint output rows per chunk.
            let crow =
                unsafe { std::slice::from_raw_parts_mut((cd.base as *mut f32).add(j * n), n) };
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
    let cd = RawRows {
        base: c.data_mut().as_mut_ptr() as usize,
    };
    parx::parallel_for(m, kernel_threads(), |chunk| {
        for i in chunk.start..chunk.end {
            let arow = &ad[i * ka..(i + 1) * ka];
            // SAFETY: disjoint output rows per chunk.
            let crow =
                unsafe { std::slice::from_raw_parts_mut((cd.base as *mut f32).add(i * n), n) };
            for (j, cv) in crow.iter_mut().enumerate() {
                let brow = &bd[j * ka..(j + 1) * ka];
                let mut acc = 0.0f32;
                for (&av, &bv) in arow.iter().zip(brow) {
                    acc += av * bv;
                }
                *cv = acc;
            }
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
    let od = RawRows {
        base: out.data_mut().as_mut_ptr() as usize,
    };
    parx::parallel_for(batch, kernel_threads(), |chunk| {
        for b in chunk.start..chunk.end {
            // SAFETY: batches are disjoint across chunks.
            let obatch = unsafe {
                std::slice::from_raw_parts_mut(
                    (od.base as *mut f32).add(b * out_steps * out_ch),
                    out_steps * out_ch,
                )
            };
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

    let gi = RawRows {
        base: grad_input.data_mut().as_mut_ptr() as usize,
    };
    parx::parallel_for(batch, kernel_threads(), |chunk| {
        for b in chunk.start..chunk.end {
            // SAFETY: batches disjoint across chunks.
            let gibatch = unsafe {
                std::slice::from_raw_parts_mut(
                    (gi.base as *mut f32).add(b * steps * in_ch),
                    steps * in_ch,
                )
            };
            let gbatch = &gd[b * out_steps * out_ch..(b + 1) * out_steps * out_ch];
            for t in 0..out_steps {
                let grow = &gbatch[t * out_ch..(t + 1) * out_ch];
                for k in 0..kernel {
                    let girow =
                        &mut gibatch[(t * stride + k) * in_ch..(t * stride + k + 1) * in_ch];
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

/// Shares a mutable base pointer across scoped threads for disjoint-row
/// writes.
struct RawRows {
    base: usize,
}
unsafe impl Sync for RawRows {}
