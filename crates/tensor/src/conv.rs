//! 1-D convolution and max-pooling kernels for the NT3 network.
//!
//! Layout follows Keras: activations are `(batch, steps, channels)` and
//! convolution kernels are `(kernel_size, in_channels, out_channels)`.
//! Padding is always `valid` (as in the NT3 benchmark definition) and
//! pooling windows are non-overlapping (`stride == pool_size`, the Keras
//! default).
//!
//! Convolution is lowered to the blocked GEMM engine: the input is
//! expanded with im2col into a reusable [`Workspace`] scratch buffer
//! (rows = output positions, columns = `kernel*in_ch` receptive fields),
//! so the forward pass is one `A·B` with a fused bias+activation
//! epilogue, the input gradient is one `A·Bᵀ` plus a col2im scatter, and
//! the weight gradient is an `Aᵀ·B` evaluated as fixed-size row blocks
//! with a deterministic, thread-count-independent combine order —
//! replacing the seed's serial whole-batch loop.

use crate::gemm::{gemm_slice, with_scratch, Epilogue, FusedAct, GemmMode, Workspace};
use crate::{Tensor, TensorError};
use parx::kernel_threads;

/// Rows of the im2col matrix per weight-gradient reduction block. The
/// block partition is a pure function of the row count — never of the
/// thread count — so the blockwise sum is reproducible on any machine.
const WGRAD_BLOCK_ROWS: usize = 1024;

/// Work (in output elements) below which helper loops stay sequential.
const MIN_ELEMS_PER_THREAD: usize = 65_536;

/// Output length of a valid-padding 1-D convolution.
///
/// Returns `None` if the input is shorter than the kernel.
pub fn conv1d_output_len(steps: usize, kernel: usize, stride: usize) -> Option<usize> {
    if kernel == 0 || stride == 0 || steps < kernel {
        return None;
    }
    Some((steps - kernel) / stride + 1)
}

/// Output length of a non-overlapping 1-D max pool.
pub fn pool1d_output_len(steps: usize, pool: usize) -> Option<usize> {
    if pool == 0 || steps < pool {
        return None;
    }
    Some(steps / pool)
}

/// Runs `body` over `0..n` with at most `threads` workers, using the
/// allocation-free sequential path when one thread suffices. `body` must
/// produce partition-independent results (disjoint writes only).
fn run_chunks(n: usize, threads: usize, body: impl Fn(parx::Chunk) + Sync) {
    if n == 0 {
        return;
    }
    if threads <= 1 {
        body(parx::Chunk {
            index: 0,
            start: 0,
            end: n,
        });
    } else {
        parx::parallel_for_grained(n, threads, 1, body);
    }
}

/// Thread budget for `total_elems` of light (copy/scatter) work.
fn copy_threads(n_items: usize, total_elems: usize) -> usize {
    kernel_threads()
        .min((total_elems / MIN_ELEMS_PER_THREAD).max(1))
        .min(n_items.max(1))
}

/// Shares a mutable base pointer across scoped threads for disjoint
/// writes.
struct RawBase(usize);
unsafe impl Sync for RawBase {}

/// Expands `input (batch, steps, in_ch)` into the im2col matrix
/// `(batch*out_steps, kernel*in_ch)` stored in `col`. Row `b*out_steps+t`
/// holds the receptive field of output position `(b, t)` with the
/// reduction index ordered `k`-major then channel — the same accumulation
/// order the seed kernel used.
#[allow(clippy::too_many_arguments)]
fn im2col(
    input: &[f32],
    batch: usize,
    steps: usize,
    in_ch: usize,
    kernel: usize,
    stride: usize,
    out_steps: usize,
    col: &mut [f32],
) {
    let kcols = kernel * in_ch;
    debug_assert_eq!(col.len(), batch * out_steps * kcols);
    let base = RawBase(col.as_mut_ptr() as usize);
    let t = copy_threads(batch, batch * out_steps * kcols);
    run_chunks(batch, t, |chunk| {
        for b in chunk.start..chunk.end {
            // SAFETY: batches are disjoint across chunks.
            let rows = unsafe {
                std::slice::from_raw_parts_mut(
                    (base.0 as *mut f32).add(b * out_steps * kcols),
                    out_steps * kcols,
                )
            };
            let ibatch = &input[b * steps * in_ch..(b + 1) * steps * in_ch];
            for (t, row) in rows.chunks_exact_mut(kcols).enumerate() {
                for k in 0..kernel {
                    let src = &ibatch[(t * stride + k) * in_ch..(t * stride + k + 1) * in_ch];
                    row[k * in_ch..(k + 1) * in_ch].copy_from_slice(src);
                }
            }
        }
    });
}

fn conv_shape_error(left: &Tensor, right: &Tensor) -> TensorError {
    TensorError::ShapeMismatch {
        left: left.shape().clone(),
        right: right.shape().clone(),
    }
}

/// Forward 1-D convolution with an optional fused epilogue, producing the
/// output from `ws`'s buffer pool.
///
/// * `input`:  `(batch, steps, in_ch)`
/// * `weights`: `(kernel, in_ch, out_ch)`
/// * `bias`: optional per-output-channel bias fused into the GEMM epilogue
/// * `act`: activation fused into the GEMM epilogue
///
/// Returns `act(conv(input, weights) + bias)` as `(batch, out_steps, out_ch)`.
pub fn conv1d_forward_ws(
    input: &Tensor,
    weights: &Tensor,
    stride: usize,
    bias: Option<&[f32]>,
    act: FusedAct,
    ws: &mut Workspace,
) -> Result<Tensor, TensorError> {
    let (batch, steps, in_ch) = input.shape().as_3d();
    let (kernel, w_in, out_ch) = weights.shape().as_3d();
    let out_steps = conv1d_output_len(steps, kernel, stride)
        .ok_or_else(|| conv_shape_error(input, weights))?;
    if w_in != in_ch {
        return Err(conv_shape_error(input, weights));
    }
    let m = batch * out_steps;
    let k = kernel * in_ch;
    let mut out = ws.alloc([batch, out_steps, out_ch]);
    // The im2col scratch leaves the workspace while the GEMM borrows it.
    let mut col = std::mem::take(&mut ws.im2col);
    col.resize(m * k, 0.0);
    im2col(
        input.data(),
        batch,
        steps,
        in_ch,
        kernel,
        stride,
        out_steps,
        &mut col,
    );
    let epilogue = Epilogue { bias, act };
    gemm_slice(
        GemmMode::Ab,
        &col,
        weights.data(),
        m,
        k,
        out_ch,
        out.data_mut(),
        &epilogue,
        0,
        ws,
    );
    ws.im2col = col;
    Ok(out)
}

/// Forward 1-D convolution without bias or activation, on this thread's
/// scratch workspace (the allocating convenience form of
/// [`conv1d_forward_ws`]).
///
/// * `input`:  `(batch, steps, in_ch)`
/// * `weights`: `(kernel, in_ch, out_ch)`
///
/// Returns `(batch, out_steps, out_ch)`.
pub fn conv1d_forward(
    input: &Tensor,
    weights: &Tensor,
    stride: usize,
) -> Result<Tensor, TensorError> {
    with_scratch(|ws| conv1d_forward_ws(input, weights, stride, None, FusedAct::Linear, ws))
}

/// Backward 1-D convolution on a workspace: writes the weight gradient
/// into `grad_weights` (shape `(kernel, in_ch, out_ch)`, fully
/// overwritten) and returns the input gradient from `ws`'s pool.
///
/// The weight gradient is an `Aᵀ·B` over the im2col matrix, evaluated in
/// [`WGRAD_BLOCK_ROWS`]-row blocks. Blocks may be computed on different
/// threads, but each block's partial is a sequential in-order sum and the
/// partials are combined in ascending block order, so the result is
/// bit-identical for every thread count.
pub fn conv1d_backward_ws(
    input: &Tensor,
    weights: &Tensor,
    grad_out: &Tensor,
    stride: usize,
    grad_weights: &mut Tensor,
    ws: &mut Workspace,
) -> Result<Tensor, TensorError> {
    let (batch, steps, in_ch) = input.shape().as_3d();
    let (kernel, _, out_ch) = weights.shape().as_3d();
    let (gb, out_steps, g_out_ch) = grad_out.shape().as_3d();
    if gb != batch
        || g_out_ch != out_ch
        || conv1d_output_len(steps, kernel, stride) != Some(out_steps)
    {
        return Err(conv_shape_error(input, grad_out));
    }
    let m = batch * out_steps;
    let k = kernel * in_ch;
    if grad_weights.len() != k * out_ch {
        return Err(TensorError::LengthMismatch {
            expected: k * out_ch,
            actual: grad_weights.len(),
        });
    }
    let gd = grad_out.data();

    // Input gradient: grad_col = grad_out · Wᵀ, then col2im scatter.
    let mut colgrad = std::mem::take(&mut ws.colgrad);
    colgrad.resize(m * k, 0.0);
    gemm_slice(
        GemmMode::ABt,
        gd,
        weights.data(),
        m,
        out_ch,
        k,
        &mut colgrad,
        &Epilogue::NONE,
        0,
        ws,
    );
    let mut grad_input = ws.alloc([batch, steps, in_ch]);
    {
        let base = RawBase(grad_input.data_mut().as_mut_ptr() as usize);
        let t = copy_threads(batch, m * k);
        run_chunks(batch, t, |chunk| {
            for b in chunk.start..chunk.end {
                // SAFETY: batches are disjoint across chunks.
                let gibatch = unsafe {
                    std::slice::from_raw_parts_mut(
                        (base.0 as *mut f32).add(b * steps * in_ch),
                        steps * in_ch,
                    )
                };
                for t in 0..out_steps {
                    let row = &colgrad[(b * out_steps + t) * k..(b * out_steps + t + 1) * k];
                    for kk in 0..kernel {
                        let dst = &mut gibatch
                            [(t * stride + kk) * in_ch..(t * stride + kk + 1) * in_ch];
                        let src = &row[kk * in_ch..(kk + 1) * in_ch];
                        for (d, &s) in dst.iter_mut().zip(src) {
                            *d += s;
                        }
                    }
                }
            }
        });
    }
    ws.colgrad = colgrad;

    // Weight gradient: im2colᵀ · grad_out in fixed-size row blocks.
    let mut col = std::mem::take(&mut ws.im2col);
    col.resize(m * k, 0.0);
    im2col(
        input.data(),
        batch,
        steps,
        in_ch,
        kernel,
        stride,
        out_steps,
        &mut col,
    );
    let nblocks = m.div_ceil(WGRAD_BLOCK_ROWS);
    let mut partials = std::mem::take(&mut ws.partials);
    partials.resize(nblocks * k * out_ch, 0.0);
    {
        let base = RawBase(partials.as_mut_ptr() as usize);
        let flops = 2usize.saturating_mul(m).saturating_mul(k).saturating_mul(out_ch);
        let t = kernel_threads()
            .min((flops / (2 * MIN_ELEMS_PER_THREAD)).max(1))
            .min(nblocks);
        run_chunks(nblocks, t, |chunk| {
            for blk in chunk.start..chunk.end {
                let r0 = blk * WGRAD_BLOCK_ROWS;
                let r1 = (r0 + WGRAD_BLOCK_ROWS).min(m);
                // SAFETY: each block's partial slab is written by exactly
                // one chunk.
                let part = unsafe {
                    std::slice::from_raw_parts_mut(
                        (base.0 as *mut f32).add(blk * k * out_ch),
                        k * out_ch,
                    )
                };
                part.fill(0.0);
                for r in r0..r1 {
                    let crow = &col[r * k..(r + 1) * k];
                    let grow = &gd[r * out_ch..(r + 1) * out_ch];
                    for (kk, &cv) in crow.iter().enumerate() {
                        let dst = &mut part[kk * out_ch..(kk + 1) * out_ch];
                        for (d, &g) in dst.iter_mut().zip(grow) {
                            *d += cv * g;
                        }
                    }
                }
            }
        });
    }
    ws.im2col = col;
    // Combine partials in ascending block order — fixed regardless of how
    // blocks were assigned to threads.
    let gw = grad_weights.data_mut();
    gw.fill(0.0);
    for blk in 0..nblocks {
        let part = &partials[blk * k * out_ch..(blk + 1) * k * out_ch];
        for (d, &p) in gw.iter_mut().zip(part) {
            *d += p;
        }
    }
    ws.partials = partials;
    Ok(grad_input)
}

/// Backward 1-D convolution: gradients w.r.t. the input and the weights.
///
/// * `input`:   the forward input `(batch, steps, in_ch)`
/// * `weights`: `(kernel, in_ch, out_ch)`
/// * `grad_out`: `(batch, out_steps, out_ch)` upstream gradient
///
/// Returns `(grad_input, grad_weights)`.
pub fn conv1d_backward(
    input: &Tensor,
    weights: &Tensor,
    grad_out: &Tensor,
    stride: usize,
) -> Result<(Tensor, Tensor), TensorError> {
    let (kernel, in_ch, out_ch) = weights.shape().as_3d();
    let mut grad_weights = Tensor::zeros([kernel, in_ch, out_ch]);
    let grad_input = with_scratch(|ws| {
        conv1d_backward_ws(input, weights, grad_out, stride, &mut grad_weights, ws)
    })?;
    Ok((grad_input, grad_weights))
}

/// Forward non-overlapping 1-D max pool on a workspace.
///
/// Writes the flat input index of each selected maximum into `argmax`
/// (cleared and resized) and returns the pooled tensor from `ws`'s pool.
pub fn maxpool1d_forward_ws(
    input: &Tensor,
    pool: usize,
    argmax: &mut Vec<usize>,
    ws: &mut Workspace,
) -> Result<Tensor, TensorError> {
    let (batch, steps, ch) = input.shape().as_3d();
    let out_steps = pool1d_output_len(steps, pool).ok_or_else(|| TensorError::ShapeMismatch {
        left: input.shape().clone(),
        right: crate::Shape::from([pool]),
    })?;
    let mut out = ws.alloc([batch, out_steps, ch]);
    argmax.clear();
    argmax.resize(batch * out_steps * ch, 0);
    let id = input.data();
    let od = out.data_mut();
    for b in 0..batch {
        for t in 0..out_steps {
            for c in 0..ch {
                let mut best = f32::NEG_INFINITY;
                let mut best_idx = 0usize;
                for p in 0..pool {
                    let idx = b * steps * ch + (t * pool + p) * ch + c;
                    if id[idx] > best {
                        best = id[idx];
                        best_idx = idx;
                    }
                }
                let oidx = b * out_steps * ch + t * ch + c;
                od[oidx] = best;
                argmax[oidx] = best_idx;
            }
        }
    }
    Ok(out)
}

/// Backward max pool on a workspace: routes each upstream gradient to the
/// input position that produced the maximum.
pub fn maxpool1d_backward_ws(
    input_shape: &crate::Shape,
    grad_out: &Tensor,
    argmax: &[usize],
    ws: &mut Workspace,
) -> Result<Tensor, TensorError> {
    if grad_out.len() != argmax.len() {
        return Err(TensorError::LengthMismatch {
            expected: grad_out.len(),
            actual: argmax.len(),
        });
    }
    let mut grad_input = ws.alloc(input_shape.clone());
    let gi = grad_input.data_mut();
    for (&g, &idx) in grad_out.data().iter().zip(argmax) {
        gi[idx] += g;
    }
    Ok(grad_input)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use proptest::prelude::*;
    use xrng::RandomSource;

    /// Pooled output plus the argmax indices backward routes through.
    fn maxpool(input: &Tensor, pool: usize) -> (Tensor, Vec<usize>) {
        let mut argmax = Vec::new();
        let out = maxpool1d_forward_ws(input, pool, &mut argmax, &mut Workspace::new()).unwrap();
        (out, argmax)
    }

    fn rand3(b: usize, s: usize, c: usize, seed: u64) -> Tensor {
        let mut rng = xrng::seeded(seed);
        Tensor::from_fn([b, s, c], |_| rng.next_f32() * 2.0 - 1.0)
    }

    /// Direct per-element reference convolution.
    fn naive_conv(input: &Tensor, weights: &Tensor, stride: usize) -> Tensor {
        let (batch, steps, in_ch) = input.shape().as_3d();
        let (kernel, _, out_ch) = weights.shape().as_3d();
        let out_steps = conv1d_output_len(steps, kernel, stride).unwrap();
        Tensor::from_fn([batch, out_steps, out_ch], |flat| {
            let o = flat % out_ch;
            let t = (flat / out_ch) % out_steps;
            let b = flat / (out_ch * out_steps);
            let mut acc = 0.0;
            for k in 0..kernel {
                for c in 0..in_ch {
                    let iv = input.data()[b * steps * in_ch + (t * stride + k) * in_ch + c];
                    let wv = weights.data()[k * in_ch * out_ch + c * out_ch + o];
                    acc += iv * wv;
                }
            }
            acc
        })
    }

    #[test]
    fn output_len_math() {
        assert_eq!(conv1d_output_len(10, 3, 1), Some(8));
        assert_eq!(conv1d_output_len(10, 3, 2), Some(4));
        assert_eq!(conv1d_output_len(2, 3, 1), None);
        assert_eq!(conv1d_output_len(10, 0, 1), None);
        assert_eq!(pool1d_output_len(10, 2), Some(5));
        assert_eq!(pool1d_output_len(11, 2), Some(5));
        assert_eq!(pool1d_output_len(1, 2), None);
    }

    #[test]
    fn forward_matches_naive() {
        let input = rand3(2, 12, 3, 1);
        let weights = rand3(4, 3, 5, 2); // (kernel, in, out)
        for stride in [1, 2, 3] {
            let fast = conv1d_forward(&input, &weights, stride).unwrap();
            let slow = naive_conv(&input, &weights, stride);
            for (a, b) in fast.data().iter().zip(slow.data()) {
                assert!((a - b).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn forward_matches_seed_kernel() {
        let input = rand3(3, 40, 4, 30);
        let weights = rand3(5, 4, 7, 31);
        for stride in [1, 2] {
            let fast = conv1d_forward(&input, &weights, stride).unwrap();
            let seed = reference::conv1d_forward_seed(&input, &weights, stride).unwrap();
            assert_eq!(fast.shape(), seed.shape());
            for (a, b) in fast.data().iter().zip(seed.data()) {
                assert!((a - b).abs() < 1e-5, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn fused_bias_and_relu_match_unfused() {
        let input = rand3(2, 20, 3, 40);
        let weights = rand3(3, 3, 6, 41);
        let bias: Vec<f32> = (0..6).map(|i| i as f32 * 0.1 - 0.2).collect();
        let mut ws = Workspace::new();
        let fused = conv1d_forward_ws(
            &input,
            &weights,
            1,
            Some(&bias),
            FusedAct::Relu,
            &mut ws,
        )
        .unwrap();
        let plain = conv1d_forward(&input, &weights, 1).unwrap();
        let (_, _, out_ch) = fused.shape().as_3d();
        for (i, (&f, &p)) in fused.data().iter().zip(plain.data()).enumerate() {
            let expect = (p + bias[i % out_ch]).max(0.0);
            assert_eq!(f.to_bits(), expect.to_bits(), "element {i}");
        }
    }

    /// Finite-difference check of the full backward pass.
    #[test]
    fn backward_matches_finite_differences() {
        let input = rand3(2, 7, 2, 10);
        let weights = rand3(3, 2, 3, 11);
        let stride = 2;
        let out = conv1d_forward(&input, &weights, stride).unwrap();
        // Loss = sum(out); upstream gradient is all ones.
        let grad_out = Tensor::full(out.shape().clone().dims().to_vec(), 1.0);
        let (gi, gw) = conv1d_backward(&input, &weights, &grad_out, stride).unwrap();
        let eps = 1e-3f32;
        let loss =
            |inp: &Tensor, w: &Tensor| -> f64 { conv1d_forward(inp, w, stride).unwrap().sum() };
        // Check a sample of input coordinates.
        for idx in [0usize, 5, 13, 20, 27] {
            let mut plus = input.clone();
            plus.data_mut()[idx] += eps;
            let mut minus = input.clone();
            minus.data_mut()[idx] -= eps;
            let num = (loss(&plus, &weights) - loss(&minus, &weights)) / (2.0 * eps as f64);
            assert!(
                (num - gi.data()[idx] as f64).abs() < 1e-2,
                "input grad at {idx}: numeric {num} vs analytic {}",
                gi.data()[idx]
            );
        }
        // Check a sample of weight coordinates.
        for idx in [0usize, 3, 7, 11, 17] {
            let mut plus = weights.clone();
            plus.data_mut()[idx] += eps;
            let mut minus = weights.clone();
            minus.data_mut()[idx] -= eps;
            let num = (loss(&input, &plus) - loss(&input, &minus)) / (2.0 * eps as f64);
            assert!(
                (num - gw.data()[idx] as f64).abs() < 1e-2,
                "weight grad at {idx}: numeric {num} vs analytic {}",
                gw.data()[idx]
            );
        }
    }

    #[test]
    fn backward_matches_seed_kernel() {
        let input = rand3(3, 30, 3, 50);
        let weights = rand3(4, 3, 5, 51);
        let grad_out_shape = conv1d_forward(&input, &weights, 2).unwrap();
        let grad_out = rand3(
            grad_out_shape.shape().as_3d().0,
            grad_out_shape.shape().as_3d().1,
            grad_out_shape.shape().as_3d().2,
            52,
        );
        let (gi, gw) = conv1d_backward(&input, &weights, &grad_out, 2).unwrap();
        let (gi_seed, gw_seed) =
            reference::conv1d_backward_seed(&input, &weights, &grad_out, 2).unwrap();
        for (a, b) in gi.data().iter().zip(gi_seed.data()) {
            assert!((a - b).abs() < 1e-5, "input grad {a} vs {b}");
        }
        for (a, b) in gw.data().iter().zip(gw_seed.data()) {
            assert!((a - b).abs() < 1e-4, "weight grad {a} vs {b}");
        }
    }

    #[test]
    fn weight_grad_blocks_are_thread_count_invariant() {
        // More rows than one WGRAD block so the blockwise combine runs;
        // results must not depend on how blocks map to threads (exercised
        // indirectly: two identical calls reuse different pool state).
        let input = rand3(8, 200, 2, 60);
        let weights = rand3(3, 2, 4, 61);
        let out = conv1d_forward(&input, &weights, 1).unwrap();
        let grad_out = rand3(
            out.shape().as_3d().0,
            out.shape().as_3d().1,
            out.shape().as_3d().2,
            62,
        );
        let mut ws = Workspace::new();
        let mut gw1 = Tensor::zeros([3, 2, 4]);
        let mut gw2 = Tensor::zeros([3, 2, 4]);
        let gi1 =
            conv1d_backward_ws(&input, &weights, &grad_out, 1, &mut gw1, &mut ws).unwrap();
        let gi2 =
            conv1d_backward_ws(&input, &weights, &grad_out, 1, &mut gw2, &mut ws).unwrap();
        assert_eq!(gw1.data(), gw2.data());
        assert_eq!(gi1.data(), gi2.data());
    }

    #[test]
    fn forward_rejects_channel_mismatch() {
        let input = rand3(1, 8, 3, 3);
        let weights = rand3(2, 4, 5, 4);
        assert!(conv1d_forward(&input, &weights, 1).is_err());
    }

    #[test]
    fn forward_rejects_short_input() {
        let input = rand3(1, 2, 3, 5);
        let weights = rand3(5, 3, 2, 6);
        assert!(conv1d_forward(&input, &weights, 1).is_err());
    }

    #[test]
    fn backward_rejects_bad_grad_shape() {
        let input = rand3(1, 8, 2, 20);
        let weights = rand3(3, 2, 4, 21);
        let bad_grad = rand3(1, 99, 4, 22);
        assert!(conv1d_backward(&input, &weights, &bad_grad, 1).is_err());
    }

    #[test]
    fn maxpool_forward_selects_maxima() {
        let input =
            Tensor::from_vec([1, 4, 2], vec![1.0, -1.0, 3.0, 0.5, 2.0, 9.0, -4.0, 8.0]).unwrap();
        let (out, argmax) = maxpool(&input, 2);
        assert_eq!(out.shape().dims(), &[1, 2, 2]);
        assert_eq!(out.data(), &[3.0, 0.5, 2.0, 9.0]);
        assert_eq!(argmax, vec![2, 3, 4, 5]);
    }

    #[test]
    fn maxpool_backward_routes_gradient() {
        let input = Tensor::from_vec([1, 4, 1], vec![1.0, 5.0, 2.0, 0.0]).unwrap();
        let (out, argmax) = maxpool(&input, 2);
        let grad_out =
            Tensor::from_vec(out.shape().clone().dims().to_vec(), vec![10.0, 20.0]).unwrap();
        let gi = maxpool1d_backward_ws(input.shape(), &grad_out, &argmax, &mut Workspace::new()).unwrap();
        assert_eq!(gi.data(), &[0.0, 10.0, 20.0, 0.0]);
    }

    #[test]
    fn maxpool_truncates_trailing_remainder() {
        let input = Tensor::from_fn([1, 5, 1], |i| i as f32);
        let (out, _) = maxpool(&input, 2);
        // Element 4 is dropped, matching Keras valid pooling.
        assert_eq!(out.data(), &[1.0, 3.0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn pool_then_unpool_conserves_gradient_mass(
            b in 1usize..3, s in 2usize..12, c in 1usize..4, pool in 1usize..4, seed in 0u64..100
        ) {
            prop_assume!(s >= pool && pool >= 1);
            let input = rand3(b, s, c, seed);
            let (out, argmax) = maxpool(&input, pool);
            let grad = Tensor::full(out.shape().clone().dims().to_vec(), 1.0);
            let gi = maxpool1d_backward_ws(input.shape(), &grad, &argmax, &mut Workspace::new()).unwrap();
            // Gradient mass is conserved through the routing.
            prop_assert!((gi.sum() - grad.sum()).abs() < 1e-4);
        }
    }
}
