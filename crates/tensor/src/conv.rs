//! 1-D convolution and max-pooling kernels for the NT3 network.
//!
//! Layout follows Keras: activations are `(batch, steps, channels)` and
//! convolution kernels are `(kernel_size, in_channels, out_channels)`.
//! Padding is always `valid` (as in the NT3 benchmark definition) and
//! pooling windows are non-overlapping (`stride == pool_size`, the Keras
//! default).
//!
//! Convolution runs on the blocked GEMM engine without an im2col copy: in
//! this layout the receptive field of output position `t` is the
//! contiguous slice of `kernel * in_ch` values at `t * stride * in_ch`,
//! so each sample's input *is* the im2col matrix, read at row stride
//! `stride * in_ch` (rows overlap when `stride < kernel`). The forward
//! pass is one strided-`A·B` per sample with a fused bias+activation
//! epilogue; the weight gradient is a strided-`Aᵀ·B` evaluated as
//! fixed-size row blocks with a deterministic, thread-count-independent
//! combine order; the input gradient is `A·Bᵀ` over a few rows at a time,
//! each row tile added onto the input positions it covers while it is
//! still in cache. Each entry point forks at most once, over whole
//! samples (or whole blocks), and hands every worker a disjoint `&mut`
//! share of the output.

use crate::gemm::{
    fork_disjoint, fork_width, gemm_flops, scratch_len, with_scratch, Epilogue, FusedAct, GemmMode,
    Product, Workspace, MR,
};
use crate::{Shape, Tensor, TensorError};

/// Rows of the (virtual) im2col matrix per weight-gradient reduction
/// block. The block partition is a pure function of the row count — never
/// of the thread count — so the blockwise sum is reproducible on any
/// machine.
const WGRAD_BLOCK_ROWS: usize = 1024;

/// Rows of `grad_out · Wᵀ` a worker computes and scatters at a time: few
/// enough that the tile stays in cache until it is added onto the input
/// gradient, enough that packing `Wᵀ` once per tile is noise.
const IGRAD_TILE_ROWS: usize = 256;

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

fn conv_shape_error(left: &Tensor, right: &Tensor) -> TensorError {
    TensorError::ShapeMismatch {
        left: left.shape().clone(),
        right: right.shape().clone(),
    }
}

/// One sample's receptive fields `t0..t0 + rows` as a strided matrix:
/// `rows × kernel*in_ch` values at row stride `stride * in_ch`, ending
/// with the last row. `sample` is that sample's `(steps, in_ch)` input.
fn fields(sample: &[f32], t0: usize, rows: usize, lda: usize, k: usize) -> &[f32] {
    &sample[t0 * lda..][..(rows - 1) * lda + k]
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
/// As for [`crate::gemm_slice`], `threads == 0` means the default kernel
/// thread count and every value gives the same bits.
pub fn conv1d_forward_ws(
    input: &Tensor,
    weights: &Tensor,
    stride: usize,
    bias: Option<&[f32]>,
    act: FusedAct,
    threads: usize,
    ws: &mut Workspace,
) -> Result<Tensor, TensorError> {
    let (batch, steps, in_ch) = input.shape().as_3d();
    let (kernel, w_in, out_ch) = weights.shape().as_3d();
    let out_steps =
        conv1d_output_len(steps, kernel, stride).ok_or_else(|| conv_shape_error(input, weights))?;
    if w_in != in_ch {
        return Err(conv_shape_error(input, weights));
    }
    if let Some(bias) = bias {
        assert_eq!(bias.len(), out_ch, "conv1d: bias length != out_ch");
    }
    let k = kernel * in_ch;
    let lda = stride * in_ch;
    // As-is: every output element is stored by its product's first
    // reduction block.
    let mut out = ws.alloc_as_is([batch, out_steps, out_ch]);
    let workers = fork_width(threads, gemm_flops(batch * out_steps, k, out_ch), batch);
    let per_worker = scratch_len(out_ch);
    fork_disjoint(
        batch,
        workers,
        out.data_mut(),
        out_steps * out_ch,
        ws.scratch(workers * per_worker),
        per_worker,
        |samples, out, scratch| {
            let rows = out.chunks_exact_mut(out_steps * out_ch);
            for (b, out) in samples.zip(rows) {
                let sample = &input.data()[b * steps * in_ch..][..steps * in_ch];
                Product {
                    mode: GemmMode::Ab,
                    a: fields(sample, 0, out_steps, lda, k),
                    lda,
                    b: weights.data(),
                    m: out_steps,
                    k,
                    n: out_ch,
                    epilogue: Epilogue { bias, act },
                }
                .run_rows(0, out, false, scratch);
            }
        },
    );
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
    with_scratch(|ws| conv1d_forward_ws(input, weights, stride, None, FusedAct::Linear, 0, ws))
}

/// Weight gradient of a 1-D convolution: overwrites `grad_weights`, whose
/// shape `(kernel, in_ch, out_ch)` names the convolution.
///
/// * `input`:    the forward input `(batch, steps, in_ch)`
/// * `grad_out`: `(batch, out_steps, out_ch)` upstream gradient
///
/// This is `Aᵀ·B` over the receptive-field rows of the whole batch
/// (sample-major), evaluated in [`WGRAD_BLOCK_ROWS`]-row blocks. Blocks
/// may be computed on different threads, but each block's partial is one
/// in-order sum per element — kept in the micro-kernel's register tile
/// across the block's rows — and the partials are combined in ascending
/// block order, so the result is bit-identical for every `threads`
/// (0 = the default kernel thread count).
pub fn conv1d_weight_grad_ws(
    input: &Tensor,
    grad_out: &Tensor,
    stride: usize,
    grad_weights: &mut Tensor,
    threads: usize,
    ws: &mut Workspace,
) -> Result<(), TensorError> {
    let (batch, steps, in_ch) = input.shape().as_3d();
    let (kernel, w_in, out_ch) = grad_weights.shape().as_3d();
    let (gb, out_steps, g_out_ch) = grad_out.shape().as_3d();
    if gb != batch
        || w_in != in_ch
        || g_out_ch != out_ch
        || conv1d_output_len(steps, kernel, stride) != Some(out_steps)
    {
        return Err(conv_shape_error(input, grad_out));
    }
    let m = batch * out_steps;
    let k = kernel * in_ch;
    let lda = stride * in_ch;
    let gd = grad_out.data();
    let nblocks = m.div_ceil(WGRAD_BLOCK_ROWS);
    // As-is: each block's first run stores its whole partial.
    let mut partials = ws.alloc_as_is([nblocks, k * out_ch]);
    let workers = fork_width(threads, gemm_flops(m, k, out_ch), nblocks);
    let per_worker = scratch_len(out_ch);
    fork_disjoint(
        nblocks,
        workers,
        partials.data_mut(),
        k * out_ch,
        ws.scratch(workers * per_worker),
        per_worker,
        |blocks, parts, scratch| {
            for (blk, part) in blocks.zip(parts.chunks_exact_mut(k * out_ch)) {
                let end = ((blk + 1) * WGRAD_BLOCK_ROWS).min(m);
                // The block's rows, one run per sample they fall in: every
                // run extends the same per-element sums, in row order.
                let mut r = blk * WGRAD_BLOCK_ROWS;
                while r < end {
                    let (b, t0) = (r / out_steps, r % out_steps);
                    let rows = (out_steps - t0).min(end - r);
                    let sample = &input.data()[b * steps * in_ch..][..steps * in_ch];
                    Product {
                        mode: GemmMode::AtB,
                        a: fields(sample, t0, rows, lda, k),
                        lda,
                        b: &gd[r * out_ch..][..rows * out_ch],
                        m: k,
                        k: rows,
                        n: out_ch,
                        epilogue: Epilogue::NONE,
                    }
                    .run_rows(0, part, r > blk * WGRAD_BLOCK_ROWS, scratch);
                    r += rows;
                }
            }
        },
    );
    // Combine partials in ascending block order — fixed regardless of how
    // blocks were assigned to threads.
    let gw = grad_weights.data_mut();
    gw.fill(0.0);
    for part in partials.data().chunks_exact(k * out_ch) {
        for (d, &p) in gw.iter_mut().zip(part) {
            *d += p;
        }
    }
    ws.recycle(partials);
    Ok(())
}

/// Input gradient of a 1-D convolution, returned from `ws`'s pool with
/// `input_shape` `(batch, steps, in_ch)`.
///
/// * `weights`:  `(kernel, in_ch, out_ch)`
/// * `grad_out`: `(batch, out_steps, out_ch)` upstream gradient
///
/// Row `t` of `grad_out · Wᵀ` is the gradient of receptive field `t`, and
/// that field is the contiguous input slice at `t * stride * in_ch`: each
/// few-row tile of the product is added onto those slices in ascending
/// `t` as soon as it is computed, so every input element receives its
/// contributions in one fixed order — whatever `threads` is (0 = the
/// default kernel thread count) — and no `(batch*out_steps, kernel*in_ch)`
/// matrix is ever stored.
pub fn conv1d_input_grad_ws(
    input_shape: &Shape,
    weights: &Tensor,
    grad_out: &Tensor,
    stride: usize,
    threads: usize,
    ws: &mut Workspace,
) -> Result<Tensor, TensorError> {
    let (batch, steps, in_ch) = input_shape.as_3d();
    let (kernel, w_in, out_ch) = weights.shape().as_3d();
    let (gb, out_steps, g_out_ch) = grad_out.shape().as_3d();
    if gb != batch
        || w_in != in_ch
        || g_out_ch != out_ch
        || conv1d_output_len(steps, kernel, stride) != Some(out_steps)
    {
        return Err(conv_shape_error(weights, grad_out));
    }
    let k = kernel * in_ch;
    let lda = stride * in_ch;
    let gd = grad_out.data();
    let tile_rows = IGRAD_TILE_ROWS.min(out_steps.next_multiple_of(MR));
    // Zeroed: overlapping fields are added onto it tile by tile.
    let mut grad_input = ws.alloc_zeroed([batch, steps, in_ch]);
    let workers = fork_width(threads, gemm_flops(batch * out_steps, out_ch, k), batch);
    let per_worker = scratch_len(k) + tile_rows * k;
    fork_disjoint(
        batch,
        workers,
        grad_input.data_mut(),
        steps * in_ch,
        ws.scratch(workers * per_worker),
        per_worker,
        |samples, grads, scratch| {
            let (scratch, tile) = scratch.split_at_mut(scratch_len(k));
            for (b, grad) in samples.zip(grads.chunks_exact_mut(steps * in_ch)) {
                for t0 in (0..out_steps).step_by(tile_rows) {
                    let rows = tile_rows.min(out_steps - t0);
                    let tile = &mut tile[..rows * k];
                    Product {
                        mode: GemmMode::ABt,
                        a: &gd[(b * out_steps + t0) * out_ch..][..rows * out_ch],
                        lda: out_ch,
                        b: weights.data(),
                        m: rows,
                        k: out_ch,
                        n: k,
                        epilogue: Epilogue::NONE,
                    }
                    .run_rows(0, tile, false, scratch);
                    for (t, field_grad) in (t0..).zip(tile.chunks_exact(k)) {
                        for (d, &s) in grad[t * lda..][..k].iter_mut().zip(field_grad) {
                            *d += s;
                        }
                    }
                }
            }
        },
    );
    Ok(grad_input)
}

/// Backward 1-D convolution: gradients w.r.t. the input and the weights
/// (the allocating convenience form of [`conv1d_input_grad_ws`] and
/// [`conv1d_weight_grad_ws`]).
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
    let mut grad_weights = Tensor::zeros(weights.shape().clone());
    with_scratch(|ws| {
        conv1d_weight_grad_ws(input, grad_out, stride, &mut grad_weights, 0, ws)?;
        let grad_input = conv1d_input_grad_ws(input.shape(), weights, grad_out, stride, 0, ws)?;
        Ok((grad_input, grad_weights))
    })
}

/// Channels per compare-and-select group of the training max pool.
const POOL_LANES: usize = 16;

/// No candidate beat `-inf` (a window of NaNs and `-inf`s): the offset a
/// training pool records for an output that has no winner.
const NO_WINNER: u32 = u32::MAX;

/// The window walk every max-pool kernel shares: the output length and,
/// in output order, the flat input index where each window's `pool` rows
/// of `ch` values start.
fn pool_windows(
    input_shape: &Shape,
    pool: usize,
) -> Result<(usize, impl Iterator<Item = usize>), TensorError> {
    let (batch, steps, ch) = input_shape.as_3d();
    let out_steps = pool1d_output_len(steps, pool).ok_or_else(|| TensorError::ShapeMismatch {
        left: input_shape.clone(),
        right: Shape::from([pool]),
    })?;
    let bases =
        (0..batch).flat_map(move |b| (0..out_steps).map(move |t| (b * steps + t * pool) * ch));
    Ok((out_steps, bases))
}

/// Forward-only non-overlapping 1-D max pool on a workspace: the pooled
/// tensor of [`maxpool1d_forward_ws`], bit for bit, without the offsets
/// only a backward pass reads. Each output row is the running maximum over
/// its window's rows, channels innermost, with the same strict
/// comparison in the same order (so a NaN never wins and a window with
/// no value above `-inf` yields `-inf`).
pub fn maxpool1d_infer_ws(
    input: &Tensor,
    pool: usize,
    ws: &mut Workspace,
) -> Result<Tensor, TensorError> {
    let (batch, _, ch) = input.shape().as_3d();
    let (out_steps, bases) = pool_windows(input.shape(), pool)?;
    // As-is: every output row is filled before its window is walked.
    let mut out = ws.alloc_as_is([batch, out_steps, ch]);
    if ch == 0 {
        return Ok(out);
    }
    let id = input.data();
    for (base, out) in bases.zip(out.data_mut().chunks_exact_mut(ch)) {
        out.fill(f32::NEG_INFINITY);
        for cand in id[base..][..pool * ch].chunks_exact(ch) {
            for (best, &v) in out.iter_mut().zip(cand) {
                *best = if v > *best { v } else { *best };
            }
        }
    }
    Ok(out)
}

/// Forward non-overlapping 1-D max pool on a workspace, for training.
///
/// Returns the pooled tensor from `ws`'s pool and writes into `offsets`
/// (resized to the output's length) which of its window's `pool` rows
/// each output came from — all [`maxpool1d_backward_ws`] needs, in 32
/// bits per output. Ties go to the first candidate; a window with no value
/// above `-inf` yields `-inf` and an offset no row has, so its gradient is
/// dropped.
///
/// The walk is the inference kernel's with one more select per compare:
/// window rows outermost, channels innermost over contiguous values, no
/// branch on the data.
pub fn maxpool1d_forward_ws(
    input: &Tensor,
    pool: usize,
    offsets: &mut Vec<u32>,
    ws: &mut Workspace,
) -> Result<Tensor, TensorError> {
    let (batch, _, ch) = input.shape().as_3d();
    let (out_steps, bases) = pool_windows(input.shape(), pool)?;
    assert!(
        pool < NO_WINNER as usize,
        "maxpool1d: pool window too large"
    );
    // As-is, like the offsets: every output row is filled before its
    // window is walked.
    let mut out = ws.alloc_as_is([batch, out_steps, ch]);
    offsets.resize(out.len(), NO_WINNER);
    if ch == 0 {
        return Ok(out);
    }
    let id = input.data();
    let rows = out
        .data_mut()
        .chunks_exact_mut(ch)
        .zip(offsets.chunks_exact_mut(ch));
    for (base, (out, offsets)) in bases.zip(rows) {
        let window = &id[base..][..pool * ch];
        let lanes = out
            .chunks_mut(POOL_LANES)
            .zip(offsets.chunks_mut(POOL_LANES));
        for (c0, (out, offsets)) in (0..).step_by(POOL_LANES).zip(lanes) {
            // The running maxima live in locals, not in `out`: selecting
            // into memory compiles to a store under a branch on the data,
            // which on ReLU activations mispredicts every other element.
            let mut best = [f32::NEG_INFINITY; POOL_LANES];
            let mut which = [NO_WINNER; POOL_LANES];
            match (
                <&mut [f32; POOL_LANES]>::try_from(&mut *out),
                <&mut [u32; POOL_LANES]>::try_from(&mut *offsets),
            ) {
                // Full width: fixed trip counts throughout, so the selects
                // and the two stores are straight vector code.
                (Ok(out), Ok(offsets)) => {
                    for (p, cand) in (0u32..).zip(window.chunks_exact(ch)) {
                        let cand: &[f32; POOL_LANES] =
                            cand[c0..].first_chunk().expect("a full lane group");
                        select_max(&mut best, &mut which, cand, p);
                    }
                    *out = best;
                    *offsets = which;
                }
                _ => {
                    let width = out.len();
                    for (p, cand) in (0u32..).zip(window.chunks_exact(ch)) {
                        select_max(&mut best[..width], &mut which[..width], &cand[c0..], p);
                    }
                    out.copy_from_slice(&best[..width]);
                    offsets.copy_from_slice(&which[..width]);
                }
            }
        }
    }
    Ok(out)
}

/// `best[c] = cand[c]`, `which[c] = p` wherever `cand[c] > best[c]`.
#[inline(always)]
fn select_max(best: &mut [f32], which: &mut [u32], cand: &[f32], p: u32) {
    for ((best, which), &v) in best.iter_mut().zip(which).zip(cand) {
        let take = v > *best;
        *best = if take { v } else { *best };
        *which = if take { p } else { *which };
    }
}

/// Backward max pool on a workspace: the gradient of an input of
/// `input_shape`, given the `offsets` [`maxpool1d_forward_ws`] recorded
/// for it. Every input position is written exactly once — the upstream
/// gradient where it won its window, zero elsewhere (and in the trailing
/// steps no window covers) — so nothing is cleared first and nothing is
/// scattered.
pub fn maxpool1d_backward_ws(
    input_shape: &Shape,
    grad_out: &Tensor,
    pool: usize,
    offsets: &[u32],
    ws: &mut Workspace,
) -> Result<Tensor, TensorError> {
    let (batch, steps, ch) = input_shape.as_3d();
    let (out_steps, bases) = pool_windows(input_shape, pool)?;
    if grad_out.shape().dims() != [batch, out_steps, ch] {
        return Err(TensorError::ShapeMismatch {
            left: input_shape.clone(),
            right: grad_out.shape().clone(),
        });
    }
    if offsets.len() != grad_out.len() {
        return Err(TensorError::LengthMismatch {
            expected: grad_out.len(),
            actual: offsets.len(),
        });
    }
    // As-is: the windows and the per-sample remainder below tile it.
    let mut grad_input = ws.alloc_as_is(input_shape.clone());
    if ch == 0 {
        return Ok(grad_input);
    }
    let gi = grad_input.data_mut();
    let rows = grad_out
        .data()
        .chunks_exact(ch)
        .zip(offsets.chunks_exact(ch));
    for (base, (grad, offsets)) in bases.zip(rows) {
        for (p, gi) in (0u32..).zip(gi[base..][..pool * ch].chunks_exact_mut(ch)) {
            for ((d, &g), &which) in gi.iter_mut().zip(grad).zip(offsets) {
                *d = if which == p { g } else { 0.0 };
            }
        }
    }
    let covered = out_steps * pool * ch;
    for sample in gi.chunks_exact_mut(steps * ch) {
        sample[covered..].fill(0.0);
    }
    Ok(grad_input)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use proptest::prelude::*;
    use xrng::RandomSource;

    /// Pooled output plus the window offsets backward routes through.
    fn maxpool(input: &Tensor, pool: usize) -> (Tensor, Vec<u32>) {
        let mut offsets = Vec::new();
        let out = maxpool1d_forward_ws(input, pool, &mut offsets, &mut Workspace::new()).unwrap();
        (out, offsets)
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
        let fused = conv1d_forward_ws(&input, &weights, 1, Some(&bias), FusedAct::Relu, 0, &mut ws)
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
        let (out, offsets) = maxpool(&input, 2);
        assert_eq!(out.shape().dims(), &[1, 2, 2]);
        assert_eq!(out.data(), &[3.0, 0.5, 2.0, 9.0]);
        assert_eq!(offsets, vec![1, 1, 0, 0]);
    }

    #[test]
    fn maxpool_backward_routes_gradient() {
        let input = Tensor::from_vec([1, 4, 1], vec![1.0, 5.0, 2.0, 0.0]).unwrap();
        let (out, offsets) = maxpool(&input, 2);
        let grad_out =
            Tensor::from_vec(out.shape().clone().dims().to_vec(), vec![10.0, 20.0]).unwrap();
        let gi =
            maxpool1d_backward_ws(input.shape(), &grad_out, 2, &offsets, &mut Workspace::new())
                .unwrap();
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
            let (out, offsets) = maxpool(&input, pool);
            let grad = Tensor::full(out.shape().clone().dims().to_vec(), 1.0);
            let gi = maxpool1d_backward_ws(input.shape(), &grad, pool, &offsets, &mut Workspace::new()).unwrap();
            // Gradient mass is conserved through the routing.
            prop_assert!((gi.sum() - grad.sum()).abs() < 1e-4);
        }
    }
}
