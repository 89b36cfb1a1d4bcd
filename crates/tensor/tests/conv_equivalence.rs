//! The convolution kernels against the lowering they replaced, bit for bit.
//!
//! `tensor::conv` used to copy an explicit im2col matrix out of the input,
//! run one GEMM over it, and (for the input gradient) scatter a col-grad
//! matrix of the same size back with col2im. It now reads the input in
//! place — a sample's receptive fields are its own rows at stride
//! `stride * in_ch` — and never stores either matrix. That lowering lives
//! on here, and only here, as the oracle: explicit [`im2col`], a
//! one-accumulator-per-element product in ascending reduction order
//! ([`product`]), the blockwise weight-gradient sum and the `(t, k)`-ordered
//! [`col2im`]. Every kernel must reproduce it exactly, for every thread
//! count, because the training fingerprints of the whole workspace are
//! pinned to those bits.
//!
//! The sweep only reaches its full size (324 geometries × 4 thread counts,
//! ~9000 receptive fields each) in release: CI runs it as
//! `cargo test --release -p tensor --test conv_equivalence`; the debug
//! suite takes a sample of the same grid.

use tensor::{
    conv1d_forward_ws, conv1d_input_grad_ws, conv1d_output_len, conv1d_weight_grad_ws, gemm_slice,
    Epilogue, FusedAct, GemmMode, Tensor, Workspace,
};
use xrng::RandomSource;

const THREADS: [usize; 4] = [1, 2, 3, 8];
const ACTS: [FusedAct; 4] = [
    FusedAct::Linear,
    FusedAct::Relu,
    FusedAct::Sigmoid,
    FusedAct::Tanh,
];
/// The block size of the weight-gradient reduction (`WGRAD_BLOCK_ROWS`):
/// part of the result's definition, so the oracle states it too.
const BLOCK_ROWS: usize = 1024;

#[derive(Debug, Clone, Copy)]
struct Geometry {
    batch: usize,
    steps: usize,
    in_ch: usize,
    kernel: usize,
    stride: usize,
    out_ch: usize,
}

impl Geometry {
    fn out_steps(&self) -> usize {
        conv1d_output_len(self.steps, self.kernel, self.stride).expect("input covers the kernel")
    }

    fn k(&self) -> usize {
        self.kernel * self.in_ch
    }

    fn rows(&self) -> usize {
        self.batch * self.out_steps()
    }
}

/// The issue's grid. Every geometry has about `rows` receptive fields in
/// total, an output length that is no multiple of the 8-row panel, and —
/// when the stride allows one — input steps past the last field.
fn grid(rows: usize) -> Vec<Geometry> {
    let mut out = Vec::new();
    for batch in [1, 3, 20] {
        for in_ch in [1, 3, 16] {
            for kernel in [1, 3, 5] {
                for stride in [1, 2, 3] {
                    for out_ch in [1, 7, 16, 20] {
                        let mut out_steps = rows / batch + 3;
                        if out_steps.is_multiple_of(8) {
                            out_steps += 1;
                        }
                        let steps = (out_steps - 1) * stride + kernel + (stride - 1);
                        let g = Geometry {
                            batch,
                            steps,
                            in_ch,
                            kernel,
                            stride,
                            out_ch,
                        };
                        assert_eq!(g.out_steps(), out_steps);
                        out.push(g);
                    }
                }
            }
        }
    }
    out
}

/// The release sweep is the whole grid at every thread count; the debug
/// suite keeps every seventh geometry, fewer rows and two thread counts.
fn sweep() -> (Vec<Geometry>, &'static [usize]) {
    if cfg!(debug_assertions) {
        (grid(1300).into_iter().step_by(7).collect(), &THREADS[1..3])
    } else {
        (grid(9000), &THREADS)
    }
}

fn random(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = xrng::seeded(seed);
    (0..len).map(|_| rng.next_f32() * 2.0 - 1.0).collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

struct Case {
    g: Geometry,
    input: Tensor,
    weights: Tensor,
    bias: Vec<f32>,
    grad_out: Tensor,
}

impl Case {
    fn new(g: Geometry, seed: u64) -> Self {
        let tensor = |shape: [usize; 3], salt: u64| {
            let data = random(shape.iter().product(), seed ^ salt);
            Tensor::from_vec(shape, data).unwrap()
        };
        Self {
            g,
            input: tensor([g.batch, g.steps, g.in_ch], 0x11),
            weights: tensor([g.kernel, g.in_ch, g.out_ch], 0x22),
            bias: random(g.out_ch, seed ^ 0x33),
            grad_out: tensor([g.batch, g.out_steps(), g.out_ch], 0x44),
        }
    }
}

/// The `(batch*out_steps, kernel*in_ch)` matrix the old forward and
/// weight gradient built: row `b*out_steps + t` is the receptive field of
/// output position `(b, t)`, ordered `k`-major then channel.
fn im2col(g: &Geometry, input: &[f32]) -> Vec<f32> {
    let (out_steps, k) = (g.out_steps(), g.k());
    let mut col = vec![0.0; g.rows() * k];
    for b in 0..g.batch {
        let sample = &input[b * g.steps * g.in_ch..][..g.steps * g.in_ch];
        for t in 0..out_steps {
            let row = &mut col[(b * out_steps + t) * k..][..k];
            for kk in 0..g.kernel {
                let src = &sample[(t * g.stride + kk) * g.in_ch..][..g.in_ch];
                row[kk * g.in_ch..][..g.in_ch].copy_from_slice(src);
            }
        }
    }
    col
}

/// `C(m×n) = A(m×k) · B`, with `B` stored `(k×n)` or, transposed,
/// `(n×k)`: one accumulator per element, started at zero, extended in
/// ascending `l` with a separate multiply and add — the order the GEMM
/// engine documents.
fn product(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, b_transposed: bool) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for l in 0..k {
                let bv = if b_transposed {
                    b[j * k + l]
                } else {
                    b[l * n + j]
                };
                acc += a[i * k + l] * bv;
            }
            c[i * n + j] = acc;
        }
    }
    c
}

fn forward_oracle(case: &Case, bias: Option<&[f32]>, act: FusedAct) -> Vec<f32> {
    let g = &case.g;
    let col = im2col(g, case.input.data());
    let mut out = product(&col, case.weights.data(), g.rows(), g.k(), g.out_ch, false);
    for row in out.chunks_exact_mut(g.out_ch) {
        for (j, v) in row.iter_mut().enumerate() {
            *v = act.apply(*v + bias.map_or(0.0, |bias| bias[j]));
        }
    }
    out
}

/// `im2colᵀ · grad_out` in [`BLOCK_ROWS`]-row blocks, each block summed
/// in row order from zero, the blocks combined in ascending order.
fn weight_grad_oracle(case: &Case) -> Vec<f32> {
    let g = &case.g;
    let (m, k, n) = (g.rows(), g.k(), g.out_ch);
    let col = im2col(g, case.input.data());
    let gd = case.grad_out.data();
    let mut gw = vec![0.0f32; k * n];
    for r0 in (0..m).step_by(BLOCK_ROWS) {
        let mut part = vec![0.0f32; k * n];
        for r in r0..(r0 + BLOCK_ROWS).min(m) {
            for (kk, &cv) in col[r * k..][..k].iter().enumerate() {
                for (d, &gv) in part[kk * n..][..n].iter_mut().zip(&gd[r * n..][..n]) {
                    *d += cv * gv;
                }
            }
        }
        for (d, &p) in gw.iter_mut().zip(&part) {
            *d += p;
        }
    }
    gw
}

/// Scatter-adds the col-grad matrix back onto the input positions its
/// columns were copied from, rows in ascending `t`, then `k`, then channel.
fn col2im(g: &Geometry, colgrad: &[f32]) -> Vec<f32> {
    let (out_steps, k) = (g.out_steps(), g.k());
    let mut grad_input = vec![0.0f32; g.batch * g.steps * g.in_ch];
    for b in 0..g.batch {
        let sample = &mut grad_input[b * g.steps * g.in_ch..][..g.steps * g.in_ch];
        for t in 0..out_steps {
            let row = &colgrad[(b * out_steps + t) * k..][..k];
            for kk in 0..g.kernel {
                let dst = &mut sample[(t * g.stride + kk) * g.in_ch..][..g.in_ch];
                for (d, &s) in dst.iter_mut().zip(&row[kk * g.in_ch..][..g.in_ch]) {
                    *d += s;
                }
            }
        }
    }
    grad_input
}

fn input_grad_oracle(case: &Case) -> Vec<f32> {
    let g = &case.g;
    // grad_out (m × out_ch) · Wᵀ, W stored (k × out_ch).
    let colgrad = product(
        case.grad_out.data(),
        case.weights.data(),
        g.rows(),
        g.out_ch,
        g.k(),
        true,
    );
    col2im(g, &colgrad)
}

#[test]
fn forward_matches_the_im2col_lowering_bit_for_bit() {
    let (geometries, threads) = sweep();
    let ws = &mut Workspace::new();
    for (i, g) in geometries.into_iter().enumerate() {
        let case = Case::new(g, 0xF0 + i as u64);
        // Every epilogue on a rotating share of the grid, bias on and off.
        let act = ACTS[i % ACTS.len()];
        for bias in [None, Some(case.bias.as_slice())] {
            let want = bits(&forward_oracle(&case, bias, act));
            for &t in threads {
                let got = conv1d_forward_ws(&case.input, &case.weights, g.stride, bias, act, t, ws)
                    .unwrap();
                assert_eq!(got.shape().dims(), &[g.batch, g.out_steps(), g.out_ch]);
                assert!(
                    bits(got.data()) == want,
                    "forward {g:?} {act:?} bias {} threads {t}",
                    bias.is_some()
                );
                ws.recycle(got);
            }
        }
    }
}

#[test]
fn every_fused_activation_matches_on_one_geometry() {
    let g = Geometry {
        batch: 3,
        steps: 2 * 210 + 5,
        in_ch: 3,
        kernel: 5,
        stride: 2,
        out_ch: 20,
    };
    let case = Case::new(g, 0xAC7);
    let ws = &mut Workspace::new();
    for act in ACTS {
        for bias in [None, Some(case.bias.as_slice())] {
            let want = bits(&forward_oracle(&case, bias, act));
            let got =
                conv1d_forward_ws(&case.input, &case.weights, g.stride, bias, act, 0, ws).unwrap();
            assert!(bits(got.data()) == want, "{act:?} bias {}", bias.is_some());
        }
    }
}

#[test]
fn weight_gradient_matches_the_im2col_lowering_bit_for_bit() {
    let (geometries, threads) = sweep();
    let ws = &mut Workspace::new();
    for (i, g) in geometries.into_iter().enumerate() {
        let case = Case::new(g, 0x3A00 + i as u64);
        let want = bits(&weight_grad_oracle(&case));
        for &t in threads {
            // Garbage in: the gradient tensor is overwritten, not added to.
            let mut gw = Tensor::full([g.kernel, g.in_ch, g.out_ch], f32::NAN);
            conv1d_weight_grad_ws(&case.input, &case.grad_out, g.stride, &mut gw, t, ws).unwrap();
            assert!(bits(gw.data()) == want, "weight grad {g:?} threads {t}");
        }
    }
}

#[test]
fn input_gradient_matches_the_col2im_lowering_bit_for_bit() {
    let (geometries, threads) = sweep();
    let ws = &mut Workspace::new();
    for (i, g) in geometries.into_iter().enumerate() {
        let case = Case::new(g, 0x1600 + i as u64);
        let want = bits(&input_grad_oracle(&case));
        for &t in threads {
            let got = conv1d_input_grad_ws(
                case.input.shape(),
                &case.weights,
                &case.grad_out,
                g.stride,
                t,
                ws,
            )
            .unwrap();
            assert_eq!(got.shape(), case.input.shape());
            assert!(bits(got.data()) == want, "input grad {g:?} threads {t}");
            ws.recycle(got);
        }
    }
}

/// The engine-level statement of the same fact: a product whose A rows
/// overlap (`lda < k`), abut (`lda == k`) or are spaced (`lda > k`) in
/// memory equals the product over a dense copy of those rows, in every
/// packing mode that reads A by rows or by columns.
#[test]
fn strided_a_equals_a_dense_copy_of_its_rows() {
    let bias = random(40, 7);
    let ws = &mut Workspace::new();
    for (case, &(m, k, n, lda)) in [
        (37usize, 48usize, 16usize, 16usize), // conv2-like: stride 1, kernel 3, 16 channels
        (203, 5, 16, 2),                      // conv1-like: stride 2, kernel 5, 1 channel
        (64, 300, 9, 300),                    // dense, crossing a KC block
        (19, 7, 40, 23),                      // spaced rows
        (9, 12, 3, 0),                        // every row the same row
    ]
    .iter()
    .enumerate()
    {
        let storage = random((m - 1) * lda + k, 100 + case as u64);
        let dense: Vec<f32> = (0..m)
            .flat_map(|r| storage[r * lda..][..k].iter().copied())
            .collect();
        for (mode, b_len, out) in [
            (GemmMode::Ab, k * n, (m, n)),
            (GemmMode::ABt, k * n, (m, n)),
            // Aᵀ·B: the strided rows are the reduction index.
            (GemmMode::AtB, m * n, (k, n)),
        ] {
            let b = random(b_len, 200 + case as u64);
            let (pm, pk) = if mode == GemmMode::AtB {
                (k, m)
            } else {
                (m, k)
            };
            let epilogue = Epilogue {
                bias: Some(&bias[..n]),
                act: FusedAct::Relu,
            };
            let run = |a: &[f32], lda: usize, threads: usize, ws: &mut Workspace| {
                let mut c = vec![f32::NAN; out.0 * out.1];
                gemm_slice(mode, a, lda, &b, pm, pk, n, &mut c, &epilogue, threads, ws);
                bits(&c)
            };
            let want = run(&dense, k, 1, ws);
            for t in THREADS {
                assert!(
                    run(&storage, lda, t, ws) == want,
                    "{mode:?} m{m} k{k} n{n} lda{lda} threads {t}"
                );
            }
        }
    }
}
