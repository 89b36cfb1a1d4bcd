//! Activation functions with in-place forward and backward evaluation.
//!
//! The pointwise functions mirror `tensor::FusedAct` exactly (sigmoid is
//! shared via [`tensor::sigmoid`]), so a layer that fuses its activation
//! into the GEMM epilogue produces bit-identical outputs to one applying
//! the activation as a separate pass.

use tensor::{sigmoid, FusedAct, Tensor};

/// Pointwise (or row-wise, for softmax) activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Identity.
    Linear,
    /// `max(0, x)`.
    Relu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Row-wise softmax (rank-2 inputs only).
    Softmax,
}

impl Activation {
    /// Applies the activation in place.
    pub fn forward_inplace(self, x: &mut Tensor) {
        match self {
            Activation::Linear => {}
            Activation::Relu => x.map_inplace(|v| v.max(0.0)),
            Activation::Sigmoid => x.map_inplace(sigmoid),
            Activation::Tanh => x.map_inplace(f32::tanh),
            Activation::Softmax => x.softmax_rows_inplace(),
        }
    }

    /// The GEMM-epilogue equivalent of this activation, if it is pointwise.
    /// Softmax is row-wise and cannot be fused per element.
    pub fn fused(self) -> Option<FusedAct> {
        match self {
            Activation::Linear => Some(FusedAct::Linear),
            Activation::Relu => Some(FusedAct::Relu),
            Activation::Sigmoid => Some(FusedAct::Sigmoid),
            Activation::Tanh => Some(FusedAct::Tanh),
            Activation::Softmax => None,
        }
    }

    /// Writes `dL/dx` into `out`, given the activation *output* `y` and
    /// `dL/dy`.
    ///
    /// Using the output (rather than the input) is valid for every function
    /// here because each derivative is expressible in terms of the output —
    /// the standard trick that avoids retaining both tensors.
    ///
    /// For `Softmax` this computes the full row-wise Jacobian product,
    /// `dx_i = y_i (g_i - Σ_j g_j y_j)`.
    ///
    /// # Panics
    /// Panics unless `y`, `grad_out` and `out` have one length: zipping
    /// them would silently yield a short gradient. Layers check shapes
    /// first and answer `BadInput`.
    pub fn backward_into(self, y: &Tensor, grad_out: &Tensor, out: &mut Tensor) {
        self.backward_rows(y, grad_out, out, None);
    }

    /// [`Activation::backward_into`] for a layer whose pre-activation is
    /// `z = x·W + b`: also overwrites `grad_bias` with the column sums of
    /// the `dL/dz` it writes (rows are `grad_bias.len()` wide, summed in
    /// ascending row order), in the same pass over the rows rather than a
    /// second one over `out`.
    ///
    /// # Panics
    /// As [`Activation::backward_into`]; also if the length is not a whole
    /// number of rows.
    pub fn backward_with_bias_into(
        self,
        y: &Tensor,
        grad_out: &Tensor,
        out: &mut Tensor,
        grad_bias: &mut Tensor,
    ) {
        self.backward_rows(y, grad_out, out, Some(grad_bias.data_mut()));
    }

    fn backward_rows(
        self,
        y: &Tensor,
        grad_out: &Tensor,
        out: &mut Tensor,
        col_sum: Option<&mut [f32]>,
    ) {
        assert_eq!(y.len(), grad_out.len(), "activation backward: y vs dL/dy");
        assert_eq!(
            out.len(),
            grad_out.len(),
            "activation backward: out vs dL/dy"
        );
        let g = grad_out.data();
        match self {
            Activation::Linear => pointwise(y.data(), g, out.data_mut(), col_sum, |_, gv| gv),
            // A select, not a conditional store: it vectorizes, and a
            // branch on the sign of a ReLU output mispredicts half the
            // time.
            Activation::Relu => pointwise(y.data(), g, out.data_mut(), col_sum, |yv, gv| {
                if yv <= 0.0 {
                    0.0
                } else {
                    gv
                }
            }),
            Activation::Sigmoid => pointwise(y.data(), g, out.data_mut(), col_sum, |yv, gv| {
                gv * (yv * (1.0 - yv))
            }),
            Activation::Tanh => pointwise(y.data(), g, out.data_mut(), col_sum, |yv, gv| {
                gv * (1.0 - yv * yv)
            }),
            Activation::Softmax => {
                let (_, cols) = y.shape().as_2d();
                let out = out.data_mut();
                out.copy_from_slice(g);
                for (yrow, grow) in y.data().chunks_exact(cols).zip(out.chunks_exact_mut(cols)) {
                    let dot: f32 = grow.iter().zip(yrow).map(|(g, y)| g * y).sum();
                    for (gv, &yv) in grow.iter_mut().zip(yrow) {
                        *gv = yv * (*gv - dot);
                    }
                }
                if let Some(sum) = col_sum {
                    sum.fill(0.0);
                    for row in out.chunks_exact(row_width(out.len(), sum.len())) {
                        add_row(sum, row);
                    }
                }
            }
        }
    }

    /// The Keras-style name.
    pub fn name(self) -> &'static str {
        match self {
            Activation::Linear => "linear",
            Activation::Relu => "relu",
            Activation::Sigmoid => "sigmoid",
            Activation::Tanh => "tanh",
            Activation::Softmax => "softmax",
        }
    }
}

/// `out[i] = d(y[i], g[i])`, and with `col_sum` the column sums of `out`
/// read as rows `col_sum.len()` wide.
#[inline(always)]
fn pointwise(
    y: &[f32],
    g: &[f32],
    out: &mut [f32],
    col_sum: Option<&mut [f32]>,
    d: impl Fn(f32, f32) -> f32,
) {
    let derive = |out: &mut [f32], y: &[f32], g: &[f32]| {
        for ((o, &yv), &gv) in out.iter_mut().zip(y).zip(g) {
            *o = d(yv, gv);
        }
    };
    let Some(sum) = col_sum else {
        return derive(out, y, g);
    };
    sum.fill(0.0);
    let cols = row_width(out.len(), sum.len());
    let rows = out
        .chunks_exact_mut(cols)
        .zip(y.chunks_exact(cols).zip(g.chunks_exact(cols)));
    for (out, (y, g)) in rows {
        // Two loops over the row, not one: a single select-and-accumulate
        // body compiles to a branch on the data, and on ReLU outputs that
        // branch mispredicts every other element.
        derive(out, y, g);
        add_row(sum, out);
    }
}

/// `cols` as a chunk width for `len` values (1 where there is nothing to
/// chunk).
///
/// # Panics
/// Panics if `len` values are not whole rows of `cols`.
fn row_width(len: usize, cols: usize) -> usize {
    assert!(
        if cols == 0 {
            len == 0
        } else {
            len.is_multiple_of(cols)
        },
        "activation backward: {len} values are not rows of {cols}"
    );
    cols.max(1)
}

#[inline(always)]
fn add_row(sum: &mut [f32], row: &[f32]) {
    for (s, &v) in sum.iter_mut().zip(row) {
        *s += v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrng::RandomSource;

    fn apply(act: Activation, x: &Tensor) -> Tensor {
        let mut y = x.clone();
        act.forward_inplace(&mut y);
        y
    }

    fn input_grad(act: Activation, y: &Tensor, grad_out: &Tensor) -> Tensor {
        let mut g = Tensor::zeros(grad_out.shape().clone());
        act.backward_into(y, grad_out, &mut g);
        g
    }

    fn finite_diff_check(act: Activation, tol: f64) {
        // Loss = sum(act(x) * w) for random w; compare analytic vs numeric.
        let mut rng = xrng::seeded(42);
        let x = Tensor::from_fn([3, 5], |_| rng.next_f32() * 2.0 - 1.0);
        let w = Tensor::from_fn([3, 5], |_| rng.next_f32() * 2.0 - 1.0);
        let y = apply(act, &x);
        let analytic = input_grad(act, &y, &w);
        let eps = 1e-3f32;
        for idx in 0..x.len() {
            let mut plus = x.clone();
            plus.data_mut()[idx] += eps;
            let mut minus = x.clone();
            minus.data_mut()[idx] -= eps;
            let lp: f64 = apply(act, &plus).mul(&w).unwrap().sum();
            let lm: f64 = apply(act, &minus).mul(&w).unwrap().sum();
            let numeric = (lp - lm) / (2.0 * eps as f64);
            let a = analytic.data()[idx] as f64;
            assert!(
                (numeric - a).abs() < tol,
                "{}: idx {idx}: numeric {numeric} vs analytic {a}",
                act.name()
            );
        }
    }

    #[test]
    fn relu_forward() {
        let x = Tensor::from_vec([4], vec![-1.0, 0.0, 2.0, -0.5]).unwrap();
        assert_eq!(apply(Activation::Relu, &x).data(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn sigmoid_range_and_stability() {
        let x = Tensor::from_vec([3], vec![-100.0, 0.0, 100.0]).unwrap();
        let y = apply(Activation::Sigmoid, &x);
        assert!(y.data()[0] >= 0.0 && y.data()[0] < 1e-6);
        assert!((y.data()[1] - 0.5).abs() < 1e-6);
        assert!(y.data()[2] > 1.0 - 1e-6 && y.data()[2] <= 1.0);
        assert!(y.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn linear_is_identity_both_ways() {
        let x = Tensor::from_vec([3], vec![1.0, -2.0, 3.0]).unwrap();
        assert_eq!(apply(Activation::Linear, &x), x);
        let g = Tensor::from_vec([3], vec![0.1, 0.2, 0.3]).unwrap();
        assert_eq!(input_grad(Activation::Linear, &x, &g), g);
    }

    #[test]
    fn gradients_match_finite_differences() {
        finite_diff_check(Activation::Sigmoid, 1e-2);
        finite_diff_check(Activation::Tanh, 1e-2);
        finite_diff_check(Activation::Softmax, 1e-2);
        finite_diff_check(Activation::Linear, 1e-2);
    }

    #[test]
    fn relu_gradient_masks_negative() {
        let x = Tensor::from_vec([4], vec![-1.0, 0.5, -0.2, 2.0]).unwrap();
        let y = apply(Activation::Relu, &x);
        let g = Tensor::full([4], 1.0);
        let gx = input_grad(Activation::Relu, &y, &g);
        assert_eq!(gx.data(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn softmax_backward_of_uniform_gradient_is_zero() {
        // d/dx of sum(softmax(x)) is zero since rows sum to one.
        let x = Tensor::from_vec([1, 3], vec![0.2, -0.7, 1.5]).unwrap();
        let y = apply(Activation::Softmax, &x);
        let g = Tensor::full([1, 3], 1.0);
        let gx = input_grad(Activation::Softmax, &y, &g);
        for v in gx.data() {
            assert!(v.abs() < 1e-6);
        }
    }

    #[test]
    fn fused_bias_sum_matches_the_two_pass_form_bit_for_bit() {
        let mut rng = xrng::seeded(77);
        for act in [
            Activation::Linear,
            Activation::Relu,
            Activation::Sigmoid,
            Activation::Tanh,
            Activation::Softmax,
        ] {
            for (rows, cols) in [(37, 16), (5, 3), (1, 1), (0, 4)] {
                let x = Tensor::from_fn([rows, cols], |_| rng.next_f32() * 2.0 - 1.0);
                let g = Tensor::from_fn([rows, cols], |_| rng.next_f32() * 2.0 - 1.0);
                let y = apply(act, &x);
                let want = input_grad(act, &y, &g);
                let mut want_bias = Tensor::full([cols], f32::NAN);
                want.sum_rows_into(&mut want_bias);
                let mut got = Tensor::full([rows, cols], f32::NAN);
                let mut got_bias = Tensor::full([cols], f32::NAN);
                act.backward_with_bias_into(&y, &g, &mut got, &mut got_bias);
                let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "{} {rows}x{cols}", act.name());
                assert_eq!(
                    bits(&got_bias),
                    bits(&want_bias),
                    "{} {rows}x{cols}",
                    act.name()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "y vs dL/dy")]
    fn a_gradient_of_another_length_is_not_silently_truncated() {
        let y = Tensor::zeros([4, 3]);
        let g = Tensor::zeros([3, 3]);
        Activation::Relu.backward_into(&y, &g, &mut Tensor::zeros([3, 3]));
    }

    #[test]
    fn names_are_keras_style() {
        assert_eq!(Activation::Relu.name(), "relu");
        assert_eq!(Activation::Softmax.name(), "softmax");
    }
}
