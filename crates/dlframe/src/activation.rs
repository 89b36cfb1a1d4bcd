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
    /// `dL/dy`; `out` must have `grad_out`'s length.
    ///
    /// Using the output (rather than the input) is valid for every function
    /// here because each derivative is expressible in terms of the output —
    /// the standard trick that avoids retaining both tensors.
    ///
    /// For `Softmax` this computes the full row-wise Jacobian product,
    /// `dx_i = y_i (g_i - Σ_j g_j y_j)`.
    pub fn backward_into(self, y: &Tensor, grad_out: &Tensor, out: &mut Tensor) {
        debug_assert_eq!(out.len(), grad_out.len());
        let pairs = grad_out.data().iter().zip(y.data());
        let pointwise = out.data_mut().iter_mut().zip(pairs);
        match self {
            Activation::Linear => out.data_mut().copy_from_slice(grad_out.data()),
            Activation::Relu => {
                // A select, not a conditional store: it vectorizes, and a
                // branch on the sign of a ReLU output mispredicts half the
                // time.
                for (o, (&gv, &yv)) in pointwise {
                    *o = if yv <= 0.0 { 0.0 } else { gv };
                }
            }
            Activation::Sigmoid => {
                for (o, (&gv, &yv)) in pointwise {
                    *o = gv * (yv * (1.0 - yv));
                }
            }
            Activation::Tanh => {
                for (o, (&gv, &yv)) in pointwise {
                    *o = gv * (1.0 - yv * yv);
                }
            }
            Activation::Softmax => {
                out.data_mut().copy_from_slice(grad_out.data());
                let (rows, cols) = y.shape().as_2d();
                for r in 0..rows {
                    let yrow = &y.data()[r * cols..(r + 1) * cols];
                    let grow = &mut out.data_mut()[r * cols..(r + 1) * cols];
                    let dot: f32 = grow.iter().zip(yrow).map(|(g, y)| g * y).sum();
                    for (gv, &yv) in grow.iter_mut().zip(yrow) {
                        *gv = yv * (*gv - dot);
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
    fn names_are_keras_style() {
        assert_eq!(Activation::Relu.name(), "relu");
        assert_eq!(Activation::Softmax.name(), "softmax");
    }
}
