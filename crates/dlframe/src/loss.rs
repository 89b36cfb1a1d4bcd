//! Loss functions.
//!
//! The benchmarks use two losses: categorical cross-entropy for the
//! classifiers (NT3, P1B2, and P1B3's coarse growth buckets when run as
//! classification) and mean squared error for the P1B1 autoencoder and
//! P1B3 regression head.
//!
//! Cross-entropy is computed **from logits**: the model's final dense layer
//! stays linear and the softmax is fused into the loss, which gives the
//! numerically exact gradient `(softmax(z) - target) / batch`.

use tensor::{Tensor, Workspace};

/// A differentiable training objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loss {
    /// Softmax + categorical cross-entropy, taking logits.
    SoftmaxCrossEntropy,
    /// Mean squared error, taking raw predictions.
    MeanSquaredError,
}

impl Loss {
    /// Computes `(mean loss, dL/dpred)` for predictions and one-hot (or
    /// continuous) targets of identical shape. The gradient tensor comes
    /// from `ws`'s pool, so the training hot loop allocates nothing here.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn loss_and_grad_ws(
        self,
        pred: &Tensor,
        target: &Tensor,
        ws: &mut Workspace,
    ) -> (f64, Tensor) {
        let (loss, mut grad) = self.loss_and_residual(pred, target, ws);
        match self {
            Loss::SoftmaxCrossEntropy => {
                let (batch, _classes) = pred.shape().as_2d();
                let scale = 1.0 / batch as f32;
                for (g, &t) in grad.data_mut().iter_mut().zip(target.data()) {
                    *g = (*g - t) * scale;
                }
            }
            Loss::MeanSquaredError => grad.scale(2.0 / pred.len().max(1) as f32),
        }
        (loss, grad)
    }

    /// The mean loss alone (evaluation needs no gradient); bit-identical to
    /// the loss [`Loss::loss_and_grad_ws`] returns.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn loss_ws(self, pred: &Tensor, target: &Tensor, ws: &mut Workspace) -> f64 {
        let (loss, residual) = self.loss_and_residual(pred, target, ws);
        ws.recycle(residual);
        loss
    }

    /// The mean loss and the pooled tensor its gradient is finished from:
    /// the softmax probabilities for cross-entropy, `pred - target` for MSE.
    fn loss_and_residual(
        self,
        pred: &Tensor,
        target: &Tensor,
        ws: &mut Workspace,
    ) -> (f64, Tensor) {
        assert_eq!(
            pred.shape(),
            target.shape(),
            "loss: prediction and target shapes must match"
        );
        match self {
            Loss::SoftmaxCrossEntropy => {
                let (batch, _classes) = pred.shape().as_2d();
                let mut probs = ws.alloc_copy(pred);
                probs.softmax_rows_inplace();
                // Mean negative log-likelihood of the true class.
                let mut loss = 0.0f64;
                for (p, t) in probs.data().iter().zip(target.data()) {
                    if *t > 0.0 {
                        loss -= (*t as f64) * ((*p as f64).max(1e-12)).ln();
                    }
                }
                (loss / batch as f64, probs)
            }
            Loss::MeanSquaredError => {
                let n = pred.len().max(1);
                let mut diff = ws.alloc_copy(pred);
                for (d, &t) in diff.data_mut().iter_mut().zip(target.data()) {
                    *d -= t;
                }
                let loss = diff.sum_squares() / n as f64;
                (loss, diff)
            }
        }
    }

    /// The Keras-style name.
    pub fn name(self) -> &'static str {
        match self {
            Loss::SoftmaxCrossEntropy => "categorical_crossentropy",
            Loss::MeanSquaredError => "mse",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrng::RandomSource;

    fn value_and_grad(loss: Loss, pred: &Tensor, target: &Tensor) -> (f64, Tensor) {
        let mut ws = Workspace::new();
        let (value, grad) = loss.loss_and_grad_ws(pred, target, &mut ws);
        // The loss-only form is the same number, bit for bit.
        assert_eq!(
            loss.loss_ws(pred, target, &mut ws).to_bits(),
            value.to_bits()
        );
        (value, grad)
    }

    #[test]
    fn mse_on_perfect_prediction_is_zero() {
        let p = Tensor::from_vec([2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let (loss, grad) = value_and_grad(Loss::MeanSquaredError, &p, &p);
        assert_eq!(loss, 0.0);
        assert!(grad.data().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn mse_value_and_gradient() {
        let p = Tensor::from_vec([1, 2], vec![1.0, 3.0]).unwrap();
        let t = Tensor::from_vec([1, 2], vec![0.0, 0.0]).unwrap();
        let (loss, grad) = value_and_grad(Loss::MeanSquaredError, &p, &t);
        assert!((loss - 5.0).abs() < 1e-9); // (1 + 9) / 2
        assert_eq!(grad.data(), &[1.0, 3.0]); // 2*(p-t)/n
    }

    #[test]
    fn cross_entropy_confident_correct_is_small() {
        let logits = Tensor::from_vec([1, 3], vec![10.0, -10.0, -10.0]).unwrap();
        let target = Tensor::from_vec([1, 3], vec![1.0, 0.0, 0.0]).unwrap();
        let (loss, _) = value_and_grad(Loss::SoftmaxCrossEntropy, &logits, &target);
        assert!(loss < 1e-6, "loss {loss}");
    }

    #[test]
    fn cross_entropy_confident_wrong_is_large() {
        let logits = Tensor::from_vec([1, 3], vec![-10.0, 10.0, -10.0]).unwrap();
        let target = Tensor::from_vec([1, 3], vec![1.0, 0.0, 0.0]).unwrap();
        let (loss, _) = value_and_grad(Loss::SoftmaxCrossEntropy, &logits, &target);
        assert!(loss > 10.0, "loss {loss}");
    }

    #[test]
    fn cross_entropy_uniform_is_log_classes() {
        let logits = Tensor::zeros([4, 5]);
        let target = Tensor::from_fn([4, 5], |i| if i % 5 == 0 { 1.0 } else { 0.0 });
        let (loss, _) = value_and_grad(Loss::SoftmaxCrossEntropy, &logits, &target);
        assert!((loss - (5.0f64).ln()).abs() < 1e-6);
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_differences() {
        let mut rng = xrng::seeded(7);
        let logits = Tensor::from_fn([3, 4], |_| rng.next_f32() * 2.0 - 1.0);
        let target = Tensor::from_fn([3, 4], |i| if i % 4 == (i / 4) % 4 { 1.0 } else { 0.0 });
        let (_, grad) = value_and_grad(Loss::SoftmaxCrossEntropy, &logits, &target);
        let eps = 1e-3f32;
        for idx in 0..logits.len() {
            let mut p = logits.clone();
            p.data_mut()[idx] += eps;
            let mut m = logits.clone();
            m.data_mut()[idx] -= eps;
            let (lp, _) = value_and_grad(Loss::SoftmaxCrossEntropy, &p, &target);
            let (lm, _) = value_and_grad(Loss::SoftmaxCrossEntropy, &m, &target);
            let numeric = (lp - lm) / (2.0 * eps as f64);
            assert!(
                (numeric - grad.data()[idx] as f64).abs() < 1e-3,
                "idx {idx}: {numeric} vs {}",
                grad.data()[idx]
            );
        }
    }

    #[test]
    fn gradient_rows_sum_to_zero_for_cross_entropy() {
        // softmax minus one-hot sums to zero per row.
        let logits = Tensor::from_vec([2, 3], vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]).unwrap();
        let target = Tensor::from_vec([2, 3], vec![0.0, 1.0, 0.0, 1.0, 0.0, 0.0]).unwrap();
        let (_, grad) = value_and_grad(Loss::SoftmaxCrossEntropy, &logits, &target);
        for r in 0..2 {
            let s: f32 = grad.row(r).iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "shapes must match")]
    fn shape_mismatch_panics() {
        let p = Tensor::zeros([1, 2]);
        let t = Tensor::zeros([1, 3]);
        Loss::SoftmaxCrossEntropy.loss_ws(&p, &t, &mut Workspace::new());
    }
}
