//! Inverted dropout.

use super::{misfit, Layer};
use crate::DlError;
use tensor::{Tensor, Workspace};
use xrng::{Bernoulli, Rng};

/// Keras-style `Dropout(rate)` using inverted scaling: at training time each
/// unit is kept with probability `1 - rate` and scaled by `1/(1-rate)`, so
/// inference needs no rescaling.
pub struct Dropout {
    rate: f64,
    rng: Rng,
    /// Mask buffer of the last active training forward; reused across
    /// batches so steady-state training allocates nothing here.
    mask: Vec<f32>,
    /// Whether `mask` reflects the last forward (false for inference or
    /// zero-rate passes, where backward is a passthrough).
    active: bool,
}

impl Dropout {
    /// Creates a dropout layer with its own deterministic random stream.
    ///
    /// # Panics
    /// Panics unless `0 <= rate < 1`.
    pub fn new(rate: f64, rng: Rng) -> Self {
        assert!((0.0..1.0).contains(&rate), "dropout rate must be in [0,1)");
        Self {
            rate,
            rng,
            mask: Vec::new(),
            active: false,
        }
    }

    /// The configured drop rate.
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

impl Layer for Dropout {
    fn name(&self) -> &'static str {
        "dropout"
    }

    fn forward(
        &mut self,
        input: &Tensor,
        training: bool,
        ws: &mut Workspace,
    ) -> Result<Tensor, DlError> {
        if !training || self.rate == 0.0 {
            self.active = false;
            return Ok(ws.alloc_copy(input));
        }
        let keep = Bernoulli::new(1.0 - self.rate);
        let scale = (1.0 / (1.0 - self.rate)) as f32;
        // Same sample order as always: one Bernoulli draw per element,
        // in element order, so checkpoints replay bit-exactly.
        self.mask.clear();
        self.mask.extend((0..input.len()).map(|_| {
            if keep.sample(&mut self.rng) {
                scale
            } else {
                0.0
            }
        }));
        let mut out = ws.alloc_copy(input);
        for (x, &m) in out.data_mut().iter_mut().zip(&self.mask) {
            *x *= m;
        }
        self.active = true;
        Ok(out)
    }

    fn forward_infer(&self, input: &Tensor, ws: &mut Workspace) -> Result<Tensor, DlError> {
        // Inverted dropout is identity at inference; the RNG is untouched.
        Ok(ws.alloc_copy(input))
    }

    fn rng(&self) -> Option<&Rng> {
        Some(&self.rng)
    }

    fn rng_mut(&mut self) -> Option<&mut Rng> {
        Some(&mut self.rng)
    }

    fn backward(
        &mut self,
        input: &Tensor,
        output: &Tensor,
        grad_out: &Tensor,
        input_grad: bool,
        ws: &mut Workspace,
    ) -> Result<Option<Tensor>, DlError> {
        if input.shape() != output.shape()
            || grad_out.shape() != output.shape()
            || (self.active && self.mask.len() != grad_out.len())
        {
            return Err(misfit("dropout", input, output, grad_out));
        }
        if !input_grad {
            return Ok(None);
        }
        if !self.active {
            return Ok(Some(ws.alloc_copy(grad_out)));
        }
        let mut g = ws.alloc_copy(grad_out);
        for (x, &m) in g.data_mut().iter_mut().zip(&self.mask) {
            *x *= m;
        }
        Ok(Some(g))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inference_is_identity() {
        let mut layer = Dropout::new(0.5, xrng::seeded(1));
        let x = Tensor::from_fn([100], |i| i as f32);
        let y = layer.forward(&x, false, &mut Workspace::new()).unwrap();
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn zero_rate_is_identity_even_in_training() {
        let mut layer = Dropout::new(0.0, xrng::seeded(2));
        let x = Tensor::from_fn([50], |i| i as f32);
        let y = layer.forward(&x, true, &mut Workspace::new()).unwrap();
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn training_drops_and_scales() {
        let mut layer = Dropout::new(0.4, xrng::seeded(3));
        let x = Tensor::full([10_000], 1.0);
        let y = layer.forward(&x, true, &mut Workspace::new()).unwrap();
        let scale = 1.0 / 0.6f32;
        let dropped = y.data().iter().filter(|&&v| v == 0.0).count();
        let kept = y
            .data()
            .iter()
            .filter(|&&v| (v - scale).abs() < 1e-6)
            .count();
        assert_eq!(dropped + kept, 10_000);
        let frac = dropped as f64 / 10_000.0;
        assert!((frac - 0.4).abs() < 0.03, "drop fraction {frac}");
        // Expectation is preserved by inverted scaling.
        assert!((y.mean() - 1.0).abs() < 0.05);
    }

    #[test]
    fn backward_applies_same_mask() {
        let mut layer = Dropout::new(0.5, xrng::seeded(4));
        let x = Tensor::full([1000], 1.0);
        let y = layer.forward(&x, true, &mut Workspace::new()).unwrap();
        let g = layer
            .backward(&x, &y, &x, true, &mut Workspace::new())
            .unwrap()
            .unwrap();
        // Gradient passes exactly where the forward output was nonzero.
        for (yv, gv) in y.data().iter().zip(g.data()) {
            assert_eq!(yv == &0.0, gv == &0.0);
        }
    }

    #[test]
    #[should_panic(expected = "rate must be in")]
    fn rate_one_rejected() {
        Dropout::new(1.0, xrng::seeded(5));
    }

    #[test]
    fn mask_is_seed_deterministic() {
        let run = || {
            let mut layer = Dropout::new(0.3, xrng::seeded(9));
            layer
                .forward(&Tensor::full([64], 1.0), true, &mut Workspace::new())
                .unwrap()
                .into_vec()
        };
        assert_eq!(run(), run());
    }
}
