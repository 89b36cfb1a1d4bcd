//! 1-D convolutional layer (the NT3 feature extractor).
//!
//! Runs on the strided-GEMM convolution kernels: forward is one
//! fused-epilogue product per sample (bias and pointwise activation
//! applied inside the kernel), and backward turns `dL/dy` into `dL/dz` and
//! the bias gradient in one pass, writes the weight gradient straight
//! into the persistent tensor and computes the input gradient only when
//! the caller reads it.

use super::{misfit, Layer};
use crate::{Activation, DlError};
use tensor::{
    conv1d_forward_ws, conv1d_input_grad_ws, conv1d_output_len, conv1d_weight_grad_ws, FusedAct,
    Initializer, Tensor, Workspace,
};
use xrng::Rng;

/// Keras-style `Conv1D(filters, kernel_size, strides, activation)` with
/// valid padding.
///
/// Input: `(batch, steps, in_channels)`; output `(batch, out_steps, filters)`.
pub struct Conv1D {
    weights: Tensor,
    bias: Tensor,
    grad_weights: Tensor,
    grad_bias: Tensor,
    activation: Activation,
    stride: usize,
    kernel: usize,
    in_channels: usize,
    filters: usize,
}

impl Conv1D {
    /// Creates a convolution layer with Glorot-uniform kernels.
    pub fn new(
        in_channels: usize,
        filters: usize,
        kernel: usize,
        stride: usize,
        activation: Activation,
        rng: &mut Rng,
    ) -> Self {
        assert!(
            in_channels > 0 && filters > 0 && kernel > 0 && stride > 0,
            "Conv1D dims must be positive"
        );
        let fan_in = kernel * in_channels;
        let fan_out = kernel * filters;
        Self {
            weights: Initializer::GlorotUniform.init(
                [kernel, in_channels, filters],
                fan_in,
                fan_out,
                rng,
            ),
            bias: Tensor::zeros([filters]),
            grad_weights: Tensor::zeros([kernel, in_channels, filters]),
            grad_bias: Tensor::zeros([filters]),
            activation,
            stride,
            kernel,
            in_channels,
            filters,
        }
    }

    /// Output length for a given input length, if the input is long enough.
    pub fn output_len(&self, steps: usize) -> Option<usize> {
        conv1d_output_len(steps, self.kernel, self.stride)
    }

    /// Number of output channels.
    pub fn filters(&self) -> usize {
        self.filters
    }

    /// The pure computation shared by the training and inference paths:
    /// the convolution with the bias and pointwise activation fused into
    /// its epilogue. (A non-pointwise activation falls back to a separate
    /// pass, preserving the old semantics.)
    fn compute(&self, input: &Tensor, ws: &mut Workspace) -> Result<Tensor, DlError> {
        let (_, _, in_ch) = input.shape().as_3d();
        if in_ch != self.in_channels {
            return Err(DlError::BadInput(format!(
                "conv1d expects {} channels, got {in_ch}",
                self.in_channels
            )));
        }
        let fused = self.activation.fused();
        let mut z = conv1d_forward_ws(
            input,
            &self.weights,
            self.stride,
            Some(self.bias.data()),
            fused.unwrap_or(FusedAct::Linear),
            0,
            ws,
        )
        .map_err(|e| DlError::BadInput(e.to_string()))?;
        if fused.is_none() {
            self.activation.forward_inplace(&mut z);
        }
        Ok(z)
    }
}

impl Layer for Conv1D {
    fn name(&self) -> &'static str {
        "conv1d"
    }

    fn forward(
        &mut self,
        input: &Tensor,
        _training: bool,
        ws: &mut Workspace,
    ) -> Result<Tensor, DlError> {
        self.compute(input, ws)
    }

    fn forward_infer(&self, input: &Tensor, ws: &mut Workspace) -> Result<Tensor, DlError> {
        self.compute(input, ws)
    }

    fn backward(
        &mut self,
        input: &Tensor,
        output: &Tensor,
        grad_out: &Tensor,
        input_grad: bool,
        ws: &mut Workspace,
    ) -> Result<Option<Tensor>, DlError> {
        let fits = matches!(
            (input.shape().dims(), output.shape().dims()),
            (&[b, steps, in_ch], &[ob, out_steps, out_ch])
                if (b, in_ch, out_ch) == (ob, self.in_channels, self.filters)
                    && self.output_len(steps) == Some(out_steps)
        );
        if !fits || grad_out.shape() != output.shape() {
            return Err(misfit("conv1d", input, output, grad_out));
        }
        // As-is: the one pass below stores every element.
        let mut grad_z = ws.alloc_as_is(output.shape().clone());
        self.activation
            .backward_with_bias_into(output, grad_out, &mut grad_z, &mut self.grad_bias);
        // The kernels re-check the geometry established above.
        let kernel_err = |e: tensor::TensorError| DlError::BadInput(e.to_string());
        conv1d_weight_grad_ws(input, &grad_z, self.stride, &mut self.grad_weights, 0, ws)
            .map_err(kernel_err)?;
        let grad_input = input_grad
            .then(|| {
                conv1d_input_grad_ws(input.shape(), &self.weights, &grad_z, self.stride, 0, ws)
            })
            .transpose()
            .map_err(kernel_err)?;
        ws.recycle(grad_z);
        Ok(grad_input)
    }

    fn for_each_param(&self, f: &mut dyn FnMut(&Tensor)) {
        f(&self.weights);
        f(&self.bias);
    }

    fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        f(&mut self.weights);
        f(&mut self.bias);
    }

    fn for_each_grad(&self, f: &mut dyn FnMut(&Tensor)) {
        f(&self.grad_weights);
        f(&self.grad_bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrng::RandomSource;

    #[test]
    fn forward_shape() {
        let mut rng = xrng::seeded(1);
        let mut layer = Conv1D::new(2, 5, 3, 1, Activation::Relu, &mut rng);
        let x = Tensor::zeros([4, 10, 2]);
        let y = layer.forward(&x, true, &mut Workspace::new()).unwrap();
        assert_eq!(y.shape().dims(), &[4, 8, 5]);
        assert_eq!(layer.output_len(10), Some(8));
    }

    #[test]
    fn rejects_channel_mismatch() {
        let mut rng = xrng::seeded(2);
        let mut layer = Conv1D::new(2, 3, 3, 1, Activation::Relu, &mut rng);
        assert!(layer
            .forward(&Tensor::zeros([1, 10, 4]), true, &mut Workspace::new())
            .is_err());
    }

    #[test]
    fn bias_is_added_per_channel() {
        let mut rng = xrng::seeded(3);
        let mut layer = Conv1D::new(1, 2, 1, 1, Activation::Linear, &mut rng);
        for w in layer.weights.data_mut() {
            *w = 0.0;
        }
        layer.bias = Tensor::from_vec([2], vec![3.0, -1.0]).unwrap();
        let y = layer
            .forward(&Tensor::zeros([1, 4, 1]), true, &mut Workspace::new())
            .unwrap();
        for t in 0..4 {
            assert_eq!(y.data()[t * 2], 3.0);
            assert_eq!(y.data()[t * 2 + 1], -1.0);
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = xrng::seeded(4);
        let mut layer = Conv1D::new(2, 3, 3, 2, Activation::Tanh, &mut rng);
        let x = Tensor::from_fn([2, 9, 2], |_| rng.next_f32() - 0.5);
        let ws = &mut Workspace::new();
        let y = layer.forward(&x, true, ws).unwrap();
        let w_dir = Tensor::from_fn(y.shape().clone().dims().to_vec(), |_| rng.next_f32() - 0.5);
        let gx = layer.backward(&x, &y, &w_dir, true, ws).unwrap().unwrap();
        let gw = layer.grad_weights.clone();
        let gb = layer.grad_bias.clone();
        let eps = 1e-3f32;
        let mut loss =
            |l: &mut Conv1D, x: &Tensor| l.forward(x, true, ws).unwrap().mul(&w_dir).unwrap().sum();
        for idx in [0usize, 9, 23] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let numeric = (loss(&mut layer, &xp) - loss(&mut layer, &xm)) / (2.0 * eps as f64);
            assert!(
                (numeric - gx.data()[idx] as f64).abs() < 1e-2,
                "gx idx {idx}"
            );
        }
        for idx in [0usize, 7, 15] {
            let orig = layer.weights.data()[idx];
            layer.weights.data_mut()[idx] = orig + eps;
            let lp = loss(&mut layer, &x);
            layer.weights.data_mut()[idx] = orig - eps;
            let lm = loss(&mut layer, &x);
            layer.weights.data_mut()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps as f64);
            assert!(
                (numeric - gw.data()[idx] as f64).abs() < 1e-2,
                "gw idx {idx}"
            );
        }
        for idx in 0..gb.len() {
            let orig = layer.bias.data()[idx];
            layer.bias.data_mut()[idx] = orig + eps;
            let lp = loss(&mut layer, &x);
            layer.bias.data_mut()[idx] = orig - eps;
            let lm = loss(&mut layer, &x);
            layer.bias.data_mut()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps as f64);
            assert!(
                (numeric - gb.data()[idx] as f64).abs() < 1e-2,
                "gb idx {idx}"
            );
        }
    }

    #[test]
    fn param_count() {
        let mut rng = xrng::seeded(5);
        let layer = Conv1D::new(3, 4, 5, 1, Activation::Relu, &mut rng);
        assert_eq!(layer.param_count(), 5 * 3 * 4 + 4);
    }
}
