//! Fully connected layer.
//!
//! Forward is a single fused-epilogue GEMM (`y = act(x·W + b)` in one
//! pass over the output) and backward is one pass that turns `dL/dy` into
//! `δ = dL/dz` and the bias gradient, then one `gemm_into` call per
//! gradient — `xᵀ·δ` straight into the persistent weight-gradient tensor,
//! `δ·Wᵀ` only when the caller reads the input gradient — with no
//! temporaries beyond the workspace pool.

use super::{misfit, Layer};
use crate::{Activation, DlError};
use tensor::{gemm_into, gemm_slice, Epilogue, GemmMode, Initializer, Tensor, Workspace};
use xrng::Rng;

/// `y = act(x·W + b)` for `x: (batch, in)`, `W: (in, out)`, `b: (out)`.
///
/// The activation is fused into the layer (as in Keras' `Dense(units,
/// activation=...)`), which keeps the backward pass self-contained.
pub struct Dense {
    weights: Tensor,
    bias: Tensor,
    grad_weights: Tensor,
    grad_bias: Tensor,
    activation: Activation,
    in_dim: usize,
    out_dim: usize,
}

impl Dense {
    /// Creates a dense layer with Glorot-uniform weights and zero biases.
    pub fn new(in_dim: usize, out_dim: usize, activation: Activation, rng: &mut Rng) -> Self {
        assert!(in_dim > 0 && out_dim > 0, "Dense dims must be positive");
        Self {
            weights: Initializer::GlorotUniform.init([in_dim, out_dim], in_dim, out_dim, rng),
            bias: Tensor::zeros([out_dim]),
            grad_weights: Tensor::zeros([in_dim, out_dim]),
            grad_bias: Tensor::zeros([out_dim]),
            activation,
            in_dim,
            out_dim,
        }
    }

    /// Input feature count.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output feature count.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// The pure computation shared by the training and inference paths:
    /// one GEMM with the bias and (pointwise) activation fused into the
    /// epilogue. Softmax is row-wise, so it runs as a separate in-place
    /// pass after a bias-only epilogue.
    fn compute(&self, input: &Tensor, ws: &mut Workspace) -> Result<Tensor, DlError> {
        let (batch, cols) = input.shape().as_2d();
        if cols != self.in_dim {
            return Err(DlError::BadInput(format!(
                "dense expects {} features, got {cols}",
                self.in_dim
            )));
        }
        // As-is: the product's first reduction block stores every element.
        let mut z = ws.alloc_as_is([batch, self.out_dim]);
        let fused = self.activation.fused();
        let epilogue = Epilogue {
            bias: Some(self.bias.data()),
            act: fused.unwrap_or_default(),
        };
        gemm_slice(
            GemmMode::Ab,
            input.data(),
            self.in_dim,
            self.weights.data(),
            batch,
            self.in_dim,
            self.out_dim,
            z.data_mut(),
            &epilogue,
            0,
            ws,
        );
        if fused.is_none() {
            self.activation.forward_inplace(&mut z);
        }
        Ok(z)
    }
}

impl Layer for Dense {
    fn name(&self) -> &'static str {
        "dense"
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
        let (&[batch, in_dim], &[out_batch, out_dim]) =
            (input.shape().dims(), output.shape().dims())
        else {
            return Err(misfit("dense", input, output, grad_out));
        };
        if (in_dim, out_dim, out_batch) != (self.in_dim, self.out_dim, batch)
            || grad_out.shape() != output.shape()
        {
            return Err(misfit("dense", input, output, grad_out));
        }
        // As-is, like `gx` below: one pass, one product, each storing
        // every element.
        let mut grad_z = ws.alloc_as_is([batch, out_dim]);
        self.activation
            .backward_with_bias_into(output, grad_out, &mut grad_z, &mut self.grad_bias);
        // The products re-check the shapes established above.
        let kernel_err = |e: tensor::TensorError| DlError::BadInput(e.to_string());
        let (gw, none) = (&mut self.grad_weights, &Epilogue::NONE);
        gemm_into(GemmMode::AtB, input, &grad_z, gw, none, ws).map_err(kernel_err)?;
        let gx = input_grad
            .then(|| {
                let mut gx = ws.alloc_as_is([batch, in_dim]);
                gemm_into(GemmMode::ABt, &grad_z, &self.weights, &mut gx, none, ws).map(|()| gx)
            })
            .transpose()
            .map_err(kernel_err)?;
        ws.recycle(grad_z);
        Ok(gx)
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
    fn forward_shape_and_bias() {
        let mut rng = xrng::seeded(1);
        let mut layer = Dense::new(3, 2, Activation::Linear, &mut rng);
        // Zero the weights to isolate the bias path.
        for w in layer.weights.data_mut() {
            *w = 0.0;
        }
        layer.bias = Tensor::from_vec([2], vec![1.5, -0.5]).unwrap();
        let x = Tensor::zeros([4, 3]);
        let y = layer.forward(&x, true, &mut Workspace::new()).unwrap();
        assert_eq!(y.shape().dims(), &[4, 2]);
        for r in 0..4 {
            assert_eq!(y.row(r), &[1.5, -0.5]);
        }
    }

    #[test]
    fn rejects_wrong_input_width() {
        let mut rng = xrng::seeded(2);
        let mut layer = Dense::new(3, 2, Activation::Relu, &mut rng);
        assert!(layer
            .forward(&Tensor::zeros([4, 5]), true, &mut Workspace::new())
            .is_err());
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = xrng::seeded(4);
        let mut layer = Dense::new(4, 3, Activation::Tanh, &mut rng);
        let x = Tensor::from_fn([5, 4], |_| rng.next_f32() - 0.5);
        let w_dir = Tensor::from_fn([5, 3], |_| rng.next_f32() - 0.5);
        let ws = &mut Workspace::new();
        // Loss = sum(y * w_dir).
        let y = layer.forward(&x, true, ws).unwrap();
        let gx = layer.backward(&x, &y, &w_dir, true, ws).unwrap().unwrap();
        let eps = 1e-3f32;
        // Input gradient.
        for idx in [0usize, 7, 19] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let lp = layer
                .forward(&xp, true, ws)
                .unwrap()
                .mul(&w_dir)
                .unwrap()
                .sum();
            let lm = layer
                .forward(&xm, true, ws)
                .unwrap()
                .mul(&w_dir)
                .unwrap()
                .sum();
            let numeric = (lp - lm) / (2.0 * eps as f64);
            assert!(
                (numeric - gx.data()[idx] as f64).abs() < 1e-2,
                "input grad idx {idx}"
            );
        }
        // Weight gradient, from a parameters-only backward.
        layer.backward(&x, &y, &w_dir, false, ws).unwrap();
        let gw = layer.grad_weights.clone();
        for idx in [0usize, 5, 11] {
            let orig = layer.weights.data()[idx];
            layer.weights.data_mut()[idx] = orig + eps;
            let lp = layer
                .forward(&x, true, ws)
                .unwrap()
                .mul(&w_dir)
                .unwrap()
                .sum();
            layer.weights.data_mut()[idx] = orig - eps;
            let lm = layer
                .forward(&x, true, ws)
                .unwrap()
                .mul(&w_dir)
                .unwrap()
                .sum();
            layer.weights.data_mut()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps as f64);
            assert!(
                (numeric - gw.data()[idx] as f64).abs() < 1e-2,
                "weight grad idx {idx}: {numeric} vs {}",
                gw.data()[idx]
            );
        }
    }

    #[test]
    fn param_count_and_order() {
        let mut rng = xrng::seeded(5);
        let layer = Dense::new(10, 4, Activation::Relu, &mut rng);
        assert_eq!(layer.param_count(), 44);
        let mut shapes = Vec::new();
        layer.for_each_param(&mut |p| shapes.push(p.shape().dims().to_vec()));
        assert_eq!(shapes, [vec![10, 4], vec![4]]);
    }
}
