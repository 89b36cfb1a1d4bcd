//! Shape adapters: `Flatten` (rank-3 → rank-2) and `Reshape3`
//! (rank-2 → rank-3).
//!
//! `Reshape3` plays the role of feeding the flat RNA-seq feature vector into
//! NT3's first `Conv1D` as a `(steps, 1)` sequence; `Flatten` is the Keras
//! layer between the convolutional stack and the dense head.

use super::{misfit, Layer};
use crate::DlError;
use tensor::{Shape, Tensor, Workspace};

/// Collapses `(batch, steps, channels)` to `(batch, steps*channels)`.
#[derive(Default)]
pub struct Flatten;

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Self
    }
}

impl Layer for Flatten {
    fn name(&self) -> &'static str {
        "flatten"
    }

    fn forward(
        &mut self,
        input: &Tensor,
        _training: bool,
        ws: &mut Workspace,
    ) -> Result<Tensor, DlError> {
        self.forward_infer(input, ws)
    }

    fn forward_infer(&self, input: &Tensor, ws: &mut Workspace) -> Result<Tensor, DlError> {
        let (batch, steps, ch) = input.shape().as_3d();
        reshaped_copy(input, [batch, steps * ch], ws)
    }

    fn backward(
        &mut self,
        input: &Tensor,
        output: &Tensor,
        grad_out: &Tensor,
        input_grad: bool,
        ws: &mut Workspace,
    ) -> Result<Option<Tensor>, DlError> {
        relabelled_grad("flatten", input, output, grad_out, input_grad, ws)
    }
}

/// Backward of a layer that only relabels its input: `grad_out` under
/// `input`'s shape, once the three tensors are seen to fit together.
fn relabelled_grad(
    layer: &str,
    input: &Tensor,
    output: &Tensor,
    grad_out: &Tensor,
    input_grad: bool,
    ws: &mut Workspace,
) -> Result<Option<Tensor>, DlError> {
    if input.len() != output.len()
        || input.shape().dims().first() != output.shape().dims().first()
        || grad_out.shape() != output.shape()
    {
        return Err(misfit(layer, input, output, grad_out));
    }
    input_grad
        .then(|| reshaped_copy(grad_out, input.shape().clone(), ws))
        .transpose()
}

/// A pooled copy of `src` under a new shape of equal volume.
fn reshaped_copy(
    src: &Tensor,
    shape: impl Into<Shape>,
    ws: &mut Workspace,
) -> Result<Tensor, DlError> {
    ws.alloc_copy(src)
        .reshape(shape)
        .map_err(|e| DlError::BadInput(e.to_string()))
}

/// Expands `(batch, steps*channels)` to `(batch, steps, channels)`.
pub struct Reshape3 {
    steps: usize,
    channels: usize,
}

impl Reshape3 {
    /// Creates a reshape layer targeting `(steps, channels)` per sample.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(steps: usize, channels: usize) -> Self {
        assert!(steps > 0 && channels > 0, "Reshape3 dims must be positive");
        Self { steps, channels }
    }
}

impl Layer for Reshape3 {
    fn name(&self) -> &'static str {
        "reshape3"
    }

    fn forward(
        &mut self,
        input: &Tensor,
        _training: bool,
        ws: &mut Workspace,
    ) -> Result<Tensor, DlError> {
        self.forward_infer(input, ws)
    }

    fn forward_infer(&self, input: &Tensor, ws: &mut Workspace) -> Result<Tensor, DlError> {
        let (batch, features) = input.shape().as_2d();
        if features != self.steps * self.channels {
            return Err(DlError::BadInput(format!(
                "reshape3 expects {} features, got {features}",
                self.steps * self.channels
            )));
        }
        reshaped_copy(input, [batch, self.steps, self.channels], ws)
    }

    fn backward(
        &mut self,
        input: &Tensor,
        output: &Tensor,
        grad_out: &Tensor,
        input_grad: bool,
        ws: &mut Workspace,
    ) -> Result<Option<Tensor>, DlError> {
        relabelled_grad("reshape3", input, output, grad_out, input_grad, ws)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatten_roundtrip() {
        let mut layer = Flatten::new();
        let x = Tensor::from_fn([2, 3, 4], |i| i as f32);
        let ws = &mut Workspace::new();
        let y = layer.forward(&x, true, ws).unwrap();
        assert_eq!(y.shape().dims(), &[2, 12]);
        assert_eq!(y.data(), x.data());
        let g = layer.backward(&x, &y, &y, true, ws).unwrap().unwrap();
        assert_eq!(g.shape().dims(), &[2, 3, 4]);
    }

    #[test]
    fn reshape3_roundtrip() {
        let mut layer = Reshape3::new(5, 2);
        let x = Tensor::from_fn([3, 10], |i| i as f32);
        let ws = &mut Workspace::new();
        let y = layer.forward(&x, true, ws).unwrap();
        assert_eq!(y.shape().dims(), &[3, 5, 2]);
        let g = layer.backward(&x, &y, &y, true, ws).unwrap().unwrap();
        assert_eq!(g.shape().dims(), &[3, 10]);
        assert_eq!(g.data(), x.data());
    }

    #[test]
    fn reshape3_rejects_wrong_width() {
        let mut layer = Reshape3::new(5, 2);
        assert!(layer
            .forward(&Tensor::zeros([3, 9]), true, &mut Workspace::new())
            .is_err());
    }
}
