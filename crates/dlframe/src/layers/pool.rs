//! Max-pooling layer.

use super::Layer;
use crate::DlError;
use tensor::{
    maxpool1d_backward_ws, maxpool1d_forward_ws, maxpool1d_infer_ws, Shape, Tensor, Workspace,
};

/// Keras-style `MaxPooling1D(pool_size)` with non-overlapping windows.
pub struct MaxPooling1D {
    pool: usize,
    /// Argmax buffer of the last training forward; the `Vec` is moved out
    /// and back so its capacity survives across batches.
    argmax: Option<Vec<usize>>,
    input_shape: Option<Shape>,
}

impl MaxPooling1D {
    /// Creates a pooling layer.
    ///
    /// # Panics
    /// Panics if `pool == 0`.
    pub fn new(pool: usize) -> Self {
        assert!(pool > 0, "pool size must be positive");
        Self {
            pool,
            argmax: None,
            input_shape: None,
        }
    }

    /// The pooling window size.
    pub fn pool_size(&self) -> usize {
        self.pool
    }
}

impl Layer for MaxPooling1D {
    fn name(&self) -> &'static str {
        "max_pooling1d"
    }

    fn forward(
        &mut self,
        input: &Tensor,
        _training: bool,
        ws: &mut Workspace,
    ) -> Result<Tensor, DlError> {
        let mut argmax = self.argmax.take().unwrap_or_default();
        let out = maxpool1d_forward_ws(input, self.pool, &mut argmax, ws)
            .map_err(|e| DlError::BadInput(e.to_string()))?;
        self.argmax = Some(argmax);
        self.input_shape = Some(input.shape().clone());
        Ok(out)
    }

    fn forward_infer(&self, input: &Tensor, ws: &mut Workspace) -> Result<Tensor, DlError> {
        // Only backward reads the argmax, and inference has none.
        maxpool1d_infer_ws(input, self.pool, ws).map_err(|e| DlError::BadInput(e.to_string()))
    }

    fn backward(
        &mut self,
        grad_out: &Tensor,
        input_grad: bool,
        ws: &mut Workspace,
    ) -> Result<Option<Tensor>, DlError> {
        if !input_grad {
            return Ok(None);
        }
        let argmax = self
            .argmax
            .as_ref()
            .ok_or_else(|| DlError::NotReady("max_pooling1d: backward before forward".into()))?;
        let shape = self
            .input_shape
            .as_ref()
            .ok_or_else(|| DlError::NotReady("max_pooling1d: missing input shape".into()))?;
        maxpool1d_backward_ws(shape, grad_out, argmax, ws)
            .map(Some)
            .map_err(|e| DlError::BadInput(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_backward_roundtrip() {
        let mut layer = MaxPooling1D::new(2);
        let x = Tensor::from_vec([1, 4, 1], vec![1.0, 9.0, 3.0, 2.0]).unwrap();
        let ws = &mut Workspace::new();
        let y = layer.forward(&x, true, ws).unwrap();
        assert_eq!(y.data(), &[9.0, 3.0]);
        let g = layer
            .backward(
                &Tensor::from_vec([1, 2, 1], vec![5.0, 7.0]).unwrap(),
                true,
                ws,
            )
            .unwrap()
            .unwrap();
        assert_eq!(g.data(), &[0.0, 5.0, 7.0, 0.0]);
    }

    #[test]
    fn too_short_input_is_error() {
        let mut layer = MaxPooling1D::new(8);
        assert!(layer
            .forward(&Tensor::zeros([1, 4, 1]), true, &mut Workspace::new())
            .is_err());
    }

    #[test]
    fn has_no_params() {
        let layer = MaxPooling1D::new(2);
        assert_eq!(layer.param_count(), 0);
    }
}
