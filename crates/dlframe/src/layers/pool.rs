//! Max-pooling layer.

use super::{misfit, Layer};
use crate::DlError;
use tensor::{
    maxpool1d_backward_ws, maxpool1d_forward_ws, maxpool1d_infer_ws, pool1d_output_len, Tensor,
    Workspace,
};

/// Keras-style `MaxPooling1D(pool_size)` with non-overlapping windows.
pub struct MaxPooling1D {
    pool: usize,
    /// Which row of its window each output of the last forward came from:
    /// what backward needs and neither boundary tensor says cheaply.
    offsets: Vec<u32>,
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
            offsets: Vec::new(),
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
        maxpool1d_forward_ws(input, self.pool, &mut self.offsets, ws)
            .map_err(|e| DlError::BadInput(e.to_string()))
    }

    fn forward_infer(&self, input: &Tensor, ws: &mut Workspace) -> Result<Tensor, DlError> {
        // Only backward reads the offsets, and inference has none.
        maxpool1d_infer_ws(input, self.pool, ws).map_err(|e| DlError::BadInput(e.to_string()))
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
            (&[b, steps, ch], &[ob, out_steps, och])
                if (b, ch) == (ob, och) && pool1d_output_len(steps, self.pool) == Some(out_steps)
        );
        if !fits || grad_out.shape() != output.shape() {
            return Err(misfit("max_pooling1d", input, output, grad_out));
        }
        if !input_grad {
            return Ok(None);
        }
        // The kernel checks the last forward's offsets against `input` too.
        maxpool1d_backward_ws(input.shape(), grad_out, self.pool, &self.offsets, ws)
            .map(Some)
            .map_err(|_| misfit("max_pooling1d", input, output, grad_out))
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
        let grad = Tensor::from_vec([1, 2, 1], vec![5.0, 7.0]).unwrap();
        let g = layer.backward(&x, &y, &grad, true, ws).unwrap().unwrap();
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
