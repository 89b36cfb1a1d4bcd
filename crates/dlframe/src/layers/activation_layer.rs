//! Standalone activation layer (Keras `Activation("relu")`).

use super::{misfit, Layer};
use crate::{Activation, DlError};
use tensor::{Tensor, Workspace};

/// Applies an [`Activation`] as its own layer.
pub struct ActivationLayer {
    activation: Activation,
}

impl ActivationLayer {
    /// Wraps an activation function in a layer.
    pub fn new(activation: Activation) -> Self {
        Self { activation }
    }

    /// The wrapped activation.
    pub fn activation(&self) -> Activation {
        self.activation
    }
}

impl Layer for ActivationLayer {
    fn name(&self) -> &'static str {
        "activation"
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
        let mut y = ws.alloc_copy(input);
        self.activation.forward_inplace(&mut y);
        Ok(y)
    }

    fn backward(
        &mut self,
        input: &Tensor,
        output: &Tensor,
        grad_out: &Tensor,
        input_grad: bool,
        ws: &mut Workspace,
    ) -> Result<Option<Tensor>, DlError> {
        if input.shape() != output.shape() || grad_out.shape() != output.shape() {
            return Err(misfit("activation", input, output, grad_out));
        }
        if !input_grad {
            return Ok(None);
        }
        // As-is: the derivative pass stores every element.
        let mut g = ws.alloc_as_is(output.shape().clone());
        self.activation.backward_into(output, grad_out, &mut g);
        Ok(Some(g))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_layer_forward_backward() {
        let mut layer = ActivationLayer::new(Activation::Relu);
        let x = Tensor::from_vec([4], vec![-1.0, 2.0, -3.0, 4.0]).unwrap();
        let ws = &mut Workspace::new();
        let y = layer.forward(&x, true, ws).unwrap();
        assert_eq!(y.data(), &[0.0, 2.0, 0.0, 4.0]);
        let g = layer
            .backward(&x, &y, &Tensor::full([4], 1.0), true, ws)
            .unwrap()
            .unwrap();
        assert_eq!(g.data(), &[0.0, 1.0, 0.0, 1.0]);
    }
}
