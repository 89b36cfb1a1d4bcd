//! Neural-network layers.
//!
//! Each layer owns its parameters and the gradient buffers the last
//! backward pass produced — and no activations, which belong to the model.
//! The [`Sequential`](crate::Sequential) model walks the parameters and
//! gradients through the optimizer (and, in distributed runs, through the
//! gradient-averaging allreduce) in a fixed layer/parameter order so every
//! worker sees an identical flat layout.

mod activation_layer;
mod conv;
mod dense;
mod dropout;
mod pool;
mod reshape;

pub use activation_layer::ActivationLayer;
pub use conv::Conv1D;
pub use dense::Dense;
pub use dropout::Dropout;
pub use pool::MaxPooling1D;
pub use reshape::{Flatten, Reshape3};

use crate::DlError;
use tensor::{Tensor, Workspace};

/// A differentiable layer in a [`Sequential`](crate::Sequential) stack.
///
/// The contract is three compute methods and three tensor visitors. Every
/// compute method draws its output and scratch from the caller's
/// [`Workspace`] and never from the heap once the workspace is warm; the
/// caller owns the returned tensor and hands it back with
/// [`Workspace::recycle`] when done.
///
/// A layer keeps no activation: the caller ([`Sequential`] holds one
/// tensor per layer boundary for the length of a step) passes `backward`
/// the input and output of the forward pass it differentiates. A layer
/// keeps only what its own forward alone knows — a dropout mask, each
/// pooling window's winner.
///
/// Allocation forms (see [`Workspace`]): a tensor some kernel writes
/// completely — every `forward` output, `Dense` / `Conv1D`'s `dL/dz`,
/// `Dense`'s and the pool's input gradient — is taken as-is; only the
/// convolution input gradient, which is accumulated into, is zeroed.
///
/// `Send + Sync` is required so a trained model can be shared immutably
/// between inference worker threads (the `serve` crate wraps one replica
/// in an `Arc` and runs [`Layer::forward_infer`] from many workers).
///
/// [`Sequential`]: crate::Sequential
pub trait Layer: Send + Sync {
    /// Keras-style layer name (for summaries and traces).
    fn name(&self) -> &'static str;

    /// Training-path forward: computes the layer output. `training`
    /// switches train-time stochasticity (dropout) on.
    fn forward(
        &mut self,
        input: &Tensor,
        training: bool,
        ws: &mut Workspace,
    ) -> Result<Tensor, DlError>;

    /// Inference-only forward: no training-time stochasticity (dropout is
    /// identity) and no state written, so it works on a shared `&self` and
    /// is safe to call concurrently, each caller with its own workspace.
    /// Must produce bit-identical outputs to `forward(input, false, ws)`.
    fn forward_infer(&self, input: &Tensor, ws: &mut Workspace) -> Result<Tensor, DlError>;

    /// Overwrites the layer's parameter gradients from `dL/doutput` and,
    /// when `input_grad` is set, also computes `dL/dinput` — returned as
    /// `Some` exactly when it was asked for. Training clears `input_grad`
    /// on the lowest layer that owns parameters: nothing below it reads
    /// that gradient, and for a `Dense` or `Conv1D` it is a whole GEMM.
    ///
    /// `input` and `output` are what the last [`Layer::forward`] took and
    /// returned. Tensors that do not fit together — a gradient not shaped
    /// like `output`, an `input` this layer cannot have mapped to it — are
    /// [`DlError::BadInput`], never a short or misrouted gradient.
    fn backward(
        &mut self,
        input: &Tensor,
        output: &Tensor,
        grad_out: &Tensor,
        input_grad: bool,
        ws: &mut Workspace,
    ) -> Result<Option<Tensor>, DlError>;

    /// Visits each trainable parameter tensor, in the fixed order that
    /// defines this layer's slice of the model's flat layout. Parameterless
    /// layers keep the empty default.
    fn for_each_param(&self, f: &mut dyn FnMut(&Tensor)) {
        let _ = f;
    }

    /// Mutable counterpart of [`Layer::for_each_param`], same order.
    fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        let _ = f;
    }

    /// Visits the gradients of the last backward pass, aligned with
    /// [`Layer::for_each_param`].
    fn for_each_grad(&self, f: &mut dyn FnMut(&Tensor)) {
        let _ = f;
    }

    /// Total number of scalar parameters.
    fn param_count(&self) -> usize {
        let mut n = 0;
        self.for_each_param(&mut |p| n += p.len());
        n
    }

    /// The layer's private random stream, if it has one (dropout does).
    ///
    /// Checkpointing walks these to capture every stochastic stream in the
    /// model, which is what makes interrupted training resumable bit-exactly.
    fn rng(&self) -> Option<&xrng::Rng> {
        None
    }

    /// Mutable access to the layer's private random stream, aligned with
    /// [`Layer::rng`] (used to restore a checkpointed stream position).
    fn rng_mut(&mut self) -> Option<&mut xrng::Rng> {
        None
    }
}

/// The [`DlError::BadInput`] of a [`Layer::backward`] whose three tensors
/// do not fit together.
pub(crate) fn misfit(layer: &str, input: &Tensor, output: &Tensor, grad_out: &Tensor) -> DlError {
    DlError::BadInput(format!(
        "{layer}: backward got input {}, output {} and gradient {}",
        input.shape(),
        output.shape(),
        grad_out.shape()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    struct NoParams;
    impl Layer for NoParams {
        fn name(&self) -> &'static str {
            "noparams"
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
            Ok(ws.alloc_copy(input))
        }
        fn backward(
            &mut self,
            _input: &Tensor,
            _output: &Tensor,
            grad_out: &Tensor,
            input_grad: bool,
            ws: &mut Workspace,
        ) -> Result<Option<Tensor>, DlError> {
            Ok(input_grad.then(|| ws.alloc_copy(grad_out)))
        }
    }

    #[test]
    fn default_visitors_are_empty() {
        let mut l = NoParams;
        let mut visits = 0;
        l.for_each_param(&mut |_| visits += 1);
        l.for_each_param_mut(&mut |_| visits += 1);
        l.for_each_grad(&mut |_| visits += 1);
        assert_eq!(visits, 0);
        assert_eq!(l.param_count(), 0);
    }
}
