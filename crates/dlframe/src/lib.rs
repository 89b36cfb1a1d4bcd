//! `dlframe` — a from-scratch Keras-style deep-learning framework.
//!
//! This crate replaces the Keras/TensorFlow layer of the CANDLE benchmarks.
//! It provides exactly the pieces the four Pilot1 networks use:
//!
//! * layers: [`Dense`], [`Conv1D`], [`MaxPooling1D`], [`Dropout`],
//!   [`Flatten`], [`Reshape3`], [`ActivationLayer`], all behind the one
//!   [`Layer`] contract: three compute methods (`forward`, `forward_infer`,
//!   `backward`) that draw every buffer from a caller-owned
//!   `tensor::Workspace`, and three tensor visitors (`for_each_param`,
//!   `for_each_param_mut`, `for_each_grad`) that define the flat layout;
//! * activations: ReLU, sigmoid, tanh, softmax, linear;
//! * losses: softmax cross-entropy (classification) and mean squared error
//!   (autoencoder / regression);
//! * optimizers: SGD (the paper's NT3/P1B3 default), Adam (P1B1), RMSProp
//!   (P1B2), each built with the learning rate the caller has already
//!   scaled (Horovod's linear rule is `candle::scaled_lr`);
//! * a [`Sequential`] model with `fit` / `evaluate` / `predict`, per-epoch
//!   [`History`], and two integration points used by the `collectives`
//!   crate: a [`GradientSync`] hook called between backward and the
//!   optimizer step (Horovod's `DistributedOptimizer` splice point) and
//!   flat get/set of all parameters (the `BroadcastGlobalVariablesHook`
//!   splice point).
//!
//! There is one compute path. `fit` / `train_batch` run on the model's own
//! workspace (zero heap allocations per step once warm); `predict` and
//! `evaluate` take `&self` and run the same layer code on the calling
//! thread's scratch workspace.
//!
//! Everything is deterministic given a seed: initialization, shuffling and
//! dropout all draw from `xrng` streams owned by the model.

mod activation;
mod data;
mod history;
mod layers;
mod loss;
mod model;
mod optimizer;

pub use activation::Activation;
pub use data::Dataset;
pub use history::{EpochStats, History};
pub use layers::{ActivationLayer, Conv1D, Dense, Dropout, Flatten, Layer, MaxPooling1D, Reshape3};
pub use loss::Loss;
pub use model::{FitConfig, GradientSync, HotStats, NoSync, Sequential};
pub use optimizer::{Optimizer, OptimizerKind, SlotSnapshot};

/// Errors surfaced by the framework.
#[derive(Debug, Clone, PartialEq)]
pub enum DlError {
    /// Input fed to a layer or model has the wrong shape.
    BadInput(String),
    /// Model was used before `compile` or without layers.
    NotReady(String),
}

impl std::fmt::Display for DlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DlError::BadInput(msg) => write!(f, "bad input: {msg}"),
            DlError::NotReady(msg) => write!(f, "model not ready: {msg}"),
        }
    }
}

impl std::error::Error for DlError {}
