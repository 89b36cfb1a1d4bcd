//! Optimizers: SGD, Adam, and RMSProp — the three used by the P1
//! benchmarks (Table 1 of the paper: NT3/P1B3 use `sgd`, P1B1 uses `adam`,
//! P1B2 uses `rmsprop`).
//!
//! The learning rate is mutable at runtime so a checkpoint can restore it.

/// The optimizer algorithm and its hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OptimizerKind {
    /// Plain stochastic gradient descent: `p ← p − lr × g`.
    Sgd,
    /// Adam (Kingma & Ba 2015) with Keras-default betas.
    Adam {
        /// Exponential decay rate of the first-moment estimate.
        beta1: f32,
        /// Exponential decay rate of the second-moment estimate.
        beta2: f32,
        /// Numerical-stability constant.
        epsilon: f32,
    },
    /// RMSProp with Keras-default decay.
    RmsProp {
        /// Moving-average decay of the squared gradient.
        rho: f32,
        /// Numerical-stability constant.
        epsilon: f32,
    },
}

/// Per-parameter-slot optimizer state.
#[derive(Debug, Clone, Default)]
struct SlotState {
    /// Adam first moment.
    m: Vec<f32>,
    /// Adam second moment or RMSProp mean square.
    v: Vec<f32>,
    /// Number of updates applied to this slot (Adam bias correction).
    t: u64,
}

/// An exported copy of one slot's moment buffers, used by checkpointing
/// to capture and restore the optimizer mid-run (see
/// [`Optimizer::export_slots`] / [`Optimizer::import_slots`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SlotSnapshot {
    /// Adam first moment.
    pub m: Vec<f32>,
    /// Adam second moment or RMSProp mean square.
    pub v: Vec<f32>,
    /// Number of updates applied to this slot (Adam bias correction).
    pub t: u64,
}

/// A stateful optimizer applying updates tensor-by-tensor.
///
/// Each trainable tensor in the model is identified by a stable `slot`
/// index; moment buffers are kept per slot.
#[derive(Debug, Clone)]
pub struct Optimizer {
    kind: OptimizerKind,
    lr: f32,
    slots: Vec<SlotState>,
}

impl Optimizer {
    /// Plain SGD, the paper's NT3/P1B3 default (`lr = 0.001`).
    pub fn sgd(lr: f32) -> Self {
        Self::new(OptimizerKind::Sgd, lr)
    }

    /// Adam with Keras defaults, the P1B1 optimizer.
    pub fn adam(lr: f32) -> Self {
        Self::new(
            OptimizerKind::Adam {
                beta1: 0.9,
                beta2: 0.999,
                epsilon: 1e-7,
            },
            lr,
        )
    }

    /// RMSProp with Keras defaults, the P1B2 optimizer.
    pub fn rmsprop(lr: f32) -> Self {
        Self::new(
            OptimizerKind::RmsProp {
                rho: 0.9,
                epsilon: 1e-7,
            },
            lr,
        )
    }

    /// Creates an optimizer from explicit hyperparameters.
    ///
    /// # Panics
    /// Panics if `lr` is not positive and finite.
    pub fn new(kind: OptimizerKind, lr: f32) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "learning rate must be positive");
        Self {
            kind,
            lr,
            slots: Vec::new(),
        }
    }

    /// Current learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.lr
    }

    /// Replaces the learning rate (a checkpoint restore sets the saved one).
    pub fn set_learning_rate(&mut self, lr: f32) {
        assert!(lr.is_finite() && lr > 0.0, "learning rate must be positive");
        self.lr = lr;
    }

    /// The algorithm in use.
    pub fn kind(&self) -> OptimizerKind {
        self.kind
    }

    /// Copies out all per-slot moment buffers, in slot order.
    ///
    /// An optimizer restored via [`Optimizer::import_slots`] continues the
    /// update sequence bit-exactly (the update math reads only `kind`, `lr`
    /// and these buffers).
    pub fn export_slots(&self) -> Vec<SlotSnapshot> {
        self.slots
            .iter()
            .map(|s| SlotSnapshot {
                m: s.m.clone(),
                v: s.v.clone(),
                t: s.t,
            })
            .collect()
    }

    /// Replaces all per-slot moment buffers with an exported snapshot.
    pub fn import_slots(&mut self, slots: Vec<SlotSnapshot>) {
        self.slots = slots
            .into_iter()
            .map(|s| SlotState {
                m: s.m,
                v: s.v,
                t: s.t,
            })
            .collect();
    }

    /// Applies one update to `param` given `grad`, using the state of
    /// `slot`. Raw slices, because the model keeps all gradients in one flat
    /// buffer and hands each slot's window here, so no gradient tensors are
    /// cloned.
    ///
    /// # Panics
    /// Panics if `param` and `grad` lengths differ.
    pub fn update_slice(&mut self, slot: usize, param: &mut [f32], grad: &[f32]) {
        assert_eq!(
            param.len(),
            grad.len(),
            "optimizer: parameter/gradient length mismatch"
        );
        if self.slots.len() <= slot {
            self.slots.resize_with(slot + 1, SlotState::default);
        }
        let state = &mut self.slots[slot];
        let n = param.len();
        match self.kind {
            OptimizerKind::Sgd => {
                for (p, &g) in param.iter_mut().zip(grad) {
                    *p -= self.lr * g;
                }
            }
            OptimizerKind::Adam {
                beta1,
                beta2,
                epsilon,
            } => {
                if state.m.len() != n {
                    state.m = vec![0.0; n];
                    state.v = vec![0.0; n];
                    state.t = 0;
                }
                state.t += 1;
                let t = state.t as f64;
                let bc1 = 1.0 - (beta1 as f64).powf(t);
                let bc2 = 1.0 - (beta2 as f64).powf(t);
                let alpha = self.lr as f64 * bc2.sqrt() / bc1;
                for (((p, &g), m), v) in param
                    .iter_mut()
                    .zip(grad)
                    .zip(&mut state.m)
                    .zip(&mut state.v)
                {
                    *m = beta1 * *m + (1.0 - beta1) * g;
                    *v = beta2 * *v + (1.0 - beta2) * g * g;
                    *p -= (alpha * (*m as f64) / ((*v as f64).sqrt() + epsilon as f64)) as f32;
                }
            }
            OptimizerKind::RmsProp { rho, epsilon } => {
                if state.v.len() != n {
                    state.v = vec![0.0; n];
                }
                for ((p, &g), v) in param.iter_mut().zip(grad).zip(&mut state.v) {
                    *v = rho * *v + (1.0 - rho) * g * g;
                    *p -= self.lr * g / (v.sqrt() + epsilon);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_descent(mut opt: Optimizer, steps: usize) -> f32 {
        // Minimize f(x) = x² starting at x = 5; gradient is 2x.
        let mut x = [5.0f32];
        for _ in 0..steps {
            let g = [2.0 * x[0]];
            opt.update_slice(0, &mut x, &g);
        }
        x[0].abs()
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        assert!(quadratic_descent(Optimizer::sgd(0.1), 100) < 1e-3);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        assert!(quadratic_descent(Optimizer::adam(0.2), 300) < 1e-2);
    }

    #[test]
    fn rmsprop_converges_on_quadratic() {
        assert!(quadratic_descent(Optimizer::rmsprop(0.05), 400) < 0.05);
    }

    #[test]
    fn sgd_step_is_exactly_lr_times_grad() {
        let mut opt = Optimizer::sgd(0.5);
        let mut p = [1.0, 2.0];
        let g = [0.2, -0.4];
        opt.update_slice(0, &mut p, &g);
        assert_eq!(p, [0.9, 2.2]);
    }

    #[test]
    fn slots_have_independent_state() {
        let mut opt = Optimizer::adam(0.1);
        let mut a = [1.0];
        let mut b = [1.0];
        let g = [1.0];
        // Updating slot 0 many times must not affect slot 1's bias correction.
        for _ in 0..10 {
            opt.update_slice(0, &mut a, &g);
        }
        let mut fresh = Optimizer::adam(0.1);
        let mut b2 = [1.0];
        opt.update_slice(1, &mut b, &g);
        fresh.update_slice(0, &mut b2, &g);
        assert!((b[0] - b2[0]).abs() < 1e-7);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let mut opt = Optimizer::sgd(0.1);
        let mut p = [0.0f32; 2];
        let g = [0.0f32; 3];
        opt.update_slice(0, &mut p, &g);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn non_positive_lr_rejected() {
        Optimizer::sgd(0.0);
    }

    #[test]
    fn slot_export_import_resumes_bit_exactly() {
        // Run Adam 5 steps, snapshot, run 5 more; a fresh optimizer fed the
        // snapshot must reproduce the second half exactly.
        let mut opt = Optimizer::adam(0.05);
        let mut p = [1.0, -2.0, 0.5];
        let g = [0.3, -0.1, 0.7];
        for _ in 0..5 {
            opt.update_slice(0, &mut p, &g);
        }
        let snap_slots = opt.export_slots();
        let snap_p = p;
        for _ in 0..5 {
            opt.update_slice(0, &mut p, &g);
        }
        let mut resumed = Optimizer::adam(0.05);
        resumed.import_slots(snap_slots);
        let mut q = snap_p;
        for _ in 0..5 {
            resumed.update_slice(0, &mut q, &g);
        }
        assert_eq!(p, q);
    }

    #[test]
    fn adam_first_step_magnitude_is_lr() {
        // Adam's bias-corrected first step has magnitude ≈ lr regardless of
        // gradient scale.
        let mut opt = Optimizer::adam(0.01);
        let mut p = [0.0];
        let g = [123.0];
        opt.update_slice(0, &mut p, &g);
        assert!((p[0].abs() - 0.01).abs() < 1e-4, "step {}", p[0]);
    }
}
