//! Table-1 hyperparameters of the four P1 benchmarks.

use cluster::calib::Bench;
use cluster::WorkloadProfile;
use dlframe::OptimizerKind;

/// Benchmark identity, aliasing the calibration enum so the whole
/// workspace shares one type.
pub type BenchId = Bench;

/// The published configuration of one benchmark (paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HyperParams {
    /// Which benchmark.
    pub bench: BenchId,
    /// Default number of epochs.
    pub epochs: usize,
    /// Default batch size.
    pub batch_size: usize,
    /// Learning rate (`None` means the Keras optimizer default — P1B1).
    pub learning_rate: Option<f32>,
    /// Optimizer (sgd / adam / rmsprop).
    pub optimizer: OptimizerKind,
    /// Total training samples.
    pub train_samples: usize,
    /// Total test samples (≈ quarter of training, matching file-size
    /// ratios).
    pub test_samples: usize,
    /// Elements (features + label) per sample.
    pub elements_per_sample: usize,
    /// Output classes (0 ⇒ regression).
    pub classes: usize,
}

impl HyperParams {
    /// The Table-1 configuration for a benchmark.
    pub fn of(bench: BenchId) -> HyperParams {
        match bench {
            Bench::Nt3 => HyperParams {
                bench,
                epochs: 384,
                batch_size: 20,
                learning_rate: Some(0.001),
                optimizer: OptimizerKind::Sgd,
                train_samples: 1_120,
                test_samples: 280,
                elements_per_sample: 60_483,
                classes: 2,
            },
            Bench::P1b1 => HyperParams {
                bench,
                epochs: 384,
                batch_size: 100,
                learning_rate: None,
                optimizer: OptimizerKind::Adam {
                    beta1: 0.9,
                    beta2: 0.999,
                    epsilon: 1e-7,
                },
                train_samples: 2_700,
                test_samples: 900,
                elements_per_sample: 60_484,
                classes: 0,
            },
            Bench::P1b2 => HyperParams {
                bench,
                epochs: 768,
                batch_size: 60,
                learning_rate: Some(0.001),
                optimizer: OptimizerKind::RmsProp {
                    rho: 0.9,
                    epsilon: 1e-7,
                },
                train_samples: 2_700,
                test_samples: 900,
                elements_per_sample: 28_204,
                classes: 10,
            },
            Bench::P1b3 => HyperParams {
                bench,
                epochs: 1,
                batch_size: 100,
                learning_rate: Some(0.001),
                optimizer: OptimizerKind::Sgd,
                train_samples: 900_100,
                test_samples: 225_025,
                elements_per_sample: 1_000,
                classes: 0,
            },
        }
    }

    /// Batch steps per epoch at the default batch size (Table 1 text:
    /// NT3 56, P1B1 27, P1B2 45, P1B3 9001).
    pub fn batch_steps_per_epoch(&self) -> usize {
        self.train_samples.div_ceil(self.batch_size)
    }

    /// The effective learning rate (Keras defaults where Table 1 says
    /// "none": adam's 0.001).
    pub fn effective_lr(&self) -> f32 {
        self.learning_rate.unwrap_or(0.001)
    }

    /// The workload profile handed to the `cluster` simulator.
    pub fn workload(&self) -> WorkloadProfile {
        WorkloadProfile {
            bench: self.bench,
            train_samples: self.train_samples,
            default_batch: self.batch_size,
            total_epochs: self.epochs,
        }
    }

    /// Builds the benchmark's optimizer at a given learning rate.
    pub fn make_optimizer(&self, lr: f32) -> dlframe::Optimizer {
        dlframe::Optimizer::new(self.optimizer, lr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_batch_steps() {
        assert_eq!(HyperParams::of(Bench::Nt3).batch_steps_per_epoch(), 56);
        assert_eq!(HyperParams::of(Bench::P1b1).batch_steps_per_epoch(), 27);
        assert_eq!(HyperParams::of(Bench::P1b2).batch_steps_per_epoch(), 45);
        assert_eq!(HyperParams::of(Bench::P1b3).batch_steps_per_epoch(), 9_001);
    }

    #[test]
    fn table1_epochs_and_batches() {
        assert_eq!(HyperParams::of(Bench::Nt3).epochs, 384);
        assert_eq!(HyperParams::of(Bench::P1b1).epochs, 384);
        assert_eq!(HyperParams::of(Bench::P1b2).epochs, 768);
        assert_eq!(HyperParams::of(Bench::P1b3).epochs, 1);
        assert_eq!(HyperParams::of(Bench::Nt3).batch_size, 20);
        assert_eq!(HyperParams::of(Bench::P1b2).batch_size, 60);
    }

    #[test]
    fn optimizers_match_table1() {
        assert!(matches!(
            HyperParams::of(Bench::Nt3).optimizer,
            OptimizerKind::Sgd
        ));
        assert!(matches!(
            HyperParams::of(Bench::P1b1).optimizer,
            OptimizerKind::Adam { .. }
        ));
        assert!(matches!(
            HyperParams::of(Bench::P1b2).optimizer,
            OptimizerKind::RmsProp { .. }
        ));
        assert!(matches!(
            HyperParams::of(Bench::P1b3).optimizer,
            OptimizerKind::Sgd
        ));
    }

    #[test]
    fn p1b1_lr_defaults_to_adam_default() {
        let hp = HyperParams::of(Bench::P1b1);
        assert_eq!(hp.learning_rate, None);
        assert_eq!(hp.effective_lr(), 0.001);
    }

    #[test]
    fn workload_mirrors_hyperparams() {
        let hp = HyperParams::of(Bench::Nt3);
        let w = hp.workload();
        assert_eq!(w.train_samples, 1120);
        assert_eq!(w.default_batch, 20);
        assert_eq!(w.total_epochs, 384);
    }

    #[test]
    fn make_optimizer_uses_requested_lr() {
        let hp = HyperParams::of(Bench::P1b2);
        let opt = hp.make_optimizer(0.024);
        assert!((opt.learning_rate() - 0.024).abs() < 1e-7);
    }
}
