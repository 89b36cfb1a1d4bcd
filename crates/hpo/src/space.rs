//! Seeded hyperparameter search spaces.
//!
//! A space describes the distributions CANDLE's mlrMBO workflows sweep —
//! log-uniform learning rates, categorical batch sizes and layer widths,
//! uniform dropout — and samples a concrete [`TrialParams`] per trial id.
//! Sampling is a pure function of `(search seed, trial id)` through the
//! [`SeedNode`] tree: trial 17 draws the same configuration whether the
//! search runs on 1 worker or 16, and whether it was paused and resumed.

use xrng::{RandomSource, Rng, SeedNode};

/// One scalar hyperparameter distribution.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamSpec {
    /// Uniform on `[lo, hi)`.
    Uniform {
        /// Inclusive lower bound.
        lo: f64,
        /// Exclusive upper bound.
        hi: f64,
    },
    /// Log-uniform on `[lo, hi)`: uniform in `ln x`, the standard prior
    /// for learning rates.
    LogUniform {
        /// Inclusive lower bound (must be positive).
        lo: f64,
        /// Exclusive upper bound.
        hi: f64,
    },
    /// Uniform over an explicit finite set.
    Choice(Vec<f64>),
}

impl ParamSpec {
    /// Draws one value.
    ///
    /// # Panics
    /// Panics on degenerate bounds (`lo >= hi`, non-positive log bounds,
    /// empty choice set).
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        match self {
            ParamSpec::Uniform { lo, hi } => {
                assert!(lo < hi, "uniform bounds must satisfy lo < hi");
                lo + (hi - lo) * rng.next_f64()
            }
            ParamSpec::LogUniform { lo, hi } => {
                assert!(
                    *lo > 0.0 && lo < hi,
                    "log-uniform bounds must satisfy 0 < lo < hi"
                );
                (lo.ln() + (hi.ln() - lo.ln()) * rng.next_f64()).exp()
            }
            ParamSpec::Choice(values) => {
                assert!(!values.is_empty(), "choice set must be non-empty");
                values[rng.next_index(values.len())]
            }
        }
    }
}

/// The four-axis space the HPO engine searches, mirroring the knobs the
/// paper's benchmarks expose (lr, batch size, hidden width, dropout).
#[derive(Debug, Clone, PartialEq)]
pub struct SearchSpace {
    /// Learning-rate prior.
    pub lr: ParamSpec,
    /// Candidate mini-batch sizes.
    pub batch: Vec<usize>,
    /// Candidate hidden-layer widths.
    pub hidden: Vec<usize>,
    /// Dropout-rate prior.
    pub dropout: ParamSpec,
}

impl SearchSpace {
    /// A space sized for the small local trials the executor trains for
    /// real: lr log-uniform over two decades, the batch/width choices of
    /// a scaled-down P1B1-style MLP, light dropout.
    pub fn default_local() -> Self {
        Self {
            lr: ParamSpec::LogUniform { lo: 3e-3, hi: 0.3 },
            batch: vec![16, 32],
            hidden: vec![8, 16, 32],
            dropout: ParamSpec::Uniform { lo: 0.0, hi: 0.2 },
        }
    }

    /// Samples trial `id`'s configuration from the search's seed tree.
    ///
    /// The draw order is fixed (lr, batch, hidden, dropout) and the
    /// stream is `root.derive("trial-params", id)`, so every trial's
    /// configuration is independent of every other trial's and of the
    /// worker that happens to run it.
    pub fn sample(&self, root: SeedNode, id: u64) -> TrialParams {
        let mut rng = root.derive("trial-params", id).rng();
        assert!(!self.batch.is_empty(), "batch choice set must be non-empty");
        assert!(
            !self.hidden.is_empty(),
            "hidden choice set must be non-empty"
        );
        let lr = self.lr.sample(&mut rng) as f32;
        let batch = self.batch[rng.next_index(self.batch.len())];
        let hidden = self.hidden[rng.next_index(self.hidden.len())];
        let dropout = self.dropout.sample(&mut rng) as f32;
        TrialParams {
            lr,
            batch,
            hidden,
            dropout,
        }
    }
}

/// One trial's concrete hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialParams {
    /// SGD learning rate.
    pub lr: f32,
    /// Mini-batch size.
    pub batch: usize,
    /// Hidden-layer width.
    pub hidden: usize,
    /// Dropout rate in `[0, 1)`.
    pub dropout: f32,
}

impl TrialParams {
    /// Folds the exact bit patterns of this configuration into a running
    /// FNV-1a hash (search-fingerprint building block).
    pub fn fold_into(&self, h: u64) -> u64 {
        use datacache::format::fnv1a64_extend;
        let mut h = fnv1a64_extend(h, &self.lr.to_bits().to_le_bytes());
        h = fnv1a64_extend(h, &(self.batch as u64).to_le_bytes());
        h = fnv1a64_extend(h, &(self.hidden as u64).to_le_bytes());
        fnv1a64_extend(h, &self.dropout.to_bits().to_le_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_pure_in_seed_and_id() {
        let space = SearchSpace::default_local();
        let root = SeedNode::root(11);
        for id in 0..32 {
            assert_eq!(space.sample(root, id), space.sample(root, id));
        }
        assert_ne!(space.sample(root, 0), space.sample(SeedNode::root(12), 0));
    }

    #[test]
    fn samples_respect_bounds_and_choices() {
        let space = SearchSpace::default_local();
        let root = SeedNode::root(5);
        for id in 0..200 {
            let p = space.sample(root, id);
            assert!((3e-3..0.3).contains(&(p.lr as f64)), "lr {}", p.lr);
            assert!(space.batch.contains(&p.batch));
            assert!(space.hidden.contains(&p.hidden));
            assert!((0.0..0.2).contains(&(p.dropout as f64)));
        }
    }

    #[test]
    fn log_uniform_covers_decades() {
        // Over many draws a two-decade log prior must land in both the
        // bottom and top decade — uniform-in-x would almost never hit
        // the bottom one.
        let spec = ParamSpec::LogUniform { lo: 1e-3, hi: 1e-1 };
        let mut rng = SeedNode::root(3).rng();
        let draws: Vec<f64> = (0..400).map(|_| spec.sample(&mut rng)).collect();
        let low = draws.iter().filter(|&&x| x < 1e-2).count();
        assert!(low > 100 && low < 300, "{low} draws below 1e-2");
    }

    #[test]
    fn trial_ids_decorrelate() {
        let space = SearchSpace::default_local();
        let root = SeedNode::root(77);
        let distinct: std::collections::HashSet<u64> = (0..64)
            .map(|id| space.sample(root, id).fold_into(0xcbf2_9ce4_8422_2325))
            .collect();
        // Continuous lr makes collisions essentially impossible.
        assert_eq!(distinct.len(), 64);
    }

    #[test]
    #[should_panic(expected = "0 < lo < hi")]
    fn bad_log_bounds_panic() {
        let mut rng = SeedNode::root(1).rng();
        ParamSpec::LogUniform { lo: 0.0, hi: 1.0 }.sample(&mut rng);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_choice_panics() {
        let mut rng = SeedNode::root(1).rng();
        ParamSpec::Choice(vec![]).sample(&mut rng);
    }
}
