//! `perfmodel` — Extra-P-style empirical performance modeling for the
//! CANDLE reproduction: scaling-law fitting, model-driven autotuning,
//! and perf-regression detection.
//!
//! The rest of the workspace produces raw scaling measurements —
//! `HotStats`, `IngestPhases`, cluster α–β sweeps, the `benchmark/`
//! harness's runs — but nothing that *predicts* performance at unmeasured
//! scales or notices when a fresh measurement falls off the established
//! curve. This crate closes that gap, following the Extra-P methodology
//! the DeepScale/Extra-Deep work applies to deep-learning benchmarks:
//!
//! * [`fit`] — deterministic grid search over the performance-model
//!   normal form `c0 + c1·N^a·log2^b(N)` (rational exponent grid,
//!   closed-form relative least squares per candidate, leave-one-out
//!   cross-validation for model selection), bit-identical at any thread
//!   count;
//! * [`tune`] — the fitted models driving real configuration choices:
//!   comm-overlap fusion threshold, training worker count, and serving
//!   fleet initial size;
//! * [`regress`] — the regression detector: points a law fitted to the
//!   rest of the series cannot predict are flagged.
//!
//! The `table_perfmodel` experiment (32nd) pins the accuracy contract:
//! fitted models must predict held-out measurements and `cluster`
//! simulations at **2× beyond the largest fitted scale** within their
//! stated error bands, the autotuned configuration must be no slower
//! than the hardcoded defaults, and an injected slowdown must be flagged
//! at exactly its scale.

pub mod fit;
pub mod regress;
pub mod tune;

pub use fit::{
    fit as fit_series, fit_with_threads, FitError, FittedModel, SamplePoint, ScalingModel,
};
pub use regress::{check_points, Flag};
pub use tune::{
    pick_fleet_initial_size, pick_overlap_threshold, pick_worker_count, FleetSizing,
    OverlapCostModel, ThresholdChoice,
};
