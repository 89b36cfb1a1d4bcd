//! `candle` — the CANDLE Pilot1 benchmarks and their Horovod-style
//! parallelization (the paper's primary contribution).
//!
//! The crate ties the whole reproduction together:
//!
//! * [`params`] — the Table-1 hyperparameters of NT3, P1B1, P1B2, P1B3
//!   (epochs, batch sizes, learning rates, optimizers, sample counts, file
//!   sizes) and their [`cluster::WorkloadProfile`]s;
//! * [`scaling`] — the paper's `comp_epochs` epoch partitioning, the
//!   strong/weak scaling regimes (Fig 4a), the batch-size scaling
//!   strategies (linear / square-root / cubic-root, Fig 4b) and linear
//!   learning-rate scaling;
//! * [`models`] — the four network architectures built on `dlframe`
//!   (NT3's 1-D conv classifier, P1B1's autoencoder, P1B2's MLP
//!   classifier, P1B3's drug-response regressor), dimension-scaled by a
//!   documented factor so functional runs finish in seconds;
//! * [`dataset`] — synthetic stand-ins for the NCI data with the right
//!   geometry and learnable structure, plus CSV round-trips through
//!   `dataio` for the three-phase benchmark flow (Fig 2);
//! * [`pipeline`] — the data-parallel functional runner: N simulated
//!   workers (threads) training with per-batch ring-allreduce gradient
//!   averaging and rank-0 weight broadcast, exactly the Horovod recipe of
//!   paper §2.3.

pub mod cache;
pub mod dataset;
pub mod models;
pub mod params;
pub mod pipeline;
pub mod scaling;

pub use cache::{
    dataset_key, export_packed_csv, load_benchmark_dataset, load_benchmark_dataset_via_service,
    CacheSource, CacheSpec, DataPhase, ServiceLoad, ServiceSpec,
};
pub use dataset::{benchmark_dataset, BenchDataKind};
pub use models::build_model;
pub use params::{BenchId, HyperParams};
pub use pipeline::{
    build_rank_model, rank_fit_config, run_parallel, DataMode, FuncScaling, ParallelRunOutcome,
    ParallelRunSpec, PipelineError,
};
pub use scaling::{comp_epochs, comp_epochs_balanced, scaled_batch, scaled_lr, BatchScaling};
