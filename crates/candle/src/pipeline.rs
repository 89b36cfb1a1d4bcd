//! The functional data-parallel pipeline: real multi-worker training.
//!
//! Implements paper §2.3.2 faithfully, one simulated Horovod worker per
//! thread:
//!
//! 1. every rank builds the model with its *own* random initialization;
//! 2. rank 0's weights are broadcast (`BroadcastGlobalVariablesHook(0)`);
//! 3. the learning rate is scaled linearly by the worker count;
//! 4. every rank trains `comp_epochs`-balanced epochs over the full
//!    dataset, with the flat gradient ring-allreduce-averaged after every
//!    batch step (`hvd.DistributedOptimizer`);
//! 5. rank 0 evaluates on the held-out test set.
//!
//! The outcome carries the *functional* results — accuracy and loss as a
//! function of workers/epochs/batch — which the paper's Figures 6b, 8b,
//! 9b, 10b, and Table 6 report. Wall-clock at Summit scale comes from the
//! `cluster` simulator instead.

use crate::cache::{
    load_benchmark_dataset, load_benchmark_dataset_via_service, CacheSpec, DataPhase, ServiceSpec,
};
use crate::dataset::{benchmark_dataset, BenchDataKind};
use crate::models::build_model;
use crate::params::BenchId;
use crate::scaling::{comp_epochs_balanced, scaled_lr};
use collectives::{broadcast_parameters, run_workers_owned, DistributedOptimizer};
use dlframe::{FitConfig, History};
use obs::{PhaseProfiler, Timeline};
use std::sync::Arc;
use std::time::Instant;

/// How the functional run divides work (mirrors `cluster::ScalingMode`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuncScaling {
    /// Divide `total_epochs` across workers (balanced, remainder dropped).
    Strong {
        /// Total epoch budget to divide.
        total_epochs: usize,
    },
    /// Fixed epochs per worker.
    Weak {
        /// Epochs each worker runs.
        epochs_per_worker: usize,
    },
}

/// How the training data is distributed across workers (paper §2.3.1:
/// "Data parallelism is at the epoch level and/or the batch step level").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DataMode {
    /// Every worker trains on the full dataset (the paper's epoch-level
    /// parallelization of NT3/P1B1/P1B2: epochs are divided, data is not).
    #[default]
    FullReplicated,
    /// Block-sharded data: each worker trains on its `1/N` shard every
    /// epoch (the `keras_mnist_advanced.py`-style batch-step-level
    /// parallelism Horovod also supports).
    Sharded,
}

/// Specification of one functional parallel run.
#[derive(Debug, Clone)]
pub struct ParallelRunSpec {
    /// Benchmark to run.
    pub bench: BenchId,
    /// Simulated worker count.
    pub workers: usize,
    /// Scaling regime.
    pub scaling: FuncScaling,
    /// Effective batch size (after any batch-size scaling strategy).
    pub batch: usize,
    /// Base learning rate; the pipeline applies linear scaling by
    /// `workers`.
    pub base_lr: f32,
    /// Dataset geometry.
    pub data: BenchDataKind,
    /// Master seed.
    pub seed: u64,
    /// Record a Horovod-style timeline of the run.
    pub record_timeline: bool,
    /// Data distribution across workers.
    pub data_mode: DataMode,
    /// Optional binary dataset cache: when set, the data phase serves warm
    /// runs from checksummed shards (`cache_load` in the phase profile)
    /// instead of regenerating (`data_loading`).
    pub cache: Option<CacheSpec>,
    /// Optional shared dataset service: when set, the data phase draws its
    /// tensors from the service's admission-controlled shard pool
    /// (`service_*` phases in the profile) so N concurrent runs share one
    /// data plane. Takes precedence over `cache`.
    pub data_service: Option<ServiceSpec>,
    /// Overlap gradient communication with backward compute: when set,
    /// each worker wraps its communicator in
    /// [`collectives::AsyncBucketedOptimizer`] with a bucket plan derived
    /// from the model's per-layer gradient sizes at this fusion threshold
    /// (bytes). `None` keeps the blocking post-backward allreduce. The
    /// phase profile gains `comm_overlap` (communication hidden under
    /// backward) and `comm_exposed` (communication the optimizer step had
    /// to wait for) entries.
    pub comm_overlap: Option<usize>,
}

/// Results of a functional parallel run.
#[derive(Debug)]
pub struct ParallelRunOutcome {
    /// Epochs each worker actually ran.
    pub epochs_per_worker: usize,
    /// Rank 0's final-epoch training loss.
    pub train_loss: f64,
    /// Rank 0's final-epoch training accuracy (classification only).
    pub train_accuracy: Option<f64>,
    /// Test loss evaluated by rank 0 after training.
    pub test_loss: f64,
    /// Test accuracy evaluated by rank 0 (argmax; meaningful for
    /// classifiers).
    pub test_accuracy: f64,
    /// Rank 0's communication counters.
    pub comm_stats: collectives::CommStats,
    /// Per-rank training histories.
    pub histories: Vec<History>,
    /// Recorded timeline, if requested.
    pub timeline: Option<Timeline>,
    /// Wall-clock duration of the whole parallel run.
    pub wall: std::time::Duration,
    /// Variance of the test targets (for R²-style regression accuracy:
    /// `1 - test_loss / test_target_variance`).
    pub test_target_variance: f64,
    /// cProfile-style phase attribution of rank 0's run (data generation,
    /// broadcast, training, evaluation).
    pub profile: PhaseProfiler,
}

/// Errors from the functional pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// Epoch budget too small for the worker count (mirrors the paper's
    /// "P1B1 requires at least 4 epochs" constraint).
    NoEpochs {
        /// Requested workers.
        workers: usize,
        /// Total epochs that could not be split.
        total_epochs: usize,
    },
    /// A training error from `dlframe`.
    Train(String),
    /// The dataset cache could not be built or read.
    Cache(String),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::NoEpochs {
                workers,
                total_epochs,
            } => {
                write!(f, "{total_epochs} epochs cannot feed {workers} workers")
            }
            PipelineError::Train(msg) => write!(f, "training failed: {msg}"),
            PipelineError::Cache(msg) => write!(f, "dataset cache failed: {msg}"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// Builds the model exactly as rank `rank` of [`run_parallel`] does:
/// linear learning-rate scaling by the worker count, then the per-rank
/// initialization seed `derive_seed(spec.seed, 100 + rank)` (Horovod:
/// every worker random-inits before rank 0 wins via broadcast).
///
/// Extracted so external drivers — the `resil` recovery driver in
/// particular — can construct bit-identical replicas of the pipeline's
/// workers and resume them from a checkpoint.
pub fn build_rank_model(spec: &ParallelRunSpec, rank: usize) -> dlframe::Sequential {
    let lr = scaled_lr(spec.base_lr, spec.workers);
    let init_seed = xrng::derive_seed(spec.seed, 100 + rank as u64);
    build_model(spec.bench, spec.data.features, lr, init_seed).0
}

/// The `fit` settings every rank of [`run_parallel`] trains with:
/// `epochs` of shuffled `batch_size` mini-batches, accuracy recorded.
///
/// Shared so that a driver resuming those ranks (the `resil` recovery
/// driver) trains bit-identically to the uninterrupted pipeline.
pub fn rank_fit_config(epochs: usize, batch_size: usize) -> FitConfig {
    FitConfig {
        epochs,
        batch_size,
        shuffle: true,
        compute_accuracy: true,
    }
}

/// Runs the benchmark with `spec.workers` simulated Horovod workers.
pub fn run_parallel(spec: &ParallelRunSpec) -> Result<ParallelRunOutcome, PipelineError> {
    let epochs_per_worker = match spec.scaling {
        FuncScaling::Strong { total_epochs } => {
            let e = comp_epochs_balanced(total_epochs, spec.workers);
            if e == 0 {
                return Err(PipelineError::NoEpochs {
                    workers: spec.workers,
                    total_epochs,
                });
            }
            e
        }
        FuncScaling::Weak { epochs_per_worker } => epochs_per_worker,
    };
    let mut profile = PhaseProfiler::new();
    let (full_train, test) = if let Some(service) = &spec.data_service {
        let (train, test, load) =
            load_benchmark_dataset_via_service(&spec.data, spec.seed, service)
                .map_err(|e| PipelineError::Cache(e.to_string()))?;
        // Attribute the shared plane's work: open (cold build lands here
        // for exactly one of N concurrent runs), streaming, and the job's
        // isolation counters as call counts.
        profile.record(
            if load.cold {
                "service_build"
            } else {
                "service_open"
            },
            load.open,
        );
        profile.record("service_stream", load.stream);
        let job = load.job;
        profile.record_n("service_wait", job.wait_time(), job.waits);
        profile.record_n("service_hit", std::time::Duration::ZERO, job.shard_hits);
        profile.record_n("service_miss", std::time::Duration::ZERO, job.shard_misses);
        (train, test)
    } else {
        match &spec.cache {
            None => {
                let data_gen_start = Instant::now();
                let pair = benchmark_dataset(&spec.data, spec.seed);
                profile.record("data_loading", data_gen_start.elapsed());
                pair
            }
            Some(cache) => {
                let (train, test, phase) = load_benchmark_dataset(&spec.data, spec.seed, cache)
                    .map_err(|e| PipelineError::Cache(e.to_string()))?;
                match phase {
                    DataPhase::Cold {
                        generate,
                        encode_write,
                        ingest,
                    } => {
                        profile.record("data_loading", generate);
                        profile.record("cache_build", encode_write);
                        // Turbo CSV ingests break the load down further:
                        // structural scan vs parallel parse vs frame build.
                        if let Some(phases) = ingest {
                            profile.record("ingest_scan", phases.scan);
                            profile.record("ingest_parse", phases.parse);
                            profile.record("ingest_materialize", phases.materialize);
                        }
                    }
                    DataPhase::Warm { load } => profile.record("cache_load", load),
                }
                (train, test)
            }
        }
    };
    let test_target_variance = {
        let y = test.y().data();
        let mean = y.iter().map(|&v| v as f64).sum::<f64>() / y.len().max(1) as f64;
        y.iter().map(|&v| (v as f64 - mean).powi(2)).sum::<f64>() / y.len().max(1) as f64
    };
    let train = Arc::new(full_train);
    let test = Arc::new(test);
    let timeline = spec.record_timeline.then(Timeline::new);
    let origin = Instant::now();

    let spec2 = spec.clone();
    let tl2 = timeline.clone();
    type RankResult = (
        History,
        collectives::CommStats,
        Option<(f64, f64)>,
        Option<(f64, Option<f64>)>,
        PhaseProfiler,
    );
    let per_rank: Vec<Result<RankResult, String>> =
        run_workers_owned(spec.workers, move |mut comm| {
            let rank = comm.rank();
            let mut rank_profile = PhaseProfiler::new();
            let mut model = build_rank_model(&spec2, rank);
            // BroadcastGlobalVariablesHook(0).
            let bc_start = Instant::now();
            let mut params = model.flat_params();
            broadcast_parameters(&mut comm, &mut params, tl2.as_ref().map(|t| (t, origin)));
            model.set_flat_params(&params);
            rank_profile.record("broadcast", bc_start.elapsed());
            let config = rank_fit_config(epochs_per_worker, spec2.batch);
            // Sharded mode materializes this rank's block; replicated mode
            // trains on the full dataset (the paper's NT3/P1B1/P1B2 setup).
            let local_train = match spec2.data_mode {
                DataMode::FullReplicated => None,
                DataMode::Sharded => Some(train.shard(rank, spec2.workers)),
            };
            let train_ref: &dlframe::Dataset = local_train.as_ref().unwrap_or(&train);
            let fit_start = Instant::now();
            let (history, stats) = if let Some(threshold) = spec2.comm_overlap {
                // Overlapped path: each bucket is posted as backward completes
                // it and folded while earlier layers' gradients are still being
                // produced.
                let plan = collectives::FusionPlan::for_model(&model, threshold);
                let mut dist = collectives::AsyncBucketedOptimizer::new(comm, &plan);
                if let Some(tl) = &tl2 {
                    dist = dist.with_timeline(tl.clone(), origin);
                }
                let history = match model.fit(train_ref, &config, &mut dist) {
                    Ok(h) => h,
                    Err(e) => return Err(e.to_string()),
                };
                rank_profile.record("training", fit_start.elapsed());
                let (endpoint, ostats) = dist.shutdown();
                rank_profile.record_n(
                    "comm_overlap",
                    ostats.comm_busy.saturating_sub(ostats.exposed),
                    ostats.buckets,
                );
                rank_profile.record_n("comm_exposed", ostats.exposed, ostats.steps);
                (history, endpoint.stats().clone())
            } else {
                let mut dist = DistributedOptimizer::new(comm);
                if let Some(tl) = &tl2 {
                    dist = dist.with_timeline(tl.clone(), origin);
                }
                let history = match model.fit(train_ref, &config, &mut dist) {
                    Ok(h) => h,
                    Err(e) => return Err(e.to_string()),
                };
                rank_profile.record("training", fit_start.elapsed());
                (history, dist.comm().stats().clone())
            };
            // Split the training wall time into the hot-path phases the model
            // accumulated (forward+loss, backward, sync+optimizer).
            let hot = model.hot_stats();
            rank_profile.record_n("train_forward", hot.forward, hot.batches);
            rank_profile.record_n("train_backward", hot.backward, hot.batches);
            rank_profile.record_n("train_optimizer", hot.optimizer, hot.batches);
            // Rank 0 evaluates the trained model.
            let eval = if rank == 0 {
                let eval_start = Instant::now();
                let result = match model.evaluate(&test, spec2.batch.max(32)) {
                    Ok(le) => Some(le),
                    Err(e) => return Err(e.to_string()),
                };
                rank_profile.record("evaluate", eval_start.elapsed());
                result
            } else {
                None
            };
            let train_final = if rank == 0 {
                history.last().map(|e| (e.loss, e.accuracy))
            } else {
                None
            };
            Ok((history, stats, eval, train_final, rank_profile))
        });

    let mut histories = Vec::with_capacity(per_rank.len());
    let mut comm_stats = collectives::CommStats::default();
    let mut eval = None;
    let mut train_final = None;
    for (rank, r) in per_rank.into_iter().enumerate() {
        let (h, stats, e, tf, rank_profile) = r.map_err(PipelineError::Train)?;
        if rank == 0 {
            comm_stats = stats;
            eval = e;
            train_final = tf;
            for rec in rank_profile.records() {
                profile.record_n(&rec.name, rec.elapsed, rec.calls);
            }
        }
        histories.push(h);
    }
    let (test_loss, test_accuracy) = eval.expect("rank 0 evaluates");
    let (train_loss, train_accuracy) = train_final.expect("rank 0 records history");
    Ok(ParallelRunOutcome {
        epochs_per_worker,
        train_loss,
        train_accuracy,
        test_loss,
        test_accuracy,
        comm_stats,
        histories,
        timeline,
        wall: origin.elapsed(),
        test_target_variance,
        profile,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheSource;
    use cluster::calib::Bench;

    fn spec(bench: BenchId, workers: usize, total_epochs: usize) -> ParallelRunSpec {
        ParallelRunSpec {
            bench,
            workers,
            scaling: FuncScaling::Strong { total_epochs },
            batch: 20,
            base_lr: 0.02,
            data: BenchDataKind::tiny(bench),
            seed: 42,
            record_timeline: false,
            data_mode: DataMode::FullReplicated,
            cache: None,
            data_service: None,
            comm_overlap: None,
        }
    }

    /// At the default 64 MB fusion threshold the tiny benchmark models fit
    /// in a single bucket, so the overlapped engine performs the exact same
    /// whole-gradient ring allreduce as the blocking optimizer — the run
    /// must be bit-identical, and the profile gains the overlap phases.
    #[test]
    fn overlapped_run_matches_blocking_bitwise() {
        let blocking = run_parallel(&spec(Bench::Nt3, 2, 4)).unwrap();
        let mut overlapped_spec = spec(Bench::Nt3, 2, 4);
        overlapped_spec.comm_overlap = Some(collectives::DEFAULT_FUSION_THRESHOLD_BYTES);
        let overlapped = run_parallel(&overlapped_spec).unwrap();
        assert_eq!(
            blocking.train_loss.to_bits(),
            overlapped.train_loss.to_bits()
        );
        assert_eq!(blocking.test_loss.to_bits(), overlapped.test_loss.to_bits());
        assert_eq!(
            blocking.comm_stats.allreduce_calls,
            overlapped.comm_stats.allreduce_calls
        );
        let names: Vec<_> = overlapped
            .profile
            .records()
            .iter()
            .map(|r| r.name.clone())
            .collect();
        assert!(names.iter().any(|n| n == "comm_overlap"));
        assert!(names.iter().any(|n| n == "comm_exposed"));
    }

    /// A run fed from an exported CSV through the turbo engine trains
    /// bit-identically to the generate-sourced run, and the cold profile
    /// carries the new ingest phase counters.
    #[test]
    fn csv_sourced_run_reports_ingest_phases_and_matches_generate() {
        let root = parx::scratch("candle_pipe_csv").expect("scratch dir");
        let csv = root.join("packed.csv");
        let base = spec(Bench::Nt3, 2, 4);
        crate::cache::export_packed_csv(&base.data, base.seed, &csv).unwrap();

        let mut s = base.clone();
        s.cache = Some(CacheSpec {
            root: root.join("cache"),
            shards: 3,
            prefetch: false,
            source: CacheSource::Csv {
                path: csv,
                strategy: dataio::ReadStrategy::TurboParallel,
            },
        });
        let cold = run_parallel(&s).unwrap();
        let cold_phases: Vec<_> = cold
            .profile
            .records()
            .iter()
            .map(|r| r.name.clone())
            .collect();
        for phase in ["ingest_scan", "ingest_parse", "ingest_materialize"] {
            assert!(
                cold_phases.iter().any(|n| n == phase),
                "missing {phase} in {cold_phases:?}"
            );
        }

        let plain = run_parallel(&base).unwrap();
        assert_eq!(cold.train_loss, plain.train_loss);
        assert_eq!(cold.test_accuracy, plain.test_accuracy);

        // The warm rerun skips the ingest entirely.
        let warm = run_parallel(&s).unwrap();
        assert_eq!(warm.train_loss, plain.train_loss);
        assert!(!warm
            .profile
            .records()
            .iter()
            .any(|r| r.name.starts_with("ingest_")));
    }

    #[test]
    fn nt3_single_worker_learns() {
        let out = run_parallel(&spec(Bench::Nt3, 1, 16)).unwrap();
        assert_eq!(out.epochs_per_worker, 16);
        assert!(out.test_accuracy > 0.9, "accuracy {}", out.test_accuracy);
        assert_eq!(out.histories.len(), 1);
    }

    #[test]
    fn nt3_parallel_workers_agree_and_learn() {
        let out = run_parallel(&spec(Bench::Nt3, 4, 16)).unwrap();
        assert_eq!(out.epochs_per_worker, 4);
        assert!(out.test_accuracy > 0.85, "accuracy {}", out.test_accuracy);
        // Gradient averaging must have happened on every batch step:
        // 120 samples / 20 batch = 6 steps × 4 epochs = 24 allreduces.
        assert_eq!(out.comm_stats.allreduce_calls, 24);
    }

    #[test]
    fn too_few_epochs_for_workers_errors() {
        let r = run_parallel(&spec(Bench::Nt3, 8, 4));
        assert!(matches!(
            r,
            Err(PipelineError::NoEpochs {
                workers: 8,
                total_epochs: 4
            })
        ));
    }

    #[test]
    fn weak_scaling_runs_fixed_epochs() {
        let mut s = spec(Bench::Nt3, 3, 0);
        s.scaling = FuncScaling::Weak {
            epochs_per_worker: 2,
        };
        let out = run_parallel(&s).unwrap();
        assert_eq!(out.epochs_per_worker, 2);
        for h in &out.histories {
            assert_eq!(h.epochs().len(), 2);
        }
    }

    #[test]
    fn accuracy_degrades_with_too_few_epochs_per_worker() {
        // The Fig 6b effect: same total epoch budget, more workers ⇒ fewer
        // sequential epochs each ⇒ lower accuracy.
        let few = run_parallel(&spec(Bench::Nt3, 8, 8)).unwrap(); // 1 epoch each
        let many = run_parallel(&spec(Bench::Nt3, 1, 8)).unwrap(); // 8 epochs
        assert!(
            many.test_accuracy >= few.test_accuracy,
            "8 epochs ({}) should beat 1 epoch ({})",
            many.test_accuracy,
            few.test_accuracy
        );
    }

    #[test]
    fn p1b1_autoencoder_reduces_reconstruction_loss() {
        let mut s = spec(Bench::P1b1, 2, 8);
        s.batch = 30;
        s.base_lr = 0.001;
        let out = run_parallel(&s).unwrap();
        let h = &out.histories[0];
        let first = h.epochs().first().unwrap().loss;
        let last = h.epochs().last().unwrap().loss;
        assert!(last < first, "loss {first} -> {last}");
    }

    #[test]
    fn p1b3_regression_runs() {
        let mut s = spec(Bench::P1b3, 2, 2);
        s.batch = 100;
        s.base_lr = 0.05;
        let out = run_parallel(&s).unwrap();
        assert!(out.test_loss < 0.2, "P1B3 mse {}", out.test_loss);
    }

    #[test]
    fn timeline_records_broadcast_and_allreduce() {
        let mut s = spec(Bench::Nt3, 2, 2);
        s.record_timeline = true;
        let out = run_parallel(&s).unwrap();
        let tl = out.timeline.expect("requested");
        let events = tl.events();
        assert!(events.iter().any(|e| e.name == "mpi_broadcast"));
        assert!(events.iter().any(|e| e.name == "nccl_allreduce"));
    }

    #[test]
    fn sharded_mode_trains_on_blocks() {
        let mut s = spec(Bench::Nt3, 4, 8);
        s.data_mode = DataMode::Sharded;
        let out = run_parallel(&s).unwrap();
        // 120 samples sharded over 4 workers = 30 each; batch 20 -> 2
        // steps/epoch x 2 epochs = 4 allreduces.
        assert_eq!(out.epochs_per_worker, 2);
        assert_eq!(out.comm_stats.allreduce_calls, 4);
        assert!(out.test_loss.is_finite());
    }

    #[test]
    fn sharded_and_replicated_modes_differ_in_steps() {
        let mut replicated = spec(Bench::Nt3, 3, 6);
        replicated.data_mode = DataMode::FullReplicated;
        let mut sharded = replicated.clone();
        sharded.data_mode = DataMode::Sharded;
        let r = run_parallel(&replicated).unwrap();
        let s = run_parallel(&sharded).unwrap();
        // Sharded workers see a third of the data per epoch.
        assert!(s.comm_stats.allreduce_calls < r.comm_stats.allreduce_calls);
    }

    #[test]
    fn cached_run_matches_uncached_and_reports_cache_phases() {
        let root = parx::scratch("candle_pipe_cache").expect("scratch dir");
        let mut s = spec(Bench::Nt3, 2, 4);
        s.cache = Some(CacheSpec {
            root: root.to_path_buf(),
            shards: 3,
            prefetch: false,
            source: CacheSource::Generate,
        });
        let cold = run_parallel(&s).unwrap();
        let phases = |o: &ParallelRunOutcome| {
            o.profile
                .records()
                .iter()
                .map(|r| r.name.clone())
                .collect::<Vec<_>>()
        };
        let cold_phases = phases(&cold);
        assert!(cold_phases.iter().any(|n| n == "data_loading"));
        assert!(cold_phases.iter().any(|n| n == "cache_build"));

        let warm = run_parallel(&s).unwrap();
        let warm_phases = phases(&warm);
        assert!(warm_phases.iter().any(|n| n == "cache_load"));
        assert!(
            !warm_phases.iter().any(|n| n == "data_loading"),
            "warm run must not regenerate: {warm_phases:?}"
        );
        // The cached data is bit-identical to fresh generation, so all
        // three runs train identically.
        let plain = run_parallel(&spec(Bench::Nt3, 2, 4)).unwrap();
        assert_eq!(cold.train_loss, plain.train_loss);
        assert_eq!(warm.train_loss, plain.train_loss);
        assert_eq!(warm.test_accuracy, plain.test_accuracy);
    }

    /// Two runs fed from one shared service train bit-identically to the
    /// plain generate path, and the profile attributes the shared plane's
    /// work (`service_build` on the cold open, `service_open` after).
    #[test]
    fn service_fed_runs_match_plain_and_report_service_phases() {
        let root = parx::scratch("candle_pipe_service").expect("scratch dir");
        let service = datapipe::DatasetService::new(datapipe::ServiceConfig::new(&root)).unwrap();
        let mut s = spec(Bench::Nt3, 2, 4);
        s.data_service = Some(crate::cache::ServiceSpec::new(Arc::clone(&service)));

        let first = run_parallel(&s).unwrap();
        let second = run_parallel(&s).unwrap();
        let plain = run_parallel(&spec(Bench::Nt3, 2, 4)).unwrap();
        assert_eq!(first.train_loss, plain.train_loss);
        assert_eq!(second.train_loss, plain.train_loss);
        assert_eq!(first.test_accuracy, plain.test_accuracy);

        let phases = |o: &ParallelRunOutcome| {
            o.profile
                .records()
                .iter()
                .map(|r| r.name.clone())
                .collect::<Vec<_>>()
        };
        assert!(phases(&first).iter().any(|n| n == "service_build"));
        assert!(phases(&first).iter().any(|n| n == "service_stream"));
        assert!(
            phases(&second).iter().any(|n| n == "service_open"),
            "second run must warm-open, not rebuild: {:?}",
            phases(&second)
        );
        // The second run's shards were already resident: hits, no misses.
        let hit_calls = second
            .profile
            .records()
            .iter()
            .find(|r| r.name == "service_hit")
            .map(|r| r.calls)
            .unwrap_or(0);
        assert!(hit_calls > 0, "resident shards must be attributed as hits");
        assert_eq!(service.stats().admitted, 2);
    }

    #[test]
    fn deterministic_outcome_for_fixed_seed_single_worker() {
        let a = run_parallel(&spec(Bench::Nt3, 1, 4)).unwrap();
        let b = run_parallel(&spec(Bench::Nt3, 1, 4)).unwrap();
        assert_eq!(a.train_loss, b.train_loss);
        assert_eq!(a.test_accuracy, b.test_accuracy);
    }
}
