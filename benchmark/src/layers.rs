//! The one adapter: every call into the repo's crates lives in this file.
//!
//! The rest of the benchmark (runner, workloads, statistics, tracing, JSON)
//! names no repo type, so when a product API changes, a later `benchmark`
//! PR edits this file and nothing else. Functions that the traced pass
//! calls are named after the span they open (`dataio.read` →
//! [`dataio_read`]); functions of the timed pass take no tracer and record
//! nothing.

use crate::loadgen::{Reply, Server};
use crate::trace::{Ctx, StepClock, StepTotals, Tracer};
use crate::workloads::{serve as sv, Model, Shape};
use candle_repro::{
    candle, cluster, collectives, datacache, dataio, datapipe, dlframe, resil, serve, tensor,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Product errors cross the adapter as text: the runner only reports them.
pub type Res<T> = Result<T, String>;

fn text(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Shards a cold build splits the dataset into.
const SHARDS: usize = 4;

// ---------------------------------------------------------------------
// candle: the run specification and the product's own entry points
// ---------------------------------------------------------------------

/// One training run's full specification.
#[derive(Clone)]
pub struct Train {
    spec: candle::ParallelRunSpec,
}

impl Train {
    /// `seed` is the product's master seed: the dataset and every rank's
    /// model initialisation derive from it.
    pub fn new(shape: &Shape, seed: u64) -> Train {
        let bench = match shape.model {
            Model::P1b2 => cluster::calib::Bench::P1b2,
            Model::Nt3 => cluster::calib::Bench::Nt3,
            Model::P1b3 => cluster::calib::Bench::P1b3,
        };
        Train {
            spec: candle::ParallelRunSpec {
                bench,
                workers: shape.workers,
                scaling: candle::FuncScaling::Weak {
                    epochs_per_worker: shape.epochs,
                },
                batch: shape.batch,
                base_lr: shape.base_lr,
                data: candle::BenchDataKind {
                    bench,
                    features: shape.features,
                    train_rows: shape.train_rows,
                    test_rows: shape.test_rows,
                },
                seed,
                record_timeline: false,
                data_mode: if shape.sharded {
                    candle::DataMode::Sharded
                } else {
                    candle::DataMode::FullReplicated
                },
                cache: None,
                data_service: None,
                comm_overlap: shape.overlap_bytes,
            },
        }
    }

    /// Feeds the run from a shard cache under `cache_root` whose cold build
    /// ingests `csv` with the turbo engine.
    pub fn with_csv_cache(mut self, csv: &Path, cache_root: &Path) -> Train {
        self.spec.cache = Some(candle::CacheSpec {
            root: cache_root.to_path_buf(),
            shards: SHARDS,
            prefetch: false,
            source: candle::CacheSource::Csv {
                path: csv.to_path_buf(),
                strategy: dataio::ReadStrategy::TurboParallel,
            },
        });
        self
    }

    /// Feeds the run from a shared dataset service.
    pub fn with_service(mut self, service: &Service) -> Train {
        self.spec.data_service = Some(candle::ServiceSpec {
            service: Arc::clone(&service.0),
            shards: SHARDS,
        });
        self
    }

    /// The same run at another worker count (the single-worker baseline).
    pub fn with_workers(mut self, workers: usize) -> Train {
        self.spec.workers = workers;
        self
    }

    fn csv_cache(&self) -> Res<(&candle::CacheSpec, &Path, dataio::ReadStrategy)> {
        match &self.spec.cache {
            Some(
                cache @ candle::CacheSpec {
                    source: candle::CacheSource::Csv { path, strategy },
                    ..
                },
            ) => Ok((cache, path, *strategy)),
            _ => Err("this run has no CSV-sourced cache".into()),
        }
    }

    fn epochs(&self) -> usize {
        match self.spec.scaling {
            candle::FuncScaling::Weak { epochs_per_worker } => epochs_per_worker,
            candle::FuncScaling::Strong { .. } => unreachable!("Train::new builds weak scaling"),
        }
    }
}

/// Writes the packed train+test CSV of the run's dataset.
pub fn candle_export_csv(t: &Train, csv: &Path) -> Res<()> {
    candle::export_packed_csv(&t.spec.data, t.spec.seed, csv).map_err(text)
}

/// Deletes the run's shard cache, so the next load is cold.
pub fn candle_clear_cache(t: &Train) -> Res<()> {
    let (cache, _, _) = t.csv_cache()?;
    match std::fs::remove_dir_all(&cache.root) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(text(e)),
    }
}

/// `candle::load_benchmark_dataset` on the run's cache. True when the load
/// was cold (ingested the CSV and built the shards).
pub fn candle_load(t: &Train) -> Res<bool> {
    let (cache, _, _) = t.csv_cache()?;
    let (_train, _test, phase) =
        candle::load_benchmark_dataset(&t.spec.data, t.spec.seed, cache).map_err(text)?;
    Ok(!phase.is_warm())
}

/// `candle::load_benchmark_dataset_via_service`. True when this call did
/// the service's cold build.
pub fn candle_service_load(t: &Train) -> Res<bool> {
    let service = t
        .spec
        .data_service
        .as_ref()
        .ok_or("this run has no dataset service")?;
    let (_train, _test, load) =
        candle::load_benchmark_dataset_via_service(&t.spec.data, t.spec.seed, service)
            .map_err(text)?;
    Ok(load.cold)
}

/// What a training run produced, as far as the checks need it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOutcome {
    pub train_loss: f64,
    pub test_loss: f64,
    pub test_accuracy: f64,
    /// Allreduce calls rank 0 made.
    pub allreduce_calls: u64,
    /// The data phase inside the run was served warm (cache or service).
    pub reload_warm: bool,
}

/// `candle::run_parallel`.
pub fn candle_run_parallel(t: &Train) -> Res<RunOutcome> {
    let out = candle::run_parallel(&t.spec).map_err(text)?;
    let phase = |name: &str| out.profile.records().iter().any(|r| r.name == name);
    Ok(RunOutcome {
        train_loss: out.train_loss,
        test_loss: out.test_loss,
        test_accuracy: out.test_accuracy,
        allreduce_calls: out.comm_stats.allreduce_calls,
        reload_warm: (phase("cache_load") && !phase("cache_build")) || phase("service_open"),
    })
}

// ---------------------------------------------------------------------
// dataio + datacache: the cold load, stage by stage
// ---------------------------------------------------------------------

/// What the staged cold load measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct StagedLoad {
    pub read_s: f64,
    pub rows: usize,
    pub csv_bytes: u64,
    pub build_s: f64,
    pub shard_bytes: u64,
    pub decode_s: f64,
}

fn dataio_read(
    tr: &Tracer,
    ctx: Ctx,
    csv: &Path,
    strategy: dataio::ReadStrategy,
) -> Res<(dataio::Frame, dataio::LoadStats, f64)> {
    let (read, secs) = tr.span_timed("dataio.read", ctx, |_| dataio::read_csv(csv, strategy));
    let (frame, stats) = read.map_err(text)?;
    Ok((frame, stats, secs))
}

fn datacache_build(
    tr: &Tracer,
    ctx: Ctx,
    store: &datacache::CacheStore,
    key: u64,
    csv: &Path,
    frame: dataio::Frame,
) -> Res<(datacache::CachedDataset, f64)> {
    let (built, secs) = tr.span_timed("datacache.build", ctx, |_| {
        store.open_or_build(key, &csv.to_string_lossy(), "staged", SHARDS, || Ok(frame))
    });
    let (cached, outcome) = built.map_err(text)?;
    if outcome.is_warm() {
        return Err("staged shard build found a warm cache".into());
    }
    Ok((cached, secs))
}

fn datacache_decode(tr: &Tracer, ctx: Ctx, cached: &datacache::CachedDataset) -> Res<(usize, f64)> {
    let (frame, secs) = tr.span_timed("datacache.decode", ctx, |_| cached.load_all());
    Ok((frame.map_err(text)?.nrows(), secs))
}

/// The three stages of a cold load called one by one, into a cache of their
/// own under `root`: turbo CSV read, shard build from the frame already
/// read, decode of the built shards.
pub fn staged_cold_load(tr: &Tracer, ctx: Ctx, t: &Train, root: &Path) -> Res<StagedLoad> {
    let (_, csv, strategy) = t.csv_cache()?;
    let (frame, stats, read_s) = dataio_read(tr, ctx, csv, strategy)?;
    let store = datacache::CacheStore::new(root).map_err(text)?;
    let key = datacache::source_key_for_file(csv, strategy.label()).map_err(text)?;
    let (cached, build_s) = datacache_build(tr, ctx, &store, key, csv, frame)?;
    let mut shard_bytes = 0;
    for entry in std::fs::read_dir(cached.dir()).map_err(text)? {
        shard_bytes += entry.and_then(|e| e.metadata()).map_err(text)?.len();
    }
    let (rows, decode_s) = datacache_decode(tr, ctx, &cached)?;
    if rows != stats.rows {
        return Err(format!("decoded {rows} rows, ingested {}", stats.rows));
    }
    Ok(StagedLoad {
        read_s,
        rows,
        csv_bytes: stats.bytes,
        build_s,
        shard_bytes,
        decode_s,
    })
}

// ---------------------------------------------------------------------
// datapipe: the shared dataset service
// ---------------------------------------------------------------------

/// One in-process dataset service.
pub struct Service(Arc<datapipe::DatasetService>);

pub fn datapipe_service(cache_root: &Path) -> Res<Service> {
    datapipe::DatasetService::new(datapipe::ServiceConfig::new(cache_root))
        .map(Service)
        .map_err(text)
}

/// What the datapipe read path measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct PipeProbe {
    pub open_s: f64,
    pub stream_s: f64,
    pub batches: u64,
}

/// Warm `open_dataset`, then one pass over `admit(..).sequential()`.
pub fn datapipe_probe(tr: &Tracer, ctx: Ctx, t: &Train) -> Res<PipeProbe> {
    let service = &t
        .spec
        .data_service
        .as_ref()
        .ok_or("this run has no dataset service")?
        .service;
    let (key, desc) = candle::dataset_key(&t.spec.data, t.spec.seed);
    let (opened, open_s) = tr.span_timed("datapipe.open", ctx, |_| {
        service.open_dataset(key, &desc, "probe", SHARDS, || {
            Err(datacache::CacheError::Corrupt(
                "the probe must find the dataset already built".into(),
            ))
        })
    });
    if !opened.map_err(text)?.is_warm() {
        return Err("datapipe probe opened the dataset cold".into());
    }
    let (streamed, stream_s) = tr.span_timed("datapipe.stream", ctx, |_| -> Res<u64> {
        let job = service
            .admit(datapipe::JobSpec {
                dataset: key,
                features: t.spec.data.features,
                batch: 512,
                seed: t.spec.seed,
            })
            .map_err(text)?;
        let mut batches = 0;
        for batch in job.sequential() {
            std::hint::black_box(batch.map_err(text)?);
            batches += 1;
        }
        Ok(batches)
    });
    Ok(PipeProbe {
        open_s,
        stream_s,
        batches: streamed?,
    })
}

// ---------------------------------------------------------------------
// dlframe + collectives: the training stage rebuilt from public pieces
// ---------------------------------------------------------------------

/// A trained (or restored) model.
pub struct ModelBox(dlframe::Sequential);

/// The real gradient sync, with the benchmark's clock around it.
struct TimedSync<'t, S> {
    inner: S,
    clock: StepClock<'t>,
}

impl<S: dlframe::GradientSync> dlframe::GradientSync for TimedSync<'_, S> {
    fn sync_gradients(&mut self, flat: &mut [f32]) {
        self.clock.sync_enter();
        self.inner.sync_gradients(flat);
        self.clock.sync_exit(std::mem::size_of_val(flat) as u64);
    }

    fn begin_step(&mut self, param_count: usize) -> bool {
        self.clock.begin_step();
        self.inner.begin_step(param_count)
    }

    fn region_ready(&mut self, offset: usize, grad: &[f32]) {
        self.inner.region_ready(offset, grad);
    }

    fn finish_step(&mut self, flat: &mut [f32]) {
        self.clock.sync_enter();
        self.inner.finish_step(flat);
        self.clock.sync_exit(std::mem::size_of_val(flat) as u64);
    }
}

/// `fit` under a [`TimedSync`]: one `dlframe.fit` span whose children tile
/// it into forward+optimizer, backward and sync segments.
fn dlframe_fit<S: dlframe::GradientSync>(
    tr: &Tracer,
    ctx: Ctx,
    model: &mut dlframe::Sequential,
    data: &dlframe::Dataset,
    config: &dlframe::FitConfig,
    sync: S,
) -> Res<(dlframe::History, StepTotals, S)> {
    tr.span("dlframe.fit", ctx, |fit_ctx| {
        let mut timed = TimedSync {
            inner: sync,
            clock: StepClock::start(tr),
        };
        let history = model.fit(data, config, &mut timed);
        let totals = timed.clock.finish(fit_ctx);
        Ok((history.map_err(text)?, totals, timed.inner))
    })
}

/// The exact `FitConfig` of `candle::run_parallel`.
fn fit_config(t: &Train) -> dlframe::FitConfig {
    dlframe::FitConfig {
        epochs: t.epochs(),
        batch_size: t.spec.batch,
        shuffle: true,
        compute_accuracy: true,
        ..Default::default()
    }
}

/// What the staged training stage measured.
pub struct StagedTrain {
    pub outcome: RunOutcome,
    /// Rank 0's step segments: the time training was in forward+optimizer,
    /// in backward, and blocked on communication.
    pub steps: StepTotals,
    /// The data phase (warm reload or service-fed load).
    pub data_s: f64,
    pub broadcast_s: f64,
    pub eval_s: f64,
    /// The whole stage: what the timed pass sees as one `run_parallel`.
    pub wall_s: f64,
    /// Rank 0's trained model.
    pub model: ModelBox,
}

struct RankOut {
    train_loss: f64,
    eval: Option<(f64, f64)>,
    steps: StepTotals,
    broadcast_s: f64,
    eval_s: f64,
    allreduce_calls: u64,
    model: dlframe::Sequential,
}

/// `candle::run_parallel`, rebuilt from the public pieces it is made of —
/// same data phase, `build_rank_model`, `broadcast_parameters`, the blocking
/// or overlapped distributed optimizer, `fit`, rank-0 `evaluate` — with a
/// span around every call. Its `train_loss` must equal the timed run's bit
/// for bit; the caller checks that.
pub fn staged_train(tr: &Tracer, ctx: Ctx, t: &Train) -> Res<StagedTrain> {
    let spec = &t.spec;
    let (stage, wall_s) = tr.span_timed("candle.train_stage", ctx, |stage| -> Res<_> {
        let (train, test, reload_warm, data_s) = if let Some(service) = &spec.data_service {
            let (loaded, secs) = tr.span_timed("candle.service_load", stage, |_| {
                candle::load_benchmark_dataset_via_service(&spec.data, spec.seed, service)
            });
            let (train, test, load) = loaded.map_err(text)?;
            (train, test, !load.cold, secs)
        } else {
            let (cache, _, _) = t.csv_cache()?;
            let (loaded, secs) = tr.span_timed("candle.warm_reload", stage, |_| {
                candle::load_benchmark_dataset(&spec.data, spec.seed, cache)
            });
            let (train, test, phase) = loaded.map_err(text)?;
            (train, test, phase.is_warm(), secs)
        };
        let (train, test) = (Arc::new(train), Arc::new(test));
        let config = fit_config(t);

        let per_rank: Vec<Res<RankOut>> = collectives::run_workers(spec.workers, |comm| {
            let rank = comm.rank();
            tr.span("candle.rank", stage.on_rank(rank as u32), |rctx| {
                let mut model = candle::build_rank_model(spec, rank);
                let ((), broadcast_s) = tr.span_timed("collectives.broadcast", rctx, |_| {
                    let mut params = model.flat_params();
                    collectives::broadcast_parameters(comm, &mut params, None);
                    model.set_flat_params(&params);
                });
                // The optimizer owns its endpoint; leave a one-rank world
                // behind, as the product does.
                let endpoint = std::mem::replace(
                    comm,
                    collectives::Communicator::world(1).pop().expect("nonempty"),
                );
                let shard = (spec.data_mode == candle::DataMode::Sharded)
                    .then(|| train.shard(rank, spec.workers));
                let local: &dlframe::Dataset = shard.as_ref().unwrap_or(&train);
                let (history, steps, allreduce_calls) = if let Some(threshold) = spec.comm_overlap {
                    let plan = collectives::FusionPlan::for_model(&model, threshold);
                    let sync = collectives::AsyncBucketedOptimizer::new(endpoint, &plan);
                    let (h, steps, sync) = dlframe_fit(tr, rctx, &mut model, local, &config, sync)?;
                    let (endpoint, _) = sync.shutdown();
                    (h, steps, endpoint.stats().allreduce_calls)
                } else {
                    let sync = collectives::DistributedOptimizer::new(endpoint);
                    let (h, steps, sync) = dlframe_fit(tr, rctx, &mut model, local, &config, sync)?;
                    (h, steps, sync.comm().stats().allreduce_calls)
                };
                let (eval, eval_s) = if rank == 0 {
                    let (e, secs) = tr.span_timed("dlframe.eval", rctx, |_| {
                        model.evaluate(&test, spec.batch.max(32))
                    });
                    (Some(e.map_err(text)?), secs)
                } else {
                    (None, 0.0)
                };
                Ok(RankOut {
                    train_loss: history.last().ok_or("fit recorded no epoch")?.loss,
                    eval,
                    steps,
                    broadcast_s,
                    eval_s,
                    allreduce_calls,
                    model,
                })
            })
        });
        let mut ranks = per_rank.into_iter().collect::<Res<Vec<_>>>()?;
        Ok((ranks.swap_remove(0), data_s, reload_warm))
    });
    let (rank0, data_s, reload_warm) = stage?;
    let (test_loss, test_accuracy) = rank0.eval.expect("rank 0 evaluates");
    Ok(StagedTrain {
        outcome: RunOutcome {
            train_loss: rank0.train_loss,
            test_loss,
            test_accuracy,
            allreduce_calls: rank0.allreduce_calls,
            reload_warm,
        },
        steps: rank0.steps,
        data_s,
        broadcast_s: rank0.broadcast_s,
        eval_s: rank0.eval_s,
        wall_s,
        model: ModelBox(rank0.model),
    })
}

/// Trains rank 0's model alone on the generated dataset (no cache, no
/// communication): how `serve_mixed` gets the model it checkpoints.
pub fn dlframe_train_single(tr: &Tracer, ctx: Ctx, t: &Train) -> Res<(ModelBox, f64, StepTotals)> {
    let (train, _test) = tr.span("candle.generate", ctx, |_| {
        candle::benchmark_dataset(&t.spec.data, t.spec.seed)
    });
    let mut model = candle::build_rank_model(&t.spec, 0);
    let (history, steps, _) =
        dlframe_fit(tr, ctx, &mut model, &train, &fit_config(t), dlframe::NoSync)?;
    let loss = history.last().ok_or("fit recorded no epoch")?.loss;
    Ok((ModelBox(model), loss, steps))
}

// ---------------------------------------------------------------------
// resil: RCP1 checkpoints
// ---------------------------------------------------------------------

/// `CheckpointManager::save` of the model's full training state; returns
/// the checkpoint's size.
pub fn resil_ckpt_save(
    tr: &Tracer,
    ctx: Ctx,
    dir: &Path,
    model: &ModelBox,
    epoch: u64,
) -> Res<(u64, f64)> {
    let (saved, secs) = tr.span_timed("resil.ckpt_save", ctx, |_| -> Res<PathBuf> {
        let opt = model.0.optimizer().ok_or("model is not compiled")?;
        let state = resil::TrainState {
            epoch,
            lr: opt.learning_rate(),
            params: model.0.flat_params(),
            slots: opt.export_slots(),
            rank_rngs: vec![model.0.rng_states()],
        };
        resil::CheckpointManager::new(dir, 2)
            .and_then(|mut m| m.save(&state))
            .map_err(text)
    });
    Ok((std::fs::metadata(saved?).map_err(text)?.len(), secs))
}

/// `CheckpointManager::latest` into a freshly built rank-0 model.
fn restore(dir: &Path, t: &Train) -> Res<dlframe::Sequential> {
    let state = resil::CheckpointManager::new(dir, 2)
        .and_then(|m| m.latest())
        .map_err(text)?
        .ok_or("no intact checkpoint to restore")?;
    let mut model = candle::build_rank_model(&t.spec, 0);
    if state.params.len() != model.param_count() {
        return Err(format!(
            "checkpoint holds {} parameters, the model {}",
            state.params.len(),
            model.param_count()
        ));
    }
    model.set_flat_params(&state.params);
    let opt = model.optimizer_mut().ok_or("model is not compiled")?;
    opt.import_slots(state.slots);
    opt.set_learning_rate(state.lr);
    model.set_rng_states(
        state
            .rank_rngs
            .first()
            .ok_or("checkpoint holds no rng state")?,
    );
    Ok(model)
}

pub fn resil_ckpt_load(tr: &Tracer, ctx: Ctx, dir: &Path, t: &Train) -> Res<(ModelBox, f64)> {
    let (model, secs) = tr.span_timed("resil.ckpt_load", ctx, |_| restore(dir, t));
    Ok((ModelBox(model?), secs))
}

/// Bit-exact hash of the model's parameters.
pub fn resil_params_hash(model: &ModelBox) -> u64 {
    resil::hash_params(&model.0.flat_params())
}

// ---------------------------------------------------------------------
// serve: the engine, as the load generators see it
// ---------------------------------------------------------------------

/// A model shared with serving workers.
#[derive(Clone)]
pub struct Served(Arc<dlframe::Sequential>);

impl ModelBox {
    pub fn into_served(self) -> Served {
        Served(Arc::new(self.0))
    }
}

/// The request rows every stage draws from.
pub type Pool = Arc<Vec<Vec<f32>>>;

/// A running `ServeEngine` plus the pooled rows it is sent.
pub struct Engine {
    engine: serve::ServeEngine,
    handle: serve::ServeHandle,
    pool: Pool,
}

pub fn serve_start(model: &Served, pool: &Pool) -> Engine {
    let engine = serve::ServeEngine::start(
        Arc::clone(&model.0),
        serve::ServeConfig {
            max_batch: sv::MAX_BATCH,
            max_wait: Duration::from_millis(sv::MAX_WAIT_MS),
            queue_capacity: sv::QUEUE_CAPACITY,
            workers: sv::ENGINE_WORKERS,
            slo: None,
            kill_batches: Vec::new(),
        },
    );
    Engine {
        handle: engine.handle(),
        engine,
        pool: Arc::clone(pool),
    }
}

impl Server for Engine {
    type Pending = serve::Ticket;

    fn submit(&self, row: usize) -> Res<serve::Ticket> {
        self.handle.submit(self.pool[row].clone()).map_err(text)
    }

    fn wait(pending: serve::Ticket) -> Res<Reply> {
        let p = pending.wait().map_err(text)?;
        Ok(Reply {
            latency_s: p.latency.as_secs_f64(),
            enqueue_wait_s: p.enqueue_wait.as_secs_f64(),
            batch: p.batch_size,
            output: p.output,
        })
    }
}

/// Stops the engine (joins its threads); returns `(completed, shed)` as the
/// engine counted them.
pub fn serve_shutdown(engine: Engine) -> (u64, u64) {
    let Engine { engine, handle, .. } = engine;
    drop(handle);
    let report = engine.shutdown();
    (report.completed, report.shed)
}

/// One deployment, timed: restore the newest checkpoint, start an engine on
/// it, get the first reply. The engine is stopped outside the timing.
pub fn serve_deploy(dir: &Path, t: &Train, pool: &Pool) -> Res<f64> {
    let start = Instant::now();
    let model = ModelBox(restore(dir, t)?).into_served();
    let engine = serve_start(&model, pool);
    let first = engine.submit(0).and_then(Engine::wait);
    let secs = start.elapsed().as_secs_f64();
    serve_shutdown(engine);
    first.map(|_| secs)
}

/// Pooled rows as one `[rows, features]` input tensor.
fn pooled_rows(pool: &Pool, rows: &[usize]) -> Res<tensor::Tensor> {
    let features = pool[0].len();
    let mut flat = Vec::with_capacity(rows.len() * features);
    for &row in rows {
        flat.extend_from_slice(&pool[row]);
    }
    tensor::Tensor::from_vec([rows.len(), features], flat).map_err(text)
}

/// `Sequential::predict` on pooled rows: the reference every served reply
/// must equal bit for bit.
pub fn serve_predict(model: &Served, pool: &Pool, rows: &[usize]) -> Res<Vec<Vec<f32>>> {
    let y = model.0.predict(&pooled_rows(pool, rows)?).map_err(text)?;
    Ok((0..rows.len()).map(|r| y.row(r).to_vec()).collect())
}

/// Median milliseconds of `Sequential::predict` on the first `n` pooled rows.
pub fn serve_forward_ms(model: &Served, pool: &Pool, n: usize, reps: usize) -> Res<f64> {
    let x = pooled_rows(pool, &(0..n).collect::<Vec<_>>())?;
    median_ms(reps, || {
        std::hint::black_box(model.0.predict(&x).map_err(text)?);
        Ok(())
    })
}

// ---------------------------------------------------------------------
// tensor: kernels at the workload's dominant layer shape
// ---------------------------------------------------------------------

fn filled(shape: impl Into<tensor::Shape>) -> tensor::Tensor {
    // Knuth's multiplicative hash: cheap, deterministic, not constant.
    tensor::Tensor::from_fn(shape, |i| {
        (i.wrapping_mul(2_654_435_761) % 2001) as f32 / 1000.0 - 1.0
    })
}

fn median_ms(reps: usize, mut f: impl FnMut() -> Res<()>) -> Res<f64> {
    f()?; // warm the scratch buffers
    let mut ms = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        f()?;
        ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    Ok(crate::stats::median(&ms))
}

/// NT3's geometry after its first conv (kernel 5, stride 2) and pool (2):
/// the steps its second conv (16 → 16 channels, kernel 3, stride 1, the
/// layer with the most multiply-adds) runs over.
fn nt3_conv2_steps(features: usize) -> Res<usize> {
    let steps1 = tensor::conv1d_output_len(features, 5, 2).ok_or("too few features for NT3")?;
    Ok(steps1 / 2)
}

/// Median forward and backward milliseconds of the dominant conv layer at
/// the workload's batch size; `None` for the MLPs, which have none.
pub fn tensor_conv_probe(shape: &Shape, reps: usize) -> Res<Option<(f64, f64)>> {
    if shape.model != Model::Nt3 {
        return Ok(None);
    }
    let steps = nt3_conv2_steps(shape.features)?;
    let input = filled([shape.batch, steps, 16]);
    let weights = filled([3, 16, 16]);
    let out_steps = tensor::conv1d_output_len(steps, 3, 1).ok_or("too few steps for conv2")?;
    let grad_out = filled([shape.batch, out_steps, 16]);
    let fwd = median_ms(reps, || {
        std::hint::black_box(tensor::conv1d_forward(&input, &weights, 1).map_err(text)?);
        Ok(())
    })?;
    let bwd = median_ms(reps, || {
        std::hint::black_box(
            tensor::conv1d_backward(&input, &weights, &grad_out, 1).map_err(text)?,
        );
        Ok(())
    })?;
    Ok(Some((fwd, bwd)))
}

/// GFLOP/s of the largest dense layer's forward GEMM at the workload's
/// batch size (operation count computed: 2·m·k·n).
pub fn tensor_gemm_probe(shape: &Shape, reps: usize) -> Res<f64> {
    let (k, n) = match shape.model {
        Model::P1b2 => (shape.features, (shape.features / 2).clamp(16, 128)),
        Model::P1b3 => (shape.features, (shape.features / 2).clamp(8, 64)),
        Model::Nt3 => {
            let steps2 = tensor::conv1d_output_len(nt3_conv2_steps(shape.features)?, 3, 1)
                .ok_or("too few steps for conv2")?;
            (steps2 * 16, 32)
        }
    };
    let (a, b) = (filled([shape.batch, k]), filled([k, n]));
    let ms = median_ms(reps, || {
        std::hint::black_box(tensor::matmul(&a, &b).map_err(text)?);
        Ok(())
    })?;
    Ok(2.0 * (shape.batch * k * n) as f64 / (ms / 1e3) / 1e9)
}

// ---------------------------------------------------------------------
// cluster: the power table the modelled energy uses
// ---------------------------------------------------------------------

/// Watts of one Summit worker device per phase, from `cluster`'s table.
#[derive(Debug, Clone, Copy)]
pub struct Watts {
    pub idle: f64,
    pub data_load: f64,
    pub broadcast: f64,
    pub compute: f64,
    pub allreduce: f64,
}

pub fn cluster_summit_watts() -> Watts {
    let p = cluster::Machine::Summit.spec().power;
    Watts {
        idle: p.idle_w,
        data_load: p.data_load_w,
        broadcast: p.broadcast_w,
        compute: p.compute_w,
        allreduce: p.allreduce_w,
    }
}
