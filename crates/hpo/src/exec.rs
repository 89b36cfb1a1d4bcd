//! Trial executors: who actually spends a rung's epochs.
//!
//! The scheduler only understands "train trial `t` from epoch `a` to
//! epoch `b`, then tell me its objective". Two backends implement that
//! contract:
//!
//! * [`LocalExecutor`] — small but *real* `dlframe` trainings. Every
//!   concurrent trial draws its batches through one shared `datapipe`
//!   [`DatasetService`] (one decoded-shard pool for the whole fleet), and
//!   every rung boundary is a `resil` RCP1 checkpoint: a rung run is
//!   restore → train → checkpoint, so pausing a trial between rungs is
//!   not a special case — it is the only case, and resume is bit-exact.
//! * [`ModelledExecutor`] — full-size trials priced on the calibrated
//!   `cluster` Summit/Theta simulator: per-rung wall seconds and joules
//!   from the machine model, with a deterministic surrogate loss curve
//!   standing in for training. A configuration that would not fit device
//!   memory (NT3 at batch ≥ 50 on Summit) scores `+inf` and is never
//!   promoted, mirroring how a real search absorbs OOM failures.

use crate::space::TrialParams;
use crate::{HpoError, TrialId};
use cluster::run::simulate;
use cluster::{LoadMethod, Machine, RunConfig, RunError, ScalingMode, WorkloadProfile};
use datapipe::{AdmitError, DatasetService, JobHandle, JobSpec};
use dlframe::{Activation, Dataset, Dense, Dropout, Loss, NoSync, Optimizer, Sequential};
use resil::{TrainState, TrialStore};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tensor::Tensor;
use xrng::SeedNode;

/// What one rung of one trial reported back to the scheduler.
#[derive(Debug, Clone)]
pub struct RungOutcome {
    /// The trial.
    pub trial: TrialId,
    /// Rung index this outcome closes.
    pub rung: usize,
    /// Cumulative epochs trained when the rung ended.
    pub epochs_end: usize,
    /// The promotion objective: validation loss, lower is better.
    pub objective: f64,
    /// Validation accuracy at the rung boundary (surrogate-derived for
    /// modelled trials).
    pub accuracy: f64,
    /// Bit-exact FNV hash of the model parameters at the boundary — the
    /// currency of every pause/resume assertion.
    pub params_hash: u64,
    /// Wall seconds spent training this segment.
    pub train_wall_s: f64,
    /// Wall seconds spent in checkpoint save/restore.
    pub ckpt_wall_s: f64,
    /// Bytes of the checkpoint written at the boundary.
    pub ckpt_bytes: u64,
    /// Shard acquires served from the shared pool (this segment).
    pub shard_hits: u64,
    /// Shard acquires that decoded from disk (this segment).
    pub shard_misses: u64,
    /// Times the trial blocked on batch assembly.
    pub stream_waits: u64,
    /// Total blocked seconds on batch assembly.
    pub stream_wait_s: f64,
    /// Modelled wall seconds on the simulated machine (0 for local).
    pub modelled_time_s: f64,
    /// Modelled joules on the simulated machine (0 for local).
    pub modelled_joules: f64,
}

/// A backend that can spend rung epochs on a trial.
pub trait TrialExecutor: Send + Sync {
    /// Trains trial `id` from `from_epochs` to `to_epochs` (resuming from
    /// the rung checkpoint when `from_epochs > 0`), evaluates, and
    /// checkpoints at the boundary.
    fn run_rung(
        &self,
        id: TrialId,
        params: &TrialParams,
        from_epochs: usize,
        to_epochs: usize,
        rung: usize,
    ) -> Result<RungOutcome, HpoError>;

    /// Trains trial `id` from scratch for `epochs` epochs in one
    /// uninterrupted run, without touching the checkpoint store — the
    /// full-budget baseline searches are judged against, and the oracle
    /// rung-chain results must match bit-exactly.
    fn full_run(
        &self,
        id: TrialId,
        params: &TrialParams,
        epochs: usize,
    ) -> Result<RungOutcome, HpoError>;
}

/// How long an executor keeps retrying a `Saturated` admission before
/// giving up (1 ms per attempt). Saturation is transient — a slot frees
/// whenever any concurrent trial finishes its rung — but a configuration
/// error (more workers than `max_jobs` forever) must fail typed, not
/// hang.
const ADMIT_RETRY_BUDGET: usize = 120_000;

/// Real small-scale trials through the shared data plane.
pub struct LocalExecutor {
    service: Arc<DatasetService>,
    dataset_key: u64,
    features: usize,
    classes: usize,
    eval: Dataset,
    eval_batch: usize,
    store: TrialStore,
    seeds: SeedNode,
}

impl LocalExecutor {
    /// Builds an executor over an already-opened dataset on `service`.
    ///
    /// `eval` is the held-out set every trial is scored on (targets
    /// one-hot over `classes`); `store` is where rung checkpoints live;
    /// `seeds` is the search's seed tree (trial streams derive from it).
    ///
    /// # Panics
    /// Panics if the dataset was not opened on the service or has no
    /// feature columns.
    pub fn new(
        service: Arc<DatasetService>,
        dataset_key: u64,
        classes: usize,
        eval: Dataset,
        eval_batch: usize,
        store: TrialStore,
        seeds: SeedNode,
    ) -> Self {
        let ncols = service
            .dataset_cols(dataset_key)
            .expect("dataset must be opened on the service before trials run");
        assert!(ncols >= 2, "need at least one feature and one label column");
        assert!(classes >= 2, "classification needs at least two classes");
        Self {
            service,
            dataset_key,
            features: ncols - 1,
            classes,
            eval,
            eval_batch,
            store,
            seeds,
        }
    }

    /// The trial-architecture factory: a seeded two-layer MLP
    /// (`features → hidden → classes`) with the trial's dropout between,
    /// compiled for softmax cross-entropy SGD at the trial's lr. Every
    /// stochastic stream (weight init, dropout) derives from the trial
    /// id, so rebuilding the model for a resumed rung reproduces the
    /// architecture exactly and the checkpoint supplies the state.
    fn build_model(&self, id: TrialId, params: &TrialParams) -> Sequential {
        let mut init = self.seeds.derive("trial-init", id).rng();
        let mut model = Sequential::new(self.seeds.derive("trial-shuffle", id).seed());
        model.add(Box::new(Dense::new(
            self.features,
            params.hidden,
            Activation::Relu,
            &mut init,
        )));
        model.add(Box::new(Dropout::new(
            params.dropout as f64,
            self.seeds.derive("trial-dropout", id).rng(),
        )));
        model.add(Box::new(Dense::new(
            params.hidden,
            self.classes,
            Activation::Linear,
            &mut init,
        )));
        model.compile(Loss::SoftmaxCrossEntropy, Optimizer::sgd(params.lr));
        model
    }

    fn admit_with_retry(&self, spec: JobSpec) -> Result<JobHandle, HpoError> {
        let mut last = AdmitError::Saturated {
            active: 0,
            max_jobs: 0,
        };
        for _ in 0..ADMIT_RETRY_BUDGET {
            match self.service.admit(spec) {
                Ok(job) => return Ok(job),
                Err(AdmitError::Saturated { active, max_jobs }) => {
                    last = AdmitError::Saturated { active, max_jobs };
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => return Err(HpoError::Admit(e)),
            }
        }
        Err(HpoError::Admit(last))
    }

    /// Expands a `[rows, 1]` class-index column (how the cached dataset
    /// stores labels) into the `[rows, classes]` one-hot matrix the loss
    /// wants.
    fn one_hot(&self, y: &Tensor) -> Result<Tensor, HpoError> {
        let rows = y.shape().dims()[0];
        let mut data = vec![0.0f32; rows * self.classes];
        for (r, &label) in y.data().iter().enumerate() {
            let class = label as usize;
            if class >= self.classes {
                return Err(HpoError::Train(format!(
                    "label {label} out of {} classes",
                    self.classes
                )));
            }
            data[r * self.classes + class] = 1.0;
        }
        Tensor::from_vec([rows, self.classes], data)
            .map_err(|e| HpoError::Train(format!("one-hot shape: {e}")))
    }

    /// Streams epochs `[from, to)` through the shared service into
    /// `train_batch`, accumulating data-plane counters into `out`.
    fn train_segment(
        &self,
        model: &mut Sequential,
        id: TrialId,
        params: &TrialParams,
        from: usize,
        to: usize,
        out: &mut RungOutcome,
    ) -> Result<(), HpoError> {
        let spec = JobSpec {
            dataset: self.dataset_key,
            features: self.features,
            batch: params.batch,
            seed: self.seeds.derive("trial-stream", id).seed(),
        };
        let job = self.admit_with_retry(spec)?;
        let start = Instant::now();
        for epoch in from..to {
            for item in job.epoch(epoch as u64) {
                let batch = item.map_err(HpoError::Data)?;
                let y = self.one_hot(&batch.y)?;
                model
                    .train_batch(&batch.x, &y, &mut NoSync)
                    .map_err(|e| HpoError::Train(e.to_string()))?;
            }
        }
        out.train_wall_s += start.elapsed().as_secs_f64();
        let stats = job.stats();
        out.shard_hits += stats.shard_hits;
        out.shard_misses += stats.shard_misses;
        out.stream_waits += stats.waits;
        out.stream_wait_s += stats.wait_time().as_secs_f64();
        Ok(())
    }

    fn blank_outcome(&self, id: TrialId, rung: usize, epochs_end: usize) -> RungOutcome {
        RungOutcome {
            trial: id,
            rung,
            epochs_end,
            objective: f64::NAN,
            accuracy: 0.0,
            params_hash: 0,
            train_wall_s: 0.0,
            ckpt_wall_s: 0.0,
            ckpt_bytes: 0,
            shard_hits: 0,
            shard_misses: 0,
            stream_waits: 0,
            stream_wait_s: 0.0,
            modelled_time_s: 0.0,
            modelled_joules: 0.0,
        }
    }

    fn evaluate_into(&self, model: &Sequential, out: &mut RungOutcome) -> Result<(), HpoError> {
        let (loss, acc) = model
            .evaluate(&self.eval, self.eval_batch)
            .map_err(|e| HpoError::Train(e.to_string()))?;
        out.objective = loss;
        out.accuracy = acc;
        Ok(())
    }
}

impl TrialExecutor for LocalExecutor {
    fn run_rung(
        &self,
        id: TrialId,
        params: &TrialParams,
        from_epochs: usize,
        to_epochs: usize,
        rung: usize,
    ) -> Result<RungOutcome, HpoError> {
        assert!(
            from_epochs < to_epochs,
            "rung must train at least one epoch"
        );
        let mut out = self.blank_outcome(id, rung, to_epochs);
        let mut model = self.build_model(id, params);
        if from_epochs > 0 {
            // The trial was paused at the previous rung boundary; its
            // entire continuation state comes off disk.
            let ckpt_start = Instant::now();
            let state = self
                .store
                .latest(id)
                .map_err(HpoError::Ckpt)?
                .ok_or(HpoError::Resume {
                    trial: id,
                    expected: from_epochs as u64,
                    found: None,
                })?;
            if state.epoch != from_epochs as u64 {
                return Err(HpoError::Resume {
                    trial: id,
                    expected: from_epochs as u64,
                    found: Some(state.epoch),
                });
            }
            state.restore_into(&mut model, 0).map_err(HpoError::Ckpt)?;
            out.ckpt_wall_s += ckpt_start.elapsed().as_secs_f64();
        }
        self.train_segment(&mut model, id, params, from_epochs, to_epochs, &mut out)?;
        self.evaluate_into(&model, &mut out)?;
        // Pause at the boundary: persist everything a bit-exact
        // continuation needs, GC'd to the store's retention.
        let ckpt_start = Instant::now();
        let state = TrainState::capture(to_epochs as u64, &model);
        out.params_hash = state.params_hash();
        let path = self.store.save(id, &state).map_err(HpoError::Ckpt)?;
        out.ckpt_wall_s += ckpt_start.elapsed().as_secs_f64();
        out.ckpt_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        Ok(out)
    }

    fn full_run(
        &self,
        id: TrialId,
        params: &TrialParams,
        epochs: usize,
    ) -> Result<RungOutcome, HpoError> {
        assert!(epochs > 0, "full run must train at least one epoch");
        let mut out = self.blank_outcome(id, 0, epochs);
        let mut model = self.build_model(id, params);
        self.train_segment(&mut model, id, params, 0, epochs, &mut out)?;
        self.evaluate_into(&model, &mut out)?;
        out.params_hash = resil::hash_params(&model.flat_params());
        Ok(out)
    }
}

/// Where the surrogate loss curve bottoms out fastest: the modelled
/// sweet-spot learning rate (log10).
const LR_STAR_LOG10: f64 = -1.5;

/// Full-size trials priced on the cluster simulator.
pub struct ModelledExecutor {
    profile: WorkloadProfile,
    machine: Machine,
    workers: usize,
    load_method: LoadMethod,
    store: TrialStore,
    seeds: SeedNode,
}

impl ModelledExecutor {
    /// Builds a modelled backend: each rung of each trial is priced as a
    /// `workers`-wide run of `profile` on `machine`, and rung checkpoints
    /// flow through `store` so the pause/resume protocol (and its GC) is
    /// exercised end to end.
    pub fn new(
        profile: WorkloadProfile,
        machine: Machine,
        workers: usize,
        load_method: LoadMethod,
        store: TrialStore,
        seeds: SeedNode,
    ) -> Self {
        assert!(workers > 0, "modelled trials need at least one worker");
        Self {
            profile,
            machine,
            workers,
            load_method,
            store,
            seeds,
        }
    }

    /// The deterministic surrogate: exponential decay from the untrained
    /// cross-entropy plateau toward a per-configuration floor, with decay
    /// speed and floor both degraded by distance from the lr sweet spot,
    /// by heavy dropout, and (slightly) by off-default batch sizes. A
    /// small seeded per-(trial, epoch) jitter keeps rungs from producing
    /// exact ties without breaking purity.
    fn surrogate_loss(&self, id: TrialId, params: &TrialParams, epochs: usize) -> f64 {
        let lr_miss = ((params.lr as f64).log10() - LR_STAR_LOG10).abs();
        let batch_miss = (params.batch as f64 / self.profile.default_batch as f64)
            .ln()
            .abs();
        let floor = 0.10
            + 0.45 * lr_miss
            + 0.8 * (params.dropout as f64 - 0.05).max(0.0)
            + 0.05 * batch_miss;
        let tau = 2.0 + 3.0 * lr_miss;
        let start = 2.3; // ~ln(10): untrained softmax over ten classes
        let jitter = {
            use xrng::RandomSource;
            let mut rng = self
                .seeds
                .derive("surrogate", id)
                .derive("epoch", epochs as u64)
                .rng();
            (rng.next_f64() - 0.5) * 0.01
        };
        floor + (start - floor) * (-(epochs as f64) / tau).exp() + jitter
    }

    /// Prices a segment of `epochs` epochs, or `None` if the
    /// configuration does not fit the machine (OOM and friends).
    fn price(
        &self,
        params: &TrialParams,
        epochs: usize,
    ) -> Result<Option<cluster::RunReport>, HpoError> {
        let config = RunConfig {
            machine: self.machine,
            workers: self.workers,
            batch_size: params.batch,
            scaling: ScalingMode::Weak {
                epochs_per_worker: epochs,
            },
            load_method: self.load_method,
        };
        match simulate(&self.profile, &config) {
            Ok(report) => Ok(Some(report)),
            Err(RunError::OutOfMemory { .. }) => Ok(None),
            Err(e) => Err(HpoError::Model(e.to_string())),
        }
    }

    fn outcome(
        &self,
        id: TrialId,
        params: &TrialParams,
        rung: usize,
        epochs_end: usize,
        segment_epochs: usize,
    ) -> Result<RungOutcome, HpoError> {
        let mut out = RungOutcome {
            trial: id,
            rung,
            epochs_end,
            objective: f64::INFINITY,
            accuracy: 0.0,
            params_hash: 0,
            train_wall_s: 0.0,
            ckpt_wall_s: 0.0,
            ckpt_bytes: 0,
            shard_hits: 0,
            shard_misses: 0,
            stream_waits: 0,
            stream_wait_s: 0.0,
            modelled_time_s: 0.0,
            modelled_joules: 0.0,
        };
        match self.price(params, segment_epochs)? {
            Some(report) => {
                let loss = self.surrogate_loss(id, params, epochs_end);
                out.objective = loss;
                out.accuracy = (1.0 - loss / 2.3).clamp(0.0, 1.0);
                out.params_hash = resil::hash_params(&[loss as f32]);
                out.modelled_time_s = report.train_s;
                // Per-device energy × devices = the trial's joule bill.
                out.modelled_joules = report.power.energy_j * self.workers as f64;
            }
            None => {
                // OOM: the trial "ran" and failed instantly; infinity
                // keeps it ranked strictly below every finished trial.
            }
        }
        Ok(out)
    }
}

impl TrialExecutor for ModelledExecutor {
    fn run_rung(
        &self,
        id: TrialId,
        params: &TrialParams,
        from_epochs: usize,
        to_epochs: usize,
        rung: usize,
    ) -> Result<RungOutcome, HpoError> {
        assert!(
            from_epochs < to_epochs,
            "rung must train at least one epoch"
        );
        if from_epochs > 0 {
            // Same resume contract as the real backend: the previous
            // rung's checkpoint must exist and carry the right epoch.
            let state = self
                .store
                .latest(id)
                .map_err(HpoError::Ckpt)?
                .ok_or(HpoError::Resume {
                    trial: id,
                    expected: from_epochs as u64,
                    found: None,
                })?;
            if state.epoch != from_epochs as u64 {
                return Err(HpoError::Resume {
                    trial: id,
                    expected: from_epochs as u64,
                    found: Some(state.epoch),
                });
            }
        }
        let mut out = self.outcome(id, params, rung, to_epochs, to_epochs - from_epochs)?;
        let ckpt_start = Instant::now();
        let state = TrainState {
            epoch: to_epochs as u64,
            lr: params.lr,
            params: vec![out.objective as f32],
            slots: vec![],
            rank_rngs: vec![],
        };
        let path = self.store.save(id, &state).map_err(HpoError::Ckpt)?;
        out.ckpt_wall_s = ckpt_start.elapsed().as_secs_f64();
        out.ckpt_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        Ok(out)
    }

    fn full_run(
        &self,
        id: TrialId,
        params: &TrialParams,
        epochs: usize,
    ) -> Result<RungOutcome, HpoError> {
        assert!(epochs > 0, "full run must train at least one epoch");
        self.outcome(id, params, 0, epochs, epochs)
    }
}
