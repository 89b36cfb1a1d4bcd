//! The recovery driver: checkpointed, fault-injected data-parallel
//! training over the `candle` pipeline.
//!
//! [`run_resilient`] trains the same way [`candle::run_parallel`] does —
//! one replica per rank built by [`candle::build_rank_model`], rank 0's
//! initialization broadcast to all, gradients ring-allreduce-averaged on
//! every batch step — but drives the epochs one at a time from a
//! supervisor loop so it can interleave three things at epoch boundaries:
//!
//! 1. **checkpointing**: every `checkpoint_every` epochs the full
//!    [`TrainState`] (weights, optimizer slots, learning rate, per-rank
//!    RNG streams) is written through [`CheckpointManager`];
//! 2. **fault injection**: when the [`FaultPlan`](crate::FaultPlan)
//!    schedules a crash at the boundary, every replica is torn down —
//!    the job is gang-scheduled, one dead rank stalls every allreduce —
//!    exactly as a real Horovod job dies with its slowest member;
//! 3. **recovery**: the replicas are rebuilt from scratch (same code path
//!    as a fresh start) and the newest intact checkpoint is restored into
//!    them, rewinding the epoch cursor to the checkpoint's epoch.
//!
//! Because the checkpoint carries the exact position of every random
//! stream, a restored replica's next shuffle order and dropout mask are
//! the ones the dead replica would have drawn: the resumed run re-treads
//! the lost epochs bit-exactly and finishes with the same weights as an
//! uninterrupted run. The driver asserts the cheap half of that invariant
//! itself (all ranks end bit-identical); the cross-run half is pinned by
//! the `resilience` integration tests.

use crate::ckpt::{CheckpointManager, TrainState};
use crate::plan::FaultPlan;
use crate::{hash_params, ResilError};
use candle::{
    benchmark_dataset, build_rank_model, rank_fit_config, BenchDataKind, BenchId, DataMode,
    FuncScaling, ParallelRunSpec,
};
use collectives::{run_workers_owned, DistributedOptimizer};
use dlframe::Sequential;
use obs::{LogHistogram, Timeline};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

/// Specification of one resilient training run.
#[derive(Debug, Clone)]
pub struct ResilSpec {
    /// Benchmark to run.
    pub bench: BenchId,
    /// Simulated worker count.
    pub workers: usize,
    /// Epochs each worker trains (weak-scaling style: the budget is per
    /// worker, not divided).
    pub epochs: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Base learning rate (linearly scaled by `workers`, as the pipeline
    /// does).
    pub base_lr: f32,
    /// Dataset geometry.
    pub data: BenchDataKind,
    /// Master seed (dataset, per-rank init, shuffle, dropout).
    pub seed: u64,
    /// Checkpoint interval in epochs.
    pub checkpoint_every: usize,
    /// Checkpoints retained on rotation.
    pub keep: usize,
    /// Checkpoint directory.
    pub dir: PathBuf,
    /// The fault schedule ([`FaultPlan::none`] for a healthy run). Only
    /// the crash events are consumed here; shard-corruption events are
    /// applied by [`crate::inject`] against a dataset cache.
    pub plan: FaultPlan,
    /// Record crash / restore / checkpoint spans to a timeline.
    pub record_timeline: bool,
}

impl ResilSpec {
    /// The equivalent pipeline spec: used to build rank replicas with
    /// exactly [`candle::run_parallel`]'s seed derivation and LR scaling.
    pub fn pipeline_spec(&self) -> ParallelRunSpec {
        ParallelRunSpec {
            bench: self.bench,
            workers: self.workers,
            scaling: FuncScaling::Weak {
                epochs_per_worker: self.epochs,
            },
            batch: self.batch,
            base_lr: self.base_lr,
            data: self.data,
            seed: self.seed,
            record_timeline: false,
            data_mode: DataMode::FullReplicated,
            cache: None,
            data_service: None,
            comm_overlap: None,
        }
    }
}

/// One crash-and-restore cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryEvent {
    /// Epoch boundary the crash struck at (epochs completed before it).
    pub fault_epoch: usize,
    /// The rank that died.
    pub rank: usize,
    /// Epoch of the checkpoint restored from.
    pub restored_epoch: u64,
    /// Epochs of finished work the crash destroyed (re-trained after the
    /// restore).
    pub redone_epochs: usize,
    /// Wall time of the restore (checkpoint read + replica rebuild),
    /// seconds.
    pub restore_s: f64,
}

/// Results of one resilient run.
#[derive(Debug)]
pub struct ResilOutcome {
    /// Bit-exact hash of the final weights (identical on every rank; the
    /// driver asserts it).
    pub final_hash: u64,
    /// Rank 0's final-epoch training loss.
    pub train_loss: f64,
    /// Test loss evaluated by rank 0 after training.
    pub test_loss: f64,
    /// Test accuracy evaluated by rank 0.
    pub test_accuracy: f64,
    /// Per-worker epochs actually executed, including re-done ones.
    pub epochs_run: usize,
    /// Epochs re-trained because a crash destroyed them.
    pub redone_epochs: usize,
    /// Every crash-and-restore cycle, in order.
    pub recoveries: Vec<RecoveryEvent>,
    /// Checkpoints written.
    pub checkpoint_writes: u64,
    /// Checkpoint bytes written.
    pub checkpoint_bytes: u64,
    /// Total wall time spent writing checkpoints, seconds.
    pub checkpoint_write_s: f64,
    /// Total wall time spent restoring, seconds.
    pub restore_s: f64,
    /// Crash / restore / checkpoint spans, if requested.
    pub timeline: Option<Timeline>,
    /// Histogram of restore durations (seconds).
    pub restore_hist: LogHistogram,
}

/// Builds all rank replicas exactly as the pipeline would and applies
/// the `BroadcastGlobalVariablesHook(0)` step: rank 0's initialization
/// wins. (The in-process copy is bit-identical to the ring broadcast the
/// pipeline runs — both deliver rank 0's exact bytes.)
fn build_replicas(pspec: &ParallelRunSpec) -> Vec<Sequential> {
    let mut models: Vec<Sequential> = (0..pspec.workers)
        .map(|rank| build_rank_model(pspec, rank))
        .collect();
    let rank0_params = models[0].flat_params();
    for m in models.iter_mut().skip(1) {
        m.set_flat_params(&rank0_params);
    }
    models
}

/// Captures the complete training state at an epoch boundary. Weights and
/// optimizer slots are identical across ranks (averaged gradients), so
/// rank 0's copy represents all; RNG streams are captured per rank.
fn capture(epoch: u64, models: &[Sequential]) -> TrainState {
    TrainState {
        rank_rngs: models.iter().map(|m| m.rng_states()).collect(),
        ..TrainState::capture(epoch, &models[0])
    }
}

/// Restores a captured state into freshly built replicas.
fn restore(models: &mut [Sequential], state: &TrainState) -> Result<(), ResilError> {
    if models.len() != state.rank_rngs.len() {
        return Err(ResilError::Corrupt(format!(
            "checkpoint was written by {} ranks, this run has {}",
            state.rank_rngs.len(),
            models.len()
        )));
    }
    models
        .iter_mut()
        .enumerate()
        .try_for_each(|(rank, m)| state.restore_into(m, rank))
}

/// Trains one epoch on every rank through real ring-allreduce workers.
/// Returns rank 0's epoch loss.
fn train_one_epoch(
    models: Vec<Sequential>,
    train: &dlframe::Dataset,
    batch: usize,
) -> Result<(Vec<Sequential>, f64), ResilError> {
    // Each rank thread takes its own replica out of its slot and hands it
    // back with its loss.
    let replicas: Vec<Mutex<Option<Sequential>>> =
        models.into_iter().map(|m| Mutex::new(Some(m))).collect();
    let trained = run_workers_owned(replicas.len(), |comm| {
        let mut model = replicas[comm.rank()]
            .lock()
            .unwrap()
            .take()
            .expect("replica present");
        let mut dist = DistributedOptimizer::new(comm);
        let config = rank_fit_config(1, batch);
        let loss = model
            .fit(train, &config, &mut dist)
            .map(|h| h.epochs()[0].loss)
            .map_err(|e| e.to_string());
        (model, loss)
    });
    let mut models = Vec::with_capacity(trained.len());
    let mut rank0_loss = 0.0;
    for (rank, (model, loss)) in trained.into_iter().enumerate() {
        let loss = loss.map_err(ResilError::Train)?;
        if rank == 0 {
            rank0_loss = loss;
        }
        models.push(model);
    }
    Ok((models, rank0_loss))
}

/// Runs checkpointed training under the spec's fault plan.
///
/// # Panics
/// Panics if the spec is degenerate (zero workers/epochs/interval) or if
/// the replicas ever diverge (which would indicate a collectives bug).
pub fn run_resilient(spec: &ResilSpec) -> Result<ResilOutcome, ResilError> {
    assert!(spec.workers > 0, "resilient run needs workers");
    assert!(spec.epochs > 0, "resilient run needs epochs");
    assert!(
        spec.checkpoint_every > 0,
        "checkpoint interval must be positive"
    );
    let pspec = spec.pipeline_spec();
    let (train, test) = benchmark_dataset(&spec.data, spec.seed);

    let mut models = build_replicas(&pspec);
    let mut mgr = CheckpointManager::new(&spec.dir, spec.keep)?;
    let timeline = spec.record_timeline.then(Timeline::new);
    let origin = Instant::now();
    let mut restore_hist = LogHistogram::for_latency_seconds();
    let span = |name: &str, rank: usize, start: Instant, tl: &Option<Timeline>| {
        if let Some(tl) = tl {
            let start_us = start.duration_since(origin).as_micros() as u64;
            let dur_us = start.elapsed().as_micros() as u64;
            tl.record(name, rank, start_us, dur_us.max(1));
        }
    };

    // Epoch-0 checkpoint: even a crash before the first interval has a
    // restore point, and it costs one small write.
    let mut checkpoint_write_s = 0.0;
    let t0 = Instant::now();
    mgr.save(&capture(0, &models))?;
    checkpoint_write_s += t0.elapsed().as_secs_f64();
    span("checkpoint_write", 0, t0, &timeline);

    let crashes = spec.plan.crashes();
    let mut next_crash = 0usize;
    let mut epoch = 0usize; // next epoch to train
    let mut epochs_run = 0usize;
    let mut redone_epochs = 0usize;
    let mut restore_s = 0.0;
    let mut recoveries = Vec::new();
    let mut train_loss = 0.0;

    while epoch < spec.epochs {
        if next_crash < crashes.len() && crashes[next_crash].0 == epoch {
            let (fault_epoch, rank) = crashes[next_crash];
            next_crash += 1;
            let t = Instant::now();
            span("worker_crash", rank, t, &timeline);
            // Gang teardown: every replica dies with rank `rank`.
            drop(std::mem::take(&mut models));
            // Rebuild from scratch — the same code path as a fresh start —
            // then restore the newest intact checkpoint.
            let state = mgr.latest()?.expect("epoch-0 checkpoint always exists");
            models = build_replicas(&pspec);
            restore(&mut models, &state)?;
            let elapsed = t.elapsed().as_secs_f64();
            restore_s += elapsed;
            restore_hist.record(elapsed);
            span("restore_checkpoint", 0, t, &timeline);
            let restored_epoch = state.epoch;
            redone_epochs += epoch - restored_epoch as usize;
            recoveries.push(RecoveryEvent {
                fault_epoch,
                rank,
                restored_epoch,
                redone_epochs: epoch - restored_epoch as usize,
                restore_s: elapsed,
            });
            epoch = restored_epoch as usize;
            continue;
        }

        let (trained, loss) = train_one_epoch(models, &train, spec.batch)?;
        models = trained;
        train_loss = loss;
        epochs_run += 1;
        epoch += 1;

        if epoch.is_multiple_of(spec.checkpoint_every) {
            let t = Instant::now();
            mgr.save(&capture(epoch as u64, &models))?;
            checkpoint_write_s += t.elapsed().as_secs_f64();
            span("checkpoint_write", 0, t, &timeline);
        }
    }

    // All replicas must have walked the same trajectory — averaged
    // gradients mean bit-identical weights on every rank.
    let hashes: Vec<u64> = models
        .iter()
        .map(|m| hash_params(&m.flat_params()))
        .collect();
    assert!(
        hashes.windows(2).all(|w| w[0] == w[1]),
        "replicas diverged: {hashes:x?}"
    );

    let (test_loss, test_accuracy) = models[0]
        .evaluate(&test, spec.batch.max(32))
        .map_err(|e| ResilError::Train(e.to_string()))?;

    Ok(ResilOutcome {
        final_hash: hashes[0],
        train_loss,
        test_loss,
        test_accuracy,
        epochs_run,
        redone_epochs,
        recoveries,
        checkpoint_writes: mgr.writes(),
        checkpoint_bytes: mgr.bytes_written(),
        checkpoint_write_s,
        restore_s,
        timeline,
        restore_hist,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{FaultEvent, FaultKind};
    use cluster::calib::Bench;

    /// A run checkpointing into a scratch directory that lives as long as
    /// the returned guard.
    fn spec(name: &str, plan: FaultPlan) -> (parx::Scratch, ResilSpec) {
        let dir = parx::scratch(&format!("resil_run_{name}")).expect("scratch dir");
        let spec = ResilSpec {
            bench: Bench::Nt3,
            workers: 2,
            epochs: 6,
            batch: 20,
            base_lr: 0.02,
            data: BenchDataKind::tiny(Bench::Nt3),
            seed: 42,
            checkpoint_every: 2,
            keep: 3,
            dir: dir.to_path_buf(),
            plan,
            record_timeline: false,
        };
        (dir, spec)
    }

    #[test]
    fn healthy_run_matches_pipeline_bit_exactly() {
        let (_s_dir, s) = spec("healthy", FaultPlan::none());
        let out = run_resilient(&s).unwrap();
        assert_eq!(out.epochs_run, 6);
        assert_eq!(out.redone_epochs, 0);
        assert!(out.recoveries.is_empty());
        // Epoch 0 + every 2 epochs = 4 writes.
        assert_eq!(out.checkpoint_writes, 4);

        // The supervisor's epoch-at-a-time training must be bit-identical
        // to the pipeline's single fit call: same final training loss and
        // same evaluation.
        let reference = candle::run_parallel(&s.pipeline_spec()).unwrap();
        assert_eq!(out.train_loss, reference.train_loss);
        assert_eq!(out.test_loss, reference.test_loss);
        assert_eq!(out.test_accuracy, reference.test_accuracy);
    }

    #[test]
    fn crash_and_resume_is_bit_exact() {
        let (_healthy_dir, healthy) = spec("bitexact_healthy", FaultPlan::none());
        let reference = run_resilient(&healthy).unwrap();

        let plan = FaultPlan::manual(vec![FaultEvent {
            epoch: 3,
            kind: FaultKind::WorkerCrash { rank: 1 },
        }]);
        let (_faulted_dir, faulted) = spec("bitexact_faulted", plan);
        let out = run_resilient(&faulted).unwrap();

        assert_eq!(out.recoveries.len(), 1);
        let rec = &out.recoveries[0];
        assert_eq!(rec.fault_epoch, 3);
        assert_eq!(rec.restored_epoch, 2); // checkpoints at 0, 2
        assert_eq!(rec.redone_epochs, 1);
        assert_eq!(out.redone_epochs, 1);
        assert_eq!(out.epochs_run, 7); // 6 + 1 re-done

        // The headline invariant: interrupted-and-resumed equals
        // uninterrupted, bit for bit.
        assert_eq!(out.final_hash, reference.final_hash);
        assert_eq!(out.train_loss, reference.train_loss);
        assert_eq!(out.test_loss, reference.test_loss);
    }

    #[test]
    fn crash_at_epoch_zero_restores_initial_state() {
        let plan = FaultPlan::manual(vec![FaultEvent {
            epoch: 0,
            kind: FaultKind::WorkerCrash { rank: 0 },
        }]);
        let (_s_dir, s) = spec("crash_zero", plan);
        let (_healthy_dir, healthy) = spec("crash_zero_ref", FaultPlan::none());
        let out = run_resilient(&s).unwrap();
        let reference = run_resilient(&healthy).unwrap();
        assert_eq!(out.recoveries[0].restored_epoch, 0);
        assert_eq!(out.recoveries[0].redone_epochs, 0);
        assert_eq!(out.final_hash, reference.final_hash);
    }

    #[test]
    fn timeline_records_crash_restore_and_checkpoints() {
        let plan = FaultPlan::manual(vec![FaultEvent {
            epoch: 2,
            kind: FaultKind::WorkerCrash { rank: 1 },
        }]);
        let (_s_dir, mut s) = spec("timeline", plan);
        s.record_timeline = true;
        let out = run_resilient(&s).unwrap();
        let tl = out.timeline.expect("requested");
        let count = |name: &str| tl.events().iter().filter(|e| e.name == name).count();
        assert_eq!(count("worker_crash"), 1);
        assert_eq!(count("restore_checkpoint"), 1);
        assert_eq!(count("checkpoint_write"), out.checkpoint_writes as usize);
        assert_eq!(out.restore_hist.count(), 1);
    }
}
