//! Elastic recovery: survivors continue without a restore.
//!
//! Checkpoint/restore ([`crate::run_resilient`]) treats every crash the
//! way a classic gang-scheduled MPI job must: tear everything down and
//! rewind. Elastic training is the alternative the Horovod ecosystem
//! grew after the paper (`horovod.run.elastic`): when a worker dies, the
//! survivors agree on a new, smaller world and keep going — no lost
//! epochs, but the effective batch (and thus the gradient average) shrinks
//! from `N` to `N-1` contributions mid-run.
//!
//! [`run_elastic`] demonstrates that path on real `collectives` workers:
//! a step-indexed crash kills one rank, the survivors detect it through a
//! liveness allgather, [`collectives::Communicator::shrink`] renumbers
//! them, and `allreduce_mean` — which divides by the *current* world size
//! — re-scales the gradient average automatically. The outcome's
//! correctness claim is that all survivors hold bit-identical weights
//! after the shrink, i.e. the renumbered ring is still a correct
//! allreduce.

use crate::hash_params;
use crate::ResilError;
use candle::{benchmark_dataset, build_rank_model, BenchDataKind, BenchId, ParallelRunSpec};
use candle::{DataMode, FuncScaling};
use collectives::{run_workers_owned, Communicator};
use dlframe::GradientSync;
use std::sync::Arc;
use tensor::Tensor;

/// Specification of one elastic-shrink run.
#[derive(Debug, Clone)]
pub struct ElasticSpec {
    /// Benchmark to run.
    pub bench: BenchId,
    /// Initial world size.
    pub workers: usize,
    /// Total batch steps to train (across the crash).
    pub total_steps: usize,
    /// Step at which the victim dies (before the step is trained).
    pub crash_step: usize,
    /// The dying rank.
    pub victim: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Base learning rate.
    pub base_lr: f32,
    /// Dataset geometry.
    pub data: BenchDataKind,
    /// Master seed.
    pub seed: u64,
}

/// Per-survivor result of an elastic run.
#[derive(Debug, Clone, PartialEq)]
pub struct SurvivorReport {
    /// Rank in the *original* world.
    pub old_rank: usize,
    /// Rank after the shrink.
    pub new_rank: usize,
    /// World size after the shrink.
    pub world: usize,
    /// Bit-exact hash of the survivor's final weights.
    pub params_hash: u64,
    /// Loss of the survivor's last trained step.
    pub last_loss: f64,
}

/// Results of an elastic run.
#[derive(Debug)]
pub struct ElasticOutcome {
    /// One report per survivor, in original-rank order.
    pub survivors: Vec<SurvivorReport>,
    /// Steps trained before the crash (full world).
    pub steps_before: usize,
    /// Steps trained after the crash (shrunken world).
    pub steps_after: usize,
}

impl ElasticOutcome {
    /// True iff every survivor finished with bit-identical weights — the
    /// renumbered ring is still a correct allreduce.
    pub fn survivors_agree(&self) -> bool {
        self.survivors
            .windows(2)
            .all(|w| w[0].params_hash == w[1].params_hash)
    }
}

/// Adapts a `Communicator` to `dlframe`'s gradient hook; dividing by the
/// communicator's *current* size is exactly the elastic re-scaling.
struct CommSync<'a>(&'a mut Communicator);

impl GradientSync for CommSync<'_> {
    fn sync_gradients(&mut self, flat: &mut [f32]) {
        self.0
            .allreduce_mean(flat)
            .expect("allreduce on live communicator");
    }
}

/// Runs data-parallel training that loses `spec.victim` at
/// `spec.crash_step` and continues on the shrunken world.
///
/// # Panics
/// Panics if the spec is degenerate (victim out of range, fewer than two
/// workers, crash step beyond the horizon).
pub fn run_elastic(spec: &ElasticSpec) -> Result<ElasticOutcome, ResilError> {
    assert!(
        spec.workers >= 2,
        "elastic shrink needs at least two workers"
    );
    assert!(spec.victim < spec.workers, "victim rank out of range");
    assert!(
        spec.crash_step <= spec.total_steps,
        "crash step beyond the training horizon"
    );
    let pspec = ParallelRunSpec {
        bench: spec.bench,
        workers: spec.workers,
        scaling: FuncScaling::Weak {
            epochs_per_worker: 1,
        },
        batch: spec.batch,
        base_lr: spec.base_lr,
        data: spec.data,
        seed: spec.seed,
        record_timeline: false,
        data_mode: DataMode::FullReplicated,
        cache: None,
        data_service: None,
        comm_overlap: None,
    };
    let (train, _) = benchmark_dataset(&spec.data, spec.seed);
    let train = Arc::new(train);
    // A fixed, shuffle-free batch schedule: every rank must draw the same
    // batches in the same order or the post-shrink agreement check would
    // measure data skew, not ring correctness.
    let schedule: Arc<Vec<Vec<usize>>> = Arc::new(train.batch_indices(spec.batch, None));
    assert!(!schedule.is_empty(), "dataset yields no batches");

    let spec2 = spec.clone();
    let reports: Vec<Result<Option<SurvivorReport>, String>> =
        run_workers_owned(spec.workers, move |mut comm| {
            let old_rank = comm.rank();
            let mut model = build_rank_model(&pspec, old_rank);
            let mut params = model.flat_params();
            comm.broadcast(0, &mut params).map_err(|e| e.to_string())?;
            model.set_flat_params(&params);

            let mut last_loss = 0.0;
            let mut bx = Tensor::zeros([1, 1]);
            let mut by = Tensor::zeros([1, 1]);
            for step in 0..spec2.total_steps {
                if step == spec2.crash_step {
                    // Liveness vote: the victim's last collective act is
                    // announcing its own death; everyone derives the same
                    // alive mask from the gather.
                    let mine = [if old_rank == spec2.victim { 0.0 } else { 1.0 }];
                    let flags = comm.allgather(&mine).map_err(|e| e.to_string())?;
                    let alive: Vec<bool> = flags.iter().map(|&f| f > 0.5).collect();
                    match comm.shrink(&alive) {
                        Some(smaller) => comm = smaller,
                        None => return Ok(None), // the victim is gone
                    }
                }
                let idx = &schedule[step % schedule.len()];
                train.batch_into(idx, &mut bx, &mut by);
                let mut sync = CommSync(&mut comm);
                let (loss, _) = model
                    .train_batch(&bx, &by, &mut sync)
                    .map_err(|e| e.to_string())?;
                last_loss = loss;
            }
            Ok(Some(SurvivorReport {
                old_rank,
                new_rank: comm.rank(),
                world: comm.size(),
                params_hash: hash_params(&model.flat_params()),
                last_loss,
            }))
        });

    let mut survivors = Vec::new();
    for r in reports {
        if let Some(report) = r.map_err(ResilError::Train)? {
            survivors.push(report);
        }
    }
    Ok(ElasticOutcome {
        survivors,
        steps_before: spec.crash_step,
        steps_after: spec.total_steps - spec.crash_step,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::calib::Bench;

    fn spec() -> ElasticSpec {
        ElasticSpec {
            bench: Bench::Nt3,
            workers: 3,
            total_steps: 8,
            crash_step: 4,
            victim: 1,
            batch: 20,
            base_lr: 0.02,
            data: BenchDataKind::tiny(Bench::Nt3),
            seed: 11,
        }
    }

    #[test]
    fn survivors_continue_and_agree() {
        let out = run_elastic(&spec()).unwrap();
        assert_eq!(out.survivors.len(), 2);
        assert!(out.survivors_agree(), "survivor weights diverged");
        for s in &out.survivors {
            assert_eq!(s.world, 2);
            assert!(s.last_loss.is_finite());
        }
        // Ranks renumbered densely: old 0 -> 0, old 2 -> 1.
        assert_eq!(out.survivors[0].old_rank, 0);
        assert_eq!(out.survivors[0].new_rank, 0);
        assert_eq!(out.survivors[1].old_rank, 2);
        assert_eq!(out.survivors[1].new_rank, 1);
    }

    #[test]
    fn elastic_run_is_deterministic() {
        let a = run_elastic(&spec()).unwrap();
        let b = run_elastic(&spec()).unwrap();
        assert_eq!(a.survivors, b.survivors);
    }

    #[test]
    fn crash_at_step_zero_trains_entirely_on_survivors() {
        let mut s = spec();
        s.crash_step = 0;
        let out = run_elastic(&s).unwrap();
        assert_eq!(out.steps_before, 0);
        assert_eq!(out.survivors.len(), 2);
        assert!(out.survivors_agree());
    }

    #[test]
    #[should_panic(expected = "victim rank out of range")]
    fn victim_must_exist() {
        let mut s = spec();
        s.victim = 9;
        run_elastic(&s).unwrap();
    }
}
