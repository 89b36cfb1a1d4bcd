//! `DistributedOptimizer` — the gradient-averaging hook.
//!
//! Horovod wraps the framework optimizer: after local backprop computes a
//! gradient, an allreduce averages it across ranks and the *averaged*
//! gradient is applied. In `dlframe` the splice point is the
//! [`dlframe::GradientSync`] trait; this type implements it over a
//! [`Communicator`], optionally recording each allreduce to a [`Timeline`].
//! It is the bucketed engine of the `overlap` module with nothing to
//! overlap: one bucket — or a fusion plan's groups — posted and folded
//! inside `sync_gradients`.

use crate::comm::Communicator;
use crate::fusion::FusionPlan;
use crate::overlap::Engine;
use crate::CommError;
use obs::Timeline;
use std::sync::Arc;
use std::time::Instant;

/// Averages gradients across all ranks after every batch step.
pub struct DistributedOptimizer {
    engine: Engine,
    fusion: Option<FusionPlan>,
}

impl DistributedOptimizer {
    /// Wraps a communicator endpoint.
    pub fn new(comm: Communicator) -> Self {
        Self {
            engine: Engine::new(comm),
            fusion: None,
        }
    }

    /// Enables timeline recording; `origin` anchors timestamps so all ranks
    /// share a time base.
    pub fn with_timeline(mut self, timeline: Timeline, origin: Instant) -> Self {
        self.engine.record_spans(
            timeline,
            origin,
            Some("negotiate_allreduce"),
            vec![Arc::from("nccl_allreduce")],
        );
        self
    }

    /// Applies a fusion plan: the flat gradient is allreduced group by
    /// group instead of in one call. Horovod's default behaviour for a
    /// single ready buffer is one call, so `None` (the default) is the
    /// fused path; a plan is supplied by the unfused ablation.
    pub fn with_fusion_plan(mut self, plan: FusionPlan) -> Self {
        self.fusion = Some(plan);
        self
    }

    /// The wrapped communicator (e.g. to read [`crate::CommStats`]).
    pub fn comm(&self) -> &Communicator {
        &self.engine.comm
    }
}

impl DistributedOptimizer {
    /// Posts every group, then folds them all: one wait per step however
    /// many groups the plan has.
    fn sync(&mut self, flat: &mut [f32]) -> Result<(), CommError> {
        match &self.fusion {
            None => self.engine.submit(0, 0, flat.len(), flat)?,
            // Group boundaries are contiguous element ranges over the
            // flat layout (groups preserve tensor order).
            Some(plan) => {
                let mut offset = 0;
                for (idx, &elems) in plan.group_elements().iter().enumerate() {
                    let end = (offset + elems).min(flat.len());
                    self.engine.submit(idx, offset, end, flat)?;
                    offset = end;
                }
            }
        }
        self.engine.drain(flat)
    }
}

impl dlframe::GradientSync for DistributedOptimizer {
    fn sync_gradients(&mut self, flat: &mut [f32]) {
        self.sync(flat)
            .expect("allreduce failed: a worker died mid-collective");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::run_workers_owned;
    use dlframe::GradientSync;

    #[test]
    fn sync_averages_across_ranks() {
        let results = run_workers_owned(4, |comm| {
            let rank = comm.rank();
            let mut opt = DistributedOptimizer::new(comm);
            let mut grad = vec![rank as f32; 6];
            opt.sync_gradients(&mut grad);
            grad
        });
        for r in results {
            for x in r {
                assert!((x - 1.5).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn fusion_plan_produces_multiple_allreduce_calls() {
        let results = run_workers_owned(2, |comm| {
            let plan = FusionPlan::unfused(&[4, 4, 4]);
            let mut opt = DistributedOptimizer::new(comm).with_fusion_plan(plan);
            let mut grad = vec![
                comm_rank_f32(&opt),
                1.0,
                2.0,
                3.0,
                4.0,
                5.0,
                6.0,
                7.0,
                8.0,
                9.0,
                10.0,
                11.0,
            ];
            opt.sync_gradients(&mut grad);
            (opt.comm().stats().allreduce_calls, grad)
        });
        for (calls, _) in &results {
            assert_eq!(*calls, 3);
        }
        // Values still averaged correctly across both ranks.
        let (_, g0) = &results[0];
        let (_, g1) = &results[1];
        assert_eq!(g0, g1);
    }

    fn comm_rank_f32(opt: &DistributedOptimizer) -> f32 {
        opt.comm().rank() as f32
    }

    #[test]
    fn timeline_records_allreduce_events() {
        let tl = Timeline::new();
        let origin = Instant::now();
        let tl2 = tl.clone();
        run_workers_owned(2, move |comm| {
            let mut opt = DistributedOptimizer::new(comm).with_timeline(tl2.clone(), origin);
            let mut grad = vec![1.0f32; 128];
            opt.sync_gradients(&mut grad);
        });
        let events = tl.events();
        let allreduces = events.iter().filter(|e| e.name == "nccl_allreduce").count();
        let negotiates = events
            .iter()
            .filter(|e| e.name == "negotiate_allreduce")
            .count();
        assert_eq!(allreduces, 2); // one per rank
        assert_eq!(negotiates, 2);
    }
}
