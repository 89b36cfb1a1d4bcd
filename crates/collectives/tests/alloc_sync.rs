//! Proves the gradient-sync path allocation-free in steady state: after
//! one warm-up step — which grows the wire's slots to the payloads this
//! rank posts and builds the span names — fifty more steps of either
//! optimizer leave every rank thread's allocation counter where it was.
//!
//! [`parx::CountingAlloc`] is the global allocator and counts per thread,
//! so what the other ranks and the harness do meanwhile does not matter.
//! Both allreduce algorithms are covered (payloads on either side of the
//! size where `allreduce_sum` switches from one exchange to the ring), at
//! worlds of two, three and four ranks, with and without a [`Timeline`].

use collectives::{run_workers_owned, AsyncBucketedOptimizer, DistributedOptimizer, FusionPlan};
use dlframe::GradientSync;
use obs::Timeline;
use parx::{thread_allocs, CountingAlloc};
use std::time::Instant;

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

const STEPS: usize = 50;

/// `narrow_steps`' gradient: one exchange at every world size here.
const SMALL: usize = 12_417;
/// 1.5 MiB, `cold_wide`'s gradient: the ring at every world size here.
const LARGE: usize = 393_216;

/// A timeline whose event list already has room for everything one
/// configuration records: growing that list is the recorder's amortized
/// cost, not the sync path's.
fn roomy_timeline() -> Timeline {
    let tl = Timeline::new();
    for i in 0..5000 {
        tl.record("warm", 0, i, 1);
    }
    tl
}

/// Runs `step` once, then [`STEPS`] more times, and returns how many
/// allocations this thread made during the latter.
fn steady_state_allocs(mut step: impl FnMut()) -> u64 {
    step();
    let before = thread_allocs();
    assert!(
        before > 0,
        "set-up allocated: the counter must have seen it"
    );
    for _ in 0..STEPS {
        step();
    }
    thread_allocs() - before
}

#[test]
fn blocking_sync_steady_state_allocates_nothing() {
    for world in [2usize, 3, 4] {
        for len in [SMALL, LARGE] {
            for traced in [false, true] {
                let timeline = traced.then(roomy_timeline);
                let origin = Instant::now();
                let allocs = run_workers_owned(world, |comm| {
                    let mut opt = DistributedOptimizer::new(comm);
                    if let Some(tl) = &timeline {
                        opt = opt.with_timeline(tl.clone(), origin);
                    }
                    let mut grad = vec![0.25f32; len];
                    let allocs = steady_state_allocs(|| opt.sync_gradients(&mut grad));
                    assert_eq!(opt.comm().stats().allreduce_calls, 1 + STEPS as u64);
                    allocs
                });
                assert_eq!(
                    allocs,
                    vec![0; world],
                    "world {world}, {len} elements, timeline {traced}"
                );
            }
        }
    }
}

#[test]
fn streamed_sync_steady_state_allocates_nothing() {
    // Twelve "layers", one bucket each (more than the wire keeps in flight,
    // so posting also folds), streamed top-down as two regions cut in the
    // middle of a bucket. In the second layout one layer is 1.5 MiB, which
    // `FusionPlan::plan` keeps whole: a ring-sized bucket between
    // exchange-sized ones.
    let mut with_ring = vec![5_000usize; 12];
    with_ring[7] = LARGE;
    for world in [2usize, 3, 4] {
        for layers in [&vec![5_000usize; 12], &with_ring] {
            for traced in [false, true] {
                let timeline = traced.then(roomy_timeline);
                let origin = Instant::now();
                let total: usize = layers.iter().sum();
                let cut = total / 2;
                let allocs = run_workers_owned(world, |comm| {
                    let plan = FusionPlan::plan(layers, 16 * 1024);
                    let mut opt = AsyncBucketedOptimizer::new(comm, &plan);
                    assert_eq!(opt.bucket_count(), layers.len());
                    if let Some(tl) = &timeline {
                        opt = opt.with_timeline(tl.clone(), origin);
                    }
                    let grad = vec![0.25f32; total];
                    let mut out = vec![0.0f32; total];
                    let allocs = steady_state_allocs(|| {
                        assert!(opt.begin_step(total));
                        opt.region_ready(cut, &grad[cut..]);
                        opt.region_ready(0, &grad[..cut]);
                        opt.finish_step(&mut out);
                    });
                    assert_eq!(out[0], 0.25);
                    let (_, stats) = opt.shutdown();
                    assert_eq!(stats.steps, 1 + STEPS as u64);
                    allocs
                });
                assert_eq!(
                    allocs,
                    vec![0; world],
                    "world {world}, layers {layers:?}, timeline {traced}"
                );
            }
        }
    }
}
