//! Integration tests for the async bucketed allreduce engine: bit-exact
//! equivalence with the blocking optimizer, timeline span nesting, typed
//! failure on peer loss, and epoch-boundary shrink-and-continue.

use cluster::calib::Bench;
use collectives::{
    broadcast_parameters, run_workers_owned, AsyncBucketedOptimizer, Communicator,
    DistributedOptimizer, FusionPlan,
};
use dlframe::FitConfig;
use obs::Timeline;
use resil::{FaultKind, FaultPlan, FaultSpec};
use std::time::{Duration, Instant};

/// Fusion threshold small enough that the tiny NT3 model splits into many
/// buckets, so the engine genuinely pipelines.
const THRESHOLD_BYTES: usize = 2 * 1024;

fn fit_config(epochs: usize, batch: usize) -> FitConfig {
    FitConfig {
        epochs,
        batch_size: batch,
        shuffle: true,
        compute_accuracy: false,
    }
}

/// Builds rank `rank`'s NT3 model exactly as the pipeline does and syncs
/// initial weights from rank 0.
fn synced_model(comm: &mut Communicator, seed: u64) -> dlframe::Sequential {
    let init_seed = xrng::derive_seed(seed, 100 + comm.rank() as u64);
    let mut model = candle::build_model(Bench::Nt3, 48, 0.02, init_seed).0;
    let mut params = model.flat_params();
    broadcast_parameters(comm, &mut params, None);
    model.set_flat_params(&params);
    model
}

fn train_param_bits(workers: usize, seed: u64, overlapped: bool) -> Vec<Vec<u32>> {
    run_workers_owned(workers, move |mut comm| {
        let (train, _) = candle::benchmark_dataset(&candle::BenchDataKind::tiny(Bench::Nt3), seed);
        let mut model = synced_model(&mut comm, seed);
        let plan = FusionPlan::for_model(&model, THRESHOLD_BYTES);
        let config = fit_config(2, 20);
        if overlapped {
            let mut opt = AsyncBucketedOptimizer::new(comm, &plan);
            model
                .fit(&train, &config, &mut opt)
                .expect("overlapped fit");
            let (_, stats) = opt.shutdown();
            assert!(
                stats.buckets > stats.steps,
                "plan must split into multiple buckets per step"
            );
        } else {
            // Bit-identity precondition: the blocking comparator reduces
            // over the SAME bucket boundaries, traversed bottom-up.
            let mut opt = DistributedOptimizer::new(comm).with_fusion_plan(plan.reversed());
            model.fit(&train, &config, &mut opt).expect("blocking fit");
        }
        model.flat_params().iter().map(|p| p.to_bits()).collect()
    })
}

/// The tentpole guarantee: hiding communication under backward compute
/// changes *when* gradients are averaged, never *what* the optimizer
/// sees. Final weights are bit-identical to the blocking optimizer over
/// the same bucket boundaries, at every seed and worker count.
#[test]
fn overlapped_training_is_bit_identical_to_blocking() {
    for seed in [11u64, 42] {
        for workers in [1usize, 2, 4] {
            let overlapped = train_param_bits(workers, seed, true);
            let blocking = train_param_bits(workers, seed, false);
            assert_eq!(
                overlapped, blocking,
                "weights diverged at seed {seed}, {workers} workers"
            );
        }
    }
}

/// Timeline nesting invariants on a real single-batch training step: a
/// rank's bucket-allreduce spans never overlap each other (one comm lane,
/// FIFO), and every bucket span starts at or after the end of the
/// backward-layer span that produced (completed) the bucket.
#[test]
fn timeline_bucket_spans_nest_after_their_producing_layer() {
    let tl = Timeline::new();
    let origin = Instant::now();
    let tl2 = tl.clone();
    let producers_per_rank = run_workers_owned(2, move |mut comm| {
        let seed = 7u64;
        let (train, _) = candle::benchmark_dataset(&candle::BenchDataKind::tiny(Bench::Nt3), seed);
        let mut model = synced_model(&mut comm, seed);
        let plan = FusionPlan::for_model(&model, THRESHOLD_BYTES);
        let mut opt = AsyncBucketedOptimizer::new(comm, &plan).with_timeline(tl2.clone(), origin);
        // One batch = one step: every backward_layer_{seq} and
        // bucket_allreduce_{idx} name appears exactly once per rank, so
        // the producer association is unambiguous.
        model
            .fit(&train, &fit_config(1, 120), &mut opt)
            .expect("fit");
        let producers = opt.bucket_producers().to_vec();
        let buckets = opt.bucket_count();
        opt.shutdown();
        (producers, buckets)
    });
    for (rank, (producers, bucket_count)) in producers_per_rank.iter().enumerate() {
        assert!(*bucket_count > 1, "tiny NT3 must split into >1 bucket");
        let layers = tl.spans_with_prefix("backward_layer_", rank);
        let buckets = tl.spans_with_prefix("bucket_allreduce_", rank);
        assert!(!layers.is_empty());
        assert_eq!(buckets.len(), *bucket_count);
        // Comm lane: FIFO, spans must not overlap.
        for w in buckets.windows(2) {
            assert!(
                w[0].start_us + w[0].dur_us <= w[1].start_us,
                "rank {rank}: comm-lane spans overlap: {w:?}"
            );
        }
        // Producer nesting: a bucket's allreduce cannot start before the
        // backward region that completed it was recorded (2 us slack for
        // microsecond truncation of span endpoints).
        for (b, &producer_seq) in producers.iter().enumerate() {
            let bucket = buckets
                .iter()
                .find(|e| e.name == format!("bucket_allreduce_{b}"))
                .unwrap_or_else(|| panic!("rank {rank}: missing span for bucket {b}"));
            let layer = layers
                .iter()
                .find(|e| e.name == format!("backward_layer_{producer_seq}"))
                .unwrap_or_else(|| panic!("rank {rank}: missing producer span {producer_seq}"));
            assert!(
                bucket.start_us + 2 >= layer.start_us + layer.dur_us,
                "rank {rank}: bucket {b} started at {} before its producing \
                 layer span {producer_seq} ended at {}",
                bucket.start_us,
                layer.start_us + layer.dur_us
            );
        }
    }
}

/// A peer dying mid-epoch surfaces as a typed panic on the survivors
/// within the peer-timeout window — in-flight buckets drain with the
/// error, nothing hangs. The victim and crash step come from a seeded
/// `resil` fault plan.
#[test]
fn peer_death_mid_epoch_drains_with_typed_error() {
    let fault = FaultPlan::generate(&FaultSpec {
        seed: 9,
        epochs: 4,
        workers: 3,
        crashes: 1,
        shards: 0,
        corruptions: 0,
    });
    let event = fault.events()[0];
    let crash_step = event.epoch;
    let FaultKind::WorkerCrash { rank: victim } = event.kind else {
        panic!("plan must schedule a crash");
    };

    let start = Instant::now();
    let comms = Communicator::world_with_timeout(3, Duration::from_secs(2));
    let handles: Vec<_> = comms
        .into_iter()
        .map(|comm| {
            std::thread::spawn(move || -> Result<(), String> {
                let rank = comm.rank();
                // Three buckets per step: the first failure must drain the
                // other two with the same typed error, not hang on them.
                let plan = FusionPlan::plan(&[8, 8, 8], 32);
                let mut opt = AsyncBucketedOptimizer::new(comm, &plan);
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    for step in 0..4usize {
                        if rank == victim && step == crash_step {
                            return; // dies mid-epoch; endpoint drops
                        }
                        let flat: Vec<f32> = (0..24).map(|i| (rank + step + i) as f32).collect();
                        let mut out = flat.clone();
                        use dlframe::GradientSync;
                        opt.begin_step(24);
                        opt.region_ready(0, &flat);
                        opt.finish_step(&mut out);
                    }
                }));
                match run {
                    Ok(()) => Ok(()),
                    Err(p) => Err(p
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_else(|| "opaque panic".into())),
                }
            })
        })
        .collect();
    let results: Vec<Result<(), String>> = handles
        .into_iter()
        .map(|h| h.join().expect("no raw panic"))
        .collect();
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "peer loss must fail fast, not hang"
    );
    assert!(results[victim].is_ok(), "the victim exits cleanly");
    for (rank, r) in results.iter().enumerate() {
        if rank == victim {
            continue;
        }
        let msg = r.as_ref().expect_err("survivors must see the failure");
        assert!(
            msg.contains("allreduce failed") && msg.contains("disconnected"),
            "rank {rank}: expected a typed peer-loss message, got: {msg}"
        );
    }
}

/// Epoch-boundary elasticity: `shutdown()` hands back a quiesced
/// communicator, survivors vote, `shrink`, rebuild the overlap engine on
/// the smaller world, and keep training in lockstep.
#[test]
fn survivors_shrink_and_continue_after_shutdown() {
    let seed = 13u64;
    let victim = 1usize;
    let results: Vec<Option<Vec<u32>>> = run_workers_owned(3, move |mut comm| {
        let (train, _) = candle::benchmark_dataset(&candle::BenchDataKind::tiny(Bench::Nt3), seed);
        let mut model = synced_model(&mut comm, seed);
        let plan = FusionPlan::for_model(&model, THRESHOLD_BYTES);
        let rank = comm.rank();

        // Epoch 1 on the full world of 3.
        let mut opt = AsyncBucketedOptimizer::new(comm, &plan);
        model
            .fit(&train, &fit_config(1, 20), &mut opt)
            .expect("epoch 1");
        let (mut comm, stats) = opt.shutdown();
        assert!(stats.steps > 0 && stats.buckets > stats.steps);

        // Liveness vote at the epoch boundary, as the elastic runtime
        // does; the victim's last collective act is announcing its death.
        let mine = [if rank == victim { 0.0f32 } else { 1.0 }];
        let flags = comm.allgather(&mine).expect("vote");
        let alive: Vec<bool> = flags.iter().map(|&f| f > 0.5).collect();
        let Some(smaller) = comm.shrink(&alive) else {
            return None; // the victim is gone
        };
        assert_eq!(smaller.size(), 2);

        // Epoch 2 on the shrunken world, same bucket geometry.
        let mut opt = AsyncBucketedOptimizer::new(smaller, &plan);
        model
            .fit(&train, &fit_config(1, 20), &mut opt)
            .expect("epoch 2");
        opt.shutdown();
        Some(model.flat_params().iter().map(|p| p.to_bits()).collect())
    });

    assert!(results[victim].is_none());
    let survivors: Vec<&Vec<u32>> = results.iter().flatten().collect();
    assert_eq!(survivors.len(), 2);
    assert_eq!(
        survivors[0], survivors[1],
        "survivors must stay in parameter lockstep after the shrink"
    );
    assert!(survivors[0]
        .iter()
        .all(|&bits| f32::from_bits(bits).is_finite()));
}
