//! Cross-crate resilience guarantees: deterministic fault injection,
//! bit-exact checkpoint resume, elastic shrink, serving worker restarts,
//! and cache-corruption recovery.
//!
//! The headline claim (ISSUE 3): a training run interrupted by an
//! injected worker crash and resumed from the latest checkpoint finishes
//! with **bit-exactly** the same weights as an uninterrupted run — across
//! seeds and across fault points — because the checkpoint carries the
//! model, the optimizer slots, the learning rate, and the exact position
//! of every random stream.

use cluster::calib::Bench;
use resil::{
    run_elastic, run_resilient, ElasticSpec, FaultEvent, FaultKind, FaultPlan, FaultSpec, ResilSpec,
};

/// A run checkpointing into a scratch directory that lives as long as the
/// returned guard.
fn spec(name: &str, seed: u64, plan: FaultPlan) -> (parx::Scratch, ResilSpec) {
    let dir = parx::scratch(&format!("resilience_it_{name}")).expect("temp fs");
    let spec = ResilSpec {
        bench: Bench::Nt3,
        workers: 2,
        epochs: 5,
        batch: 20,
        base_lr: 0.02,
        data: candle::BenchDataKind::tiny(Bench::Nt3),
        seed,
        checkpoint_every: 2,
        keep: 3,
        dir: dir.to_path_buf(),
        plan,
        record_timeline: false,
    };
    (dir, spec)
}

fn crash_at(epoch: usize, rank: usize) -> FaultPlan {
    FaultPlan::manual(vec![FaultEvent {
        epoch,
        kind: FaultKind::WorkerCrash { rank },
    }])
}

/// The acceptance matrix: bit-exact resume across two seeds and two
/// distinct fault points each.
#[test]
fn resume_is_bit_exact_across_seeds_and_fault_points() {
    for seed in [42u64, 1337] {
        let (_healthy_dir, healthy) = spec(&format!("ref_{seed}"), seed, FaultPlan::none());
        let reference = run_resilient(&healthy).expect("healthy run");
        // Fault point 1 hits right after a checkpoint (nothing re-done);
        // fault point 2 hits between checkpoints (one epoch re-done).
        for (fault_epoch, redone) in [(2usize, 0usize), (3, 1)] {
            let name = format!("crash_{seed}_{fault_epoch}");
            let (_faulted_dir, faulted) = spec(&name, seed, crash_at(fault_epoch, 1));
            let out = run_resilient(&faulted).expect("faulted run");
            assert_eq!(out.recoveries.len(), 1, "seed {seed} fault {fault_epoch}");
            assert_eq!(out.redone_epochs, redone);
            assert_eq!(
                out.final_hash, reference.final_hash,
                "seed {seed}, crash at {fault_epoch}: weights diverged"
            );
            assert_eq!(out.train_loss, reference.train_loss);
            assert_eq!(out.test_loss, reference.test_loss);
            assert_eq!(out.test_accuracy, reference.test_accuracy);
        }
    }
}

/// Same fault-plan seed → same schedule → same recovery outcome, down to
/// the weight bits. Different seed → different schedule.
#[test]
fn fault_plans_are_deterministic_and_reproduce_recovery() {
    let fspec = FaultSpec {
        seed: 9,
        epochs: 5,
        workers: 2,
        crashes: 1,
        shards: 0,
        corruptions: 0,
    };
    let plan_a = FaultPlan::generate(&fspec);
    let plan_b = FaultPlan::generate(&fspec);
    assert_eq!(plan_a.fingerprint(), plan_b.fingerprint());
    assert_ne!(
        plan_a.fingerprint(),
        FaultPlan::generate(&FaultSpec { seed: 10, ..fspec }).fingerprint()
    );

    let (_spec_a_dir, spec_a) = spec("det_a", 7, plan_a);
    let (_spec_b_dir, spec_b) = spec("det_b", 7, plan_b);
    let a = run_resilient(&spec_a).expect("run a");
    let b = run_resilient(&spec_b).expect("run b");
    assert_eq!(a.final_hash, b.final_hash);
    assert_eq!(a.redone_epochs, b.redone_epochs);
    // Recovery schedules match exactly (restore wall time is the one
    // nondeterministic field).
    let shape = |o: &resil::ResilOutcome| {
        o.recoveries
            .iter()
            .map(|r| (r.fault_epoch, r.rank, r.restored_epoch, r.redone_epochs))
            .collect::<Vec<_>>()
    };
    assert_eq!(shape(&a), shape(&b));
}

/// Two crashes in one run: every teardown restores and the end state is
/// still bit-identical to the uninterrupted run.
#[test]
fn repeated_crashes_still_converge_bit_exactly() {
    let (_healthy_dir, healthy) = spec("multi_ref", 5, FaultPlan::none());
    let reference = run_resilient(&healthy).expect("healthy run");
    let plan = FaultPlan::manual(vec![
        FaultEvent {
            epoch: 1,
            kind: FaultKind::WorkerCrash { rank: 0 },
        },
        FaultEvent {
            epoch: 4,
            kind: FaultKind::WorkerCrash { rank: 1 },
        },
    ]);
    let (_faulted_dir, faulted) = spec("multi_crash", 5, plan);
    let out = run_resilient(&faulted).expect("faulted run");
    assert_eq!(out.recoveries.len(), 2);
    // Crash at 1 restores epoch 0 (redo 1); crash at 4 restores epoch 4.
    assert_eq!(out.redone_epochs, 1);
    assert_eq!(out.final_hash, reference.final_hash);
}

/// Elastic path: a mid-run death shrinks the world and the survivors
/// finish in agreement, with gradient averaging re-scaled to the smaller
/// world.
#[test]
fn elastic_shrink_survivors_agree() {
    let out = run_elastic(&ElasticSpec {
        bench: Bench::Nt3,
        workers: 3,
        total_steps: 6,
        crash_step: 3,
        victim: 0,
        batch: 20,
        base_lr: 0.02,
        data: candle::BenchDataKind::tiny(Bench::Nt3),
        seed: 21,
    })
    .expect("elastic run");
    assert_eq!(out.survivors.len(), 2);
    assert!(out.survivors_agree(), "survivor weights diverged");
    assert!(out.survivors.iter().all(|s| s.world == 2));
}

/// Serving path: a worker killed mid-batch is restarted, the poisoned
/// batch's requests get typed errors, and the engine keeps serving.
#[test]
fn serve_recovers_from_mid_batch_worker_death() {
    use dlframe::{Activation, Dense, Loss, Optimizer, Sequential};
    use serve::{ServeConfig, ServeEngine, ServeError};
    use std::sync::Arc;
    use std::time::Duration;

    let mut rng = xrng::seeded(77);
    let mut model = Sequential::new(77);
    model
        .add(Box::new(Dense::new(8, 4, Activation::Relu, &mut rng)))
        .add(Box::new(Dense::new(4, 2, Activation::Linear, &mut rng)))
        .compile(Loss::SoftmaxCrossEntropy, Optimizer::sgd(0.01));
    let engine = ServeEngine::start(
        Arc::new(model),
        ServeConfig {
            max_batch: 1,
            max_wait: Duration::from_micros(100),
            queue_capacity: 64,
            workers: 1,
            slo: None,
            kill_batches: vec![0],
        },
    );
    let handle = engine.handle();
    let mut crashed = 0;
    let mut served = 0;
    for i in 0..6 {
        let row: Vec<f32> = (0..8).map(|j| (i * 8 + j) as f32 * 0.01).collect();
        match handle.predict(row) {
            Ok(_) => served += 1,
            Err(ServeError::WorkerCrashed) => crashed += 1,
            Err(e) => panic!("unexpected serve error: {e:?}"),
        }
    }
    let report = engine.shutdown();
    assert_eq!(crashed, 1, "exactly the killed batch fails");
    assert_eq!(served, 5);
    assert_eq!(report.worker_restarts, 1);
}

/// Cache path: plan-scheduled shard corruption surfaces as datacache's
/// typed error and evict-and-rebuild restores a clean cache.
#[test]
fn cache_corruption_is_detected_and_recovered() {
    use datacache::CacheStore;
    use dataio::ReadStrategy;

    let root = parx::scratch("resilience_it_cache").expect("temp fs");
    let src = root.join("src");
    std::fs::create_dir_all(&src).unwrap();
    let csv = src.join("data.csv");
    let mut text = String::from("a,b\n");
    for i in 0..40 {
        text.push_str(&format!("{i},{}\n", i * 2));
    }
    std::fs::write(&csv, text).unwrap();

    let store = CacheStore::new(root.join("cache")).unwrap();
    let (ds, _) = store
        .open_csv(&csv, ReadStrategy::ChunkedLowMemory, 3)
        .unwrap();

    let plan = FaultPlan::generate(&FaultSpec {
        seed: 3,
        epochs: 4,
        workers: 2,
        crashes: 0,
        shards: 3,
        corruptions: 2,
    });
    let hit = resil::apply_shard_faults(&plan, &ds, 3).unwrap();
    assert!(!hit.is_empty());
    assert_eq!(resil::scan_shards(&ds), hit);

    let key = resil::evict_if_corrupt(&store, &ds)
        .unwrap()
        .expect("corrupt");
    assert!(!store.dataset_dir(key).exists());
    let (rebuilt, _) = store
        .open_csv(&csv, ReadStrategy::ChunkedLowMemory, 3)
        .unwrap();
    assert!(resil::scan_shards(&rebuilt).is_empty());
}
