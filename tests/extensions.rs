//! Integration tests for the extension features (DESIGN.md §5b): the
//! checkpoint/restart fault-tolerance path, LR warmup scheduling, sharded
//! data-parallel mode, and preprocessing through the full benchmark flow.

use candle::pipeline::{DataMode, FuncScaling};
use candle::{BenchDataKind, ParallelRunSpec};
use cluster::calib::Bench;

/// Checkpoint a model trained by the distributed pipeline, restore it into
/// a fresh single-process model, and verify the restored model evaluates
/// identically — the paper's planned fault-tolerance feature exercised
/// end to end.
#[test]
fn checkpoint_restart_across_pipeline() {
    use candle::{benchmark_dataset, build_model};
    use resil::{CheckpointManager, TrainState};

    let kind = BenchDataKind::tiny(Bench::Nt3);
    let (train, test) = benchmark_dataset(&kind, 31);
    // Train a model directly (single worker == pipeline rank 0 semantics).
    let (mut model, _) = build_model(Bench::Nt3, kind.features, 0.05, 77);
    let config = dlframe::FitConfig {
        epochs: 6,
        batch_size: 20,
        ..Default::default()
    };
    model
        .fit(&train, &config, &mut dlframe::NoSync)
        .expect("fit");
    let (loss_before, acc_before) = model.evaluate(&test, 40).expect("eval");

    // Checkpoint and restore into a fresh, differently-initialized model.
    let dir = parx::scratch("ext_ckpt").expect("temp dir");
    let mut mgr = CheckpointManager::new(&dir, 1).expect("dir");
    mgr.save(&TrainState::capture(6, &model)).expect("save");
    let (mut restored, _) = build_model(Bench::Nt3, kind.features, 0.05, 999);
    let state = mgr.latest().expect("read").expect("checkpoint exists");
    assert_eq!(state.epoch, 6);
    state.restore_into(&mut restored, 0).expect("restore");
    let (loss_after, acc_after) = restored.evaluate(&test, 40).expect("eval restored");
    assert_eq!(loss_before.to_bits(), loss_after.to_bits());
    assert_eq!(acc_before.to_bits(), acc_after.to_bits());
}

/// Weak scaling holds accuracy constant: 8 epochs/worker reaches high
/// accuracy regardless of the worker count (Table 6's rationale).
#[test]
fn weak_scaling_accuracy_is_stable() {
    let mut accs = Vec::new();
    for workers in [1usize, 2, 4] {
        let spec = ParallelRunSpec {
            bench: Bench::Nt3,
            workers,
            scaling: FuncScaling::Weak {
                epochs_per_worker: 8,
            },
            batch: 20,
            base_lr: 0.02,
            data: BenchDataKind::tiny(Bench::Nt3),
            seed: 41,
            record_timeline: false,
            data_mode: DataMode::FullReplicated,
            cache: None,
            data_service: None,
            comm_overlap: None,
        };
        let out = candle::run_parallel(&spec).expect("weak run");
        accs.push(out.test_accuracy);
    }
    for (i, &a) in accs.iter().enumerate() {
        assert!(a > 0.9, "worker count index {i}: accuracy {a}");
    }
}

/// Sharded mode still learns: the effective pass over the data is the
/// same (each worker sees 1/N per epoch, gradients averaged), so accuracy
/// should be comparable to the replicated mode given the same number of
/// gradient updates.
#[test]
fn sharded_mode_learns() {
    let spec = ParallelRunSpec {
        bench: Bench::Nt3,
        workers: 4,
        // 4 shards of 30 samples; 16 epochs over the shard ≈ 4 replicated
        // epochs of gradient updates at 4× batch diversity.
        scaling: FuncScaling::Weak {
            epochs_per_worker: 16,
        },
        batch: 10,
        base_lr: 0.01,
        data: BenchDataKind::tiny(Bench::Nt3),
        seed: 43,
        record_timeline: false,
        data_mode: DataMode::Sharded,
        cache: None,
        data_service: None,
        comm_overlap: None,
    };
    let out = candle::run_parallel(&spec).expect("sharded run");
    assert!(out.test_accuracy > 0.85, "accuracy {}", out.test_accuracy);
}

/// Preprocessing is wired through the benchmark datasets: NT3 features are
/// max-abs bounded, P1B1 features sit in [0,1].
#[test]
fn preprocessing_reaches_training_data() {
    let (train, test) = candle::benchmark_dataset(&BenchDataKind::tiny(Bench::Nt3), 61);
    let max_abs = train.x().data().iter().fold(0.0f32, |m, &x| m.max(x.abs()));
    assert!(max_abs <= 1.0 + 1e-6, "NT3 train max-abs {max_abs}");
    // Test split scaled with train statistics: near, but not necessarily
    // within, the unit ball.
    let test_max = test.x().data().iter().fold(0.0f32, |m, &x| m.max(x.abs()));
    assert!(test_max < 2.0, "NT3 test max-abs {test_max}");

    let (train, _) = candle::benchmark_dataset(&BenchDataKind::tiny(Bench::P1b1), 62);
    for &x in train.x().data() {
        assert!((0.0..=1.0).contains(&x), "P1B1 feature {x} outside [0,1]");
    }
    // Autoencoder targets equal the scaled inputs.
    assert_eq!(train.x().data(), train.y().data());
}
