//! Cross-crate determinism guarantees and failure injection.

use candle::pipeline::FuncScaling;
use candle::{BenchDataKind, ParallelRunSpec};
use cluster::calib::Bench;

fn nt3_spec(workers: usize, seed: u64) -> ParallelRunSpec {
    ParallelRunSpec {
        bench: Bench::Nt3,
        workers,
        scaling: FuncScaling::Weak {
            epochs_per_worker: 2,
        },
        batch: 20,
        base_lr: 0.01,
        data: BenchDataKind::tiny(Bench::Nt3),
        seed,
        record_timeline: false,
        data_mode: candle::pipeline::DataMode::FullReplicated,
        cache: None,
        data_service: None,
        comm_overlap: None,
    }
}

/// A fixed seed reproduces the functional outcome bit-for-bit, including
/// across parallel workers (the collectives are deterministic; only the
/// timeline timestamps vary).
#[test]
fn parallel_training_is_seed_deterministic() {
    let a = candle::run_parallel(&nt3_spec(3, 42)).expect("run a");
    let b = candle::run_parallel(&nt3_spec(3, 42)).expect("run b");
    assert_eq!(a.train_loss.to_bits(), b.train_loss.to_bits());
    assert_eq!(a.test_accuracy.to_bits(), b.test_accuracy.to_bits());
    assert_eq!(a.test_loss.to_bits(), b.test_loss.to_bits());
    for (ha, hb) in a.histories.iter().zip(&b.histories) {
        for (ea, eb) in ha.epochs().iter().zip(hb.epochs()) {
            assert_eq!(ea.loss.to_bits(), eb.loss.to_bits());
        }
    }
    let c = candle::run_parallel(&nt3_spec(3, 43)).expect("run c");
    assert_ne!(a.train_loss.to_bits(), c.train_loss.to_bits());
}

/// The cluster simulator is a pure function of its configuration.
#[test]
fn simulator_is_deterministic() {
    use candle::HyperParams;
    use cluster::run::simulate;
    use cluster::{LoadMethod, Machine, RunConfig, ScalingMode};
    let hp = HyperParams::of(Bench::P1b2);
    let cfg = RunConfig {
        machine: Machine::Theta,
        workers: 96,
        batch_size: 60,
        scaling: ScalingMode::Strong,
        load_method: LoadMethod::Dask,
    };
    let a = simulate(&hp.workload(), &cfg).expect("a");
    let b = simulate(&hp.workload(), &cfg).expect("b");
    assert_eq!(a.total_s.to_bits(), b.total_s.to_bits());
    assert_eq!(a.power.energy_j.to_bits(), b.power.energy_j.to_bits());
    assert_eq!(a.power.samples, b.power.samples);
}

/// `run_workers` re-raises a rank's panic on the caller.
#[test]
fn run_workers_reraises_a_rank_panic() {
    let result = std::panic::catch_unwind(|| {
        collectives::run_workers(3, |comm| {
            if comm.rank() == 1 {
                panic!("injected worker failure");
            }
        })
    });
    assert!(result.is_err(), "panic must propagate to the caller");
}

/// Survivors of a dead rank get a typed error, not a hang: dropping an
/// endpoint clears its liveness flag and unparks every peer, so the wait
/// ends at once (the world's peer timeout only bounds a *silent* peer).
#[test]
fn survivors_of_a_dead_rank_get_peer_lost() {
    use collectives::{CommError, Communicator};
    let world = Communicator::world_with_timeout(3, std::time::Duration::from_millis(200));
    let results: Vec<Result<(), CommError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = world
            .into_iter()
            .map(|mut comm| {
                scope.spawn(move || {
                    if comm.rank() == 1 {
                        return Ok(()); // dies before the collective
                    }
                    collectives::ring_allreduce(&mut comm, &mut [1.0f32; 64])
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no panic"))
            .collect()
    });
    for rank in [0, 2] {
        assert!(
            matches!(results[rank], Err(CommError::PeerLost { .. })),
            "rank {rank}: {:?}",
            results[rank]
        );
    }
}

/// Malformed CSV files fail cleanly through the whole loading stack.
#[test]
fn malformed_csv_fails_cleanly() {
    use dataio::{read_csv, DataError, ReadStrategy};
    let dir = parx::scratch("fault_csv").expect("dir");
    // Ragged rows.
    let ragged = dir.join("ragged.csv");
    std::fs::write(&ragged, "1,2,3\n4,5\n6,7,8\n").expect("write");
    for strategy in [ReadStrategy::PandasDefault, ReadStrategy::ChunkedLowMemory] {
        match read_csv(&ragged, strategy) {
            Err(DataError::Malformed(msg)) => assert!(msg.contains("fields")),
            other => panic!("{strategy:?}: expected Malformed, got {other:?}"),
        }
    }
    // Non-UTF8 bytes.
    let binary = dir.join("binary.csv");
    std::fs::write(&binary, [0x31, 0x2C, 0xFF, 0xFE, 0x0A]).expect("write");
    assert!(read_csv(&binary, ReadStrategy::ChunkedLowMemory).is_err());
}

/// Infeasible configurations are rejected before any work starts.
#[test]
fn infeasible_configs_rejected_everywhere() {
    // Functional plane: more workers than epochs.
    let mut spec = nt3_spec(8, 1);
    spec.scaling = FuncScaling::Strong { total_epochs: 4 };
    assert!(candle::run_parallel(&spec).is_err());

    // Model plane: too many workers, OOM, zero batch.
    use candle::HyperParams;
    use cluster::run::{simulate, RunError};
    use cluster::{LoadMethod, Machine, RunConfig, ScalingMode};
    let hp = HyperParams::of(Bench::Nt3);
    let base = RunConfig {
        machine: Machine::Summit,
        workers: 385,
        batch_size: 20,
        scaling: ScalingMode::Strong,
        load_method: LoadMethod::PandasDefault,
    };
    assert!(matches!(
        simulate(&hp.workload(), &base),
        Err(RunError::TooManyWorkers { .. })
    ));
    let cfg = RunConfig {
        workers: 4,
        batch_size: 0,
        ..base
    };
    assert!(matches!(
        simulate(&hp.workload(), &cfg),
        Err(RunError::InvalidConfig(_))
    ));
}

/// Dropout, shuffling, and initialization draw from independent seeded
/// streams: changing the worker count changes the result (different
/// effective batch), but never panics or hangs.
#[test]
fn worker_count_changes_are_safe() {
    for workers in 1..=5 {
        let out = candle::run_parallel(&nt3_spec(workers, 7)).expect("run");
        assert!(out.test_loss.is_finite());
        assert_eq!(out.histories.len(), workers);
    }
}
