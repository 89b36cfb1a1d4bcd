//! End-to-end integration: the full three-phase benchmark flow of paper
//! Figure 2 — data loading from real CSV files, training with the
//! distributed pipeline, and evaluation — across `dataio`, `dlframe`,
//! `collectives`, and `candle`.

use dataio::{generate, read_csv, write_csv_dataset, ClassSpec, ReadStrategy, SyntheticSpec};
use dlframe::Dataset;
use tensor::Tensor;

/// Generate an NT3-shaped CSV, load it through each reader strategy, build
/// a training set from the frame, train a classifier, and verify it learns
/// — the complete Figure-2 flow with a real file in the middle.
#[test]
fn csv_to_trained_model_via_every_reader() {
    let spec = SyntheticSpec {
        rows: 160,
        cols: 32,
        kind: ClassSpec::Classification {
            classes: 2,
            separation: 1.2,
        },
        noise: 0.6,
        seed: 77,
    };
    let ds = generate(&spec);
    let dir = parx::scratch("e2e").expect("temp dir");
    let path = dir.join("nt3_like.csv");
    write_csv_dataset(&path, &ds).expect("write");

    for strategy in [
        ReadStrategy::PandasDefault,
        ReadStrategy::ChunkedLowMemory,
        ReadStrategy::DaskParallel,
    ] {
        // Phase 1: data loading.
        let (frame, stats) = read_csv(&path, strategy).expect("read");
        assert_eq!(stats.rows, 160);
        assert_eq!(frame.ncols(), 33); // label + 32 features

        // Convert: first column is the class label, rest are features.
        let mut x = Vec::with_capacity(160 * 32);
        let mut y = Vec::with_capacity(160 * 2);
        for r in 0..frame.nrows() {
            let label = frame.columns()[0].f32_at(r) as usize;
            for c in 1..frame.ncols() {
                x.push(frame.columns()[c].f32_at(r));
            }
            y.extend_from_slice(if label == 0 { &[1.0, 0.0] } else { &[0.0, 1.0] });
        }
        let data = Dataset::new(
            Tensor::from_vec([160, 32], x).expect("x"),
            Tensor::from_vec([160, 2], y).expect("y"),
        );

        // Phase 2: training (2 simulated Horovod workers).
        use collectives::{broadcast_parameters, run_workers_owned, DistributedOptimizer};
        use dlframe::{Activation, Dense, FitConfig, Loss, Optimizer, Sequential};
        use std::sync::Arc;
        let data = Arc::new(data);
        let results = run_workers_owned(2, {
            let data = Arc::clone(&data);
            move |mut comm| {
                let mut rng = xrng::seeded(1000 + comm.rank() as u64);
                let mut model = Sequential::new(comm.rank() as u64);
                model.add(Box::new(Dense::new(32, 16, Activation::Relu, &mut rng)));
                model.add(Box::new(Dense::new(16, 2, Activation::Linear, &mut rng)));
                model.compile(Loss::SoftmaxCrossEntropy, Optimizer::sgd(0.05 * 2.0));
                let mut params = model.flat_params();
                broadcast_parameters(&mut comm, &mut params, None);
                model.set_flat_params(&params);
                let mut dist = DistributedOptimizer::new(comm);
                let config = FitConfig {
                    epochs: 10,
                    batch_size: 20,
                    ..Default::default()
                };
                model.fit(&data, &config, &mut dist).expect("fit");
                // Phase 3: evaluation.
                let (loss, acc) = model.evaluate(&data, 40).expect("evaluate");
                (loss, acc, model.flat_params())
            }
        });
        let (loss, acc, params0) = &results[0];
        assert!(*acc > 0.9, "{strategy:?}: accuracy {acc}");
        assert!(*loss < 0.5, "{strategy:?}: loss {loss}");
        // Gradient averaging must keep every rank's weights identical.
        let (_, _, params1) = &results[1];
        assert_eq!(params0, params1, "{strategy:?}: ranks diverged");
    }
}

/// The candle pipeline runs all four benchmarks end to end.
#[test]
fn all_four_benchmarks_run_parallel() {
    use candle::pipeline::FuncScaling;
    use candle::{BenchDataKind, ParallelRunSpec};
    use cluster::calib::Bench;
    for (bench, lr) in [
        (Bench::Nt3, 0.01),
        (Bench::P1b1, 0.001),
        (Bench::P1b2, 0.002),
        (Bench::P1b3, 0.3),
    ] {
        let spec = ParallelRunSpec {
            bench,
            workers: 2,
            scaling: FuncScaling::Weak {
                epochs_per_worker: 2,
            },
            batch: 40,
            base_lr: lr,
            data: BenchDataKind::tiny(bench),
            seed: 9,
            record_timeline: false,
            data_mode: candle::pipeline::DataMode::FullReplicated,
            cache: None,
            data_service: None,
            comm_overlap: None,
        };
        let out = candle::run_parallel(&spec).unwrap_or_else(|e| panic!("{bench:?}: {e}"));
        assert_eq!(out.epochs_per_worker, 2, "{bench:?}");
        assert!(out.test_loss.is_finite(), "{bench:?}");
        assert!(out.comm_stats.allreduce_calls > 0, "{bench:?}");
    }
}

/// The full dual-plane story for one configuration: functional training
/// succeeds AND the matching cluster simulation reports the same phase
/// structure the functional timeline shows.
#[test]
fn functional_and_simulated_planes_agree_on_structure() {
    use candle::pipeline::FuncScaling;
    use candle::{BenchDataKind, HyperParams, ParallelRunSpec};
    use cluster::calib::Bench;
    use cluster::run::simulate;
    use cluster::{LoadMethod, Machine, RunConfig, ScalingMode};

    let workers = 4;
    let spec = ParallelRunSpec {
        bench: Bench::Nt3,
        workers,
        scaling: FuncScaling::Weak {
            epochs_per_worker: 3,
        },
        batch: 20,
        base_lr: 0.01,
        data: BenchDataKind::tiny(Bench::Nt3),
        seed: 4,
        record_timeline: true,
        data_mode: candle::pipeline::DataMode::FullReplicated,
        cache: None,
        data_service: None,
        comm_overlap: None,
    };
    let functional = candle::run_parallel(&spec).expect("functional");
    let tl = functional.timeline.expect("timeline");
    // The functional plane really did broadcast then allreduce.
    assert!(tl.events().iter().any(|e| e.name == "mpi_broadcast"));
    assert!(tl.total_duration_us("allreduce") > 0);

    let hp = HyperParams::of(Bench::Nt3);
    let simulated = simulate(
        &hp.workload(),
        &RunConfig {
            machine: Machine::Summit,
            workers,
            batch_size: 20,
            scaling: ScalingMode::Weak {
                epochs_per_worker: 3,
            },
            load_method: LoadMethod::PandasDefault,
        },
    )
    .expect("simulated");
    // Same phase names in both planes' stories.
    let phase_names: Vec<&str> = simulated.phases.iter().map(|p| p.name).collect();
    assert_eq!(
        phase_names,
        vec![
            "startup",
            "data_loading",
            "broadcast",
            "training",
            "evaluate"
        ]
    );
    assert_eq!(simulated.epochs_per_worker, 3);
    // Functional allreduce call count matches the simulated step count
    // (one averaged gradient per batch step per epoch).
    let tiny = BenchDataKind::tiny(Bench::Nt3);
    let steps = tiny.train_rows.div_ceil(20);
    assert_eq!(functional.comm_stats.allreduce_calls as usize, steps * 3);
}
