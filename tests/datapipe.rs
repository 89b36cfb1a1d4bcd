//! Fleet-scale acceptance tests for the `datapipe` shared dataset service.
//!
//! The contract under test: 32 concurrent jobs over ONE shared
//! [`datapipe::DatasetService`] each receive a batch stream bit-identical
//! to the same job run solo, and (in release builds) the shared plane's
//! aggregate throughput is at least that of 32 independent caches
//! splitting the same memory budget.

use candle::{load_benchmark_dataset_via_service, BenchDataKind, BenchId, ServiceSpec};
use dataio::{generate, ClassSpec, SyntheticSpec};
use datapipe::{stream_fingerprint, DatasetService, JobSpec, ServiceConfig};
use experiments::measure_datapipe_comparison;
use std::sync::Arc;

fn tmp_root(tag: &str) -> parx::Scratch {
    parx::scratch(&format!("t_datapipe_{tag}")).expect("temp fs")
}

fn open_synthetic(
    service: &Arc<DatasetService>,
    key: u64,
    rows: usize,
    cols: usize,
    shards: usize,
) {
    let spec = SyntheticSpec {
        rows,
        cols,
        kind: ClassSpec::Classification {
            classes: 3,
            separation: 1.2,
        },
        noise: 0.3,
        seed: 47,
    };
    service
        .open_dataset(key, "synthetic:test", "", shards, move || {
            Ok(generate(&spec).to_frame())
        })
        .expect("open dataset");
}

/// The headline acceptance criterion, at integration scale: a 32-job
/// fleet through one service is bit-identical to 32 solo runs, with
/// exactly one decode per shard on the shared plane.
#[test]
fn thirty_two_concurrent_jobs_stream_bit_identically() {
    let c = measure_datapipe_comparison(32, 768, 12, 6).unwrap();
    assert!(
        c.bit_identical,
        "a concurrent job's stream diverged from its solo run"
    );
    assert_eq!(c.pool.misses, 6, "the shared pool decodes each shard once");
    assert!(c.pool.hits > c.pool.misses);
}

/// Aggregate throughput: one shared service must not lose to 32
/// independent caches under the same split memory budget. Wall-clock
/// comparisons only mean something with optimization on.
#[cfg(not(debug_assertions))]
#[test]
fn shared_service_throughput_beats_independent_caches() {
    let c = measure_datapipe_comparison(32, 2048, 16, 8).unwrap();
    assert!(c.bit_identical);
    assert!(
        c.shared_rows_per_s >= c.independent_rows_per_s,
        "shared {:.0} rows/s vs independent {:.0} rows/s",
        c.shared_rows_per_s,
        c.independent_rows_per_s
    );
}

/// Worker thread count is an implementation detail: the same (job, epoch)
/// stream is byte-for-byte identical under 1, 2, and 4 assembly threads,
/// for shuffled and sequential orders alike.
#[test]
fn streams_are_invariant_to_service_thread_count() {
    let root = tmp_root("threads");
    let mut fingerprints = Vec::new();
    for threads in [1usize, 2, 4] {
        let mut config = ServiceConfig::new(&root);
        config.threads = threads;
        let service = DatasetService::new(config).expect("service");
        open_synthetic(&service, 7, 500, 9, 5);
        let job = service
            .admit(JobSpec {
                dataset: 7,
                features: 9,
                batch: 48,
                seed: 3,
            })
            .expect("admit");
        let shuffled = stream_fingerprint(job.epoch(2)).expect("epoch 2");
        let sequential = stream_fingerprint(job.sequential()).expect("sequential");
        fingerprints.push((shuffled, sequential));
    }
    assert_eq!(fingerprints[0], fingerprints[1]);
    assert_eq!(fingerprints[1], fingerprints[2]);
    assert_ne!(
        fingerprints[0].0, fingerprints[0].1,
        "epoch shuffle must actually reorder rows"
    );
}

/// The full training stack over the service: concurrent
/// `load_benchmark_dataset_via_service` calls on one service produce
/// tensors identical to a solo call, and the dataset is built once.
#[test]
fn concurrent_pipeline_loads_share_one_build() {
    let root = tmp_root("pipeline");
    let kind = BenchDataKind::scaled(BenchId::P1b2, 64);
    let seed = 99;

    let service = DatasetService::new(ServiceConfig::new(&root)).expect("service");
    let spec = ServiceSpec::new(Arc::clone(&service));
    let (solo_train, solo_test, first) =
        load_benchmark_dataset_via_service(&kind, seed, &spec).expect("solo load");
    assert!(first.cold, "first open pays the build");

    let threads: Vec<_> = (0..4)
        .map(|_| {
            let spec = ServiceSpec::new(Arc::clone(&service));
            std::thread::spawn(move || {
                load_benchmark_dataset_via_service(&kind, seed, &spec).expect("concurrent load")
            })
        })
        .collect();
    for t in threads {
        let (train, test, load) = t.join().expect("join");
        assert!(!load.cold, "dataset must already be resident");
        assert_eq!(train.x().data(), solo_train.x().data());
        assert_eq!(train.y().data(), solo_train.y().data());
        assert_eq!(test.x().data(), solo_test.x().data());
        assert_eq!(test.y().data(), solo_test.y().data());
    }
    assert_eq!(service.stats().datasets, 1, "one registration, one build");
    assert_eq!(service.stats().admitted, 5);
}
