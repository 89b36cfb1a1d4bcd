//! Integration tests for the shared dataset service: admission control,
//! hit/miss attribution, and the bit-identity guarantee the whole design
//! hangs on — a job's stream does not depend on worker thread count or on
//! what its neighbours are doing.

use dataio::{generate, ClassSpec, SyntheticSpec};
use datapipe::{
    stream_fingerprint, AdmitError, DatasetService, JobSpec, ServiceConfig, StreamOrder,
};
use std::path::Path;
use std::sync::Arc;

fn tmp_root(name: &str) -> parx::Scratch {
    parx::scratch(&format!("datapipe_{name}")).expect("scratch dir")
}

fn spec_for(rows: usize, cols: usize, seed: u64) -> SyntheticSpec {
    SyntheticSpec {
        rows,
        cols,
        kind: ClassSpec::Classification {
            classes: 3,
            separation: 1.0,
        },
        noise: 0.4,
        seed,
    }
}

/// Opens a service with `threads` assembly workers and one registered
/// synthetic dataset under `key`.
fn service_with_dataset(
    root: &Path,
    threads: usize,
    key: u64,
    rows: usize,
    cols: usize,
) -> Arc<DatasetService> {
    let mut config = ServiceConfig::new(root);
    config.threads = threads;
    let service = DatasetService::new(config).unwrap();
    service
        .open_dataset(key, "synthetic:test", "", 5, || {
            Ok(generate(&spec_for(rows, cols, 7)).to_frame())
        })
        .unwrap();
    service
}

fn job_spec(key: u64, features: usize) -> JobSpec {
    JobSpec {
        dataset: key,
        features,
        batch: 32,
        seed: 11,
    }
}

/// Satellite: the per-job stream is a pure function of
/// `(dataset, seed, epoch, batch)` — the assembly worker count {1, 2, 4}
/// must not change a single bit.
#[test]
fn stream_is_bit_identical_across_thread_counts() {
    let key = 0xA1;
    let mut prints = Vec::new();
    for threads in [1usize, 2, 4] {
        let root = tmp_root(&format!("threads{threads}"));
        let service = service_with_dataset(&root, threads, key, 257, 9);
        let job = service.admit(job_spec(key, 8)).unwrap();
        let epoch = stream_fingerprint(job.epoch(3)).unwrap();
        let seq = stream_fingerprint(job.sequential()).unwrap();
        prints.push((epoch, seq));
    }
    assert_eq!(prints[0], prints[1], "1 vs 2 threads changed the stream");
    assert_eq!(prints[0], prints[2], "1 vs 4 threads changed the stream");
    assert_ne!(
        prints[0].0, prints[0].1,
        "the shuffled epoch must differ from storage order"
    );
}

/// A shuffled epoch is a permutation of the sequential stream: same rows,
/// each exactly once, only the order differs.
#[test]
fn shuffled_epoch_covers_every_row_exactly_once() {
    let root = tmp_root("coverage");
    let key = 0xB2;
    let service = service_with_dataset(&root, 2, key, 131, 6);
    let job = service.admit(job_spec(key, 5)).unwrap();

    let collect_rows = |stream: datapipe::EpochStream| -> Vec<Vec<f32>> {
        let mut rows = Vec::new();
        for item in stream {
            let batch = item.unwrap();
            let (x, y) = (batch.x.data(), batch.y.data());
            let n = batch.x.shape().dims()[0];
            let (fx, fy) = (x.len() / n, y.len() / n);
            for r in 0..n {
                let mut row: Vec<f32> = x[r * fx..(r + 1) * fx].to_vec();
                row.extend_from_slice(&y[r * fy..(r + 1) * fy]);
                rows.push(row);
            }
        }
        rows
    };

    let mut shuffled = collect_rows(job.epoch(0));
    let mut sequential = collect_rows(job.sequential());
    assert_eq!(shuffled.len(), 131);
    assert_ne!(shuffled, sequential, "epoch 0 must actually shuffle");
    let sort = |rows: &mut Vec<Vec<f32>>| {
        rows.sort_by(|a, b| {
            a.iter()
                .zip(b)
                .map(|(x, y)| x.total_cmp(y))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        })
    };
    sort(&mut shuffled);
    sort(&mut sequential);
    assert_eq!(
        shuffled, sequential,
        "epoch must be a permutation of the rows"
    );
}

/// Epochs reshuffle: different epoch indices yield different orders, and
/// replaying an epoch reproduces it bit-for-bit.
#[test]
fn epochs_reshuffle_and_replay_deterministically() {
    let root = tmp_root("epochs");
    let key = 0xC3;
    let service = service_with_dataset(&root, 2, key, 200, 7);
    let job = service.admit(job_spec(key, 6)).unwrap();
    let e0 = stream_fingerprint(job.epoch(0)).unwrap();
    let e1 = stream_fingerprint(job.epoch(1)).unwrap();
    let e0_again = stream_fingerprint(job.epoch(0)).unwrap();
    assert_ne!(e0, e1, "epochs 0 and 1 must shuffle differently");
    assert_eq!(e0, e0_again, "replaying an epoch must be bit-identical");
}

/// Concurrent neighbours over the same pool never change a job's stream,
/// and the pool serves later jobs from residency (hits, one decode per
/// shard).
#[test]
fn neighbours_share_the_pool_without_changing_streams() {
    let root = tmp_root("neighbours");
    let key = 0xD4;
    let service = service_with_dataset(&root, 2, key, 300, 8);

    // Solo baseline.
    let solo = {
        let job = service.admit(job_spec(key, 7)).unwrap();
        stream_fingerprint(job.epoch(0)).unwrap()
    };

    // Eight concurrent consumers, each on its own thread.
    let mut handles = Vec::new();
    for _ in 0..8 {
        let job = service.admit(job_spec(key, 7)).unwrap();
        handles.push(std::thread::spawn(move || {
            stream_fingerprint(job.epoch(0)).unwrap()
        }));
    }
    for h in handles {
        assert_eq!(h.join().unwrap(), solo, "a neighbour changed the stream");
    }

    let pool = service.pool_stats();
    assert_eq!(pool.misses, 5, "each of the 5 shards decodes exactly once");
    assert!(
        pool.hits > pool.misses,
        "9 jobs over 5 shards must mostly hit"
    );
}

#[test]
fn admission_control_rejects_with_typed_errors() {
    let root = tmp_root("admission");
    let key = 0xE5;
    let mut config = ServiceConfig::new(&root);
    config.max_jobs = 2;
    let service = DatasetService::new(config).unwrap();
    service
        .open_dataset(key, "synthetic:test", "", 4, || {
            Ok(generate(&spec_for(100, 6, 3)).to_frame())
        })
        .unwrap();

    assert!(matches!(
        service.admit(job_spec(0xFFFF, 5)),
        Err(AdmitError::UnknownDataset { key: 0xFFFF })
    ));
    // 6 feature cols + 1 label col = 7 dataset cols; features=7 leaves no y.
    assert!(matches!(
        service.admit(job_spec(key, 7)),
        Err(AdmitError::BadSplit {
            features: 7,
            ncols: 7
        })
    ));

    let _a = service.admit(job_spec(key, 5)).unwrap();
    let _b = service.admit(job_spec(key, 5)).unwrap();
    assert!(matches!(
        service.admit(job_spec(key, 5)),
        Err(AdmitError::Saturated {
            active: 2,
            max_jobs: 2
        })
    ));
    // Dropping a handle frees the slot.
    drop(_a);
    let _c = service.admit(job_spec(key, 5)).unwrap();

    let stats = service.stats();
    assert_eq!(stats.admitted, 3);
    assert_eq!(stats.rejected, 3);
    assert_eq!(stats.active_jobs, 2);
}

#[test]
fn admission_rejects_working_sets_beyond_the_pool_budget() {
    let root = tmp_root("budget");
    let key = 0xF6;
    let mut config = ServiceConfig::new(&root);
    // Far too small for even one decoded shard (100x6 f32 over 2 shards).
    config.pool_budget_bytes = 64;
    let service = DatasetService::new(config).unwrap();
    service
        .open_dataset(key, "synthetic:test", "", 2, || {
            Ok(generate(&spec_for(100, 6, 3)).to_frame())
        })
        .unwrap();
    assert!(matches!(
        service.admit(job_spec(key, 5)),
        Err(AdmitError::InsufficientBudget { .. })
    ));
    assert_eq!(service.stats().rejected, 1);
}

/// A tight pool budget forces eviction churn mid-epoch — and the stream
/// still comes out bit-identical, because leases pin exactly the shards
/// in use and eviction only changes *where* bytes come from.
#[test]
fn tight_pool_budget_churns_but_streams_stay_identical() {
    let root = tmp_root("tight");
    let key = 0x17;
    let rows = 400;
    let cols = 8;
    // Generous-budget baseline.
    let baseline = {
        let service = service_with_dataset(&root, 2, key, rows, cols);
        let job = service.admit(job_spec(key, 7)).unwrap();
        stream_fingerprint(job.epoch(2)).unwrap()
    };
    // Tight budget: exactly two shards resident (5 shards of 80 rows ×
    // 9 columns — 8 features + 1 label — of f32).
    let mut config = ServiceConfig::new(&root);
    config.threads = 2;
    config.pool_budget_bytes = (2 * 80 * (cols + 1) * 4) as u64;
    let service = DatasetService::new(config).unwrap();
    service
        .open_dataset(key, "synthetic:test", "", 5, || {
            Ok(generate(&spec_for(rows, cols, 7)).to_frame())
        })
        .unwrap();
    let job = service.admit(job_spec(key, 7)).unwrap();
    let tight = stream_fingerprint(job.epoch(2)).unwrap();
    assert_eq!(tight, baseline, "eviction churn changed the stream");
    let pool = service.pool_stats();
    assert!(pool.evictions > 0, "a tight budget must evict: {pool:?}");
    assert!(pool.resident_bytes <= pool.peak_resident_bytes, "{pool:?}");
}

/// Job stats attribute work to the job that did it.
#[test]
fn job_stats_attribute_batches_and_bytes() {
    let root = tmp_root("stats");
    let key = 0x28;
    let service = service_with_dataset(&root, 2, key, 150, 6);
    let job = service.admit(job_spec(key, 5)).unwrap();
    assert_eq!(job.stats(), Default::default());
    let mut batches = 0;
    for item in job.epoch(0) {
        item.unwrap();
        batches += 1;
    }
    let stats = job.stats();
    assert_eq!(batches, 150usize.div_ceil(32));
    assert_eq!(stats.batches, batches as u64);
    assert_eq!(stats.rows, 150);
    assert!(stats.bytes_served > 0);
    assert!(
        stats.shard_hits + stats.shard_misses > 0,
        "shard acquires must be attributed to the job: {stats:?}"
    );
    assert!(
        stats.shard_misses <= 5,
        "at most one decode per shard: {stats:?}"
    );
}

/// Reopening a dataset on a fresh service over the same root warm-hits
/// the disk cache (single-flight cold build happened once).
#[test]
fn second_service_over_same_root_warm_hits() {
    let root = tmp_root("warm");
    let key = 0x39;
    let mut builds = 0;
    let mut warm = Vec::new();
    for _ in 0..2 {
        let service = DatasetService::new(ServiceConfig::new(&root)).unwrap();
        let outcome = service
            .open_dataset(key, "synthetic:test", "", 3, || {
                builds += 1;
                Ok(generate(&spec_for(90, 5, 1)).to_frame())
            })
            .unwrap();
        warm.push(outcome.is_warm());
    }
    assert_eq!(warm, [false, true]);
    assert_eq!(
        builds, 1,
        "the cold build must be single-flight across opens"
    );
}

/// A cold build that panics under the service's open lock leaves the shared
/// plane usable: the next open of the same key cold-builds, its job streams
/// exactly what a fresh service streams, and the stats still answer.
#[test]
fn panicking_cold_build_leaves_the_service_usable() {
    let key = 0x4A;
    let (rows, cols) = (120, 6);
    let root = tmp_root("panicked_build");
    let service = DatasetService::new(ServiceConfig::new(&root)).unwrap();
    let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        service.open_dataset(key, "synthetic:test", "", 5, || panic!("build died"))
    }));
    assert!(crashed.is_err());

    let reopened = service
        .open_dataset(key, "synthetic:test", "", 5, || {
            Ok(generate(&spec_for(rows, cols, 7)).to_frame())
        })
        .unwrap();
    assert!(
        !reopened.is_warm(),
        "the panicked build must leave nothing to hit"
    );
    let job = service.admit(job_spec(key, 5)).unwrap();
    let after_panic = stream_fingerprint(job.epoch(1)).unwrap();

    let fresh_root = tmp_root("panicked_build_fresh");
    let fresh = service_with_dataset(&fresh_root, 2, key, rows, cols);
    let fresh_job = fresh.admit(job_spec(key, 5)).unwrap();
    assert_eq!(after_panic, stream_fingerprint(fresh_job.epoch(1)).unwrap());

    let stats = service.stats();
    assert_eq!(
        (stats.datasets, stats.admitted, stats.active_jobs),
        (1, 1, 1)
    );
}

/// StreamOrder is part of the public API surface; make sure the re-export
/// compiles and the enum is usable downstream.
#[test]
fn stream_order_is_public() {
    let order = StreamOrder::Shuffled { epoch: 0 };
    assert_ne!(order, StreamOrder::Sequential);
}
