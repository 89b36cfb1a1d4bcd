//! `datapipe` — a shared dataset service for N concurrent trainings.
//!
//! The paper's benchmarks never run one-at-a-time in production: CANDLE
//! exists to drive fleets of concurrent hyperparameter-search trainings,
//! and at fleet scale the data plane is the bottleneck (Yang & Cong;
//! Uber's reproducible-pipeline service, PAPERS.md). This crate promotes
//! `datacache` + the turbo ingest from a per-run library into one shared
//! data plane:
//!
//! * [`service`] — [`DatasetService`]: admission control against a
//!   byte-budgeted shard pool, single-flight cold builds, per-job
//!   isolation stats.
//! * [`pool`] — [`ShardPool`]: decoded shards shared across jobs with
//!   refcounted leases (an in-use shard is never evicted) and LRU
//!   eviction under the byte budget.
//! * [`permute`] — [`EpochPermutation`]: the seeded `(job, epoch)` global
//!   shuffle as a cycle-walking Feistel bijection over row indices — O(1)
//!   space, no permutation vector ever materialized.
//! * [`stream`] — [`EpochStream`]: ordered background batch assembly on
//!   `parx` with bounded-queue backpressure.
//!
//! The load-bearing guarantee: a job's batch stream is **bit-identical**
//! whether it runs alone or beside 31 neighbours, under any worker thread
//! count, because every batch is a pure function of
//! `(dataset, seed, epoch, batch size)` and the pool only changes *where*
//! bytes come from, never *which* bytes.

pub mod permute;
pub mod pool;
pub mod service;
pub mod stream;

pub use permute::EpochPermutation;
pub use pool::{PoolShard, PoolStats, ShardLease, ShardPool};
pub use service::{
    AdmitError, DatasetService, JobCounters, JobHandle, JobSpec, JobStats, ServiceConfig,
    ServiceStats,
};
pub use stream::{Batch, EpochStream, StreamOrder};

/// FNV-1a fingerprint of a batch stream's exact contents (shape and every
/// f32 bit pattern, in yield order). Two streams with equal fingerprints
/// delivered the same batches — the equality the multi-job isolation
/// tests and `table_datapipe` assert.
pub fn stream_fingerprint(
    stream: impl Iterator<Item = Result<Batch, datacache::CacheError>>,
) -> Result<u64, datacache::CacheError> {
    use datacache::format::{fnv1a64_extend, FNV_OFFSET};
    let mut hash = FNV_OFFSET;
    for item in stream {
        let batch = item?;
        for t in [&batch.x, &batch.y] {
            for &d in t.shape().dims() {
                hash = fnv1a64_extend(hash, &(d as u64).to_le_bytes());
            }
            for &v in t.data() {
                hash = fnv1a64_extend(hash, &v.to_bits().to_le_bytes());
            }
        }
    }
    Ok(hash)
}
