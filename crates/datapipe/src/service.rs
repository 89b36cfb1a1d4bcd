//! The dataset service: one shared data plane admitting N concurrent jobs.
//!
//! [`DatasetService`] owns what each training run used to own privately —
//! a disk [`CacheStore`], a decoded-shard pool, and a worker pool for
//! background batch assembly — and shares them across every admitted job:
//!
//! * **cold builds are single-flight**: the first job to open a dataset
//!   parses/generates and writes shards; every later open (concurrent or
//!   not) is a warm hit on the same manifest.
//! * **admission control**: a job is admitted only if the pool budget can
//!   hold its minimum working set (the largest shard double-buffered plus
//!   its in-flight batches) and the job cap is not exhausted. Rejection is
//!   a typed error, not a degraded stream.
//! * **isolation stats**: every job carries its own counter block
//!   (hits, misses, bytes served, consumer wait), so a fleet report can
//!   show exactly which job paid for what.

use crate::pool::{PoolStats, ShardPool};
use crate::stream::{EpochStream, StreamOrder};
use datacache::{CacheError, CacheOutcome, CacheStore, CachedDataset};
use dataio::Frame;
use parx::WorkerPool;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Configuration of one shared data plane.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Directory of the shared on-disk shard cache.
    pub cache_root: PathBuf,
    /// Byte budget for the in-memory decoded-shard pool.
    pub pool_budget_bytes: u64,
    /// Worker threads assembling batches in the background.
    pub threads: usize,
    /// Maximum concurrently admitted jobs.
    pub max_jobs: usize,
}

impl ServiceConfig {
    /// A sensible default plane rooted at `cache_root`: 256 MiB pool, two
    /// assembly workers, 64-job cap, double-buffered streams.
    pub fn new(cache_root: impl Into<PathBuf>) -> Self {
        Self {
            cache_root: cache_root.into(),
            pool_budget_bytes: 256 << 20,
            threads: 2,
            max_jobs: 64,
        }
    }
}

/// Why a job was not admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmitError {
    /// The job cap is exhausted.
    Saturated {
        /// Jobs currently admitted.
        active: usize,
        /// The configured cap.
        max_jobs: usize,
    },
    /// The pool budget cannot hold the job's minimum working set.
    InsufficientBudget {
        /// Bytes the job needs resident at once.
        needed: u64,
        /// The configured pool budget.
        budget: u64,
    },
    /// The referenced dataset was never opened on this service.
    UnknownDataset {
        /// The missing key.
        key: u64,
    },
    /// The job's x/y column split does not fit the dataset.
    BadSplit {
        /// Requested feature columns.
        features: usize,
        /// Columns the dataset actually has.
        ncols: usize,
    },
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::Saturated { active, max_jobs } => {
                write!(f, "service saturated: {active} of {max_jobs} jobs active")
            }
            AdmitError::InsufficientBudget { needed, budget } => {
                write!(
                    f,
                    "working set needs {needed} bytes, pool budget is {budget}"
                )
            }
            AdmitError::UnknownDataset { key } => {
                write!(f, "dataset {key:#x} was never opened on this service")
            }
            AdmitError::BadSplit { features, ncols } => {
                write!(f, "feature split {features} does not fit {ncols} columns")
            }
        }
    }
}

impl std::error::Error for AdmitError {}

/// What one job asks of the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSpec {
    /// Key of a dataset previously opened via
    /// [`DatasetService::open_dataset`].
    pub dataset: u64,
    /// Leading columns served as `x`; the rest are `y`.
    pub features: usize,
    /// Rows per batch.
    pub batch: usize,
    /// The job's shuffle seed (independent of every other job).
    pub seed: u64,
}

/// Lock-free per-job counters, shared between the job handle and its
/// background assembly tasks.
#[derive(Debug, Default)]
pub struct JobCounters {
    /// Shard acquires served from the resident pool.
    pub shard_hits: AtomicU64,
    /// Shard acquires that decoded from disk.
    pub shard_misses: AtomicU64,
    /// Bytes of shard data served to this job.
    pub bytes_served: AtomicU64,
    /// Times the consumer blocked on an unassembled batch.
    pub waits: AtomicU64,
    /// Total consumer blocked time, nanoseconds.
    pub wait_ns: AtomicU64,
    /// Batches delivered.
    pub batches: AtomicU64,
    /// Rows delivered.
    pub rows: AtomicU64,
}

/// A point-in-time snapshot of one job's isolation stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobStats {
    /// Shard acquires served from the resident pool.
    pub shard_hits: u64,
    /// Shard acquires that decoded from disk.
    pub shard_misses: u64,
    /// Bytes of shard data served to this job.
    pub bytes_served: u64,
    /// Times the consumer blocked on an unassembled batch.
    pub waits: u64,
    /// Total consumer blocked time, nanoseconds.
    pub wait_ns: u64,
    /// Batches delivered.
    pub batches: u64,
    /// Rows delivered.
    pub rows: u64,
}

impl JobStats {
    /// Total time the job's consumer spent blocked on the stream.
    pub fn wait_time(&self) -> Duration {
        Duration::from_nanos(self.wait_ns)
    }
}

/// Service-level job accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Jobs currently admitted.
    pub active_jobs: usize,
    /// Jobs admitted over the service lifetime.
    pub admitted: u64,
    /// Jobs rejected by admission control.
    pub rejected: u64,
    /// Datasets registered.
    pub datasets: usize,
}

struct RegisteredDataset {
    dataset: Arc<CachedDataset>,
    /// Largest decoded shard, bytes — the unit of admission control.
    max_shard_bytes: u64,
}

struct ServiceInner {
    datasets: HashMap<u64, RegisteredDataset>,
    active_jobs: usize,
    admitted: u64,
    rejected: u64,
    next_job_id: u64,
}

/// One shared data plane serving many concurrent training/HPO jobs.
pub struct DatasetService {
    config: ServiceConfig,
    store: CacheStore,
    pool: Arc<ShardPool>,
    workers: Arc<WorkerPool>,
    /// Serializes dataset opens so cold builds are single-flight.
    open_lock: Mutex<()>,
    inner: Mutex<ServiceInner>,
}

impl DatasetService {
    /// Opens (creating if needed) a service over the given configuration.
    pub fn new(config: ServiceConfig) -> Result<Arc<Self>, CacheError> {
        let store = CacheStore::new(&config.cache_root)?;
        Ok(Arc::new(Self {
            pool: ShardPool::new(config.pool_budget_bytes),
            workers: Arc::new(WorkerPool::new(config.threads.max(1))),
            store,
            open_lock: Mutex::new(()),
            inner: Mutex::new(ServiceInner {
                datasets: HashMap::new(),
                active_jobs: 0,
                admitted: 0,
                rejected: 0,
                next_job_id: 0,
            }),
            config,
        }))
    }

    /// The shared decoded-shard pool's counters.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Service-level job accounting.
    pub fn stats(&self) -> ServiceStats {
        let inner = self.inner.lock().unwrap();
        ServiceStats {
            active_jobs: inner.active_jobs,
            admitted: inner.admitted,
            rejected: inner.rejected,
            datasets: inner.datasets.len(),
        }
    }

    /// Opens (warm) or builds (cold, single-flight) the dataset cached
    /// under `key` and registers it for admission. Concurrent opens of the
    /// same key serialize: exactly one runs `build`, the rest warm-hit.
    /// A `build` that panics registers nothing, and the next open of `key`
    /// builds afresh.
    pub fn open_dataset(
        &self,
        key: u64,
        source_desc: &str,
        tag: &str,
        nshards: usize,
        build: impl FnOnce() -> Result<Frame, CacheError>,
    ) -> Result<CacheOutcome, CacheError> {
        // The caller's `build` runs under this guard, so a panicking build
        // poisons it; a `Mutex<()>` guards no state, so later opens go on.
        let _flight = self
            .open_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if self.inner.lock().unwrap().datasets.contains_key(&key) {
            return Ok(CacheOutcome::WarmHit {
                manifest_load: Duration::ZERO,
            });
        }
        let (dataset, outcome) = self
            .store
            .open_or_build(key, source_desc, tag, nshards, build)?;
        let max_shard_bytes = dataset
            .manifest()
            .shards
            .iter()
            // Decoded size: on-disk f64 columns become a resident f32
            // matrix, so memory is roughly half the shard file.
            .map(|s| (s.rows * dataset.ncols() * std::mem::size_of::<f32>()) as u64)
            .max()
            .unwrap_or(0);
        self.inner.lock().unwrap().datasets.insert(
            key,
            RegisteredDataset {
                dataset: Arc::new(dataset),
                max_shard_bytes,
            },
        );
        Ok(outcome)
    }

    /// Column count of a registered dataset.
    pub fn dataset_cols(&self, key: u64) -> Option<usize> {
        self.inner
            .lock()
            .unwrap()
            .datasets
            .get(&key)
            .map(|d| d.dataset.ncols())
    }

    /// Admits a job, or explains why it cannot run right now.
    pub fn admit(self: &Arc<Self>, spec: JobSpec) -> Result<JobHandle, AdmitError> {
        let mut inner = self.inner.lock().unwrap();
        let (dataset, max_shard_bytes) = match inner.datasets.get(&spec.dataset) {
            Some(r) => (Arc::clone(&r.dataset), r.max_shard_bytes),
            None => {
                inner.rejected += 1;
                return Err(AdmitError::UnknownDataset { key: spec.dataset });
            }
        };
        if spec.features >= dataset.ncols() {
            inner.rejected += 1;
            return Err(AdmitError::BadSplit {
                features: spec.features,
                ncols: dataset.ncols(),
            });
        }
        if inner.active_jobs >= self.config.max_jobs {
            inner.rejected += 1;
            return Err(AdmitError::Saturated {
                active: inner.active_jobs,
                max_jobs: self.config.max_jobs,
            });
        }
        // Minimum working set: a batch can straddle two shards, and the
        // stream keeps its look-ahead batches in flight — so the job needs
        // at least two resident shards' worth of budget headroom.
        let needed = max_shard_bytes * 2;
        if needed > self.pool.budget_bytes() {
            inner.rejected += 1;
            return Err(AdmitError::InsufficientBudget {
                needed,
                budget: self.pool.budget_bytes(),
            });
        }
        inner.active_jobs += 1;
        inner.admitted += 1;
        let id = inner.next_job_id;
        inner.next_job_id += 1;
        drop(inner);
        Ok(JobHandle {
            service: Arc::clone(self),
            dataset,
            spec,
            id,
            counters: Arc::new(JobCounters::default()),
        })
    }
}

impl std::fmt::Debug for DatasetService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("DatasetService")
            .field("root", &self.config.cache_root)
            .field("pool_budget_bytes", &self.config.pool_budget_bytes)
            .field("active_jobs", &stats.active_jobs)
            .field("datasets", &stats.datasets)
            .finish()
    }
}

/// One admitted job's handle onto the shared plane. Dropping it releases
/// the admission slot.
pub struct JobHandle {
    service: Arc<DatasetService>,
    dataset: Arc<CachedDataset>,
    spec: JobSpec,
    id: u64,
    counters: Arc<JobCounters>,
}

impl JobHandle {
    /// The service-assigned job id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The admitted spec.
    pub fn spec(&self) -> &JobSpec {
        &self.spec
    }

    /// Rows in the job's dataset.
    pub fn nrows(&self) -> usize {
        self.dataset.nrows()
    }

    /// Target columns (`ncols - features`).
    pub fn ycols(&self) -> usize {
        self.dataset.ncols() - self.spec.features
    }

    /// The stream of epoch `epoch`: batches in the job's seeded global
    /// shuffle order, assembled in the background with bounded look-ahead.
    /// Bit-identical for a given `(dataset, seed, epoch, batch)` whatever
    /// the thread count or neighbour load.
    pub fn epoch(&self, epoch: u64) -> EpochStream {
        EpochStream::new(self, StreamOrder::Shuffled { epoch })
    }

    /// The unshuffled stream (rows in storage order) — the bulk-load path
    /// the `candle` pipeline uses to materialize train/test tensors.
    pub fn sequential(&self) -> EpochStream {
        EpochStream::new(self, StreamOrder::Sequential)
    }

    /// Snapshot of this job's isolation stats.
    pub fn stats(&self) -> JobStats {
        let c = &self.counters;
        JobStats {
            shard_hits: c.shard_hits.load(Ordering::Relaxed),
            shard_misses: c.shard_misses.load(Ordering::Relaxed),
            bytes_served: c.bytes_served.load(Ordering::Relaxed),
            waits: c.waits.load(Ordering::Relaxed),
            wait_ns: c.wait_ns.load(Ordering::Relaxed),
            batches: c.batches.load(Ordering::Relaxed),
            rows: c.rows.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn dataset(&self) -> &Arc<CachedDataset> {
        &self.dataset
    }

    pub(crate) fn counters(&self) -> &Arc<JobCounters> {
        &self.counters
    }

    pub(crate) fn pool(&self) -> &Arc<ShardPool> {
        &self.service.pool
    }

    pub(crate) fn workers(&self) -> &Arc<WorkerPool> {
        &self.service.workers
    }
}

impl Drop for JobHandle {
    fn drop(&mut self) {
        self.service.inner.lock().unwrap().active_jobs -= 1;
    }
}
