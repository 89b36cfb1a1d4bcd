//! The byte-budgeted shared shard pool.
//!
//! Every admitted job reads decoded shards out of one process-wide pool
//! instead of holding a private copy, so N concurrent trainings over the
//! same dataset cost one decode per shard, not N. The pool enforces a hard
//! byte budget with LRU eviction, with two safety properties:
//!
//! * **leases** — a shard handed to a job is refcounted; an in-use shard is
//!   never evicted, no matter how cold its LRU position. Eviction only ever
//!   considers fully released shards.
//! * **single-flight decode** — when two jobs miss on the same shard at
//!   once, one decodes and the other waits on the pool's condvar; the shard
//!   is decoded exactly once.
//!
//! Per-job attribution rides along: [`acquire`](ShardPool::acquire) takes
//! the job's counter block and charges the hit/miss/bytes to it, which is
//! what the isolation stats in the `candle` phase profiler and the
//! `table_datapipe` experiment report.

use crate::service::JobCounters;
use datacache::{CacheError, CachedDataset};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use tensor::Tensor;

/// One decoded, training-ready shard resident in the pool.
pub struct PoolShard {
    /// Row offset of the shard in the source frame.
    pub start_row: usize,
    /// Rows in this shard.
    pub rows: usize,
    /// Columns per row.
    pub ncols: usize,
    /// Dense row-major `[rows, ncols]` f32 view.
    pub data: Tensor,
}

impl PoolShard {
    /// Resident bytes of the decoded shard (the f32 matrix dominates).
    pub fn resident_bytes(&self) -> u64 {
        (self.rows * self.ncols * std::mem::size_of::<f32>()) as u64
    }
}

/// Pool-wide counters, snapshotted by [`ShardPool::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Acquires served from a resident shard.
    pub hits: u64,
    /// Acquires that had to decode (including waiting on another job's
    /// in-flight decode).
    pub misses: u64,
    /// Shards evicted to stay inside the byte budget.
    pub evictions: u64,
    /// Bytes decoded into the pool over its lifetime.
    pub bytes_loaded: u64,
    /// Bytes handed to jobs (each acquire counts its shard once).
    pub bytes_served: u64,
    /// Bytes resident right now.
    pub resident_bytes: u64,
    /// High-water mark of resident bytes.
    pub peak_resident_bytes: u64,
}

enum Slot {
    /// Another acquire is decoding this shard; wait on the condvar.
    Loading,
    Ready {
        shard: Arc<PoolShard>,
        leases: usize,
        last_use: u64,
    },
}

struct Inner {
    slots: HashMap<(u64, u32), Slot>,
    clock: u64,
    stats: PoolStats,
}

/// A byte-budgeted, lease-refcounted cache of decoded shards shared by
/// every job the service admits.
pub struct ShardPool {
    budget: u64,
    inner: Mutex<Inner>,
    changed: Condvar,
}

impl ShardPool {
    /// Creates a pool that evicts LRU released shards beyond
    /// `budget_bytes`.
    pub fn new(budget_bytes: u64) -> Arc<Self> {
        Arc::new(Self {
            budget: budget_bytes,
            inner: Mutex::new(Inner {
                slots: HashMap::new(),
                clock: 0,
                stats: PoolStats::default(),
            }),
            changed: Condvar::new(),
        })
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> u64 {
        self.budget
    }

    /// Current pool counters.
    pub fn stats(&self) -> PoolStats {
        self.inner.lock().unwrap().stats
    }

    /// Leases shard `shard_index` of `dataset` (keyed by `dataset_key`),
    /// decoding it into the pool on a miss. `job` is charged for the
    /// access. The returned lease pins the shard until dropped.
    pub fn acquire(
        self: &Arc<Self>,
        dataset_key: u64,
        dataset: &CachedDataset,
        shard_index: u32,
        job: Option<&JobCounters>,
    ) -> Result<ShardLease, CacheError> {
        let key = (dataset_key, shard_index);
        let mut inner = self.inner.lock().unwrap();
        loop {
            inner.clock += 1;
            let now = inner.clock;
            match inner.slots.get_mut(&key) {
                Some(Slot::Ready {
                    shard,
                    leases,
                    last_use,
                }) => {
                    *leases += 1;
                    *last_use = now;
                    let shard = Arc::clone(shard);
                    let bytes = shard.resident_bytes();
                    inner.stats.hits += 1;
                    inner.stats.bytes_served += bytes;
                    if let Some(job) = job {
                        job.shard_hits.fetch_add(1, Ordering::Relaxed);
                        job.bytes_served.fetch_add(bytes, Ordering::Relaxed);
                    }
                    return Ok(ShardLease {
                        pool: Arc::clone(self),
                        key,
                        shard,
                    });
                }
                Some(Slot::Loading) => {
                    // Single-flight: someone else is decoding this shard.
                    inner = self.changed.wait(inner).unwrap();
                }
                None => {
                    inner.slots.insert(key, Slot::Loading);
                    inner.stats.misses += 1;
                    if let Some(job) = job {
                        job.shard_misses.fetch_add(1, Ordering::Relaxed);
                    }
                    drop(inner);
                    let decoded = decode_shard(dataset, shard_index);
                    let mut inner = self.inner.lock().unwrap();
                    match decoded {
                        Ok(shard) => {
                            let shard = Arc::new(shard);
                            let bytes = shard.resident_bytes();
                            inner.clock += 1;
                            let last_use = inner.clock;
                            inner.slots.insert(
                                key,
                                Slot::Ready {
                                    shard: Arc::clone(&shard),
                                    leases: 1,
                                    last_use,
                                },
                            );
                            inner.stats.bytes_loaded += bytes;
                            inner.stats.bytes_served += bytes;
                            inner.stats.resident_bytes += bytes;
                            inner.stats.peak_resident_bytes = inner
                                .stats
                                .peak_resident_bytes
                                .max(inner.stats.resident_bytes);
                            if let Some(job) = job {
                                job.bytes_served.fetch_add(bytes, Ordering::Relaxed);
                            }
                            Self::evict_to_budget(&mut inner, self.budget);
                            self.changed.notify_all();
                            return Ok(ShardLease {
                                pool: Arc::clone(self),
                                key,
                                shard,
                            });
                        }
                        Err(e) => {
                            // Clear the placeholder so a later acquire can
                            // retry (e.g. after the shard is repaired).
                            inner.slots.remove(&key);
                            self.changed.notify_all();
                            return Err(e);
                        }
                    }
                }
            }
        }
    }

    /// Evicts least-recently-used *released* shards until resident bytes
    /// fit the budget. Leased and in-flight shards are never candidates;
    /// if every resident shard is leased the pool stays over budget (the
    /// overshoot shows up in `peak_resident_bytes`).
    fn evict_to_budget(inner: &mut Inner, budget: u64) {
        while inner.stats.resident_bytes > budget {
            let victim = inner
                .slots
                .iter()
                .filter_map(|(k, slot)| match slot {
                    Slot::Ready {
                        leases: 0,
                        last_use,
                        shard,
                    } => Some((*k, *last_use, shard.resident_bytes())),
                    _ => None,
                })
                .min_by_key(|&(_, last_use, _)| last_use);
            let Some((key, _, bytes)) = victim else { break };
            inner.slots.remove(&key);
            inner.stats.resident_bytes -= bytes;
            inner.stats.evictions += 1;
        }
    }

    fn release(&self, key: (u64, u32)) {
        let mut inner = self.inner.lock().unwrap();
        if let Some(Slot::Ready { leases, .. }) = inner.slots.get_mut(&key) {
            *leases -= 1;
            if *leases == 0 {
                Self::evict_to_budget(&mut inner, self.budget);
            }
        }
    }
}

impl std::fmt::Debug for ShardPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("ShardPool")
            .field("budget", &self.budget)
            .field("stats", &stats)
            .finish()
    }
}

/// Loads shard `index` from disk and shapes it for serving.
fn decode_shard(dataset: &CachedDataset, index: u32) -> Result<PoolShard, CacheError> {
    let frame = dataset.load_shard(index as usize)?;
    let start_row = dataset
        .manifest()
        .shards
        .get(index as usize)
        .map(|s| s.start_row)
        .unwrap_or(0);
    let (rows, ncols) = (frame.nrows(), frame.ncols());
    let data = Tensor::from_vec([rows, ncols], frame.to_f32_matrix())
        .map_err(|e| CacheError::Corrupt(format!("shard tensor shape: {e:?}")))?;
    Ok(PoolShard {
        start_row,
        rows,
        ncols,
        data,
    })
}

/// A refcount on one resident shard: while any lease is alive, the shard
/// cannot be evicted. Dropping the lease releases the refcount (and may
/// trigger deferred eviction if the pool is over budget).
pub struct ShardLease {
    pool: Arc<ShardPool>,
    key: (u64, u32),
    shard: Arc<PoolShard>,
}

impl ShardLease {
    /// The leased shard.
    pub fn shard(&self) -> &PoolShard {
        &self.shard
    }
}

impl Drop for ShardLease {
    fn drop(&mut self) {
        self.pool.release(self.key);
    }
}
