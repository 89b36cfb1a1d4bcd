//! Per-job streaming epoch iterators with bounded-queue backpressure.
//!
//! An [`EpochStream`] yields a job's batches strictly in order while
//! assembling up to `QUEUE_DEPTH` batches ahead on the service's shared
//! [`parx::WorkerPool`] through a [`parx::Window`]. The bounded window is
//! the backpressure: a slow consumer never accumulates
//! more than `QUEUE_DEPTH` assembled batches of memory, and a fast
//! consumer's blocked time is counted per job (`waits`, `wait_ns`).
//!
//! Batch contents are a pure function of `(dataset, seed, epoch, batch
//! size)`: the gather order comes from the seeded Feistel permutation and
//! every task writes a disjoint batch, so the stream is bit-identical
//! across worker thread counts and regardless of what the other N−1 jobs
//! are doing to the shared pool.

use crate::permute::EpochPermutation;
use crate::pool::ShardLease;
use crate::service::JobHandle;
use datacache::CacheError;
use parx::Window;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use tensor::Tensor;

/// Bounded look-ahead per job stream: at most this many batches are in
/// flight or parked ahead of the consumer (double buffering).
const QUEUE_DEPTH: usize = 2;

/// How an epoch walks the rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamOrder {
    /// Rows in storage order (bulk materialization).
    Sequential,
    /// The job's seeded global shuffle for `epoch`.
    Shuffled {
        /// Epoch index keying the permutation.
        epoch: u64,
    },
}

/// One assembled training batch.
pub struct Batch {
    /// Batch position within the epoch (0-based).
    pub index: usize,
    /// `[rows, features]` inputs.
    pub x: Tensor,
    /// `[rows, ycols]` targets.
    pub y: Tensor,
}

/// Everything a background assembly task needs: the immutable slice of a
/// [`JobHandle`] plus the epoch's permutation.
struct AssembleCtx {
    perm: Option<EpochPermutation>,
    pool: Arc<crate::pool::ShardPool>,
    dataset: Arc<datacache::CachedDataset>,
    dataset_key: u64,
    counters: Arc<crate::service::JobCounters>,
    features: usize,
    batch: usize,
    nrows: usize,
    ncols: usize,
    /// `start_row` of each shard, ascending — batch assembly locates the
    /// shard owning a global row by partition point.
    shard_starts: Vec<usize>,
}

/// An ordered, background-assembled iterator over one job's epoch.
pub struct EpochStream {
    window: Window<Result<Batch, CacheError>>,
    counters: Arc<crate::service::JobCounters>,
}

impl EpochStream {
    pub(crate) fn new(job: &JobHandle, order: StreamOrder) -> Self {
        let nrows = job.nrows();
        let spec = *job.spec();
        let perm = match order {
            StreamOrder::Sequential => None,
            StreamOrder::Shuffled { epoch } => {
                Some(EpochPermutation::for_job_epoch(nrows, spec.seed, epoch))
            }
        };
        let ctx = AssembleCtx {
            perm,
            pool: Arc::clone(job.pool()),
            dataset: Arc::clone(job.dataset()),
            dataset_key: spec.dataset,
            counters: Arc::clone(job.counters()),
            features: spec.features,
            batch: spec.batch.max(1),
            nrows,
            ncols: job.dataset().ncols(),
            shard_starts: job
                .dataset()
                .manifest()
                .shards
                .iter()
                .map(|s| s.start_row)
                .collect(),
        };
        let total = nrows.div_ceil(ctx.batch);
        // The bounded window is the backpressure bound.
        Self {
            counters: Arc::clone(job.counters()),
            window: Window::new(Arc::clone(job.workers()), total, QUEUE_DEPTH, move |pos| {
                assemble(&ctx, pos)
            }),
        }
    }
}

impl Iterator for EpochStream {
    type Item = Result<Batch, CacheError>;

    fn next(&mut self) -> Option<Self::Item> {
        let (item, blocked) = self.window.next()?;
        let counters = &self.counters;
        if let Some(wait) = blocked {
            counters.waits.fetch_add(1, Ordering::Relaxed);
            counters
                .wait_ns
                .fetch_add(wait.as_nanos() as u64, Ordering::Relaxed);
        }
        if let Ok(batch) = &item {
            counters.batches.fetch_add(1, Ordering::Relaxed);
            counters
                .rows
                .fetch_add(batch.x.shape().dims()[0] as u64, Ordering::Relaxed);
        }
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.window.size_hint()
    }
}

/// Gathers batch `pos`: maps each slot through the permutation, leases
/// the owning shards from the shared pool (one lease per shard per
/// batch), and copies rows into fresh x/y tensors.
fn assemble(job: &AssembleCtx, pos: usize) -> Result<Batch, CacheError> {
    let start = pos * job.batch;
    let end = (start + job.batch).min(job.nrows);
    let rows = end - start;
    let ycols = job.ncols - job.features;
    let mut x = vec![0f32; rows * job.features];
    let mut y = vec![0f32; rows * ycols];
    let mut leases: Vec<Option<ShardLease>> = Vec::new();
    leases.resize_with(job.shard_starts.len(), || None);
    for (k, slot) in (start..end).enumerate() {
        let row = match &job.perm {
            Some(p) => p.apply(slot),
            None => slot,
        };
        let shard_idx = job.shard_starts.partition_point(|&s| s <= row) - 1;
        if leases[shard_idx].is_none() {
            leases[shard_idx] = Some(job.pool.acquire(
                job.dataset_key,
                &job.dataset,
                shard_idx as u32,
                Some(&job.counters),
            )?);
        }
        let shard = leases[shard_idx].as_ref().expect("just acquired").shard();
        let local = row - shard.start_row;
        let src = &shard.data.data()[local * job.ncols..(local + 1) * job.ncols];
        x[k * job.features..(k + 1) * job.features].copy_from_slice(&src[..job.features]);
        y[k * ycols..(k + 1) * ycols].copy_from_slice(&src[job.features..]);
    }
    let x = Tensor::from_vec([rows, job.features], x)
        .map_err(|e| CacheError::Corrupt(format!("batch x shape: {e:?}")))?;
    let y = Tensor::from_vec([rows, ycols], y)
        .map_err(|e| CacheError::Corrupt(format!("batch y shape: {e:?}")))?;
    Ok(Batch { index: pos, x, y })
}
