//! Background prefetching: decode shard *k+1* on pool workers while the
//! consumer is busy with shard *k*.
//!
//! The related work's data-loading pipelines overlap ingest with compute;
//! here that is a [`Prefetcher`]: a [`parx::Window`] on a small private
//! [`parx::WorkerPool`] with a bounded look-ahead (`depth`, default 2 —
//! double buffering). The iterator yields shards strictly in order with
//! their training-ready [`Tensor`] view, and counts how often the next shard
//! was already decoded (`ready_hits`) versus how long the consumer had to
//! block (`waits`, `wait_time`) — the numbers the pipeline's phase profile
//! reports.

use crate::store::CachedDataset;
use crate::CacheError;
use dataio::Frame;
use parx::{Window, WorkerPool};
use std::sync::Arc;
use std::time::Duration;
use tensor::Tensor;

/// Look-ahead window used by the convenience constructors: decode one
/// shard ahead of the consumer (double buffering).
pub const DEFAULT_DEPTH: usize = 2;

/// One decoded shard, ready for training.
pub struct Prefetched {
    /// Shard index in the manifest.
    pub index: usize,
    /// Row offset of the shard in the source frame.
    pub start_row: usize,
    /// The decoded rows.
    pub frame: Frame,
    /// Dense `[rows, cols]` f32 view of the shard.
    pub tensor: Tensor,
}

/// Counters describing how well prefetching hid decode latency.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchStats {
    /// Shards that were already decoded when the consumer asked.
    pub ready_hits: usize,
    /// Times the consumer had to block on an in-flight decode (stalls).
    pub waits: usize,
    /// Total time the consumer spent blocked, in nanoseconds.
    pub wait_ns: u128,
    /// Shards decoded by the background workers.
    pub decoded: usize,
    /// Configured look-ahead window (the queue-depth bound).
    pub depth: usize,
    /// High-water mark of decodes in flight at once; at most `depth`.
    pub max_in_flight: usize,
}

impl PrefetchStats {
    /// Total time the consumer spent blocked.
    pub fn wait_time(&self) -> Duration {
        Duration::from_nanos(self.wait_ns.min(u64::MAX as u128) as u64)
    }

    /// Fraction of consumer asks that stalled on an unfinished decode —
    /// 0.0 means the look-ahead fully hid decode latency.
    pub fn stall_fraction(&self) -> f64 {
        let asks = self.ready_hits + self.waits;
        if asks == 0 {
            0.0
        } else {
            self.waits as f64 / asks as f64
        }
    }
}

/// An ordered, background-decoded iterator over a dataset's shards.
pub struct Prefetcher {
    window: Window<Result<Prefetched, CacheError>>,
    total: usize,
    stats: PrefetchStats,
}

impl Prefetcher {
    /// Prefetches the shard indices in `order` with `depth` decodes in
    /// flight on `threads` pool workers.
    ///
    /// # Panics
    /// Panics if `depth == 0` or `threads == 0`.
    pub fn with_order(
        dataset: Arc<CachedDataset>,
        order: Vec<usize>,
        depth: usize,
        threads: usize,
    ) -> Self {
        let total = order.len();
        let pool = Arc::new(WorkerPool::new(threads));
        let window = Window::new(pool, total, depth, move |pos| decode(&dataset, order[pos]));
        Self {
            window,
            total,
            stats: PrefetchStats {
                depth,
                ..PrefetchStats::default()
            },
        }
    }

    /// Prefetches every shard in manifest order (double-buffered).
    pub fn all(dataset: Arc<CachedDataset>) -> Self {
        let order: Vec<usize> = (0..dataset.nshards()).collect();
        Self::with_order(dataset, order, DEFAULT_DEPTH, 2)
    }

    /// Prefetches the shards assigned to `rank` of `nranks`
    /// (double-buffered) — a rank's warm-start read stream.
    pub fn for_rank(dataset: Arc<CachedDataset>, rank: usize, nranks: usize) -> Self {
        let order = dataset.rank_shards(rank, nranks);
        Self::with_order(dataset, order, DEFAULT_DEPTH, 2)
    }

    /// Counters accumulated so far (final after the iterator is drained).
    pub fn stats(&self) -> PrefetchStats {
        PrefetchStats {
            decoded: self.window.completed(),
            max_in_flight: self.window.max_in_flight(),
            ..self.stats
        }
    }

    /// Shards this prefetcher will yield.
    pub fn len_total(&self) -> usize {
        self.total
    }

    /// Decodes currently in flight on the background workers (submitted,
    /// completion not yet received) — the live queue depth.
    pub fn in_flight(&self) -> usize {
        self.window.in_flight()
    }
}

/// Loads shard `shard_index` and builds its training-ready tensor view.
fn decode(dataset: &CachedDataset, shard_index: usize) -> Result<Prefetched, CacheError> {
    let frame = dataset.load_shard(shard_index)?;
    let tensor = Tensor::from_vec([frame.nrows(), frame.ncols()], frame.to_f32_matrix())
        .map_err(|e| CacheError::Corrupt(format!("shard tensor shape: {e:?}")))?;
    let start_row = dataset
        .manifest()
        .shards
        .get(shard_index)
        .map(|s| s.start_row)
        .unwrap_or(0);
    Ok(Prefetched {
        index: shard_index,
        start_row,
        frame,
        tensor,
    })
}

impl Iterator for Prefetcher {
    type Item = Result<Prefetched, CacheError>;

    fn next(&mut self) -> Option<Self::Item> {
        let (item, blocked) = self.window.next()?;
        match blocked {
            None => self.stats.ready_hits += 1,
            Some(wait) => {
                self.stats.waits += 1;
                self.stats.wait_ns += wait.as_nanos();
            }
        }
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.window.size_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::CacheStore;
    use dataio::{generate, read_csv, write_csv_dataset, ClassSpec, ReadStrategy, SyntheticSpec};

    fn cached_dataset(
        name: &str,
        rows: usize,
        nshards: usize,
    ) -> (parx::Scratch, Arc<CachedDataset>) {
        let root = parx::scratch(&format!("datacache_pf_{name}")).expect("scratch dir");
        std::fs::create_dir_all(root.join("src")).unwrap();
        let csv = root.join("src/data.csv");
        let spec = SyntheticSpec {
            rows,
            cols: 8,
            kind: ClassSpec::Classification {
                classes: 3,
                separation: 1.0,
            },
            noise: 0.4,
            seed: 21,
        };
        write_csv_dataset(&csv, &generate(&spec)).unwrap();
        let store = CacheStore::new(root.join("cache")).unwrap();
        let (ds, _) = store
            .open_csv(&csv, ReadStrategy::ChunkedLowMemory, nshards)
            .unwrap();
        (root, Arc::new(ds))
    }

    #[test]
    fn yields_all_shards_in_order_and_matches_direct_load() {
        let (_root, ds) = cached_dataset("order", 90, 5);
        let mut frames = Vec::new();
        let mut last_index = None;
        let pf = Prefetcher::all(Arc::clone(&ds));
        for item in pf {
            let got = item.unwrap();
            if let Some(prev) = last_index {
                assert!(got.index > prev, "shards must arrive in order");
            }
            assert_eq!(
                got.tensor.shape().dims(),
                &[got.frame.nrows(), got.frame.ncols()]
            );
            last_index = Some(got.index);
            frames.push(got.frame);
        }
        assert_eq!(frames.len(), 5);
        let reassembled = Frame::concat(frames).unwrap();
        assert_eq!(reassembled, ds.load_all().unwrap());
    }

    #[test]
    fn stats_account_for_every_shard() {
        let (_root, ds) = cached_dataset("stats", 60, 6);
        let mut pf = Prefetcher::all(Arc::clone(&ds));
        let mut n = 0;
        for item in pf.by_ref() {
            item.unwrap();
            n += 1;
            // A slow consumer gives the double buffer time to fill.
            std::thread::sleep(Duration::from_millis(5));
        }
        let stats = pf.stats();
        assert_eq!(n, 6);
        assert_eq!(stats.ready_hits + stats.waits, 6);
        assert_eq!(stats.decoded, 6);
        assert!(
            stats.ready_hits > 0,
            "a slow consumer should find prefetched shards ready: {stats:?}"
        );
        assert_eq!(stats.depth, DEFAULT_DEPTH);
        assert!(
            stats.max_in_flight >= 1 && stats.max_in_flight <= stats.depth,
            "in-flight high-water mark must stay inside the window: {stats:?}"
        );
        assert_eq!(pf.in_flight(), 0, "a drained prefetcher has nothing queued");
        assert!(stats.stall_fraction() <= 1.0);
    }

    #[test]
    fn rank_streams_partition_the_dataset() {
        let (_root, ds) = cached_dataset("ranks", 80, 8);
        let mut all_rows = 0;
        let mut seen_shards = Vec::new();
        for rank in 0..3 {
            for item in Prefetcher::for_rank(Arc::clone(&ds), rank, 3) {
                let got = item.unwrap();
                all_rows += got.frame.nrows();
                seen_shards.push(got.index);
            }
        }
        seen_shards.sort_unstable();
        assert_eq!(seen_shards, (0..8).collect::<Vec<_>>());
        assert_eq!(all_rows, ds.nrows());
    }

    #[test]
    fn corruption_surfaces_as_error_not_panic() {
        let (_root, ds) = cached_dataset("corrupt", 40, 4);
        // Corrupt shard 2 on disk after the manifest was loaded.
        let entry = &ds.manifest().shards[2];
        let path = ds.dir().join(&entry.file);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let results: Vec<_> = Prefetcher::all(Arc::clone(&ds)).collect();
        assert_eq!(results.len(), 4);
        assert!(results[0].is_ok());
        assert!(results[2].is_err(), "corrupt shard must yield an error");
    }

    #[test]
    fn csv_parse_and_warm_prefetch_agree() {
        let (root, ds) = cached_dataset("agree", 70, 3);
        let (direct, _) = read_csv(&root.join("src/data.csv"), ReadStrategy::ChunkedLowMemory)
            .map_err(|e| panic!("{e}"))
            .unwrap();
        let frames: Vec<Frame> = Prefetcher::all(Arc::clone(&ds))
            .map(|r| r.unwrap().frame)
            .collect();
        assert_eq!(Frame::concat(frames).unwrap(), direct);
    }
}
