//! In-memory datasets and mini-batch iteration.

use tensor::Tensor;
use xrng::Rng;

/// A supervised dataset: feature rows `x` and target rows `y` with matching
/// sample counts.
#[derive(Debug, Clone)]
pub struct Dataset {
    x: Tensor,
    y: Tensor,
}

impl Dataset {
    /// Creates a dataset from features and targets.
    ///
    /// # Panics
    /// Panics if the leading (sample) dimensions differ.
    pub fn new(x: Tensor, y: Tensor) -> Self {
        let nx = x.shape().dims()[0];
        let ny = y.shape().dims()[0];
        assert_eq!(nx, ny, "x has {nx} samples but y has {ny}");
        Self { x, y }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.x.shape().dims()[0]
    }

    /// True if there are no samples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Feature tensor.
    pub fn x(&self) -> &Tensor {
        &self.x
    }

    /// Target tensor.
    pub fn y(&self) -> &Tensor {
        &self.y
    }

    /// Splits off the last `fraction` of samples as a held-out set.
    pub fn split(&self, fraction: f64) -> (Dataset, Dataset) {
        assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0,1]");
        let n = self.len();
        let n_val = ((n as f64) * fraction).round() as usize;
        let n_train = n - n_val;
        let train_idx: Vec<usize> = (0..n_train).collect();
        let val_idx: Vec<usize> = (n_train..n).collect();
        (
            Dataset::new(
                self.x.gather_rows(&train_idx),
                self.y.gather_rows(&train_idx),
            ),
            Dataset::new(self.x.gather_rows(&val_idx), self.y.gather_rows(&val_idx)),
        )
    }

    /// Returns the sample indices of each mini-batch for one epoch,
    /// optionally shuffled. A trailing partial batch is kept (Keras
    /// behaviour).
    pub fn batch_indices(&self, batch_size: usize, shuffle: Option<&mut Rng>) -> Vec<Vec<usize>> {
        assert!(batch_size > 0, "batch_size must be positive");
        let mut order: Vec<usize> = (0..self.len()).collect();
        if let Some(rng) = shuffle {
            xrng::shuffle(&mut order, rng);
        }
        order.chunks(batch_size).map(|c| c.to_vec()).collect()
    }

    /// Materializes the feature/target rows of one batch into caller-owned
    /// tensors, reusing their buffers. After the first batch of an epoch
    /// the gather is allocation-free.
    pub fn batch_into(&self, indices: &[usize], x_out: &mut Tensor, y_out: &mut Tensor) {
        self.x.gather_rows_into(indices, x_out);
        self.y.gather_rows_into(indices, y_out);
    }

    /// Returns the shard of samples assigned to `rank` of `nranks` under
    /// block partitioning — the data-parallel split used by the Horovod
    /// implementation.
    pub fn shard(&self, rank: usize, nranks: usize) -> Dataset {
        assert!(nranks > 0 && rank < nranks, "invalid rank {rank}/{nranks}");
        let chunks = parx::chunk_ranges(self.len(), nranks);
        let indices: Vec<usize> = chunks
            .get(rank)
            .map(|c| (c.start..c.end).collect())
            .unwrap_or_default();
        Dataset::new(self.x.gather_rows(&indices), self.y.gather_rows(&indices))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make(n: usize, fx: usize) -> Dataset {
        Dataset::new(
            Tensor::from_fn([n, fx], |i| i as f32),
            Tensor::from_fn([n, 1], |i| i as f32),
        )
    }

    #[test]
    fn batch_indices_cover_all_samples() {
        let d = make(10, 2);
        let batches = d.batch_indices(3, None);
        assert_eq!(batches.len(), 4);
        assert_eq!(batches[3].len(), 1);
        let mut all: Vec<usize> = batches.concat();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn shuffled_batches_are_permutation() {
        let d = make(50, 1);
        let mut rng = xrng::seeded(5);
        let batches = d.batch_indices(7, Some(&mut rng));
        let mut all: Vec<usize> = batches.concat();
        all.sort_unstable();
        assert_eq!(all, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn batch_materializes_rows() {
        let d = make(5, 2);
        let (mut x, mut y) = (Tensor::zeros([1, 1]), Tensor::zeros([1, 1]));
        d.batch_into(&[4, 0], &mut x, &mut y);
        assert_eq!(x.shape().dims(), &[2, 2]);
        assert_eq!(x.data(), &[8.0, 9.0, 0.0, 1.0]);
        assert_eq!(y.data(), &[4.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "samples")]
    fn mismatched_sample_counts_panic() {
        Dataset::new(Tensor::zeros([3, 2]), Tensor::zeros([4, 1]));
    }

    #[test]
    fn shard_partitions_evenly() {
        let d = make(10, 1);
        let total: usize = (0..3).map(|r| d.shard(r, 3).len()).sum();
        assert_eq!(total, 10);
        assert_eq!(d.shard(0, 3).len(), 4);
        assert_eq!(d.shard(2, 3).len(), 3);
        // Shards are disjoint and ordered.
        assert_eq!(d.shard(0, 3).x().at2(0, 0), 0.0);
        assert_eq!(d.shard(1, 3).x().at2(0, 0), 4.0);
    }

    #[test]
    fn shard_single_rank_is_identity() {
        let d = make(6, 2);
        let s = d.shard(0, 1);
        assert_eq!(s.x().data(), d.x().data());
    }

    #[test]
    #[should_panic(expected = "batch_size must be positive")]
    fn zero_batch_size_panics() {
        make(4, 1).batch_indices(0, None);
    }
}
