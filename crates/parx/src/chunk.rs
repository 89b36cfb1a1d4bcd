//! Deterministic contiguous chunking of index ranges.
//!
//! [`chunk_ranges`] splits `0..n` into at most `k` contiguous chunks whose
//! sizes differ by at most one, ready to hand to [`crate::parallel_each`].
//! Determinism matters: floating-point reductions are only reproducible if
//! the partition is a pure function of `(n, k)`.

/// A contiguous index range assigned to one worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// Index of this chunk among the produced chunks.
    pub index: usize,
    /// First element index (inclusive).
    pub start: usize,
    /// One past the last element index.
    pub end: usize,
}

impl Chunk {
    /// Number of elements covered by the chunk.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True if the chunk covers no elements.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Splits `0..n` into at most `max_chunks` contiguous chunks of near-equal
/// size. Produces no empty chunks; returns fewer than `max_chunks` chunks
/// when `n < max_chunks`, and an empty vector when `n == 0`.
///
/// The first `n % k` chunks receive one extra element, mirroring the
/// balanced block distribution used in MPI codes.
///
/// # Panics
/// Panics if `max_chunks == 0`.
pub fn chunk_ranges(n: usize, max_chunks: usize) -> Vec<Chunk> {
    assert!(max_chunks > 0, "chunk_ranges: max_chunks must be positive");
    if n == 0 {
        return Vec::new();
    }
    let k = max_chunks.min(n);
    let base = n / k;
    let extra = n % k;
    let mut out = Vec::with_capacity(k);
    let mut start = 0;
    for index in 0..k {
        let len = base + usize::from(index < extra);
        out.push(Chunk {
            index,
            start,
            end: start + len,
        });
        start += len;
    }
    debug_assert_eq!(start, n);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn covers_range_exactly() {
        let chunks = chunk_ranges(10, 3);
        assert_eq!(chunks.len(), 3);
        assert_eq!(
            chunks[0],
            Chunk {
                index: 0,
                start: 0,
                end: 4
            }
        );
        assert_eq!(
            chunks[1],
            Chunk {
                index: 1,
                start: 4,
                end: 7
            }
        );
        assert_eq!(
            chunks[2],
            Chunk {
                index: 2,
                start: 7,
                end: 10
            }
        );
    }

    #[test]
    fn fewer_items_than_chunks() {
        let chunks = chunk_ranges(2, 8);
        assert_eq!(chunks.len(), 2);
        assert!(chunks.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn zero_items_gives_no_chunks() {
        assert!(chunk_ranges(0, 4).is_empty());
    }

    #[test]
    #[should_panic(expected = "max_chunks must be positive")]
    fn zero_chunks_panics() {
        chunk_ranges(10, 0);
    }

    #[test]
    fn single_chunk_covers_all() {
        let chunks = chunk_ranges(17, 1);
        assert_eq!(
            chunks,
            vec![Chunk {
                index: 0,
                start: 0,
                end: 17
            }]
        );
    }

    proptest! {
        #[test]
        fn partition_properties(n in 0usize..10_000, k in 1usize..64) {
            let chunks = chunk_ranges(n, k);
            // Full coverage, in order, no gaps or overlaps.
            let mut cursor = 0;
            for (i, c) in chunks.iter().enumerate() {
                prop_assert_eq!(c.index, i);
                prop_assert_eq!(c.start, cursor);
                prop_assert!(c.end > c.start);
                cursor = c.end;
            }
            prop_assert_eq!(cursor, n);
            // Balanced: sizes differ by at most one.
            if let (Some(max), Some(min)) = (
                chunks.iter().map(Chunk::len).max(),
                chunks.iter().map(Chunk::len).min(),
            ) {
                prop_assert!(max - min <= 1);
            }
            // Never more chunks than requested or than items.
            prop_assert!(chunks.len() <= k);
            prop_assert!(chunks.len() <= n.max(1));
        }
    }
}
