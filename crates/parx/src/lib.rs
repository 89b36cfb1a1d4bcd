//! Parallel-execution substrate for the CANDLE reproduction.
//!
//! The heavy numeric kernels (`tensor`'s matmul/conv, `dataio`'s CSV parse)
//! need fork–join data parallelism, and the simulated Horovod workers in
//! `collectives` need long-lived threads. This crate provides:
//!
//! * [`parallel_for`] / [`parallel_map`] — scoped fork–join over index
//!   ranges, built directly on `std::thread::scope`, with work split into
//!   contiguous chunks (one per thread) so cache behaviour matches what an
//!   HPC programmer would hand-write;
//! * [`WorkerPool`] — a persistent pool with crossbeam channels for
//!   fire-and-forget tasks plus a `join` barrier, used where thread spawn
//!   cost would otherwise dominate (per-batch-step parallelism);
//! * [`Window`] — bounded, in-order background read-ahead on a
//!   `WorkerPool`: the data-loading/compute overlap `datacache` and
//!   `datapipe` both stream through;
//! * [`CountingAlloc`] — a per-thread counting allocator, so the
//!   zero-allocation tests of the kernels above cannot count each other.
//!
//! The design follows the "chunked parallel iterator" shape of rayon (see
//! the workspace coding guides) but is implemented in-tree: the reproduction
//! needs deterministic chunk boundaries so that numeric reductions are
//! bitwise reproducible for a fixed thread count.

mod alloc_count;
mod chunk;
mod pool;
mod scope;
mod window;

pub use alloc_count::{thread_allocs, CountingAlloc};
pub use chunk::{chunk_ranges, Chunk};
pub use pool::WorkerPool;
pub use scope::{parallel_for, parallel_for_grained, parallel_map, parallel_reduce};
pub use window::Window;

/// Returns the degree of parallelism used by default: the number of
/// available hardware threads, with a floor of one.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    #[test]
    fn default_threads_is_positive() {
        assert!(super::default_threads() >= 1);
    }
}
