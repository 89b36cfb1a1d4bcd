//! Parallel-execution substrate for the CANDLE reproduction.
//!
//! The heavy numeric kernels (`tensor`'s matmul/conv, `dataio`'s CSV parse)
//! need fork–join data parallelism, and the simulated Horovod workers in
//! `collectives` need long-lived threads. This crate provides:
//!
//! * [`parallel_each`] — the one fork–join: each item (a `chunks_mut`
//!   share of an output, a file span, a [`chunk_ranges`] block of an index
//!   range) on a scoped thread of its own, built directly on
//!   `std::thread::scope`, results in item order;
//! * [`kernel_threads`] / [`among_peers`] — how many ways a kernel call
//!   forks: all hardware threads, or the calling rank's share of them;
//! * [`WorkerPool`] — a persistent pool, one task queue under one lock,
//!   for fire-and-forget tasks plus a `join` barrier, used by the dataset
//!   service's batch assembly and the HPO trial runner;
//! * [`Window`] — bounded, in-order background read-ahead on a
//!   `WorkerPool`: the data-loading/compute overlap `datapipe`'s epoch
//!   streams run on;
//! * [`CountingAlloc`] — a per-thread counting allocator, so the
//!   zero-allocation tests of the kernels above cannot count each other;
//! * [`scratch`] — a temp directory unique per call and removed on drop,
//!   so tests on parallel threads cannot share (or delete) each other's
//!   files.
//!
//! Everything is in-tree on `std` alone. The caller, not a hidden grain
//! threshold, decides how work is split, so chunk boundaries are a pure
//! function of its inputs and numeric results are bitwise reproducible for
//! a fixed thread count.

mod alloc_count;
mod chunk;
mod pool;
mod scope;
mod scratch;
mod window;

pub use alloc_count::{thread_allocs, CountingAlloc};
pub use chunk::{chunk_ranges, Chunk};
pub use pool::WorkerPool;
pub use scope::parallel_each;
pub use scratch::{scratch, Scratch};
pub use window::Window;

use std::cell::Cell;
use std::sync::OnceLock;

/// Returns the degree of parallelism used by default: the number of
/// available hardware threads, with a floor of one.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

thread_local! {
    /// How many equal workers the calling thread shares the machine with
    /// (itself included); see [`among_peers`].
    static PEERS: Cell<usize> = const { Cell::new(1) };
}

/// The number of threads one fork–join kernel call made from this thread
/// should use: every hardware thread, or this thread's share of them when
/// it runs [`among_peers`]. The hardware count is resolved once.
pub fn kernel_threads() -> usize {
    static HARDWARE: OnceLock<usize> = OnceLock::new();
    let hardware = *HARDWARE.get_or_init(default_threads);
    (hardware / PEERS.get()).max(1)
}

/// Runs `f` as one of `peers` equal workers that compute side by side:
/// until it returns, [`kernel_threads`] on this thread is the hardware
/// thread count divided by `peers` (floor one). `n` ranks that each fork
/// every kernel call `hardware` ways put `n × hardware` runnable threads
/// on `hardware` cores and spawn a thread per call for no gain; with the
/// cores split, a world as wide as the machine forks nothing at all.
pub fn among_peers<R>(peers: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            PEERS.set(self.0);
        }
    }
    let _restore = Restore(PEERS.replace(peers.max(1)));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn peers_split_the_kernel_threads_and_the_split_ends_with_the_call() {
        let all = kernel_threads();
        assert_eq!(all, default_threads());
        among_peers(2, || {
            assert_eq!(kernel_threads(), (all / 2).max(1));
            // Nested worlds: the innermost share applies, then the outer
            // one comes back.
            among_peers(all * 4, || assert_eq!(kernel_threads(), 1));
            assert_eq!(kernel_threads(), (all / 2).max(1));
            // The share belongs to the thread that took it.
            std::thread::scope(|s| {
                s.spawn(|| assert_eq!(kernel_threads(), all));
            });
        });
        assert_eq!(kernel_threads(), all);
        // Zero peers is treated as one, and an unwinding body still ends
        // the split.
        among_peers(0, || assert_eq!(kernel_threads(), all));
        let caught = std::panic::catch_unwind(|| among_peers(all * 4, || panic!("rank died")));
        assert!(caught.is_err());
        assert_eq!(kernel_threads(), all);
    }
}
