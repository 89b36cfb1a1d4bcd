//! Scoped fork–join helpers.
//!
//! These are the workhorses behind the numeric kernels. Each call splits an
//! index range into contiguous chunks (one per thread) and runs the body on
//! scoped threads, so borrows of surrounding data work without `Arc`.
//! For small ranges the helpers degrade to a sequential loop — spawn cost
//! would otherwise swamp the work (see the perf-book guidance on
//! parallelization thresholds).

use crate::chunk::{chunk_ranges, Chunk};

/// Minimum number of items per spawned thread before parallelism pays off.
/// Below `threads * MIN_ITEMS_PER_THREAD` items the helpers run sequentially.
const MIN_ITEMS_PER_THREAD: usize = 256;

/// Runs `body(chunk)` for every chunk of `0..n`, in parallel across up to
/// `threads` scoped threads.
///
/// The chunk partition is a pure function of `(n, threads)`, so side effects
/// that are chunk-local (e.g. writing disjoint slices) are deterministic.
pub fn parallel_for<F>(n: usize, threads: usize, body: F)
where
    F: Fn(Chunk) + Sync,
{
    assert!(threads > 0, "parallel_for: threads must be positive");
    if n == 0 {
        return;
    }
    let chunks = chunk_ranges(n, threads);
    if chunks.len() == 1 || n < threads * MIN_ITEMS_PER_THREAD {
        for c in chunks {
            body(c);
        }
        return;
    }
    std::thread::scope(|scope| {
        // First chunk runs on the calling thread; the rest are spawned.
        let (first, rest) = chunks.split_first().expect("nonempty by construction");
        let handles: Vec<_> = rest
            .iter()
            .map(|&c| {
                scope.spawn({
                    let body = &body;
                    move || body(c)
                })
            })
            .collect();
        body(*first);
        for h in handles {
            h.join().expect("parallel_for worker panicked");
        }
    });
}

/// Like [`parallel_for`], but with an explicit grain: the thread count is
/// *reduced* (rather than falling back to fully sequential) until every
/// chunk holds at least `min_items_per_thread` items, and the sequential
/// path runs without any heap allocation.
///
/// Unlike [`parallel_for`], the chunk partition depends on the effective
/// thread count, so callers must only use bodies whose results do not
/// depend on how `0..n` is grouped (e.g. disjoint-slice writes where each
/// index's output is computed independently). The GEMM engine in `tensor`
/// is the intended caller: its row panels are independent by construction.
pub fn parallel_for_grained<F>(n: usize, threads: usize, min_items_per_thread: usize, body: F)
where
    F: Fn(Chunk) + Sync,
{
    assert!(threads > 0, "parallel_for_grained: threads must be positive");
    if n == 0 {
        return;
    }
    let grain = min_items_per_thread.max(1);
    let t = threads.min((n / grain).max(1));
    if t == 1 {
        // Allocation-free sequential path (no `chunk_ranges` Vec).
        body(Chunk {
            index: 0,
            start: 0,
            end: n,
        });
        return;
    }
    let chunks = chunk_ranges(n, t);
    std::thread::scope(|scope| {
        let (first, rest) = chunks.split_first().expect("nonempty by construction");
        let handles: Vec<_> = rest
            .iter()
            .map(|&c| {
                scope.spawn({
                    let body = &body;
                    move || body(c)
                })
            })
            .collect();
        body(*first);
        for h in handles {
            h.join().expect("parallel_for_grained worker panicked");
        }
    });
}

/// Runs `body(i, item)` for every item on a scoped thread of its own — the
/// first on the calling thread — and returns the results in item order.
///
/// This is the fork–join for a handful of coarse tasks that each *own*
/// their input (a `&mut` byte range of a read buffer, a worker's
/// `split_at_mut` share of the output columns): no grain threshold, one
/// thread per item, so the caller decides the fan-out by how it groups the
/// work. A single item runs inline with no thread machinery at all.
pub fn parallel_each<T, R, F>(items: impl IntoIterator<Item = T>, body: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let mut items = items.into_iter().enumerate();
    let Some((_, first)) = items.next() else {
        return Vec::new();
    };
    let Some(second) = items.next() else {
        return vec![body(0, first)];
    };
    std::thread::scope(|scope| {
        let body = &body;
        let handles: Vec<_> = std::iter::once(second)
            .chain(items)
            .map(|(i, item)| scope.spawn(move || body(i, item)))
            .collect();
        let mut out = vec![body(0, first)];
        out.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("parallel_each worker panicked")),
        );
        out
    })
}

/// Maps `f` over `0..n` in parallel and collects results in index order.
pub fn parallel_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    assert!(threads > 0, "parallel_map: threads must be positive");
    let chunks = chunk_ranges(n, threads);
    if chunks.len() <= 1 || n < threads * MIN_ITEMS_PER_THREAD {
        return (0..n).map(f).collect();
    }
    let parts = parallel_each(chunks, |_, c| (c.start..c.end).map(&f).collect::<Vec<T>>());
    parts.into_iter().flatten().collect()
}

/// Reduces `0..n` in parallel: each chunk folds locally with `fold`, then
/// the per-chunk partials are combined **in chunk order** with `combine`.
///
/// Combining in chunk order keeps floating-point reductions reproducible for
/// a fixed `(n, threads)` pair.
pub fn parallel_reduce<T, Fold, Combine>(
    n: usize,
    threads: usize,
    identity: T,
    fold: Fold,
    combine: Combine,
) -> T
where
    T: Send + Clone,
    Fold: Fn(T, usize) -> T + Sync,
    Combine: Fn(T, T) -> T,
{
    if n == 0 {
        return identity;
    }
    let chunks = chunk_ranges(n, threads);
    let partials: Vec<T> = if chunks.len() == 1 || n < threads * MIN_ITEMS_PER_THREAD {
        chunks
            .iter()
            .map(|c| (c.start..c.end).fold(identity.clone(), &fold))
            .collect()
    } else {
        let fold = &fold;
        std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .iter()
                .map(|&c| {
                    let id = identity.clone();
                    scope.spawn(move || (c.start..c.end).fold(id, fold))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("parallel_reduce worker panicked"))
                .collect()
        })
    };
    partials.into_iter().fold(identity, combine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn parallel_for_touches_every_index_once() {
        let n = 10_000;
        let counters: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(n, 8, |chunk| {
            for c in &counters[chunk.start..chunk.end] {
                c.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_zero_items_is_noop() {
        parallel_for(0, 4, |_| panic!("must not be called"));
    }

    #[test]
    fn parallel_for_grained_touches_every_index_once() {
        for (n, threads, grain) in [(10_000, 8, 1), (100, 8, 64), (7, 4, 1), (1, 16, 256)] {
            let counters: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            parallel_for_grained(n, threads, grain, |chunk| {
                for c in &counters[chunk.start..chunk.end] {
                    c.fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(
                counters.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                "missed index for n={n} threads={threads} grain={grain}"
            );
        }
    }

    #[test]
    fn parallel_for_grained_caps_threads_by_grain() {
        // 100 items with grain 64 admit only one full-grain chunk, so the
        // body must see the whole range as a single chunk.
        let calls = AtomicUsize::new(0);
        parallel_for_grained(100, 8, 64, |chunk| {
            calls.fetch_add(1, Ordering::Relaxed);
            assert_eq!((chunk.start, chunk.end), (0, 100));
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn parallel_each_hands_every_item_to_one_worker_and_keeps_order() {
        // Each worker owns a disjoint `&mut` share of one buffer.
        let mut data = vec![0u32; 10];
        let sums = parallel_each(data.chunks_mut(3), |i, part| {
            part.fill(i as u32 + 1);
            part.len()
        });
        assert_eq!(sums, vec![3, 3, 3, 1]);
        assert_eq!(data, vec![1, 1, 1, 2, 2, 2, 3, 3, 3, 4]);
        // Zero and one item never reach the thread scope.
        assert_eq!(parallel_each(Vec::<u8>::new(), |_, x| x), Vec::<u8>::new());
        assert_eq!(parallel_each([7u8], |i, x| (i, x)), vec![(0, 7)]);
    }

    #[test]
    #[should_panic(expected = "parallel_each worker panicked")]
    fn parallel_each_propagates_a_worker_panic() {
        parallel_each(0..3, |i, _| assert_ne!(i, 2, "worker 2 dies"));
    }

    #[test]
    fn parallel_map_preserves_order() {
        // 5000 = 7 * 714 + 2 and 2003 = 4 * 500 + 3: the leading chunks
        // are one item longer than the rest.
        let v = parallel_map(5000, 7, |i| i * 3);
        assert_eq!(v, (0..5000).map(|i| i * 3).collect::<Vec<_>>());
        // Owned, non-`Copy` items leave their chunk intact and in order.
        let s = parallel_map(2003, 4, |i| format!("item-{i}"));
        assert_eq!(
            s,
            (0..2003).map(|i| format!("item-{i}")).collect::<Vec<_>>()
        );
    }

    #[test]
    fn parallel_map_small_input_sequential_path() {
        let v = parallel_map(3, 16, |i| i + 1);
        assert_eq!(v, vec![1, 2, 3]);
    }

    #[test]
    fn parallel_reduce_sums_like_sequential() {
        let n = 100_000;
        let par = parallel_reduce(n, 8, 0u64, |acc, i| acc + i as u64, |a, b| a + b);
        let seq: u64 = (0..n as u64).sum();
        assert_eq!(par, seq);
    }

    #[test]
    fn parallel_reduce_float_deterministic_for_fixed_threads() {
        let n = 50_000;
        let run = || parallel_reduce(n, 6, 0.0f64, |acc, i| acc + (i as f64).sqrt(), |a, b| a + b);
        let bits_a = run().to_bits();
        let bits_b = run().to_bits();
        assert_eq!(bits_a, bits_b);
    }

    #[test]
    fn parallel_reduce_empty_returns_identity() {
        let r = parallel_reduce(0, 4, 42u32, |acc, _| acc + 1, |a, b| a + b);
        assert_eq!(r, 42);
    }

    #[test]
    #[should_panic(expected = "threads must be positive")]
    fn zero_threads_panics() {
        parallel_for(10, 0, |_| {});
    }
}
