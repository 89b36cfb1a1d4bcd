//! Properties of [`parx::Window`], the bounded read-ahead loop that
//! `datapipe::EpochStream` streams through.

use parx::{Window, WorkerPool};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex};
use std::time::Duration;

const POOL_SIZES: [usize; 3] = [1, 2, 4];

/// What `task(pos)` must deliver: an error at every `err_every`-th index.
fn expected(pos: usize, err_every: usize) -> Result<usize, String> {
    if pos % err_every == err_every - 1 {
        Err(format!("task {pos} failed"))
    } else {
        Ok(pos * 7 + 1)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Items arrive strictly in index order although tasks finish out of
    /// order, a task error is delivered at its own index, and no task
    /// starts more than `depth` ahead of what the consumer has asked for.
    #[test]
    fn in_order_bounded_and_errors_in_place(
        total in 0usize..40,
        depth in 1usize..6,
        err_every in 2usize..9,
        seed in 0u64..1_000_000,
    ) {
        for threads in POOL_SIZES {
            let pool = Arc::new(WorkerPool::new(threads));
            let asked = Arc::new(AtomicUsize::new(0));
            let too_far_ahead = Arc::new(AtomicUsize::new(0));
            // With two workers and two slots, task 0 refuses to finish
            // until task 1 has: completion order is then forced to differ
            // from index order, not just likely to.
            let force = threads >= 2 && depth >= 2 && total >= 2;
            let (one_done_tx, one_done_rx) = channel::<()>();
            let one_done_tx = Mutex::new(one_done_tx);
            let one_done_rx = Mutex::new(one_done_rx);
            let (asked2, ahead2) = (Arc::clone(&asked), Arc::clone(&too_far_ahead));
            let mut window = Window::new(Arc::clone(&pool), total, depth, move |pos| {
                if pos >= asked2.load(Ordering::SeqCst) + depth {
                    ahead2.fetch_add(1, Ordering::SeqCst);
                }
                if force && pos == 0 {
                    one_done_rx.lock().unwrap().recv().unwrap();
                }
                // Seeded jitter shuffles the completion order further.
                let jitter = (seed.wrapping_mul(0x9E37_79B9).wrapping_add(pos as u64 * 31)) % 4;
                std::thread::sleep(Duration::from_micros(jitter * 150));
                let out = expected(pos, err_every);
                if force && pos == 1 {
                    one_done_tx.lock().unwrap().send(()).unwrap();
                }
                out
            });
            for pos in 0..total {
                asked.fetch_add(1, Ordering::SeqCst);
                prop_assert!(window.in_flight() <= depth);
                let (item, _blocked) = window.next().expect("stream ended early");
                prop_assert!(item == expected(pos, err_every), "item {pos}, {threads} workers");
            }
            prop_assert!(window.next().is_none());
            prop_assert_eq!(window.completed(), total);
            prop_assert_eq!(window.in_flight(), 0);
            prop_assert!(window.max_in_flight() <= depth);
            prop_assert!(
                too_far_ahead.load(Ordering::SeqCst) == 0,
                "a task started beyond the window, {threads} workers"
            );
            prop_assert_eq!(pool.restarts(), 0);
        }
    }

    /// Dropping the consumer mid-stream discards the unfinished items: the
    /// pool drains, nothing panics, and the pool keeps serving.
    #[test]
    fn dropping_the_consumer_mid_stream_leaves_the_pool_healthy(
        total in 1usize..40,
        depth in 1usize..6,
        taken_frac in 0.0f64..1.0,
    ) {
        for threads in POOL_SIZES {
            let pool = Arc::new(WorkerPool::new(threads));
            let mut window = Window::new(Arc::clone(&pool), total, depth, |pos| {
                std::thread::sleep(Duration::from_micros(100));
                pos
            });
            let taken = (total as f64 * taken_frac) as usize;
            for pos in 0..taken {
                prop_assert_eq!(window.next().map(|(item, _)| item), Some(pos));
            }
            drop(window);
            pool.join();
            prop_assert!(pool.restarts() == 0, "a task panicked after the consumer left");
            let ran = Arc::new(AtomicUsize::new(0));
            let ran2 = Arc::clone(&ran);
            pool.submit(move || {
                ran2.fetch_add(1, Ordering::SeqCst);
            });
            pool.join();
            prop_assert_eq!(ran.load(Ordering::SeqCst), 1);
        }
    }
}
