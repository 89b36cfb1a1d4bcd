//! Bounded, in-order, background read-ahead.
//!
//! A [`Window`] computes `task(0), task(1), …, task(total - 1)` on a
//! caller-supplied [`WorkerPool`], keeps at most `depth` of them in flight
//! ahead of the consumer, and hands the results back strictly in index
//! order however the workers finish them. The bound is the backpressure: a
//! slow consumer never holds more than `depth` finished items, and a fast
//! one learns from every `next` whether, and for how long, it had to
//! block. `datapipe::EpochStream` is this loop with "assemble batch `i`"
//! as the task.

use crate::WorkerPool;
use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An ordered stream of `task(i)` results computed up to `depth` ahead.
pub struct Window<T> {
    pool: Arc<WorkerPool>,
    task: Arc<dyn Fn(usize) -> T + Send + Sync>,
    total: usize,
    /// Next index to hand to the consumer.
    next_pos: usize,
    /// Indices submitted to the pool so far.
    submitted: usize,
    /// Completions received back from the pool so far.
    completed: usize,
    depth: usize,
    max_in_flight: usize,
    tx: Sender<(usize, T)>,
    rx: Receiver<(usize, T)>,
    /// Out-of-order completions parked until their index comes up.
    parked: HashMap<usize, T>,
}

impl<T: Send + 'static> Window<T> {
    /// Starts computing `task(0..total)` on `pool`, `depth` at a time.
    /// `task` must not panic: the pool swallows the panic and the item's
    /// slot would never arrive.
    ///
    /// # Panics
    /// Panics if `depth == 0`.
    pub fn new(
        pool: Arc<WorkerPool>,
        total: usize,
        depth: usize,
        task: impl Fn(usize) -> T + Send + Sync + 'static,
    ) -> Self {
        assert!(depth > 0, "window depth must be positive");
        let (tx, rx) = channel();
        let mut window = Self {
            pool,
            task: Arc::new(task),
            total,
            next_pos: 0,
            submitted: 0,
            completed: 0,
            depth,
            max_in_flight: 0,
            tx,
            rx,
            parked: HashMap::new(),
        };
        window.fill_window();
        window
    }

    /// Tasks submitted whose completion has not been received yet.
    pub fn in_flight(&self) -> usize {
        self.submitted - self.completed
    }

    /// High-water mark of [`Window::in_flight`]; at most `depth`.
    pub fn max_in_flight(&self) -> usize {
        self.max_in_flight
    }

    /// Completions received from the workers so far.
    pub fn completed(&self) -> usize {
        self.completed
    }

    /// Keeps `depth` tasks in flight.
    fn fill_window(&mut self) {
        while self.submitted < self.total && self.submitted < self.next_pos + self.depth {
            let pos = self.submitted;
            self.submitted += 1;
            let task = Arc::clone(&self.task);
            let tx = self.tx.clone();
            self.pool.submit(move || {
                // The consumer may have been dropped mid-stream; that just
                // discards the item.
                let _ = tx.send((pos, task(pos)));
            });
        }
        self.max_in_flight = self.max_in_flight.max(self.in_flight());
    }

    /// Blocks until the completion for `pos` arrives, parking any
    /// out-of-order completions received in the meantime.
    fn wait_for(&mut self, pos: usize) -> T {
        loop {
            let (got_pos, item) = self
                .rx
                .recv()
                .expect("the window holds a sender, so the channel cannot close");
            self.completed += 1;
            if got_pos == pos {
                return item;
            }
            self.parked.insert(got_pos, item);
        }
    }
}

/// Yields each item in index order with how long the call blocked on an
/// unfinished task (`None` when the item was already there).
impl<T: Send + 'static> Iterator for Window<T> {
    type Item = (T, Option<Duration>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.next_pos >= self.total {
            return None;
        }
        let pos = self.next_pos;
        // Drain without blocking first: an item that finished before the
        // consumer asked counts as ready.
        while let Ok((got_pos, item)) = self.rx.try_recv() {
            self.completed += 1;
            self.parked.insert(got_pos, item);
        }
        let out = match self.parked.remove(&pos) {
            Some(item) => (item, None),
            None => {
                let start = Instant::now();
                let item = self.wait_for(pos);
                (item, Some(start.elapsed()))
            }
        };
        self.next_pos += 1;
        self.fill_window();
        Some(out)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.total - self.next_pos;
        (left, Some(left))
    }
}
