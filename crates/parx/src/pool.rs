//! Persistent worker pool.
//!
//! [`crate::parallel_each`] spawns threads per call, which is fine for
//! coarse work but too costly for a stream of small tasks. The
//! `WorkerPool` keeps `k` threads alive and feeds them boxed closures from
//! one queue under one lock; `join` is a barrier that waits until every
//! task submitted so far has finished.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Task = Box<dyn FnOnce() + Send + 'static>;

/// What the lock guards.
struct Queue {
    tasks: VecDeque<Task>,
    /// Tasks submitted but not yet finished (queued plus running).
    pending: usize,
    /// Set on drop: workers leave once `tasks` is empty.
    closed: bool,
}

/// What submitters, workers and joiners share.
struct Shared {
    queue: Mutex<Queue>,
    /// Signalled once per submitted task, and to every worker on close.
    work: Condvar,
    /// Signalled to every joiner when `pending` reaches zero.
    idle: Condvar,
    restarts: AtomicU64,
}

impl Shared {
    /// Runs tasks until the pool is closed and the queue drained. Tasks run
    /// outside the lock, so nothing under it can panic.
    fn worker_loop(&self) {
        let mut queue = self.queue.lock().unwrap();
        loop {
            queue = self
                .work
                .wait_while(queue, |q| q.tasks.is_empty() && !q.closed)
                .unwrap();
            let Some(task) = queue.tasks.pop_front() else {
                return;
            };
            drop(queue);
            // A panicking task must not take the worker down with it: that
            // would silently shrink the pool and leak the pending count,
            // hanging `join` forever. Catch the panic, count the restart,
            // and keep serving.
            if catch_unwind(AssertUnwindSafe(task)).is_err() {
                self.restarts.fetch_add(1, Ordering::Relaxed);
            }
            queue = self.queue.lock().unwrap();
            queue.pending -= 1;
            if queue.pending == 0 {
                self.idle.notify_all();
            }
        }
    }
}

/// A fixed-size pool of persistent worker threads.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Creates a pool with `size` threads.
    ///
    /// # Panics
    /// Panics if `size == 0`.
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "WorkerPool: size must be positive");
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                tasks: VecDeque::new(),
                pending: 0,
                closed: false,
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
            restarts: AtomicU64::new(0),
        });
        let workers = (0..size)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("parx-worker-{i}"))
                    .spawn(move || shared.worker_loop())
                    .expect("failed to spawn pool worker")
            })
            .collect();
        Self { shared, workers }
    }

    /// Number of worker threads.
    pub fn size(&self) -> usize {
        self.workers.len()
    }

    /// Number of times a worker recovered from a panicking task. Each
    /// recovery is logically a worker death + immediate restart; a healthy
    /// run reports zero.
    pub fn restarts(&self) -> u64 {
        self.shared.restarts.load(Ordering::Relaxed)
    }

    /// Tasks submitted but not yet finished (queued plus running) — the
    /// live queue-depth signal shared-service schedulers report.
    pub fn pending(&self) -> usize {
        self.shared.queue.lock().unwrap().pending
    }

    /// Submits a task for execution on some worker.
    pub fn submit<F: FnOnce() + Send + 'static>(&self, task: F) {
        let mut queue = self.shared.queue.lock().unwrap();
        queue.tasks.push_back(Box::new(task));
        queue.pending += 1;
        drop(queue);
        self.shared.work.notify_one();
    }

    /// Blocks until every submitted task has completed.
    pub fn join(&self) {
        let queue = self.shared.queue.lock().unwrap();
        drop(
            self.shared
                .idle
                .wait_while(queue, |q| q.pending > 0)
                .unwrap(),
        );
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the queue lets workers drain the remaining tasks and exit.
        self.shared.queue.lock().unwrap().closed = true;
        self.shared.work.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn executes_all_tasks() {
        let pool = WorkerPool::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..1000 {
            let c = Arc::clone(&counter);
            pool.submit(move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.join();
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
        assert_eq!(pool.pending(), 0, "join must drain the pending count");
    }

    #[test]
    fn concurrent_submitters_run_every_task_exactly_once() {
        const SUBMITTERS: usize = 4;
        const PER_SUBMITTER: usize = 250;
        let pool = WorkerPool::new(3);
        let runs: Arc<Vec<AtomicUsize>> = Arc::new(
            (0..SUBMITTERS * PER_SUBMITTER)
                .map(|_| AtomicUsize::new(0))
                .collect(),
        );
        std::thread::scope(|s| {
            for submitter in 0..SUBMITTERS {
                let (pool, runs) = (&pool, &runs);
                s.spawn(move || {
                    for k in 0..PER_SUBMITTER {
                        let id = submitter * PER_SUBMITTER + k;
                        let runs = Arc::clone(runs);
                        pool.submit(move || {
                            runs[id].fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        pool.join();
        for (id, n) in runs.iter().enumerate() {
            assert_eq!(n.load(Ordering::Relaxed), 1, "task {id}");
        }
        assert_eq!(pool.pending(), 0);
    }

    #[test]
    fn concurrent_joins_both_return() {
        let pool = WorkerPool::new(2);
        // One task held until both joiners are on their way into `join`.
        let (release, held) = std::sync::mpsc::channel::<()>();
        pool.submit(move || {
            let _ = held.recv();
        });
        let ready = std::sync::Barrier::new(3);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    ready.wait();
                    pool.join();
                });
            }
            ready.wait();
            release.send(()).unwrap();
        });
        assert_eq!(pool.pending(), 0);
    }

    #[test]
    fn join_with_no_tasks_returns_immediately() {
        let pool = WorkerPool::new(2);
        pool.join();
    }

    #[test]
    fn multiple_join_rounds() {
        let pool = WorkerPool::new(3);
        let counter = Arc::new(AtomicUsize::new(0));
        for round in 1..=5 {
            for _ in 0..10 {
                let c = Arc::clone(&counter);
                pool.submit(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
            pool.join();
            assert_eq!(counter.load(Ordering::Relaxed), round * 10);
        }
    }

    #[test]
    fn drop_waits_for_in_flight_tasks() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(2);
            for _ in 0..50 {
                let c = Arc::clone(&counter);
                pool.submit(move || {
                    std::thread::sleep(std::time::Duration::from_micros(100));
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
        }
        assert_eq!(counter.load(Ordering::Relaxed), 50);
    }

    #[test]
    #[should_panic(expected = "size must be positive")]
    fn zero_size_panics() {
        WorkerPool::new(0);
    }

    #[test]
    fn panicking_task_does_not_kill_worker() {
        let pool = WorkerPool::new(2);
        let counter = Arc::new(AtomicUsize::new(0));
        // Interleave panicking and healthy tasks; join must not hang and
        // every healthy task must still run.
        for i in 0..40 {
            let c = Arc::clone(&counter);
            pool.submit(move || {
                if i % 4 == 0 {
                    panic!("injected task failure {i}");
                }
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.join();
        assert_eq!(counter.load(Ordering::Relaxed), 30);
        assert_eq!(pool.restarts(), 10);
        // The pool stays fully usable afterwards.
        let c = Arc::clone(&counter);
        pool.submit(move || {
            c.fetch_add(1, Ordering::Relaxed);
        });
        pool.join();
        assert_eq!(counter.load(Ordering::Relaxed), 31);
    }

    #[test]
    fn tasks_run_on_pool_threads() {
        let pool = WorkerPool::new(2);
        let names = Arc::new(Mutex::new(Vec::new()));
        for _ in 0..8 {
            let names = Arc::clone(&names);
            pool.submit(move || {
                let name = std::thread::current().name().unwrap_or("").to_string();
                names.lock().unwrap().push(name);
            });
        }
        pool.join();
        let names = names.lock().unwrap();
        assert_eq!(names.len(), 8);
        assert!(names.iter().all(|n| n.starts_with("parx-worker-")));
    }
}
