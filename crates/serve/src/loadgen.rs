//! Deterministic closed-loop load generation.
//!
//! `clients` concurrent clients each submit their next request only after
//! the previous reply: throughput-oriented, with concurrency rather than
//! arrival rate as the control variable. Every feature row is drawn from
//! `xrng` as a pure function of `(seed, request index)`, so two runs
//! against the same model must produce bit-identical predictions —
//! summarized in an order-independent [`LoadReport::output_hash`] that
//! tests compare across batching configurations and worker counts.

use crate::{ServeError, ServeHandle};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use xrng::RandomSource;

/// The deterministic feature row for request `index` of stream `seed`:
/// `features` uniform draws in `[-1, 1)` from an independent substream.
pub fn request_row(seed: u64, index: u64, features: usize) -> Vec<f32> {
    let mut rng = xrng::seeded(xrng::derive_seed(seed, index));
    (0..features).map(|_| rng.next_f32() * 2.0 - 1.0).collect()
}

/// Closed-loop driver parameters.
#[derive(Debug, Clone)]
pub struct ClosedLoopConfig {
    /// Concurrent clients (threads).
    pub clients: usize,
    /// Requests each client issues sequentially.
    pub requests_per_client: usize,
    /// Feature width of every request row.
    pub features: usize,
    /// Workload seed (request rows are a pure function of it).
    pub seed: u64,
}

/// Outcome of one closed-loop run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadReport {
    /// Requests admitted by the engine.
    pub submitted: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Submissions shed with [`ServeError::Overloaded`].
    pub shed: u64,
    /// Requests that failed for any other reason.
    pub errors: u64,
    /// Driver wall-clock, seconds.
    pub elapsed_s: f64,
    /// Completed requests per second.
    pub throughput_rps: f64,
    /// Order-independent hash over `(request index, output bits)` of
    /// every completed request — equal hashes mean bit-identical served
    /// predictions for the same workload.
    pub output_hash: u64,
}

/// Hash of one completed request, mixed commutatively into the report
/// hash so completion order does not matter.
fn request_hash(index: u64, output: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ index.wrapping_mul(0x100_0000_01b3);
    for &v in output {
        h ^= v.to_bits() as u64;
        h = h.wrapping_mul(0x100_0000_01b3).rotate_left(17);
    }
    h
}

/// Runs a closed loop: each of `clients` threads keeps exactly one
/// request outstanding. Overloaded submissions are retried after a short
/// backoff (a closed loop cannot make progress by dropping work), with
/// each retry counted in [`LoadReport::shed`].
pub fn run_closed_loop(handle: &ServeHandle, cfg: &ClosedLoopConfig) -> LoadReport {
    assert!(cfg.clients >= 1, "closed loop needs at least one client");
    let completed = AtomicU64::new(0);
    let shed = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    let hash = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..cfg.clients {
            let handle = handle.clone();
            let (completed, shed, errors, hash) = (&completed, &shed, &errors, &hash);
            scope.spawn(move || {
                for k in 0..cfg.requests_per_client {
                    let index = (client * cfg.requests_per_client + k) as u64;
                    let row = request_row(cfg.seed, index, cfg.features);
                    loop {
                        match handle.predict(row.clone()) {
                            Ok(p) => {
                                completed.fetch_add(1, Ordering::Relaxed);
                                hash.fetch_add(request_hash(index, &p.output), Ordering::Relaxed);
                                break;
                            }
                            Err(ServeError::Overloaded { .. }) => {
                                shed.fetch_add(1, Ordering::Relaxed);
                                std::thread::sleep(Duration::from_micros(200));
                            }
                            Err(_) => {
                                errors.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                        }
                    }
                }
            });
        }
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let completed = completed.into_inner();
    LoadReport {
        submitted: completed + errors.load(Ordering::Relaxed),
        completed,
        shed: shed.into_inner(),
        errors: errors.into_inner(),
        elapsed_s,
        throughput_rps: if elapsed_s > 0.0 {
            completed as f64 / elapsed_s
        } else {
            0.0
        },
        output_hash: hash.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ServeConfig, ServeEngine};
    use dlframe::{Activation, Dense, Loss, Optimizer, Sequential};
    use std::sync::Arc;

    fn model(seed: u64) -> Arc<Sequential> {
        let mut rng = xrng::seeded(seed);
        let mut m = Sequential::new(seed);
        m.add(Box::new(Dense::new(6, 16, Activation::Relu, &mut rng)));
        m.add(Box::new(Dense::new(16, 3, Activation::Linear, &mut rng)));
        m.compile(Loss::SoftmaxCrossEntropy, Optimizer::sgd(0.1));
        Arc::new(m)
    }

    #[test]
    fn request_rows_are_pure_and_distinct() {
        assert_eq!(request_row(1, 0, 8), request_row(1, 0, 8));
        assert_ne!(request_row(1, 0, 8), request_row(1, 1, 8));
        assert_ne!(request_row(1, 0, 8), request_row(2, 0, 8));
        for v in request_row(3, 9, 64) {
            assert!((-1.0..1.0).contains(&v));
        }
    }

    #[test]
    fn closed_loop_completes_everything_deterministically() {
        let cfg = ClosedLoopConfig {
            clients: 4,
            requests_per_client: 25,
            features: 6,
            seed: 42,
        };
        let run = || {
            let engine = ServeEngine::start(model(11), ServeConfig::default());
            let r = run_closed_loop(&engine.handle(), &cfg);
            engine.shutdown();
            r
        };
        let a = run();
        let b = run();
        assert_eq!(a.completed, 100);
        assert_eq!(a.errors, 0);
        assert_eq!(
            a.output_hash, b.output_hash,
            "served outputs must be bit-identical"
        );
        assert!(a.throughput_rps > 0.0);
    }

    #[test]
    fn output_hash_is_order_independent_but_value_sensitive() {
        let a = request_hash(1, &[1.0, 2.0]).wrapping_add(request_hash(2, &[3.0]));
        let b = request_hash(2, &[3.0]).wrapping_add(request_hash(1, &[1.0, 2.0]));
        assert_eq!(a, b);
        assert_ne!(request_hash(1, &[1.0]), request_hash(1, &[-1.0]));
        assert_ne!(request_hash(1, &[1.0]), request_hash(2, &[1.0]));
    }
}
