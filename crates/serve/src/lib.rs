//! `serve` — a batched inference serving engine for trained
//! [`dlframe::Sequential`] models.
//!
//! The paper's central lesson is that end-to-end performance is set by the
//! pipeline *around* the model (its §4–5 attribute most CANDLE runtime to
//! `read_csv`, not training math). Serving has the same shape: a single
//! request's forward pass is cheap, so throughput is determined by how
//! requests are queued, coalesced and handed back. This crate provides that
//! pipeline:
//!
//! * a **bounded submission queue** — [`ServeHandle::submit`] fails fast
//!   with [`ServeError::Overloaded`] once the number of in-flight requests
//!   reaches the configured capacity (load shedding instead of unbounded
//!   memory growth and collapse);
//! * **work-conserving micro-batching** — the engine's workers share one
//!   queue; each blocks for a first request, takes whatever else is
//!   already queued up to `max_batch` rows and runs the batch itself,
//!   never holding it open for more. A request waits only for a busy
//!   worker, and a loaded server's batches fill on their own — the queue
//!   builds exactly when amortizing per-forward overhead pays;
//! * **shared replicas, one reply slot per request** — batched forward
//!   passes run on an immutable `Arc<Sequential>` (enabled by `dlframe`'s
//!   `predict(&self)` inference path), so no weight copies and no locks
//!   on the hot path; a [`Ticket`] is a one-shot slot the worker fills,
//!   and a warm worker allocates nothing per batch but its reply rows;
//! * **latency SLO instrumentation** — per-request end-to-end latency,
//!   per-request queue wait and per-batch forward time are recorded into
//!   [`obs::LogHistogram`]s and reported as [`obs::LatencySummary`]s
//!   (p50/p95/p99/max) together with an optional SLO violation counter;
//! * **timeline integration** — each batch emits `enqueue_wait` and
//!   `batch_forward` spans to an [`obs::Timeline`], viewable in
//!   `chrome://tracing` exactly like the training-side traces;
//! * a **deterministic load generator** — a closed-loop driver seeded
//!   from `xrng`, with an order-independent output hash so tests can
//!   assert served predictions are bit-identical across batch sizes and
//!   worker counts.
//!
//! Everything in the batch path preserves bit-exactness: `tensor`'s
//! matmul accumulates each output row independently of the batch's other
//! rows, so a row served in a 16-row batch equals the same row served
//! alone, which equals a direct [`dlframe::Sequential::predict`] call.

mod engine;
mod loadgen;
mod stats;
#[cfg(test)]
mod test_gate;

pub use engine::{Prediction, ServeConfig, ServeEngine, ServeHandle, Ticket};
pub use loadgen::{request_row, run_closed_loop, ClosedLoopConfig, LoadReport};
pub use stats::ServeReport;

use dlframe::DlError;

/// Errors surfaced by the serving engine.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The bounded submission queue is at capacity; the request was shed
    /// without being enqueued. Clients may retry after backoff.
    Overloaded {
        /// In-flight depth observed at rejection time.
        depth: usize,
        /// Configured in-flight capacity.
        capacity: usize,
    },
    /// The engine is shutting down (or has shut down) and no longer
    /// accepts or answers requests.
    ShuttingDown,
    /// The request was malformed (e.g. feature width differs from the
    /// rest of its batch's — and therefore the model's — input width).
    BadRequest(String),
    /// The model rejected the batched forward pass.
    Model(DlError),
    /// The worker executing this request's batch died mid-batch (e.g. an
    /// injected fault). The worker itself restarts and the engine keeps
    /// serving; clients may safely retry.
    WorkerCrashed,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { depth, capacity } => {
                write!(
                    f,
                    "overloaded: {depth} in-flight requests (capacity {capacity})"
                )
            }
            ServeError::ShuttingDown => write!(f, "serving engine is shutting down"),
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServeError::Model(e) => write!(f, "model error: {e}"),
            ServeError::WorkerCrashed => {
                write!(f, "worker crashed mid-batch; retry after the restart")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<DlError> for ServeError {
    fn from(e: DlError) -> Self {
        ServeError::Model(e)
    }
}
