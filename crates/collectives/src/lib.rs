//! `collectives` — a Horovod-style distributed data-parallel runtime.
//!
//! Horovod layers MPI/NCCL collectives (allreduce, broadcast, allgather)
//! under TensorFlow by wrapping the optimizer. This crate reproduces that
//! architecture with **simulated workers as OS threads** and **real
//! collective algorithms** over point-to-point mailboxes:
//!
//! * [`ring_allreduce`] — the bandwidth-optimal ring algorithm NCCL uses
//!   (reduce-scatter + allgather, `2(n−1)/n` data volume per rank);
//! * [`exchange_allreduce`] — the same sum, bit for bit, in one exchange
//!   instead of `2(n−1)` rounds: what [`Communicator::allreduce_sum`]
//!   takes while the payload is small enough for latency to dominate, as
//!   NCCL switches protocol by message size;
//! * [`naive_allreduce`] — reduce-to-root + broadcast, kept as the ablation
//!   baseline;
//! * [`Communicator::broadcast`] — binomial-tree broadcast, as
//!   `MPI_Bcast` implements it (the paper's `BroadcastGlobalVariablesHook`
//!   path);
//! * [`FusionPlan`] — Horovod's tensor-fusion batching of small tensors
//!   into larger collective payloads;
//! * [`DistributedOptimizer`] — implements `dlframe::GradientSync` by
//!   averaging gradients across all ranks after every batch step, exactly
//!   where Horovod splices its allreduce;
//! * [`AsyncBucketedOptimizer`] — the overlapped variant of the same
//!   engine: each bucket is posted to the peers the moment backward
//!   completes it and folded on the rank's own thread once they have
//!   posted theirs, Horovod's layer-by-layer fused allreduce (see
//!   `overlap` module docs for the bit-identity contract);
//! * optional per-collective spans on an [`obs::Timeline`], the Chrome-trace
//!   format of the Horovod timeline shown in the paper's Figures 7, 12
//!   and 19.
//!
//! The transport is in-process rather than MPI — one bounded FIFO of
//! recycled slot buffers per ordered pair of ranks, read in place by the
//! receiving collective (`comm` module docs) — but the communication
//! *pattern* — who sends what to whom and in what order — matches the real
//! systems, which is what the paper's analysis depends on. Every
//! collective reaches the wire through `post`, `recv_with` (`peek_with` +
//! `release`) and `alive` only; a second backend is a `trait` over those
//! away. Nothing on the gradient-sync path allocates after its first step
//! (`tests/alloc_sync.rs`).

mod comm;
mod fusion;
mod hierarchical;
mod optimizer;
mod overlap;
mod ring;
mod world;

pub use comm::{CommStats, Communicator, DEFAULT_PEER_TIMEOUT};
pub use fusion::{FusionPlan, DEFAULT_FUSION_THRESHOLD_BYTES};
pub use hierarchical::hierarchical_allreduce;
pub use optimizer::DistributedOptimizer;
pub use overlap::{AsyncBucketedOptimizer, OverlapStats};
pub use ring::{exchange_allreduce, naive_allreduce, ring_allreduce};
pub use world::{broadcast_parameters, run_workers, run_workers_owned};

/// Errors from collective operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// A peer disconnected mid-collective (worker panicked).
    PeerLost { rank: usize },
    /// Collective called with inconsistent buffer sizes across ranks.
    SizeMismatch { expected: usize, actual: usize },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::PeerLost { rank } => write!(f, "peer rank {rank} disconnected"),
            CommError::SizeMismatch { expected, actual } => {
                write!(
                    f,
                    "collective size mismatch: expected {expected}, got {actual}"
                )
            }
        }
    }
}

impl std::error::Error for CommError {}
