//! `resil` — deterministic fault injection, checkpoint/restore, and
//! elastic recovery for the simulated large-scale training pipeline.
//!
//! The paper's energy argument is stated for *complete* runs: a
//! multi-hour CANDLE job on Summit bills every joule from `read_csv` to
//! the final evaluation. At 1,500+ node scale, failures are routine, and
//! a crash near the end of an un-checkpointed run pays that whole bill
//! twice. This crate closes the reproduction's resilience gap with three
//! pieces, all deterministic under a fixed seed:
//!
//! * [`plan`] — a seeded [`FaultPlan`]: the schedule of injected faults
//!   (worker crashes at epoch boundaries, corrupted cache shards) is a
//!   pure function of `(seed, spec)`, so every failure experiment is
//!   replayable and its recovery outcome is asserted, not eyeballed.
//! * [`ckpt`] — [`CheckpointManager`]: periodic snapshots of the full
//!   training state — model weights, optimizer slots, learning rate,
//!   epoch counter, and the exact position of **every** `xrng` stream
//!   (per-rank shuffle and dropout generators) — in a checksummed,
//!   atomically written binary format (`RCP1`, sibling of `datacache`'s
//!   `CDS1` shards) with rotation and corruption-detecting load.
//! * [`recovery`] — [`run_resilient`]: the driver wiring both into the
//!   `candle` data-parallel pipeline. Training proceeds epoch by epoch
//!   through real `collectives` ring-allreduce workers; at a planned
//!   crash the replicas are torn down, the latest checkpoint restored,
//!   and training resumes. Because the checkpoint captures every random
//!   stream, the interrupted-and-resumed run finishes with **bit-exactly
//!   the same weights** as an uninterrupted one — the correctness claim
//!   the integration tests pin across seeds and fault points.
//! * [`elastic`] — survivor-side recovery without a restore: a rank
//!   announces its death in a final allgather and the remaining workers
//!   continue on a [`collectives::Communicator::shrink`]-renumbered
//!   world, with gradient averaging automatically re-scaled to the
//!   smaller worker count.
//! * [`summit`] — the modelled counterpart: `cluster`'s calibrated
//!   Summit simulation prices restart-from-scratch against
//!   resume-from-checkpoint in wall time and joules
//!   (`RunReport::failure_recovery`), which `experiments::table_resil`
//!   tabulates.
//! * [`store`] — [`TrialStore`]: per-trial checkpoint chains under one
//!   root with uniform `keep_last_n` retention, so a fleet of hundreds
//!   of paused hyperparameter trials holds a bounded disk footprint
//!   while every trial keeps an intact resume point.
//! * [`inject`] — disk-level fault injection for the dataset cache:
//!   deterministic shard byte-flips that `datacache` must answer with
//!   typed `Corrupt` errors, plus the evict-and-rebuild recovery path.

pub mod ckpt;
pub mod elastic;
pub mod inject;
pub mod plan;
pub mod recovery;
pub mod store;
pub mod summit;

pub use ckpt::{CheckpointManager, TrainState};
pub use elastic::{run_elastic, ElasticOutcome, ElasticSpec};
pub use inject::{apply_shard_faults, corrupt_shard, evict_if_corrupt, scan_shards};
pub use plan::{FaultEvent, FaultKind, FaultPlan, FaultSpec};
pub use recovery::{run_resilient, RecoveryEvent, ResilOutcome, ResilSpec};
pub use store::TrialStore;
pub use summit::{summit_recovery_sweep, SummitRecoveryRow};

/// Errors from checkpointing, fault injection, and resilient training.
#[derive(Debug, Clone, PartialEq)]
pub enum ResilError {
    /// Underlying I/O failure (checkpoint directory, shard files).
    Io(String),
    /// A checkpoint or shard failed validation (bad magic, a version no
    /// build wrote, checksum mismatch, truncation).
    Corrupt(String),
    /// An intact checkpoint in a format version an earlier build wrote,
    /// which this build does not read.
    Version { found: u16, supported: u16 },
    /// The training pipeline itself failed.
    Train(String),
}

impl std::fmt::Display for ResilError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResilError::Io(msg) => write!(f, "resilience io error: {msg}"),
            ResilError::Corrupt(msg) => write!(f, "corrupt checkpoint: {msg}"),
            ResilError::Version { found, supported } => write!(
                f,
                "unsupported checkpoint version {found} (this build reads {supported})"
            ),
            ResilError::Train(msg) => write!(f, "resilient training failed: {msg}"),
        }
    }
}

impl std::error::Error for ResilError {}

impl From<std::io::Error> for ResilError {
    fn from(e: std::io::Error) -> Self {
        ResilError::Io(e.to_string())
    }
}

impl From<datacache::format::Malformed> for ResilError {
    fn from(e: datacache::format::Malformed) -> Self {
        ResilError::Corrupt(e.0)
    }
}

/// Order-sensitive FNV-1a hash of a parameter vector's exact bit
/// patterns. Two models hash equal iff their weights are bit-identical —
/// the currency of every resume-correctness assertion in this crate.
pub fn hash_params(params: &[f32]) -> u64 {
    use datacache::format::{fnv1a64_extend, FNV_OFFSET};
    let mut h = FNV_OFFSET;
    for &p in params {
        h = fnv1a64_extend(h, &p.to_bits().to_le_bytes());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_distinguishes_bit_patterns() {
        let a = hash_params(&[1.0, 2.0, 3.0]);
        assert_eq!(a, hash_params(&[1.0, 2.0, 3.0]));
        // One ULP away must hash differently.
        assert_ne!(
            a,
            hash_params(&[1.0, 2.0, f32::from_bits(3.0f32.to_bits() ^ 1)])
        );
        // Order matters.
        assert_ne!(a, hash_params(&[3.0, 2.0, 1.0]));
        // Signed zeros are distinct bit patterns.
        assert_ne!(hash_params(&[0.0]), hash_params(&[-0.0]));
    }

    #[test]
    fn error_display() {
        assert!(ResilError::Corrupt("bad magic".into())
            .to_string()
            .contains("bad magic"));
        let io: ResilError = std::io::Error::other("disk").into();
        assert!(matches!(io, ResilError::Io(_)));
    }
}
