//! Seeded fault schedules.
//!
//! A resilience experiment is only an *experiment* if the failure it
//! recovers from is reproducible. [`FaultPlan::generate`] draws the whole
//! schedule — which epochs fail, which rank dies, which cache shard rots —
//! from a dedicated `xrng` stream, so the plan is a pure function of
//! `(seed, spec)`: same seed, same faults, same recovery outcome, and the
//! integration tests can assert all three.

use datacache::format::{fnv1a64_extend, FNV_OFFSET};
use std::collections::BTreeSet;
use xrng::RandomSource;

/// What kind of fault strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Rank `rank` dies at an epoch boundary. The job is gang-scheduled
    /// (one dead replica stalls every allreduce), so the whole run tears
    /// down and [`crate::run_resilient`] restores the latest checkpoint.
    WorkerCrash {
        /// The dying rank.
        rank: usize,
    },
    /// Shard `shard` of the dataset cache is corrupted on disk (a flipped
    /// bit); the next read must surface `datacache`'s typed checksum
    /// error, and recovery is evict-and-rebuild (see [`crate::inject`]).
    ShardCorruption {
        /// The corrupted shard index.
        shard: usize,
    },
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Epoch boundary at which the fault strikes (the fault fires just
    /// before this epoch is trained).
    pub epoch: usize,
    /// What happens.
    pub kind: FaultKind,
}

/// Parameters for [`FaultPlan::generate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Seed of the fault stream (independent of the training seed, so
    /// the same training run can be replayed under different weather).
    pub seed: u64,
    /// Epoch horizon: faults are scheduled in `0..epochs`.
    pub epochs: usize,
    /// World size crash victims are drawn from.
    pub workers: usize,
    /// Number of worker crashes to schedule (at distinct epochs).
    pub crashes: usize,
    /// Shard count corruption targets are drawn from (0 disables).
    pub shards: usize,
    /// Number of shard corruptions to schedule.
    pub corruptions: usize,
}

/// A deterministic, epoch-ordered schedule of faults.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan: a healthy run.
    pub fn none() -> Self {
        Self::default()
    }

    /// Builds a plan from explicit events (sorted by epoch).
    pub fn manual(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.epoch);
        Self { events }
    }

    /// Draws a schedule from the spec's seed. Crash epochs are distinct
    /// (one teardown per epoch boundary is the interesting case; two
    /// crashes at one boundary collapse into one teardown anyway).
    ///
    /// # Panics
    /// Panics if more crashes are requested than epochs exist, or if
    /// corruptions are requested with zero shards.
    pub fn generate(spec: &FaultSpec) -> Self {
        assert!(
            spec.crashes <= spec.epochs,
            "cannot schedule {} crashes in {} epochs",
            spec.crashes,
            spec.epochs
        );
        assert!(
            spec.corruptions == 0 || spec.shards > 0,
            "shard corruptions need a shard count"
        );
        let mut rng = xrng::seeded(xrng::derive_seed(spec.seed, 0xFA17));
        let mut crash_epochs = BTreeSet::new();
        while crash_epochs.len() < spec.crashes {
            crash_epochs.insert(rng.next_index(spec.epochs));
        }
        let mut events: Vec<FaultEvent> = crash_epochs
            .into_iter()
            .map(|epoch| FaultEvent {
                epoch,
                kind: FaultKind::WorkerCrash {
                    rank: rng.next_index(spec.workers),
                },
            })
            .collect();
        for _ in 0..spec.corruptions {
            events.push(FaultEvent {
                epoch: rng.next_index(spec.epochs.max(1)),
                kind: FaultKind::ShardCorruption {
                    shard: rng.next_index(spec.shards),
                },
            });
        }
        Self::manual(events)
    }

    /// All events, sorted by epoch.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The crash events only, as `(epoch, rank)` in epoch order — the
    /// subset [`crate::run_resilient`] consumes.
    pub fn crashes(&self) -> Vec<(usize, usize)> {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::WorkerCrash { rank } => Some((e.epoch, rank)),
                FaultKind::ShardCorruption { .. } => None,
            })
            .collect()
    }

    /// The shard-corruption events only, as `(epoch, shard)` in epoch
    /// order — the subset [`crate::inject::apply_shard_faults`] consumes.
    pub fn corruptions(&self) -> Vec<(usize, usize)> {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::ShardCorruption { shard } => Some((e.epoch, shard)),
                FaultKind::WorkerCrash { .. } => None,
            })
            .collect()
    }

    /// Order-sensitive hash of the whole schedule. Two plans fingerprint
    /// equal iff they inject the same faults in the same order — the
    /// determinism assertion of the fault-injection tests.
    pub fn fingerprint(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for e in &self.events {
            h = fnv1a64_extend(h, &(e.epoch as u64).to_le_bytes());
            let (tag, arg) = match e.kind {
                FaultKind::WorkerCrash { rank } => (0u8, rank as u64),
                FaultKind::ShardCorruption { shard } => (1u8, shard as u64),
            };
            h = fnv1a64_extend(h, &[tag]);
            h = fnv1a64_extend(h, &arg.to_le_bytes());
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(seed: u64) -> FaultSpec {
        FaultSpec {
            seed,
            epochs: 12,
            workers: 4,
            crashes: 3,
            shards: 6,
            corruptions: 2,
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = FaultPlan::generate(&spec(7));
        let b = FaultPlan::generate(&spec(7));
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::generate(&spec(7));
        let b = FaultPlan::generate(&spec(8));
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn schedule_respects_bounds_and_counts() {
        let s = spec(42);
        let p = FaultPlan::generate(&s);
        assert_eq!(p.crashes().len(), s.crashes);
        assert_eq!(p.corruptions().len(), s.corruptions);
        // Crash epochs are distinct and every event is in range.
        let crash_epochs: Vec<usize> = p.crashes().iter().map(|&(e, _)| e).collect();
        let mut dedup = crash_epochs.clone();
        dedup.dedup();
        assert_eq!(crash_epochs, dedup);
        for e in p.events() {
            assert!(e.epoch < s.epochs);
            match e.kind {
                FaultKind::WorkerCrash { rank } => assert!(rank < s.workers),
                FaultKind::ShardCorruption { shard } => assert!(shard < s.shards),
            }
        }
    }

    #[test]
    fn events_are_epoch_sorted() {
        let p = FaultPlan::generate(&spec(99));
        let epochs: Vec<usize> = p.events().iter().map(|e| e.epoch).collect();
        let mut sorted = epochs.clone();
        sorted.sort_unstable();
        assert_eq!(epochs, sorted);
    }

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::none().is_empty());
        assert_eq!(
            FaultPlan::none().fingerprint(),
            FaultPlan::default().fingerprint()
        );
    }

    #[test]
    #[should_panic(expected = "cannot schedule")]
    fn too_many_crashes_panics() {
        FaultPlan::generate(&FaultSpec {
            seed: 1,
            epochs: 2,
            workers: 2,
            crashes: 3,
            shards: 0,
            corruptions: 0,
        });
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn generate_is_deterministic_and_bounded(seed in 0u64..10_000, epochs in 1usize..32) {
                let s = FaultSpec {
                    seed,
                    epochs,
                    workers: 1 + (seed as usize % 7),
                    crashes: epochs.min(3),
                    shards: 4,
                    corruptions: 1,
                };
                let a = FaultPlan::generate(&s);
                prop_assert_eq!(a.fingerprint(), FaultPlan::generate(&s).fingerprint());
                for e in a.events() {
                    prop_assert!(e.epoch < epochs);
                }
            }
        }
    }
}
