//! Per-trial checkpoint retention for fleet-scale workloads.
//!
//! A hyperparameter search pauses hundreds of trials at rung boundaries,
//! each with its own `RCP1` checkpoint chain. One [`CheckpointManager`]
//! per trial would work, but nothing would bound the fleet's disk
//! footprint or answer fleet-level questions (which trials have state?
//! how many bytes does the paused population hold?). [`TrialStore`] owns
//! one root directory with a `trial-<id>` subdirectory per trial, applies
//! the same `keep_last_n` rotation to every trial, and inherits the
//! manager's guarantees: atomic writes, checksummed loads, and a
//! [`TrialStore::latest`] that skips a corrupt newest file in favour of
//! an older intact one.

use crate::ckpt::{CheckpointManager, TrainState};
use crate::ResilError;
use std::path::{Path, PathBuf};

/// Checkpoint chains for many trials under one root, with uniform
/// retention.
#[derive(Debug, Clone)]
pub struct TrialStore {
    root: PathBuf,
    keep_last_n: usize,
}

impl TrialStore {
    /// Opens (creating if needed) a store rooted at `root`, retaining the
    /// `keep_last_n` most recent checkpoints of every trial.
    ///
    /// # Panics
    /// Panics if `keep_last_n == 0` — GC must never delete a trial's only
    /// resume point.
    pub fn new(root: impl Into<PathBuf>, keep_last_n: usize) -> Result<Self, ResilError> {
        assert!(
            keep_last_n > 0,
            "retention must keep at least one checkpoint"
        );
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(Self { root, keep_last_n })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Checkpoints retained per trial.
    pub fn keep_last_n(&self) -> usize {
        self.keep_last_n
    }

    /// The directory holding one trial's chain.
    pub fn trial_dir(&self, trial: u64) -> PathBuf {
        self.root.join(format!("trial-{trial:08}"))
    }

    fn manager(&self, trial: u64) -> Result<CheckpointManager, ResilError> {
        CheckpointManager::new(self.trial_dir(trial), self.keep_last_n)
    }

    /// Atomically writes `state` into the trial's chain and garbage-
    /// collects checkpoints beyond the retention count. Returns the
    /// written path.
    pub fn save(&self, trial: u64, state: &TrainState) -> Result<PathBuf, ResilError> {
        self.manager(trial)?.save(state)
    }

    /// Restores the trial's newest intact checkpoint (corrupt files are
    /// skipped, like [`CheckpointManager::latest`]). `None` when the
    /// trial has never checkpointed or nothing validates.
    pub fn latest(&self, trial: u64) -> Result<Option<TrainState>, ResilError> {
        if !self.trial_dir(trial).is_dir() {
            return Ok(None);
        }
        self.manager(trial)?.latest()
    }

    /// Checkpoint files currently on disk for one trial.
    pub fn checkpoint_count(&self, trial: u64) -> usize {
        std::fs::read_dir(self.trial_dir(trial))
            .map(|rd| {
                rd.filter_map(Result::ok)
                    .filter(|e| e.path().extension().is_some_and(|x| x == "rcp"))
                    .count()
            })
            .unwrap_or(0)
    }

    /// Trial ids with a chain directory, ascending.
    pub fn trials(&self) -> Result<Vec<u64>, ResilError> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.root)? {
            let path = entry?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if let Some(id) = name
                .strip_prefix("trial-")
                .and_then(|digits| digits.parse::<u64>().ok())
            {
                out.push(id);
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// Total bytes held by every trial's retained checkpoints — the
    /// fleet-level disk footprint the retention policy bounds.
    pub fn total_bytes(&self) -> Result<u64, ResilError> {
        let mut total = 0;
        for trial in self.trials()? {
            for entry in std::fs::read_dir(self.trial_dir(trial))? {
                total += entry?.metadata()?.len();
            }
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(epoch: u64) -> TrainState {
        TrainState {
            epoch,
            lr: 0.01,
            params: vec![epoch as f32, 1.5, -2.0],
            slots: vec![],
            rank_rngs: vec![vec![[epoch as u8; 32]]],
        }
    }

    fn tmp_root(name: &str) -> parx::Scratch {
        parx::scratch(&format!("resil_store_{name}")).expect("scratch dir")
    }

    #[test]
    fn retention_bounds_every_trial_chain() {
        let root = tmp_root("retention");
        let store = TrialStore::new(&root, 2).unwrap();
        // A paused fleet: 50 trials, 5 rung checkpoints each.
        for trial in 0..50u64 {
            for rung_epoch in [1u64, 2, 4, 8, 16] {
                store.save(trial, &state(rung_epoch)).unwrap();
            }
        }
        assert_eq!(store.trials().unwrap().len(), 50);
        for trial in 0..50u64 {
            assert_eq!(store.checkpoint_count(trial), 2, "trial {trial} not GCed");
            let latest = store.latest(trial).unwrap().expect("chain exists");
            assert_eq!(latest.epoch, 16);
        }
        // Footprint is the retained files only: 50 trials x 2 files.
        let one = crate::ckpt::encode(&state(16)).len() as u64;
        assert_eq!(store.total_bytes().unwrap(), 50 * 2 * one);
    }

    #[test]
    fn latest_survives_gc_and_skips_corruption() {
        let root = tmp_root("gc_corrupt");
        let store = TrialStore::new(&root, 3).unwrap();
        for e in [1u64, 2, 4, 8, 16] {
            store.save(7, &state(e)).unwrap();
        }
        // GC kept {4, 8, 16}; rot the newest and latest() must fall back
        // to epoch 8, not error and not resurrect a GCed epoch.
        let newest = store.trial_dir(7).join("ckpt-00000016.rcp");
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&newest, &bytes).unwrap();
        let restored = store.latest(7).unwrap().expect("older intact file");
        assert_eq!(restored.epoch, 8);
        assert_eq!(restored, state(8));
    }

    #[test]
    fn trials_are_isolated_and_unknown_trials_are_none() {
        let root = tmp_root("isolated");
        let store = TrialStore::new(&root, 1).unwrap();
        store.save(3, &state(4)).unwrap();
        store.save(9, &state(2)).unwrap();
        assert_eq!(store.latest(3).unwrap().unwrap().epoch, 4);
        assert_eq!(store.latest(9).unwrap().unwrap().epoch, 2);
        assert_eq!(store.latest(999).unwrap(), None);
        assert_eq!(store.trials().unwrap(), vec![3, 9]);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_retention_panics() {
        let _ = TrialStore::new(&tmp_root("zero"), 0);
    }
}
