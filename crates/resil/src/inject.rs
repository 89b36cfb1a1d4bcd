//! Disk-level fault injection for the dataset cache.
//!
//! The third fault class in a long-running training job is neither a dead
//! worker nor a torn-down run: it is *silent data rot* — a shard of the
//! binary dataset cache flips a bit on disk between runs. `datacache`'s
//! CDS1 format checksums every shard precisely so this is detected rather
//! than trained on; this module injects such rot deterministically (the
//! flipped byte is drawn from an `xrng` stream, so tests replay the exact
//! same corruption) and implements the recovery: scan, evict, rebuild.

use crate::plan::FaultPlan;
use crate::ResilError;
use datacache::{CacheError, CacheStore, CachedDataset};
use std::path::PathBuf;
use xrng::RandomSource;

/// Flips one deterministic byte in shard `shard` of a cached dataset.
/// Returns the corrupted shard's path. Which byte flips — and which bit —
/// is a pure function of `seed`, so the same injection is replayable.
///
/// # Panics
/// Panics if `shard` is out of range.
pub fn corrupt_shard(ds: &CachedDataset, shard: usize, seed: u64) -> Result<PathBuf, ResilError> {
    assert!(
        shard < ds.nshards(),
        "shard {shard} out of range ({} shards)",
        ds.nshards()
    );
    let path = ds.dir().join(&ds.manifest().shards[shard].file);
    let mut bytes = std::fs::read(&path)?;
    assert!(!bytes.is_empty(), "shard file is empty");
    let mut rng = xrng::seeded(xrng::derive_seed(seed, 0xB17F11B));
    let offset = rng.next_index(bytes.len());
    let bit = 1u8 << rng.next_index(8);
    bytes[offset] ^= bit;
    std::fs::write(&path, &bytes)?;
    Ok(path)
}

/// Scans every shard of a cached dataset and returns the indices whose
/// load fails validation — the read-side half of the recovery loop.
pub fn scan_shards(ds: &CachedDataset) -> Vec<usize> {
    (0..ds.nshards())
        .filter(|&i| ds.load_shard(i).is_err())
        .collect()
}

/// Applies a plan's shard-corruption events to a cached dataset (shard
/// indices are taken modulo the shard count) and returns the distinct
/// shard indices corrupted, sorted.
pub fn apply_shard_faults(
    plan: &FaultPlan,
    ds: &CachedDataset,
    seed: u64,
) -> Result<Vec<usize>, ResilError> {
    let n = ds.nshards();
    assert!(n > 0, "dataset has no shards");
    let mut hit: Vec<usize> = Vec::new();
    for (i, (_, shard)) in plan.corruptions().into_iter().enumerate() {
        let target = shard % n;
        // Derive a distinct sub-seed per event so two corruptions of the
        // same shard flip different bytes.
        corrupt_shard(ds, target, xrng::derive_seed(seed, i as u64))?;
        hit.push(target);
    }
    hit.sort_unstable();
    hit.dedup();
    Ok(hit)
}

/// The recovery path: confirms the corruption surfaces as `datacache`'s
/// typed [`CacheError::Corrupt`], evicts the poisoned dataset, and
/// reports it ready for a rebuild. Returns the evicted cache key.
///
/// (The rebuild itself is the caller's `open_csv`/`open_or_build` — this
/// function owns only the detect-and-evict half, because only the caller
/// knows how to regenerate the source.)
pub fn evict_if_corrupt(store: &CacheStore, ds: &CachedDataset) -> Result<Option<u64>, ResilError> {
    let bad = scan_shards(ds);
    if bad.is_empty() {
        return Ok(None);
    }
    // The contract with datacache: rot must surface as the typed Corrupt
    // error, never as garbage rows.
    for &i in &bad {
        match ds.load_shard(i) {
            Err(CacheError::Corrupt(_)) => {}
            other => {
                return Err(ResilError::Corrupt(format!(
                    "shard {i} failed without a typed Corrupt error: {other:?}"
                )))
            }
        }
    }
    let key = ds.manifest().source_key;
    store
        .evict(key)
        .map_err(|e| ResilError::Io(e.to_string()))?;
    Ok(Some(key))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{FaultEvent, FaultKind};
    use dataio::ReadStrategy;
    use std::path::Path;

    fn tmp_root(name: &str) -> parx::Scratch {
        parx::scratch(&format!("resil_inject_{name}")).expect("scratch dir")
    }

    fn small_csv(dir: &Path) -> PathBuf {
        std::fs::create_dir_all(dir).unwrap();
        let path = dir.join("data.csv");
        let mut text = String::from("a,b,c\n");
        for i in 0..60 {
            text.push_str(&format!("{i},{},{}\n", i * 2, i * 3));
        }
        std::fs::write(&path, text).unwrap();
        path
    }

    fn open(root: &Path) -> (CacheStore, CachedDataset) {
        let csv = small_csv(&root.join("src"));
        let store = CacheStore::new(root.join("cache")).unwrap();
        let (ds, _) = store
            .open_csv(&csv, ReadStrategy::ChunkedLowMemory, 4)
            .unwrap();
        (store, ds)
    }

    #[test]
    fn corruption_is_detected_and_typed() {
        let root = tmp_root("typed");
        let (_store, ds) = open(&root);
        assert!(scan_shards(&ds).is_empty(), "fresh cache must be clean");
        corrupt_shard(&ds, 2, 99).unwrap();
        assert_eq!(scan_shards(&ds), vec![2]);
        assert!(matches!(ds.load_shard(2), Err(CacheError::Corrupt(_))));
        // Untouched shards still load.
        assert!(ds.load_shard(0).is_ok());
    }

    #[test]
    fn corruption_is_deterministic_in_seed() {
        let root_a = tmp_root("det_a");
        let root_b = tmp_root("det_b");
        let (_, da) = open(&root_a);
        let (_, db) = open(&root_b);
        corrupt_shard(&da, 1, 7).unwrap();
        corrupt_shard(&db, 1, 7).unwrap();
        let fa = std::fs::read(da.dir().join(&da.manifest().shards[1].file)).unwrap();
        let fb = std::fs::read(db.dir().join(&db.manifest().shards[1].file)).unwrap();
        assert_eq!(fa, fb, "same seed must flip the same byte");
    }

    #[test]
    fn plan_driven_faults_and_recovery_round_trip() {
        let root = tmp_root("plan");
        let (store, ds) = open(&root);
        let plan = FaultPlan::manual(vec![
            FaultEvent {
                epoch: 1,
                kind: FaultKind::ShardCorruption { shard: 2 },
            },
            FaultEvent {
                epoch: 3,
                // 7 % 4 shards = shard 3.
                kind: FaultKind::ShardCorruption { shard: 7 },
            },
        ]);
        let hit = apply_shard_faults(&plan, &ds, 42).unwrap();
        assert_eq!(hit, vec![2, 3]);
        assert_eq!(scan_shards(&ds), vec![2, 3]);

        // Detect, evict, rebuild: the warm path is gone, the rebuilt cache
        // is clean.
        let key = evict_if_corrupt(&store, &ds).unwrap().expect("was corrupt");
        assert!(!store.dataset_dir(key).exists());
        let (rebuilt, outcome) = store
            .open_csv(
                &root.join("src").join("data.csv"),
                ReadStrategy::ChunkedLowMemory,
                4,
            )
            .unwrap();
        assert!(!outcome.is_warm(), "evicted cache must rebuild cold");
        assert!(scan_shards(&rebuilt).is_empty());
    }

    #[test]
    fn clean_dataset_is_not_evicted() {
        let root = tmp_root("clean");
        let (store, ds) = open(&root);
        assert_eq!(evict_if_corrupt(&store, &ds).unwrap(), None);
        assert!(ds.load_shard(0).is_ok());
    }
}
