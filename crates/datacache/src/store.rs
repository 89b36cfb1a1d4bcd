//! The cache store: cold builds (parse once, write shards) and warm opens
//! (verified shard loads).

use crate::format::{sealed_checksum, write_file};
use crate::manifest::{source_key_for_file, Manifest, ShardEntry, MANIFEST_VERSION};
use crate::shard::{decode_shard, encode_shard, shard_ranges};
use crate::CacheError;
use dataio::{read_csv, Frame, ReadStrategy};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// How a dataset came out of the store, with phase timings for reporting.
#[derive(Debug, Clone)]
pub enum CacheOutcome {
    /// First contact with this source: it was parsed/generated and the
    /// shards were written.
    ColdBuilt {
        /// Time spent producing the source frame (CSV parse or generator).
        build: Duration,
        /// Time spent encoding and writing shards plus the manifest.
        encode_write: Duration,
    },
    /// The manifest matched, shards are served from disk.
    WarmHit {
        /// Time spent loading and validating the manifest.
        manifest_load: Duration,
    },
}

impl CacheOutcome {
    /// True when the open was served from an existing cache.
    pub fn is_warm(&self) -> bool {
        matches!(self, CacheOutcome::WarmHit { .. })
    }
}

/// A directory of cached datasets, one subdirectory per source key. It
/// grows without bound: every build adds a dataset directory, and only
/// [`CacheStore::evict`] removes one.
pub struct CacheStore {
    root: PathBuf,
}

impl CacheStore {
    /// Opens (creating if needed) a cache rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> Result<Self, CacheError> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(Self { root })
    }

    /// The cache root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Directory holding the dataset cached under `key`.
    pub fn dataset_dir(&self, key: u64) -> PathBuf {
        self.root.join(format!("{key:016x}"))
    }

    /// Opens a CSV-backed dataset: warm if a valid cache keyed by the
    /// file's (path, size, mtime, strategy) exists, otherwise parses the
    /// CSV with `strategy` and builds an `nshards`-way cache.
    pub fn open_csv(
        &self,
        csv: &Path,
        strategy: ReadStrategy,
        nshards: usize,
    ) -> Result<(CachedDataset, CacheOutcome), CacheError> {
        let key = source_key_for_file(csv, strategy.label())?;
        self.open_or_build(key, &csv.to_string_lossy(), "", nshards, || {
            let (frame, _stats) = read_csv(csv, strategy)?;
            Ok(frame)
        })
    }

    /// Generic open: serves a warm hit when a valid manifest for `key`
    /// exists, otherwise invokes `build` for the source frame and writes
    /// the cache. `tag` rides along in the manifest for integration
    /// metadata (e.g. train/test split bookkeeping).
    pub fn open_or_build(
        &self,
        key: u64,
        source_desc: &str,
        tag: &str,
        nshards: usize,
        build: impl FnOnce() -> Result<Frame, CacheError>,
    ) -> Result<(CachedDataset, CacheOutcome), CacheError> {
        let dir = self.dataset_dir(key);
        let warm_start = Instant::now();
        match Manifest::load_from(&dir) {
            Ok(manifest) if manifest.source_key == key => {
                return Ok((
                    CachedDataset { dir, manifest },
                    CacheOutcome::WarmHit {
                        manifest_load: warm_start.elapsed(),
                    },
                ));
            }
            // Missing or invalid manifest: fall through to a cold build.
            // A key collision with a different source_key is treated the
            // same way and rebuilt in place.
            _ => {}
        }

        let build_start = Instant::now();
        let frame = build()?;
        let build_time = build_start.elapsed();

        let write_start = Instant::now();
        let dataset = write_cache(&dir, key, source_desc, tag, &frame, nshards)?;
        Ok((
            dataset,
            CacheOutcome::ColdBuilt {
                build: build_time,
                encode_write: write_start.elapsed(),
            },
        ))
    }

    /// Drops the cached dataset for `key`, if present.
    pub fn evict(&self, key: u64) -> Result<(), CacheError> {
        let dir = self.dataset_dir(key);
        if dir.exists() {
            std::fs::remove_dir_all(dir)?;
        }
        Ok(())
    }
}

/// Encodes `frame` into `nshards` shard files under `dir` — encode,
/// checksum and write of different shards run side by side on
/// [`parx::kernel_threads`] threads — and writes the manifest last, so a
/// crash mid-build never leaves a valid manifest over incomplete shards.
fn write_cache(
    dir: &Path,
    key: u64,
    source_desc: &str,
    tag: &str,
    frame: &Frame,
    nshards: usize,
) -> Result<CachedDataset, CacheError> {
    std::fs::create_dir_all(dir)?;
    let ranges = shard_ranges(frame.nrows(), nshards);
    let write_shard = |i: usize| -> Result<ShardEntry, CacheError> {
        let (start, end) = ranges[i];
        let bytes = encode_shard(frame, i as u32, start, end);
        let checksum = sealed_checksum(&bytes).expect("an encoded shard is sealed");
        let file = format!("shard-{i:04}.bin");
        write_file(&dir.join(&file), &bytes)?;
        Ok(ShardEntry {
            file,
            start_row: start,
            rows: end - start,
            bytes: bytes.len() as u64,
            checksum,
        })
    };
    let manifest = Manifest {
        version: MANIFEST_VERSION,
        source_key: key,
        source: source_desc.to_string(),
        nrows: frame.nrows(),
        ncols: frame.ncols(),
        tag: tag.to_string(),
        shards: for_each_shard(ranges.len(), write_shard)?,
    };
    manifest.write_to(dir)?;
    Ok(CachedDataset {
        dir: dir.to_path_buf(),
        manifest,
    })
}

/// `f(0), .., f(nshards - 1)` in shard order, a contiguous run of shards
/// per thread on [`parx::kernel_threads`] threads; the error of the lowest
/// failing shard wins.
fn for_each_shard<T: Send>(
    nshards: usize,
    f: impl Fn(usize) -> Result<T, CacheError> + Sync,
) -> Result<Vec<T>, CacheError> {
    let runs = parx::chunk_ranges(nshards, parx::kernel_threads());
    let done = parx::parallel_each(runs, |_, run| {
        (run.start..run.end).map(&f).collect::<Result<Vec<T>, _>>()
    });
    let mut out = Vec::with_capacity(nshards);
    for run in done {
        out.extend(run?);
    }
    Ok(out)
}

/// An opened cached dataset: a manifest plus the directory its shard
/// files live in.
pub struct CachedDataset {
    dir: PathBuf,
    manifest: Manifest,
}

impl CachedDataset {
    /// The manifest describing this dataset.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Number of shards.
    pub fn nshards(&self) -> usize {
        self.manifest.shards.len()
    }

    /// Total rows across shards.
    pub fn nrows(&self) -> usize {
        self.manifest.nrows
    }

    /// Columns per shard.
    pub fn ncols(&self) -> usize {
        self.manifest.ncols
    }

    /// Directory holding the shard files.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Reads, cross-checks against the manifest, checksums, and decodes
    /// shard `index`.
    pub fn load_shard(&self, index: usize) -> Result<Frame, CacheError> {
        let entry = self.manifest.shards.get(index).ok_or_else(|| {
            CacheError::Corrupt(format!(
                "shard index {index} out of range ({} shards)",
                self.manifest.shards.len()
            ))
        })?;
        let bytes = std::fs::read(self.dir.join(&entry.file))?;
        if bytes.len() as u64 != entry.bytes {
            return Err(CacheError::Corrupt(format!(
                "shard {index}: file is {} bytes, manifest says {}",
                bytes.len(),
                entry.bytes
            )));
        }
        // Identity before integrity: a shard from another build can be
        // the right size and checksum clean, and only the manifest knows
        // it is not the one written here. (A file too short to carry a
        // checksum fails in `decode_shard`.)
        if let Some(stored) = sealed_checksum(&bytes).filter(|&c| c != entry.checksum) {
            return Err(CacheError::Corrupt(format!(
                "shard {index}: trailing checksum {stored:#018x} disagrees with manifest {:#018x}",
                entry.checksum
            )));
        }
        let decoded = decode_shard(&bytes)?;
        if decoded.index as usize != index || decoded.start_row != entry.start_row {
            return Err(CacheError::Corrupt(format!(
                "shard {index}: header identity (index {}, start {}) disagrees with manifest",
                decoded.index, decoded.start_row
            )));
        }
        if decoded.frame.nrows() != entry.rows || decoded.frame.ncols() != self.manifest.ncols {
            return Err(CacheError::Corrupt(format!(
                "shard {index}: decoded shape {}x{} disagrees with manifest {}x{}",
                decoded.frame.nrows(),
                decoded.frame.ncols(),
                entry.rows,
                self.manifest.ncols
            )));
        }
        Ok(decoded.frame)
    }

    /// Loads every shard (read, checksum and decode of different shards
    /// run side by side) and reassembles the full source frame.
    pub fn load_all(&self) -> Result<Frame, CacheError> {
        let frames = for_each_shard(self.nshards(), |i| self.load_shard(i))?;
        Frame::concat(frames).map_err(CacheError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataio::{generate, write_csv_dataset, ClassSpec, SyntheticSpec};

    fn tmp_root(name: &str) -> parx::Scratch {
        parx::scratch(&format!("datacache_{name}")).expect("scratch dir")
    }

    fn small_csv(dir: &Path) -> PathBuf {
        std::fs::create_dir_all(dir).unwrap();
        let path = dir.join("data.csv");
        let spec = SyntheticSpec {
            rows: 120,
            cols: 10,
            kind: ClassSpec::Classification {
                classes: 4,
                separation: 1.0,
            },
            noise: 0.3,
            seed: 9,
        };
        let ds = generate(&spec);
        write_csv_dataset(&path, &ds).unwrap();
        path
    }

    #[test]
    fn cold_then_warm_reproduces_frame() {
        let root = tmp_root("coldwarm");
        let csv = small_csv(&root.join("src"));
        let store = CacheStore::new(root.join("cache")).unwrap();

        let (ds1, outcome1) = store
            .open_csv(&csv, ReadStrategy::ChunkedLowMemory, 4)
            .unwrap();
        assert!(!outcome1.is_warm());
        assert_eq!(ds1.nshards(), 4);

        let (ds2, outcome2) = store
            .open_csv(&csv, ReadStrategy::ChunkedLowMemory, 4)
            .unwrap();
        assert!(outcome2.is_warm());

        let (direct, _) = read_csv(&csv, ReadStrategy::ChunkedLowMemory).unwrap();
        assert_eq!(ds2.load_all().unwrap(), direct);
        assert_eq!(ds1.load_all().unwrap(), direct);
    }

    /// The turbo strategy flows through the cold-build path unchanged: the
    /// cached dataset it produces is identical to the chunked strategy's
    /// (the engines are bit-identical), and the warm hit serves it back.
    #[test]
    fn turbo_cold_build_matches_chunked_cache() {
        let root = tmp_root("turbo");
        let csv = small_csv(&root.join("src"));
        let store = CacheStore::new(root.join("cache")).unwrap();

        let (turbo_ds, outcome) = store
            .open_csv(&csv, ReadStrategy::TurboParallel, 4)
            .unwrap();
        assert!(!outcome.is_warm(), "first open must cold-build");
        let (_, warm) = store
            .open_csv(&csv, ReadStrategy::TurboParallel, 4)
            .unwrap();
        assert!(warm.is_warm(), "second open must hit the cache");

        // Strategy is part of the cache key, so the chunked open builds
        // its own entry — and both entries hold the same frame.
        let (chunked_ds, chunked_outcome) = store
            .open_csv(&csv, ReadStrategy::ChunkedLowMemory, 4)
            .unwrap();
        assert!(!chunked_outcome.is_warm());
        assert_eq!(turbo_ds.load_all().unwrap(), chunked_ds.load_all().unwrap());
    }

    #[test]
    fn modified_source_misses_cache() {
        let root = tmp_root("invalidate");
        let csv = small_csv(&root.join("src"));
        let store = CacheStore::new(root.join("cache")).unwrap();
        let (_, o1) = store
            .open_csv(&csv, ReadStrategy::ChunkedLowMemory, 2)
            .unwrap();
        assert!(!o1.is_warm());

        // Append a row: size (and mtime) change, so the key changes.
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new().append(true).open(&csv).unwrap();
        writeln!(f, "{}", "0,".repeat(10) + "1").unwrap();
        drop(f);

        let (_, o2) = store
            .open_csv(&csv, ReadStrategy::ChunkedLowMemory, 2)
            .unwrap();
        assert!(!o2.is_warm(), "modified file must rebuild, not warm-hit");
    }

    #[test]
    fn different_strategy_is_a_different_key() {
        let root = tmp_root("strategies");
        let csv = small_csv(&root.join("src"));
        let store = CacheStore::new(root.join("cache")).unwrap();
        let (_, o1) = store
            .open_csv(&csv, ReadStrategy::PandasDefault, 2)
            .unwrap();
        let (_, o2) = store
            .open_csv(&csv, ReadStrategy::ChunkedLowMemory, 2)
            .unwrap();
        assert!(!o1.is_warm());
        assert!(!o2.is_warm(), "strategy is part of the cache key");
    }

    #[test]
    fn corrupted_shard_file_is_rejected_on_load() {
        let root = tmp_root("corrupt");
        let csv = small_csv(&root.join("src"));
        let store = CacheStore::new(root.join("cache")).unwrap();
        let (ds, _) = store
            .open_csv(&csv, ReadStrategy::ChunkedLowMemory, 3)
            .unwrap();

        let shard_path = ds.dir().join(&ds.manifest().shards[1].file);
        let mut bytes = std::fs::read(&shard_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&shard_path, &bytes).unwrap();

        assert!(ds.load_shard(0).is_ok());
        // The flipped byte must surface as the typed Corrupt error — a
        // recovery layer matches on it to evict and rebuild — never as a
        // panic inside the decode path.
        assert!(
            matches!(ds.load_shard(1), Err(CacheError::Corrupt(_))),
            "flipped byte must surface as CacheError::Corrupt"
        );
    }

    #[test]
    fn truncated_shard_file_is_rejected_on_load() {
        let root = tmp_root("truncated");
        let csv = small_csv(&root.join("src"));
        let store = CacheStore::new(root.join("cache")).unwrap();
        let (ds, _) = store
            .open_csv(&csv, ReadStrategy::ChunkedLowMemory, 3)
            .unwrap();

        let shard_path = ds.dir().join(&ds.manifest().shards[2].file);
        let bytes = std::fs::read(&shard_path).unwrap();
        std::fs::write(&shard_path, &bytes[..bytes.len() / 2]).unwrap();

        assert!(
            matches!(ds.load_shard(2), Err(CacheError::Corrupt(_))),
            "truncated shard must surface as CacheError::Corrupt"
        );
        // An empty file (torn write caught at its worst) is also typed.
        std::fs::write(&shard_path, b"").unwrap();
        assert!(matches!(ds.load_shard(2), Err(CacheError::Corrupt(_))));
    }

    /// Shards load side by side, but what `load_all` reports must not
    /// depend on which thread finished first: the lowest bad shard wins.
    #[test]
    fn load_all_reports_the_lowest_bad_shard() {
        let root = tmp_root("lowest_bad");
        let csv = small_csv(&root.join("src"));
        let store = CacheStore::new(root.join("cache")).unwrap();
        let (ds, _) = store
            .open_csv(&csv, ReadStrategy::ChunkedLowMemory, 6)
            .unwrap();
        for bad in [4, 2, 5] {
            let path = ds.dir().join(&ds.manifest().shards[bad].file);
            let bytes = std::fs::read(&path).unwrap();
            std::fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
        }
        for _ in 0..8 {
            match ds.load_all() {
                Err(CacheError::Corrupt(msg)) => assert!(msg.starts_with("shard 2:"), "{msg}"),
                other => panic!("expected Corrupt, got {:?}", other.map(|f| f.nrows())),
            }
        }
    }

    #[test]
    fn open_or_build_with_generator_source() {
        let root = tmp_root("generator");
        let store = CacheStore::new(&root).unwrap();
        let mut builds = 0;
        let key = 0x1234;
        for _ in 0..2 {
            let (ds, _) = store
                .open_or_build(key, "synthetic:nt3-tiny", "ycols=1", 2, || {
                    builds += 1;
                    let spec = SyntheticSpec {
                        rows: 30,
                        cols: 5,
                        kind: ClassSpec::Classification {
                            classes: 2,
                            separation: 1.0,
                        },
                        noise: 0.3,
                        seed: 3,
                    };
                    let ds = generate(&spec);
                    let path = root.join("gen.csv");
                    write_csv_dataset(&path, &ds).unwrap();
                    let (frame, _) = read_csv(&path, ReadStrategy::ChunkedLowMemory)?;
                    Ok(frame)
                })
                .unwrap();
            assert_eq!(ds.manifest().tag, "ycols=1");
            assert_eq!(ds.nrows(), 30);
        }
        assert_eq!(builds, 1, "second open must be a warm hit");
    }

    /// A distinct all-Float64 synthetic frame per key: every key's shards
    /// have the same byte sizes.
    fn churn_frame(key: u64) -> Result<Frame, CacheError> {
        let spec = SyntheticSpec {
            rows: 64,
            cols: 9,
            kind: ClassSpec::Classification {
                classes: 2,
                separation: 1.0,
            },
            noise: 0.2,
            seed: key,
        };
        let ds = generate(&spec);
        let mut columns: Vec<dataio::Column> = (0..ds.cols)
            .map(|c| {
                dataio::Column::Float64(
                    (0..ds.rows)
                        .map(|r| ds.features[r * ds.cols + c] as f64)
                        .collect(),
                )
            })
            .collect();
        columns.push(dataio::Column::Float64(
            ds.labels.iter().map(|&v| v as f64).collect(),
        ));
        Frame::new(columns).map_err(CacheError::from)
    }

    /// Opens dataset `key` ([`churn_frame`]) in `store`, building it if
    /// needed.
    fn churn_dataset(store: &CacheStore, key: u64) -> (CachedDataset, CacheOutcome) {
        store
            .open_or_build(key, &format!("synthetic:{key}"), "", 3, || churn_frame(key))
            .unwrap()
    }

    /// A shard file from another dataset of the same geometry is the
    /// right size and checksums clean; only the manifest's copy of the
    /// checksum tells it apart, and the load must say so.
    #[test]
    fn shard_swapped_in_from_another_build_fails_the_manifest_cross_check() {
        let root = tmp_root("swapped");
        let store = CacheStore::new(&root).unwrap();
        let (ours, _) = churn_dataset(&store, 1);
        let (theirs, _) = churn_dataset(&store, 2);
        let file = &ours.manifest().shards[1].file;
        let foreign = std::fs::read(theirs.dir().join(file)).unwrap();
        assert_eq!(foreign.len() as u64, ours.manifest().shards[1].bytes);
        decode_shard(&foreign).expect("the foreign shard is self-consistent");
        std::fs::write(ours.dir().join(file), &foreign).unwrap();

        assert!(ours.load_shard(0).is_ok());
        match ours.load_shard(1) {
            Err(CacheError::Corrupt(msg)) => {
                assert!(msg.starts_with("shard 1: trailing checksum"), "{msg}");
                assert!(msg.contains("disagrees with manifest"), "{msg}");
            }
            other => panic!("expected Corrupt, got {:?}", other.map(|f| f.nrows())),
        }
    }

    /// A cache the previous build wrote — a version-1 manifest over
    /// version-1 shards sealed with FNV-1a — is not a warm hit whose every
    /// shard then fails: the manifest is refused, the dataset rebuilt cold
    /// into the same frame, and the old shards are named by version.
    #[test]
    fn version_1_cache_is_rebuilt_cold_into_the_same_frame() {
        use crate::format::{fnv1a64_extend, FNV_OFFSET};
        let root = tmp_root("v1_cache");
        let store = CacheStore::new(&root).unwrap();
        let (ds, _) = churn_dataset(&store, 5);
        let expected = ds.load_all().unwrap();

        // Rewrite the dataset as the previous build left it.
        let mut manifest = ds.manifest().clone();
        for entry in &mut manifest.shards {
            let path = ds.dir().join(&entry.file);
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
            let body_len = bytes.len() - 8;
            let fnv = fnv1a64_extend(FNV_OFFSET, &bytes[..body_len]);
            bytes[body_len..].copy_from_slice(&fnv.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            entry.checksum = fnv;
        }
        manifest.version = 1;
        manifest.write_to(ds.dir()).unwrap();
        let old = CachedDataset {
            dir: ds.dir().to_path_buf(),
            manifest: manifest.clone(),
        };
        match old.load_shard(0) {
            Err(CacheError::Corrupt(msg)) => assert!(
                msg.contains("unsupported shard version 1 (this build reads 2)"),
                "{msg}"
            ),
            other => panic!("expected Corrupt, got {:?}", other.map(|f| f.nrows())),
        }
        assert!(Manifest::load_from(ds.dir()).is_err());

        let (rebuilt, outcome) = churn_dataset(&store, 5);
        assert!(
            matches!(outcome, CacheOutcome::ColdBuilt { .. }),
            "a version-1 cache must rebuild cold"
        );
        assert_eq!(rebuilt.manifest().version, MANIFEST_VERSION);
        assert_eq!(rebuilt.load_all().unwrap(), expected);
        assert!(churn_dataset(&store, 5).1.is_warm());
    }

    #[test]
    fn evict_forces_rebuild() {
        let root = tmp_root("evict");
        let csv = small_csv(&root.join("src"));
        let store = CacheStore::new(root.join("cache")).unwrap();
        let key = source_key_for_file(&csv, ReadStrategy::ChunkedLowMemory.label()).unwrap();
        store
            .open_csv(&csv, ReadStrategy::ChunkedLowMemory, 2)
            .unwrap();
        store.evict(key).unwrap();
        let (_, o) = store
            .open_csv(&csv, ReadStrategy::ChunkedLowMemory, 2)
            .unwrap();
        assert!(!o.is_warm());
    }
}
