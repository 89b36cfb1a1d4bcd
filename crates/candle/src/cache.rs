//! Binary dataset caching for the training pipeline.
//!
//! The paper's headline profile result is that data loading dominates the
//! CANDLE benchmarks' wall-clock; [`datacache`] removes the repeated cost by
//! persisting the generated/parsed dataset as checksummed binary shards. This
//! module is the glue: it packs a benchmark's train+test [`Dataset`] pair
//! into one [`dataio::Frame`], keys the cache by the benchmark geometry and
//! seed, and reconstructs the pair from the shards a warm open decodes.

use crate::dataset::{benchmark_dataset, BenchDataKind};
use datacache::format::{fnv1a64_extend, FNV_OFFSET};
use datacache::{source_key_for_file, CacheError, CacheOutcome, CacheStore};
use dataio::{read_csv, Column, Frame, IngestPhases, ReadStrategy};
use dlframe::Dataset;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tensor::Tensor;

/// Where a cold build gets its source frame from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheSource {
    /// Generate the benchmark dataset synthetically (the default): the
    /// key is the benchmark geometry plus seed.
    Generate,
    /// Ingest a packed train+test CSV (see [`export_packed_csv`]) with the
    /// given read strategy: the key is the file identity plus the
    /// strategy label, so a modified file or a different engine rebuilds.
    Csv {
        /// The packed CSV file.
        path: PathBuf,
        /// Engine used for the cold parse.
        strategy: ReadStrategy,
    },
}

/// Where and how the pipeline caches its datasets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheSpec {
    /// Cache root directory (one subdirectory per dataset key).
    pub root: PathBuf,
    /// Shards to split the dataset into (clamped to at least 1).
    pub shards: usize,
    /// Once chose a background shard prefetcher for warm loads. Nothing
    /// reads this field: every warm load decodes with
    /// [`datacache::CachedDataset::load_all`], which already reads,
    /// checksums and decodes the shards side by side, so the value changes
    /// neither the data nor the profile. It remains only because the
    /// benchmark builds this struct with a literal that names it; it goes
    /// once the benchmark stops naming it.
    pub prefetch: bool,
    /// Cold-build source: synthetic generation or a CSV ingest.
    pub source: CacheSource,
}

/// How the data phase was actually served, with the timings the pipeline
/// attributes to its phase profile.
#[derive(Debug, Clone)]
pub enum DataPhase {
    /// Cold: the dataset was generated or ingested and the shards written.
    Cold {
        /// Time producing the source dataset (the `data_loading` phase):
        /// synthetic generation, or the CSV read for a
        /// [`CacheSource::Csv`] build.
        generate: Duration,
        /// Time encoding and writing shards plus the manifest.
        encode_write: Duration,
        /// Per-phase ingest attribution (scan / parse / materialize) when
        /// the source was a CSV read through the turbo engine.
        ingest: Option<IngestPhases>,
    },
    /// Warm: the dataset came from existing shards.
    Warm {
        /// Manifest validation plus shard decode time (the `cache_load`
        /// phase).
        load: Duration,
    },
}

impl DataPhase {
    /// True when the data came from an existing cache.
    pub fn is_warm(&self) -> bool {
        matches!(self, DataPhase::Warm { .. })
    }
}

/// A handle onto a shared [`datapipe::DatasetService`], attached to a
/// [`ParallelRunSpec`](crate::ParallelRunSpec): the run draws its data
/// through the service's admission-controlled shard pool instead of
/// opening a private cache. N concurrent runs over one `ServiceSpec`
/// share one decode of every shard.
#[derive(Debug, Clone)]
pub struct ServiceSpec {
    /// The shared data plane.
    pub service: Arc<datapipe::DatasetService>,
    /// Shard count used if this run is the one that cold-builds.
    pub shards: usize,
}

impl ServiceSpec {
    /// Wraps a service with the default shard count.
    pub fn new(service: Arc<datapipe::DatasetService>) -> Self {
        Self { service, shards: 4 }
    }
}

/// How a service-fed data phase went: open/stream timings plus the job's
/// isolation stats, which the pipeline surfaces as `service_*` phases in
/// the profile.
#[derive(Debug, Clone)]
pub struct ServiceLoad {
    /// True when this run's open performed the cold build.
    pub cold: bool,
    /// Time in `open_dataset` (cold build or manifest warm hit).
    pub open: Duration,
    /// Time streaming and materializing the train/test tensors.
    pub stream: Duration,
    /// The job's isolation stats after materialization.
    pub job: datapipe::JobStats,
}

/// Loads the train/test pair of a benchmark through a shared dataset
/// service: opens (single-flight) the packed dataset under the same key
/// as [`load_benchmark_dataset`], admits a bulk job, and materializes the
/// pair from the job's sequential stream. Bit-identical to the private
/// cache path and to fresh generation.
pub fn load_benchmark_dataset_via_service(
    kind: &BenchDataKind,
    seed: u64,
    spec: &ServiceSpec,
) -> Result<(Dataset, Dataset, ServiceLoad), CacheError> {
    let (key, desc) = dataset_key(kind, seed);
    let tag = format!("train_rows={};features={}", kind.train_rows, kind.features);
    let open_start = Instant::now();
    let outcome = spec
        .service
        .open_dataset(key, &desc, &tag, spec.shards.max(1), || {
            let (train, test) = benchmark_dataset(kind, seed);
            Ok(pack_pair(&train, &test))
        })?;
    let open = open_start.elapsed();

    let stream_start = Instant::now();
    let job = spec
        .service
        .admit(datapipe::JobSpec {
            dataset: key,
            features: kind.features,
            batch: 512,
            seed,
        })
        .map_err(|e| CacheError::Corrupt(format!("service admission: {e}")))?;
    let ycols = job.ycols();
    let rows = kind.train_rows + kind.test_rows;
    let mut xs = Vec::with_capacity(rows * kind.features);
    let mut ys = Vec::with_capacity(rows * ycols);
    for item in job.sequential() {
        let batch = item?;
        xs.extend_from_slice(batch.x.data());
        ys.extend_from_slice(batch.y.data());
    }
    if xs.len() != rows * kind.features {
        return Err(CacheError::Corrupt(format!(
            "service stream delivered {} feature values, expected {}",
            xs.len(),
            rows * kind.features
        )));
    }
    let slice = |data: &[f32], row0: usize, nrows: usize, width: usize| {
        Tensor::from_vec(
            [nrows, width],
            data[row0 * width..(row0 + nrows) * width].to_vec(),
        )
        .expect("slice length matches shape")
    };
    let train = Dataset::new(
        slice(&xs, 0, kind.train_rows, kind.features),
        slice(&ys, 0, kind.train_rows, ycols),
    );
    let test = Dataset::new(
        slice(&xs, kind.train_rows, kind.test_rows, kind.features),
        slice(&ys, kind.train_rows, kind.test_rows, ycols),
    );
    let load = ServiceLoad {
        cold: !outcome.is_warm(),
        open,
        stream: stream_start.elapsed(),
        job: job.stats(),
    };
    Ok((train, test, load))
}

/// The cache key for one benchmark dataset: every field of the geometry
/// plus the seed participates, so any change is a rebuild.
pub fn dataset_key(kind: &BenchDataKind, seed: u64) -> (u64, String) {
    let desc = format!(
        "candle:{:?}:features={}:train={}:test={}:seed={}",
        kind.bench, kind.features, kind.train_rows, kind.test_rows, seed
    );
    (fnv1a64_extend(FNV_OFFSET, desc.as_bytes()), desc)
}

/// Loads (warm) or generates-and-caches (cold) the train/test pair for a
/// benchmark, mirroring [`benchmark_dataset`] exactly: the unpacked warm
/// tensors are bit-identical to a fresh generation because f32 values
/// round-trip losslessly through the shard format's f64 columns.
///
/// A cold load hands back the pair it built the shards from — the
/// generated tensors, or the ingested frame unpacked while it is still in
/// memory — and never reads back the shards it wrote a moment ago; only a
/// warm load decodes shards.
pub fn load_benchmark_dataset(
    kind: &BenchDataKind,
    seed: u64,
    cache: &CacheSpec,
) -> Result<(Dataset, Dataset, DataPhase), CacheError> {
    let store = CacheStore::new(&cache.root)?;
    let tag = format!("train_rows={};features={}", kind.train_rows, kind.features);
    let mut generate_time = Duration::ZERO;
    let mut ingest: Option<IngestPhases> = None;
    // Set by the build closure, so `Some` exactly when the open was cold.
    let mut built: Option<(Dataset, Dataset)> = None;
    let (ds, outcome) = match &cache.source {
        CacheSource::Generate => {
            let (key, desc) = dataset_key(kind, seed);
            store.open_or_build(key, &desc, &tag, cache.shards.max(1), || {
                let start = Instant::now();
                let (train, test) = benchmark_dataset(kind, seed);
                generate_time = start.elapsed();
                let frame = pack_pair(&train, &test);
                built = Some((train, test));
                Ok(frame)
            })?
        }
        CacheSource::Csv { path, strategy } => {
            let key = source_key_for_file(path, strategy.label())?;
            store.open_or_build(
                key,
                &path.to_string_lossy(),
                &tag,
                cache.shards.max(1),
                || {
                    let (frame, stats) = read_csv(path, *strategy)?;
                    generate_time = stats.elapsed;
                    ingest = stats.ingest;
                    built = Some(unpack_pair(&frame, kind)?);
                    Ok(frame)
                },
            )?
        }
    };

    match outcome {
        CacheOutcome::ColdBuilt { encode_write, .. } => {
            let (train, test) = built.expect("a cold open ran the build closure");
            let phase = DataPhase::Cold {
                generate: generate_time,
                encode_write,
                ingest,
            };
            Ok((train, test, phase))
        }
        CacheOutcome::WarmHit { manifest_load } => {
            let decode_start = Instant::now();
            let frame = ds.load_all()?;
            let load = manifest_load + decode_start.elapsed();
            let (train, test) = unpack_pair(&frame, kind)?;
            Ok((train, test, DataPhase::Warm { load }))
        }
    }
}

/// Packs train+test into one frame: train rows first, then test rows;
/// feature columns first, then target columns. All columns are `Float64`
/// (f32 → f64 is exact, so the round trip is bit-identical).
fn pack_pair(train: &Dataset, test: &Dataset) -> Frame {
    let features = train.x().shape().dims()[1];
    let ycols = train.y().shape().dims()[1];
    let train_rows = train.x().shape().dims()[0];
    let test_rows = test.x().shape().dims()[0];
    let mut columns = Vec::with_capacity(features + ycols);
    let column = |get: &dyn Fn(usize) -> f32| -> Column {
        let mut v = Vec::with_capacity(train_rows + test_rows);
        for r in 0..train_rows + test_rows {
            v.push(get(r) as f64);
        }
        Column::Float64(v)
    };
    let pick = |a: &[f32], b: &[f32], width: usize, c: usize, r: usize| {
        if r < train_rows {
            a[r * width + c]
        } else {
            b[(r - train_rows) * width + c]
        }
    };
    for c in 0..features {
        columns.push(column(&|r| {
            pick(train.x().data(), test.x().data(), features, c, r)
        }));
    }
    for c in 0..ycols {
        columns.push(column(&|r| {
            pick(train.y().data(), test.y().data(), ycols, c, r)
        }));
    }
    Frame::new(columns).expect("packed columns share a length")
}

/// Exports the packed train+test frame of a benchmark (the exact layout
/// [`pack_pair`] produces) as a headerless numeric CSV, so a pipeline run
/// with [`CacheSource::Csv`] trains on it bit-identically to synthetic
/// generation: `f64`'s `Display` prints the shortest string that parses
/// back to the same value, and the packed values are exact `f32 → f64`
/// widenings to begin with.
pub fn export_packed_csv(
    kind: &BenchDataKind,
    seed: u64,
    path: &Path,
) -> Result<(), std::io::Error> {
    use std::io::Write;
    let (train, test) = benchmark_dataset(kind, seed);
    let frame = pack_pair(&train, &test);
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut line = String::new();
    for r in 0..frame.nrows() {
        line.clear();
        for (c, col) in frame.columns().iter().enumerate() {
            if c > 0 {
                line.push(',');
            }
            match col {
                Column::Float64(v) => {
                    use std::fmt::Write as _;
                    write!(line, "{}", v[r]).expect("formatting into a String cannot fail");
                }
                other => unreachable!("pack_pair emits Float64 only, got {:?}", other.dtype()),
            }
        }
        line.push('\n');
        w.write_all(line.as_bytes())?;
    }
    w.flush()
}

/// Inverse of [`pack_pair`], validated against the expected geometry.
fn unpack_pair(frame: &Frame, kind: &BenchDataKind) -> Result<(Dataset, Dataset), CacheError> {
    let rows = kind.train_rows + kind.test_rows;
    if frame.nrows() != rows || frame.ncols() <= kind.features {
        return Err(CacheError::Corrupt(format!(
            "cached frame is {}x{}, expected {} rows and more than {} columns",
            frame.nrows(),
            frame.ncols(),
            rows,
            kind.features
        )));
    }
    let split = |rows: std::ops::Range<usize>| {
        let block = |cols: std::ops::Range<usize>| {
            Tensor::from_vec(
                [rows.len(), cols.len()],
                frame.to_f32_block(rows.clone(), cols),
            )
            .expect("block length matches shape")
        };
        Dataset::new(block(0..kind.features), block(kind.features..frame.ncols()))
    };
    Ok((split(0..kind.train_rows), split(kind.train_rows..rows)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::calib::Bench;

    fn tmp(name: &str) -> parx::Scratch {
        parx::scratch(&format!("candle_cache_{name}")).expect("scratch dir")
    }

    /// A generate-sourced cache under `root`.
    fn spec(root: &Path) -> CacheSpec {
        CacheSpec {
            root: root.to_path_buf(),
            shards: 3,
            prefetch: false,
            source: CacheSource::Generate,
        }
    }

    #[test]
    fn pack_unpack_round_trips_bit_exactly() {
        let kind = BenchDataKind::tiny(Bench::Nt3);
        let (train, test) = benchmark_dataset(&kind, 7);
        let frame = pack_pair(&train, &test);
        let (t2, e2) = unpack_pair(&frame, &kind).unwrap();
        assert_eq!(train.x().data(), t2.x().data());
        assert_eq!(train.y().data(), t2.y().data());
        assert_eq!(test.x().data(), e2.x().data());
        assert_eq!(test.y().data(), e2.y().data());
    }

    /// Every warm load decodes the same way, whatever the unread
    /// `prefetch` field says.
    #[test]
    fn cold_then_warm_is_identical_whatever_prefetch_says() {
        let kind = BenchDataKind::tiny(Bench::P1b2);
        let root = tmp("cold_warm");
        let cache = spec(&root);
        let (t1, e1, p1) = load_benchmark_dataset(&kind, 11, &cache).unwrap();
        assert!(!p1.is_warm());
        for prefetch in [false, true] {
            let cache = CacheSpec {
                prefetch,
                ..cache.clone()
            };
            let (t2, e2, p2) = load_benchmark_dataset(&kind, 11, &cache).unwrap();
            assert!(p2.is_warm());
            assert_eq!(t1.x().data(), t2.x().data());
            assert_eq!(t1.y().data(), t2.y().data());
            assert_eq!(e1.x().data(), e2.x().data());
            assert_eq!(e1.y().data(), e2.y().data());
        }
    }

    #[test]
    fn warm_matches_fresh_generation() {
        let kind = BenchDataKind::tiny(Bench::P1b3);
        let root = tmp("warm_fresh");
        let cache = spec(&root);
        load_benchmark_dataset(&kind, 5, &cache).unwrap();
        let (train, test, phase) = load_benchmark_dataset(&kind, 5, &cache).unwrap();
        assert!(phase.is_warm());
        let (ft, fe) = benchmark_dataset(&kind, 5);
        assert_eq!(train.x().data(), ft.x().data());
        assert_eq!(train.y().data(), ft.y().data());
        assert_eq!(test.x().data(), fe.x().data());
        assert_eq!(test.y().data(), fe.y().data());
    }

    /// A pipeline fed from an exported CSV trains on bit-identical tensors:
    /// export → turbo ingest → shard cache must round-trip exactly, and the
    /// cold build must report the turbo engine's ingest phases.
    #[test]
    fn csv_source_round_trips_bit_exactly_and_reports_ingest() {
        let kind = BenchDataKind::tiny(Bench::Nt3);
        let root = tmp("csv_source");
        let csv = root.join("packed.csv");
        export_packed_csv(&kind, 21, &csv).unwrap();

        let cache = CacheSpec {
            root: root.join("cache"),
            shards: 3,
            prefetch: false,
            source: CacheSource::Csv {
                path: csv.clone(),
                strategy: ReadStrategy::TurboParallel,
            },
        };
        let (train, test, phase) = load_benchmark_dataset(&kind, 21, &cache).unwrap();
        match phase {
            DataPhase::Cold { ingest, .. } => {
                assert!(ingest.is_some(), "turbo ingest must report phases");
            }
            DataPhase::Warm { .. } => panic!("first open must cold-build"),
        }
        let (ft, fe) = benchmark_dataset(&kind, 21);
        assert_eq!(train.x().data(), ft.x().data());
        assert_eq!(train.y().data(), ft.y().data());
        assert_eq!(test.x().data(), fe.x().data());
        assert_eq!(test.y().data(), fe.y().data());

        // Warm reopen serves the same data without re-ingesting.
        let (t2, _, p2) = load_benchmark_dataset(&kind, 21, &cache).unwrap();
        assert!(p2.is_warm());
        assert_eq!(t2.x().data(), ft.x().data());
    }

    #[test]
    fn different_seed_or_geometry_changes_key() {
        let kind = BenchDataKind::tiny(Bench::Nt3);
        let (k1, _) = dataset_key(&kind, 1);
        let (k2, _) = dataset_key(&kind, 2);
        assert_ne!(k1, k2);
        let mut wider = kind;
        wider.features += 1;
        let (k3, _) = dataset_key(&wider, 1);
        assert_ne!(k1, k3);
    }
}
