//! The reader strategies of the paper's data-loading study, plus the
//! turbo engine that goes past them.

use crate::csv::parser::{parse_chunk_typed, split_fields};
use crate::csv::turbo::{self, IngestPhases, StructuralIndex};
use crate::frame::{Column, Frame};
use crate::schema::{infer_dtype, Dtype};
use crate::DataError;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;
use std::time::{Duration, Instant};

/// pandas' internal low-memory buffer: it tokenizes in chunks of roughly
/// this many bytes, re-inferring dtypes per chunk.
const LOW_MEMORY_CHUNK_BYTES: usize = 256 * 1024;

/// The paper's optimized chunk size: 16 MB, the largest I/O block Spectrum
/// Scale issues on Summit (and close to the `csize=2_000_000` rows ×
/// row-width the paper's code uses).
const OPTIMIZED_CHUNK_BYTES: usize = 16 * 1024 * 1024;

/// How a CSV file is ingested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadStrategy {
    /// `pandas.read_csv()` default (`low_memory=True`): small internal
    /// chunks, per-chunk dtype inference and column fragments, final
    /// unify-and-concat.
    PandasDefault,
    /// The paper's fix: chunked reading with `low_memory=False` — large
    /// chunks, one dtype decision, direct column appends.
    ChunkedLowMemory,
    /// Dask DataFrame: byte-range partitions parsed in parallel, then
    /// concatenated.
    DaskParallel,
    /// Turbo engine: parallel read and SWAR structural scan of the
    /// whole-file buffer, then an exact fused field parse tiled straight
    /// into disjoint row ranges of the final column storage (see
    /// [`crate::csv::turbo`]). Bit-identical to
    /// [`ReadStrategy::ChunkedLowMemory`] at any thread count; mixed-dtype
    /// files fall back to the same typed parser.
    TurboParallel,
}

impl ReadStrategy {
    /// Human-readable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            ReadStrategy::PandasDefault => "pandas.read_csv (original)",
            ReadStrategy::ChunkedLowMemory => "chunked low_memory=False",
            ReadStrategy::DaskParallel => "dask parallel",
            ReadStrategy::TurboParallel => "turbo parallel (SWAR scan)",
        }
    }
}

/// Measured statistics of one load.
#[derive(Debug, Clone)]
pub struct LoadStats {
    /// Strategy used.
    pub strategy: ReadStrategy,
    /// File size in bytes.
    pub bytes: u64,
    /// Rows parsed.
    pub rows: usize,
    /// Columns parsed.
    pub cols: usize,
    /// Wall-clock parse+materialize time.
    pub elapsed: Duration,
    /// Number of chunk boundaries crossed (fragments produced, or row
    /// partitions for the turbo path).
    pub chunks: usize,
    /// Per-phase attribution (turbo strategy only).
    pub ingest: Option<IngestPhases>,
}

impl LoadStats {
    /// Parse throughput in MiB/s (0.0 for an instantaneous or empty read).
    pub fn throughput_mib_s(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.bytes as f64 / (1024.0 * 1024.0) / secs
    }
}

/// Reads a CSV file with the requested strategy.
pub fn read_csv(path: &Path, strategy: ReadStrategy) -> Result<(Frame, LoadStats), DataError> {
    match strategy {
        ReadStrategy::TurboParallel => {
            read_turbo_with_threads(path, parx::kernel_threads().clamp(1, 8))
        }
        _ => {
            let start = Instant::now();
            let bytes = std::fs::metadata(path)?.len();
            let (frame, chunks) = match strategy {
                ReadStrategy::PandasDefault => read_typed_chunks(path, LOW_MEMORY_CHUNK_BYTES)?,
                ReadStrategy::ChunkedLowMemory => read_chunked(path)?,
                ReadStrategy::DaskParallel => read_dask(path)?,
                ReadStrategy::TurboParallel => unreachable!("handled above"),
            };
            let stats = LoadStats {
                strategy,
                bytes,
                rows: frame.nrows(),
                cols: frame.ncols(),
                elapsed: start.elapsed(),
                chunks,
                ingest: None,
            };
            Ok((frame, stats))
        }
    }
}

/// The turbo read at an explicit thread budget. Exposed so the equivalence
/// and robustness tests can pin thread counts; [`read_csv`] uses
/// [`parx::kernel_threads`].
pub fn read_turbo_with_threads(
    path: &Path,
    threads: usize,
) -> Result<(Frame, LoadStats), DataError> {
    let start = Instant::now();
    let bytes = std::fs::metadata(path)?.len();
    let (frame, chunks, phases) = read_turbo(path, bytes, threads)?;
    let stats = LoadStats {
        strategy: ReadStrategy::TurboParallel,
        bytes,
        rows: frame.nrows(),
        cols: frame.ncols(),
        elapsed: start.elapsed(),
        chunks,
        ingest: Some(phases),
    };
    Ok((frame, stats))
}

/// Streams the file in `chunk_bytes` blocks, invoking `f` with each block
/// of *complete lines* (partial trailing lines carry over). One buffer is
/// reused across the whole stream — the carry is compacted in place rather
/// than re-collected per chunk — and each block is UTF-8-validated exactly
/// once, at a newline boundary (`\n` is ASCII, so a multi-byte character
/// can never straddle the validated block and the carry).
fn stream_line_chunks(
    path: &Path,
    chunk_bytes: usize,
    mut f: impl FnMut(&str) -> Result<(), DataError>,
) -> Result<usize, DataError> {
    let mut file = std::fs::File::open(path)?;
    let mut buf: Vec<u8> = Vec::new();
    let mut chunks = 0usize;
    loop {
        let carry_len = buf.len();
        buf.resize(carry_len + chunk_bytes, 0);
        let n = file.read(&mut buf[carry_len..])?;
        buf.truncate(carry_len + n);
        if n == 0 {
            break;
        }
        // Split at the last newline; keep the remainder for the next round.
        if let Some(pos) = buf.iter().rposition(|&b| b == b'\n') {
            let text = std::str::from_utf8(&buf[..=pos])
                .map_err(|_| DataError::Malformed("non-UTF8 content".into()))?;
            f(text)?;
            chunks += 1;
            buf.copy_within(pos + 1.., 0);
            buf.truncate(buf.len() - (pos + 1));
        }
    }
    if !buf.is_empty() {
        let text = std::str::from_utf8(&buf)
            .map_err(|_| DataError::Malformed("non-UTF8 content".into()))?;
        f(text)?;
        chunks += 1;
    }
    Ok(chunks)
}

/// Chunked typed read shared by the pandas-default strategy
/// (`LOW_MEMORY_CHUNK_BYTES`) and the mixed-dtype fallbacks of the chunked
/// and turbo strategies (`OPTIMIZED_CHUNK_BYTES`): typed fragment per
/// chunk, unify-and-concat at the end. On wide files at the small chunk
/// size the per-chunk per-column overhead (token vectors, dtype scans,
/// fragment columns) dominates — the bottleneck the paper measured.
fn read_typed_chunks(path: &Path, chunk_bytes: usize) -> Result<(Frame, usize), DataError> {
    let mut fragments: Vec<Frame> = Vec::new();
    let mut width: Option<usize> = None;
    let chunks = stream_line_chunks(path, chunk_bytes, |text| {
        let frame = parse_chunk_typed(text, width)?;
        if frame.nrows() > 0 {
            width = Some(frame.ncols());
            fragments.push(frame);
        }
        Ok(())
    })?;
    if fragments.is_empty() {
        return Err(DataError::Malformed("empty csv file".into()));
    }
    Ok((Frame::concat(fragments)?, chunks))
}

/// The paper's optimized loader: 16 MB chunks, dtype inference once on the
/// first record, then direct appends into preallocated `f64` columns.
/// Falls back to the typed path if any column is non-numeric.
fn read_chunked(path: &Path) -> Result<(Frame, usize), DataError> {
    let mut columns: Vec<Vec<f64>> = Vec::new();
    let mut nonnumeric = false;
    let mut rows = 0usize;
    let chunks = stream_line_chunks(path, OPTIMIZED_CHUNK_BYTES, |text| {
        if nonnumeric {
            return Ok(());
        }
        for line in text.lines() {
            if line.is_empty() {
                continue;
            }
            let fields = split_fields(line);
            if columns.is_empty() {
                // Single inference pass on the first record.
                if fields.iter().any(|f| infer_dtype(f) == Dtype::Str) {
                    nonnumeric = true;
                    return Ok(());
                }
                columns = vec![Vec::new(); fields.len()];
            }
            if fields.len() != columns.len() {
                return Err(DataError::Malformed(format!(
                    "row {rows} has {} fields, expected {}",
                    fields.len(),
                    columns.len()
                )));
            }
            for (col, field) in columns.iter_mut().zip(&fields) {
                match field.trim().parse::<f64>() {
                    Ok(v) => col.push(v),
                    Err(_) => {
                        nonnumeric = true;
                        return Ok(());
                    }
                }
            }
            rows += 1;
        }
        Ok(())
    })?;
    if nonnumeric {
        // Mixed-dtype file: re-read with the typed parser (still large
        // chunks, so the cost profile stays close to the optimized path).
        return read_typed_chunks(path, OPTIMIZED_CHUNK_BYTES);
    }
    if columns.is_empty() {
        return Err(DataError::Malformed("empty csv file".into()));
    }
    let frame = Frame::new(columns.into_iter().map(Column::Float64).collect())?;
    Ok((frame, chunks))
}

/// Dask-style parallel read: split the file into byte partitions aligned to
/// line boundaries, parse each partition on a thread of its own, concat in
/// order.
///
/// Dtype note: each partition is typed independently, so a column that is
/// all-int in one partition and float in another produces disagreeing
/// fragments — `Frame::concat` resolves them with the same
/// [`crate::schema::unify`] rule the parser's own inference uses (Float64
/// absorbs Int64, Str absorbs everything), which is also the rule the
/// turbo fallback inherits by going through the same typed parser.
fn read_dask(path: &Path) -> Result<(Frame, usize), DataError> {
    let bytes = std::fs::read(path)?;
    if bytes.is_empty() {
        return Err(DataError::Malformed("empty csv file".into()));
    }
    let text =
        std::str::from_utf8(&bytes).map_err(|_| DataError::Malformed("non-UTF8 content".into()))?;
    let nparts = parx::default_threads().clamp(1, 8);
    let bounds = turbo::partition_bounds(&bytes, nparts);
    let results = parx::parallel_each(bounds.windows(2), |_, span| {
        parse_chunk_typed(&text[span[0]..span[1]], None)
    });
    let mut fragments = Vec::with_capacity(results.len());
    for r in results {
        let frame = r?;
        if frame.nrows() > 0 {
            fragments.push(frame);
        }
    }
    if fragments.is_empty() {
        return Err(DataError::Malformed("empty csv file".into()));
    }
    let chunks = fragments.len();
    Ok((Frame::concat(fragments)?, chunks))
}

/// Bytes of file per reader/scanner thread below which a further thread
/// costs more to spawn than it saves.
const PARTITION_GRAIN_BYTES: u64 = 64 * 1024;

/// Reads the `len`-byte file into one buffer, `parts` equal byte ranges at
/// a time on a thread each (every range through its own handle, so no seek
/// position is shared).
fn read_parallel(path: &Path, len: usize, parts: usize) -> Result<Vec<u8>, DataError> {
    let mut bytes = vec![0u8; len];
    let share = len.div_ceil(parts.max(1)).max(1);
    let reads = parx::parallel_each(bytes.chunks_mut(share), |i, part| {
        let mut file = std::fs::File::open(path)?;
        file.seek(SeekFrom::Start((i * share) as u64))?;
        file.read_exact(part)
    });
    reads.into_iter().collect::<Result<(), _>>()?;
    Ok(bytes)
}

/// The turbo read of a `len`-byte file: parallel whole-file read → parallel
/// SWAR structural scan → parallel parse into preallocated columns. Numeric
/// files never touch the typed parser; mixed-dtype files take the identical
/// fallback as [`ReadStrategy::ChunkedLowMemory`], so results always agree.
fn read_turbo(
    path: &Path,
    len: u64,
    threads: usize,
) -> Result<(Frame, usize, IngestPhases), DataError> {
    let t0 = Instant::now();
    if len == 0 {
        return Err(DataError::Malformed("empty csv file".into()));
    }
    if len >= u32::MAX as u64 {
        // Beyond the structural index's u32 offsets: the streaming chunked
        // strategy handles any size, and nothing has been read yet.
        let (frame, chunks) = read_chunked(path)?;
        return Ok((frame, chunks, IngestPhases::default()));
    }
    let parts = (len / PARTITION_GRAIN_BYTES).clamp(1, threads.max(1) as u64) as usize;
    let bytes = read_parallel(path, len as usize, parts)?;
    let mut idx = StructuralIndex::new();
    turbo::scan_parallel(&bytes, &mut idx, parts)?;
    let scan = t0.elapsed();
    if idx.rows() == 0 {
        return Err(DataError::Malformed("empty csv file".into()));
    }

    let t1 = Instant::now();
    let mut columns: Vec<Vec<f64>> = Vec::new();
    let numeric = turbo::parse_into(&bytes, &idx, &mut columns, threads);
    let parse = t1.elapsed();
    if !numeric {
        // Mixed-dtype file: same typed fallback as the chunked strategy.
        drop(bytes);
        let (frame, chunks) = read_typed_chunks(path, OPTIMIZED_CHUNK_BYTES)?;
        return Ok((
            frame,
            chunks,
            IngestPhases {
                scan,
                parse,
                materialize: Duration::ZERO,
            },
        ));
    }

    let t2 = Instant::now();
    let chunks = turbo::effective_partitions(idx.rows(), threads);
    let frame = Frame::new(columns.into_iter().map(Column::Float64).collect())?;
    let materialize = t2.elapsed();
    Ok((
        frame,
        chunks,
        IngestPhases {
            scan,
            parse,
            materialize,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::write_matrix_csv;

    fn scratch() -> parx::Scratch {
        parx::scratch("reader_tests").expect("scratch dir")
    }

    fn write_matrix(
        dir: &Path,
        name: &str,
        rows: usize,
        cols: usize,
    ) -> (std::path::PathBuf, Vec<f32>) {
        use xrng::RandomSource;
        let mut rng = xrng::seeded(rows as u64 * 31 + cols as u64);
        let data: Vec<f32> = (0..rows * cols)
            .map(|_| (rng.next_f32() * 100.0).round() / 4.0)
            .collect();
        let path = dir.join(name);
        write_matrix_csv(&path, &data, rows, cols).unwrap();
        (path, data)
    }

    #[test]
    fn all_strategies_agree() {
        let dir = scratch();
        let (path, data) = write_matrix(&dir, "agree.csv", 200, 17);
        for strategy in [
            ReadStrategy::PandasDefault,
            ReadStrategy::ChunkedLowMemory,
            ReadStrategy::DaskParallel,
            ReadStrategy::TurboParallel,
        ] {
            let (frame, stats) = read_csv(&path, strategy).unwrap();
            assert_eq!(frame.nrows(), 200, "{strategy:?}");
            assert_eq!(frame.ncols(), 17, "{strategy:?}");
            assert_eq!(frame.to_f32_matrix(), data, "{strategy:?}");
            assert_eq!(stats.rows, 200);
            assert!(stats.bytes > 0);
        }
    }

    /// xrng-driven property test: for randomly drawn file geometries, all
    /// strategies must materialize the *identical* frame — they are
    /// different read schedules over the same parse semantics.
    #[test]
    fn random_geometries_parse_identically_across_strategies() {
        use xrng::RandomSource;
        let mut rng = xrng::seeded(0xC5F_D47A);
        let dir = scratch();
        for case in 0..12 {
            let rows = 1 + rng.next_index(300);
            let cols = 1 + rng.next_index(40);
            let (path, _) = write_matrix(&dir, &format!("prop_{case}.csv"), rows, cols);
            let (base, base_stats) = read_csv(&path, ReadStrategy::PandasDefault).unwrap();
            for strategy in [
                ReadStrategy::ChunkedLowMemory,
                ReadStrategy::DaskParallel,
                ReadStrategy::TurboParallel,
            ] {
                let (frame, stats) = read_csv(&path, strategy).unwrap();
                assert_eq!(frame, base, "case {case}: {rows}x{cols} {strategy:?}");
                assert_eq!(stats.bytes, base_stats.bytes);
                assert_eq!((stats.rows, stats.cols), (rows, cols));
            }
        }
    }

    #[test]
    fn throughput_reflects_bytes_over_elapsed() {
        let mut stats = LoadStats {
            strategy: ReadStrategy::PandasDefault,
            bytes: 3 * 1024 * 1024,
            rows: 10,
            cols: 3,
            elapsed: Duration::from_secs(2),
            chunks: 1,
            ingest: None,
        };
        assert!((stats.throughput_mib_s() - 1.5).abs() < 1e-12);
        stats.elapsed = Duration::ZERO;
        assert_eq!(stats.throughput_mib_s(), 0.0);
    }

    #[test]
    fn pandas_default_uses_more_chunks_on_wide_files() {
        // Wide file: 40 rows x 2000 cols ≈ 500 KB > one 256 KB low-memory
        // chunk but < one 16 MB optimized chunk.
        let dir = scratch();
        let (path, _) = write_matrix(&dir, "wide.csv", 40, 2000);
        let (_, slow) = read_csv(&path, ReadStrategy::PandasDefault).unwrap();
        let (_, fast) = read_csv(&path, ReadStrategy::ChunkedLowMemory).unwrap();
        assert!(
            slow.chunks > 1,
            "pandas path should fragment: {}",
            slow.chunks
        );
        assert_eq!(fast.chunks, 1, "optimized path should not fragment");
    }

    #[test]
    fn turbo_reports_ingest_phases_and_partitions() {
        let dir = scratch();
        let (path, data) = write_matrix(&dir, "turbo_phases.csv", 300, 9);
        let (frame, stats) = read_turbo_with_threads(&path, 4).unwrap();
        assert_eq!(frame.to_f32_matrix(), data);
        assert_eq!(stats.strategy, ReadStrategy::TurboParallel);
        let phases = stats.ingest.expect("turbo reports phases");
        assert!(phases.scan > Duration::ZERO);
        assert!(phases.parse > Duration::ZERO);
        // 300 rows / grain 16 supports all 4 partitions.
        assert_eq!(stats.chunks, 4);
    }

    #[test]
    fn mixed_dtype_file_falls_back_correctly() {
        let dir = scratch();
        let path = dir.join("mixed.csv");
        std::fs::write(&path, "1,tumor,2.5\n2,normal,3.5\n").unwrap();
        for strategy in [
            ReadStrategy::PandasDefault,
            ReadStrategy::ChunkedLowMemory,
            ReadStrategy::DaskParallel,
            ReadStrategy::TurboParallel,
        ] {
            let (frame, _) = read_csv(&path, strategy).unwrap();
            assert_eq!(frame.nrows(), 2);
            assert_eq!(frame.columns()[1].dtype(), Dtype::Str, "{strategy:?}");
            assert_eq!(frame.columns()[0].dtype(), Dtype::Int64, "{strategy:?}");
        }
    }

    /// Pins the cross-partition dtype rule: a column that is all-int in the
    /// early byte partitions but float in a later one must unify to Float64
    /// after the dask concat (per-fragment Int64 columns are cast), and the
    /// turbo read of the same file agrees on dtype and values.
    #[test]
    fn dask_partitions_unify_dtypes_across_fragments() {
        let dir = scratch();
        let path = dir.join("dask_unify.csv");
        let mut text = String::new();
        for i in 0..4000 {
            text.push_str(&format!("{i},7\n"));
        }
        text.push_str("0.5,7\n");
        std::fs::write(&path, &text).unwrap();
        let (dask, _) = read_csv(&path, ReadStrategy::DaskParallel).unwrap();
        assert_eq!(dask.nrows(), 4001);
        assert_eq!(dask.columns()[0].dtype(), Dtype::Float64);
        let (turbo, _) = read_csv(&path, ReadStrategy::TurboParallel).unwrap();
        assert_eq!(turbo.nrows(), 4001);
        assert_eq!(turbo.columns()[0].dtype(), Dtype::Float64);
        // Same values under f32 projection regardless of engine.
        assert_eq!(dask.to_f32_matrix(), turbo.to_f32_matrix());
    }

    #[test]
    fn empty_file_is_error() {
        let dir = scratch();
        let path = dir.join("empty.csv");
        std::fs::write(&path, "").unwrap();
        for strategy in [
            ReadStrategy::PandasDefault,
            ReadStrategy::ChunkedLowMemory,
            ReadStrategy::DaskParallel,
            ReadStrategy::TurboParallel,
        ] {
            assert!(read_csv(&path, strategy).is_err(), "{strategy:?}");
        }
    }

    #[test]
    fn blank_only_file_is_error_for_turbo() {
        let dir = scratch();
        let path = dir.join("blanks.csv");
        std::fs::write(&path, "\n\n\r\n").unwrap();
        assert!(read_csv(&path, ReadStrategy::TurboParallel).is_err());
    }

    #[test]
    fn ragged_file_is_error() {
        let dir = scratch();
        let path = dir.join("ragged.csv");
        std::fs::write(&path, "1,2,3\n4,5\n").unwrap();
        for strategy in [
            ReadStrategy::PandasDefault,
            ReadStrategy::ChunkedLowMemory,
            ReadStrategy::TurboParallel,
        ] {
            assert!(read_csv(&path, strategy).is_err(), "{strategy:?}");
        }
    }

    #[test]
    fn missing_file_is_io_error() {
        let r = read_csv(
            Path::new("/nonexistent/file.csv"),
            ReadStrategy::ChunkedLowMemory,
        );
        assert!(matches!(r, Err(DataError::Io(_))));
        let r = read_csv(
            Path::new("/nonexistent/file.csv"),
            ReadStrategy::TurboParallel,
        );
        assert!(matches!(r, Err(DataError::Io(_))));
    }

    #[test]
    fn labels_match_paper_terms() {
        assert!(ReadStrategy::PandasDefault.label().contains("pandas"));
        assert!(ReadStrategy::ChunkedLowMemory
            .label()
            .contains("low_memory=False"));
        assert!(ReadStrategy::TurboParallel.label().contains("turbo"));
    }
}
