//! Cold-vs-warm dataset cache comparison.
//!
//! The paper stops at optimizing the CSV *parse*; the `datacache` crate
//! removes the repeated parse entirely by persisting binary shards. This
//! driver quantifies that next step twice over:
//!
//! 1. **measured** — a wide NT3-like file is parsed with the real Rust CSV
//!    engine (original and chunked strategies), cold-built into the shard
//!    cache, and warm-loaded back;
//! 2. **modelled** — the calibrated `cluster` simulator's per-rank
//!    data-loading seconds on Summit with every [`LoadMethod`], including
//!    the warm [`LoadMethod::BinaryCache`].

use crate::report::{format_table, Experiment};
use cluster::calib::Bench;
use cluster::{io, LoadMethod, Machine};
use datacache::CacheStore;
use dataio::{generate, read_csv, write_csv_dataset, ClassSpec, ReadStrategy, SyntheticSpec};
use parx::scratch;
use std::time::Instant;

/// One measured cold/warm comparison on a generated file.
#[derive(Debug, Clone)]
pub struct CacheComparison {
    /// `pandas.read_csv`-style parse seconds.
    pub pandas_s: f64,
    /// Parse throughput of the pandas-style strategy, MiB/s.
    pub pandas_mib_s: f64,
    /// Chunked (`low_memory=False`) parse seconds.
    pub chunked_s: f64,
    /// Chunked parse throughput, MiB/s.
    pub chunked_mib_s: f64,
    /// Cold cache build seconds (parse + shard encode + write).
    pub cold_build_s: f64,
    /// Warm load seconds: manifest hit plus every shard read, checksummed
    /// and decoded.
    pub warm_load_s: f64,
}

impl CacheComparison {
    /// Warm-load speedup over the original pandas-style parse.
    pub fn warm_speedup_vs_pandas(&self) -> f64 {
        self.pandas_s / self.warm_load_s.max(1e-9)
    }
}

/// Measures parse-vs-cache times on a generated `rows`×`cols` file split
/// into `shards` shards. A failed step is an error naming the step, never
/// a shorter table.
pub fn measure_cache_comparison(
    rows: usize,
    cols: usize,
    shards: usize,
) -> Result<CacheComparison, String> {
    let dir = scratch("cache_table").map_err(|e| format!("scratch dir: {e}"))?;
    let csv = dir.join("data.csv");
    let spec = SyntheticSpec {
        rows,
        cols,
        kind: ClassSpec::Classification {
            classes: 2,
            separation: 1.0,
        },
        noise: 0.5,
        seed: 33,
    };
    write_csv_dataset(&csv, &generate(&spec))
        .map_err(|e| format!("cannot write {}: {e}", csv.display()))?;

    let parse = |strategy: ReadStrategy| {
        read_csv(&csv, strategy)
            .map(|(_, stats)| stats)
            .map_err(|e| format!("{} failed on {}: {e}", strategy.label(), csv.display()))
    };
    let pandas_stats = parse(ReadStrategy::PandasDefault)?;
    let chunked_stats = parse(ReadStrategy::ChunkedLowMemory)?;

    let store = CacheStore::new(dir.join("cache")).map_err(|e| format!("cache root: {e}"))?;
    let cold_start = Instant::now();
    store
        .open_csv(&csv, ReadStrategy::ChunkedLowMemory, shards)
        .map_err(|e| format!("cold build: {e}"))?;
    let cold_build_s = cold_start.elapsed().as_secs_f64();

    let warm_start = Instant::now();
    let (ds, outcome) = store
        .open_csv(&csv, ReadStrategy::ChunkedLowMemory, shards)
        .map_err(|e| format!("warm open: {e}"))?;
    if !outcome.is_warm() {
        return Err("warm open: the second open rebuilt instead of hitting the cache".into());
    }
    ds.load_all().map_err(|e| format!("warm load: {e}"))?;
    let warm_load_s = warm_start.elapsed().as_secs_f64();

    Ok(CacheComparison {
        pandas_s: pandas_stats.elapsed.as_secs_f64(),
        pandas_mib_s: pandas_stats.throughput_mib_s(),
        chunked_s: chunked_stats.elapsed.as_secs_f64(),
        chunked_mib_s: chunked_stats.throughput_mib_s(),
        cold_build_s,
        warm_load_s,
    })
}

/// The cold-vs-warm cache experiment: measured local comparison plus the
/// modelled Summit sweep.
pub fn table_cache(quick: bool) -> Experiment {
    // NT3's geometry is wide-few-rows; quick mode shrinks the width.
    let (rows, cols) = if quick { (160, 4_000) } else { (160, 12_000) };
    let c = measure_cache_comparison(rows, cols, 4).unwrap_or_else(|e| panic!("table_cache: {e}"));
    let speedup = |s: f64| format!("{:.2}x", c.pandas_s / s.max(1e-9));
    let measured = format_table(
        &["method", "time", "MiB/s", "vs pandas"],
        &[
            vec![
                "pandas-style parse".into(),
                format!("{:.3}s", c.pandas_s),
                format!("{:.1}", c.pandas_mib_s),
                "1.00x".into(),
            ],
            vec![
                "chunked parse".into(),
                format!("{:.3}s", c.chunked_s),
                format!("{:.1}", c.chunked_mib_s),
                speedup(c.chunked_s),
            ],
            vec![
                "cold build (parse+write)".into(),
                format!("{:.3}s", c.cold_build_s),
                "-".into(),
                speedup(c.cold_build_s),
            ],
            vec![
                "warm load".into(),
                format!("{:.3}s", c.warm_load_s),
                "-".into(),
                speedup(c.warm_load_s),
            ],
        ],
    );
    let mut text =
        format!("Measured on a generated NT3-like file ({rows}x{cols}, 4 shards):\n{measured}");

    text.push_str("\nModelled per-rank NT3 loading on Summit (train+test, seconds):\n");
    let gpus = [1usize, 6, 48, 384];
    let mut rows_out = Vec::new();
    for method in [
        LoadMethod::PandasDefault,
        LoadMethod::ChunkedLowMemoryFalse,
        LoadMethod::Dask,
        LoadMethod::TurboParallel,
        LoadMethod::BinaryCache,
    ] {
        let mut cells = vec![method.label().to_string()];
        for &g in &gpus {
            let nodes = Machine::Summit.nodes_for(g);
            cells.push(format!(
                "{:.1}",
                io::total_load_seconds(Machine::Summit, Bench::Nt3, method, nodes)
            ));
        }
        rows_out.push(cells);
    }
    text.push_str(&format_table(
        &["method", "1 GPU", "6 GPUs", "48 GPUs", "384 GPUs"],
        &rows_out,
    ));

    Experiment {
        id: "table_cache",
        title: "Cold vs warm dataset cache: measured parse/build/load and modelled Summit sweep",
        text,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_load_is_at_least_3x_faster_than_pandas_parse() {
        let c = measure_cache_comparison(160, 8_000, 4).unwrap();
        assert!(
            c.warm_speedup_vs_pandas() >= 3.0,
            "warm load {:.4}s vs pandas parse {:.4}s ({:.2}x)",
            c.warm_load_s,
            c.pandas_s,
            c.warm_speedup_vs_pandas()
        );
    }

    #[test]
    fn table_renders_measured_and_modelled_sections() {
        let e = table_cache(true);
        assert_eq!(e.id, "table_cache");
        assert!(e.text.contains("binary shard cache (warm)"));
        assert!(e.text.contains("warm load"));
    }
}
