//! Cold-vs-warm dataset cache comparison.
//!
//! The paper stops at optimizing the CSV *parse*; the `datacache` crate
//! removes the repeated parse entirely by persisting binary shards. This
//! driver quantifies that next step twice over:
//!
//! 1. **measured** — a wide NT3-like file is parsed with the real Rust CSV
//!    engine (original and chunked strategies), cold-built into the shard
//!    cache, and warm-loaded back (sequentially and through the
//!    background prefetcher);
//! 2. **modelled** — the calibrated `cluster` simulator's per-rank
//!    data-loading seconds on Summit with every [`LoadMethod`], including
//!    the warm [`LoadMethod::BinaryCache`].

use crate::report::{format_table, Experiment};
use cluster::calib::Bench;
use cluster::{io, LoadMethod, Machine};
use datacache::{CacheStore, Prefetcher};
use dataio::{generate, write_csv_dataset, read_csv, ClassSpec, ReadStrategy, SyntheticSpec};
use parx::scratch;
use std::sync::Arc;
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
    /// Warm sequential shard load seconds.
    pub warm_load_s: f64,
    /// Warm prefetched load seconds (background double-buffered decode).
    pub warm_prefetch_s: f64,
    /// Prefetcher counters from the warm prefetched load.
    pub prefetch_stats: datacache::PrefetchStats,
}

impl CacheComparison {
    /// Warm-load speedup over the original pandas-style parse.
    pub fn warm_speedup_vs_pandas(&self) -> f64 {
        self.pandas_s / self.warm_load_s.max(1e-9)
    }
}

/// Measures parse-vs-cache times on a generated `rows`×`cols` file split
/// into `shards` shards. Returns `None` if the temp filesystem is
/// unavailable.
pub fn measure_cache_comparison(
    rows: usize,
    cols: usize,
    shards: usize,
) -> Option<CacheComparison> {
    let dir = scratch("cache_table").ok()?;
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
    write_csv_dataset(&csv, &generate(&spec)).ok()?;

    let (_, pandas_stats) = read_csv(&csv, ReadStrategy::PandasDefault).ok()?;
    let (_, chunked_stats) = read_csv(&csv, ReadStrategy::ChunkedLowMemory).ok()?;

    let store = CacheStore::new(dir.join("cache")).ok()?;
    let cold_start = Instant::now();
    let _ = store
        .open_csv(&csv, ReadStrategy::ChunkedLowMemory, shards)
        .ok()?;
    let cold_build_s = cold_start.elapsed().as_secs_f64();

    let warm_start = Instant::now();
    let (ds, outcome) = store
        .open_csv(&csv, ReadStrategy::ChunkedLowMemory, shards)
        .ok()?;
    if !outcome.is_warm() {
        return None;
    }
    ds.load_all().ok()?;
    let warm_load_s = warm_start.elapsed().as_secs_f64();

    let ds = Arc::new(ds);
    let prefetch_start = Instant::now();
    let mut pf = Prefetcher::all(Arc::clone(&ds));
    for item in pf.by_ref() {
        item.ok()?;
    }
    let warm_prefetch_s = prefetch_start.elapsed().as_secs_f64();
    let prefetch_stats = pf.stats();

    Some(CacheComparison {
        pandas_s: pandas_stats.elapsed.as_secs_f64(),
        pandas_mib_s: pandas_stats.throughput_mib_s(),
        chunked_s: chunked_stats.elapsed.as_secs_f64(),
        chunked_mib_s: chunked_stats.throughput_mib_s(),
        cold_build_s,
        warm_load_s,
        warm_prefetch_s,
        prefetch_stats,
    })
}

/// The cold-vs-warm cache experiment: measured local comparison plus the
/// modelled Summit sweep.
pub fn table_cache(quick: bool) -> Experiment {
    // NT3's geometry is wide-few-rows; quick mode shrinks the width.
    let (rows, cols) = if quick { (160, 4_000) } else { (160, 12_000) };
    let mut text = String::new();
    match measure_cache_comparison(rows, cols, 4) {
        Some(c) => {
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
                        "warm load (sequential)".into(),
                        format!("{:.3}s", c.warm_load_s),
                        "-".into(),
                        speedup(c.warm_load_s),
                    ],
                    vec![
                        "warm load (prefetched)".into(),
                        format!("{:.3}s", c.warm_prefetch_s),
                        "-".into(),
                        speedup(c.warm_prefetch_s),
                    ],
                ],
            );
            text.push_str(&format!(
                "Measured on a generated NT3-like file ({rows}x{cols}, 4 shards):\n{measured}"
            ));
            text.push_str(&format!(
                "prefetch counters: {} ready hits, {} waits ({:.1}ms blocked), {} decoded\n",
                c.prefetch_stats.ready_hits,
                c.prefetch_stats.waits,
                c.prefetch_stats.wait_time().as_secs_f64() * 1e3,
                c.prefetch_stats.decoded,
            ));
        }
        None => text.push_str("  (temp dir unavailable; measured section skipped)\n"),
    }

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
        let c = measure_cache_comparison(160, 8_000, 4).expect("temp fs available");
        assert!(
            c.warm_speedup_vs_pandas() >= 3.0,
            "warm load {:.4}s vs pandas parse {:.4}s ({:.2}x)",
            c.warm_load_s,
            c.pandas_s,
            c.warm_speedup_vs_pandas()
        );
        assert_eq!(
            c.prefetch_stats.ready_hits + c.prefetch_stats.waits,
            c.prefetch_stats.decoded
        );
        assert_eq!(c.prefetch_stats.decoded, 4);
    }

    #[test]
    fn table_renders_measured_and_modelled_sections() {
        let e = table_cache(true);
        assert_eq!(e.id, "table_cache");
        assert!(e.text.contains("binary shard cache (warm)"));
        assert!(e.text.contains("warm load (sequential)"));
        assert!(e.text.contains("prefetch counters"));
    }
}
