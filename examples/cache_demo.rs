//! Smoke demo of the binary dataset cache: cold build, warm reload, and a
//! warm cached training run.
//!
//! ```text
//! cargo run --release --example cache_demo
//! ```

use candle::{run_parallel, BenchDataKind, CacheSource, CacheSpec, FuncScaling, ParallelRunSpec};
use cluster::calib::Bench;
use datacache::CacheStore;
use dataio::{generate, read_csv, write_csv_dataset, ClassSpec, ReadStrategy, SyntheticSpec};
use std::time::Instant;

fn main() {
    let dir = parx::scratch("cache_demo").expect("temp dir");

    // A wide NT3-like file: few rows, many expression columns.
    let csv = dir.join("nt3_like.csv");
    let spec = SyntheticSpec {
        rows: 160,
        cols: 8_000,
        kind: ClassSpec::Classification {
            classes: 2,
            separation: 1.0,
        },
        noise: 0.5,
        seed: 7,
    };
    let bytes = write_csv_dataset(&csv, &generate(&spec)).expect("write csv");
    println!(
        "generated {}x{} CSV ({:.1} MiB)",
        spec.rows,
        spec.cols,
        bytes as f64 / (1024.0 * 1024.0)
    );

    // Baseline: the original pandas-style parse.
    let (_, stats) = read_csv(&csv, ReadStrategy::PandasDefault).expect("parse");
    let parse_s = stats.elapsed.as_secs_f64();
    println!(
        "pandas-style parse      {:>8.3}s  ({:.1} MiB/s)",
        parse_s,
        stats.throughput_mib_s()
    );

    // Cold: parse once, write 4 checksummed shards.
    let store = CacheStore::new(dir.join("cache")).expect("cache root");
    let cold_start = Instant::now();
    let (_, outcome) = store
        .open_csv(&csv, ReadStrategy::ChunkedLowMemory, 4)
        .expect("cold build");
    assert!(!outcome.is_warm(), "first open must build");
    println!(
        "cold build (parse+write){:>8.3}s",
        cold_start.elapsed().as_secs_f64()
    );

    // Warm: manifest hit, shards read, checksummed and decoded side by side.
    let warm_start = Instant::now();
    let (ds, outcome) = store
        .open_csv(&csv, ReadStrategy::ChunkedLowMemory, 4)
        .expect("warm open");
    assert!(outcome.is_warm(), "second open must hit");
    let frame = ds.load_all().expect("warm load");
    let warm_s = warm_start.elapsed().as_secs_f64();
    println!(
        "warm reload             {:>8.3}s  ({}x{} rows restored, {:.1}x vs parse)",
        warm_s,
        frame.nrows(),
        frame.ncols(),
        parse_s / warm_s.max(1e-9)
    );

    // The same machinery inside the training pipeline: the second run is
    // served from the cache and reports `cache_load` instead of
    // `data_loading`.
    let run_spec = ParallelRunSpec {
        bench: Bench::Nt3,
        workers: 2,
        scaling: FuncScaling::Strong { total_epochs: 4 },
        batch: 20,
        base_lr: 0.02,
        data: BenchDataKind::tiny(Bench::Nt3),
        seed: 42,
        record_timeline: false,
        data_mode: candle::pipeline::DataMode::FullReplicated,
        cache: Some(CacheSpec {
            root: dir.join("pipeline_cache"),
            shards: 3,
            prefetch: false,
            source: CacheSource::Generate,
        }),
        data_service: None,
        comm_overlap: None,
    };
    let cold_run = run_parallel(&run_spec).expect("cold pipeline run");
    let warm_run = run_parallel(&run_spec).expect("warm pipeline run");
    println!(
        "\ncold pipeline phase profile:\n{}",
        cold_run.profile.report()
    );
    println!(
        "warm pipeline phase profile:\n{}",
        warm_run.profile.report()
    );
    assert_eq!(cold_run.train_loss, warm_run.train_loss);
    println!("cold and warm runs trained to identical losses — cache is bit-exact");
}
