//! Data-loading method shoot-out on real files (paper §5, Tables 3/4).
//!
//! Generates CSV files with the paper's two geometries — wide-few-rows
//! (NT3/P1B1-like) and narrow-many-rows (P1B3-like) — and measures the
//! four reader strategies of the Rust CSV engine for real. The paper's
//! finding should reproduce on any machine: the chunked `low_memory=False`
//! analogue wins big on wide files and barely matters on narrow ones,
//! and the turbo engine (SWAR scan + parallel in-place parse) beats the
//! chunked strategy on both.
//!
//! ```text
//! cargo run --release --example data_loading [scale]
//! ```
//!
//! `scale` (default 1) multiplies the generated file sizes.

use dataio::{generate, read_csv, write_csv_dataset, ClassSpec, ReadStrategy, SyntheticSpec};

fn main() {
    let scale: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let dir = parx::scratch("data_loading").expect("temp dir");

    let cases = [
        (
            "NT3-like wide",
            SyntheticSpec {
                rows: 320 * scale,
                cols: 12_000,
                kind: ClassSpec::Classification {
                    classes: 2,
                    separation: 1.0,
                },
                noise: 0.5,
                seed: 31,
            },
        ),
        (
            "P1B3-like narrow",
            SyntheticSpec {
                rows: 120_000 * scale,
                cols: 30,
                kind: ClassSpec::Regression { signal_features: 8 },
                noise: 0.02,
                seed: 32,
            },
        ),
    ];

    for (label, spec) in cases {
        let ds = generate(&spec);
        let path = dir.join(format!("{}x{}.csv", spec.rows, spec.cols));
        let bytes = write_csv_dataset(&path, &ds).expect("write dataset");
        println!(
            "\n{label}: {} rows x {} cols ({:.1} MB)",
            spec.rows,
            spec.cols + 1,
            bytes as f64 / 1e6
        );
        let mut pandas_secs = 0.0;
        for strategy in [
            ReadStrategy::PandasDefault,
            ReadStrategy::ChunkedLowMemory,
            ReadStrategy::DaskParallel,
            ReadStrategy::TurboParallel,
        ] {
            let (frame, stats) = read_csv(&path, strategy).expect("read");
            let s = stats.elapsed.as_secs_f64();
            if strategy == ReadStrategy::PandasDefault {
                pandas_secs = s;
            }
            println!(
                "  {:<28} {:>8.3} s  ({} chunks, {} rows, speedup {:.2}x)",
                strategy.label(),
                s,
                stats.chunks,
                frame.nrows(),
                pandas_secs / s
            );
            if let Some(p) = stats.ingest {
                println!(
                    "  {:<28} scan {:.1} ms, parse {:.1} ms, materialize {:.1} ms",
                    "",
                    p.scan.as_secs_f64() * 1e3,
                    p.parse.as_secs_f64() * 1e3,
                    p.materialize.as_secs_f64() * 1e3
                );
            }
        }
        let _ = std::fs::remove_file(&path);
    }
    println!("\npaper (Summit, full-size files): NT3 81.72 s -> 14.30 s (5.7x); P1B3 5.41 s -> 5.34 s (1.0x)");
}
