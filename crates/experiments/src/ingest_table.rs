//! Seed-vs-turbo CSV ingest comparison.
//!
//! The paper's loader fix (chunked, `low_memory=False`) attacks I/O
//! scheduling; the turbo engine (`dataio::csv::turbo`) attacks the parse
//! itself — parallel SWAR structural scan, exact fused field conversion,
//! and tiled parallel materialization into the final columns. This driver
//! measures all four strategies on generated files at the paper's two
//! geometries and reports wall time, throughput, and the turbo engine's
//! per-phase breakdown. The NT3-like wide file carries the 16–17 digit
//! tokens of `candle::export_packed_csv` — what the end-to-end benchmark's
//! cold loads ingest — and the P1B3-like narrow file the short
//! (≤ 9 digit) tokens of `write_matrix_csv`, so both populations are
//! timed.

use crate::report::{format_table, Experiment};
use candle::{export_packed_csv, BenchDataKind};
use cluster::calib::Bench;
use dataio::csv::IngestPhases;
use dataio::{generate, read_csv, write_csv_dataset, ClassSpec, ReadStrategy, SyntheticSpec};
use parx::scratch;
use std::time::Instant;

/// One strategy timing on one generated file geometry.
#[derive(Debug, Clone)]
pub struct IngestComparison {
    /// File geometry label.
    pub geometry: String,
    /// Strategy measured.
    pub strategy: ReadStrategy,
    /// Best-of-reps wall seconds.
    pub seconds: f64,
    /// Throughput in MiB/s at the best rep.
    pub mib_s: f64,
    /// Turbo per-phase breakdown (best rep), when the strategy reports it.
    pub phases: Option<IngestPhases>,
    /// True for the NT3-shaped file the acceptance criteria gate on.
    pub nt3: bool,
}

impl IngestComparison {
    /// Convenience label for report rows.
    pub fn label(&self) -> String {
        format!("{} @ {}", self.strategy.label(), self.geometry)
    }
}

/// Times every read strategy on the NT3-like wide file and the P1B3-like
/// narrow file. `quick` shrinks the widths so the debug test suite stays
/// fast; the full mode matches the `table_cache` NT3 geometry. An I/O
/// failure is an error naming the file and strategy, never a shorter table.
pub fn measure_ingest_comparison(quick: bool) -> Result<Vec<IngestComparison>, String> {
    let reps = if quick { 2 } else { 3 };
    let dir = scratch("ingest_table").map_err(|e| e.to_string())?;
    let wide_cols = if quick { 4_000 } else { 12_000 };
    let narrow_rows = if quick { 8_000 } else { 32_000 };
    let mut out = Vec::new();
    for nt3 in [true, false] {
        let (geometry, path, written) = if nt3 {
            // `f64` shortest-repr of widened `f32`, 16–17 digit tokens: the
            // population every CSV-fed pipeline run (and the end-to-end
            // benchmark) ingests.
            let path = dir.join("wide.csv");
            let kind = BenchDataKind {
                bench: Bench::Nt3,
                features: wide_cols,
                train_rows: 128,
                test_rows: 32,
            };
            let written = export_packed_csv(&kind, 41, &path);
            (format!("wide NT3-like 160x{wide_cols}"), path, written)
        } else {
            // `f32` shortest-repr, at most 9 digits.
            let path = dir.join("narrow.csv");
            let spec = SyntheticSpec {
                rows: narrow_rows,
                cols: 30,
                kind: ClassSpec::Regression { signal_features: 8 },
                noise: 0.02,
                seed: 42,
            };
            let written = write_csv_dataset(&path, &generate(&spec)).map(drop);
            (format!("narrow P1B3-like {narrow_rows}x30"), path, written)
        };
        written.map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        for strategy in [
            ReadStrategy::PandasDefault,
            ReadStrategy::ChunkedLowMemory,
            ReadStrategy::DaskParallel,
            ReadStrategy::TurboParallel,
        ] {
            let mut best = f64::INFINITY;
            let mut best_mib = 0.0;
            let mut best_phases = None;
            for _ in 0..reps {
                let start = Instant::now();
                let (frame, stats) = read_csv(&path, strategy).map_err(|e| {
                    format!("{} failed on {}: {e}", strategy.label(), path.display())
                })?;
                let s = start.elapsed().as_secs_f64();
                std::hint::black_box(&frame);
                if s < best {
                    best = s;
                    best_mib = stats.throughput_mib_s();
                    best_phases = stats.ingest;
                }
            }
            out.push(IngestComparison {
                geometry: geometry.clone(),
                strategy,
                seconds: best,
                mib_s: best_mib,
                phases: best_phases,
                nt3,
            });
        }
    }
    Ok(out)
}

/// The ingest-engine experiment: all four strategies at both geometries,
/// rendered like the paper's loader tables plus the turbo phase breakdown.
/// In full mode on a release build it asserts the acceptance bar: turbo
/// beats the chunked strategy wall-clock at the NT3-shaped file. Debug
/// timings are too distorted to gate on.
pub fn table_ingest(quick: bool) -> Experiment {
    let rows = measure_ingest_comparison(quick).unwrap_or_else(|e| panic!("table_ingest: {e}"));
    if crate::gate::timed_asserts_enabled(quick) {
        let time_of = |s: ReadStrategy| {
            rows.iter()
                .find(|r| r.nt3 && r.strategy == s)
                .map(|r| r.seconds)
        };
        if let (Some(turbo), Some(chunked)) = (
            time_of(ReadStrategy::TurboParallel),
            time_of(ReadStrategy::ChunkedLowMemory),
        ) {
            assert!(
                turbo < chunked,
                "turbo slower than chunked at the NT3 geometry: {turbo:.4}s vs {chunked:.4}s"
            );
        }
    }
    let mut baseline = f64::NAN;
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            if r.strategy == ReadStrategy::PandasDefault {
                baseline = r.seconds;
            }
            let phase_text = match &r.phases {
                Some(p) => format!(
                    "scan {:.1}ms / parse {:.1}ms / mat {:.1}ms",
                    p.scan.as_secs_f64() * 1e3,
                    p.parse.as_secs_f64() * 1e3,
                    p.materialize.as_secs_f64() * 1e3
                ),
                None => "-".into(),
            };
            vec![
                r.label(),
                format!("{:.3}s", r.seconds),
                format!("{:.1}", r.mib_s),
                format!("{:.2}x", baseline / r.seconds.max(1e-9)),
                phase_text,
            ]
        })
        .collect();
    let mut text = String::from(
        "Seed read strategies vs the turbo engine (parallel SWAR scan, exact\n\
         fused field parse, tiled parallel materialize), best-of-reps wall\n\
         time on generated files (wide: packed-CSV 17-digit tokens):\n",
    );
    text.push_str(&format_table(
        &[
            "strategy @ geometry",
            "time",
            "MiB/s",
            "vs pandas",
            "turbo phases",
        ],
        &cells,
    ));
    Experiment {
        id: "table_ingest",
        title: "Seed vs turbo CSV ingest wall time at benchmark file geometries",
        text,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_every_strategy_at_both_geometries() {
        let rows = measure_ingest_comparison(true).unwrap();
        assert_eq!(rows.len(), 8, "4 strategies x 2 geometries");
        assert_eq!(rows.iter().filter(|r| r.nt3).count(), 4);
        for r in &rows {
            assert!(r.seconds > 0.0, "{}", r.label());
            assert!(r.mib_s > 0.0, "{}", r.label());
            let is_turbo = r.strategy == ReadStrategy::TurboParallel;
            assert_eq!(r.phases.is_some(), is_turbo, "{}", r.label());
        }
    }

    #[test]
    fn table_renders_every_strategy_row() {
        let e = table_ingest(true);
        assert_eq!(e.id, "table_ingest");
        assert!(e.text.contains("turbo parallel (SWAR scan)"));
        assert!(e.text.contains("chunked low_memory=False"));
        assert!(e.text.contains("scan "));
        assert!(e.text.contains("vs pandas"));
    }

    // Timing comparisons only mean something with optimizations on; the
    // debug-mode suite checks rendering above instead.
    #[cfg(not(debug_assertions))]
    #[test]
    fn turbo_beats_chunked_at_nt3_geometry() {
        let rows = measure_ingest_comparison(false).unwrap();
        let time_of = |s: ReadStrategy| {
            rows.iter()
                .find(|r| r.nt3 && r.strategy == s)
                .map(|r| r.seconds)
                .expect("strategy measured")
        };
        let turbo = time_of(ReadStrategy::TurboParallel);
        let chunked = time_of(ReadStrategy::ChunkedLowMemory);
        assert!(
            turbo < chunked,
            "turbo {turbo:.4}s vs chunked {chunked:.4}s at NT3 geometry"
        );
    }
}
