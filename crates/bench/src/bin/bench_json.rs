//! Writes the machine-readable benchmark artifacts: one bench-emit-v1
//! `BENCH_*.json` per suite, then the bench-index-v1 `BENCH_INDEX.json`
//! manifest that embeds them for `perfmodel_check`.
//!
//! Every suite calls the same `experiments::measure_*` driver that backs
//! its report table, so the JSON and the report always agree, and lays
//! the result out as series over a scale axis `perfmodel` can fit.
//!
//! Usage: `bench_json [--quick] [--out-dir DIR] [suite…]`
//!
//! Suites: `kernels ingest datapipe hpo fleet overlap index`; with none
//! named, all of them run in that order in this one process. `index`
//! merges whichever suite files exist in `DIR`, so a partial run still
//! produces a gateable manifest.

use candle_bench::emit::{Doc, Point, Series};
use perfmodel::json::escape;
use std::path::Path;

/// One `BENCH_*.json` artifact. `series` is the contract artifact
/// consumers rely on; a suite that emits anything else is an error.
struct Suite {
    name: &'static str,
    file: &'static str,
    series: &'static [&'static str],
    run: fn(bool) -> Result<Doc, String>,
}

const SUITES: [Suite; 6] = [
    Suite {
        name: "kernels",
        file: "BENCH_KERNELS.json",
        series: &["seed_engine", "blocked_engine"],
        run: kernels,
    },
    Suite {
        name: "ingest",
        file: "BENCH_INGEST.json",
        series: &[
            "pandas.read_csv (original)",
            "chunked low_memory=False",
            "dask parallel",
            "turbo parallel (SWAR scan)",
        ],
        run: ingest,
    },
    Suite {
        name: "datapipe",
        file: "BENCH_DATAPIPE.json",
        series: &["shared_service", "independent_caches"],
        run: datapipe,
    },
    Suite {
        name: "hpo",
        file: "BENCH_HPO.json",
        series: &["search"],
        run: hpo,
    },
    Suite {
        name: "fleet",
        file: "BENCH_FLEET.json",
        series: &["capacity_policies", "auto_vs_peak"],
        run: fleet,
    },
    Suite {
        name: "overlap",
        file: "BENCH_OVERLAP.json",
        series: &["blocking_epoch", "overlapped_epoch", "sync_call_us"],
        run: overlap,
    },
];

const INDEX: &str = "index";
const INDEX_FILE: &str = "BENCH_INDEX.json";

/// Seed vs blocked GEMM engine: one series per engine over `flops`.
fn kernels(quick: bool) -> Result<Doc, String> {
    let mut seed = Series::new("seed_engine", "flops");
    let mut blocked = Series::new("blocked_engine", "flops");
    for r in &experiments::measure_kernel_comparison(quick) {
        let point = |seconds: f64| {
            Point::at("flops", r.flops)
                .seconds(seconds)
                .metric("speedup", r.speedup())
                .metric("nt3_shape", r.nt3 as u8 as f64)
                .label("kernel", &r.name)
        };
        seed.push(point(r.seed_s).metric("gflops", r.seed_gflops()));
        blocked.push(point(r.blocked_s).metric("gflops", r.blocked_gflops()));
    }
    Ok(Doc::new("seed vs blocked GEMM engine", quick)
        .with(seed)
        .with(blocked))
}

/// Seed vs turbo CSV ingest: one series per read strategy over `mib`
/// (file size).
fn ingest(quick: bool) -> Result<Doc, String> {
    let mut series: Vec<Series> = Vec::new();
    let mut names: Vec<&str> = Vec::new();
    for r in &experiments::measure_ingest_comparison(quick)? {
        let name = r.strategy.label();
        let at = names.iter().position(|n| *n == name).unwrap_or_else(|| {
            names.push(name);
            series.push(Series::new(name, "mib"));
            series.len() - 1
        });
        let mut p = Point::at("mib", r.mib_s * r.seconds)
            .seconds(r.seconds)
            .metric("mib_per_s", r.mib_s)
            .metric("nt3_shape", r.nt3 as u8 as f64)
            .label("geometry", &r.geometry);
        if let Some(ph) = &r.phases {
            p = p
                .metric("scan_s", ph.scan.as_secs_f64())
                .metric("parse_s", ph.parse.as_secs_f64())
                .metric("materialize_s", ph.materialize.as_secs_f64());
        }
        series[at].push(p);
    }
    Ok(series
        .into_iter()
        .fold(Doc::new("seed vs turbo CSV ingest", quick), Doc::with))
}

/// 32 concurrent jobs on one shared dataset service vs 32 independent
/// caches: one series per data plane over `jobs`.
fn datapipe(quick: bool) -> Result<Doc, String> {
    let (rows, cols, shards) = if quick { (1024, 16, 8) } else { (4096, 24, 8) };
    let c = experiments::measure_datapipe_comparison(32, rows, cols, shards)?;
    let base = |wall_s: f64, rows_per_s: f64| {
        Point::at("jobs", c.jobs as f64)
            .seconds(wall_s)
            .metric("rows_per_s", rows_per_s)
            .metric("rows", c.rows as f64)
            .metric("cols", c.cols as f64)
            .metric("bit_identical", c.bit_identical as u8 as f64)
    };
    let shared = base(c.shared_wall_s, c.shared_rows_per_s)
        .metric("speedup", c.independent_wall_s / c.shared_wall_s.max(1e-9))
        .metric("pool_hits", c.pool.hits as f64)
        .metric("pool_misses", c.pool.misses as f64)
        .metric("pool_evictions", c.pool.evictions as f64)
        .metric("pool_bytes_loaded", c.pool.bytes_loaded as f64)
        .metric("pool_bytes_served", c.pool.bytes_served as f64)
        .metric(
            "pool_peak_resident_bytes",
            c.pool.peak_resident_bytes as f64,
        );
    let independent = base(c.independent_wall_s, c.independent_rows_per_s);
    Ok(
        Doc::new("shared dataset service vs independent caches", quick)
            .with(Series::new("shared_service", "jobs").with(shared))
            .with(Series::new("independent_caches", "jobs").with(independent)),
    )
}

/// The deterministic ASHA search's scorecard: one point over `trials`,
/// per-worker determinism fingerprints riding along as a label.
fn hpo(quick: bool) -> Result<Doc, String> {
    let m = experiments::measure_hpo(quick)?;
    let fingerprints_identical = m
        .worker_fingerprints
        .iter()
        .all(|&(_, fp)| fp == m.worker_fingerprints[0].1);
    let (hits, misses) = m.report.datapipe_totals();
    let fingerprints = m
        .worker_fingerprints
        .iter()
        .map(|(w, fp)| format!("{w}:{fp:016x}"))
        .collect::<Vec<_>>()
        .join(",");
    let point = Point::at("trials", m.report.config.trials as f64)
        .seconds(m.report.wall_s)
        .metric("seed", m.report.config.seed as f64)
        .metric("winner", m.report.winner as f64)
        .metric("winner_accuracy_full_budget", m.winner_acc)
        .metric("oracle_trial", m.brute_best_id as f64)
        .metric("oracle_accuracy", m.brute_best_acc)
        .metric("resume_bit_exact", m.resume_bit_exact as u8 as f64)
        .metric(
            "fingerprints_identical",
            fingerprints_identical as u8 as f64,
        )
        .metric("epochs_spent", m.report.epochs_spent as f64)
        .metric("full_budget", m.report.full_budget as f64)
        .metric("budget_fraction", m.report.budget_fraction())
        .metric("datapipe_shard_hits", hits as f64)
        .metric("datapipe_shard_misses", misses as f64)
        .label("worker_fingerprints", &fingerprints);
    Ok(Doc::new("deterministic ASHA hyperparameter search", quick)
        .with(Series::new("search", "trials").with(point)))
}

/// Fixed-mean, fixed-peak and autoscaled serving fleets in one series
/// over `replicas`, carrying replica-seconds and joules. The simulation
/// is virtual-time, so reruns of one binary emit identical JSON.
fn fleet(quick: bool) -> Result<Doc, String> {
    let rows = experiments::measure_fleet_comparison(quick);
    let mut fleets = Series::new("capacity_policies", "replicas");
    for c in &rows {
        let r = &c.report;
        fleets.push(
            Point::at("replicas", c.replicas as f64)
                .seconds(r.replica_seconds)
                .joules(r.energy_j)
                .metric("offered", r.offered as f64)
                .metric("completed", r.completed as f64)
                .metric("shed", r.shed as f64)
                .metric("overloaded", r.overloaded as f64)
                .metric("worst_window_p99_ms", r.worst_window_p99_s * 1e3)
                .metric("slo_attainment", r.slo_attainment())
                .metric("avg_power_w", r.avg_power_w)
                .metric("joules_per_request", r.joules_per_request)
                .metric("scale_decisions", r.decisions.len() as f64)
                .label("policy", c.label)
                .label(
                    "outcome_fingerprint",
                    &format!("{:016x}", r.outcome_fingerprint),
                )
                .label(
                    "decision_fingerprint",
                    &format!("{:016x}", r.decision_fingerprint),
                ),
        );
    }
    let (peak, auto) = (&rows[1].report, &rows[2].report);
    let holds_slo = auto.worst_window_p99_s <= 0.25;
    let vs_peak = Point::at("replicas", rows[2].replicas as f64)
        .metric("energy_ratio", auto.energy_j / peak.energy_j)
        .metric("auto_holds_slo", holds_slo as u8 as f64);
    Ok(Doc::new("SLO-aware autoscaling serving fleet", quick)
        .with(fleets)
        .with(Series::new("auto_vs_peak", "replicas").with(vs_peak)))
}

/// Blocking vs overlapped gradient allreduce on NT3: one series per sync
/// strategy over `workers`.
fn overlap(quick: bool) -> Result<Doc, String> {
    let mut blocking = Series::new("blocking_epoch", "workers");
    let mut overlapped = Series::new("overlapped_epoch", "workers");
    for r in &experiments::measure_overlap_comparison(quick) {
        blocking.push(
            Point::at("workers", r.workers as f64)
                .seconds(r.blocking_epoch_s)
                .label("bench", "NT3"),
        );
        overlapped.push(
            Point::at("workers", r.workers as f64)
                .seconds(r.overlapped_epoch_s)
                .metric("speedup", r.speedup())
                .metric("comm_hidden_s", r.comm_hidden_s)
                .metric("comm_exposed_s", r.comm_exposed_s)
                .metric("exposed_fraction", r.exposed_fraction())
                .metric("predicted_exposed_fraction", r.predicted_exposed_fraction())
                .metric("buckets", r.buckets as f64)
                .metric("steps", r.steps as f64)
                .label("bench", "NT3"),
        );
    }
    // What one allreduce call costs by payload: the measurement behind
    // the one-exchange/ring crossover and the wire's spin budget.
    let mut sync_call = Series::new("sync_call_us", "bytes");
    for r in &experiments::measure_sync_call_latency(quick) {
        sync_call.push(
            Point::at("bytes", r.bytes as f64)
                .seconds(r.auto_us * 1e-6)
                .metric("workers", r.workers as f64)
                .metric("auto_us", r.auto_us)
                .metric("ring_us", r.ring_us)
                .metric("exchange_us", r.exchange_us),
        );
    }
    Ok(
        Doc::new("blocking vs overlapped gradient allreduce (NT3)", quick)
            .with(blocking)
            .with(overlapped)
            .with(sync_call),
    )
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn run_suite(suite: &Suite, quick: bool, out_dir: &Path) -> Result<(), String> {
    let doc = (suite.run)(quick)?;
    if doc.series_names() != suite.series {
        return Err(format!(
            "suite {} emitted series {:?}, its consumers expect {:?}",
            suite.name,
            doc.series_names(),
            suite.series
        ));
    }
    let path = out_dir.join(suite.file);
    write(&path, &doc.to_json())?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// Embeds every suite file present in `out_dir` verbatim under its file
/// name. Only validated bench-emit-v1 documents go in; missing or
/// malformed files are reported and skipped.
fn write_index(out_dir: &Path) -> Result<(), String> {
    let mut entries: Vec<String> = Vec::new();
    for suite in &SUITES {
        let file = suite.file;
        let parsed = std::fs::read_to_string(out_dir.join(file))
            .map_err(|e| e.to_string())
            .and_then(|text| {
                perfmodel::parse_doc(&text)
                    .map(|_| text)
                    .map_err(|e| e.to_string())
            });
        match parsed {
            Ok(text) => entries.push(format!(
                "    {{\"file\": \"{}\", \"doc\": {}}}",
                escape(file),
                text.trim_end()
            )),
            Err(e) => eprintln!("  skip {file}: {e}"),
        }
    }
    if entries.is_empty() {
        return Err(format!("no suite file in {} to index", out_dir.display()));
    }
    let json = format!(
        "{{\n  \"schema\": \"bench-index-v1\",\n  \"entries\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    perfmodel::parse_index(&json)
        .map_err(|e| format!("internal error: produced an unparseable index: {e}"))?;
    let path = out_dir.join(INDEX_FILE);
    write(&path, &json)?;
    eprintln!(
        "wrote {}: {} of {} suites indexed",
        path.display(),
        entries.len(),
        SUITES.len()
    );
    Ok(())
}

fn usage() -> ! {
    eprintln!("usage: bench_json [--quick] [--out-dir DIR] [suite…]");
    eprintln!("suites: kernels ingest datapipe hpo fleet overlap index (default: all)");
    std::process::exit(2);
}

fn main() {
    let mut quick = false;
    let mut out_dir = String::from(".");
    let mut selected: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out-dir" => out_dir = args.next().unwrap_or_else(|| usage()),
            name if name == INDEX || SUITES.iter().any(|s| s.name == name) => selected.push(arg),
            other => {
                eprintln!("unknown argument {other}");
                usage();
            }
        }
    }
    if selected.is_empty() {
        selected = SUITES.iter().map(|s| s.name.to_string()).collect();
        selected.push(INDEX.to_string());
    }
    let out_dir = Path::new(&out_dir);
    for name in &selected {
        eprintln!("==> {name}");
        let result = match SUITES.iter().find(|s| s.name == name) {
            Some(suite) => run_suite(suite, quick, out_dir),
            None => write_index(out_dir),
        };
        if let Err(e) = result {
            eprintln!("bench_json {name}: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// CI uploads `BENCH_*.json`, `perfmodel_check --index` reads the
    /// manifest, and fitted laws are keyed by series name: renaming any of
    /// these breaks a consumer outside this crate.
    #[test]
    fn suite_file_and_series_names_are_pinned() {
        let table: Vec<String> = SUITES
            .iter()
            .map(|s| format!("{} {} {}", s.name, s.file, s.series.join("|")))
            .collect();
        let pinned = [
            "kernels BENCH_KERNELS.json seed_engine|blocked_engine",
            "ingest BENCH_INGEST.json pandas.read_csv (original)|chunked low_memory=False|\
             dask parallel|turbo parallel (SWAR scan)",
            "datapipe BENCH_DATAPIPE.json shared_service|independent_caches",
            "hpo BENCH_HPO.json search",
            "fleet BENCH_FLEET.json capacity_policies|auto_vs_peak",
            "overlap BENCH_OVERLAP.json blocking_epoch|overlapped_epoch|sync_call_us",
        ];
        assert_eq!(table, pinned);
        assert_eq!(INDEX_FILE, "BENCH_INDEX.json");
        // Within the kernels series a point is found by its `kernel` label:
        // the shapes probed (quick mode here) are part of the contract, and
        // both NT3 convolutions are among them.
        let kernels: Vec<String> = experiments::measure_kernel_comparison(true)
            .into_iter()
            .map(|r| r.name)
            .collect();
        let pinned = [
            "Dense forward A·B 64x960x64",
            "Dense weight-grad Aᵀ·B 64x960x64",
            "Dense input-grad A·Bᵀ 64x64x960",
            "NT3 dense head A·B 20x960x32",
            "NT3 Conv1D fwd b4 600x1→16 k5s2",
            "NT3 Conv1D bwd b4 600x1→16 k5s2",
            "NT3 Conv1D fwd b4 256x8→16 k5s2",
            "NT3 Conv1D bwd b4 256x8→16 k5s2",
        ];
        assert_eq!(kernels, pinned);
    }

    /// The index embeds exactly the valid suite files it finds and parses
    /// back through `perfmodel`, which is all `perfmodel_check` needs.
    #[test]
    fn index_embeds_present_suite_files_and_skips_the_rest() {
        let dir = parx::scratch("bench_json_index").expect("scratch dir");
        assert!(write_index(&dir).is_err(), "nothing to index yet");
        let doc = Doc::new("k", true)
            .with(Series::new("seed_engine", "flops").with(Point::at("flops", 1.0).seconds(2.0)));
        std::fs::write(dir.join("BENCH_KERNELS.json"), doc.to_json()).unwrap();
        std::fs::write(dir.join("BENCH_HPO.json"), "{not json").unwrap();
        write_index(&dir).unwrap();
        let text = std::fs::read_to_string(dir.join(INDEX_FILE)).unwrap();
        let index = perfmodel::parse_index(&text).unwrap();
        assert_eq!(index.len(), 1);
        assert_eq!(index[0].0, "BENCH_KERNELS.json");
        assert_eq!(index[0].1.series[0].name, "seed_engine");
    }
}
