//! Shared dataset service vs independent caches, 32 concurrent jobs.
//!
//! The paper's optimizations treat each training run as its own world;
//! CANDLE in production runs fleets of concurrent HPO jobs over the same
//! files. This driver measures what the `datapipe` service buys twice
//! over:
//!
//! 1. **measured** — 32 concurrent jobs stream one epoch each, first
//!    through one shared [`DatasetService`] (one cold build, one decoded
//!    copy of every shard), then through 32 independent per-job caches
//!    splitting the same total memory budget (each pays its own cold
//!    build). Per-job streams are checked bit-identical to the same job
//!    run solo.
//! 2. **modelled** — the calibrated `cluster` fleet model
//!    ([`cluster::fleet_load_seconds`]): J independent cold loads vs one
//!    cold load plus J−1 warm shard streams, at Summit contention.

use crate::report::{format_table, Experiment};
use cluster::calib::Bench;
use cluster::{fleet_load_seconds, DataPlane, LoadMethod, Machine};
use dataio::{generate, ClassSpec, SyntheticSpec};
use datapipe::{stream_fingerprint, DatasetService, JobSpec, PoolStats, ServiceConfig};
use parx::scratch;
use std::time::Instant;

/// Total in-memory shard-pool budget split across the fleet, bytes. Small
/// enough that the independent split is tight, large enough that every
/// job's working set is admissible.
const TOTAL_POOL_BUDGET: u64 = 8 << 20;

/// One measured shared-vs-independent fleet comparison.
#[derive(Debug, Clone)]
pub struct DatapipeComparison {
    /// Concurrent jobs in the fleet.
    pub jobs: usize,
    /// Dataset geometry.
    pub rows: usize,
    /// Feature columns (the cached dataset adds one label column).
    pub cols: usize,
    /// Wall seconds for all jobs through the shared service.
    pub shared_wall_s: f64,
    /// Wall seconds for all jobs, each with a private cache and
    /// `TOTAL_POOL_BUDGET / jobs` of pool memory.
    pub independent_wall_s: f64,
    /// Aggregate delivered rows per second, shared plane.
    pub shared_rows_per_s: f64,
    /// Aggregate delivered rows per second, independent caches.
    pub independent_rows_per_s: f64,
    /// Every concurrent job's stream matched its solo fingerprint.
    pub bit_identical: bool,
    /// Shared pool counters after the fleet drained.
    pub pool: PoolStats,
}

fn dataset_spec(rows: usize, cols: usize) -> SyntheticSpec {
    SyntheticSpec {
        rows,
        cols,
        kind: ClassSpec::Classification {
            classes: 4,
            separation: 1.0,
        },
        noise: 0.4,
        seed: 91,
    }
}

/// Runs `jobs` concurrent epoch streams over a shared service and over
/// independent per-job caches, returning walls, throughputs, and the
/// bit-identity verdict. A failed step is an error naming the step, never
/// a shorter table.
pub fn measure_datapipe_comparison(
    jobs: usize,
    rows: usize,
    cols: usize,
    shards: usize,
) -> Result<DatapipeComparison, String> {
    let dir = scratch("datapipe").map_err(|e| format!("scratch dir: {e}"))?;
    let key = 0xDA7A;
    let batch = 64;
    let spec = dataset_spec(rows, cols);
    let job_spec = move |seed: u64| JobSpec {
        dataset: key,
        features: cols,
        batch,
        seed,
    };

    // Shared plane: one service, one cold build, full budget.
    let shared_root = dir.join("shared");
    let mut config = ServiceConfig::new(&shared_root);
    config.pool_budget_bytes = TOTAL_POOL_BUDGET;
    config.threads = 4;
    config.max_jobs = jobs;
    let service = DatasetService::new(config).map_err(|e| format!("shared service: {e}"))?;
    service
        .open_dataset(key, "synthetic:datapipe", "", shards, || {
            Ok(generate(&spec).to_frame())
        })
        .map_err(|e| format!("shared cold build: {e}"))?;

    // Solo baselines: each job alone on a fresh service over the warm
    // disk cache — the fingerprints the concurrent streams must match.
    let solo_run = |j: usize| -> Result<u64, Box<dyn std::error::Error>> {
        let svc = DatasetService::new(ServiceConfig::new(&shared_root))?;
        svc.open_dataset(key, "synthetic:datapipe", "", shards, || {
            Ok(generate(&spec).to_frame())
        })?;
        let job = svc.admit(job_spec(j as u64))?;
        Ok(stream_fingerprint(job.epoch(0))?)
    };
    let solo = (0..jobs)
        .map(|j| solo_run(j).map_err(|e| format!("solo job {j}: {e}")))
        .collect::<Result<Vec<_>, _>>()?;

    // The concurrent shared fleet.
    let handles: Vec<_> = (0..jobs)
        .map(|j| {
            service
                .admit(job_spec(j as u64))
                .map_err(|e| format!("shared admission of job {j}: {e}"))
        })
        .collect::<Result<_, _>>()?;
    let shared_start = Instant::now();
    let threads: Vec<_> = handles
        .into_iter()
        .map(|job| {
            std::thread::spawn(move || {
                let fp = stream_fingerprint(job.epoch(0))?;
                Ok::<_, datacache::CacheError>((fp, job.stats().rows))
            })
        })
        .collect();
    let mut shared_rows = 0u64;
    let mut bit_identical = true;
    for (j, t) in threads.into_iter().enumerate() {
        let (fp, delivered) = t
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            .map_err(|e| format!("shared job {j}: {e}"))?;
        shared_rows += delivered;
        bit_identical &= fp == solo[j];
    }
    let shared_wall_s = shared_start.elapsed().as_secs_f64();
    let pool = service.pool_stats();

    // Independent caches: same total memory, split J ways; every job owns
    // a root and pays its own cold build, all running concurrently.
    let per_job_budget = TOTAL_POOL_BUDGET / jobs as u64;
    let independent_start = Instant::now();
    let threads: Vec<_> = (0..jobs)
        .map(|j| {
            let root = dir.join(format!("indep-{j}"));
            std::thread::spawn(move || {
                let mut config = ServiceConfig::new(&root);
                config.pool_budget_bytes = per_job_budget;
                config.threads = 1;
                let svc = DatasetService::new(config)?;
                svc.open_dataset(key, "synthetic:datapipe", "", shards, || {
                    Ok(generate(&spec).to_frame())
                })?;
                let job = svc
                    .admit(job_spec(j as u64))
                    .map_err(|e| datacache::CacheError::Corrupt(e.to_string()))?;
                let fp = stream_fingerprint(job.epoch(0))?;
                Ok::<_, datacache::CacheError>((fp, job.stats().rows))
            })
        })
        .collect();
    let mut independent_rows = 0u64;
    for (j, t) in threads.into_iter().enumerate() {
        let (fp, delivered) = t
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            .map_err(|e| format!("independent job {j}: {e}"))?;
        independent_rows += delivered;
        bit_identical &= fp == solo[j];
    }
    let independent_wall_s = independent_start.elapsed().as_secs_f64();

    Ok(DatapipeComparison {
        jobs,
        rows,
        cols,
        shared_wall_s,
        independent_wall_s,
        shared_rows_per_s: shared_rows as f64 / shared_wall_s.max(1e-9),
        independent_rows_per_s: independent_rows as f64 / independent_wall_s.max(1e-9),
        bit_identical,
        pool,
    })
}

/// The shared-data-plane experiment: 32 concurrent jobs, measured and
/// modelled.
pub fn table_datapipe(quick: bool) -> Experiment {
    let jobs = 32;
    let (rows, cols, shards) = if quick { (1024, 16, 8) } else { (4096, 24, 8) };
    let c = measure_datapipe_comparison(jobs, rows, cols, shards)
        .unwrap_or_else(|e| panic!("table_datapipe: {e}"));
    assert!(
        c.bit_identical,
        "a concurrent job's stream diverged from its solo run"
    );
    let measured = format_table(
        &["data plane", "wall", "rows/s (aggregate)", "speedup"],
        &[
            vec![
                format!("{jobs} independent caches"),
                format!("{:.3}s", c.independent_wall_s),
                format!("{:.0}", c.independent_rows_per_s),
                "1.00x".into(),
            ],
            vec![
                "one shared service".into(),
                format!("{:.3}s", c.shared_wall_s),
                format!("{:.0}", c.shared_rows_per_s),
                format!("{:.2}x", c.independent_wall_s / c.shared_wall_s.max(1e-9)),
            ],
        ],
    );
    let mut text = format!(
        "Measured: {jobs} concurrent jobs, one shuffled epoch each over a \
         {rows}x{} dataset ({shards} shards, {} MiB total pool budget):\n{measured}",
        cols + 1,
        TOTAL_POOL_BUDGET >> 20,
    );
    text.push_str(&format!(
        "pool: {} decodes for {} acquires ({} hits), peak resident {} KiB; \
         every stream bit-identical to its solo run: {}\n",
        c.pool.misses,
        c.pool.hits + c.pool.misses,
        c.pool.hits,
        c.pool.peak_resident_bytes >> 10,
        c.bit_identical,
    ));
    // Timer-based comparisons only mean something in release builds;
    // debug walls are dominated by unoptimized decode.
    if crate::gate::timed_asserts_enabled(quick) {
        assert!(
            c.shared_rows_per_s >= c.independent_rows_per_s,
            "shared plane slower than {jobs} independent caches: {:.0} vs {:.0} rows/s",
            c.shared_rows_per_s,
            c.independent_rows_per_s,
        );
    }

    text.push_str(
        "\nModelled NT3 fleet data loading on Summit (4 nodes per job, chunked \
         cold loads, seconds summed over the fleet):\n",
    );
    let fleet_sizes = [1usize, 8, 32];
    let mut rows_out = Vec::new();
    for plane in [DataPlane::Independent, DataPlane::SharedService] {
        let mut cells = vec![format!("{plane:?}")];
        for &j in &fleet_sizes {
            cells.push(format!(
                "{:.1}",
                fleet_load_seconds(
                    Machine::Summit,
                    Bench::Nt3,
                    LoadMethod::ChunkedLowMemoryFalse,
                    4,
                    j,
                    plane,
                )
            ));
        }
        rows_out.push(cells);
    }
    text.push_str(&format_table(
        &["data plane", "1 job", "8 jobs", "32 jobs"],
        &rows_out,
    ));

    Experiment {
        id: "table_datapipe",
        title: "Shared dataset service vs independent caches (32 concurrent jobs)",
        text,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance check at experiment scale: 32 concurrent jobs over
    /// one shared service, bit-identical to solo, throughput reported.
    #[test]
    fn measured_fleet_is_bit_identical_and_complete() {
        let c = measure_datapipe_comparison(32, 512, 8, 4).unwrap();
        assert!(c.bit_identical);
        assert_eq!(c.pool.misses, 4, "one decode per shard on the shared plane");
        assert!(c.shared_rows_per_s > 0.0 && c.independent_rows_per_s > 0.0);
    }

    #[test]
    fn table_renders_measured_and_modelled_sections() {
        let e = table_datapipe(true);
        assert_eq!(e.id, "table_datapipe");
        assert!(e.text.contains("one shared service"));
        assert!(e.text.contains("SharedService"));
    }

    /// Wall-clock superiority is asserted inside `table_datapipe` in
    /// release builds; keep a cheap structural check for debug runs.
    #[cfg(not(debug_assertions))]
    #[test]
    fn full_table_asserts_throughput_in_release() {
        let e = table_datapipe(false);
        assert!(e.text.contains("one shared service"));
    }
}
