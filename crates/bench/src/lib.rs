//! `candle-bench` — the machine-readable benchmark artifacts.
//!
//! [`emit`] is the **bench-emit-v1** writer; the one binary, `bench_json`,
//! runs the `experiments::measure_*` drivers behind the report's tables and
//! writes one `BENCH_*.json` per suite plus the `BENCH_INDEX.json` manifest
//! `perfmodel_check` gates on. End-to-end wall-clock regression is the job
//! of `benchmark/` (see `BENCHMARK.json`), not of this crate.

pub mod emit;
