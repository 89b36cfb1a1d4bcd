//! Phase profiling — the cProfile analogue.
//!
//! The paper profiles its Python benchmarks with `cProfile` (§4) to find
//! where wall-clock goes; this module gives the functional pipeline and
//! the fleet simulator the same capability: named phase timers with
//! exclusive wall-clock attribution and a sorted text report.

use std::time::{Duration, Instant};

/// One profiled phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRecord {
    /// Phase label.
    pub name: String,
    /// Accumulated wall time.
    pub elapsed: Duration,
    /// Times the phase was entered.
    pub calls: u64,
}

/// A simple accumulating phase profiler.
///
/// ```
/// let mut prof = obs::PhaseProfiler::new();
/// prof.measure("data_loading", || std::thread::sleep(std::time::Duration::from_millis(5)));
/// let answer = prof.measure("training", || 6 * 7);
/// assert_eq!(answer, 42);
/// assert_eq!(prof.records().len(), 2);
/// assert!(prof.total().as_millis() >= 5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PhaseProfiler {
    records: Vec<PhaseRecord>,
}

impl PhaseProfiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f`, attributing its wall time to `name`.
    pub fn measure<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start.elapsed());
        out
    }

    /// Adds an externally measured span.
    pub fn record(&mut self, name: &str, elapsed: Duration) {
        self.record_n(name, elapsed, 1);
    }

    /// Adds an externally measured span that stands for `calls` entries
    /// (e.g. a dataset-service job's total blocked time across its waits).
    pub fn record_n(&mut self, name: &str, elapsed: Duration, calls: u64) {
        if let Some(r) = self.records.iter_mut().find(|r| r.name == name) {
            r.elapsed += elapsed;
            r.calls += calls;
        } else {
            self.records.push(PhaseRecord {
                name: name.to_string(),
                elapsed,
                calls,
            });
        }
    }

    /// All phase records, in first-seen order.
    pub fn records(&self) -> &[PhaseRecord] {
        &self.records
    }

    /// Total attributed wall time.
    pub fn total(&self) -> Duration {
        self.records.iter().map(|r| r.elapsed).sum()
    }

    /// The dominant phase (largest accumulated time), if any.
    pub fn dominant(&self) -> Option<&PhaseRecord> {
        self.records.iter().max_by_key(|r| r.elapsed)
    }

    /// Renders a cProfile-style table sorted by cumulative time.
    pub fn report(&self) -> String {
        let total = self.total().as_secs_f64().max(1e-12);
        let mut sorted: Vec<&PhaseRecord> = self.records.iter().collect();
        sorted.sort_by_key(|r| std::cmp::Reverse(r.elapsed));
        let mut out = format!(
            "{:<20} {:>10} {:>8} {:>7}\n",
            "phase", "cumtime", "calls", "share"
        );
        out.push_str(&"-".repeat(48));
        out.push('\n');
        for r in sorted {
            out.push_str(&format!(
                "{:<20} {:>9.3}s {:>8} {:>6.1}%\n",
                r.name,
                r.elapsed.as_secs_f64(),
                r.calls,
                r.elapsed.as_secs_f64() / total * 100.0
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_returns_value_and_accumulates() {
        let mut p = PhaseProfiler::new();
        let v = p.measure("phase_a", || 123);
        assert_eq!(v, 123);
        p.measure("phase_a", || ());
        assert_eq!(p.records().len(), 1);
        assert_eq!(p.records()[0].calls, 2);
    }

    #[test]
    fn dominant_finds_largest() {
        let mut p = PhaseProfiler::new();
        p.record("small", Duration::from_millis(1));
        p.record("big", Duration::from_millis(100));
        p.record("medium", Duration::from_millis(10));
        assert_eq!(p.dominant().unwrap().name, "big");
        assert_eq!(p.total(), Duration::from_millis(111));
    }

    #[test]
    fn report_is_sorted_by_time() {
        let mut p = PhaseProfiler::new();
        p.record("data_loading", Duration::from_millis(80));
        p.record("training", Duration::from_millis(20));
        let report = p.report();
        let loading_pos = report.find("data_loading").unwrap();
        let training_pos = report.find("training").unwrap();
        assert!(loading_pos < training_pos, "dominant phase listed first");
        assert!(report.contains("80.0%"));
    }

    #[test]
    fn record_n_accumulates_calls() {
        let mut p = PhaseProfiler::new();
        p.record_n("service_wait", Duration::from_millis(3), 4);
        p.record_n("service_wait", Duration::from_millis(1), 2);
        assert_eq!(p.records()[0].calls, 6);
        assert_eq!(p.records()[0].elapsed, Duration::from_millis(4));
    }

    #[test]
    fn empty_profiler() {
        let p = PhaseProfiler::new();
        assert!(p.dominant().is_none());
        assert_eq!(p.total(), Duration::ZERO);
        assert!(p.report().contains("phase"));
    }
}
