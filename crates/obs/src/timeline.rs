//! Horovod-timeline-style event recording with Chrome-trace JSON output.
//!
//! Horovod can record every collective (negotiation, MPI broadcast, NCCL
//! allreduce) to a JSON file viewable in `chrome://tracing`; the paper uses
//! those timelines (Figures 7b, 12, 19) to attribute the broadcast-delay
//! effect of slow data loading. This recorder reproduces the format: one
//! complete event (`"ph": "X"`) per operation with microsecond timestamps,
//! `pid` = rank and `tid` = activity lane.
//!
//! The JSON emitter is hand-rolled — the format is flat and fixed, so a
//! serde dependency would be pure weight (see DESIGN.md §7).

use std::sync::{Arc, Mutex};

/// One completed timeline span.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineEvent {
    /// Activity name (`negotiate_broadcast`, `mpi_broadcast`,
    /// `nccl_allreduce`, `data_loading`, ...).
    pub name: String,
    /// Emitting rank.
    pub rank: usize,
    /// Start time in microseconds from timeline origin.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

/// A span as stored: the name is shared, so a recorder that built its
/// names once (`Arc<str>`) appends without touching the allocator.
#[derive(Debug)]
struct Span {
    name: Arc<str>,
    rank: usize,
    start_us: u64,
    dur_us: u64,
}

impl Span {
    fn event(&self) -> TimelineEvent {
        TimelineEvent {
            name: self.name.to_string(),
            rank: self.rank,
            start_us: self.start_us,
            dur_us: self.dur_us,
        }
    }
}

/// A thread-safe event recorder shared by all ranks of a run.
#[derive(Clone, Debug)]
pub struct Timeline {
    inner: Arc<Mutex<Vec<Span>>>,
}

impl Timeline {
    /// Creates an empty timeline.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Records one span. A `&str` or `String` name is copied; an
    /// `Arc<str>` is shared.
    pub fn record(&self, name: impl Into<Arc<str>>, rank: usize, start_us: u64, dur_us: u64) {
        self.inner.lock().unwrap().push(Span {
            name: name.into(),
            rank,
            start_us,
            dur_us,
        });
    }

    /// Returns a snapshot of all events, sorted by start time.
    pub fn events(&self) -> Vec<TimelineEvent> {
        let mut v: Vec<TimelineEvent> =
            self.inner.lock().unwrap().iter().map(Span::event).collect();
        v.sort_by_key(|e| (e.start_us, e.rank));
        v
    }

    /// Snapshot of one rank's spans whose name starts with `prefix`,
    /// sorted by start time — the query the overlap span-nesting
    /// invariants are checked with (per-bucket allreduce spans on a rank's
    /// comm lane must not overlap, and must start after their producing
    /// backward-layer span).
    pub fn spans_with_prefix(&self, prefix: &str, rank: usize) -> Vec<TimelineEvent> {
        let mut v: Vec<TimelineEvent> = self
            .inner
            .lock()
            .unwrap()
            .iter()
            .filter(|e| e.rank == rank && e.name.starts_with(prefix))
            .map(Span::event)
            .collect();
        v.sort_by_key(|e| e.start_us);
        v
    }

    /// Total duration attributed to events whose name contains `needle`.
    pub fn total_duration_us(&self, needle: &str) -> u64 {
        self.inner
            .lock()
            .unwrap()
            .iter()
            .filter(|e| e.name.contains(needle))
            .map(|e| e.dur_us)
            .sum()
    }

    /// Duration of the longest single event whose name contains `needle`
    /// (the paper reports broadcast overhead as the span of the broadcast
    /// phase, not a sum over ranks).
    pub fn max_duration_us(&self, needle: &str) -> u64 {
        self.inner
            .lock()
            .unwrap()
            .iter()
            .filter(|e| e.name.contains(needle))
            .map(|e| e.dur_us)
            .max()
            .unwrap_or(0)
    }

    /// Serializes to Chrome trace-event JSON (the `chrome://tracing`
    /// format Horovod emits).
    pub fn to_chrome_trace(&self) -> String {
        let events = self.events();
        let mut out = String::with_capacity(events.len() * 96 + 32);
        out.push_str("{\"traceEvents\":[");
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":0}}",
                escape_json(&e.name),
                e.start_us,
                e.dur_us,
                e.rank
            ));
        }
        out.push_str("]}");
        out
    }

    /// Writes the Chrome trace to a file.
    pub fn write_chrome_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_chrome_trace())
    }
}

impl Default for Timeline {
    fn default() -> Self {
        Self::new()
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_sorts_events() {
        let tl = Timeline::new();
        tl.record("nccl_allreduce", 1, 200, 50);
        tl.record("mpi_broadcast", 0, 100, 40);
        let events = tl.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "mpi_broadcast");
        assert_eq!(events[1].name, "nccl_allreduce");
    }

    #[test]
    fn duration_queries() {
        let tl = Timeline::new();
        tl.record("negotiate_broadcast", 0, 0, 10);
        tl.record("mpi_broadcast", 0, 10, 30);
        tl.record("mpi_broadcast", 1, 12, 25);
        tl.record("nccl_allreduce", 0, 50, 5);
        assert_eq!(tl.total_duration_us("broadcast"), 65);
        assert_eq!(tl.max_duration_us("broadcast"), 30);
        assert_eq!(tl.max_duration_us("allreduce"), 5);
        assert_eq!(tl.max_duration_us("missing"), 0);
    }

    #[test]
    fn chrome_trace_is_valid_shape() {
        let tl = Timeline::new();
        tl.record("broadcast", 0, 1, 2);
        tl.record("allreduce", 3, 4, 5);
        let json = tl.to_chrome_trace();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"pid\":3"));
        assert!(json.contains("\"ph\":\"X\""));
        // Exactly one comma between two events.
        assert_eq!(json.matches("},{").count(), 1);
    }

    #[test]
    fn json_escaping() {
        let tl = Timeline::new();
        tl.record("weird\"name\\with\ncontrol", 0, 0, 1);
        let json = tl.to_chrome_trace();
        assert!(json.contains("weird\\\"name\\\\with\\ncontrol"));
    }

    #[test]
    fn shared_across_clones() {
        let tl = Timeline::new();
        let tl2 = tl.clone();
        tl2.record("x", 0, 0, 1);
        assert_eq!(tl.events().len(), 1);
    }

    #[test]
    fn write_to_file_roundtrip() {
        let tl = Timeline::new();
        tl.record("mpi_broadcast", 0, 0, 100);
        let dir = parx::scratch("timeline_test").expect("scratch dir");
        let path = dir.join("trace.json");
        tl.write_chrome_trace(&path).unwrap();
        let read = std::fs::read_to_string(&path).unwrap();
        assert_eq!(read, tl.to_chrome_trace());
    }
}
