//! `obs` — the workspace's measurement types, std-only.
//!
//! The paper finds its bottlenecks with three instruments: cProfile phase
//! timings, the Horovod timeline and sampled device power (Figs 7, 12 and
//! 19). Every crate that records a span, a phase or a latency records it
//! through the types here, so an analytic model, the serving engine and
//! the training pipeline share one set of primitives and none of them
//! links another's stack to get them:
//!
//! * [`LogHistogram`] — a log-bucketed histogram with bounded relative
//!   quantile error (span durations, request latencies), summarized as a
//!   [`LatencySummary`];
//! * [`WindowedHistogram`] — a rolling-window ring of [`LogHistogram`]
//!   slices (recent p99 over the last N seconds), the input signal of the
//!   `fleet` autoscaler;
//! * [`Timeline`] — Horovod-timeline-style spans written as Chrome-trace
//!   JSON;
//! * [`PhaseProfiler`] — named phase timers with a cProfile-style report.
//!
//! Power traces are step functions of simulated time and live with the
//! model that builds them (`cluster::power`).

mod hist;
mod profiler;
mod timeline;
mod windowed;

pub use hist::{LatencySummary, LogHistogram};
pub use profiler::{PhaseProfiler, PhaseRecord};
pub use timeline::{Timeline, TimelineEvent};
pub use windowed::WindowedHistogram;
