//! `simcore` — simulated time, step-function series and histograms.
//!
//! The `cluster` crate models full-scale Summit/Theta runs analytically
//! and turns each run's phase schedule into a power trace; the serving
//! and fleet crates keep latency distributions. This crate provides the
//! value types they share:
//!
//! * [`SimTime`] — simulated seconds with total ordering;
//! * [`TimeSeries`] — a step-function series with trapezoid-free exact
//!   integration, used for power traces and energy accounting;
//! * [`LogHistogram`] — a log-bucketed histogram with bounded relative
//!   quantile error, shared by the trace analysis and the `serve` crate's
//!   latency instrumentation;
//! * [`WindowedHistogram`] — a rolling-window ring of [`LogHistogram`]
//!   slices (recent p99 over the last N seconds, mergeable), the input
//!   signal of the `fleet` autoscaler.

mod hist;
mod series;
mod time;
mod windowed;

pub use hist::LogHistogram;
pub use series::TimeSeries;
pub use time::SimTime;
pub use windowed::WindowedHistogram;
