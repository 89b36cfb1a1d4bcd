//! `fleet` — an SLO-aware autoscaling serving fleet with
//! joules-per-request accounting.
//!
//! The paper studies training at scale; serving the resulting cancer
//! models is the other half of the production story, and it shares the
//! paper's core tension: provisioning for peak load wastes energy,
//! provisioning for mean load collapses latency the moment a burst
//! arrives. This crate closes that loop with an autoscaled replica fleet
//! where **every scaling decision is priced in watts**:
//!
//! * [`trace`] — seeded open-loop traffic (diurnal sinusoid + bursts as
//!   an inhomogeneous Poisson process), bit-identical per seed;
//! * [`router`] — deterministic least-loaded and power-of-two-choices
//!   routing over replica queue depths;
//! * [`autoscale`] — the control loop: scale out on rolling-p99 or
//!   backlog breach, scale in after sustained calm, with hysteresis and
//!   cooldown; each [`ScaleDecision`] carries its marginal watts;
//! * [`sim`] — the deterministic virtual-time fleet ([`run_fleet_sim`]):
//!   modelled batch servers, windowed SLO statistics, admission control
//!   that sheds before SLO collapse, and [`cluster::fleet_power`] energy
//!   accounting. Identical configs yield bit-identical decision logs and
//!   outcome fingerprints at any thread count.
//!
//! The fleet is simulated only: its replicas are modelled batch servers,
//! so every number it reports reproduces from the config. The measured
//! single-engine side of serving is the `serve` crate.

pub mod autoscale;
pub mod router;
pub mod sim;
pub mod trace;

pub use autoscale::{AutoscaleConfig, Autoscaler, ControlSignal, ScaleDecision, ScaleReason};
pub use router::{Router, RouterPolicy};
pub use sim::{run_fleet_sim, FleetSimReport, ScalePolicy, ServiceModel, SimFleetConfig};
pub use trace::{Arrival, Burst, TraceConfig};
