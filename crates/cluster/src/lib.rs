//! `cluster` — calibrated performance, power, and energy simulation of the
//! Summit and Theta platforms.
//!
//! The paper's timing/power/energy numbers are *measurements* on machines
//! we do not have. This crate replaces the machines with an analytic
//! model whose constants are calibrated against the paper's published
//! values (see [`calib`]), so that every table and figure can be
//! regenerated and compared:
//!
//! * [`machine`] — hardware descriptions of a Summit AC922 node (2×P9 +
//!   6×V100, NVLink, Spectrum Scale) and a Theta XC40 node (KNL 7230,
//!   Aries, Lustre), including the power-state tables;
//! * [`comm`] — α–β-style cost models for NCCL ring-allreduce and MPI tree
//!   broadcast, including Horovod's negotiation delay, which couples the
//!   broadcast overhead to data-loading skew (the paper's Figures 7/12/19
//!   effect);
//! * [`io`] — shared-filesystem data-loading times per reader method with
//!   a node-count contention factor (Summit's Spectrum Scale vs Theta's
//!   more contended Lustre);
//! * [`power`] — per-device power-state schedules integrated into exact
//!   energy, sampled at the paper's meter rates (nvidia-smi 1 Hz, CapMC
//!   2 Hz);
//! * [`run`] — the end-to-end run simulator composing the phases of
//!   Figure 2/3 (load → preprocess → broadcast → train epochs × batch
//!   steps → evaluate) into a [`run::RunReport`].

pub mod calib;
pub mod comm;
pub mod io;
pub mod machine;
pub mod power;
pub mod run;
pub mod sweep;

pub use comm::{overlap_exposed_seconds, CommModel, NcclVersion};
pub use io::{contention_factor, fleet_load_seconds, load_seconds, DataPlane, LoadMethod};
pub use machine::{Machine, MachineSpec, PowerState};
pub use power::{build_power_trace, fleet_power, FleetPowerSummary, PowerPhase, PowerSummary};
pub use run::{
    RecoveryCost, RunConfig, RunError, RunPhase, RunReport, ScalingMode, WorkloadProfile,
};
pub use sweep::{sweep, sweep_reports, SweepPoint};
