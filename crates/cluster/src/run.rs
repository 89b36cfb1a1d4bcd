//! End-to-end run simulation.
//!
//! Composes the phase structure of the paper's Figures 2/3 — data loading
//! and preprocessing, initial weight broadcast, `E/N` (strong) or constant
//! (weak) epochs of `S/B` batch steps each with compute + allreduce, and
//! final evaluation — into timing, power, energy, and a modelled Horovod
//! timeline.

use crate::calib::{self, Bench};
use crate::comm::CommModel;
use crate::io::{self, LoadMethod};
use crate::machine::Machine;
use crate::power::{build_power_trace, PowerPhase, PowerSummary};
use obs::Timeline;

/// Scaling regime (paper Figure 4a).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalingMode {
    /// Total epochs constant; each worker runs `total / workers`.
    Strong,
    /// Epochs per worker constant (the paper uses 8).
    Weak {
        /// Epochs each worker executes.
        epochs_per_worker: usize,
    },
}

/// The workload's Table-1 facts needed by the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadProfile {
    /// Which benchmark.
    pub bench: Bench,
    /// Total training samples (Table 1).
    pub train_samples: usize,
    /// Default batch size (Table 1).
    pub default_batch: usize,
    /// Default total epochs (Table 1).
    pub total_epochs: usize,
}

/// One simulated run's configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// Platform.
    pub machine: Machine,
    /// Worker count (GPUs on Summit, nodes on Theta).
    pub workers: usize,
    /// Effective batch size (after any batch-size scaling strategy).
    pub batch_size: usize,
    /// Scaling regime.
    pub scaling: ScalingMode,
    /// Data-loading method.
    pub load_method: LoadMethod,
}

/// Why a simulated run failed — mirroring the failures the paper reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// Batch does not fit device memory (NT3 at batch ≥ 50; P1B3 linear
    /// scaling at 19,200).
    OutOfMemory {
        /// Requested batch size.
        batch: usize,
        /// Largest batch that fits.
        limit: usize,
    },
    /// Strong scaling with more workers than total epochs (P1B1 "requires
    /// at least 4 epochs", i.e. at most 96 GPUs for 384 epochs).
    TooManyWorkers {
        /// Requested workers.
        workers: usize,
        /// Total epochs available to divide.
        total_epochs: usize,
    },
    /// Zero workers or zero batch.
    InvalidConfig(String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::OutOfMemory { batch, limit } => {
                write!(
                    f,
                    "out of device memory: batch {batch} exceeds limit {limit}"
                )
            }
            RunError::TooManyWorkers {
                workers,
                total_epochs,
            } => {
                write!(f, "{workers} workers cannot split {total_epochs} epochs")
            }
            RunError::InvalidConfig(msg) => write!(f, "invalid config: {msg}"),
        }
    }
}

impl std::error::Error for RunError {}

/// A named phase of the simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunPhase {
    /// Phase label.
    pub name: &'static str,
    /// Start (seconds from run start).
    pub start_s: f64,
    /// Duration (seconds).
    pub duration_s: f64,
}

/// Everything the experiments need from one simulated run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Echo of the configuration.
    pub config: RunConfig,
    /// Nodes occupied.
    pub nodes: usize,
    /// Epochs each worker executed.
    pub epochs_per_worker: usize,
    /// Batch steps per epoch.
    pub steps_per_epoch: usize,
    /// Data loading phase (train + test files), seconds.
    pub data_load_s: f64,
    /// Broadcast overhead (negotiation + transfer), seconds.
    pub broadcast_s: f64,
    /// Training phase ("time in TensorFlow"), seconds.
    pub train_s: f64,
    /// Start-up + preprocessing + evaluation overhead, seconds.
    pub overhead_s: f64,
    /// Total runtime, seconds.
    pub total_s: f64,
    /// Time per epoch, seconds.
    pub time_per_epoch_s: f64,
    /// Allreduce time per batch step, seconds.
    pub allreduce_per_step_s: f64,
    /// Per-device power/energy summary.
    pub power: PowerSummary,
    /// Phase schedule.
    pub phases: Vec<RunPhase>,
    /// Modelled Horovod timeline (one communication block per epoch).
    pub timeline: Timeline,
}

impl RunReport {
    /// Percentage improvement of `self` over a baseline's total runtime.
    pub fn runtime_improvement_pct(&self, baseline: &RunReport) -> f64 {
        (baseline.total_s - self.total_s) / baseline.total_s * 100.0
    }

    /// Percentage energy saving of `self` over a baseline.
    pub fn energy_saving_pct(&self, baseline: &RunReport) -> f64 {
        (baseline.power.energy_j - self.power.energy_j) / baseline.power.energy_j * 100.0
    }

    /// Per-device energy spent between two times of the run (joules),
    /// from the exact step-function power trace.
    pub fn energy_between_s(&self, t0: f64, t1: f64) -> f64 {
        self.power.trace.integral(t0, t1)
    }

    /// Models the cost of a worker crash at epoch `fail_epoch`, comparing
    /// restart-from-scratch against resume-from-checkpoint (checkpoints
    /// written every `checkpoint_every` epochs, each costing
    /// `checkpoint_write_s` at the machine's data-load power level).
    ///
    /// This is the Summit-scale counterpart of the measured recovery runs
    /// in `experiments::table_resil`: the paper's energy analysis counts
    /// every joule of a multi-hour run, so a failure near the end that
    /// forces a full restart nearly doubles the bill, while a resume only
    /// re-pays the re-join overhead plus the epochs since the last
    /// checkpoint.
    ///
    /// # Panics
    /// Panics if `checkpoint_every == 0` or `fail_epoch` exceeds the
    /// epochs this run executes per worker.
    pub fn failure_recovery(
        &self,
        fail_epoch: usize,
        checkpoint_every: usize,
        checkpoint_write_s: f64,
    ) -> RecoveryCost {
        assert!(checkpoint_every > 0, "checkpoint interval must be positive");
        assert!(
            fail_epoch <= self.epochs_per_worker,
            "fail epoch {fail_epoch} beyond {} epochs",
            self.epochs_per_worker
        );
        let train_phase = self
            .phases
            .iter()
            .find(|p| p.name == "training")
            .expect("run has a training phase");
        let train_start_s = train_phase.start_s;
        let train_end_s = train_phase.start_s + train_phase.duration_s;
        let fail_time_s = train_start_s + fail_epoch as f64 * self.time_per_epoch_s;
        let energy_to_fail_j = self.energy_between_s(0.0, fail_time_s);
        let pre_train_energy_j = self.energy_between_s(0.0, train_start_s);
        let tail_s = self.total_s - train_end_s;
        let tail_energy_j = self.energy_between_s(train_end_s, self.total_s);
        let epoch_energy_j = if self.epochs_per_worker > 0 {
            self.energy_between_s(train_start_s, train_end_s) / self.epochs_per_worker as f64
        } else {
            0.0
        };

        let last_checkpoint_epoch = fail_epoch - fail_epoch % checkpoint_every;
        let redone_epochs = fail_epoch - last_checkpoint_epoch;
        // Writes in the failed segment plus in the resumed segment.
        let checkpoint_writes = fail_epoch / checkpoint_every
            + (self.epochs_per_worker - last_checkpoint_epoch) / checkpoint_every;
        let checkpoint_overhead_s = checkpoint_writes as f64 * checkpoint_write_s;
        let ckpt_power_w = self.config.machine.spec().power.data_load_w;
        let checkpoint_energy_j = checkpoint_overhead_s * ckpt_power_w;

        // Restart from scratch: everything up to the failure is wasted,
        // then the entire run is paid again (no checkpoint writes).
        let restart_total_s = fail_time_s + self.total_s;
        let restart_energy_j = energy_to_fail_j + self.power.energy_j;

        // Resume from checkpoint: pay the failed segment, re-join
        // (startup + data loading + broadcast), the epochs since the last
        // checkpoint plus the remaining epochs, the tail (evaluation), and
        // all checkpoint writes.
        let resumed_epochs = self.epochs_per_worker - last_checkpoint_epoch;
        let resume_total_s = fail_time_s
            + train_start_s
            + resumed_epochs as f64 * self.time_per_epoch_s
            + tail_s
            + checkpoint_overhead_s;
        let resume_energy_j = energy_to_fail_j
            + pre_train_energy_j
            + resumed_epochs as f64 * epoch_energy_j
            + tail_energy_j
            + checkpoint_energy_j;

        RecoveryCost {
            fail_epoch,
            last_checkpoint_epoch,
            redone_epochs,
            checkpoint_writes,
            checkpoint_overhead_s,
            restart_total_s,
            restart_energy_j,
            resume_total_s,
            resume_energy_j,
        }
    }
}

/// Modelled cost of one crash-and-recover, from
/// [`RunReport::failure_recovery`]. Time and energy are per device;
/// multiply energy by the worker count for the cluster-level bill.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryCost {
    /// Epoch at which the crash hits (epochs completed before it).
    pub fail_epoch: usize,
    /// Last epoch with a durable checkpoint.
    pub last_checkpoint_epoch: usize,
    /// Epochs of work re-done when resuming (fail − last checkpoint).
    pub redone_epochs: usize,
    /// Total checkpoint writes across failed + resumed segments.
    pub checkpoint_writes: usize,
    /// Total time spent writing checkpoints, seconds.
    pub checkpoint_overhead_s: f64,
    /// Wall time of crash + restart-from-scratch, seconds.
    pub restart_total_s: f64,
    /// Per-device energy of crash + restart-from-scratch, joules.
    pub restart_energy_j: f64,
    /// Wall time of crash + resume-from-checkpoint, seconds.
    pub resume_total_s: f64,
    /// Per-device energy of crash + resume-from-checkpoint, joules.
    pub resume_energy_j: f64,
}

impl RecoveryCost {
    /// Wall time saved by resuming instead of restarting, seconds.
    pub fn saved_s(&self) -> f64 {
        self.restart_total_s - self.resume_total_s
    }

    /// Per-device energy saved by resuming instead of restarting, joules.
    pub fn saved_energy_j(&self) -> f64 {
        self.restart_energy_j - self.resume_energy_j
    }
}

/// Simulates one run.
pub fn simulate(profile: &WorkloadProfile, config: &RunConfig) -> Result<RunReport, RunError> {
    if config.workers == 0 {
        return Err(RunError::InvalidConfig("zero workers".into()));
    }
    if config.batch_size == 0 {
        return Err(RunError::InvalidConfig("zero batch size".into()));
    }
    // Device-memory gate (Summit's 16 GB V100s; Theta's 192 GB nodes are
    // never the binding constraint in the paper).
    if config.machine == Machine::Summit {
        let limit = calib::oom_batch_limit_summit(profile.bench);
        if config.batch_size > limit {
            return Err(RunError::OutOfMemory {
                batch: config.batch_size,
                limit,
            });
        }
    }
    let epochs_per_worker = match config.scaling {
        ScalingMode::Strong => {
            // comp_epochs: balanced split; the paper keeps it equal per
            // GPU. The per-benchmark minimum enforces constraints like
            // "P1B1 requires at least 4 epochs" (at most 96 GPUs of its
            // 384-epoch budget).
            let min = calib::min_epochs_per_worker(profile.bench);
            if config.workers > profile.total_epochs || profile.total_epochs / config.workers < min
            {
                return Err(RunError::TooManyWorkers {
                    workers: config.workers,
                    total_epochs: profile.total_epochs,
                });
            }
            profile.total_epochs / config.workers
        }
        ScalingMode::Weak { epochs_per_worker } => {
            if epochs_per_worker == 0 {
                return Err(RunError::InvalidConfig("zero epochs per worker".into()));
            }
            epochs_per_worker
        }
    };

    let machine = config.machine;
    let spec = machine.spec();
    let nodes = machine.nodes_for(config.workers);
    let comm = CommModel::new(machine);

    // Phase 1: data loading (train + test files) with contention.
    let data_load_s = io::total_load_seconds(machine, profile.bench, config.load_method, nodes);

    // Phase 2: broadcast (negotiation tied to loading skew + tree).
    let model_bytes = calib::model_bytes(profile.bench);
    let broadcast_s = comm.broadcast_overhead_seconds(
        config.workers,
        model_bytes,
        data_load_s,
        config.load_method,
    );

    // Phase 3: training.
    let steps_per_epoch = profile.train_samples.div_ceil(config.batch_size);
    let (base_summit, base_theta) = calib::batch_compute_seconds(profile.bench);
    let (marg_summit, marg_theta) = calib::batch_marginal_seconds_per_sample(profile.bench);
    let (base, marginal) = match machine {
        Machine::Summit => (base_summit, marg_summit),
        Machine::Theta => (base_theta, marg_theta),
    };
    let delta = config.batch_size as f64 - profile.default_batch as f64;
    let batch_compute_s = (base + marginal * delta).max(base * 0.2);
    let allreduce_per_step_s = comm.allreduce_seconds_scaled(config.workers, model_bytes);
    let time_per_epoch_s = steps_per_epoch as f64 * (batch_compute_s + allreduce_per_step_s);
    let train_s = epochs_per_worker as f64 * time_per_epoch_s;

    // Phase 4: fixed overhead, split into start-up and evaluation.
    let (fixed_summit, fixed_theta) = calib::fixed_overhead_seconds(profile.bench);
    let overhead_s = match machine {
        Machine::Summit => fixed_summit,
        Machine::Theta => fixed_theta,
    };
    let startup_s = overhead_s * 0.4;
    let evaluate_s = overhead_s * 0.6;

    let total_s = startup_s + data_load_s + broadcast_s + train_s + evaluate_s;

    // Phase schedule.
    let mut t = 0.0;
    let mut phases = Vec::new();
    let mut push = |name: &'static str, dur: f64, t: &mut f64| {
        phases.push(RunPhase {
            name,
            start_s: *t,
            duration_s: dur,
        });
        *t += dur;
    };
    push("startup", startup_s, &mut t);
    push("data_loading", data_load_s, &mut t);
    push("broadcast", broadcast_s, &mut t);
    push("training", train_s, &mut t);
    push("evaluate", evaluate_s, &mut t);

    // Power schedule: training power blends compute and allreduce by their
    // time shares within a step.
    let p = spec.power;
    let step_total = batch_compute_s + allreduce_per_step_s;
    let train_power = if step_total > 0.0 {
        (p.compute_w * batch_compute_s + p.allreduce_w * allreduce_per_step_s) / step_total
    } else {
        p.compute_w
    };
    let power_phases: Vec<PowerPhase> = phases
        .iter()
        .map(|ph| PowerPhase {
            name: ph.name.to_string(),
            start_s: ph.start_s,
            duration_s: ph.duration_s,
            power_w: match ph.name {
                "startup" => p.idle_w,
                "data_loading" => p.data_load_w,
                "broadcast" => p.broadcast_w,
                "training" => train_power,
                "evaluate" => p.compute_w * 0.6,
                _ => p.idle_w,
            },
        })
        .collect();
    let power = build_power_trace(&spec, &power_phases);

    // Modelled Horovod timeline: negotiation + broadcast at start-up, then
    // one communication block per epoch (Fig 19 shows "8 pieces" for 8
    // epochs). Timestamps in microseconds.
    let timeline = Timeline::new();
    let us = |s: f64| (s * 1e6) as u64;
    let negotiate_s = broadcast_s
        - comm
            .broadcast_transfer_seconds(config.workers, model_bytes)
            .min(broadcast_s);
    let bc_start = startup_s + data_load_s;
    timeline.record(
        "negotiate_broadcast",
        0,
        us(bc_start),
        us(negotiate_s).max(1),
    );
    timeline.record(
        "mpi_broadcast",
        0,
        us(bc_start + negotiate_s),
        us(broadcast_s - negotiate_s).max(1),
    );
    let train_start = bc_start + broadcast_s;
    let allreduce_epoch_s = steps_per_epoch as f64 * allreduce_per_step_s;
    for e in 0..epochs_per_worker.min(64) {
        let epoch_start = train_start + e as f64 * time_per_epoch_s;
        timeline.record("negotiate_allreduce", 0, us(epoch_start), 1);
        timeline.record(
            "nccl_allreduce",
            0,
            us(epoch_start + steps_per_epoch as f64 * batch_compute_s * 0.5),
            us(allreduce_epoch_s).max(1),
        );
    }

    Ok(RunReport {
        config: *config,
        nodes,
        epochs_per_worker,
        steps_per_epoch,
        data_load_s,
        broadcast_s,
        train_s,
        overhead_s,
        total_s,
        time_per_epoch_s,
        allreduce_per_step_s,
        power,
        phases,
        timeline,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nt3() -> WorkloadProfile {
        WorkloadProfile {
            bench: Bench::Nt3,
            train_samples: 1120,
            default_batch: 20,
            total_epochs: 384,
        }
    }

    fn summit_strong(workers: usize, method: LoadMethod) -> RunConfig {
        RunConfig {
            machine: Machine::Summit,
            workers,
            batch_size: 20,
            scaling: ScalingMode::Strong,
            load_method: method,
        }
    }

    #[test]
    fn nt3_sequential_run_shape() {
        let r = simulate(&nt3(), &summit_strong(1, LoadMethod::PandasDefault)).unwrap();
        assert_eq!(r.epochs_per_worker, 384);
        assert_eq!(r.steps_per_epoch, 56);
        assert_eq!(r.nodes, 1);
        assert_eq!(r.broadcast_s, 0.0);
        assert!((r.time_per_epoch_s - 10.3).abs() < 0.5);
        // Sequential run is dominated by training, not loading.
        assert!(r.train_s > r.data_load_s);
    }

    #[test]
    fn failure_recovery_resume_beats_restart() {
        let r = simulate(&nt3(), &summit_strong(24, LoadMethod::PandasDefault)).unwrap();
        // Crash late in the run (epoch 14 of 16), checkpoints every 2
        // epochs with a modest write cost.
        let cost = r.failure_recovery(14, 2, 1.0);
        assert_eq!(cost.last_checkpoint_epoch, 14);
        assert_eq!(cost.redone_epochs, 0);
        assert!(cost.resume_total_s < cost.restart_total_s);
        assert!(cost.resume_energy_j < cost.restart_energy_j);
        assert!(cost.saved_s() > 0.0);
        assert!(cost.saved_energy_j() > 0.0);
        // A mid-interval crash re-does exactly the epochs since the last
        // checkpoint.
        let odd = r.failure_recovery(13, 2, 1.0);
        assert_eq!(odd.last_checkpoint_epoch, 12);
        assert_eq!(odd.redone_epochs, 1);
        // Later failures waste more under restart-from-scratch, widening
        // the gap in favour of checkpointed resume.
        let early = r.failure_recovery(4, 2, 1.0);
        assert!(cost.saved_s() > early.saved_s());
    }

    #[test]
    fn energy_between_sums_to_total() {
        let r = simulate(&nt3(), &summit_strong(4, LoadMethod::PandasDefault)).unwrap();
        let half = r.total_s / 2.0;
        let a = r.energy_between_s(0.0, half);
        let b = r.energy_between_s(half, r.total_s);
        assert!((a + b - r.power.energy_j).abs() < 1e-6 * r.power.energy_j);
    }

    #[test]
    fn data_loading_dominates_at_48_gpus() {
        // Paper Fig 6a: on 48 GPUs or more, data loading dominates.
        let r = simulate(&nt3(), &summit_strong(48, LoadMethod::PandasDefault)).unwrap();
        assert!(
            r.data_load_s > r.train_s,
            "load {:.1} vs train {:.1}",
            r.data_load_s,
            r.train_s
        );
        let r24 = simulate(&nt3(), &summit_strong(24, LoadMethod::PandasDefault)).unwrap();
        assert!(
            r24.train_s > r24.data_load_s,
            "at 24 GPUs training still dominates"
        );
    }

    #[test]
    fn optimized_method_improves_total_runtime() {
        // Paper §5.1: up to 67.68% improvement for NT3 on Summit.
        let mut best = 0.0f64;
        for workers in [1usize, 6, 12, 24, 48, 96, 192, 384] {
            let orig =
                simulate(&nt3(), &summit_strong(workers, LoadMethod::PandasDefault)).unwrap();
            let opt = simulate(
                &nt3(),
                &summit_strong(workers, LoadMethod::ChunkedLowMemoryFalse),
            )
            .unwrap();
            let imp = opt.runtime_improvement_pct(&orig);
            assert!(imp > 0.0, "improvement must be positive at {workers}");
            best = best.max(imp);
        }
        assert!(
            (55.0..80.0).contains(&best),
            "best NT3 improvement {best:.1}% (paper 67.68%)"
        );
    }

    #[test]
    fn optimized_method_saves_energy_and_raises_power() {
        // Paper Table 5: avg power rises (up to ~69%), energy falls (up to
        // ~56%).
        let orig = simulate(&nt3(), &summit_strong(384, LoadMethod::PandasDefault)).unwrap();
        let opt = simulate(
            &nt3(),
            &summit_strong(384, LoadMethod::ChunkedLowMemoryFalse),
        )
        .unwrap();
        assert!(opt.power.avg_power_w > orig.power.avg_power_w);
        let saving = opt.energy_saving_pct(&orig);
        assert!(
            (40.0..70.0).contains(&saving),
            "energy saving {saving:.1}% (paper ≤55.93%)"
        );
        let power_rise =
            (opt.power.avg_power_w - orig.power.avg_power_w) / orig.power.avg_power_w * 100.0;
        assert!(
            (40.0..90.0).contains(&power_rise),
            "power rise {power_rise:.1}% (paper ≤68.77%)"
        );
    }

    #[test]
    fn warm_cache_run_beats_optimized_parse() {
        // A warm-cache rank loads >3x faster than even the chunked parse,
        // and the lower skew shrinks the broadcast negotiation too.
        let chunked = simulate(
            &nt3(),
            &summit_strong(48, LoadMethod::ChunkedLowMemoryFalse),
        )
        .unwrap();
        let cache = simulate(&nt3(), &summit_strong(48, LoadMethod::BinaryCache)).unwrap();
        assert!(
            cache.data_load_s < chunked.data_load_s / 3.0,
            "cache load {:.2}s vs chunked {:.2}s",
            cache.data_load_s,
            chunked.data_load_s
        );
        assert!(cache.broadcast_s < chunked.broadcast_s);
        assert!(cache.total_s < chunked.total_s);
    }

    #[test]
    fn oom_on_nt3_batch_50() {
        let cfg = RunConfig {
            batch_size: 50,
            ..summit_strong(6, LoadMethod::PandasDefault)
        };
        match simulate(&nt3(), &cfg) {
            Err(RunError::OutOfMemory { batch: 50, limit }) => assert!(limit < 50),
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn too_many_workers_strong_scaling() {
        let cfg = summit_strong(385, LoadMethod::PandasDefault);
        assert!(matches!(
            simulate(&nt3(), &cfg),
            Err(RunError::TooManyWorkers { .. })
        ));
    }

    #[test]
    fn weak_scaling_keeps_epochs_constant() {
        let cfg = RunConfig {
            scaling: ScalingMode::Weak {
                epochs_per_worker: 8,
            },
            ..summit_strong(3072, LoadMethod::PandasDefault)
        };
        let r = simulate(&nt3(), &cfg).unwrap();
        assert_eq!(r.epochs_per_worker, 8);
        assert_eq!(r.nodes, 512);
        // Paper Table 6: time/epoch on 3,072 GPUs is >3× the sequential.
        assert!(r.time_per_epoch_s > 3.0 * 10.3);
    }

    #[test]
    fn phases_tile_the_run() {
        let r = simulate(&nt3(), &summit_strong(24, LoadMethod::PandasDefault)).unwrap();
        let mut cursor = 0.0;
        for p in &r.phases {
            assert!((p.start_s - cursor).abs() < 1e-9, "gap before {}", p.name);
            cursor = p.start_s + p.duration_s;
        }
        assert!((cursor - r.total_s).abs() < 1e-6);
        assert!((r.power.duration_s - r.total_s).abs() < 1e-6);
    }

    #[test]
    fn energy_equals_trace_integral() {
        let r = simulate(
            &nt3(),
            &summit_strong(12, LoadMethod::ChunkedLowMemoryFalse),
        )
        .unwrap();
        let e = r.power.trace.integral(0.0, r.power.duration_s);
        assert!((e - r.power.energy_j).abs() < 1e-6);
    }

    #[test]
    fn timeline_has_one_comm_block_per_epoch() {
        let cfg = RunConfig {
            scaling: ScalingMode::Weak {
                epochs_per_worker: 8,
            },
            ..summit_strong(768, LoadMethod::PandasDefault)
        };
        let r = simulate(&nt3(), &cfg).unwrap();
        let blocks = r
            .timeline
            .events()
            .iter()
            .filter(|e| e.name == "nccl_allreduce")
            .count();
        assert_eq!(blocks, 8, "Fig 19: 8 pieces of communication for 8 epochs");
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(matches!(
            simulate(&nt3(), &summit_strong(0, LoadMethod::Dask)),
            Err(RunError::InvalidConfig(_))
        ));
        let cfg = RunConfig {
            batch_size: 0,
            ..summit_strong(1, LoadMethod::Dask)
        };
        assert!(matches!(
            simulate(&nt3(), &cfg),
            Err(RunError::InvalidConfig(_))
        ));
        let cfg = RunConfig {
            scaling: ScalingMode::Weak {
                epochs_per_worker: 0,
            },
            ..summit_strong(2, LoadMethod::Dask)
        };
        assert!(matches!(
            simulate(&nt3(), &cfg),
            Err(RunError::InvalidConfig(_))
        ));
    }

    #[test]
    fn p1b1_needs_at_least_four_epochs() {
        // Paper: "P1B1 requires at least 4 epochs (at most 96 GPUs)".
        let profile = WorkloadProfile {
            bench: Bench::P1b1,
            train_samples: 2700,
            default_batch: 100,
            total_epochs: 384,
        };
        let mk = |workers| RunConfig {
            machine: Machine::Summit,
            workers,
            batch_size: 100,
            scaling: ScalingMode::Strong,
            load_method: LoadMethod::PandasDefault,
        };
        assert!(simulate(&profile, &mk(96)).is_ok());
        assert!(matches!(
            simulate(&profile, &mk(97)),
            Err(RunError::TooManyWorkers { .. })
        ));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_config() -> impl Strategy<Value = (WorkloadProfile, RunConfig)> {
            (
                prop_oneof![
                    Just(Bench::Nt3),
                    Just(Bench::P1b1),
                    Just(Bench::P1b2),
                    Just(Bench::P1b3)
                ],
                prop_oneof![Just(Machine::Summit), Just(Machine::Theta)],
                1usize..512,
                1usize..12,
                prop_oneof![
                    Just(LoadMethod::PandasDefault),
                    Just(LoadMethod::ChunkedLowMemoryFalse),
                    Just(LoadMethod::Dask),
                    Just(LoadMethod::BinaryCache)
                ],
            )
                .prop_map(|(bench, machine, workers, epochs_pw, method)| {
                    let profile = WorkloadProfile {
                        bench,
                        train_samples: match bench {
                            Bench::P1b3 => 900_100,
                            Bench::Nt3 => 1_120,
                            _ => 2_700,
                        },
                        default_batch: 100,
                        total_epochs: 384,
                    };
                    let config = RunConfig {
                        machine,
                        workers,
                        batch_size: 40,
                        scaling: ScalingMode::Weak {
                            epochs_per_worker: epochs_pw,
                        },
                        load_method: method,
                    };
                    (profile, config)
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn simulated_runs_obey_invariants((profile, config) in arb_config()) {
                let r = match simulate(&profile, &config) {
                    Ok(r) => r,
                    Err(_) => return Ok(()), // infeasible configs reject cleanly
                };
                // Phases tile the run exactly.
                let mut cursor = 0.0;
                for p in &r.phases {
                    prop_assert!((p.start_s - cursor).abs() < 1e-6);
                    prop_assert!(p.duration_s >= 0.0);
                    cursor = p.start_s + p.duration_s;
                }
                prop_assert!((cursor - r.total_s).abs() < 1e-6);
                // Energy is bounded by TDP × duration and is non-negative.
                let spec = config.machine.spec();
                prop_assert!(r.power.energy_j >= 0.0);
                prop_assert!(
                    r.power.energy_j <= spec.device_tdp_w * r.total_s + 1e-6,
                    "energy {} exceeds TDP bound {}",
                    r.power.energy_j,
                    spec.device_tdp_w * r.total_s
                );
                // Average power within physical limits.
                prop_assert!(r.power.avg_power_w <= spec.device_tdp_w);
                // Components sum to the total.
                let parts = r.data_load_s + r.broadcast_s + r.train_s + r.overhead_s;
                prop_assert!((parts - r.total_s).abs() < 1e-6);
                // More workers never shrinks nodes below workers/devices.
                prop_assert_eq!(r.nodes, config.machine.nodes_for(config.workers));
            }

            #[test]
            fn optimized_loading_never_hurts((profile, config) in arb_config()) {
                let orig = simulate(&profile, &RunConfig { load_method: LoadMethod::PandasDefault, ..config });
                let opt = simulate(&profile, &RunConfig { load_method: LoadMethod::ChunkedLowMemoryFalse, ..config });
                if let (Ok(orig), Ok(opt)) = (orig, opt) {
                    prop_assert!(opt.total_s <= orig.total_s + 1e-9);
                    prop_assert!(opt.power.energy_j <= orig.power.energy_j + 1e-6);
                }
            }
        }
    }

    #[test]
    fn error_display_strings() {
        let e = RunError::OutOfMemory {
            batch: 50,
            limit: 49,
        };
        assert!(e.to_string().contains("out of device memory"));
        let e = RunError::TooManyWorkers {
            workers: 385,
            total_epochs: 384,
        };
        assert!(e.to_string().contains("cannot split"));
    }
}
