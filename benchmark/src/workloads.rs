//! The four workloads: fixed shapes, and why each exists. Every number
//! here is a constant; `--seed` only derives the generated dataset, the
//! model initialisation and the request trace.

/// Which CANDLE benchmark's model and data generator a workload uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// MLP classifier, RMSProp.
    P1b2,
    /// 1-D convolutional classifier, SGD.
    Nt3,
    /// MLP regressor, SGD.
    P1b3,
}

/// How a workload's timed iteration gets its data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Cold every iteration: delete the shard cache, ingest the packed CSV,
    /// build and decode the shards, then train on the now-warm cache.
    ColdCsv,
    /// Fed by one in-process dataset service that set-up built and warmed.
    WarmService,
    /// No training in the timed pass: a checkpointed model is served.
    Serve,
}

/// Geometry and training configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    pub model: Model,
    pub features: usize,
    pub train_rows: usize,
    pub test_rows: usize,
    pub batch: usize,
    /// Epochs every worker runs.
    pub epochs: usize,
    pub workers: usize,
    /// Each worker trains on its 1/N block (else on the full dataset).
    pub sharded: bool,
    /// Bucket threshold of the overlapped allreduce engine; `None` is the
    /// blocking post-backward allreduce.
    pub overlap_bytes: Option<usize>,
    pub base_lr: f32,
}

impl Shape {
    /// Samples one run trains on, summed over workers.
    pub fn samples_per_run(&self) -> f64 {
        let per_worker = if self.sharded {
            self.train_rows / self.workers
        } else {
            self.train_rows
        };
        (per_worker * self.workers * self.epochs) as f64
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    /// One line, copied into `BENCHMARK.json`.
    pub why: &'static str,
    pub kind: Kind,
    pub shape: Shape,
    /// The final training loss must stay below this.
    pub loss_ceiling: f64,
    /// Test accuracy floor, for the classifiers that reach it in the epochs
    /// the workload trains.
    pub min_accuracy: Option<f64>,
    /// Set-ups per timed run; `setup_s` is their median. A short set-up is
    /// repeated more often, so every workload's `setup_s` rests on several
    /// seconds of measurement.
    pub setup_reps: usize,
}

/// Serving constants of `serve_mixed`.
pub mod serve {
    pub const ENGINE_WORKERS: usize = 1;
    pub const MAX_BATCH: usize = 16;
    pub const MAX_WAIT_MS: u64 = 2;
    pub const QUEUE_CAPACITY: usize = 1024;
    /// Pre-generated request rows.
    pub const POOL_ROWS: usize = 256;
    /// Open-loop Poisson rates. Light load is set by the batcher's hold,
    /// the higher rate (about 45% of capacity on the reference box) by
    /// queueing plus forward.
    pub const RATES_RPS: [f64; 2] = [500.0, 1500.0];
    /// Share of `--seconds` each open-loop stage lasts.
    pub const OPEN_STAGE_SHARE: f64 = 0.35;
    /// Closed loop: one client, this many requests outstanding ...
    pub const CLOSED_OUTSTANDING: usize = 32;
    /// ... until this many rows are scored: one burst ...
    pub const BURST_REQUESTS: usize = 4_000;
    /// ... repeated this many times; the burst walls' median is reported,
    /// so one slow second of the host does not set the number.
    pub const BURSTS: usize = 5;
    /// Deployments (restore → engine start → first reply) timed per run.
    pub const DEPLOY_REPS: usize = 15;
    /// A reply slower than this misses the latency limit.
    pub const SLO_MS: f64 = 50.0;
}

pub const ALL: [Workload; 4] = [
    Workload {
        name: "cold_wide",
        why: "Wide-few-rows CSV (3000 x 3600, 202 MiB), 1 epoch/worker: ingest, shard build and \
              packing are ~65% of the run, compute and allreduce are small (the paper's strong-scaled case)",
        kind: Kind::ColdCsv,
        shape: Shape {
            model: Model::P1b2,
            features: 3000,
            train_rows: 2700,
            test_rows: 900,
            batch: 60,
            epochs: 1,
            workers: 2,
            sharded: false,
            overlap_bytes: None,
            base_lr: 0.001,
        },
        loss_ceiling: 0.5,
        min_accuracy: Some(0.9),
        setup_reps: 3,
    },
    Workload {
        name: "warm_conv",
        why: "Conv/GEMM-bound NT3 fed by a pool-warm dataset service with overlapped allreduce: \
              bypasses ingest, so an ingest or blocking-allreduce change must not move it",
        kind: Kind::WarmService,
        shape: Shape {
            model: Model::Nt3,
            features: 3000,
            train_rows: 1120,
            test_rows: 280,
            batch: 20,
            epochs: 2,
            workers: 2,
            sharded: false,
            overlap_bytes: Some(64 * 1024),
            base_lr: 0.02,
        },
        loss_ceiling: 0.1,
        min_accuracy: Some(0.9),
        setup_reps: 3,
    },
    Workload {
        name: "narrow_steps",
        why: "Narrow-many-rows CSV (160 x 60000, 181 MiB), sharded, 3840 tiny blocking allreduces \
              and tiny GEMMs: per-step sync is 30-40% of a step here and <5% in warm_conv",
        kind: Kind::ColdCsv,
        shape: Shape {
            model: Model::P1b3,
            features: 160,
            train_rows: 48_000,
            test_rows: 12_000,
            batch: 100,
            epochs: 16,
            workers: 2,
            sharded: true,
            overlap_bytes: None,
            base_lr: 0.05,
        },
        loss_ceiling: 0.05,
        min_accuracy: None,
        setup_reps: 3,
    },
    Workload {
        name: "serve_mixed",
        why: "Checkpointed NT3 served at 500 rps, 1500 rps (open loop, Poisson) and closed loop on one \
              engine: batcher hold, queueing+forward and batch throughput each dominate one stage",
        kind: Kind::Serve,
        shape: Shape {
            model: Model::Nt3,
            features: 2000,
            train_rows: 1120,
            test_rows: 280,
            batch: 20,
            epochs: 1,
            workers: 1,
            sharded: false,
            overlap_bytes: None,
            base_lr: 0.02,
        },
        loss_ceiling: 0.7,
        min_accuracy: None,
        setup_reps: 5,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_whys_fit_the_contract() {
        for (i, w) in ALL.iter().enumerate() {
            assert!(ALL[i + 1..].iter().all(|o| o.name != w.name));
            assert!(
                w.why.len() <= 200,
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
            assert!(!w.why.contains('\n'));
            assert_eq!(find(w.name), Some(w));
        }
        assert_eq!(find("nope"), None);
    }

    #[test]
    fn samples_per_run_counts_every_worker() {
        assert_eq!(find("warm_conv").unwrap().shape.samples_per_run(), 4480.0);
        assert_eq!(
            find("narrow_steps").unwrap().shape.samples_per_run(),
            768_000.0
        );
    }
}
