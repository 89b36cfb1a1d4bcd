//! Communication cost models.
//!
//! Ring allreduce (NCCL) per batch step and binomial-tree broadcast (MPI)
//! at start-up, in α–β style with an empirical `N^0.6` negotiation/latency
//! term calibrated against the paper's epoch-time growth (Tables 2/6: NT3
//! ~10 s sequential → ~22 s at 384 GPUs → >3× sequential at 3,072 GPUs,
//! with the Fig 6a data-loading crossover at 48 GPUs preserved).
//!
//! The broadcast model adds the paper's central coupling: Horovod's
//! negotiation waits on the *slowest* rank's data loading, so broadcast
//! overhead is proportional to load time and drops dramatically when
//! loading is fixed (Fig 12: 43.72 s → 4.65 s on 384 GPUs).

use crate::calib;
use crate::io::LoadMethod;
use crate::machine::{Machine, MachineSpec};

/// NCCL release in use. The paper runs 2.3.7 and plans the 2.4 upgrade
/// "to reduce the communication overhead for the allreduce operations"
/// (§7); the model projects that upgrade as a reduction of the
/// coordination-latency coefficient (2.4 introduced low-latency trees).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NcclVersion {
    /// NCCL 2.3.7 — what the paper measured.
    #[default]
    V2_3_7,
    /// NCCL 2.4.2 — the planned upgrade (projected).
    V2_4_2,
}

impl NcclVersion {
    /// Multiplier on the allreduce coordination latency.
    pub fn latency_factor(self) -> f64 {
        match self {
            NcclVersion::V2_3_7 => 1.0,
            // 2.4's double-binary trees cut latency at scale roughly in
            // half in NVIDIA's published scaling numbers.
            NcclVersion::V2_4_2 => 0.55,
        }
    }
}

/// NVLink bandwidth inside a Summit node: dual bricks at 25 GB/s per
/// direction (paper §3).
const NVLINK_BANDWIDTH_BPS: f64 = 50.0e9;
/// Per-hop latency of an intra-node NVLink exchange.
const NVLINK_HOP_LATENCY_S: f64 = 2.0e-5;

/// Communication model bound to a machine.
#[derive(Debug, Clone, Copy)]
pub struct CommModel {
    spec: MachineSpec,
    nccl: NcclVersion,
}

impl CommModel {
    /// Creates the model for a machine (NCCL 2.3.7, as the paper ran).
    pub fn new(machine: Machine) -> Self {
        Self {
            spec: machine.spec(),
            nccl: NcclVersion::default(),
        }
    }

    /// Selects the NCCL release to model.
    pub fn with_nccl(mut self, version: NcclVersion) -> Self {
        self.nccl = version;
        self
    }

    /// Seconds for one ring allreduce of `bytes` across `workers` ranks,
    /// including Horovod's coordination overhead.
    ///
    /// `t = λ·N^0.6 + 2(N−1)/N · bytes / β`
    ///
    /// The `N^0.6` exponent is an empirical fit to the paper's three NT3
    /// anchor points (≈15 s/epoch at 48 GPUs, ≈22 s at 384, >3× sequential
    /// at 3,072); it captures Horovod's coordination overhead growing
    /// faster than the ring's `log N` latency but slower than linearly.
    pub fn allreduce_seconds(&self, workers: usize, bytes: f64) -> f64 {
        assert!(workers > 0, "worker count must be positive");
        if workers == 1 {
            return 0.0;
        }
        let n = workers as f64;
        self.spec.allreduce_latency_coeff_s * self.nccl.latency_factor() * n.powf(0.6)
            + 2.0 * (n - 1.0) / n * bytes / self.spec.allreduce_bandwidth_bps
    }

    /// Two-level (hierarchical) allreduce: intra-node reduce+broadcast
    /// over NVLink plus a leaders-only ring across the fabric. The fabric
    /// latency term scales with the *node* count instead of the rank
    /// count — the reason NCCL exploits node topology.
    pub fn hierarchical_allreduce_seconds(
        &self,
        workers: usize,
        bytes: f64,
        per_node: usize,
    ) -> f64 {
        assert!(workers > 0 && per_node > 0, "counts must be positive");
        if workers == 1 {
            return 0.0;
        }
        let g = per_node.min(workers) as f64;
        let nodes = (workers as f64 / g).ceil();
        // Intra-node: (g−1) exchanges each way over NVLink.
        let intra = 2.0 * (g - 1.0) * (NVLINK_HOP_LATENCY_S + bytes / NVLINK_BANDWIDTH_BPS);
        if nodes <= 1.0 {
            return intra;
        }
        // Inter-node: the same fabric model as the flat ring but over the
        // leader set only.
        let inter =
            self.spec.allreduce_latency_coeff_s * self.nccl.latency_factor() * nodes.powf(0.6)
                + 2.0 * (nodes - 1.0) / nodes * bytes / self.spec.allreduce_bandwidth_bps;
        intra + inter
    }

    /// Like [`CommModel::allreduce_seconds`], but scales the coordination
    /// (latency) term sub-linearly with the tensor size: Horovod's
    /// negotiation and fusion-buffer handling cost grows with the payload,
    /// so small-model benchmarks (P1B2/P1B3) pay less per step than NT3's
    /// 128 MB gradient. The factor is 1 at NT3's size by construction.
    pub fn allreduce_seconds_scaled(&self, workers: usize, bytes: f64) -> f64 {
        assert!(workers > 0, "worker count must be positive");
        if workers == 1 {
            return 0.0;
        }
        let n = workers as f64;
        let coord_factor = (bytes / 128.0e6).powf(0.8).clamp(0.05, 2.0);
        self.spec.allreduce_latency_coeff_s
            * self.nccl.latency_factor()
            * n.powf(0.6)
            * coord_factor
            + 2.0 * (n - 1.0) / n * bytes / self.spec.allreduce_bandwidth_bps
    }

    /// Overlap-aware allreduce mode: the **exposed** communication seconds
    /// per batch step when per-bucket allreduces are pipelined under the
    /// backward pass (the async bucketed engine in `collectives::overlap`).
    ///
    /// Bucket `i` (readiness order) becomes ready once backward has
    /// produced its share of the gradient bytes (`ready_i = backward ×
    /// cumulative-byte-fraction_i`); the single comm lane then serializes
    /// the per-bucket rings: `done_i = max(done_{i−1}, ready_i) + comm_i`,
    /// and `exposed = max(0, done_last − backward)`. Equivalently
    /// `comm_hidden = comm_total − exposed`, which for well-sized buckets
    /// approaches `min(comm_total, backward_tail)` — the tail of backward
    /// available after the first bucket is ready. A single bucket is ready
    /// only when backward ends, so nothing hides and the mode degenerates
    /// to [`CommModel::allreduce_seconds`]; more buckets hide more but pay
    /// the `λ·N^0.6` coordination term per bucket — the fusion-threshold
    /// trade-off this model exists to explore.
    pub fn overlapped_allreduce_exposed_seconds(
        &self,
        workers: usize,
        bucket_bytes: &[f64],
        backward_seconds: f64,
    ) -> f64 {
        assert!(workers > 0, "worker count must be positive");
        let total: f64 = bucket_bytes.iter().sum();
        if workers == 1 || total <= 0.0 {
            return 0.0;
        }
        let mut cum = 0.0;
        let ready: Vec<f64> = bucket_bytes
            .iter()
            .map(|&b| {
                cum += b;
                backward_seconds * cum / total
            })
            .collect();
        let comm: Vec<f64> = bucket_bytes
            .iter()
            .map(|&b| self.allreduce_seconds(workers, b))
            .collect();
        overlap_exposed_seconds(&comm, &ready)
    }

    /// Seconds for the pure tree-broadcast transfer of `bytes` across
    /// `workers` ranks (excluding negotiation).
    pub fn broadcast_transfer_seconds(&self, workers: usize, bytes: f64) -> f64 {
        assert!(workers > 0, "worker count must be positive");
        if workers == 1 {
            return 0.0;
        }
        let hops = (workers as f64).log2().ceil();
        hops * (self.spec.broadcast_hop_latency_s + bytes / self.spec.broadcast_bandwidth_bps)
    }

    /// Total start-up broadcast overhead: negotiation (data-loading skew)
    /// plus the tree transfer. `load_seconds` is the run's data-loading
    /// phase duration; `method` determines the skew fraction.
    pub fn broadcast_overhead_seconds(
        &self,
        workers: usize,
        model_bytes: f64,
        load_seconds: f64,
        method: LoadMethod,
    ) -> f64 {
        if workers == 1 {
            return 0.0;
        }
        let negotiation = calib::broadcast_skew_fraction(method) * load_seconds;
        negotiation + self.broadcast_transfer_seconds(workers, model_bytes)
    }
}

/// Core pipeline recurrence of the overlap mode, usable directly with
/// *measured* per-bucket communication seconds (how `table_overlap`
/// calibrates the model against a real run): a single comm lane serves
/// buckets in readiness order, each starting when both the lane and the
/// bucket's gradients are available. Returns the communication time left
/// sticking out past the end of backward (`ready_s.last()`).
///
/// `ready_s` must be non-decreasing (readiness order).
pub fn overlap_exposed_seconds(bucket_comm_s: &[f64], ready_s: &[f64]) -> f64 {
    assert_eq!(
        bucket_comm_s.len(),
        ready_s.len(),
        "one readiness time per bucket"
    );
    let mut done = 0.0f64;
    for (&c, &r) in bucket_comm_s.iter().zip(ready_s) {
        done = done.max(r) + c;
    }
    let backward_end = ready_s.last().copied().unwrap_or(0.0);
    (done - backward_end).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib::Bench;

    #[test]
    fn single_worker_is_free() {
        let m = CommModel::new(Machine::Summit);
        assert_eq!(m.allreduce_seconds(1, 1e9), 0.0);
        assert_eq!(m.broadcast_transfer_seconds(1, 1e9), 0.0);
        assert_eq!(
            m.broadcast_overhead_seconds(1, 1e9, 100.0, LoadMethod::PandasDefault),
            0.0
        );
    }

    #[test]
    fn allreduce_grows_with_workers() {
        let m = CommModel::new(Machine::Summit);
        let t6 = m.allreduce_seconds(6, 128e6);
        let t384 = m.allreduce_seconds(384, 128e6);
        let t3072 = m.allreduce_seconds(3072, 128e6);
        assert!(t6 < t384 && t384 < t3072);
    }

    #[test]
    fn nt3_epoch_times_land_on_table2_and_table6() {
        // time/epoch(N) = 56 steps × (batch compute + allreduce).
        let m = CommModel::new(Machine::Summit);
        let (batch_s, _) = calib::batch_compute_seconds(Bench::Nt3);
        let bytes = calib::model_bytes(Bench::Nt3);
        let epoch = |n: usize| 56.0 * (batch_s + m.allreduce_seconds(n, bytes));
        let e1 = epoch(1);
        let e384 = epoch(384);
        let e3072 = epoch(3072);
        assert!((e1 - 10.3).abs() < 0.5, "sequential epoch {e1:.1}");
        assert!((e384 - 22.0).abs() < 3.0, "384-GPU epoch {e384:.1}");
        // Paper: >3× the sequential time on 3,072 GPUs.
        assert!(e3072 > 3.0 * e1, "3072-GPU epoch {e3072:.1}");
        assert!(
            e3072 < 5.0 * e1,
            "3072-GPU epoch {e3072:.1} unreasonably large"
        );
    }

    #[test]
    fn theta_epoch_times_land_on_paper() {
        // Paper §5.1: ~695 s/epoch on 24 nodes, ~965 s on 384 nodes.
        let m = CommModel::new(Machine::Theta);
        let (_, batch_s) = calib::batch_compute_seconds(Bench::Nt3);
        let bytes = calib::model_bytes(Bench::Nt3);
        let epoch = |n: usize| 56.0 * (batch_s + m.allreduce_seconds(n, bytes));
        let e24 = epoch(24);
        let e384 = epoch(384);
        assert!((e24 - 695.0).abs() < 60.0, "24-node epoch {e24:.0}");
        assert!((e384 - 965.0).abs() < 90.0, "384-node epoch {e384:.0}");
    }

    #[test]
    fn broadcast_overhead_reproduces_fig12() {
        // Original NT3 on 384 GPUs (64 nodes): broadcast ≈ 43.7 s;
        // optimized: ≈ 4.65 s.
        let m = CommModel::new(Machine::Summit);
        let bytes = calib::model_bytes(Bench::Nt3);
        let orig_load = crate::io::total_load_seconds(
            Machine::Summit,
            Bench::Nt3,
            LoadMethod::PandasDefault,
            64,
        );
        let opt_load = crate::io::total_load_seconds(
            Machine::Summit,
            Bench::Nt3,
            LoadMethod::ChunkedLowMemoryFalse,
            64,
        );
        let orig = m.broadcast_overhead_seconds(384, bytes, orig_load, LoadMethod::PandasDefault);
        let opt =
            m.broadcast_overhead_seconds(384, bytes, opt_load, LoadMethod::ChunkedLowMemoryFalse);
        assert!((orig - 43.72).abs() < 8.0, "original broadcast {orig:.1}");
        assert!((opt - 4.65).abs() < 2.0, "optimized broadcast {opt:.1}");
        let improvement = (orig - opt) / orig * 100.0;
        assert!(
            improvement > 80.0,
            "improvement {improvement:.1}% (paper: 89.36%)"
        );
    }

    #[test]
    fn nccl_upgrade_reduces_latency() {
        let old = CommModel::new(Machine::Summit);
        let new = CommModel::new(Machine::Summit).with_nccl(NcclVersion::V2_4_2);
        let bytes = calib::model_bytes(Bench::Nt3);
        for n in [48usize, 384, 3072] {
            let t_old = old.allreduce_seconds(n, bytes);
            let t_new = new.allreduce_seconds(n, bytes);
            assert!(t_new < t_old, "{n} workers");
            // The bandwidth term is version-independent, so the cut is
            // less than the full latency factor.
            assert!(t_new > t_old * 0.5, "{n} workers");
        }
    }

    #[test]
    fn hierarchical_beats_flat_ring_at_scale() {
        let m = CommModel::new(Machine::Summit);
        let bytes = calib::model_bytes(Bench::Nt3);
        for n in [384usize, 3072] {
            let flat = m.allreduce_seconds(n, bytes);
            let hier = m.hierarchical_allreduce_seconds(n, bytes, 6);
            assert!(
                hier < flat,
                "{n} workers: hierarchical {hier:.4}s vs flat {flat:.4}s"
            );
        }
    }

    #[test]
    fn hierarchical_single_node_is_intra_only() {
        let m = CommModel::new(Machine::Summit);
        let t = m.hierarchical_allreduce_seconds(6, 128e6, 6);
        // Pure NVLink: well under a flat ring over the fabric.
        assert!(t < m.allreduce_seconds(6, 128e6));
        assert!(t > 0.0);
    }

    #[test]
    fn overlap_recurrence_edges() {
        // No backward to hide under: everything is exposed.
        let c = [0.2, 0.3, 0.1];
        assert!((overlap_exposed_seconds(&c, &[0.0; 3]) - 0.6).abs() < 1e-12);
        // Backward far longer than comm: only the last bucket's comm
        // sticks out (it cannot start before backward ends).
        let exposed = overlap_exposed_seconds(&c, &[10.0, 20.0, 30.0]);
        assert!((exposed - 0.1).abs() < 1e-12);
        // Empty plan is free.
        assert_eq!(overlap_exposed_seconds(&[], &[]), 0.0);
    }

    #[test]
    fn single_bucket_overlap_degenerates_to_blocking() {
        let m = CommModel::new(Machine::Summit);
        let bytes = calib::model_bytes(Bench::Nt3);
        let exposed = m.overlapped_allreduce_exposed_seconds(384, &[bytes], 0.18);
        let blocking = m.allreduce_seconds(384, bytes);
        assert!((exposed - blocking).abs() < 1e-12);
    }

    #[test]
    fn bucketing_hides_communication_under_backward() {
        // Bandwidth-dominated regime (few workers, fat gradient): splitting
        // into buckets hides most of the transfer under backward.
        let m = CommModel::new(Machine::Summit);
        let bytes = 1.0e9;
        let blocking = m.allreduce_seconds(4, bytes);
        let backward = blocking;
        let buckets = vec![bytes / 4.0; 4];
        let exposed = m.overlapped_allreduce_exposed_seconds(4, &buckets, backward);
        assert!(
            exposed < blocking,
            "exposed {exposed:.4}s must beat blocking {blocking:.4}s"
        );
        // More backward to hide under -> less exposed.
        let exposed_long = m.overlapped_allreduce_exposed_seconds(4, &buckets, backward * 4.0);
        assert!(exposed_long <= exposed);
        // Never better than the last bucket's own comm time (it cannot
        // start before backward ends).
        assert!(exposed_long >= m.allreduce_seconds(4, bytes / 4.0) - 1e-12);
        // Single worker is free.
        assert_eq!(
            m.overlapped_allreduce_exposed_seconds(1, &buckets, 1.0),
            0.0
        );
        // The trade-off the fusion threshold exists for: at large scale the
        // per-bucket λ·N^0.6 coordination term dominates, and many small
        // buckets cost more than one blocking fused call.
        let nt3 = calib::model_bytes(Bench::Nt3);
        let fine = vec![nt3 / 8.0; 8];
        let blocking_384 = m.allreduce_seconds(384, nt3);
        let exposed_384 = m.overlapped_allreduce_exposed_seconds(384, &fine, blocking_384);
        assert!(exposed_384 > blocking_384);
    }

    #[test]
    fn allreduce_bandwidth_term_saturates() {
        // The 2(N-1)/N factor approaches 2, so the bandwidth share per rank
        // stabilizes — the ring's scalability property.
        let m = CommModel::new(Machine::Summit);
        let lat = |n: usize| m.allreduce_seconds(n, 0.0);
        let bw_part_256 = m.allreduce_seconds(256, 1e9) - lat(256);
        let bw_part_4096 = m.allreduce_seconds(4096, 1e9) - lat(4096);
        assert!((bw_part_4096 - bw_part_256) / bw_part_256 < 0.01);
    }
}
