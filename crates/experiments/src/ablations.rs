//! Ablation and projection experiments beyond the paper's figures
//! (DESIGN.md §6 and the paper's §7 future-work items).

use crate::report::{format_table, pct, Experiment};
use cluster::calib::{self, Bench};
use cluster::{CommModel, Machine, NcclVersion};

/// Projection of the paper's planned NCCL 2.3.7 → 2.4.2 upgrade: NT3
/// weak-scaling time per epoch with each release.
pub fn ablation_nccl_upgrade() -> Experiment {
    let old = CommModel::new(Machine::Summit);
    let new = CommModel::new(Machine::Summit).with_nccl(NcclVersion::V2_4_2);
    let bytes = calib::model_bytes(Bench::Nt3);
    let (batch_s, _) = calib::batch_compute_seconds(Bench::Nt3);
    let steps = 56.0;
    let rows: Vec<Vec<String>> = [48usize, 96, 192, 384, 768, 1536, 3072]
        .iter()
        .map(|&n| {
            let e_old = steps * (batch_s + old.allreduce_seconds(n, bytes));
            let e_new = steps * (batch_s + new.allreduce_seconds(n, bytes));
            vec![
                n.to_string(),
                format!("{e_old:.1}"),
                format!("{e_new:.1}"),
                pct((e_old - e_new) / e_old * 100.0),
            ]
        })
        .collect();
    Experiment {
        id: "ablation_nccl",
        title: "Projected NT3 time/epoch (s) with the NCCL 2.4 upgrade (paper §7 future work)",
        text: format_table(
            &["GPUs", "NCCL 2.3.7", "NCCL 2.4.2", "epoch speedup"],
            &rows,
        ),
    }
}

/// Flat ring vs two-level hierarchical allreduce: the modelled per-step
/// cost at Summit's 6-GPU node topology.
pub fn ablation_hierarchical_allreduce() -> Experiment {
    let m = CommModel::new(Machine::Summit);
    let bytes = calib::model_bytes(Bench::Nt3);
    let rows: Vec<Vec<String>> = [6usize, 48, 96, 384, 768, 3072]
        .iter()
        .map(|&n| {
            let flat = m.allreduce_seconds(n, bytes);
            let hier = m.hierarchical_allreduce_seconds(n, bytes, 6);
            vec![
                n.to_string(),
                format!("{:.1} ms", flat * 1e3),
                format!("{:.1} ms", hier * 1e3),
                format!("{:.2}x", flat / hier.max(1e-12)),
            ]
        })
        .collect();
    Experiment {
        id: "ablation_hierarchical",
        title: "Flat ring vs hierarchical allreduce per step (modelled, Summit)",
        text: format_table(&["GPUs", "flat ring", "hierarchical", "speedup"], &rows),
    }
}

/// Functional measurement: ring vs naive allreduce and flat vs
/// hierarchical on real threads — the live counterpart of the modelled
/// ablations.
pub fn ablation_collectives_measured() -> Experiment {
    use crate::overlap_table::{allreduce_call_seconds, Allreduce};
    use collectives::{
        exchange_allreduce, hierarchical_allreduce, naive_allreduce, ring_allreduce,
    };
    let workers = 6;
    // Two payloads, one on each side of the size at which `allreduce_sum`
    // goes from one exchange to the ring: 16 KiB and 1 MB of f32.
    let payloads = [4_096usize, 262_144];
    // Mean wall time per call on rank 0 over 4 MB worth of calls.
    let time = |algo: Allreduce, elements: usize| -> f64 {
        let calls = (1_000_000 / elements).clamp(20, 200);
        allreduce_call_seconds(workers, elements, calls, algo)
    };
    let algos: [(&str, Allreduce); 4] = [
        ("ring (NCCL-style)", ring_allreduce),
        ("one exchange", exchange_allreduce),
        ("naive (reduce+bcast)", naive_allreduce),
        ("hierarchical (3/node)", |c, d| {
            hierarchical_allreduce(c, d, 3)
        }),
    ];
    let rows: Vec<Vec<String>> = algos
        .iter()
        .map(|&(name, algo)| {
            let mut row = vec![name.to_string()];
            row.extend(
                payloads
                    .iter()
                    .map(|&n| format!("{:.3} ms", time(algo, n) * 1e3)),
            );
            row
        })
        .collect();
    let mut text = format_table(&["algorithm", "16 KiB / call", "1 MB / call"], &rows);
    text.push_str(
        "\n(6 workers on local threads; allreduce_sum takes one exchange up to 256 KiB of\n\
         (n-1) x payload and the ring above; table_overlap renders the per-call sweep)\n",
    );
    Experiment {
        id: "ablation_collectives",
        title: "Allreduce algorithms measured on simulated workers",
        text,
    }
}

/// Tensor fusion on/off: modelled allreduce calls and per-step time for a
/// many-tensor model (Horovod's signature optimization).
pub fn ablation_fusion() -> Experiment {
    use collectives::FusionPlan;
    let m = CommModel::new(Machine::Summit);
    // NT3's parameter tensors: two conv layers + two dense layers, weights
    // and biases — sizes in elements at full scale.
    let tensors: Vec<usize> = vec![
        20 * 128,
        128,
        10 * 128 * 128,
        128,
        96_604 * 200,
        200,
        200 * 20,
        20,
        20 * 2,
        2,
    ];
    let fused = FusionPlan::plan(&tensors, collectives::DEFAULT_FUSION_THRESHOLD_BYTES);
    let unfused = FusionPlan::unfused(&tensors);
    let step_time = |plan: &FusionPlan| -> f64 {
        plan.group_elements()
            .iter()
            .map(|&e| m.allreduce_seconds(384, e as f64 * 4.0))
            .sum()
    };
    let t_fused = step_time(&fused);
    let t_unfused = step_time(&unfused);
    let rows = vec![
        vec![
            "fused (64 MB buffer)".to_string(),
            fused.num_calls().to_string(),
            format!("{:.3} s", t_fused),
        ],
        vec![
            "unfused".to_string(),
            unfused.num_calls().to_string(),
            format!("{:.3} s", t_unfused),
        ],
    ];
    let mut text = format_table(
        &["mode", "allreduce calls/step", "comm time/step (384 GPUs)"],
        &rows,
    );
    text.push_str(&format!(
        "\nfusion saves {:.1}% of per-step communication at 384 GPUs\n",
        (t_unfused - t_fused) / t_unfused * 100.0
    ));
    Experiment {
        id: "ablation_fusion",
        title: "Horovod tensor fusion on/off (modelled NT3 layer sizes)",
        text,
    }
}

/// All ablations in one list.
pub fn ablations() -> Vec<Experiment> {
    vec![
        ablation_nccl_upgrade(),
        ablation_hierarchical_allreduce(),
        ablation_collectives_measured(),
        ablation_fusion(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nccl_projection_shows_speedup_growing_with_scale() {
        let e = ablation_nccl_upgrade();
        let speedups: Vec<f64> = e
            .text
            .lines()
            .skip(2)
            .filter_map(|l| {
                l.rsplit_once(' ')
                    .or(Some((l, "")))
                    .map(|_| l.split_whitespace().last().unwrap_or("0%"))
                    .and_then(|c| c.trim_end_matches('%').parse().ok())
            })
            .collect();
        assert_eq!(speedups.len(), 7);
        // Upgrade matters more at larger scale.
        assert!(speedups.last().unwrap() > speedups.first().unwrap());
        assert!(*speedups.last().unwrap() > 10.0);
    }

    #[test]
    fn hierarchical_ablation_speedup_exceeds_one_at_scale() {
        let e = ablation_hierarchical_allreduce();
        assert!(e.text.contains('x'));
        // The last row (3072 GPUs) should show a clear win.
        let last = e.text.lines().last().unwrap();
        let factor: f64 = last
            .split_whitespace()
            .last()
            .unwrap()
            .trim_end_matches('x')
            .parse()
            .unwrap();
        assert!(factor > 1.5, "hierarchical speedup {factor}");
    }

    #[test]
    fn fusion_reduces_calls_and_time() {
        let e = ablation_fusion();
        assert!(e.text.contains("fusion saves"));
        // Fused must be a single call for NT3's ~77 MB of gradients...
        // actually above 64 MB it splits into 2; either way fewer than 10.
        let fused_calls: usize = e
            .text
            .lines()
            .find(|l| l.contains("fused (64"))
            .and_then(|l| l.split_whitespace().nth(4).map(str::to_string))
            .and_then(|c| c.parse().ok())
            .unwrap_or(0);
        assert!((1..10).contains(&fused_calls));
    }

    #[test]
    fn measured_collectives_runs() {
        let e = ablation_collectives_measured();
        assert!(e.text.contains("ring (NCCL-style)"));
        assert!(e.text.contains("ms"));
    }
}
