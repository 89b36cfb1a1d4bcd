//! `experiments` — one driver per table and figure of the paper.
//!
//! Every driver regenerates its experiment from the reproduction's two
//! planes and renders a plain-text report:
//!
//! * timing / power / energy series come from the calibrated `cluster`
//!   simulator (the paper's measurements were on Summit/Theta, which we
//!   replace per DESIGN.md);
//! * accuracy / loss series come from **real training** through
//!   `candle::run_parallel` on dimension-scaled synthetic data;
//! * the data-loading method comparison additionally runs the real Rust
//!   CSV engine (`dataio`) on generated files, validating the *ratios*
//!   behind Tables 3/4 on local hardware.
//!
//! The [`all`] function runs the complete suite in paper order (the
//! `paper_report` example prints it); each driver is also exported for
//! targeted use by the benches and tests.

mod ablations;
mod cache_table;
mod datapipe_table;
mod figures_batch;
mod figures_improve;
mod figures_strong;
mod figures_weak;
mod fleet_table;
mod functional;
mod gate;
mod hpo_table;
mod ingest_table;
mod kernels_table;
mod overlap_table;
mod perfmodel_table;
mod report;
mod resil_table;
mod serve_table;
mod sweeps;
mod tables;

pub use ablations::{
    ablation_collectives_measured, ablation_fusion, ablation_hierarchical_allreduce,
    ablation_nccl_upgrade, ablations,
};
pub use cache_table::{measure_cache_comparison, table_cache, CacheComparison};
pub use datapipe_table::{measure_datapipe_comparison, table_datapipe, DatapipeComparison};
pub use figures_batch::fig10;
pub use figures_improve::{fig11, fig12, fig13, fig14, fig15, fig16, fig17};
pub use figures_strong::{fig6, fig7, fig8, fig9};
pub use figures_weak::{fig18, fig19, fig20, fig21};
pub use fleet_table::{measure_fleet_comparison, table_fleet, FleetComparison};
pub use functional::{accuracy_sweep, AccuracyPoint};
pub use gate::{multicore_host, timed_asserts_enabled};
pub use hpo_table::{measure_hpo, table_hpo, HpoMeasurement};
pub use ingest_table::{measure_ingest_comparison, table_ingest, IngestComparison};
pub use kernels_table::{measure_kernel_comparison, table_kernels, KernelComparison};
pub use overlap_table::{
    measure_overlap_comparison, measure_sync_call_latency, table_overlap, OverlapComparison,
    SyncCallLatency,
};
pub use perfmodel_table::{table_perfmodel, FitValidation, TunedKnob};
pub use report::{format_table, Experiment};
pub use resil_table::table_resil;
pub use serve_table::{measure_serving_sweep, table_serve, ServingRow};
pub use sweeps::{
    method_comparison_sweep, MethodComparisonRow, SUMMIT_GPU_SWEEP, THETA_NODE_SWEEP,
};
pub use tables::{table1, table2, table3, table4, table5, table6};

/// Runs every experiment in paper order.
///
/// `quick` shrinks the functional (real-training) sweeps so the whole
/// suite finishes in tens of seconds; the full mode matches the epoch
/// budgets documented in EXPERIMENTS.md.
pub fn all(quick: bool) -> Vec<Experiment> {
    vec![
        table1(),
        fig6(quick),
        table2(),
        fig7(),
        fig8(quick),
        fig9(quick),
        fig10(quick),
        table3(quick),
        table4(),
        table_cache(quick),
        fig11(),
        table5(),
        fig12(),
        fig13(),
        fig14(),
        fig15(),
        fig16(),
        fig17(),
        fig18(),
        table6(quick),
        fig19(),
        fig20(),
        fig21(),
        table_serve(quick),
        table_resil(quick),
        table_kernels(quick),
        table_ingest(quick),
        table_datapipe(quick),
        table_hpo(quick),
        table_fleet(quick),
        table_overlap(quick),
        table_perfmodel(quick),
    ]
}

#[cfg(test)]
mod tests {
    #[test]
    fn all_quick_runs_every_experiment() {
        let experiments = super::all(true);
        assert_eq!(experiments.len(), 32);
        for e in &experiments {
            assert!(!e.text.is_empty(), "{} rendered empty", e.id);
            assert!(!e.title.is_empty());
        }
        // Paper ordering spot checks.
        assert_eq!(experiments[0].id, "table1");
        assert!(experiments.iter().any(|e| e.id == "fig12"));
        assert!(experiments.iter().any(|e| e.id == "table6"));
        assert!(experiments.iter().any(|e| e.id == "table_cache"));
        assert!(experiments.iter().any(|e| e.id == "table_serve"));
        assert!(experiments.iter().any(|e| e.id == "table_resil"));
        assert!(experiments.iter().any(|e| e.id == "table_kernels"));
        assert!(experiments.iter().any(|e| e.id == "table_ingest"));
        assert!(experiments.iter().any(|e| e.id == "table_datapipe"));
        assert!(experiments.iter().any(|e| e.id == "table_hpo"));
        assert!(experiments.iter().any(|e| e.id == "table_fleet"));
        assert!(experiments.iter().any(|e| e.id == "table_overlap"));
        assert!(experiments.iter().any(|e| e.id == "table_perfmodel"));
    }
}
