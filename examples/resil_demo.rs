//! Walkthrough of the resilience subsystem: a seeded fault plan, a
//! checkpointed training run that survives an injected worker crash with
//! bit-exact resume, an elastic shrink, and the modelled Summit bill for
//! restart-from-scratch vs resume-from-checkpoint.
//!
//! ```text
//! cargo run --release --example resil_demo
//! ```

use cluster::calib::Bench;
use resil::{
    hash_params, run_elastic, run_resilient, summit_recovery_sweep, ElasticSpec, FaultPlan,
    FaultSpec, ResilSpec,
};

fn main() {
    let dir = parx::scratch("resil_demo").expect("temp dir");

    // 1. A seeded fault plan: the whole failure schedule is a pure
    //    function of the seed, so the "experiment" below is replayable.
    let plan = FaultPlan::generate(&FaultSpec {
        seed: 7,
        epochs: 6,
        workers: 2,
        crashes: 1,
        shards: 0,
        corruptions: 0,
    });
    println!(
        "fault plan (seed 7, fingerprint {:016x}):",
        plan.fingerprint()
    );
    for e in plan.events() {
        println!("  epoch {:>2}: {:?}", e.epoch, e.kind);
    }

    // 2. Checkpointed training under that plan, against a healthy
    //    reference run. Same spec, same seed — the only difference is the
    //    injected crash and the restore it forces.
    let spec = |name: &str, plan: FaultPlan| ResilSpec {
        bench: Bench::Nt3,
        workers: 2,
        epochs: 6,
        batch: 20,
        base_lr: 0.02,
        data: candle::BenchDataKind::tiny(Bench::Nt3),
        seed: 42,
        checkpoint_every: 2,
        keep: 2,
        dir: dir.join(name),
        plan,
        record_timeline: true,
    };
    let reference = run_resilient(&spec("healthy", FaultPlan::none())).expect("healthy run");
    let recovered = run_resilient(&spec("faulted", plan)).expect("faulted run");
    println!(
        "\nhealthy run : {} epochs, final weight hash {:016x}",
        reference.epochs_run, reference.final_hash
    );
    println!(
        "faulted run : {} epochs ({} re-done), {} recovery, hash {:016x}",
        recovered.epochs_run,
        recovered.redone_epochs,
        recovered.recoveries.len(),
        recovered.final_hash
    );
    for r in &recovered.recoveries {
        println!(
            "  crash at epoch {} (rank {}) -> restored checkpoint of epoch {} in {:.1} ms",
            r.fault_epoch,
            r.rank,
            r.restored_epoch,
            r.restore_s * 1e3
        );
    }
    assert_eq!(
        recovered.final_hash, reference.final_hash,
        "resume must be bit-exact"
    );
    println!("  resume is BIT-EXACT: interrupted == uninterrupted");
    println!(
        "  checkpoint overhead: {} writes, {:.1} KiB, {:.1} ms",
        recovered.checkpoint_writes,
        recovered.checkpoint_bytes as f64 / 1024.0,
        recovered.checkpoint_write_s * 1e3
    );

    // 3. Elastic alternative: no restore — the survivors shrink the ring
    //    and keep training with re-scaled gradient averaging.
    let elastic = run_elastic(&ElasticSpec {
        bench: Bench::Nt3,
        workers: 3,
        total_steps: 8,
        crash_step: 4,
        victim: 1,
        batch: 20,
        base_lr: 0.02,
        data: candle::BenchDataKind::tiny(Bench::Nt3),
        seed: 42,
    })
    .expect("elastic run");
    println!(
        "\nelastic shrink: rank 1 died at step 4; {} survivors on a world of {}, agree = {}",
        elastic.survivors.len(),
        elastic.survivors[0].world,
        elastic.survivors_agree()
    );

    // 4. The modelled bill at the paper's scale: what the crash costs on
    //    Summit with and without the checkpoint.
    println!("\nmodelled Summit recovery (NT3, crash at 6/8 epochs, checkpoint every 2):");
    println!(
        "{:>6}  {:>10}  {:>10}  {:>9}  {:>14}",
        "GPUs", "restart s", "resume s", "saved s", "saved kJ/dev"
    );
    for row in summit_recovery_sweep(Bench::Nt3, &[1, 96, 1536], 0.75, 2, 5.0).expect("sweep") {
        println!(
            "{:>6}  {:>10.0}  {:>10.0}  {:>9.0}  {:>14.2}",
            row.gpus,
            row.cost.restart_total_s,
            row.cost.resume_total_s,
            row.cost.saved_s(),
            row.cost.saved_energy_j() / 1e3
        );
    }

    // The weight hash utility doubles as a quick demo of what "bit-exact"
    // means: one ULP anywhere changes the hash.
    let w = [1.0f32, 2.0, 3.0];
    let mut w2 = w;
    w2[2] = f32::from_bits(w2[2].to_bits() ^ 1);
    assert_ne!(hash_params(&w), hash_params(&w2));
}
