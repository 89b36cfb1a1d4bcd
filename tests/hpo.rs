//! Fleet-scale acceptance tests for the `hpo` search engine.
//!
//! The contract under test: a seeded 64-trial ASHA search is bit-identical
//! — winner, promotion sequence, fingerprint — at any worker thread count;
//! pausing the whole search at every rung boundary (fresh executor, state
//! only from `resil` checkpoints) reproduces the uninterrupted search
//! bit-exactly; and a 64-trial fleet against a deliberately small
//! `datapipe` admission limit drains without deadlock, with saturation and
//! budget failures surfaced as typed errors.

use dataio::{generate, ClassSpec, SyntheticSpec};
use datapipe::{AdmitError, DatasetService, JobSpec, ServiceConfig};
use dlframe::Dataset;
use hpo::{
    promote, run_search, AshaConfig, LocalExecutor, ModelledExecutor, SearchConfig, SearchSpace,
    TrialExecutor, TrialId,
};
use resil::TrialStore;
use std::path::Path;
use std::sync::Arc;
use tensor::Tensor;
use xrng::SeedNode;

const SEED: u64 = 2024;

fn tmp_root(tag: &str) -> parx::Scratch {
    parx::scratch(&format!("t_hpo_{tag}")).expect("temp fs")
}

fn synthetic_spec(rows: usize, cols: usize, classes: usize) -> SyntheticSpec {
    SyntheticSpec {
        rows,
        cols,
        kind: ClassSpec::Classification {
            classes,
            separation: 1.2,
        },
        noise: 0.4,
        seed: 61,
    }
}

/// One shared service + eval set + per-tag checkpoint stores: the fixture
/// every real-trial test builds its executors from.
struct Fixture {
    service: Arc<DatasetService>,
    eval: Dataset,
    dir: parx::Scratch,
    classes: usize,
}

impl Fixture {
    fn new(dir: parx::Scratch, rows: usize, cols: usize, classes: usize) -> Self {
        let spec = synthetic_spec(rows, cols, classes);
        let mut config = ServiceConfig::new(dir.join("cache"));
        config.threads = 2;
        let service = DatasetService::new(config).expect("service");
        service
            .open_dataset(0xB0, "synthetic:hpo-test", "", 4, move || {
                Ok(generate(&spec).to_frame())
            })
            .expect("open dataset");
        let mut held_out = spec;
        held_out.rows = rows / 4;
        held_out.seed ^= 0x5EED;
        let data = generate(&held_out);
        let x = Tensor::from_vec([data.rows, data.cols], data.features.clone()).expect("x");
        let y = Tensor::from_vec([data.rows, classes], data.one_hot_labels()).expect("y");
        Self {
            service,
            eval: Dataset::new(x, y),
            dir,
            classes,
        }
    }

    fn executor(&self, tag: &str) -> Arc<LocalExecutor> {
        Arc::new(LocalExecutor::new(
            Arc::clone(&self.service),
            0xB0,
            self.classes,
            self.eval.clone(),
            64,
            TrialStore::new(self.dir.join(format!("store-{tag}")), 2).expect("store"),
            SeedNode::root(SEED),
        ))
    }
}

fn modelled_executor(dir: &Path, tag: &str) -> Arc<ModelledExecutor> {
    let profile = candle::HyperParams::of(candle::BenchId::P1b1).workload();
    Arc::new(ModelledExecutor::new(
        profile,
        cluster::Machine::Summit,
        6,
        cluster::LoadMethod::ChunkedLowMemoryFalse,
        TrialStore::new(dir.join(format!("store-{tag}")), 2).expect("store"),
        SeedNode::root(SEED),
    ))
}

/// The headline determinism criterion at fleet scale: a 64-trial seeded
/// search produces the same winner, the same promotion sequence, and the
/// same fingerprint under 1, 2, and 4 worker threads.
#[test]
fn sixty_four_trial_search_is_worker_invariant() {
    let dir = tmp_root("workers64");
    let space = SearchSpace::default_local();
    let asha = AshaConfig {
        min_epochs: 1,
        reduction: 2,
        rungs: 4,
    };
    let mut runs = Vec::new();
    for workers in [1usize, 2, 4] {
        let config = SearchConfig {
            seed: SEED,
            trials: 64,
            asha,
            workers,
        };
        let exec = modelled_executor(&dir, &format!("w{workers}"));
        let report = run_search(&space, exec, &config).expect("search");
        runs.push((
            report.fingerprint(),
            report.winner,
            report.promotions.clone(),
        ));
    }
    assert_eq!(runs[0], runs[1], "1 vs 2 workers");
    assert_eq!(runs[0], runs[2], "1 vs 4 workers");
}

/// Pause/resume at EVERY rung boundary, real trials: a search where each
/// rung is run by a brand-new executor (nothing carried in memory — the
/// continuation state comes entirely off the `resil` checkpoint store)
/// must reproduce the uninterrupted search bit-exactly: same objectives,
/// same parameter hashes, same promotions, same winner.
#[test]
fn rung_boundary_pause_resume_is_bit_exact() {
    let dir = tmp_root("resume");
    let fixture = Fixture::new(dir, 256, 8, 3);
    let space = SearchSpace::default_local();
    let asha = AshaConfig {
        min_epochs: 1,
        reduction: 2,
        rungs: 3,
    };
    let trials = 8usize;
    let config = SearchConfig {
        seed: SEED,
        trials,
        asha,
        workers: 2,
    };
    let uninterrupted =
        run_search(&space, fixture.executor("solid"), &config).expect("uninterrupted search");

    // The paused search: one fresh executor per rung over a shared store
    // root, scheduling by the same promotion rule.
    let root = SeedNode::root(SEED);
    let mut entrants: Vec<TrialId> = (0..trials as TrialId).collect();
    let mut from = 0usize;
    let mut winner = None;
    for rung in 0..asha.rungs {
        let to = asha.rung_epochs(rung);
        let exec = fixture.executor("paused"); // fresh every rung: a full process restart
        let mut ranked = Vec::new();
        for &id in &entrants {
            let params = space.sample(root, id);
            let out = exec
                .run_rung(id, &params, from, to, rung)
                .expect("resumed rung");
            let reference = &uninterrupted.trials[id as usize].rungs[rung];
            assert_eq!(
                out.objective.to_bits(),
                reference.objective.to_bits(),
                "trial {id} rung {rung}: resumed objective diverged"
            );
            assert_eq!(
                out.params_hash, reference.params_hash,
                "trial {id} rung {rung}: resumed parameters diverged"
            );
            ranked.push((id, out.objective));
        }
        let survivors = if rung + 1 < asha.rungs {
            asha.survivors(entrants.len())
        } else {
            1
        };
        entrants = promote(&ranked, survivors);
        if rung + 1 < asha.rungs {
            assert_eq!(
                entrants,
                uninterrupted.promotions[rung + 1],
                "rung {rung}: resumed promotion set diverged"
            );
        } else {
            winner = Some(entrants[0]);
        }
        from = to;
    }
    assert_eq!(winner, Some(uninterrupted.winner));
}

/// The promoted winner's checkpointed rung chain lands on exactly the
/// parameters of the same trial trained uninterrupted from scratch — the
/// experiment driver's acceptance evidence, exercised at test scale.
#[test]
fn winner_rung_chain_matches_uninterrupted_full_run() {
    let m = experiments::measure_hpo(true).unwrap();
    assert!(m.resume_bit_exact, "winner chain diverged from full run");
    let first = m.worker_fingerprints[0].1;
    assert!(m.worker_fingerprints.iter().all(|&(_, fp)| fp == first));
    assert!(m.report.budget_fraction() < 0.5);
}

/// 64 trial jobs against a service capped at 8 concurrent admissions and
/// a small shard pool: saturation must come back as the typed
/// `AdmitError::Saturated` (not a hang), an impossible budget as the typed
/// `AdmitError::InsufficientBudget`, and the full fleet must drain.
#[test]
fn oversubscribed_fleet_saturates_typed_and_drains() {
    let dir = tmp_root("stress");
    let spec = synthetic_spec(512, 8, 3);
    let mut config = ServiceConfig::new(dir.join("cache"));
    config.threads = 2;
    config.max_jobs = 8;
    config.pool_budget_bytes = 4 << 20;
    let service = DatasetService::new(config).expect("service");
    service
        .open_dataset(0xCA, "synthetic:hpo-stress", "", 4, move || {
            Ok(generate(&spec).to_frame())
        })
        .expect("open dataset");
    let job_spec = |seed: u64| JobSpec {
        dataset: 0xCA,
        features: 8,
        batch: 32,
        seed,
    };

    // Fill every admission slot, then observe the typed refusal.
    let held: Vec<_> = (0..8)
        .map(|j| service.admit(job_spec(j)).expect("within capacity"))
        .collect();
    match service.admit(job_spec(99)) {
        Err(AdmitError::Saturated { active, max_jobs }) => {
            assert_eq!((active, max_jobs), (8, 8));
        }
        Err(e) => panic!("expected Saturated, got {e:?}"),
        Ok(_) => panic!("service admitted a 9th job past its 8-job cap"),
    }
    drop(held);

    // A pool too small for even double-buffering one shard is refused
    // up front, typed — not accepted and wedged.
    let mut tiny = ServiceConfig::new(dir.join("tiny"));
    tiny.pool_budget_bytes = 1;
    let tiny_service = DatasetService::new(tiny).expect("service");
    tiny_service
        .open_dataset(0xCA, "synthetic:hpo-stress", "", 4, move || {
            Ok(generate(&spec).to_frame())
        })
        .expect("open dataset");
    match tiny_service.admit(job_spec(0)) {
        Err(AdmitError::InsufficientBudget { needed, budget }) => {
            assert!(needed > budget);
        }
        Err(e) => panic!("expected InsufficientBudget, got {e:?}"),
        Ok(_) => panic!("a 1-byte pool budget must not admit any job"),
    }

    // 64 trial jobs, 8 admission slots: every thread retries through
    // saturation and the whole fleet drains one epoch each, no deadlock.
    let threads: Vec<_> = (0..64u64)
        .map(|j| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                let job = loop {
                    match service.admit(job_spec(j)) {
                        Ok(job) => break job,
                        Err(AdmitError::Saturated { .. }) => {
                            std::thread::sleep(std::time::Duration::from_millis(1));
                        }
                        Err(e) => panic!("unexpected admit failure: {e}"),
                    }
                };
                let mut rows = 0usize;
                for item in job.epoch(0) {
                    rows += item.expect("batch").x.shape().dims()[0];
                }
                rows
            })
        })
        .collect();
    for t in threads {
        assert_eq!(t.join().expect("no deadlock, no panic"), 512);
    }
}
