//! The search engine: synchronous ASHA over a worker pool.
//!
//! One rung at a time, every entrant's segment is submitted to a `parx`
//! [`WorkerPool`]; the rung closes when all results are in, results are
//! sorted by trial id, and the promotion rule picks the survivors. The
//! worker count is pure throughput: it decides which thread happens to
//! train which trial, never what any trial computes (per-trial streams
//! come from the seed tree, batch order from the datapipe permutation,
//! and the promotion rule sees the complete, sorted rung) — so one seed
//! yields one winner, one promotion sequence, and one set of parameter
//! hashes at any thread count, which [`SearchReport::fingerprint`]
//! collapses into a single comparable number.

use crate::asha::{promote, AshaConfig};
use crate::exec::{RungOutcome, TrialExecutor};
use crate::space::{SearchSpace, TrialParams};
use crate::{HpoError, TrialId};
use datacache::format::{fnv1a64_extend, FNV_OFFSET};
use obs::PhaseProfiler;
use parx::WorkerPool;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xrng::SeedNode;

/// One search's knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchConfig {
    /// Master seed: everything stochastic in the search derives from it.
    pub seed: u64,
    /// Trials entering rung 0.
    pub trials: usize,
    /// Rung geometry.
    pub asha: AshaConfig,
    /// Worker threads running trials concurrently (throughput only —
    /// results are identical at any value).
    pub workers: usize,
}

/// One trial's full history through the search.
#[derive(Debug, Clone)]
pub struct TrialRecord {
    /// The trial.
    pub id: TrialId,
    /// Its sampled configuration.
    pub params: TrialParams,
    /// Outcomes of the rungs it survived to, in rung order.
    pub rungs: Vec<RungOutcome>,
}

impl TrialRecord {
    /// Epochs this trial consumed before elimination (or victory).
    pub fn epochs(&self) -> usize {
        self.rungs.last().map_or(0, |o| o.epochs_end)
    }

    /// The trial's last rung outcome.
    ///
    /// # Panics
    /// Panics if the trial never ran (impossible for a completed search:
    /// every trial enters rung 0).
    pub fn final_outcome(&self) -> &RungOutcome {
        self.rungs.last().expect("every trial runs rung 0")
    }
}

/// Everything a finished search reports.
#[derive(Debug, Clone)]
pub struct SearchReport {
    /// Echo of the configuration.
    pub config: SearchConfig,
    /// Per-trial histories, indexed by trial id.
    pub trials: Vec<TrialRecord>,
    /// Entrants of each rung, in promotion (best-first) order from rung 1
    /// onward; `promotions[0]` is all trials in id order.
    pub promotions: Vec<Vec<TrialId>>,
    /// The search's winner: best finisher of the final rung.
    pub winner: TrialId,
    /// `(cumulative epochs spent, best objective so far)` after each
    /// rung — the anytime curve ASHA is valued for.
    pub best_curve: Vec<(usize, f64)>,
    /// Total epochs the search actually trained.
    pub epochs_spent: usize,
    /// Epochs a brute-force full-budget sweep would have trained.
    pub full_budget: usize,
    /// Wall seconds for the whole search (thread-count dependent; never
    /// part of the fingerprint).
    pub wall_s: f64,
}

impl SearchReport {
    /// Fraction of the brute-force budget the search spent.
    pub fn budget_fraction(&self) -> f64 {
        self.epochs_spent as f64 / self.full_budget as f64
    }

    /// The winner's final-rung outcome.
    pub fn winner_outcome(&self) -> &RungOutcome {
        self.trials[self.winner as usize].final_outcome()
    }

    /// Sum of modelled joules across every rung of every trial (0 for a
    /// purely local search).
    pub fn modelled_joules(&self) -> f64 {
        self.trials
            .iter()
            .flat_map(|t| &t.rungs)
            .map(|o| o.modelled_joules)
            .sum()
    }

    /// Sum of modelled machine seconds across the search.
    pub fn modelled_time_s(&self) -> f64 {
        self.trials
            .iter()
            .flat_map(|t| &t.rungs)
            .map(|o| o.modelled_time_s)
            .sum()
    }

    /// Aggregate `(shard hits, shard misses)` across every trial — the
    /// shared-data-plane scorecard (one decode, many hits).
    pub fn datapipe_totals(&self) -> (u64, u64) {
        self.trials
            .iter()
            .flat_map(|t| &t.rungs)
            .fold((0, 0), |(h, m), o| (h + o.shard_hits, m + o.shard_misses))
    }

    /// Collapses every run-to-run-comparable fact of the search — trial
    /// configurations, per-rung objective bits and parameter hashes,
    /// promotion sequences, the winner, the epoch bill — into one FNV-1a
    /// value. Two searches are "the same search" iff fingerprints match;
    /// wall-clock fields are deliberately excluded.
    pub fn fingerprint(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for t in &self.trials {
            h = t.params.fold_into(h);
            for o in &t.rungs {
                h = fnv1a64_extend(h, &(o.epochs_end as u64).to_le_bytes());
                h = fnv1a64_extend(h, &o.objective.to_bits().to_le_bytes());
                h = fnv1a64_extend(h, &o.params_hash.to_le_bytes());
            }
        }
        for rung in &self.promotions {
            h = fnv1a64_extend(h, &(rung.len() as u64).to_le_bytes());
            for &id in rung {
                h = fnv1a64_extend(h, &id.to_le_bytes());
            }
        }
        h = fnv1a64_extend(h, &self.winner.to_le_bytes());
        fnv1a64_extend(h, &(self.epochs_spent as u64).to_le_bytes())
    }

    /// Surfaces the search's cost anatomy through the `candle` phase
    /// profiler: training vs evaluation-time checkpointing vs data-plane
    /// stalls vs modelled machine time, with per-phase call counts.
    pub fn phase_profile(&self) -> PhaseProfiler {
        let mut prof = PhaseProfiler::new();
        let outcomes: Vec<&RungOutcome> = self.trials.iter().flat_map(|t| &t.rungs).collect();
        let n = outcomes.len() as u64;
        let sum = |f: fn(&RungOutcome) -> f64| -> Duration {
            Duration::from_secs_f64(outcomes.iter().map(|o| f(o)).sum::<f64>().max(0.0))
        };
        prof.record_n("hpo_train", sum(|o| o.train_wall_s), n);
        prof.record_n("hpo_checkpoint", sum(|o| o.ckpt_wall_s), n);
        let waits: u64 = outcomes.iter().map(|o| o.stream_waits).sum();
        prof.record_n("hpo_stream_wait", sum(|o| o.stream_wait_s), waits.max(1));
        let modelled = sum(|o| o.modelled_time_s);
        if modelled > Duration::ZERO {
            prof.record_n("hpo_modelled_train", modelled, n);
        }
        prof
    }

    /// Renders the per-trial table plus the search summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:>5} {:>9} {:>6} {:>7} {:>8} {:>7} {:>10} {:>9} {:>5}/{:<5}\n",
            "trial",
            "lr",
            "batch",
            "hidden",
            "dropout",
            "epochs",
            "objective",
            "accuracy",
            "hit",
            "miss"
        ));
        for t in &self.trials {
            let last = t.final_outcome();
            let (hits, misses) = t
                .rungs
                .iter()
                .fold((0, 0), |(h, m), o| (h + o.shard_hits, m + o.shard_misses));
            out.push_str(&format!(
                "{:>5} {:>9.5} {:>6} {:>7} {:>8.3} {:>7} {:>10.5} {:>9.4} {:>5}/{:<5}{}\n",
                t.id,
                t.params.lr,
                t.params.batch,
                t.params.hidden,
                t.params.dropout,
                t.epochs(),
                last.objective,
                last.accuracy,
                hits,
                misses,
                if t.id == self.winner {
                    "  <- winner"
                } else {
                    ""
                },
            ));
        }
        out.push_str(&format!(
            "epochs spent: {} of {} full-budget ({:.0}%)\n",
            self.epochs_spent,
            self.full_budget,
            self.budget_fraction() * 100.0
        ));
        out.push_str("best-so-far: ");
        for (i, (epochs, best)) in self.best_curve.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("{best:.4}@{epochs}ep"));
        }
        out.push('\n');
        out
    }
}

/// Runs one complete deterministic ASHA search.
///
/// Errors from any trial abort the search with the lowest-id failure, so
/// even the error path is thread-count independent.
pub fn run_search(
    space: &SearchSpace,
    exec: Arc<dyn TrialExecutor>,
    config: &SearchConfig,
) -> Result<SearchReport, HpoError> {
    config.asha.validate();
    assert!(config.trials > 0, "search needs at least one trial");
    assert!(config.workers > 0, "search needs at least one worker");
    let root = SeedNode::root(config.seed);
    let params: Vec<TrialParams> = (0..config.trials as u64)
        .map(|id| space.sample(root, id))
        .collect();
    let mut records: Vec<TrialRecord> = params
        .iter()
        .enumerate()
        .map(|(i, &p)| TrialRecord {
            id: i as TrialId,
            params: p,
            rungs: Vec::new(),
        })
        .collect();

    let pool = WorkerPool::new(config.workers);
    let start = Instant::now();
    let mut entrants: Vec<TrialId> = (0..config.trials as TrialId).collect();
    let mut promotions = Vec::with_capacity(config.asha.rungs);
    let mut best_curve = Vec::with_capacity(config.asha.rungs);
    let mut best_so_far = f64::INFINITY;
    let mut epochs_spent = 0usize;
    let mut from = 0usize;
    for rung in 0..config.asha.rungs {
        let to = config.asha.rung_epochs(rung);
        promotions.push(entrants.clone());
        let (tx, rx) = std::sync::mpsc::channel();
        for &id in &entrants {
            let tx = tx.clone();
            let exec = Arc::clone(&exec);
            let p = params[id as usize];
            pool.submit(move || {
                let result = exec.run_rung(id, &p, from, to, rung);
                // A send failure means the search already aborted.
                let _ = tx.send((id, result));
            });
        }
        drop(tx);
        let mut results: Vec<(TrialId, Result<RungOutcome, HpoError>)> = rx.iter().collect();
        if results.len() != entrants.len() {
            return Err(HpoError::Train(format!(
                "rung {rung}: {} of {} trial workers returned (worker panic?)",
                results.len(),
                entrants.len()
            )));
        }
        results.sort_by_key(|(id, _)| *id);
        let mut ranked = Vec::with_capacity(results.len());
        for (id, result) in results {
            let outcome = result?;
            best_so_far = best_so_far.min(outcome.objective);
            ranked.push((id, outcome.objective));
            records[id as usize].rungs.push(outcome);
        }
        epochs_spent += ranked.len() * (to - from);
        best_curve.push((epochs_spent, best_so_far));
        let survivors = if rung + 1 < config.asha.rungs {
            config.asha.survivors(entrants.len())
        } else {
            1
        };
        entrants = promote(&ranked, survivors);
        from = to;
    }
    Ok(SearchReport {
        config: *config,
        winner: entrants[0],
        trials: records,
        promotions,
        best_curve,
        epochs_spent,
        full_budget: config.asha.full_budget(config.trials),
        wall_s: start.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ModelledExecutor;
    use cluster::{LoadMethod, Machine};
    use resil::TrialStore;

    fn tmp_dir(tag: &str) -> parx::Scratch {
        parx::scratch(&format!("hpo_search_{tag}")).expect("scratch dir")
    }

    fn modelled_exec(dir: &std::path::Path, seed: u64) -> Arc<ModelledExecutor> {
        let profile = candle::HyperParams::of(candle::BenchId::P1b1).workload();
        Arc::new(ModelledExecutor::new(
            profile,
            Machine::Summit,
            6,
            LoadMethod::ChunkedLowMemoryFalse,
            TrialStore::new(dir, 2).unwrap(),
            xrng::SeedNode::root(seed),
        ))
    }

    fn config(workers: usize) -> SearchConfig {
        SearchConfig {
            seed: 42,
            trials: 16,
            asha: AshaConfig {
                min_epochs: 1,
                reduction: 2,
                rungs: 4,
            },
            workers,
        }
    }

    #[test]
    fn search_is_worker_count_invariant() {
        let space = SearchSpace::default_local();
        let mut fingerprints = Vec::new();
        for workers in [1, 2, 4] {
            let dir = tmp_dir(&format!("inv{workers}"));
            let report = run_search(&space, modelled_exec(&dir, 42), &config(workers)).unwrap();
            fingerprints.push((report.fingerprint(), report.winner));
        }
        assert_eq!(fingerprints[0], fingerprints[1]);
        assert_eq!(fingerprints[0], fingerprints[2]);
    }

    #[test]
    fn search_spends_the_structural_budget() {
        let space = SearchSpace::default_local();
        let dir = tmp_dir("budget");
        let report = run_search(&space, modelled_exec(&dir, 42), &config(2)).unwrap();
        // 16 + 8 + 4*2 + 2*4 = 40 of 16*8 = 128.
        assert_eq!(report.epochs_spent, 40);
        assert_eq!(report.full_budget, 128);
        assert!(report.budget_fraction() < 0.5);
        // Rung populations: 16 -> 8 -> 4 -> 2.
        let sizes: Vec<usize> = report.promotions.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![16, 8, 4, 2]);
        // The winner survived every rung.
        assert_eq!(report.trials[report.winner as usize].rungs.len(), 4);
        assert_eq!(report.winner_outcome().epochs_end, 8);
    }

    #[test]
    fn best_curve_is_monotone_and_winner_is_final_best() {
        let space = SearchSpace::default_local();
        let dir = tmp_dir("curve");
        let report = run_search(&space, modelled_exec(&dir, 7), &config(2)).unwrap();
        for pair in report.best_curve.windows(2) {
            assert!(pair[0].0 < pair[1].0, "epochs must accumulate");
            assert!(pair[1].1 <= pair[0].1, "best objective can only improve");
        }
        // The winner is the best finisher of the final rung.
        let last_rung = report.promotions.last().unwrap();
        let best = last_rung
            .iter()
            .map(|&id| (id, report.trials[id as usize].final_outcome().objective))
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
            .unwrap()
            .0;
        assert_eq!(report.winner, best);
    }

    #[test]
    fn modelled_search_bills_time_and_joules() {
        let space = SearchSpace::default_local();
        let dir = tmp_dir("joules");
        let report = run_search(&space, modelled_exec(&dir, 42), &config(2)).unwrap();
        assert!(report.modelled_joules() > 0.0);
        assert!(report.modelled_time_s() > 0.0);
        let rendered = report.render();
        assert!(rendered.contains("<- winner"));
        let profile = report.phase_profile().report();
        assert!(profile.contains("hpo_modelled_train"));
    }

    #[test]
    fn different_seeds_give_different_searches() {
        let space = SearchSpace::default_local();
        let dir_a = tmp_dir("seed_a");
        let dir_b = tmp_dir("seed_b");
        let a = run_search(&space, modelled_exec(&dir_a, 42), &config(2)).unwrap();
        let mut cfg = config(2);
        cfg.seed = 43;
        let b = run_search(&space, modelled_exec(&dir_b, 43), &cfg).unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
