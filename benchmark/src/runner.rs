//! Runs one workload: set-up, the timed pass (`--trace 0`) or the traced
//! pass (`--trace 1`), and every correctness check. A violated check or an
//! error from a product call is an `Err`: the process exits non-zero and
//! prints no result, never a shorter table.

use crate::layers::{self, Res};
use crate::loadgen::{self, StageResult};
use crate::scratch::{self, Scratch};
use crate::stats::{median, percentile};
use crate::trace::{self, Ctx, StepTotals, Tracer};
use crate::workloads::{serve as sv, Kind, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Fresh memory touched and freed before the first set-up.
const PRETOUCH_BYTES: usize = 1 << 30;
/// A timed pass never reports a median of fewer iterations than this.
const MIN_ITERATIONS: usize = 3;
/// Repetitions of each kernel and forward probe.
const PROBE_REPS: usize = 20;
/// Unattributed share of a `run_parallel` above which a warning is printed.
const GLUE_WARN_FRAC: f64 = 0.15;

/// `(name, unit, better, bound)` of every end-to-end metric, in the order of
/// `BENCHMARK.json` (a unit test holds the two together). Every workload
/// reports every one of them: the driver gates each pair.
pub const END_TO_END: [(&str, &str, &str, f64); 3] = [
    ("run_s", "s", "lower", 0.25),
    ("load_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
];

/// `(name, unit, better)` of every per-layer metric of the traced pass. A
/// layer a workload bypasses reports 0.
pub const PER_LAYER: [(&str, &str, &str); 41] = [
    ("dataio.read_s", "s", "lower"),
    ("dataio.read_mib_per_s", "MiB/s", "higher"),
    ("dataio.rows", "count", "higher"),
    ("datacache.build_s", "s", "lower"),
    ("datacache.shard_bytes", "B", "lower"),
    ("datacache.decode_s", "s", "lower"),
    ("candle.load_self_s", "s", "lower"),
    ("candle.glue_frac", "ratio", "lower"),
    ("datapipe.open_s", "s", "lower"),
    ("datapipe.stream_s", "s", "lower"),
    ("datapipe.batches", "count", "higher"),
    ("tensor.conv_fwd_ms", "ms", "lower"),
    ("tensor.conv_bwd_ms", "ms", "lower"),
    ("tensor.dense_gemm_gflops", "GFLOP/s", "higher"),
    ("dlframe.fwd_opt_s", "s", "lower"),
    ("dlframe.backward_s", "s", "lower"),
    ("dlframe.steps", "count", "higher"),
    ("dlframe.eval_s", "s", "lower"),
    ("collectives.sync_s", "s", "lower"),
    ("collectives.sync_calls", "count", "lower"),
    ("collectives.sync_bytes", "B", "lower"),
    ("collectives.sync_p50_us", "us", "lower"),
    ("collectives.sync_p99_us", "us", "lower"),
    ("collectives.broadcast_s", "s", "lower"),
    ("resil.ckpt_save_ms", "ms", "lower"),
    ("resil.ckpt_load_ms", "ms", "lower"),
    ("resil.ckpt_bytes", "B", "lower"),
    ("serve.enqueue_wait_p50_ms", "ms", "lower"),
    ("serve.mean_batch", "count", "higher"),
    ("serve.forward_ms_b1", "ms", "lower"),
    ("serve.forward_ms_b16", "ms", "lower"),
    ("serve.p99_ms_r500", "ms", "lower"),
    ("serve.p99_ms_r1500", "ms", "lower"),
    ("serve.slo_miss_50ms", "count", "lower"),
    ("serve.gen_late_p99_ms", "ms", "lower"),
    ("proc.cpu_s", "s", "lower"),
    ("proc.peak_rss_mib", "MiB", "lower"),
    ("energy.model_j", "J", "lower"),
    ("trace_overhead_frac", "ratio", "lower"),
    ("ref.run_s", "s", "lower"),
    ("ref.load_s", "s", "lower"),
];

/// How one run was asked for.
#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directories are created under this root.
    pub scratch_root: PathBuf,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples the value is the median (or count, or ratio) of.
    pub samples: usize,
}

fn metric(name: &str, unit: &'static str, value: f64, samples: usize) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
        samples,
    }
}

/// Everything one run measured and checked.
#[derive(Debug, Clone)]
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub trace: bool,
    /// Operations: timed iterations (training) or requests (serving).
    pub attempted: u64,
    pub failed: u64,
    /// The metrics the driver reads: every end-to-end metric with
    /// `--trace 0`, every per-layer metric with `--trace 1`.
    pub gated: Vec<Metric>,
    /// The workload's own end-to-end metrics, printed but not gated.
    pub extra: Vec<Metric>,
    /// Checks that passed (a failed check is an `Err`, not a report).
    pub checks: Vec<String>,
    pub warnings: Vec<String>,
    /// Raw per-iteration samples behind the medians, printed for diagnosis.
    pub samples: Vec<(&'static str, Vec<f64>)>,
    pub scratch_fs: &'static str,
    pub trace_file: Option<PathBuf>,
}

pub fn run(w: &'static Workload, opt: &Options) -> Res<Report> {
    std::fs::create_dir_all(&opt.scratch_root).map_err(|e| e.to_string())?;
    let mut report = Report {
        workload: w.name,
        seed: opt.seed,
        trace: opt.trace,
        attempted: 0,
        failed: 0,
        gated: Vec::new(),
        extra: Vec::new(),
        checks: Vec::new(),
        warnings: Vec::new(),
        samples: Vec::new(),
        scratch_fs: scratch::scratch_fs(&opt.scratch_root),
        trace_file: None,
    };
    if report.scratch_fs == "disk" {
        report.warnings.push(
            "scratch is on disk: shard write-back adds run-to-run noise to cold loads \
             (pass --scratch-dir on a tmpfs to remove it)"
                .into(),
        );
    }
    let touch = Instant::now();
    scratch::touch_and_free(PRETOUCH_BYTES);
    let touch_s = touch.elapsed().as_secs_f64();
    if !scratch::reset_peak_rss() {
        report
            .warnings
            .push("peak RSS includes the 1 GiB pre-touch (clear_refs not writable)".into());
    }
    match (w.kind, opt.trace) {
        (Kind::Serve, false) => serve_timed(w, opt, touch_s, &mut report)?,
        (Kind::Serve, true) => serve_traced(w, opt, &mut report)?,
        (_, false) => train_timed(w, opt, touch_s, &mut report)?,
        (_, true) => train_traced(w, opt, &mut report)?,
    }
    Ok(report)
}

fn check(report: &mut Report, ok: bool, what: impl Into<String>) -> Res<()> {
    let what = what.into();
    if ok {
        report.checks.push(what);
        Ok(())
    } else {
        Err(format!("check failed: {what}"))
    }
}

/// Runs `build` `reps` times (once for a traced run), dropping each
/// state before the next is built, and returns the last state with every
/// repetition's seconds.
fn repeat_setup<S>(reps: usize, mut build: impl FnMut() -> Res<S>) -> Res<(S, Vec<f64>)> {
    let mut seconds = Vec::with_capacity(reps);
    let mut state = None;
    for _ in 0..reps {
        drop(state.take());
        let start = Instant::now();
        state = Some(build()?);
        seconds.push(start.elapsed().as_secs_f64());
    }
    Ok((state.expect("at least one set-up repetition"), seconds))
}

fn gate_end_to_end(report: &mut Report, values: &[(&str, f64, usize)]) {
    for (name, unit, _, _) in END_TO_END {
        let &(_, value, samples) = values
            .iter()
            .find(|(n, _, _)| *n == name)
            .expect("every end-to-end metric is measured by every workload");
        report.gated.push(metric(name, unit, value, samples));
    }
}

// ---------------------------------------------------------------------
// Training workloads
// ---------------------------------------------------------------------

/// A training workload after set-up.
struct TrainState {
    /// Keeps the CSV, the caches and the service's shards alive.
    scratch: Scratch,
    /// Keeps the dataset service (and its warm pool) alive.
    _service: Option<layers::Service>,
    train: layers::Train,
    warm_up: Iteration,
}

/// One timed iteration: the data load, then the 2-worker run.
#[derive(Debug, Clone, Copy)]
struct Iteration {
    load_s: f64,
    train_s: f64,
    outcome: layers::RunOutcome,
}

impl Iteration {
    fn run_s(&self) -> f64 {
        self.load_s + self.train_s
    }
}

/// Everything before the first timed iteration: CSV export or service
/// build, then one untimed warm-up iteration.
fn train_setup(w: &Workload, opt: &Options) -> Res<TrainState> {
    let scratch = Scratch::new(&opt.scratch_root, w.name).map_err(|e| e.to_string())?;
    let base = layers::Train::new(&w.shape, opt.seed);
    let (train, service) = match w.kind {
        Kind::ColdCsv => {
            let csv = scratch.path().join("packed.csv");
            let train = base.with_csv_cache(&csv, &scratch.path().join("cache"));
            layers::candle_export_csv(&train, &csv)?;
            (train, None)
        }
        Kind::WarmService => {
            let service = layers::datapipe_service(&scratch.path().join("service"))?;
            let train = base.with_service(&service);
            if !layers::candle_service_load(&train)? {
                return Err("the first service load must build the dataset".into());
            }
            (train, Some(service))
        }
        Kind::Serve => unreachable!("serving has its own set-up"),
    };
    let warm_up = train_iteration(w, &train)?;
    Ok(TrainState {
        scratch,
        _service: service,
        train,
        warm_up,
    })
}

/// The workload's data load as the timed pass calls it: cold from the CSV
/// (the caller has deleted the shard cache) or warm from the service.
fn data_load(w: &Workload, train: &layers::Train) -> Res<()> {
    let cold_expected = w.kind == Kind::ColdCsv;
    let cold = if cold_expected {
        layers::candle_load(train)?
    } else {
        layers::candle_service_load(train)?
    };
    if cold == cold_expected {
        Ok(())
    } else {
        Err(format!(
            "check failed: the data load was {}",
            if cold {
                "cold, expected warm"
            } else {
                "warm, expected cold"
            }
        ))
    }
}

/// One iteration exactly as the timed pass runs it. The cold kind deletes
/// the shard cache first, so the load ingests the CSV again; the run that
/// follows must find the cache (or the service) warm.
fn train_iteration(w: &Workload, train: &layers::Train) -> Res<Iteration> {
    if w.kind == Kind::ColdCsv {
        layers::candle_clear_cache(train)?;
    }
    let start = Instant::now();
    data_load(w, train)?;
    let load_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let outcome = layers::candle_run_parallel(train)?;
    let train_s = start.elapsed().as_secs_f64();
    if !outcome.reload_warm {
        return Err("check failed: the data phase inside run_parallel was not warm".into());
    }
    Ok(Iteration {
        load_s,
        train_s,
        outcome,
    })
}

fn check_learning(w: &Workload, report: &mut Report, outcome: &layers::RunOutcome) -> Res<()> {
    check(
        report,
        outcome.train_loss.is_finite() && outcome.train_loss < w.loss_ceiling,
        format!("train_loss {} < {}", outcome.train_loss, w.loss_ceiling),
    )?;
    if let Some(floor) = w.min_accuracy {
        check(
            report,
            outcome.test_accuracy >= floor,
            format!("test_accuracy {} >= {floor}", outcome.test_accuracy),
        )?;
    }
    Ok(())
}

fn train_timed(w: &Workload, opt: &Options, touch_s: f64, report: &mut Report) -> Res<()> {
    let (state, setup_s) = repeat_setup(w.setup_reps, || train_setup(w, opt))?;
    let mut iterations = Vec::new();
    let start = Instant::now();
    while iterations.len() < MIN_ITERATIONS || start.elapsed().as_secs_f64() < opt.seconds {
        iterations.push(train_iteration(w, &state.train)?);
    }
    report.attempted = iterations.len() as u64;

    let reference = state.warm_up.outcome;
    check(
        report,
        iterations.iter().all(|i| i.outcome == reference),
        format!(
            "train_loss {} (bits {:#x}), test loss and accuracy identical across the warm-up and {} timed iterations",
            reference.train_loss,
            reference.train_loss.to_bits(),
            iterations.len()
        ),
    )?;
    check_learning(w, report, &reference)?;
    check(
        report,
        reference.allreduce_calls > 0,
        format!("{} allreduce calls per run", reference.allreduce_calls),
    )?;

    let column = |f: fn(&Iteration) -> f64| iterations.iter().map(f).collect::<Vec<f64>>();
    let n = iterations.len();
    let run_s = median(&column(Iteration::run_s));
    let train_s = median(&column(|i| i.train_s));
    gate_end_to_end(
        report,
        &[
            ("run_s", run_s, n),
            ("load_s", median(&column(|i| i.load_s)), n),
            ("setup_s", touch_s + median(&setup_s), setup_s.len()),
        ],
    );
    report.extra.push(metric("train_s", "s", train_s, n));
    report.extra.push(metric(
        "samples_per_s",
        "1/s",
        w.shape.samples_per_run() / run_s,
        n,
    ));
    report.samples.push(("load_s", column(|i| i.load_s)));
    report.samples.push(("train_s", column(|i| i.train_s)));
    report.samples.push(("setup_s", setup_s));
    if w.shape.sharded {
        // The plain single-worker baseline of the same task, once per run.
        let single = state.train.clone().with_workers(1);
        let start = Instant::now();
        let outcome = layers::candle_run_parallel(&single)?;
        let single_s = start.elapsed().as_secs_f64();
        report.attempted += 1;
        check(
            report,
            outcome.train_loss.is_finite() && outcome.train_loss < w.loss_ceiling,
            format!(
                "single-worker train_loss {} < {}",
                outcome.train_loss, w.loss_ceiling
            ),
        )?;
        report.extra.push(metric(
            "strong_eff",
            "ratio",
            single_s / (w.shape.workers as f64 * train_s),
            1,
        ));
    }
    Ok(())
}

fn train_traced(w: &Workload, opt: &Options, report: &mut Report) -> Res<()> {
    let (state, _) = repeat_setup(1, || train_setup(w, opt))?;
    let mut layer: BTreeMap<&str, f64> = BTreeMap::new();

    // The untraced iteration the traced one is compared against.
    let cpu_before = scratch::cpu_seconds();
    let reference = train_iteration(w, &state.train)?;
    let cpu_after = scratch::cpu_seconds();
    report.attempted = 2;
    check(
        report,
        reference.outcome == state.warm_up.outcome,
        "untraced iteration repeats the warm-up's losses bit for bit",
    )?;
    check_learning(w, report, &reference.outcome)?;

    // The traced iteration: the same load call under a span, then the
    // training stage rebuilt from public pieces.
    let tracer = Tracer::new();
    let iter = Ctx {
        parent: None,
        iter: 1,
        rank: 0,
    };
    let (traced, traced_s) = tracer.span_timed("iteration", iter, |ctx| -> Res<_> {
        let load_span = if w.kind == Kind::ColdCsv {
            layers::candle_clear_cache(&state.train)?;
            "candle.load"
        } else {
            "candle.service_load"
        };
        let (loaded, load_s) = tracer.span_timed(load_span, ctx, |_| data_load(w, &state.train));
        loaded?;
        Ok((load_s, layers::staged_train(&tracer, ctx, &state.train)?))
    });
    let (traced_load_s, staged) = traced?;
    check(
        report,
        staged.outcome == reference.outcome,
        format!(
            "staged train_loss equals the timed run's bit for bit ({:#x})",
            staged.outcome.train_loss.to_bits()
        ),
    )?;

    // Layer probes outside the iteration: the cold load stage by stage,
    // the datapipe read path, a checkpoint round trip, kernels.
    let probes = Ctx {
        parent: None,
        iter: 2,
        rank: 0,
    };
    match w.kind {
        Kind::ColdCsv => {
            let staged_load = layers::staged_cold_load(
                &tracer,
                probes,
                &state.train,
                &state.scratch.path().join("staged-cache"),
            )?;
            layer.insert("dataio.read_s", staged_load.read_s);
            layer.insert(
                "dataio.read_mib_per_s",
                staged_load.csv_bytes as f64 / (1 << 20) as f64 / staged_load.read_s,
            );
            layer.insert("dataio.rows", staged_load.rows as f64);
            layer.insert("datacache.build_s", staged_load.build_s);
            layer.insert("datacache.shard_bytes", staged_load.shard_bytes as f64);
            layer.insert("datacache.decode_s", staged_load.decode_s);
            let parts = staged_load.read_s + staged_load.build_s + staged_load.decode_s;
            layer.insert("candle.load_self_s", traced_load_s - parts);
        }
        _ => {
            let pipe = layers::datapipe_probe(&tracer, probes, &state.train)?;
            layer.insert("datapipe.open_s", pipe.open_s);
            layer.insert("datapipe.stream_s", pipe.stream_s);
            layer.insert("datapipe.batches", pipe.batches as f64);
        }
    }

    let ckpt_dir = state.scratch.path().join("ckpt");
    let hash = layers::resil_params_hash(&staged.model);
    let (ckpt_bytes, save_s) =
        layers::resil_ckpt_save(&tracer, probes, &ckpt_dir, &staged.model, 1)?;
    let (restored, restore_s) = layers::resil_ckpt_load(&tracer, probes, &ckpt_dir, &state.train)?;
    check(
        report,
        layers::resil_params_hash(&restored) == hash,
        format!("restored checkpoint has the trained parameters (hash {hash:#x})"),
    )?;
    layer.insert("resil.ckpt_save_ms", save_s * 1e3);
    layer.insert("resil.ckpt_load_ms", restore_s * 1e3);
    layer.insert("resil.ckpt_bytes", ckpt_bytes as f64);

    let pool = request_pool(opt.seed, w.shape.features);
    let served = restored.into_served();
    forward_probes(&mut layer, &served, &pool)?;
    kernel_probes(&mut layer, w)?;

    let steps = &staged.steps;
    step_metrics(&mut layer, steps, report);
    layer.insert("dlframe.eval_s", staged.eval_s);
    layer.insert("collectives.broadcast_s", staged.broadcast_s);
    let glue = (reference.train_s - staged.wall_s) / reference.train_s;
    layer.insert("candle.glue_frac", glue);
    if glue.abs() > GLUE_WARN_FRAC {
        report.warnings.push(format!(
            "candle.glue_frac {glue:.3}: the staged stage and run_parallel differ by more than {GLUE_WARN_FRAC}"
        ));
    }
    layer.insert("trace_overhead_frac", traced_s / reference.run_s() - 1.0);

    // Modelled, not measured: staged phase seconds of one worker device
    // priced by cluster's Summit power table, times the worker count.
    let watts = layers::cluster_summit_watts();
    let compute_s = steps.fwd_opt_s + steps.backward_s + staged.eval_s;
    let data_s = traced_load_s + staged.data_s;
    let idle_s = (traced_s - data_s - staged.broadcast_s - compute_s - steps.sync_s).max(0.0);
    layer.insert(
        "energy.model_j",
        w.shape.workers as f64
            * (watts.data_load * data_s
                + watts.broadcast * staged.broadcast_s
                + watts.compute * compute_s
                + watts.allreduce * steps.sync_s
                + watts.idle * idle_s),
    );
    if let (Some(a), Some(b)) = (cpu_before, cpu_after) {
        layer.insert("proc.cpu_s", b - a);
    }
    layer.insert("ref.run_s", reference.run_s());
    layer.insert("ref.load_s", reference.load_s);
    finish_traced(w, opt, report, layer, &tracer)
}

fn step_metrics(layer: &mut BTreeMap<&str, f64>, steps: &StepTotals, report: &mut Report) {
    layer.insert("dlframe.fwd_opt_s", steps.fwd_opt_s);
    layer.insert("dlframe.backward_s", steps.backward_s);
    layer.insert("dlframe.steps", steps.steps as f64);
    layer.insert("collectives.sync_s", steps.sync_s);
    layer.insert("collectives.sync_calls", steps.sync_us.len() as f64);
    layer.insert("collectives.sync_bytes", steps.sync_bytes as f64);
    layer.insert("collectives.sync_p50_us", median(&steps.sync_us));
    match percentile(&steps.sync_us, 0.99) {
        Some(p99) => {
            layer.insert("collectives.sync_p99_us", p99);
        }
        None => report.warnings.push(format!(
            "collectives.sync_p99_us refused: {} sync calls leave fewer than ten beyond p99",
            steps.sync_us.len()
        )),
    }
}

fn forward_probes(
    layer: &mut BTreeMap<&str, f64>,
    model: &layers::Served,
    pool: &layers::Pool,
) -> Res<()> {
    layer.insert(
        "serve.forward_ms_b1",
        layers::serve_forward_ms(model, pool, 1, PROBE_REPS)?,
    );
    layer.insert(
        "serve.forward_ms_b16",
        layers::serve_forward_ms(model, pool, sv::MAX_BATCH, PROBE_REPS)?,
    );
    Ok(())
}

fn kernel_probes(layer: &mut BTreeMap<&str, f64>, w: &Workload) -> Res<()> {
    if let Some((fwd, bwd)) = layers::tensor_conv_probe(&w.shape, PROBE_REPS)? {
        layer.insert("tensor.conv_fwd_ms", fwd);
        layer.insert("tensor.conv_bwd_ms", bwd);
    }
    layer.insert(
        "tensor.dense_gemm_gflops",
        layers::tensor_gemm_probe(&w.shape, PROBE_REPS)?,
    );
    Ok(())
}

/// Writes the Chrome trace, fills in the process counters and turns the
/// per-layer map into the gated list (0 for a layer the workload bypasses).
fn finish_traced(
    w: &Workload,
    opt: &Options,
    report: &mut Report,
    mut layer: BTreeMap<&str, f64>,
    tracer: &Tracer,
) -> Res<()> {
    if let Some(rss) = scratch::peak_rss_mib() {
        layer.insert("proc.peak_rss_mib", rss);
    }
    let spans = tracer.spans();
    let out = scratch::out_dir();
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
    let path = out.join(format!("trace-{}-seed{}.json", w.name, opt.seed));
    std::fs::write(&path, trace::chrome_trace(&spans).to_json_pretty())
        .map_err(|e| e.to_string())?;
    report.trace_file = Some(path);
    for (name, secs) in trace::self_seconds_by_name(&spans) {
        report
            .extra
            .push(metric(&format!("self.{name}"), "s", secs, 1));
    }
    for (name, unit, _) in PER_LAYER {
        let value = layer.remove(name).unwrap_or(0.0);
        report.gated.push(metric(name, unit, value, 1));
    }
    assert!(
        layer.is_empty(),
        "per-layer metrics missing from PER_LAYER: {layer:?}"
    );
    Ok(())
}

// ---------------------------------------------------------------------
// serve_mixed
// ---------------------------------------------------------------------

/// Request rows generated from the seed alone (uniform in `[-1, 1)`).
fn request_pool(seed: u64, features: usize) -> layers::Pool {
    let mut rng = loadgen::Rng::new(seed ^ 0x5EED_F00D);
    Arc::new(
        (0..sv::POOL_ROWS)
            .map(|_| {
                (0..features)
                    .map(|_| (rng.next_f64() * 2.0 - 1.0) as f32)
                    .collect()
            })
            .collect(),
    )
}

/// The serving workload after set-up.
struct ServeState {
    /// Keeps the checkpoint directory alive.
    _scratch: Scratch,
    ckpt_dir: PathBuf,
    train: layers::Train,
    model: layers::Served,
    pool: layers::Pool,
    engine: layers::Engine,
    train_loss: f64,
    steps: StepTotals,
    ckpt: (u64, f64, f64),
}

/// Train one epoch → RCP1 save → restore → engine start → request pool →
/// a short closed-loop burst to warm the engine's buffers.
fn serve_setup(w: &Workload, opt: &Options, tracer: &Tracer) -> Res<ServeState> {
    let ctx = Ctx::default();
    let scratch = Scratch::new(&opt.scratch_root, w.name).map_err(|e| e.to_string())?;
    let train = layers::Train::new(&w.shape, opt.seed);
    let (trained, train_loss, steps) = layers::dlframe_train_single(tracer, ctx, &train)?;
    let hash = layers::resil_params_hash(&trained);
    let ckpt_dir = scratch.path().join("ckpt");
    let (ckpt_bytes, save_s) =
        layers::resil_ckpt_save(tracer, ctx, &ckpt_dir, &trained, w.shape.epochs as u64)?;
    drop(trained);
    let (restored, restore_s) = layers::resil_ckpt_load(tracer, ctx, &ckpt_dir, &train)?;
    if layers::resil_params_hash(&restored) != hash {
        return Err("check failed: restored parameters differ from the trained ones".into());
    }
    let model = restored.into_served();
    let pool = request_pool(opt.seed, w.shape.features);
    let engine = tracer.span("serve.start", ctx, |_| layers::serve_start(&model, &pool));
    let warm = loadgen::closed_loop(
        &engine,
        opt.seed,
        512,
        sv::CLOSED_OUTSTANDING,
        sv::POOL_ROWS,
    );
    if warm.failed > 0 {
        return Err(format!("warm-up burst failed: {:?}", warm.first_error));
    }
    Ok(ServeState {
        _scratch: scratch,
        ckpt_dir,
        train,
        model,
        pool,
        engine,
        train_loss,
        steps,
        ckpt: (ckpt_bytes, save_s, restore_s),
    })
}

/// The three stages on one engine.
struct Stages {
    open: [StageResult; 2],
    /// Every closed-loop burst, merged.
    closed: StageResult,
    burst_wall_s: Vec<f64>,
}

fn serve_stages(state: &ServeState, seed: u64, open_stage_s: f64) -> Stages {
    // The closed loop goes first, straight after the CPU-heavy set-up: the
    // reference host runs a vCPU faster for a few seconds after it has been
    // mostly idle, and bursts that follow the light open-loop stages were
    // measured up to 1.8x faster than the steady state they then settle to.
    let mut closed = StageResult::default();
    let mut burst_wall_s = Vec::with_capacity(sv::BURSTS);
    for burst in 0..sv::BURSTS {
        let result = loadgen::closed_loop(
            &state.engine,
            seed.wrapping_add(0xC10 + burst as u64),
            sv::BURST_REQUESTS,
            sv::CLOSED_OUTSTANDING,
            sv::POOL_ROWS,
        );
        burst_wall_s.push(result.wall_s);
        if burst == 0 {
            closed = result;
        } else {
            closed.absorb_stage(result);
        }
    }
    let open = [0, 1].map(|i| {
        let schedule = loadgen::poisson_schedule(
            seed.wrapping_add(0xA11 + i as u64),
            sv::RATES_RPS[i],
            open_stage_s,
            sv::POOL_ROWS,
        );
        loadgen::open_loop(&state.engine, &schedule)
    });
    Stages {
        open,
        closed,
        burst_wall_s,
    }
}

/// Failure accounting and the output check of every stage: the first
/// replies must equal `Sequential::predict` on the same rows bit for bit.
fn check_stages(state: &ServeState, stages: &Stages, report: &mut Report) -> Res<()> {
    let named = [
        ("r500", &stages.open[0]),
        ("r1500", &stages.open[1]),
        ("closed", &stages.closed),
    ];
    for (name, stage) in named {
        report.attempted += stage.attempted;
        report.failed += stage.failed;
        if let Some(e) = &stage.first_error {
            report.warnings.push(format!(
                "stage {name}: {} requests failed, first: {e}",
                stage.failed
            ));
        }
        check(
            report,
            stage.completed() + stage.failed == stage.attempted && stage.completed() > 0,
            format!(
                "stage {name}: {} of {} requests answered",
                stage.completed(),
                stage.attempted
            ),
        )?;
        let rows: Vec<usize> = stage.outputs.iter().map(|(row, _)| *row).collect();
        let expected = layers::serve_predict(&state.model, &state.pool, &rows)?;
        let equal = stage.outputs.iter().zip(&expected).all(|((_, got), want)| {
            got.iter()
                .map(|v| v.to_bits())
                .eq(want.iter().map(|v| v.to_bits()))
        });
        check(
            report,
            equal && rows.len() == loadgen::CHECKED_REPLIES.min(stage.completed() as usize),
            format!(
                "stage {name}: first {} replies bit-equal Sequential::predict",
                rows.len()
            ),
        )?;
    }
    Ok(())
}

fn stage_percentile(stage: &StageResult, p: f64, what: &str) -> Res<f64> {
    percentile(&stage.latency_ms, p).ok_or_else(|| {
        format!(
            "{what}: {} replies leave fewer than ten beyond the percentile",
            stage.latency_ms.len()
        )
    })
}

fn serve_timed(w: &Workload, opt: &Options, touch_s: f64, report: &mut Report) -> Res<()> {
    let tracer = Tracer::new();
    let (state, setup_s) = repeat_setup(w.setup_reps, || serve_setup(w, opt, &tracer))?;
    check(
        report,
        state.train_loss.is_finite() && state.train_loss < w.loss_ceiling,
        format!(
            "served model's train_loss {} < {}",
            state.train_loss, w.loss_ceiling
        ),
    )?;

    let stages = serve_stages(&state, opt.seed, opt.seconds * sv::OPEN_STAGE_SHARE);
    check_stages(&state, &stages, report)?;
    let mut deploy_s = Vec::with_capacity(sv::DEPLOY_REPS);
    for _ in 0..sv::DEPLOY_REPS {
        deploy_s.push(layers::serve_deploy(
            &state.ckpt_dir,
            &state.train,
            &state.pool,
        )?);
    }

    // A request is this workload's unit of work: its time to solution is
    // the due-time→reply latency under the mid load. (The closed loop's
    // throughput is printed below but not gated: on a 2-core host it is
    // bimodal, see README.)
    let mid = &stages.open[1];
    let burst_s = median(&stages.burst_wall_s);
    gate_end_to_end(
        report,
        &[
            ("run_s", median(&mid.latency_ms) / 1e3, mid.latency_ms.len()),
            ("load_s", median(&deploy_s), deploy_s.len()),
            ("setup_s", touch_s + median(&setup_s), setup_s.len()),
        ],
    );
    for (rate, stage) in ["r500", "r1500"].iter().zip(&stages.open) {
        let n = stage.latency_ms.len();
        report.extra.push(metric(
            &format!("lat_p50_ms_{rate}"),
            "ms",
            median(&stage.latency_ms),
            n,
        ));
        report.extra.push(metric(
            &format!("lat_p90_ms_{rate}"),
            "ms",
            stage_percentile(stage, 0.9, rate)?,
            n,
        ));
    }
    report.extra.push(metric(
        "closed_rps",
        "1/s",
        sv::BURST_REQUESTS as f64 / burst_s,
        stages.burst_wall_s.len(),
    ));
    report
        .samples
        .push(("burst_s", stages.burst_wall_s.clone()));
    report.samples.push(("setup_s", setup_s.clone()));
    // Requests the engine refused or failed are counted in `ops_failed`,
    // not hidden and not fatal: the outputs it did give were checked above.
    let ServeState { engine, .. } = state;
    let (completed, shed) = layers::serve_shutdown(engine);
    check(
        report,
        shed <= report.failed,
        format!("engine answered {completed} requests and shed {shed}"),
    )
}

fn serve_traced(w: &Workload, opt: &Options, report: &mut Report) -> Res<()> {
    let tracer = Tracer::new();
    let (state, _) = repeat_setup(1, || serve_setup(w, opt, &tracer))?;
    let mut layer: BTreeMap<&str, f64> = BTreeMap::new();
    let iter = Ctx {
        parent: None,
        iter: 1,
        rank: 0,
    };
    let cpu_before = scratch::cpu_seconds();
    let (deploy_s, stages) = tracer.span("iteration", iter, |ctx| -> Res<_> {
        let deploy_s = tracer.span("serve.deploy", ctx, |_| {
            layers::serve_deploy(&state.ckpt_dir, &state.train, &state.pool)
        })?;
        // The stages of the timed pass, shortened; the spans mark the stage
        // boundaries and the per-request numbers come from reply fields.
        let open_stage_s = (opt.seconds * sv::OPEN_STAGE_SHARE).min(3.0);
        let stages = tracer.span("serve.stages", ctx, |_| {
            serve_stages(&state, opt.seed, open_stage_s)
        });
        Ok((deploy_s, stages))
    })?;
    let cpu_after = scratch::cpu_seconds();
    check_stages(&state, &stages, report)?;

    let all = [&stages.open[0], &stages.open[1], &stages.closed];
    // Light load is where the batcher's hold shows; the closed loop is
    // where batches fill.
    layer.insert(
        "serve.enqueue_wait_p50_ms",
        median(&stages.open[0].enqueue_wait_ms),
    );
    layer.insert(
        "serve.mean_batch",
        stages.closed.batch_sum as f64 / stages.closed.completed() as f64,
    );
    layer.insert(
        "serve.p99_ms_r500",
        stage_percentile(&stages.open[0], 0.99, "r500 p99")?,
    );
    layer.insert(
        "serve.p99_ms_r1500",
        stage_percentile(&stages.open[1], 0.99, "r1500 p99")?,
    );
    layer.insert(
        "serve.slo_miss_50ms",
        all.iter()
            .map(|s| s.failed as usize + s.latency_ms.iter().filter(|&&ms| ms > sv::SLO_MS).count())
            .sum::<usize>() as f64,
    );
    let late: Vec<f64> = stages
        .open
        .iter()
        .flat_map(|s| s.late_ms.iter().copied())
        .collect();
    layer.insert(
        "serve.gen_late_p99_ms",
        percentile(&late, 0.99).ok_or("too few open-loop requests for the generator's p99")?,
    );
    forward_probes(&mut layer, &state.model, &state.pool)?;
    kernel_probes(&mut layer, w)?;
    step_metrics(&mut layer, &state.steps, report);
    let (ckpt_bytes, save_s, restore_s) = state.ckpt;
    layer.insert("resil.ckpt_save_ms", save_s * 1e3);
    layer.insert("resil.ckpt_load_ms", restore_s * 1e3);
    layer.insert("resil.ckpt_bytes", ckpt_bytes as f64);

    // Modelled: one device computing for every request's share of its
    // batch's forward pass, idle for the rest of the stages' wall time.
    let watts = layers::cluster_summit_watts();
    let wall_s: f64 = all.iter().map(|s| s.wall_s).sum();
    let busy_s: f64 = all.iter().map(|s| s.busy_share_s).sum();
    layer.insert(
        "energy.model_j",
        watts.compute * busy_s + watts.idle * (wall_s - busy_s).max(0.0),
    );
    if let (Some(a), Some(b)) = (cpu_before, cpu_after) {
        layer.insert("proc.cpu_s", b - a);
    }
    layer.insert("ref.run_s", median(&stages.open[1].latency_ms) / 1e3);
    layer.insert("ref.load_s", deploy_s);
    // Serving is traced from the reply fields the timed pass reads too: the
    // traced pass does no work the timed pass does not.
    layer.insert("trace_overhead_frac", 0.0);
    finish_traced(w, opt, report, layer, &tracer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    /// `BENCHMARK.json` is what the driver reads; the tables above are what
    /// the program emits. They must name the same metrics and workloads.
    #[test]
    fn benchmark_json_matches_the_emitted_tables() {
        let path = scratch::bench_dir().join("../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let list = |key: &str| match doc.get(key) {
            Some(Value::Arr(items)) => items.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let field = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).unwrap().to_string();

        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (item, (name, unit, better, bound)) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(item, "name"), name);
            assert_eq!(field(item, "unit"), unit);
            assert_eq!(field(item, "better"), better);
            assert_eq!(item.get("bound").and_then(Value::as_f64), Some(bound));
            assert!(bound <= 0.25);
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (item, (name, unit, better)) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(item, "name"), name);
            assert_eq!(field(item, "unit"), unit);
            assert_eq!(field(item, "better"), better);
        }
        let workloads = list("workloads");
        assert_eq!(workloads.len(), crate::workloads::ALL.len());
        for (item, w) in workloads.iter().zip(&crate::workloads::ALL) {
            assert_eq!(field(item, "name"), w.name);
            assert_eq!(field(item, "why"), w.why);
        }
        assert_eq!(list("paths"), vec![Value::str("benchmark")]);
    }

    #[test]
    fn request_pool_depends_on_the_seed_alone() {
        let a = request_pool(7, 12);
        assert_eq!(a, request_pool(7, 12));
        assert_ne!(a, request_pool(8, 12));
        assert_eq!(a.len(), sv::POOL_ROWS);
        assert!(a.iter().flatten().all(|v| (-1.0..1.0).contains(v)));
    }

    #[test]
    fn setup_repetitions_drop_the_previous_state_first() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static LIVE: AtomicUsize = AtomicUsize::new(0);
        struct Guard;
        impl Drop for Guard {
            fn drop(&mut self) {
                LIVE.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let (_last, seconds) = repeat_setup(3, || {
            assert_eq!(
                LIVE.fetch_add(1, Ordering::SeqCst),
                0,
                "previous state still alive"
            );
            Ok(Guard)
        })
        .unwrap();
        assert_eq!(seconds.len(), 3);
        assert!(repeat_setup(2, || Err::<(), _>("boom".to_string())).is_err());
    }
}
