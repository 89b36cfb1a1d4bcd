//! The repo's benchmark: one command from CSV bytes to trained weights to
//! served predictions, on four fixed workloads. See `README.md`.
//!
//! ```text
//! candle-benchmark --workload <name> [--seed 7] [--seconds 12] [--trace 0|1]
//! candle-benchmark --all [--seed 7] [--seconds 12]
//! candle-benchmark --repeat 2 [--runs 1] [--seed 7] [--seconds 12]
//! ```
//!
//! The first form is the driver's contract: the last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. `--all` and `--repeat` run every workload in a process of its
//! own (peak memory and CPU time are per workload) through the first form.

mod json;
mod layers;
mod loadgen;
mod runner;
mod scratch;
mod stats;
mod trace;
mod workloads;

use json::Value;
use runner::{Metric, Options, Report, END_TO_END};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: candle-benchmark (--workload <name> [--trace 0|1] | --all | --repeat <sets> [--runs <n>]) \
                     [--seed <n>] [--seconds <n>] [--scratch-dir <dir>]";

/// The parsed command line.
struct Cli {
    workload: Option<String>,
    all: bool,
    repeat: Option<usize>,
    runs: usize,
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch_dir: Option<PathBuf>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        all: false,
        repeat: None,
        runs: 1,
        seed: 7,
        seconds: 12.0,
        trace: false,
        scratch_dir: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--all" => cli.all = true,
            "--workload" => cli.workload = Some(value()?.clone()),
            "--scratch-dir" => cli.scratch_dir = Some(PathBuf::from(value()?)),
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--runs" => cli.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?,
            "--repeat" => {
                cli.repeat = Some(value()?.parse().map_err(|e| format!("--repeat: {e}"))?)
            }
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let modes = usize::from(cli.all)
        + usize::from(cli.workload.is_some())
        + usize::from(cli.repeat.is_some());
    if modes != 1 {
        return Err("give exactly one of --workload, --all, --repeat".into());
    }
    if cli.runs == 0 || cli.repeat == Some(0) {
        return Err("--runs and --repeat must be positive".into());
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if let Some(name) = &cli.workload {
        run_one(&cli, name)
    } else if let Some(sets) = cli.repeat {
        run_repeat(&cli, sets)
    } else {
        run_all(&cli)
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("candle-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------
// One workload in this process (the driver's contract)
// ---------------------------------------------------------------------

fn run_one(cli: &Cli, name: &str) -> Result<(), String> {
    let workload = workloads::find(name).ok_or_else(|| {
        let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; known: {}", names.join(", "))
    })?;
    let options = Options {
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        scratch_root: scratch_root(cli),
    };
    let report = runner::run(workload, &options)?;
    print_report(&report);
    println!("{}", own_line(&report).to_json());
    println!("{}", result_line(&report).to_json());
    Ok(())
}

/// Where scratch directories are created: `--scratch-dir`, else inside the
/// checkout.
fn scratch_root(cli: &Cli) -> PathBuf {
    cli.scratch_dir
        .clone()
        .unwrap_or_else(|| scratch::out_dir().join("scratch"))
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    if metrics.is_empty() {
        return;
    }
    println!("  {title}");
    for m in metrics {
        println!(
            "    {:<28} {:>16.6} {:<8} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
}

fn print_report(r: &Report) {
    println!(
        "workload {}  seed {}  trace {}  scratch_fs {}  threads {}",
        r.workload,
        r.seed,
        u8::from(r.trace),
        r.scratch_fs,
        threads()
    );
    let (gated, extra) = if r.trace {
        ("per-layer (traced pass)", "self time per span name")
    } else {
        (
            "end-to-end (gated by BENCHMARK.json)",
            "end-to-end (this workload's own, not gated)",
        )
    };
    print_metrics(gated, &r.gated);
    print_metrics(extra, &r.extra);
    println!("  ops_attempted {}  ops_failed {}", r.attempted, r.failed);
    for (name, values) in &r.samples {
        let shown: Vec<String> = values.iter().map(|v| format!("{v:.3}")).collect();
        println!("  samples {name}: {}", shown.join(" "));
    }
    for c in &r.checks {
        println!("  ok: {c}");
    }
    for w in &r.warnings {
        println!("  warning: {w}");
    }
    if let Some(path) = &r.trace_file {
        println!("  chrome trace: {}", path.display());
    }
}

fn metrics_value(metrics: &[Metric]) -> Value {
    Value::obj(metrics.iter().map(|m| {
        (
            m.name.clone(),
            Value::obj([("value", Value::Num(m.value)), ("unit", Value::str(m.unit))]),
        )
    }))
}

/// Second-to-last line: what the result line has no key for — the
/// workload's own metrics (or the self times of a traced run), the checks
/// that passed and the warnings. `--all` stores it beside the result.
fn own_line(r: &Report) -> Value {
    let strings = |items: &[String]| Value::Arr(items.iter().map(Value::str).collect());
    Value::obj([
        ("own_metrics", metrics_value(&r.extra)),
        ("checks", strings(&r.checks)),
        ("warnings", strings(&r.warnings)),
    ])
}

/// The contract's result object, plus nothing: the driver wants exactly
/// these four keys.
fn result_line(r: &Report) -> Value {
    Value::obj([
        ("correct", Value::Bool(true)),
        ("attempted", Value::Num(r.attempted as f64)),
        ("failed", Value::Num(r.failed as f64)),
        ("metrics", metrics_value(&r.gated)),
    ])
}

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

// ---------------------------------------------------------------------
// Every workload, each in a process of its own
// ---------------------------------------------------------------------

/// What a child run printed: its table and its two parsed JSON lines.
struct Child {
    table: String,
    own: Value,
    result: Value,
}

fn spawn(cli: &Cli, workload: &str, seed: u64, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if let Some(dir) = &cli.scratch_dir {
        cmd.arg("--scratch-dir").arg(dir);
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    if !out.status.success() {
        return Err(format!(
            "{workload} (seed {seed}, trace {}) failed: {}\n{stdout}",
            u8::from(trace),
            out.status
        ));
    }
    let no_line = || format!("{workload}: no result line");
    let (rest, last) = stdout.trim_end().rsplit_once('\n').ok_or_else(no_line)?;
    let (table, own) = rest.rsplit_once('\n').ok_or_else(no_line)?;
    let (own, result) = (json::parse(own)?, json::parse(last)?);
    if result.get("correct").and_then(Value::as_bool) != Some(true) {
        return Err(format!("{workload}: result line is not correct: {last}"));
    }
    Ok(Child {
        table: table.to_string(),
        own,
        result,
    })
}

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(scratch::bench_dir())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn run_all(cli: &Cli) -> Result<(), String> {
    let mut per_workload = Vec::new();
    for w in &workloads::ALL {
        let timed = spawn(cli, w.name, cli.seed, false)?;
        println!("{}", timed.table);
        let traced = spawn(cli, w.name, cli.seed, true)?;
        println!("{}", traced.table);
        per_workload.push((
            w.name,
            Value::obj([
                ("why", Value::str(w.why)),
                ("timed", timed.result),
                ("timed_own", timed.own),
                ("traced", traced.result),
                ("traced_own", traced.own),
            ]),
        ));
    }
    let out = scratch::out_dir();
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
    let doc = Value::obj([
        ("schema", Value::str("candle-benchmark-v1")),
        ("commit", Value::str(git_commit())),
        ("seed", Value::Num(cli.seed as f64)),
        ("seconds", Value::Num(cli.seconds)),
        ("os", Value::str(std::env::consts::OS)),
        ("arch", Value::str(std::env::consts::ARCH)),
        ("nproc", Value::Num(threads() as f64)),
        (
            "scratch_fs",
            Value::str(scratch::scratch_fs(&scratch_root(cli))),
        ),
        ("workloads", Value::obj(per_workload)),
    ]);
    let path = out.join(format!("results-seed{}.json", cli.seed));
    std::fs::write(&path, doc.to_json_pretty()).map_err(|e| e.to_string())?;
    println!("results: {}", path.display());
    Ok(())
}

/// One set: `--runs` timed runs of every workload (seeds `seed`, `seed+1`,
/// ...). Returns `[workload][metric]` → one value per run.
fn run_set(cli: &Cli, set: usize) -> Result<Vec<Vec<Vec<f64>>>, String> {
    let mut values = vec![vec![Vec::new(); END_TO_END.len()]; workloads::ALL.len()];
    for (w, per_metric) in workloads::ALL.iter().zip(&mut values) {
        for run in 0..cli.runs {
            let child = spawn(cli, w.name, cli.seed + run as u64, false)?;
            for ((name, _, _, _), runs) in END_TO_END.iter().zip(per_metric.iter_mut()) {
                let v = child
                    .result
                    .get("metrics")
                    .and_then(|m| m.get(name))
                    .and_then(|m| m.get("value"))
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("{}: no {name} in the result line", w.name))?;
                runs.push(v);
            }
            eprintln!("set {set} {} run {} done", w.name, run + 1);
        }
    }
    Ok(values)
}

/// The driver's acceptance protocol, runnable by hand: `sets` sets of `runs`
/// timed runs per workload (seeds `seed`, `seed+1`, ...). Fails when a
/// metric's quartile spread within a set exceeds its bound (`setup_s`
/// excepted, and only with at least two runs), or when a later set's median
/// is worse than the first set's by more than the bound.
fn run_repeat(cli: &Cli, sets: usize) -> Result<(), String> {
    let sets = (1..=sets)
        .map(|set| run_set(cli, set))
        .collect::<Result<Vec<_>, _>>()?;
    let mut violations = Vec::new();
    println!(
        "{:<14} {:<10} {:>12} {:>8} {:>12} {:>8} {:>9} {:>6}",
        "workload", "metric", "median A", "spread", "median B", "spread", "B vs A", "bound"
    );
    for (wi, w) in workloads::ALL.iter().enumerate() {
        for (mi, (name, _, better, bound)) in END_TO_END.iter().enumerate() {
            let medians: Vec<f64> = sets.iter().map(|s| stats::median(&s[wi][mi])).collect();
            let spreads: Vec<Option<f64>> =
                sets.iter().map(|s| stats::spread(&s[wi][mi])).collect();
            let last = sets.len() - 1;
            // Positive when the last set is worse than the first.
            let worse = match *better {
                "lower" => medians[last] / medians[0] - 1.0,
                _ => 1.0 - medians[last] / medians[0],
            };
            let show = |s: Option<f64>| s.map_or("-".to_string(), |s| format!("{s:.4}"));
            println!(
                "{:<14} {:<10} {:>12.6} {:>8} {:>12.6} {:>8} {:>+9.4} {:>6}",
                w.name,
                name,
                medians[0],
                show(spreads[0]),
                medians[last],
                show(spreads[last]),
                worse,
                bound
            );
            if worse > *bound {
                violations.push(format!(
                    "{} {name}: last set worse than the first by {worse:.4} > {bound}",
                    w.name
                ));
            }
            for (set, spread) in spreads.iter().enumerate() {
                if let (Some(s), true) = (spread, *name != "setup_s") {
                    if s > bound {
                        violations.push(format!(
                            "{} {name}: spread {s:.4} of set {} > {bound}",
                            w.name,
                            set + 1
                        ));
                    }
                }
            }
        }
    }
    if violations.is_empty() {
        println!("repeatability: every metric within its bound");
        Ok(())
    } else {
        Err(format!(
            "repeatability violated:\n  {}",
            violations.join("\n  ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let cli = parse_cli(&args(
            "--workload cold_wide --seed 11 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(cli.workload.as_deref(), Some("cold_wide"));
        assert_eq!((cli.seed, cli.seconds, cli.trace), (11, 10.0, true));
        let cli = parse_cli(&args("--all")).unwrap();
        assert_eq!(
            (cli.seed, cli.seconds, cli.trace, cli.runs),
            (7, 12.0, false, 1)
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--all --workload x",
            "--workload",
            "--workload x --trace 2",
            "--workload x --seconds 0",
            "--workload x --seconds 61",
            "--workload x --seed -1",
            "--repeat 0",
            "--all --frobnicate",
        ] {
            assert!(parse_cli(&args(bad)).is_err(), "{bad:?} must be rejected");
        }
    }

    /// The result line has exactly the contract's keys and survives the
    /// parser `--all` reads it back with.
    #[test]
    fn result_line_round_trips() {
        let report = Report {
            workload: "cold_wide",
            seed: 7,
            trace: false,
            attempted: 8,
            failed: 0,
            gated: vec![
                Metric {
                    name: "run_s".into(),
                    unit: "s",
                    value: 1.8876543219,
                    samples: 8,
                },
                Metric {
                    name: "setup_s".into(),
                    unit: "s",
                    value: 4.25,
                    samples: 3,
                },
            ],
            extra: Vec::new(),
            checks: Vec::new(),
            warnings: Vec::new(),
            samples: Vec::new(),
            scratch_fs: "disk",
            trace_file: None,
        };
        let line = result_line(&report).to_json();
        assert!(!line.contains('\n'));
        let back = json::parse(&line).unwrap();
        let keys: Vec<&str> = back.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(back.get("attempted").and_then(Value::as_f64), Some(8.0));
        assert!(line.contains("\"attempted\":8,"), "{line}");
        let run_s = back.get("metrics").and_then(|m| m.get("run_s")).unwrap();
        assert_eq!(
            run_s.get("value").and_then(Value::as_f64),
            Some(1.8876543219)
        );
        assert_eq!(run_s.get("unit").and_then(Value::as_str), Some("s"));
    }
}
