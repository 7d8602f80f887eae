//! The repo benchmark: four fixed-work workloads on the real Hermes
//! runtime. See `benchmark/README.md`; run through `benchmark/run.sh`.
//!
//! ```text
//! hermes-benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--results DIR]
//! hermes-benchmark pass <e2e|traced|reference|layers> --workload W ...   (one pass, one process)
//! hermes-benchmark verdict <set1-dir> <set2-dir>                          (used by repeat.sh)
//! hermes-benchmark manifest                                               (prints BENCHMARK.json)
//! ```

mod backends;
mod handoff;
mod layers;
mod metrics;
mod passes;
mod place;
mod report;
mod service;
mod stats;
mod surface;
mod trace;
mod workload;

use metrics::{end_to_end, per_layer, MetricDef, RUN_SECONDS};
use passes::{Pass, PassArgs};
use report::{result_file, result_line, PassOutput};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workload::Workload;

/// Measured trials of the end-to-end pass, each a process of its own; a
/// reported value is the median over them. Eight, not five: with five
/// the two reference run sets disagreed on the tail metrics, whose
/// run-to-run spread is trial-level noise (see BASELINE.md).
const TRIALS: u32 = 8;
/// Trials where only ratios and a reference are wanted.
const SIDE_TRIALS: u32 = 2;

fn usage(msg: &str) -> ExitCode {
    eprintln!("hermes-benchmark: {msg}");
    eprintln!(
        "usage: run.sh [--workload kv_small|kv_large|lsm_flush|handoff] [--seed N] [--seconds S] [--trace 0|1]"
    );
    ExitCode::from(2)
}

/// `--key value` pairs and bare flags after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn value(&mut self, key: &str) -> Result<Option<String>, String> {
        let Some(i) = self.0.iter().position(|a| a == key) else {
            return Ok(None);
        };
        if i + 1 >= self.0.len() {
            return Err(format!("{key} needs a value"));
        }
        self.0.remove(i);
        Ok(Some(self.0.remove(i)))
    }

    fn parsed<T: std::str::FromStr>(&mut self, key: &str) -> Result<Option<T>, String> {
        match self.value(key)? {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{key}: cannot read {v:?}")),
        }
    }

    fn flag(&mut self, key: &str) -> bool {
        match self.0.iter().position(|a| a == key) {
            Some(i) => {
                self.0.remove(i);
                true
            }
            None => false,
        }
    }

    fn done(self) -> Result<(), String> {
        match self.0.first() {
            None => Ok(()),
            Some(a) => Err(format!("unknown argument {a:?}")),
        }
    }
}

fn workload_arg(args: &mut Args) -> Result<Option<Workload>, String> {
    match args.value("--workload")? {
        None => Ok(None),
        Some(name) => Workload::parse(&name)
            .map(Some)
            .ok_or(format!("unknown workload {name:?}")),
    }
}

/// Runs one trial of a pass in a child process and reads its report
/// back.
fn spawn_pass(pass: Pass, a: &PassArgs) -> PassOutput {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let mut cmd = Command::new(exe);
    cmd.arg("pass")
        .arg(pass.name())
        .args(["--workload", a.workload.name()])
        .args(["--seed", &a.seed.to_string()])
        .args(["--scale", &a.scale.to_string()])
        .args(["--trial", &a.trial.to_string()])
        .arg("--results")
        .arg(&a.results);
    if a.quick {
        cmd.arg("--quick");
    }
    // `output()` waits for the child, so no process outlives the run.
    match cmd.output() {
        Ok(o) => {
            let mut out = PassOutput::decode(&String::from_utf8_lossy(&o.stdout));
            if !o.status.success() {
                let err = String::from_utf8_lossy(&o.stderr);
                out.problem(format!(
                    "{} pass of {} trial {} ended with {}: {}",
                    pass.name(),
                    a.workload.name(),
                    a.trial,
                    o.status,
                    err.lines().last().unwrap_or("")
                ));
            }
            out
        }
        Err(e) => {
            let mut out = PassOutput::default();
            out.problem(format!("{} pass did not start: {e}", pass.name()));
            out
        }
    }
}

struct RunArgs {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    quick: bool,
    results: PathBuf,
}

fn names(defs: &[MetricDef]) -> Vec<String> {
    defs.iter().map(|m| m.name.clone()).collect()
}

/// All passes of one workload, merged. Returns the merged report and
/// the metric names the result line must carry.
fn run_workload(w: Workload, r: &RunArgs) -> (PassOutput, Vec<String>) {
    let trial = |pass, trial| {
        spawn_pass(
            pass,
            &PassArgs {
                workload: w,
                seed: r.seed,
                scale: r.seconds / RUN_SECONDS as f64,
                trial,
                quick: r.quick,
                results: r.results.clone(),
            },
        )
    };
    let trials = |pass, n| PassOutput::median_of((0..n).map(|t| trial(pass, t)).collect());
    let mut merged = PassOutput::default();
    // With `--trace 1` the untraced pass is still needed, shortened, for
    // the counter deltas and as the base of the tracing overhead.
    let e2e_trials = if r.trace == Some(true) {
        SIDE_TRIALS
    } else {
        TRIALS
    };
    let e2e = trials(Pass::E2e, e2e_trials);
    merged.merge(e2e.clone());
    let mut wanted = names(&end_to_end());
    if r.trace != Some(false) {
        let traced = trial(Pass::Traced, 0);
        let reference = trials(Pass::Reference, SIDE_TRIALS);
        let layers = trial(Pass::Layers, 0);
        // Only the untraced pass counts queries for the result line.
        for side in [&traced, &reference, &layers] {
            let mut side = side.clone();
            (side.attempted, side.failed) = (0, 0);
            side.facts.clear();
            merged.merge(side);
        }
        passes::derive(&e2e, &traced, &reference, &mut merged);
        if let Some(f) = traced.fact_of("trace_file") {
            merged.fact("trace_file", f);
        }
        wanted = match r.trace {
            Some(true) => names(&per_layer()),
            _ => [wanted, names(&per_layer())].concat(),
        };
    }
    for n in &wanted {
        if merged.get(n).is_none() {
            merged.problem(format!("{}: metric {n} was not reported", w.name()));
        }
    }
    merged.fact("workload", w.name());
    merged.fact("seed", r.seed);
    merged.fact("seconds", r.seconds);
    (merged, wanted)
}

fn print_table(w: Workload, out: &PassOutput) {
    for m in &out.metrics {
        println!(
            "{} {} {} {}  # {}",
            w.name(),
            m.name,
            m.value,
            m.unit,
            m.note
        );
    }
    let failed_pct = 100.0 * out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "{} failed_pct {failed_pct} %  # {} of {} queries",
        w.name(),
        out.failed,
        out.attempted
    );
    for key in ["pinned", "cpus", "op_hash", "trace_file"] {
        if let Some(v) = out.fact_of(key) {
            println!("{} {key} {v}", w.name());
        }
    }
    for p in &out.problems {
        println!("{} CHECK FAILED: {p}", w.name());
    }
}

fn cmd_run(mut args: Args) -> Result<ExitCode, String> {
    let workloads = match workload_arg(&mut args)? {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    let trace = match args.parsed::<u8>("--trace")? {
        None => None,
        Some(0) => Some(false),
        Some(1) => Some(true),
        Some(v) => return Err(format!("--trace takes 0 or 1, not {v}")),
    };
    let seconds = args
        .parsed::<f64>("--seconds")?
        .unwrap_or(RUN_SECONDS as f64);
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], not {seconds}"));
    }
    let r = RunArgs {
        workloads,
        seed: args.parsed("--seed")?.unwrap_or(1),
        seconds,
        trace,
        quick: args.flag("--quick"),
        results: args
            .value("--results")?
            .map_or_else(|| PathBuf::from("benchmark/results"), PathBuf::from),
    };
    args.done()?;
    std::fs::create_dir_all(&r.results)
        .map_err(|e| format!("creating {}: {e}", r.results.display()))?;
    let mut ok = true;
    for &w in &r.workloads {
        let (out, wanted) = run_workload(w, &r);
        print_table(w, &out);
        for (ext, text) in [
            ("json", result_file(w.name(), &out)),
            ("metrics", out.encode()),
        ] {
            let path = r.results.join(format!("{}.{ext}", w.name()));
            std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
        ok &= out.problems.is_empty() && out.failed == 0;
        // The contract's result object: the last line of a workload.
        println!("{}", result_line(&out, &wanted));
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_pass(mut args: Args) -> Result<ExitCode, String> {
    let pass = if args.0.is_empty() {
        None
    } else {
        Pass::parse(&args.0.remove(0))
    }
    .ok_or("pass needs one of e2e, traced, reference, layers")?;
    let a = PassArgs {
        workload: workload_arg(&mut args)?.ok_or("--workload is required")?,
        seed: args.parsed("--seed")?.unwrap_or(1),
        scale: args.parsed("--scale")?.unwrap_or(1.0),
        trial: args.parsed("--trial")?.unwrap_or(0),
        quick: args.flag("--quick"),
        results: args
            .value("--results")?
            .map_or_else(|| PathBuf::from("benchmark/results"), PathBuf::from),
    };
    args.done()?;
    print!("{}", passes::run(pass, &a).encode());
    Ok(ExitCode::SUCCESS)
}

/// Metric values of one workload from every `<dir>/<run>/<w>.metrics`.
fn collect(dir: &Path, w: Workload, sub_prefix: &str) -> Vec<PassOutput> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut runs: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(sub_prefix))
        })
        .collect();
    runs.sort();
    runs.iter()
        .filter_map(|p| std::fs::read_to_string(p.join(format!("{}.metrics", w.name()))).ok())
        .map(|t| PassOutput::decode(&t))
        .collect()
}

/// Two run sets of the same tree, judged the way the acceptance check
/// judges them: per end-to-end metric, the spread of each set against a
/// third of the bound, and the second median against the first.
fn cmd_verdict(args: Args) -> Result<ExitCode, String> {
    let [a, b] = args.0.as_slice() else {
        return Err("verdict needs two run-set directories".into());
    };
    let (a, b) = (Path::new(a), Path::new(b));
    let mut agree = true;
    println!("workload metric median1 median2 worse_by bound spread1 spread2 verdict");
    for w in Workload::ALL {
        let (ra, rb) = (collect(a, w, "seed"), collect(b, w, "seed"));
        if ra.is_empty() || rb.is_empty() {
            println!("{} no runs found in one of the sets", w.name());
            agree = false;
            continue;
        }
        if ra
            .iter()
            .chain(&rb)
            .any(|r| !r.problems.is_empty() || r.failed > 0)
        {
            println!("{} a run failed its checks", w.name());
            agree = false;
        }
        for m in end_to_end() {
            let vals = |runs: &[PassOutput]| -> Vec<f64> {
                runs.iter().filter_map(|r| r.get(&m.name)).collect()
            };
            let (va, vb) = (vals(&ra), vals(&rb));
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let worse = stats::worse_by(m.better, ma, mb);
            let (sa, sb) = (stats::spread(&va), stats::spread(&vb));
            // setup_s is exempt from the spread rule, not from the
            // median rule.
            let steady = m.name == "setup_s" || (sa <= bound && sb <= bound);
            let verdict = if worse > bound || !steady {
                agree = false;
                "DISAGREE"
            } else if sa.max(sb) > bound / 3.0 && m.name != "setup_s" {
                "agree (spread above a third of the bound)"
            } else {
                "agree"
            };
            println!(
                "{} {} {ma} {mb} {worse:.4} {bound} {sa:.4} {sb:.4} {verdict}",
                w.name(),
                m.name
            );
        }
        // The host-noise canary: the same workload on the process
        // allocator, which is not this repository's code.
        for (set, dir) in [(1, a), (2, b)] {
            for r in collect(dir, w, "layers") {
                for name in [
                    "ref.system.query_p50_us",
                    "ref.system.query_p99_us",
                    "ref.system.query_p999_us",
                    "ref.system.queries_per_s",
                ] {
                    if let Some(v) = r.get(name) {
                        println!("{} set{set} {name} {v}", w.name());
                    }
                }
            }
        }
    }
    println!("{}", if agree { "SETS AGREE" } else { "SETS DISAGREE" });
    Ok(if agree {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    // The measured configuration is fixed; a stray tuning variable would
    // silently measure something else.
    if let Some((k, _)) =
        std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("HERMES_"))
    {
        return usage(&format!(
            "refusing to run with {} set: the benchmark measures the fixed default configuration",
            k.to_string_lossy()
        ));
    }
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        return usage("no subcommand");
    }
    let sub = argv.remove(0);
    let args = Args(argv);
    let result = match sub.as_str() {
        "run" => cmd_run(args),
        "pass" => cmd_pass(args),
        "verdict" => cmd_verdict(args),
        "manifest" => {
            print!("{}", metrics::manifest());
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown subcommand {other:?}")),
    };
    result.unwrap_or_else(|e| usage(&e))
}
