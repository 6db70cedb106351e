//! `ge2val-bench`: the repository's benchmark.  One process measures one
//! workload, untraced (end-to-end metrics) or traced (per-layer metrics),
//! and prints one JSON result line; `--all`, `--smoke` and `--aa` re-execute
//! this binary once per run so that peak memory and set-up time of one run
//! never leak into the next.  See `README.md` for the metric definitions.

use ge2val_bench::json::Json;
use ge2val_bench::workloads::{host_json, Plan, RunResult, Workload, WORKLOADS};
use ge2val_bench::{compare, contract, layers, workloads};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "\
usage: ge2val-bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                    [--trace-out FILE] [--out FILE.jsonl] [--smoke]
       ge2val-bench --all   [--seed N] [--seconds S] [--out FILE.jsonl]
       ge2val-bench --smoke
       ge2val-bench --compare A.jsonl B.jsonl [--bounds BENCHMARK.json]
       ge2val-bench --aa N  [--seed N] [--seconds S] [--out PREFIX] [--bounds BENCHMARK.json]
       ge2val-bench --print-benchmark-json
workloads: square_1t tall_1t square_2t batch_small";

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    out: Option<PathBuf>,
    smoke: bool,
    all: bool,
    compare: Option<(PathBuf, PathBuf)>,
    bounds: Option<PathBuf>,
    aa: Option<usize>,
    corrupt_expected: bool,
    print_benchmark_json: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        seconds: contract::RUN_SECONDS as f64,
        ..Args::default()
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        let number = |text: String| {
            text.parse::<f64>()
                .ok()
                .filter(|x| x.is_finite() && *x >= 0.0)
                .ok_or_else(|| format!("{flag}: {text:?} is not a non-negative number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                let text = value()?;
                args.seed = text
                    .parse()
                    .map_err(|_| format!("--seed: {text:?} is not a whole number"))?;
            }
            "--seconds" => args.seconds = number(value()?)?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--trace-out" => args.trace_out = Some(value()?.into()),
            "--out" => args.out = Some(value()?.into()),
            "--bounds" => args.bounds = Some(value()?.into()),
            "--smoke" => args.smoke = true,
            "--all" => args.all = true,
            "--compare" => args.compare = Some((value()?.into(), value()?.into())),
            "--aa" => args.aa = Some(number(value()?)? as usize),
            "--corrupt-expected" => args.corrupt_expected = true,
            "--print-benchmark-json" => args.print_benchmark_json = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// The result the driver reads as the last line: exactly these four keys.
fn result_json(r: &RunResult) -> Json {
    let metrics = Json::Obj(
        r.metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Json::obj().with("value", *value).with("unit", *unit),
                )
            })
            .collect(),
    );
    Json::obj()
        .with("correct", r.tally.failed == 0)
        .with("attempted", r.tally.attempted)
        .with("failed", r.tally.failed)
        .with("metrics", metrics)
}

/// The full record of a run: the result line's content plus what was run,
/// the distributions behind the medians and the disturbance record.
fn record_line(w: &Workload, args: &Args, r: &RunResult) -> String {
    let mut record = Json::obj()
        .with("workload", w.name)
        .with("seed", args.seed)
        .with("seconds", args.seconds)
        .with("trace", usize::from(args.trace))
        .with("smoke", args.smoke);
    for (key, value) in result_json(r).as_obj().expect("the result is an object") {
        record.set(key, value.clone());
    }
    record
        .with("disturbed", r.disturbed)
        .with("host", host_json(&r.host))
        .with("detail", r.detail.clone())
        .render()
}

fn run_one(w: &Workload, args: &Args) -> ExitCode {
    let plan = Plan {
        corrupt_expected: args.corrupt_expected,
        ..if args.smoke {
            Plan::smoke()
        } else {
            Plan::full(args.seconds)
        }
    };
    let r = if args.trace {
        layers::run_traced(w, args.seed, &plan, args.trace_out.as_deref())
    } else {
        workloads::run_untraced(w, args.seed, &plan)
    };
    eprintln!(
        "{} seed {} {}: attempted {} failed {}{}",
        w.name,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        r.tally.attempted,
        r.tally.failed,
        if r.disturbed { "  DISTURBED" } else { "" },
    );
    for (name, value, unit) in &r.metrics {
        eprintln!("  {name:<36} {value:>16.6} {unit}");
    }
    eprintln!("  detail: {}", r.detail.render());
    eprintln!("  host: {}", host_json(&r.host).render());
    if let Some(path) = &args.out {
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{}", record_line(w, args, &r)));
        if let Err(e) = appended {
            eprintln!("could not append to {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    println!("{}", result_json(&r).render());
    if r.tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run one workload in a child process of this binary and return its
/// parsed result line.
fn child_run(
    w: &Workload,
    args: &Args,
    seed: u64,
    trace: bool,
    out: Option<&Path>,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    if let Some(out) = out {
        cmd.arg("--out").arg(out);
    }
    // `output` waits for the child to end.
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let result = Json::parse(last).map_err(|e| format!("{}: bad result line: {e}", w.name))?;
    if !output.status.success() {
        return Err(format!(
            "{}: exit {:?}, {}",
            w.name,
            output.status.code(),
            last
        ));
    }
    Ok(result)
}

/// Every workload once untraced and once traced, each in its own process.
fn run_all(args: &Args) -> ExitCode {
    let mut ok = true;
    let mut table = format!("{:<12} {:>16}", "workload", "attempted/failed");
    for m in &contract::END_TO_END {
        table.push_str(&format!(" {:>14} {:<4}", m.name, m.unit));
    }
    table.push('\n');
    for w in &WORKLOADS {
        for trace in [false, true] {
            match child_run(w, args, args.seed, trace, args.out.as_deref()) {
                Err(e) => {
                    eprintln!("FAILED {e}");
                    ok = false;
                }
                Ok(result) if !trace => {
                    let num = |key: &str| result.get(key).and_then(Json::as_f64).unwrap_or(-1.0);
                    table.push_str(&format!(
                        "{:<12} {:>16}",
                        w.name,
                        format!("{}/{}", num("attempted"), num("failed"))
                    ));
                    for m in &contract::END_TO_END {
                        let value = result
                            .get("metrics")
                            .and_then(|ms| ms.get(m.name))
                            .and_then(|mv| mv.get("value"))
                            .and_then(Json::as_f64)
                            .unwrap_or(f64::NAN);
                        table.push_str(&format!(" {value:>14.6} {:<4}", m.unit));
                    }
                    table.push('\n');
                }
                Ok(_) => {}
            }
        }
    }
    print!("{table}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn load_bounds(path: Option<&Path>) -> Result<Vec<contract::EndToEnd>, String> {
    match path {
        None => Ok(contract::END_TO_END.to_vec()),
        Some(p) => {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            compare::read_bounds(&text)
        }
    }
}

/// Compare two record files; returns the rows for the caller to judge.
fn compare_files(a: &Path, b: &Path, bounds: Option<&Path>) -> Result<Vec<compare::Row>, String> {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{}: {e}", p.display()))
            .and_then(|text| compare::read_records(&text))
    };
    let rows = compare::compare(&read(a)?, &read(b)?, &load_bounds(bounds)?);
    print!("{}", compare::render(&rows));
    Ok(rows)
}

/// Two interleaved sets of `n` full untraced runs of this build; passes
/// only if every median-to-median change is inside its bound.
fn run_aa(n: usize, args: &Args) -> Result<bool, String> {
    let prefix = args
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from("ge2val-aa"));
    let side = |name: &str| PathBuf::from(format!("{}.{name}.jsonl", prefix.display()));
    let files = [side("A"), side("B")];
    for f in &files {
        std::fs::write(f, "").map_err(|e| format!("{}: {e}", f.display()))?;
    }
    for rep in 0..n {
        // Alternate which side runs first, pair by pair.
        let order = if rep % 2 == 0 { [0, 1] } else { [1, 0] };
        for s in order {
            for w in &WORKLOADS {
                child_run(w, args, args.seed + rep as u64, false, Some(&files[s]))?;
            }
        }
    }
    let rows = compare_files(&files[0], &files[1], args.bounds.as_deref())?;
    let mut pass = true;
    for r in &rows {
        let change = r.worse.abs();
        if change > r.bound {
            pass = false;
            println!(
                "OUTSIDE BOUND  {} {} {:+.2}%",
                r.workload,
                r.metric,
                100.0 * r.worse
            );
        } else if change > r.bound / 2.0 {
            println!(
                "over half bound  {} {} {:+.2}%",
                r.workload,
                r.metric,
                100.0 * r.worse
            );
        }
    }
    println!(
        "A/A over {n} runs per side: {}",
        if pass { "PASS" } else { "FAIL" }
    );
    Ok(pass)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.print_benchmark_json {
        print!("{}", contract::benchmark_json());
        Ok(true)
    } else if let Some((a, b)) = &args.compare {
        compare_files(a, b, args.bounds.as_deref()).map(|rows| {
            rows.iter()
                .all(|r| r.verdict != compare::Verdict::Regressed)
        })
    } else if let Some(n) = args.aa {
        run_aa(n, &args)
    } else if let Some(name) = &args.workload {
        return match workloads::find(name) {
            Some(w) => run_one(w, &args),
            None => {
                eprintln!("no workload {name:?}\n{USAGE}");
                ExitCode::from(2)
            }
        };
    } else if args.all || args.smoke {
        return run_all(&args);
    } else {
        Err(USAGE.to_string())
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
