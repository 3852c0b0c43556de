//! `aibench-benchmark`: the repo's end-to-end benchmark. See `README.md`.
//!
//! ```text
//! aibench-benchmark --workload <name|all> [--seed N] [--seconds S]
//!                   [--trace 0|1] [--train-seed N] [--repeat]
//! ```
//!
//! One run of one workload prints every metric it measured as
//! `workload metric value unit`, writes the same to `benchmark/out/`, and
//! ends with one JSON result line. `--workload all`, the default, runs
//! each workload in a process of its own; `--repeat` runs the workload, or
//! all of them, twice and compares the two sets against the bounds.

mod common;
mod drive;
mod probes;
mod report;
mod span;
mod stats;
mod workloads;

use std::process::{Command, ExitCode};

use common::{out_dir, Opts};
use report::{Report, END_TO_END, RUN_SECONDS, WORKLOADS};
use workloads::{serve_load, session_stack, suite};

struct Args {
    workload: String,
    opts: Opts,
    repeat: bool,
}

fn usage(problem: &str) -> ! {
    eprintln!("aibench-benchmark: {problem}");
    eprintln!(
        "usage: aibench-benchmark --workload <{}|all> [--seed N] [--seconds S] \
         [--trace 0|1] [--train-seed N] [--repeat] | --print-manifest",
        WORKLOADS.map(|w| w.name).join("|")
    );
    std::process::exit(2);
}

fn parse(raw: &[String]) -> Args {
    let mut args = Args {
        workload: "all".to_string(),
        opts: Opts {
            seed: 1,
            train_seed: 1,
            seconds: RUN_SECONDS as f64,
            trace: false,
        },
        repeat: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| -> String {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs {what}")))
                .clone()
        };
        let number = |text: String| -> u64 {
            text.parse()
                .unwrap_or_else(|_| usage(&format!("{flag} takes a whole number, not `{text}`")))
        };
        match flag.as_str() {
            "--workload" => args.workload = value("a workload name"),
            "--seed" => args.opts.seed = number(value("a seed")),
            "--train-seed" => args.opts.train_seed = number(value("a seed")),
            "--seconds" => {
                let text = value("seconds");
                args.opts.seconds = match text.parse::<f64>() {
                    Ok(s) if s > 0.0 && s.is_finite() => s,
                    _ => usage(&format!("--seconds takes a positive number, not `{text}`")),
                };
            }
            "--trace" => {
                args.opts.trace = match value("0 or 1").as_str() {
                    "0" => false,
                    "1" => true,
                    other => usage(&format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--repeat" => args.repeat = true,
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    let known = args.workload == "all" || WORKLOADS.iter().any(|w| w.name == args.workload);
    if !known {
        usage(&format!("unknown workload `{}`", args.workload));
    }
    args
}

fn run_workload(name: &str, opts: &Opts) -> Report {
    match name {
        "suite_t1" => suite::run(opts, "suite_t1", 1),
        "suite_t2" => suite::run(opts, "suite_t2", 2),
        "session_stack" => session_stack::run(opts),
        "serve_load" => serve_load::run(opts),
        other => unreachable!("parse() admits no workload `{other}`"),
    }
}

/// One workload in this process: prints and writes its lines, then the
/// result line.
fn run_one(name: &str, opts: &Opts) -> ExitCode {
    let report = run_workload(name, opts);
    let lines = report.lines();
    let file = if opts.trace {
        format!("{name}.trace.txt")
    } else {
        format!("{name}.txt")
    };
    std::fs::write(out_dir().join(file), &lines).expect("write the metrics file");
    print!("{lines}");
    println!("{}", report.result_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "aibench-benchmark: {name}: {} of {} sessions failed",
            report.failed, report.attempted
        );
        ExitCode::FAILURE
    }
}

/// What a child process printed: its metric lines as
/// `(workload, metric) -> value`, and whether it succeeded.
struct ChildRun {
    values: Vec<((String, String), String)>,
    ok: bool,
}

/// Runs one workload in a process of its own, echoing its metric lines.
fn run_child(name: &str, opts: &Opts, trace: bool) -> ChildRun {
    let exe = std::env::current_exe().expect("path of this executable");
    let output = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--train-seed", &opts.train_seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("start a workload process");
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let mut values = Vec::new();
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        if let [workload, metric, value, _unit] = fields[..] {
            println!("{line}");
            values.push((
                (workload.to_string(), metric.to_string()),
                value.to_string(),
            ));
        }
    }
    ChildRun {
        values,
        ok: output.status.success(),
    }
}

/// The named workload, or every workload for `all`, each in a process of
/// its own, untraced and then (with `--trace 1`) traced. Also checks that
/// `suite_t1` and `suite_t2` did identical arithmetic.
fn run_set(workload: &str, opts: &Opts) -> ChildRun {
    let mut all = ChildRun {
        values: Vec::new(),
        ok: true,
    };
    let names = WORKLOADS.iter().map(|w| w.name);
    for name in names.filter(|name| workload == "all" || workload == *name) {
        for trace in [false, true] {
            if trace && !opts.trace {
                continue;
            }
            let child = run_child(name, opts, trace);
            all.ok &= child.ok;
            // The traced run's fingerprint and failed share repeat the
            // untraced run's.
            let fresh = |key: &(String, String)| !all.values.iter().any(|(k, _)| k == key);
            let new: Vec<_> = child.values.into_iter().filter(|(k, _)| fresh(k)).collect();
            all.values.extend(new);
        }
    }
    let fingerprint = |workload: &str| {
        all.values
            .iter()
            .find(|((w, m), _)| w == workload && m == "result_fingerprint")
            .map(|(_, v)| v.clone())
    };
    if workload == "all" && fingerprint("suite_t1") != fingerprint("suite_t2") {
        eprintln!("aibench-benchmark: suite_t1 and suite_t2 fingerprints differ");
        all.ok = false;
    }
    all
}

/// Two full sets back to back: prints how far each end-to-end metric of
/// each workload moved against its bound, and fails beyond it.
fn run_repeat(workload: &str, opts: &Opts) -> bool {
    let first = run_set(workload, opts);
    let second = run_set(workload, opts);
    let mut ok = first.ok && second.ok;
    println!("workload metric first second worse_by bound verdict");
    for ((workload, metric), a) in &first.values {
        let Some(declared) = END_TO_END.iter().find(|m| m.name == metric) else {
            continue;
        };
        let b = second
            .values
            .iter()
            .find(|((w, m), _)| w == workload && m == metric)
            .map(|(_, v)| v);
        let (Ok(a), Some(Ok(b))) = (a.parse::<f64>(), b.map(|v| v.parse::<f64>())) else {
            ok = false;
            continue;
        };
        let worse_by = if declared.better == "lower" {
            b / a - 1.0
        } else {
            a / b - 1.0
        };
        let within = worse_by <= declared.bound;
        ok &= within;
        println!(
            "{workload} {metric} {a} {b} {worse_by:+.4} {} {}",
            declared.bound,
            if within { "ok" } else { "BEYOND" }
        );
    }
    ok
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw == ["--print-manifest"] {
        print!("{}", report::manifest_json());
        return ExitCode::SUCCESS;
    }
    let args = parse(&raw);
    if args.repeat {
        return if run_repeat(&args.workload, &args.opts) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    if args.workload == "all" {
        return if run_set(&args.workload, &args.opts).ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    run_one(&args.workload, &args.opts)
}
