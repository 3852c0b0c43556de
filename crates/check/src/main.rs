//! `aibench-check` CLI: runs the static analyses and invariant lints over
//! the full benchmark registry and exits nonzero on any violation.
//!
//! ```text
//! aibench-check [--all | --specs | --traces | --tape | --ckpt | --audit]
//!               [--benchmark CODE] [--fixture NAME | --list-fixtures]
//! ```
//!
//! * `--specs`  shape inference + exact FLOP/param cross-check
//! * `--traces` kernel classification and conservation lints
//! * `--tape`   probe one training epoch per scaled model (slow)
//! * `--ckpt`   snapshot wire-format + restore round-trip byte-stability
//! * `--audit`  region-effect audit: race detection over recorded access
//!   sets, determinism lints, snapshot-coverage diffing (slow)
//! * `--all`    everything above (default)
//! * `--benchmark CODE` restrict any mode to one benchmark (e.g. DC-AI-C1)
//! * `--fixture NAME` run one seeded-defect fixture (see `--list-fixtures`);
//!   exits nonzero because the fixture's defect is detected
//!
//! Any other argument prints the usage line and exits 2.

#![forbid(unsafe_code)]

use aibench::{Benchmark, Registry};
use aibench_check::{audit, ckpt, counts, fixtures, shape, tape, trace, CheckReport};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: aibench-check [--all | --specs | --traces | --tape | --ckpt | --audit] \
         [--benchmark CODE] [--fixture NAME | --list-fixtures]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut mode = None;
    let mut fixture = None;
    let mut benchmark = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--all" | "--specs" | "--traces" | "--tape" | "--ckpt" | "--audit" => {
                if mode.replace(arg.clone()).is_some() {
                    return usage();
                }
            }
            "--fixture" => match it.next() {
                Some(name) => fixture = Some(name.clone()),
                None => return usage(),
            },
            "--benchmark" => match it.next() {
                Some(code) => benchmark = Some(code.clone()),
                None => return usage(),
            },
            "--list-fixtures" => {
                for name in fixtures::FIXTURES {
                    println!("{name}");
                }
                return ExitCode::SUCCESS;
            }
            _ => return usage(),
        }
    }

    if let Some(name) = fixture {
        let Some(diags) = fixtures::run(&name) else {
            eprintln!("unknown fixture `{name}`; try --list-fixtures");
            return ExitCode::from(2);
        };
        for d in &diags {
            println!("{d}");
        }
        println!("fixture `{name}`: {} violation(s) detected", diags.len());
        // A fixture is a seeded defect: finding it means exiting nonzero,
        // and finding nothing means the rule itself regressed.
        return if diags.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let mode = mode.unwrap_or_else(|| "--all".to_string());
    let registry = Registry::all();
    let selected: Vec<&Benchmark> = match &benchmark {
        Some(code) => match registry.benchmarks().iter().find(|b| b.id.code() == *code) {
            Some(b) => vec![b],
            None => {
                eprintln!("unknown benchmark `{code}`");
                return ExitCode::from(2);
            }
        },
        None => registry.benchmarks().iter().collect(),
    };
    let mut report = CheckReport::new();

    if mode == "--all" || mode == "--specs" {
        for b in &selected {
            let spec = b.spec();
            let code = b.id.code();
            report.absorb(shape::check_spec(code, &spec));
            report.absorb(counts::verify_spec(code, &spec));
        }
        report.absorb(tape::check_gradcheck_coverage());
    }
    if mode == "--all" || mode == "--traces" {
        for b in &selected {
            report.absorb(trace::check_benchmark(b.id.code(), &b.spec()));
        }
    }
    if mode == "--all" || mode == "--tape" {
        for b in &selected {
            report.absorb(tape::probe_benchmark(b));
        }
    }
    if mode == "--all" || mode == "--ckpt" {
        for b in &selected {
            report.absorb(ckpt::check_roundtrip(b));
        }
    }
    if mode == "--all" || mode == "--audit" {
        for b in &selected {
            report.absorb(audit::audit_benchmark(b));
        }
    }

    for d in &report.diagnostics {
        println!("{d}");
    }
    println!(
        "aibench-check: {} benchmark(s), {} check batch(es), {} violation(s)",
        selected.len(),
        report.checks_run,
        report.diagnostics.len()
    );
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
