//! `suite_t1` and `suite_t2`: the paper's headline use. A pass trains all
//! 17 AIBench sessions to their quality targets through `run_to_quality`
//! with `RunConfig::default()`, at 1 or at 2 threads.

use std::collections::BTreeMap;

use crate::common::{
    fingerprint, finish_trace, push_end_to_end, push_pool, push_training, set_up, timed,
    timed_pairs, timed_passes, Opts, TempDir,
};
use crate::drive::{self, RunResult, Stack};
use crate::probes;
use crate::report::Report;
use crate::span::{Recorder, NO_SESSION};
use crate::stats::{median, XorShift};

/// The paper's minimum subset (Section 5.4).
const SUBSET: [&str; 3] = ["DC-AI-C1", "DC-AI-C9", "DC-AI-C16"];

/// The 17 sessions in the order this seed trains them.
fn session_order(stack: &Stack, seed: u64) -> Vec<&'static str> {
    let mut order = stack.codes();
    XorShift::new(seed).shuffle(&mut order);
    order
}

pub fn run(opts: &Opts, name: &'static str, threads: usize) -> Report {
    let ((stack, order), setup_s) = set_up(|| {
        let stack = Stack::new(threads);
        let order = session_order(&stack, opts.seed);
        // The warm-up: one epoch of every session touches every kernel
        // and grows the heap to its working size.
        for code in &order {
            stack.warm_epoch(code, opts.train_seed);
        }
        (stack, order)
    });

    let mut report = Report::new(name, opts.trace);
    let mut rec = Recorder::new(opts.trace);
    let trace_start = rec.clock_ns();
    // Pass 1's results by code: every later result must repeat them.
    let mut reference: BTreeMap<&'static str, RunResult> = BTreeMap::new();
    let mut latencies_ms = Vec::new();
    let mut subset_s = Vec::new();
    let mut pool_delta = None;
    // One pass: untraced through the closed runner, traced through the
    // open session form with a span around each build, training epoch
    // and evaluation.
    let mut pass = |traced: bool| {
        let before = drive::pool_stats();
        let name = if traced {
            "suite.pass"
        } else {
            "suite.pass.untraced"
        };
        let root = rec.enter(name, NO_SESSION);
        let mut wall = 0.0;
        let mut subset = 0.0;
        for (session, &code) in order.iter().enumerate() {
            let (s, result) = timed(|| {
                if traced {
                    stack.stepped(&mut rec, code, opts.train_seed, None, session as u64)
                } else {
                    stack.plain(code, opts.train_seed, None)
                }
            });
            wall += s;
            if !traced {
                latencies_ms.push(s * 1e3);
                if SUBSET.contains(&code) {
                    subset += s;
                }
            }
            let first = reference.entry(code).or_insert_with(|| result.clone());
            report.attempted += 1;
            // A session fails if it did not converge or differs from pass 1.
            if !drive::converged(&result) || !drive::same_bits(first, &result) {
                report.failed += 1;
            }
        }
        rec.exit(root);
        if traced {
            pool_delta.get_or_insert_with(|| drive::pool_stats().delta(&before));
        } else {
            subset_s.push(subset);
        }
        wall
    };

    if !opts.trace {
        let walls = timed_passes(opts.seconds, 3, || pass(false));
        let ttq_s = median(&walls);
        report.fingerprint = fingerprint(reference.values());
        push_end_to_end(&mut report, setup_s, ttq_s, order.len(), &latencies_ms);
        report.push("subset_ttq_s", median(&subset_s), "s");
        report.push("passes", walls.len() as f64, "count");
        return report;
    }

    let (untraced_walls, traced_walls) = timed_pairs(opts.seconds, 2, pass);
    report.fingerprint = fingerprint(reference.values());
    let passes = traced_walls.len() as f64;
    push_training(&mut report, &rec, passes);
    for (session, code) in order.iter().enumerate() {
        let train_s = rec.total_where_s("models.train", |s| s == session as u64) / passes;
        let short = code.trim_start_matches("DC-AI-");
        report.push(format!("models.train_s.{short}"), train_s, "s");
    }
    push_pool(
        &mut report,
        &pool_delta.expect("at least one traced pass ran"),
    );
    // The session layers and the server do no work on this workload.
    for bypassed in [
        "ckpt.kills",
        "ckpt.bytes_written",
        "serve.ticks",
        "serve.parks",
        "serve.backlog_end",
    ] {
        report.push(bypassed, 0.0, "count");
    }
    report.push(
        "trace.overhead_share",
        median(&traced_walls) / median(&untraced_walls) - 1.0,
        "share",
    );

    let mut tmp = TempDir::new();
    probes::run(&stack, &mut rec, opts.train_seed, &mut tmp, &mut report);
    finish_trace(&rec, trace_start, &mut report);
    report
}
