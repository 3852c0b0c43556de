//! `session_stack`: the small-epoch sessions through the session layers.
//! A pass takes {C13, C16, C10, C15} through `supervised_run_with_sink`
//! and `fault_injection_run`, both on a `DirSink` in a scratch directory
//! and both saving every epoch, and C15 through
//! `run_distributed_to_quality` at 4 workers and at 1.

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

const SESSIONS: [&str; 4] = ["DC-AI-C13", "DC-AI-C16", "DC-AI-C10", "DC-AI-C15"];
const DISTRIBUTED: &str = "DC-AI-C15";

/// One public entry point applied to one session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Call {
    Supervised(&'static str),
    Crashloop(&'static str),
    Distributed(usize),
}

impl Call {
    fn code(self) -> &'static str {
        match self {
            Call::Supervised(code) | Call::Crashloop(code) => code,
            Call::Distributed(_) => DISTRIBUTED,
        }
    }

    fn span(self) -> &'static str {
        match self {
            Call::Supervised(_) => "fault.supervised",
            Call::Crashloop(_) => "ckpt.crashloop",
            Call::Distributed(4) => "dist.w4",
            Call::Distributed(_) => "dist.w1",
        }
    }

    /// Position of the call's session in `SESSIONS`: its span's session id.
    fn session(self) -> u64 {
        SESSIONS.iter().position(|c| *c == self.code()).unwrap() as u64
    }
}

/// The calls of one pass, in the order this seed makes them.
fn calls(seed: u64) -> Vec<Call> {
    let mut calls: Vec<Call> = SESSIONS
        .iter()
        .flat_map(|&code| [Call::Supervised(code), Call::Crashloop(code)])
        .chain([Call::Distributed(4), Call::Distributed(1)])
        .collect();
    XorShift::new(seed).shuffle(&mut calls);
    calls
}

/// What a call returned besides its result.
#[derive(Default)]
struct Extra {
    kills: u64,
    bytes_saved: u64,
}

struct Bench<'a> {
    stack: &'a Stack,
    train_seed: u64,
    tmp: TempDir,
    /// `run_to_quality` results by code: what every entry point must
    /// reproduce bit for bit, except 4-worker training.
    plain: BTreeMap<&'static str, RunResult>,
    /// The first 4-worker result; later ones must repeat it.
    four_workers: Option<RunResult>,
}

impl Bench<'_> {
    /// Makes the call in a fresh scratch directory, under a span; returns
    /// the seconds the call itself took.
    fn make(&mut self, rec: &mut Recorder, call: Call) -> (f64, RunResult, Extra) {
        let dir = self.tmp.fresh();
        let (code, seed) = (call.code(), self.train_seed);
        let span = rec.enter(call.span(), call.session());
        let (seconds, (result, extra)) = timed(|| match call {
            Call::Supervised(_) => {
                let (result, bytes_saved) = self.stack.supervised_on_dir(code, seed, &dir);
                let kills = 0;
                (result, Extra { kills, bytes_saved })
            }
            Call::Crashloop(_) => {
                let (result, kills, bytes_saved) = self
                    .stack
                    .crashloop_on_dir(code, seed, &dir)
                    .expect("the scratch directory takes checkpoints");
                let kills = kills as u64;
                (result, Extra { kills, bytes_saved })
            }
            Call::Distributed(world) => {
                (self.stack.distributed(code, seed, world), Extra::default())
            }
        });
        rec.exit(span);
        let _ = std::fs::remove_dir_all(&dir);
        (seconds, result, extra)
    }

    /// Whether the call's session failed: it did not converge, or its
    /// bits differ from its reference.
    fn failed(&mut self, call: Call, result: &RunResult) -> bool {
        let reference = match call {
            Call::Distributed(4) => self.four_workers.get_or_insert_with(|| result.clone()),
            _ => &self.plain[call.code()],
        };
        !drive::converged(result) || !drive::same_bits(reference, result)
    }
}

/// The fingerprint of a pass, whatever order its calls were made in.
fn pass_fingerprint(pass: Option<Vec<(Call, RunResult)>>) -> u64 {
    let mut pass = pass.expect("at least one pass ran");
    pass.sort_by_key(|(call, _)| *call);
    fingerprint(pass.iter().map(|(_, result)| result))
}

pub fn run(opts: &Opts) -> Report {
    let calls = calls(opts.seed);
    let ((stack, plain), setup_s) = set_up(|| {
        let stack = Stack::new(1);
        let plain: BTreeMap<&'static str, RunResult> = SESSIONS
            .iter()
            .map(|&code| (code, stack.plain(code, opts.train_seed, None)))
            .collect();
        {
            // The warm-up pass.
            let mut bench = Bench {
                stack: &stack,
                train_seed: opts.train_seed,
                tmp: TempDir::new(),
                plain: BTreeMap::new(),
                four_workers: None,
            };
            for &call in &calls {
                std::hint::black_box(bench.make(&mut Recorder::new(false), call));
            }
        }
        (stack, plain)
    });
    let mut bench = Bench {
        stack: &stack,
        train_seed: opts.train_seed,
        tmp: TempDir::new(),
        plain,
        four_workers: None,
    };

    let mut report = Report::new("session_stack", opts.trace);
    let mut rec = Recorder::new(opts.trace);
    let mut no_spans = Recorder::new(false);
    let trace_start = rec.clock_ns();
    let mut latencies_ms = Vec::new();
    let mut first_pass: Option<Vec<(Call, RunResult)>> = None;
    let mut pool_delta = None;
    let mut kills = 0;
    let mut bytes_written = 0;
    // One pass. A traced pass has a span around each entry point and,
    // beside them, the plain sessions the entry points wrap, stepped open.
    let mut pass = |traced: bool| {
        let before = drive::pool_stats();
        let name = if traced {
            "session_stack.pass"
        } else {
            "session_stack.pass.untraced"
        };
        let root = rec.enter(name, NO_SESSION);
        let mut wall = 0.0;
        let mut results = Vec::new();
        for &call in &calls {
            let spans = if traced { &mut rec } else { &mut no_spans };
            let (s, result, extra) = bench.make(spans, call);
            wall += s;
            if traced {
                kills += extra.kills;
                bytes_written += extra.bytes_saved;
            } else {
                latencies_ms.push(s * 1e3);
            }
            report.attempted += 1;
            report.failed += u64::from(bench.failed(call, &result));
            results.push((call, result));
        }
        first_pass.get_or_insert(results);
        if traced {
            for (session, &code) in SESSIONS.iter().enumerate() {
                let result = stack.stepped(&mut rec, code, opts.train_seed, None, session as u64);
                report.attempted += 1;
                report.failed += u64::from(!drive::same_bits(&bench.plain[code], &result));
            }
            pool_delta.get_or_insert_with(|| drive::pool_stats().delta(&before));
        }
        rec.exit(root);
        wall
    };

    if !opts.trace {
        let walls = timed_passes(opts.seconds, 3, || pass(false));
        let ttq_s = median(&walls);
        report.fingerprint = pass_fingerprint(first_pass);
        push_end_to_end(&mut report, setup_s, ttq_s, calls.len(), &latencies_ms);
        report.push("passes", walls.len() as f64, "count");
        return report;
    }

    let (untraced_walls, traced_walls) = timed_pairs(opts.seconds, 3, pass);
    report.fingerprint = pass_fingerprint(first_pass);
    let passes = traced_walls.len() as f64;
    let per_pass = |name: &str| rec.total_s(name) / passes;
    let plain_s = per_pass("core.session");
    let supervised_s = per_pass("fault.supervised");
    push_training(&mut report, &rec, passes);
    report.push("core.plain_s", plain_s, "s");
    report.push("fault.supervised_s", supervised_s, "s");
    report.push(
        "fault.overhead_share",
        supervised_s / plain_s - 1.0,
        "share",
    );
    for (session, code) in SESSIONS.iter().enumerate() {
        let of = |name: &str| rec.total_where_s(name, |s| s == session as u64);
        report.push(
            format!("fault.overhead_share.{}", code.trim_start_matches("DC-AI-")),
            of("fault.supervised") / of("core.session") - 1.0,
            "share",
        );
    }
    report.push("ckpt.crashloop_s", per_pass("ckpt.crashloop"), "s");
    report.push("ckpt.kills", kills as f64 / passes, "count");
    report.push("ckpt.bytes_written", bytes_written as f64 / passes, "count");
    report.push("dist.w1_s", per_pass("dist.w1"), "s");
    report.push("dist.w4_s", per_pass("dist.w4"), "s");
    report.push(
        "dist.w4_over_w1",
        per_pass("dist.w4") / per_pass("dist.w1"),
        "ratio",
    );
    push_pool(
        &mut report,
        &pool_delta.expect("at least one traced pass ran"),
    );
    // The server does no work on this workload.
    for bypassed in ["serve.ticks", "serve.parks", "serve.backlog_end"] {
        report.push(bypassed, 0.0, "count");
    }
    report.push(
        "trace.overhead_share",
        median(&traced_walls) / median(&untraced_walls) - 1.0,
        "share",
    );

    probes::run(
        &stack,
        &mut rec,
        opts.train_seed,
        &mut bench.tmp,
        &mut report,
    );
    finish_trace(&rec, trace_start, &mut report);
    report
}
