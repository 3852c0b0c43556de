//! `serve_load`: the in-process `ServerCore` at budget 8 with 8 tenants on
//! 1 thread, in two phases.
//!
//! * Phase A, closed bursts: `BURST_SESSIONS` two-epoch C16/C10 sessions
//!   all arrive at tick 0 and the server drains them. The sessions are
//!   the smallest there are, so what the serve, fault and ckpt layers
//!   cost per session is as large a share of the wall as it gets.
//! * Phase B, open loop: two-epoch sessions cycling through `CYCLE`
//!   arrive on a seeded schedule at `RATE_PER_S`, about half of
//!   capacity. Latency runs from the time a request was *due* until its
//!   `DoneMsg` is drained. Training dominates here: the heavy C1 epochs
//!   stretch every tick they run in.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::common::{
    fingerprint, finish_trace, push_end_to_end, push_pool, push_training, set_up, timed,
    timed_pairs, timed_passes, Opts, TempDir,
};
use crate::drive::{self, Event, RunRequest, RunResult, Stack};
use crate::probes;
use crate::report::Report;
use crate::span::{Recorder, NO_SESSION};
use crate::stats::{median, percentile, sorted, XorShift};

const BUDGET: usize = 8;
const TENANTS: usize = 8;
const EPOCHS: usize = 2;
/// Sessions per closed burst.
const BURST_SESSIONS: usize = 300;
/// One request in this many arrives at priority 3.
const PRIORITY_EVERY: usize = 97;
const BURST_CODES: [&str; 2] = ["DC-AI-C16", "DC-AI-C10"];
/// Share of the measured seconds spent on closed bursts; the open loop
/// takes the rest.
const BURST_SHARE: f64 = 0.3;
/// Open-loop arrivals per second. A constant of the workload, never
/// derived at run time: about half of the 15 sessions/s the server
/// sustains on this mix on the reference container.
const RATE_PER_S: f64 = 8.0;
/// The open loop's session mix, repeated.
const CYCLE: [&str; 8] = [
    "DC-AI-C16",
    "DC-AI-C10",
    "DC-AI-C15",
    "DC-AI-C9",
    "DC-AI-C16",
    "DC-AI-C10",
    "DC-AI-C13",
    "DC-AI-C1",
];
/// A session still unfinished this long after the last due time failed.
const DRAIN_GRACE: Duration = Duration::from_secs(30);
/// Sessions of the set-up's warm-up burst.
const WARM_SESSIONS: usize = 32;

fn tenant(index: usize) -> String {
    format!("tenant-{index}")
}

/// The requests of one closed burst: half C16 and half C10 in seeded
/// order, tenants round-robin, one in `PRIORITY_EVERY` at priority 3.
fn burst(seed: u64, train_seed: u64, sessions: usize) -> Vec<RunRequest> {
    let mut rng = XorShift::new(seed);
    let mut codes: Vec<&str> = (0..sessions).map(|i| BURST_CODES[i % 2]).collect();
    rng.shuffle(&mut codes);
    let urgent = rng.below(PRIORITY_EVERY);
    codes
        .iter()
        .enumerate()
        .map(|(i, code)| {
            let priority = if i % PRIORITY_EVERY == urgent { 3 } else { 0 };
            drive::request(&tenant(i % TENANTS), code, train_seed, EPOCHS, priority)
        })
        .collect()
}

/// The open loop's inputs: when each request is due, and the request.
struct Schedule {
    due_s: Vec<f64>,
    requests: Vec<RunRequest>,
}

/// Whole cycles of `CYCLE` filling `seconds` at `RATE_PER_S`: one arrival
/// in each `1 / RATE_PER_S` slot, at an offset drawn from the workload
/// seed, as is its tenant. Exponential gaps at this utilisation, with 13
/// heavy sessions in a run, move the latency percentiles by a factor of
/// two from seed to seed; one arrival per slot keeps the rate exact and
/// the gaps between 0 and 2 slots.
fn schedule(seed: u64, train_seed: u64, seconds: f64) -> Schedule {
    let cycles = ((seconds * RATE_PER_S / CYCLE.len() as f64).round() as usize).max(1);
    // A different stream from the burst's, which uses `seed` itself.
    let mut rng = XorShift::new(seed ^ 0x6f70_656e_6c6f_6f70);
    let mut due_s = Vec::new();
    let mut requests = Vec::new();
    for i in 0..cycles * CYCLE.len() {
        due_s.push((i as f64 + rng.unit()) / RATE_PER_S);
        let code = CYCLE[i % CYCLE.len()];
        let priority = if i % PRIORITY_EVERY == PRIORITY_EVERY - 1 {
            3
        } else {
            0
        };
        requests.push(drive::request(
            &tenant(rng.below(TENANTS)),
            code,
            train_seed,
            EPOCHS,
            priority,
        ));
    }
    Schedule { due_s, requests }
}

/// `run_to_quality` results of every distinct request, by code: what the
/// server must hand back bit for bit.
type References = BTreeMap<&'static str, RunResult>;

fn distinct_codes() -> Vec<&'static str> {
    let mut codes = CYCLE.to_vec();
    codes.sort_unstable();
    codes.dedup();
    codes
}

/// What one closed burst measured.
struct Burst {
    wall_s: f64,
    ticks: u64,
    parks: u64,
    queue_wait_ticks_mean: f64,
    failed: u64,
}

fn run_burst(
    stack: &Stack,
    rec: &mut Recorder,
    requests: &[RunRequest],
    references: &References,
) -> Burst {
    let root = rec.enter("serve.burst", NO_SESSION);
    let start = Instant::now();
    let mut server = stack.server(BUDGET);
    let mut failed = 0;
    let mut accepted = 0;
    for request in requests {
        match server.submit(rec, request.clone()) {
            Some(_) => accepted += 1,
            None => failed += 1,
        }
    }
    let mut finished = 0;
    let mut queue_wait_ticks = 0;
    while !server.is_idle() {
        server.step(rec);
        let (_, done) = server.drain(rec);
        for msg in done {
            finished += 1;
            queue_wait_ticks += msg.queue_wait_ticks;
            if !drive::same_bits(&references[msg.result.code.as_str()], &msg.result) {
                failed += 1;
            }
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    rec.exit(root);
    Burst {
        wall_s,
        ticks: server.ticks(),
        parks: server.parks(),
        queue_wait_ticks_mean: queue_wait_ticks as f64 / finished.max(1) as f64,
        failed: failed + (accepted - finished),
    }
}

/// What the open loop measured.
#[derive(Default)]
struct OpenLoop {
    latency_ms: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    service_ms: Vec<f64>,
    tick_ms: Vec<f64>,
    /// How late the generator submitted a request, at worst.
    generator_lag_ms_max: f64,
    /// Sessions in the server when the last request had been submitted.
    backlog_end: u64,
    failed: u64,
}

fn run_open_loop(
    stack: &Stack,
    rec: &mut Recorder,
    schedule: &Schedule,
    references: &References,
) -> OpenLoop {
    let root = rec.enter("serve.open_loop", NO_SESSION);
    let mut out = OpenLoop::default();
    let mut server = stack.server(BUDGET);
    let total = schedule.requests.len();
    // Per server session id: index into the schedule, admission time.
    let mut index_of: BTreeMap<u64, usize> = BTreeMap::new();
    let mut admitted_s: BTreeMap<u64, f64> = BTreeMap::new();
    let mut next = 0;
    let mut finished = 0;
    let start = Instant::now();
    let deadline_s = schedule.due_s[total - 1] + DRAIN_GRACE.as_secs_f64();
    loop {
        let now_s = start.elapsed().as_secs_f64();
        while next < total && schedule.due_s[next] <= now_s {
            let lag_ms = (now_s - schedule.due_s[next]) * 1e3;
            out.generator_lag_ms_max = out.generator_lag_ms_max.max(lag_ms);
            match server.submit(rec, schedule.requests[next].clone()) {
                Some(id) => {
                    index_of.insert(id, next);
                }
                None => out.failed += 1,
            }
            next += 1;
            if next == total {
                out.backlog_end = (index_of.len() - finished) as u64;
            }
        }
        if server.is_idle() {
            if next == total {
                break;
            }
            let wait_s = schedule.due_s[next] - start.elapsed().as_secs_f64();
            if wait_s > 0.0 {
                std::thread::sleep(Duration::from_secs_f64(wait_s));
            }
            continue;
        }
        if now_s > deadline_s {
            break;
        }
        let (tick_s, ()) = timed(|| server.step(rec));
        out.tick_ms.push(tick_s * 1e3);
        let (events, done) = server.drain(rec);
        let drained_s = start.elapsed().as_secs_f64();
        for event in events {
            if matches!(event.event, Event::Admitted { .. }) {
                admitted_s.insert(event.session, drained_s);
            }
        }
        for msg in done {
            finished += 1;
            let due_s = schedule.due_s[index_of[&msg.session]];
            let admitted_s = admitted_s[&msg.session];
            out.latency_ms.push((drained_s - due_s) * 1e3);
            out.queue_wait_ms.push((admitted_s - due_s) * 1e3);
            out.service_ms.push((drained_s - admitted_s) * 1e3);
            if !drive::same_bits(&references[msg.result.code.as_str()], &msg.result) {
                out.failed += 1;
            }
        }
    }
    out.failed += (index_of.len() - finished) as u64;
    rec.exit(root);
    out
}

pub fn run(opts: &Opts) -> Report {
    let ((stack, references, requests, schedule), setup_s) = set_up(|| {
        let stack = Stack::new(1);
        let requests = burst(opts.seed, opts.train_seed, BURST_SESSIONS);
        let schedule = schedule(
            opts.seed,
            opts.train_seed,
            opts.seconds * (1.0 - BURST_SHARE),
        );
        // The warm-up: every distinct session once, then a small burst.
        let references: References = distinct_codes()
            .into_iter()
            .map(|code| (code, stack.plain(code, opts.train_seed, Some(EPOCHS))))
            .collect();
        let warm = burst(opts.seed, opts.train_seed, WARM_SESSIONS);
        run_burst(&stack, &mut Recorder::new(false), &warm, &references);
        (stack, references, requests, schedule)
    });

    let mut report = Report::new("serve_load", opts.trace);
    report.fingerprint = fingerprint(references.values());
    let mut rec = Recorder::new(opts.trace);
    let mut no_spans = Recorder::new(false);
    let trace_start = rec.clock_ns();
    let burst_seconds = opts.seconds * BURST_SHARE;
    let mut first_traced = None;
    // One closed burst, with spans inside it only if `traced`.
    let mut one_burst = |traced: bool, rec: &mut Recorder, report: &mut Report| {
        let burst = if traced {
            run_burst(&stack, rec, &requests, &references)
        } else {
            let root = rec.enter("serve.burst.untraced", NO_SESSION);
            let burst = run_burst(&stack, &mut no_spans, &requests, &references);
            rec.exit(root);
            burst
        };
        report.attempted += requests.len() as u64;
        report.failed += burst.failed;
        let wall_s = burst.wall_s;
        if traced {
            first_traced.get_or_insert(burst);
        }
        wall_s
    };

    if !opts.trace {
        // Half the bursts before the open loop and half after it, so a
        // slow few seconds of the machine cannot take all of them.
        let mut half = |report: &mut Report| {
            timed_passes(burst_seconds / 2.0, 2, || {
                one_burst(false, &mut rec, report)
            })
        };
        let mut burst_walls = half(&mut report);
        let open = run_open_loop(&stack, &mut Recorder::new(false), &schedule, &references);
        report.attempted += schedule.requests.len() as u64;
        report.failed += open.failed;
        burst_walls.extend(half(&mut report));
        let ttq_s = median(&burst_walls);
        push_end_to_end(
            &mut report,
            setup_s,
            ttq_s,
            requests.len(),
            &open.latency_ms,
        );
        report.push("passes", burst_walls.len() as f64, "count");
        return report;
    }

    // The distinct sessions stepped open: the training under the server.
    let root = rec.enter("serve_load.references", NO_SESSION);
    for (session, (&code, reference)) in references.iter().enumerate() {
        let result = stack.stepped(
            &mut rec,
            code,
            opts.train_seed,
            Some(EPOCHS),
            session as u64,
        );
        report.attempted += 1;
        report.failed += u64::from(!drive::same_bits(reference, &result));
    }
    rec.exit(root);
    push_training(&mut report, &rec, 1.0);

    // Phase A, untraced and traced bursts by turns.
    let before = drive::pool_stats();
    let (untraced_walls, traced_walls) = timed_pairs(burst_seconds, 2, |traced| {
        one_burst(traced, &mut rec, &mut report)
    });
    let pool = drive::pool_stats().delta(&before);
    let first = first_traced.expect("two traced bursts ran");
    let bursts = traced_walls.len() as f64;
    // Serially, outside the server: plain, and under bare supervision.
    let mut serial = |name: &'static str, run: &dyn Fn(&RunRequest) -> RunResult| {
        let span = rec.enter(name, NO_SESSION);
        let (seconds, ()) = timed(|| {
            for request in &requests {
                let result = run(request);
                report.attempted += 1;
                report.failed += u64::from(!drive::same_bits(
                    &references[request.code.as_str()],
                    &result,
                ));
            }
        });
        rec.exit(span);
        seconds
    };
    let plain_s = serial("serve.serial_plain", &|request| {
        stack.plain(&request.code, request.seed, Some(request.max_epochs))
    });
    let supervised_s = serial("serve.serial_supervised", &|request| {
        stack.serial_supervised(request)
    });
    let submits = (requests.len() as f64 * bursts).max(1.0);
    // The open loop's spans come later, so these totals are phase A's.
    report.push(
        "serve.submit_us",
        rec.total_s("serve.submit") * 1e6 / submits,
        "us",
    );
    report.push("serve.step_s", rec.total_s("serve.step") / bursts, "s");
    report.push(
        "serve.drain_us",
        rec.total_s("serve.drain") * 1e6 / rec.count("serve.drain").max(1) as f64,
        "us",
    );
    report.push("serve.ticks", first.ticks as f64, "count");
    report.push("serve.parks", first.parks as f64, "count");
    report.push(
        "serve.queue_wait_ticks_mean",
        first.queue_wait_ticks_mean,
        "ticks",
    );
    let burst_s = median(&traced_walls);
    report.push("serve.serial_plain_s", plain_s, "s");
    report.push("serve.serial_supervised_s", supervised_s, "s");
    // What is not training: the serve, fault and ckpt layers together.
    report.push("serve.overhead_share", 1.0 - plain_s / burst_s, "share");
    // The server alone, on top of the supervised loop it runs.
    report.push(
        "serve.scheduler_share",
        1.0 - supervised_s / burst_s,
        "share",
    );
    push_pool(&mut report, &pool);
    report.push(
        "trace.overhead_share",
        burst_s / median(&untraced_walls) - 1.0,
        "share",
    );

    // Phase B traced.
    let open = run_open_loop(&stack, &mut rec, &schedule, &references);
    report.attempted += schedule.requests.len() as u64;
    report.failed += open.failed;
    let tick_ms = sorted(&open.tick_ms);
    report.push("serve.tick_ms_p50", percentile(&tick_ms, 0.5), "ms");
    report.push("serve.tick_ms_p90", percentile(&tick_ms, 0.9), "ms");
    report.push(
        "serve.queue_wait_ms_p50",
        percentile(&sorted(&open.queue_wait_ms), 0.5),
        "ms",
    );
    report.push(
        "serve.service_ms_p50",
        percentile(&sorted(&open.service_ms), 0.5),
        "ms",
    );
    report.push(
        "serve.generator_lag_ms_max",
        open.generator_lag_ms_max,
        "ms",
    );
    report.push("serve.backlog_end", open.backlog_end as f64, "count");
    // Nothing here is killed or checkpointed to disk.
    report.push("ckpt.kills", 0.0, "count");
    report.push("ckpt.bytes_written", 0.0, "count");

    let mut tmp = TempDir::new();
    probes::run(&stack, &mut rec, opts.train_seed, &mut tmp, &mut report);
    finish_trace(&rec, trace_start, &mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(s: &Schedule) -> Vec<(u64, String, String, u8)> {
        s.due_s
            .iter()
            .zip(&s.requests)
            .map(|(due, r)| (due.to_bits(), r.tenant.clone(), r.code.clone(), r.priority))
            .collect()
    }

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        assert_eq!(shape(&schedule(5, 1, 12.0)), shape(&schedule(5, 1, 12.0)));
        assert_ne!(shape(&schedule(5, 1, 12.0)), shape(&schedule(6, 1, 12.0)));
    }

    #[test]
    fn schedule_holds_whole_cycles_at_the_fixed_rate() {
        let s = schedule(3, 1, 13.0);
        assert_eq!(s.requests.len(), 104);
        assert!(s.due_s.windows(2).all(|w| w[0] < w[1]));
        for (i, request) in s.requests.iter().enumerate() {
            assert_eq!(request.code, CYCLE[i % CYCLE.len()]);
            assert_eq!(request.max_epochs, EPOCHS);
            assert_eq!(request.seed, 1);
        }
        // One arrival in each eighth of a second.
        for (i, due_s) in s.due_s.iter().enumerate() {
            assert!((i as f64 / 8.0..=(i + 1) as f64 / 8.0).contains(due_s));
        }
    }

    #[test]
    fn burst_mixes_the_two_codes_evenly_with_one_urgent_in_97() {
        let b = burst(9, 1, 300);
        assert_eq!(b.len(), 300);
        assert_eq!(b.iter().filter(|r| r.code == "DC-AI-C16").count(), 150);
        let urgent = b.iter().filter(|r| r.priority == 3).count();
        assert!((3..=4).contains(&urgent), "{urgent}");
        let same: Vec<String> = burst(9, 1, 300).iter().map(|r| r.code.clone()).collect();
        assert_eq!(same, b.iter().map(|r| r.code.clone()).collect::<Vec<_>>());
    }
}
