//! The serving core: admission control against a bounded worker budget,
//! fair-share queueing across tenants, and priority preemption via park
//! snapshots.
//!
//! # Scheduling policy
//!
//! The server advances in discrete *ticks*. Each tick it (1) admits and
//! preempts until the schedule is stable, then (2) spends one supervised
//! epoch slot on every running session, in ascending session id.
//!
//! Admission picks the queued session with the highest priority; ties go
//! to the tenant with the least accumulated service (epoch slots consumed
//! so far), then to the earliest submission. A queued session whose
//! priority exceeds a running session's preempts it: the victim (lowest
//! priority, youngest submission last) is parked — snapshot saved through
//! `aibench-ckpt`, trainer dropped — and re-queued; when re-admitted it
//! resumes from that snapshot bitwise identically.
//!
//! # Determinism
//!
//! Every scheduling decision is a function of (tick, submission order,
//! priorities, accumulated service) — never wall-clock time or thread
//! timing. A fixed request trace therefore produces the identical
//! admission/preemption schedule ([`ServeReport::schedule_signature`])
//! and bitwise-identical per-session results at any `AIBENCH_THREADS`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use aibench::registry::Registry;
use aibench::runner::{RunConfig, RunResult};
use aibench_ckpt::{CheckpointSink, MemorySink};
use aibench_fault::{SupervisedSession, SupervisorConfig, Tick};

use crate::wire::{DoneMsg, Event, ProgressEvent, RunRequest};

/// Seeded scheduler defects. All off in production configurations; each
/// quirk reintroduces one scheduler bug, and the unit test pinning the
/// invariant it breaks also asserts that the quirk breaks it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Quirks {
    /// Ignore accumulated tenant service when breaking admission ties —
    /// plain FIFO, which lets one flooding tenant starve the rest.
    pub starve_fifo: bool,
    /// Drop the park snapshot right after parking a preemption victim, so
    /// the victim silently restarts from older state.
    pub lose_park_snapshot: bool,
    /// Admit this many sessions beyond the worker budget.
    pub overcommit_by: usize,
    /// Forget a disconnected client's buffered events and final result,
    /// so a reconnecting client cannot redeem its lease.
    pub drop_lease: bool,
    /// Ignore idempotency keys: every submit creates a fresh session even
    /// when `(tenant, submission)` was accepted before.
    pub duplicate_submission: bool,
    /// Ignore `max_queue`: admit submissions into an unbounded queue
    /// instead of shedding load.
    pub ignore_queue_bound: bool,
}

/// Server configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Worker budget: sessions running concurrently (admitted, not parked).
    pub budget: usize,
    /// Admission-queue bound: a submit arriving with this many sessions
    /// already queued is shed with a retryable `overloaded` rejection.
    /// `usize::MAX` (the default) never sheds.
    pub max_queue: usize,
    /// Supervision applied to every session.
    pub sup: SupervisorConfig,
    /// Seeded defects (all off by default).
    pub quirks: Quirks,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            budget: 2,
            max_queue: usize::MAX,
            sup: SupervisorConfig::default(),
            quirks: Quirks::default(),
        }
    }
}

/// One scheduling decision, stamped with its tick — the serve determinism
/// witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedAction {
    /// The request entered the queue.
    Arrive,
    /// The request was rejected at submission.
    Reject {
        /// Why.
        reason: String,
    },
    /// The session was admitted to a worker slot for the first time.
    Admit,
    /// The session was preempted and parked at this epoch.
    Park {
        /// Epoch of the park snapshot.
        at_epoch: usize,
    },
    /// The session was re-admitted, resuming from this epoch (`None`: no
    /// snapshot survived; restarted from scratch).
    Resume {
        /// Epoch resumed from.
        from_epoch: Option<usize>,
    },
    /// The session finished with this outcome signature.
    Finish {
        /// Outcome signature.
        outcome: String,
    },
}

impl SchedAction {
    fn signature(&self) -> String {
        match self {
            SchedAction::Arrive => "arrive".to_string(),
            SchedAction::Reject { .. } => "reject".to_string(),
            SchedAction::Admit => "admit".to_string(),
            SchedAction::Park { at_epoch } => format!("park@{at_epoch}"),
            SchedAction::Resume { from_epoch } => match from_epoch {
                Some(e) => format!("resume@{e}"),
                None => "resume@scratch".to_string(),
            },
            SchedAction::Finish { outcome } => format!("finish:{outcome}"),
        }
    }
}

/// One entry of the schedule log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedEvent {
    /// Scheduler tick of the decision.
    pub tick: u64,
    /// Session the decision applies to.
    pub session: u64,
    /// The decision.
    pub action: SchedAction,
}

/// Renders a schedule log as a compact deterministic signature,
/// `t0:s1:arrive;t0:s1:admit;…`.
pub fn schedule_signature(log: &[SchedEvent]) -> String {
    let mut out = String::new();
    for (i, e) in log.iter().enumerate() {
        if i > 0 {
            out.push(';');
        }
        let _ = write!(out, "t{}:s{}:{}", e.tick, e.session, e.action.signature());
    }
    out
}

/// Why a submission was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rejection {
    /// Human-readable reason (also recorded in the schedule log).
    pub reason: String,
    /// Whether retrying the same submission later can succeed (`true`
    /// for load shedding, `false` for validation errors).
    pub retryable: bool,
}

enum SessionState<'a> {
    /// Waiting for first admission; the trainer is not built yet, so a
    /// deep queue costs queue entries, not model memory.
    Queued,
    /// Admitted at least once (running if listed in `running`, otherwise
    /// parked awaiting re-admission). The sink is boxed so each session's
    /// store can be picked at admission time (in-memory by default, a
    /// chaos-wrapped sink under injection).
    Active(Box<SupervisedSession<'a, Box<dyn CheckpointSink>>>),
}

struct Served<'a> {
    request: RunRequest,
    arrived: u64,
    first_admit: Option<u64>,
    state: SessionState<'a>,
    emitted_faults: usize,
    /// Last progress seq handed out for this session (1-based stream).
    seq: u64,
    started: Instant,
}

/// Builds a session's checkpoint store at admission time.
type SinkFactory<'a> = Box<dyn FnMut(u64) -> Box<dyn CheckpointSink> + 'a>;

/// The deterministic serving core, transport-agnostic: `submit` requests,
/// `step` the scheduler, drain `events` and finished sessions. The TCP
/// listener and the in-process load harness both drive this same core.
pub struct ServerCore<'a> {
    registry: &'a Registry,
    config: ServeConfig,
    tick: u64,
    next_session: u64,
    sessions: BTreeMap<u64, Served<'a>>,
    /// Queued session ids (original submission order).
    pending: Vec<u64>,
    /// Running session ids (kept sorted).
    running: Vec<u64>,
    /// Epoch slots consumed per tenant — the fair-share accounting.
    tenant_service: BTreeMap<String, u64>,
    /// Accepted idempotency keys: `(tenant, submission) -> session`.
    /// Entries outlive their sessions so a retransmitted submit after
    /// finish still resolves instead of re-running.
    submissions: BTreeMap<(String, u64), u64>,
    sink_factory: Option<SinkFactory<'a>>,
    schedule: Vec<SchedEvent>,
    events: Vec<ProgressEvent>,
    finished: Vec<DoneMsg>,
}

impl<'a> ServerCore<'a> {
    /// A server over `registry` with the given budget and supervision.
    pub fn new(registry: &'a Registry, config: ServeConfig) -> Self {
        ServerCore {
            registry,
            config,
            tick: 0,
            next_session: 0,
            sessions: BTreeMap::new(),
            pending: Vec::new(),
            running: Vec::new(),
            tenant_service: BTreeMap::new(),
            submissions: BTreeMap::new(),
            sink_factory: None,
            schedule: Vec::new(),
            events: Vec::new(),
            finished: Vec::new(),
        }
    }

    /// Overrides the per-session checkpoint store (default: a private
    /// in-memory sink per session). The chaos harness wraps sinks here
    /// to inject torn writes, disk-full errors, and snapshot bit rot.
    pub fn set_sink_factory(&mut self, factory: impl FnMut(u64) -> Box<dyn CheckpointSink> + 'a) {
        self.sink_factory = Some(Box::new(factory));
    }

    /// Resolves an accepted idempotency key to its session id — the
    /// lease lookup a reconnecting client's transport performs.
    pub fn lookup_submission(&self, tenant: &str, submission: u64) -> Option<u64> {
        self.submissions
            .get(&(tenant.to_string(), submission))
            .copied()
    }

    /// Submits one request at the current tick. Admission control happens
    /// on the next [`step`](ServerCore::step); validation, idempotency
    /// resolution, and load shedding happen here. A retransmitted submit
    /// (same non-zero `(tenant, submission)` key as an accepted one)
    /// returns the existing session id without consuming a new one, so
    /// retries never perturb the schedule.
    pub fn submit(&mut self, request: RunRequest) -> Result<u64, Rejection> {
        if request.submission != 0 && !self.config.quirks.duplicate_submission {
            let key = (request.tenant.clone(), request.submission);
            if let Some(&existing) = self.submissions.get(&key) {
                return Ok(existing);
            }
        }
        let id = self.next_session;
        self.next_session += 1;
        let reason = if self.registry.get(&request.code).is_none() {
            Some(format!("unknown benchmark `{}`", request.code))
        } else if request.max_epochs == 0 {
            Some("max_epochs must be positive".to_string())
        } else {
            None
        };
        if let Some(reason) = reason {
            self.schedule.push(SchedEvent {
                tick: self.tick,
                session: id,
                action: SchedAction::Reject {
                    reason: reason.clone(),
                },
            });
            return Err(Rejection {
                reason,
                retryable: false,
            });
        }
        if self.pending.len() >= self.config.max_queue && !self.config.quirks.ignore_queue_bound {
            let reason = format!(
                "overloaded: {} session(s) queued (bound {})",
                self.pending.len(),
                self.config.max_queue
            );
            self.schedule.push(SchedEvent {
                tick: self.tick,
                session: id,
                action: SchedAction::Reject {
                    reason: reason.clone(),
                },
            });
            return Err(Rejection {
                reason,
                retryable: true,
            });
        }
        self.schedule.push(SchedEvent {
            tick: self.tick,
            session: id,
            action: SchedAction::Arrive,
        });
        if request.submission != 0 {
            self.submissions
                .insert((request.tenant.clone(), request.submission), id);
        }
        self.sessions.insert(
            id,
            Served {
                request,
                arrived: self.tick,
                first_admit: None,
                state: SessionState::Queued,
                emitted_faults: 0,
                seq: 0,
                started: Instant::now(),
            },
        );
        self.pending.push(id);
        Ok(id)
    }

    /// Advances the clock one tick without scheduling or training — the
    /// chaos `TickStall` injection point. Queue waits lengthen; no
    /// session state changes.
    pub fn stall_tick(&mut self) {
        self.tick += 1;
    }

    /// Whether all submitted work has finished.
    pub fn is_idle(&self) -> bool {
        self.pending.is_empty() && self.running.is_empty()
    }

    /// The current scheduler tick.
    pub fn tick_count(&self) -> u64 {
        self.tick
    }

    /// The schedule log so far.
    pub fn schedule_log(&self) -> &[SchedEvent] {
        &self.schedule
    }

    /// Drains progress events accumulated since the last drain.
    pub fn drain_events(&mut self) -> Vec<ProgressEvent> {
        std::mem::take(&mut self.events)
    }

    /// Drains sessions finished since the last drain.
    pub fn drain_finished(&mut self) -> Vec<DoneMsg> {
        std::mem::take(&mut self.finished)
    }

    /// The queued session the policy admits next, if any.
    fn best_pending(&self) -> Option<u64> {
        self.pending.iter().copied().min_by_key(|&id| {
            let s = &self.sessions[&id];
            let service = if self.config.quirks.starve_fifo {
                0
            } else {
                *self.tenant_service.get(&s.request.tenant).unwrap_or(&0)
            };
            // Highest priority first, then least-served tenant, then
            // submission order.
            (std::cmp::Reverse(s.request.priority), service, id)
        })
    }

    /// The running session preemption evicts first, if any: lowest
    /// priority, ties to the youngest submission.
    fn preemption_victim(&self) -> Option<u64> {
        self.running
            .iter()
            .copied()
            .min_by_key(|&id| (self.sessions[&id].request.priority, std::cmp::Reverse(id)))
    }

    fn admit(&mut self, id: u64) {
        self.pending.retain(|&p| p != id);
        self.running.push(id);
        self.running.sort_unstable();
        let tick = self.tick;
        let served = self
            .sessions
            .get_mut(&id)
            .expect("admitting unknown session");
        match &mut served.state {
            SessionState::Queued => {
                served.first_admit = Some(tick);
                let benchmark = self
                    .registry
                    .get(&served.request.code)
                    .expect("validated at submit");
                let config = RunConfig {
                    max_epochs: served.request.max_epochs,
                    eval_every: served.request.eval_every,
                    parallel: None,
                    checkpoint_every: 0,
                };
                let sink: Box<dyn CheckpointSink> = match &mut self.sink_factory {
                    Some(factory) => factory(id),
                    None => Box::new(MemorySink::new()),
                };
                served.state = SessionState::Active(Box::new(SupervisedSession::new(
                    benchmark,
                    served.request.seed,
                    config,
                    served.request.faults.clone(),
                    self.config.sup,
                    sink,
                )));
                self.schedule.push(SchedEvent {
                    tick,
                    session: id,
                    action: SchedAction::Admit,
                });
                served.seq += 1;
                self.events.push(ProgressEvent {
                    session: id,
                    seq: served.seq,
                    tick,
                    event: Event::Admitted { tick },
                });
            }
            SessionState::Active(session) => {
                let from_epoch = session.unpark();
                self.schedule.push(SchedEvent {
                    tick,
                    session: id,
                    action: SchedAction::Resume { from_epoch },
                });
                served.seq += 1;
                self.events.push(ProgressEvent {
                    session: id,
                    seq: served.seq,
                    tick,
                    event: Event::Resumed { from_epoch },
                });
            }
        }
    }

    fn park(&mut self, id: u64) {
        self.running.retain(|&r| r != id);
        let tick = self.tick;
        let lose = self.config.quirks.lose_park_snapshot;
        let served = self.sessions.get_mut(&id).expect("parking unknown session");
        let SessionState::Active(session) = &mut served.state else {
            unreachable!("only active sessions run");
        };
        let at_epoch = match session.park() {
            Ok(epoch) => epoch,
            // The park save failed (a chaos store fault). Park anyway:
            // the session resumes from the newest older rollback
            // snapshot — or scratch — and re-runs the gap, which the
            // rollback contract makes bitwise-neutral.
            Err(_) => session.park_without_snapshot(),
        };
        if lose {
            session.sink_mut().remove(at_epoch);
        }
        self.schedule.push(SchedEvent {
            tick,
            session: id,
            action: SchedAction::Park { at_epoch },
        });
        served.seq += 1;
        self.events.push(ProgressEvent {
            session: id,
            seq: served.seq,
            tick,
            event: Event::Parked { at_epoch },
        });
        // Re-queue preserving original submission order, so fair-share
        // and FIFO tie-breaks see the session's true age.
        self.pending.push(id);
        self.pending.sort_unstable();
    }

    /// Admission + preemption to a fixed point for the current tick.
    fn schedule_tick(&mut self) {
        let capacity = self.config.budget + self.config.quirks.overcommit_by;
        while let Some(best) = self.best_pending() {
            if self.running.len() < capacity {
                self.admit(best);
                continue;
            }
            let Some(victim) = self.preemption_victim() else {
                break;
            };
            let best_priority = self.sessions[&best].request.priority;
            let victim_priority = self.sessions[&victim].request.priority;
            if best_priority > victim_priority {
                self.park(victim);
                self.admit(best);
                continue;
            }
            break;
        }
    }

    /// Advances the server one tick: schedules, then spends one supervised
    /// epoch slot on every running session (ascending id).
    pub fn step(&mut self) {
        self.schedule_tick();
        let ids: Vec<u64> = self.running.clone();
        for id in ids {
            let tick = self.tick;
            let served = self.sessions.get_mut(&id).expect("running unknown session");
            let SessionState::Active(session) = &mut served.state else {
                unreachable!("only active sessions run");
            };
            let outcome = session.tick();
            // Stream any faults the tick surfaced before the tick's own
            // event, preserving detection order.
            for fault in &session.faults()[served.emitted_faults..] {
                served.seq += 1;
                self.events.push(ProgressEvent {
                    session: id,
                    seq: served.seq,
                    tick,
                    event: Event::Fault {
                        signature: fault.signature(),
                    },
                });
            }
            served.emitted_faults = session.faults().len();
            self.tenant_service
                .entry(served.request.tenant.clone())
                .and_modify(|s| *s += 1)
                .or_insert(1);
            match outcome {
                Tick::Progressed {
                    epoch,
                    loss,
                    quality,
                } => {
                    served.seq += 1;
                    self.events.push(ProgressEvent {
                        session: id,
                        seq: served.seq,
                        tick,
                        event: Event::Epoch {
                            epoch,
                            loss,
                            quality,
                        },
                    });
                }
                Tick::Recovering => {}
                Tick::Done => {}
            }
            if session.finished() {
                self.finish(id);
            }
        }
        self.tick += 1;
    }

    fn finish(&mut self, id: u64) {
        self.running.retain(|&r| r != id);
        let served = self
            .sessions
            .remove(&id)
            .expect("finishing unknown session");
        let SessionState::Active(session) = served.state else {
            unreachable!("only active sessions finish");
        };
        let run = session.into_run();
        self.schedule.push(SchedEvent {
            tick: self.tick,
            session: id,
            action: SchedAction::Finish {
                outcome: run.outcome.signature(),
            },
        });
        let queue_wait_ticks =
            served.first_admit.expect("finished implies admitted") - served.arrived;
        let fault_signature = run.fault_signature();
        let mut result = run.result;
        // The session's own clock started at first admission; the tenant
        // experienced the queue wait too, so report end-to-end wall time.
        result.wall_seconds = served.started.elapsed().as_secs_f64();
        self.finished.push(DoneMsg {
            session: id,
            outcome_signature: run.outcome.signature(),
            fault_signature,
            result,
            queue_wait_ticks,
            epochs_executed: run.epochs_executed,
            recoveries: run.recoveries,
        });
    }
}

/// One session's record in a [`ServeReport`].
#[derive(Debug, Clone)]
pub struct SessionResult {
    /// Server-assigned session id.
    pub session: u64,
    /// Tenant that submitted it.
    pub tenant: String,
    /// The final record as the client received it.
    pub done: DoneMsg,
}

/// The outcome of replaying one request trace through a server.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Per-session results, in session-id order.
    pub sessions: Vec<SessionResult>,
    /// The full schedule log.
    pub schedule: Vec<SchedEvent>,
    /// Ticks the trace took to drain.
    pub ticks: u64,
    /// Wall-clock seconds for the whole replay.
    pub wall_seconds: f64,
}

impl ServeReport {
    /// The deterministic schedule signature.
    pub fn schedule_signature(&self) -> String {
        schedule_signature(&self.schedule)
    }

    /// Whether two replays are indistinguishable where determinism is
    /// promised: identical schedules and bitwise-identical per-session
    /// results. Wall time is excluded.
    pub fn deterministic_eq(&self, other: &ServeReport) -> bool {
        self.schedule_signature() == other.schedule_signature()
            && self.ticks == other.ticks
            && self.sessions.len() == other.sessions.len()
            && self.sessions.iter().zip(&other.sessions).all(|(a, b)| {
                a.session == b.session
                    && a.tenant == b.tenant
                    && a.done.outcome_signature == b.done.outcome_signature
                    && a.done.fault_signature == b.done.fault_signature
                    && a.done.queue_wait_ticks == b.done.queue_wait_ticks
                    && a.done.epochs_executed == b.done.epochs_executed
                    && a.done.recoveries == b.done.recoveries
                    && a.done.result.deterministic_eq(&b.done.result)
            })
    }
}

/// Replays a request trace — `(arrival_tick, request)` pairs, in arrival
/// order — through a fresh server and runs it to idle. The fixed trace is
/// the serve determinism contract's input: same trace ⇒ same report
/// ([`ServeReport::deterministic_eq`]) at any thread count.
pub fn run_trace(
    registry: &Registry,
    config: ServeConfig,
    trace: &[(u64, RunRequest)],
) -> ServeReport {
    let start = Instant::now();
    let mut server = ServerCore::new(registry, config);
    let mut next = 0usize;
    let mut results: BTreeMap<u64, SessionResult> = BTreeMap::new();
    while next < trace.len() || !server.is_idle() {
        while next < trace.len() && trace[next].0 <= server.tick_count() {
            let request = trace[next].1.clone();
            let tenant = request.tenant.clone();
            if let Ok(id) = server.submit(request) {
                results.insert(
                    id,
                    SessionResult {
                        session: id,
                        tenant: tenant.clone(),
                        done: DoneMsg {
                            session: id,
                            outcome_signature: String::new(),
                            fault_signature: String::new(),
                            result: placeholder_result(),
                            queue_wait_ticks: 0,
                            epochs_executed: 0,
                            recoveries: 0,
                        },
                    },
                );
            }
            next += 1;
        }
        server.step();
        for done in server.drain_finished() {
            let entry = results.get_mut(&done.session).expect("unknown session");
            entry.done = done;
        }
    }
    ServeReport {
        sessions: results.into_values().collect(),
        schedule: server.schedule.clone(),
        ticks: server.tick,
        wall_seconds: start.elapsed().as_secs_f64(),
    }
}

fn placeholder_result() -> RunResult {
    RunResult {
        code: String::new(),
        seed: 0,
        epochs_run: 0,
        epochs_to_target: None,
        quality_trace: Vec::new(),
        loss_trace: Vec::new(),
        final_quality: f64::NAN,
        wall_seconds: 0.0,
        resumed_from: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aibench_fault::{FaultKind, FaultSchedule};

    const PROBE: &str = "DC-AI-C15";

    #[test]
    fn trace_replay_is_deterministic() {
        let registry = Registry::aibench();
        let trace: Vec<(u64, RunRequest)> = vec![
            (0, RunRequest::new("a", PROBE, 1, 3)),
            (0, RunRequest::new("b", PROBE, 2, 3)),
            (1, RunRequest::new("a", PROBE, 3, 2)),
        ];
        let one = run_trace(&registry, ServeConfig::default(), &trace);
        let two = run_trace(&registry, ServeConfig::default(), &trace);
        assert!(one.deterministic_eq(&two));
        assert_eq!(one.sessions.len(), 3);
        assert!(one
            .sessions
            .iter()
            .all(|s| s.done.outcome_signature == "converged"
                || s.done.outcome_signature == "missed-target"));
    }

    #[test]
    fn budget_bounds_concurrency() {
        let registry = Registry::aibench();
        let trace: Vec<(u64, RunRequest)> = (0..5)
            .map(|i| (0u64, RunRequest::new("t", PROBE, i + 1, 2)))
            .collect();
        let max_running = |quirks: Quirks| {
            let config = ServeConfig {
                budget: 2,
                quirks,
                ..ServeConfig::default()
            };
            let report = run_trace(&registry, config, &trace);
            // Replay the schedule log counting concurrently running sessions.
            let mut running = 0usize;
            let mut max_running = 0usize;
            for e in &report.schedule {
                match e.action {
                    SchedAction::Admit | SchedAction::Resume { .. } => running += 1,
                    SchedAction::Park { .. } | SchedAction::Finish { .. } => running -= 1,
                    _ => {}
                }
                max_running = max_running.max(running);
            }
            max_running
        };
        // Concurrency never exceeds the budget...
        assert_eq!(max_running(Quirks::default()), 2);
        // ...unless the scheduler overcommits.
        let overcommit = Quirks {
            overcommit_by: 1,
            ..Quirks::default()
        };
        assert_eq!(max_running(overcommit), 3);
    }

    #[test]
    fn fair_share_interleaves_tenants() {
        let registry = Registry::aibench();
        // Tenant a floods; tenant b submits one request at `b_arrives`.
        // Returns b's (session 4's) place in the admission order.
        let b_position = |b_arrives: u64, quirks: Quirks| {
            let mut trace: Vec<(u64, RunRequest)> = (0..4)
                .map(|i| (0u64, RunRequest::new("a", PROBE, i + 1, 2)))
                .collect();
            trace.push((b_arrives, RunRequest::new("b", PROBE, 9, 2)));
            let config = ServeConfig {
                budget: 1,
                quirks,
                ..ServeConfig::default()
            };
            let report = run_trace(&registry, config, &trace);
            let admits: Vec<u64> = report
                .schedule
                .iter()
                .filter(|e| matches!(e.action, SchedAction::Admit))
                .map(|e| e.session)
                .collect();
            (admits.iter().position(|&s| s == 4).unwrap(), admits)
        };
        let fifo = Quirks {
            starve_fifo: true,
            ..Quirks::default()
        };
        // Arriving with the flood or a moment after it, b must be admitted
        // before a's second session: once a has been served at all, b's
        // zero service wins the tie. Plain FIFO lets a's whole queue go
        // first.
        for b_arrives in [0, 1] {
            let (b_pos, admits) = b_position(b_arrives, Quirks::default());
            assert_eq!(
                b_pos, 1,
                "b at tick {b_arrives}: admission order {admits:?}"
            );
            let (b_pos, admits) = b_position(b_arrives, fifo);
            assert_ne!(b_pos, 1, "starve_fifo at tick {b_arrives}: {admits:?}");
        }
    }

    #[test]
    fn priority_preempts_and_resumes_bitwise() {
        let registry = Registry::aibench();
        // Low-priority long run, then a high-priority arrival preempts it.
        let trace: Vec<(u64, RunRequest)> = vec![
            (0, RunRequest::new("low", PROBE, 1, 4)),
            (2, RunRequest::new("high", PROBE, 2, 2).with_priority(5)),
        ];
        let config = ServeConfig {
            budget: 1,
            ..ServeConfig::default()
        };
        let report = run_trace(&registry, config, &trace);
        let sig = report.schedule_signature();
        assert!(sig.contains("s0:park@"), "schedule: {sig}");
        assert!(sig.contains("s0:resume@"), "schedule: {sig}");
        // The preempted session's result is bitwise identical to running
        // it alone.
        let solo = run_trace(
            &registry,
            ServeConfig::default(),
            &[(0, RunRequest::new("low", PROBE, 1, 4))],
        );
        assert!(report.sessions[0]
            .done
            .result
            .deterministic_eq(&solo.sessions[0].done.result));
        // Every resume restores exactly the matching park epoch.
        assert_parks_match_resumes(&report.schedule);
    }

    #[test]
    fn faulty_session_is_isolated_from_clean_neighbors() {
        let registry = Registry::aibench();
        let poisoned =
            FaultSchedule::new(3).inject_persistent(1, FaultKind::LossValue { value: f32::NAN });
        let trace: Vec<(u64, RunRequest)> = vec![
            (
                0,
                RunRequest::new("chaos", PROBE, 1, 6).with_faults(poisoned),
            ),
            (0, RunRequest::new("calm", PROBE, 2, 3)),
        ];
        let report = run_trace(&registry, ServeConfig::default(), &trace);
        assert!(report.sessions[0]
            .done
            .outcome_signature
            .starts_with("quarantined"));
        // The clean tenant's run matches a solo replay bit for bit.
        let solo = run_trace(
            &registry,
            ServeConfig::default(),
            &[(0, RunRequest::new("calm", PROBE, 2, 3))],
        );
        assert_eq!(report.sessions[1].done.fault_signature, "clean");
        assert!(report.sessions[1]
            .done
            .result
            .deterministic_eq(&solo.sessions[0].done.result));
    }

    /// A session that degrades to one thread does so in its own execution
    /// context: the caller's thread count holds across every tick, and a
    /// clean session ticked beside it keeps its solo bits.
    #[test]
    fn a_degraded_session_leaves_its_neighbors_and_the_caller_alone() {
        let registry = Registry::aibench();
        let calm = RunRequest::new("calm", PROBE, 2, 3);
        let solo = run_trace(&registry, ServeConfig::default(), &[(0, calm.clone())]);
        let panicking = FaultSchedule::new(6).inject(2, FaultKind::KernelPanic);
        let faulty = RunRequest::new("faulty", PROBE, 1, 3).with_faults(panicking);
        aibench_parallel::Exec::current().with_threads(4).run(|| {
            let mut server = ServerCore::new(&registry, ServeConfig::default());
            for request in [faulty, calm] {
                server.submit(request).expect("accepted");
            }
            let mut done = Vec::new();
            while !server.is_idle() {
                server.step();
                assert_eq!(aibench_parallel::threads(), 4, "tick {}", server.tick);
                done.extend(server.drain_finished());
            }
            done.sort_by_key(|d| d.session);
            assert!(done[0].fault_signature.contains("rollback-serial"));
            assert_eq!(done[1].fault_signature, "clean");
            assert!(done[1]
                .result
                .deterministic_eq(&solo.sessions[0].done.result));
        });
    }

    #[test]
    fn rejects_are_logged_and_returned() {
        let registry = Registry::aibench();
        let mut server = ServerCore::new(&registry, ServeConfig::default());
        let err = server
            .submit(RunRequest::new("t", "NO-SUCH", 1, 2))
            .unwrap_err();
        assert!(err.reason.contains("unknown benchmark"));
        let err = server
            .submit(RunRequest::new("t", PROBE, 1, 0))
            .unwrap_err();
        assert!(err.reason.contains("max_epochs"));
        assert_eq!(server.schedule_log().len(), 2);
        assert!(server.is_idle());
    }

    #[test]
    fn duplicate_submission_attaches_to_the_existing_session() {
        let registry = Registry::aibench();
        let mut server = ServerCore::new(&registry, ServeConfig::default());
        let submit = || RunRequest::new("t", PROBE, 1, 2).with_submission(7);
        let first = server.submit(submit()).unwrap();
        let dup = server.submit(submit()).unwrap();
        assert_eq!(first, dup);
        assert_eq!(server.lookup_submission("t", 7), Some(first));
        // A different tenant reusing the key is a distinct session.
        let other = server
            .submit(RunRequest::new("u", PROBE, 1, 2).with_submission(7))
            .unwrap();
        assert_ne!(first, other);
        // The retransmit consumed no session id and left no schedule
        // trace: two arrivals only.
        let arrivals = server
            .schedule_log()
            .iter()
            .filter(|e| matches!(e.action, SchedAction::Arrive))
            .count();
        assert_eq!(arrivals, 2);
        // The key still resolves after the session finishes.
        while !server.is_idle() {
            server.step();
        }
        assert_eq!(server.submit(submit()).unwrap(), first);

        // A server ignoring idempotency keys opens a second session.
        let config = ServeConfig {
            quirks: Quirks {
                duplicate_submission: true,
                ..Quirks::default()
            },
            ..ServeConfig::default()
        };
        let mut server = ServerCore::new(&registry, config);
        let first = server.submit(submit()).unwrap();
        let dup = server.submit(submit()).unwrap();
        assert_ne!(first, dup, "the quirk must duplicate the session");
    }

    #[test]
    fn bounded_queue_sheds_load_with_a_retryable_rejection() {
        let registry = Registry::aibench();
        let config = ServeConfig {
            budget: 1,
            max_queue: 2,
            ..ServeConfig::default()
        };
        let mut server = ServerCore::new(&registry, config);
        for i in 0..2 {
            server
                .submit(RunRequest::new("t", PROBE, i + 1, 2))
                .unwrap();
        }
        let err = server
            .submit(RunRequest::new("t", PROBE, 9, 2))
            .unwrap_err();
        assert!(err.retryable);
        assert!(err.reason.contains("overloaded"));
        // Validation failures stay non-retryable.
        let err = server
            .submit(RunRequest::new("t", "NO-SUCH", 1, 2))
            .unwrap_err();
        assert!(!err.retryable);
        // Draining the queue lets a retry through.
        while !server.is_idle() {
            server.step();
        }
        assert!(server.submit(RunRequest::new("t", PROBE, 9, 2)).is_ok());

        // A server ignoring its bound queues the third submit instead.
        let config = ServeConfig {
            quirks: Quirks {
                ignore_queue_bound: true,
                ..Quirks::default()
            },
            ..config
        };
        let mut server = ServerCore::new(&registry, config);
        for i in 0..2 {
            server
                .submit(RunRequest::new("t", PROBE, i + 1, 2))
                .unwrap();
        }
        assert!(
            server.submit(RunRequest::new("t", PROBE, 9, 2)).is_ok(),
            "the quirk must accept past the bound"
        );
    }

    #[test]
    fn stall_ticks_lengthen_queue_waits_only() {
        let registry = Registry::aibench();
        let mut server = ServerCore::new(&registry, ServeConfig::default());
        server.stall_tick();
        server.stall_tick();
        let id = server.submit(RunRequest::new("t", PROBE, 1, 2)).unwrap();
        while !server.is_idle() {
            server.step();
        }
        let done = server.drain_finished();
        assert_eq!(done[0].session, id);
        assert_eq!(done[0].queue_wait_ticks, 0);
        assert_eq!(done[0].result.epochs_run, 2);
    }

    #[test]
    fn progress_events_carry_a_dense_per_session_seq() {
        let registry = Registry::aibench();
        let mut server = ServerCore::new(&registry, ServeConfig::default());
        let a = server.submit(RunRequest::new("t", PROBE, 1, 3)).unwrap();
        let b = server.submit(RunRequest::new("t", PROBE, 2, 2)).unwrap();
        while !server.is_idle() {
            server.step();
        }
        let events = server.drain_events();
        for id in [a, b] {
            let seqs: Vec<u64> = events
                .iter()
                .filter(|e| e.session == id)
                .map(|e| e.seq)
                .collect();
            let expected: Vec<u64> = (1..=seqs.len() as u64).collect();
            assert_eq!(seqs, expected, "session {id}");
        }
    }

    /// Shared helper: every `Resume` must restore the epoch of that
    /// session's most recent `Park` — the lost-park-snapshot invariant.
    pub(crate) fn assert_parks_match_resumes(log: &[SchedEvent]) {
        let mut last_park: BTreeMap<u64, usize> = BTreeMap::new();
        for e in log {
            match &e.action {
                SchedAction::Park { at_epoch } => {
                    last_park.insert(e.session, *at_epoch);
                }
                SchedAction::Resume { from_epoch } => {
                    let parked = last_park.get(&e.session).copied();
                    assert_eq!(
                        *from_epoch, parked,
                        "session {} resumed from {:?} but parked at {:?}",
                        e.session, from_epoch, parked
                    );
                }
                _ => {}
            }
        }
    }

    #[test]
    fn lost_snapshot_quirk_breaks_the_park_resume_invariant() {
        let registry = Registry::aibench();
        let trace: Vec<(u64, RunRequest)> = vec![
            (0, RunRequest::new("low", PROBE, 1, 4)),
            (2, RunRequest::new("high", PROBE, 2, 2).with_priority(5)),
        ];
        let config = ServeConfig {
            budget: 1,
            quirks: Quirks {
                lose_park_snapshot: true,
                ..Quirks::default()
            },
            ..ServeConfig::default()
        };
        let report = run_trace(&registry, config, &trace);
        let mut violated = false;
        let mut last_park: BTreeMap<u64, usize> = BTreeMap::new();
        for e in &report.schedule {
            match &e.action {
                SchedAction::Park { at_epoch } => {
                    last_park.insert(e.session, *at_epoch);
                }
                SchedAction::Resume { from_epoch }
                    if *from_epoch != last_park.get(&e.session).copied() =>
                {
                    violated = true;
                }
                _ => {}
            }
        }
        assert!(
            violated,
            "quirk must break the invariant: {}",
            report.schedule_signature()
        );
    }
}
