//! The chaos soak: an in-process client/server harness that drives a real
//! [`ServerCore`] through real wire bytes while a [`ChaosSchedule`]
//! perturbs every layer — and the hardening absorbs all of it.
//!
//! # Fidelity
//!
//! The simulated wire carries the exact frame payloads the TCP transport
//! would ([`ClientMsg::to_bytes`] / [`ServerMsg::to_bytes`]), so a
//! bit-flip here exercises the same CRC rejection path a hostile network
//! would hit. Clients run the same protocol as `aibench_serve::tcp`'s
//! blocking client: idempotent submits retried under exponential backoff,
//! seq-deduplicated progress streams, and lease-redeeming reconnects.
//!
//! # Determinism
//!
//! Everything is keyed on logical counters: wire injections on
//! direction-global frame indices, store injections on the global save-op
//! index, server injections on the scheduler tick. Each round the engine
//! (1) lets clients act in ascending index, (2) delivers due
//! client→server frames in insertion order, (3) applies server chaos and
//! steps the core, (4) forwards progress, (5) delivers due server→client
//! frames. No wall clock anywhere ⇒ the same seed replays the identical
//! chaos-event log and per-session results at any `AIBENCH_THREADS`.
//!
//! # Result invariance
//!
//! Provided requests carry no injected *training* faults, every accepted
//! session's final [`RunResult`] is bitwise identical to its chaos-free
//! counterpart: retransmits attach to the original session, replayed
//! progress is deduplicated by seq, and store chaos only costs snapshot
//! durability (deterministic training makes a resume-from-older-state or
//! restart-from-scratch re-run the identical trajectory).
//!
//! [`RunResult`]: aibench::runner::RunResult

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use aibench::registry::Registry;
use aibench_ckpt::{CheckpointSink, MemorySink};
use aibench_serve::wire::{ClientMsg, DoneMsg, RunRequest, ServerMsg};
use aibench_serve::{schedule_signature, SchedEvent, ServeConfig, ServerCore};

use crate::log::{chaos_signature, ChaosEvent};
use crate::schedule::{ChaosKind, ChaosSchedule, ChaosSite};
use crate::sink::{ChaosSink, StoreChaos};

/// Ticks a client waits for `Accepted` before retransmitting its submit.
const ACCEPT_TIMEOUT: u64 = 40;

/// Exponential client backoff in ticks: 2, 4, 8, … capped at 64.
fn backoff_ticks(attempt: u32) -> u64 {
    2u64 << attempt.min(5)
}

/// Soak harness configuration.
#[derive(Debug, Clone, Copy)]
pub struct SoakConfig {
    /// The serving configuration under test.
    pub serve: ServeConfig,
    /// Watchdog: the soak panics past this tick (a liveness bug, not a
    /// legitimate outcome).
    pub max_ticks: u64,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            serve: ServeConfig::default(),
            max_ticks: 100_000,
        }
    }
}

/// One client's final outcome.
#[derive(Debug, Clone)]
pub struct SoakOutcome {
    /// Client index (submission order).
    pub client: usize,
    /// Tenant of the request.
    pub tenant: String,
    /// Idempotency key the soak submitted under (never 0).
    pub submission: u64,
    /// The final record, if the session completed.
    pub done: Option<DoneMsg>,
    /// Terminal failure reason (non-retryable rejection), if any.
    pub failure: Option<String>,
}

/// The outcome of one chaos soak.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Per-client outcomes, in client order.
    pub outcomes: Vec<SoakOutcome>,
    /// Every injection that fired, in fire order (the determinism witness).
    pub chaos_log: Vec<ChaosEvent>,
    /// The core's schedule log.
    pub schedule: Vec<SchedEvent>,
    /// Ticks the soak took.
    pub ticks: u64,
    /// Submit retransmissions (timeouts, dead connections, shed retries).
    pub retries: u64,
    /// Lease-redeeming reconnects performed.
    pub reconnects: u64,
    /// Buffered events replayed to retransmitting/reconnecting clients.
    pub redeliveries: u64,
    /// Duplicate progress frames dropped by seq deduplication.
    pub duplicates_dropped: u64,
    /// Retryable `overloaded` rejections clients absorbed.
    pub sheds: u64,
    /// Reconnects that found no lease (only under the `drop_lease` quirk).
    pub lease_misses: u64,
}

impl ChaosReport {
    /// The chaos-event log signature (`calm` when nothing fired).
    pub fn chaos_signature(&self) -> String {
        chaos_signature(&self.chaos_log)
    }

    /// The core's deterministic schedule signature.
    pub fn schedule_signature(&self) -> String {
        schedule_signature(&self.schedule)
    }

    /// Completed sessions keyed by `(tenant, submission)` — the shape the
    /// result-invariance comparison wants.
    pub fn results(&self) -> BTreeMap<(String, u64), &DoneMsg> {
        self.outcomes
            .iter()
            .filter_map(|o| {
                o.done
                    .as_ref()
                    .map(|d| ((o.tenant.clone(), o.submission), d))
            })
            .collect()
    }

    /// Whether two soaks are indistinguishable where determinism is
    /// promised: identical chaos logs, schedules, tick counts, recovery
    /// traffic, and bitwise-identical per-client results.
    pub fn deterministic_eq(&self, other: &ChaosReport) -> bool {
        self.chaos_signature() == other.chaos_signature()
            && self.schedule_signature() == other.schedule_signature()
            && self.ticks == other.ticks
            && self.retries == other.retries
            && self.reconnects == other.reconnects
            && self.redeliveries == other.redeliveries
            && self.duplicates_dropped == other.duplicates_dropped
            && self.sheds == other.sheds
            && self.lease_misses == other.lease_misses
            && self.outcomes.len() == other.outcomes.len()
            && self.outcomes.iter().zip(&other.outcomes).all(|(a, b)| {
                a.tenant == b.tenant
                    && a.submission == b.submission
                    && a.failure == b.failure
                    && match (&a.done, &b.done) {
                        (None, None) => true,
                        (Some(x), Some(y)) => {
                            x.outcome_signature == y.outcome_signature
                                && x.fault_signature == y.fault_signature
                                && x.queue_wait_ticks == y.queue_wait_ticks
                                && x.epochs_executed == y.epochs_executed
                                && x.recoveries == y.recoveries
                                && x.result.deterministic_eq(&y.result)
                        }
                        _ => false,
                    }
            })
    }
}

/// Client protocol phase.
enum Phase {
    /// Not yet submitted.
    Idle,
    /// Submit (or reconnect) sent; waiting for `Accepted`.
    AwaitAccept {
        /// Tick the frame was sent at (drives the retransmit timeout).
        sent_at: u64,
    },
    /// Accepted; consuming the progress stream.
    Streaming,
    /// Connection died or submission was shed; waiting out the backoff.
    Backoff {
        /// Tick the client retries at.
        until: u64,
    },
    /// Done or Failed — terminal.
    Finished,
}

struct Client {
    request: RunRequest,
    phase: Phase,
    /// Retry attempt counter; resets on a successful accept.
    attempt: u32,
    /// Last progress seq seen — the dedupe/replay cursor.
    last_seq: u64,
    /// Whether the server ever accepted this submission (decides
    /// retransmit-vs-reconnect after a dead connection).
    accepted: bool,
    /// Whether the current connection is usable.
    alive: bool,
    /// Connection generation: frames from a dead generation never deliver.
    gen: u32,
    done: Option<DoneMsg>,
    failure: Option<String>,
}

/// What arrives at the far end of the simulated wire.
enum Payload {
    /// Frame bytes (possibly corrupted or truncated by chaos).
    Data(Vec<u8>),
    /// The connection reset. Delivered in order, so frames sent before
    /// the reset still arrive — exactly as a TCP stream would behave.
    Hangup,
}

/// One simulated in-flight frame.
struct Frame {
    /// The client whose connection carries it.
    client: usize,
    /// Connection generation the frame belongs to.
    gen: u32,
    /// Tick the frame becomes deliverable.
    deliver_at: u64,
    payload: Payload,
}

fn take_due(queue: &mut Vec<Frame>, now: u64) -> Vec<Frame> {
    let mut due = Vec::new();
    let mut rest = Vec::new();
    for f in queue.drain(..) {
        if f.deliver_at <= now {
            due.push(f);
        } else {
            rest.push(f);
        }
    }
    *queue = rest;
    due
}

struct Soak<'a> {
    core: ServerCore<'a>,
    chaos: &'a ChaosSchedule,
    store: Rc<RefCell<StoreChaos>>,
    drop_lease: bool,
    clients: Vec<Client>,
    c2s: Vec<Frame>,
    s2c: Vec<Frame>,
    c2s_sent: u64,
    s2c_sent: u64,
    /// Per-session buffered server messages — the lease.
    history: BTreeMap<u64, Vec<ServerMsg>>,
    /// Sessions whose lease the `drop_lease` quirk destroyed: buffering
    /// stops for good, so a reconnect can never be made whole.
    dropped_leases: std::collections::BTreeSet<u64>,
    session_client: BTreeMap<u64, usize>,
    client_session: Vec<Option<u64>>,
    chaos_log: Vec<ChaosEvent>,
    retries: u64,
    reconnects: u64,
    redeliveries: u64,
    duplicates_dropped: u64,
    sheds: u64,
    lease_misses: u64,
}

impl<'a> Soak<'a> {
    fn session_of(&self, client: usize) -> u64 {
        self.client_session[client].unwrap_or(0)
    }

    fn kill_conn(&mut self, client: usize) {
        self.clients[client].alive = false;
        if self.drop_lease {
            // The quirk under lint: the server forgets the disconnected
            // client's buffered events and result.
            if let Some(id) = self.client_session[client] {
                self.history.remove(&id);
                self.dropped_leases.insert(id);
            }
        }
    }

    /// Sends one client→server frame, applying due wire chaos.
    fn send_c2s(&mut self, client: usize, msg: &ClientMsg) {
        let bytes = msg.to_bytes();
        let deliver_at = self.core.tick_count();
        self.send_wire(ChaosSite::ClientToServer, client, bytes, deliver_at);
    }

    /// Sends one server→client frame, applying due wire chaos plus any
    /// slow-write delay active this tick.
    fn send_s2c(&mut self, client: usize, msg: &ServerMsg, slow: u64) {
        if !self.clients[client].alive {
            return;
        }
        let bytes = msg.to_bytes();
        let deliver_at = self.core.tick_count() + slow;
        self.send_wire(ChaosSite::ServerToClient, client, bytes, deliver_at);
    }

    /// The shared wire path: count the direction-global frame index,
    /// apply due injections, enqueue the (possibly perturbed) frame. A
    /// reset is enqueued as an in-order hangup, so frames sent before it
    /// still deliver — the stream semantics a real socket has.
    fn send_wire(&mut self, site: ChaosSite, client: usize, mut payload: Vec<u8>, at: u64) {
        let counter = match site {
            ChaosSite::ClientToServer => &mut self.c2s_sent,
            _ => &mut self.s2c_sent,
        };
        let idx = *counter;
        *counter += 1;
        let mut deliver_at = at;
        let mut copies = 1usize;
        let mut drop_data = false;
        let mut hangup = false;
        let due: Vec<ChaosKind> = self.chaos.due(site, idx).map(|i| i.kind).collect();
        for kind in due {
            self.chaos_log.push(ChaosEvent {
                site,
                at: idx,
                kind,
                session: self.session_of(client),
            });
            match kind {
                ChaosKind::BitFlip { bit } => flip_bit(&mut payload, bit),
                ChaosKind::Truncate { keep } => payload.truncate(keep),
                ChaosKind::Duplicate => copies = 2,
                ChaosKind::Delay { ticks } => deliver_at += ticks,
                ChaosKind::Reset => {
                    drop_data = true;
                    hangup = true;
                }
                ChaosKind::ShortWrite { keep } => {
                    payload.truncate(keep);
                    hangup = true;
                }
                _ => unreachable!("schedule validated kinds per site"),
            }
        }
        let gen = self.clients[client].gen;
        let queue = match site {
            ChaosSite::ClientToServer => &mut self.c2s,
            _ => &mut self.s2c,
        };
        if !drop_data {
            for _ in 0..copies {
                queue.push(Frame {
                    client,
                    gen,
                    deliver_at,
                    payload: Payload::Data(payload.clone()),
                });
            }
        }
        if hangup {
            queue.push(Frame {
                client,
                gen,
                deliver_at,
                payload: Payload::Hangup,
            });
        }
    }

    /// Replays buffered history with progress seq > `after_seq` — the
    /// lease redemption path.
    fn replay(&mut self, client: usize, session: u64, after_seq: u64) {
        let msgs: Vec<ServerMsg> = self
            .history
            .get(&session)
            .map(|h| {
                h.iter()
                    .filter(|m| match m {
                        ServerMsg::Progress(p) => p.seq > after_seq,
                        ServerMsg::Done(_) => true,
                        _ => false,
                    })
                    .cloned()
                    .collect()
            })
            .unwrap_or_default();
        self.redeliveries += msgs.len() as u64;
        for msg in msgs {
            self.send_s2c(client, &msg, 0);
        }
    }

    /// One client's turn: submit, time out, or retry.
    fn client_act(&mut self, i: usize, tick: u64) {
        let (phase_action, request) = {
            let c = &mut self.clients[i];
            match c.phase {
                Phase::Idle => {
                    c.alive = true;
                    c.phase = Phase::AwaitAccept { sent_at: tick };
                    (1, Some(ClientMsg::Submit(c.request.clone())))
                }
                Phase::AwaitAccept { sent_at } => {
                    if !c.alive {
                        self.retries += 1;
                        let c = &mut self.clients[i];
                        c.phase = Phase::Backoff {
                            until: tick + backoff_ticks(c.attempt),
                        };
                        c.attempt += 1;
                        return;
                    } else if tick.saturating_sub(sent_at) >= ACCEPT_TIMEOUT {
                        // Belt-and-braces: the accept was lost without the
                        // connection dying. Idempotent keys make the
                        // retransmit safe.
                        self.retries += 1;
                        let c = &mut self.clients[i];
                        c.attempt += 1;
                        c.phase = Phase::AwaitAccept { sent_at: tick };
                        (1, Some(ClientMsg::Submit(c.request.clone())))
                    } else {
                        return;
                    }
                }
                Phase::Streaming => {
                    if !c.alive {
                        c.phase = Phase::Backoff {
                            until: tick + backoff_ticks(c.attempt),
                        };
                        c.attempt += 1;
                    }
                    return;
                }
                Phase::Backoff { until } => {
                    if tick < until {
                        return;
                    }
                    c.gen += 1;
                    c.alive = true;
                    c.phase = Phase::AwaitAccept { sent_at: tick };
                    if c.accepted {
                        (2, None)
                    } else {
                        self.retries += 1;
                        let c = &self.clients[i];
                        (1, Some(ClientMsg::Submit(c.request.clone())))
                    }
                }
                Phase::Finished => return,
            }
        };
        match phase_action {
            1 => {
                let msg = request.expect("submit carries the request");
                self.send_c2s(i, &msg);
            }
            2 => {
                self.reconnects += 1;
                let c = &self.clients[i];
                let msg = ClientMsg::Reconnect {
                    tenant: c.request.tenant.clone(),
                    submission: c.request.submission,
                    after_seq: c.last_seq,
                };
                self.send_c2s(i, &msg);
            }
            _ => unreachable!(),
        }
    }

    /// The server's handling of one delivered client→server frame.
    fn server_handle(&mut self, f: Frame) {
        let client = f.client;
        if !self.clients[client].alive || self.clients[client].gen != f.gen {
            return;
        }
        let bytes = match f.payload {
            Payload::Data(bytes) => bytes,
            Payload::Hangup => {
                self.kill_conn(client);
                return;
            }
        };
        let msg = match ClientMsg::from_bytes(&bytes) {
            Ok(msg) => msg,
            Err(_) => {
                // A corrupt frame: the CRC refused it. Drop the
                // connection; the client's timeout drives a retransmit.
                self.kill_conn(client);
                return;
            }
        };
        match msg {
            ClientMsg::Submit(request) => match self.core.submit(request) {
                Ok(id) => {
                    if self.dropped_leases.contains(&id) {
                        // The quirk destroyed this session's lease; the
                        // retransmit resolves to a session the server no
                        // longer remembers serving.
                        self.lease_misses += 1;
                        self.send_s2c(
                            client,
                            &ServerMsg::Rejected {
                                reason: format!("no lease for session {id}"),
                                retryable: false,
                            },
                            0,
                        );
                        return;
                    }
                    let known = self.history.contains_key(&id);
                    self.session_client.insert(id, client);
                    self.client_session[client] = Some(id);
                    self.history.entry(id).or_default();
                    self.send_s2c(client, &ServerMsg::Accepted { session: id }, 0);
                    if known {
                        // Retransmit of an accepted submission: replay
                        // everything buffered so far.
                        self.replay(client, id, 0);
                    }
                }
                Err(rejection) => {
                    self.send_s2c(
                        client,
                        &ServerMsg::Rejected {
                            reason: rejection.reason,
                            retryable: rejection.retryable,
                        },
                        0,
                    );
                }
            },
            ClientMsg::Reconnect {
                tenant,
                submission,
                after_seq,
            } => {
                let lease = self
                    .core
                    .lookup_submission(&tenant, submission)
                    .filter(|id| self.history.contains_key(id));
                match lease {
                    Some(id) => {
                        self.session_client.insert(id, client);
                        self.client_session[client] = Some(id);
                        self.send_s2c(client, &ServerMsg::Accepted { session: id }, 0);
                        self.replay(client, id, after_seq);
                    }
                    None => {
                        self.lease_misses += 1;
                        self.send_s2c(
                            client,
                            &ServerMsg::Rejected {
                                reason: format!(
                                    "no lease for tenant `{tenant}` submission {submission}"
                                ),
                                retryable: false,
                            },
                            0,
                        );
                    }
                }
            }
        }
    }

    /// One client's handling of one delivered server→client frame.
    fn client_handle(&mut self, f: Frame, tick: u64) {
        let i = f.client;
        if !self.clients[i].alive || self.clients[i].gen != f.gen {
            return;
        }
        let bytes = match f.payload {
            Payload::Data(bytes) => bytes,
            Payload::Hangup => {
                self.kill_conn(i);
                return;
            }
        };
        let msg = match ServerMsg::from_bytes(&bytes) {
            Ok(msg) => msg,
            Err(_) => {
                // Corrupt downstream frame: drop the connection and let
                // the reconnect path replay what was missed.
                self.kill_conn(i);
                return;
            }
        };
        let c = &mut self.clients[i];
        match msg {
            ServerMsg::Accepted { .. } => {
                c.accepted = true;
                c.attempt = 0;
                if matches!(c.phase, Phase::AwaitAccept { .. }) {
                    c.phase = Phase::Streaming;
                }
            }
            ServerMsg::Rejected { reason, retryable } => {
                if retryable {
                    self.sheds += 1;
                    self.retries += 1;
                    let c = &mut self.clients[i];
                    c.phase = Phase::Backoff {
                        until: tick + backoff_ticks(c.attempt),
                    };
                    c.attempt += 1;
                    c.alive = false;
                } else {
                    c.failure = Some(reason);
                    c.phase = Phase::Finished;
                }
            }
            ServerMsg::Progress(p) => {
                if p.seq > c.last_seq {
                    c.last_seq = p.seq;
                } else {
                    self.duplicates_dropped += 1;
                    return;
                }
                let c = &mut self.clients[i];
                c.accepted = true;
                if matches!(c.phase, Phase::AwaitAccept { .. }) {
                    c.phase = Phase::Streaming;
                }
            }
            ServerMsg::Done(done) => {
                c.done = Some(done);
                c.phase = Phase::Finished;
            }
        }
    }
}

fn flip_bit(payload: &mut [u8], bit: u32) {
    if payload.is_empty() {
        return;
    }
    let bit = bit as usize % (payload.len() * 8);
    payload[bit / 8] ^= 1 << (bit % 8);
}

/// Runs one chaos soak: `requests` (one client each, idempotency keys
/// assigned from the client index when unset) against a fresh server
/// under `chaos`. See the module docs for the determinism and
/// result-invariance contracts.
pub fn run_soak(
    registry: &Registry,
    requests: &[RunRequest],
    chaos: &ChaosSchedule,
    config: SoakConfig,
) -> ChaosReport {
    let store = StoreChaos::from_schedule(chaos);
    let mut core = ServerCore::new(registry, config.serve);
    let factory_store = Rc::clone(&store);
    core.set_sink_factory(move |id| {
        Box::new(ChaosSink::new(
            MemorySink::new(),
            id,
            Rc::clone(&factory_store),
        )) as Box<dyn CheckpointSink>
    });
    let clients: Vec<Client> = requests
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let mut request = r.clone();
            if request.submission == 0 {
                request = request.with_submission(i as u64 + 1);
            }
            Client {
                request,
                phase: Phase::Idle,
                attempt: 0,
                last_seq: 0,
                accepted: false,
                alive: false,
                gen: 0,
                done: None,
                failure: None,
            }
        })
        .collect();
    let client_count = clients.len();
    let mut soak = Soak {
        core,
        chaos,
        store,
        drop_lease: config.serve.quirks.drop_lease,
        clients,
        c2s: Vec::new(),
        s2c: Vec::new(),
        c2s_sent: 0,
        s2c_sent: 0,
        history: BTreeMap::new(),
        dropped_leases: std::collections::BTreeSet::new(),
        session_client: BTreeMap::new(),
        client_session: vec![None; client_count],
        chaos_log: Vec::new(),
        retries: 0,
        reconnects: 0,
        redeliveries: 0,
        duplicates_dropped: 0,
        sheds: 0,
        lease_misses: 0,
    };

    while soak
        .clients
        .iter()
        .any(|c| !matches!(c.phase, Phase::Finished))
    {
        let tick = soak.core.tick_count();
        assert!(
            tick <= config.max_ticks,
            "chaos soak livelocked past tick {tick}"
        );
        // (1) Clients act, ascending index.
        for i in 0..soak.clients.len() {
            soak.client_act(i, tick);
        }
        // (2) Due client→server frames, insertion order.
        for f in take_due(&mut soak.c2s, tick) {
            soak.server_handle(f);
        }
        // (3) Server chaos, then one scheduler step (a stall consumes the
        // round instead).
        let mut stalled = false;
        let mut slow = 0u64;
        let due: Vec<ChaosKind> = soak
            .chaos
            .due(ChaosSite::Server, tick)
            .map(|i| i.kind)
            .collect();
        for kind in due {
            soak.chaos_log.push(ChaosEvent {
                site: ChaosSite::Server,
                at: tick,
                kind,
                session: 0,
            });
            match kind {
                ChaosKind::TickStall { ticks } => {
                    for _ in 0..ticks {
                        soak.core.stall_tick();
                    }
                    stalled = true;
                }
                ChaosKind::SlowWrite { ticks } => slow = slow.max(ticks),
                _ => unreachable!("schedule validated kinds per site"),
            }
        }
        if !stalled {
            soak.core.step();
        }
        // Store chaos fired inside the step; merge it into the log in
        // round order.
        let store_events = soak.store.borrow_mut().take_log();
        soak.chaos_log.extend(store_events);
        // (4) Forward progress into leases and live connections.
        for event in soak.core.drain_events() {
            let session = event.session;
            if soak.dropped_leases.contains(&session) {
                continue;
            }
            let msg = ServerMsg::Progress(event);
            soak.history.entry(session).or_default().push(msg.clone());
            if let Some(&client) = soak.session_client.get(&session) {
                soak.send_s2c(client, &msg, slow);
            }
        }
        for done in soak.core.drain_finished() {
            let session = done.session;
            if soak.dropped_leases.contains(&session) {
                continue;
            }
            let msg = ServerMsg::Done(done);
            soak.history.entry(session).or_default().push(msg.clone());
            if let Some(&client) = soak.session_client.get(&session) {
                soak.send_s2c(client, &msg, slow);
            }
        }
        // (5) Due server→client frames, insertion order.
        let now = soak.core.tick_count();
        for f in take_due(&mut soak.s2c, now) {
            soak.client_handle(f, now);
        }
    }

    let outcomes = soak
        .clients
        .iter()
        .enumerate()
        .map(|(i, c)| SoakOutcome {
            client: i,
            tenant: c.request.tenant.clone(),
            submission: c.request.submission,
            done: c.done.clone(),
            failure: c.failure.clone(),
        })
        .collect();
    ChaosReport {
        outcomes,
        chaos_log: soak.chaos_log,
        schedule: soak.core.schedule_log().to_vec(),
        ticks: soak.core.tick_count(),
        retries: soak.retries,
        reconnects: soak.reconnects,
        redeliveries: soak.redeliveries,
        duplicates_dropped: soak.duplicates_dropped,
        sheds: soak.sheds,
        lease_misses: soak.lease_misses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aibench_serve::Quirks;

    const PROBE: &str = "DC-AI-C15";

    fn requests(n: usize) -> Vec<RunRequest> {
        (0..n)
            .map(|i| RunRequest::new(["a", "b"][i % 2], PROBE, i as u64 + 1, 2))
            .collect()
    }

    #[test]
    fn calm_soak_matches_a_plain_trace_replay() {
        let registry = Registry::aibench();
        let reqs = requests(3);
        let soak = run_soak(
            &registry,
            &reqs,
            &ChaosSchedule::empty(),
            SoakConfig::default(),
        );
        assert_eq!(soak.chaos_signature(), "calm");
        assert_eq!(soak.retries + soak.reconnects + soak.redeliveries, 0);
        // The same requests replayed as a tick-0 trace: identical
        // schedule, ticks, and result bits.
        let trace: Vec<(u64, RunRequest)> = reqs
            .iter()
            .enumerate()
            .map(|(i, r)| (0u64, r.clone().with_submission(i as u64 + 1)))
            .collect();
        let plain = aibench_serve::run_trace(&registry, ServeConfig::default(), &trace);
        assert_eq!(soak.schedule_signature(), plain.schedule_signature());
        assert_eq!(soak.ticks, plain.ticks);
        for (outcome, session) in soak.outcomes.iter().zip(&plain.sessions) {
            let done = outcome.done.as_ref().expect("calm soak completes");
            assert!(done.result.deterministic_eq(&session.done.result));
        }
    }

    #[test]
    fn wire_chaos_is_absorbed_and_results_are_invariant() {
        let registry = Registry::aibench();
        let reqs = requests(3);
        // Corrupt the server's first outbound frame, reset a later one,
        // duplicate and delay others, and corrupt one inbound submit.
        let chaos = ChaosSchedule::new(5)
            .inject(ChaosSite::ClientToServer, 1, ChaosKind::BitFlip { bit: 40 })
            .inject(ChaosSite::ServerToClient, 0, ChaosKind::BitFlip { bit: 99 })
            .inject(ChaosSite::ServerToClient, 4, ChaosKind::Reset)
            .inject(ChaosSite::ServerToClient, 6, ChaosKind::Duplicate)
            .inject(ChaosSite::ServerToClient, 8, ChaosKind::Delay { ticks: 2 });
        let chaotic = run_soak(&registry, &reqs, &chaos, SoakConfig::default());
        assert!(
            chaotic.retries + chaotic.reconnects > 0,
            "chaos produced recovery traffic: {}",
            chaotic.chaos_signature()
        );
        let calm = run_soak(
            &registry,
            &reqs,
            &ChaosSchedule::empty(),
            SoakConfig::default(),
        );
        let chaotic_results = chaotic.results();
        for (key, calm_done) in calm.results() {
            let done = chaotic_results
                .get(&key)
                .unwrap_or_else(|| panic!("submission {key:?} lost under chaos"));
            assert!(
                done.result.deterministic_eq(&calm_done.result),
                "result bits changed under chaos for {key:?}"
            );
        }
    }

    #[test]
    fn store_and_server_chaos_change_nothing_but_the_clock() {
        let registry = Registry::aibench();
        let reqs = requests(2);
        let chaos = ChaosSchedule::new(9)
            .inject(ChaosSite::Store, 0, ChaosKind::DiskFull)
            .inject(ChaosSite::Store, 1, ChaosKind::TornWrite { keep: 8 })
            .inject(ChaosSite::Store, 2, ChaosKind::BitRot { bit: 33 })
            .inject(ChaosSite::Server, 1, ChaosKind::TickStall { ticks: 2 })
            .inject(ChaosSite::Server, 5, ChaosKind::SlowWrite { ticks: 1 });
        let chaotic = run_soak(&registry, &reqs, &chaos, SoakConfig::default());
        let calm = run_soak(
            &registry,
            &reqs,
            &ChaosSchedule::empty(),
            SoakConfig::default(),
        );
        assert!(!chaotic.chaos_log.is_empty());
        let chaotic_results = chaotic.results();
        for (key, calm_done) in calm.results() {
            let done = chaotic_results.get(&key).expect("session completes");
            assert!(done.result.deterministic_eq(&calm_done.result));
        }
    }

    #[test]
    fn seeded_soak_replays_bit_for_bit() {
        let registry = Registry::aibench();
        let reqs = requests(3);
        let chaos = ChaosSchedule::seeded(17, 40, 12);
        let one = run_soak(&registry, &reqs, &chaos, SoakConfig::default());
        let two = run_soak(&registry, &reqs, &chaos, SoakConfig::default());
        assert!(one.deterministic_eq(&two));
    }

    #[test]
    fn dropped_lease_quirk_strands_the_reconnecting_client() {
        let registry = Registry::aibench();
        // One long session whose connection the chaos resets mid-stream.
        let reqs = vec![RunRequest::new("t", PROBE, 1, 6)];
        let chaos = ChaosSchedule::new(3).inject(ChaosSite::ServerToClient, 2, ChaosKind::Reset);
        let healthy = run_soak(&registry, &reqs, &chaos, SoakConfig::default());
        assert!(healthy.outcomes[0].done.is_some(), "lease redeems");
        assert!(healthy.reconnects > 0);
        assert_eq!(healthy.lease_misses, 0);

        let config = SoakConfig {
            serve: ServeConfig {
                quirks: Quirks {
                    drop_lease: true,
                    ..Quirks::default()
                },
                ..ServeConfig::default()
            },
            ..SoakConfig::default()
        };
        let broken = run_soak(&registry, &reqs, &chaos, config);
        assert!(broken.lease_misses > 0, "quirk must strand the client");
        assert!(broken.outcomes[0].done.is_none());
        assert!(broken.outcomes[0]
            .failure
            .as_deref()
            .unwrap_or("")
            .contains("no lease"));
    }
}
