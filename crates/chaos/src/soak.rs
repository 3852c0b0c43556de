//! The chaos soak: an in-process client/server harness that drives a real
//! [`ServerCore`] through real wire bytes while a [`ChaosSchedule`]
//! perturbs every layer — and the hardening absorbs all of it.
//!
//! # Fidelity
//!
//! The simulated wire carries the exact frame payloads the TCP transport
//! would ([`ClientMsg::to_bytes`] / [`ServerMsg::to_bytes`]), so a
//! bit-flip here exercises the same CRC rejection path a hostile network
//! would hit. Both ends run the code TCP ships: every client is an
//! [`aibench_serve::client::Client`] (idempotent submits retried under
//! exponential backoff, seq-deduplicated progress streams,
//! lease-redeeming reconnects) and the server's leases are an
//! [`aibench_serve::lease::LeaseTable`]. The soak itself owns only the
//! chaotic wire, the store and server injections, and the round order.
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
use aibench_serve::client::{Action, Client};
use aibench_serve::lease::LeaseTable;
use aibench_serve::wire::{ClientMsg, DoneMsg, RunRequest, ServerMsg};
use aibench_serve::{schedule_signature, SchedEvent, ServeConfig, ServerCore};

use crate::log::{chaos_signature, ChaosEvent};
use crate::schedule::{ChaosKind, ChaosSchedule, ChaosSite};
use crate::sink::{ChaosSink, StoreChaos};

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
    let (due, rest) = std::mem::take(queue)
        .into_iter()
        .partition(|f| f.deliver_at <= now);
    *queue = rest;
    due
}

struct Soak<'a> {
    core: ServerCore<'a>,
    chaos: &'a ChaosSchedule,
    store: Rc<RefCell<StoreChaos>>,
    /// The server's leases; a connection is named by its client index.
    leases: LeaseTable<usize>,
    clients: Vec<Client>,
    /// Each client's connection generation: frames from a dead
    /// generation never deliver.
    gens: Vec<u32>,
    /// The session each client was last accepted for (chaos-log labels).
    client_session: Vec<Option<u64>>,
    c2s: Vec<Frame>,
    s2c: Vec<Frame>,
    c2s_sent: u64,
    s2c_sent: u64,
    chaos_log: Vec<ChaosEvent>,
}

impl<'a> Soak<'a> {
    fn session_of(&self, client: usize) -> u64 {
        self.client_session[client].unwrap_or(0)
    }

    fn kill_conn(&mut self, client: usize) {
        self.clients[client].disconnected();
        self.leases.disconnected(client);
    }

    /// Puts every message the lease table queued on the wire to each
    /// live connection, `slow` ticks late when a slow write is active.
    fn flush(&mut self, slow: u64) {
        for (client, msg) in self.leases.take_sends() {
            if let ServerMsg::Accepted { session } = msg {
                self.client_session[client] = Some(session);
            }
            if self.clients[client].is_connected() {
                let at = self.core.tick_count() + slow;
                self.send_wire(ChaosSite::ServerToClient, client, msg.to_bytes(), at);
            }
        }
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
        let gen = self.gens[client];
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

    /// One client's turn: whatever its protocol machine sends now.
    fn client_act(&mut self, i: usize, tick: u64) {
        let msg = match self.clients[i].poll(tick) {
            Some(Action::Connect(msg)) => {
                self.gens[i] += 1;
                msg
            }
            Some(Action::Resend(msg)) => msg,
            None => return,
        };
        self.send_wire(ChaosSite::ClientToServer, i, msg.to_bytes(), tick);
    }

    /// The server's handling of one delivered client→server frame. A
    /// hangup or a corrupt frame (the CRC refused it) drops the
    /// connection; the client's recovery drives a retransmit.
    fn server_handle(&mut self, f: Frame) {
        let client = f.client;
        if !self.clients[client].is_connected() || self.gens[client] != f.gen {
            return;
        }
        let msg = match f.payload {
            Payload::Data(bytes) => ClientMsg::from_bytes(&bytes).ok(),
            Payload::Hangup => None,
        };
        let Some(msg) = msg else {
            self.kill_conn(client);
            return;
        };
        let _ = self.leases.handle(&mut self.core, client, msg);
        self.flush(0);
    }

    /// One client's handling of one delivered server→client frame. A
    /// hangup or a corrupt frame drops the connection, and the reconnect
    /// replays what was missed.
    fn client_handle(&mut self, f: Frame, tick: u64) {
        let i = f.client;
        if !self.clients[i].is_connected() || self.gens[i] != f.gen {
            return;
        }
        let msg = match f.payload {
            Payload::Data(bytes) => ServerMsg::from_bytes(&bytes).ok(),
            Payload::Hangup => None,
        };
        match msg {
            Some(msg) => self.clients[i].receive(msg, tick),
            None => self.kill_conn(i),
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
            Client::new(request)
        })
        .collect();
    let client_count = clients.len();
    let mut soak = Soak {
        core,
        chaos,
        store,
        leases: LeaseTable::new(config.serve.quirks.drop_lease),
        clients,
        gens: vec![0; client_count],
        client_session: vec![None; client_count],
        c2s: Vec::new(),
        s2c: Vec::new(),
        c2s_sent: 0,
        s2c_sent: 0,
        chaos_log: Vec::new(),
    };

    while !soak.clients.iter().all(Client::is_finished) {
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
            soak.leases
                .publish(event.session, ServerMsg::Progress(event));
        }
        for done in soak.core.drain_finished() {
            soak.leases.publish(done.session, ServerMsg::Done(done));
        }
        soak.flush(slow);
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
            tenant: c.request().tenant.clone(),
            submission: c.request().submission,
            done: c.done.clone(),
            failure: c.failure.clone(),
        })
        .collect();
    let total = |count: fn(&Client) -> u64| soak.clients.iter().map(count).sum();
    ChaosReport {
        outcomes,
        chaos_log: soak.chaos_log,
        schedule: soak.core.schedule_log().to_vec(),
        ticks: soak.core.tick_count(),
        retries: total(|c| c.retries),
        reconnects: total(|c| c.reconnects),
        redeliveries: soak.leases.redeliveries,
        duplicates_dropped: total(|c| c.duplicates_dropped),
        sheds: total(|c| c.sheds),
        lease_misses: soak.leases.lease_misses,
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
