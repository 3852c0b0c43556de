//! The client half of the recovery protocol, shared by every transport.
//!
//! [`Client`] is a state machine driven by logical ticks that never
//! touches a socket: the transport asks it what to send
//! ([`Client::poll`]), hands it every decoded server message
//! ([`Client::receive`]), and tells it when the connection died
//! ([`Client::disconnected`]). Submits carry idempotency keys, so a
//! retransmit after a lost accept, a dead connection or a shed is safe;
//! once accepted, a dead connection is redeemed by reconnecting with the
//! last progress seq seen, and replayed or duplicated progress is dropped
//! by seq.

use crate::wire::{ClientMsg, DoneMsg, ProgressEvent, RunRequest, ServerMsg};

/// Ticks a client waits for `Accepted` before retransmitting its submit.
const ACCEPT_TIMEOUT: u64 = 40;

/// What the client wants sent.
#[derive(Debug)]
pub enum Action {
    /// Open a new connection whose first frame is this message.
    Connect(ClientMsg),
    /// Send this message on the current connection.
    Resend(ClientMsg),
}

#[derive(Debug, Clone, Copy)]
enum Phase {
    /// Not yet submitted.
    Idle,
    /// Submit or reconnect sent at `sent_at`; waiting for `Accepted`.
    AwaitAccept { sent_at: u64 },
    /// Accepted; consuming the progress stream.
    Streaming,
    /// The connection died or the submit was shed; retry at `until`.
    Backoff { until: u64 },
    /// Done or failed.
    Finished,
}

/// One client's side of the protocol for one request.
#[derive(Debug)]
pub struct Client {
    request: RunRequest,
    phase: Phase,
    /// Retry attempt counter; resets on a successful accept.
    attempt: u32,
    /// Last progress seq seen: the dedupe and replay cursor.
    last_seq: u64,
    /// Whether the server ever accepted the submission (decides
    /// retransmit or reconnect after a dead connection).
    accepted: bool,
    connected: bool,
    /// Progress received, deduplicated and in seq order.
    pub events: Vec<ProgressEvent>,
    /// The final record, once it arrived.
    pub done: Option<DoneMsg>,
    /// Why the server refused the request for good, if it did.
    pub failure: Option<String>,
    /// Submit retransmissions (lost accepts, dead connections, sheds).
    pub retries: u64,
    /// Lease-redeeming reconnects.
    pub reconnects: u64,
    /// Progress frames dropped as already seen.
    pub duplicates_dropped: u64,
    /// Retryable `overloaded` rejections absorbed.
    pub sheds: u64,
}

impl Client {
    /// A client that has not yet submitted `request`.
    pub fn new(request: RunRequest) -> Self {
        Client {
            request,
            phase: Phase::Idle,
            attempt: 0,
            last_seq: 0,
            accepted: false,
            connected: false,
            events: Vec::new(),
            done: None,
            failure: None,
            retries: 0,
            reconnects: 0,
            duplicates_dropped: 0,
            sheds: 0,
        }
    }

    /// A client whose earlier connection for the accepted `request` died
    /// after it saw progress up to `after_seq`: its first action redeems
    /// the lease.
    pub fn resuming(request: RunRequest, after_seq: u64) -> Self {
        Client {
            phase: Phase::Backoff { until: 0 },
            last_seq: after_seq,
            accepted: true,
            ..Client::new(request)
        }
    }

    /// The request this client submits.
    pub fn request(&self) -> &RunRequest {
        &self.request
    }

    /// Whether the current connection is usable.
    pub fn is_connected(&self) -> bool {
        self.connected
    }

    /// Whether the client is done or failed.
    pub fn is_finished(&self) -> bool {
        matches!(self.phase, Phase::Finished)
    }

    /// The client's turn at `tick`: submit, time out, back off, or retry.
    pub fn poll(&mut self, tick: u64) -> Option<Action> {
        match self.phase {
            Phase::Idle => {
                self.connected = true;
                self.phase = Phase::AwaitAccept { sent_at: tick };
                Some(Action::Connect(self.submit()))
            }
            Phase::AwaitAccept { .. } if !self.connected => {
                self.retries += 1;
                self.back_off(tick);
                None
            }
            Phase::AwaitAccept { sent_at } if tick.saturating_sub(sent_at) >= ACCEPT_TIMEOUT => {
                // The accept was lost without the connection dying.
                // Idempotent keys make the retransmit safe.
                self.retries += 1;
                self.attempt += 1;
                self.phase = Phase::AwaitAccept { sent_at: tick };
                Some(Action::Resend(self.submit()))
            }
            Phase::Streaming if !self.connected => {
                self.back_off(tick);
                None
            }
            Phase::Backoff { until } if tick >= until => {
                self.connected = true;
                self.phase = Phase::AwaitAccept { sent_at: tick };
                if self.accepted {
                    self.reconnects += 1;
                    Some(Action::Connect(ClientMsg::Reconnect {
                        tenant: self.request.tenant.clone(),
                        submission: self.request.submission,
                        after_seq: self.last_seq,
                    }))
                } else {
                    self.retries += 1;
                    Some(Action::Connect(self.submit()))
                }
            }
            _ => None,
        }
    }

    /// Handles one decoded server message arriving at `tick`.
    pub fn receive(&mut self, msg: ServerMsg, tick: u64) {
        match msg {
            ServerMsg::Accepted { .. } => {
                self.attempt = 0;
                self.stream();
            }
            ServerMsg::Rejected {
                retryable: true, ..
            } => {
                self.sheds += 1;
                self.retries += 1;
                self.back_off(tick);
                self.connected = false;
            }
            ServerMsg::Rejected { reason, .. } => {
                self.failure = Some(reason);
                self.phase = Phase::Finished;
            }
            ServerMsg::Progress(p) if p.seq <= self.last_seq => self.duplicates_dropped += 1,
            ServerMsg::Progress(p) => {
                self.last_seq = p.seq;
                self.events.push(p);
                self.stream();
            }
            ServerMsg::Done(done) => {
                self.done = Some(done);
                self.phase = Phase::Finished;
            }
        }
    }

    /// Records that the current connection died.
    pub fn disconnected(&mut self) {
        self.connected = false;
    }

    fn submit(&self) -> ClientMsg {
        ClientMsg::Submit(self.request.clone())
    }

    fn stream(&mut self) {
        self.accepted = true;
        if matches!(self.phase, Phase::AwaitAccept { .. }) {
            self.phase = Phase::Streaming;
        }
    }

    /// Exponential backoff in ticks: 2, 4, 8, … capped at 64.
    fn back_off(&mut self, tick: u64) {
        self.phase = Phase::Backoff {
            until: tick + (2u64 << self.attempt.min(5)),
        };
        self.attempt += 1;
    }
}
