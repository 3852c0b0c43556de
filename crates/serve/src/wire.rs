//! The serving wire protocol: length-prefixed frames whose payload is a
//! ckpt snapshot container ([`SnapshotFile`]) holding one typed message.
//!
//! Reusing the checkpoint byte format buys the wire three properties for
//! free: no serde anywhere, CRC-checked payloads (a corrupted frame errors
//! instead of decoding into a plausible message), and bitwise float
//! round-trips — a [`RunResult`] crossing the wire stays
//! `deterministic_eq` to the one the server computed.
//!
//! # Framing
//!
//! Each frame is a little-endian `u32` payload length followed by that many
//! bytes. The payload is a `SnapshotFile` with a single section `msg`
//! whose `type` key names the message variant.

use std::io::{Read, Write};

use aibench::runner::RunResult;
use aibench_ckpt::{key, CkptError, SnapshotFile, State};
use aibench_fault::{FaultKind, FaultSchedule, Injection};

/// Frames larger than this are rejected before allocation — a corrupt or
/// hostile length prefix must not OOM the server.
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// Writes one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame exceeds u32 length")
    })?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Fills `buf`, tolerating `Interrupted` and arbitrarily short reads.
/// Returns the bytes actually read: less than `buf.len()` only on a clean
/// EOF mid-fill.
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

/// Reads one length-prefixed frame, looping over short reads and
/// `Interrupted` until the full frame arrives or a hard error. `Ok(None)`
/// means the peer closed the connection cleanly at a frame boundary; an
/// EOF *inside* a frame is an `UnexpectedEof` error, never a truncated
/// payload handed to the decoder.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    let got = read_full(r, &mut len_bytes)?;
    if got == 0 {
        return Ok(None);
    }
    if got < len_bytes.len() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed inside a frame length prefix",
        ));
    }
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    let got = read_full(r, &mut payload)?;
    if got < payload.len() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            format!("connection closed {got} byte(s) into a {len}-byte frame"),
        ));
    }
    Ok(Some(payload))
}

/// Stable wire names for [`FaultKind`] variants.
fn kind_name(kind: &FaultKind) -> &'static str {
    match kind {
        FaultKind::GradNan => "grad-nan",
        FaultKind::GradExplosion { .. } => "grad-explosion",
        FaultKind::ParamNan => "param-nan",
        FaultKind::ParamBitFlip { .. } => "param-bit-flip",
        FaultKind::LossValue { .. } => "loss-value",
        FaultKind::KernelPanic => "kernel-panic",
        FaultKind::SaveFail => "save-fail",
        FaultKind::LoadFail => "load-fail",
        FaultKind::EvalFreeze => "eval-freeze",
    }
}

/// The numeric payload a kind carries on the wire (0.0 for payload-free
/// kinds). `f64` holds every `f32` bit pattern exactly and `u8` losslessly.
fn kind_payload(kind: &FaultKind) -> f64 {
    match kind {
        FaultKind::GradExplosion { scale } => f64::from(*scale),
        FaultKind::ParamBitFlip { bit } => f64::from(*bit),
        FaultKind::LossValue { value } => {
            // Widening would lose the f32 bit pattern for NaN payloads;
            // ship the raw bits instead.
            f64::from_bits(u64::from(value.to_bits()))
        }
        _ => 0.0,
    }
}

fn kind_from(name: &str, payload: f64) -> Result<FaultKind, CkptError> {
    Ok(match name {
        "grad-nan" => FaultKind::GradNan,
        "grad-explosion" => FaultKind::GradExplosion {
            scale: payload as f32,
        },
        "param-nan" => FaultKind::ParamNan,
        "param-bit-flip" => FaultKind::ParamBitFlip { bit: payload as u8 },
        "loss-value" => FaultKind::LossValue {
            value: f32::from_bits(payload.to_bits() as u32),
        },
        "kernel-panic" => FaultKind::KernelPanic,
        "save-fail" => FaultKind::SaveFail,
        "load-fail" => FaultKind::LoadFail,
        "eval-freeze" => FaultKind::EvalFreeze,
        other => {
            return Err(CkptError::MetaMismatch {
                what: format!("unknown fault kind `{other}` on the wire"),
            })
        }
    })
}

/// Encodes a schedule under `prefix` (epochs, persistence flags, kind
/// names, and numeric payloads as four parallel arrays).
pub fn put_schedule(state: &mut State, prefix: &str, schedule: &FaultSchedule) {
    state.put_u64(key(prefix, "seed"), schedule.seed);
    state.put_u64s(
        key(prefix, "epochs"),
        schedule.injections.iter().map(|i| i.epoch as u64).collect(),
    );
    state.put_u64s(
        key(prefix, "persistent"),
        schedule
            .injections
            .iter()
            .map(|i| u64::from(i.persistent))
            .collect(),
    );
    let kinds: Vec<&str> = schedule
        .injections
        .iter()
        .map(|i| kind_name(&i.kind))
        .collect();
    state.put_str(key(prefix, "kinds"), kinds.join(";"));
    state.put_f64s(
        key(prefix, "payloads"),
        schedule
            .injections
            .iter()
            .map(|i| kind_payload(&i.kind))
            .collect(),
    );
}

/// Decodes a schedule encoded by [`put_schedule`].
pub fn take_schedule(state: &State, prefix: &str) -> Result<FaultSchedule, CkptError> {
    let epochs = state.u64s(&key(prefix, "epochs"))?;
    let persistent = state.u64s(&key(prefix, "persistent"))?;
    let kinds_joined = state.str(&key(prefix, "kinds"))?;
    let kinds: Vec<&str> = if kinds_joined.is_empty() {
        Vec::new()
    } else {
        kinds_joined.split(';').collect()
    };
    let payloads = state.f64s(&key(prefix, "payloads"))?;
    if epochs.len() != persistent.len()
        || epochs.len() != kinds.len()
        || epochs.len() != payloads.len()
    {
        return Err(CkptError::MetaMismatch {
            what: "fault schedule arrays disagree on length".to_string(),
        });
    }
    let mut injections = Vec::with_capacity(epochs.len());
    for i in 0..epochs.len() {
        injections.push(Injection {
            epoch: epochs[i] as usize,
            kind: kind_from(kinds[i], payloads[i])?,
            persistent: persistent[i] != 0,
        });
    }
    Ok(FaultSchedule {
        seed: state.u64(&key(prefix, "seed"))?,
        injections,
    })
}

/// One benchmark-run request as submitted by a tenant.
#[derive(Debug, Clone)]
pub struct RunRequest {
    /// Tenant identity (the fair-share accounting key).
    pub tenant: String,
    /// Client-chosen idempotency key, unique per `(tenant, submission)`.
    /// A retransmitted submit with the same key attaches to the already
    /// accepted session instead of creating a duplicate. `0` opts out
    /// (every submit is distinct — the pre-chaos behavior).
    pub submission: u64,
    /// Benchmark code (e.g. `DC-AI-C15`).
    pub code: String,
    /// Training seed.
    pub seed: u64,
    /// Epoch cap for the session.
    pub max_epochs: usize,
    /// Evaluation cadence.
    pub eval_every: usize,
    /// Priority: higher preempts lower. Equal priorities share fairly.
    pub priority: u8,
    /// Fault schedule to run the session under (empty = clean run).
    pub faults: FaultSchedule,
}

impl RunRequest {
    /// A clean (no-fault) request at default priority.
    pub fn new(tenant: &str, code: &str, seed: u64, max_epochs: usize) -> Self {
        RunRequest {
            tenant: tenant.to_string(),
            submission: 0,
            code: code.to_string(),
            seed,
            max_epochs,
            eval_every: 1,
            priority: 0,
            faults: FaultSchedule::empty(),
        }
    }

    /// Sets the priority.
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the idempotency key (non-zero enables submit deduplication).
    pub fn with_submission(mut self, submission: u64) -> Self {
        self.submission = submission;
        self
    }

    /// Sets the fault schedule.
    pub fn with_faults(mut self, faults: FaultSchedule) -> Self {
        self.faults = faults;
        self
    }

    fn put(&self, state: &mut State) {
        state.put_str("tenant", self.tenant.as_str());
        state.put_u64("submission", self.submission);
        state.put_str("code", self.code.as_str());
        state.put_u64("seed", self.seed);
        state.put_usize("max_epochs", self.max_epochs);
        state.put_usize("eval_every", self.eval_every);
        state.put_u64("priority", u64::from(self.priority));
        put_schedule(state, "faults", &self.faults);
    }

    fn take(state: &State) -> Result<RunRequest, CkptError> {
        let priority = state.u64("priority")?;
        Ok(RunRequest {
            tenant: state.str("tenant")?.to_string(),
            submission: state.u64("submission")?,
            code: state.str("code")?.to_string(),
            seed: state.u64("seed")?,
            max_epochs: state.usize("max_epochs")?,
            eval_every: state.usize("eval_every")?,
            priority: u8::try_from(priority).map_err(|_| CkptError::MetaMismatch {
                what: format!("priority {priority} exceeds u8"),
            })?,
            faults: take_schedule(state, "faults")?,
        })
    }
}

/// What happened to a session, as streamed to its client.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// The session was admitted to a worker slot at the given scheduler
    /// tick.
    Admitted {
        /// Scheduler tick of admission.
        tick: u64,
    },
    /// One epoch committed.
    Epoch {
        /// The committed (1-based) epoch.
        epoch: usize,
        /// Mean training loss of the epoch.
        loss: f32,
        /// Quality, if this epoch was on the eval cadence.
        quality: Option<f64>,
    },
    /// A fault was detected and handled; the signature is
    /// `e{epoch}:{fault}>{action}`.
    Fault {
        /// The fault event's deterministic signature.
        signature: String,
    },
    /// The session was preempted: parked at the given epoch.
    Parked {
        /// Epoch of the park snapshot.
        at_epoch: usize,
    },
    /// The session resumed from its park snapshot (`None`: the snapshot
    /// was lost and the session restarted from scratch).
    Resumed {
        /// Epoch resumed from.
        from_epoch: Option<usize>,
    },
}

impl Event {
    fn put(&self, state: &mut State) {
        match self {
            Event::Admitted { tick } => {
                state.put_str("event", "admitted");
                state.put_u64("at_tick", *tick);
            }
            Event::Epoch {
                epoch,
                loss,
                quality,
            } => {
                state.put_str("event", "epoch");
                state.put_usize("epoch", *epoch);
                state.put_f32("loss", *loss);
                state.put_bool("evaluated", quality.is_some());
                state.put_f64("quality", quality.unwrap_or(0.0));
            }
            Event::Fault { signature } => {
                state.put_str("event", "fault");
                state.put_str("signature", signature.as_str());
            }
            Event::Parked { at_epoch } => {
                state.put_str("event", "parked");
                state.put_usize("at_epoch", *at_epoch);
            }
            Event::Resumed { from_epoch } => {
                state.put_str("event", "resumed");
                state.put_bool("from_snapshot", from_epoch.is_some());
                state.put_usize("from_epoch", from_epoch.unwrap_or(0));
            }
        }
    }

    fn take(state: &State) -> Result<Event, CkptError> {
        Ok(match state.str("event")? {
            "admitted" => Event::Admitted {
                tick: state.u64("at_tick")?,
            },
            "epoch" => Event::Epoch {
                epoch: state.usize("epoch")?,
                loss: state.f32("loss")?,
                quality: state
                    .bool("evaluated")?
                    .then(|| state.f64("quality"))
                    .transpose()?,
            },
            "fault" => Event::Fault {
                signature: state.str("signature")?.to_string(),
            },
            "parked" => Event::Parked {
                at_epoch: state.usize("at_epoch")?,
            },
            "resumed" => Event::Resumed {
                from_epoch: state
                    .bool("from_snapshot")?
                    .then(|| state.usize("from_epoch"))
                    .transpose()?,
            },
            other => {
                return Err(CkptError::MetaMismatch {
                    what: format!("unknown event `{other}` on the wire"),
                })
            }
        })
    }
}

/// One progress event, stamped with its session, scheduler tick, and a
/// per-session sequence number.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressEvent {
    /// Server-assigned session id.
    pub session: u64,
    /// Per-session 1-based sequence number: the client's dedupe and
    /// replay cursor. Duplicated frames repeat a seq (drop them);
    /// a reconnecting client asks for everything after its last seq.
    pub seq: u64,
    /// Scheduler tick the event happened at.
    pub tick: u64,
    /// What happened.
    pub event: Event,
}

/// The final record a client receives for its session.
#[derive(Debug, Clone)]
pub struct DoneMsg {
    /// Server-assigned session id.
    pub session: u64,
    /// [`Outcome`](aibench_fault::Outcome) signature (`converged`,
    /// `recovered:2`, `quarantined:kernel-panic`, …).
    pub outcome_signature: String,
    /// The fault log signature (`clean` when no faults fired).
    pub fault_signature: String,
    /// The training result (floats bitwise-preserved across the wire).
    pub result: RunResult,
    /// Scheduler ticks spent queued before first admission.
    pub queue_wait_ticks: u64,
    /// Epochs executed including recovery re-runs.
    pub epochs_executed: usize,
    /// Recovery actions taken.
    pub recoveries: usize,
}

/// A message from client to server.
#[derive(Debug, Clone)]
pub enum ClientMsg {
    /// Submit one benchmark run.
    Submit(RunRequest),
    /// Redeem the lease of an already-submitted session after a dropped
    /// connection: re-attach to `(tenant, submission)` and replay every
    /// buffered event with `seq > after_seq`.
    Reconnect {
        /// Tenant identity of the original submit.
        tenant: String,
        /// Idempotency key of the original submit (non-zero).
        submission: u64,
        /// Last progress seq the client saw; the server replays from
        /// `after_seq + 1`.
        after_seq: u64,
    },
}

/// A message from server to client.
#[derive(Debug, Clone)]
pub enum ServerMsg {
    /// The submission was accepted under this session id.
    Accepted {
        /// Server-assigned session id.
        session: u64,
    },
    /// The submission was rejected.
    Rejected {
        /// Why.
        reason: String,
        /// Whether retrying the same submission later can succeed
        /// (`true` for load shedding, `false` for validation errors).
        retryable: bool,
    },
    /// A progress event for the client's session.
    Progress(ProgressEvent),
    /// The session finished; this is its final record.
    Done(DoneMsg),
}

fn encode(build: impl FnOnce(&mut State)) -> Vec<u8> {
    let mut state = State::new();
    build(&mut state);
    let mut file = SnapshotFile::new();
    file.push("msg", state);
    file.to_bytes()
}

fn msg_state(bytes: &[u8]) -> Result<State, CkptError> {
    SnapshotFile::from_bytes(bytes)?.into_section("msg")
}

impl ClientMsg {
    /// Encodes the message to frame payload bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            ClientMsg::Submit(req) => encode(|state| {
                state.put_str("type", "submit");
                req.put(state);
            }),
            ClientMsg::Reconnect {
                tenant,
                submission,
                after_seq,
            } => encode(|state| {
                state.put_str("type", "reconnect");
                state.put_str("tenant", tenant.as_str());
                state.put_u64("submission", *submission);
                state.put_u64("after_seq", *after_seq);
            }),
        }
    }

    /// Decodes a frame payload.
    pub fn from_bytes(bytes: &[u8]) -> Result<ClientMsg, CkptError> {
        let state = msg_state(bytes)?;
        match state.str("type")? {
            "submit" => Ok(ClientMsg::Submit(RunRequest::take(&state)?)),
            "reconnect" => Ok(ClientMsg::Reconnect {
                tenant: state.str("tenant")?.to_string(),
                submission: state.u64("submission")?,
                after_seq: state.u64("after_seq")?,
            }),
            other => Err(CkptError::MetaMismatch {
                what: format!("unknown client message `{other}`"),
            }),
        }
    }
}

impl ServerMsg {
    /// Encodes the message to frame payload bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            ServerMsg::Accepted { session } => encode(|state| {
                state.put_str("type", "accepted");
                state.put_u64("session", *session);
            }),
            ServerMsg::Rejected { reason, retryable } => encode(|state| {
                state.put_str("type", "rejected");
                state.put_str("reason", reason.as_str());
                state.put_bool("retryable", *retryable);
            }),
            ServerMsg::Progress(progress) => encode(|state| {
                state.put_str("type", "progress");
                state.put_u64("session", progress.session);
                state.put_u64("seq", progress.seq);
                state.put_u64("tick", progress.tick);
                progress.event.put(state);
            }),
            ServerMsg::Done(done) => encode(|state| {
                state.put_str("type", "done");
                state.put_u64("session", done.session);
                state.put_str("outcome", done.outcome_signature.as_str());
                state.put_str("faults", done.fault_signature.as_str());
                state.put_u64("queue_wait_ticks", done.queue_wait_ticks);
                state.put_usize("epochs_executed", done.epochs_executed);
                state.put_usize("recoveries", done.recoveries);
                for (key, value) in done.result.to_state().iter() {
                    state.put(format!("result.{key}"), value.clone());
                }
            }),
        }
    }

    /// Decodes a frame payload.
    pub fn from_bytes(bytes: &[u8]) -> Result<ServerMsg, CkptError> {
        let state = msg_state(bytes)?;
        Ok(match state.str("type")? {
            "accepted" => ServerMsg::Accepted {
                session: state.u64("session")?,
            },
            "rejected" => ServerMsg::Rejected {
                reason: state.str("reason")?.to_string(),
                retryable: state.bool("retryable")?,
            },
            "progress" => ServerMsg::Progress(ProgressEvent {
                session: state.u64("session")?,
                seq: state.u64("seq")?,
                tick: state.u64("tick")?,
                event: Event::take(&state)?,
            }),
            "done" => {
                let mut result_state = State::new();
                for (key, value) in state.iter() {
                    if let Some(field) = key.strip_prefix("result.") {
                        result_state.put(field, value.clone());
                    }
                }
                ServerMsg::Done(DoneMsg {
                    session: state.u64("session")?,
                    outcome_signature: state.str("outcome")?.to_string(),
                    fault_signature: state.str("faults")?.to_string(),
                    result: RunResult::from_state(&result_state)?,
                    queue_wait_ticks: state.u64("queue_wait_ticks")?,
                    epochs_executed: state.usize("epochs_executed")?,
                    recoveries: state.usize("recoveries")?,
                })
            }
            other => {
                return Err(CkptError::MetaMismatch {
                    what: format!("unknown server message `{other}`"),
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule() -> FaultSchedule {
        FaultSchedule::new(7)
            .inject(2, FaultKind::LossValue { value: f32::NAN })
            .inject_persistent(3, FaultKind::GradExplosion { scale: 1e12 })
            .inject(4, FaultKind::ParamBitFlip { bit: 30 })
            .inject(5, FaultKind::KernelPanic)
            .inject(6, FaultKind::SaveFail)
            .inject(7, FaultKind::LoadFail)
            .inject(8, FaultKind::EvalFreeze)
            .inject(9, FaultKind::GradNan)
            .inject(10, FaultKind::ParamNan)
    }

    #[test]
    fn every_fault_kind_crosses_the_wire() {
        let req = RunRequest::new("acme", "DC-AI-C15", 3, 8)
            .with_priority(2)
            .with_faults(schedule());
        let bytes = ClientMsg::Submit(req.clone()).to_bytes();
        let ClientMsg::Submit(back) = ClientMsg::from_bytes(&bytes).unwrap() else {
            panic!("wrong message");
        };
        assert_eq!(back.tenant, req.tenant);
        assert_eq!(back.priority, 2);
        assert_eq!(back.faults.seed, 7);
        assert_eq!(back.faults.injections.len(), req.faults.injections.len());
        for (a, b) in back.faults.injections.iter().zip(&req.faults.injections) {
            assert_eq!(a.epoch, b.epoch);
            assert_eq!(a.persistent, b.persistent);
            assert_eq!(format!("{:?}", a.kind), format!("{:?}", b.kind));
        }
        // NaN payload survives bitwise.
        let FaultKind::LossValue { value } = back.faults.injections[0].kind else {
            panic!("wrong kind");
        };
        assert!(value.is_nan());
    }

    #[test]
    fn reconnect_and_submission_round_trip() {
        let req = RunRequest::new("acme", "DC-AI-C15", 3, 8).with_submission(42);
        let bytes = ClientMsg::Submit(req).to_bytes();
        let ClientMsg::Submit(back) = ClientMsg::from_bytes(&bytes).unwrap() else {
            panic!("wrong message");
        };
        assert_eq!(back.submission, 42);

        let bytes = ClientMsg::Reconnect {
            tenant: "acme".to_string(),
            submission: 42,
            after_seq: 7,
        }
        .to_bytes();
        let ClientMsg::Reconnect {
            tenant,
            submission,
            after_seq,
        } = ClientMsg::from_bytes(&bytes).unwrap()
        else {
            panic!("wrong message");
        };
        assert_eq!((tenant.as_str(), submission, after_seq), ("acme", 42, 7));

        let bytes = ServerMsg::Rejected {
            reason: "admission queue full".to_string(),
            retryable: true,
        }
        .to_bytes();
        let ServerMsg::Rejected { retryable, .. } = ServerMsg::from_bytes(&bytes).unwrap() else {
            panic!("wrong message");
        };
        assert!(retryable);
    }

    #[test]
    fn interrupted_and_short_reads_still_deliver_the_frame() {
        /// Delivers the underlying bytes one at a time, interleaving an
        /// `Interrupted` error before every real byte.
        struct Hostile<'a> {
            bytes: &'a [u8],
            at: usize,
            interrupt_next: bool,
        }
        impl Read for Hostile<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.interrupt_next {
                    self.interrupt_next = false;
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::Interrupted,
                        "signal",
                    ));
                }
                self.interrupt_next = true;
                if self.at >= self.bytes.len() || buf.is_empty() {
                    return Ok(0);
                }
                buf[0] = self.bytes[self.at];
                self.at += 1;
                Ok(1)
            }
        }
        let msg = ServerMsg::Accepted { session: 3 }.to_bytes();
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg).unwrap();
        let mut r = Hostile {
            bytes: &buf,
            at: 0,
            interrupt_next: true,
        };
        let frame = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(frame, msg);
        assert!(read_frame(&mut r).unwrap().is_none());

        // A clean EOF inside a frame is an error, not a short payload.
        let mut truncated = Hostile {
            bytes: &buf[..buf.len() - 1],
            at: 0,
            interrupt_next: false,
        };
        let err = read_frame(&mut truncated).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let msgs = vec![
            ServerMsg::Accepted { session: 9 }.to_bytes(),
            ServerMsg::Progress(ProgressEvent {
                session: 9,
                seq: 1,
                tick: 4,
                event: Event::Epoch {
                    epoch: 1,
                    loss: 0.5,
                    quality: Some(0.25),
                },
            })
            .to_bytes(),
            ServerMsg::Rejected {
                reason: "unknown benchmark".to_string(),
                retryable: false,
            }
            .to_bytes(),
        ];
        let mut buf = Vec::new();
        for m in &msgs {
            write_frame(&mut buf, m).unwrap();
        }
        let mut r = &buf[..];
        for expected in &msgs {
            let frame = read_frame(&mut r).unwrap().unwrap();
            assert_eq!(&frame, expected);
            assert!(ServerMsg::from_bytes(&frame).is_ok());
        }
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn hostile_length_prefix_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(b"junk");
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn done_message_preserves_result_bits() {
        let result = RunResult {
            code: "DC-AI-C15".to_string(),
            seed: 3,
            epochs_run: 4,
            epochs_to_target: Some(4),
            quality_trace: vec![(1, 0.5), (4, f64::from_bits(0x7ff8_0000_0000_0001))],
            loss_trace: vec![0.5, f32::NAN, 0.25, -0.0],
            final_quality: 0.9,
            wall_seconds: 1.5,
            resumed_from: None,
        };
        let done = DoneMsg {
            session: 11,
            outcome_signature: "recovered:1".to_string(),
            fault_signature: "e2:non-finite-loss>rollback".to_string(),
            result: result.clone(),
            queue_wait_ticks: 6,
            epochs_executed: 7,
            recoveries: 1,
        };
        let bytes = ServerMsg::Done(done).to_bytes();
        let ServerMsg::Done(back) = ServerMsg::from_bytes(&bytes).unwrap() else {
            panic!("wrong message");
        };
        assert!(back.result.deterministic_eq(&result));
        assert_eq!(back.queue_wait_ticks, 6);
        assert_eq!(back.outcome_signature, "recovered:1");
    }
}
