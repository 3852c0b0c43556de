//! `aibench-serve`: multi-tenant benchmark-as-a-service over the AIBench
//! training suite.
//!
//! The server accepts benchmark-run requests from many tenants, admits
//! them against a bounded worker budget with fair-share queueing, preempts
//! running sessions for higher-priority arrivals by parking them through
//! `aibench-ckpt` snapshots, and supervises every session with the
//! `aibench-fault` sentinels so one tenant's poisoned run can never take
//! a neighbor down.
//!
//! Four layers:
//!
//! * [`wire`] — the serde-free wire protocol: length-prefixed frames whose
//!   payloads are CRC-checked ckpt snapshot containers; results cross the
//!   wire with every float bit intact.
//! * [`server`] — the deterministic, transport-agnostic core: admission,
//!   fair share, preemption, and the schedule log that witnesses all of it
//!   ([`server::ServeReport::schedule_signature`]).
//! * [`lease`] and [`client`] — the two halves of the recovery protocol
//!   (session leases, idempotent retries, reconnect-and-replay) as state
//!   machines that never touch a socket, so every transport runs the
//!   same code.
//! * [`tcp`] — a thin TCP listener over the core, plus a blocking client.
//!
//! # Determinism contract
//!
//! A fixed request trace replayed through [`server::run_trace`] produces
//! the identical admission/preemption schedule and bitwise-identical
//! per-session results at any `AIBENCH_THREADS` — scheduling decisions are
//! functions of (tick, submission order, priority, accumulated service),
//! never wall-clock time. A preempted-then-resumed session is bitwise
//! identical to one that ran uninterrupted.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod lease;
pub mod server;
pub mod tcp;
pub mod wire;

pub use server::{
    run_trace, schedule_signature, Quirks, Rejection, SchedAction, SchedEvent, ServeConfig,
    ServeReport, ServerCore, SessionResult,
};
pub use tcp::{reconnect_and_wait, serve_sessions, serve_sessions_with, submit_and_wait};
pub use wire::{ClientMsg, DoneMsg, Event, ProgressEvent, RunRequest, ServerMsg};
