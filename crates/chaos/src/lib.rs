//! `aibench-chaos`: deterministic end-to-end chaos engineering for the
//! serving and storage layers.
//!
//! The crate injects seeded chaos into three layers of the serving stack
//! and soaks the hardening that must absorb it:
//!
//! * **Wire** — frame bit-flips, truncation, duplication, delayed
//!   delivery, mid-frame connection resets, and partial writes, keyed on
//!   direction-global frame indices.
//! * **Store** — torn checkpoint writes, disk-full errors, and snapshot
//!   bit rot, keyed on the global save-op index ([`ChaosSink`]).
//! * **Server** — scheduler tick stalls and slow client writes, keyed on
//!   the scheduler tick.
//!
//! Three modules mirror the `aibench-fault` structure:
//!
//! * [`schedule`] — [`ChaosSchedule`]: the pure-data, seeded injection
//!   plan (same replay discipline as `FaultSchedule`).
//! * [`log`] — [`ChaosEvent`] and [`chaos_signature`]: the replayable
//!   witness of what actually fired. It is this layer's own fault record;
//!   what the hardening did about each injection shows in the
//!   [`ChaosReport`] recovery counters.
//! * [`soak`] — [`run_soak`]: the in-process client/server harness that
//!   drives a real `ServerCore`, and the lease table and client machine
//!   the TCP transport ships, through real wire bytes under chaos.
//!
//! # The chaos invariant
//!
//! Under any seeded chaos schedule, every accepted session completes with
//! a `RunResult` bitwise identical to its chaos-free counterpart, and the
//! same chaos seed replays the identical chaos-event log at any
//! `AIBENCH_THREADS`. `tests/chaos_determinism.rs` pins both.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod log;
pub mod schedule;
pub mod sink;
pub mod soak;

pub use log::{chaos_signature, ChaosEvent};
pub use schedule::{ChaosInjection, ChaosKind, ChaosSchedule, ChaosSite};
pub use sink::{ChaosSink, StoreChaos};
pub use soak::{run_soak, ChaosReport, SoakConfig, SoakOutcome};
