//! `aibench-ckpt`: the deterministic checkpoint/restore subsystem.
//!
//! Every kernel in this workspace is bit-reproducible given a seed and the
//! thread count never changes results, so a training session interrupted at
//! any epoch boundary can — in principle — resume to a **bitwise identical**
//! outcome. This crate supplies the pieces that turn that principle into a
//! checked guarantee:
//!
//! * [`State`] — an ordered, typed key/value tree into which every stateful
//!   component (tensors, RNGs, optimizer moments, running statistics,
//!   epoch counters) writes its mutable state.
//! * [`Snapshot`] / [`Restore`] — the traits components implement, keyed by
//!   a dotted prefix so nested components compose (`"opt.p3.value"`).
//! * [`SnapshotFile`] — a versioned, checksummed binary container: magic +
//!   header + one CRC32-guarded section per subsystem. Single-byte
//!   corruption anywhere in a file is always detected (property-tested).
//! * [`CheckpointSink`] — where snapshot bytes go: [`MemorySink`] for tests
//!   and fault injection, [`DirSink`] for real interrupted runs, and
//!   [`FailingSink`] as the scheduled-I/O-failure test double. Storage
//!   failures surface as typed [`CkptError::Io`] values, never silently.
//! * [`PartialRun`] — the progress record every runner commits epochs
//!   through: the eval cadence, the stop rule and the one progress codec;
//!   [`latest_valid`] is the one "newest snapshot that still validates"
//!   walk over a sink.
//! * [`validate`] — a lint-grade walker that collects *every* defect in a
//!   byte stream (bad magic, version mismatch, checksum failures,
//!   truncation, orphan trailing bytes, duplicate sections) instead of
//!   stopping at the first, for `aibench-check --ckpt`.
//!
//! The crate is deliberately at the bottom of the workspace: it depends on
//! nothing (std only), and `tensor`, `autograd`, `nn`, `data`, `models`,
//! and `core` all implement its traits for their own types.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod crc32;
mod error;
mod format;
mod progress;
mod sink;
mod state;

pub use crc32::{crc32, Crc32};
pub use error::CkptError;
pub use format::{validate, SnapshotFile, FORMAT_VERSION, MAGIC};
pub use progress::PartialRun;
pub use sink::{latest_valid, CheckpointSink, DirSink, FailingSink, MemorySink};
pub use state::{key, Restore, Snapshot, State, Value};
