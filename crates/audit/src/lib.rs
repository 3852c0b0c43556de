//! `aibench-audit`: region-effect analyses over the deterministic kernel
//! layer.
//!
//! `aibench-parallel`'s determinism contract — disjoint chunk writes,
//! order-stable reductions, size-only chunk boundaries — is enforced by
//! convention at every kernel call site. This crate checks the convention
//! mechanically, using the access sets kernels declare through
//! [`aibench_parallel::effects`] (compiled in via the `sanitize` feature,
//! which depending on this crate enables):
//!
//! * [`race`] — cross-chunk write-write and read-write overlap detection
//!   over each recorded parallel region's interval sets, reported with the
//!   kernel name and the offending element ranges.
//! * [`lints`] — determinism lints: float accumulation outside the
//!   order-stable `parallel_reduce` combiners, RNG draws from inside a
//!   parallel region, and chunk boundaries that change with the thread
//!   count instead of depending only on problem size.
//! * [`coverage`] — snapshot-coverage analysis: the buffers a trainer
//!   mutates during an epoch (its *mutation fingerprint*) are diffed
//!   against its `save_state` tree; a mutated parameter with no
//!   bitwise-equal snapshot entry would silently not survive
//!   checkpoint/resume.
//!
//! [`fixtures`] holds seeded defects (an intentionally racy kernel, an
//! unstable reduction, a trainer that forgets state, and friends) proving
//! each analysis fires. `aibench-check --audit` runs [`audit_benchmark`]
//! over the full registry.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod coverage;
pub mod fixtures;
pub mod interval;
pub mod lints;
pub mod race;

use aibench::Benchmark;
use aibench_ckpt::State;
use aibench_parallel::effects::EffectReport;
use aibench_parallel::Exec;
use std::fmt;

/// Seed every audit probe builds trainers from. Fixed so findings are
/// reproducible run to run.
pub const AUDIT_SEED: u64 = 2024;

/// One audit violation: which analysis fired, where, and what it saw.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Benchmark code, fixture name, or kernel label the finding is about.
    pub subject: String,
    /// Stable rule identifier (`region-race`, `unstable-accumulation`,
    /// `rng-in-region`, `thread-dependent-chunking`, `snapshot-coverage`).
    pub rule: &'static str,
    /// The contract the subject was expected to uphold.
    pub expected: String,
    /// What the recorded effects actually show.
    pub found: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: [{}] expected {}, found {}",
            self.subject, self.rule, self.expected, self.found
        )
    }
}

/// Runs `f` in the calling thread's context with a fresh effect recorder,
/// returning its result plus everything recorded ([`Exec::record`]);
/// recordings on other threads at the same time keep their own regions.
pub fn with_recording<R>(f: impl FnOnce() -> R) -> (R, EffectReport) {
    Exec::current().record(f)
}

/// Audits one benchmark end to end: records a full training epoch of a
/// fresh [`AUDIT_SEED`]-seeded trainer, then runs every analysis over the
/// recording —
///
/// 1. race detection and the per-region lints,
/// 2. snapshot coverage of the trainer's post-epoch `save_state` tree,
/// 3. the chunking lint, by re-recording the same epoch (fresh same-seed
///    trainer) at a different thread count and requiring identical chunk
///    descriptors.
///
/// An empty return means the benchmark upholds the determinism contract.
pub fn audit_benchmark(b: &Benchmark) -> Vec<Finding> {
    let code = b.id.code();
    let exec = Exec::current();
    let base_threads = exec.threads();

    let mut trainer = b.build(AUDIT_SEED);
    let (_, report) = exec.record(|| trainer.train_epoch());

    let mut findings = race::detect_races(code, &report);
    findings.extend(lints::lint_regions(code, &report));

    let mut state = State::new();
    trainer.save_state(&mut state);
    findings.extend(coverage::check_coverage(
        code,
        &trainer.params(),
        &state,
        &report,
    ));

    let alt_threads = if base_threads == 1 { 4 } else { 1 };
    let alt = exec.with_threads(alt_threads);
    let mut retrainer = alt.run(|| b.build(AUDIT_SEED));
    let (_, alt_report) = alt.record(|| retrainer.train_epoch());
    findings.extend(lints::lint_chunking(
        code,
        base_threads,
        alt_threads,
        &report,
        &alt_report,
    ));

    findings
}
