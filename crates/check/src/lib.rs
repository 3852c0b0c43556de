//! `aibench-check`: static shape/dataflow validator and invariant lint
//! suite for the AIBench workspace.
//!
//! Only analyses that nothing else in the workspace performs live here,
//! each independent of the code it checks:
//!
//! * [`shape`] — forward shape propagation over [`aibench_models::ModelSpec`]
//!   layer graphs (channel/feature agreement, conv/pool output geometry,
//!   RNN gate dimensions, attention head divisibility) plus an independent
//!   re-derivation of per-layer parameters and forward FLOPs that must
//!   agree with `aibench-opcount` *exactly*.
//! * [`trace`] — invariant lints over `aibench-gpusim` kernel traces and
//!   profiles: every kernel name maps to its Table-7 category, per-category
//!   times are conserved, stall fractions sum to one, the training/inference
//!   FLOP ratio respects the fwd:bwd convention, and inference traces are
//!   free of gradient/optimizer kernels.
//! * [`tape`] — a dynamic sanitizer for the autograd tape: one probe epoch
//!   per scaled model flags dead parameters (no training effect),
//!   NaN/Inf parameter values, and forward ops without gradcheck coverage.
//! * [`ckpt`] — checkpoint lints: snapshot bytes are validated against the
//!   `aibench-ckpt` wire format (magic, version, checksums, framing), and
//!   every benchmark's snapshot/restore round-trip must be byte-stable.
//! * [`audit`] — region-effect analyses over `aibench-audit`: cross-chunk
//!   race detection on recorded access sets, determinism lints (unstable
//!   accumulation, RNG in parallel regions, thread-dependent chunking),
//!   and snapshot-coverage diffing of each trainer's mutation fingerprint
//!   against its `save_state` tree.
//!
//! The live system's contracts — fault supervision, distributed training,
//! serving and chaos hardening — are pinned by the workspace's tests
//! (`tests/{fault_recovery,dist_determinism,serve_determinism,
//! chaos_determinism}.rs` and the crates' unit tests), not re-run here.
//!
//! [`fixtures`] holds seeded-defect inputs proving each rule fires; the
//! `aibench-check` binary runs everything over the benchmark registry and
//! exits nonzero on any violation.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod audit;
pub mod ckpt;
pub mod counts;
pub mod fixtures;
pub mod shape;
pub mod tape;
pub mod trace;

use std::fmt;

/// One rule violation, with enough structure to locate and explain it.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Benchmark code or model name the violation belongs to.
    pub benchmark: String,
    /// Layer index within the spec, when the rule is layer-scoped.
    pub layer: Option<usize>,
    /// Stable rule identifier (e.g. `channel-agreement`).
    pub rule: &'static str,
    /// What the rule expected at this site.
    pub expected: String,
    /// What was actually found.
    pub found: String,
}

impl Diagnostic {
    /// Creates a layer-scoped diagnostic.
    pub fn at_layer(
        benchmark: impl Into<String>,
        layer: usize,
        rule: &'static str,
        expected: impl Into<String>,
        found: impl Into<String>,
    ) -> Self {
        Diagnostic {
            benchmark: benchmark.into(),
            layer: Some(layer),
            rule,
            expected: expected.into(),
            found: found.into(),
        }
    }

    /// Creates a benchmark-scoped diagnostic (no single layer to blame).
    pub fn global(
        benchmark: impl Into<String>,
        rule: &'static str,
        expected: impl Into<String>,
        found: impl Into<String>,
    ) -> Self {
        Diagnostic {
            benchmark: benchmark.into(),
            layer: None,
            rule,
            expected: expected.into(),
            found: found.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.layer {
            Some(i) => write!(
                f,
                "{} layer {}: [{}] expected {}, found {}",
                self.benchmark, i, self.rule, self.expected, self.found
            ),
            None => write!(
                f,
                "{}: [{}] expected {}, found {}",
                self.benchmark, self.rule, self.expected, self.found
            ),
        }
    }
}

/// Accumulated result of one or more checks.
#[derive(Debug, Default, Clone)]
pub struct CheckReport {
    /// Every violation found, in check order.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of rule evaluations that ran (clean or not).
    pub checks_run: usize,
}

impl CheckReport {
    /// An empty report.
    pub fn new() -> Self {
        CheckReport::default()
    }

    /// True when no rule fired.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Folds another batch of diagnostics into this report.
    pub fn absorb(&mut self, diags: Vec<Diagnostic>) {
        self.checks_run += 1;
        self.diagnostics.extend(diags);
    }
}

/// Runs every static analysis (specs, counts, traces) over the full
/// benchmark registry, plus the gradcheck coverage lint. The dynamic tape
/// probe is excluded here because it trains every scaled model (seconds,
/// not milliseconds); call [`tape::probe_registry`] separately.
pub fn run_static(registry: &aibench::Registry) -> CheckReport {
    let mut report = CheckReport::new();
    for b in registry.benchmarks() {
        let spec = b.spec();
        let code = b.id.code();
        report.absorb(shape::check_spec(code, &spec));
        report.absorb(counts::verify_spec(code, &spec));
        report.absorb(trace::check_benchmark(code, &spec));
    }
    report.absorb(tape::check_gradcheck_coverage());
    report
}
