//! The suite supervisor: runs every registered benchmark under
//! supervision, isolating each behind a panic boundary so one broken
//! benchmark can never take the rest of the suite down, and reports a
//! per-benchmark outcome table.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

use aibench::runner::RunConfig;
use aibench::Registry;

use crate::inject::panic_message;
use crate::schedule::FaultSchedule;
use crate::supervisor::{supervised_run, Outcome, SupervisorConfig};
use crate::taxonomy::TrainFault;

/// Per-benchmark fault schedules for one suite pass. Benchmarks without an
/// entry run under the empty schedule (no injections).
#[derive(Debug, Clone, Default)]
pub struct SuitePlan {
    /// Benchmark code → schedule.
    pub schedules: BTreeMap<String, FaultSchedule>,
}

impl SuitePlan {
    /// No injections anywhere.
    pub fn clean() -> Self {
        SuitePlan::default()
    }

    /// Assigns `schedule` to the benchmark with `code`.
    pub fn with(mut self, code: &str, schedule: FaultSchedule) -> Self {
        self.schedules.insert(code.to_string(), schedule);
        self
    }
}

/// One benchmark's row in a [`SuiteReport`].
#[derive(Debug, Clone)]
pub struct SuiteEntry {
    /// Benchmark code.
    pub code: String,
    /// How the supervised run ended.
    pub outcome: Outcome,
    /// Recovery actions taken.
    pub recoveries: usize,
    /// Faults detected.
    pub faults: usize,
    /// Epochs in the surviving trajectory.
    pub epochs_run: usize,
    /// Epochs executed including recovery re-runs.
    pub epochs_executed: usize,
    /// Final quality reached.
    pub final_quality: f64,
    /// Wall-clock seconds (timing noise; not part of any determinism
    /// comparison).
    pub wall_seconds: f64,
}

/// The suite supervisor's result: one entry per benchmark, in registry
/// order.
#[derive(Debug, Clone)]
pub struct SuiteReport {
    /// Per-benchmark outcomes.
    pub entries: Vec<SuiteEntry>,
}

impl SuiteReport {
    /// Entries that converged without any recovery.
    pub fn converged(&self) -> usize {
        self.count("converged")
    }

    /// Entries that reached their target after recoveries.
    pub fn recovered(&self) -> usize {
        self.count("recovered")
    }

    /// Entries the supervisor quarantined.
    pub fn quarantined(&self) -> usize {
        self.count("quarantined")
    }

    fn count(&self, kind: &str) -> usize {
        self.entries
            .iter()
            .filter(|e| e.outcome.kind() == kind)
            .count()
    }

    /// Renders the report as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<12} {:<28} {:>6} {:>6} {:>7} {:>9} {:>10}",
            "benchmark", "outcome", "faults", "recov", "epochs", "executed", "quality"
        );
        for e in &self.entries {
            let _ = writeln!(
                out,
                "{:<12} {:<28} {:>6} {:>6} {:>7} {:>9} {:>10.4}",
                e.code,
                e.outcome.signature(),
                e.faults,
                e.recoveries,
                e.epochs_run,
                e.epochs_executed,
                e.final_quality
            );
        }
        let _ = writeln!(
            out,
            "{} converged, {} recovered, {} quarantined, {} total",
            self.converged(),
            self.recovered(),
            self.quarantined(),
            self.entries.len()
        );
        out
    }
}

/// Runs every benchmark in `registry` under supervision with its schedule
/// from `plan` (empty if unplanned). Each benchmark runs behind its own
/// panic boundary: a panic that somehow escapes the supervised loop (e.g.
/// out of the benchmark factory) quarantines that benchmark and the suite
/// moves on.
pub fn run_suite(
    registry: &Registry,
    seed: u64,
    config: &RunConfig,
    plan: &SuitePlan,
    sup: &SupervisorConfig,
) -> SuiteReport {
    let empty = FaultSchedule::empty();
    let mut entries = Vec::new();
    for benchmark in registry.benchmarks() {
        let code = benchmark.id.code();
        let schedule = plan.schedules.get(code).unwrap_or(&empty);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            supervised_run(benchmark, seed, config, schedule, sup)
        }));
        let entry = match outcome {
            Ok(run) => SuiteEntry {
                code: code.to_string(),
                outcome: run.outcome,
                recoveries: run.recoveries,
                faults: run.faults.len(),
                epochs_run: run.result.epochs_run,
                epochs_executed: run.epochs_executed,
                final_quality: run.result.final_quality,
                wall_seconds: run.result.wall_seconds,
            },
            Err(payload) => SuiteEntry {
                code: code.to_string(),
                outcome: Outcome::Quarantined {
                    fault: TrainFault::KernelPanic {
                        epoch: 0,
                        message: panic_message(&*payload),
                    },
                },
                recoveries: 0,
                faults: 1,
                epochs_run: 0,
                epochs_executed: 0,
                final_quality: f64::NAN,
                wall_seconds: 0.0,
            },
        };
        entries.push(entry);
    }
    SuiteReport { entries }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::FaultKind;

    #[test]
    fn clean_suite_pass_covers_every_benchmark() {
        let registry = Registry::aibench();
        let config = RunConfig {
            max_epochs: 1,
            eval_every: 1,
            ..RunConfig::default()
        };
        let report = run_suite(
            &registry,
            1,
            &config,
            &SuitePlan::clean(),
            &SupervisorConfig::default(),
        );
        assert_eq!(report.entries.len(), registry.benchmarks().len());
        assert_eq!(report.quarantined(), 0);
        assert!(report.entries.iter().all(|e| e.faults == 0));
        let table = report.render();
        assert!(table.contains("DC-AI-C15"));
    }

    #[test]
    fn planned_injection_shows_up_in_its_row_only() {
        let registry = Registry::aibench();
        let config = RunConfig {
            max_epochs: 4,
            eval_every: 1,
            ..RunConfig::default()
        };
        let plan = SuitePlan::clean().with(
            "DC-AI-C15",
            FaultSchedule::new(5).inject(2, FaultKind::LossValue { value: f32::NAN }),
        );
        let report = run_suite(&registry, 1, &config, &plan, &SupervisorConfig::default());
        for e in &report.entries {
            if e.code == "DC-AI-C15" {
                assert!(e.faults >= 1, "injection must be detected");
            } else {
                assert_eq!(e.faults, 0, "{}: unplanned faults", e.code);
            }
        }
    }
}
