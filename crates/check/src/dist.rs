//! Distributed-training lints over `aibench-dist`: the elastic
//! data-parallel engine's contracts, checked against the live registry.
//!
//! * **Shard partition** — strided sharding must partition every global
//!   batch: each example lands on exactly one rank, rank order preserves
//!   batch order, and re-sharding to a new world size re-partitions the
//!   same stream.
//! * **Single-worker identity** — a one-worker group with no membership
//!   changes and no faults must be bitwise identical to the sequential
//!   runner for the same seed and config.
//! * **Injection replay** — the same seed + the same distributed fault
//!   schedule must reproduce the identical run: trajectory, fault log,
//!   world trace, and logical time.
//! * **Thread invariance** — a multi-worker run must be bitwise identical
//!   at any thread count; the tree all-reduce's ordering discipline is
//!   what this exercises.

use aibench::distributed::run_distributed_to_quality;
use aibench::runner::{run_to_quality, RunConfig};
use aibench::{Benchmark, Registry};
use aibench_data::shard::shard_of_batch;
use aibench_dist::{DistConfig, DistFaultKind, DistSchedule};
use aibench_parallel::ParallelConfig;

use crate::Diagnostic;

/// Seed every distributed lint trains under (matches the fault lints).
const SEED: u64 = 1;

/// Benchmark code the group-level probes run on: cheap, deterministic,
/// and `DataParallel`-capable.
const PROBE: &str = "DC-AI-C15";

fn lint_config(max_epochs: usize) -> RunConfig {
    RunConfig {
        max_epochs,
        eval_every: 1,
        ..RunConfig::default()
    }
}

fn probe<'a>(registry: &'a Registry, rule: &'static str) -> Result<&'a Benchmark, Vec<Diagnostic>> {
    registry
        .benchmarks()
        .iter()
        .find(|b| b.id.code() == PROBE)
        .ok_or_else(|| {
            vec![Diagnostic::global(
                "registry",
                rule,
                format!("{PROBE} registered for the distributed probe"),
                "benchmark missing from the registry",
            )]
        })
}

/// Strided sharding must partition the batch: every global position on
/// exactly one rank, and concatenating shards rank-by-rank in stride
/// order reproduces the original batch exactly.
pub fn check_shard_partition() -> Vec<Diagnostic> {
    let rule = "dist-shard-partition";
    let mut out = Vec::new();
    for &(world, len) in &[(1usize, 7usize), (2, 8), (3, 10), (4, 16), (5, 4)] {
        // A non-trivial (non-identity) batch so ordering bugs can't hide.
        let batch: Vec<usize> = (0..len).map(|i| i * 3 + 1).collect();
        let shards: Vec<Vec<usize>> = (0..world)
            .map(|rank| shard_of_batch(&batch, world, rank))
            .collect();
        let total: usize = shards.iter().map(Vec::len).sum();
        if total != batch.len() {
            out.push(Diagnostic::global(
                "dist",
                rule,
                format!("{} example(s) across {} shard(s)", batch.len(), world),
                format!("{total} example(s) after sharding"),
            ));
            continue;
        }
        // Each position i of the batch belongs to rank i % world, at
        // in-shard offset i / world.
        for (i, &example) in batch.iter().enumerate() {
            let got = shards[i % world].get(i / world).copied();
            if got != Some(example) {
                out.push(Diagnostic::global(
                    "dist",
                    rule,
                    format!(
                        "batch position {i} = example {example} on rank {} offset {}",
                        i % world,
                        i / world
                    ),
                    format!("found {got:?}"),
                ));
            }
        }
    }
    out
}

/// A one-worker group with the empty schedule must be bitwise identical to
/// the sequential runner. Benchmarks without data-parallel hooks are
/// skipped (they cannot form a group at all).
pub fn check_single_worker_equivalence(benchmark: &Benchmark) -> Vec<Diagnostic> {
    if !benchmark.supports_data_parallel() {
        return Vec::new();
    }
    let code = benchmark.id.code();
    let config = lint_config(2);
    let plain = run_to_quality(benchmark, SEED, &config);
    let report = run_distributed_to_quality(benchmark, SEED, &config, &DistConfig::with_world(1))
        .expect("data-parallel support was checked above");
    let mut out = Vec::new();
    if !plain.deterministic_eq(&report.result) {
        out.push(Diagnostic::global(
            code,
            "dist-single-worker-identity",
            "a 1-worker group bitwise identical to the sequential runner",
            format!(
                "sequential ran {} epoch(s) to quality {:.6}; distributed ran {} to {:.6}",
                plain.epochs_run,
                plain.final_quality,
                report.result.epochs_run,
                report.result.final_quality
            ),
        ));
    }
    if !report.dist.faults.is_empty() {
        out.push(Diagnostic::global(
            code,
            "dist-sentinel-false-positive",
            "a silent fault log under the empty schedule",
            report.dist.fault_signatures().join(", "),
        ));
    }
    out
}

/// The same seed + the same distributed schedule must replay bit for bit,
/// and the injections must actually land in the fault log.
pub fn check_replay_stability(registry: &Registry) -> Vec<Diagnostic> {
    let rule = "dist-replay-divergence";
    let benchmark = match probe(registry, rule) {
        Ok(b) => b,
        Err(diags) => return diags,
    };
    let schedule = DistSchedule::empty()
        .inject(1, 2, 1, DistFaultKind::WorkerDrop)
        .inject(2, 1, 0, DistFaultKind::StragglerDelay { ticks: 2 });
    let cfg = DistConfig {
        schedule,
        ..DistConfig::with_world(2)
    };
    let config = lint_config(2);
    let first = run_distributed_to_quality(benchmark, SEED, &config, &cfg).expect("probe");
    let second = run_distributed_to_quality(benchmark, SEED, &config, &cfg).expect("probe");
    let mut out = Vec::new();
    if first.dist.faults.is_empty() {
        out.push(Diagnostic::global(
            PROBE,
            "dist-injection-inert",
            "scheduled worker faults reach the group's fault log",
            "no fault recorded under a faulting schedule",
        ));
    }
    if !first.dist.deterministic_eq(&second.dist) {
        out.push(Diagnostic::global(
            PROBE,
            rule,
            "identical distributed runs under the same seed and schedule",
            format!(
                "fault logs `{}` vs `{}`, world traces {:?} vs {:?}",
                first.dist.fault_signatures().join(","),
                second.dist.fault_signatures().join(","),
                first.dist.world_trace,
                second.dist.world_trace
            ),
        ));
    }
    out
}

/// A two-worker faulting run must be bitwise identical at 1 thread and at
/// 4 threads: thread count is an execution detail, never an input to the
/// trajectory. The pool is restored to its configured default afterwards.
pub fn check_thread_invariance(registry: &Registry) -> Vec<Diagnostic> {
    let rule = "dist-thread-variance";
    let benchmark = match probe(registry, rule) {
        Ok(b) => b,
        Err(diags) => return diags,
    };
    let cfg = DistConfig {
        schedule: DistSchedule::empty().inject(1, 1, 0, DistFaultKind::CorruptGradShard),
        ..DistConfig::with_world(2)
    };
    let config = lint_config(2);
    aibench_parallel::set_threads(1);
    let serial = run_distributed_to_quality(benchmark, SEED, &config, &cfg).expect("probe");
    aibench_parallel::set_threads(4);
    let threaded = run_distributed_to_quality(benchmark, SEED, &config, &cfg).expect("probe");
    ParallelConfig::default().install();
    if serial.dist.deterministic_eq(&threaded.dist) {
        Vec::new()
    } else {
        vec![Diagnostic::global(
            PROBE,
            rule,
            "bitwise-identical distributed runs at 1 and 4 threads",
            format!(
                "final quality {:.9} vs {:.9}, fault logs `{}` vs `{}`",
                serial.result.final_quality,
                threaded.result.final_quality,
                serial.dist.fault_signatures().join(","),
                threaded.dist.fault_signatures().join(",")
            ),
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_partition_is_clean() {
        assert!(check_shard_partition().is_empty());
    }

    #[test]
    fn single_worker_group_matches_the_sequential_runner() {
        let registry = Registry::aibench();
        let b = registry.get(PROBE).unwrap();
        assert!(check_single_worker_equivalence(b).is_empty());
    }

    #[test]
    fn unsupported_benchmarks_are_skipped() {
        let registry = Registry::aibench();
        let gan = registry.get("DC-AI-C3").unwrap();
        assert!(check_single_worker_equivalence(gan).is_empty());
    }

    #[test]
    fn faulting_runs_replay_and_survive_thread_changes() {
        let registry = Registry::aibench();
        assert!(check_replay_stability(&registry).is_empty());
        assert!(check_thread_invariance(&registry).is_empty());
    }
}
