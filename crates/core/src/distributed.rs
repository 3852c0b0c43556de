//! Distributed training sessions: the suite-level entry point into
//! `aibench-dist`'s simulated elastic data-parallel runner.
//!
//! Only benchmarks whose scaled trainers implement the
//! [`aibench_models::DataParallel`] hooks can run distributed
//! ([`crate::registry::Benchmark::supports_data_parallel`]); the others
//! return `None` rather than silently falling back to sequential training.
//!
//! # Example
//!
//! ```
//! use aibench::distributed::run_distributed_to_quality;
//! use aibench::registry::Registry;
//! use aibench::runner::RunConfig;
//! use aibench_dist::DistConfig;
//!
//! let registry = Registry::aibench();
//! let stn = registry.get("DC-AI-C15").expect("spatial transformer");
//! let config = RunConfig { max_epochs: 2, ..RunConfig::default() };
//! let report = run_distributed_to_quality(stn, 1, &config, &DistConfig::with_world(2))
//!     .expect("DC-AI-C15 supports data-parallel training");
//! assert_eq!(report.result.epochs_run, 2);
//! assert_eq!(report.dist.world_trace, vec![(1, 2), (2, 2)]);
//! ```

use std::time::Instant;

use aibench_ckpt::{CheckpointSink, CkptError};
use aibench_dist::{
    run_data_parallel, run_data_parallel_resumable, DistConfig, DistRunResult, RunParams,
};

use crate::registry::Benchmark;
use crate::runner::{RunConfig, RunResult};

/// The outcome of a distributed training session: the sequential-shaped
/// [`RunResult`] (so distributed runs flow into the same comparison and
/// repeatability tooling) plus the full distributed record.
#[derive(Debug, Clone)]
pub struct DistReport {
    /// The session outcome in [`crate::runner`] shape.
    pub result: RunResult,
    /// The complete distributed outcome: progress record, world trace,
    /// fault log, reshard count, logical time, abort flag.
    pub dist: DistRunResult,
}

/// The one body behind both entry points: opens the data-parallel session
/// in `config`'s execution context, runs the group — through `sink` when
/// there is one — and closes its progress record into a [`RunResult`].
fn run_group(
    benchmark: &Benchmark,
    seed: u64,
    config: &RunConfig,
    dist: &DistConfig,
    sink: Option<&mut dyn CheckpointSink>,
) -> Option<Result<DistReport, CkptError>> {
    if !benchmark.supports_data_parallel() {
        return None;
    }
    let start = Instant::now();
    let factory = |s: u64| {
        benchmark
            .build_data_parallel(s)
            .expect("supports_data_parallel was checked above")
    };
    let target_met = |q: f64| benchmark.target.met_by(q);
    let params = RunParams {
        max_epochs: config.max_epochs,
        eval_every: config.eval_every,
        snapshot_every: config.checkpoint_every,
    };
    let outcome = config.exec().run(|| match sink {
        Some(sink) => run_data_parallel_resumable(&factory, seed, &target_met, &params, dist, sink),
        None => Ok(run_data_parallel(
            &factory,
            seed,
            &target_met,
            &params,
            dist,
        )),
    });
    Some(outcome.map(|dist| DistReport {
        result: RunResult::from_progress(
            benchmark.id.code(),
            dist.seed,
            dist.progress.clone(),
            start.elapsed().as_secs_f64(),
            dist.resumed_from,
        ),
        dist,
    }))
}

/// Runs an entire data-parallel training session of `benchmark`: `dist.world`
/// simulated workers train to the quality target (or `config.max_epochs`),
/// under `dist`'s membership plan, fault schedule, and recovery policy.
///
/// Returns `None` when the benchmark's trainer does not implement the
/// data-parallel hooks. With `dist.world == 1` and no membership or fault
/// entries, the returned [`DistReport::result`] is `deterministic_eq` to
/// [`crate::runner::run_to_quality`] for the same seed and config.
pub fn run_distributed_to_quality(
    benchmark: &Benchmark,
    seed: u64,
    config: &RunConfig,
    dist: &DistConfig,
) -> Option<DistReport> {
    run_group(benchmark, seed, config, dist, None)
        .map(|report| report.expect("a run without a sink saves nothing"))
}

/// Like [`run_distributed_to_quality`], but resumes from the newest valid
/// group snapshot in `sink` and saves a new snapshot every
/// `config.checkpoint_every` epochs (0 disables saving). A snapshot that
/// cannot be written is an `Err`, as in
/// [`run_to_quality_resumable`](crate::ckpt::run_to_quality_resumable).
pub fn run_distributed_to_quality_resumable(
    benchmark: &Benchmark,
    seed: u64,
    config: &RunConfig,
    dist: &DistConfig,
    sink: &mut dyn CheckpointSink,
) -> Option<Result<DistReport, CkptError>> {
    run_group(benchmark, seed, config, dist, Some(sink))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn unsupported_benchmarks_return_none() {
        let registry = Registry::aibench();
        let gan = registry.get("DC-AI-C3").expect("image generation");
        assert!(!gan.supports_data_parallel());
        assert!(run_distributed_to_quality(
            gan,
            1,
            &RunConfig::default(),
            &DistConfig::with_world(2)
        )
        .is_none());
    }

    #[test]
    fn supported_benchmarks_report_sequential_shape() {
        let registry = Registry::aibench();
        let stn = registry.get("DC-AI-C15").expect("spatial transformer");
        assert!(stn.supports_data_parallel());
        let config = RunConfig {
            max_epochs: 2,
            ..RunConfig::default()
        };
        let report = run_distributed_to_quality(stn, 1, &config, &DistConfig::with_world(2))
            .expect("supported");
        assert_eq!(report.result.code, "DC-AI-C15");
        assert_eq!(report.result.epochs_run, 2);
        assert_eq!(report.result.loss_trace.len(), 2);
        assert_eq!(report.dist.initial_world, 2);
        assert!(!report.dist.aborted);
    }
}
