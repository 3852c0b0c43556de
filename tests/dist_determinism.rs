//! End-to-end guarantees of the elastic data-parallel engine
//! (`aibench-dist`), run through the suite-level entry point:
//!
//! * the same seed + world size reproduces the *bitwise identical* run at
//!   1, 4, and 8 threads — thread count is an execution detail;
//! * a single-worker group under the empty schedule is bitwise identical
//!   to the sequential runner (`run_to_quality`);
//! * a scheduled worker drop replays identically, recovers by
//!   exclude-and-reshard, and the surviving group still reaches the
//!   quality target;
//! * elastic join/leave at epoch boundaries resumes bitwise-identically
//!   from a group snapshot after an interruption.

use aibench::distributed::run_distributed_to_quality;
use aibench::registry::{Benchmark, Registry};
use aibench::runner::{run_to_quality, RunConfig};
use aibench_ckpt::{CheckpointSink, CkptError, FailingSink, MemorySink};
use aibench_dist::{
    run_data_parallel_resumable, DistConfig, DistFaultKind, DistSchedule, MembershipPlan, RunParams,
};
use aibench_parallel::ParallelConfig;

fn probe(registry: &Registry) -> &Benchmark {
    registry.get("DC-AI-C15").expect("spatial transformer")
}

fn cfg(max_epochs: usize) -> RunConfig {
    RunConfig {
        max_epochs,
        eval_every: 1,
        ..RunConfig::default()
    }
}

#[test]
fn same_seed_and_world_is_bitwise_identical_across_thread_counts() {
    let registry = Registry::aibench();
    let b = probe(&registry);
    // Clean, and with a corrupt gradient shard quarantined out of the
    // tree all-reduce.
    for schedule in [
        DistSchedule::empty(),
        DistSchedule::empty().inject(1, 1, 0, DistFaultKind::CorruptGradShard),
    ] {
        let faulted = !schedule.injections().is_empty();
        let dist = DistConfig {
            schedule,
            ..DistConfig::with_world(2)
        };
        let mut baseline = None;
        for threads in [1usize, 4, 8] {
            let config = RunConfig {
                parallel: Some(ParallelConfig::with_threads(threads)),
                ..cfg(3)
            };
            let report = run_distributed_to_quality(b, 7, &config, &dist).expect("supported");
            assert_eq!(!report.dist.faults.is_empty(), faulted);
            match &baseline {
                None => baseline = Some(report),
                Some(expect) => assert!(
                    expect.dist.deterministic_eq(&report.dist),
                    "{threads}-thread distributed run differs from serial: \
                     quality {:.9} vs {:.9}",
                    expect.result.final_quality,
                    report.result.final_quality
                ),
            }
        }
    }
}

#[test]
fn single_worker_group_is_bitwise_identical_to_the_sequential_runner() {
    let assert_identity = |b: &Benchmark, seed: u64, config: &RunConfig| {
        let code = b.id.code();
        let (max_epochs, eval_every) = (config.max_epochs, config.eval_every);
        let plain = run_to_quality(b, seed, config);
        let report = run_distributed_to_quality(b, seed, config, &DistConfig::with_world(1))
            .expect("supported");
        assert!(
            plain.deterministic_eq(&report.result),
            "{code}: 1-worker group diverged from the sequential runner at \
             ({max_epochs}, {eval_every}): {} epoch(s) to {:.9} vs {} epoch(s) to {:.9}",
            plain.epochs_run,
            plain.final_quality,
            report.result.epochs_run,
            report.result.final_quality
        );
        assert!(report.dist.faults.is_empty(), "{code}");
        assert_eq!(report.dist.reshards, 0, "{code}");
    };
    let registry = Registry::aibench();
    let b = probe(&registry);
    // Seed 1 converges after a few epochs; seed 2 trains to each of the
    // short caps, so every eval cadence plays out in full.
    for (seed, max_epochs, eval_every) in [(1, 30, 1), (2, 5, 2), (2, 5, 3), (2, 4, 0), (2, 7, 4)] {
        let config = RunConfig {
            eval_every,
            ..cfg(max_epochs)
        };
        assert_identity(b, seed, &config);
    }
    // Every data-parallel benchmark, MLPerf included, at a short cap.
    for b in Registry::all().benchmarks() {
        if b.supports_data_parallel() {
            assert_identity(b, 1, &cfg(2));
        }
    }
}

#[test]
fn worker_drop_replays_identically_and_still_reaches_target() {
    let registry = Registry::aibench();
    let b = probe(&registry);
    let config = cfg(40);
    let dist = DistConfig {
        schedule: DistSchedule::empty().inject(2, 1, 1, DistFaultKind::WorkerDrop),
        ..DistConfig::with_world(2)
    };
    let first = run_distributed_to_quality(b, 2, &config, &dist).expect("supported");
    let second = run_distributed_to_quality(b, 2, &config, &dist).expect("supported");
    assert!(
        first.dist.deterministic_eq(&second.dist),
        "same seed + schedule diverged:\n  {:?}\n  {:?}",
        first.dist.fault_signatures(),
        second.dist.fault_signatures()
    );
    assert!(
        first
            .dist
            .fault_signatures()
            .iter()
            .any(|s| s.contains("worker-drop>exclude-reshard")),
        "expected an exclude-and-reshard recovery, got {:?}",
        first.dist.fault_signatures()
    );
    assert!(first.dist.reshards >= 1);
    assert!(
        first.dist.world_trace.iter().any(|&(_, w)| w == 1),
        "the group never shrank: {:?}",
        first.dist.world_trace
    );
    assert!(
        first.result.converged(),
        "the surviving worker missed the target: quality {:.6} after {} epoch(s)",
        first.result.final_quality,
        first.result.epochs_run
    );
    assert!(!first.dist.aborted);

    // A drop and a straggler in the same short run replay too.
    let dist = DistConfig {
        schedule: DistSchedule::empty()
            .inject(1, 2, 1, DistFaultKind::WorkerDrop)
            .inject(2, 1, 0, DistFaultKind::StragglerDelay { ticks: 2 }),
        ..DistConfig::with_world(2)
    };
    let first = run_distributed_to_quality(b, 1, &cfg(2), &dist).expect("supported");
    let second = run_distributed_to_quality(b, 1, &cfg(2), &dist).expect("supported");
    assert!(!first.dist.faults.is_empty(), "the schedule must inject");
    assert!(
        first.dist.deterministic_eq(&second.dist),
        "drop + straggler diverged: {:?} vs {:?}",
        first.dist.fault_signatures(),
        second.dist.fault_signatures()
    );
}

#[test]
fn elastic_membership_resumes_bitwise_identically_from_snapshot() {
    // Driven through the engine API with a never-met target: DC-AI-C15
    // reaches its quality target within a couple of epochs, which would
    // end the run before the membership plan plays out.
    let registry = Registry::aibench();
    let b = probe(&registry);
    let factory = |s: u64| {
        b.build_data_parallel(s)
            .expect("DC-AI-C15 is data-parallel")
    };
    let never = |_q: f64| false;
    let membership = MembershipPlan::empty().join(3, 2).leave(5, 1);
    let dist = DistConfig {
        membership,
        ..DistConfig::with_world(2)
    };
    let full = RunParams {
        max_epochs: 8,
        eval_every: 1,
        snapshot_every: 1,
    };

    let mut scratch = MemorySink::new();
    let uninterrupted =
        run_data_parallel_resumable(&factory, 3, &never, &full, &dist, &mut scratch).unwrap();
    assert_eq!(
        uninterrupted.world_trace,
        vec![
            (1, 2),
            (2, 2),
            (3, 3),
            (4, 3),
            (5, 2),
            (6, 2),
            (7, 2),
            (8, 2)
        ],
        "the membership plan did not play out at epoch boundaries"
    );

    // Interrupt after epoch 4 (mid-plan: the join has happened, the leave
    // has not), then resume from the sink's newest snapshot.
    let half = RunParams {
        max_epochs: 4,
        ..full
    };
    let mut sink = MemorySink::new();
    let halted = run_data_parallel_resumable(&factory, 3, &never, &half, &dist, &mut sink).unwrap();
    assert_eq!(halted.progress.epochs_run, 4);
    assert_eq!(halted.resumed_from, None);
    assert_eq!(halted.world_trace, uninterrupted.world_trace[..4]);

    let resumed =
        run_data_parallel_resumable(&factory, 3, &never, &full, &dist, &mut sink).unwrap();
    assert_eq!(resumed.resumed_from, Some(4));
    assert!(
        uninterrupted.deterministic_eq(&resumed),
        "resumed run diverged from the uninterrupted one: \
         quality {:.9} vs {:.9}, world {:?} vs {:?}",
        uninterrupted.progress.final_quality,
        resumed.progress.final_quality,
        uninterrupted.world_trace,
        resumed.world_trace
    );
}

#[test]
fn a_failed_group_snapshot_save_is_an_error_not_a_success() {
    // The sequential resumable runner's rule, held by the group too:
    // durability was requested and lost, which must not look like success.
    let registry = Registry::aibench();
    let b = probe(&registry);
    let factory = |s: u64| {
        b.build_data_parallel(s)
            .expect("DC-AI-C15 is data-parallel")
    };
    let params = RunParams {
        max_epochs: 3,
        eval_every: 1,
        snapshot_every: 1,
    };
    let mut sink = FailingSink::new(MemorySink::new()).fail_save_at(2);
    let outcome = run_data_parallel_resumable(
        &factory,
        3,
        &|_| false,
        &params,
        &DistConfig::with_world(2),
        &mut sink,
    );
    assert!(
        matches!(outcome, Err(CkptError::Io { .. })),
        "a lost snapshot passed for success"
    );
    assert_eq!(sink.saves_failed, 1);
    assert_eq!(sink.epochs(), vec![1], "the run stopped at the failed save");
}
