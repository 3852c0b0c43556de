//! End-to-end guarantees of the supervised runner (`aibench-fault`):
//!
//! * an empty fault schedule is *bitwise identical* to the plain runner;
//! * the same seed + schedule reproduces the identical run — trajectory,
//!   fault log, and outcome — across repeats and across thread counts;
//! * injected NaNs trigger rollback recovery and the paper's minimum
//!   subset still converges;
//! * persistent faults end in quarantine, never in a hang.

use std::collections::{BTreeMap, BTreeSet};

use aibench::registry::{Benchmark, Registry};
use aibench::runner::{run_to_quality, RunConfig};
use aibench_chaos::{run_soak, ChaosKind, ChaosSchedule, ChaosSite, SoakConfig};
use aibench_ckpt::{FailingSink, MemorySink};
use aibench_dist::{run_data_parallel, DistConfig, DistFaultKind, DistSchedule, RunParams};
use aibench_fault::{
    supervised_run, supervised_run_with_sink, FaultEvent, FaultKind, FaultSchedule, Outcome,
    RecoveryPolicy, SentinelConfig, SupervisorConfig, TrainFault,
};
use aibench_parallel::ParallelConfig;
use aibench_serve::RunRequest;

/// The minimum subset Section 5.4's criteria recover: Image
/// Classification, Object Detection, Learning-to-Rank.
const MIN_SUBSET: [&str; 3] = ["DC-AI-C1", "DC-AI-C9", "DC-AI-C16"];

fn cfg(max_epochs: usize) -> RunConfig {
    RunConfig {
        max_epochs,
        eval_every: 1,
        ..RunConfig::default()
    }
}

#[test]
fn empty_schedule_is_bitwise_identical_to_plain_runner() {
    let sup = SupervisorConfig::default();
    let assert_identity = |b: &Benchmark, seed: u64, config: &RunConfig| {
        let code = b.id.code();
        let (max_epochs, eval_every) = (config.max_epochs, config.eval_every);
        let plain = run_to_quality(b, seed, config);
        let supervised = supervised_run(b, seed, config, &FaultSchedule::empty(), &sup);
        assert!(
            plain.deterministic_eq(&supervised.result),
            "{code} at ({max_epochs}, {eval_every}): supervision changed the trajectory"
        );
        assert_eq!(supervised.fault_signature(), "clean", "{code}");
        assert!(
            supervised.outcome.kind() == "converged"
                || supervised.outcome.kind() == "missed-target"
        );
    };
    let registry = Registry::aibench();
    for code in ["DC-AI-C15", "DC-AI-C16"] {
        let b = registry.get(code).unwrap();
        for (max_epochs, eval_every) in [(6, 1), (5, 2), (5, 3), (4, 0), (7, 4)] {
            let config = RunConfig {
                eval_every,
                ..cfg(max_epochs)
            };
            assert_identity(b, 2, &config);
        }
    }
    // Every registered benchmark, MLPerf included, at a short cap.
    for b in Registry::all().benchmarks() {
        assert_identity(b, 1, &cfg(2));
    }
}

#[test]
fn same_schedule_reproduces_the_identical_run() {
    let sup = SupervisorConfig::default();
    let assert_replays =
        |b: &Benchmark, seed: u64, config: &RunConfig, schedule: &FaultSchedule| {
            let code = b.id.code();
            let a = supervised_run(b, seed, config, schedule, &sup);
            let b_run = supervised_run(b, seed, config, schedule, &sup);
            assert!(
                a.deterministic_eq(&b_run),
                "{code}: same seed + schedule diverged:\n  {}\n  {}",
                a.fault_signature(),
                b_run.fault_signature()
            );
            assert!(
                !a.faults.is_empty(),
                "{code}: the schedule must actually inject"
            );
        };
    let registry = Registry::aibench();
    let schedule = FaultSchedule::new(9)
        .inject(2, FaultKind::GradNan)
        .inject(3, FaultKind::LossValue { value: f32::NAN })
        .inject(4, FaultKind::SaveFail);
    assert_replays(registry.get("DC-AI-C15").unwrap(), 2, &cfg(30), &schedule);
    // Gradient corruption lands in, and replays for, every registered
    // benchmark at a short cap.
    let corrupting = FaultSchedule::new(1)
        .inject(1, FaultKind::GradNan)
        .inject(2, FaultKind::GradExplosion { scale: 1e12 });
    for b in Registry::all().benchmarks() {
        assert_replays(b, 1, &cfg(2), &corrupting);
    }
}

#[test]
fn supervised_runs_are_bitwise_identical_across_thread_counts() {
    let registry = Registry::aibench();
    let b = registry.get("DC-AI-C15").unwrap();
    let schedule = FaultSchedule::new(5)
        .inject(2, FaultKind::LossValue { value: f32::NAN })
        .inject(3, FaultKind::GradExplosion { scale: 1e12 });
    let sup = SupervisorConfig::default();
    let mut baseline = None;
    for threads in [1usize, 4] {
        let config = RunConfig {
            parallel: Some(ParallelConfig::with_threads(threads)),
            ..cfg(30)
        };
        let run = supervised_run(b, 2, &config, &schedule, &sup);
        match &baseline {
            None => baseline = Some(run),
            Some(expect) => assert!(
                expect.deterministic_eq(&run),
                "{threads}-thread supervised run differs from serial:\n  {}\n  {}",
                expect.fault_signature(),
                run.fault_signature()
            ),
        }
    }
}

#[test]
fn nan_injection_rolls_back_and_minimum_subset_still_converges() {
    let registry = Registry::aibench();
    let sup = SupervisorConfig::default();
    for code in MIN_SUBSET {
        let b = registry.get(code).unwrap();
        let schedule = FaultSchedule::new(7).inject(2, FaultKind::LossValue { value: f32::NAN });
        let run = supervised_run(b, 1, &cfg(40), &schedule, &sup);
        assert!(
            matches!(run.outcome, Outcome::Recovered { .. }),
            "{code}: expected recovery, got {}",
            run.outcome
        );
        assert!(
            run.faults
                .iter()
                .any(|e| e.fault.kind() == "non-finite-loss"),
            "{code}: the NaN loss must be in the fault log"
        );
        assert!(
            run.faults.iter().any(|e| e.action.kind() == "rollback"),
            "{code}: recovery must roll back"
        );
        assert!(
            run.result.converged(),
            "{code}: did not reach its target after recovery (final {:.4})",
            run.result.final_quality
        );
    }
}

#[test]
fn grad_nan_is_sanitized_in_place_without_rollback() {
    let registry = Registry::aibench();
    let b = registry.get("DC-AI-C15").unwrap();
    let schedule = FaultSchedule::new(3).inject(2, FaultKind::GradNan);
    let run = supervised_run(b, 2, &cfg(40), &schedule, &SupervisorConfig::default());
    assert!(run.outcome.reached_target(), "{}", run.outcome);
    assert_eq!(run.faults.len(), 1);
    assert_eq!(run.faults[0].fault.kind(), "exploding-grad-norm");
    assert_eq!(run.faults[0].action.kind(), "sanitize");
    // Sanitizing proceeds in place: no epochs were re-executed.
    assert_eq!(run.epochs_executed, run.result.epochs_run);
}

#[test]
fn persistent_faults_quarantine_within_the_watchdog_budget() {
    let registry = Registry::aibench();
    let persistent = [
        FaultKind::LossValue { value: f32::NAN },
        FaultKind::KernelPanic,
        FaultKind::ParamNan,
    ];
    for kind in persistent {
        let b = registry.get("DC-AI-C15").unwrap();
        let schedule = FaultSchedule::new(4).inject_persistent(2, kind);
        let sup = SupervisorConfig::default();
        let config = cfg(10);
        let run = supervised_run(b, 2, &config, &schedule, &sup);
        assert!(
            matches!(run.outcome, Outcome::Quarantined { .. }),
            "{kind:?}: expected quarantine, got {}",
            run.outcome
        );
        let budget = sup.epoch_budget_factor * config.max_epochs + 8;
        assert!(
            run.epochs_executed <= budget + 1,
            "{kind:?}: executed {} epochs against a budget of {budget}",
            run.epochs_executed
        );
    }
}

#[test]
fn kernel_panic_degrades_to_serial_and_recovers() {
    let registry = Registry::aibench();
    let b = registry.get("DC-AI-C15").unwrap();
    let schedule = FaultSchedule::new(6).inject(2, FaultKind::KernelPanic);
    let config = RunConfig {
        parallel: Some(ParallelConfig::with_threads(4)),
        ..cfg(40)
    };
    let caller_threads = aibench_parallel::threads();
    let run = supervised_run(b, 2, &config, &schedule, &SupervisorConfig::default());
    assert!(run.degraded_serial, "kernel panic must degrade to 1 thread");
    assert!(run.outcome.reached_target(), "{}", run.outcome);
    assert!(run
        .faults
        .iter()
        .any(|e| e.fault.kind() == "kernel-panic" && e.action.kind() == "rollback-serial"));
    // Neither the session's count nor its degradation reaches the caller.
    assert_eq!(aibench_parallel::threads(), caller_threads);
}

#[test]
fn rollback_skips_unreadable_snapshots() {
    let registry = Registry::aibench();
    let b = registry.get("DC-AI-C15").unwrap();
    // The newest snapshot is made unreadable at rollback time; recovery
    // must fall back to the next older one instead of dying or using it.
    let schedule = FaultSchedule::new(8)
        .inject(3, FaultKind::LoadFail)
        .inject(3, FaultKind::LossValue { value: f32::NAN });
    let run = supervised_run(b, 2, &cfg(40), &schedule, &SupervisorConfig::default());
    assert!(run.outcome.reached_target(), "{}", run.outcome);
    let rollback = run
        .faults
        .iter()
        .find(|e| e.action.kind() == "rollback")
        .expect("a rollback must be recorded");
    match rollback.action {
        aibench_fault::ActionTaken::RolledBack { to_epoch, .. } => {
            // Snapshots exist at epochs 1 and 2 when the fault fires at 3;
            // the injected read failure forces the epoch-1 fall-back.
            assert_eq!(
                to_epoch,
                Some(1),
                "must skip the unreadable newest snapshot"
            );
        }
        ref other => panic!("unexpected action {other:?}"),
    }
}

#[test]
fn detect_only_policy_quarantines_on_first_fault() {
    let registry = Registry::aibench();
    let b = registry.get("DC-AI-C16").unwrap();
    let schedule = FaultSchedule::new(2).inject(2, FaultKind::LossValue { value: f32::NAN });
    let sup = SupervisorConfig {
        policy: RecoveryPolicy::detect_only(),
        ..SupervisorConfig::default()
    };
    let run = supervised_run(b, 1, &cfg(10), &schedule, &sup);
    match run.outcome {
        Outcome::Quarantined {
            fault: TrainFault::NonFiniteLoss { epoch, .. },
        } => assert_eq!(epoch, 2),
        ref other => panic!("expected NaN quarantine, got {other}"),
    }
}

#[test]
fn seeded_schedules_replay_bit_for_bit() {
    let registry = Registry::aibench();
    let b = registry.get("DC-AI-C16").unwrap();
    let sup = SupervisorConfig::default();
    for schedule_seed in [1u64, 2, 3] {
        let schedule = FaultSchedule::seeded(schedule_seed, 5, 3);
        let a = supervised_run(b, 1, &cfg(12), &schedule, &sup);
        let b_run = supervised_run(b, 1, &cfg(12), &schedule, &sup);
        assert!(
            a.deterministic_eq(&b_run),
            "seeded schedule {schedule_seed} diverged: {} vs {}",
            a.fault_signature(),
            b_run.fault_signature()
        );
    }
}

/// Each layer's faults, checked against the record that layer keeps: every
/// [`TrainFault`] kind fires from a seeded scenario and maps to its designed
/// [`aibench_fault::ActionTaken`]; the data-parallel engine's four kinds
/// land in its own fault log with their recoveries; and the chaos soak's
/// wire and store injections land in its chaos log and cost recovery
/// traffic, never result bits.
#[test]
fn every_fault_kind_maps_to_its_recovery_action() {
    let registry = Registry::aibench();
    let b = registry.get("DC-AI-C15").unwrap();
    let mut covered: BTreeMap<&'static str, BTreeSet<&'static str>> = BTreeMap::new();
    let mut absorb = |events: &[FaultEvent]| {
        for e in events {
            covered
                .entry(e.fault.kind())
                .or_default()
                .insert(e.action.kind());
        }
    };

    // The eight sequential kinds, one seeded scenario each.
    let sup = SupervisorConfig::default();
    let nan = FaultSchedule::new(1).inject(2, FaultKind::LossValue { value: f32::NAN });
    absorb(&supervised_run(b, 2, &cfg(20), &nan, &sup).faults);
    let spike = FaultSchedule::new(2).inject(3, FaultKind::LossValue { value: 1e12 });
    let spike_sup = SupervisorConfig {
        sentinels: SentinelConfig {
            loss_spike_warmup: 1,
            ..SentinelConfig::default()
        },
        ..SupervisorConfig::default()
    };
    absorb(&supervised_run(b, 2, &cfg(20), &spike, &spike_sup).faults);
    let param = FaultSchedule::new(3).inject(2, FaultKind::ParamNan);
    absorb(&supervised_run(b, 2, &cfg(20), &param, &sup).faults);
    let grad = FaultSchedule::new(4).inject(2, FaultKind::GradExplosion { scale: 1e12 });
    absorb(&supervised_run(b, 2, &cfg(20), &grad, &sup).faults);
    let panic = FaultSchedule::new(5).inject(2, FaultKind::KernelPanic);
    absorb(&supervised_run(b, 2, &cfg(20), &panic, &sup).faults);
    let mut sink = FailingSink::new(MemorySink::new()).fail_save_at(1);
    absorb(
        &supervised_run_with_sink(b, 2, &cfg(4), &FaultSchedule::empty(), &sup, &mut sink).faults,
    );
    let freeze = FaultSchedule::new(6).inject_persistent(1, FaultKind::EvalFreeze);
    let stall_sup = SupervisorConfig {
        sentinels: SentinelConfig {
            stall_window: Some(3),
            ..SentinelConfig::default()
        },
        ..SupervisorConfig::default()
    };
    absorb(&supervised_run(b, 2, &cfg(12), &freeze, &stall_sup).faults);
    let persistent =
        FaultSchedule::new(7).inject_persistent(2, FaultKind::LossValue { value: f32::NAN });
    let budget_sup = SupervisorConfig {
        max_recoveries: 1000,
        epoch_budget_factor: 1,
        ..SupervisorConfig::default()
    };
    absorb(&supervised_run(b, 2, &cfg(3), &persistent, &budget_sup).faults);

    let expected: &[(&str, &str)] = &[
        ("non-finite-loss", "rollback"),
        ("loss-spike", "rollback"),
        ("non-finite-param", "rollback"),
        ("exploding-grad-norm", "sanitize"),
        ("kernel-panic", "rollback-serial"),
        ("checkpoint-io", "retry-save"),
        ("stalled-progress", "quarantine"),
        ("budget-exhausted", "quarantine"),
    ];
    assert_eq!(expected.len(), TrainFault::KINDS.len());
    for kind in TrainFault::KINDS {
        let (_, action) = expected
            .iter()
            .find(|(k, _)| k == &kind)
            .unwrap_or_else(|| panic!("no expectation for kind `{kind}`"));
        let actions = covered
            .get(kind)
            .unwrap_or_else(|| panic!("kind `{kind}` never fired in any seeded scenario"));
        assert!(
            actions.contains(action),
            "kind `{kind}` recovered via {actions:?}, expected `{action}`"
        );
    }

    // The four distributed kinds, one two-worker session, in the engine's
    // own fault log.
    let factory = |s: u64| {
        b.build_data_parallel(s)
            .expect("DC-AI-C15 is data-parallel")
    };
    let dist = DistConfig {
        schedule: DistSchedule::empty()
            .inject(1, 1, 0, DistFaultKind::StragglerDelay { ticks: 2 })
            .inject(1, 2, 1, DistFaultKind::CorruptGradShard)
            .inject(2, 1, 1, DistFaultKind::LostContribution)
            .inject(2, 2, 1, DistFaultKind::WorkerDrop),
        ..DistConfig::with_world(2)
    };
    let params = RunParams {
        max_epochs: 2,
        eval_every: 1,
        snapshot_every: 0,
    };
    let group = run_data_parallel(&factory, 2, &|_| false, &params, &dist);
    assert_eq!(
        group.fault_signatures(),
        [
            "e1s1w0:straggler-delay>absorb-delay",
            "e1s2w1:corrupt-grad-shard>shard-quarantine",
            "e2s1w1:lost-contribution>rollback",
            "e2s2w1:worker-drop>exclude-reshard",
        ]
    );

    // Wire and store chaos through one soak: a corrupt inbound frame, a
    // mid-stream connection reset and a torn checkpoint write. The chaos
    // log records what fired; the clients' retransmits and lease-redeeming
    // reconnects record the recovery; the result bits must not move.
    let chaos = ChaosSchedule::new(21)
        .inject(ChaosSite::ClientToServer, 1, ChaosKind::BitFlip { bit: 65 })
        .inject(ChaosSite::ServerToClient, 4, ChaosKind::Reset)
        .inject(ChaosSite::Store, 0, ChaosKind::TornWrite { keep: 8 });
    let requests = [
        RunRequest::new("acme", "DC-AI-C15", 1, 3),
        RunRequest::new("zeta", "DC-AI-C15", 2, 3),
    ];
    let chaotic = run_soak(&registry, &requests, &chaos, SoakConfig::default());
    let calm = run_soak(
        &registry,
        &requests,
        &ChaosSchedule::empty(),
        SoakConfig::default(),
    );
    assert_eq!(
        chaotic.chaos_signature(),
        "c2s@1:bit-flip:65:s0;store@0:torn-write:8:s0;s2c@4:reset:s0"
    );
    assert_eq!((calm.retries, calm.reconnects), (0, 0));
    assert!(
        chaotic.retries > 0 && chaotic.reconnects > 0,
        "chaos must cost retransmits and reconnects: {} retries, {} reconnects",
        chaotic.retries,
        chaotic.reconnects
    );
    let chaotic_results = chaotic.results();
    for (key, calm_done) in calm.results() {
        let done = chaotic_results
            .get(&key)
            .unwrap_or_else(|| panic!("submission {key:?} lost under chaos"));
        assert!(
            done.result.deterministic_eq(&calm_done.result),
            "result bits changed under chaos for {key:?}"
        );
    }
}

#[test]
fn stalled_progress_is_opt_in_and_detected() {
    let registry = Registry::aibench();
    let b = registry.get("DC-AI-C15").unwrap();
    let schedule = FaultSchedule::new(3).inject_persistent(1, FaultKind::EvalFreeze);
    // Default config: no stall window, the frozen run just misses target.
    let default_run = supervised_run(b, 2, &cfg(8), &schedule, &SupervisorConfig::default());
    assert_eq!(default_run.outcome.kind(), "missed-target");
    // Opting in quarantines with a stalled-progress fault.
    let sup = SupervisorConfig {
        sentinels: SentinelConfig {
            stall_window: Some(3),
            ..SentinelConfig::default()
        },
        ..SupervisorConfig::default()
    };
    let run = supervised_run(b, 2, &cfg(20), &schedule, &sup);
    assert!(
        matches!(
            run.outcome,
            Outcome::Quarantined {
                fault: TrainFault::StalledProgress { .. }
            }
        ),
        "{}",
        run.outcome
    );
}
