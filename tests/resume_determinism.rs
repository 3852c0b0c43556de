//! Kill-and-resume determinism: interrupting a training session at an
//! arbitrary point and restarting from the latest checkpoint must yield a
//! [`RunResult`] bitwise identical to an uninterrupted run — for CNN, RNN,
//! and attention benchmarks, at any `AIBENCH_THREADS` setting (the CI
//! matrix runs this file at 1 and 4 threads).

use aibench::ckpt::{
    fault_injection_run, params_fingerprint, run_to_quality_resumable, run_until_killed,
};
use aibench::runner::{run_to_quality, RunConfig};
use aibench::Registry;
use aibench_ckpt::{CheckpointSink, MemorySink};

/// One benchmark per architecture family the acceptance criteria name:
/// spatial transformer (CNN), text-to-text RNN, and the attention-based
/// 3D object reconstruction model. Seeds are chosen so each run survives
/// past epoch 2 — the kill point — instead of converging before it.
const FAMILIES: &[(&str, &str, u64)] = &[
    ("DC-AI-C15", "cnn", 5),
    ("DC-AI-C6", "rnn", 1),
    ("DC-AI-C3", "attention", 3),
];

fn cfg(max_epochs: usize, checkpoint_every: usize) -> RunConfig {
    RunConfig {
        max_epochs,
        eval_every: 1,
        checkpoint_every,
        ..RunConfig::default()
    }
}

#[test]
fn kill_and_resume_is_bitwise_identical_across_families() {
    let registry = Registry::aibench();
    for &(code, family, seed) in FAMILIES {
        let b = registry.get(code).unwrap();
        let config = cfg(4, 1);
        let baseline = run_to_quality(b, seed, &config);

        // Kill after two epochs, then resume to completion.
        let mut sink = MemorySink::new();
        let killed = run_until_killed(b, seed, &config, &mut sink, 2).unwrap();
        assert!(
            killed.is_none(),
            "{family}: session should have died at the epoch budget"
        );
        assert!(
            !sink.epochs().is_empty(),
            "{family}: the killed session saved no checkpoints"
        );
        let resumed = run_to_quality_resumable(b, seed, &config, &mut sink).unwrap();
        assert_eq!(
            resumed.resumed_from,
            Some(2),
            "{family}: expected to resume from the epoch-2 snapshot"
        );
        assert!(
            baseline.deterministic_eq(&resumed),
            "{family}: resumed result diverged from uninterrupted run\n\
             baseline: {baseline:?}\nresumed: {resumed:?}"
        );
    }
}

#[test]
fn repeated_kills_still_converge_to_the_same_result() {
    let registry = Registry::aibench();
    let b = registry.get("DC-AI-C15").unwrap();
    let config = cfg(5, 1);
    let baseline = run_to_quality(b, 1, &config);

    let mut sink = MemorySink::new();
    let report = fault_injection_run(b, 1, &config, &mut sink, 1).unwrap();
    assert!(report.kills >= 1, "kill_every=1 must kill at least once");
    assert!(
        baseline.deterministic_eq(&report.result),
        "fault-injected run diverged after {} kills (resume points {:?})",
        report.kills,
        report.resume_points
    );
}

#[test]
fn corrupt_newest_snapshot_falls_back_to_older_one() {
    let registry = Registry::aibench();
    let b = registry.get("DC-AI-C15").unwrap();
    let config = cfg(4, 1);
    let baseline = run_to_quality(b, 5, &config);

    let mut sink = MemorySink::new();
    assert!(run_until_killed(b, 5, &config, &mut sink, 3)
        .unwrap()
        .is_none());
    let newest = *sink.epochs().last().unwrap();
    assert!(newest >= 2, "need at least two snapshots for the fallback");
    // Flip one payload byte in the newest snapshot; its section CRC must
    // catch it, and resume must fall back to the older snapshot.
    sink.bytes_mut(newest).unwrap()[40] ^= 0x01;
    let resumed = run_to_quality_resumable(b, 5, &config, &mut sink).unwrap();
    assert!(
        resumed.resumed_from.unwrap() < newest,
        "resume used the corrupted snapshot at epoch {newest}"
    );
    assert!(
        baseline.deterministic_eq(&resumed),
        "fallback resume diverged from uninterrupted run"
    );
}

#[test]
fn all_snapshots_corrupt_restarts_from_scratch() {
    let registry = Registry::aibench();
    let b = registry.get("DC-AI-C15").unwrap();
    let config = cfg(3, 1);
    let baseline = run_to_quality(b, 9, &config);

    let mut sink = MemorySink::new();
    assert!(run_until_killed(b, 9, &config, &mut sink, 2)
        .unwrap()
        .is_none());
    let epochs: Vec<usize> = sink.epochs();
    for &e in &epochs {
        sink.bytes_mut(e).unwrap()[0] ^= 0xFF; // destroy the magic
    }
    let resumed = run_to_quality_resumable(b, 9, &config, &mut sink).unwrap();
    assert_eq!(resumed.resumed_from, None, "no snapshot was usable");
    assert!(baseline.deterministic_eq(&resumed));
}

#[test]
fn resumed_trainer_weights_match_uninterrupted_training() {
    let registry = Registry::aibench();
    let b = registry.get("DC-AI-C6").unwrap();
    let config = cfg(3, 1);

    // Train 3 epochs straight through.
    let mut straight = b.build(4);
    for _ in 0..3 {
        straight.train_epoch();
    }

    // Train 1 epoch, snapshot, restore into a fresh trainer, finish there.
    let mut first = b.build(4);
    first.train_epoch();
    let mut progress = aibench::ckpt::PartialRun::fresh();
    progress.epochs_run = 1;
    let bytes = aibench::ckpt::snapshot_run(b, 4, &config, &progress, first.as_ref());
    let (mut resumed, p) = aibench::ckpt::restore_run(b, 4, &config, &bytes).unwrap();
    assert_eq!(p.epochs_run, 1);
    for _ in 0..2 {
        resumed.train_epoch();
    }

    assert_eq!(
        params_fingerprint(straight.as_ref()),
        params_fingerprint(resumed.as_ref()),
        "weights diverged after snapshot/restore mid-run"
    );
}

#[test]
fn one_progress_codec_reads_back_identically_from_every_container() {
    use aibench::ckpt::{restore_run, snapshot_run, PartialRun};
    use aibench::runner::RunResult;
    use aibench_ckpt::{SnapshotFile, State};
    use aibench_dist::{run_data_parallel_resumable, DistConfig, RunParams};

    let registry = Registry::aibench();
    let b = registry.get("DC-AI-C15").unwrap();
    let config = RunConfig {
        eval_every: 2,
        ..cfg(2, 1)
    };

    // Two records cut by a data-parallel group: after epoch 1 nothing has
    // evaluated (NaN final quality, no convergence epoch); after epoch 2
    // the trace holds one quality.
    let factory = |s: u64| b.build_data_parallel(s).expect("data-parallel");
    let params = RunParams {
        max_epochs: config.max_epochs,
        eval_every: config.eval_every,
        snapshot_every: config.checkpoint_every,
    };
    let mut group_sink = MemorySink::new();
    let dist = DistConfig::with_world(2);
    run_data_parallel_resumable(&factory, 3, &|_| false, &params, &dist, &mut group_sink).unwrap();

    let trainer = b.build(3);
    for epoch in [1, 2] {
        let group = SnapshotFile::from_bytes(&group_sink.load(epoch).unwrap().unwrap()).unwrap();
        let group_section = group.section("progress").unwrap();
        let record = PartialRun::from_state(group_section).unwrap();
        assert_eq!(record.epochs_run, epoch);
        assert_eq!(record.final_quality.is_nan(), epoch == 1);
        assert_eq!(record.epochs_to_target, None);
        let mut encoded = State::new();
        record.put_state(&mut encoded);

        // A run snapshot's progress section is exactly the shared encoding.
        let bytes = snapshot_run(b, 3, &config, &record, trainer.as_ref());
        let file = SnapshotFile::from_bytes(&bytes).unwrap();
        assert_eq!(file.section("progress").unwrap(), &encoded);
        let (_, from_snapshot) = restore_run(b, 3, &config, &bytes).unwrap();
        assert!(record.bitwise_eq(&from_snapshot));

        // A `RunResult` on the wire and the group snapshot carry the same
        // entries among their own.
        let wire = RunResult::from_progress("DC-AI-C15", 3, record.clone(), 0.5, None).to_state();
        for (key, value) in encoded.iter() {
            assert_eq!(wire.iter().find(|(k, _)| *k == key), Some((key, value)));
            assert_eq!(
                group_section.iter().find(|(k, _)| *k == key),
                Some((key, value))
            );
        }
        assert!(record.bitwise_eq(&PartialRun::from_state(&wire).unwrap()));
        assert!(record.bitwise_eq(&RunResult::from_state(&wire).unwrap().progress()));
    }
}
