//! Resumable training sessions: periodic checkpoints, crash recovery, and
//! the fault-injection harness that proves resumed runs are bitwise
//! identical to uninterrupted ones.
//!
//! A snapshot is three sections in one [`SnapshotFile`]:
//!
//! * `meta` — run identity (benchmark code, seed, and the [`RunConfig`]
//!   fields that shape the trajectory). Resume refuses a snapshot whose
//!   identity disagrees with the session being resumed.
//! * `progress` — the session's [`PartialRun`], in the one progress codec
//!   ([`PartialRun::put_state`]).
//! * `trainer` — everything training mutates, via
//!   [`Trainer::save_state`]: parameters, optimizer moments, RNG position,
//!   batch-norm running statistics, step counters.
//!
//! Architecture and datasets are deliberately *not* saved: the benchmark
//! factory rebuilds them deterministically from the seed, and restore then
//! overwrites the mutable state. That keeps snapshots small and makes a
//! version-skewed or corrupted snapshot recoverable — the runner just falls
//! back to the next older one.

use aibench_ckpt::{CheckpointSink, CkptError, SnapshotFile, State};
use aibench_models::Trainer;

use crate::registry::Benchmark;
use crate::runner::{RunConfig, RunResult};
use crate::session::TrainingSession;

pub use aibench_ckpt::PartialRun;

/// Serializes the complete session state — run identity, progress, and the
/// trainer's mutable state — into snapshot bytes.
pub fn snapshot_run(
    benchmark: &Benchmark,
    seed: u64,
    config: &RunConfig,
    progress: &PartialRun,
    trainer: &dyn Trainer,
) -> Vec<u8> {
    let mut meta = State::new();
    meta.put_str("code", benchmark.id.code());
    meta.put_u64("seed", seed);
    meta.put_usize("max_epochs", config.max_epochs);
    meta.put_usize("eval_every", config.eval_every);

    let mut prog = State::new();
    progress.put_state(&mut prog);

    let mut trainer_state = State::new();
    trainer.save_state(&mut trainer_state);

    let mut file = SnapshotFile::new();
    file.push("meta", meta);
    file.push("progress", prog);
    file.push("trainer", trainer_state);
    file.to_bytes()
}

/// Strictly decodes snapshot bytes, verifies they belong to this exact run
/// (same benchmark, seed, and trajectory-shaping config), rebuilds the
/// trainer from the seed, and restores its state.
///
/// Any defect — corruption, truncation, version skew, identity mismatch,
/// missing keys — surfaces as an error; the caller falls back to an older
/// snapshot or a fresh start.
pub fn restore_run(
    benchmark: &Benchmark,
    seed: u64,
    config: &RunConfig,
    bytes: &[u8],
) -> Result<(Box<dyn Trainer>, PartialRun), CkptError> {
    let file = SnapshotFile::from_bytes(bytes)?;

    let meta = file.section("meta")?;
    let mismatch = |what: String| CkptError::MetaMismatch { what };
    if meta.str("code")? != benchmark.id.code() {
        return Err(mismatch(format!(
            "snapshot is for `{}`, resuming `{}`",
            meta.str("code")?,
            benchmark.id.code()
        )));
    }
    if meta.u64("seed")? != seed {
        return Err(mismatch(format!(
            "snapshot seed {}, resuming seed {seed}",
            meta.u64("seed")?
        )));
    }
    if meta.usize("max_epochs")? != config.max_epochs
        || meta.usize("eval_every")? != config.eval_every
    {
        return Err(mismatch(
            "run configuration (max_epochs/eval_every) differs".to_string(),
        ));
    }

    let progress = PartialRun::from_state(file.section("progress")?)?;

    let mut trainer = benchmark.build(seed);
    trainer.load_state(file.section("trainer")?)?;
    Ok((trainer, progress))
}

/// The engine behind the resumable runner: resumes from the newest valid
/// snapshot in `sink`, trains to the quality target or the epoch cap, and
/// saves a checkpoint every `config.checkpoint_every` epochs.
///
/// `epoch_budget` simulates a crash: after executing that many epochs *in
/// this session*, the function returns `Ok(None)` mid-run — exactly what a
/// `kill -9` leaves behind, a sink holding whatever checkpoints were saved.
/// A failed checkpoint *save* surfaces as `Err`: the caller asked for
/// durable progress and did not get it, which must not look like success.
fn run_session(
    benchmark: &Benchmark,
    seed: u64,
    config: &RunConfig,
    sink: &mut dyn CheckpointSink,
    epoch_budget: Option<usize>,
) -> Result<Option<RunResult>, CkptError> {
    let mut session = TrainingSession::resume(benchmark, seed, config, sink);

    // The session steps through exactly `run_to_quality`'s call sequence —
    // same eval cadence — so the trajectory is bit-identical. `executed`
    // counts epochs run in *this* session, for the kill budget.
    let mut executed = 0;
    while !session.finished() {
        if epoch_budget.is_some_and(|budget| executed >= budget) {
            return Ok(None); // simulated kill
        }
        executed += 1;
        session.step();
        if session.converged() {
            break; // converged runs never checkpoint their final epoch
        }
        if config.checkpoint_every > 0
            && session.epochs_run().is_multiple_of(config.checkpoint_every)
        {
            session.checkpoint(sink)?;
        }
    }

    Ok(Some(session.result()))
}

/// Runs an entire training session like
/// [`run_to_quality`](crate::runner::run_to_quality), but checkpointing
/// every `config.checkpoint_every` epochs into `sink` and resuming from the
/// newest valid snapshot already there.
///
/// The resumed result is [`RunResult::deterministic_eq`] to the result of
/// an uninterrupted run with the same benchmark, seed, and config — at any
/// `AIBENCH_THREADS` setting. Snapshots that fail their checksums (or
/// belong to a different run) are skipped in favor of older ones; with no
/// usable snapshot the session starts from scratch. A checkpoint that
/// cannot be *written* is an `Err` — durability was requested and lost.
pub fn run_to_quality_resumable(
    benchmark: &Benchmark,
    seed: u64,
    config: &RunConfig,
    sink: &mut dyn CheckpointSink,
) -> Result<RunResult, CkptError> {
    run_session(benchmark, seed, config, sink, None)
        .map(|result| result.expect("a session without an epoch budget always completes"))
}

/// Runs a resumable session but aborts it — as a crash would — after
/// `kill_after_epochs` epochs of work in this invocation. Returns the
/// result only if the session finished before the kill; `Ok(None)` means
/// the "process died" and `sink` holds whatever checkpoints were written.
pub fn run_until_killed(
    benchmark: &Benchmark,
    seed: u64,
    config: &RunConfig,
    sink: &mut dyn CheckpointSink,
    kill_after_epochs: usize,
) -> Result<Option<RunResult>, CkptError> {
    run_session(benchmark, seed, config, sink, Some(kill_after_epochs))
}

/// The outcome of a [`fault_injection_run`].
#[derive(Debug, Clone)]
pub struct FaultReport {
    /// The final, completed result.
    pub result: RunResult,
    /// Sessions killed before completion.
    pub kills: usize,
    /// The epoch each successive session resumed from (`None` = scratch).
    pub resume_points: Vec<Option<usize>>,
}

/// Repeatedly starts the session and kills it after `kill_every` epochs
/// until one session runs to completion, restarting from the sink's
/// snapshots each time — a deterministic stand-in for pulling the plug in a
/// loop.
///
/// # Panics
///
/// Panics if the schedule cannot make progress (requires
/// `kill_every >= config.checkpoint_every >= 1`, else every restart repeats
/// the same epochs and dies before saving anything new).
pub fn fault_injection_run(
    benchmark: &Benchmark,
    seed: u64,
    config: &RunConfig,
    sink: &mut dyn CheckpointSink,
    kill_every: usize,
) -> Result<FaultReport, CkptError> {
    assert!(
        config.checkpoint_every >= 1 && kill_every >= config.checkpoint_every,
        "fault injection needs kill_every >= checkpoint_every >= 1 to make progress"
    );
    let mut kills = 0;
    let mut resume_points = Vec::new();
    loop {
        match run_session(benchmark, seed, config, sink, Some(kill_every))? {
            Some(result) => {
                resume_points.push(result.resumed_from);
                return Ok(FaultReport {
                    result,
                    kills,
                    resume_points,
                });
            }
            None => {
                kills += 1;
                resume_points.push(sink.epochs().last().copied());
                assert!(
                    kills <= config.max_epochs + 2,
                    "fault-injection loop made no progress after {kills} kills"
                );
            }
        }
    }
}

/// FNV-1a fingerprint over the raw bits of every parameter, in order — a
/// compact witness that two trainers hold bitwise-identical weights.
pub fn params_fingerprint(trainer: &dyn Trainer) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for p in trainer.params() {
        for &x in p.value().data() {
            for b in x.to_bits().to_le_bytes() {
                mix(b);
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use aibench_ckpt::MemorySink;

    fn cfg(max_epochs: usize, checkpoint_every: usize) -> RunConfig {
        RunConfig {
            max_epochs,
            eval_every: 1,
            checkpoint_every,
            ..RunConfig::default()
        }
    }

    #[test]
    fn resumable_without_checkpoints_matches_plain_runner() {
        let r = Registry::aibench();
        let b = r.get("DC-AI-C15").unwrap();
        for (max_epochs, eval_every) in [(3, 1), (5, 2), (5, 3), (4, 0), (7, 4)] {
            let config = RunConfig {
                eval_every,
                ..cfg(max_epochs, 0)
            };
            let plain = crate::runner::run_to_quality(b, 2, &config);
            let mut sink = MemorySink::new();
            let resumable = run_to_quality_resumable(b, 2, &config, &mut sink).unwrap();
            assert!(
                plain.deterministic_eq(&resumable),
                "({max_epochs}, {eval_every})"
            );
            assert!(sink.epochs().is_empty());
        }
    }

    #[test]
    fn snapshot_restore_round_trips_progress() {
        let r = Registry::aibench();
        let b = r.get("DC-AI-C15").unwrap();
        let config = cfg(10, 0);
        let mut trainer = b.build(7);
        let mut progress = PartialRun::fresh();
        progress.loss_trace.push(trainer.train_epoch());
        progress.epochs_run = 1;
        progress.quality_trace.push((1, 0.25));
        progress.final_quality = 0.25;
        let bytes = snapshot_run(b, 7, &config, &progress, trainer.as_ref());
        let (restored, p2) = restore_run(b, 7, &config, &bytes).unwrap();
        assert_eq!(p2.epochs_run, 1);
        assert_eq!(p2.quality_trace, vec![(1, 0.25)]);
        assert_eq!(
            params_fingerprint(trainer.as_ref()),
            params_fingerprint(restored.as_ref())
        );
    }

    #[test]
    fn restore_rejects_other_run_identities() {
        let r = Registry::aibench();
        let b = r.get("DC-AI-C15").unwrap();
        let config = cfg(5, 0);
        let trainer = b.build(1);
        let bytes = snapshot_run(b, 1, &config, &PartialRun::fresh(), trainer.as_ref());
        // Wrong seed.
        assert!(matches!(
            restore_run(b, 2, &config, &bytes),
            Err(CkptError::MetaMismatch { .. })
        ));
        // Wrong benchmark.
        let other = r.get("DC-AI-C8").unwrap();
        assert!(matches!(
            restore_run(other, 1, &config, &bytes),
            Err(CkptError::MetaMismatch { .. })
        ));
        // Wrong trajectory-shaping config.
        assert!(matches!(
            restore_run(b, 1, &cfg(6, 0), &bytes),
            Err(CkptError::MetaMismatch { .. })
        ));
    }
}
