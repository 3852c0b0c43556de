//! The session core: one open, steppable training session.
//!
//! A *training session* — the paper's unit of measurement — is a trainer
//! built from `(benchmark, seed)` plus a [`PartialRun`] progress record,
//! advanced one epoch at a time until the record is
//! [`finished`](PartialRun::finished): the quality target is met or
//! `max_epochs` ran. [`TrainingSession`] is the only place in the
//! workspace that trains a sequential epoch and commits it; every other
//! runner is a layer over it:
//!
//! * [`run_to_quality`](crate::runner::run_to_quality) steps a fresh
//!   session until finished;
//! * the resumable runner ([`crate::ckpt`]) opens it from a sink and
//!   checkpoints between steps;
//! * `aibench-fault`'s `SupervisedSession` holds one and wraps each piece
//!   of a step — [`train_next`](TrainingSession::train_next),
//!   [`record_loss`](TrainingSession::record_loss),
//!   [`evaluate`](TrainingSession::evaluate),
//!   [`record_quality`](TrainingSession::record_quality) — in injections,
//!   sentinels and panic guards, and rolls it back through
//!   [`rollback`](TrainingSession::rollback);
//! * `aibench-serve` schedules supervised sessions, parking them between
//!   ticks to free their worker slots.
//!
//! (The data-parallel engine in `aibench-dist` trains a *group* of
//! replicas instead of one trainer, so it cannot hold a `TrainingSession`,
//! but it commits its epochs through the same [`PartialRun`].)
//!
//! # Determinism contract
//!
//! The call sequence per epoch is fixed — `train_epoch`, then `evaluate`
//! on the record's cadence — so every layer reproduces the plain runner's
//! trajectory bit for bit. [`TrainingSession::park`] saves a snapshot
//! through [`snapshot_run`] and [`TrainingSession::unpark`] restores it
//! through the same strict path the resumable runner uses, so a
//! parked-and-resumed session is [`RunResult::deterministic_eq`] to one
//! that never stopped.

use std::time::Instant;

use aibench_ckpt::{latest_valid, CheckpointSink, CkptError, PartialRun};
use aibench_models::Trainer;
use aibench_parallel::Exec;

use crate::ckpt::{restore_run, snapshot_run};
use crate::registry::Benchmark;
use crate::runner::{RunConfig, RunResult};

/// One open training session: a trainer plus its accumulated progress,
/// steppable one epoch at a time and parkable between epochs.
pub struct TrainingSession<'a> {
    benchmark: &'a Benchmark,
    seed: u64,
    config: RunConfig,
    /// `None` while parked: the trainer's state lives in the snapshot the
    /// park wrote, not in memory.
    trainer: Option<Box<dyn Trainer>>,
    progress: PartialRun,
    resumed_from: Option<usize>,
    start: Instant,
    /// The context the trainer is built, trained and evaluated in.
    exec: Exec,
}

impl<'a> TrainingSession<'a> {
    /// Opens a fresh session at epoch 0.
    pub fn fresh(benchmark: &'a Benchmark, seed: u64, config: &RunConfig) -> Self {
        Self::open(benchmark, seed, config, None)
    }

    /// Opens a session from the newest valid snapshot in `sink`, falling
    /// back to a fresh start when no snapshot survives validation.
    pub fn resume(
        benchmark: &'a Benchmark,
        seed: u64,
        config: &RunConfig,
        sink: &dyn CheckpointSink,
    ) -> Self {
        Self::open(benchmark, seed, config, Some(sink))
    }

    /// Where every sequential session starts: resolves its execution
    /// context, starts the wall clock, and builds or restores the trainer.
    fn open(
        benchmark: &'a Benchmark,
        seed: u64,
        config: &RunConfig,
        sink: Option<&dyn CheckpointSink>,
    ) -> Self {
        let mut session = TrainingSession {
            benchmark,
            seed,
            config: *config,
            trainer: None,
            progress: PartialRun::fresh(),
            resumed_from: None,
            start: Instant::now(),
            exec: config.exec(),
        };
        match sink {
            Some(sink) => session.resumed_from = session.unpark(sink),
            None => session.trainer = Some(session.exec.run(|| benchmark.build(seed))),
        }
        session
    }

    /// The benchmark this session trains.
    pub fn benchmark(&self) -> &'a Benchmark {
        self.benchmark
    }

    /// The session's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Epochs committed so far.
    pub fn epochs_run(&self) -> usize {
        self.progress.epochs_run
    }

    /// The accumulated progress.
    pub fn progress(&self) -> &PartialRun {
        &self.progress
    }

    /// Whether the session reached its quality target.
    pub fn converged(&self) -> bool {
        self.progress.epochs_to_target.is_some()
    }

    /// Whether the session is over: converged, or out of epochs.
    pub fn finished(&self) -> bool {
        self.progress.finished(self.config.max_epochs)
    }

    /// Whether the session is parked (trainer dropped; state lives in the
    /// park snapshot).
    pub fn is_parked(&self) -> bool {
        self.trainer.is_none()
    }

    /// The context the session builds, restores, trains and evaluates in.
    pub fn exec(&self) -> &Exec {
        &self.exec
    }

    /// Runs the rest of the session in `exec` (a supervisor degrading it to
    /// one thread). Results do not depend on the context, only wall time.
    pub fn set_exec(&mut self, exec: Exec) {
        self.exec = exec;
    }

    /// The live trainer.
    ///
    /// # Panics
    ///
    /// Panics if the session is parked.
    pub fn trainer(&self) -> &dyn Trainer {
        self.trainer
            .as_deref()
            .expect("session is parked; unpark before use")
    }

    /// The live trainer, mutably (supervised drivers corrupt, sanitize and
    /// re-tune it in place).
    ///
    /// # Panics
    ///
    /// Panics if the session is parked.
    pub fn trainer_mut(&mut self) -> &mut dyn Trainer {
        self.trainer
            .as_deref_mut()
            .expect("session is parked; unpark before use")
    }

    /// Runs the next epoch's training pass and returns its mean loss
    /// *without* committing it — the split exists so supervised drivers can
    /// inspect (or override) the loss before it enters the trace.
    ///
    /// # Panics
    ///
    /// Panics if the session is parked or [`finished`](Self::finished).
    pub fn train_next(&mut self) -> f32 {
        assert!(!self.finished(), "session is finished; no epochs left");
        let exec = self.exec.clone();
        exec.run(|| self.trainer_mut().train_epoch())
    }

    /// Commits `loss` as the next epoch's result and returns whether that
    /// epoch evaluates (see [`PartialRun::record_loss`] for the cadence).
    pub fn record_loss(&mut self, loss: f32) -> bool {
        self.progress
            .record_loss(loss, self.config.eval_every, self.config.max_epochs)
    }

    /// Measures the trainer's current quality, recording nothing.
    pub fn evaluate(&mut self) -> f64 {
        let exec = self.exec.clone();
        exec.run(|| self.trainer_mut().evaluate())
    }

    /// Records `quality` as the newest epoch's evaluation and checks it
    /// against the benchmark's target.
    pub fn record_quality(&mut self, quality: f64) {
        self.progress
            .record_quality(quality, self.benchmark.target.met_by(quality));
    }

    /// Commits `loss` as the next epoch's result and evaluates if the
    /// epoch is on the cadence: [`record_loss`](Self::record_loss), then
    /// [`evaluate`](Self::evaluate) and
    /// [`record_quality`](Self::record_quality). Returns the quality if
    /// this epoch evaluated.
    pub fn commit(&mut self, loss: f32) -> Option<f64> {
        self.record_loss(loss).then(|| {
            let quality = self.evaluate();
            self.record_quality(quality);
            quality
        })
    }

    /// Runs and commits one epoch: [`train_next`](Self::train_next) then
    /// [`commit`](Self::commit). Returns `(loss, quality)`.
    pub fn step(&mut self) -> (f32, Option<f64>) {
        let loss = self.train_next();
        let quality = self.commit(loss);
        (loss, quality)
    }

    /// Serializes the session (identity, progress, trainer state) into
    /// snapshot bytes.
    pub fn snapshot(&self) -> Vec<u8> {
        snapshot_run(
            self.benchmark,
            self.seed,
            &self.config,
            &self.progress,
            self.trainer(),
        )
    }

    /// Saves a snapshot of the current state into `sink` under the current
    /// epoch.
    pub fn checkpoint(&self, sink: &mut dyn CheckpointSink) -> Result<(), CkptError> {
        sink.save(self.progress.epochs_run, &self.snapshot())
    }

    /// Parks the session: snapshots it into `sink` and drops the trainer,
    /// freeing its memory and worker slot. Returns the epoch the park
    /// snapshot was taken at. The session stays queryable (progress,
    /// finished) but cannot step until [`unpark`](Self::unpark)ed.
    pub fn park(&mut self, sink: &mut dyn CheckpointSink) -> Result<usize, CkptError> {
        self.checkpoint(sink)?;
        Ok(self.park_without_snapshot())
    }

    /// The park transition without a park snapshot, for when the park save
    /// failed: drops the trainer at the current epoch anyway and returns
    /// that epoch. The next [`unpark`](Self::unpark) restores the newest
    /// snapshot that survives in the sink — or restarts from scratch — and
    /// the session re-runs the gap, bitwise identically.
    pub fn park_without_snapshot(&mut self) -> usize {
        self.trainer = None;
        self.progress.epochs_run
    }

    /// Unparks the session from the newest valid snapshot in `sink`,
    /// returning the epoch restored from; with no usable snapshot the
    /// session restarts from scratch and `None` is returned.
    pub fn unpark(&mut self, sink: &dyn CheckpointSink) -> Option<usize> {
        self.rollback(sink, false)
    }

    /// Replaces trainer and progress with the newest snapshot in `sink`
    /// that decodes, matches this session's identity and restores cleanly
    /// ([`latest_valid`] over [`restore_run`]), or with a scratch start
    /// when none does. `skip_newest` treats the newest stored snapshot as
    /// unreadable. Returns the epoch restored from.
    pub fn rollback(&mut self, sink: &dyn CheckpointSink, skip_newest: bool) -> Option<usize> {
        let (epoch, (trainer, progress)) = self.exec.run(|| {
            let restored = latest_valid(sink, skip_newest, |bytes| {
                restore_run(self.benchmark, self.seed, &self.config, bytes)
            });
            let (epoch, run) = restored.unzip();
            let scratch = || (self.benchmark.build(self.seed), PartialRun::fresh());
            (epoch, run.unwrap_or_else(scratch))
        });
        self.trainer = Some(trainer);
        self.progress = progress;
        epoch
    }

    /// Closes the session into a [`RunResult`].
    pub fn result(&self) -> RunResult {
        RunResult::from_progress(
            self.benchmark.id.code(),
            self.seed,
            self.progress.clone(),
            self.start.elapsed().as_secs_f64(),
            self.resumed_from,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use crate::runner::run_to_quality;
    use aibench_ckpt::MemorySink;

    fn cfg(max_epochs: usize) -> RunConfig {
        RunConfig {
            max_epochs,
            eval_every: 1,
            ..RunConfig::default()
        }
    }

    #[test]
    fn stepped_session_matches_plain_runner() {
        let r = Registry::aibench();
        // Seed 2 keeps DC-AI-C15 training to each cap, so every cadence
        // plays out in full.
        for code in ["DC-AI-C15", "DC-AI-C16"] {
            let b = r.get(code).unwrap();
            for (max_epochs, eval_every) in [(3, 1), (5, 2), (5, 3), (4, 0), (7, 4)] {
                let config = RunConfig {
                    eval_every,
                    ..cfg(max_epochs)
                };
                let plain = run_to_quality(b, 2, &config);
                let mut session = TrainingSession::fresh(b, 2, &config);
                while !session.finished() {
                    let loss = session.train_next();
                    session.commit(loss);
                }
                assert!(
                    plain.deterministic_eq(&session.result()),
                    "{code} at ({max_epochs}, {eval_every})"
                );
            }
        }
    }

    #[test]
    fn park_and_unpark_is_bitwise_neutral() {
        let r = Registry::aibench();
        let b = r.get("DC-AI-C15").unwrap();
        let config = cfg(4);
        let plain = run_to_quality(b, 1, &config);

        let mut sink = MemorySink::new();
        let mut session = TrainingSession::fresh(b, 1, &config);
        session.step();
        session.step();
        let parked_at = session.park(&mut sink).unwrap();
        assert_eq!(parked_at, 2);
        assert!(session.is_parked());
        assert_eq!(session.epochs_run(), 2);
        let resumed_from = session.unpark(&sink);
        assert_eq!(resumed_from, Some(2));
        while !session.finished() {
            session.step();
        }
        assert!(plain.deterministic_eq(&session.result()));
    }

    #[test]
    fn park_before_first_epoch_resumes_from_scratch_state() {
        let r = Registry::aibench();
        let b = r.get("DC-AI-C15").unwrap();
        let config = cfg(2);
        let plain = run_to_quality(b, 7, &config);
        let mut sink = MemorySink::new();
        let mut session = TrainingSession::fresh(b, 7, &config);
        assert_eq!(session.park(&mut sink).unwrap(), 0);
        assert_eq!(session.unpark(&sink), Some(0));
        while !session.finished() {
            session.step();
        }
        assert!(plain.deterministic_eq(&session.result()));
    }

    #[test]
    fn unpark_without_snapshot_restarts_from_scratch() {
        let r = Registry::aibench();
        let b = r.get("DC-AI-C15").unwrap();
        let config = cfg(2);
        let mut session = TrainingSession::fresh(b, 1, &config);
        session.step();
        assert_eq!(session.park_without_snapshot(), 1); // the defective path
        let empty = MemorySink::new();
        assert_eq!(session.unpark(&empty), None);
        assert_eq!(session.epochs_run(), 0, "lost work restarts from scratch");
    }
}
