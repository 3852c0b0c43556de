//! The supervised training loop: runs one benchmark to its quality target
//! under numeric sentinels, scheduled fault injection, and deterministic
//! recovery policies.
//!
//! # Determinism contract
//!
//! Same seed + same [`FaultSchedule`] ⇒ the same [`SupervisedRun`], bit for
//! bit ([`SupervisedRun::deterministic_eq`]), at any thread count. Under an
//! empty schedule the supervised result is bitwise identical to the plain
//! runner's ([`run_to_quality`](aibench::runner::run_to_quality)): the
//! sentinels only read state, the step guard only wraps calls, and snapshots
//! are proven side-effect-free by the resumable-training test suite.
//!
//! Every recovery decision is keyed on *logical* epochs — retry backoff,
//! stall windows, and the watchdog budget count steps, never wall-clock
//! time — so the recovery sequence itself replays identically.

use std::panic::{catch_unwind, AssertUnwindSafe};

use aibench::ckpt::PartialRun;
use aibench::registry::Benchmark;
use aibench::runner::{RunConfig, RunResult};
use aibench::session::TrainingSession;
use aibench_ckpt::{CheckpointSink, CkptError, MemorySink};
use aibench_tensor::Rng;

use crate::inject;
use crate::policy::{RecoveryAction, RecoveryPolicy};
use crate::schedule::{FaultKind, FaultSchedule};
use crate::sentinel::{self, SentinelConfig};
use crate::taxonomy::{ActionTaken, FaultEvent, TrainFault};

/// Supervisor configuration: sentinels, recovery policy, and the rollback
/// snapshot cadence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupervisorConfig {
    /// Sentinel thresholds.
    pub sentinels: SentinelConfig,
    /// Fault-to-action mapping.
    pub policy: RecoveryPolicy,
    /// Save a rollback snapshot every this many epochs (`0` disables
    /// snapshots — every rollback then restarts from scratch).
    pub snapshot_every: usize,
    /// Recoveries tolerated before the run is quarantined.
    pub max_recoveries: usize,
    /// Watchdog: the run may execute at most
    /// `epoch_budget_factor * max_epochs + 8` epochs including re-runs
    /// after rollbacks; exceeding it quarantines with
    /// [`TrainFault::BudgetExhausted`].
    pub epoch_budget_factor: usize,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            sentinels: SentinelConfig::default(),
            policy: RecoveryPolicy::default(),
            snapshot_every: 1,
            max_recoveries: 8,
            epoch_budget_factor: 4,
        }
    }
}

/// How a supervised run ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Reached the quality target with no recoveries.
    Converged,
    /// Reached the quality target after `attempts` recoveries.
    Recovered {
        /// Number of recovery actions taken on the way.
        attempts: usize,
    },
    /// Exhausted `max_epochs` without reaching the target (no fault ended
    /// the run — it just did not get there).
    MissedTarget,
    /// The supervisor stopped retrying: the terminal fault.
    Quarantined {
        /// The fault that ended the run.
        fault: TrainFault,
    },
}

impl Outcome {
    /// Stable outcome name.
    pub fn kind(&self) -> &'static str {
        match self {
            Outcome::Converged => "converged",
            Outcome::Recovered { .. } => "recovered",
            Outcome::MissedTarget => "missed-target",
            Outcome::Quarantined { .. } => "quarantined",
        }
    }

    /// Whether the run reached its quality target.
    pub fn reached_target(&self) -> bool {
        matches!(self, Outcome::Converged | Outcome::Recovered { .. })
    }

    /// NaN-stable signature (`recovered:2`, `quarantined:kernel-panic`, …).
    pub fn signature(&self) -> String {
        match self {
            Outcome::Converged => "converged".to_string(),
            Outcome::Recovered { attempts } => format!("recovered:{attempts}"),
            Outcome::MissedTarget => "missed-target".to_string(),
            Outcome::Quarantined { fault } => format!("quarantined:{}", fault.kind()),
        }
    }
}

impl std::fmt::Display for Outcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Outcome::Converged => write!(f, "converged"),
            Outcome::Recovered { attempts } => write!(f, "recovered ({attempts} recoveries)"),
            Outcome::MissedTarget => write!(f, "missed target"),
            Outcome::Quarantined { fault } => write!(f, "quarantined: {fault}"),
        }
    }
}

/// The complete record of one supervised training session.
#[derive(Debug, Clone)]
pub struct SupervisedRun {
    /// The training result (whatever trajectory survived recovery).
    pub result: RunResult,
    /// How the session ended.
    pub outcome: Outcome,
    /// Every fault detected, with the action taken, in detection order.
    pub faults: Vec<FaultEvent>,
    /// Total recovery actions taken.
    pub recoveries: usize,
    /// Epochs executed including re-runs after rollbacks (`>=
    /// result.epochs_run`; the difference is the work recovery repeated).
    pub epochs_executed: usize,
    /// Whether execution was degraded to a single thread along the way.
    pub degraded_serial: bool,
}

impl SupervisedRun {
    /// Deterministic signature of the fault log (`"clean"` when empty).
    /// Built from kinds and epochs only, so it is total even when fault
    /// payloads carry NaN.
    pub fn fault_signature(&self) -> String {
        if self.faults.is_empty() {
            return "clean".to_string();
        }
        let parts: Vec<String> = self.faults.iter().map(|e| e.signature()).collect();
        parts.join(";")
    }

    /// Bitwise-determinism equality: the training result (floats compared
    /// by bit pattern), the outcome, and the full fault/recovery sequence
    /// must all match. Wall time is excluded.
    pub fn deterministic_eq(&self, other: &SupervisedRun) -> bool {
        self.result.deterministic_eq(&other.result)
            && self.outcome.signature() == other.outcome.signature()
            && self.recoveries == other.recoveries
            && self.epochs_executed == other.epochs_executed
            && self.fault_signature() == other.fault_signature()
    }
}

/// What one [`SupervisedSession::tick`] accomplished.
#[derive(Debug, Clone, PartialEq)]
pub enum Tick {
    /// An epoch was committed: its loss entered the trace, and `quality`
    /// holds the evaluation if this epoch was on the eval cadence.
    Progressed {
        /// The committed (1-based) epoch.
        epoch: usize,
        /// The committed mean training loss (after any injected override).
        loss: f32,
        /// The quality measured this epoch, if it evaluated.
        quality: Option<f64>,
    },
    /// A recovery action consumed the slot — state may have been rolled
    /// back; no epoch was committed.
    Recovering,
    /// The session is over (converged, missed target, or quarantined);
    /// nothing ran.
    Done,
}

/// One supervised training session in steppable form: the engine behind
/// [`supervised_run`], opened up so a scheduler (the `aibench-serve`
/// server) can interleave many sessions on a bounded worker budget.
///
/// Each call to [`SupervisedSession::tick`] spends one supervision slot —
/// one epoch attempt, including any injections due, sentinel checks, and
/// at most one recovery action. Between ticks the session can be
/// [`park`](SupervisedSession::park)ed (snapshot to its own sink, trainer
/// dropped) and later [`unpark`](SupervisedSession::unpark)ed; because
/// every piece of supervision state (injection bookkeeping, corruption RNG
/// position, recovery counters) stays in the struct and the trainer
/// round-trips through the strict snapshot path, a parked-and-resumed
/// session is bitwise identical to one that never stopped.
///
/// The sink type is generic over *ownership*: the one-shot runners borrow
/// the caller's sink (`&mut dyn CheckpointSink` is itself a sink), a
/// served session owns a private `MemorySink`.
///
/// The session itself — trainer, progress record, cadence, snapshot and
/// restore — is a [`TrainingSession`]; this type adds what supervision
/// needs around it.
pub struct SupervisedSession<'a, S: CheckpointSink> {
    session: TrainingSession<'a>,
    schedule: FaultSchedule,
    sup: SupervisorConfig,
    sink: S,
    rng: Rng,
    /// Which one-shot schedule entries have fired.
    fired: Vec<bool>,
    faults: Vec<FaultEvent>,
    recoveries: usize,
    executed: usize,
    budget: usize,
    degraded_serial: bool,
    quarantined: Option<TrainFault>,
    frozen_quality: Option<f64>,
    /// Pending checkpoint-save retry: `(retry_epoch, attempt)`.
    save_retry: Option<(usize, usize)>,
    ckpt_abandoned: bool,
    completed: bool,
}

impl<'a, S: CheckpointSink> SupervisedSession<'a, S> {
    /// Opens a supervised session at epoch 0. `sink` is the session's
    /// rollback and park store.
    pub fn new(
        benchmark: &'a Benchmark,
        seed: u64,
        config: RunConfig,
        schedule: FaultSchedule,
        sup: SupervisorConfig,
        sink: S,
    ) -> Self {
        SupervisedSession {
            session: TrainingSession::fresh(benchmark, seed, &config),
            rng: Rng::seed_from(schedule.seed),
            fired: vec![false; schedule.injections.len()],
            faults: Vec::new(),
            recoveries: 0,
            executed: 0,
            budget: sup.epoch_budget_factor.max(1) * config.max_epochs.max(1) + 8,
            degraded_serial: false,
            quarantined: None,
            frozen_quality: None,
            save_retry: None,
            ckpt_abandoned: false,
            completed: false,
            schedule,
            sup,
            sink,
        }
    }

    /// Handles one detected fault per the policy and returns what the tick
    /// reports if the fault ends it: `None` when the damage was repaired in
    /// place and the epoch proceeds, [`Tick::Recovering`] after a rollback,
    /// [`Tick::Done`] after a quarantine. `pre_step` is true when the
    /// fault was caught before the training step consumed any state —
    /// the only point where in-place gradient sanitizing is sound; the
    /// supervisor coerces sanitize (and misplaced save-retry) actions to a
    /// rollback everywhere else.
    fn handle(&mut self, fault: TrainFault, pre_step: bool) -> Option<Tick> {
        let mut action = self.sup.policy.action_for(&fault);
        match action {
            RecoveryAction::SkipAndSanitize { .. } if !pre_step => {
                action = RecoveryAction::Rollback { lr_factor: 0.5 };
            }
            RecoveryAction::RetrySave { .. } => {
                action = RecoveryAction::Rollback { lr_factor: 1.0 };
            }
            _ => {}
        }
        if !matches!(action, RecoveryAction::Quarantine)
            && self.recoveries >= self.sup.max_recoveries
        {
            return Some(self.quarantine(fault));
        }
        match action {
            RecoveryAction::Quarantine => Some(self.quarantine(fault)),
            RecoveryAction::SkipAndSanitize { clip_norm } => {
                let zeroed = inject::sanitize_grads(self.session.trainer(), clip_norm);
                self.recoveries += 1;
                self.faults.push(FaultEvent {
                    fault,
                    action: ActionTaken::SanitizedGrads {
                        zeroed,
                        clipped_to: clip_norm,
                    },
                });
                None
            }
            RecoveryAction::Rollback { lr_factor } => {
                self.rollback(fault, lr_factor, false);
                Some(Tick::Recovering)
            }
            RecoveryAction::RollbackSerial { lr_factor } => {
                let serial = self.session.exec().clone().with_threads(1);
                self.session.set_exec(serial);
                self.degraded_serial = true;
                self.rollback(fault, lr_factor, true);
                Some(Tick::Recovering)
            }
            RecoveryAction::RetrySave { .. } => unreachable!("coerced to Rollback above"),
        }
    }

    /// Ends the session on `fault`.
    fn quarantine(&mut self, fault: TrainFault) -> Tick {
        self.faults.push(FaultEvent {
            fault: fault.clone(),
            action: ActionTaken::Quarantined,
        });
        self.quarantined = Some(fault);
        self.completed = true;
        Tick::Done
    }

    /// Rolls the session back to the newest valid snapshot (scratch if
    /// none survives), scales the learning rate, and records the event.
    /// Snapshots that are unreadable or fail their checksums are skipped
    /// in favor of older ones — recovery never resumes from corrupt state.
    /// A scheduled `LoadFail` injection makes the newest snapshot
    /// unreadable for this rollback, forcing the fall-back path.
    fn rollback(&mut self, fault: TrainFault, lr_factor: f32, serial: bool) {
        let at_epoch = fault.epoch();
        let mut skip_newest = false;
        for (i, inj) in self.schedule.injections.iter().enumerate() {
            if matches!(inj.kind, FaultKind::LoadFail) && at_epoch >= inj.epoch {
                if inj.persistent {
                    skip_newest = true;
                } else if !self.fired[i] {
                    self.fired[i] = true;
                    skip_newest = true;
                }
            }
        }
        let to_epoch = self.session.rollback(&self.sink, skip_newest);
        // Restore reset the learning rate to the snapshotted value; apply
        // the reduction on top so the retried trajectory cools down.
        // Snapshots taken later bake the reduction in, so repeated
        // rollbacks compound.
        self.session.trainer_mut().scale_lr(lr_factor);
        self.save_retry = None;
        self.recoveries += 1;
        self.faults.push(FaultEvent {
            fault,
            action: ActionTaken::RolledBack {
                to_epoch,
                lr_factor,
                serial,
            },
        });
    }

    /// Saves a rollback snapshot when the cadence (or a pending retry) says
    /// so, turning save failures — injected or real — into checkpoint-I/O
    /// faults with deterministic, logical-epoch backoff. Returns like
    /// [`handle`](Self::handle).
    fn maybe_save(&mut self, epoch: usize, injected_fail: bool) -> Option<Tick> {
        if self.ckpt_abandoned || self.sup.snapshot_every == 0 {
            return None;
        }
        let due_cadence = epoch.is_multiple_of(self.sup.snapshot_every);
        let due_retry = self.save_retry.is_some_and(|(at, _)| epoch >= at);
        if !due_cadence && !due_retry {
            return None;
        }
        let saved = if injected_fail {
            Err(CkptError::Io {
                op: "save".to_string(),
                what: "injected sink failure".to_string(),
            })
        } else {
            self.session.checkpoint(&mut self.sink)
        };
        let Err(err) = saved else {
            self.save_retry = None;
            return None;
        };
        let fault = TrainFault::CheckpointIo {
            epoch,
            error: err.to_string(),
        };
        let RecoveryAction::RetrySave {
            backoff_epochs,
            max_attempts,
        } = self.sup.policy.checkpoint_io
        else {
            return self.handle(fault, false);
        };
        if self.recoveries >= self.sup.max_recoveries {
            return Some(self.quarantine(fault));
        }
        self.recoveries += 1;
        let attempt = self.save_retry.map_or(1, |(_, a)| a + 1);
        if attempt > max_attempts {
            self.faults.push(FaultEvent {
                fault,
                action: ActionTaken::AbandonedCheckpointing,
            });
            self.ckpt_abandoned = true;
            self.save_retry = None;
        } else {
            // Doubling backoff in logical epochs, capped so the retry stays
            // within a short horizon.
            let delay = backoff_epochs.max(1) << (attempt - 1).min(4);
            let retry_epoch = epoch + delay;
            self.faults.push(FaultEvent {
                fault,
                action: ActionTaken::RetriedSave {
                    retry_epoch,
                    attempt,
                },
            });
            self.save_retry = Some((retry_epoch, attempt));
        }
        None
    }

    /// A panic caught mid-step or mid-evaluation leaves the trainer in an
    /// unknown state: the only sound continuations are rollback or
    /// quarantine (`handle` coerces sanitize away), so the slot is spent
    /// either way.
    fn kernel_panic(&mut self, epoch: usize, payload: &(dyn std::any::Any + Send)) -> Tick {
        let fault = TrainFault::KernelPanic {
            epoch,
            message: inject::panic_message(payload),
        };
        self.handle(fault, false).unwrap_or(Tick::Recovering)
    }

    /// Spends one supervision slot: one epoch attempt, including scheduled
    /// injections, sentinel checks, and at most one recovery action —
    /// one [`TrainingSession::step`], taken apart so each piece can be
    /// guarded. The slot runs in the session's execution context, which
    /// is one thread wide once the session has degraded to serial; the
    /// caller's context is left as it was.
    ///
    /// # Panics
    ///
    /// Panics if the session is parked.
    pub fn tick(&mut self) -> Tick {
        let exec = self.session.exec().clone();
        exec.run(|| self.spend_slot())
    }

    /// The body of [`tick`](Self::tick).
    fn spend_slot(&mut self) -> Tick {
        if self.completed || self.session.finished() {
            self.completed = true;
            return Tick::Done;
        }
        let epoch = self.session.epochs_run() + 1;
        self.executed += 1;
        if self.executed > self.budget {
            return self.quarantine(TrainFault::BudgetExhausted {
                executed: self.executed,
                budget: self.budget,
            });
        }

        // Scheduled injections due this epoch. One-shot entries are
        // consumed even if recovery re-runs this epoch (a transient
        // fault does not recur); persistent entries re-fire every time.
        let mut panic_due = false;
        let mut loss_override: Option<f32> = None;
        let mut eval_frozen = false;
        let mut save_fail = false;
        for i in 0..self.schedule.injections.len() {
            let inj = self.schedule.injections[i];
            if matches!(inj.kind, FaultKind::LoadFail) {
                continue; // applies at rollback time, not here
            }
            let due = if inj.persistent {
                epoch >= inj.epoch
            } else {
                !self.fired[i] && epoch == inj.epoch
            };
            if !due {
                continue;
            }
            if !inj.persistent {
                self.fired[i] = true;
            }
            match inj.kind {
                FaultKind::GradNan
                | FaultKind::GradExplosion { .. }
                | FaultKind::ParamNan
                | FaultKind::ParamBitFlip { .. } => {
                    inject::corrupt(self.session.trainer(), &mut self.rng, inj.kind);
                }
                FaultKind::LossValue { value } => loss_override = Some(value),
                FaultKind::KernelPanic => panic_due = true,
                FaultKind::SaveFail => save_fail = true,
                FaultKind::EvalFreeze => eval_frozen = true,
                FaultKind::LoadFail => unreachable!("skipped above"),
            }
        }

        // Pre-step sentinels — run after injection so fresh damage is
        // caught before the optimizer consumes it.
        if let Some(fault) =
            sentinel::check_params(self.session.trainer(), &self.sup.sentinels, epoch)
        {
            if let Some(tick) = self.handle(fault, true) {
                return tick;
            }
        }

        // The guarded training step: panics anywhere inside the step —
        // including inside parallel kernel regions, which the worker
        // pool forwards to the caller — surface here as typed faults.
        let step = catch_unwind(AssertUnwindSafe(|| {
            if panic_due {
                inject::faulty_kernel(epoch);
            }
            self.session.train_next()
        }));
        let loss = match step {
            Ok(loss) => loss_override.unwrap_or(loss),
            Err(payload) => return self.kernel_panic(epoch, &*payload),
        };

        // Post-step loss sentinels (checked against the pre-push trace).
        let loss_fault = sentinel::check_loss(
            loss,
            epoch,
            &self.session.progress().loss_trace,
            &self.sup.sentinels,
        );
        let eval_due = self.session.record_loss(loss);
        if let Some(fault) = loss_fault {
            if let Some(tick) = self.handle(fault, false) {
                return tick;
            }
        }

        let mut quality = None;
        if eval_due {
            let q = match catch_unwind(AssertUnwindSafe(|| self.session.evaluate())) {
                Ok(q) => q,
                Err(payload) => return self.kernel_panic(epoch, &*payload),
            };
            // A frozen evaluation keeps reporting the first quality
            // observed under the freeze — a stalled-epoch simulation.
            // The real evaluation still runs so trainer state advances
            // identically.
            let q = if eval_frozen {
                *self.frozen_quality.get_or_insert(q)
            } else {
                q
            };
            self.session.record_quality(q);
            quality = Some(q);
            if self.session.converged() {
                self.completed = true;
            } else if let Some(window) = self.sup.sentinels.stall_window {
                if let Some(fault) = sentinel::check_stall(
                    &self.session.benchmark().target,
                    &self.session.progress().quality_trace,
                    window,
                    epoch,
                ) {
                    if let Some(tick) = self.handle(fault, false) {
                        return tick;
                    }
                }
            }
        }

        // Rollback snapshot, after all of the epoch's checks passed —
        // a snapshot is only ever taken of state the sentinels cleared,
        // and never of a converged session's final epoch.
        if !self.completed {
            if let Some(tick) = self.maybe_save(epoch, save_fail) {
                return tick;
            }
        }
        Tick::Progressed {
            epoch,
            loss,
            quality,
        }
    }

    /// Parks the session between ticks: saves a snapshot at the current
    /// epoch into the session's own sink and drops the trainer, freeing
    /// its memory while the session waits for a worker slot. Supervision
    /// bookkeeping — injection one-shot state, the corruption RNG
    /// position, recovery counters, the fault log — stays in the struct,
    /// so an unparked session continues bitwise identically.
    pub fn park(&mut self) -> Result<usize, CkptError> {
        self.session.park(&mut self.sink)
    }

    /// The park transition without a park snapshot, for when the park
    /// save failed (a chaos store fault): drops the trainer at the
    /// current epoch anyway, returning that epoch. The next
    /// [`unpark`](SupervisedSession::unpark) restores the newest
    /// surviving rollback snapshot — or restarts from scratch — and
    /// re-runs the gap, which the rollback contract makes
    /// bitwise-neutral.
    pub fn park_without_snapshot(&mut self) -> usize {
        self.session.park_without_snapshot()
    }

    /// Unparks the session from the newest valid snapshot in its sink,
    /// returning the epoch restored from. `None` means no snapshot
    /// survived validation: the session restarted from scratch and the
    /// parked progress is lost (work the scheduler will have to re-run).
    pub fn unpark(&mut self) -> Option<usize> {
        self.session.unpark(&self.sink)
    }

    /// Whether the session is parked (trainer dropped; state lives in the
    /// park snapshot).
    pub fn is_parked(&self) -> bool {
        self.session.is_parked()
    }

    /// Whether the session is over: converged, missed its target with no
    /// epochs left, or quarantined.
    pub fn finished(&self) -> bool {
        self.completed || self.session.finished()
    }

    /// Epochs committed in the surviving trajectory.
    pub fn epochs_run(&self) -> usize {
        self.session.epochs_run()
    }

    /// Epochs executed including recovery re-runs.
    pub fn epochs_executed(&self) -> usize {
        self.executed
    }

    /// The accumulated progress.
    pub fn progress(&self) -> &PartialRun {
        self.session.progress()
    }

    /// Every fault detected so far, with the action taken.
    pub fn faults(&self) -> &[FaultEvent] {
        &self.faults
    }

    /// Recovery actions taken so far.
    pub fn recoveries(&self) -> usize {
        self.recoveries
    }

    /// Whether execution was degraded to a single thread.
    pub fn degraded_serial(&self) -> bool {
        self.degraded_serial
    }

    /// The session's rollback/park store — tests and seeded-defect
    /// fixtures reach through this to tamper with the snapshots.
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    /// Closes the session into its [`SupervisedRun`] record.
    pub fn into_run(self) -> SupervisedRun {
        let result = self.session.result();
        let outcome = match self.quarantined {
            Some(fault) => Outcome::Quarantined { fault },
            None if result.converged() => {
                if self.recoveries == 0 {
                    Outcome::Converged
                } else {
                    Outcome::Recovered {
                        attempts: self.recoveries,
                    }
                }
            }
            None => Outcome::MissedTarget,
        };
        SupervisedRun {
            result,
            outcome,
            faults: self.faults,
            recoveries: self.recoveries,
            epochs_executed: self.executed,
            degraded_serial: self.degraded_serial,
        }
    }
}

/// Runs one benchmark under supervision with an in-memory rollback sink.
/// See the module docs for the determinism contract.
pub fn supervised_run(
    benchmark: &Benchmark,
    seed: u64,
    config: &RunConfig,
    schedule: &FaultSchedule,
    sup: &SupervisorConfig,
) -> SupervisedRun {
    let mut sink = MemorySink::new();
    supervised_run_with_sink(benchmark, seed, config, schedule, sup, &mut sink)
}

/// [`supervised_run`] with a caller-provided rollback sink (a `DirSink`
/// for durable snapshots, or a pre-seeded sink in tests). The session
/// always starts from scratch; the sink is the supervisor's rollback
/// store, not a resume source.
pub fn supervised_run_with_sink(
    benchmark: &Benchmark,
    seed: u64,
    config: &RunConfig,
    schedule: &FaultSchedule,
    sup: &SupervisorConfig,
    sink: &mut dyn CheckpointSink,
) -> SupervisedRun {
    let mut session =
        SupervisedSession::new(benchmark, seed, *config, schedule.clone(), *sup, sink);
    while !matches!(session.tick(), Tick::Done) {}
    session.into_run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aibench::Registry;

    fn cfg(max_epochs: usize) -> RunConfig {
        RunConfig {
            max_epochs,
            eval_every: 1,
            ..RunConfig::default()
        }
    }

    #[test]
    fn empty_schedule_reports_clean_convergence() {
        let registry = Registry::aibench();
        let b = registry.get("DC-AI-C15").unwrap();
        let run = supervised_run(
            b,
            2,
            &cfg(40),
            &FaultSchedule::empty(),
            &SupervisorConfig::default(),
        );
        assert!(matches!(run.outcome, Outcome::Converged), "{}", run.outcome);
        assert_eq!(run.fault_signature(), "clean");
        assert_eq!(run.epochs_executed, run.result.epochs_run);
    }

    #[test]
    fn loss_nan_rolls_back_and_recovers() {
        let registry = Registry::aibench();
        let b = registry.get("DC-AI-C15").unwrap();
        let schedule = FaultSchedule::new(3).inject(2, FaultKind::LossValue { value: f32::NAN });
        let run = supervised_run(b, 2, &cfg(40), &schedule, &SupervisorConfig::default());
        assert!(
            matches!(run.outcome, Outcome::Recovered { attempts: 1 }),
            "{}",
            run.outcome
        );
        assert_eq!(run.faults.len(), 1);
        assert_eq!(run.faults[0].fault.kind(), "non-finite-loss");
        assert!(matches!(
            run.faults[0].action,
            ActionTaken::RolledBack {
                to_epoch: Some(1),
                ..
            }
        ));
        // The re-run epochs show up in the executed count.
        assert!(run.epochs_executed > run.result.epochs_run);
    }

    #[test]
    fn persistent_fault_quarantines_instead_of_hanging() {
        let registry = Registry::aibench();
        let b = registry.get("DC-AI-C15").unwrap();
        let schedule =
            FaultSchedule::new(3).inject_persistent(2, FaultKind::LossValue { value: f32::NAN });
        let run = supervised_run(b, 2, &cfg(10), &schedule, &SupervisorConfig::default());
        assert!(
            matches!(run.outcome, Outcome::Quarantined { .. }),
            "{}",
            run.outcome
        );
        let budget = SupervisorConfig::default().epoch_budget_factor * 10 + 8;
        assert!(run.epochs_executed <= budget + 1);
    }

    #[test]
    fn save_failures_back_off_then_abandon() {
        let registry = Registry::aibench();
        let b = registry.get("DC-AI-C15").unwrap();
        // Every save fails from epoch 1 on.
        let schedule = FaultSchedule::new(3).inject_persistent(1, FaultKind::SaveFail);
        let run = supervised_run(b, 2, &cfg(40), &schedule, &SupervisorConfig::default());
        assert!(run.outcome.reached_target(), "{}", run.outcome);
        let kinds: Vec<&str> = run.faults.iter().map(|e| e.action.kind()).collect();
        assert!(kinds.contains(&"retry-save"));
        assert!(kinds.contains(&"abandon-ckpt"));
        assert!(run.faults.iter().all(|e| e.fault.kind() == "checkpoint-io"));
    }

    #[test]
    fn parked_session_resumes_bitwise_identical() {
        let registry = Registry::aibench();
        let b = registry.get("DC-AI-C15").unwrap();
        // A schedule with a mid-run fault, so park/unpark must also carry
        // the injection bookkeeping and recovery counters across.
        let schedule = FaultSchedule::new(3).inject(2, FaultKind::LossValue { value: f32::NAN });
        let sup = SupervisorConfig::default();
        let baseline = supervised_run(b, 2, &cfg(8), &schedule, &sup);

        let mut session =
            SupervisedSession::new(b, 2, cfg(8), schedule.clone(), sup, MemorySink::new());
        let mut ticks = 0;
        loop {
            if matches!(session.tick(), Tick::Done) {
                break;
            }
            ticks += 1;
            if ticks == 3 {
                let at = session.park().unwrap();
                assert!(session.is_parked());
                let from = session.unpark();
                assert_eq!(from, Some(at));
            }
        }
        let parked = session.into_run();
        assert!(
            parked.deterministic_eq(&baseline),
            "parked {} != baseline {}",
            parked.outcome,
            baseline.outcome
        );
    }

    #[test]
    fn unpark_without_any_snapshot_restarts_from_scratch() {
        let registry = Registry::aibench();
        let b = registry.get("DC-AI-C15").unwrap();
        let mut session = SupervisedSession::new(
            b,
            2,
            cfg(8),
            FaultSchedule::empty(),
            SupervisorConfig {
                snapshot_every: 0, // no rollback snapshots to fall back on
                ..SupervisorConfig::default()
            },
            MemorySink::new(),
        );
        session.tick();
        session.tick();
        assert_eq!(session.epochs_run(), 2);
        let at = session.park().unwrap();
        assert_eq!(at, 2);
        // Lose the park snapshot: the session restarts from scratch.
        session.sink_mut().remove(2);
        assert_eq!(session.unpark(), None);
        assert_eq!(session.epochs_run(), 0);
        assert!(!session.finished());
    }

    #[test]
    fn stall_window_detects_frozen_quality() {
        let registry = Registry::aibench();
        let b = registry.get("DC-AI-C15").unwrap();
        let schedule = FaultSchedule::new(3).inject_persistent(1, FaultKind::EvalFreeze);
        let sup = SupervisorConfig {
            sentinels: SentinelConfig {
                stall_window: Some(3),
                ..SentinelConfig::default()
            },
            ..SupervisorConfig::default()
        };
        let run = supervised_run(b, 2, &cfg(40), &schedule, &sup);
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
}
