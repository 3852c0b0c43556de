//! Recovery policies: a deterministic mapping from fault kind to the
//! action the supervisor takes. All backoff is expressed in logical epochs
//! — wall-clock time never enters a policy, so the same run replays the
//! same recovery sequence bit for bit.

use crate::taxonomy::TrainFault;

/// A recovery action.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RecoveryAction {
    /// Zero non-finite gradient entries, clip the global norm to
    /// `clip_norm`, and let the epoch proceed — "skip the poisoned step".
    /// Only meaningful for pre-step gradient faults; the supervisor coerces
    /// it to a plain rollback for faults detected after the step ran.
    SkipAndSanitize {
        /// Global-norm ceiling applied after zeroing.
        clip_norm: f32,
    },
    /// Restore the newest valid snapshot (scratch if none), scaling every
    /// learning rate by `lr_factor` so the retried trajectory differs.
    Rollback {
        /// Learning-rate multiplier applied after the restore.
        lr_factor: f32,
    },
    /// [`RecoveryAction::Rollback`], and additionally degrade execution to
    /// a single thread for the rest of the run — the graceful-degradation
    /// answer to kernel-level failures.
    RollbackSerial {
        /// Learning-rate multiplier applied after the restore.
        lr_factor: f32,
    },
    /// Retry a failed checkpoint save after a capped, doubling backoff in
    /// logical epochs; abandon checkpointing after `max_attempts` failures
    /// (training continues, durability is lost).
    RetrySave {
        /// Epochs to wait before the first retry (doubles per attempt).
        backoff_epochs: usize,
        /// Failed attempts tolerated before abandoning checkpointing.
        max_attempts: usize,
    },
    /// Stop retrying: record the fault and end the run as quarantined.
    Quarantine,
}

/// Per-fault-kind recovery actions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Response to a NaN/Inf loss.
    pub non_finite_loss: RecoveryAction,
    /// Response to a loss spike.
    pub loss_spike: RecoveryAction,
    /// Response to non-finite parameter values.
    pub non_finite_param: RecoveryAction,
    /// Response to an exploding (or non-finite) gradient norm.
    pub exploding_grad: RecoveryAction,
    /// Response to a kernel panic.
    pub kernel_panic: RecoveryAction,
    /// Response to a checkpoint I/O failure.
    pub checkpoint_io: RecoveryAction,
    /// Response to stalled quality progress.
    pub stalled: RecoveryAction,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            non_finite_loss: RecoveryAction::Rollback { lr_factor: 0.5 },
            loss_spike: RecoveryAction::Rollback { lr_factor: 0.5 },
            non_finite_param: RecoveryAction::Rollback { lr_factor: 0.5 },
            exploding_grad: RecoveryAction::SkipAndSanitize { clip_norm: 1.0 },
            kernel_panic: RecoveryAction::RollbackSerial { lr_factor: 1.0 },
            checkpoint_io: RecoveryAction::RetrySave {
                backoff_epochs: 1,
                max_attempts: 3,
            },
            stalled: RecoveryAction::Quarantine,
        }
    }
}

impl RecoveryPolicy {
    /// Every fault quarantines immediately: no recovery is attempted, the
    /// first fault ends the run. Used by the static validator's fixtures,
    /// where the point is *detection*, not repair.
    pub fn detect_only() -> Self {
        RecoveryPolicy {
            non_finite_loss: RecoveryAction::Quarantine,
            loss_spike: RecoveryAction::Quarantine,
            non_finite_param: RecoveryAction::Quarantine,
            exploding_grad: RecoveryAction::Quarantine,
            kernel_panic: RecoveryAction::Quarantine,
            checkpoint_io: RecoveryAction::Quarantine,
            stalled: RecoveryAction::Quarantine,
        }
    }

    /// The configured action for `fault`. The watchdog's budget fault
    /// always quarantines — it exists to stop recovery loops.
    pub fn action_for(&self, fault: &TrainFault) -> RecoveryAction {
        match fault {
            TrainFault::NonFiniteLoss { .. } => self.non_finite_loss,
            TrainFault::LossSpike { .. } => self.loss_spike,
            TrainFault::NonFiniteParam { .. } => self.non_finite_param,
            TrainFault::ExplodingGradNorm { .. } => self.exploding_grad,
            TrainFault::KernelPanic { .. } => self.kernel_panic,
            TrainFault::CheckpointIo { .. } => self.checkpoint_io,
            TrainFault::StalledProgress { .. } => self.stalled,
            TrainFault::BudgetExhausted { .. } => RecoveryAction::Quarantine,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_faults_always_quarantine() {
        let policy = RecoveryPolicy {
            non_finite_loss: RecoveryAction::SkipAndSanitize { clip_norm: 1.0 },
            ..RecoveryPolicy::default()
        };
        let fault = TrainFault::BudgetExhausted {
            executed: 10,
            budget: 9,
        };
        assert_eq!(policy.action_for(&fault), RecoveryAction::Quarantine);
    }

    #[test]
    fn detect_only_never_recovers() {
        let policy = RecoveryPolicy::detect_only();
        let fault = TrainFault::NonFiniteLoss {
            epoch: 1,
            loss: f32::NAN,
        };
        assert_eq!(policy.action_for(&fault), RecoveryAction::Quarantine);
    }
}
