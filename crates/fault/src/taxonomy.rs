//! The typed failure taxonomy: everything that can go wrong during a
//! supervised training session, and the record of what the supervisor did
//! about it.
//!
//! Faults carry the *logical* position (epoch) and the offending values, so
//! two runs of the same seed and schedule produce identical fault logs —
//! wall-clock time never appears anywhere in the taxonomy.

use std::fmt;

/// A detected training failure.
///
/// Every variant records the 1-based logical epoch it was detected at.
/// Float payloads may be NaN (that is often the point), so the derived
/// `PartialEq` is unsuitable for determinism checks — compare
/// [`TrainFault::kind`] and epochs, or use
/// [`SupervisedRun::fault_signature`](crate::SupervisedRun::fault_signature).
#[derive(Debug, Clone, PartialEq)]
pub enum TrainFault {
    /// The epoch's mean training loss was NaN or infinite.
    NonFiniteLoss {
        /// Epoch the loss was produced at.
        epoch: usize,
        /// The offending loss.
        loss: f32,
    },
    /// The loss jumped far above the recent baseline — divergence caught
    /// before it turns into NaN.
    LossSpike {
        /// Epoch the spike was detected at.
        epoch: usize,
        /// The spiking loss.
        loss: f32,
        /// The recent-window baseline it was compared against.
        baseline: f32,
    },
    /// A model parameter contains a NaN or infinite value.
    NonFiniteParam {
        /// Epoch the scan fired at.
        epoch: usize,
        /// Name of the first offending parameter.
        param: String,
    },
    /// The global gradient norm is non-finite or above the sentinel limit.
    ExplodingGradNorm {
        /// Epoch the scan fired at.
        epoch: usize,
        /// The measured global L2 norm (NaN if any component was).
        norm: f32,
        /// The configured limit.
        limit: f32,
    },
    /// A kernel panicked inside a training or evaluation step (caught at
    /// the step boundary; worker-pool panics propagate to the caller).
    KernelPanic {
        /// Epoch the panic surfaced at.
        epoch: usize,
        /// The panic payload, rendered.
        message: String,
    },
    /// A checkpoint could not be stored or retrieved.
    CheckpointIo {
        /// Epoch of the failed operation.
        epoch: usize,
        /// The underlying error's description.
        error: String,
    },
    /// Quality made no progress over a whole detection window.
    StalledProgress {
        /// Epoch the stall was confirmed at.
        epoch: usize,
        /// Number of evaluations without improvement.
        window: usize,
        /// The best quality before the window.
        best: f64,
    },
    /// The watchdog's logical-epoch budget ran out — recovery was retrying
    /// forever without finishing.
    BudgetExhausted {
        /// Epochs executed (including re-runs after rollbacks).
        executed: usize,
        /// The budget they exceeded.
        budget: usize,
    },
}

impl TrainFault {
    /// Every fault kind name, in taxonomy order — the coverage contract
    /// `tests/fault_recovery.rs` fires one seeded scenario per kind against.
    pub const KINDS: [&'static str; 8] = [
        "non-finite-loss",
        "loss-spike",
        "non-finite-param",
        "exploding-grad-norm",
        "kernel-panic",
        "checkpoint-io",
        "stalled-progress",
        "budget-exhausted",
    ];

    /// Stable kind name (one of [`TrainFault::KINDS`]).
    pub fn kind(&self) -> &'static str {
        match self {
            TrainFault::NonFiniteLoss { .. } => "non-finite-loss",
            TrainFault::LossSpike { .. } => "loss-spike",
            TrainFault::NonFiniteParam { .. } => "non-finite-param",
            TrainFault::ExplodingGradNorm { .. } => "exploding-grad-norm",
            TrainFault::KernelPanic { .. } => "kernel-panic",
            TrainFault::CheckpointIo { .. } => "checkpoint-io",
            TrainFault::StalledProgress { .. } => "stalled-progress",
            TrainFault::BudgetExhausted { .. } => "budget-exhausted",
        }
    }

    /// The logical epoch the fault was detected at.
    pub fn epoch(&self) -> usize {
        match *self {
            TrainFault::NonFiniteLoss { epoch, .. }
            | TrainFault::LossSpike { epoch, .. }
            | TrainFault::NonFiniteParam { epoch, .. }
            | TrainFault::ExplodingGradNorm { epoch, .. }
            | TrainFault::KernelPanic { epoch, .. }
            | TrainFault::CheckpointIo { epoch, .. }
            | TrainFault::StalledProgress { epoch, .. } => epoch,
            TrainFault::BudgetExhausted { executed, .. } => executed,
        }
    }
}

impl fmt::Display for TrainFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainFault::NonFiniteLoss { epoch, loss } => {
                write!(f, "epoch {epoch}: non-finite training loss ({loss})")
            }
            TrainFault::LossSpike {
                epoch,
                loss,
                baseline,
            } => write!(
                f,
                "epoch {epoch}: loss spiked to {loss:e} (recent baseline {baseline:e})"
            ),
            TrainFault::NonFiniteParam { epoch, param } => {
                write!(f, "epoch {epoch}: parameter `{param}` is non-finite")
            }
            TrainFault::ExplodingGradNorm { epoch, norm, limit } => write!(
                f,
                "epoch {epoch}: gradient norm {norm:e} exceeds limit {limit:e}"
            ),
            TrainFault::KernelPanic { epoch, message } => {
                write!(f, "epoch {epoch}: kernel panic: {message}")
            }
            TrainFault::CheckpointIo { epoch, error } => {
                write!(f, "epoch {epoch}: checkpoint I/O failure: {error}")
            }
            TrainFault::StalledProgress {
                epoch,
                window,
                best,
            } => write!(
                f,
                "epoch {epoch}: no quality progress over {window} evaluations (best {best:.4})"
            ),
            TrainFault::BudgetExhausted { executed, budget } => write!(
                f,
                "watchdog: {executed} epochs executed against a budget of {budget}"
            ),
        }
    }
}

/// What the supervisor did in response to one fault.
#[derive(Debug, Clone, PartialEq)]
pub enum ActionTaken {
    /// Non-finite gradient entries were zeroed and the global norm clipped;
    /// the epoch then proceeded ("skip the poisoned step").
    SanitizedGrads {
        /// Number of non-finite gradient entries zeroed.
        zeroed: usize,
        /// The norm the gradients were clipped to.
        clipped_to: f32,
    },
    /// The run was rolled back to its newest valid snapshot (or to scratch)
    /// with the learning rate scaled down.
    RolledBack {
        /// Epoch of the snapshot restored (`None` = restarted from scratch).
        to_epoch: Option<usize>,
        /// Factor applied to every learning rate after the restore.
        lr_factor: f32,
        /// Whether execution was also degraded to a single thread.
        serial: bool,
    },
    /// The failed checkpoint save will be retried at a later logical epoch
    /// (deterministic backoff — epochs, never wall clock).
    RetriedSave {
        /// Epoch the retry is scheduled for.
        retry_epoch: usize,
        /// 1-based attempt number.
        attempt: usize,
    },
    /// Checkpointing was abandoned after exhausting its save retries;
    /// training continues without durability.
    AbandonedCheckpointing,
    /// The benchmark was quarantined — the supervisor stopped retrying.
    Quarantined,
}

impl ActionTaken {
    /// Stable action name for signatures and reports.
    pub fn kind(&self) -> &'static str {
        match self {
            ActionTaken::SanitizedGrads { .. } => "sanitize",
            ActionTaken::RolledBack { serial: false, .. } => "rollback",
            ActionTaken::RolledBack { serial: true, .. } => "rollback-serial",
            ActionTaken::RetriedSave { .. } => "retry-save",
            ActionTaken::AbandonedCheckpointing => "abandon-ckpt",
            ActionTaken::Quarantined => "quarantine",
        }
    }
}

impl fmt::Display for ActionTaken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ActionTaken::SanitizedGrads { zeroed, clipped_to } => {
                write!(f, "zeroed {zeroed} grad entries, clipped to {clipped_to}")
            }
            ActionTaken::RolledBack {
                to_epoch,
                lr_factor,
                serial,
            } => {
                match to_epoch {
                    Some(e) => write!(f, "rolled back to epoch {e} snapshot")?,
                    None => write!(f, "restarted from scratch")?,
                }
                write!(f, ", lr x{lr_factor}")?;
                if *serial {
                    write!(f, ", degraded to 1 thread")?;
                }
                Ok(())
            }
            ActionTaken::RetriedSave {
                retry_epoch,
                attempt,
            } => write!(f, "save retry {attempt} scheduled for epoch {retry_epoch}"),
            ActionTaken::AbandonedCheckpointing => write!(f, "abandoned checkpointing"),
            ActionTaken::Quarantined => write!(f, "quarantined"),
        }
    }
}

/// One fault and the action the supervisor answered it with.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// The detected fault.
    pub fault: TrainFault,
    /// The recovery action taken.
    pub action: ActionTaken,
}

impl FaultEvent {
    /// Compact deterministic signature, e.g. `e4:non-finite-loss>rollback`.
    /// Float payloads are excluded, so the signature is total even over NaN.
    pub fn signature(&self) -> String {
        format!(
            "e{}:{}>{}",
            self.fault.epoch(),
            self.fault.kind(),
            self.action.kind()
        )
    }
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {}", self.fault, self.action)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_cover_every_variant() {
        let faults = [
            TrainFault::NonFiniteLoss {
                epoch: 1,
                loss: f32::NAN,
            },
            TrainFault::LossSpike {
                epoch: 2,
                loss: 1e9,
                baseline: 0.1,
            },
            TrainFault::NonFiniteParam {
                epoch: 3,
                param: "w".into(),
            },
            TrainFault::ExplodingGradNorm {
                epoch: 4,
                norm: 1e12,
                limit: 1e8,
            },
            TrainFault::KernelPanic {
                epoch: 5,
                message: "boom".into(),
            },
            TrainFault::CheckpointIo {
                epoch: 6,
                error: "disk".into(),
            },
            TrainFault::StalledProgress {
                epoch: 7,
                window: 3,
                best: 0.5,
            },
            TrainFault::BudgetExhausted {
                executed: 99,
                budget: 98,
            },
        ];
        let kinds: Vec<&str> = faults.iter().map(|f| f.kind()).collect();
        assert_eq!(kinds, TrainFault::KINDS);
    }

    #[test]
    fn signature_is_nan_stable() {
        let a = FaultEvent {
            fault: TrainFault::NonFiniteLoss {
                epoch: 4,
                loss: f32::NAN,
            },
            action: ActionTaken::RolledBack {
                to_epoch: Some(3),
                lr_factor: 0.5,
                serial: false,
            },
        };
        let b = a.clone();
        assert_eq!(a.signature(), b.signature());
        assert_eq!(a.signature(), "e4:non-finite-loss>rollback");
    }
}
