//! The progress record of a training session and the one place its rules
//! live: how an epoch is committed, when an epoch evaluates, when the
//! session is over, and how the record is (de)serialized.
//!
//! Every runner — the closed and resumable runners and the open
//! `TrainingSession` in `aibench`, the supervisor in `aibench-fault`, the
//! data-parallel engine in `aibench-dist` — carries a [`PartialRun`] and
//! commits epochs through it, so "a training session to a target quality"
//! means the same thing whichever path produced the number.

use crate::{CkptError, State};

/// The accumulated progress of one training session: what a finished
/// session reports and what a snapshot carries across sessions.
#[derive(Debug, Clone)]
pub struct PartialRun {
    /// Epochs completed so far.
    pub epochs_run: usize,
    /// Convergence epoch, if reached.
    pub epochs_to_target: Option<usize>,
    /// `(epoch, quality)` per evaluation so far.
    pub quality_trace: Vec<(usize, f64)>,
    /// Mean training loss per epoch so far.
    pub loss_trace: Vec<f32>,
    /// Most recent quality (NaN before the first evaluation).
    pub final_quality: f64,
}

impl PartialRun {
    /// The empty progress of a fresh run.
    pub fn fresh() -> Self {
        PartialRun {
            epochs_run: 0,
            epochs_to_target: None,
            quality_trace: Vec::new(),
            loss_trace: Vec::new(),
            final_quality: f64::NAN,
        }
    }

    /// The stop rule: a session is over once it reached its quality target
    /// or ran `max_epochs` epochs.
    pub fn finished(&self, max_epochs: usize) -> bool {
        self.epochs_to_target.is_some() || self.epochs_run >= max_epochs
    }

    /// Commits `loss` as the next epoch's mean training loss and returns
    /// whether that epoch evaluates — the cadence: every `eval_every`
    /// epochs (`0` behaves as `1`), and always at the epoch cap.
    pub fn record_loss(&mut self, loss: f32, eval_every: usize, max_epochs: usize) -> bool {
        self.loss_trace.push(loss);
        self.epochs_run += 1;
        self.epochs_run.is_multiple_of(eval_every.max(1)) || self.epochs_run == max_epochs
    }

    /// Records the newest epoch's evaluation; `target_met` marks it as the
    /// convergence epoch.
    pub fn record_quality(&mut self, quality: f64, target_met: bool) {
        self.quality_trace.push((self.epochs_run, quality));
        self.final_quality = quality;
        if target_met {
            self.epochs_to_target = Some(self.epochs_run);
        }
    }

    /// Bitwise equality of everything the training computation determines,
    /// floats compared by raw bit pattern (so NaN == NaN and
    /// `-0.0 != 0.0`).
    pub fn bitwise_eq(&self, other: &PartialRun) -> bool {
        self.epochs_run == other.epochs_run
            && self.epochs_to_target == other.epochs_to_target
            && self.quality_trace.len() == other.quality_trace.len()
            && self
                .quality_trace
                .iter()
                .zip(&other.quality_trace)
                .all(|((ea, qa), (eb, qb))| ea == eb && qa.to_bits() == qb.to_bits())
            && self.loss_trace.len() == other.loss_trace.len()
            && self
                .loss_trace
                .iter()
                .zip(&other.loss_trace)
                .all(|(a, b)| a.to_bits() == b.to_bits())
            && self.final_quality.to_bits() == other.final_quality.to_bits()
    }

    /// Writes the record into `state` — the one progress codec, shared by
    /// a `RunResult` on the wire, a run snapshot's `progress` section and
    /// a data-parallel group snapshot's. Floats round-trip bitwise, NaN
    /// included.
    pub fn put_state(&self, state: &mut State) {
        state.put_usize("epochs_run", self.epochs_run);
        state.put_bool("converged", self.epochs_to_target.is_some());
        state.put_usize("epochs_to_target", self.epochs_to_target.unwrap_or(0));
        state.put_u64s(
            "quality_epochs",
            self.quality_trace.iter().map(|&(e, _)| e as u64).collect(),
        );
        state.put_f64s(
            "quality_values",
            self.quality_trace.iter().map(|&(_, q)| q).collect(),
        );
        state.put_f32s(
            "loss_trace",
            &[self.loss_trace.len()],
            self.loss_trace.clone(),
        );
        state.put_f64("final_quality", self.final_quality);
    }

    /// Reads a record written by [`PartialRun::put_state`]. Any missing or
    /// mistyped key surfaces as an error — corruption must never pass for
    /// progress.
    pub fn from_state(state: &State) -> Result<PartialRun, CkptError> {
        let epochs = state.u64s("quality_epochs")?;
        let values = state.f64s("quality_values")?;
        if epochs.len() != values.len() {
            return Err(CkptError::MetaMismatch {
                what: "quality trace epochs/values lengths differ".to_string(),
            });
        }
        Ok(PartialRun {
            epochs_run: state.usize("epochs_run")?,
            epochs_to_target: state
                .bool("converged")?
                .then(|| state.usize("epochs_to_target"))
                .transpose()?,
            quality_trace: epochs
                .iter()
                .zip(values)
                .map(|(&e, &q)| (e as usize, q))
                .collect(),
            loss_trace: state.f32s("loss_trace")?.1.to_vec(),
            final_quality: state.f64("final_quality")?,
        })
    }
}

impl Default for PartialRun {
    fn default() -> Self {
        PartialRun::fresh()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives a record to the cap with a never-met target and returns the
    /// epochs that evaluated.
    fn evaluated_epochs(max_epochs: usize, eval_every: usize) -> Vec<usize> {
        let mut run = PartialRun::fresh();
        while !run.finished(max_epochs) {
            if run.record_loss(0.5, eval_every, max_epochs) {
                run.record_quality(0.1, false);
            }
        }
        assert_eq!(run.epochs_run, max_epochs);
        run.quality_trace.iter().map(|&(e, _)| e).collect()
    }

    #[test]
    fn cadence_evaluates_every_nth_epoch_and_always_at_the_cap() {
        assert_eq!(evaluated_epochs(5, 2), vec![2, 4, 5]);
        assert_eq!(evaluated_epochs(5, 3), vec![3, 5]);
        assert_eq!(evaluated_epochs(4, 0), vec![1, 2, 3, 4]);
        assert_eq!(evaluated_epochs(7, 4), vec![4, 7]);
    }

    #[test]
    fn meeting_the_target_finishes_the_session_before_the_cap() {
        let mut run = PartialRun::fresh();
        assert!(run.record_loss(0.5, 1, 10));
        run.record_quality(0.9, true);
        assert_eq!(run.epochs_to_target, Some(1));
        assert!(run.finished(10));
    }

    #[test]
    fn codec_round_trips_nan_and_unconverged_progress() {
        let mut run = PartialRun::fresh();
        run.record_loss(f32::NAN, 2, 9);
        let mut state = State::new();
        run.put_state(&mut state);
        let back = PartialRun::from_state(&state).unwrap();
        assert!(back.final_quality.is_nan() && back.epochs_to_target.is_none());
        assert!(run.bitwise_eq(&back));
        // Corruption: a trace whose halves disagree is refused.
        let mut torn = State::new();
        for (key, value) in state.iter() {
            if key == "quality_values" {
                torn.put_f64s(key, vec![0.5]);
            } else {
                torn.put(key, value.clone());
            }
        }
        assert!(PartialRun::from_state(&torn).is_err());
    }
}
