//! The training runner: executes entire training sessions of the scaled
//! benchmarks to their quality targets.

use aibench_ckpt::PartialRun;
use aibench_parallel::Exec;

use crate::registry::Benchmark;
use crate::session::TrainingSession;

/// Runner configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// Hard cap on epochs (an "entire training session" stops here even if
    /// the target was not reached).
    pub max_epochs: usize,
    /// Evaluate every `eval_every` epochs (1 = every epoch).
    pub eval_every: usize,
    /// The host thread count the session runs at, in an execution context
    /// of its own (`None`: in the caller's, which is never changed). Thread
    /// count never changes results — the kernels are deterministic by
    /// construction — only wall time.
    pub parallel: Option<aibench_parallel::ParallelConfig>,
    /// Save a checkpoint every `checkpoint_every` epochs during resumable
    /// sessions (`0` disables checkpointing). Plain [`run_to_quality`]
    /// ignores this; see [`crate::ckpt::run_to_quality_resumable`].
    pub checkpoint_every: usize,
}

impl RunConfig {
    /// The execution context a session of this config runs under: the
    /// caller's, at `parallel`'s thread count when that is set.
    pub(crate) fn exec(&self) -> Exec {
        self.parallel
            .map_or_else(Exec::current, |p| Exec::current().with_threads(p.threads))
    }
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            max_epochs: 60,
            eval_every: 1,
            parallel: None,
            checkpoint_every: 0,
        }
    }
}

/// The outcome of one training session.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Benchmark code.
    pub code: String,
    /// Seed used.
    pub seed: u64,
    /// Epochs actually executed.
    pub epochs_run: usize,
    /// First epoch (1-based) at which the quality target was met, if ever.
    pub epochs_to_target: Option<usize>,
    /// Quality after each evaluation, `(epoch, quality)`.
    pub quality_trace: Vec<(usize, f64)>,
    /// Mean training loss per epoch.
    pub loss_trace: Vec<f32>,
    /// Final quality.
    pub final_quality: f64,
    /// Wall-clock seconds spent training (scaled benchmark, this machine).
    pub wall_seconds: f64,
    /// Epoch of the snapshot this session resumed from (`None` for a run
    /// started from scratch).
    pub resumed_from: Option<usize>,
}

impl RunResult {
    /// Whether the session converged to the target.
    pub fn converged(&self) -> bool {
        self.epochs_to_target.is_some()
    }

    /// Closes a session's accumulated `progress` into a result.
    pub fn from_progress(
        code: &str,
        seed: u64,
        progress: PartialRun,
        wall_seconds: f64,
        resumed_from: Option<usize>,
    ) -> RunResult {
        RunResult {
            code: code.to_string(),
            seed,
            epochs_run: progress.epochs_run,
            epochs_to_target: progress.epochs_to_target,
            quality_trace: progress.quality_trace,
            loss_trace: progress.loss_trace,
            final_quality: progress.final_quality,
            wall_seconds,
            resumed_from,
        }
    }

    /// The progress record this result closed.
    pub fn progress(&self) -> PartialRun {
        PartialRun {
            epochs_run: self.epochs_run,
            epochs_to_target: self.epochs_to_target,
            quality_trace: self.quality_trace.clone(),
            loss_trace: self.loss_trace.clone(),
            final_quality: self.final_quality,
        }
    }

    /// Encodes the result into a ckpt [`State`](aibench_ckpt::State) —
    /// the compact typed byte format results cross the serving wire in
    /// (no serde anywhere in the workspace): identity and provenance
    /// around the shared [`PartialRun`] codec. Floats round-trip bitwise,
    /// NaN included, so [`RunResult::deterministic_eq`] survives
    /// serialization.
    pub fn to_state(&self) -> aibench_ckpt::State {
        let mut state = aibench_ckpt::State::new();
        state.put_str("code", &self.code);
        state.put_u64("seed", self.seed);
        self.progress().put_state(&mut state);
        state.put_f64("wall_seconds", self.wall_seconds);
        state.put_bool("resumed", self.resumed_from.is_some());
        state.put_usize("resumed_from", self.resumed_from.unwrap_or(0));
        state
    }

    /// Decodes a result encoded by [`RunResult::to_state`]. Any missing or
    /// mistyped key surfaces as an error — wire corruption must never pass
    /// for a result.
    pub fn from_state(state: &aibench_ckpt::State) -> Result<RunResult, aibench_ckpt::CkptError> {
        Ok(RunResult::from_progress(
            state.str("code")?,
            state.u64("seed")?,
            PartialRun::from_state(state)?,
            state.f64("wall_seconds")?,
            state
                .bool("resumed")?
                .then(|| state.usize("resumed_from"))
                .transpose()?,
        ))
    }

    /// Bitwise equality of everything the training computation determines:
    /// epochs, quality trace, loss trace, and final quality, with floats
    /// compared by raw bit pattern (so NaN == NaN and `-0.0 != 0.0`).
    ///
    /// `wall_seconds` (timing noise) and `resumed_from` (provenance of this
    /// particular session, not of the training trajectory) are excluded —
    /// an interrupted-and-resumed run must be `deterministic_eq` to an
    /// uninterrupted one.
    pub fn deterministic_eq(&self, other: &RunResult) -> bool {
        self.code == other.code
            && self.seed == other.seed
            && self.progress().bitwise_eq(&other.progress())
    }
}

/// Runs an entire training session of `benchmark` with the given seed:
/// trains epoch by epoch, evaluating the quality metric, until the target
/// is met or `config.max_epochs` is exhausted — a [`TrainingSession`]
/// stepped until it is finished.
pub fn run_to_quality(benchmark: &Benchmark, seed: u64, config: &RunConfig) -> RunResult {
    let mut session = TrainingSession::fresh(benchmark, seed, config);
    while !session.finished() {
        session.step();
    }
    session.result()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn session_stops_at_cap() {
        let r = Registry::aibench();
        let b = r.get("DC-AI-C15").unwrap();
        let res = run_to_quality(
            b,
            1,
            &RunConfig {
                max_epochs: 2,
                eval_every: 1,
                ..RunConfig::default()
            },
        );
        assert_eq!(res.epochs_run, 2);
        assert_eq!(res.quality_trace.len(), 2);
        assert_eq!(res.loss_trace.len(), 2);
    }

    #[test]
    fn converging_session_reports_epoch() {
        // Spatial transformer converges quickly; give it room.
        let r = Registry::aibench();
        let b = r.get("DC-AI-C15").unwrap();
        let res = run_to_quality(
            b,
            2,
            &RunConfig {
                max_epochs: 40,
                eval_every: 1,
                ..RunConfig::default()
            },
        );
        assert!(
            res.converged(),
            "did not converge: final {:.3}",
            res.final_quality
        );
        assert_eq!(res.epochs_to_target, Some(res.epochs_run));
        assert!(b.target.met_by(res.final_quality));
    }

    #[test]
    fn eval_every_thins_the_trace() {
        let r = Registry::aibench();
        let b = r.get("DC-AI-C15").unwrap();
        let res = run_to_quality(
            b,
            1,
            &RunConfig {
                max_epochs: 4,
                eval_every: 2,
                ..RunConfig::default()
            },
        );
        let evaluated: Vec<usize> = res.quality_trace.iter().map(|&(e, _)| e).collect();
        assert_eq!(evaluated, vec![2, 4]);
        assert_eq!(res.loss_trace.len(), 4);
    }
}
