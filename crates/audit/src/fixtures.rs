//! Seeded defect fixtures proving each audit analysis fires.
//!
//! Each fixture builds a small, intentionally broken workload — memory-safe
//! (the workspace forbids unsafe outside the kernel hot paths) but in
//! violation of the determinism contract the audit enforces — records it,
//! and returns the findings the corresponding analysis produces. An empty
//! return from any of these means the analysis has gone blind;
//! `aibench-check`'s fixture harness fails in that case.

use crate::{coverage, lints, race, with_recording, Finding};
use aibench_autograd::Param;
use aibench_ckpt::{Snapshot as _, State};
use aibench_models::Trainer;
use aibench_parallel::{effects, Exec};
use aibench_tensor::{Rng, Tensor};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

/// A kernel whose chunks each write one element past their range — the
/// classic halo/off-by-one stencil bug. The cells are atomics so the
/// overlap is memory-safe to *execute*; the declared access sets still
/// overlap, which is exactly what the race detector keys on.
pub fn racy_kernel() -> Vec<Finding> {
    let n = 64;
    let cells: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    let ((), report) = with_recording(|| {
        let _s = effects::kernel_scope("fixture_racy_halo");
        aibench_parallel::parallel_for(n, 16, |range| {
            // Declares (and performs) the buggy halo write: the chunk's
            // own range plus one element of its right neighbour.
            let halo = range.start..(range.end + 1).min(n);
            effects::write(&cells, halo.clone());
            for i in halo {
                cells[i].fetch_add(1, Ordering::Relaxed);
            }
        });
    });
    race::detect_races("audit-racy-kernel", &report)
}

/// A reduction hand-rolled over `parallel_for` folding float partials into
/// a shared accumulator. The sum's value depends on which chunk locks the
/// mutex first — the accumulation lint flags the `Accumulate` declaration
/// outside `parallel_reduce`.
pub fn unstable_reduction() -> Vec<Finding> {
    let data = vec![0.1f32; 1000];
    let acc = Mutex::new(0.0f32);
    let ((), report) = with_recording(|| {
        let _s = effects::kernel_scope("fixture_unstable_sum");
        aibench_parallel::parallel_for(data.len(), 128, |range| {
            effects::read(&data, range.clone());
            let partial: f32 = range.map(|i| data[i]).sum();
            let mut g = acc.lock().unwrap();
            effects::accumulate(std::slice::from_ref(&*g), 0..1);
            *g += partial;
        });
    });
    lints::lint_regions("audit-unstable-reduction", &report)
}

/// A toy trainer that updates two parameters every epoch but snapshots
/// only one of them. Checkpoint/resume would silently lose `b`; the
/// snapshot-coverage analysis catches the omission by diffing the epoch's
/// mutation fingerprint against the `save_state` tree.
struct ForgetfulTrainer {
    w: Param,
    b: Param,
}

impl ForgetfulTrainer {
    fn new() -> Self {
        ForgetfulTrainer {
            w: Param::new("w", Tensor::zeros(&[32])),
            b: Param::new("b", Tensor::zeros(&[8])),
        }
    }
}

impl Trainer for ForgetfulTrainer {
    fn train_epoch(&mut self) -> f32 {
        for p in [&self.w, &self.b] {
            let mut v = p.value_mut();
            aibench_parallel::parallel_slice_mut(v.data_mut(), 8, |range, out| {
                for (x, i) in out.iter_mut().zip(range) {
                    *x += 0.5 + i as f32 * 0.01;
                }
            });
        }
        0.0
    }

    fn evaluate(&mut self) -> f64 {
        0.0
    }

    fn param_count(&self) -> usize {
        self.w.len() + self.b.len()
    }

    fn params(&self) -> Vec<Param> {
        vec![self.w.clone(), self.b.clone()]
    }

    fn save_state(&self, state: &mut State) {
        // The seeded defect: `b` is mutated every epoch but never saved.
        self.w.snapshot(state, "w");
    }

    fn load_state(&mut self, state: &State) -> Result<(), aibench_ckpt::CkptError> {
        aibench_ckpt::Restore::restore(&mut self.w, state, "w")
    }
}

/// Runs the forgetful trainer through the same record-epoch/diff-snapshot
/// flow `audit_benchmark` uses and returns the coverage findings.
pub fn unsnapshotted_state() -> Vec<Finding> {
    let mut trainer = ForgetfulTrainer::new();
    let (_, report) = with_recording(|| trainer.train_epoch());
    let mut state = State::new();
    trainer.save_state(&mut state);
    coverage::check_coverage(
        "audit-unsnapshotted-state",
        &trainer.params(),
        &state,
        &report,
    )
}

/// A kernel drawing from a shared RNG inside its chunks: the stream
/// position each chunk observes depends on scheduling order, so the output
/// is not reproducible. Flagged by the RNG lint via the draw counter the
/// generator itself maintains.
pub fn rng_in_region() -> Vec<Finding> {
    let rng = Mutex::new(Rng::seed_from(7));
    let mut out = vec![0.0f32; 256];
    let ((), report) = with_recording(|| {
        let _s = effects::kernel_scope("fixture_rng_noise");
        aibench_parallel::parallel_slice_mut(&mut out, 64, |_, o| {
            let mut g = rng.lock().unwrap();
            for x in o {
                *x = (g.next_u64() % 1000) as f32;
            }
        });
    });
    lints::lint_regions("audit-rng-in-region", &report)
}

/// A kernel that sizes its chunks from the live thread count
/// (`n.div_ceil(threads)`), so its reduction boundaries move whenever the
/// pool is resized. Recorded at two thread counts; the chunking lint
/// requires the descriptor multisets to match and reports the drift.
pub fn thread_dependent_chunking() -> Vec<Finding> {
    let run = || {
        let n: usize = 1000;
        let chunk = n.div_ceil(aibench_parallel::threads()).max(1);
        let mut data = vec![0.0f32; n];
        let _s = effects::kernel_scope("fixture_elastic_chunks");
        aibench_parallel::parallel_slice_mut(&mut data, chunk, |_, o| o.fill(1.0));
    };
    let ((), report_a) = Exec::current().with_threads(1).record(run);
    let ((), report_b) = Exec::current().with_threads(2).record(run);
    lints::lint_chunking("audit-thread-chunking", 1, 2, &report_a, &report_b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_fixture_fires_its_analysis() {
        for (name, findings, rule) in [
            ("racy_kernel", racy_kernel(), "region-race"),
            (
                "unstable_reduction",
                unstable_reduction(),
                "unstable-accumulation",
            ),
            (
                "unsnapshotted_state",
                unsnapshotted_state(),
                "snapshot-coverage",
            ),
            ("rng_in_region", rng_in_region(), "rng-in-region"),
            (
                "thread_dependent_chunking",
                thread_dependent_chunking(),
                "thread-dependent-chunking",
            ),
        ] {
            assert!(!findings.is_empty(), "{name} produced no findings");
            assert!(
                findings.iter().any(|f| f.rule == rule),
                "{name} fired {:?}, expected rule {rule}",
                findings.iter().map(|f| f.rule).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn forgetful_trainer_flags_exactly_the_forgotten_param() {
        let findings = unsnapshotted_state();
        assert_eq!(findings.len(), 1);
        assert!(findings[0].expected.contains("`b`"), "{}", findings[0]);
    }
}
