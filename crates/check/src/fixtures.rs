//! Seeded-defect fixtures: known-broken inputs proving each rule family
//! fires. The CLI exposes them via `--fixture <name>`, and the test suite
//! asserts every fixture produces at least one diagnostic of its family's
//! rule, so a silently weakened rule fails the build rather than shipping.

use crate::{audit, ckpt, counts, shape, tape, trace, Diagnostic};
use aibench_ckpt::{SnapshotFile, State};
use aibench_gpusim::{DeviceConfig, Kernel, KernelCategory, Simulator};
use aibench_models::{Layer, LayerKind, ModelSpec, Trainer};

/// Names of all seeded-defect fixtures, in canonical order.
pub const FIXTURES: &[&str] = &[
    "shape-mismatch",
    "flop-disagreement",
    "unmapped-kernel",
    "time-conservation",
    "dead-parameter",
    "ckpt-truncation",
    "ckpt-bit-flip",
    "ckpt-version-mismatch",
    "ckpt-orphan-section",
    "audit-racy-kernel",
    "audit-unstable-reduction",
    "audit-unsnapshotted-state",
    "audit-rng-in-region",
    "audit-thread-chunking",
];

/// Runs one fixture by name; `None` for an unknown name. Each returned
/// list is non-empty by construction — a fixture that comes back clean
/// means its rule regressed.
pub fn run(name: &str) -> Option<Vec<Diagnostic>> {
    match name {
        "shape-mismatch" => Some(shape_mismatch()),
        "flop-disagreement" => Some(flop_disagreement()),
        "unmapped-kernel" => Some(unmapped_kernel()),
        "time-conservation" => Some(time_conservation()),
        "dead-parameter" => Some(dead_parameter()),
        "ckpt-truncation" => Some(ckpt_truncation()),
        "ckpt-bit-flip" => Some(ckpt_bit_flip()),
        "ckpt-version-mismatch" => Some(ckpt_version_mismatch()),
        "ckpt-orphan-section" => Some(ckpt_orphan_section()),
        // The audit fixtures live next to the analyses they prove, in
        // `aibench_audit::fixtures`; here they only need rendering.
        "audit-racy-kernel" => Some(audit::to_diagnostics(aibench_audit::fixtures::racy_kernel())),
        "audit-unstable-reduction" => Some(audit::to_diagnostics(
            aibench_audit::fixtures::unstable_reduction(),
        )),
        "audit-unsnapshotted-state" => Some(audit::to_diagnostics(
            aibench_audit::fixtures::unsnapshotted_state(),
        )),
        "audit-rng-in-region" => Some(audit::to_diagnostics(
            aibench_audit::fixtures::rng_in_region(),
        )),
        "audit-thread-chunking" => Some(audit::to_diagnostics(
            aibench_audit::fixtures::thread_dependent_chunking(),
        )),
        _ => None,
    }
}

/// A conv stack whose second layer declares the wrong input channel count.
fn shape_mismatch() -> Vec<Diagnostic> {
    let spec = ModelSpec::new(
        "fixture/shape-mismatch",
        vec![
            Layer::once(LayerKind::Conv2d {
                c_in: 3,
                c_out: 16,
                k: 3,
                h_out: 32,
                w_out: 32,
            }),
            Layer::once(LayerKind::Conv2d {
                c_in: 32,
                c_out: 8,
                k: 3,
                h_out: 32,
                w_out: 32,
            }),
        ],
        3 * 32 * 32,
        4,
        64,
    );
    shape::check_spec("fixture/shape-mismatch", &spec)
}

/// A spec whose externally claimed FLOP total is off by one.
fn flop_disagreement() -> Vec<Diagnostic> {
    let spec = ModelSpec::new(
        "fixture/flop-disagreement",
        vec![Layer::once(LayerKind::Linear {
            d_in: 64,
            d_out: 10,
        })],
        64,
        4,
        64,
    );
    let truth = counts::derive_spec(&spec);
    counts::verify_claim(
        "fixture/flop-disagreement",
        &spec,
        truth.params as u64,
        truth.flops as f64 + 1.0,
    )
}

/// A trace containing a kernel name outside the Table-7 taxonomy and a
/// kernel tagged with the wrong category.
fn unmapped_kernel() -> Vec<Diagnostic> {
    let trace = vec![
        Kernel::new(
            "my_secret_kernel_v2",
            KernelCategory::Gemm,
            1e6,
            1e5,
            256,
            1,
        ),
        Kernel::new(
            "softmax_warp_forward",
            KernelCategory::Gemm,
            1e4,
            1e4,
            256,
            1,
        ),
    ];
    trace::check_trace("fixture/unmapped-kernel", &trace)
}

/// A real simulated profile with one category share tampered after the
/// fact, breaking time conservation.
fn time_conservation() -> Vec<Diagnostic> {
    let spec = aibench::Registry::all().benchmarks()[0].spec();
    let mut profile = Simulator::new(DeviceConfig::titan_xp()).profile(&spec);
    if let Some(c) = profile.categories.first_mut() {
        c.share *= 0.5;
    }
    trace::check_profile("fixture/time-conservation", &profile)
}

/// A toy trainer with a parameter the loss never touches.
fn dead_parameter() -> Vec<Diagnostic> {
    use aibench_autograd::{Graph, Param};
    use aibench_nn::{Optimizer, Sgd};
    use aibench_tensor::Tensor;

    struct Lopsided {
        live: Param,
        opt: Sgd,
    }

    impl Trainer for Lopsided {
        fn train_epoch(&mut self) -> f32 {
            let mut g = Graph::new();
            let x = g.param(&self.live);
            let sq = g.square(x);
            let loss = g.sum(sq);
            let out = g.value(loss).item();
            g.backward(loss);
            self.opt.step();
            self.opt.zero_grad();
            out
        }

        fn evaluate(&mut self) -> f64 {
            0.0
        }

        fn param_count(&self) -> usize {
            self.opt.params().iter().map(|p| p.len()).sum()
        }

        fn params(&self) -> Vec<Param> {
            self.opt.params().to_vec()
        }

        fn save_state(&self, state: &mut aibench_ckpt::State) {
            aibench_ckpt::Snapshot::snapshot(&self.opt, state, "opt");
        }

        fn load_state(
            &mut self,
            state: &aibench_ckpt::State,
        ) -> Result<(), aibench_ckpt::CkptError> {
            aibench_ckpt::Restore::restore(&mut self.opt, state, "opt")
        }
    }

    let live = Param::new("w", Tensor::from_vec(vec![0.5, -0.5], &[2]));
    let orphan = Param::new("orphan", Tensor::from_vec(vec![1.0, 1.0], &[2]));
    let opt = Sgd::new(vec![live.clone(), orphan], 0.1);
    let mut t = Lopsided { live, opt };
    tape::probe_trainer("fixture/dead-parameter", &mut t)
}

/// A small but structurally complete snapshot to damage: two sections with
/// a few typed entries each.
fn sample_snapshot() -> Vec<u8> {
    let mut meta = State::new();
    meta.put_str("code", "fixture");
    meta.put_u64("seed", 42);
    let mut trainer = State::new();
    trainer.put_f32s("w", &[2, 2], vec![1.0, -2.0, 0.5, 4.0]);
    trainer.put_u64("step", 7);
    let mut file = SnapshotFile::new();
    file.push("meta", meta);
    file.push("trainer", trainer);
    file.to_bytes()
}

/// A snapshot cut off mid-section, as an interrupted write would leave it.
fn ckpt_truncation() -> Vec<Diagnostic> {
    let bytes = sample_snapshot();
    ckpt::check_snapshot("fixture/ckpt-truncation", &bytes[..bytes.len() / 2])
}

/// A snapshot with one payload bit flipped; the section CRC must notice.
fn ckpt_bit_flip() -> Vec<Diagnostic> {
    let mut bytes = sample_snapshot();
    let last = bytes.len() - 5;
    bytes[last] ^= 0x01;
    ckpt::check_snapshot("fixture/ckpt-bit-flip", &bytes)
}

/// A snapshot written by a future (unknown) format version.
fn ckpt_version_mismatch() -> Vec<Diagnostic> {
    let mut meta = State::new();
    meta.put_str("code", "fixture");
    let mut file = SnapshotFile::new();
    file.push("meta", meta);
    ckpt::check_snapshot(
        "fixture/ckpt-version-mismatch",
        &file.to_bytes_with_version(99),
    )
}

/// A snapshot with trailing bytes the section count does not account for.
fn ckpt_orphan_section() -> Vec<Diagnostic> {
    let mut bytes = sample_snapshot();
    bytes.extend_from_slice(b"stray section bytes");
    ckpt::check_snapshot("fixture/ckpt-orphan-section", &bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_fixture_fires_its_rule() {
        let expected_rules: &[(&str, &str)] = &[
            ("shape-mismatch", "channel-agreement"),
            ("flop-disagreement", "flop-crosscheck"),
            ("unmapped-kernel", "kernel-unmapped"),
            ("time-conservation", "time-conservation"),
            ("dead-parameter", "dead-parameter"),
            ("ckpt-truncation", "ckpt-truncated"),
            ("ckpt-bit-flip", "ckpt-crc"),
            ("ckpt-version-mismatch", "ckpt-version"),
            ("ckpt-orphan-section", "ckpt-orphan-section"),
            ("audit-racy-kernel", "region-race"),
            ("audit-unstable-reduction", "unstable-accumulation"),
            ("audit-unsnapshotted-state", "snapshot-coverage"),
            ("audit-rng-in-region", "rng-in-region"),
            ("audit-thread-chunking", "thread-dependent-chunking"),
        ];
        // A fixture added to `FIXTURES` without a row here would never be
        // checked: the table must name exactly the fixtures, in order.
        let names: Vec<&str> = expected_rules.iter().map(|&(f, _)| f).collect();
        assert_eq!(names, FIXTURES);
        for &(fixture, rule) in expected_rules {
            let diags = run(fixture).expect("known fixture");
            assert!(
                diags.iter().any(|d| d.rule == rule),
                "fixture `{fixture}` did not fire `{rule}`: {diags:?}"
            );
        }
    }

    #[test]
    fn unknown_fixture_is_none() {
        assert!(run("no-such-fixture").is_none());
    }
}
