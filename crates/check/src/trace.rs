//! Invariant lints over `aibench-gpusim` kernel traces and profiles.
//!
//! The classifier table below restates the paper's Table-7 taxonomy by
//! kernel *name*, independently of the category the lowering pass tagged:
//! an unmapped name or a tag that disagrees with the table is a violation.
//! Conservation lints check that per-category times and hotspot/stall
//! shares account for the whole trace, and a forward/backward lint checks
//! that training cost sits within the 1 forward : 2 backward convention's
//! plausible band relative to inference.

use crate::Diagnostic;
use aibench_gpusim::{
    lower_inference_iteration, lower_training_iteration, DeviceConfig, Kernel, KernelCategory,
    ModelProfile, Simulator,
};
use aibench_models::ModelSpec;
use aibench_parallel::Exec;

/// Name → Table-7 category table. Substring patterns, checked in order;
/// first hit wins. Every kernel the lowering pass may emit must match one.
const CLASSIFIER: &[(&str, KernelCategory)] = &[
    ("CUDA memcpy", KernelCategory::Memcpy),
    // Backward batch-norm before the generic "bn" patterns.
    ("bn_bw", KernelCategory::BatchNorm),
    ("bn_fw", KernelCategory::BatchNorm),
    ("layer_norm", KernelCategory::BatchNorm),
    ("batch_norm", KernelCategory::BatchNorm),
    // ReLU-fused convolution is categorized as ReLU by the paper's
    // name-based accounting, so it must precede the scudnn patterns.
    ("relu", KernelCategory::Relu),
    ("winograd", KernelCategory::Convolution),
    ("wgrad", KernelCategory::Convolution),
    // Remaining scudnn kernels are im2col/transform data movement.
    ("stridedB", KernelCategory::DataArrangement),
    ("grid_sampler", KernelCategory::DataArrangement),
    ("sgemm", KernelCategory::Gemm),
    ("element_wise", KernelCategory::ElementWise),
    ("softmax", KernelCategory::ElementWise),
    ("Pool", KernelCategory::Pooling),
];

/// Kernel-name substrings that can only appear in gradient or optimizer
/// work, and are therefore banned from inference traces.
const GRADIENT_MARKERS: &[&str] = &[
    "backward",
    "Backward",
    "wgrad",
    "bn_bw",
    "DtoD",
    "threshold",
];

/// Classifies a kernel name against the Table-7 taxonomy.
pub fn classify(name: &str) -> Option<KernelCategory> {
    CLASSIFIER
        .iter()
        .find(|(pat, _)| name.contains(pat))
        .map(|&(_, cat)| cat)
}

/// Lints one kernel trace: every name must map to a category, and the
/// mapped category must agree with the tag the lowering pass attached.
pub fn check_trace(bench: &str, trace: &[Kernel]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for k in trace {
        match classify(&k.name) {
            None => out.push(Diagnostic::global(
                bench,
                "kernel-unmapped",
                "a Table-7 category for every kernel name",
                format!("unmapped kernel `{}`", k.name),
            )),
            Some(cat) if cat != k.category => out.push(Diagnostic::global(
                bench,
                "kernel-category",
                format!("`{}` tagged {:?}", k.name, cat),
                format!("{:?}", k.category),
            )),
            Some(_) => {}
        }
    }
    out
}

/// Lints a simulated profile's conservation invariants: category shares
/// and hotspot percentages account for the whole trace, and every stall
/// breakdown sums to 100%.
pub fn check_profile(bench: &str, profile: &ModelProfile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let share_sum: f64 = profile.categories.iter().map(|c| c.share).sum();
    if (share_sum - 1.0).abs() > 1e-6 {
        out.push(Diagnostic::global(
            bench,
            "time-conservation",
            "category time shares summing to 1",
            format!("{share_sum:.9}"),
        ));
    }
    // Re-derive each category's share from the raw kernel times: the
    // summary table must be an aggregation of the trace, not a new claim.
    let total: f64 = profile.kernels.iter().map(|p| p.time_s).sum();
    if total > 0.0 {
        for c in &profile.categories {
            let cat_time: f64 = profile
                .kernels
                .iter()
                .filter(|p| p.kernel.category == c.category)
                .map(|p| p.time_s)
                .sum();
            if (c.share - cat_time / total).abs() > 1e-6 {
                out.push(Diagnostic::global(
                    bench,
                    "time-conservation",
                    format!(
                        "{:?} share {:.6} from kernel times",
                        c.category,
                        cat_time / total
                    ),
                    format!("{:.6}", c.share),
                ));
            }
        }
    }
    if profile.iteration_seconds <= total {
        out.push(Diagnostic::global(
            bench,
            "time-conservation",
            "iteration time = kernel time + host overhead",
            format!(
                "iteration {:.6}s <= kernel total {:.6}s",
                profile.iteration_seconds, total
            ),
        ));
    }
    let hotspot_sum: f64 = profile.hotspots.iter().map(|(_, p)| p).sum();
    if (hotspot_sum - 100.0).abs() > 1e-6 {
        out.push(Diagnostic::global(
            bench,
            "hotspot-conservation",
            "hotspot percentages summing to 100",
            format!("{hotspot_sum:.6}"),
        ));
    }
    for c in &profile.categories {
        let stall_sum: f64 = c.stalls.iter().map(|(_, s)| s).sum();
        if (stall_sum - 100.0).abs() > 1e-6 {
            out.push(Diagnostic::global(
                bench,
                "stall-conservation",
                format!("{:?} stall shares summing to 100", c.category),
                format!("{stall_sum:.6}"),
            ));
        }
    }
    for p in &profile.kernels {
        let stall_sum: f64 = p.stalls.iter().map(|(_, s)| s).sum();
        if (stall_sum - 100.0).abs() > 1e-6 {
            out.push(Diagnostic::global(
                bench,
                "stall-conservation",
                format!("`{}` stall shares summing to 100", p.kernel.name),
                format!("{stall_sum:.6}"),
            ));
        }
    }
    out
}

/// Lints the forward/backward FLOP convention: with backward costed at
/// twice forward, a training iteration must spend between 1.5x and 3.5x
/// the FLOPs of an inference pass over the same batch (the band absorbs
/// layers whose backward is cheaper, optimizer work, and data movement).
pub fn check_fwd_bwd(bench: &str, spec: &ModelSpec) -> Vec<Diagnostic> {
    // `Kernel::flops` is per launch; `count` multiplies it.
    let train: f64 = lower_training_iteration(spec)
        .iter()
        .map(|k| k.flops * k.count as f64)
        .sum();
    let infer: f64 = lower_inference_iteration(spec, spec.batch_size)
        .iter()
        .map(|k| k.flops * k.count as f64)
        .sum();
    if infer <= 0.0 {
        return vec![Diagnostic::global(
            bench,
            "fwd-bwd-ratio",
            "a nonempty inference trace",
            "zero inference FLOPs",
        )];
    }
    let ratio = train / infer;
    if !(1.5..=3.5).contains(&ratio) {
        return vec![Diagnostic::global(
            bench,
            "fwd-bwd-ratio",
            "training/inference FLOP ratio in [1.5, 3.5]",
            format!("{ratio:.3}"),
        )];
    }
    Vec::new()
}

/// Lints inference purity: a forward-only trace must not contain gradient
/// or optimizer kernels.
pub fn check_inference_purity(bench: &str, spec: &ModelSpec) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for k in lower_inference_iteration(spec, spec.batch_size) {
        if let Some(marker) = GRADIENT_MARKERS.iter().find(|m| k.name.contains(*m)) {
            out.push(Diagnostic::global(
                bench,
                "inference-purity",
                "no gradient/optimizer kernels in inference traces",
                format!("`{}` (marker `{marker}`)", k.name),
            ));
        }
    }
    out
}

/// Lints the deterministic-parallelism contract: the profile simulated on
/// one thread and on a second thread count must agree exactly (host-pool
/// utilization aside — that legitimately differs), and the conservation
/// lints of [`check_profile`] must hold for both.
pub fn check_parallel_determinism(bench: &str, spec: &ModelSpec) -> Vec<Diagnostic> {
    let [mut serial, mut parallel] = profiles_at_two_thread_counts(spec);
    let threads = parallel.host_pool.threads;
    let mut out = check_profile(bench, &serial);
    out.extend(check_profile(bench, &parallel));
    serial.host_pool = Default::default();
    parallel.host_pool = Default::default();
    if serial != parallel {
        out.push(Diagnostic::global(
            bench,
            "parallel-determinism",
            "identical profiles at 1 thread and at a second thread count",
            format!("profiles diverge between 1 and {threads} thread(s)"),
        ));
    }
    out
}

/// The simulated profile of `spec` on one thread and on the caller's
/// thread count, or on 4 when that is 1 too (as `aibench-audit` does).
fn profiles_at_two_thread_counts(spec: &ModelSpec) -> [ModelProfile; 2] {
    let sim = Simulator::new(DeviceConfig::titan_xp());
    let exec = Exec::current();
    let second = Some(exec.threads()).filter(|&t| t > 1).unwrap_or(4);
    [1, second].map(|threads| exec.clone().with_threads(threads).run(|| sim.profile(spec)))
}

/// Runs every trace lint for one benchmark spec: classifier agreement on
/// both training and inference traces, conservation on the simulated
/// profile at one thread *and* at a second thread count (which also lints
/// parallel determinism), the fwd:bwd band, and inference purity.
pub fn check_benchmark(bench: &str, spec: &ModelSpec) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    out.extend(check_trace(bench, &lower_training_iteration(spec)));
    out.extend(check_trace(
        bench,
        &lower_inference_iteration(spec, spec.batch_size),
    ));
    out.extend(check_parallel_determinism(bench, spec));
    out.extend(check_fwd_bwd(bench, spec));
    out.extend(check_inference_purity(bench, spec));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifier_covers_every_lowered_kernel_name() {
        for b in aibench::Registry::all().benchmarks() {
            let spec = b.spec();
            for k in lower_training_iteration(&spec) {
                assert!(
                    classify(&k.name).is_some(),
                    "{}: unmapped kernel `{}`",
                    b.id.code(),
                    k.name
                );
            }
        }
    }

    #[test]
    fn unmapped_kernel_is_flagged() {
        let k = Kernel::new("my_custom_kernel", KernelCategory::Gemm, 1.0, 1.0, 32, 1);
        let diags = check_trace("mini", &[k]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "kernel-unmapped");
    }

    #[test]
    fn misclassified_kernel_is_flagged() {
        let k = Kernel::new(
            "softmax_warp_forward",
            KernelCategory::Gemm,
            1.0,
            1.0,
            32,
            1,
        );
        let diags = check_trace("mini", &[k]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "kernel-category");
    }

    #[test]
    fn profiles_agree_across_thread_counts() {
        let spec = aibench::Registry::all().benchmarks()[0].spec();
        let diags = check_parallel_determinism("mini", &spec);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn a_one_thread_caller_still_compares_two_thread_counts() {
        let spec = aibench::Registry::all().benchmarks()[0].spec();
        let one = Exec::current().with_threads(1);
        let [serial, parallel] = one.run(|| profiles_at_two_thread_counts(&spec));
        assert_eq!(
            (serial.host_pool.threads, parallel.host_pool.threads),
            (1, 4)
        );
    }

    #[test]
    fn tampered_profile_breaks_time_conservation() {
        let spec = aibench::Registry::all().benchmarks()[0].spec();
        let mut profile = Simulator::new(DeviceConfig::titan_xp()).profile(&spec);
        assert!(check_profile("mini", &profile).is_empty());
        profile.categories[0].share *= 0.5;
        assert!(check_profile("mini", &profile)
            .iter()
            .any(|d| d.rule == "time-conservation"));
    }
}
