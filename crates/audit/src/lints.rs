//! Determinism lints over recorded region effects.
//!
//! These catch code that is memory-safe but breaks the bitwise
//! reproducibility contract: float accumulation whose fold order depends on
//! chunk scheduling, RNG streams consumed in scheduling order, and chunk
//! boundaries derived from the thread count.

use crate::Finding;
use aibench_parallel::effects::{AccessKind, EffectReport};
use std::collections::BTreeMap;

/// Per-region lints: order-unstable accumulation and RNG use inside
/// parallel regions.
pub fn lint_regions(subject: &str, report: &EffectReport) -> Vec<Finding> {
    let mut findings = Vec::new();
    for region in &report.regions {
        // Accumulate declarations are read-modify-write folds into shared
        // state. Inside `parallel_reduce` the per-chunk partials are folded
        // in ascending chunk order by construction; anywhere else the fold
        // order is whatever the scheduler produced.
        if region.primitive != "parallel_reduce" {
            let accums: Vec<_> = region
                .accesses
                .iter()
                .filter(|a| a.kind == AccessKind::Accumulate)
                .collect();
            if let Some(first) = accums.first() {
                findings.push(Finding {
                    subject: subject.to_string(),
                    rule: "unstable-accumulation",
                    expected: format!(
                        "kernel `{}` folds float partials through the order-stable \
                         parallel_reduce/sum_f32 combiners",
                        region.kernel
                    ),
                    found: format!(
                        "{} accumulate declaration(s) inside a {} region (first: chunk {} \
                         at [{}..{})) — fold order follows chunk scheduling",
                        accums.len(),
                        region.primitive,
                        first.chunk,
                        first.range.start,
                        first.range.end,
                    ),
                });
            }
        }
        if region.rng_draws > 0 {
            findings.push(Finding {
                subject: subject.to_string(),
                rule: "rng-in-region",
                expected: format!(
                    "kernel `{}` draws random numbers outside parallel regions \
                     (or from per-chunk forked generators)",
                    region.kernel
                ),
                found: format!(
                    "{} RNG draw(s) from inside the region's chunks — a shared \
                     generator's stream order would depend on chunk scheduling",
                    region.rng_draws
                ),
            });
        }
    }
    findings
}

/// One region's thread-count-independent shape: `(kernel, primitive, n,
/// chunk, engages)`.
type RegionShape = (String, &'static str, usize, usize, bool);

/// Chunk-boundary descriptor multiset of a report: one [`RegionShape`]
/// entry per region. Chunk boundaries are a pure function of `(n, chunk)`
/// and the engage/inline decision a pure function of the shape, so two
/// runs of the same workload — at any two thread counts — must produce
/// identical multisets. Region *order* is deliberately ignored: nested
/// regions open in scheduling order.
fn boundary_multiset(report: &EffectReport) -> BTreeMap<RegionShape, i64> {
    let mut counts = BTreeMap::new();
    for r in &report.regions {
        *counts
            .entry((r.kernel.clone(), r.primitive, r.n, r.chunk, r.engages))
            .or_insert(0) += 1;
    }
    counts
}

/// At most this many differing descriptors are reported per benchmark.
const DIFFS_REPORTED: usize = 3;

/// Compares the chunk-boundary descriptors of the same workload recorded
/// at two thread counts. Any difference means some kernel derives its
/// chunking from the thread count (or otherwise schedules differently),
/// which moves reduction boundaries and breaks bitwise reproducibility.
pub fn lint_chunking(
    subject: &str,
    threads_a: usize,
    threads_b: usize,
    a: &EffectReport,
    b: &EffectReport,
) -> Vec<Finding> {
    let mut counts = boundary_multiset(a);
    for (key, n) in boundary_multiset(b) {
        *counts.entry(key).or_insert(0) -= n;
    }
    counts.retain(|_, n| *n != 0);
    let mut findings = Vec::new();
    for ((kernel, primitive, n, chunk, engages), delta) in counts.into_iter().take(DIFFS_REPORTED) {
        let (more, fewer) = if delta > 0 {
            (threads_a, threads_b)
        } else {
            (threads_b, threads_a)
        };
        findings.push(Finding {
            subject: subject.to_string(),
            rule: "thread-dependent-chunking",
            expected: format!(
                "identical chunk descriptors at {threads_a} and {threads_b} thread(s) \
                 (boundaries and pool engagement must depend only on problem size)"
            ),
            found: format!(
                "kernel `{kernel}` ({primitive}, n={n}, chunk={chunk}, engages={engages}) ran \
                 {} more time(s) at {more} thread(s) than at {fewer}",
                delta.abs()
            ),
        });
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::with_recording;
    use aibench_parallel::{effects, Exec};

    #[test]
    fn order_stable_sum_passes_the_accumulation_lint() {
        let (total, report) = with_recording(|| aibench_parallel::sum_f32(&vec![0.5f32; 10_000]));
        assert_eq!(total, 5000.0);
        assert!(!report.regions.is_empty());
        assert!(lint_regions("test", &report).is_empty());
    }

    #[test]
    fn rng_outside_regions_is_clean() {
        let (_, report) = with_recording(|| {
            let mut rng = aibench_tensor::Rng::seed_from(1);
            let draws: Vec<u64> = (0..100).map(|_| rng.next_u64()).collect();
            let mut out = vec![0.0f32; 100];
            aibench_parallel::parallel_slice_mut(&mut out, 10, |range, o| {
                for (v, i) in o.iter_mut().zip(range) {
                    *v = (draws[i] % 7) as f32;
                }
            });
        });
        assert!(lint_regions("test", &report).is_empty());
    }

    #[test]
    fn identical_workloads_pass_the_chunking_lint() {
        let workload = || {
            let mut data = vec![0.0f32; 999];
            let _s = effects::kernel_scope("probe");
            aibench_parallel::parallel_slice_mut(&mut data, 10, |_, o| o.fill(1.0));
            aibench_parallel::sum_f32(&data)
        };
        let (_, a) = Exec::current().with_threads(1).record(workload);
        let (_, b) = Exec::current().with_threads(4).record(workload);
        assert!(lint_chunking("test", 1, 4, &a, &b).is_empty());
    }
}
