//! Property tests of the audit's no-false-positive guarantee: the shipped
//! kernels declare disjoint cross-chunk access sets at every thread count,
//! so the race detector and the per-region lints stay silent on them.

use aibench_audit::{lints, race, with_recording};
use aibench_parallel::Exec;
use aibench_tensor::ops::{conv2d, matmul, Conv2dArgs};
use aibench_tensor::{Rng, Tensor};
use proptest::prelude::*;
use std::sync::Barrier;

/// Thread counts the contract is exercised at.
const THREADS: [usize; 3] = [1, 4, 8];

fn assert_clean(label: &str, threads: usize, f: impl Fn()) {
    let ((), report) = with_recording(|| Exec::current().with_threads(threads).run(f));
    assert!(
        !report.regions.is_empty(),
        "{label}: kernel recorded no regions at {threads} thread(s)"
    );
    let races = race::detect_races(label, &report);
    assert!(races.is_empty(), "{label} at {threads} threads: {races:?}");
    let lints = lints::lint_regions(label, &report);
    assert!(lints.is_empty(), "{label} at {threads} threads: {lints:?}");
}

/// Top-level regions of the recording opened under exactly this kernel
/// label (a kernel's nested regions carry it as a prefix).
fn calls(report: &aibench_parallel::effects::EffectReport, kernel: &str) -> usize {
    report.regions.iter().filter(|r| r.kernel == kernel).count()
}

/// The tape computes no gradient for a node nothing reads: the data tensor
/// under a network's first convolution or first matmul costs no
/// backward-input kernel call, while every parameter still gets its own.
#[test]
fn gradients_nobody_reads_cost_no_kernel_calls() {
    use aibench_autograd::{Graph, Param};
    let mut rng = Rng::seed_from(11);
    let (w1, w2) = (
        Param::new("w1", Tensor::randn(&[4, 2, 3, 3], &mut rng)),
        Param::new("w2", Tensor::randn(&[4, 4, 3, 3], &mut rng)),
    );
    let mut g = Graph::new();
    let x = g.input(Tensor::randn(&[2, 2, 6, 6], &mut rng));
    let (v1, v2) = (g.param(&w1), g.param(&w2));
    let h = g.conv2d(x, v1, Conv2dArgs::new(1, 1));
    let y = g.conv2d(h, v2, Conv2dArgs::new(1, 1));
    let loss = g.sum(y);
    let ((), report) = with_recording(|| g.backward(loss));
    assert_eq!(calls(&report, "conv2d_bwd_weight"), 2);
    assert_eq!(calls(&report, "conv2d_bwd_input"), 1, "only into `h`");

    let (m1, m2) = (
        Param::new("m1", Tensor::randn(&[8, 8], &mut rng)),
        Param::new("m2", Tensor::randn(&[8, 8], &mut rng)),
    );
    let mut g = Graph::new();
    let x = g.input(Tensor::randn(&[8, 8], &mut rng));
    let (v1, v2) = (g.param(&m1), g.param(&m2));
    let h = g.matmul(x, v1);
    let y = g.matmul(h, v2);
    let loss = g.sum(y);
    let ((), report) = with_recording(|| g.backward(loss));
    assert_eq!(calls(&report, "gemm"), 3, "dW2, dH and dW1, but no dX");
}

/// Two audits recording at once (a barrier inside both) each get exactly
/// the regions their kernel records alone, those nested on pool workers
/// included.
#[test]
fn two_recordings_overlap_without_mixing() {
    let mut rng = Rng::seed_from(5);
    let [a, b, x, w] = [&[256, 48][..], &[48, 96], &[4, 3, 16, 16], &[8, 3, 3, 3]]
        .map(|shape| Tensor::randn(shape, &mut rng));
    let gemm = || drop(matmul(&a, &b));
    let conv = || drop(conv2d(&x, &w, Conv2dArgs::new(1, 1)));
    // `(kernel, n, chunk)` of every region, sorted: regions nested on
    // different workers are recorded in whichever order they open.
    let record = |kernel: &(dyn Fn() + Sync), barrier: &Barrier| {
        let ((), report) = with_recording(|| {
            Exec::current().with_threads(4).run(|| {
                barrier.wait();
                (0..20).for_each(|_| kernel());
                barrier.wait();
            })
        });
        let regions = report.regions.into_iter().map(|r| (r.kernel, r.n, r.chunk));
        let mut regions: Vec<_> = regions.collect();
        regions.sort();
        regions
    };
    let alone = Barrier::new(1);
    let (gemm_alone, conv_alone) = (record(&gemm, &alone), record(&conv, &alone));
    assert!(conv_alone.iter().any(|(kernel, ..)| kernel.contains('/')));
    let overlap = Barrier::new(2);
    let (gemm_beside, conv_beside) = std::thread::scope(|s| {
        let gemm = s.spawn(|| record(&gemm, &overlap));
        let conv = s.spawn(|| record(&conv, &overlap));
        (gemm.join().unwrap(), conv.join().unwrap())
    });
    assert_eq!(gemm_beside, gemm_alone);
    assert_eq!(conv_beside, conv_alone);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn matmul_access_sets_are_disjoint_at_every_thread_count(
        m in 1usize..9, k in 1usize..9, n in 1usize..9, s in 0u64..100
    ) {
        let mut rng = Rng::seed_from(s);
        let a = Tensor::randn(&[m, k], &mut rng);
        let b = Tensor::randn(&[k, n], &mut rng);
        for threads in THREADS {
            assert_clean("matmul", threads, || {
                matmul(&a, &b);
            });
        }
    }

    #[test]
    fn conv2d_access_sets_are_disjoint_at_every_thread_count(
        n in 1usize..3, cin in 1usize..3, hw in 3usize..7, s in 0u64..100
    ) {
        let mut rng = Rng::seed_from(s ^ 0xc0);
        let input = Tensor::randn(&[n, cin, hw, hw], &mut rng);
        let weight = Tensor::randn(&[2, cin, 3, 3], &mut rng);
        for threads in THREADS {
            assert_clean("conv2d", threads, || {
                conv2d(&input, &weight, Conv2dArgs { stride: 1, pad: 1 });
            });
        }
    }

    #[test]
    fn reductions_stay_order_stable_at_every_thread_count(
        len in 1usize..4096, s in 0u64..100
    ) {
        let mut rng = Rng::seed_from(s ^ 0xdead);
        let data = Tensor::randn(&[len], &mut rng);
        let baseline = aibench_parallel::sum_f32(data.data());
        for threads in THREADS {
            assert_clean("sum_f32", threads, || {
                let total = aibench_parallel::sum_f32(data.data());
                assert_eq!(total.to_bits(), baseline.to_bits());
            });
        }
    }
}
