//! Determinism-by-construction guarantees of `aibench-parallel`.
//!
//! Every kernel wired through the threading runtime must produce *bitwise*
//! identical results for any `AIBENCH_THREADS` value — the property the
//! paper's run-to-run variation methodology (Section 5.4) depends on: a
//! coefficient of variation below 2% must measure the benchmark, never the
//! host scheduler.
//!
//! Every sweep point runs in an execution context of its own, so the tests
//! run side by side under the default parallel test runner.

use aibench::registry::Registry;
use aibench::runner::{run_to_quality, RunConfig};
use aibench_autograd::Param;
use aibench_nn::{Adam, Optimizer};
use aibench_parallel::{Exec, ParallelConfig, ThreadPool};
use aibench_tensor::{ops, Rng, Tensor};

/// The thread counts swept by every test: serial, even, odd (so chunk
/// boundaries never align with the worker count), and oversubscribed.
const SWEEP: [usize; 4] = [1, 2, 3, 8];

/// Runs `f` once per sweep entry and asserts all results are bitwise equal
/// to the single-threaded baseline.
fn bitwise_across_threads(what: &str, f: impl Fn() -> Vec<f32>) {
    sweep_threads(what, None, f)
}

/// [`bitwise_across_threads`] that also pins the engage/inline decision:
/// wherever a pool exists the call opens exactly `pool_regions`
/// pool-engaged regions — the same at 2, 3 and 8 threads, because the
/// decision reads the shape alone — and a one-thread pool none.
fn engagement_across_threads(what: &str, pool_regions: u64, f: impl Fn() -> Vec<f32>) {
    sweep_threads(what, Some(pool_regions), f)
}

/// Each sweep point runs on a pool of its own, so the count is `f`'s alone.
fn sweep_threads(what: &str, pool_regions: Option<u64>, f: impl Fn() -> Vec<f32>) {
    let mut baseline: Option<Vec<u32>> = None;
    for &t in &SWEEP {
        let (got, regions) = Exec::current().with_pool(ThreadPool::new(t)).run(|| {
            let before = aibench_parallel::stats();
            let got: Vec<u32> = f().iter().map(|v| v.to_bits()).collect();
            (got, aibench_parallel::stats().delta(&before).regions)
        });
        if let Some(pool_regions) = pool_regions {
            let expect = if t == 1 { 0 } else { pool_regions };
            assert_eq!(regions, expect, "{what}: pool regions at {t} thread(s)");
        }
        let expect = baseline.get_or_insert_with(|| got.clone());
        assert_eq!(
            expect, &got,
            "{what}: {t}-thread result differs bitwise from serial"
        );
    }
}

#[test]
fn matmul_bitwise_identical_across_threads() {
    let mut rng = Rng::seed_from(11);
    let a = Tensor::randn(&[37, 41], &mut rng);
    let b = Tensor::randn(&[41, 29], &mut rng);
    bitwise_across_threads("matmul", || ops::matmul(&a, &b).into_vec());
    bitwise_across_threads("matmul_naive", || ops::matmul_naive(&a, &b).into_vec());
    let ba = Tensor::randn(&[5, 13, 17], &mut rng);
    let bb = Tensor::randn(&[5, 17, 7], &mut rng);
    bitwise_across_threads("batch_matmul", || ops::batch_matmul(&ba, &bb).into_vec());
}

/// Transposed operands are packed straight from the transposed buffer, in
/// pool regions of their own: the product must still be the serial one, and
/// the one a materialised transpose gives, at every thread count. The
/// shapes take the packed path with two row blocks and ragged tails; the
/// batched one takes the in-place path per entry.
#[test]
fn transposed_operand_matmul_bitwise_identical_across_threads() {
    use ops::Layout::{RowMajor, Transposed};
    let mut rng = Rng::seed_from(17);
    let a = Tensor::randn(&[131, 270], &mut rng);
    let at = a.t();
    let b = Tensor::randn(&[270, 45], &mut rng);
    let bt = b.t();
    for (what, lhs, lhs_layout, rhs, rhs_layout) in [
        ("matmul a^T", &at, Transposed, &b, RowMajor),
        ("matmul b^T", &a, RowMajor, &bt, Transposed),
        ("matmul a^T b^T", &at, Transposed, &bt, Transposed),
    ] {
        bitwise_across_threads(what, || {
            let got = ops::matmul_layout(lhs, lhs_layout, rhs, rhs_layout).into_vec();
            let want = ops::matmul(&a, &b).into_vec();
            assert_eq!(got, want, "{what} vs the materialised transpose");
            got
        });
    }
    let ba = Tensor::randn(&[5, 13, 17], &mut rng);
    let bb = Tensor::randn(&[5, 17, 7], &mut rng);
    let (bat, bbt) = (ba.permute(&[0, 2, 1]), bb.permute(&[0, 2, 1]));
    bitwise_across_threads("batch_matmul a^T b^T", || {
        let got = ops::batch_matmul_layout(&bat, Transposed, &bbt, Transposed).into_vec();
        let want = ops::batch_matmul(&ba, &bb).into_vec();
        assert_eq!(got, want, "batched vs the materialised transposes");
        got
    });
}

#[test]
fn conv2d_forward_and_backward_bitwise_identical() {
    let mut rng = Rng::seed_from(12);
    let x = Tensor::randn(&[3, 4, 11, 11], &mut rng);
    let w = Tensor::randn(&[6, 4, 3, 3], &mut rng);
    let args = ops::Conv2dArgs::new(2, 1);
    let y = ops::conv2d(&x, &w, args);
    let gy = Tensor::randn(y.shape(), &mut rng);
    bitwise_across_threads("conv2d forward", || ops::conv2d(&x, &w, args).into_vec());
    bitwise_across_threads("conv2d backward input", || {
        ops::conv2d_backward_input(&gy, &w, (11, 11), args).into_vec()
    });
    bitwise_across_threads("conv2d backward weight", || {
        ops::conv2d_backward_weight(&x, &gy, (3, 3), args).into_vec()
    });
}

#[test]
fn pooling_bitwise_identical_across_threads() {
    let mut rng = Rng::seed_from(13);
    let x = Tensor::randn(&[4, 3, 10, 10], &mut rng);
    let (y, winners) = ops::max_pool2d(&x, 2, 2);
    let gy = Tensor::randn(y.shape(), &mut rng);
    bitwise_across_threads("max_pool2d", || ops::max_pool2d(&x, 2, 2).0.into_vec());
    bitwise_across_threads("max_pool2d_backward", || {
        ops::max_pool2d_backward(&gy, &winners, x.shape()).into_vec()
    });
    bitwise_across_threads("avg_pool2d", || ops::avg_pool2d(&x, 3, 1).into_vec());
    bitwise_across_threads("avg_pool2d_backward", || {
        ops::avg_pool2d_backward(&gy, x.shape(), 2, 2).into_vec()
    });
}

#[test]
fn elementwise_and_reductions_bitwise_identical() {
    let mut rng = Rng::seed_from(14);
    // Larger than one ELEMWISE_CHUNK so the pool actually engages.
    let x = Tensor::randn(&[3, 40_000], &mut rng);
    let y = Tensor::randn(&[3, 40_000], &mut rng);
    bitwise_across_threads("map", || x.map(|v| v.tanh()).into_vec());
    bitwise_across_threads("zip", || x.zip(&y, |a, b| a * b + a).into_vec());
    bitwise_across_threads("softmax_last", || ops::softmax_last(&x).into_vec());
    bitwise_across_threads("log_softmax_last", || ops::log_softmax_last(&x).into_vec());
    bitwise_across_threads("sum / sq_norm", || vec![x.sum(), x.sq_norm()]);
    bitwise_across_threads("add_scaled_inplace", || {
        let mut z = x.clone();
        z.add_scaled_inplace(&y, 0.37);
        z.into_vec()
    });
}

/// Shapes one step below and at (or just above) the pool-engagement
/// threshold of 256 Ki flops or values moved: the results are bitwise equal on
/// both sides of it, and which side a shape falls on never depends on the
/// thread count.
#[test]
fn engagement_threshold_is_shape_only_and_bitwise_neutral() {
    let mut rng = Rng::seed_from(16);

    // GEMM, two row blocks: 2*128*k*32 flops.
    let b31 = Tensor::randn(&[31, 32], &mut rng);
    let b32 = Tensor::randn(&[32, 32], &mut rng);
    let a31 = Tensor::randn(&[128, 31], &mut rng);
    let a32 = Tensor::randn(&[128, 32], &mut rng);
    engagement_across_threads("matmul 253952 flops", 0, || {
        ops::matmul(&a31, &b31).into_vec()
    });
    engagement_across_threads("matmul 262144 flops", 1, || {
        ops::matmul(&a32, &b32).into_vec()
    });

    // Conv, one sample per chunk: 2 * 2*8*36*(h*w) flops, nested GEMM
    // included (it has one row block, so it never engages on its own).
    let args = ops::Conv2dArgs::new(1, 1);
    let w = Tensor::randn(&[8, 4, 3, 3], &mut rng);
    for (side, pool_regions) in [(15, 0), (16, 1)] {
        let x = Tensor::randn(&[2, 4, side, side], &mut rng);
        let gy = Tensor::randn(&[2, 8, side, side], &mut rng);
        engagement_across_threads(&format!("conv2d {side}x{side}"), pool_regions, || {
            ops::conv2d(&x, &w, args).into_vec()
        });
        engagement_across_threads(
            &format!("conv2d_backward_weight {side}x{side}"),
            pool_regions,
            || ops::conv2d_backward_weight(&x, &gy, (3, 3), args).into_vec(),
        );
    }

    // Reduction: one value read per element.
    for (len, pool_regions) in [(262_143, 0), (262_144, 1)] {
        let x = Tensor::randn(&[len], &mut rng);
        engagement_across_threads(&format!("sum of {len}"), pool_regions, || vec![x.sum()]);
    }

    // Adam: two sweeps over three arrays and one over four, so the value
    // sweep engages first (4 * 65536) and the moment sweeps later
    // (3 * 87382).
    for (len, pool_regions) in [(65_535, 0), (65_536, 1), (87_381, 1), (87_382, 3)] {
        let init = Tensor::randn(&[len], &mut rng);
        let grad = Tensor::randn(&[len], &mut rng);
        engagement_across_threads(&format!("adam over {len}"), pool_regions, || {
            let p = Param::new("p", init.clone());
            *p.grad_mut() = grad.clone();
            Adam::new(vec![p.clone()], 1e-2).step();
            let stepped = p.value().clone();
            stepped.into_vec()
        });
    }
}

#[test]
fn training_session_bitwise_identical_across_threads() {
    let registry = Registry::aibench();
    let bench = registry.get("DC-AI-C15").expect("spatial transformer");
    let cfg = |threads| RunConfig {
        max_epochs: 2,
        eval_every: 1,
        parallel: Some(ParallelConfig::with_threads(threads)),
        ..RunConfig::default()
    };
    let serial = &run_to_quality(bench, 3, &cfg(1));
    for &t in &SWEEP[1..] {
        let got = run_to_quality(bench, 3, &cfg(t));
        assert!(serial.deterministic_eq(&got), "{t} threads diverged");
    }
    // A session's thread count is its own: it does not leak into its caller.
    Exec::current().with_threads(1).run(|| {
        assert_eq!(aibench_parallel::threads(), 1);
        assert!(serial.deterministic_eq(&run_to_quality(bench, 3, &cfg(4))));
        assert_eq!(aibench_parallel::threads(), 1, "the session leaked");
    });
    // Sessions at 1 and 4 threads at once, each in its own context.
    std::thread::scope(|s| {
        for t in [1, 4] {
            s.spawn(move || {
                let mut session = aibench::session::TrainingSession::fresh(bench, 3, &cfg(t));
                assert_eq!(session.exec().threads(), t);
                while !session.finished() {
                    session.step();
                }
                assert!(
                    serial.deterministic_eq(&session.result()),
                    "{t} beside 1 or 4"
                );
            });
        }
    });
}

#[test]
fn gradcheck_passes_under_four_threads() {
    let mut rng = Rng::seed_from(15);
    let x = Tensor::randn(&[2, 2, 5, 5], &mut rng);
    let w = Tensor::randn(&[3, 2, 3, 3], &mut rng);
    Exec::current().with_threads(4).run(|| {
        aibench_autograd::check_gradients(&[x, w], 1e-2, 1e-2, |g, vars| {
            let y = g.conv2d(vars[0], vars[1], ops::Conv2dArgs::new(1, 1));
            let p = g.max_pool2d(y, 2, 2);
            g.sum(p)
        })
    });
}
