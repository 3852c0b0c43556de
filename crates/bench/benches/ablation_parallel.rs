//! Serial-vs-parallel ablation: the same kernels timed across a thread
//! sweep (1/2/4/8 by default, or the counts in `AIBENCH_SWEEP`).
//!
//! Because every kernel built on `aibench-parallel` is deterministic by
//! construction, the sweep also *verifies* bitwise identity against the
//! single-threaded baseline while it measures speedup — a corrupted
//! parallel result fails loudly rather than skewing a table.
//!
//! The `dispatch_empty_region` rows time the pool's hand-off alone — an
//! empty two-chunk region — back to back (the workers are still polling
//! for the next job) and after a 1 ms idle gap (they have parked).
//! `suite_small_gemm` is the 18 Ki-flop weight-gradient product C2 runs
//! thousands of times per epoch: too little work to amortise a hand-off,
//! so it should cost the same at every thread count.

use std::hint::black_box;
use std::time::{Duration, Instant};

use aibench_parallel::Exec;
use aibench_tensor::ops::{conv2d, conv2d_backward_weight, matmul, max_pool2d, Conv2dArgs};
use aibench_tensor::{Rng, Tensor};

/// Median per-call latency of `f` in nanoseconds over `samples` batches.
fn median_ns<R>(samples: usize, iters: usize, mut f: impl FnMut() -> R) -> f64 {
    for _ in 0..iters.min(5) {
        black_box(f());
    }
    let per_call: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(per_call)
}

fn median(mut timings: Vec<f64>) -> f64 {
    timings.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    timings[timings.len() / 2]
}

/// Median latency in nanoseconds of one call of `f` made after `gap` of
/// idleness — long enough that the pool's workers have stopped polling.
fn median_ns_after_idle(samples: usize, gap: Duration, f: impl Fn()) -> f64 {
    median(
        (0..samples)
            .map(|_| {
                std::thread::sleep(gap);
                let start = Instant::now();
                f();
                start.elapsed().as_nanos() as f64
            })
            .collect(),
    )
}

/// The thread counts to sweep: `AIBENCH_SWEEP` (comma-separated) or 1,2,4,8.
fn sweep() -> Vec<usize> {
    std::env::var("AIBENCH_SWEEP")
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|t| t.trim().parse().ok())
                .filter(|&n| n >= 1)
                .collect()
        })
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| vec![1, 2, 4, 8])
}

struct Case {
    name: &'static str,
    samples: usize,
    iters: usize,
    run: Box<dyn FnMut() -> Vec<f32>>,
}

fn main() {
    let mut rng = Rng::seed_from(17);

    let a = Tensor::randn(&[192, 192], &mut rng);
    let b = Tensor::randn(&[192, 192], &mut rng);
    let x = Tensor::randn(&[4, 16, 28, 28], &mut rng);
    let w = Tensor::randn(&[32, 16, 3, 3], &mut rng);
    let args = Conv2dArgs::new(1, 1);
    let y = conv2d(&x, &w, args);
    let gy = Tensor::randn(y.shape(), &mut rng);
    let px = Tensor::randn(&[8, 16, 28, 28], &mut rng);
    let ex = Tensor::randn(&[1, 200_000], &mut rng);
    let small_a = Tensor::randn(&[192, 4], &mut rng);
    let small_b = Tensor::randn(&[4, 12], &mut rng);

    let mut cases = vec![
        Case {
            name: "matmul_192",
            samples: 15,
            iters: 10,
            run: Box::new(move || matmul(&a, &b).into_vec()),
        },
        Case {
            name: "conv2d_16to32_28px",
            samples: 15,
            iters: 5,
            run: Box::new(move || conv2d(&x, &w, args).into_vec()),
        },
        Case {
            name: "conv2d_bwd_weight",
            samples: 15,
            iters: 5,
            run: {
                let x = Tensor::randn(&[4, 16, 28, 28], &mut rng);
                Box::new(move || conv2d_backward_weight(&x, &gy, (3, 3), args).into_vec())
            },
        },
        Case {
            name: "max_pool2d_8x16_28px",
            samples: 15,
            iters: 20,
            run: Box::new(move || max_pool2d(&px, 2, 2).0.into_vec()),
        },
        Case {
            name: "elementwise_tanh_200k",
            samples: 15,
            iters: 20,
            run: Box::new(move || ex.map(|v| v.tanh()).into_vec()),
        },
        Case {
            name: "suite_small_gemm",
            samples: 15,
            iters: 2000,
            run: Box::new(move || matmul(&small_a, &small_b).into_vec()),
        },
    ];

    let threads = sweep();
    println!("# Serial-vs-parallel ablation (AIBENCH_THREADS sweep)");
    println!(
        "# host: {} available core(s); speedup is vs the 1-thread run",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    println!(
        "{:<24} {:>7} {:>14} {:>9}  bitwise",
        "kernel", "threads", "ns/iter", "speedup"
    );
    for case in &mut cases {
        let mut serial_ns = 0.0;
        let mut serial_bits: Vec<u32> = Vec::new();
        for &t in &threads {
            let (bits, ns) = Exec::current().with_threads(t).run(|| {
                let bits: Vec<u32> = (case.run)().iter().map(|v| v.to_bits()).collect();
                (bits, median_ns(case.samples, case.iters, &mut case.run))
            });
            let identical = if t == threads[0] {
                serial_ns = ns;
                serial_bits = bits;
                true
            } else {
                bits == serial_bits
            };
            assert!(identical, "{}: {t}-thread result diverged", case.name);
            println!(
                "{:<24} {:>7} {:>14.0} {:>8.2}x  {}",
                case.name,
                t,
                ns,
                serial_ns / ns,
                if identical { "ok" } else { "DIVERGED" }
            );
        }
    }
    let empty_region = || {
        aibench_parallel::parallel_for(2, 1, |range| {
            black_box(range);
        })
    };
    for &t in &threads {
        let timings = Exec::current().with_threads(t).run(|| {
            [
                ("back to back", median_ns(15, 1000, empty_region)),
                (
                    "after 1 ms idle",
                    median_ns_after_idle(31, Duration::from_millis(1), empty_region),
                ),
            ]
        });
        for (gap, ns) in timings {
            println!(
                "{:<24} {:>7} {:>14.0}  {gap}",
                "dispatch_empty_region", t, ns
            );
        }
    }
}
