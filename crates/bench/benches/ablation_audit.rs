//! Sanitizer-mode overhead: the same kernels timed with effect recording
//! compiled in but **off** (the steady state of any build that links
//! `aibench-audit`, e.g. `aibench-check`), and again with recording **on**
//! (the state inside an `--audit` session).
//!
//! Builds *without* the `sanitize` feature are not measurable from this
//! binary — depending on `aibench-audit` compiles the feature in — and do
//! not need to be: every recording hook is an empty `#[inline(always)]`
//! stub there, so the feature-off overhead is zero by construction.
//!
//! Recording-off overhead is one thread-local read per parallel region
//! (not per element), so the "off" column should match the plain
//! `ablation_parallel` numbers; the "on" column pays for access-set
//! bookkeeping behind a mutex and scales with regions recorded, not work
//! done — the per-call ratio shrinks as kernels grow.

use std::hint::black_box;
use std::time::Instant;

use aibench_parallel::{effects, Exec};
use aibench_tensor::ops::{conv2d, matmul, Conv2dArgs};
use aibench_tensor::{Rng, Tensor};

/// Median per-call latency of `f` in nanoseconds over `samples` batches.
fn median_ns<R>(samples: usize, iters: usize, mut f: impl FnMut() -> R) -> f64 {
    for _ in 0..iters.min(5) {
        black_box(f());
    }
    let mut per_call: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    per_call.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    per_call[per_call.len() / 2]
}

struct Case {
    name: &'static str,
    samples: usize,
    iters: usize,
    run: Box<dyn FnMut() -> f32>,
}

fn main() {
    assert!(
        effects::sanitize_compiled(),
        "this bench must be built with aibench-parallel/sanitize (the \
         aibench-audit dependency turns it on)"
    );
    let mut rng = Rng::seed_from(23);
    let a = Tensor::randn(&[192, 192], &mut rng);
    let b = Tensor::randn(&[192, 192], &mut rng);
    let x = Tensor::randn(&[4, 16, 28, 28], &mut rng);
    let w = Tensor::randn(&[32, 16, 3, 3], &mut rng);
    let args = Conv2dArgs::new(1, 1);
    let sum_buf = Tensor::randn(&[1, 200_000], &mut rng);
    let mut small = Tensor::randn(&[64], &mut rng);

    let mut cases = vec![
        Case {
            name: "matmul_192",
            samples: 15,
            iters: 10,
            run: Box::new(move || matmul(&a, &b).sum()),
        },
        Case {
            name: "conv2d_16to32_28px",
            samples: 15,
            iters: 5,
            run: Box::new(move || conv2d(&x, &w, args).sum()),
        },
        Case {
            name: "sum_f32_200k",
            samples: 15,
            iters: 20,
            run: Box::new(move || aibench_parallel::sum_f32(sum_buf.data())),
        },
        Case {
            // Worst case: a tiny kernel where per-region bookkeeping is
            // the largest share of the runtime.
            name: "map_tanh_64",
            samples: 15,
            iters: 200,
            run: Box::new(move || {
                small.map_inplace(|v| v.tanh());
                small.data()[0]
            }),
        },
    ];

    println!("# Sanitizer-mode overhead (sanitize compiled in)");
    println!(
        "# threads={}; recording-off is the steady state of audit-capable builds",
        aibench_parallel::threads()
    );
    println!(
        "{:<24} {:>14} {:>14} {:>9}",
        "kernel", "off ns/iter", "on ns/iter", "on/off"
    );
    for case in &mut cases {
        let off_ns = median_ns(case.samples, case.iters, &mut case.run);
        let (on_ns, report) =
            Exec::current().record(|| median_ns(case.samples, case.iters, &mut case.run));
        assert!(
            !report.regions.is_empty(),
            "{}: nothing recorded",
            case.name
        );
        println!(
            "{:<24} {:>14.0} {:>14.0} {:>8.2}x",
            case.name,
            off_ns,
            on_ns,
            on_ns / off_ns
        );
    }
}
