//! Ablation: the framework's kernel design choices — blocked vs naive
//! GEMM, and lowered vs direct convolution (DESIGN.md section 6).

use std::time::Instant;

use aibench_bench::banner;
use aibench_tensor::ops::{conv2d, matmul, matmul_naive, Conv2dArgs};
use aibench_tensor::{Rng, Tensor};

fn time(label: &str, mut f: impl FnMut()) -> f64 {
    // Warm up once, then take the best of 5.
    f();
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    println!("{label:<42} {:>10.3} ms", best * 1e3);
    best
}

/// Direct convolution reference (no lowering).
fn conv2d_direct(input: &Tensor, weight: &Tensor) -> Tensor {
    let (n, c, h, w) = (
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    );
    let (co, _, kh, kw) = (
        weight.shape()[0],
        weight.shape()[1],
        weight.shape()[2],
        weight.shape()[3],
    );
    let (ho, wo) = (h - kh + 1, w - kw + 1);
    let mut out = Tensor::zeros(&[n, co, ho, wo]);
    for s in 0..n {
        for o in 0..co {
            for oy in 0..ho {
                for ox in 0..wo {
                    let mut acc = 0.0;
                    for ci in 0..c {
                        for ky in 0..kh {
                            for kx in 0..kw {
                                acc += input.at(&[s, ci, oy + ky, ox + kx])
                                    * weight.at(&[o, ci, ky, kx]);
                            }
                        }
                    }
                    out.set(&[s, o, oy, ox], acc);
                }
            }
        }
    }
    out
}

fn main() {
    banner(
        "Ablation",
        "framework kernel choices (blocked GEMM, lowered conv)",
    );
    let mut rng = Rng::seed_from(1);
    let a = Tensor::randn(&[128, 128], &mut rng);
    let b = Tensor::randn(&[128, 128], &mut rng);
    let fast = time("matmul 128x128x128 (blocked, i-k-j)", || {
        let _ = matmul(&a, &b);
    });
    let slow = time("matmul 128x128x128 (naive, i-j-k)", || {
        let _ = matmul_naive(&a, &b);
    });
    println!("blocked GEMM speedup: {:.2}x", slow / fast);
    println!();

    let x = Tensor::randn(&[4, 8, 24, 24], &mut rng);
    let w = Tensor::randn(&[16, 8, 3, 3], &mut rng);
    let fast = time("conv2d 8->16 3x3 @24^2 (packed strips)", || {
        let _ = conv2d(&x, &w, Conv2dArgs::new(1, 0));
    });
    let slow = time("conv2d 8->16 3x3 @24^2 (direct loops)", || {
        let _ = conv2d_direct(&x, &w);
    });
    println!("lowered conv speedup: {:.2}x", slow / fast);
}
