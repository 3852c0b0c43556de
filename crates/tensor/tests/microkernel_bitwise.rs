//! Bitwise-identity regression tests for the microkernel rewrite.
//!
//! The determinism contract (see `ops::microkernel`): every GEMM path —
//! packed, in-place register-tiled, scalar tiled — plus the conv2d
//! lowerings and the lane-blocked reductions produce **bitwise
//! identical** results to their naive references, at every thread count.
//! Each sweep point runs in an execution context of its own, so the tests
//! run side by side under the default parallel test runner.

mod conv_oracle;

use aibench_parallel::Exec;
use aibench_tensor::ops::{self, Conv2dArgs, GemmPath, Layout};
use aibench_tensor::{Rng, Tensor};

const THREADS: &[usize] = &[1, 2, 3, 8];

fn fill(seed: u64, len: usize) -> Vec<f32> {
    let mut rng = Rng::seed_from(seed);
    (0..len).map(|_| rng.normal()).collect()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Runs `f` at every thread count and on both GEMM paths, asserting all
/// results are bitwise identical to the first; returns that result.
fn sweep(label: &str, f: impl Fn() -> Tensor) -> Tensor {
    let mut reference: Option<(Vec<u32>, Tensor)> = None;
    for &t in THREADS {
        for path in [GemmPath::Blocked, GemmPath::Scalar] {
            let got = Exec::current().with_threads(t).with_gemm_path(path).run(&f);
            match &reference {
                None => reference = Some((bits(&got), got)),
                Some((want, _)) => assert_eq!(
                    &bits(&got),
                    want,
                    "{label}: result differs at {t} thread(s) on {path:?}"
                ),
            }
        }
    }
    reference.expect("sweep ran").1
}

/// Odd GEMM shapes: zero-size, 1xN, Nx1, sub-microtile, non-multiples of
/// every blocking parameter (MR=4, NR=8, TILE=32, MC=64, KC=256), shapes
/// straddling the packing threshold in flops and in rows (`m < MR` stays in
/// place however large), and two-row-block shapes one `k` step below and
/// exactly at the pool-engagement threshold (256 Ki flops).
#[test]
fn gemm_all_paths_match_naive_across_threads() {
    let shapes: &[(usize, usize, usize)] = &[
        (0, 0, 0),
        (0, 5, 3),
        (3, 0, 5),
        (3, 5, 0),
        (1, 1, 1),
        (1, 300, 1),
        (1, 7, 64),
        (64, 7, 1),
        (2, 20, 20),
        (5, 7, 9),
        (16, 20, 20),
        (33, 257, 65),
        (63, 64, 65),
        (130, 70, 130),
        (128, 31, 32), // 253 952 flops: runs inline
        (128, 32, 32), // 262 144 flops: engages the pool
        // Fewer than MR rows above the packing threshold: in place, not packed.
        (1, 108, 256),
        (2, 300, 50),  // ragged NR
        (3, 257, 64),  // one k step past KC
        (3, 300, 160), // engages the pool
        (4, 108, 64),  // MR rows: the first shape that packs
    ];
    for &(m, k, n) in shapes {
        let a = Tensor::from_vec(fill(m as u64 * 131 + n as u64, m * k), &[m, k]);
        let b = Tensor::from_vec(fill(k as u64 * 37 + 5, k * n), &[k, n]);
        let got = sweep(&format!("gemm({m},{k},{n})"), || a.matmul(&b));
        let want = ops::matmul_naive(&a, &b);
        assert_eq!(
            bits(&got),
            bits(&want),
            "gemm({m},{k},{n}): blocked != naive"
        );
    }
}

/// Transposed operands: `A`, `B` and both held as their transposes, on
/// shapes that take the packed path and the in-place path, with ragged
/// `MR` (4), `NR` (8) and `KC` (256) tails, and degenerate one-row,
/// one-column and empty operands. Every layout on every path must equal the
/// naive product of the materialised matrices, bit for bit.
#[test]
fn gemm_transposed_operands_match_naive_across_threads() {
    let shapes: &[(usize, usize, usize)] = &[
        (0, 4, 3),
        (3, 0, 5),
        (1, 1, 1),
        (1, 300, 1),
        (1, 9, 17),
        (17, 9, 1),
        (5, 7, 9),     // in place: row, column and k remainders
        (8, 16, 16),   // in place: no remainders
        (13, 21, 30),  // in place, just under the packing threshold
        (33, 257, 65), // packed: one k step past KC, ragged MR and NR
        (66, 300, 19), // packed: two row blocks, ragged everything
        (64, 512, 40), // packed: whole tiles and panels
        (6, 700, 8),   // packed: three k panels, one strip
        (1, 108, 256), // above the threshold with < MR rows: in place
        (2, 300, 50),
        (3, 257, 64),
    ];
    for &(m, k, n) in shapes {
        let a = Tensor::from_vec(fill(m as u64 * 97 + k as u64, m * k), &[m, k]);
        let b = Tensor::from_vec(fill(n as u64 * 41 + 3, k * n), &[k, n]);
        let (at, bt) = (a.t(), b.t());
        let want = bits(&ops::matmul_naive(&a, &b));
        for (what, lhs, lhs_layout, rhs, rhs_layout) in [
            ("a^T b", &at, Layout::Transposed, &b, Layout::RowMajor),
            ("a b^T", &a, Layout::RowMajor, &bt, Layout::Transposed),
            ("a^T b^T", &at, Layout::Transposed, &bt, Layout::Transposed),
        ] {
            let label = format!("gemm({m},{k},{n}) {what}");
            let got = sweep(&label, || {
                ops::matmul_layout(lhs, lhs_layout, rhs, rhs_layout)
            });
            assert_eq!(got.shape(), &[m, n], "{label}");
            assert_eq!(bits(&got), want, "{label}: != naive");
        }
    }
}

/// Naive direct convolution with the same per-element accumulation order
/// as the lowered GEMM: `(ci, ki, kj)` ascending, one mul + one add each.
fn conv_naive(x: &Tensor, w: &Tensor, args: Conv2dArgs) -> Tensor {
    let (n, ci, h, wd) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let (co, kh, kw) = (w.shape()[0], w.shape()[2], w.shape()[3]);
    let ho = args.out_extent(h, kh);
    let wo = args.out_extent(wd, kw);
    let mut out = vec![0.0f32; n * co * ho * wo];
    for s in 0..n {
        for o in 0..co {
            for oy in 0..ho {
                for ox in 0..wo {
                    let mut acc = 0.0f32;
                    for c in 0..ci {
                        for ky in 0..kh {
                            for kx in 0..kw {
                                let iy = (oy * args.stride + ky) as isize - args.pad as isize;
                                let ix = (ox * args.stride + kx) as isize - args.pad as isize;
                                if iy < 0 || ix < 0 || iy >= h as isize || ix >= wd as isize {
                                    continue;
                                }
                                let xv =
                                    x.data()[((s * ci + c) * h + iy as usize) * wd + ix as usize];
                                let wv = w.data()[((o * ci + c) * kh + ky) * kw + kx];
                                acc += wv * xv;
                            }
                        }
                    }
                    out[((s * co + o) * ho + oy) * wo + ox] = acc;
                }
            }
        }
    }
    Tensor::from_vec(out, &[n, co, ho, wo])
}

/// `(n, ci, h, w, co, kh, kw, stride, pad)` of one conv test case.
type ConvCase = (
    usize,
    usize,
    usize,
    usize,
    usize,
    usize,
    usize,
    usize,
    usize,
);

/// Conv geometries for all three kernels: both `ConvAlgo` variants, every
/// shape of the suite that the deleted direct-loop lowering used to take,
/// ragged strips (`wo < 8`, `wo % 8 != 0`, `ho * wo % 8 != 0`), unfolded
/// depths that are no multiple of 8, strides 1/2/4, paddings 0/1/2, fewer
/// out-channels than one row tile, and one-sample batches — one of them
/// wide enough to split over out-channel row blocks.
const CONV_CASES: &[ConvCase] = &[
    // (n, ci, h, w, co, kh, kw, stride, pad)
    (1, 1, 3, 3, 1, 3, 3, 1, 0),    // one output position
    (2, 2, 5, 4, 3, 3, 3, 1, 1),    // odd extents, padded, wo < 8, co < MR
    (2, 3, 8, 8, 4, 1, 1, 1, 0),    // 1x1: DirectGemm
    (2, 32, 4, 4, 8, 1, 1, 1, 0),   // 1x1 over a deep channel stack
    (3, 4, 9, 9, 8, 3, 3, 2, 1),    // strided, 25 columns
    (2, 8, 12, 12, 16, 3, 3, 1, 1), // CNN-trainer-like, wo = 12
    (1, 2, 1, 7, 2, 1, 3, 1, 1),    // 1-row input
    (2, 4, 15, 15, 8, 3, 3, 1, 1),  // 259 200 flops: per-sample region inline
    (2, 4, 16, 16, 8, 3, 3, 1, 1),  // 294 912 flops: engages the pool
    (2, 3, 6, 5, 5, 3, 3, 1, 2),    // pad 2 at stride 1: border wider than a tap
    (2, 1, 16, 16, 12, 5, 5, 2, 2), // 5x5, stride 2, pad 2, kdim = 25
    // Formerly ConvAlgo::DirectLoops (under 8 Ki multiply-adds a sample).
    (3, 1, 10, 10, 6, 3, 3, 1, 1),
    (3, 1, 15, 15, 8, 3, 3, 2, 1),
    (3, 2, 16, 16, 1, 4, 4, 4, 0), // one out-channel, stride 4
    (3, 12, 8, 8, 6, 2, 2, 2, 0),
    (3, 1, 16, 16, 12, 3, 3, 2, 1),
    (3, 1, 16, 16, 12, 2, 2, 2, 0),
    (3, 8, 4, 4, 16, 3, 3, 2, 1), // four columns: half a strip
    (3, 1, 8, 8, 8, 3, 3, 2, 1),
    (2, 12, 16, 16, 1, 3, 3, 1, 1), // one out-channel over a real product
    // One-sample batches: the product itself is the parallel region.
    (1, 8, 12, 12, 16, 3, 3, 1, 1),
    (1, 4, 16, 16, 130, 3, 3, 1, 1), // three out-channel row blocks
    (1, 130, 6, 6, 4, 3, 3, 1, 1),   // backward-input splits over kdim rows
];

fn conv_operands(case: ConvCase) -> (Tensor, Tensor, Tensor, Conv2dArgs, String) {
    let (n, ci, h, w, co, kh, kw, stride, pad) = case;
    let args = Conv2dArgs::new(stride, pad);
    let (ho, wo) = (args.out_extent(h, kh), args.out_extent(w, kw));
    let x = Tensor::from_vec(
        fill(7 + (n * ci * h) as u64, n * ci * h * w),
        &[n, ci, h, w],
    );
    let wt = Tensor::from_vec(
        fill(13 + (co * kh) as u64, co * ci * kh * kw),
        &[co, ci, kh, kw],
    );
    let g = Tensor::from_vec(
        fill(31 + (co * ho) as u64, n * co * ho * wo),
        &[n, co, ho, wo],
    );
    let label = format!("conv(n{n},ci{ci},{h}x{w},co{co},k{kh}x{kw},s{stride},p{pad})");
    (x, wt, g, args, label)
}

/// Forward: the per-call lowering (filters packed once, samples unfolded
/// into strips) and the materialised-im2col scalar baseline agree with the
/// naive loop nest at every thread count.
#[test]
fn conv2d_matches_naive_across_threads_and_algos() {
    for &case in CONV_CASES {
        let (x, wt, _, args, label) = conv_operands(case);
        let got = sweep(&label, || ops::conv2d(&x, &wt, args));
        let want = conv_naive(&x, &wt, args);
        assert_eq!(bits(&got), bits(&want), "{label}: conv2d != naive");
    }
}

/// Backward kernels: both lowerings agree at every thread count — two
/// independent implementations — and with the per-element im2col +
/// naive-GEMM oracle, including the dedicated 1x1 path of
/// `conv2d_backward_input` that skips `col2im`.
#[test]
fn conv2d_backward_kernels_are_path_and_thread_invariant() {
    for &case in CONV_CASES {
        let (x, wt, g, args, label) = conv_operands(case);
        let (h, w, kh, kw) = (case.2, case.3, case.5, case.6);
        let (_, want_gx, want_gw) = conv_oracle::conv_oracle(&x, &wt, &g, args);
        let gx = sweep(&format!("backward_input {label}"), || {
            ops::conv2d_backward_input(&g, &wt, (h, w), args)
        });
        assert_eq!(bits(&gx), bits(&want_gx), "{label}: backward_input");
        let gw = sweep(&format!("backward_weight {label}"), || {
            ops::conv2d_backward_weight(&x, &g, (kh, kw), args)
        });
        assert_eq!(bits(&gw), bits(&want_gw), "{label}: backward_weight");
    }
}

/// Lane-blocked reductions: bitwise thread-invariance over lengths around
/// every boundary (empty, single lane, lane remainder, chunk remainder,
/// and the last inline / first pool-engaged length, 262 143 / 262 144).
#[test]
fn reductions_are_bitwise_thread_invariant() {
    for &len in &[
        0usize, 1, 7, 8, 9, 4095, 4096, 4097, 100_000, 262_143, 262_144,
    ] {
        let data = fill(len as u64 + 3, len);
        let t = Tensor::from_vec(data.clone(), &[len]);
        let mut sums = Vec::new();
        let mut lane_sums = Vec::new();
        for &threads in THREADS {
            Exec::current().with_threads(threads).run(|| {
                sums.push(t.sum().to_bits());
                lane_sums.push(aibench_parallel::sum_f32(&data).to_bits());
            });
        }
        assert!(
            sums.windows(2).all(|w| w[0] == w[1]),
            "Tensor::sum(len={len}) varies with thread count: {sums:?}"
        );
        assert!(
            lane_sums.windows(2).all(|w| w[0] == w[1]),
            "sum_f32(len={len}) varies with thread count: {lane_sums:?}"
        );
    }
}
