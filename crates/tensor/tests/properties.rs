//! Property-based tests of the tensor algebra's invariants.

mod conv_oracle;

use aibench_tensor::ops::{
    conv2d, conv2d_backward_input, conv2d_backward_weight, matmul, matmul_naive, slice_axis,
    Conv2dArgs, ConvAlgo,
};
use aibench_tensor::{broadcast_shapes, ops::concat, Rng, Tensor};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Oracles for the row walker: the flat-index decode loops that `zip`,
// `sum_to` and `permute` ran before they shared one strided traversal.
// Slow (a division and a remainder per element per dimension) but obviously
// right, and the walker must reproduce them bit for bit.
// ---------------------------------------------------------------------

fn row_major_strides(dims: &[usize]) -> Vec<usize> {
    let mut strides = vec![1; dims.len()];
    for i in (0..dims.len().saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * dims[i + 1];
    }
    strides
}

/// Strides of `dims` read as if broadcast to `target` (0 where it repeats).
fn broadcast_strides(dims: &[usize], target: &[usize]) -> Vec<usize> {
    let strides = row_major_strides(dims);
    let offset = target.len() - dims.len();
    let mut out = vec![0; target.len()];
    for i in 0..dims.len() {
        if !(dims[i] == 1 && target[offset + i] != 1) {
            out[offset + i] = strides[i];
        }
    }
    out
}

/// Decodes `flat` over `strides` and re-encodes it over each of `operands`.
fn decode<const N: usize>(flat: usize, strides: &[usize], operands: [&[usize]; N]) -> [usize; N] {
    let mut rem = flat;
    let mut at = [0; N];
    for (d, &stride) in strides.iter().enumerate() {
        let coord = rem / stride;
        rem %= stride;
        for (a, operand) in at.iter_mut().zip(operands) {
            *a += coord * operand[d];
        }
    }
    at
}

fn zip_ref(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
    let out_shape = broadcast_shapes(a.shape(), b.shape()).expect("shapes broadcast");
    let sa = broadcast_strides(a.shape(), &out_shape);
    let sb = broadcast_strides(b.shape(), &out_shape);
    let out_strides = row_major_strides(&out_shape);
    let n: usize = out_shape.iter().product();
    let data = (0..n)
        .map(|flat| {
            let [ia, ib] = decode(flat, &out_strides, [&sa, &sb]);
            f(a.data()[ia], b.data()[ib])
        })
        .collect();
    Tensor::from_vec(data, &out_shape)
}

fn sum_to_ref(a: &Tensor, target: &[usize]) -> Tensor {
    let st = broadcast_strides(target, a.shape());
    let strides = row_major_strides(a.shape());
    let mut out = Tensor::zeros(target);
    for (flat, &v) in a.data().iter().enumerate() {
        let [it] = decode(flat, &strides, [&st]);
        out.data_mut()[it] += v;
    }
    out
}

fn permute_ref(a: &Tensor, perm: &[usize]) -> Tensor {
    let out_shape: Vec<usize> = perm.iter().map(|&p| a.shape()[p]).collect();
    let in_strides = row_major_strides(a.shape());
    let src_strides: Vec<usize> = perm.iter().map(|&p| in_strides[p]).collect();
    let out_strides = row_major_strides(&out_shape);
    let data = (0..a.len())
        .map(|flat| a.data()[decode(flat, &out_strides, [&src_strides])[0]])
        .collect();
    Tensor::from_vec(data, &out_shape)
}

/// The loop `Tensor::sum_axis` ran before it became a `sum_to` fold: each
/// output cell starts at `+0.0` and adds its addends in ascending order
/// along `axis`, loaded and stored once per addend.
fn sum_axis_ref(a: &Tensor, axis: usize) -> Tensor {
    let shape = a.shape();
    let mut out_shape = shape.to_vec();
    out_shape.remove(axis);
    let outer: usize = shape[..axis].iter().product();
    let mid = shape[axis];
    let inner: usize = shape[axis + 1..].iter().product();
    let mut out = Tensor::zeros(&out_shape);
    for o in 0..outer {
        for m in 0..mid {
            for i in 0..inner {
                out.data_mut()[o * inner + i] += a.data()[(o * mid + m) * inner + i];
            }
        }
    }
    out
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// [`bits`], with every NaN read as the one canonical NaN. Rust leaves the
/// sign and payload of a NaN that arithmetic produces unspecified: when both
/// addends are NaN, x86 passes on the first operand's, and which operand of
/// a commutative add comes first is the compiler's choice.
fn bits_any_nan(t: &Tensor) -> Vec<u32> {
    let canonical = |v: &f32| if v.is_nan() { f32::NAN } else { *v };
    t.data().iter().map(|v| canonical(v).to_bits()).collect()
}

fn randn(shape: &[usize], seed: u64) -> Tensor {
    Tensor::randn(shape, &mut Rng::seed_from(seed))
}

/// Normal samples with about one in eight replaced by a value IEEE addition
/// treats specially: signed zeros, NaN and the infinities.
fn randn_with_specials(shape: &[usize], seed: u64) -> Tensor {
    const SPECIAL: [f32; 5] = [-0.0, 0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
    let mut rng = Rng::seed_from(seed);
    Tensor::from_fn(shape, |_| {
        let v = rng.normal();
        let pick = (rng.uniform() * (8 * SPECIAL.len()) as f32) as usize;
        SPECIAL.get(pick).copied().unwrap_or(v)
    })
}

/// `sum_axis` and `mean_axis` over every axis of `a` against the loop.
fn assert_axis_sums_match_oracle(a: &Tensor) {
    for axis in 0..a.ndim() {
        let (got, want) = (a.sum_axis(axis), sum_axis_ref(a, axis));
        let label = format!("sum_axis {:?} axis {axis}", a.shape());
        assert_eq!(got.shape(), want.shape(), "{label}");
        assert_eq!(bits_any_nan(&got), bits_any_nan(&want), "{label}");
        let n = a.shape()[axis];
        if n > 0 {
            let (mean, want_mean) = (a.mean_axis(axis), want.scale(1.0 / n as f32));
            assert_eq!(
                bits_any_nan(&mean),
                bits_any_nan(&want_mean),
                "mean_{label}"
            );
        }
    }
}

/// `dims` with every dimension whose `mask` bit is set collapsed to 1, then
/// up to `strip` leading 1s removed: one operand of a broadcast whose
/// result has (at most) `dims`' extents, possibly of lower rank.
fn broadcast_source(dims: &[usize], mask: usize, strip: usize) -> Vec<usize> {
    let full: Vec<usize> = dims
        .iter()
        .enumerate()
        .map(|(d, &extent)| if mask >> d & 1 == 1 { 1 } else { extent })
        .collect();
    let leading_ones = full.iter().take_while(|&&e| e == 1).count();
    full[strip.min(leading_ones)..].to_vec()
}

fn assert_zip_matches_oracle(a_shape: &[usize], b_shape: &[usize], seed: u64) {
    let (a, b) = (randn(a_shape, seed), randn(b_shape, seed ^ 0x5a));
    // Not commutative, so swapped operands or offsets show.
    let f = |x: f32, y: f32| x * 0.5 - y;
    let (got, want) = (a.zip(&b, f), zip_ref(&a, &b, f));
    assert_eq!(got.shape(), want.shape(), "zip {a_shape:?} x {b_shape:?}");
    assert_eq!(bits(&got), bits(&want), "zip {a_shape:?} x {b_shape:?}");
}

fn assert_sum_to_matches_oracle(shape: &[usize], target: &[usize], seed: u64) {
    let a = randn(shape, seed);
    let (got, want) = (a.sum_to(target), sum_to_ref(&a, target));
    assert_eq!(got.shape(), target, "sum_to {shape:?} -> {target:?}");
    assert_eq!(bits(&got), bits(&want), "sum_to {shape:?} -> {target:?}");
}

/// The shapes the walker's merge rule has to get right, spelled out:
/// rank 0, a per-channel `[1,c,1,1]` against NCHW, operands of different
/// rank, size-1 dimensions at the front, middle and back, zero-extent
/// dimensions, and broadcast patterns that alternate so that no two
/// dimensions merge.
#[test]
fn walker_matches_the_decode_loops_on_named_shapes() {
    let pairs: &[(&[usize], &[usize])] = &[
        (&[], &[3]),
        (&[2, 3], &[]),
        (&[1], &[1, 1]),
        (&[2, 3, 4, 5], &[1, 3, 1, 1]),
        (&[1, 3, 1, 1], &[2, 3, 4, 5]),
        (&[4, 6], &[6]),
        (&[4, 6], &[4, 1]),
        (&[4, 1], &[1, 6]),
        (&[2, 1, 3, 1, 2], &[1, 4, 1, 5, 1]),
        (&[2, 3, 4], &[3, 1]),
        (&[1, 2, 1, 3, 1], &[2, 1, 3]),
        (&[5, 1, 1], &[1, 1, 7]),
        (&[2, 0, 3], &[1, 1, 3]),
        (&[0], &[1]),
        (&[3, 0], &[3, 1]),
    ];
    for (i, &(a, b)) in pairs.iter().enumerate() {
        assert_zip_matches_oracle(a, b, i as u64);
        let out = broadcast_shapes(a, b).expect("pair broadcasts");
        assert_sum_to_matches_oracle(&out, a, 100 + i as u64);
        assert_sum_to_matches_oracle(&out, b, 200 + i as u64);
    }
    let perms: &[(&[usize], &[usize])] = &[
        (&[], &[]),
        (&[5], &[0]),
        (&[3, 4], &[1, 0]),
        (&[2, 3, 4], &[0, 2, 1]),
        (&[2, 3, 4], &[2, 0, 1]),
        (&[2, 1, 4, 1], &[3, 2, 1, 0]),
        (&[2, 3, 4, 5], &[0, 2, 3, 1]),
        (&[2, 3, 4, 5], &[1, 0, 2, 3]),
        (&[2, 0, 4], &[2, 1, 0]),
    ];
    for (i, &(shape, perm)) in perms.iter().enumerate() {
        let a = randn(shape, 300 + i as u64);
        let (got, want) = (a.permute(perm), permute_ref(&a, perm));
        assert_eq!(got.shape(), want.shape(), "permute {shape:?} by {perm:?}");
        assert_eq!(bits(&got), bits(&want), "permute {shape:?} by {perm:?}");
    }
    for &(r, c) in &[(1, 1), (1, 7), (7, 1), (31, 33), (32, 64), (65, 40), (0, 3)] {
        let a = randn(&[r, c], 400 + (r * c) as u64);
        assert_eq!(a.t(), permute_ref(&a, &[1, 0]), "t() of [{r},{c}]");
    }
}

/// A row of `-0.0` sums to `+0.0`, along an extent-1 axis too (an
/// equal-shape `sum_to` would have handed the `-0.0` back), and the axis
/// sums of the serving and pooling shapes match the loop.
#[test]
fn axis_sums_match_the_loop_on_named_shapes() {
    let shapes: &[&[usize]] = &[
        &[1],
        &[0],
        &[3, 1],
        &[1, 3],
        &[2, 0, 3],
        &[5, 1, 7],
        &[2, 3, 1, 1],
    ];
    for shape in shapes {
        let zeros = Tensor::full(shape, -0.0);
        assert_axis_sums_match_oracle(&zeros);
        for axis in 0..shape.len() {
            assert!(
                bits(&zeros.sum_axis(axis)).iter().all(|&b| b == 0),
                "-0.0 rows of {shape:?} along axis {axis}"
            );
        }
    }
    for (i, shape) in [&[144, 16][..], &[32, 64, 16], &[3, 9, 17, 2]]
        .iter()
        .enumerate()
    {
        assert_axis_sums_match_oracle(&randn_with_specials(shape, 500 + i as u64));
    }
}

/// Every conv kernel against its per-element oracle, bit for bit, over
/// strides 1-3 and paddings from none to wider than the kernel, on
/// geometries that include a kernel wider than the unpadded input, a
/// one-row input and one-wide outputs — so strips that are ragged, narrower
/// than a row of the output, or a single column — each with fewer
/// out-channels than one row tile and with several tiles' worth, as a batch
/// and as a single sample.
#[test]
fn span_unfold_matches_the_per_element_unfold() {
    let geometries: &[(usize, usize, usize, usize, usize)] = &[
        // (ci, h, w, kh, kw)
        (2, 6, 7, 3, 3),
        (3, 5, 2, 3, 3), // kernel wider than the unpadded input
        (2, 1, 9, 1, 3), // one-row input
        (1, 4, 4, 4, 4), // one output position without padding
        (2, 7, 5, 2, 5),
    ];
    for &(ci, h, w, kh, kw) in geometries {
        for stride in 1..=3 {
            for (pad, n, few) in [0, 1, 2, kh.max(kw) + 1]
                .into_iter()
                .flat_map(|pad| [(pad, 2, false), (pad, 2, true), (pad, 1, false)])
            {
                if h + 2 * pad < kh || w + 2 * pad < kw {
                    continue;
                }
                let args = Conv2dArgs::new(stride, pad);
                let (ho, wo) = (args.out_extent(h, kh), args.out_extent(w, kw));
                let (kdim, cols) = (ci * kh * kw, ho * wo);
                let co = if few {
                    3
                } else {
                    8192usize.div_ceil(kdim * cols).max(2)
                };
                let label =
                    format!("n{n} ci{ci} {h}x{w} co{co} k{kh}x{kw} s{stride} p{pad} -> {ho}x{wo}");
                let x = randn(&[n, ci, h, w], (h * w + stride) as u64);
                let wt = randn(&[co, ci, kh, kw], (kdim + pad) as u64);
                let g = randn(&[n, co, ho, wo], (cols + co) as u64);
                assert_eq!(
                    ConvAlgo::select(x.shape(), wt.shape(), args),
                    ConvAlgo::Im2colGemm,
                    "{label}"
                );
                let (fwd, bwd_input, bwd_weight) = conv_oracle::conv_oracle(&x, &wt, &g, args);
                assert_eq!(bits(&conv2d(&x, &wt, args)), bits(&fwd), "conv2d {label}");
                assert_eq!(
                    bits(&conv2d_backward_input(&g, &wt, (h, w), args)),
                    bits(&bwd_input),
                    "conv2d_backward_input {label}"
                );
                assert_eq!(
                    bits(&conv2d_backward_weight(&x, &g, (kh, kw), args)),
                    bits(&bwd_weight),
                    "conv2d_backward_weight {label}"
                );
            }
        }
    }
}

/// What is left of the shape-based selection: a 1x1/stride-1/unpadded
/// convolution is a GEMM over channels, everything else unfolds — however
/// small (the direct-loop lowering for tiny problems is gone).
#[test]
fn conv_algo_selection_is_by_kernel_window_alone() {
    let select =
        |x: [usize; 4], w: [usize; 4], s, p| ConvAlgo::select(&x, &w, Conv2dArgs::new(s, p));
    assert_eq!(
        select([2, 3, 8, 8], [4, 3, 1, 1], 1, 0),
        ConvAlgo::DirectGemm
    );
    for (x, w, s, p) in [
        ([2, 3, 8, 8], [4, 3, 1, 1], 2, 0), // strided 1x1
        ([2, 3, 8, 8], [4, 3, 1, 1], 1, 1), // padded 1x1
        ([1, 1, 3, 3], [1, 1, 3, 3], 1, 0), // 81 multiply-adds
        ([16, 2, 16, 16], [1, 2, 4, 4], 4, 0),
        ([2, 8, 12, 12], [16, 8, 3, 3], 1, 1),
    ] {
        assert_eq!(select(x, w, s, p), ConvAlgo::Im2colGemm, "{x:?} {w:?}");
    }
}

fn small_dim() -> impl Strategy<Value = usize> {
    1usize..6
}

fn tensor_2d(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut rng = Rng::seed_from(seed);
    Tensor::randn(&[rows, cols], &mut rng)
}

proptest! {
    #[test]
    fn broadcast_is_commutative_in_shape(a in prop::collection::vec(1usize..5, 1..4),
                                         b in prop::collection::vec(1usize..5, 1..4)) {
        prop_assert_eq!(broadcast_shapes(&a, &b), broadcast_shapes(&b, &a));
    }

    #[test]
    fn broadcast_with_self_is_identity(a in prop::collection::vec(1usize..6, 1..5)) {
        prop_assert_eq!(broadcast_shapes(&a, &a), Some(a));
    }

    #[test]
    fn add_commutes(r in small_dim(), c in small_dim(), s1 in 0u64..100, s2 in 0u64..100) {
        let a = tensor_2d(r, c, s1);
        let b = tensor_2d(r, c, s2);
        prop_assert!(a.add(&b).max_abs_diff(&b.add(&a)) < 1e-6);
    }

    #[test]
    fn matmul_matches_naive(m in small_dim(), k in small_dim(), n in small_dim(), s in 0u64..100) {
        let a = tensor_2d(m, k, s);
        let b = tensor_2d(k, n, s ^ 0xff);
        prop_assert!(matmul(&a, &b).max_abs_diff(&matmul_naive(&a, &b)) < 1e-4);
    }

    #[test]
    fn matmul_distributes_over_addition(m in small_dim(), k in small_dim(), n in small_dim(), s in 0u64..100) {
        let a = tensor_2d(m, k, s);
        let b = tensor_2d(k, n, s ^ 1);
        let c = tensor_2d(k, n, s ^ 2);
        let lhs = matmul(&a, &b.add(&c));
        let rhs = matmul(&a, &b).add(&matmul(&a, &c));
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-4);
    }

    #[test]
    fn transpose_is_involutive(r in small_dim(), c in small_dim(), s in 0u64..100) {
        let a = tensor_2d(r, c, s);
        prop_assert_eq!(a.t().t(), a);
    }

    #[test]
    fn sum_to_preserves_total(r in small_dim(), c in small_dim(), s in 0u64..100) {
        let a = tensor_2d(r, c, s);
        let folded = a.sum_to(&[c]);
        prop_assert!((folded.sum() - a.sum()).abs() < 1e-4);
    }

    #[test]
    fn concat_then_slice_roundtrips(r in small_dim(), c1 in small_dim(), c2 in small_dim(), s in 0u64..100) {
        let a = tensor_2d(r, c1, s);
        let b = tensor_2d(r, c2, s ^ 7);
        let joined = concat(&[&a, &b], 1);
        prop_assert_eq!(slice_axis(&joined, 1, 0, c1), a);
        prop_assert_eq!(slice_axis(&joined, 1, c1, c2), b);
    }

    #[test]
    fn conv_output_shape_is_consistent(c_in in 1usize..4, c_out in 1usize..4,
                                       h in 4usize..8, w in 4usize..8, s in 0u64..50) {
        let mut rng = Rng::seed_from(s);
        let x = Tensor::randn(&[1, c_in, h, w], &mut rng);
        let wt = Tensor::randn(&[c_out, c_in, 3, 3], &mut rng);
        let args = Conv2dArgs::new(1, 1);
        let y = conv2d(&x, &wt, args);
        prop_assert_eq!(y.shape(), &[1, c_out, h, w]);
        prop_assert!(y.all_finite());
    }

    #[test]
    fn conv_is_linear_in_the_input(s in 0u64..50) {
        let mut rng = Rng::seed_from(s);
        let x1 = Tensor::randn(&[1, 2, 5, 5], &mut rng);
        let x2 = Tensor::randn(&[1, 2, 5, 5], &mut rng);
        let wt = Tensor::randn(&[3, 2, 3, 3], &mut rng);
        let args = Conv2dArgs::new(1, 0);
        let lhs = conv2d(&x1.add(&x2), &wt, args);
        let rhs = conv2d(&x1, &wt, args).add(&conv2d(&x2, &wt, args));
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-4);
    }

    #[test]
    fn rng_uniform_stays_in_unit_interval(seed in 0u64..1000) {
        let mut rng = Rng::seed_from(seed);
        for _ in 0..100 {
            let x = rng.uniform();
            prop_assert!((0.0..1.0).contains(&x));
        }
    }
}

proptest! {
    // Tiny tensors, so many cases are cheap — and the shapes that matter
    // (one operand merging dimensions the other cannot) are a small share
    // of those drawn.
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn walker_matches_the_decode_loops(dims in prop::collection::vec(0usize..5, 0..5),
                                       mask_a in 0usize..32, mask_b in 0usize..32,
                                       strip_a in 0usize..5, strip_b in 0usize..5,
                                       order in prop::collection::vec(0usize..5, 5),
                                       axis in 0usize..5, seed in 0u64..1000) {
        let a = broadcast_source(&dims, mask_a, strip_a);
        let b = broadcast_source(&dims, mask_b, strip_b);
        assert_zip_matches_oracle(&a, &b, seed);
        assert_sum_to_matches_oracle(&dims, &a, seed ^ 1);
        // The keep-dim target of an axis sum: one axis set to 1.
        if !dims.is_empty() {
            let mut keep = dims.clone();
            keep[axis % dims.len()] = 1;
            assert_sum_to_matches_oracle(&dims, &keep, seed ^ 3);
        }
        // A permutation of the axes: sort them by (sampled key, axis).
        let mut perm: Vec<usize> = (0..dims.len()).collect();
        perm.sort_by_key(|&d| (order[d], d));
        let t = randn(&dims, seed ^ 2);
        let (got, want) = (t.permute(&perm), permute_ref(&t, &perm));
        prop_assert_eq!(got.shape(), want.shape());
        prop_assert_eq!(bits(&got), bits(&want), "permute {:?} by {:?}", dims, perm);
    }

    // Ranks 1-4, every axis, extents 0 and 1 among them, rows mostly not a
    // multiple of 8 long, and signed zeros, NaN and infinities among the
    // values.
    #[test]
    fn axis_sums_match_the_loop(dims in prop::collection::vec(0usize..12, 1..5),
                                seed in 0u64..1000) {
        assert_axis_sums_match_oracle(&randn_with_specials(&dims, seed));
    }
}
