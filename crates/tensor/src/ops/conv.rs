//! 2-D convolution via im2col + GEMM, with explicit backward kernels.
//!
//! Layout is NCHW for activations and `[c_out, c_in, kh, kw]` for weights.
//! The backward-input kernel doubles as the forward pass of transposed
//! convolution (used by the GAN generators and decoder networks), exactly as
//! cuDNN reuses its `wgrad`/`dgrad` engines.
//!
//! No kernel here copies a transpose: the weight gradient multiplies by the
//! im2col matrix transposed, the input gradient by the filter bank
//! transposed, and both hand the GEMM the buffer they have with
//! [`Layout::Transposed`]. The unfold itself moves spans, not elements:
//! for one kernel tap the in-bounds output positions along an axis are a
//! single range (`tap_span`), so `im2col` copies — and `col2im`
//! accumulates — whole row segments, and what lies outside the range is
//! padding that is never visited.
//!
//! Forward and backward-input parallelize over samples (disjoint output
//! blocks; a single-sample batch instead parallelizes the inner GEMM over
//! out-channel rows). Backward-weight is a reduction over samples and uses
//! `aibench-parallel`'s order-stable chunked reduce: per-sample partial
//! gradients are folded in sample order, so all three kernels are bitwise
//! identical for every `AIBENCH_THREADS` value.

use aibench_parallel::effects;

use super::microkernel::{gemm_flops, gemm_into, Layout, Mat};
use crate::walk::copy_strided;
use crate::Tensor;

/// How [`conv2d`] lowers a given geometry.
///
/// Selection is a pure function of the shapes (never of data or thread
/// count), so a given geometry always takes the same path and results stay
/// deterministic. All paths accumulate each output element over
/// `(c_in, kh, kw)` in ascending index order — the same order the im2col
/// GEMM uses — so for unpadded geometries the paths are bitwise identical
/// (padding contributes explicit `+0.0` terms on the im2col path only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConvAlgo {
    /// Unfold each sample into an im2col matrix, then one packed GEMM per
    /// sample. The default for everything with real spatial extent.
    Im2colGemm,
    /// 1x1 kernel, stride 1, no padding: the convolution *is* a GEMM over
    /// channels, computed in place with no unfold copy.
    DirectGemm,
    /// Tiny problems where allocating the im2col buffer dominates the
    /// arithmetic: plain nested loops over the output.
    DirectLoops,
}

/// Work (multiply-adds) below which [`ConvAlgo::DirectLoops`] wins over
/// paying the im2col allocation + copy.
const DIRECT_LOOPS_THRESHOLD_FLOPS: usize = 8 * 1024;

impl ConvAlgo {
    /// Selects the lowering for `conv2d(input, weight, args)` from shapes
    /// alone: `input` is `[n, c, h, w]`, `weight` is `[co, ci, kh, kw]`.
    pub fn select(input: &[usize], weight: &[usize], args: Conv2dArgs) -> ConvAlgo {
        let (h, w) = (input[2], input[3]);
        let (co, ci, kh, kw) = (weight[0], weight[1], weight[2], weight[3]);
        if kh == 1 && kw == 1 && args.stride == 1 && args.pad == 0 {
            return ConvAlgo::DirectGemm;
        }
        let ho = args.out_extent(h, kh);
        let wo = args.out_extent(w, kw);
        let flops_per_sample = co * ci * kh * kw * ho * wo;
        if flops_per_sample < DIRECT_LOOPS_THRESHOLD_FLOPS {
            return ConvAlgo::DirectLoops;
        }
        ConvAlgo::Im2colGemm
    }
}

/// Geometry of a 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dArgs {
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Zero padding in both spatial dimensions.
    pub pad: usize,
}

impl Conv2dArgs {
    /// Convolution with the given stride and padding.
    pub fn new(stride: usize, pad: usize) -> Self {
        assert!(stride > 0, "conv stride must be positive");
        Conv2dArgs { stride, pad }
    }

    /// Output spatial extent for an input extent and kernel extent.
    pub fn out_extent(&self, input: usize, kernel: usize) -> usize {
        (input + 2 * self.pad).saturating_sub(kernel) / self.stride + 1
    }
}

impl Default for Conv2dArgs {
    fn default() -> Self {
        Conv2dArgs { stride: 1, pad: 0 }
    }
}

/// The output positions along one spatial axis whose input position
/// `o * stride + tap - pad` lands inside `0..extent` for kernel tap `tap`,
/// clamped to `0..out`. Padding only ever cuts a prefix and a suffix off an
/// axis, so the valid positions are one span: computed once per tap, it
/// replaces a bounds test per output element.
fn tap_span(tap: usize, extent: usize, out: usize, args: Conv2dArgs) -> std::ops::Range<usize> {
    let lo = args.pad.saturating_sub(tap).div_ceil(args.stride);
    let hi = (extent + args.pad)
        .checked_sub(tap + 1)
        .map_or(0, |last| last / args.stride + 1)
        .min(out);
    lo.min(hi)..hi
}

/// Unfolds one NCHW sample into an im2col matrix `[c*kh*kw, ho*wo]`.
///
/// Each `(ci, ki, kj)` tap fills one matrix row from whole input-row spans
/// (see [`tap_span`]): a `copy_from_slice` per output row at stride 1, a
/// fixed-step gather otherwise. Positions outside the spans are padding and
/// keep the buffer's zero.
#[allow(clippy::too_many_arguments)] // full conv geometry is inherently wide
fn im2col(
    x: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    args: Conv2dArgs,
    ho: usize,
    wo: usize,
) -> Vec<f32> {
    let mut col = vec![0.0f32; c * kh * kw * ho * wo];
    let cols = ho * wo;
    for ci in 0..c {
        for ki in 0..kh {
            let ys = tap_span(ki, h, ho, args);
            for kj in 0..kw {
                let xs = tap_span(kj, w, wo, args);
                if xs.is_empty() {
                    continue;
                }
                let row = (ci * kh + ki) * kw + kj;
                let dst = &mut col[row * cols..(row + 1) * cols];
                let ix0 = xs.start * args.stride + kj - args.pad;
                for oy in ys.clone() {
                    let iy = oy * args.stride + ki - args.pad;
                    let src = &x[(ci * h + iy) * w + ix0..(ci * h + iy + 1) * w];
                    let dst_span = &mut dst[oy * wo + xs.start..oy * wo + xs.end];
                    copy_strided(dst_span, src, args.stride);
                }
            }
        }
    }
    col
}

/// Folds an im2col matrix back onto an NCHW sample, accumulating overlaps
/// in `(ci, ki, kj, oy, ox)` order over the same spans [`im2col`] copies.
#[allow(clippy::too_many_arguments)] // full conv geometry is inherently wide
fn col2im(
    col: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    args: Conv2dArgs,
    ho: usize,
    wo: usize,
    out: &mut [f32],
) {
    let cols = ho * wo;
    for ci in 0..c {
        for ki in 0..kh {
            let ys = tap_span(ki, h, ho, args);
            for kj in 0..kw {
                let xs = tap_span(kj, w, wo, args);
                if xs.is_empty() {
                    continue;
                }
                let row = (ci * kh + ki) * kw + kj;
                let src = &col[row * cols..(row + 1) * cols];
                let ix0 = xs.start * args.stride + kj - args.pad;
                for oy in ys.clone() {
                    let iy = oy * args.stride + ki - args.pad;
                    let dst = &mut out[(ci * h + iy) * w + ix0..(ci * h + iy + 1) * w];
                    let src_span = &src[oy * wo + xs.start..oy * wo + xs.end];
                    if args.stride == 1 {
                        for (d, &v) in dst.iter_mut().zip(src_span) {
                            *d += v;
                        }
                    } else {
                        for (d, &v) in dst.iter_mut().step_by(args.stride).zip(src_span) {
                            *d += v;
                        }
                    }
                }
            }
        }
    }
}

/// 2-D convolution: input `[n, c_in, h, w]`, weight `[c_out, c_in, kh, kw]`
/// → `[n, c_out, ho, wo]`.
///
/// # Panics
///
/// Panics if ranks or channel counts disagree, or the kernel does not fit
/// the padded input.
pub fn conv2d(input: &Tensor, weight: &Tensor, args: Conv2dArgs) -> Tensor {
    assert_eq!(
        input.ndim(),
        4,
        "conv2d: input must be NCHW, got {:?}",
        input.shape()
    );
    assert_eq!(
        weight.ndim(),
        4,
        "conv2d: weight must be [co,ci,kh,kw], got {:?}",
        weight.shape()
    );
    let (n, c, h, w) = (
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    );
    let (co, ci, kh, kw) = (
        weight.shape()[0],
        weight.shape()[1],
        weight.shape()[2],
        weight.shape()[3],
    );
    assert_eq!(c, ci, "conv2d: input channels {c} vs weight channels {ci}");
    assert!(
        h + 2 * args.pad >= kh && w + 2 * args.pad >= kw,
        "conv2d: kernel larger than padded input"
    );
    let ho = args.out_extent(h, kh);
    let wo = args.out_extent(w, kw);
    let kdim = ci * kh * kw;
    let cols = ho * wo;
    let algo = ConvAlgo::select(input.shape(), weight.shape(), args);
    let filters = Mat::new(weight.data(), Layout::RowMajor, co, kdim);
    let mut out = vec![0.0f32; n * co * cols];
    let _scope = effects::kernel_scope("conv2d_fwd");
    // One sample per chunk; each sample's lowering writes a disjoint
    // output block. The algorithm is fixed per geometry (see [`ConvAlgo`]).
    // Every algorithm does the lowered GEMM's multiply-adds per sample.
    let work = n as u64 * gemm_flops(co, kdim, cols);
    aibench_parallel::parallel_slice_mut_weighted(&mut out, co * cols, work, |range, out_s| {
        let s = range.start / (co * cols).max(1);
        effects::read(input.data(), s * c * h * w..(s + 1) * c * h * w);
        let x = &input.data()[s * c * h * w..(s + 1) * c * h * w];
        match algo {
            // 1x1/stride-1/unpadded: the sample itself is already the
            // [c, h*w] im2col matrix — multiply in place, no copy.
            ConvAlgo::DirectGemm => {
                let sample = Mat::new(x, Layout::RowMajor, kdim, cols);
                gemm_into(filters, sample, out_s, co, kdim, cols)
            }
            ConvAlgo::DirectLoops => conv_direct_sample(
                x,
                weight.data(),
                out_s,
                (c, h, w),
                (co, kh, kw),
                args,
                ho,
                wo,
            ),
            ConvAlgo::Im2colGemm => {
                let col = im2col(x, c, h, w, kh, kw, args, ho, wo);
                let unfolded = Mat::new(&col, Layout::RowMajor, kdim, cols);
                gemm_into(filters, unfolded, out_s, co, kdim, cols);
            }
        }
    });
    Tensor::from_vec(out, &[n, co, ho, wo])
}

/// Direct (loop-nest) convolution of one sample: each output element
/// accumulates over `(ci, ki, kj)` in ascending order — the im2col GEMM's
/// exact order — skipping out-of-bounds taps instead of multiplying
/// explicit zeros.
#[allow(clippy::too_many_arguments)] // full conv geometry is inherently wide
fn conv_direct_sample(
    x: &[f32],
    weight: &[f32],
    out_s: &mut [f32],
    (c, h, w): (usize, usize, usize),
    (co, kh, kw): (usize, usize, usize),
    args: Conv2dArgs,
    ho: usize,
    wo: usize,
) {
    for o in 0..co {
        let w_filter = &weight[o * c * kh * kw..(o + 1) * c * kh * kw];
        let out_plane = &mut out_s[o * ho * wo..(o + 1) * ho * wo];
        for oy in 0..ho {
            for ox in 0..wo {
                let mut acc = 0.0f32;
                for ci in 0..c {
                    for ki in 0..kh {
                        let iy = (oy * args.stride + ki) as isize - args.pad as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        let x_row = &x[(ci * h + iy as usize) * w..(ci * h + iy as usize + 1) * w];
                        let w_row = &w_filter[(ci * kh + ki) * kw..(ci * kh + ki + 1) * kw];
                        for (kj, &wv) in w_row.iter().enumerate() {
                            let ix = (ox * args.stride + kj) as isize - args.pad as isize;
                            if ix >= 0 && ix < w as isize {
                                acc += x_row[ix as usize] * wv;
                            }
                        }
                    }
                }
                out_plane[oy * wo + ox] = acc;
            }
        }
    }
}

/// Gradient of [`conv2d`] with respect to its input.
///
/// Also the forward pass of transposed convolution: given `grad_output`
/// shaped `[n, c_out, ho, wo]` it produces `[n, c_in, h, w]` where `(h, w)`
/// are the provided original input extents.
///
/// # Panics
///
/// Panics on rank or channel mismatches, or if `grad_output`'s spatial
/// extent is not what [`conv2d`] produces from an `input_hw` input.
pub fn conv2d_backward_input(
    grad_output: &Tensor,
    weight: &Tensor,
    input_hw: (usize, usize),
    args: Conv2dArgs,
) -> Tensor {
    assert_eq!(
        grad_output.ndim(),
        4,
        "conv2d_backward_input: grad must be NCHW"
    );
    assert_eq!(
        weight.ndim(),
        4,
        "conv2d_backward_input: weight must be 4-D"
    );
    let (n, co, ho, wo) = (
        grad_output.shape()[0],
        grad_output.shape()[1],
        grad_output.shape()[2],
        grad_output.shape()[3],
    );
    let (cow, ci, kh, kw) = (
        weight.shape()[0],
        weight.shape()[1],
        weight.shape()[2],
        weight.shape()[3],
    );
    assert_eq!(
        co, cow,
        "conv2d_backward_input: channel mismatch {co} vs {cow}"
    );
    let (h, w) = input_hw;
    assert_eq!(
        (ho, wo),
        (args.out_extent(h, kh), args.out_extent(w, kw)),
        "conv2d_backward_input: grad extent vs the conv2d output of a {h}x{w} input \
         ({kh}x{kw} kernel, {args:?})"
    );
    let kdim = ci * kh * kw;
    let cols = ho * wo;
    // weight^T [kdim, co], read in place from the [co, kdim] filter bank.
    let wt = Mat::new(weight.data(), Layout::Transposed, kdim, co);
    // For 1x1/stride-1/unpadded geometries col2im is the identity map, so
    // the GEMM can write the input gradient directly (no column buffer).
    let direct_1x1 = kh == 1 && kw == 1 && args.stride == 1 && args.pad == 0 && (ho, wo) == (h, w);
    let mut out = vec![0.0f32; n * ci * h * w];
    let _scope = effects::kernel_scope("conv2d_bwd_input");
    // One sample per chunk with a thread-local column buffer; each sample
    // folds into a disjoint input-gradient block.
    let work = n as u64 * gemm_flops(kdim, co, cols);
    aibench_parallel::parallel_slice_mut_weighted(&mut out, ci * h * w, work, |range, out_s| {
        let s = range.start / (ci * h * w).max(1);
        effects::read(grad_output.data(), s * co * cols..(s + 1) * co * cols);
        let g = &grad_output.data()[s * co * cols..(s + 1) * co * cols];
        let g = Mat::new(g, Layout::RowMajor, co, cols);
        if direct_1x1 {
            gemm_into(wt, g, out_s, kdim, co, cols);
        } else {
            let mut col = vec![0.0f32; kdim * cols];
            gemm_into(wt, g, &mut col, kdim, co, cols);
            col2im(&col, ci, h, w, kh, kw, args, ho, wo, out_s);
        }
    });
    Tensor::from_vec(out, &[n, ci, h, w])
}

/// Gradient of [`conv2d`] with respect to its weight.
///
/// # Panics
///
/// Panics on rank or batch mismatches, or if `grad_output`'s spatial extent
/// is not what [`conv2d`] produces from `input` with a `kernel_hw` kernel.
pub fn conv2d_backward_weight(
    input: &Tensor,
    grad_output: &Tensor,
    kernel_hw: (usize, usize),
    args: Conv2dArgs,
) -> Tensor {
    assert_eq!(
        input.ndim(),
        4,
        "conv2d_backward_weight: input must be NCHW"
    );
    assert_eq!(
        grad_output.ndim(),
        4,
        "conv2d_backward_weight: grad must be NCHW"
    );
    let (n, c, h, w) = (
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    );
    let (n2, co, ho, wo) = (
        grad_output.shape()[0],
        grad_output.shape()[1],
        grad_output.shape()[2],
        grad_output.shape()[3],
    );
    assert_eq!(n, n2, "conv2d_backward_weight: batch mismatch");
    let (kh, kw) = kernel_hw;
    assert_eq!(
        (ho, wo),
        (args.out_extent(h, kh), args.out_extent(w, kw)),
        "conv2d_backward_weight: grad extent vs the conv2d output of a {h}x{w} input \
         ({kh}x{kw} kernel, {args:?})"
    );
    let kdim = c * kh * kw;
    let cols = ho * wo;
    // Weight gradients sum over samples: an order-stable chunked reduction
    // (one sample per chunk, partials folded in sample order) keeps the
    // result identical for every thread count, including serial runs.
    let _scope = effects::kernel_scope("conv2d_bwd_weight");
    let gw = aibench_parallel::parallel_reduce_weighted(
        n,
        1,
        n as u64 * gemm_flops(co, cols, kdim),
        || vec![0.0f32; co * kdim],
        |range| {
            let s = range.start;
            effects::read(input.data(), s * c * h * w..(s + 1) * c * h * w);
            effects::read(grad_output.data(), s * co * cols..(s + 1) * co * cols);
            let x = &input.data()[s * c * h * w..(s + 1) * c * h * w];
            let col = im2col(x, c, h, w, kh, kw, args, ho, wo);
            // grad_w_s = g [co, cols] * col^T [cols, kdim], the unfolded
            // matrix read transposed where it lies.
            let colt = Mat::new(&col, Layout::Transposed, cols, kdim);
            let g = &grad_output.data()[s * co * cols..(s + 1) * co * cols];
            let mut gw_s = vec![0.0f32; co * kdim];
            gemm_into(
                Mat::new(g, Layout::RowMajor, co, cols),
                colt,
                &mut gw_s,
                co,
                cols,
                kdim,
            );
            gw_s
        },
        |mut acc, part| {
            for (a, b) in acc.iter_mut().zip(&part) {
                *a += b;
            }
            acc
        },
    );
    Tensor::from_vec(gw, &[co, c, kh, kw])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    /// Direct (non-im2col) reference convolution.
    fn conv2d_direct(input: &Tensor, weight: &Tensor, args: Conv2dArgs) -> Tensor {
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
        let ho = args.out_extent(h, kh);
        let wo = args.out_extent(w, kw);
        let mut out = Tensor::zeros(&[n, co, ho, wo]);
        for s in 0..n {
            for o in 0..co {
                for oy in 0..ho {
                    for ox in 0..wo {
                        let mut acc = 0.0;
                        for ci in 0..c {
                            for ki in 0..kh {
                                for kj in 0..kw {
                                    let iy = (oy * args.stride + ki) as isize - args.pad as isize;
                                    let ix = (ox * args.stride + kj) as isize - args.pad as isize;
                                    if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                                        acc += input.at(&[s, ci, iy as usize, ix as usize])
                                            * weight.at(&[o, ci, ki, kj]);
                                    }
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

    #[test]
    fn matches_direct_various_geometries() {
        let mut rng = Rng::seed_from(2);
        for &(c, h, w, co, k, stride, pad) in &[
            (1, 5, 5, 1, 3, 1, 0),
            (3, 8, 8, 4, 3, 1, 1),
            (2, 7, 9, 3, 3, 2, 1),
            (1, 4, 4, 2, 1, 1, 0),
        ] {
            let x = Tensor::randn(&[2, c, h, w], &mut rng);
            let wt = Tensor::randn(&[co, c, k, k], &mut rng);
            let args = Conv2dArgs::new(stride, pad);
            let fast = conv2d(&x, &wt, args);
            let slow = conv2d_direct(&x, &wt, args);
            assert!(
                fast.max_abs_diff(&slow) < 1e-4,
                "geometry ({c},{h},{w},{co},{k},{stride},{pad})"
            );
        }
    }

    #[test]
    fn backward_input_matches_finite_difference() {
        let mut rng = Rng::seed_from(5);
        let x = Tensor::randn(&[1, 2, 5, 5], &mut rng);
        let w = Tensor::randn(&[3, 2, 3, 3], &mut rng);
        let args = Conv2dArgs::new(1, 1);
        let y = conv2d(&x, &w, args);
        // Loss = sum(y); grad_output = ones.
        let go = Tensor::ones(y.shape());
        let gx = conv2d_backward_input(&go, &w, (5, 5), args);
        let eps = 1e-2;
        for i in [0usize, 7, 24, 49] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (conv2d(&xp, &w, args).sum() - conv2d(&xm, &w, args).sum()) / (2.0 * eps);
            assert!(
                (num - gx.data()[i]).abs() < 1e-2,
                "dx[{i}]: numeric {num} vs analytic {}",
                gx.data()[i]
            );
        }
    }

    #[test]
    fn backward_weight_matches_finite_difference() {
        let mut rng = Rng::seed_from(6);
        let x = Tensor::randn(&[2, 2, 5, 5], &mut rng);
        let w = Tensor::randn(&[3, 2, 3, 3], &mut rng);
        let args = Conv2dArgs::new(2, 1);
        let y = conv2d(&x, &w, args);
        let go = Tensor::ones(y.shape());
        let gw = conv2d_backward_weight(&x, &go, (3, 3), args);
        let eps = 1e-2;
        for i in [0usize, 5, 17, 53] {
            let mut wp = w.clone();
            wp.data_mut()[i] += eps;
            let mut wm = w.clone();
            wm.data_mut()[i] -= eps;
            let num = (conv2d(&x, &wp, args).sum() - conv2d(&x, &wm, args).sum()) / (2.0 * eps);
            assert!(
                (num - gw.data()[i]).abs() < 2e-2,
                "dw[{i}]: numeric {num} vs analytic {}",
                gw.data()[i]
            );
        }
    }

    #[test]
    fn transposed_conv_upsamples() {
        // backward_input used as deconv: [1,co,2,2] -> [1,ci,4,4] with k=2 stride=2.
        let mut rng = Rng::seed_from(7);
        let g = Tensor::randn(&[1, 3, 2, 2], &mut rng);
        let w = Tensor::randn(&[3, 2, 2, 2], &mut rng);
        let up = conv2d_backward_input(&g, &w, (4, 4), Conv2dArgs::new(2, 0));
        assert_eq!(up.shape(), &[1, 2, 4, 4]);
    }

    /// A 5x5 input under a 3x3 kernel, stride 1, pad 1 yields 5x5, so a
    /// 4x4 gradient belongs to some other convolution.
    #[test]
    #[should_panic(expected = "conv2d_backward_input: grad extent")]
    fn backward_input_rejects_a_grad_of_the_wrong_extent() {
        let g = Tensor::ones(&[1, 3, 4, 4]);
        let w = Tensor::ones(&[3, 2, 3, 3]);
        let _ = conv2d_backward_input(&g, &w, (5, 5), Conv2dArgs::new(1, 1));
    }

    #[test]
    #[should_panic(expected = "conv2d_backward_weight: grad extent")]
    fn backward_weight_rejects_a_grad_of_the_wrong_extent() {
        let x = Tensor::ones(&[1, 2, 5, 5]);
        let g = Tensor::ones(&[1, 3, 5, 4]);
        let _ = conv2d_backward_weight(&x, &g, (3, 3), Conv2dArgs::new(1, 1));
    }

    #[test]
    fn tap_spans_are_the_in_bounds_positions() {
        for stride in 1..=3 {
            for pad in 0..=4 {
                let args = Conv2dArgs::new(stride, pad);
                for extent in 1..=6 {
                    for kernel in 1..=(extent + 2 * pad).min(5) {
                        let out = args.out_extent(extent, kernel);
                        for tap in 0..kernel {
                            let want: Vec<usize> = (0..out)
                                .filter(|o| (pad..pad + extent).contains(&(o * stride + tap)))
                                .collect();
                            let got: Vec<usize> = tap_span(tap, extent, out, args).collect();
                            assert_eq!(got, want, "s{stride} p{pad} n{extent} k{kernel} t{tap}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "channels")]
    fn channel_mismatch_panics() {
        let x = Tensor::ones(&[1, 2, 4, 4]);
        let w = Tensor::ones(&[1, 3, 3, 3]);
        let _ = conv2d(&x, &w, Conv2dArgs::default());
    }
}
