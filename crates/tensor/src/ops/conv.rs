//! 2-D convolution lowered onto the register microkernel, with explicit
//! backward kernels.
//!
//! Layout is NCHW for activations and `[c_out, c_in, kh, kw]` for weights.
//! The backward-input kernel doubles as the forward pass of transposed
//! convolution (used by the GAN generators and decoder networks), exactly as
//! cuDNN reuses its `wgrad`/`dgrad` engines.
//!
//! All three kernels are one GEMM per sample against an operand the whole
//! batch shares, so each call does the shared work once and builds the
//! per-sample operand directly in the layout the microkernel reads
//! ([`pack_tiles`] / [`pack_strips`], swept by [`sweep`]):
//!
//! | kernel | product per sample | packed once per call | built per sample |
//! |---|---|---|---|
//! | forward | `W [co, kdim] x col [kdim, cols]` | `W` as row tiles | `col` unfolded straight into strips |
//! | backward-weight | `g [co, cols] x col^T [cols, kdim]` | — | `g` as row tiles, `col^T` unfolded straight into strips |
//! | backward-input | `W^T [kdim, co] x g [co, cols]`, then `col2im` | `W^T` as row tiles | `g` as strips |
//!
//! No im2col matrix, no transpose and no second packing pass exists on that
//! path. A sample is unfolded out of a copy of itself inside its zero
//! border, where every tap of every output position is in bounds: the
//! unfolded element `(row, col)` sits at `taps[row] + cells[col]`, two
//! offset tables a call computes once (`Gather`), so the forward strips
//! are runs of an output row copied for all taps at a time and the
//! transposed strips of backward-weight are a plain gather.
//!
//! Backward-input keeps its `[kdim, cols]` product buffer and `col2im`,
//! because overlapping taps are summed in `col2im`'s visiting order and
//! that order is what the result's bits depend on. `col2im` (and the
//! im2col of the scalar baseline) moves spans, not elements: for one
//! kernel tap the in-bounds output positions along an axis are a single
//! range (`tap_span`), so a tap's row of the unfolded matrix is a handful
//! of input-row segments, and what lies outside them is padding that is
//! never visited.
//!
//! Under [`GemmPath::Scalar`] the kernels instead materialise the im2col
//! matrix and multiply it with the scalar tiled GEMM: the baseline
//! `aibench-perf` measures against, and the independent implementation the
//! bitwise tests hold the lowering above to.
//!
//! Forward and backward-input parallelize over samples (disjoint output
//! blocks; a single-sample batch instead parallelizes the product over
//! out-channel rows). Backward-weight is a reduction over samples and uses
//! `aibench-parallel`'s order-stable chunked reduce: per-sample partial
//! gradients are folded in sample order, so all three kernels are bitwise
//! identical for every `AIBENCH_THREADS` value.

use std::borrow::Cow;

use aibench_parallel::{effects, gemm_path, GemmPath};

use super::microkernel::{gemm_flops, gemm_into, pack_strips, pack_tiles, sweep, Layout, Mat, NR};
use crate::walk::copy_strided;
use crate::Tensor;

/// How [`conv2d`] lowers a given geometry.
///
/// Selection is a pure function of the shapes (never of data or thread
/// count), so a given geometry always takes the same path and results stay
/// deterministic. Both variants accumulate each output element over
/// `(c_in, kh, kw)` in ascending index order; padding contributes explicit
/// `+0.0` terms, which cannot change an accumulator that started from
/// `+0.0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConvAlgo {
    /// Unfold each sample over the kernel taps and multiply by the filter
    /// bank: everything with a real kernel window, stride or padding.
    Im2colGemm,
    /// 1x1 kernel, stride 1, no padding: the sample *is* its unfolded
    /// matrix, so the convolution is a GEMM over channels with no unfold.
    DirectGemm,
}

impl ConvAlgo {
    /// Selects the lowering for `conv2d(input, weight, args)` from shapes
    /// alone: `input` is `[n, c, h, w]`, `weight` is `[co, ci, kh, kw]`.
    pub fn select(_input: &[usize], weight: &[usize], args: Conv2dArgs) -> ConvAlgo {
        if is_pointwise((weight[2], weight[3]), args) {
            ConvAlgo::DirectGemm
        } else {
            ConvAlgo::Im2colGemm
        }
    }
}

/// 1x1 kernel, stride 1, no padding: each output position reads exactly
/// the input position under it.
fn is_pointwise(kernel_hw: (usize, usize), args: Conv2dArgs) -> bool {
    (kernel_hw, args.stride, args.pad) == ((1, 1), 1, 0)
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

/// The unfold of one NCHW sample `[c, h, w]` under a `kh x kw` kernel: the
/// map between the sample and its im2col matrix `[kdim, cols]` (row
/// `(ci, ki, kj)`, column `(oy, ox)`), in whichever layout a kernel wants
/// that matrix.
#[derive(Clone, Copy)]
struct Unfold {
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    args: Conv2dArgs,
    ho: usize,
    wo: usize,
}

impl Unfold {
    /// A 1x1/stride-1/unpadded unfold is the identity on each channel
    /// plane, whatever the plane's shape; it is described as one row of
    /// `h * w` so that a channel is a single span.
    fn new(c: usize, (h, w): (usize, usize), (kh, kw): (usize, usize), args: Conv2dArgs) -> Self {
        let (h, w) = if is_pointwise((kh, kw), args) {
            (1, h * w)
        } else {
            (h, w)
        };
        let (ho, wo) = (args.out_extent(h, kh), args.out_extent(w, kw));
        Unfold {
            c,
            h,
            w,
            kh,
            kw,
            args,
            ho,
            wo,
        }
    }

    /// Rows of the unfolded matrix: one per `(ci, ki, kj)` tap.
    fn kdim(&self) -> usize {
        self.c * self.kh * self.kw
    }

    /// Columns of the unfolded matrix: one per output position.
    fn cols(&self) -> usize {
        self.ho * self.wo
    }

    /// Extents of a channel plane with the zero padding materialised.
    fn bordered_hw(&self) -> (usize, usize) {
        (self.h + 2 * self.args.pad, self.w + 2 * self.args.pad)
    }

    /// Whether the unfolded matrix is the sample itself.
    fn is_identity(&self) -> bool {
        is_pointwise((self.kh, self.kw), self.args)
    }

    /// Calls `f(row, col, len, at)` for every run of the unfolded matrix
    /// that is not padding: `len` cells of row `row` from column `col`
    /// hold the sample's elements `at`, `at + stride`, ... — one run per
    /// tap and output row (see [`tap_span`]), in `(ci, ki, kj, oy)` order.
    #[inline(always)]
    fn for_each_span(&self, mut f: impl FnMut(usize, usize, usize, usize)) {
        let Unfold {
            c,
            h,
            w,
            kh,
            kw,
            args,
            ho,
            wo,
        } = *self;
        for ci in 0..c {
            for ki in 0..kh {
                let ys = tap_span(ki, h, ho, args);
                for kj in 0..kw {
                    let xs = tap_span(kj, w, wo, args);
                    if xs.is_empty() {
                        continue;
                    }
                    let row = (ci * kh + ki) * kw + kj;
                    let ix0 = xs.start * args.stride + kj - args.pad;
                    for oy in ys.clone() {
                        let iy = oy * args.stride + ki - args.pad;
                        f(row, oy * wo + xs.start, xs.len(), (ci * h + iy) * w + ix0);
                    }
                }
            }
        }
    }

    /// The im2col matrix `[kdim, cols]` of sample `x`, row-major: a
    /// `copy_from_slice` per span at stride 1, a fixed-step gather
    /// otherwise. Padding keeps the buffer's zero.
    fn im2col(&self, x: &[f32]) -> Vec<f32> {
        let cols = self.cols();
        let mut col = vec![0.0f32; self.kdim() * cols];
        self.for_each_span(|row, j, len, at| {
            let dst = &mut col[row * cols + j..row * cols + j + len];
            copy_strided(dst, &x[at..], self.args.stride);
        });
        col
    }

    /// Folds an im2col matrix back onto an NCHW sample, accumulating
    /// overlaps in `(ci, ki, kj, oy, ox)` order over the same spans
    /// [`Unfold::im2col`] copies.
    fn col2im(&self, col: &[f32], out: &mut [f32]) {
        let (cols, stride) = (self.cols(), self.args.stride);
        self.for_each_span(|row, j, len, at| {
            let src = &col[row * cols + j..row * cols + j + len];
            if stride == 1 {
                for (d, &v) in out[at..at + len].iter_mut().zip(src) {
                    *d += v;
                }
            } else {
                for (d, &v) in out[at..].iter_mut().step_by(stride).zip(src) {
                    *d += v;
                }
            }
        });
    }
}

/// The unfold as plain address arithmetic, for building the microkernel's
/// strip operand straight from a sample: once the sample sits inside its
/// zero border, unfolded element `(row, col)` is
/// `bordered[taps[row] + cells[col]]` with no bounds to test. Both tables
/// depend on the geometry alone, so a call computes them once for all of
/// its samples.
struct Gather {
    unfold: Unfold,
    /// Per unfolded row `(ci, ki, kj)`: where its tap reads for output
    /// position `(0, 0)`.
    taps: Vec<usize>,
    /// Per output position `(oy, ox)`: how far every tap moves to reach it.
    cells: Vec<usize>,
}

impl Gather {
    fn new(unfold: Unfold) -> Self {
        let Unfold {
            c,
            kh,
            kw,
            args,
            ho,
            wo,
            ..
        } = unfold;
        let (ph, pw) = unfold.bordered_hw();
        let tap = |row: usize| (row / (kh * kw) * ph + row / kw % kh) * pw + row % kw;
        let cell = |j: usize| (j / wo * pw + j % wo) * args.stride;
        Gather {
            unfold,
            taps: (0..c * kh * kw).map(tap).collect(),
            cells: (0..ho * wo).map(cell).collect(),
        }
    }

    /// The sample `x` inside its zero border (`x` itself without padding).
    fn bordered<'a>(&self, x: &'a [f32]) -> Cow<'a, [f32]> {
        let Unfold { c, h, w, args, .. } = self.unfold;
        if args.pad == 0 {
            return Cow::Borrowed(x);
        }
        let (ph, pw) = self.unfold.bordered_hw();
        let mut bordered = vec![0.0f32; c * ph * pw];
        for (row, src) in x.chunks_exact(w).enumerate() {
            let at = (row / h * ph + row % h + args.pad) * pw + args.pad;
            bordered[at..at + w].copy_from_slice(src);
        }
        Cow::Owned(bordered)
    }

    /// The im2col matrix `[kdim, cols]` of sample `x` as the strip operand
    /// of [`sweep`]: strip `j / NR` holds column `j` in lane `j % NR`,
    /// `kdim` rows deep.
    ///
    /// At stride 1 an output row is a contiguous run of the bordered
    /// sample under every tap, so it moves as runs cut where they cross
    /// into the next strip — each piece copied for all taps at once, at a
    /// width fixed outside that loop. A strided unfold is gathered element
    /// by element.
    fn strips(&self, x: &[f32]) -> Vec<f32> {
        let _scope = effects::kernel_scope("conv_unfold_strips");
        let bordered = self.bordered(x);
        if self.unfold.args.stride != 1 {
            return gather_strips(&bordered, &self.taps, &self.cells);
        }
        let (kdim, cols, wo) = (self.taps.len(), self.cells.len(), self.unfold.wo);
        let mut strips = vec![0.0f32; cols.div_ceil(NR) * kdim * NR];
        for row_end in (wo..=cols).step_by(wo) {
            let mut j = row_end - wo;
            while j < row_end {
                let lane = j % NR;
                let len = (NR - lane).min(row_end - j);
                let dst = &mut strips[j / NR * kdim * NR + lane..];
                let src = &bordered[self.cells[j]..];
                match len {
                    1 => copy_rows::<1>(dst, src, &self.taps),
                    2 => copy_rows::<2>(dst, src, &self.taps),
                    3 => copy_rows::<3>(dst, src, &self.taps),
                    4 => copy_rows::<4>(dst, src, &self.taps),
                    5 => copy_rows::<5>(dst, src, &self.taps),
                    6 => copy_rows::<6>(dst, src, &self.taps),
                    7 => copy_rows::<7>(dst, src, &self.taps),
                    _ => copy_rows::<NR>(dst, src, &self.taps),
                }
                j += len;
            }
        }
        strips
    }

    /// The *transposed* im2col matrix `[cols, kdim]` of sample `x` as the
    /// strip operand of [`sweep`]: strip `row / NR` holds unfolded row
    /// `row` in lane `row % NR`, `cols` deep.
    fn strips_transposed(&self, x: &[f32]) -> Vec<f32> {
        let _scope = effects::kernel_scope("conv_unfold_strips");
        gather_strips(&self.bordered(x), &self.cells, &self.taps)
    }
}

/// For every tap, copies the `LEN` floats at `src[tap..]` into that tap's
/// strip row, `NR` floats after the previous tap's.
fn copy_rows<const LEN: usize>(strips: &mut [f32], src: &[f32], taps: &[usize]) {
    for (row, &tap) in strips.chunks_mut(NR).zip(taps) {
        row[..LEN].copy_from_slice(&src[tap..tap + LEN]);
    }
}

/// Strips (the [`pack_strips`] layout) of the matrix whose element
/// `(r, l)` is `src[rows[r] + lanes[l]]`: `NR` loads and one store per
/// strip row, written front to back. The dead lanes of a ragged last strip
/// repeat a live one.
fn gather_strips(src: &[f32], rows: &[usize], lanes: &[usize]) -> Vec<f32> {
    let mut strips = Vec::with_capacity(lanes.len().div_ceil(NR) * rows.len() * NR);
    for group in lanes.chunks(NR) {
        let mut lane = [group[0]; NR];
        lane[..group.len()].copy_from_slice(group);
        // One range check per row instead of one per element: the assert
        // is what lets the compiler see every `window[l]` is in range.
        let span = lane.iter().fold(0, |hi, &l| hi.max(l)) + 1;
        assert!(lane.iter().all(|&l| l < span));
        for &r in rows {
            let window = &src[r..r + span];
            strips.extend_from_slice(&lane.map(|l| window[l]));
        }
    }
    strips
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
    let unfold = Unfold::new(c, (h, w), (kh, kw), args);
    let (kdim, cols) = (unfold.kdim(), unfold.cols());
    let filters = Mat::new(weight.data(), Layout::RowMajor, co, kdim);
    let mut out = vec![0.0f32; n * co * cols];
    let _scope = effects::kernel_scope("conv2d_fwd");
    // One sample per chunk; each sample's product writes a disjoint output
    // block. What the samples share — the packed filter bank, the unfold's
    // offset tables — is built here, once.
    let shared = (gemm_path() == GemmPath::Blocked).then(|| {
        let _scope = effects::kernel_scope("conv_pack_filters");
        (pack_tiles(filters, co, kdim), Gather::new(unfold))
    });
    let work = n as u64 * gemm_flops(co, kdim, cols);
    aibench_parallel::parallel_slice_mut_weighted(&mut out, co * cols, work, |range, out_s| {
        let s = range.start / (co * cols).max(1);
        effects::read(input.data(), s * c * h * w..(s + 1) * c * h * w);
        let x = &input.data()[s * c * h * w..(s + 1) * c * h * w];
        match &shared {
            Some((tiles, gather)) => sweep(tiles, &gather.strips(x), out_s, co, kdim, cols),
            // The scalar baseline: the sample in place where it is already
            // the [c, h*w] im2col matrix, a materialised unfold otherwise.
            None if unfold.is_identity() => {
                let sample = Mat::new(x, Layout::RowMajor, kdim, cols);
                gemm_into(filters, sample, out_s, co, kdim, cols)
            }
            None => {
                let col = unfold.im2col(x);
                let unfolded = Mat::new(&col, Layout::RowMajor, kdim, cols);
                gemm_into(filters, unfolded, out_s, co, kdim, cols);
            }
        }
    });
    Tensor::from_vec(out, &[n, co, ho, wo])
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
    let unfold = Unfold::new(ci, (h, w), (kh, kw), args);
    let (kdim, cols) = (unfold.kdim(), unfold.cols());
    // weight^T [kdim, co], read in place from the [co, kdim] filter bank.
    let wt = Mat::new(weight.data(), Layout::Transposed, kdim, co);
    let mut out = vec![0.0f32; n * ci * h * w];
    let _scope = effects::kernel_scope("conv2d_bwd_input");
    let tiles = (gemm_path() == GemmPath::Blocked).then(|| {
        let _scope = effects::kernel_scope("conv_pack_filters");
        pack_tiles(wt, kdim, co)
    });
    // One sample per chunk with a thread-local column buffer; each sample
    // folds into a disjoint input-gradient block.
    let work = n as u64 * gemm_flops(kdim, co, cols);
    aibench_parallel::parallel_slice_mut_weighted(&mut out, ci * h * w, work, |range, out_s| {
        let s = range.start / (ci * h * w).max(1);
        effects::read(grad_output.data(), s * co * cols..(s + 1) * co * cols);
        let g = &grad_output.data()[s * co * cols..(s + 1) * co * cols];
        let g = Mat::new(g, Layout::RowMajor, co, cols);
        let product = |into: &mut [f32]| match &tiles {
            Some(tiles) => sweep(tiles, &pack_strips(g, co, 0, cols), into, kdim, co, cols),
            None => gemm_into(wt, g, into, kdim, co, cols),
        };
        // Where the unfold is the identity so is col2im: the product is
        // the input gradient (no column buffer).
        if unfold.is_identity() {
            product(out_s);
        } else {
            let mut col = vec![0.0f32; kdim * cols];
            product(&mut col);
            unfold.col2im(&col, out_s);
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
    let unfold = Unfold::new(c, (h, w), kernel_hw, args);
    let (kdim, cols) = (unfold.kdim(), unfold.cols());
    let gather = (gemm_path() == GemmPath::Blocked).then(|| Gather::new(unfold));
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
            let g = &grad_output.data()[s * co * cols..(s + 1) * co * cols];
            let g = Mat::new(g, Layout::RowMajor, co, cols);
            // grad_w_s = g [co, cols] * col^T [cols, kdim].
            let mut gw_s = vec![0.0f32; co * kdim];
            if let Some(gather) = &gather {
                let tiles = pack_tiles(g, co, cols);
                let strips = gather.strips_transposed(x);
                sweep(&tiles, &strips, &mut gw_s, co, cols, kdim);
            } else {
                // The unfolded matrix read transposed where it lies.
                let col = unfold.im2col(x);
                let colt = Mat::new(&col, Layout::Transposed, cols, kdim);
                gemm_into(g, colt, &mut gw_s, co, cols, kdim);
            }
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
