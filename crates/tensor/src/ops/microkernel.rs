//! Packed, cache-blocked GEMM microkernels.
//!
//! This module is the hot core of every dense kernel in the workspace.
//! [`matmul`](super::matmul::matmul) and `batch_matmul` lower onto
//! `gemm_into`, which picks between three bitwise-
//! identical implementations by shape: above [`PACK_THRESHOLD_FLOPS`], the
//! classic three-level blocking scheme (GotoBLAS/BLIS) — operand matrices
//! repacked into contiguous panels sized for the cache hierarchy, swept by
//! an `MR x NR` register-tiled microkernel with all `C` accumulators held
//! in registers; below it, or with fewer than `MR` rows, the same register
//! microtile reading `A`/`B` in place (small operands are already
//! cache-resident, so packing would only add traffic, and packing all of
//! `B` to feed one live row of a tile never pays); and a 32x32 scalar
//! tiled kernel kept as the measurement
//! baseline ([`GemmPath::Scalar`]). The three conv2d kernels multiply one
//! shared operand by one operand per sample, so they pack the first once
//! per call (`pack_tiles`), build the second straight in strip layout, and
//! run the same microtile over both with `sweep` — no packing inside the
//! product at all.
//!
//! # Operand layouts
//!
//! Either operand may be handed over as its transpose ([`Layout`]): every
//! backward pass multiplies by one (`dA = g x B^T`, `dB = A^T x g`, the
//! conv weight gradient `g x col^T`, the conv input gradient `W^T x g`).
//! An operand is a buffer plus two strides (`Mat`), one of which is 1, and
//! the packers already copy every element once — so they read a transposed
//! source where it lies instead of a copy made for them: `pack_strip`
//! walks a transposed `B`'s columns (contiguous along `k`) down the strip's
//! lanes, `pack_a_panel` moves the `MR` adjacent values a transposed `A`
//! holds for each `k`, the in-place path packs a transposed `B` into the
//! same strips it already uses for a ragged column tail, and the scalar
//! baseline gathers a transposed `B` one 32x32 tile at a time into a stack
//! tile. Which path runs is decided by `(m, k, n)` alone, as before.
//!
//! # Blocking parameters
//!
//! | constant | value | role |
//! |---|---|---|
//! | [`MR`] | 4 | microtile rows (accumulator rows held in registers) |
//! | [`NR`] | 8 | microtile columns (two 4-lane / one 8-lane SIMD vector) |
//! | [`MC`] | 64 | rows per parallel row block (also the A-pack block) |
//! | [`KC`] | 256 | k-panel depth; one A strip (`MR x KC`) is 4 KiB |
//!
//! A `KC x NR` B strip (8 KiB) stays L1-resident while every row tile of a
//! block sweeps it; an `MC x KC` A block (64 KiB) sits in L2. The parallel
//! decomposition hands whole `MC`-row blocks to `aibench-parallel`, so the
//! thread partition coincides with the cache blocking exactly as the
//! previous scalar kernel's did.
//!
//! # Determinism
//!
//! Every path in this module — packed microkernel, in-place register-tiled
//! kernel, whole-`k` tile-by-strip sweep, scalar tiled baseline, and both
//! ISA instantiations of the first three — accumulates each output element
//! `C[i, j]` in **ascending `k` order with one `mul` + one `add` per term**
//! (no FMA contraction, no tree reduction over `k`). Packing only moves
//! inputs, whichever [`Layout`] it reads them from; padded lanes multiply into discarded scratch rows/columns and
//! never feed a live accumulator, and `k` is never padded. The result is
//! bitwise identical to the naive triple loop for every path, every blocking
//! parameter, and every `AIBENCH_THREADS` value — which is what lets
//! `tests/microkernel_bitwise.rs` pin all paths against
//! [`matmul_naive`](super::matmul::matmul_naive) exactly, not approximately.
//!
//! # One body, two instruction sets
//!
//! The row-level workers — `Sweep`, the packed row block and the in-place
//! row block, with the packers and register-tile helpers they inline — are
//! each written once as an `#[inline(always)]` `RowKernel::run` body and
//! compiled twice by `dispatch`: for the build's baseline target, and
//! under `#[target_feature(enable = "avx2")]`, where the compiler holds an
//! accumulator row in one 8-lane register instead of two 4-lane ones. Which
//! copy runs is decided by `is_x86_feature_detected!` alone — no build
//! flag, no setting. The vector lanes are the `NR` columns of the tile, so
//! widening a register changes how many columns one instruction serves and
//! nothing about what happens to a column: every element still sees one
//! `mul` and one `add` per `k` step, in ascending `k` (the `fma` target
//! feature is never enabled, and Rust never contracts `a * b + c` on its
//! own). The two copies therefore produce the same bits, which the
//! in-module test asserts wherever AVX2 exists.

use aibench_parallel::{effects, gemm_path, GemmPath};

/// Microtile rows: the microkernel keeps `MR x NR` accumulators live.
pub const MR: usize = 4;
/// Microtile columns: one 8-lane (or two 4-lane) f32 SIMD vector.
pub const NR: usize = 8;
/// Rows per parallel row block and per packed-A block.
pub const MC: usize = 64;
/// Depth of one packed k-panel.
pub const KC: usize = 256;

/// Minimum multiply-add count (`m * k * n`) for the packed path; below it
/// the repacking overhead outweighs the cache-blocking win and the in-place
/// register-tiled kernel (`gemm_small`) is used instead — as it is for any
/// product with fewer than [`MR`] rows, whose single ragged row tile would
/// not repay packing `B`. Size-derived only, so path selection never
/// depends on the thread count.
pub const PACK_THRESHOLD_FLOPS: usize = 24 * 1024;

/// Floating-point operations of one `[m,k] x [k,n]` product: the work
/// estimate every GEMM-lowered kernel hands the pool (a multiply and an add
/// per term). A function of the shape alone, as the engagement rule of
/// [`aibench_parallel::parallel_slice_mut_weighted`] requires.
pub(crate) fn gemm_flops(m: usize, k: usize, n: usize) -> u64 {
    2 * (m * k * n) as u64
}

/// How a tensor's row-major buffer holds a 2-D GEMM operand.
///
/// Products of transposes are common (every matmul and convolution
/// backward pass is one), and a transpose is only a different walk over the
/// same buffer: the kernels read a [`Layout::Transposed`] operand in place
/// while packing, so no caller has to materialise `x.t()` first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// The buffer is the operand itself: an `[r, c]` operand is stored as
    /// `[r, c]`.
    RowMajor,
    /// The buffer is the operand's transpose: an `[r, c]` operand is stored
    /// as `[c, r]`.
    Transposed,
}

/// One GEMM operand: a buffer and the strides that address the logical
/// matrix in it, element `(i, j)` at `i * rs + j * cs`. Built only by
/// [`Mat::new`], so one of the two strides is always 1 — the packers copy
/// along that direction and stride along the other.
#[derive(Clone, Copy)]
pub(crate) struct Mat<'a> {
    data: &'a [f32],
    rs: usize,
    cs: usize,
}

impl<'a> Mat<'a> {
    /// The logical `[rows, cols]` operand held in `data` under `layout`.
    pub(crate) fn new(data: &'a [f32], layout: Layout, rows: usize, cols: usize) -> Self {
        debug_assert_eq!(data.len(), rows * cols);
        match layout {
            Layout::RowMajor => Mat {
                data,
                rs: cols,
                cs: 1,
            },
            Layout::Transposed => Mat {
                data,
                rs: 1,
                cs: rows,
            },
        }
    }

    #[inline(always)]
    fn at(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.rs + j * self.cs]
    }

    /// Declares a chunk's read of the logical block `rows x cols` to the
    /// effect tracker, as the tightest single index range covering it.
    fn declare_read(&self, rows: std::ops::Range<usize>, cols: std::ops::Range<usize>) {
        let span = if rows.is_empty() || cols.is_empty() {
            0..0
        } else {
            rows.start * self.rs + cols.start * self.cs
                ..(rows.end - 1) * self.rs + (cols.end - 1) * self.cs + 1
        };
        effects::read(self.data, span);
    }
}

/// `out += a[m,k] * b[k,n]` over pre-zeroed (or pre-accumulated) `out`.
///
/// Dispatches per the context's [`GemmPath`]: the packed microkernel for
/// large shapes, the in-place register-tiled kernel for small ones, and the
/// scalar tiled baseline when forced. All paths are bitwise identical to
/// the naive triple loop and to each other, for every `AIBENCH_THREADS`
/// value and every operand [`Layout`].
pub(crate) fn gemm_into(a: Mat, b: Mat, out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(out.len(), m * n);
    if gemm_path() == GemmPath::Scalar {
        gemm_tiled(a, b, out, m, k, n);
    } else if m >= MR && m * k * n >= PACK_THRESHOLD_FLOPS && n >= NR {
        gemm_packed(a, b, out, m, k, n);
    } else {
        gemm_small(a, b, out, m, k, n);
    }
}

// ---------------------------------------------------------------------
// ISA dispatch
// ---------------------------------------------------------------------

/// A row-level worker: everything one chunk of a GEMM-lowered region does
/// to its block of output rows. Implementations mark `run` — and every
/// helper it calls — `#[inline(always)]`, so that [`dispatch`] compiles the
/// whole body once per instruction set.
pub(crate) trait RowKernel {
    /// Does the work, on the calling thread.
    fn run(self);
}

/// Runs `kernel` compiled for the widest vector unit this CPU has: the
/// AVX2 copy where the CPU reports AVX2, the baseline copy everywhere else.
/// Both copies produce the same bits (see the module docs).
#[inline]
pub(crate) fn dispatch<K: RowKernel>(kernel: K) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `run_avx2` is safe code whose only requirement is that
        // the CPU executes AVX2 instructions, which was just detected.
        #[allow(unsafe_code)]
        unsafe {
            run_avx2(kernel)
        };
        return;
    }
    kernel.run()
}

/// The AVX2 copy of every [`RowKernel`]: the same `run` body, inlined into
/// a function the compiler may vectorize eight lanes wide.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn run_avx2<K: RowKernel>(kernel: K) {
    kernel.run()
}

// ---------------------------------------------------------------------
// Scalar tiled baseline (the pre-microkernel kernel)
// ---------------------------------------------------------------------

/// Cache tile edge of the scalar baseline kernel: 32x32 f32 tiles (4 KiB)
/// keep three tiles inside a typical 32 KiB L1.
const TILE: usize = 32;

/// Scalar 32x32-tiled GEMM, parallel over [`TILE`]-row blocks. This is the
/// kernel the microkernel replaced; it remains the `aibench-perf` scalar
/// baseline.
pub(crate) fn gemm_tiled(a: Mat, b: Mat, out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(out.len(), m * n);
    let _scope = effects::kernel_scope("gemm");
    let work = gemm_flops(m, k, n);
    aibench_parallel::parallel_slice_mut_weighted(out, TILE * n, work, |rows, out_block| {
        debug_assert_eq!(rows.start % n.max(1), 0);
        let i_lo = rows.start / n.max(1);
        let i_hi = rows.end / n.max(1);
        // Each row block reads its own band of `a` and all of `b`; shared
        // reads never conflict.
        a.declare_read(i_lo..i_hi, 0..k);
        b.declare_read(0..k, 0..n);
        gemm_rows_tiled(a, b, out_block, i_lo..i_hi, k, n);
    });
}

/// Serial tile-blocked GEMM over the output rows `i_range`; `out_block` is
/// the output slice for exactly those rows. Accumulates each element in
/// ascending `k` order (bitwise-equal to the naive loop).
///
/// A transposed `b` has its current tile gathered into a row-major stack
/// tile first, so the inner loop stays the contiguous one the baseline has
/// always timed instead of turning into strided scalar loads.
fn gemm_rows_tiled(
    a: Mat,
    b: Mat,
    out_block: &mut [f32],
    i_range: std::ops::Range<usize>,
    k: usize,
    n: usize,
) {
    let (i_lo, i_hi) = (i_range.start, i_range.end);
    let mut b_tile = [0.0f32; TILE * TILE];
    for i0 in (i_lo..i_hi).step_by(TILE) {
        let i1 = (i0 + TILE).min(i_hi);
        for k0 in (0..k).step_by(TILE) {
            let k1 = (k0 + TILE).min(k);
            for j0 in (0..n).step_by(TILE) {
                let j1 = (j0 + TILE).min(n);
                if b.cs != 1 {
                    for (j, column) in (j0..j1).enumerate() {
                        let at = column * b.cs + k0;
                        let along_k = &b.data[at..at + (k1 - k0)];
                        for (row, &v) in b_tile.chunks_exact_mut(TILE).zip(along_k) {
                            row[j] = v;
                        }
                    }
                }
                for i in i0..i1 {
                    let out_row = &mut out_block[(i - i_lo) * n + j0..(i - i_lo) * n + j1];
                    for kk in k0..k1 {
                        let av = a.at(i, kk);
                        let b_row = if b.cs == 1 {
                            &b.data[kk * b.rs + j0..kk * b.rs + j1]
                        } else {
                            &b_tile[(kk - k0) * TILE..(kk - k0) * TILE + (j1 - j0)]
                        };
                        for (o, &bv) in out_row.iter_mut().zip(b_row) {
                            *o += av * bv;
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Register-tile I/O and strip packing shared by both microkernel paths
// ---------------------------------------------------------------------

/// Number of `NR`-column strips covering `n` columns.
fn n_strips(n: usize) -> usize {
    n.div_ceil(NR)
}

/// Loads the live `rows x cols` cells of the `C` tile at `(r0, j0)` of the
/// row block `c[., n]` into a zeroed accumulator tile. A full tile moves as
/// `MR` fixed-width rows (vector loads); only ragged edge tiles pay for
/// variable-length copies.
#[inline(always)]
fn load_tile(
    c: &[f32],
    n: usize,
    (r0, j0): (usize, usize),
    (rows, cols): (usize, usize),
) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    if (rows, cols) == (MR, NR) {
        for (r, acc_row) in acc.iter_mut().enumerate() {
            let at = (r0 + r) * n + j0;
            acc_row.copy_from_slice(&c[at..at + NR]);
        }
    } else {
        for (r, acc_row) in acc.iter_mut().enumerate().take(rows) {
            let at = (r0 + r) * n + j0;
            acc_row[..cols].copy_from_slice(&c[at..at + cols]);
        }
    }
    acc
}

/// Stores the live `rows x cols` cells of `acc` back to the `C` tile at
/// `(r0, j0)` (the mirror of [`load_tile`]); padded cells are dropped.
#[inline(always)]
fn store_tile(
    acc: &[[f32; NR]; MR],
    c: &mut [f32],
    n: usize,
    (r0, j0): (usize, usize),
    (rows, cols): (usize, usize),
) {
    if (rows, cols) == (MR, NR) {
        for (r, acc_row) in acc.iter().enumerate() {
            let at = (r0 + r) * n + j0;
            c[at..at + NR].copy_from_slice(acc_row);
        }
    } else {
        for (r, acc_row) in acc.iter().enumerate().take(rows) {
            let at = (r0 + r) * n + j0;
            c[at..at + cols].copy_from_slice(&acc_row[..cols]);
        }
    }
}

/// Packs the logical block `b[k_range, j0..j0 + cols]` into one `NR`-wide
/// strip: element `(kk, j)` at `kk * NR + j`, lanes `cols..NR` left as they
/// are (zero in a fresh buffer). `strip` holds `k_range.len() * NR` floats.
///
/// A row-major `b` is copied a row segment at a time (a full-width strip
/// as fixed `NR`-float moves). A transposed `b`
/// stores each logical column contiguously along `k`, so it is read a
/// column at a time — sequentially, in place — and scattered down the
/// strip's lane; nothing is transposed in memory first.
fn pack_strip(b: Mat, strip: &mut [f32], k_range: std::ops::Range<usize>, j0: usize, cols: usize) {
    debug_assert_eq!(strip.len(), k_range.len() * NR);
    if b.cs == 1 && cols == NR {
        // A full strip row moves at a fixed width, not by a `memcpy` call.
        for (kk, dst) in k_range.zip(strip.chunks_exact_mut(NR)) {
            let at = kk * b.rs + j0;
            dst.copy_from_slice(&b.data[at..at + NR]);
        }
    } else if b.cs == 1 {
        for (kk, dst) in k_range.zip(strip.chunks_exact_mut(NR)) {
            let at = kk * b.rs + j0;
            dst[..cols].copy_from_slice(&b.data[at..at + cols]);
        }
    } else {
        for j in 0..cols {
            let at = (j0 + j) * b.cs + k_range.start;
            let column = &b.data[at..at + k_range.len()];
            for (dst, &v) in strip.chunks_exact_mut(NR).zip(column) {
                dst[j] = v;
            }
        }
    }
}

// ---------------------------------------------------------------------
// In-place register-tiled path (small shapes)
// ---------------------------------------------------------------------

/// Register-tiled GEMM for sub-threshold shapes: the same `MR x NR`
/// microtile as the packed path, but reading `A` — and a row-major `B` — in
/// place. At these sizes both operands are cache-resident already, so
/// packing would only add memory traffic; the win over the scalar tiled
/// baseline is keeping each `C` microtile in registers across the whole `k`
/// extent (one load + one store per output element instead of one per
/// k-tile).
fn gemm_small(a: Mat, b: Mat, out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(out.len(), m * n);
    let packed = pack_strips(b, k, small_packed_from(b, n), n);
    let _scope = effects::kernel_scope("gemm");
    let work = gemm_flops(m, k, n);
    aibench_parallel::parallel_slice_mut_weighted(out, TILE * n.max(1), work, |rows, out_block| {
        debug_assert_eq!(rows.start % n.max(1), 0);
        let i_lo = rows.start / n.max(1);
        let i_hi = rows.end / n.max(1);
        a.declare_read(i_lo..i_hi, 0..k);
        b.declare_read(0..k, 0..n);
        effects::read(&packed, 0..packed.len());
        dispatch(SmallRows {
            a,
            b,
            packed: &packed,
            out_block,
            rows: i_lo..i_hi,
            k,
            n,
        });
    });
}

/// First column of `b[k, n]` the small path reads from packed strips
/// rather than in place: the `n % NR` trailing columns of a row-major `b`
/// (a ragged strip cannot feed a full-width vector load), every column of a
/// transposed `b` (its rows are not contiguous at all).
fn small_packed_from(b: Mat, n: usize) -> usize {
    if b.cs == 1 {
        n - n % NR
    } else {
        0
    }
}

/// Packs the columns `from..n` of `b[k, n]` into whole-`k` strips (`k * NR`
/// floats each, the [`pack_strip`] layout, zero-padded to `NR` lanes): the
/// strip operand of [`sweep`] with `from = 0`, and what keeps the small
/// path's ragged and transposed columns ([`small_packed_from`]; none for a
/// row-major `b` without a column remainder) on the register microkernel —
/// padded lanes accumulate into discarded scratch columns — instead of a
/// slow per-element loop.
pub(crate) fn pack_strips(b: Mat, k: usize, from: usize, n: usize) -> Vec<f32> {
    let mut packed = vec![0.0f32; n_strips(n - from) * k * NR];
    if k > 0 {
        for (s, strip) in packed.chunks_exact_mut(k * NR).enumerate() {
            let j0 = from + s * NR;
            pack_strip(b, strip, 0..k, j0, NR.min(n - j0));
        }
    }
    packed
}

/// Serial register-tiled GEMM over the output rows `rows`; `out_block` is
/// the output slice for exactly those rows. Each `MR x NR` tile runs the
/// in-place microkernel against `b` directly, or against its pre-packed
/// strip for the columns [`pack_strips`] covers; the row remainder uses a
/// single-row variant. Every path accumulates each element in ascending
/// `k` order, bitwise-equal to the naive loop.
struct SmallRows<'a> {
    a: Mat<'a>,
    b: Mat<'a>,
    packed: &'a [f32],
    out_block: &'a mut [f32],
    rows: std::ops::Range<usize>,
    k: usize,
    n: usize,
}

impl RowKernel for SmallRows<'_> {
    #[inline(always)]
    fn run(self) {
        let SmallRows {
            a,
            b,
            packed,
            out_block,
            rows,
            k,
            n,
        } = self;
        let (i_lo, i_hi) = (rows.start, rows.end);
        let packed_from = small_packed_from(b, n);
        for i0 in (i_lo..i_hi).step_by(MR) {
            let live = MR.min(i_hi - i0);
            for j0 in (0..n).step_by(NR) {
                // `B` rows of this strip: `NR` lanes from `offset`, `stride`
                // apart — in place, or in the strip packed for these columns
                // (only the live columns are stored back).
                let (strip, offset, stride) = if j0 < packed_from {
                    (b.data, j0, b.rs)
                } else {
                    let s = (j0 - packed_from) / NR;
                    (&packed[s * k * NR..(s + 1) * k * NR], 0, NR)
                };
                let (at, cells) = ((i0 - i_lo, j0), (live, NR.min(n - j0)));
                let mut acc = load_tile(out_block, n, at, cells);
                if live == MR {
                    micro_tile_inplace(a, strip, i0, offset, k, stride, &mut acc);
                } else {
                    for (r, acc_row) in acc.iter_mut().enumerate().take(live) {
                        row_tile_inplace(a, strip, i0 + r, offset, k, stride, acc_row);
                    }
                }
                store_tile(&acc, out_block, n, at, cells);
            }
        }
    }
}

/// In-place `MR x NR` microkernel: `acc += A[i0.., :] * B[:, j0..]` with
/// `A` read at its own strides and `B` rows read at stride `b_stride`
/// from offset `j0` (pass a packed strip with `j0 = 0`, `b_stride = NR`).
/// The `NR` lane loop is the one the compiler vectorizes.
#[inline(always)]
fn micro_tile_inplace(
    a: Mat,
    b: &[f32],
    i0: usize,
    j0: usize,
    k: usize,
    b_stride: usize,
    acc: &mut [[f32; NR]; MR],
) {
    for kk in 0..k {
        let bv: &[f32] = &b[kk * b_stride + j0..kk * b_stride + j0 + NR];
        for (r, acc_row) in acc.iter_mut().enumerate() {
            let av = a.at(i0 + r, kk);
            for j in 0..NR {
                acc_row[j] += av * bv[j];
            }
        }
    }
}

/// Single-row edge of the in-place microkernel (row remainder when fewer
/// than `MR` live rows remain). Same `B` addressing as
/// [`micro_tile_inplace`].
#[inline(always)]
fn row_tile_inplace(
    a: Mat,
    b: &[f32],
    i: usize,
    j0: usize,
    k: usize,
    b_stride: usize,
    acc_row: &mut [f32; NR],
) {
    for kk in 0..k {
        let av = a.at(i, kk);
        let bv = &b[kk * b_stride + j0..kk * b_stride + j0 + NR];
        for j in 0..NR {
            acc_row[j] += av * bv[j];
        }
    }
}

// ---------------------------------------------------------------------
// Packed microkernel path
// ---------------------------------------------------------------------

/// Packed cache-blocked GEMM. `B` is packed once into `KC x NR` strips
/// (shared read-only by all row blocks); each `MC`-row block then packs its
/// own `A` panel and sweeps the microkernel.
fn gemm_packed(a: Mat, b: Mat, out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(out.len(), m * n);
    let bp = pack_b(b, k, n);
    let _scope = effects::kernel_scope("gemm");
    let work = gemm_flops(m, k, n);
    aibench_parallel::parallel_slice_mut_weighted(out, MC * n, work, |rows, out_block| {
        debug_assert_eq!(rows.start % n, 0);
        let i_lo = rows.start / n;
        let i_hi = rows.end / n;
        a.declare_read(i_lo..i_hi, 0..k);
        effects::read(&bp, 0..bp.len());
        dispatch(PackedRows {
            a,
            bp: &bp,
            out_block,
            rows: i_lo..i_hi,
            k,
            n,
        });
    });
}

/// Packs `b[k, n]` into `KC`-deep, `NR`-wide column strips.
///
/// Layout: k-panels in ascending order; within a panel of depth `lp`, strip
/// `s` occupies `lp * NR` contiguous floats at offset
/// `panel_base + s * lp * NR`, with element `(kk, j)` at `kk * NR + j`.
/// Columns beyond `n` in the last strip are zero; the microkernel's padded
/// lanes compute into discarded scratch, so the padding never reaches live
/// output.
fn pack_b(b: Mat, k: usize, n: usize) -> Vec<f32> {
    let strips = n_strips(n);
    let mut bp = vec![0.0f32; k * strips * NR];
    let _scope = effects::kernel_scope("gemm_pack_b");
    let mut panel_base = 0;
    for kc0 in (0..k).step_by(KC) {
        let lp = (kc0 + KC).min(k) - kc0;
        let panel = &mut bp[panel_base..panel_base + lp * strips * NR];
        // One strip per chunk: each strip is written by exactly one thread
        // and reads its own column band of `b`.
        // Every element of the panel is read once and written once.
        let work = (panel.len() * 2) as u64;
        aibench_parallel::parallel_slice_mut_weighted(panel, lp * NR, work, |range, strip| {
            let j0 = range.start / (lp * NR) * NR;
            b.declare_read(kc0..kc0 + lp, 0..n);
            pack_strip(b, strip, kc0..kc0 + lp, j0, NR.min(n - j0));
        });
        panel_base += lp * strips * NR;
    }
    bp
}

/// Packs the rows `i_lo..i_hi` of `a[., k]`, k-panel `kc0..kc0+lp`, into
/// `MR`-row tiles: tile `t` occupies `lp * MR` floats with element
/// `(kk, r)` at `kk * MR + r`. Rows beyond `i_hi` are zero (discarded by
/// the microkernel's row masking).
///
/// A row-major `a` is read a row at a time and scattered down the tile's
/// lane; a transposed `a` already stores the `MR` values of one `kk` side
/// by side, so they move together.
#[inline(always)]
fn pack_a_panel(a: Mat, ap: &mut [f32], i_range: std::ops::Range<usize>, kc0: usize, lp: usize) {
    let (i_lo, i_hi) = (i_range.start, i_range.end);
    let tiles = (i_hi - i_lo).div_ceil(MR);
    for t in 0..tiles {
        let tile = &mut ap[t * lp * MR..(t + 1) * lp * MR];
        let i0 = i_lo + t * MR;
        let live = MR.min(i_hi - i0);
        if a.cs == 1 {
            for r in 0..MR {
                if r < live {
                    let at = (i0 + r) * a.rs + kc0;
                    for (dst, &v) in tile.chunks_exact_mut(MR).zip(&a.data[at..at + lp]) {
                        dst[r] = v;
                    }
                } else {
                    for dst in tile.chunks_exact_mut(MR) {
                        dst[r] = 0.0;
                    }
                }
            }
        } else {
            for (kk, dst) in tile.chunks_exact_mut(MR).enumerate() {
                let at = (kc0 + kk) * a.cs + i0;
                for (d, &v) in dst.iter_mut().zip(&a.data[at..at + live]) {
                    *d = v;
                }
                dst[live..].fill(0.0);
            }
        }
    }
}

/// Serial packed GEMM over one row block: packs each A panel locally, then
/// sweeps every B strip with the register microkernel.
struct PackedRows<'a> {
    a: Mat<'a>,
    bp: &'a [f32],
    out_block: &'a mut [f32],
    rows: std::ops::Range<usize>,
    k: usize,
    n: usize,
}

impl RowKernel for PackedRows<'_> {
    #[inline(always)]
    fn run(self) {
        let PackedRows {
            a,
            bp,
            out_block,
            rows: i_range,
            k,
            n,
        } = self;
        let rows = i_range.len();
        let tiles = rows.div_ceil(MR);
        let strips = n_strips(n);
        let mut ap = vec![0.0f32; tiles * MR * KC.min(k.max(1))];
        let mut panel_base = 0;
        for kc0 in (0..k).step_by(KC) {
            let lp = (kc0 + KC).min(k) - kc0;
            pack_a_panel(a, &mut ap, i_range.clone(), kc0, lp);
            for s in 0..strips {
                let j0 = s * NR;
                let bs = &bp[panel_base + s * lp * NR..panel_base + (s + 1) * lp * NR];
                for t in 0..tiles {
                    let at = &ap[t * lp * MR..(t + 1) * lp * MR];
                    let r0 = t * MR;
                    // Load the live C cells into the accumulator tile, run
                    // the microkernel over the whole (possibly padded) tile,
                    // and store only the live cells back. Padded cells
                    // accumulate zero-products into scratch that is simply
                    // discarded.
                    let live = (MR.min(rows - r0), NR.min(n - j0));
                    let mut acc = load_tile(out_block, n, (r0, j0), live);
                    micro_tile(at, bs, lp, &mut acc);
                    store_tile(&acc, out_block, n, (r0, j0), live);
                }
            }
            panel_base += lp * strips * NR;
        }
    }
}

/// The `MR x NR` register microkernel: `acc += A-tile * B-strip` over `lp`
/// steps of `k`, each accumulator updated once per `kk` in ascending order.
/// The `NR` lane loop is the one the compiler vectorizes.
#[inline(always)]
fn micro_tile(at: &[f32], bs: &[f32], lp: usize, acc: &mut [[f32; NR]; MR]) {
    for kk in 0..lp {
        let b: &[f32] = &bs[kk * NR..kk * NR + NR];
        let a: &[f32] = &at[kk * MR..kk * MR + MR];
        for r in 0..MR {
            let av = a[r];
            for j in 0..NR {
                acc[r][j] += av * b[j];
            }
        }
    }
}

// ---------------------------------------------------------------------
// Whole-`k` sweep over operands packed by the caller
// ---------------------------------------------------------------------

/// Packs all of `a[m, k]` into `MR`-row tiles of full depth: tile `t` holds
/// rows `t * MR..` as `k * MR` floats, element `(kk, r)` at `kk * MR + r`,
/// rows beyond `m` zero. The tile operand of [`sweep`]; a caller whose `a`
/// is shared by many products packs it once for all of them.
pub(crate) fn pack_tiles(a: Mat, m: usize, k: usize) -> Vec<f32> {
    let mut tiles = vec![0.0f32; m.div_ceil(MR) * MR * k];
    pack_a_panel(a, &mut tiles, 0..m, 0, k);
    tiles
}

/// `out[m, n] += tiles x strips`: the product of an `[m, k]` operand packed
/// by [`pack_tiles`] and a `[k, n]` operand laid out as [`pack_strips`]
/// lays it — strip `s` holds columns `s * NR..` as `k * NR` floats, element
/// `(kk, j)` at `kk * NR + j`, lanes beyond `n` ignored. Each element takes
/// its `k` terms in ascending order, so on a zeroed `out` the result is bit
/// for bit [`gemm_into`]'s.
///
/// This is the lowering for a caller that builds the operands itself: the
/// convolutions pack their filter bank once per call and unfold each sample
/// straight into strips, so nothing is packed twice and no intermediate
/// matrix exists. Like every GEMM here it splits `out` over `MC`-row blocks
/// — which engages the pool only for a product that is a region of its own
/// (a one-sample convolution), and runs inline when nested in a sample's
/// chunk.
pub(crate) fn sweep(tiles: &[f32], strips: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(out.len(), m * n);
    debug_assert_eq!(tiles.len(), m.div_ceil(MR) * MR * k);
    debug_assert_eq!(strips.len(), n_strips(n) * k * NR);
    let _scope = effects::kernel_scope("gemm");
    let work = gemm_flops(m, k, n);
    aibench_parallel::parallel_slice_mut_weighted(out, MC * n, work, |rows, out_block| {
        debug_assert_eq!(rows.start % n, 0);
        let block = rows.start / n / MR * MR * k..(rows.end / n).div_ceil(MR) * MR * k;
        effects::read(tiles, block.clone());
        effects::read(strips, 0..strips.len());
        dispatch(Sweep {
            tiles: &tiles[block],
            strips,
            out_block,
            k,
            n,
        });
    });
}

/// One row block of [`sweep`]: every strip against every tile of the block,
/// the strip (the larger of the two) held in cache across the tiles. The
/// accumulators are loaded from `out_block` rather than started from a
/// literal zero tile: that is what hands the vectorizer four `NR`-lane
/// rows (a constant tile gets regrouped into shuffles, 3x slower).
struct Sweep<'a> {
    tiles: &'a [f32],
    strips: &'a [f32],
    out_block: &'a mut [f32],
    k: usize,
    n: usize,
}

impl RowKernel for Sweep<'_> {
    #[inline(always)]
    fn run(self) {
        let Sweep {
            tiles,
            strips,
            out_block,
            k,
            n,
        } = self;
        let rows = out_block.len() / n;
        for (s, j0) in (0..n).step_by(NR).enumerate() {
            let bs = &strips[s * k * NR..(s + 1) * k * NR];
            for (t, r0) in (0..rows).step_by(MR).enumerate() {
                let at = &tiles[t * k * MR..(t + 1) * k * MR];
                let live = (MR.min(rows - r0), NR.min(n - j0));
                let mut acc = load_tile(out_block, n, (r0, j0), live);
                micro_tile(at, bs, k, &mut acc);
                store_tile(&acc, out_block, n, (r0, j0), live);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive `k`-ascending reference with identical per-element order.
    fn gemm_naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for kk in 0..k {
                let av = a[i * k + kk];
                for j in 0..n {
                    out[i * n + j] += av * b[kk * n + j];
                }
            }
        }
        out
    }

    fn rm(data: &[f32], rows: usize, cols: usize) -> Mat<'_> {
        Mat::new(data, Layout::RowMajor, rows, cols)
    }

    fn fill(seed: u64, len: usize) -> Vec<f32> {
        let mut rng = crate::Rng::seed_from(seed);
        (0..len).map(|_| rng.normal()).collect()
    }

    #[test]
    fn packed_is_bitwise_equal_to_naive() {
        for &(m, k, n) in &[
            (1, 1, 8),
            (4, 300, 8),
            (5, 7, 9),
            (33, 257, 65),
            (64, 512, 40),
            (130, 70, 130),
        ] {
            let a = fill(m as u64 * 31 + n as u64, m * k);
            let b = fill(k as u64 * 17 + 1, k * n);
            let want = gemm_naive(&a, &b, m, k, n);
            let mut got = vec![0.0f32; m * n];
            gemm_packed(rm(&a, m, k), rm(&b, k, n), &mut got, m, k, n);
            assert!(
                got.iter()
                    .zip(&want)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "packed != naive at ({m},{k},{n})"
            );
            let mut tiled = vec![0.0f32; m * n];
            gemm_tiled(rm(&a, m, k), rm(&b, k, n), &mut tiled, m, k, n);
            assert!(
                tiled
                    .iter()
                    .zip(&want)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "tiled != naive at ({m},{k},{n})"
            );
            let mut small = vec![0.0f32; m * n];
            gemm_small(rm(&a, m, k), rm(&b, k, n), &mut small, m, k, n);
            assert!(
                small
                    .iter()
                    .zip(&want)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "small != naive at ({m},{k},{n})"
            );
        }
    }

    /// `sweep` over operands packed by `pack_tiles` / `pack_strips` adds to
    /// a zeroed output exactly what the naive loop produces, including
    /// ragged row tiles, ragged strips, fewer than `MR` rows, more than one
    /// `MC` row block and an empty `k`.
    #[test]
    fn sweep_is_bitwise_equal_to_naive() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (1, 16, 64),
            (3, 9, 7),
            (4, 0, 8),
            (6, 54, 100),
            (8, 72, 144),
            (70, 20, 19),
            (130, 33, 41),
        ] {
            let a = fill(m as u64 * 13 + k as u64, m * k);
            let b = fill(n as u64 * 7 + 2, k * n);
            let want = gemm_naive(&a, &b, m, k, n);
            let tiles = pack_tiles(rm(&a, m, k), m, k);
            let strips = pack_strips(rm(&b, k, n), k, 0, n);
            let mut got = vec![0.0f32; m * n];
            sweep(&tiles, &strips, &mut got, m, k, n);
            assert!(
                got.iter()
                    .zip(&want)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "sweep != naive at ({m},{k},{n})"
            );
        }
    }

    /// The baseline and AVX2 copies of every row kernel produce the same
    /// bits: `run()` here is the baseline copy, `dispatch` the AVX2 one
    /// wherever the CPU has it (and the same copy, trivially equal, where
    /// it does not).
    #[test]
    fn isa_instantiations_agree_bit_for_bit() {
        for &(m, k, n) in &[(5, 7, 9), (8, 72, 144), (33, 257, 65), (3, 300, 50)] {
            let a = fill(m as u64 * 19 + 1, m * k);
            let b = fill(k as u64 * 23 + 2, k * n);
            let (am, bm) = (rm(&a, m, k), rm(&b, k, n));
            // Builds the kernel twice over fresh zeroed outputs: once run
            // as the baseline copy, once through `dispatch`.
            macro_rules! agree {
                ($what:literal, |$out:ident| $kernel:expr) => {{
                    let (mut base, mut wide) = (vec![0.0f32; m * n], vec![0.0f32; m * n]);
                    {
                        let $out = &mut base[..];
                        $kernel.run();
                    }
                    {
                        let $out = &mut wide[..];
                        dispatch($kernel);
                    }
                    assert!(
                        base.iter()
                            .zip(&wide)
                            .all(|(x, y)| x.to_bits() == y.to_bits()),
                        "{} ({m},{k},{n}): baseline != dispatched",
                        $what
                    );
                }};
            }
            let packed = pack_strips(bm, k, small_packed_from(bm, n), n);
            agree!("in-place rows", |out_block| SmallRows {
                a: am,
                b: bm,
                packed: &packed,
                out_block,
                rows: 0..m,
                k,
                n,
            });
            let bp = pack_b(bm, k, n);
            agree!("packed rows", |out_block| PackedRows {
                a: am,
                bp: &bp,
                out_block,
                rows: 0..m,
                k,
                n,
            });
            let tiles = pack_tiles(am, m, k);
            let strips = pack_strips(bm, k, 0, n);
            agree!("sweep", |out_block| Sweep {
                tiles: &tiles,
                strips: &strips,
                out_block,
                k,
                n,
            });
        }
    }

    #[test]
    fn zero_size_edges_are_no_ops() {
        let mut out: Vec<f32> = Vec::new();
        gemm_packed(rm(&[], 0, 0), rm(&[], 0, 0), &mut out, 0, 0, 0);
        gemm_tiled(rm(&[], 0, 0), rm(&[], 0, 0), &mut out, 0, 0, 0);
        gemm_small(rm(&[], 0, 0), rm(&[], 0, 0), &mut out, 0, 0, 0);
        let mut out = vec![0.0f32; 3];
        gemm_tiled(rm(&[], 1, 0), rm(&[], 0, 3), &mut out, 1, 0, 3);
        assert_eq!(out, vec![0.0; 3]);
        let mut out = vec![0.0f32; 3];
        gemm_small(rm(&[], 1, 0), rm(&[], 0, 3), &mut out, 1, 0, 3);
        assert_eq!(out, vec![0.0; 3]);
    }
}
