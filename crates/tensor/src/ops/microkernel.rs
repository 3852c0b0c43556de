//! Packed, cache-blocked GEMM microkernels.
//!
//! This module is the hot core of every dense kernel in the workspace:
//! [`matmul`](super::matmul::matmul), `batch_matmul`, and all three conv2d
//! kernels lower onto `gemm_into`, which picks between three bitwise-
//! identical implementations by shape: above [`PACK_THRESHOLD_FLOPS`], the
//! classic three-level blocking scheme (GotoBLAS/BLIS) — operand matrices
//! repacked into contiguous panels sized for the cache hierarchy, swept by
//! an `MR x NR` register-tiled microkernel with all `C` accumulators held
//! in registers; below it, the same register microtile reading `A`/`B` in
//! place (small operands are already cache-resident, so packing would only
//! add traffic); and a 32x32 scalar tiled kernel kept as the measurement
//! baseline ([`GemmPath::Scalar`]).
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
//! kernel, scalar tiled baseline, and the optional `simd` builds of each —
//! accumulates each output element
//! `C[i, j]` in **ascending `k` order with one `mul` + one `add` per term**
//! (no FMA contraction, no tree reduction over `k`). Packing only moves
//! inputs; padded lanes multiply into discarded scratch rows/columns and
//! never feed a live accumulator, and `k` is never padded. The result is
//! bitwise identical to the naive triple loop for every path, every blocking
//! parameter, and every `AIBENCH_THREADS` value — which is what lets
//! `tests/microkernel_bitwise.rs` pin all paths against
//! [`matmul_naive`](super::matmul::matmul_naive) exactly, not approximately.
//!
//! # The `simd` feature
//!
//! With the crate's `simd` feature enabled (nightly toolchain required),
//! the microkernel's inner loop uses `std::simd` 8-lane vectors explicitly
//! instead of relying on autovectorization. Lanes map one-to-one onto the
//! `NR` microtile columns, so each element still sees the same scalar
//! operation sequence: the `simd` build is bitwise identical to the default
//! build by construction, and the regression tests run unchanged under it.

use std::sync::atomic::{AtomicU8, Ordering};

use aibench_parallel::effects;

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
/// register-tiled kernel (`gemm_small`) is used instead. Size-derived
/// only, so path selection never depends on the thread count.
pub const PACK_THRESHOLD_FLOPS: usize = 24 * 1024;

/// Which GEMM implementation `gemm_into` dispatches to.
///
/// The default, [`GemmPath::Blocked`], picks the packed microkernel for
/// shapes above [`PACK_THRESHOLD_FLOPS`] and the in-place register-tiled
/// kernel below it. [`GemmPath::Scalar`] forces the pre-microkernel 32x32
/// tiled scalar kernel everywhere; the `aibench-perf` harness uses it to
/// measure the microkernels' speedup against that baseline in one process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemmPath {
    /// Packed microkernel above the size threshold, in-place register
    /// tiling below it.
    Blocked,
    /// Always the 32x32 tiled scalar kernel (the measurement baseline).
    Scalar,
}

static GEMM_PATH: AtomicU8 = AtomicU8::new(0);

/// Selects the GEMM implementation process-wide.
///
/// Both paths produce bitwise-identical results (see the module docs), so
/// this is purely a measurement aid: the perf harness flips it to time the
/// scalar baseline against the microkernel in the same process. Not
/// intended to be raced from concurrent threads.
pub fn set_gemm_path(path: GemmPath) {
    GEMM_PATH.store(
        match path {
            GemmPath::Blocked => 0,
            GemmPath::Scalar => 1,
        },
        Ordering::Relaxed,
    );
}

/// The currently selected GEMM implementation (see [`set_gemm_path`]).
pub fn gemm_path() -> GemmPath {
    match GEMM_PATH.load(Ordering::Relaxed) {
        1 => GemmPath::Scalar,
        _ => GemmPath::Blocked,
    }
}

/// Floating-point operations of one `[m,k] x [k,n]` product: the work
/// estimate every GEMM-lowered kernel hands the pool (a multiply and an add
/// per term). A function of the shape alone, as the engagement rule of
/// [`aibench_parallel::parallel_slice_mut_weighted`] requires.
pub(crate) fn gemm_flops(m: usize, k: usize, n: usize) -> u64 {
    2 * (m * k * n) as u64
}

/// `out += a[m,k] * b[k,n]` over pre-zeroed (or pre-accumulated) `out`.
///
/// Dispatches per [`gemm_path`]: the packed microkernel for large shapes,
/// the in-place register-tiled kernel for small ones, and the scalar tiled
/// baseline when forced. All paths are bitwise identical to the naive
/// triple loop and to each other, for every `AIBENCH_THREADS` value.
pub(crate) fn gemm_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(out.len(), m * n);
    if gemm_path() == GemmPath::Scalar {
        gemm_tiled(a, b, out, m, k, n);
    } else if m * k * n >= PACK_THRESHOLD_FLOPS && n >= NR {
        gemm_packed(a, b, out, m, k, n);
    } else {
        gemm_small(a, b, out, m, k, n);
    }
}

// ---------------------------------------------------------------------
// Scalar tiled baseline (the pre-microkernel kernel)
// ---------------------------------------------------------------------

/// Cache tile edge of the scalar baseline kernel: 32x32 f32 tiles (4 KiB)
/// keep three tiles inside a typical 32 KiB L1.
const TILE: usize = 32;

/// Scalar 32x32-tiled GEMM, parallel over [`TILE`]-row blocks. This is the
/// kernel the microkernel replaced; it remains the small-shape path and the
/// `aibench-perf` scalar baseline.
pub(crate) fn gemm_tiled(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(out.len(), m * n);
    let _scope = effects::kernel_scope("gemm");
    let work = gemm_flops(m, k, n);
    aibench_parallel::parallel_slice_mut_weighted(out, TILE * n, work, |rows, out_block| {
        debug_assert_eq!(rows.start % n.max(1), 0);
        let i_lo = rows.start / n.max(1);
        let i_hi = rows.end / n.max(1);
        // Each row block reads its own band of `a` and all of `b`; shared
        // reads never conflict.
        effects::read(a, i_lo * k..i_hi * k);
        effects::read(b, 0..k * n);
        gemm_rows_tiled(a, b, out_block, i_lo..i_hi, k, n);
    });
}

/// Serial tile-blocked GEMM over the output rows `i_range`; `out_block` is
/// the output slice for exactly those rows. Accumulates each element in
/// ascending `k` order (bitwise-equal to the naive loop).
fn gemm_rows_tiled(
    a: &[f32],
    b: &[f32],
    out_block: &mut [f32],
    i_range: std::ops::Range<usize>,
    k: usize,
    n: usize,
) {
    let (i_lo, i_hi) = (i_range.start, i_range.end);
    for i0 in (i_lo..i_hi).step_by(TILE) {
        let i1 = (i0 + TILE).min(i_hi);
        for k0 in (0..k).step_by(TILE) {
            let k1 = (k0 + TILE).min(k);
            for j0 in (0..n).step_by(TILE) {
                let j1 = (j0 + TILE).min(n);
                for i in i0..i1 {
                    let a_row = &a[i * k..i * k + k];
                    let out_row = &mut out_block[(i - i_lo) * n..(i - i_lo) * n + n];
                    for kk in k0..k1 {
                        let av = a_row[kk];
                        let b_row = &b[kk * n..kk * n + n];
                        for j in j0..j1 {
                            out_row[j] += av * b_row[j];
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// In-place register-tiled path (small shapes)
// ---------------------------------------------------------------------

/// Register-tiled GEMM for sub-threshold shapes: the same `MR x NR`
/// microtile as the packed path, but reading `A` and `B` in place. At
/// these sizes both operands are cache-resident already, so packing would
/// only add memory traffic; the win over the scalar tiled baseline is
/// keeping each `C` microtile in registers across the whole `k` extent
/// (one load + one store per output element instead of one per k-tile).
fn gemm_small(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(out.len(), m * n);
    let tail = pack_tail(b, k, n);
    let _scope = effects::kernel_scope("gemm");
    let work = gemm_flops(m, k, n);
    aibench_parallel::parallel_slice_mut_weighted(out, TILE * n.max(1), work, |rows, out_block| {
        debug_assert_eq!(rows.start % n.max(1), 0);
        let i_lo = rows.start / n.max(1);
        let i_hi = rows.end / n.max(1);
        effects::read(a, i_lo * k..i_hi * k);
        effects::read(b, 0..k * n);
        effects::read(&tail, 0..tail.len());
        gemm_rows_small(a, b, &tail, out_block, i_lo..i_hi, k, n);
    });
}

/// Packs the `n % NR` trailing columns of `b[k, n]` into one zero-padded
/// `NR`-wide strip (element `(kk, j)` at `kk * NR + j`, the same layout as
/// a [`pack_b`] strip). Returns an empty vector when `NR` divides `n`.
/// This keeps the column remainder on the register microkernel — padded
/// lanes accumulate into discarded scratch columns — instead of a slow
/// per-element tail loop.
fn pack_tail(b: &[f32], k: usize, n: usize) -> Vec<f32> {
    let rem = n % NR;
    if rem == 0 {
        return Vec::new();
    }
    let j0 = n - rem;
    let mut tail = vec![0.0f32; k * NR];
    for kk in 0..k {
        tail[kk * NR..kk * NR + rem].copy_from_slice(&b[kk * n + j0..kk * n + j0 + rem]);
    }
    tail
}

/// Serial register-tiled GEMM over the output rows `i_range`. Full
/// `MR x NR` tiles run the in-place microkernel against `b` directly; the
/// column remainder runs it against the pre-packed `tail` strip; the row
/// remainder uses a single-row variant. Every path accumulates each
/// element in ascending `k` order, bitwise-equal to the naive loop.
fn gemm_rows_small(
    a: &[f32],
    b: &[f32],
    tail: &[f32],
    out_block: &mut [f32],
    i_range: std::ops::Range<usize>,
    k: usize,
    n: usize,
) {
    let (i_lo, i_hi) = (i_range.start, i_range.end);
    let rem = n % NR;
    let n_full = n - rem;
    for i0 in (i_lo..i_hi).step_by(MR) {
        let live = MR.min(i_hi - i0);
        for j0 in (0..n_full).step_by(NR) {
            let mut acc = [[0.0f32; NR]; MR];
            for (r, acc_row) in acc.iter_mut().enumerate().take(live) {
                let c_row = &out_block[(i0 - i_lo + r) * n + j0..(i0 - i_lo + r) * n + j0 + NR];
                acc_row.copy_from_slice(c_row);
            }
            if live == MR {
                micro_tile_inplace(a, b, i0, j0, k, n, &mut acc);
            } else {
                for (r, acc_row) in acc.iter_mut().enumerate().take(live) {
                    row_tile_inplace(a, b, i0 + r, j0, k, n, acc_row);
                }
            }
            for (r, acc_row) in acc.iter().enumerate().take(live) {
                let c_row = &mut out_block[(i0 - i_lo + r) * n + j0..(i0 - i_lo + r) * n + j0 + NR];
                c_row.copy_from_slice(acc_row);
            }
        }
        if rem > 0 {
            // Column remainder via the packed tail strip (stride NR,
            // offset 0); only the `rem` live columns are stored back.
            let mut acc = [[0.0f32; NR]; MR];
            for (r, acc_row) in acc.iter_mut().enumerate().take(live) {
                let c_row =
                    &out_block[(i0 - i_lo + r) * n + n_full..(i0 - i_lo + r) * n + n_full + rem];
                acc_row[..rem].copy_from_slice(c_row);
            }
            if live == MR {
                micro_tile_inplace(a, tail, i0, 0, k, NR, &mut acc);
            } else {
                for (r, acc_row) in acc.iter_mut().enumerate().take(live) {
                    row_tile_inplace(a, tail, i0 + r, 0, k, NR, acc_row);
                }
            }
            for (r, acc_row) in acc.iter().enumerate().take(live) {
                let c_row = &mut out_block
                    [(i0 - i_lo + r) * n + n_full..(i0 - i_lo + r) * n + n_full + rem];
                c_row.copy_from_slice(&acc_row[..rem]);
            }
        }
    }
}

/// In-place `MR x NR` microkernel: `acc += A[i0.., :] * B[:, j0..]` with
/// `A` read at its natural stride and `B` rows read at stride `b_stride`
/// from offset `j0` (pass the packed tail strip with `j0 = 0`,
/// `b_stride = NR` for the column remainder). Scalar build; autovectorizes
/// over the `NR` lane loop.
#[cfg(not(feature = "simd"))]
#[inline]
fn micro_tile_inplace(
    a: &[f32],
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
            let av = a[(i0 + r) * k + kk];
            for j in 0..NR {
                acc_row[j] += av * bv[j];
            }
        }
    }
}

/// In-place `MR x NR` microkernel, explicit `std::simd` build (same lane
/// mapping as the packed [`micro_tile`]; bitwise-identical to the
/// autovectorized build).
#[cfg(feature = "simd")]
#[inline]
fn micro_tile_inplace(
    a: &[f32],
    b: &[f32],
    i0: usize,
    j0: usize,
    k: usize,
    b_stride: usize,
    acc: &mut [[f32; NR]; MR],
) {
    use std::simd::Simd;
    let mut v: [Simd<f32, NR>; MR] = [
        Simd::from_array(acc[0]),
        Simd::from_array(acc[1]),
        Simd::from_array(acc[2]),
        Simd::from_array(acc[3]),
    ];
    for kk in 0..k {
        let bv: Simd<f32, NR> = Simd::from_slice(&b[kk * b_stride + j0..kk * b_stride + j0 + NR]);
        for (r, vr) in v.iter_mut().enumerate() {
            *vr += Simd::splat(a[(i0 + r) * k + kk]) * bv;
        }
    }
    for (r, vr) in v.iter().enumerate() {
        acc[r] = vr.to_array();
    }
}

/// Single-row edge of the in-place microkernel (row remainder when fewer
/// than `MR` live rows remain). Same `B` addressing as
/// [`micro_tile_inplace`].
#[inline]
fn row_tile_inplace(
    a: &[f32],
    b: &[f32],
    i: usize,
    j0: usize,
    k: usize,
    b_stride: usize,
    acc_row: &mut [f32; NR],
) {
    for kk in 0..k {
        let av = a[i * k + kk];
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
fn gemm_packed(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(out.len(), m * n);
    let bp = pack_b(b, k, n);
    let _scope = effects::kernel_scope("gemm");
    let work = gemm_flops(m, k, n);
    aibench_parallel::parallel_slice_mut_weighted(out, MC * n, work, |rows, out_block| {
        debug_assert_eq!(rows.start % n, 0);
        let i_lo = rows.start / n;
        let i_hi = rows.end / n;
        effects::read(a, i_lo * k..i_hi * k);
        effects::read(&bp, 0..bp.len());
        gemm_rows_packed(a, &bp, out_block, i_lo..i_hi, k, n);
    });
}

/// Number of `NR`-column strips covering `n` columns.
fn n_strips(n: usize) -> usize {
    n.div_ceil(NR)
}

/// Packs `b[k, n]` into `KC`-deep, `NR`-wide column strips.
///
/// Layout: k-panels in ascending order; within a panel of depth `lp`, strip
/// `s` occupies `lp * NR` contiguous floats at offset
/// `panel_base + s * lp * NR`, with element `(kk, j)` at `kk * NR + j`.
/// Columns beyond `n` in the last strip are zero; the microkernel's padded
/// lanes compute into discarded scratch, so the padding never reaches live
/// output.
fn pack_b(b: &[f32], k: usize, n: usize) -> Vec<f32> {
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
            let s = range.start / (lp * NR);
            let j0 = s * NR;
            effects::read(b, kc0 * n..(kc0 + lp) * n);
            let cols = NR.min(n - j0);
            for kk in 0..lp {
                let src = &b[(kc0 + kk) * n + j0..(kc0 + kk) * n + j0 + cols];
                strip[kk * NR..kk * NR + cols].copy_from_slice(src);
            }
        });
        panel_base += lp * strips * NR;
    }
    bp
}

/// Packs the rows `i_lo..i_hi` of `a[., k]`, k-panel `kc0..kc0+lp`, into
/// `MR`-row tiles: tile `t` occupies `lp * MR` floats with element
/// `(kk, r)` at `kk * MR + r`. Rows beyond `i_hi` are zero (discarded by
/// the microkernel's row masking).
fn pack_a_panel(
    a: &[f32],
    ap: &mut [f32],
    i_range: std::ops::Range<usize>,
    k: usize,
    kc0: usize,
    lp: usize,
) {
    let (i_lo, i_hi) = (i_range.start, i_range.end);
    let tiles = (i_hi - i_lo).div_ceil(MR);
    for t in 0..tiles {
        let tile = &mut ap[t * lp * MR..(t + 1) * lp * MR];
        for r in 0..MR {
            let i = i_lo + t * MR + r;
            if i < i_hi {
                let row = &a[i * k + kc0..i * k + kc0 + lp];
                for (kk, &v) in row.iter().enumerate() {
                    tile[kk * MR + r] = v;
                }
            } else {
                for kk in 0..lp {
                    tile[kk * MR + r] = 0.0;
                }
            }
        }
    }
}

/// Serial packed GEMM over one row block: packs each A panel locally, then
/// sweeps every B strip with the register microkernel.
fn gemm_rows_packed(
    a: &[f32],
    bp: &[f32],
    out_block: &mut [f32],
    i_range: std::ops::Range<usize>,
    k: usize,
    n: usize,
) {
    let (i_lo, i_hi) = (i_range.start, i_range.end);
    let rows = i_hi - i_lo;
    let tiles = rows.div_ceil(MR);
    let strips = n_strips(n);
    let mut ap = vec![0.0f32; tiles * MR * KC.min(k.max(1))];
    let mut panel_base = 0;
    for kc0 in (0..k).step_by(KC) {
        let lp = (kc0 + KC).min(k) - kc0;
        pack_a_panel(a, &mut ap, i_lo..i_hi, k, kc0, lp);
        for s in 0..strips {
            let j0 = s * NR;
            let cols = NR.min(n - j0);
            let bs = &bp[panel_base + s * lp * NR..panel_base + (s + 1) * lp * NR];
            for t in 0..tiles {
                let at = &ap[t * lp * MR..(t + 1) * lp * MR];
                let r0 = t * MR;
                let live_rows = MR.min(rows - r0);
                // Load the live C cells into the accumulator tile, run the
                // microkernel over the whole (possibly padded) tile, and
                // store only the live cells back. Padded cells accumulate
                // zero-products into scratch that is simply discarded.
                let mut acc = [[0.0f32; NR]; MR];
                for (r, acc_row) in acc.iter_mut().enumerate().take(live_rows) {
                    let c_row = &out_block[(r0 + r) * n + j0..(r0 + r) * n + j0 + cols];
                    acc_row[..cols].copy_from_slice(c_row);
                }
                micro_tile(at, bs, lp, &mut acc);
                for (r, acc_row) in acc.iter().enumerate().take(live_rows) {
                    let c_row = &mut out_block[(r0 + r) * n + j0..(r0 + r) * n + j0 + cols];
                    c_row.copy_from_slice(&acc_row[..cols]);
                }
            }
        }
        panel_base += lp * strips * NR;
    }
}

/// The `MR x NR` register microkernel: `acc += A-tile * B-strip` over one
/// k-panel, each accumulator updated once per `kk` in ascending order
/// (scalar build; autovectorizes over the `NR` lane loop).
#[cfg(not(feature = "simd"))]
#[inline]
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

/// The `MR x NR` register microkernel, explicit `std::simd` build: one
/// 8-lane vector per accumulator row, lanes mapping one-to-one onto the
/// `NR` columns, so every element performs the same scalar `mul`/`add`
/// sequence as the autovectorized build (bitwise-identical results).
#[cfg(feature = "simd")]
#[inline]
fn micro_tile(at: &[f32], bs: &[f32], lp: usize, acc: &mut [[f32; NR]; MR]) {
    use std::simd::Simd;
    let mut v: [Simd<f32, NR>; MR] = [
        Simd::from_array(acc[0]),
        Simd::from_array(acc[1]),
        Simd::from_array(acc[2]),
        Simd::from_array(acc[3]),
    ];
    for kk in 0..lp {
        let b: Simd<f32, NR> = Simd::from_slice(&bs[kk * NR..kk * NR + NR]);
        let a = &at[kk * MR..kk * MR + MR];
        for r in 0..MR {
            v[r] += Simd::splat(a[r]) * b;
        }
    }
    for r in 0..MR {
        acc[r] = v[r].to_array();
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
            gemm_packed(&a, &b, &mut got, m, k, n);
            assert!(
                got.iter()
                    .zip(&want)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "packed != naive at ({m},{k},{n})"
            );
            let mut tiled = vec![0.0f32; m * n];
            gemm_tiled(&a, &b, &mut tiled, m, k, n);
            assert!(
                tiled
                    .iter()
                    .zip(&want)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "tiled != naive at ({m},{k},{n})"
            );
            let mut small = vec![0.0f32; m * n];
            gemm_small(&a, &b, &mut small, m, k, n);
            assert!(
                small
                    .iter()
                    .zip(&want)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "small != naive at ({m},{k},{n})"
            );
        }
    }

    #[test]
    fn path_toggle_round_trips() {
        assert_eq!(gemm_path(), GemmPath::Blocked);
        set_gemm_path(GemmPath::Scalar);
        assert_eq!(gemm_path(), GemmPath::Scalar);
        set_gemm_path(GemmPath::Blocked);
        assert_eq!(gemm_path(), GemmPath::Blocked);
    }

    #[test]
    fn zero_size_edges_are_no_ops() {
        let mut out: Vec<f32> = Vec::new();
        gemm_packed(&[], &[], &mut out, 0, 0, 0);
        gemm_tiled(&[], &[], &mut out, 0, 0, 0);
        gemm_small(&[], &[], &mut out, 0, 0, 0);
        let mut out = vec![0.0f32; 3];
        gemm_tiled(&[], &[], &mut out, 1, 0, 3);
        assert_eq!(out, vec![0.0; 3]);
        let mut out = vec![0.0f32; 3];
        gemm_small(&[], &[], &mut out, 1, 0, 3);
        assert_eq!(out, vec![0.0; 3]);
    }
}
