//! Max and average pooling over NCHW activations.
//!
//! All four kernels parallelize over (batch × channel) planes: each plane's
//! outputs (or input gradients) are written by exactly one thread in the
//! serial loop order, so results are bitwise identical for every
//! `AIBENCH_THREADS` value.

use aibench_parallel::{effects, parallel_slice_mut_weighted};

use crate::Tensor;

/// Work estimate of a pooling pass over `outputs` windows of `k`x`k` taps:
/// one load and one compare or add per tap.
fn window_taps(outputs: usize, k: usize) -> u64 {
    (outputs * k * k) as u64
}

/// Max-pools `[n, c, h, w]` with a `k`×`k` window and stride `stride`.
///
/// Returns the pooled tensor plus, for each output element, the flat input
/// index that won the max — required by [`max_pool2d_backward`].
///
/// # Panics
///
/// Panics if the input is not 4-D or the window does not fit.
pub fn max_pool2d(input: &Tensor, k: usize, stride: usize) -> (Tensor, Vec<usize>) {
    assert_eq!(
        input.ndim(),
        4,
        "max_pool2d: input must be NCHW, got {:?}",
        input.shape()
    );
    let (n, c, h, w) = (
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    );
    assert!(
        h >= k && w >= k,
        "max_pool2d: window {k} larger than input {h}x{w}"
    );
    let ho = (h - k) / stride + 1;
    let wo = (w - k) / stride + 1;
    let plane_out = ho * wo;
    let in_data = input.data();
    let _scope = effects::kernel_scope("max_pool2d");
    // Pass 1: the winning input index per output element, plane-parallel.
    let mut winners = vec![0usize; n * c * plane_out];
    let work = window_taps(winners.len(), k);
    parallel_slice_mut_weighted(&mut winners, plane_out, work, |range, win_plane| {
        let plane = range.start / plane_out.max(1);
        let base = plane * h * w;
        effects::read(in_data, base..base + h * w);
        let mut oi = 0;
        for oy in 0..ho {
            for ox in 0..wo {
                let mut best = f32::NEG_INFINITY;
                let mut best_idx = 0;
                for ky in 0..k {
                    for kx in 0..k {
                        let idx = base + (oy * stride + ky) * w + ox * stride + kx;
                        if in_data[idx] > best {
                            best = in_data[idx];
                            best_idx = idx;
                        }
                    }
                }
                win_plane[oi] = best_idx;
                oi += 1;
            }
        }
    });
    // Pass 2: gather the winning values.
    let mut out = Tensor::zeros(&[n, c, ho, wo]);
    // Per element: a winner index and a value read, a value written.
    let work = (winners.len() * 3) as u64;
    parallel_slice_mut_weighted(
        out.data_mut(),
        aibench_parallel::ELEMWISE_CHUNK,
        work,
        |range, out_chunk| {
            effects::read(&winners, range.clone());
            for (o, &idx) in out_chunk.iter_mut().zip(&winners[range]) {
                *o = in_data[idx];
            }
        },
    );
    (out, winners)
}

/// Routes output gradients back to the winning input positions of a prior
/// [`max_pool2d`] call.
///
/// Parallelism exploits the structure [`max_pool2d`] guarantees: the
/// winner of an output element always lies in the same (batch, channel)
/// plane, so plane-sized gradient blocks are disjoint.
///
/// # Panics
///
/// Panics if a winner index falls outside its own plane (i.e. `winners`
/// was not produced by [`max_pool2d`] for `input_shape`).
pub fn max_pool2d_backward(
    grad_output: &Tensor,
    winners: &[usize],
    input_shape: &[usize],
) -> Tensor {
    let plane_in: usize = input_shape[2] * input_shape[3];
    let planes: usize = input_shape[0] * input_shape[1];
    let plane_out = grad_output.len().checked_div(planes).unwrap_or(0);
    let go = grad_output.data();
    let mut gx = Tensor::zeros(input_shape);
    let _scope = effects::kernel_scope("max_pool2d_bwd");
    // Per output element: a gradient and a winner index read, one input
    // gradient read and written.
    let work = (go.len() * 4) as u64;
    parallel_slice_mut_weighted(gx.data_mut(), plane_in, work, |range, gx_plane| {
        let plane = range.start / plane_in.max(1);
        let base = plane * plane_in;
        effects::read(go, plane * plane_out..(plane + 1) * plane_out);
        effects::read(winners, plane * plane_out..(plane + 1) * plane_out);
        for oi in plane * plane_out..(plane + 1) * plane_out {
            // Indexing the plane slice bounds-checks the same-plane
            // guarantee documented above.
            gx_plane[winners[oi] - base] += go[oi];
        }
    });
    gx
}

/// Average-pools `[n, c, h, w]` with a `k`×`k` window and stride `stride`.
///
/// # Panics
///
/// Panics if the input is not 4-D or the window does not fit.
pub fn avg_pool2d(input: &Tensor, k: usize, stride: usize) -> Tensor {
    assert_eq!(
        input.ndim(),
        4,
        "avg_pool2d: input must be NCHW, got {:?}",
        input.shape()
    );
    let (n, c, h, w) = (
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    );
    assert!(
        h >= k && w >= k,
        "avg_pool2d: window {k} larger than input {h}x{w}"
    );
    let ho = (h - k) / stride + 1;
    let wo = (w - k) / stride + 1;
    let plane_out = ho * wo;
    let inv = 1.0 / (k * k) as f32;
    let in_data = input.data();
    let mut out = Tensor::zeros(&[n, c, ho, wo]);
    let _scope = effects::kernel_scope("avg_pool2d");
    let work = window_taps(n * c * plane_out, k);
    parallel_slice_mut_weighted(out.data_mut(), plane_out, work, |range, out_plane| {
        let plane = range.start / plane_out.max(1);
        let base = plane * h * w;
        effects::read(in_data, base..base + h * w);
        let mut oi = 0;
        for oy in 0..ho {
            for ox in 0..wo {
                let mut acc = 0.0;
                for ky in 0..k {
                    for kx in 0..k {
                        acc += in_data[base + (oy * stride + ky) * w + ox * stride + kx];
                    }
                }
                out_plane[oi] = acc * inv;
                oi += 1;
            }
        }
    });
    out
}

/// Gradient of [`avg_pool2d`]: spreads each output gradient uniformly over
/// its window, one (batch, channel) plane per thread.
pub fn avg_pool2d_backward(
    grad_output: &Tensor,
    input_shape: &[usize],
    k: usize,
    stride: usize,
) -> Tensor {
    let (h, w) = (input_shape[2], input_shape[3]);
    let plane_in = h * w;
    let ho = grad_output.shape()[2];
    let wo = grad_output.shape()[3];
    let plane_out = ho * wo;
    let inv = 1.0 / (k * k) as f32;
    let go = grad_output.data();
    let mut gx = Tensor::zeros(input_shape);
    let _scope = effects::kernel_scope("avg_pool2d_bwd");
    let work = window_taps(go.len(), k);
    parallel_slice_mut_weighted(gx.data_mut(), plane_in, work, |range, gx_plane| {
        let plane = range.start / plane_in.max(1);
        effects::read(go, plane * plane_out..(plane + 1) * plane_out);
        let mut oi = plane * plane_out;
        for oy in 0..ho {
            for ox in 0..wo {
                let g = go[oi] * inv;
                oi += 1;
                for ky in 0..k {
                    for kx in 0..k {
                        gx_plane[(oy * stride + ky) * w + ox * stride + kx] += g;
                    }
                }
            }
        }
    });
    gx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_pool_known_values() {
        let x = Tensor::from_vec((0..16).map(|i| i as f32).collect(), &[1, 1, 4, 4]);
        let (y, _) = max_pool2d(&x, 2, 2);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[5.0, 7.0, 13.0, 15.0]);
    }

    #[test]
    fn max_pool_backward_routes_to_winner() {
        let x = Tensor::from_vec((0..16).map(|i| i as f32).collect(), &[1, 1, 4, 4]);
        let (y, winners) = max_pool2d(&x, 2, 2);
        let go = Tensor::ones(y.shape());
        let gx = max_pool2d_backward(&go, &winners, x.shape());
        assert_eq!(gx.sum(), 4.0);
        assert_eq!(gx.at(&[0, 0, 1, 1]), 1.0); // element 5 won the top-left window
        assert_eq!(gx.at(&[0, 0, 0, 0]), 0.0);
    }

    #[test]
    fn avg_pool_known_values() {
        let x = Tensor::from_vec((0..16).map(|i| i as f32).collect(), &[1, 1, 4, 4]);
        let y = avg_pool2d(&x, 2, 2);
        assert_eq!(y.data(), &[2.5, 4.5, 10.5, 12.5]);
    }

    #[test]
    fn avg_pool_backward_spreads_uniformly() {
        let x = Tensor::zeros(&[1, 1, 4, 4]);
        let go = Tensor::ones(&[1, 1, 2, 2]);
        let gx = avg_pool2d_backward(&go, x.shape(), 2, 2);
        assert!(gx.data().iter().all(|&v| (v - 0.25).abs() < 1e-6));
    }

    #[test]
    fn overlapping_stride() {
        let x = Tensor::from_vec((0..9).map(|i| i as f32).collect(), &[1, 1, 3, 3]);
        let (y, _) = max_pool2d(&x, 2, 1);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[4.0, 5.0, 7.0, 8.0]);
    }

    #[test]
    fn multi_plane_pooling_matches_per_plane() {
        // 3 batches x 2 channels: plane-parallel results must equal the
        // same pooling applied plane by plane.
        let x = Tensor::from_fn(&[3, 2, 4, 4], |i| ((i * 7919) % 101) as f32);
        let (y, winners) = max_pool2d(&x, 2, 2);
        let a = avg_pool2d(&x, 2, 2);
        for plane in 0..6 {
            let xp = Tensor::from_vec(
                x.data()[plane * 16..(plane + 1) * 16].to_vec(),
                &[1, 1, 4, 4],
            );
            let (yp, wp) = max_pool2d(&xp, 2, 2);
            let ap = avg_pool2d(&xp, 2, 2);
            assert_eq!(&y.data()[plane * 4..(plane + 1) * 4], yp.data());
            assert_eq!(&a.data()[plane * 4..(plane + 1) * 4], ap.data());
            for (oi, &wi) in wp.iter().enumerate() {
                assert_eq!(winners[plane * 4 + oi], wi + plane * 16);
            }
        }
    }
}
