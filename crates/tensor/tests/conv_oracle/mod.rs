//! The convolution kernels' oracle, shared by the test binaries that hold
//! them to it: a per-element im2col (a bounds test on every tap) multiplied
//! by the naive GEMM, folded back by a per-element col2im, partial weight
//! gradients summed in sample order. Slow, and shares no code with the
//! kernels beyond `matmul_naive`.

use aibench_tensor::ops::{matmul_naive, Conv2dArgs};
use aibench_tensor::Tensor;

/// A naive transposed copy of a 2-D tensor.
fn transposed(t: &Tensor) -> Tensor {
    let (r, c) = (t.shape()[0], t.shape()[1]);
    let mut out = vec![0.0f32; r * c];
    for i in 0..r {
        for j in 0..c {
            out[j * r + i] = t.data()[i * c + j];
        }
    }
    Tensor::from_vec(out, &[c, r])
}

/// `(conv2d, conv2d_backward_input, conv2d_backward_weight)` of input `x`
/// `[n, ci, h, w]`, weight `w` `[co, ci, kh, kw]` and output gradient `g`.
pub fn conv_oracle(
    x: &Tensor,
    w: &Tensor,
    g: &Tensor,
    args: Conv2dArgs,
) -> (Tensor, Tensor, Tensor) {
    let (n, ci, h, wd) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let (co, kh, kw) = (w.shape()[0], w.shape()[2], w.shape()[3]);
    let (ho, wo) = (args.out_extent(h, kh), args.out_extent(wd, kw));
    let (kdim, cols) = (ci * kh * kw, ho * wo);
    // Every in-bounds tap as (flat input index, flat im2col index), in
    // (ci, ki, kj, oy, ox) order.
    let mut taps = Vec::new();
    for c in 0..ci {
        for ky in 0..kh {
            for kx in 0..kw {
                for oy in 0..ho {
                    for ox in 0..wo {
                        let iy = (oy * args.stride + ky) as isize - args.pad as isize;
                        let ix = (ox * args.stride + kx) as isize - args.pad as isize;
                        if iy >= 0 && iy < h as isize && ix >= 0 && ix < wd as isize {
                            let row = (c * kh + ky) * kw + kx;
                            taps.push((
                                (c * h + iy as usize) * wd + ix as usize,
                                row * cols + oy * wo + ox,
                            ));
                        }
                    }
                }
            }
        }
    }
    let w2 = w.reshape(&[co, kdim]);
    let w2t = transposed(&w2);
    let (mut fwd, mut gx) = (Vec::new(), Vec::new());
    let mut gw = Tensor::zeros(&[co, kdim]);
    for s in 0..n {
        let xs = &x.data()[s * ci * h * wd..(s + 1) * ci * h * wd];
        let gs = g.data()[s * co * cols..(s + 1) * co * cols].to_vec();
        let gs = Tensor::from_vec(gs, &[co, cols]);
        let mut col = Tensor::zeros(&[kdim, cols]);
        for &(at, cell) in &taps {
            col.data_mut()[cell] = xs[at];
        }
        fwd.extend_from_slice(matmul_naive(&w2, &col).data());
        let folded_from = matmul_naive(&w2t, &gs);
        let mut gx_s = vec![0.0f32; ci * h * wd];
        for &(at, cell) in &taps {
            gx_s[at] += folded_from.data()[cell];
        }
        gx.extend(gx_s);
        let part = matmul_naive(&gs, &transposed(&col));
        for (acc, &p) in gw.data_mut().iter_mut().zip(part.data()) {
            *acc += p;
        }
    }
    (
        Tensor::from_vec(fwd, &[n, co, ho, wo]),
        Tensor::from_vec(gx, &[n, ci, h, wd]),
        gw.reshape(&[co, ci, kh, kw]),
    )
}
