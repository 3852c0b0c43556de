//! Differentiable convolution, transposed convolution, and pooling.

use std::rc::Rc;

use crate::graph::{Graph, Var};
use aibench_tensor::ops::{
    avg_pool2d, avg_pool2d_backward, conv2d, conv2d_backward_input, conv2d_backward_weight,
    max_pool2d, max_pool2d_backward, Conv2dArgs,
};

impl Graph {
    /// 2-D convolution: `x` is `[n, c_in, h, w]`, `w` is
    /// `[c_out, c_in, kh, kw]`.
    ///
    /// # Panics
    ///
    /// Panics on rank/channel mismatches or a kernel larger than the padded
    /// input.
    pub fn conv2d(&mut self, x: Var, w: Var, args: Conv2dArgs) -> Var {
        let (vx, vw) = (
            Rc::clone(&self.nodes[x.0].value),
            Rc::clone(&self.nodes[w.0].value),
        );
        let out = conv2d(&vx, &vw, args);
        let (h, wd) = (vx.shape()[2], vx.shape()[3]);
        let (kh, kw) = (vw.shape()[2], vw.shape()[3]);
        self.op(out, &[x, w], move |g, gm| {
            gm.accumulate_with(x, || conv2d_backward_input(g, &vw, (h, wd), args));
            gm.accumulate_with(w, || conv2d_backward_weight(&vx, g, (kh, kw), args));
        })
    }

    /// Transposed 2-D convolution (a.k.a. deconvolution), the upsampling
    /// primitive of the GAN generators and decoder networks.
    ///
    /// `x` is `[n, c_in, h, w]`; `w` is `[c_in, c_out, kh, kw]` (note the
    /// swapped channel order, matching the convolution it transposes);
    /// `out_hw` is the produced spatial extent.
    ///
    /// # Panics
    ///
    /// Panics if `out_hw` is inconsistent with the geometry, i.e. a forward
    /// convolution of that extent would not produce `(h, w)`.
    pub fn conv_transpose2d(
        &mut self,
        x: Var,
        w: Var,
        args: Conv2dArgs,
        out_hw: (usize, usize),
    ) -> Var {
        let (vx, vw) = (
            Rc::clone(&self.nodes[x.0].value),
            Rc::clone(&self.nodes[w.0].value),
        );
        let (kh, kw) = (vw.shape()[2], vw.shape()[3]);
        assert_eq!(
            (args.out_extent(out_hw.0, kh), args.out_extent(out_hw.1, kw)),
            (vx.shape()[2], vx.shape()[3]),
            "conv_transpose2d: output extent {:?} inconsistent with input {:?}",
            out_hw,
            vx.shape()
        );
        // Forward of the transpose == backward-input of the convolution.
        let out = conv2d_backward_input(&vx, &vw, out_hw, args);
        self.op(out, &[x, w], move |g, gm| {
            // Backward wrt x == forward convolution of the output gradient.
            gm.accumulate_with(x, || conv2d(g, &vw, args));
            // Backward wrt w == weight gradient with (g, x) in the conv roles.
            gm.accumulate_with(w, || conv2d_backward_weight(g, &vx, (kh, kw), args));
        })
    }

    /// Max pooling with a square `k` window and stride.
    ///
    /// # Panics
    ///
    /// Panics if the input is not 4-D or the window does not fit.
    pub fn max_pool2d(&mut self, x: Var, k: usize, stride: usize) -> Var {
        let vx = Rc::clone(&self.nodes[x.0].value);
        let (out, winners) = max_pool2d(&vx, k, stride);
        let in_shape = vx.shape().to_vec();
        self.op(out, &[x], move |g, gm| {
            gm.accumulate_with(x, || max_pool2d_backward(g, &winners, &in_shape));
        })
    }

    /// Average pooling with a square `k` window and stride.
    ///
    /// # Panics
    ///
    /// Panics if the input is not 4-D or the window does not fit.
    pub fn avg_pool2d(&mut self, x: Var, k: usize, stride: usize) -> Var {
        let vx = Rc::clone(&self.nodes[x.0].value);
        let out = avg_pool2d(&vx, k, stride);
        let in_shape = vx.shape().to_vec();
        self.op(out, &[x], move |g, gm| {
            gm.accumulate_with(x, || avg_pool2d_backward(g, &in_shape, k, stride));
        })
    }

    /// Global average pooling: `[n, c, h, w] -> [n, c]`.
    ///
    /// # Panics
    ///
    /// Panics if the input is not 4-D.
    pub fn global_avg_pool(&mut self, x: Var) -> Var {
        let shape = self.value(x).shape().to_vec();
        assert_eq!(shape.len(), 4, "global_avg_pool: input must be NCHW");
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        let flat = self.reshape(x, &[n, c, h * w]);
        self.mean_axis(flat, 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_gradients;
    use aibench_tensor::{Rng, Tensor};

    #[test]
    fn conv2d_gradcheck() {
        let mut rng = Rng::seed_from(20);
        let x = Tensor::randn(&[2, 2, 5, 5], &mut rng);
        let w = Tensor::randn(&[3, 2, 3, 3], &mut rng);
        check_gradients(&[x, w], 1e-2, 2e-2, |g, vars| {
            let y = g.conv2d(vars[0], vars[1], Conv2dArgs::new(1, 1));
            let sq = g.square(y);
            g.mean(sq)
        });
    }

    #[test]
    fn conv2d_strided_gradcheck() {
        let mut rng = Rng::seed_from(21);
        let x = Tensor::randn(&[1, 2, 6, 6], &mut rng);
        let w = Tensor::randn(&[2, 2, 3, 3], &mut rng);
        check_gradients(&[x, w], 1e-2, 2e-2, |g, vars| {
            let y = g.conv2d(vars[0], vars[1], Conv2dArgs::new(2, 1));
            let sq = g.square(y);
            g.sum(sq)
        });
    }

    #[test]
    fn conv_transpose_gradcheck() {
        let mut rng = Rng::seed_from(22);
        let x = Tensor::randn(&[1, 3, 3, 3], &mut rng);
        let w = Tensor::randn(&[3, 2, 2, 2], &mut rng);
        check_gradients(&[x, w], 1e-2, 2e-2, |g, vars| {
            let y = g.conv_transpose2d(vars[0], vars[1], Conv2dArgs::new(2, 0), (6, 6));
            let sq = g.square(y);
            g.sum(sq)
        });
    }

    #[test]
    fn conv_transpose_doubles_extent() {
        let mut g = Graph::new();
        let x = g.input(Tensor::ones(&[1, 4, 5, 5]));
        let w = g.input(Tensor::ones(&[4, 2, 2, 2]));
        let y = g.conv_transpose2d(x, w, Conv2dArgs::new(2, 0), (10, 10));
        assert_eq!(g.value(y).shape(), &[1, 2, 10, 10]);
    }

    #[test]
    fn max_pool_gradcheck() {
        let mut rng = Rng::seed_from(23);
        // Use distinct values to avoid tie ambiguity at the kink.
        let x = Tensor::from_fn(&[1, 2, 4, 4], |i| (i as f32) * 0.37 + ((i * 7) % 5) as f32);
        let w = Tensor::randn(&[1, 2, 2, 2], &mut rng);
        check_gradients(&[x, w], 1e-3, 1e-2, |g, vars| {
            let y = g.max_pool2d(vars[0], 2, 2);
            let weighted = g.mul(y, vars[1]);
            g.sum(weighted)
        });
    }

    #[test]
    fn avg_pool_gradcheck() {
        let mut rng = Rng::seed_from(24);
        let x = Tensor::randn(&[1, 2, 4, 4], &mut rng);
        check_gradients(&[x], 1e-2, 1e-2, |g, vars| {
            let y = g.avg_pool2d(vars[0], 2, 2);
            let sq = g.square(y);
            g.sum(sq)
        });
    }

    #[test]
    fn global_avg_pool_shape_and_grad() {
        let mut rng = Rng::seed_from(25);
        let x = Tensor::randn(&[2, 3, 4, 4], &mut rng);
        check_gradients(&[x], 1e-2, 1e-2, |g, vars| {
            let y = g.global_avg_pool(vars[0]);
            assert_eq!(g.value(y).shape(), &[2, 3]);
            let sq = g.square(y);
            g.sum(sq)
        });
    }
}
