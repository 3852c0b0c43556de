//! Normalization layers and dropout.

use std::rc::Rc;

use aibench_tensor::{Rng, Tensor};

use crate::graph::{Graph, Var};

impl Graph {
    /// Training-mode 2-D batch normalization over an NCHW tensor.
    ///
    /// `gamma`/`beta` have shape `[c]`. Returns the normalized output plus
    /// the batch statistics `(mean, var)` per channel, which the `nn` layer
    /// uses to update its running averages.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not 4-D or `gamma`/`beta` are not `[c]`.
    pub fn batch_norm2d(
        &mut self,
        x: Var,
        gamma: Var,
        beta: Var,
        eps: f32,
    ) -> (Var, Tensor, Tensor) {
        let vx = Rc::clone(&self.nodes[x.0].value);
        let vg = Rc::clone(&self.nodes[gamma.0].value);
        let vb = Rc::clone(&self.nodes[beta.0].value);
        assert_eq!(
            vx.ndim(),
            4,
            "batch_norm2d: input must be NCHW, got {:?}",
            vx.shape()
        );
        let (n, c, h, w) = (vx.shape()[0], vx.shape()[1], vx.shape()[2], vx.shape()[3]);
        assert_eq!(vg.shape(), &[c], "batch_norm2d: gamma must be [{c}]");
        assert_eq!(vb.shape(), &[c], "batch_norm2d: beta must be [{c}]");
        let m = (n * h * w) as f32;

        // One `h*w` plane per `(sample, channel)`: every loop below walks
        // whole plane slices, in the same element order as flat indexing.
        let plane = h * w;
        let planes = move |s: usize, ci: usize| (s * c + ci) * plane..(s * c + ci + 1) * plane;
        let mut mean = vec![0.0f32; c];
        let mut var = vec![0.0f32; c];
        for s in 0..n {
            for (ci, mv) in mean.iter_mut().enumerate() {
                for &v in &vx.data()[planes(s, ci)] {
                    *mv += v;
                }
            }
        }
        mean.iter_mut().for_each(|v| *v /= m);
        for s in 0..n {
            for (ci, vv) in var.iter_mut().enumerate() {
                for &v in &vx.data()[planes(s, ci)] {
                    let d = v - mean[ci];
                    *vv += d * d;
                }
            }
        }
        var.iter_mut().for_each(|v| *v /= m);

        let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + eps).sqrt()).collect();
        let mut xhat = Tensor::zeros(vx.shape());
        let mut y = Tensor::zeros(vx.shape());
        for s in 0..n {
            for ci in 0..c {
                let (mean_c, inv_std_c) = (mean[ci], inv_std[ci]);
                let (gamma_c, beta_c) = (vg.data()[ci], vb.data()[ci]);
                let x_plane = &vx.data()[planes(s, ci)];
                let xhat_plane = &mut xhat.data_mut()[planes(s, ci)];
                let y_plane = &mut y.data_mut()[planes(s, ci)];
                for ((&xv, xh_out), y_out) in x_plane.iter().zip(xhat_plane).zip(y_plane) {
                    let xh = (xv - mean_c) * inv_std_c;
                    *xh_out = xh;
                    *y_out = gamma_c * xh + beta_c;
                }
            }
        }

        let mean_t = Tensor::from_vec(mean, &[c]);
        let var_t = Tensor::from_vec(var.clone(), &[c]);
        let xhat_bw = xhat;
        let out = self.op(y, &[x, gamma, beta], move |g, gm| {
            // dbeta, dgamma, and the standard batch-norm input gradient.
            let mut dgamma = vec![0.0f32; c];
            let mut dbeta = vec![0.0f32; c];
            let mut sum_dxhat = vec![0.0f32; c];
            let mut sum_dxhat_xhat = vec![0.0f32; c];
            for s in 0..n {
                for ci in 0..c {
                    let gamma_c = vg.data()[ci];
                    let g_plane = &g.data()[planes(s, ci)];
                    let xhat_plane = &xhat_bw.data()[planes(s, ci)];
                    for (&gi, &xh) in g_plane.iter().zip(xhat_plane) {
                        dgamma[ci] += gi * xh;
                        dbeta[ci] += gi;
                        let dxh = gi * gamma_c;
                        sum_dxhat[ci] += dxh;
                        sum_dxhat_xhat[ci] += dxh * xh;
                    }
                }
            }
            let mut gx = Tensor::zeros(xhat_bw.shape());
            for s in 0..n {
                for ci in 0..c {
                    let (gamma_c, inv_std_c) = (vg.data()[ci], inv_std[ci]);
                    let (sum_c, sum_xhat_c) = (sum_dxhat[ci], sum_dxhat_xhat[ci]);
                    let g_plane = &g.data()[planes(s, ci)];
                    let xhat_plane = &xhat_bw.data()[planes(s, ci)];
                    let gx_plane = &mut gx.data_mut()[planes(s, ci)];
                    for ((&gi, &xh), out) in g_plane.iter().zip(xhat_plane).zip(gx_plane) {
                        let dxh = gi * gamma_c;
                        *out = inv_std_c * (dxh - sum_c / m - xh * sum_xhat_c / m);
                    }
                }
            }
            gm.accumulate_with(x, || gx);
            gm.accumulate_with(gamma, || Tensor::from_vec(dgamma, &[c]));
            gm.accumulate_with(beta, || Tensor::from_vec(dbeta, &[c]));
        });
        (out, mean_t, var_t)
    }

    /// Inference-mode batch normalization using fixed running statistics.
    ///
    /// Differentiable with respect to `x`, `gamma`, and `beta` (the
    /// statistics are constants).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches (same contract as [`Graph::batch_norm2d`]).
    pub fn batch_norm2d_inference(
        &mut self,
        x: Var,
        gamma: Var,
        beta: Var,
        running_mean: &Tensor,
        running_var: &Tensor,
        eps: f32,
    ) -> Var {
        let shape = self.value(x).shape().to_vec();
        assert_eq!(shape.len(), 4, "batch_norm2d_inference: input must be NCHW");
        let c = shape[1];
        // Reshape per-channel vectors to [1, c, 1, 1] so tensor broadcasting
        // aligns with the channel axis.
        let mean = self.input(running_mean.reshape(&[1, c, 1, 1]));
        let scale_t = running_var
            .map(|v| 1.0 / (v + eps).sqrt())
            .reshape(&[1, c, 1, 1]);
        let inv_std = self.input(scale_t);
        let g4 = self.reshape(gamma, &[1, c, 1, 1]);
        let b4 = self.reshape(beta, &[1, c, 1, 1]);
        let centered = self.sub(x, mean);
        let xhat = self.mul(centered, inv_std);
        let scaled = self.mul(xhat, g4);
        self.add(scaled, b4)
    }

    /// Layer normalization over the last axis with learnable `gamma`/`beta`
    /// of shape `[d]`.
    ///
    /// # Panics
    ///
    /// Panics if `gamma`/`beta` do not match the last axis.
    pub fn layer_norm(&mut self, x: Var, gamma: Var, beta: Var, eps: f32) -> Var {
        let vx = Rc::clone(&self.nodes[x.0].value);
        let vg = Rc::clone(&self.nodes[gamma.0].value);
        let d = *vx.shape().last().expect("layer_norm on scalar");
        assert_eq!(vg.shape(), &[d], "layer_norm: gamma must be [{d}]");
        let vb = Rc::clone(&self.nodes[beta.0].value);
        assert_eq!(vb.shape(), &[d], "layer_norm: beta must be [{d}]");
        let rows = vx.len() / d;
        let mut xhat = Tensor::zeros(vx.shape());
        let mut y = Tensor::zeros(vx.shape());
        let mut inv_stds = vec![0.0f32; rows];
        for (r, slot) in inv_stds.iter_mut().enumerate() {
            let row = &vx.data()[r * d..(r + 1) * d];
            let mean: f32 = row.iter().sum::<f32>() / d as f32;
            let var: f32 = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
            let inv_std = 1.0 / (var + eps).sqrt();
            *slot = inv_std;
            for (i, &xi) in row.iter().enumerate() {
                let xh = (xi - mean) * inv_std;
                xhat.data_mut()[r * d + i] = xh;
                y.data_mut()[r * d + i] = vg.data()[i] * xh + vb.data()[i];
            }
        }
        let xhat_bw = xhat;
        self.op(y, &[x, gamma, beta], move |g, gm| {
            let mut dgamma = vec![0.0f32; d];
            let mut dbeta = vec![0.0f32; d];
            let mut gx = Tensor::zeros(xhat_bw.shape());
            for (r, &inv_std) in inv_stds.iter().enumerate() {
                let grow = &g.data()[r * d..(r + 1) * d];
                let xrow = &xhat_bw.data()[r * d..(r + 1) * d];
                let mut sum_dxh = 0.0;
                let mut sum_dxh_xh = 0.0;
                for i in 0..d {
                    dgamma[i] += grow[i] * xrow[i];
                    dbeta[i] += grow[i];
                    let dxh = grow[i] * vg.data()[i];
                    sum_dxh += dxh;
                    sum_dxh_xh += dxh * xrow[i];
                }
                let dst = &mut gx.data_mut()[r * d..(r + 1) * d];
                for i in 0..d {
                    let dxh = grow[i] * vg.data()[i];
                    dst[i] = inv_std * (dxh - sum_dxh / d as f32 - xrow[i] * sum_dxh_xh / d as f32);
                }
            }
            gm.accumulate_with(x, || gx);
            gm.accumulate_with(gamma, || Tensor::from_vec(dgamma, &[d]));
            gm.accumulate_with(beta, || Tensor::from_vec(dbeta, &[d]));
        })
    }

    /// Inverted dropout: zeroes each element with probability `p` and
    /// rescales survivors by `1/(1-p)`. A no-op when `p == 0`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1)`.
    pub fn dropout(&mut self, x: Var, p: f32, rng: &mut Rng) -> Var {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout probability {p} outside [0, 1)"
        );
        if p == 0.0 {
            return x;
        }
        let vx = Rc::clone(&self.nodes[x.0].value);
        let keep = 1.0 - p;
        let mask = Tensor::from_fn(vx.shape(), |_| {
            if rng.uniform() < keep {
                1.0 / keep
            } else {
                0.0
            }
        });
        let out = vx.mul(&mask);
        self.op(out, &[x], move |g, gm| {
            gm.accumulate_with(x, || g.mul(&mask))
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::{check_gradients, Graph, Param};
    use aibench_tensor::{Rng, Tensor};

    #[test]
    fn batch_norm_output_is_normalized() {
        let mut rng = Rng::seed_from(50);
        let x = Tensor::randn(&[4, 3, 5, 5], &mut rng)
            .scale(3.0)
            .add_scalar(7.0);
        let gamma = Param::new("g", Tensor::ones(&[3]));
        let beta = Param::new("b", Tensor::zeros(&[3]));
        let mut g = Graph::new();
        let xv = g.input(x);
        let gv = g.param(&gamma);
        let bv = g.param(&beta);
        let (y, mean, var) = g.batch_norm2d(xv, gv, bv, 1e-5);
        // Batch stats should reflect the input's shift and scale.
        assert!(mean.data().iter().all(|&m| (m - 7.0).abs() < 1.0));
        assert!(var.data().iter().all(|&v| (v - 9.0).abs() < 2.5));
        // Output should be ~zero-mean unit-variance per channel.
        let yv = g.value(y);
        let out_mean = yv.data().iter().sum::<f32>() / yv.len() as f32;
        let out_var = yv
            .data()
            .iter()
            .map(|&v| (v - out_mean).powi(2))
            .sum::<f32>()
            / yv.len() as f32;
        assert!(out_mean.abs() < 1e-4, "normalized mean {out_mean}");
        assert!((out_var - 1.0).abs() < 1e-2, "normalized var {out_var}");
    }

    #[test]
    fn batch_norm_gradcheck() {
        let mut rng = Rng::seed_from(51);
        let x = Tensor::randn(&[2, 2, 3, 3], &mut rng);
        let gamma = Tensor::rand_uniform(&[2], 0.5, 1.5, &mut rng);
        let beta = Tensor::randn(&[2], &mut rng);
        check_gradients(&[x, gamma, beta], 1e-2, 3e-2, |g, vars| {
            let (y, _, _) = g.batch_norm2d(vars[0], vars[1], vars[2], 1e-5);
            let w = g.square(y);
            g.sum(w)
        });
    }

    #[test]
    fn layer_norm_gradcheck() {
        let mut rng = Rng::seed_from(52);
        let x = Tensor::randn(&[3, 4], &mut rng);
        let gamma = Tensor::rand_uniform(&[4], 0.5, 1.5, &mut rng);
        let beta = Tensor::randn(&[4], &mut rng);
        check_gradients(&[x, gamma, beta], 1e-2, 3e-2, |g, vars| {
            let y = g.layer_norm(vars[0], vars[1], vars[2], 1e-5);
            let w = g.square(y);
            g.sum(w)
        });
    }

    #[test]
    fn inference_bn_uses_running_stats() {
        let x = Tensor::ones(&[1, 2, 2, 2]);
        let gamma = Param::new("g", Tensor::ones(&[2]));
        let beta = Param::new("b", Tensor::zeros(&[2]));
        let rm = Tensor::from_vec(vec![1.0, 0.0], &[2]);
        let rv = Tensor::from_vec(vec![1.0, 4.0], &[2]);
        let mut g = Graph::new();
        let xv = g.input(x);
        let gv = g.param(&gamma);
        let bv = g.param(&beta);
        let y = g.batch_norm2d_inference(xv, gv, bv, &rm, &rv, 0.0);
        let yv = g.value(y);
        // Channel 0: (1-1)/1 = 0; channel 1: (1-0)/2 = 0.5.
        assert!(yv.data()[0].abs() < 1e-6);
        assert!((yv.data()[4] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn dropout_zero_p_is_identity_and_mask_scales() {
        let mut rng = Rng::seed_from(53);
        let x = Tensor::ones(&[1000]);
        let mut g = Graph::new();
        let xv = g.input(x);
        let same = g.dropout(xv, 0.0, &mut rng);
        assert_eq!(same, xv);
        let dropped = g.dropout(xv, 0.5, &mut rng);
        let v = g.value(dropped);
        let kept = v.data().iter().filter(|&&x| x > 0.0).count();
        assert!((400..600).contains(&kept), "kept {kept} of 1000 at p=0.5");
        // Survivors are scaled by 2.
        assert!(v.data().iter().all(|&x| x == 0.0 || (x - 2.0).abs() < 1e-6));
    }

    #[test]
    fn dropout_gradient_respects_mask() {
        let mut rng = Rng::seed_from(54);
        let p = Param::new("x", Tensor::ones(&[100]));
        let mut g = Graph::new();
        let xv = g.param(&p);
        let y = g.dropout(xv, 0.3, &mut rng);
        let loss = g.sum(y);
        g.backward(loss);
        let yv: Vec<f32> = g.value(y).data().to_vec();
        for (gi, yi) in p.grad().data().iter().zip(yv) {
            if yi == 0.0 {
                assert_eq!(*gi, 0.0);
            } else {
                assert!((*gi - 1.0 / 0.7).abs() < 1e-5);
            }
        }
    }
}
