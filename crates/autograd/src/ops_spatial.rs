//! Spatial transformer primitives: affine grid generation and bilinear
//! grid sampling (Jaderberg et al., the DC-AI-C15 benchmark model).

use std::rc::Rc;

use aibench_tensor::Tensor;

use crate::graph::{Graph, Var};

impl Graph {
    /// Generates a normalized sampling grid `[n, ho, wo, 2]` from affine
    /// parameters `theta` of shape `[n, 2, 3]`.
    ///
    /// Coordinates are in `[-1, 1]` with `(x, y)` order in the last axis,
    /// matching the convention of `torch.nn.functional.affine_grid`.
    ///
    /// # Panics
    ///
    /// Panics if `theta` is not `[n, 2, 3]`.
    pub fn affine_grid(&mut self, theta: Var, out_hw: (usize, usize)) -> Var {
        let vt = Rc::clone(&self.nodes[theta.0].value);
        assert_eq!(vt.ndim(), 3, "affine_grid: theta must be [n, 2, 3]");
        assert_eq!(
            &vt.shape()[1..],
            &[2, 3],
            "affine_grid: theta must be [n, 2, 3], got {:?}",
            vt.shape()
        );
        let n = vt.shape()[0];
        let (ho, wo) = out_hw;
        let norm = |i: usize, extent: usize| -> f32 {
            if extent <= 1 {
                0.0
            } else {
                2.0 * i as f32 / (extent - 1) as f32 - 1.0
            }
        };
        let mut grid = Tensor::zeros(&[n, ho, wo, 2]);
        for s in 0..n {
            let t = &vt.data()[s * 6..(s + 1) * 6]; // [t00 t01 t02 t10 t11 t12]
            for y in 0..ho {
                let ny = norm(y, ho);
                for x in 0..wo {
                    let nx = norm(x, wo);
                    let base = ((s * ho + y) * wo + x) * 2;
                    grid.data_mut()[base] = t[0] * nx + t[1] * ny + t[2];
                    grid.data_mut()[base + 1] = t[3] * nx + t[4] * ny + t[5];
                }
            }
        }
        self.op(grid, &[theta], move |g, gm| {
            let mut gt = Tensor::zeros(&[n, 2, 3]);
            for s in 0..n {
                let dst = &mut gt.data_mut()[s * 6..(s + 1) * 6];
                for y in 0..ho {
                    let ny = norm(y, ho);
                    for x in 0..wo {
                        let nx = norm(x, wo);
                        let base = ((s * ho + y) * wo + x) * 2;
                        let (gx, gy) = (g.data()[base], g.data()[base + 1]);
                        dst[0] += gx * nx;
                        dst[1] += gx * ny;
                        dst[2] += gx;
                        dst[3] += gy * nx;
                        dst[4] += gy * ny;
                        dst[5] += gy;
                    }
                }
            }
            gm.accumulate_with(theta, || gt);
        })
    }

    /// Bilinear grid sampling: samples `input` (`[n, c, h, w]`) at the
    /// normalized locations in `grid` (`[n, ho, wo, 2]`, `(x, y)` order),
    /// producing `[n, c, ho, wo]`. Out-of-range locations sample zeros.
    ///
    /// Differentiable with respect to both the input image and the grid,
    /// which is what lets the localization network of a spatial transformer
    /// learn.
    ///
    /// # Panics
    ///
    /// Panics on rank or batch mismatches.
    pub fn grid_sample(&mut self, input: Var, grid: Var) -> Var {
        let vx = Rc::clone(&self.nodes[input.0].value);
        let vg = Rc::clone(&self.nodes[grid.0].value);
        assert_eq!(vx.ndim(), 4, "grid_sample: input must be NCHW");
        assert_eq!(vg.ndim(), 4, "grid_sample: grid must be [n, ho, wo, 2]");
        assert_eq!(vg.shape()[3], 2, "grid_sample: grid last axis must be 2");
        assert_eq!(vx.shape()[0], vg.shape()[0], "grid_sample: batch mismatch");
        let (n, c, h, w) = (vx.shape()[0], vx.shape()[1], vx.shape()[2], vx.shape()[3]);
        let (ho, wo) = (vg.shape()[1], vg.shape()[2]);
        let mut out = Tensor::zeros(&[n, c, ho, wo]);
        // Gather weights and corner indices once; reuse in backward.
        for s in 0..n {
            for oy in 0..ho {
                for ox in 0..wo {
                    let gbase = ((s * ho + oy) * wo + ox) * 2;
                    let px = (vg.data()[gbase] + 1.0) * 0.5 * (w - 1) as f32;
                    let py = (vg.data()[gbase + 1] + 1.0) * 0.5 * (h - 1) as f32;
                    let x0 = px.floor() as isize;
                    let y0 = py.floor() as isize;
                    let fx = px - x0 as f32;
                    let fy = py - y0 as f32;
                    for ci in 0..c {
                        let mut acc = 0.0;
                        for (dy, dx, wgt) in [
                            (0, 0, (1.0 - fx) * (1.0 - fy)),
                            (0, 1, fx * (1.0 - fy)),
                            (1, 0, (1.0 - fx) * fy),
                            (1, 1, fx * fy),
                        ] {
                            let yy = y0 + dy;
                            let xx = x0 + dx;
                            if yy >= 0 && yy < h as isize && xx >= 0 && xx < w as isize {
                                acc += wgt
                                    * vx.data()[((s * c + ci) * h + yy as usize) * w + xx as usize];
                            }
                        }
                        out.data_mut()[((s * c + ci) * ho + oy) * wo + ox] = acc;
                    }
                }
            }
        }
        self.op(out, &[input, grid], move |g, gm| {
            let mut gx = Tensor::zeros(&[n, c, h, w]);
            let mut gg = Tensor::zeros(&[n, ho, wo, 2]);
            for s in 0..n {
                for oy in 0..ho {
                    for ox in 0..wo {
                        let gbase = ((s * ho + oy) * wo + ox) * 2;
                        let px = (vg.data()[gbase] + 1.0) * 0.5 * (w - 1) as f32;
                        let py = (vg.data()[gbase + 1] + 1.0) * 0.5 * (h - 1) as f32;
                        let x0 = px.floor() as isize;
                        let y0 = py.floor() as isize;
                        let fx = px - x0 as f32;
                        let fy = py - y0 as f32;
                        let mut dpx = 0.0;
                        let mut dpy = 0.0;
                        for ci in 0..c {
                            let go = g.data()[((s * c + ci) * ho + oy) * wo + ox];
                            // Corner values (zero outside) for grid grads.
                            let mut corner = [0.0f32; 4];
                            for (k, (dy, dx)) in [(0, 0), (0, 1), (1, 0), (1, 1)].iter().enumerate()
                            {
                                let yy = y0 + dy;
                                let xx = x0 + dx;
                                if yy >= 0 && yy < h as isize && xx >= 0 && xx < w as isize {
                                    let idx = ((s * c + ci) * h + yy as usize) * w + xx as usize;
                                    corner[k] = vx.data()[idx];
                                    let wgt = match k {
                                        0 => (1.0 - fx) * (1.0 - fy),
                                        1 => fx * (1.0 - fy),
                                        2 => (1.0 - fx) * fy,
                                        _ => fx * fy,
                                    };
                                    gx.data_mut()[idx] += go * wgt;
                                }
                            }
                            dpx += go
                                * ((corner[1] - corner[0]) * (1.0 - fy)
                                    + (corner[3] - corner[2]) * fy);
                            dpy += go
                                * ((corner[2] - corner[0]) * (1.0 - fx)
                                    + (corner[3] - corner[1]) * fx);
                        }
                        gg.data_mut()[gbase] = dpx * 0.5 * (w - 1) as f32;
                        gg.data_mut()[gbase + 1] = dpy * 0.5 * (h - 1) as f32;
                    }
                }
            }
            gm.accumulate_with(input, || gx);
            gm.accumulate_with(grid, || gg);
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::{check_gradients, Graph};
    use aibench_tensor::{Rng, Tensor};

    /// Identity affine parameters for a batch of 1.
    fn identity_theta() -> Tensor {
        Tensor::from_vec(vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0], &[1, 2, 3])
    }

    #[test]
    fn identity_grid_samples_input_unchanged() {
        let mut rng = Rng::seed_from(60);
        let x = Tensor::randn(&[1, 2, 5, 7], &mut rng);
        let mut g = Graph::new();
        let xv = g.input(x.clone());
        let tv = g.input(identity_theta());
        let grid = g.affine_grid(tv, (5, 7));
        let y = g.grid_sample(xv, grid);
        assert!(g.value(y).max_abs_diff(&x) < 1e-5);
    }

    #[test]
    fn translation_shifts_content() {
        // theta translating by one full extent moves content off the edge.
        let x = Tensor::ones(&[1, 1, 4, 4]);
        let theta = Tensor::from_vec(vec![1.0, 0.0, 2.5, 0.0, 1.0, 0.0], &[1, 2, 3]);
        let mut g = Graph::new();
        let xv = g.input(x);
        let tv = g.input(theta);
        let grid = g.affine_grid(tv, (4, 4));
        let y = g.grid_sample(xv, grid);
        // Shifting sampling coordinates past the right edge leaves only a
        // sliver of mass from the boundary pixels.
        assert!(g.value(y).sum() < 2.0);
    }

    #[test]
    fn affine_grid_gradcheck() {
        let mut rng = Rng::seed_from(61);
        let theta = Tensor::randn(&[2, 2, 3], &mut rng).scale(0.3);
        let w = Tensor::randn(&[2, 3, 3, 2], &mut rng);
        check_gradients(&[theta, w], 1e-2, 2e-2, |g, vars| {
            let grid = g.affine_grid(vars[0], (3, 3));
            let weighted = g.mul(grid, vars[1]);
            g.sum(weighted)
        });
    }

    #[test]
    fn grid_sample_gradcheck_interior() {
        // Keep the grid strictly inside the image so bilinear is smooth.
        let mut rng = Rng::seed_from(62);
        let x = Tensor::randn(&[1, 1, 6, 6], &mut rng);
        let grid = Tensor::rand_uniform(&[1, 3, 3, 2], -0.6, 0.6, &mut rng);
        check_gradients(&[x, grid], 1e-3, 3e-2, |g, vars| {
            let y = g.grid_sample(vars[0], vars[1]);
            let sq = g.square(y);
            g.sum(sq)
        });
    }

    #[test]
    fn end_to_end_stn_gradcheck() {
        let mut rng = Rng::seed_from(63);
        let x = Tensor::randn(&[1, 1, 5, 5], &mut rng);
        let theta = Tensor::from_vec(vec![0.9, 0.05, 0.1, -0.05, 0.9, -0.1], &[1, 2, 3]);
        // Bilinear sampling is only piecewise-smooth, so allow a looser
        // tolerance near cell boundaries.
        check_gradients(&[x, theta], 1e-3, 1e-1, |g, vars| {
            let grid = g.affine_grid(vars[1], (5, 5));
            let y = g.grid_sample(vars[0], grid);
            let sq = g.square(y);
            g.sum(sq)
        });
    }
}
