//! Elementwise arithmetic, activations, reductions, and shape ops.

use std::rc::Rc;

use aibench_tensor::ops::{log_softmax_last, softmax_last};
use aibench_tensor::Tensor;

use crate::graph::{Graph, Var};

impl Graph {
    // ------------------------------------------------------------------
    // Broadcasting arithmetic
    // ------------------------------------------------------------------

    /// Elementwise (broadcasting) addition.
    ///
    /// # Panics
    ///
    /// Panics if the shapes do not broadcast.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let (va, vb) = (
            Rc::clone(&self.nodes[a.0].value),
            Rc::clone(&self.nodes[b.0].value),
        );
        let out = va.add(&vb);
        let (sa, sb) = (va.shape().to_vec(), vb.shape().to_vec());
        self.op(out, &[a, b], move |g, gm| {
            gm.accumulate_with(a, || g.sum_to(&sa));
            gm.accumulate_with(b, || g.sum_to(&sb));
        })
    }

    /// Elementwise (broadcasting) subtraction.
    ///
    /// # Panics
    ///
    /// Panics if the shapes do not broadcast.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let (va, vb) = (
            Rc::clone(&self.nodes[a.0].value),
            Rc::clone(&self.nodes[b.0].value),
        );
        let out = va.sub(&vb);
        let (sa, sb) = (va.shape().to_vec(), vb.shape().to_vec());
        self.op(out, &[a, b], move |g, gm| {
            gm.accumulate_with(a, || g.sum_to(&sa));
            gm.accumulate_with(b, || sum_to_owned(g.neg(), &sb));
        })
    }

    /// Elementwise (broadcasting) multiplication.
    ///
    /// # Panics
    ///
    /// Panics if the shapes do not broadcast.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let (va, vb) = (
            Rc::clone(&self.nodes[a.0].value),
            Rc::clone(&self.nodes[b.0].value),
        );
        let out = va.mul(&vb);
        let (sa, sb) = (va.shape().to_vec(), vb.shape().to_vec());
        self.op(out, &[a, b], move |g, gm| {
            gm.accumulate_with(a, || sum_to_owned(g.mul(&vb), &sa));
            gm.accumulate_with(b, || sum_to_owned(g.mul(&va), &sb));
        })
    }

    /// Elementwise (broadcasting) division.
    ///
    /// # Panics
    ///
    /// Panics if the shapes do not broadcast.
    pub fn div(&mut self, a: Var, b: Var) -> Var {
        let (va, vb) = (
            Rc::clone(&self.nodes[a.0].value),
            Rc::clone(&self.nodes[b.0].value),
        );
        let out = va.div(&vb);
        let (sa, sb) = (va.shape().to_vec(), vb.shape().to_vec());
        self.op(out, &[a, b], move |g, gm| {
            gm.accumulate_with(a, || sum_to_owned(g.div(&vb), &sa));
            gm.accumulate_with(b, || sum_to_owned(g.mul(&va).div(&vb).div(&vb).neg(), &sb));
        })
    }

    /// Multiplies by a constant scalar.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        let va = Rc::clone(&self.nodes[a.0].value);
        self.op(va.scale(c), &[a], move |g, gm| {
            gm.accumulate_with(a, || g.scale(c))
        })
    }

    /// Adds a constant scalar.
    pub fn add_scalar(&mut self, a: Var, c: f32) -> Var {
        let va = Rc::clone(&self.nodes[a.0].value);
        self.op(va.add_scalar(c), &[a], move |g, gm| {
            gm.accumulate_with(a, || g.clone())
        })
    }

    /// Elementwise negation.
    pub fn neg(&mut self, a: Var) -> Var {
        self.scale(a, -1.0)
    }

    // ------------------------------------------------------------------
    // Activations and pointwise nonlinearities
    // ------------------------------------------------------------------

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let va = Rc::clone(&self.nodes[a.0].value);
        let out = va.map(|x| x.max(0.0));
        self.op(out, &[a], move |g, gm| {
            gm.accumulate_with(a, || g.zip(&va, |gi, xi| if xi > 0.0 { gi } else { 0.0 }));
        })
    }

    /// Leaky ReLU with the given negative slope.
    pub fn leaky_relu(&mut self, a: Var, slope: f32) -> Var {
        let va = Rc::clone(&self.nodes[a.0].value);
        let out = va.map(|x| if x > 0.0 { x } else { slope * x });
        self.op(out, &[a], move |g, gm| {
            gm.accumulate_with(a, || {
                g.zip(&va, |gi, xi| if xi > 0.0 { gi } else { slope * gi })
            });
        })
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let va = Rc::clone(&self.nodes[a.0].value);
        let y = va.map(|x| 1.0 / (1.0 + (-x).exp()));
        let yc = y.clone();
        self.op(y, &[a], move |g, gm| {
            gm.accumulate_with(a, || g.zip(&yc, |gi, yi| gi * yi * (1.0 - yi)));
        })
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let va = Rc::clone(&self.nodes[a.0].value);
        let y = va.map(f32::tanh);
        let yc = y.clone();
        self.op(y, &[a], move |g, gm| {
            gm.accumulate_with(a, || g.zip(&yc, |gi, yi| gi * (1.0 - yi * yi)));
        })
    }

    /// Elementwise exponential.
    pub fn exp(&mut self, a: Var) -> Var {
        let va = Rc::clone(&self.nodes[a.0].value);
        let y = va.map(f32::exp);
        let yc = y.clone();
        self.op(y, &[a], move |g, gm| gm.accumulate_with(a, || g.mul(&yc)))
    }

    /// Elementwise natural logarithm, clamped below at `1e-12` for
    /// stability.
    pub fn ln(&mut self, a: Var) -> Var {
        let va = Rc::clone(&self.nodes[a.0].value);
        let y = va.map(|x| x.max(1e-12).ln());
        self.op(y, &[a], move |g, gm| {
            gm.accumulate_with(a, || g.zip(&va, |gi, xi| gi / xi.max(1e-12)));
        })
    }

    /// Elementwise square.
    pub fn square(&mut self, a: Var) -> Var {
        let va = Rc::clone(&self.nodes[a.0].value);
        let y = va.map(|x| x * x);
        self.op(y, &[a], move |g, gm| {
            gm.accumulate_with(a, || g.zip(&va, |gi, xi| 2.0 * gi * xi));
        })
    }

    /// Elementwise square root (of the input clamped at zero).
    pub fn sqrt(&mut self, a: Var) -> Var {
        let va = Rc::clone(&self.nodes[a.0].value);
        let y = va.map(|x| x.max(0.0).sqrt());
        let yc = y.clone();
        self.op(y, &[a], move |g, gm| {
            gm.accumulate_with(a, || g.zip(&yc, |gi, yi| gi / (2.0 * yi.max(1e-8))));
        })
    }

    /// Elementwise absolute value (subgradient 0 at the origin).
    pub fn abs(&mut self, a: Var) -> Var {
        let va = Rc::clone(&self.nodes[a.0].value);
        let y = va.map(f32::abs);
        self.op(y, &[a], move |g, gm| {
            gm.accumulate_with(a, || {
                g.zip(&va, |gi, xi| {
                    gi * xi.signum() * if xi == 0.0 { 0.0 } else { 1.0 }
                })
            });
        })
    }

    /// Softmax over the last axis.
    pub fn softmax(&mut self, a: Var) -> Var {
        let va = Rc::clone(&self.nodes[a.0].value);
        let y = softmax_last(&va);
        let yc = y.clone();
        self.op(y, &[a], move |g, gm| {
            // dL/dx = (g - <g, y>_row) * y, rowwise over the last axis.
            let inner = *yc.shape().last().unwrap();
            let outer = yc.len() / inner;
            let mut gx = Tensor::zeros(yc.shape());
            for o in 0..outer {
                let gr = &g.data()[o * inner..(o + 1) * inner];
                let yr = &yc.data()[o * inner..(o + 1) * inner];
                let dot: f32 = gr.iter().zip(yr).map(|(a, b)| a * b).sum();
                let dst = &mut gx.data_mut()[o * inner..(o + 1) * inner];
                for i in 0..inner {
                    dst[i] = (gr[i] - dot) * yr[i];
                }
            }
            gm.accumulate_with(a, || gx);
        })
    }

    /// Log-softmax over the last axis.
    pub fn log_softmax(&mut self, a: Var) -> Var {
        let va = Rc::clone(&self.nodes[a.0].value);
        let y = log_softmax_last(&va);
        let p = softmax_last(&va);
        self.op(y, &[a], move |g, gm| {
            // dL/dx = g - p * sum(g)_row
            let inner = *p.shape().last().unwrap();
            let outer = p.len() / inner;
            let mut gx = Tensor::zeros(p.shape());
            for o in 0..outer {
                let gr = &g.data()[o * inner..(o + 1) * inner];
                let pr = &p.data()[o * inner..(o + 1) * inner];
                let gsum: f32 = gr.iter().sum();
                let dst = &mut gx.data_mut()[o * inner..(o + 1) * inner];
                for i in 0..inner {
                    dst[i] = gr[i] - pr[i] * gsum;
                }
            }
            gm.accumulate_with(a, || gx);
        })
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements (scalar output).
    pub fn sum(&mut self, a: Var) -> Var {
        let va = Rc::clone(&self.nodes[a.0].value);
        let shape = va.shape().to_vec();
        self.op(Tensor::scalar(va.sum()), &[a], move |g, gm| {
            gm.accumulate_with(a, || Tensor::full(&shape, g.item()));
        })
    }

    /// Mean of all elements (scalar output).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    pub fn mean(&mut self, a: Var) -> Var {
        let n = self.nodes[a.0].value.len();
        assert!(n > 0, "mean of empty tensor");
        let s = self.sum(a);
        self.scale(s, 1.0 / n as f32)
    }

    /// Sums along `axis`, removing it.
    ///
    /// # Panics
    ///
    /// Panics if `axis` is out of range.
    pub fn sum_axis(&mut self, a: Var, axis: usize) -> Var {
        let va = Rc::clone(&self.nodes[a.0].value);
        let out = va.sum_axis(axis);
        let in_shape = va.shape().to_vec();
        self.op(out, &[a], move |g, gm| {
            // Repeat each `inner`-long row of `g` over the `mid` reduced rows. Both
            // are derived here: capturing them moved glibc's heap trims (EXPERIMENTS.md).
            let [mid, inner] = [in_shape[axis], in_shape[axis + 1..].iter().product()];
            let mut gx = Vec::with_capacity(in_shape.iter().product());
            for row in g.data().chunks_exact(inner.max(1)) {
                match row {
                    [v] => gx.resize(gx.len() + mid, *v),
                    _ => (0..mid).for_each(|_| gx.extend_from_slice(row)),
                }
            }
            gm.accumulate_with(a, || Tensor::from_vec(gx, &in_shape));
        })
    }

    /// Means along `axis`, removing it.
    ///
    /// # Panics
    ///
    /// Panics if `axis` is out of range or has zero extent.
    pub fn mean_axis(&mut self, a: Var, axis: usize) -> Var {
        let n = self.nodes[a.0].value.shape()[axis];
        assert!(n > 0, "mean_axis over empty axis");
        let s = self.sum_axis(a, axis);
        self.scale(s, 1.0 / n as f32)
    }

    // ------------------------------------------------------------------
    // Shape ops
    // ------------------------------------------------------------------

    /// Reshapes without changing element count.
    ///
    /// # Panics
    ///
    /// Panics if element counts differ.
    pub fn reshape(&mut self, a: Var, shape: &[usize]) -> Var {
        let va = Rc::clone(&self.nodes[a.0].value);
        let out = va.reshape(shape);
        let in_shape = va.shape().to_vec();
        self.op(out, &[a], move |g, gm| {
            gm.accumulate_with(a, || g.reshape(&in_shape))
        })
    }

    /// Transposes a 2-D node.
    ///
    /// # Panics
    ///
    /// Panics if the node is not 2-D.
    pub fn transpose(&mut self, a: Var) -> Var {
        let va = Rc::clone(&self.nodes[a.0].value);
        self.op(va.t(), &[a], move |g, gm| gm.accumulate_with(a, || g.t()))
    }

    /// Permutes dimensions; `perm[i]` is the source axis of output axis `i`.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation.
    pub fn permute(&mut self, a: Var, perm: &[usize]) -> Var {
        let va = Rc::clone(&self.nodes[a.0].value);
        let out = va.permute(perm);
        // Inverse permutation for the backward pass.
        let mut inv = vec![0usize; perm.len()];
        for (i, &p) in perm.iter().enumerate() {
            inv[p] = i;
        }
        self.op(out, &[a], move |g, gm| {
            gm.accumulate_with(a, || g.permute(&inv))
        })
    }
}

/// `t.sum_to(shape)`, without the copy when `t` already has `shape`.
fn sum_to_owned(t: Tensor, to: &[usize]) -> Tensor {
    if t.shape() == to {
        t
    } else {
        t.sum_to(to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_gradients;
    use aibench_tensor::Rng;

    #[test]
    fn add_broadcast_gradcheck() {
        let mut rng = Rng::seed_from(1);
        let a = Tensor::randn(&[2, 3], &mut rng);
        let b = Tensor::randn(&[3], &mut rng);
        check_gradients(&[a, b], 2e-2, 1e-2, |g, vars| {
            let y = g.add(vars[0], vars[1]);
            let y = g.square(y);
            g.sum(y)
        });
    }

    #[test]
    fn mul_div_gradcheck() {
        let mut rng = Rng::seed_from(2);
        let a = Tensor::rand_uniform(&[2, 3], 0.5, 2.0, &mut rng);
        let b = Tensor::rand_uniform(&[2, 3], 0.5, 2.0, &mut rng);
        check_gradients(&[a, b], 1e-2, 1e-2, |g, vars| {
            let y = g.mul(vars[0], vars[1]);
            let z = g.div(y, vars[1]);
            let w = g.add(y, z);
            g.sum(w)
        });
    }

    #[test]
    fn activations_gradcheck() {
        let mut rng = Rng::seed_from(3);
        let a = Tensor::rand_uniform(&[8], 0.2, 1.5, &mut rng);
        check_gradients(&[a], 1e-2, 1e-2, |g, vars| {
            let x = vars[0];
            let s = g.sigmoid(x);
            let t = g.tanh(s);
            let e = g.exp(t);
            let l = g.ln(e);
            let q = g.sqrt(l);
            g.sum(q)
        });
    }

    #[test]
    fn softmax_gradcheck() {
        let mut rng = Rng::seed_from(4);
        let a = Tensor::randn(&[3, 5], &mut rng);
        let w = Tensor::randn(&[3, 5], &mut rng);
        check_gradients(&[a, w.clone()], 2e-2, 1e-2, move |g, vars| {
            let p = g.softmax(vars[0]);
            let weighted = g.mul(p, vars[1]);
            g.sum(weighted)
        });
    }

    #[test]
    fn log_softmax_gradcheck() {
        let mut rng = Rng::seed_from(5);
        let a = Tensor::randn(&[2, 4], &mut rng);
        let w = Tensor::randn(&[2, 4], &mut rng);
        check_gradients(&[a, w], 2e-2, 1e-2, |g, vars| {
            let lp = g.log_softmax(vars[0]);
            let weighted = g.mul(lp, vars[1]);
            g.sum(weighted)
        });
    }

    #[test]
    fn reductions_and_shape_gradcheck() {
        let mut rng = Rng::seed_from(6);
        let a = Tensor::randn(&[2, 3, 4], &mut rng);
        check_gradients(&[a], 1e-2, 1e-2, |g, vars| {
            let s = g.sum_axis(vars[0], 1);
            let r = g.reshape(s, &[4, 2]);
            let t = g.transpose(r);
            let sq = g.square(t);
            g.mean(sq)
        });
    }

    #[test]
    fn permute_gradcheck() {
        let mut rng = Rng::seed_from(7);
        let a = Tensor::randn(&[2, 3, 4], &mut rng);
        check_gradients(&[a], 1e-2, 1e-2, |g, vars| {
            let p = g.permute(vars[0], &[2, 0, 1]);
            let sq = g.square(p);
            g.sum(sq)
        });
    }

    #[test]
    fn sub_neg_leaky_relu_gradcheck() {
        let mut rng = Rng::seed_from(8);
        let a = Tensor::randn(&[2, 3], &mut rng);
        let b = Tensor::randn(&[2, 3], &mut rng);
        check_gradients(&[a, b], 2e-2, 1e-2, |g, vars| {
            let d = g.sub(vars[0], vars[1]);
            let n = g.neg(d);
            let l = g.leaky_relu(n, 0.1);
            let sq = g.square(l);
            g.sum(sq)
        });
    }

    #[test]
    fn mean_axis_gradcheck() {
        let mut rng = Rng::seed_from(9);
        let a = Tensor::randn(&[2, 3, 4], &mut rng);
        for axis in 0..3 {
            check_gradients(std::slice::from_ref(&a), 1e-2, 1e-2, move |g, vars| {
                let m = g.mean_axis(vars[0], axis);
                let sq = g.square(m);
                g.sum(sq)
            });
        }
    }

    #[test]
    fn relu_known_gradient() {
        let mut g = Graph::new();
        let p = crate::Param::new("x", Tensor::from_vec(vec![-1.0, 2.0, 0.5], &[3]));
        let x = g.param(&p);
        let y = g.relu(x);
        let loss = g.sum(y);
        g.backward(loss);
        assert_eq!(p.grad().data(), &[0.0, 1.0, 1.0]);
    }
}
