//! Differentiable matrix products.

use std::rc::Rc;

use crate::graph::{Graph, Var};
use aibench_tensor::ops::{batch_matmul, batch_matmul_layout, matmul, matmul_layout, Layout};

impl Graph {
    /// Matrix product `[m, k] x [k, n] -> [m, n]`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not 2-D or the inner dimensions disagree.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let (va, vb) = (
            Rc::clone(&self.nodes[a.0].value),
            Rc::clone(&self.nodes[b.0].value),
        );
        let out = matmul(&va, &vb);
        self.op(out, &[a, b], move |g, gm| {
            // dA = g x B^T and dB = A^T x g, the transposes read in place.
            gm.accumulate_with(a, || {
                matmul_layout(g, Layout::RowMajor, &vb, Layout::Transposed)
            });
            gm.accumulate_with(b, || {
                matmul_layout(&va, Layout::Transposed, g, Layout::RowMajor)
            });
        })
    }

    /// Batched matrix product `[b, m, k] x [b, k, n] -> [b, m, n]`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not 3-D or batch/inner dims disagree.
    pub fn batch_matmul(&mut self, a: Var, b: Var) -> Var {
        let (va, vb) = (
            Rc::clone(&self.nodes[a.0].value),
            Rc::clone(&self.nodes[b.0].value),
        );
        let out = batch_matmul(&va, &vb);
        self.op(out, &[a, b], move |g, gm| {
            gm.accumulate_with(a, || {
                batch_matmul_layout(g, Layout::RowMajor, &vb, Layout::Transposed)
            });
            gm.accumulate_with(b, || {
                batch_matmul_layout(&va, Layout::Transposed, g, Layout::RowMajor)
            });
        })
    }

    /// Affine map `x @ w + bias`, the fully-connected layer primitive.
    ///
    /// `x` is `[n, d_in]`, `w` is `[d_in, d_out]`, `bias` is `[d_out]`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches.
    pub fn linear(&mut self, x: Var, w: Var, bias: Var) -> Var {
        let y = self.matmul(x, w);
        self.add(y, bias)
    }
}

#[cfg(test)]
mod tests {
    use crate::check_gradients;
    use aibench_tensor::{Rng, Tensor};

    #[test]
    fn matmul_gradcheck() {
        let mut rng = Rng::seed_from(10);
        let a = Tensor::randn(&[3, 4], &mut rng);
        let b = Tensor::randn(&[4, 2], &mut rng);
        check_gradients(&[a, b], 1e-2, 1e-2, |g, vars| {
            let y = g.matmul(vars[0], vars[1]);
            let sq = g.square(y);
            g.sum(sq)
        });
    }

    #[test]
    fn batch_matmul_gradcheck() {
        let mut rng = Rng::seed_from(11);
        let a = Tensor::randn(&[2, 3, 4], &mut rng);
        let b = Tensor::randn(&[2, 4, 2], &mut rng);
        check_gradients(&[a, b], 1e-2, 1e-2, |g, vars| {
            let y = g.batch_matmul(vars[0], vars[1]);
            let sq = g.square(y);
            g.sum(sq)
        });
    }

    #[test]
    fn linear_gradcheck() {
        let mut rng = Rng::seed_from(12);
        let x = Tensor::randn(&[4, 3], &mut rng);
        let w = Tensor::randn(&[3, 5], &mut rng);
        let b = Tensor::randn(&[5], &mut rng);
        check_gradients(&[x, w, b], 1e-2, 1e-2, |g, vars| {
            let y = g.linear(vars[0], vars[1], vars[2]);
            let t = g.tanh(y);
            g.sum(t)
        });
    }
}
