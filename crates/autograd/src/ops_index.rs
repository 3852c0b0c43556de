//! Indexing and structural ops: embedding lookup, concatenation, slicing.

use std::rc::Rc;

use aibench_tensor::ops::{concat, slice_axis};
use aibench_tensor::Tensor;

use crate::graph::{Graph, Var};

impl Graph {
    /// Row gather: selects rows `ids` from a 2-D table `[rows, d]`,
    /// producing `[ids.len(), d]`. This is the embedding-lookup primitive;
    /// its backward is a scatter-add into the table gradient.
    ///
    /// # Panics
    ///
    /// Panics if the table is not 2-D or any id is out of range.
    pub fn index_select0(&mut self, table: Var, ids: &[usize]) -> Var {
        let vt = Rc::clone(&self.nodes[table.0].value);
        assert_eq!(
            vt.ndim(),
            2,
            "index_select0: table must be 2-D, got {:?}",
            vt.shape()
        );
        let (rows, d) = (vt.shape()[0], vt.shape()[1]);
        let mut out = Tensor::zeros(&[ids.len(), d]);
        for (i, &id) in ids.iter().enumerate() {
            assert!(
                id < rows,
                "index_select0: id {id} out of range for {rows} rows"
            );
            out.data_mut()[i * d..(i + 1) * d].copy_from_slice(&vt.data()[id * d..(id + 1) * d]);
        }
        let ids = ids.to_vec();
        let table_shape = vt.shape().to_vec();
        self.op(out, &[table], move |g, gm| {
            let mut gt = Tensor::zeros(&table_shape);
            for (i, &id) in ids.iter().enumerate() {
                let dst = &mut gt.data_mut()[id * d..(id + 1) * d];
                for (a, &b) in dst.iter_mut().zip(&g.data()[i * d..(i + 1) * d]) {
                    *a += b;
                }
            }
            gm.accumulate_with(table, || gt);
        })
    }

    /// Concatenates nodes along `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or extents disagree off-axis.
    pub fn concat(&mut self, parts: &[Var], axis: usize) -> Var {
        assert!(!parts.is_empty(), "concat of zero vars");
        let values: Vec<Rc<Tensor>> = parts
            .iter()
            .map(|p| Rc::clone(&self.nodes[p.0].value))
            .collect();
        let refs: Vec<&Tensor> = values.iter().map(|v| v.as_ref()).collect();
        let out = concat(&refs, axis);
        let extents: Vec<usize> = values.iter().map(|v| v.shape()[axis]).collect();
        let parts = parts.to_vec();
        self.op(out, &parts.clone(), move |g, gm| {
            let mut start = 0;
            for (p, &ext) in parts.iter().zip(&extents) {
                gm.accumulate_with(*p, || slice_axis(g, axis, start, ext));
                start += ext;
            }
        })
    }

    /// Extracts `[start, start+len)` along `axis`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the axis extent.
    pub fn slice(&mut self, x: Var, axis: usize, start: usize, len: usize) -> Var {
        let vx = Rc::clone(&self.nodes[x.0].value);
        let out = slice_axis(&vx, axis, start, len);
        let in_shape = vx.shape().to_vec();
        self.op(out, &[x], move |g, gm| {
            // Zero-pad the gradient back into the source extent.
            let mut gx = Tensor::zeros(&in_shape);
            let inner: usize = in_shape[axis + 1..].iter().product();
            let outer: usize = in_shape[..axis].iter().product();
            let src_chunk = len * inner;
            let dst_chunk = in_shape[axis] * inner;
            for o in 0..outer {
                let dst = o * dst_chunk + start * inner;
                gx.data_mut()[dst..dst + src_chunk]
                    .copy_from_slice(&g.data()[o * src_chunk..(o + 1) * src_chunk]);
            }
            gm.accumulate_with(x, || gx);
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::{check_gradients, Graph, Param};
    use aibench_tensor::{Rng, Tensor};

    #[test]
    fn index_select_forward_and_scatter_backward() {
        let table = Param::new(
            "emb",
            Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]),
        );
        let mut g = Graph::new();
        let t = g.param(&table);
        let rows = g.index_select0(t, &[2, 0, 2]);
        assert_eq!(g.value(rows).data(), &[5.0, 6.0, 1.0, 2.0, 5.0, 6.0]);
        let loss = g.sum(rows);
        g.backward(loss);
        // Row 2 selected twice, row 0 once, row 1 never.
        assert_eq!(table.grad().data(), &[1.0, 1.0, 0.0, 0.0, 2.0, 2.0]);
    }

    #[test]
    fn concat_gradcheck() {
        let mut rng = Rng::seed_from(30);
        let a = Tensor::randn(&[2, 2], &mut rng);
        let b = Tensor::randn(&[2, 3], &mut rng);
        check_gradients(&[a, b], 1e-2, 1e-2, |g, vars| {
            let c = g.concat(&[vars[0], vars[1]], 1);
            let sq = g.square(c);
            g.sum(sq)
        });
    }

    #[test]
    fn slice_gradcheck() {
        let mut rng = Rng::seed_from(31);
        let a = Tensor::randn(&[3, 4], &mut rng);
        check_gradients(&[a], 1e-2, 1e-2, |g, vars| {
            let s = g.slice(vars[0], 1, 1, 2);
            let sq = g.square(s);
            g.sum(sq)
        });
    }

    #[test]
    fn slice_concat_roundtrip_values() {
        let mut rng = Rng::seed_from(32);
        let x = Tensor::randn(&[2, 5], &mut rng);
        let mut g = Graph::new();
        let v = g.input(x.clone());
        let a = g.slice(v, 1, 0, 2);
        let b = g.slice(v, 1, 2, 3);
        let back = g.concat(&[a, b], 1);
        assert_eq!(g.value(back), &x);
    }
}
