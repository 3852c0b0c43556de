//! Numerically stable softmax family over the last axis.
//!
//! Both kernels parallelize over contiguous blocks of rows; every row is
//! normalized by exactly one thread in serial order, so results are bitwise
//! identical for every `AIBENCH_THREADS` value.

use aibench_parallel::effects;

use crate::Tensor;

/// Rows handed to one worker at a time. Softmax rows are cheap, so chunks
/// amortize scheduling; sized so a block of typical classifier rows
/// (~10-1000 floats) stays around the elementwise chunk grain.
const ROW_BLOCK: usize = 64;

/// Work estimate per element, in floating-point operations: a max, a
/// subtract, an `exp` (a few dozen on its own), an add and a scale.
const FLOPS_PER_ELEMENT: usize = 32;

/// Softmax over the last axis, numerically stabilized by row-max
/// subtraction.
///
/// # Panics
///
/// Panics if the tensor is 0-dimensional.
///
/// # Example
///
/// ```
/// use aibench_tensor::{ops::softmax_last, Tensor};
/// let p = softmax_last(&Tensor::from_vec(vec![1.0, 1.0], &[2]));
/// assert!((p.data()[0] - 0.5).abs() < 1e-6);
/// ```
pub fn softmax_last(x: &Tensor) -> Tensor {
    assert!(x.ndim() >= 1, "softmax_last on scalar");
    let inner = *x.shape().last().unwrap();
    let data = x.data();
    let mut out = Tensor::zeros(x.shape());
    let _scope = effects::kernel_scope("softmax");
    aibench_parallel::parallel_slice_mut_weighted(
        out.data_mut(),
        ROW_BLOCK * inner.max(1),
        (x.len() * FLOPS_PER_ELEMENT) as u64,
        |range, block| {
            effects::read(data, range.clone());
            for (row, dst) in data[range]
                .chunks(inner.max(1))
                .zip(block.chunks_mut(inner.max(1)))
            {
                let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let mut z = 0.0;
                for (d, &v) in dst.iter_mut().zip(row) {
                    let e = (v - m).exp();
                    *d = e;
                    z += e;
                }
                let inv = 1.0 / z;
                for d in dst.iter_mut() {
                    *d *= inv;
                }
            }
        },
    );
    out
}

/// Log-softmax over the last axis.
///
/// # Panics
///
/// Panics if the tensor is 0-dimensional.
pub fn log_softmax_last(x: &Tensor) -> Tensor {
    assert!(x.ndim() >= 1, "log_softmax_last on scalar");
    let inner = *x.shape().last().unwrap();
    let data = x.data();
    let mut out = Tensor::zeros(x.shape());
    let _scope = effects::kernel_scope("log_softmax");
    aibench_parallel::parallel_slice_mut_weighted(
        out.data_mut(),
        ROW_BLOCK * inner.max(1),
        (x.len() * FLOPS_PER_ELEMENT) as u64,
        |range, block| {
            effects::read(data, range.clone());
            for (row, dst) in data[range]
                .chunks(inner.max(1))
                .zip(block.chunks_mut(inner.max(1)))
            {
                let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let z: f32 = row.iter().map(|&v| (v - m).exp()).sum();
                let log_z = z.ln() + m;
                for (d, &v) in dst.iter_mut().zip(row) {
                    *d = v - log_z;
                }
            }
        },
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_sum_to_one() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]);
        let p = softmax_last(&x);
        for o in 0..2 {
            let s: f32 = p.data()[o * 3..(o + 1) * 3].iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn stable_for_large_logits() {
        let x = Tensor::from_vec(vec![1000.0, 1001.0], &[2]);
        let p = softmax_last(&x);
        assert!(p.all_finite());
        assert!((p.data()[0] + p.data()[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn log_softmax_consistent_with_softmax() {
        let x = Tensor::from_vec(vec![0.3, -1.2, 2.0, 0.0], &[2, 2]);
        let p = softmax_last(&x);
        let lp = log_softmax_last(&x);
        for (a, b) in p.data().iter().zip(lp.data()) {
            assert!((a.ln() - b).abs() < 1e-5);
        }
    }

    #[test]
    fn uniform_logits_give_uniform_probs() {
        let x = Tensor::zeros(&[1, 5]);
        let p = softmax_last(&x);
        assert!(p.data().iter().all(|&v| (v - 0.2).abs() < 1e-6));
    }
}
