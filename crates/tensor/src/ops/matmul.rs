//! Matrix multiplication entry points.
//!
//! All products lower onto the packed cache-blocked microkernels in
//! [`super::microkernel`], multi-threaded over disjoint output-row blocks
//! via `aibench-parallel`: each output row is produced entirely by one
//! thread with per-element accumulation in ascending `k` order, so results
//! are bitwise identical for every `AIBENCH_THREADS` value — and bitwise
//! identical to [`matmul_naive`].

use aibench_parallel::effects;

use super::microkernel::{gemm_flops, gemm_into, Layout, Mat};
use crate::Tensor;

/// The logical `(rows, cols)` of a 2-D operand stored as `[d0, d1]` under
/// `layout`.
fn logical_dims(d0: usize, d1: usize, layout: Layout) -> (usize, usize) {
    match layout {
        Layout::RowMajor => (d0, d1),
        Layout::Transposed => (d1, d0),
    }
}

/// Matrix product of two 2-D tensors: `[m, k] x [k, n] -> [m, n]`.
///
/// Lowers onto the packed register-tiled microkernel (see
/// [`super::microkernel`]), which is typically 2-4x faster than the scalar
/// tiled kernel for the GEMM shapes used by the benchmark models, and
/// bitwise identical to the naive i-j-k loop.
///
/// # Panics
///
/// Panics if either input is not 2-D or the inner dimensions disagree.
///
/// # Example
///
/// ```
/// use aibench_tensor::{ops::matmul, Tensor};
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
/// let i = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]);
/// assert_eq!(matmul(&a, &i), a);
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    matmul_layout(a, Layout::RowMajor, b, Layout::RowMajor)
}

/// Matrix product of two 2-D operands, each held by its tensor under the
/// given [`Layout`]: `matmul_layout(g, RowMajor, w, Transposed)` is
/// `g x w^T`, bit for bit what `matmul(g, &w.t())` returns, without the
/// transposed copy.
///
/// # Panics
///
/// Panics if either input is not 2-D or the logical inner dimensions
/// disagree.
///
/// # Example
///
/// ```
/// use aibench_tensor::{ops::{matmul, matmul_layout, Layout}, Tensor};
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
/// let b = Tensor::from_vec(vec![1.0, 0.0, 2.0, 0.0, 1.0, 3.0], &[2, 3]);
/// let abt = matmul_layout(&a, Layout::RowMajor, &b, Layout::Transposed);
/// assert_eq!(abt, matmul(&a, &b.t()));
/// ```
pub fn matmul_layout(a: &Tensor, a_layout: Layout, b: &Tensor, b_layout: Layout) -> Tensor {
    assert_eq!(a.ndim(), 2, "matmul: lhs must be 2-D, got {:?}", a.shape());
    assert_eq!(b.ndim(), 2, "matmul: rhs must be 2-D, got {:?}", b.shape());
    let (m, k) = logical_dims(a.shape()[0], a.shape()[1], a_layout);
    let (k2, n) = logical_dims(b.shape()[0], b.shape()[1], b_layout);
    assert_eq!(
        k,
        k2,
        "matmul: inner dims {k} vs {k2} (lhs {:?} {a_layout:?}, rhs {:?} {b_layout:?})",
        a.shape(),
        b.shape()
    );
    let mut out = vec![0.0f32; m * n];
    gemm_into(
        Mat::new(a.data(), a_layout, m, k),
        Mat::new(b.data(), b_layout, k, n),
        &mut out,
        m,
        k,
        n,
    );
    Tensor::from_vec(out, &[m, n])
}

/// Batched matrix product: `[b, m, k] x [b, k, n] -> [b, m, n]`.
///
/// # Panics
///
/// Panics if either input is not 3-D or batch/inner dimensions disagree.
pub fn batch_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    batch_matmul_layout(a, Layout::RowMajor, b, Layout::RowMajor)
}

/// Batched [`matmul_layout`]: every batch entry's 2-D operand is held under
/// the given [`Layout`], so a `Transposed` side stands for
/// `permute(&[0, 2, 1])` of that tensor without the copy.
///
/// # Panics
///
/// Panics if either input is not 3-D or batch/logical inner dimensions
/// disagree.
pub fn batch_matmul_layout(a: &Tensor, a_layout: Layout, b: &Tensor, b_layout: Layout) -> Tensor {
    assert_eq!(
        a.ndim(),
        3,
        "batch_matmul: lhs must be 3-D, got {:?}",
        a.shape()
    );
    assert_eq!(
        b.ndim(),
        3,
        "batch_matmul: rhs must be 3-D, got {:?}",
        b.shape()
    );
    let (ba, bb) = (a.shape()[0], b.shape()[0]);
    let (m, k) = logical_dims(a.shape()[1], a.shape()[2], a_layout);
    let (k2, n) = logical_dims(b.shape()[1], b.shape()[2], b_layout);
    assert_eq!(ba, bb, "batch_matmul: batch dims {ba} vs {bb}");
    assert_eq!(k, k2, "batch_matmul: inner dims {k} vs {k2}");
    let mut out = vec![0.0f32; ba * m * n];
    let _scope = effects::kernel_scope("batch_matmul");
    // One batch entry per chunk; every entry's GEMM is independent.
    let work = ba as u64 * gemm_flops(m, k, n);
    aibench_parallel::parallel_slice_mut_weighted(&mut out, m * n, work, |range, out_i| {
        let i = range.start / (m * n).max(1);
        effects::read(a.data(), i * m * k..(i + 1) * m * k);
        effects::read(b.data(), i * k * n..(i + 1) * k * n);
        gemm_into(
            Mat::new(&a.data()[i * m * k..(i + 1) * m * k], a_layout, m, k),
            Mat::new(&b.data()[i * k * n..(i + 1) * k * n], b_layout, k, n),
            out_i,
            m,
            k,
            n,
        );
    });
    Tensor::from_vec(out, &[ba, m, n])
}

/// Naive reference GEMM, used for validation (the bitwise oracle of the
/// microkernel regression tests) and the matmul ablation bench.
pub fn matmul_naive(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.ndim(), 2, "matmul_naive: lhs must be 2-D");
    assert_eq!(b.ndim(), 2, "matmul_naive: rhs must be 2-D");
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let n = b.shape()[1];
    assert_eq!(k, b.shape()[0], "matmul_naive inner dim mismatch");
    let mut out = Tensor::zeros(&[m, n]);
    let (a_data, b_data) = (a.data(), b.data());
    let _scope = effects::kernel_scope("matmul_naive");
    // Row-parallel like the blocked kernel; each dot product is computed
    // by one thread in index order, so results are thread-count invariant.
    aibench_parallel::parallel_slice_mut(out.data_mut(), n.max(1), |range, out_row| {
        let i = range.start / n.max(1);
        effects::read(a_data, i * k..(i + 1) * k);
        effects::read(b_data, 0..k * n);
        for (j, o) in out_row.iter_mut().enumerate() {
            let mut acc = 0.0;
            for kk in 0..k {
                acc += a_data[i * k + kk] * b_data[kk * n + j];
            }
            *o = acc;
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    #[test]
    fn identity() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let eye = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]);
        assert_eq!(matmul(&a, &eye), a);
    }

    #[test]
    fn known_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = matmul(&a, &b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn blocked_matches_naive_bitwise() {
        let mut rng = Rng::seed_from(3);
        for &(m, k, n) in &[(1, 1, 1), (5, 7, 3), (33, 40, 65), (64, 64, 64)] {
            let a = Tensor::randn(&[m, k], &mut rng);
            let b = Tensor::randn(&[k, n], &mut rng);
            let fast = matmul(&a, &b);
            let slow = matmul_naive(&a, &b);
            assert!(
                fast.data()
                    .iter()
                    .zip(slow.data())
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "mismatch at ({m},{k},{n})"
            );
        }
    }

    #[test]
    fn batch_matches_loop() {
        let mut rng = Rng::seed_from(4);
        let a = Tensor::randn(&[3, 4, 5], &mut rng);
        let b = Tensor::randn(&[3, 5, 2], &mut rng);
        let c = batch_matmul(&a, &b);
        assert_eq!(c.shape(), &[3, 4, 2]);
        for i in 0..3 {
            let ai = Tensor::from_vec(a.data()[i * 20..(i + 1) * 20].to_vec(), &[4, 5]);
            let bi = Tensor::from_vec(b.data()[i * 10..(i + 1) * 10].to_vec(), &[5, 2]);
            let ci = matmul(&ai, &bi);
            let got = &c.data()[i * 8..(i + 1) * 8];
            for (x, y) in ci.data().iter().zip(got) {
                assert!((x - y).abs() < 1e-5);
            }
        }
    }

    #[test]
    #[should_panic(expected = "inner dims")]
    fn mismatched_inner_dim_panics() {
        let a = Tensor::ones(&[2, 3]);
        let b = Tensor::ones(&[4, 2]);
        let _ = matmul(&a, &b);
    }
}
