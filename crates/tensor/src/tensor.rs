//! The dense `f32` tensor type.

use std::fmt;

use crate::rng::Rng;
use crate::shape::{broadcast_shapes, broadcast_strides, row_major_strides};
use crate::walk::{copy_strided, RowWalk};

/// A dense, row-major (C-order), contiguous `f32` tensor.
///
/// Tensors are the value type flowing through the autograd tape, the neural
/// network layers, and the benchmark metrics. They are plain data: cloning
/// copies the buffer, and all operations produce new tensors unless suffixed
/// `_inplace`.
///
/// Shape-mismatch misuse is a programming error, so shape checks panic with
/// descriptive messages (documented per method) rather than returning
/// `Result`, mirroring the convention of mainstream numeric libraries.
///
/// # Example
///
/// ```
/// use aibench_tensor::Tensor;
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
/// let b = a.add(&a).scale(0.5);
/// assert_eq!(b.data(), a.data());
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; shape.iter().product()],
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: &[usize]) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Tensor {
            shape: shape.to_vec(),
            data: vec![value; shape.iter().product()],
        }
    }

    /// Creates a 0-dimensional (scalar) tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            shape: vec![],
            data: vec![value],
        }
    }

    /// Creates a tensor from a flat buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        let expected: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            expected,
            "from_vec: buffer of {} elements does not fit shape {:?} ({} elements)",
            data.len(),
            shape,
            expected
        );
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Creates a tensor by calling `f` with each flat index.
    pub fn from_fn(shape: &[usize], mut f: impl FnMut(usize) -> f32) -> Self {
        let n: usize = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: (0..n).map(&mut f).collect(),
        }
    }

    /// Creates a 1-D tensor `[0, 1, ..., n-1]`.
    pub fn arange(n: usize) -> Self {
        Tensor::from_fn(&[n], |i| i as f32)
    }

    /// Creates a tensor of i.i.d. standard normal samples.
    pub fn randn(shape: &[usize], rng: &mut Rng) -> Self {
        Tensor::from_fn(shape, |_| rng.normal())
    }

    /// Creates a tensor of i.i.d. uniform samples in `[lo, hi)`.
    pub fn rand_uniform(shape: &[usize], lo: f32, hi: f32, rng: &mut Rng) -> Self {
        Tensor::from_fn(shape, |_| rng.uniform_in(lo, hi))
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The dimensions, outermost first. A scalar has shape `&[]`.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor contains zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The flat data buffer, row-major.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the flat data buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its flat buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Extracts the single element of a one-element tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.data.len(),
            1,
            "item() on tensor with {} elements",
            self.data.len()
        );
        self.data[0]
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` has the wrong rank or is out of bounds.
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.flat_index(idx)]
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` has the wrong rank or is out of bounds.
    pub fn set(&mut self, idx: &[usize], value: f32) {
        let i = self.flat_index(idx);
        self.data[i] = value;
    }

    fn flat_index(&self, idx: &[usize]) -> usize {
        assert_eq!(
            idx.len(),
            self.shape.len(),
            "index rank {} vs tensor rank {}",
            idx.len(),
            self.shape.len()
        );
        let mut flat = 0;
        for (d, (&i, &extent)) in idx.iter().zip(&self.shape).enumerate() {
            assert!(
                i < extent,
                "index {i} out of bounds for dim {d} of extent {extent}"
            );
            flat = flat * extent + i;
        }
        flat
    }

    // ------------------------------------------------------------------
    // Shape manipulation
    // ------------------------------------------------------------------

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        let expected: usize = shape.iter().product();
        assert_eq!(
            self.data.len(),
            expected,
            "reshape: {:?} -> {:?} changes element count",
            self.shape,
            shape
        );
        Tensor {
            shape: shape.to_vec(),
            data: self.data.clone(),
        }
    }

    /// Flattens to 1-D.
    pub fn flatten(&self) -> Tensor {
        Tensor {
            shape: vec![self.data.len()],
            data: self.data.clone(),
        }
    }

    /// Transposes a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn t(&self) -> Tensor {
        assert_eq!(
            self.ndim(),
            2,
            "t() requires a 2-D tensor, got {:?}",
            self.shape
        );
        let (r, c) = (self.shape[0], self.shape[1]);
        let mut out = Tensor::zeros(&[c, r]);
        // Square blocks keep both the rows read and the rows written
        // cache-resident while a block is copied.
        const BLOCK: usize = 32;
        for i0 in (0..r).step_by(BLOCK) {
            let i1 = (i0 + BLOCK).min(r);
            for j0 in (0..c).step_by(BLOCK) {
                for j in j0..(j0 + BLOCK).min(c) {
                    let dst = &mut out.data[j * r + i0..j * r + i1];
                    copy_strided(dst, &self.data[i0 * c + j..], c);
                }
            }
        }
        out
    }

    /// Permutes dimensions: `perm[i]` is the source axis for output axis `i`.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..ndim`.
    pub fn permute(&self, perm: &[usize]) -> Tensor {
        assert_eq!(perm.len(), self.ndim(), "permute rank mismatch");
        let mut seen = vec![false; perm.len()];
        for &p in perm {
            assert!(
                p < perm.len() && !seen[p],
                "permute: {:?} is not a permutation",
                perm
            );
            seen[p] = true;
        }
        let out_shape: Vec<usize> = perm.iter().map(|&p| self.shape[p]).collect();
        let in_strides = row_major_strides(&self.shape);
        let src_strides: Vec<usize> = perm.iter().map(|&p| in_strides[p]).collect();
        let mut out = Tensor::zeros(&out_shape);
        let walk = RowWalk::new(&out_shape, [&src_strides]);
        let (len, [step]) = (walk.row_len, walk.inner);
        for (dst, [at]) in out.data.chunks_exact_mut(len.max(1)).zip(walk) {
            copy_strided(dst, &self.data[at..], step);
        }
        out
    }

    // ------------------------------------------------------------------
    // Elementwise, maps, and broadcasting binaries
    // ------------------------------------------------------------------

    /// Applies `f` elementwise.
    ///
    /// Runs multi-threaded over contiguous chunks for large tensors; each
    /// element is mapped independently, so the result never depends on the
    /// thread count.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
        let mut data = vec![0.0f32; self.data.len()];
        let _scope = aibench_parallel::effects::kernel_scope("tensor_map");
        aibench_parallel::parallel_slice_mut_weighted(
            &mut data,
            aibench_parallel::ELEMWISE_CHUNK,
            // Work in values moved: one read and one written per element.
            (self.data.len() * 2) as u64,
            |range, out| {
                aibench_parallel::effects::read(&self.data, range.clone());
                for (o, &x) in out.iter_mut().zip(&self.data[range]) {
                    *o = f(x);
                }
            },
        );
        Tensor {
            shape: self.shape.clone(),
            data,
        }
    }

    /// Applies `f` elementwise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32 + Sync) {
        let _scope = aibench_parallel::effects::kernel_scope("tensor_map_inplace");
        // Work in values moved: one read and one written per element.
        let work = (self.data.len() * 2) as u64;
        aibench_parallel::parallel_slice_mut_weighted(
            &mut self.data,
            aibench_parallel::ELEMWISE_CHUNK,
            work,
            |_, chunk| {
                for x in chunk {
                    *x = f(*x);
                }
            },
        );
    }

    /// Broadcasting binary operation.
    ///
    /// The same-shape fast path runs multi-threaded over contiguous chunks;
    /// the general broadcasting path is serial (it is only hit for small
    /// bias/scale operands in practice).
    ///
    /// # Panics
    ///
    /// Panics if the shapes do not broadcast.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) -> Tensor {
        if self.shape == other.shape {
            let mut data = vec![0.0f32; self.data.len()];
            let _scope = aibench_parallel::effects::kernel_scope("tensor_zip");
            aibench_parallel::parallel_slice_mut_weighted(
                &mut data,
                aibench_parallel::ELEMWISE_CHUNK,
                // Work in values moved: two read and one written per element.
                (self.data.len() * 3) as u64,
                |range, out| {
                    aibench_parallel::effects::read(&self.data, range.clone());
                    aibench_parallel::effects::read(&other.data, range.clone());
                    for ((o, &a), &b) in out
                        .iter_mut()
                        .zip(&self.data[range.clone()])
                        .zip(&other.data[range])
                    {
                        *o = f(a, b);
                    }
                },
            );
            return Tensor {
                shape: self.shape.clone(),
                data,
            };
        }
        let out_shape = broadcast_shapes(&self.shape, &other.shape).unwrap_or_else(|| {
            panic!(
                "shapes {:?} and {:?} do not broadcast",
                self.shape, other.shape
            )
        });
        let sa = broadcast_strides(&self.shape, &out_shape);
        let sb = broadcast_strides(&other.shape, &out_shape);
        let mut data = vec![0.0f32; out_shape.iter().product()];
        let walk = RowWalk::new(&out_shape, [&sa, &sb]);
        let (len, inner) = (walk.row_len, walk.inner);
        for (out, [ia, ib]) in data.chunks_exact_mut(len.max(1)).zip(walk) {
            match inner {
                [1, 1] => {
                    let (a, b) = (&self.data[ia..ia + len], &other.data[ib..ib + len]);
                    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                        *o = f(x, y);
                    }
                }
                [1, 0] => {
                    let y = other.data[ib];
                    for (o, &x) in out.iter_mut().zip(&self.data[ia..ia + len]) {
                        *o = f(x, y);
                    }
                }
                [0, 1] => {
                    let x = self.data[ia];
                    for (o, &y) in out.iter_mut().zip(&other.data[ib..ib + len]) {
                        *o = f(x, y);
                    }
                }
                [da, db] => {
                    for (i, o) in out.iter_mut().enumerate() {
                        *o = f(self.data[ia + i * da], other.data[ib + i * db]);
                    }
                }
            }
        }
        Tensor {
            shape: out_shape,
            data,
        }
    }

    /// Elementwise (broadcasting) addition.
    ///
    /// # Panics
    ///
    /// Panics if the shapes do not broadcast.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a + b)
    }

    /// Elementwise (broadcasting) subtraction.
    ///
    /// # Panics
    ///
    /// Panics if the shapes do not broadcast.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a - b)
    }

    /// Elementwise (broadcasting) multiplication.
    ///
    /// # Panics
    ///
    /// Panics if the shapes do not broadcast.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a * b)
    }

    /// Elementwise (broadcasting) division.
    ///
    /// # Panics
    ///
    /// Panics if the shapes do not broadcast.
    pub fn div(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a / b)
    }

    /// Elementwise maximum with broadcasting.
    ///
    /// # Panics
    ///
    /// Panics if the shapes do not broadcast.
    pub fn maximum(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a.max(b))
    }

    /// Multiplies every element by `c`.
    pub fn scale(&self, c: f32) -> Tensor {
        self.map(|x| x * c)
    }

    /// Adds `c` to every element.
    pub fn add_scalar(&self, c: f32) -> Tensor {
        self.map(|x| x + c)
    }

    /// Elementwise negation.
    pub fn neg(&self) -> Tensor {
        self.map(|x| -x)
    }

    /// In-place `self += alpha * other` (same shape only; no broadcasting).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_scaled_inplace(&mut self, other: &Tensor, alpha: f32) {
        assert_eq!(self.shape, other.shape, "add_scaled_inplace shape mismatch");
        let _scope = aibench_parallel::effects::kernel_scope("add_scaled");
        // Work in values moved: two read and one written per element.
        let work = (self.data.len() * 3) as u64;
        aibench_parallel::parallel_slice_mut_weighted(
            &mut self.data,
            aibench_parallel::ELEMWISE_CHUNK,
            work,
            |range, chunk| {
                aibench_parallel::effects::read(&other.data, range.clone());
                for (a, &b) in chunk.iter_mut().zip(&other.data[range]) {
                    *a += alpha * b;
                }
            },
        );
    }

    /// Reduces this tensor (by summation) down to `target` shape, inverting a
    /// broadcast. Used by autograd to fold gradients of broadcast operands.
    ///
    /// # Panics
    ///
    /// Panics if `target` does not broadcast to `self.shape()`.
    pub fn sum_to(&self, target: &[usize]) -> Tensor {
        if self.shape == target {
            return self.clone();
        }
        assert_eq!(
            broadcast_shapes(target, &self.shape).as_deref(),
            Some(&self.shape[..]),
            "sum_to: {:?} is not a broadcast source of {:?}",
            target,
            self.shape
        );
        self.fold_to(target)
    }

    /// `sum_to` without the equal-shape copy: every cell starts at `+0.0`.
    fn fold_to(&self, target: &[usize]) -> Tensor {
        let st = broadcast_strides(target, &self.shape);
        let mut out = Tensor::zeros(target);
        // Rows arrive in ascending flat order, so every target element
        // takes its addends in the order a flat loop would feed them.
        let walk = RowWalk::new(&self.shape, [&st]);
        let (len, [step]) = (walk.row_len, walk.inner);
        for (src, [at]) in self.data.chunks_exact(len.max(1)).zip(walk) {
            if step == 0 {
                // The whole row folds into one target cell, one addend at
                // a time.
                let mut acc = out.data[at];
                for &v in src {
                    acc += v;
                }
                out.data[at] = acc;
            } else {
                // A broadcast source is contiguous wherever it does not
                // repeat, so a row that moves through it moves by 1.
                debug_assert_eq!(step, 1);
                for (o, &v) in out.data[at..at + len].iter_mut().zip(src) {
                    *o += v;
                }
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements.
    ///
    /// Accumulated in fixed [`aibench_parallel::REDUCE_CHUNK`]-sized blocks
    /// folded in ascending order, so the result is bitwise identical for
    /// every `AIBENCH_THREADS` value (including 1).
    pub fn sum(&self) -> f32 {
        let _scope = aibench_parallel::effects::kernel_scope("tensor_sum");
        aibench_parallel::sum_f32(&self.data)
    }

    /// Mean of all elements.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    pub fn mean(&self) -> f32 {
        assert!(!self.data.is_empty(), "mean of empty tensor");
        self.sum() / self.data.len() as f32
    }

    /// Maximum element.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    pub fn max_val(&self) -> f32 {
        assert!(!self.data.is_empty(), "max of empty tensor");
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    pub fn min_val(&self) -> f32 {
        assert!(!self.data.is_empty(), "min of empty tensor");
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Sums along `axis`, removing it: a `sum_to` fold onto `axis` set to 1.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= ndim`.
    pub fn sum_axis(&self, axis: usize) -> Tensor {
        assert!(
            axis < self.ndim(),
            "sum_axis: axis {} out of range for rank {}",
            axis,
            self.ndim()
        );
        let mut keep = self.shape.clone();
        keep[axis] = 1;
        let mut out = self.fold_to(&keep);
        out.shape.remove(axis);
        out
    }

    /// Means along `axis`, removing it.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= ndim` or the axis has zero extent.
    pub fn mean_axis(&self, axis: usize) -> Tensor {
        let n = self.shape[axis];
        assert!(n > 0, "mean_axis over empty axis");
        self.sum_axis(axis).scale(1.0 / n as f32)
    }

    /// Argmax over the last axis; returns indices of shape `shape[..-1]`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is 0-dimensional.
    pub fn argmax_last(&self) -> Vec<usize> {
        assert!(self.ndim() >= 1, "argmax_last on scalar");
        let inner = *self.shape.last().unwrap();
        let outer = self.data.len() / inner.max(1);
        let mut out = Vec::with_capacity(outer);
        for o in 0..outer {
            let row = &self.data[o * inner..(o + 1) * inner];
            let mut best = 0;
            for (i, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = i;
                }
            }
            out.push(best);
        }
        out
    }

    /// Matrix product of two 2-D tensors (see [`crate::ops::matmul`]).
    ///
    /// # Panics
    ///
    /// Panics if either operand is not 2-D or inner dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        crate::ops::matmul(self, other)
    }

    /// Squared L2 norm of all elements.
    ///
    /// Uses the same order-stable chunked accumulation as [`Tensor::sum`],
    /// so the result does not depend on the thread count.
    pub fn sq_norm(&self) -> f32 {
        let _scope = aibench_parallel::effects::kernel_scope("tensor_sq_norm");
        aibench_parallel::sum_map_f32(&self.data, |x| x * x)
    }

    /// True if every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Maximum absolute difference against another tensor of the same shape.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape, "max_abs_diff shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, " {:?}", self.data)
        } else {
            write!(
                f,
                " [{:.4}, {:.4}, ... {:.4}]",
                self.data[0],
                self.data[1],
                self.data[self.data.len() - 1]
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construct_and_index() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.at(&[0, 0]), 1.0);
        assert_eq!(t.at(&[1, 2]), 6.0);
    }

    #[test]
    #[should_panic(expected = "does not fit shape")]
    fn from_vec_wrong_len_panics() {
        let _ = Tensor::from_vec(vec![1.0], &[2, 2]);
    }

    #[test]
    fn broadcast_add_row() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = Tensor::from_vec(vec![10.0, 20.0, 30.0], &[3]);
        let c = a.add(&b);
        assert_eq!(c.data(), &[11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
    }

    #[test]
    fn broadcast_mul_col() {
        let a = Tensor::ones(&[2, 3]);
        let b = Tensor::from_vec(vec![2.0, 3.0], &[2, 1]);
        let c = a.mul(&b);
        assert_eq!(c.data(), &[2.0, 2.0, 2.0, 3.0, 3.0, 3.0]);
    }

    #[test]
    fn sum_to_inverts_broadcast() {
        let g = Tensor::ones(&[2, 3]);
        let r = g.sum_to(&[3]);
        assert_eq!(r.data(), &[2.0, 2.0, 2.0]);
        let r2 = g.sum_to(&[2, 1]);
        assert_eq!(r2.data(), &[3.0, 3.0]);
    }

    #[test]
    fn transpose_2d() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let at = a.t();
        assert_eq!(at.shape(), &[3, 2]);
        assert_eq!(at.at(&[2, 1]), 6.0);
    }

    #[test]
    fn permute_roundtrip() {
        let mut rng = Rng::seed_from(1);
        let a = Tensor::randn(&[2, 3, 4], &mut rng);
        let p = a.permute(&[2, 0, 1]);
        assert_eq!(p.shape(), &[4, 2, 3]);
        let back = p.permute(&[1, 2, 0]);
        assert_eq!(back, a);
    }

    #[test]
    fn sum_axis_middle() {
        let a = Tensor::from_fn(&[2, 3, 2], |i| i as f32);
        let s = a.sum_axis(1);
        assert_eq!(s.shape(), &[2, 2]);
        // [[0+2+4, 1+3+5], [6+8+10, 7+9+11]]
        assert_eq!(s.data(), &[6.0, 9.0, 24.0, 27.0]);
    }

    #[test]
    fn argmax_last_rows() {
        let a = Tensor::from_vec(vec![0.1, 0.9, 0.0, 0.7, 0.2, 0.1], &[2, 3]);
        assert_eq!(a.argmax_last(), vec![1, 0]);
    }

    #[test]
    fn mean_and_norms() {
        let a = Tensor::from_vec(vec![3.0, 4.0], &[2]);
        assert_eq!(a.mean(), 3.5);
        assert_eq!(a.sq_norm(), 25.0);
    }

    #[test]
    #[should_panic(expected = "do not broadcast")]
    fn incompatible_broadcast_panics() {
        let a = Tensor::ones(&[2, 3]);
        let b = Tensor::ones(&[4, 3]);
        let _ = a.add(&b);
    }
}
