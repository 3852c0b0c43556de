//! The row walker: the one engine behind every strided traversal in
//! [`Tensor`](crate::Tensor) — broadcasting `zip`, `sum_to` and `permute`.
//!
//! A traversal visits an iteration space `dims` in ascending row-major
//! order while `N` operands follow along, each at its own per-dimension
//! stride (0 on a broadcast dimension, a permuted stride for a transposed
//! source). Decoding every flat index back into coordinates costs a
//! division and a remainder per element per dimension; the walker instead
//! splits the space once into *rows* — the longest trailing run of
//! dimensions over which every operand is still a single strided run — and
//! advances the remaining outer dimensions like an odometer, adding and
//! subtracting strides. The caller gets one offset per operand per row and
//! runs a plain inner loop over `row_len` elements at `inner` strides.
//!
//! Rows come out in ascending flat order and each row's elements are
//! consecutive in that order, so a caller that handles rows first to last
//! and elements left to right performs exactly the operations of the
//! flat-index loop, in the same sequence.

/// Iterator over the rows of a strided traversal; yields each row's
/// starting offset into every operand.
pub(crate) struct RowWalk<const N: usize> {
    /// Elements per row.
    pub row_len: usize,
    /// Each operand's stride between consecutive elements of a row.
    pub inner: [usize; N],
    /// Outer extents, outermost first, and every operand's stride on them.
    outer: Vec<(usize, [usize; N])>,
    coord: Vec<usize>,
    offsets: [usize; N],
    rows_left: usize,
}

impl<const N: usize> RowWalk<N> {
    /// Splits the traversal of `dims` into rows. `strides[op][d]` is operand
    /// `op`'s stride along dimension `d`.
    pub fn new(dims: &[usize], strides: [&[usize]; N]) -> Self {
        debug_assert!(strides.iter().all(|s| s.len() == dims.len()));
        // Extent-1 dimensions never move an offset: drop them, so they
        // cannot stand between two dimensions that merge.
        let mut live: Vec<(usize, [usize; N])> = dims
            .iter()
            .enumerate()
            .filter(|&(_, &extent)| extent != 1)
            .map(|(d, &extent)| (extent, strides.map(|s| s[d])))
            .collect();
        let total: usize = live.iter().map(|&(extent, _)| extent).product();
        let (mut row_len, inner) = live.pop().unwrap_or((1, [1; N]));
        // An outer dimension extends the row when stepping it equals
        // stepping past the end of the row, for every operand at once.
        while let Some(&(extent, s)) = live.last() {
            if (0..N).any(|op| s[op] != inner[op] * row_len) {
                break;
            }
            row_len *= extent;
            live.pop();
        }
        RowWalk {
            row_len,
            inner,
            coord: vec![0; live.len()],
            outer: live,
            offsets: [0; N],
            rows_left: total.checked_div(row_len).unwrap_or(0),
        }
    }
}

impl<const N: usize> Iterator for RowWalk<N> {
    type Item = [usize; N];

    fn next(&mut self) -> Option<[usize; N]> {
        if self.rows_left == 0 {
            return None;
        }
        self.rows_left -= 1;
        let row = self.offsets;
        for (c, &(extent, s)) in self.coord.iter_mut().zip(&self.outer).rev() {
            *c += 1;
            for (offset, step) in self.offsets.iter_mut().zip(s) {
                *offset += step;
            }
            if *c < extent {
                break;
            }
            *c = 0;
            for (offset, step) in self.offsets.iter_mut().zip(s) {
                *offset -= step * extent;
            }
        }
        Some(row)
    }
}

/// Fills `dst` with every `step`-th element of `src`, from its first: the
/// inner loop of a strided copy (one row of a `permute`, a transpose block
/// or a strided unfold). A unit step is a plain slice copy.
#[inline]
pub(crate) fn copy_strided(dst: &mut [f32], src: &[f32], step: usize) {
    if step == 1 {
        dst.copy_from_slice(&src[..dst.len()]);
    } else {
        for (d, &v) in dst.iter_mut().zip(src.iter().step_by(step)) {
            *d = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_operands_are_one_row() {
        let w = RowWalk::new(&[2, 3, 4], [&[12, 4, 1], &[12, 4, 1]]);
        assert_eq!((w.row_len, w.inner), (24, [1, 1]));
        assert_eq!(w.collect::<Vec<_>>(), vec![[0, 0]]);
    }

    #[test]
    fn channel_broadcast_merges_the_spatial_plane() {
        // [n,c,h,w] against [1,c,1,1]: rows are whole h*w planes.
        let w = RowWalk::new(&[2, 3, 4, 5], [&[60, 20, 5, 1], &[0, 1, 0, 0]]);
        assert_eq!((w.row_len, w.inner), (20, [1, 0]));
        let rows: Vec<_> = w.collect();
        assert_eq!(rows.len(), 6);
        assert_eq!(rows[4], [80, 1]);
    }

    #[test]
    fn unit_dims_do_not_block_a_merge() {
        let w = RowWalk::new(&[3, 1, 4], [&[4, 4, 1], &[4, 0, 1]]);
        assert_eq!((w.row_len, w.inner), (12, [1, 1]));
    }

    #[test]
    fn rank_zero_is_one_row_of_one_and_zero_extent_is_no_rows() {
        let w = RowWalk::new(&[], [&[]]);
        assert_eq!((w.row_len, w.inner), (1, [1]));
        assert_eq!(w.count(), 1);
        assert_eq!(RowWalk::new(&[2, 0, 3], [&[0, 3, 1]]).count(), 0);
        assert_eq!(RowWalk::new(&[2, 3, 0], [&[0, 0, 1]]).count(), 0);
    }

    #[test]
    fn transposed_source_walks_columns() {
        // Output [3,2] reading a [2,3] source transposed.
        let w = RowWalk::new(&[3, 2], [&[1, 3]]);
        assert_eq!((w.row_len, w.inner), (2, [3]));
        assert_eq!(w.collect::<Vec<_>>(), vec![[0], [1], [2]]);
    }
}
