//! Order-stable weighted tree all-reduce over flattened gradient vectors.
//!
//! The reduction recipe is fixed by the *logical* shape of the group, never
//! by thread count: contributions are taken in ascending rank order, each is
//! scaled by its example-count weight, and the scaled buffers are folded
//! pairwise in a fixed-fanout-2 stride-doubling tree. Elementwise adds go
//! through `parallel_slice_mut` with the same chunk size `aibench-parallel`
//! uses for reductions, so each output element is produced by exactly one
//! deterministic sequence of operations regardless of `AIBENCH_THREADS`.
//!
//! A one-worker group reduces to multiplying by exactly `1.0`, which is a
//! bitwise identity on finite floats — the basis of the runner's
//! single-worker-equivalence guarantee.

use aibench_ckpt::Crc32;
use aibench_parallel::{parallel_slice_mut, REDUCE_CHUNK};

/// One worker's contribution to a step's all-reduce: its flattened gradient,
/// the number of examples it covered, its local mean loss, and a CRC taken
/// at capture time so in-flight corruption is detectable.
#[derive(Debug, Clone)]
pub struct GradShard {
    rank: usize,
    examples: usize,
    loss: f32,
    data: Vec<f32>,
    crc: u32,
}

impl GradShard {
    /// Captures a contribution, stamping it with a CRC of the gradient bytes.
    pub fn capture(rank: usize, examples: usize, loss: f32, data: Vec<f32>) -> Self {
        let crc = crc_of(&data);
        GradShard {
            rank,
            examples,
            loss,
            data,
            crc,
        }
    }

    /// The contributing worker's rank within the group.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of examples this contribution covers.
    pub fn examples(&self) -> usize {
        self.examples
    }

    /// The contribution's local mean training loss.
    pub fn loss(&self) -> f32 {
        self.loss
    }

    /// The flattened gradient payload.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Whether the payload still matches the CRC stamped at capture.
    pub fn verify(&self) -> bool {
        crc_of(&self.data) == self.crc
    }

    /// Flips bits in the payload *without* refreshing the CRC — the
    /// fault-injection hook for a gradient shard corrupted in flight.
    pub fn poison(&mut self) {
        for x in self.data.iter_mut().take(3) {
            *x = f32::from_bits(x.to_bits() ^ 0x4000_0001);
        }
        if self.data.is_empty() {
            // A degenerate empty payload can still present a bad CRC.
            self.crc = !self.crc;
        }
    }
}

/// CRC-32 over the little-endian byte image of a float slice, streamed
/// through a stack buffer a fixed number of floats at a time — the image
/// is never built.
pub fn crc_of(data: &[f32]) -> u32 {
    const LANES: usize = 256;
    let mut image = [0u8; LANES * 4];
    let mut crc = Crc32::new();
    for chunk in data.chunks(LANES) {
        let bytes = &mut image[..chunk.len() * 4];
        for (dst, x) in bytes.chunks_exact_mut(4).zip(chunk) {
            dst.copy_from_slice(&x.to_bits().to_le_bytes());
        }
        crc.update(bytes);
    }
    crc.finish()
}

/// Reduces the group's surviving contributions into one global gradient and
/// one global mean loss, weighted by example counts.
///
/// Panics if `shards` is empty or payload lengths disagree.
pub fn tree_reduce(shards: &[&GradShard]) -> (Vec<f32>, f32) {
    assert!(!shards.is_empty(), "tree_reduce over an empty group");
    let len = shards[0].data.len();
    assert!(
        shards.iter().all(|s| s.data.len() == len),
        "gradient shard lengths disagree"
    );
    let mut ordered: Vec<&GradShard> = shards.to_vec();
    ordered.sort_by_key(|s| s.rank);
    let total: usize = ordered.iter().map(|s| s.examples).sum();
    let total_f = total as f32;
    let mut bufs = Vec::with_capacity(ordered.len());
    let mut losses = Vec::with_capacity(ordered.len());
    for s in &ordered {
        let w = s.examples as f32 / total_f;
        bufs.push(scaled(&s.data, w));
        losses.push(w * s.loss);
    }
    (tree_fold(bufs), tree_fold_scalar(losses))
}

fn scaled(data: &[f32], w: f32) -> Vec<f32> {
    let mut out = data.to_vec();
    parallel_slice_mut(&mut out, REDUCE_CHUNK, |_, piece| {
        for x in piece {
            *x *= w;
        }
    });
    out
}

fn add_into(acc: &mut [f32], other: &[f32]) {
    parallel_slice_mut(acc, REDUCE_CHUNK, |range, piece| {
        for (x, y) in piece.iter_mut().zip(&other[range]) {
            *x += *y;
        }
    });
}

fn tree_fold(mut bufs: Vec<Vec<f32>>) -> Vec<f32> {
    while bufs.len() > 1 {
        let mut next = Vec::with_capacity(bufs.len().div_ceil(2));
        let mut it = bufs.into_iter();
        while let Some(mut a) = it.next() {
            if let Some(b) = it.next() {
                add_into(&mut a, &b);
            }
            next.push(a);
        }
        bufs = next;
    }
    bufs.pop().expect("tree_fold over an empty list")
}

fn tree_fold_scalar(mut vals: Vec<f32>) -> f32 {
    while vals.len() > 1 {
        let mut next = Vec::with_capacity(vals.len().div_ceil(2));
        let mut it = vals.into_iter();
        while let Some(a) = it.next() {
            next.push(match it.next() {
                Some(b) => a + b,
                None => a,
            });
        }
        vals = next;
    }
    vals.pop().expect("tree_fold_scalar over an empty list")
}

#[cfg(test)]
mod tests {
    use super::*;
    use aibench_parallel::Exec;

    fn shard(rank: usize, examples: usize, seed: u64, len: usize) -> GradShard {
        let mut rng = aibench_tensor::Rng::seed_from(seed);
        let data: Vec<f32> = (0..len)
            .map(|_| rng.below(1000) as f32 / 7.0 - 60.0)
            .collect();
        GradShard::capture(rank, examples, seed as f32 / 3.0, data)
    }

    #[test]
    fn single_shard_is_bitwise_identity() {
        let s = shard(0, 32, 9, 1033);
        let (out, loss) = tree_reduce(&[&s]);
        assert_eq!(
            out.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            s.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(loss.to_bits(), s.loss().to_bits());
    }

    #[test]
    fn reduction_is_thread_count_invariant() {
        let shards: Vec<GradShard> = (0..5)
            .map(|r| shard(r, 8 - r % 3, r as u64 + 1, 9000))
            .collect();
        let refs: Vec<&GradShard> = shards.iter().collect();
        let at = |t| Exec::current().with_threads(t).run(|| tree_reduce(&refs));
        let ((a, la), (b, lb)) = (at(1), at(7));
        assert_eq!(la.to_bits(), lb.to_bits());
        assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn rank_order_not_arrival_order_fixes_the_result() {
        let shards: Vec<GradShard> = (0..4).map(|r| shard(r, 6, r as u64 + 11, 513)).collect();
        let fwd: Vec<&GradShard> = shards.iter().collect();
        let rev: Vec<&GradShard> = shards.iter().rev().collect();
        let (a, la) = tree_reduce(&fwd);
        let (b, lb) = tree_reduce(&rev);
        assert_eq!(la.to_bits(), lb.to_bits());
        assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn crc_of_is_the_crc_of_the_byte_image() {
        // Lengths around the 256-float streaming chunk, and ragged tails.
        for len in [0, 1, 2, 3, 255, 256, 257, 511, 512, 513, 1033] {
            let s = shard(0, 1, len as u64 + 5, len);
            let image: Vec<u8> = s
                .data()
                .iter()
                .flat_map(|x| x.to_bits().to_le_bytes())
                .collect();
            assert_eq!(crc_of(s.data()), aibench_ckpt::crc32(&image), "len {len}");
        }
    }

    #[test]
    fn poison_breaks_crc() {
        let mut s = shard(2, 4, 3, 64);
        assert!(s.verify());
        s.poison();
        assert!(!s.verify());
    }

    #[test]
    fn weights_sum_examples() {
        let a = shard(0, 30, 1, 10);
        let b = shard(1, 10, 2, 10);
        let (out, _) = tree_reduce(&[&a, &b]);
        let expect: Vec<f32> = a
            .data()
            .iter()
            .zip(b.data())
            .map(|(x, y)| x * 0.75 + y * 0.25)
            .collect();
        assert!(out
            .iter()
            .zip(&expect)
            .all(|(x, y)| x.to_bits() == y.to_bits()));
    }
}
