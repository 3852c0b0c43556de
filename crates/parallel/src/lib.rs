//! Deterministic multi-threaded execution for the AIBench kernels.
//!
//! This crate is a dependency-free, std-only threading runtime built around
//! one rule: **thread count must never change numeric results**. Every
//! primitive partitions its work into chunks whose boundaries depend only on
//! the problem size (never on the thread count), each chunk is computed by
//! exactly one thread with the same per-element order as serial code, and
//! reductions combine per-chunk partials in ascending chunk order. A kernel
//! built on these primitives is therefore bitwise identical for any
//! `AIBENCH_THREADS` value — including 1 — which preserves the paper's
//! run-to-run variation methodology (Section 5.4: CoV < 2% must measure the
//! *benchmark*, not the host's scheduler).
//!
//! A region runs on the pool of the calling thread's execution context
//! ([`Exec`]). A pool is persistent: its threads are spawned once, and
//! every context of one thread count shares one. Between
//! regions a worker polls for the next job for some tens of microseconds
//! and only then parks, so the per-region overhead of back-to-back regions
//! is one atomic publish and one atomic join — a microsecond or two — and
//! a wake-up is paid only after a real pause. A pool with more threads
//! than the machine has cores parks at once instead. The calling thread
//! always participates, so a one-thread configuration executes entirely
//! inline with zero synchronization.
//!
//! A region that is too small to repay even that hand-off runs inline on
//! the calling thread: kernels pass an estimate of their work
//! ([`parallel_slice_mut_weighted`], [`parallel_reduce_weighted`]) and a
//! fixed cut-off decides, from the problem's shape alone, so the route a
//! region takes — like its chunk boundaries — is the same at every thread
//! count.
//!
//! # Example
//!
//! ```
//! use aibench_parallel as par;
//!
//! // A map over disjoint chunks: deterministic for any thread count.
//! let mut squares = vec![0u64; 1000];
//! par::parallel_slice_mut(&mut squares, 64, |range, out| {
//!     for (v, i) in out.iter_mut().zip(range) {
//!         *v = (i as u64) * (i as u64);
//!     }
//! });
//! assert_eq!(squares[31], 961);
//!
//! // An order-stable reduction: partials are folded in chunk order.
//! let total = par::parallel_reduce(
//!     1000,
//!     64,
//!     || 0u64,
//!     |range| range.map(|i| i as u64).sum(),
//!     |acc, part| acc + part,
//! );
//! assert_eq!(total, 499_500);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod effects;
mod exec;
mod pool;

use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

pub use exec::{gemm_path, Exec, GemmPath};
pub use pool::{default_threads, in_parallel_region, ThreadPool};

/// Thread-count configuration, plumbed through the runner so a session's
/// thread count is explicit rather than environmental.
///
/// # Example
///
/// ```
/// use aibench_parallel::ParallelConfig;
/// assert_eq!(ParallelConfig::with_threads(0).threads, 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Number of participating threads (the caller plus `threads - 1`
    /// pool workers); clamped to at least 1 where it is used.
    pub threads: usize,
}

impl ParallelConfig {
    /// An explicit thread count.
    pub fn with_threads(threads: usize) -> Self {
        ParallelConfig {
            threads: threads.max(1),
        }
    }

    /// Makes this thread count the process default: that of every thread
    /// that has entered no [`Exec`] scope (before the first install,
    /// [`default_threads`]). Only wall time changes, never a result.
    pub fn install(self) {
        pool::set_default(self.threads);
    }
}

/// Number of threads regions run on in the calling thread's context.
pub fn threads() -> usize {
    Exec::current().threads()
}

/// Utilization snapshot of one pool (see [`stats`]).
///
/// Counters are cumulative; subtract two snapshots (via [`PoolStats::delta`])
/// to attribute work to one phase, e.g. one simulated model profile.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PoolStats {
    /// Configured thread count at snapshot time.
    pub threads: usize,
    /// Parallel regions that engaged the pool (inline-serial regions — too
    /// little work, nested, or a one-thread pool — are not counted).
    pub regions: u64,
    /// Chunks executed per participant; index 0 is the calling thread.
    pub per_worker: Vec<u64>,
}

impl PoolStats {
    /// Total chunks executed across all participants.
    pub fn chunks(&self) -> u64 {
        self.per_worker.iter().sum()
    }

    /// Fraction of chunks taken by the busiest participant, in
    /// `[1/threads, 1]`; lower is better balanced. Returns 1.0 when no
    /// chunks ran.
    pub fn imbalance(&self) -> f64 {
        let total = self.chunks();
        if total == 0 {
            return 1.0;
        }
        let max = self.per_worker.iter().copied().max().unwrap_or(0);
        max as f64 / total as f64
    }

    /// Counter-wise difference `self - earlier`, for attributing pool work
    /// to a phase. Take both of one pool; snapshots of two pools are
    /// compared position-wise.
    pub fn delta(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            threads: self.threads,
            regions: self.regions.saturating_sub(earlier.regions),
            per_worker: self
                .per_worker
                .iter()
                .enumerate()
                .map(|(i, &c)| c.saturating_sub(earlier.per_worker.get(i).copied().unwrap_or(0)))
                .collect(),
        }
    }
}

/// Snapshots the cumulative utilization counters of the calling thread's
/// pool, which every context of its thread count shares.
pub fn stats() -> PoolStats {
    let pool = Exec::current().pool;
    PoolStats {
        threads: pool.threads(),
        regions: pool.counters.regions.load(Ordering::Relaxed),
        per_worker: pool
            .counters
            .per_worker
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect(),
    }
}

/// Smallest work estimate (see [`parallel_slice_mut_weighted`]) that engages
/// the pool. The kernels sustain roughly 16 flops, or values moved, per
/// nanosecond on one core, so this is a region of about 15 µs. A hand-off
/// to a worker that is still polling costs 1–2 µs plus the cache lines it
/// pulls from the caller's core, and one to a parked worker a ~10 µs
/// wake-up that brings no help at all to a region this short; below the
/// cut-off, regions of the suite measured no faster, or slower, on two
/// threads than inline.
///
/// Like [`REDUCE_CHUNK`] this is part of the determinism contract in one
/// respect only: the engage/inline decision must be a pure function of the
/// problem shape, so it is a constant — never a setting, an environment
/// variable or a function of the thread count. Chunk boundaries and fold
/// order are the same on both routes, so its value cannot change a result.
const MIN_REGION_WORK: u64 = 256 * 1024;

/// Whether a region of this shape is handed to the pool (when there is one
/// to hand it to): it needs two chunks to split at all, and, where the
/// kernel gave an estimate, enough work to amortise the hand-off.
fn engages(nchunks: usize, work: Option<u64>) -> bool {
    nchunks >= 2 && work.is_none_or(|w| w >= MIN_REGION_WORK)
}

/// One parallel region over `0..n` in fixed `chunk`-sized pieces.
struct Region {
    /// The context the region opened under, which its chunks run in.
    exec: Exec,
    /// The region's effect record, when a recording is on.
    record: effects::Record,
    n: usize,
    chunk: usize,
    nchunks: usize,
    /// Run on the pool rather than inline: the shape [`engages`], the pool
    /// has workers, and this thread is not inside a region already.
    on_pool: bool,
}

impl Region {
    /// Opens the region, or returns `None` when there is nothing to do.
    /// `chunk` is clamped to at least 1.
    fn open(primitive: &'static str, n: usize, chunk: usize, work: Option<u64>) -> Option<Region> {
        if n == 0 {
            return None;
        }
        let chunk = chunk.max(1);
        let nchunks = n.div_ceil(chunk);
        let engages = engages(nchunks, work);
        let exec = Exec::current();
        let threads = exec.threads();
        let record = effects::open_region(&exec.recorder, primitive, n, chunk, threads, engages);
        let on_pool = engages && threads > 1 && !in_parallel_region();
        Some(Region {
            exec,
            record,
            n,
            chunk,
            nchunks,
            on_pool,
        })
    }

    /// Runs `f` on the index range of chunk `c`, on this thread.
    fn run_chunk<R>(&self, c: usize, f: impl FnOnce(Range<usize>) -> R) -> R {
        let range = c * self.chunk..((c + 1) * self.chunk).min(self.n);
        effects::in_chunk(&self.record, c, || f(range))
    }

    /// Runs `f(chunk_index, index_range)` once per chunk: the participants
    /// of the pool claim chunks dynamically, or this thread runs them in
    /// ascending order.
    fn run(&self, f: impl Fn(usize, Range<usize>) + Sync) {
        if !self.on_pool {
            for c in 0..self.nchunks {
                self.run_chunk(c, |range| f(c, range));
            }
            return;
        }
        let counters = &self.exec.pool.counters;
        counters.regions.fetch_add(1, Ordering::Relaxed);
        let next = AtomicUsize::new(0);
        // Every participant, pool workers included, runs its chunks in the
        // caller's context.
        self.exec.pool.broadcast(&|who| {
            self.exec.run(|| {
                // One shared-counter update per participant, also on unwind.
                let mut tally = Tally {
                    counter: &counters.per_worker[who],
                    completed: 0,
                };
                loop {
                    let c = next.fetch_add(1, Ordering::Relaxed);
                    if c >= self.nchunks {
                        break;
                    }
                    self.run_chunk(c, |range| f(c, range));
                    tally.completed += 1;
                }
            })
        });
    }
}

/// Chunks one participant completed in one region, added to its counter on
/// drop.
struct Tally<'a> {
    counter: &'a AtomicU64,
    completed: u64,
}

impl Drop for Tally<'_> {
    fn drop(&mut self) {
        self.counter.fetch_add(self.completed, Ordering::Relaxed);
    }
}

/// Splits `0..n` into `ceil(n / chunk)` fixed chunks and calls
/// `f(chunk_index, index_range)` once per chunk. Chunk boundaries depend
/// only on `n` and `chunk`, never on the thread count; chunks are claimed
/// dynamically by the participating threads (or executed in ascending order
/// serially). `f` must therefore be safe to call for disjoint ranges in any
/// order — which every pure per-element computation is.
///
/// `chunk` is clamped to at least 1.
pub fn for_each_chunk(n: usize, chunk: usize, f: impl Fn(usize, Range<usize>) + Sync) {
    if let Some(region) = Region::open("for_each_chunk", n, chunk, None) {
        region.run(f);
    }
}

/// [`for_each_chunk`] without the chunk index: calls `f` on disjoint
/// subranges of `0..n` covering it exactly once.
pub fn parallel_for(n: usize, chunk: usize, f: impl Fn(Range<usize>) + Sync) {
    if let Some(region) = Region::open("parallel_for", n, chunk, None) {
        region.run(|_, range| f(range));
    }
}

/// Splits `data` into fixed `chunk`-sized pieces and calls
/// `f(index_range, piece)` on each, in parallel. The ranges are the
/// absolute element indices of the piece, so `f` can read aligned slices of
/// other inputs. Writes are disjoint by construction, so results never
/// depend on the thread count.
///
/// Two or more pieces always engage the pool; a kernel that knows how much
/// work its pieces hold calls [`parallel_slice_mut_weighted`] instead.
pub fn parallel_slice_mut<T: Send>(
    data: &mut [T],
    chunk: usize,
    f: impl Fn(Range<usize>, &mut [T]) + Sync,
) {
    slice_mut_region(data, chunk, None, f)
}

/// [`parallel_slice_mut`] for a kernel that can estimate its work.
///
/// `work` is the region's total cost in floating-point operations or in
/// `f32`-sized values moved (a core sustains about as many of one as of the
/// other), whichever describes the kernel, *including* whatever nested
/// regions its pieces open (a convolution counts its per-sample GEMMs). A
/// region whose work cannot amortise one hand-off to the pool runs inline
/// on the calling thread, over the same pieces in ascending order. The
/// cut-off is a crate constant and `work` must be computed from the
/// problem's shape alone, so which route a region takes — like where its
/// chunk boundaries fall — is the same at every thread count.
pub fn parallel_slice_mut_weighted<T: Send>(
    data: &mut [T],
    chunk: usize,
    work: u64,
    f: impl Fn(Range<usize>, &mut [T]) + Sync,
) {
    slice_mut_region(data, chunk, Some(work), f)
}

fn slice_mut_region<T: Send>(
    data: &mut [T],
    chunk: usize,
    work: Option<u64>,
    f: impl Fn(Range<usize>, &mut [T]) + Sync,
) {
    let Some(region) = Region::open("parallel_slice_mut", data.len(), chunk, work) else {
        return;
    };
    let addr = data.as_ptr() as usize;
    let base = SendPtr(data.as_mut_ptr());
    // Capture the `Sync` wrapper, not the raw pointer field (2021 edition
    // closures capture disjoint fields by default).
    let base = &base;
    region.run(move |_, range| {
        // The piece handed to `f` is written by this chunk exclusively;
        // record that fact so the audit layer sees it without every caller
        // having to declare the obvious.
        effects::record_write_raw(addr, range.clone());
        // SAFETY: `Region::run` hands out disjoint subranges of `0..len`,
        // each claimed by exactly one thread, so the reconstructed slices
        // never alias; the borrow of `data` outlives the region.
        #[allow(unsafe_code)]
        let piece = unsafe { std::slice::from_raw_parts_mut(base.0.add(range.start), range.len()) };
        f(range, piece);
    });
}

/// A raw pointer that may cross thread boundaries. The primitives using it
/// guarantee disjoint access per thread.
struct SendPtr<T>(*mut T);
// SAFETY: `SendPtr` is only ever used by `slice_mut_region` and
// `reduce_region`, which hand each thread a disjoint element range of the
// pointee; no two threads touch the same element, and the exclusive borrow
// it was created from pins the allocation for the whole region.
#[allow(unsafe_code)]
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: see the `Send` impl above — shared references to the wrapper only
// ever dereference disjoint ranges.
#[allow(unsafe_code)]
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Order-stable parallel reduction.
///
/// `0..n` is split into fixed chunks (boundaries independent of thread
/// count), `map` produces one partial per chunk, and `fold` combines the
/// partials into `init()` **in ascending chunk order**. Serial and parallel
/// execution perform the exact same sequence of `fold` applications, so
/// floating-point results are bitwise identical for any thread count. The
/// price is that all partials of a parallel run are buffered before
/// folding; keep partials small (scalars or one flat buffer per chunk).
///
/// # Ordering guarantee
///
/// The fold sequence is `fold(...fold(fold(init(), map(chunk 0)),
/// map(chunk 1))..., map(chunk last))` — ascending chunk index, left
/// associated — regardless of which threads computed which chunks or in
/// what order they finished:
///
/// ```
/// use aibench_parallel as par;
/// // A non-commutative fold observes the exact chunk order:
/// let order = par::parallel_reduce(
///     100,
///     9,
///     Vec::new,
///     |range| vec![range.start],
///     |mut acc, part| {
///         acc.extend(part);
///         acc
///     },
/// );
/// assert_eq!(order, (0..100).step_by(9).collect::<Vec<_>>());
///
/// // So float sums are bitwise reproducible at any thread count:
/// let data: Vec<f32> = (0..50_000).map(|i| (i as f32).sin()).collect();
/// let one = par::Exec::current().with_threads(1).run(|| par::sum_f32(&data));
/// let eight = par::Exec::current().with_threads(8).run(|| par::sum_f32(&data));
/// assert_eq!(eight.to_bits(), one.to_bits());
/// ```
pub fn parallel_reduce<T: Send>(
    n: usize,
    chunk: usize,
    init: impl FnOnce() -> T,
    map: impl Fn(Range<usize>) -> T + Sync,
    fold: impl FnMut(T, T) -> T,
) -> T {
    reduce_region("parallel_reduce", n, chunk, None, init, map, fold)
}

/// [`parallel_reduce`] for a kernel that can estimate its work; `work` and
/// the rule it feeds are those of [`parallel_slice_mut_weighted`]. Both
/// routes fold the same partials in the same order.
pub fn parallel_reduce_weighted<T: Send>(
    n: usize,
    chunk: usize,
    work: u64,
    init: impl FnOnce() -> T,
    map: impl Fn(Range<usize>) -> T + Sync,
    fold: impl FnMut(T, T) -> T,
) -> T {
    reduce_region("parallel_reduce", n, chunk, Some(work), init, map, fold)
}

/// The region behind [`parallel_reduce`] and [`parallel_map`]: one partial
/// per chunk, folded into `init()` in ascending chunk order.
fn reduce_region<T: Send>(
    primitive: &'static str,
    n: usize,
    chunk: usize,
    work: Option<u64>,
    init: impl FnOnce() -> T,
    map: impl Fn(Range<usize>) -> T + Sync,
    mut fold: impl FnMut(T, T) -> T,
) -> T {
    let mut acc = init();
    let Some(region) = Region::open(primitive, n, chunk, work) else {
        return acc;
    };
    if !region.on_pool {
        // Nothing to buffer: fold each partial as it is produced.
        for c in 0..region.nchunks {
            acc = fold(acc, region.run_chunk(c, &map));
        }
        return acc;
    }
    // Each participant writes the slot of the chunk it claimed, so finishing
    // order leaves no trace and nothing is shared between chunks.
    let mut slots: Vec<Option<T>> = Vec::new();
    slots.resize_with(region.nchunks, || None);
    let base = SendPtr(slots.as_mut_ptr());
    let base = &base;
    region.run(move |c, range| {
        let part = map(range);
        // SAFETY: `c < nchunks == slots.len()`, and `Region::run` hands
        // each chunk index to exactly one thread, so no two threads write
        // one slot; `slots` is not touched otherwise until `run` has
        // joined every participant.
        #[allow(unsafe_code)]
        unsafe {
            *base.0.add(c) = Some(part);
        }
    });
    for slot in slots {
        acc = fold(
            acc,
            slot.expect("a region that returns has run every chunk"),
        );
    }
    acc
}

/// Parallel map producing a `Vec` in index order: `out[i] = f(i)`.
///
/// Items are computed in fixed chunks and reassembled by chunk index, so
/// the output order (and therefore any downstream order-sensitive
/// aggregation) is independent of the thread count.
pub fn parallel_map<T: Send>(n: usize, chunk: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    reduce_region(
        "parallel_map",
        n,
        chunk,
        None,
        || Vec::with_capacity(n),
        |range| range.map(&f).collect(),
        |mut out, piece: Vec<T>| {
            out.extend(piece);
            out
        },
    )
}

/// Canonical fixed chunk size (elements) for order-stable scalar
/// reductions such as sums and squared norms.
///
/// This constant is part of the determinism contract: it defines where
/// partial-sum boundaries fall, so changing it changes low-order bits of
/// reduced values (for tensors larger than one chunk) exactly as a serial
/// algorithm change would. It must never be derived from the thread count.
pub const REDUCE_CHUNK: usize = 4096;

/// Default chunk size (elements) for elementwise maps and copies. Pure
/// per-element work is order-insensitive, so this is a performance knob
/// only — large enough that chunk dispatch is amortized, small enough to
/// split work across threads for mid-sized tensors.
pub const ELEMWISE_CHUNK: usize = 8192;

/// Number of independent accumulator lanes used inside one reduction
/// chunk (see [`lane_sum_f32`]).
///
/// Like [`REDUCE_CHUNK`], this constant is part of the determinism
/// contract: it fixes which elements each lane accumulates, so changing it
/// changes low-order bits of reduced values exactly as a serial algorithm
/// change would. It must never be derived from the thread count.
pub const REDUCE_LANES: usize = 8;

/// Blocked, order-stable sum of one slice: [`REDUCE_LANES`] accumulator
/// lanes, lane `j` summing elements `j, j + LANES, j + 2*LANES, ...` in
/// ascending order, then folded left-to-right (`((l0 + l1) + l2) + ...`).
///
/// The lane assignment and fold order depend only on the slice length, so
/// the result is a pure function of the data — reproducible across runs,
/// thread counts and vector widths — while the independent lanes let
/// the compiler vectorize what a strictly sequential sum cannot. This is
/// the per-chunk kernel of [`sum_f32`]; use it directly only when the data
/// is known to fit one chunk.
///
/// # Example
///
/// ```
/// use aibench_parallel::{lane_sum_f32, REDUCE_LANES};
/// let data: Vec<f32> = (0..100).map(|i| i as f32).collect();
/// // Emulate the documented order scalar-wise:
/// let mut lanes = [0.0f32; REDUCE_LANES];
/// for (i, &x) in data.iter().enumerate() {
///     lanes[i % REDUCE_LANES] += x;
/// }
/// let expect = lanes.iter().skip(1).fold(lanes[0], |a, &l| a + l);
/// assert_eq!(lane_sum_f32(&data).to_bits(), expect.to_bits());
/// ```
pub fn lane_sum_f32(data: &[f32]) -> f32 {
    lane_sum_map_f32(data, |x| x)
}

/// [`lane_sum_f32`] over `f(x)` instead of `x` (same lane assignment and
/// fold order).
pub fn lane_sum_map_f32(data: &[f32], f: impl Fn(f32) -> f32) -> f32 {
    let mut lanes = [0.0f32; REDUCE_LANES];
    let mut groups = data.chunks_exact(REDUCE_LANES);
    for g in groups.by_ref() {
        for (l, &x) in lanes.iter_mut().zip(g) {
            *l += f(x);
        }
    }
    for (l, &x) in lanes.iter_mut().zip(groups.remainder()) {
        *l += f(x);
    }
    lanes.iter().skip(1).fold(lanes[0], |a, &l| a + l)
}

/// Order-stable sum of an `f32` slice: [`lane_sum_f32`] partials over
/// fixed [`REDUCE_CHUNK`]-element chunks, folded in chunk order. Bitwise
/// identical for any thread count (including 1); within a chunk the
/// blocked lane order of [`lane_sum_f32`] applies.
///
/// # Example
///
/// ```
/// use aibench_parallel as par;
/// let data = vec![0.5f32; 10_000];
/// let reference = par::sum_f32(&data);
/// let four = par::Exec::current().with_threads(4).run(|| par::sum_f32(&data));
/// assert_eq!(four.to_bits(), reference.to_bits());
/// ```
pub fn sum_f32(data: &[f32]) -> f32 {
    parallel_reduce_weighted(
        data.len(),
        REDUCE_CHUNK,
        data.len() as u64,
        || 0.0f32,
        |range| {
            effects::read(data, range.clone());
            lane_sum_f32(&data[range])
        },
        |acc, part| acc + part,
    )
}

/// Order-stable sum of `f(x)` over an `f32` slice (chunked and
/// lane-blocked like [`sum_f32`]); used for squared norms and similar
/// scalar reductions.
pub fn sum_map_f32(data: &[f32], f: impl Fn(f32) -> f32 + Sync) -> f32 {
    parallel_reduce_weighted(
        data.len(),
        REDUCE_CHUNK,
        data.len() as u64,
        || 0.0f32,
        |range| {
            effects::read(data, range.clone());
            lane_sum_map_f32(&data[range], &f)
        },
        |acc, part| acc + part,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Runs `f` on a pool of `n` threads of its own, whose counters are `f`'s.
    fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
        Exec::current().with_pool(ThreadPool::new(n)).run(f)
    }

    #[test]
    fn chunk_boundaries_are_thread_independent() {
        let boundaries = |threads: usize| {
            with_threads(threads, || {
                let seen = Mutex::new(Vec::new());
                for_each_chunk(1000, 64, |c, r| {
                    seen.lock().unwrap().push((c, r.start, r.end));
                });
                let mut v = seen.into_inner().unwrap();
                v.sort_unstable();
                v
            })
        };
        let one = boundaries(1);
        assert_eq!(one.len(), 16);
        assert_eq!(one[15], (15, 960, 1000));
        for t in [2, 3, 8] {
            assert_eq!(boundaries(t), one, "thread count {t}");
        }
    }

    #[test]
    fn every_index_covered_exactly_once() {
        with_threads(4, || {
            let hits: Vec<AtomicU64> = (0..777).map(|_| AtomicU64::new(0)).collect();
            parallel_for(777, 10, |r| {
                for i in r {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        });
    }

    #[test]
    fn slice_mut_writes_disjoint_pieces() {
        with_threads(3, || {
            let mut data = vec![0usize; 500];
            parallel_slice_mut(&mut data, 7, |range, piece| {
                for (v, i) in piece.iter_mut().zip(range) {
                    *v = i * 2;
                }
            });
            assert!(data.iter().enumerate().all(|(i, &v)| v == i * 2));
        });
    }

    #[test]
    fn reduce_is_bitwise_stable_across_thread_counts() {
        // A sum whose result depends on association order: catches any
        // thread-count-dependent fold order.
        let data: Vec<f32> = (0..100_000)
            .map(|i| ((i * 2654435761u64 as usize) % 1000) as f32 * 1e-3 + 1e-7)
            .collect();
        let reference = with_threads(1, || sum_f32(&data));
        for t in [2, 3, 8] {
            let got = with_threads(t, || sum_f32(&data));
            assert_eq!(got.to_bits(), reference.to_bits(), "thread count {t}");
        }
    }

    #[test]
    fn parallel_map_preserves_order() {
        with_threads(4, || {
            let out = parallel_map(1000, 13, |i| i * i);
            assert_eq!(out.len(), 1000);
            assert!(out.iter().enumerate().all(|(i, &v)| v == i * i));
        });
    }

    #[test]
    fn nested_regions_degrade_to_serial() {
        with_threads(4, || {
            let count = AtomicU64::new(0);
            parallel_for(8, 1, |_| {
                assert!(in_parallel_region());
                // Nested region: must run inline without deadlock.
                parallel_for(100, 10, |r| {
                    count.fetch_add(r.len() as u64, Ordering::Relaxed);
                });
            });
            assert_eq!(count.load(Ordering::Relaxed), 800);
        });
    }

    #[test]
    fn workers_run_in_the_callers_context_and_scopes_end_on_unwind() {
        let outside = threads();
        let exec = Exec::current().with_gemm_path(GemmPath::Scalar);
        let (caller, worker_ran) = (std::thread::current().id(), AtomicUsize::new(0));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            exec.with_threads(4).run(|| {
                parallel_for(64, 1, |_| {
                    assert_eq!((threads(), gemm_path()), (4, GemmPath::Scalar));
                    if std::thread::current().id() != caller {
                        worker_ran.store(1, Ordering::SeqCst);
                    }
                    // Hold the region open until a worker has run a chunk.
                    while worker_ran.load(Ordering::SeqCst) == 0 {
                        std::thread::yield_now();
                    }
                });
                panic!("unwinds out of the scope");
            })
        }));
        assert!(result.is_err());
        assert_eq!((threads(), gemm_path()), (outside, GemmPath::Blocked));
    }

    #[test]
    fn empty_slice_is_a_no_op() {
        with_threads(4, || {
            let mut data: Vec<f32> = Vec::new();
            let before = stats();
            parallel_slice_mut(&mut data, ELEMWISE_CHUNK, |_, _| {
                panic!("must not be called for an empty slice");
            });
            assert_eq!(stats().delta(&before).regions, 0);
            assert!(data.is_empty());
            // The zero-length degenerate of the other primitives too.
            assert_eq!(sum_f32(&[]), 0.0);
            assert!(parallel_map(0, 8, |i| i).is_empty());
        });
    }

    #[test]
    fn slice_shorter_than_thread_count_is_covered_exactly() {
        // More threads than elements: every element must still be written
        // exactly once, with chunk boundaries from the size-only rule.
        with_threads(8, || {
            for len in 1..6usize {
                let mut data = vec![0usize; len];
                parallel_slice_mut(&mut data, 1, |range, piece| {
                    piece[0] = range.start + 1;
                });
                assert!(
                    data.iter().enumerate().all(|(i, &v)| v == i + 1),
                    "len {len}"
                );
            }
        });
    }

    #[test]
    fn nested_slice_mut_degrades_without_aliasing() {
        // A slice_mut region opened inside another parallel region must run
        // inline on the calling thread and still hand out disjoint pieces.
        with_threads(4, || {
            let mut out = vec![0.0f32; 16];
            parallel_slice_mut(&mut out, 1, |range, piece| {
                let mut scratch = vec![0.0f32; 64];
                parallel_slice_mut(&mut scratch, 8, |inner, s| {
                    for (v, i) in s.iter_mut().zip(inner) {
                        *v = (range.start * 100 + i) as f32;
                    }
                });
                piece[0] = scratch.iter().sum();
            });
            for (i, &v) in out.iter().enumerate() {
                let expect = (0..64).map(|j| (i * 100 + j) as f32).sum::<f32>();
                assert_eq!(v.to_bits(), expect.to_bits(), "outer chunk {i}");
            }
        });
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        with_threads(4, || {
            let result = std::panic::catch_unwind(|| {
                parallel_for(64, 1, |r| {
                    if r.start == 33 {
                        panic!("boom from chunk 33");
                    }
                });
            });
            assert!(result.is_err());
            // The pool must still be usable afterwards.
            let sum = parallel_reduce(
                100,
                10,
                || 0u64,
                |r| r.map(|i| i as u64).sum(),
                |a, b| a + b,
            );
            assert_eq!(sum, 4950);
        });
    }

    #[test]
    fn stats_count_engaged_regions() {
        with_threads(2, || {
            let before = stats();
            parallel_for(100_000, 100, |_| {});
            let after = stats();
            let d = after.delta(&before);
            assert_eq!(d.regions, 1);
            assert_eq!(d.chunks(), 1000);
            assert!(d.imbalance() >= 0.5 / d.threads as f64 && d.imbalance() <= 1.0);
        });
    }

    #[test]
    fn stats_stay_exact_when_a_chunk_panics() {
        with_threads(2, || {
            let before = stats();
            let completed = AtomicU64::new(0);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                parallel_for(64, 1, |r| {
                    if r.start == 40 {
                        panic!("boom from chunk 40");
                    }
                    completed.fetch_add(1, Ordering::Relaxed);
                });
            }));
            assert!(result.is_err());
            // Completed chunks are what the counters hold, also for the
            // participant that unwound. A worker that is in the region runs
            // whatever is left; if the caller unwinds before the worker has
            // entered, the region closes and chunks 41.. never run.
            let completed = completed.load(Ordering::Relaxed);
            assert!(matches!(completed, 40 | 63), "{completed} completed");
            assert_eq!(stats().delta(&before).chunks(), completed);
        });
    }

    #[test]
    fn weighted_regions_engage_by_work_and_unweighted_ones_by_chunk_count() {
        /// Pool regions opened by one two-chunk `parallel_slice_mut` call.
        fn regions(threads: usize, work: Option<u64>) -> u64 {
            with_threads(threads, || {
                let mut data = [0u8; 2];
                let before = stats();
                match work {
                    Some(w) => parallel_slice_mut_weighted(&mut data, 1, w, |_, d| d[0] = 1),
                    None => parallel_slice_mut(&mut data, 1, |_, d| d[0] = 1),
                }
                assert_eq!(data, [1, 1]);
                stats().delta(&before).regions
            })
        }
        for threads in [2, 3, 8] {
            assert_eq!(regions(threads, Some(MIN_REGION_WORK - 1)), 0);
            assert_eq!(regions(threads, Some(MIN_REGION_WORK)), 1);
            assert_eq!(regions(threads, None), 1);
        }
        // A one-thread pool has nobody to engage, whatever the work.
        assert_eq!(regions(1, Some(u64::MAX)), 0);
        assert!(engages(2, Some(MIN_REGION_WORK)) && !engages(1, Some(u64::MAX)));
    }

    #[test]
    fn reduce_folds_owned_partials_in_chunk_order_on_both_routes() {
        let concat = |work: u64| {
            parallel_reduce_weighted(
                50,
                7,
                work,
                String::new,
                |range| format!("{}-{};", range.start, range.end),
                |acc, part| acc + &part,
            )
        };
        let serial = with_threads(1, || concat(u64::MAX));
        assert!(serial.starts_with("0-7;7-14;") && serial.ends_with("49-50;"));
        for threads in [2, 3, 8] {
            assert_eq!(with_threads(threads, || concat(u64::MAX)), serial);
            assert_eq!(with_threads(threads, || concat(0)), serial);
        }
    }

    #[test]
    fn a_panicking_reduce_chunk_drops_the_finished_partials() {
        struct Counted<'a>(&'a AtomicUsize);
        impl Drop for Counted<'_> {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        with_threads(2, || {
            let (made, dropped) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                parallel_reduce(
                    16,
                    1,
                    Vec::new,
                    |range| {
                        if range.start == 9 {
                            panic!("boom from chunk 9");
                        }
                        made.fetch_add(1, Ordering::Relaxed);
                        vec![Counted(&dropped)]
                    },
                    |mut acc, part| {
                        acc.extend(part);
                        acc
                    },
                );
            }));
            assert!(result.is_err());
            // All the others, or chunks 0..9 alone if the caller unwound
            // before the worker had entered the region.
            let made = made.load(Ordering::Relaxed);
            assert!(matches!(made, 9 | 15), "{made} partials made");
            assert_eq!(dropped.load(Ordering::Relaxed), made);
        });
    }

    #[test]
    fn env_parsing_clamps_garbage() {
        // Not set / garbage falls back to available parallelism >= 1.
        assert!(default_threads() >= 1);
        assert_eq!(ParallelConfig::with_threads(0).threads, 1);
    }

    #[test]
    fn small_work_runs_inline() {
        with_threads(4, || {
            let before = stats();
            parallel_for(10, 100, |r| assert_eq!(r, 0..10)); // one chunk
            let d = stats().delta(&before);
            assert_eq!(d.regions, 0, "single-chunk work must not engage the pool");
        });
    }
}
