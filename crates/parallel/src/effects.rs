//! Region-effect tracking for the deterministic kernels (the `sanitize`
//! feature).
//!
//! Every parallel primitive in this crate partitions work into chunks whose
//! boundaries depend only on the problem size. The *determinism contract*
//! behind that design has two unstated obligations the type system cannot
//! enforce:
//!
//! 1. chunks must touch **disjoint** writable memory (no cross-chunk
//!    write-write or read-write overlap), and
//! 2. order-sensitive float accumulation must go through the order-stable
//!    combiners ([`crate::parallel_reduce`] / [`crate::sum_f32`]), never
//!    through ad-hoc shared accumulators.
//!
//! This module records, per parallel region, the index ranges each chunk
//! declares it reads and writes — an *access set* over the underlying
//! buffers — so an external analysis (the `aibench-audit` crate) can verify
//! both obligations mechanically instead of by example-based testing.
//!
//! With the `sanitize` feature **disabled** every function here is an empty
//! `#[inline]` stub and the tracker costs literally nothing. With the
//! feature enabled but recording **off** (the default), the cost is one
//! thread-local read per region plus a thread-local push/pop per kernel
//! scope. A recording belongs to an execution context:
//! [`crate::Exec::record`] runs a closure under a context carrying a fresh
//! recorder, and the regions opened under it (and regions nested in their
//! chunks, on whichever worker runs them) are recorded; regions opened
//! under any other context — another recording's included — are not.
//!
//! # Declaring a kernel's access set
//!
//! Kernels name the region via [`kernel_scope`] and declare reads inside
//! the chunk closure; writes through [`crate::parallel_slice_mut`] are
//! recorded automatically:
//!
//! ```
//! use aibench_parallel as par;
//! let src = vec![1.0f32; 256];
//! let mut dst = vec![0.0f32; 256];
//! let _scope = par::effects::kernel_scope("double");
//! par::parallel_slice_mut(&mut dst, 64, |range, out| {
//!     par::effects::read(&src, range.clone()); // declared read
//!     for (o, i) in out.iter_mut().zip(range) {
//!         *o = 2.0 * src[i];
//!     }
//! });
//! ```

use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard};

/// The kind of one declared buffer access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// The chunk reads the range.
    Read,
    /// The chunk writes the range (exclusively, if the kernel is correct).
    Write,
    /// The chunk folds a float contribution into the range (read-modify-
    /// write). Accumulation into shared state outside
    /// [`crate::parallel_reduce`] is order-unstable by construction, so
    /// declaring it is how a kernel self-reports a determinism hazard.
    Accumulate,
}

/// Identity of a tracked buffer: the address of its first element.
///
/// Buffers are compared by base address, and access ranges are element
/// indices relative to that base, so two accesses conflict only when they
/// name the same allocation *and* their index ranges overlap. Addresses are
/// only meaningful within one recording session (an allocation freed during
/// the session may be reused), which is why the snapshot-coverage analysis
/// resolves them against buffers that are provably live for the whole
/// session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BufId(pub usize);

impl BufId {
    /// The identity of a slice's backing buffer.
    pub fn of<T>(buf: &[T]) -> BufId {
        BufId(buf.as_ptr() as usize)
    }
}

/// One declared access: which chunk touched which element range of which
/// buffer, and how.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Access {
    /// Index of the chunk (within its region) that performed the access.
    pub chunk: usize,
    /// The buffer touched.
    pub buffer: BufId,
    /// Read, write, or order-sensitive accumulate.
    pub kind: AccessKind,
    /// Element range within the buffer.
    pub range: Range<usize>,
}

/// The recorded effects of one parallel region.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionEffects {
    /// Kernel label from the innermost [`kernel_scope`] on the opening
    /// thread, prefixed with the parent kernel's label for nested regions
    /// (e.g. `conv2d_fwd/gemm`); the primitive name when unlabeled.
    pub kernel: String,
    /// Which primitive opened the region (`parallel_slice_mut`,
    /// `parallel_reduce`, ...).
    pub primitive: &'static str,
    /// Problem size the region was split over.
    pub n: usize,
    /// Fixed chunk size (after clamping to at least 1).
    pub chunk: usize,
    /// Configured thread count when the region ran.
    pub threads: usize,
    /// Whether the region's shape engages the pool: at least two chunks
    /// and, where the kernel estimated its work, enough of it to amortise
    /// a hand-off. A function of the shape alone, so — like the chunk
    /// boundaries — it must not differ between thread counts; whether the
    /// region *ran* on the pool also depends on the pool and on nesting.
    pub engages: bool,
    /// Every access declared by the region's chunks, in recording order.
    pub accesses: Vec<Access>,
    /// RNG draws made from inside this region's chunks — any value above
    /// zero is a determinism hazard (draw order would depend on chunk
    /// scheduling if the generator were shared).
    pub rng_draws: u64,
}

impl RegionEffects {
    /// Chunk boundary descriptor `(n, chunk)` — equal descriptors produce
    /// identical chunk boundaries, by the crate's size-only chunking rule.
    pub fn boundary_key(&self) -> (usize, usize) {
        (self.n, self.chunk)
    }
}

/// Everything one [`crate::Exec::record`] call recorded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EffectReport {
    /// One entry per parallel region, in open order.
    pub regions: Vec<RegionEffects>,
}

impl EffectReport {
    /// Buffers written (or accumulated into) by any recorded region.
    pub fn written_buffers(&self) -> Vec<BufId> {
        let mut out: Vec<BufId> = self
            .regions
            .iter()
            .flat_map(|r| r.accesses.iter())
            .filter(|a| a.kind != AccessKind::Read)
            .map(|a| a.buffer)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// The report one recording fills, shared by every region it records.
type Report = Arc<Mutex<EffectReport>>;

/// The recording an [`crate::Exec`] carries, if any (without the
/// `sanitize` feature nothing is ever recorded into one).
pub(crate) type Recorder = Option<Report>;

fn lock(report: &Mutex<EffectReport>) -> MutexGuard<'_, EffectReport> {
    // Every update leaves the report valid, so a poisoned lock is not.
    report.lock().unwrap_or_else(|e| e.into_inner())
}

/// Everything `recorder` has recorded so far, leaving it empty.
pub(crate) fn drain(recorder: &Recorder) -> EffectReport {
    recorder
        .as_deref()
        .map(|report| std::mem::take(&mut *lock(report)))
        .unwrap_or_default()
}

#[cfg(feature = "sanitize")]
mod imp {
    use super::{lock, Access, AccessKind, BufId, RegionEffects, Report};
    use std::cell::RefCell;
    use std::ops::Range;
    use std::sync::Arc;

    /// A recorded region: its report and its index there.
    pub(crate) type Record = Option<(Report, usize)>;

    thread_local! {
        /// The recorded region and chunk index of the chunk the current
        /// thread is executing, if any. Set by the parallel primitives
        /// around each chunk call; saved/restored across nested regions.
        static CHUNK: RefCell<Option<(Report, usize, usize)>> = const { RefCell::new(None) };
        /// Kernel labels pushed by [`super::kernel_scope`] on this thread.
        static LABELS: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    }

    /// See [the module docs](super) — `true` here.
    pub fn sanitize_compiled() -> bool {
        true
    }

    /// RAII guard popping a [`super::kernel_scope`] label on drop.
    pub struct KernelScope {
        _private: (),
    }

    impl Drop for KernelScope {
        fn drop(&mut self) {
            LABELS.with(|l| {
                l.borrow_mut().pop();
            });
        }
    }

    /// Pushes `name` as the label for regions opened by this thread while
    /// the returned guard lives.
    pub fn kernel_scope(name: &'static str) -> KernelScope {
        LABELS.with(|l| l.borrow_mut().push(name));
        KernelScope { _private: () }
    }

    /// Opens a region record: in the recording that owns the chunk this
    /// thread is executing (a nested region opened on a pool worker
    /// belongs to its parent's recording), else in `recorder`, the
    /// recording of the context the region opens under. `None` when
    /// neither records.
    #[inline]
    pub(crate) fn open_region(
        recorder: &super::Recorder,
        primitive: &'static str,
        n: usize,
        chunk: usize,
        threads: usize,
        engages: bool,
    ) -> Record {
        let parent = CHUNK.with(|c| {
            c.borrow()
                .as_ref()
                .map(|(report, region, _)| (Arc::clone(report), *region))
        });
        let (report, parent) = match parent {
            Some((report, region)) => (report, Some(region)),
            None => (Arc::clone(recorder.as_ref()?), None),
        };
        let local = LABELS
            .with(|l| l.borrow().last().copied())
            .unwrap_or(primitive);
        let mut rec = lock(&report);
        let kernel = match parent.and_then(|r| rec.regions.get(r)) {
            Some(p) => format!("{}/{}", p.kernel, local),
            None => local.to_string(),
        };
        rec.regions.push(RegionEffects {
            kernel,
            primitive,
            n,
            chunk,
            threads,
            engages,
            accesses: Vec::new(),
            rng_draws: 0,
        });
        let index = rec.regions.len() - 1;
        drop(rec);
        Some((report, index))
    }

    /// Runs one chunk with the `(region, chunk)` context set, restoring the
    /// previous context afterwards (also on unwind, so a panicking kernel
    /// does not corrupt attribution for the rest of the session).
    #[inline]
    pub(crate) fn in_chunk<R>(record: &Record, chunk: usize, f: impl FnOnce() -> R) -> R {
        let Some((report, region)) = record else {
            return f();
        };
        crate::exec::with_local(&CHUNK, Some((Arc::clone(report), *region, chunk)), f)
    }

    /// Applies `f` to the region record of the chunk this thread is
    /// executing, if that chunk is recorded.
    fn with_region(f: impl FnOnce(&mut RegionEffects, usize)) {
        CHUNK.with(|c| {
            if let Some((report, region, chunk)) = &*c.borrow() {
                if let Some(r) = lock(report).regions.get_mut(*region) {
                    f(r, *chunk);
                }
            }
        });
    }

    fn record(buffer: BufId, kind: AccessKind, range: Range<usize>) {
        with_region(|r, chunk| {
            r.accesses.push(Access {
                chunk,
                buffer,
                kind,
                range,
            })
        });
    }

    /// Declares that the current chunk reads `buf[range]`. No-op outside a
    /// recorded chunk.
    #[inline]
    pub fn read<T>(buf: &[T], range: Range<usize>) {
        record(BufId::of(buf), AccessKind::Read, range);
    }

    /// Declares that the current chunk writes `buf[range]`. No-op outside a
    /// recorded chunk.
    #[inline]
    pub fn write<T>(buf: &[T], range: Range<usize>) {
        record(BufId::of(buf), AccessKind::Write, range);
    }

    /// Declares that the current chunk accumulates into `buf[range]`
    /// (an order-sensitive read-modify-write). No-op outside a recorded
    /// chunk.
    #[inline]
    pub fn accumulate<T>(buf: &[T], range: Range<usize>) {
        record(BufId::of(buf), AccessKind::Accumulate, range);
    }

    /// Records a write by raw base address (used by
    /// [`crate::parallel_slice_mut`], which only holds a pointer to the
    /// buffer being split).
    #[inline]
    pub(crate) fn record_write_raw(addr: usize, range: Range<usize>) {
        record(BufId(addr), AccessKind::Write, range);
    }

    /// Notes one RNG draw; attributed to the current region when the draw
    /// happens inside a recorded chunk. Called by `aibench-tensor`'s `Rng`.
    #[inline]
    pub fn note_rng_draw() {
        with_region(|r, _| r.rng_draws += 1);
    }
}

#[cfg(not(feature = "sanitize"))]
mod imp {
    //! Zero-cost stubs compiled when the `sanitize` feature is off.
    use std::ops::Range;

    pub(crate) struct Record;

    /// See [the module docs](super) — `false` here.
    pub fn sanitize_compiled() -> bool {
        false
    }

    /// Zero-sized stand-in for the recording guard.
    pub struct KernelScope {
        _private: (),
    }

    /// No-op without the `sanitize` feature.
    #[inline(always)]
    pub fn kernel_scope(_name: &'static str) -> KernelScope {
        KernelScope { _private: () }
    }

    #[inline(always)]
    pub(crate) fn open_region(
        _recorder: &super::Recorder,
        _primitive: &'static str,
        _n: usize,
        _chunk: usize,
        _threads: usize,
        _engages: bool,
    ) -> Record {
        Record
    }

    #[inline(always)]
    pub(crate) fn in_chunk<R>(_record: &Record, _chunk: usize, f: impl FnOnce() -> R) -> R {
        f()
    }

    /// No-op without the `sanitize` feature.
    #[inline(always)]
    pub fn read<T>(_buf: &[T], _range: Range<usize>) {}

    /// No-op without the `sanitize` feature.
    #[inline(always)]
    pub fn write<T>(_buf: &[T], _range: Range<usize>) {}

    /// No-op without the `sanitize` feature.
    #[inline(always)]
    pub fn accumulate<T>(_buf: &[T], _range: Range<usize>) {}

    #[inline(always)]
    pub(crate) fn record_write_raw(_addr: usize, _range: Range<usize>) {}

    /// No-op without the `sanitize` feature.
    #[inline(always)]
    pub fn note_rng_draw() {}
}

pub use imp::{
    accumulate, kernel_scope, note_rng_draw, read, sanitize_compiled, write, KernelScope,
};
pub(crate) use imp::{in_chunk, open_region, record_write_raw, Record};

#[cfg(all(test, feature = "sanitize"))]
mod tests {
    use super::*;
    use crate::{parallel_reduce, parallel_slice_mut, Exec};

    fn recorded<R>(threads: usize, f: impl FnOnce() -> R) -> (R, EffectReport) {
        Exec::current().with_threads(threads).record(f)
    }

    #[test]
    fn slice_mut_auto_records_disjoint_writes() {
        let (_, report) = recorded(4, || {
            let mut data = vec![0u64; 100];
            let _scope = kernel_scope("fill");
            parallel_slice_mut(&mut data, 16, |range, out| {
                for (o, i) in out.iter_mut().zip(range) {
                    *o = i as u64;
                }
            });
        });
        assert_eq!(report.regions.len(), 1);
        let region = &report.regions[0];
        assert_eq!(region.kernel, "fill");
        assert_eq!(region.primitive, "parallel_slice_mut");
        assert_eq!(region.boundary_key(), (100, 16));
        // 7 chunks, each with exactly one auto-recorded write; together
        // they cover 0..100 without overlap.
        let mut writes: Vec<_> = region
            .accesses
            .iter()
            .filter(|a| a.kind == AccessKind::Write)
            .map(|a| (a.range.start, a.range.end, a.chunk))
            .collect();
        writes.sort_unstable();
        assert_eq!(writes.len(), 7);
        assert_eq!(writes[0].0, 0);
        assert_eq!(writes[6].1, 100);
        for pair in writes.windows(2) {
            assert_eq!(pair[0].1, pair[1].0, "adjacent chunk writes must abut");
        }
        assert_eq!(report.written_buffers().len(), 1);
    }

    #[test]
    fn declared_reads_attach_to_their_chunk() {
        let src = vec![1.0f32; 64];
        let (_, report) = recorded(2, || {
            let mut dst = vec![0.0f32; 64];
            parallel_slice_mut(&mut dst, 8, |range, out| {
                read(&src, range.clone());
                for (o, i) in out.iter_mut().zip(range) {
                    *o = src[i];
                }
            });
        });
        let region = &report.regions[0];
        let reads: Vec<_> = region
            .accesses
            .iter()
            .filter(|a| a.kind == AccessKind::Read)
            .collect();
        assert_eq!(reads.len(), 8);
        assert!(reads.iter().all(|a| a.buffer == BufId::of(&src)));
        for a in &reads {
            assert_eq!(a.range, a.chunk * 8..(a.chunk + 1) * 8);
        }
    }

    #[test]
    fn nested_regions_keep_separate_attribution() {
        let (_, report) = recorded(4, || {
            let mut outer = vec![0.0f32; 8];
            let _scope = kernel_scope("outer");
            parallel_slice_mut(&mut outer, 1, |_, piece| {
                let _inner = kernel_scope("inner");
                let mut tmp = vec![0.0f32; 32];
                parallel_slice_mut(&mut tmp, 8, |_, t| {
                    for v in t {
                        *v = 1.0;
                    }
                });
                piece[0] = tmp.iter().sum();
            });
        });
        let outer: Vec<_> = report
            .regions
            .iter()
            .filter(|r| r.kernel == "outer")
            .collect();
        let inner: Vec<_> = report
            .regions
            .iter()
            .filter(|r| r.kernel == "outer/inner")
            .collect();
        assert_eq!(outer.len(), 1);
        assert_eq!(inner.len(), 8, "one nested region per outer chunk");
        // Nested (inline-serial) regions still record per-chunk writes.
        assert!(inner.iter().all(|r| r.accesses.len() == 4));
    }

    #[test]
    fn reduce_records_its_primitive_and_reads() {
        let data = vec![1.0f32; 100];
        let ((), report) = recorded(3, || {
            let _scope = kernel_scope("sum_test");
            let total = parallel_reduce(
                data.len(),
                16,
                || 0.0f32,
                |range| {
                    read(&data, range.clone());
                    data[range].iter().sum()
                },
                |a, b| a + b,
            );
            assert_eq!(total, 100.0);
        });
        let region = &report.regions[0];
        assert_eq!(region.primitive, "parallel_reduce");
        assert_eq!(region.kernel, "sum_test");
        assert_eq!(region.accesses.len(), 7);
    }

    #[test]
    fn recording_off_records_nothing() {
        let exec = Exec::current().with_threads(2);
        // Regions opened by the context a recording is made from, but
        // outside the recording, stay out of it.
        let mut data = vec![0.0f32; 64];
        exec.run(|| parallel_slice_mut(&mut data, 8, |_, out| out.fill(1.0)));
        let ((), report) = exec.record(|| ());
        assert!(report.regions.is_empty());
    }

    #[test]
    fn report_is_thread_count_invariant_for_clean_kernels() {
        let run = |threads| {
            let (_, mut report) = recorded(threads, || {
                let mut data = vec![0.0f32; 333];
                let _s = kernel_scope("probe");
                parallel_slice_mut(&mut data, 10, |range, out| {
                    for (o, i) in out.iter_mut().zip(range) {
                        *o = i as f32;
                    }
                });
            });
            for r in &mut report.regions {
                r.threads = 0; // normalize the one field allowed to differ
                r.accesses
                    .sort_by_key(|a| (a.chunk, a.range.start, a.range.end));
                for a in &mut r.accesses {
                    a.buffer = BufId(0); // allocation addresses differ per run
                }
            }
            report
        };
        let one = run(1);
        for t in [2, 8] {
            assert_eq!(run(t), one, "thread count {t}");
        }
    }
}
