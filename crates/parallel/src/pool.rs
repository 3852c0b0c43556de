//! The persistent worker pool and the registry of shared pools.
//!
//! One [`ThreadPool`] owns `threads - 1` parked worker threads (the caller
//! of a parallel region is always participant 0, so a one-thread pool spawns
//! nothing and runs entirely inline). Work is published to every worker at
//! once via [`ThreadPool::broadcast`]; the higher-level primitives in the
//! crate root layer deterministic chunk scheduling on top of it.

use std::any::Any;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

thread_local! {
    /// Set while the current thread is executing inside a parallel region.
    /// Nested regions detect it and degrade to inline serial execution,
    /// which keeps the pool deadlock-free (a worker never waits on itself).
    static IN_PARALLEL_REGION: RefCell<bool> = const { RefCell::new(false) };
}

/// Whether the current thread is already inside a parallel region.
pub fn in_parallel_region() -> bool {
    IN_PARALLEL_REGION.with(|f| *f.borrow())
}

/// Runs `f` with the region marker set (also cleared again on unwind, so a
/// panicking task does not leave the marker stuck).
fn with_region_marker<R>(f: impl FnOnce() -> R) -> R {
    crate::exec::with_local(&IN_PARALLEL_REGION, true, f)
}

/// The borrowed job closure of one broadcast, as the workers see it.
type Job<'a> = &'a (dyn Fn(usize) + Sync + 'a);

/// A lifetime-erased pointer to the [`Job`] local of one broadcast.
///
/// Storing a pointer *to the reference* (rather than the fat reference
/// itself) keeps it one word wide, so it fits an [`AtomicPtr`]. The pointee
/// only lives for the duration of [`ThreadPool::broadcast`], which does not
/// return (or unwind) before every worker that entered the job has left it —
/// that join is what makes the lifetime erasure sound.
type JobPtr = *mut Job<'static>;

/// How long a worker waits for the next job, and the caller for the last
/// worker, by polling before it parks on a condvar. Back-to-back regions of
/// a training step are separated by a few microseconds of serial tape work,
/// while a futex wake-up costs tens of microseconds, so a bounded spin
/// turns the common hand-off into two cache-line transfers. The bound is
/// wall-clock so an idle pool stops burning its cores at once.
const SPIN_WINDOW: Duration = Duration::from_micros(50);

/// Polls between two reads of the clock while spinning.
const POLLS_PER_CLOCK_READ: u32 = 16;

/// Calls `poll` until it yields a value or `window` has elapsed. A zero
/// window polls exactly once.
fn spin_for<T>(window: Duration, mut poll: impl FnMut() -> Option<T>) -> Option<T> {
    if let Some(value) = poll() {
        return Some(value);
    }
    if window.is_zero() {
        return None;
    }
    let start = Instant::now();
    loop {
        for _ in 0..POLLS_PER_CLOCK_READ {
            std::hint::spin_loop();
            if let Some(value) = poll() {
                return Some(value);
            }
        }
        if start.elapsed() >= window {
            return None;
        }
    }
}

/// Bit of [`Shared::gate`] set while no worker may enter the job.
const CLOSED: u64 = 1 << 31;

/// The epoch (job id) held in the high half of a gate value.
fn epoch_of(gate: u64) -> u32 {
    (gate >> 32) as u32
}

/// The number of workers inside the job, held below [`CLOSED`].
fn inside(gate: u64) -> u64 {
    gate & (CLOSED - 1)
}

/// What ends a worker's wait.
enum Wake {
    Shutdown,
    /// The worker entered the job of this epoch and must leave it again.
    Job(u32),
}

/// State shared between the pool handle and its workers.
///
/// # Protocol
///
/// Everything that decides who may touch the job lives in one word,
/// `gate` = `epoch << 32 | CLOSED | workers inside`, so its modification
/// order is the whole story.
///
/// *Publish.* The broadcaster stores `job` (relaxed), then stores `gate`
/// with the next epoch, open and empty (`SeqCst`).
///
/// *Enter.* A worker compare-exchanges an open gate of an epoch it has not
/// run to the same value plus one (`SeqCst`). Success reads from the
/// release sequence of the publishing store, so `job` is visible to it.
///
/// *Close and join.* Having run its own share, the broadcaster sets
/// `CLOSED` (`fetch_or`, `SeqCst`) — an entering compare-exchange expects
/// an open gate, so none succeeds afterwards — and waits until an
/// `Acquire` load shows nobody inside. Each worker leaves with a `SeqCst`
/// `fetch_sub` after its last use of `job`, and those decrements form one
/// release sequence, so that load happens after every such use. A worker
/// that arrives late (it was parked, or descheduled) finds the gate closed
/// and never touches the job: the broadcaster waits only for workers that
/// actually took part.
///
/// *Parking.* A waiter that has spun for its window takes `park`, announces
/// itself (`sleepers` / `joiner_parked`, `SeqCst`), re-reads its condition
/// with `SeqCst` and only then waits. The signalling side changes the
/// condition with `SeqCst` and then reads the announcement with `SeqCst`:
/// in the single total order either the waiter sees the new condition or
/// the signaller sees the announcement, takes `park` (so the waiter is
/// already inside `wait`) and notifies. Nobody pays for a notification when
/// nobody is parked.
struct Shared {
    gate: AtomicU64,
    /// The job of the gate's epoch; dangling while the gate is closed.
    job: AtomicPtr<Job<'static>>,
    shutdown: AtomicBool,
    /// Workers parked (or about to park) on `work_ready`.
    sleepers: AtomicUsize,
    /// Whether the broadcaster is parked (or about to park) on `work_done`.
    joiner_parked: AtomicBool,
    /// Held around every announce-recheck-wait and every notification.
    park: Mutex<()>,
    /// Signalled when a new job (or shutdown) is published to a sleeper.
    work_ready: Condvar,
    /// Signalled when the last worker leaves while the joiner is parked.
    work_done: Condvar,
    /// First panic payload captured from a worker, if any.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// [`SPIN_WINDOW`], or zero for a pool with more participants than the
    /// machine has cores: there a spinning thread only takes the core from
    /// the thread it waits for, so everyone parks at once.
    spin_window: Duration,
}

impl Shared {
    fn lock_park(&self) -> MutexGuard<'_, ()> {
        self.park.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Wakes every worker parked on `work_ready`, if any is.
    fn wake_sleepers(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _park = self.lock_park();
            self.work_ready.notify_all();
        }
    }

    /// Closes the gate and blocks until every worker inside has left.
    fn close_and_join(&self) {
        self.gate.fetch_or(CLOSED, Ordering::SeqCst);
        let drained = || (inside(self.gate.load(Ordering::Acquire)) == 0).then_some(());
        if spin_for(self.spin_window, drained).is_some() {
            return;
        }
        let mut park = self.lock_park();
        self.joiner_parked.store(true, Ordering::SeqCst);
        while inside(self.gate.load(Ordering::SeqCst)) != 0 {
            park = self.work_done.wait(park).unwrap_or_else(|e| e.into_inner());
        }
        self.joiner_parked.store(false, Ordering::SeqCst);
    }

    /// One poll of a worker whose last job was `seen`: notices shutdown, or
    /// enters the current job if it is open and new.
    fn poll(&self, seen: u32) -> Option<Wake> {
        if self.shutdown.load(Ordering::SeqCst) {
            return Some(Wake::Shutdown);
        }
        let mut gate = self.gate.load(Ordering::SeqCst);
        loop {
            if gate & CLOSED != 0 || epoch_of(gate) == seen {
                return None;
            }
            match self.gate.compare_exchange_weak(
                gate,
                gate + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return Some(Wake::Job(epoch_of(gate))),
                Err(current) => gate = current,
            }
        }
    }

    /// Parks a worker until shutdown or a publish later than `epoch`. It
    /// does not wait for a job it can *enter*: a woken worker that finds
    /// the gate closed again goes back to polling, so it is in place for
    /// the next region instead of costing that one a wake-up too.
    fn park_worker(&self, epoch: u32) {
        let mut park = self.lock_park();
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        while !self.shutdown.load(Ordering::SeqCst)
            && epoch_of(self.gate.load(Ordering::SeqCst)) == epoch
        {
            park = self
                .work_ready
                .wait(park)
                .unwrap_or_else(|e| e.into_inner());
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    /// Runs the current job as participant `idx` and leaves the gate. Only
    /// for a worker that has just entered (see [`Shared::poll`]).
    fn run_job(&self, idx: usize) {
        let job = self.job.load(Ordering::Relaxed);
        // SAFETY: `job` points at the `job` local of the `broadcast` frame
        // that opened the gate this worker entered, and that local borrows
        // the caller's closure. The frame cannot return or unwind before
        // its `CloseAndJoin` guard has closed `gate` and then read, with
        // `Acquire` or stronger, that nobody is inside. This worker counts
        // as inside from its entering compare-exchange — which succeeded,
        // so it precedes the close in the modification order of `gate` —
        // until the `SeqCst` (hence `Release`) `fetch_sub` below, which
        // comes after its last use of the pointer. The pointee is `Sync`,
        // so calling it from several threads at once is allowed.
        #[allow(unsafe_code)]
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_region_marker(|| unsafe { (*job)(idx) })
        }));
        if let Err(payload) = result {
            self.panic
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .get_or_insert(payload);
        }
        let before = self.gate.fetch_sub(1, Ordering::SeqCst);
        let last_out = before & CLOSED != 0 && inside(before) == 1;
        if last_out && self.joiner_parked.load(Ordering::SeqCst) {
            let _park = self.lock_park();
            self.work_done.notify_all();
        }
    }
}

/// Per-pool utilization counters (see [`PoolStats`]).
pub(crate) struct Counters {
    /// Parallel regions that actually engaged the pool.
    pub(crate) regions: AtomicU64,
    /// Chunks executed, per participant (index 0 = the calling thread).
    pub(crate) per_worker: Vec<AtomicU64>,
}

/// A persistent pool of `threads - 1` worker threads plus the caller.
///
/// Regions run on the pool of the calling thread's [`crate::Exec`]: one
/// shared per thread count, or one built here and handed to
/// [`crate::Exec::with_pool`]. They reach it through the crate's
/// primitives only, which is what lets a worker that arrives late skip a
/// region (see `broadcast`).
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    /// Serializes broadcasts from distinct caller threads.
    broadcast_lock: Mutex<()>,
    threads: usize,
    pub(crate) counters: Counters,
}

impl ThreadPool {
    /// Creates a pool that runs parallel regions on `threads` participants:
    /// the calling thread plus `threads - 1` spawned workers. `threads` is
    /// clamped to at least 1.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let spin_window = if threads <= available_threads() {
            SPIN_WINDOW
        } else {
            Duration::ZERO
        };
        ThreadPool::with_spin_window(threads, spin_window)
    }

    fn with_spin_window(threads: usize, spin_window: Duration) -> Self {
        let shared = Arc::new(Shared {
            gate: AtomicU64::new(CLOSED),
            job: AtomicPtr::new(std::ptr::null_mut()),
            shutdown: AtomicBool::new(false),
            sleepers: AtomicUsize::new(0),
            joiner_parked: AtomicBool::new(false),
            park: Mutex::new(()),
            work_ready: Condvar::new(),
            work_done: Condvar::new(),
            panic: Mutex::new(None),
            spin_window,
        });
        let handles = (1..threads)
            .map(|idx| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("aibench-worker-{idx}"))
                    .spawn(move || worker_loop(&shared, idx))
                    .expect("spawn aibench worker thread")
            })
            .collect();
        ThreadPool {
            shared,
            handles,
            broadcast_lock: Mutex::new(()),
            threads,
            counters: Counters {
                regions: AtomicU64::new(0),
                per_worker: (0..threads).map(|_| AtomicU64::new(0)).collect(),
            },
        }
    }

    /// Number of participants (caller + workers) of a parallel region.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(participant_index)` on the calling thread as index 0 and
    /// offers it to each worker as 1..threads, returning once every
    /// participant that took it up has finished. A worker takes part only
    /// if it arrives before the caller's own call returns, so `f` must
    /// share its work out dynamically — `Region::run` hands out chunks from
    /// a shared counter, and by the time `f(0)` returns nothing is left for
    /// a latecomer to do. The same holds when `f(0)` unwinds: workers
    /// already inside run what is left, but if none has entered yet the
    /// unclaimed work is dropped along with the region.
    ///
    /// Panics from any participant are re-raised on the caller after the
    /// join, a worker's ahead of the caller's own.
    ///
    /// Called from inside a parallel region (or on a one-thread pool) this
    /// degrades to `f(0)` inline.
    pub(crate) fn broadcast(&self, f: &(dyn Fn(usize) + Sync)) {
        if self.threads == 1 || in_parallel_region() {
            with_region_marker(|| f(0));
            return;
        }
        let _serialize = self
            .broadcast_lock
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let shared = &*self.shared;
        let job: Job<'_> = f;
        // The cast erases the borrow lifetime of `f` (and of the `job`
        // local) for storage in the shared slot; see the SAFETY comment in
        // `Shared::run_job` for why no worker outlives either.
        shared
            .job
            .store(std::ptr::addr_of!(job) as JobPtr, Ordering::Relaxed);
        // Only a broadcaster, under `broadcast_lock`, moves the epoch on.
        let epoch = epoch_of(shared.gate.load(Ordering::Relaxed)).wrapping_add(1);
        shared.gate.store(u64::from(epoch) << 32, Ordering::SeqCst);

        /// Closes the gate and joins the workers inside when dropped, so
        /// that neither a return nor an unwind can leave this frame while a
        /// worker may still read `job`.
        struct CloseAndJoin<'a>(&'a Shared);
        impl Drop for CloseAndJoin<'_> {
            fn drop(&mut self) {
                self.0.close_and_join();
            }
        }
        let join = CloseAndJoin(shared);
        shared.wake_sleepers();
        let caller_result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| with_region_marker(|| f(0))));
        drop(join); // blocks until every worker inside has left
        let worker_panic = shared
            .panic
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        if let Some(payload) = worker_panic {
            std::panic::resume_unwind(payload);
        }
        if let Err(payload) = caller_result {
            std::panic::resume_unwind(payload);
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // A spinning worker polls the flag; a parked one is woken for it.
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake_sleepers();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ThreadPool({} threads)", self.threads)
    }
}

fn worker_loop(shared: &Shared, idx: usize) {
    // The epoch of the last job this worker ran. Should the 32-bit epoch
    // ever come round to it again the worker sits one job out, and
    // skipping a job is always allowed.
    let mut seen = 0u32;
    loop {
        let epoch = epoch_of(shared.gate.load(Ordering::SeqCst));
        match spin_for(shared.spin_window, || shared.poll(seen)) {
            Some(Wake::Shutdown) => return,
            Some(Wake::Job(entered)) => {
                seen = entered;
                shared.run_job(idx);
            }
            // Nothing to enter since `epoch` was read: sleep until it moves.
            None => shared.park_worker(epoch),
        }
    }
}

// ----------------------------------------------------------------------
// Shared pools and the process default
// ----------------------------------------------------------------------

/// The shared pools, at most one per thread count and kept for the life of
/// the process.
struct Pools {
    shared: Vec<Arc<ThreadPool>>,
    /// The thread count of a thread that has entered no [`crate::Exec`]
    /// scope: 0 until [`crate::ParallelConfig::install`] or first use.
    default: usize,
}

static POOLS: RwLock<Pools> = RwLock::new(Pools {
    shared: Vec::new(),
    default: 0,
});

/// The shared pool of `threads` participants, or of the default count. A
/// failed spawn under the lock leaves `POOLS` valid: poisoning is ignored.
pub(crate) fn shared_pool(threads: Option<usize>) -> Arc<ThreadPool> {
    let find = |pools: &Pools| {
        let t = threads.unwrap_or(pools.default);
        pools.shared.iter().find(|p| p.threads() == t).cloned()
    };
    if let Some(pool) = find(&POOLS.read().unwrap_or_else(|e| e.into_inner())) {
        return pool;
    }
    let mut pools = POOLS.write().unwrap_or_else(|e| e.into_inner());
    if pools.default == 0 {
        pools.default = default_threads();
    }
    find(&pools).unwrap_or_else(|| {
        let pool = Arc::new(ThreadPool::new(threads.unwrap_or(pools.default)));
        pools.shared.push(Arc::clone(&pool));
        pool
    })
}

/// Makes `threads` the default thread count.
pub(crate) fn set_default(threads: usize) {
    POOLS.write().unwrap_or_else(|e| e.into_inner()).default = threads.max(1);
}

/// The thread count requested by the environment: `AIBENCH_THREADS` if it
/// parses as a positive integer, otherwise [`std::thread::available_parallelism`].
pub fn default_threads() -> usize {
    match std::env::var("AIBENCH_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => available_threads(),
        },
        Err(_) => available_threads(),
    }
}

fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU8;
    use std::sync::mpsc;

    /// Runs `body` on a thread of its own and fails, instead of hanging the
    /// test binary, if it has not finished in a minute: a lost wake-up shows
    /// as a timeout here.
    fn under_watchdog(body: impl FnOnce() + Send + 'static) {
        let (done, finished) = mpsc::channel();
        let runner = std::thread::spawn(move || {
            body();
            let _ = done.send(());
        });
        match finished.recv_timeout(Duration::from_secs(60)) {
            Ok(()) => runner.join().expect("watchdogged body panicked"),
            // The sender was dropped without a send: `body` panicked.
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(runner.join().expect_err("body ended without reporting"))
            }
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("pool hand-off hung for 60 s"),
        }
    }

    /// Both waiting strategies, whatever the host's core count: a window
    /// no test outlasts (every wait polls) and none at all (every wait
    /// parks).
    const WINDOWS: [Duration; 2] = [Duration::from_secs(3600), Duration::ZERO];

    /// Runs one region of `chunks` chunks handed out from a shared counter,
    /// as the crate's primitives do, and checks that each ran exactly once
    /// by the time `broadcast` returned.
    fn run_counted_region(pool: &ThreadPool, chunks: usize) {
        let hits: Vec<AtomicU8> = (0..chunks).map(|_| AtomicU8::new(0)).collect();
        let next = AtomicUsize::new(0);
        pool.broadcast(&|_| loop {
            let c = next.fetch_add(1, Ordering::Relaxed);
            if c >= chunks {
                break;
            }
            hits[c].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn back_to_back_empty_regions_never_lose_a_wake_up() {
        for threads in [2, 3] {
            under_watchdog(move || {
                let pool = ThreadPool::new(threads);
                let caller_runs = AtomicUsize::new(0);
                for _ in 0..100_000 {
                    pool.broadcast(&|who| {
                        if who == 0 {
                            caller_runs.fetch_add(1, Ordering::Relaxed);
                        }
                    });
                }
                assert_eq!(caller_runs.load(Ordering::Relaxed), 100_000);
            });
        }
    }

    #[test]
    fn regions_complete_on_the_polling_and_on_the_parked_path() {
        for window in WINDOWS {
            under_watchdog(move || {
                let pool = ThreadPool::with_spin_window(3, window);
                for _ in 0..2_000 {
                    run_counted_region(&pool, 8);
                }
            });
        }
    }

    #[test]
    fn regions_separated_by_idle_gaps_wake_parked_workers() {
        under_watchdog(|| {
            let pool = ThreadPool::with_spin_window(2, SPIN_WINDOW);
            for _ in 0..100 {
                // Well past the window: the worker has parked by now.
                std::thread::sleep(20 * SPIN_WINDOW);
                run_counted_region(&pool, 4);
            }
        });
    }

    #[test]
    fn a_panicking_participant_leaves_the_pool_usable() {
        for window in WINDOWS {
            for culprit in [0, 1] {
                under_watchdog(move || {
                    let pool = ThreadPool::with_spin_window(2, window);
                    let worker_in = AtomicBool::new(false);
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        pool.broadcast(&|who| {
                            if who == 0 {
                                // Keep the gate open until the worker is in,
                                // so both participants take part.
                                while !worker_in.load(Ordering::SeqCst) {
                                    std::thread::yield_now();
                                }
                            } else {
                                worker_in.store(true, Ordering::SeqCst);
                            }
                            if who == culprit {
                                panic!("boom from participant {who}");
                            }
                        });
                    }));
                    let payload = result.expect_err("the panic must reach the caller");
                    let message = payload.downcast_ref::<String>().expect("formatted panic");
                    assert_eq!(message, &format!("boom from participant {culprit}"));
                    for _ in 0..100 {
                        run_counted_region(&pool, 8);
                    }
                });
            }
        }
    }

    #[test]
    fn a_caller_that_panics_at_once_drops_only_unclaimed_work() {
        // The caller does not wait for the worker here, so each round goes
        // one of two ways (a parked worker nearly always comes too late, a
        // polling one nearly always in time) and either must hold up.
        const CHUNKS: usize = 8;
        for window in WINDOWS {
            under_watchdog(move || {
                let pool = ThreadPool::with_spin_window(2, window);
                for _ in 0..200 {
                    let next = AtomicUsize::new(0);
                    let ran = AtomicUsize::new(0);
                    let worker_in = AtomicBool::new(false);
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        pool.broadcast(&|who| {
                            if who == 0 {
                                panic!("boom from the caller");
                            }
                            worker_in.store(true, Ordering::SeqCst);
                            while next.fetch_add(1, Ordering::Relaxed) < CHUNKS {
                                ran.fetch_add(1, Ordering::Relaxed);
                            }
                        });
                    }));
                    assert!(result.is_err(), "the panic must reach the caller");
                    // A worker that got in ran everything before the
                    // broadcast unwound; one that did not never will.
                    let expect = if worker_in.load(Ordering::SeqCst) {
                        CHUNKS
                    } else {
                        0
                    };
                    assert_eq!(ran.load(Ordering::Relaxed), expect);
                    run_counted_region(&pool, CHUNKS);
                    assert_eq!(ran.load(Ordering::Relaxed), expect);
                }
            });
        }
    }

    #[test]
    fn drop_is_seen_by_polling_and_by_parked_workers() {
        for window in WINDOWS {
            under_watchdog(move || {
                let pool = ThreadPool::with_spin_window(3, window);
                run_counted_region(&pool, 8);
                drop(pool); // joins the workers: hangs if one misses it
            });
        }
    }

    #[test]
    fn two_callers_share_one_pool() {
        for window in WINDOWS {
            under_watchdog(move || {
                let pool = ThreadPool::with_spin_window(2, window);
                std::thread::scope(|scope| {
                    for _ in 0..2 {
                        scope.spawn(|| {
                            for _ in 0..5_000 {
                                run_counted_region(&pool, 4);
                            }
                        });
                    }
                });
            });
        }
    }

    #[test]
    fn the_environments_pool_completes_regions() {
        // `AIBENCH_THREADS` sizes this pool, and its size against the core
        // count picks the waiting strategy: CI runs it at 2 and at 8.
        under_watchdog(|| {
            let pool = ThreadPool::new(default_threads());
            for _ in 0..10_000 {
                run_counted_region(&pool, 16);
            }
        });
    }

    #[test]
    fn an_oversubscribed_pool_parks_at_once() {
        under_watchdog(|| {
            // 8 participants on the 2-core reference container.
            let pool = ThreadPool::new(available_threads() + 6);
            assert!(pool.shared.spin_window.is_zero());
            assert_eq!(ThreadPool::new(1).shared.spin_window, SPIN_WINDOW);
            for _ in 0..10_000 {
                run_counted_region(&pool, 16);
            }
        });
    }
}
