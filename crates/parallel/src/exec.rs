//! The execution context (see [`Exec`]).

use std::cell::RefCell;
use std::sync::Arc;
use std::thread::LocalKey;

use crate::effects::{self, EffectReport};
use crate::pool::{self, ThreadPool};

/// Which GEMM implementation the `aibench-tensor` kernels dispatch to. Both
/// give the same bits: `aibench-perf` times one against the other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GemmPath {
    /// The packed or in-place register-tiled microkernel, by shape.
    #[default]
    Blocked,
    /// Always the 32x32 tiled scalar kernel (the measurement baseline).
    Scalar,
}

/// An execution context: the worker pool regions run on (and so the thread
/// count), the [`GemmPath`] and, under `sanitize`, an effect recorder.
///
/// [`run`](Exec::run) makes a context current for the length of a closure;
/// a region's chunks run in the context it opened under on whichever pool
/// worker takes them. A thread that has entered no scope runs on the
/// process default ([`crate::ParallelConfig::install`]).
#[derive(Debug, Clone)]
pub struct Exec {
    pub(crate) pool: Arc<ThreadPool>,
    gemm_path: GemmPath,
    pub(crate) recorder: effects::Recorder,
}

thread_local! {
    /// The context of the innermost [`Exec::run`] on this thread, or of the
    /// region a pool worker is taking part in.
    static CURRENT: RefCell<Option<Exec>> = const { RefCell::new(None) };
}

impl Exec {
    /// The calling thread's context.
    pub fn current() -> Exec {
        CURRENT
            .with(|c| c.borrow().clone())
            .unwrap_or_else(|| Exec {
                pool: pool::shared_pool(None),
                gemm_path: GemmPath::default(),
                recorder: Default::default(),
            })
    }

    /// This context on the pool every context of `threads` participants
    /// (at least 1) shares.
    pub fn with_threads(self, threads: usize) -> Exec {
        let pool = pool::shared_pool(Some(threads.max(1)));
        Exec { pool, ..self }
    }

    /// This context on a pool of its own, whose [`crate::stats`] count only
    /// its regions.
    pub fn with_pool(self, pool: ThreadPool) -> Exec {
        let pool = Arc::new(pool);
        Exec { pool, ..self }
    }

    /// This context with the GEMM kernels on `gemm_path`.
    pub fn with_gemm_path(self, gemm_path: GemmPath) -> Exec {
        Exec { gemm_path, ..self }
    }

    /// Participants of a region run under this context.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Runs `f` with this context current on the calling thread, the one
    /// before it current again once `f` returns or unwinds.
    pub fn run<R>(&self, f: impl FnOnce() -> R) -> R {
        with_local(&CURRENT, Some(self.clone()), f)
    }

    /// Runs `f` under this context with a fresh effect recorder and returns
    /// the regions `f` opened, with those nested in their chunks on any
    /// thread; recordings made beside or around it keep their own. Empty
    /// without the `sanitize` feature.
    pub fn record<R>(&self, f: impl FnOnce() -> R) -> (R, EffectReport) {
        let recorder = Some(Default::default());
        let exec = Exec {
            recorder: recorder.clone(),
            ..self.clone()
        };
        (exec.run(f), effects::drain(&recorder))
    }
}

/// Runs `f` with the thread-local `key` holding `value`, and what it held
/// before back in place once `f` returns or unwinds.
pub(crate) fn with_local<T: 'static, R>(
    key: &'static LocalKey<RefCell<T>>,
    value: T,
    f: impl FnOnce() -> R,
) -> R {
    struct Restore<T: 'static>(&'static LocalKey<RefCell<T>>, Option<T>);
    impl<T: 'static> Drop for Restore<T> {
        fn drop(&mut self) {
            if let Some(previous) = self.1.take() {
                drop(self.0.with(|c| c.replace(previous)));
            }
        }
    }
    let _restore = Restore(key, Some(key.with(|c| c.replace(value))));
    f()
}

/// The GEMM path of the calling thread's context.
pub fn gemm_path() -> GemmPath {
    CURRENT.with(|c| c.borrow().as_ref().map(|e| e.gemm_path).unwrap_or_default())
}
