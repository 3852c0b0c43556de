//! What the workloads share: options, the output directory, repeated
//! set-up, the timed pass loop and the fingerprint.

use std::path::PathBuf;
use std::time::Instant;

use crate::drive::{self, PoolStats, RunResult};
use crate::report::Report;
use crate::span::Recorder;
use crate::stats::{median, peak_rss_mb, percentile, sorted, Fnv};

/// One run's options.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Seed of the workload's inputs: session order, request mix,
    /// priorities and the arrival schedule.
    pub seed: u64,
    /// Seed every session trains with. Fixed by default so that every
    /// workload seed runs the same arithmetic and no session fails; at
    /// `--train-seed 3` DC-AI-C4 never converges and counts as failed.
    pub train_seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    pub trace: bool,
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// `benchmark/out/`, next to the manifest.
pub fn out_dir() -> PathBuf {
    let manifest = std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from);
    let dir = manifest.join("out");
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

/// A scratch directory under `out/` that is removed when dropped.
pub struct TempDir {
    pub path: PathBuf,
    next: u64,
}

impl TempDir {
    pub fn new() -> Self {
        let path = out_dir().join(format!("tmp-{}", std::process::id()));
        // A crashed earlier run with this pid may have left one behind.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create the scratch directory");
        TempDir { path, next: 0 }
    }

    /// A fresh, not yet created, subdirectory.
    pub fn fresh(&mut self) -> PathBuf {
        self.next += 1;
        self.path.join(self.next.to_string())
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Sets up `SETUP_REPEATS` times; returns the last product and the median
/// seconds one set-up took.
pub fn set_up<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut product = None;
    for _ in 0..SETUP_REPEATS {
        drop(product.take());
        let start = Instant::now();
        product = Some(build());
        times.push(start.elapsed().as_secs_f64());
    }
    (product.expect("SETUP_REPEATS is positive"), median(&times))
}

/// Runs passes until they have measured for `seconds`, and at least
/// `min_passes` times. `pass` returns the seconds it measured.
pub fn timed_passes(seconds: f64, min_passes: usize, mut pass: impl FnMut() -> f64) -> Vec<f64> {
    let mut walls = Vec::new();
    while walls.len() < min_passes || walls.iter().sum::<f64>() < seconds {
        walls.push(pass());
    }
    walls
}

/// Alternates an untraced pass (`pass(false)`) and a traced one
/// (`pass(true)`) until together they have measured for `seconds`, and at
/// least `min_pairs` times, so that a slow stretch of the machine falls
/// on both kinds alike. Returns the untraced and the traced seconds.
pub fn timed_pairs(
    seconds: f64,
    min_pairs: usize,
    mut pass: impl FnMut(bool) -> f64,
) -> (Vec<f64>, Vec<f64>) {
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    while untraced.len() < min_pairs || untraced.iter().chain(&traced).sum::<f64>() < seconds {
        untraced.push(pass(false));
        traced.push(pass(true));
    }
    (untraced, traced)
}

/// Seconds `f` took, and what it returned.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// FNV over the loss and quality bits of `results`, in the order given.
pub fn fingerprint<'a>(results: impl IntoIterator<Item = &'a RunResult>) -> u64 {
    let mut hash = Fnv::new();
    for result in results {
        hash.bytes(result.code.as_bytes());
        for bits in drive::result_bits(result) {
            hash.u64(bits);
        }
    }
    hash.0
}

/// Ends a traced run: writes `out/<workload>.trace.jsonl`, and reports
/// each span name's self time and the share of the traced wall that root
/// spans account for.
pub fn finish_trace(rec: &Recorder, start_ns: u64, report: &mut Report) {
    for (name, rollup) in rec.rollup() {
        report.push(format!("self_s.{name}"), rollup.self_ns as f64 / 1e9, "s");
    }
    report.push(
        "trace.root_share",
        rec.root_share(start_ns, rec.clock_ns()),
        "share",
    );
    let path = out_dir().join(format!("{}.trace.jsonl", report.workload));
    std::fs::write(&path, rec.to_jsonl()).expect("write the span file");
}

/// The end-to-end metrics of an untraced run: `sessions` is how many
/// sessions `ttq_s` covers, `latencies_ms` one sample per session.
pub fn push_end_to_end(
    report: &mut Report,
    setup_s: f64,
    ttq_s: f64,
    sessions: usize,
    latencies_ms: &[f64],
) {
    let latencies_ms = sorted(latencies_ms);
    report.push("setup_s", setup_s, "s");
    report.push("ttq_s", ttq_s, "s");
    report.push("sessions_per_s", sessions as f64 / ttq_s, "1/s");
    report.push("latency_p90_ms", percentile(&latencies_ms, 0.9), "ms");
    report.push("peak_rss_mb", peak_rss_mb(), "MiB");
    report.push("latency_p50_ms", percentile(&latencies_ms, 0.5), "ms");
    report.push("latency_samples", latencies_ms.len() as f64, "count");
}

/// The `core` and `models` metrics, per pass, from the spans
/// `Stack::stepped` recorded over `passes` traced passes.
pub fn push_training(report: &mut Report, rec: &Recorder, passes: f64) {
    report.push("core.build_s", rec.total_s("core.build") / passes, "s");
    report.push(
        "core.epochs",
        rec.count("models.train") as f64 / passes,
        "count",
    );
    report.push("models.train_s", rec.total_s("models.train") / passes, "s");
    report.push("models.eval_s", rec.total_s("models.eval") / passes, "s");
}

/// The `parallel` metrics of one pass, from a `stats()` delta.
pub fn push_pool(report: &mut Report, pool: &PoolStats) {
    report.push("parallel.regions", pool.regions as f64, "count");
    report.push("parallel.chunks", pool.chunks() as f64, "count");
    report.push("parallel.imbalance", pool.imbalance(), "share");
}
