//! `aibench-perf` — the performance-trajectory harness.
//!
//! Runs a fixed suite of kernel and trainer benchmarks, timing each twice
//! in the same process: once on the packed cache-blocked microkernel path
//! and once on the scalar-tiled baseline ([`GemmPath::Scalar`]); both
//! paths are bitwise identical, so the comparison is pure wall-clock. The
//! reduction entry is baselined against a strictly serial scalar sum
//! instead (the lane-blocked reduction has no runtime toggle). Serving
//! and data-parallel training are measured by `benchmark/`, not here.
//!
//! Writes a schema-versioned `BENCH_<date>.json` snapshot at the
//! repository root, compares per-suite geomean speedup ratios against the
//! most recent prior snapshot, and exits nonzero if any suite regressed
//! by more than `REGRESSION_THRESHOLD`. See `docs/PERF.md` for the full
//! methodology.
//!
//! Usage: `cargo run --release -p aibench-bench --bin aibench-perf
//! [-- [--dry-run] [--dir <path>]]`; any other argument exits 2.

use std::path::{Path, PathBuf};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use aibench::registry::Registry;
use aibench_bench::perf::{
    civil_date, compare, min_ns, PerfEntry, PerfSnapshot, REGRESSION_THRESHOLD, SCHEMA_VERSION,
};
use aibench_parallel::Exec;
use aibench_tensor::ops::{self, Conv2dArgs, GemmPath};
use aibench_tensor::{Rng, Tensor};

/// The calling thread's execution context on the microkernels, and on the
/// scalar baseline.
fn both_paths() -> (Exec, Exec) {
    let on = |path| Exec::current().with_gemm_path(path);
    (on(GemmPath::Blocked), on(GemmPath::Scalar))
}

/// Times `reps` interleaved repetition pairs of two measurements (after
/// one untimed warmup of each) and returns the best (minimum) per-call
/// wall time of each in nanoseconds. Interleaving makes slow machine-level
/// drift — frequency scaling, noisy neighbours — hit both measurements
/// equally instead of biasing whichever ran second; taking the minimum
/// discards the one-sided scheduling noise that only ever inflates
/// samples.
fn time_interleaved(reps: usize, mut first: impl FnMut(), mut second: impl FnMut()) -> (u64, u64) {
    first();
    second();
    let mut first_samples = Vec::with_capacity(reps);
    let mut second_samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        first();
        first_samples.push(t.elapsed().as_nanos() as u64);
        let t = Instant::now();
        second();
        second_samples.push(t.elapsed().as_nanos() as u64);
    }
    (min_ns(&first_samples), min_ns(&second_samples))
}

/// Runs one suite member on both GEMM paths (interleaved) and assembles
/// its entry.
fn measure(name: &str, kind: &str, reps: usize, f: impl Fn()) -> PerfEntry {
    let (blocked, scalar) = both_paths();
    let (blocked, scalar) = time_interleaved(reps, || blocked.run(&f), || scalar.run(&f));
    entry(name, kind, reps, blocked, scalar)
}

fn entry(name: &str, kind: &str, reps: usize, blocked: u64, scalar: u64) -> PerfEntry {
    PerfEntry {
        name: name.to_string(),
        kind: kind.to_string(),
        reps,
        blocked_ns: blocked,
        scalar_ns: scalar,
        speedup: scalar as f64 / blocked.max(1) as f64,
    }
}

fn gemm_suite(entries: &mut Vec<PerfEntry>) {
    // Square sizes spanning L1-resident to L2-spilling working sets, plus
    // two rectangular shapes matching the thin GEMMs the trainers issue.
    let square = [(128usize, 24usize), (192, 12), (256, 9), (384, 5)];
    let mut rng = Rng::seed_from(7);
    for (n, reps) in square {
        let a = Tensor::randn(&[n, n], &mut rng);
        let b = Tensor::randn(&[n, n], &mut rng);
        entries.push(measure(&format!("gemm_{n}"), "gemm", reps, || {
            std::hint::black_box(a.matmul(&b));
        }));
    }
    let rects = [
        ("gemm_64x512x256", 64usize, 512usize, 256usize, 9usize),
        ("gemm_512x64x512", 512, 64, 512, 9),
    ];
    for (name, m, k, n, reps) in rects {
        let a = Tensor::randn(&[m, k], &mut rng);
        let b = Tensor::randn(&[k, n], &mut rng);
        entries.push(measure(name, "gemm", reps, || {
            std::hint::black_box(a.matmul(&b));
        }));
    }
}

fn conv_suite(entries: &mut Vec<PerfEntry>) {
    let mut rng = Rng::seed_from(11);
    // A mid-network 3x3 block and a pointwise 1x1 block, NCHW.
    let x3 = Tensor::randn(&[4, 16, 16, 16], &mut rng);
    let w3 = Tensor::randn(&[32, 16, 3, 3], &mut rng);
    let args3 = Conv2dArgs::new(1, 1);
    entries.push(measure("conv3x3_16c_16x16", "conv", 9, || {
        std::hint::black_box(ops::conv2d(&x3, &w3, args3));
    }));

    let x1 = Tensor::randn(&[4, 32, 16, 16], &mut rng);
    let w1 = Tensor::randn(&[64, 32, 1, 1], &mut rng);
    let args1 = Conv2dArgs::new(1, 0);
    entries.push(measure("conv1x1_32c_16x16", "conv", 9, || {
        std::hint::black_box(ops::conv2d(&x1, &w1, args1));
    }));

    let g3 = Tensor::randn(&[4, 32, 16, 16], &mut rng);
    entries.push(measure("conv3x3_bwd_weight", "conv", 9, || {
        std::hint::black_box(ops::conv2d_backward_weight(&x3, &g3, (3, 3), args3));
    }));
}

fn reduce_suite(entries: &mut Vec<PerfEntry>) {
    // Two sizes: a 1M-element DRAM-bound sum (whose floor drifts with
    // memory contention) and a 64K-element cache-resident sum (very
    // stable). The regression gate compares the kind geomean, so the
    // stable entry damps the noisy one. Baseline: the strictly serial
    // left-to-right sum the lane-blocked reduction replaced.
    let mut rng = Rng::seed_from(13);
    for (name, len, reps) in [
        ("reduce_sum_1m", 1usize << 20, 48usize),
        ("reduce_sum_64k", 1 << 16, 48),
    ] {
        let t = Tensor::randn(&[len], &mut rng);
        let data = t.data().to_vec();
        let (lane, serial) = time_interleaved(
            reps,
            || {
                std::hint::black_box(t.sum());
            },
            || {
                let mut acc = 0.0f32;
                for &v in &data {
                    acc += v;
                }
                std::hint::black_box(acc);
            },
        );
        entries.push(entry(name, "reduce", reps, lane, serial));
    }
}

fn trainer_suite(entries: &mut Vec<PerfEntry>) {
    let registry = Registry::aibench();
    // DC-AI-C1: the CNN trainer (conv-heavy); DC-AI-C3: the transformer
    // trainer (self-attention); DC-AI-C14: the attentional GRU seq2seq
    // trainer. One trainer instance per path (same seed, identical work),
    // epochs timed *interleaved* between the paths so slow machine-level
    // drift cancels instead of biasing whichever path ran second.
    for (name, code, reps) in [
        ("trainer_cnn_epoch", "DC-AI-C1", 5usize),
        ("trainer_transformer_epoch", "DC-AI-C3", 5),
        ("trainer_attention_epoch", "DC-AI-C14", 5),
    ] {
        let bench = registry
            .get(code)
            .unwrap_or_else(|| panic!("benchmark {code} not in registry"));
        let (blocked, scalar) = both_paths();
        let mut blocked_trainer = blocked.run(|| bench.build(1));
        blocked.run(|| blocked_trainer.train_epoch());
        let mut scalar_trainer = scalar.run(|| bench.build(1));
        scalar.run(|| scalar_trainer.train_epoch());
        let mut blocked_samples = Vec::with_capacity(reps);
        let mut scalar_samples = Vec::with_capacity(reps);
        for _ in 0..reps {
            let t = Instant::now();
            std::hint::black_box(blocked.run(|| blocked_trainer.train_epoch()));
            blocked_samples.push(t.elapsed().as_nanos() as u64);
            let t = Instant::now();
            std::hint::black_box(scalar.run(|| scalar_trainer.train_epoch()));
            scalar_samples.push(t.elapsed().as_nanos() as u64);
        }
        entries.push(entry(
            name,
            "trainer",
            reps,
            min_ns(&blocked_samples),
            min_ns(&scalar_samples),
        ));
    }
}

/// Most recent `BENCH_*.json` in `dir` (lexicographically latest name —
/// the `YYYY-MM-DD` date format makes that chronological), if any.
fn latest_snapshot(dir: &Path) -> Option<(PathBuf, PerfSnapshot)> {
    let mut names: Vec<PathBuf> = std::fs::read_dir(dir)
        .ok()?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    names.sort();
    let path = names.pop()?;
    match std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|s| PerfSnapshot::from_json(&s))
    {
        Ok(snap) => Some((path, snap)),
        Err(e) => {
            eprintln!("warning: could not read {}: {e}", path.display());
            None
        }
    }
}

/// What the command line asked for.
#[derive(Debug, PartialEq)]
struct Args {
    /// Measure and compare, but write no snapshot.
    dry_run: bool,
    /// Where snapshots are read and written; the repository root if unset.
    dir: Option<PathBuf>,
}

/// Parses the arguments after the program name. An unknown flag or a
/// `--dir` without a path is an error, never silently ignored: a typo
/// must not run the harness and write a snapshot into the repository.
fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        dry_run: false,
        dir: None,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--dry-run" => args.dry_run = true,
            "--dir" => {
                let dir = it
                    .next()
                    .filter(|d| !d.starts_with("--"))
                    .ok_or("--dir needs a path")?;
                args.dir = Some(PathBuf::from(dir));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Args { dry_run, dir } = parse_args(&raw).unwrap_or_else(|problem| {
        eprintln!("aibench-perf: {problem}");
        eprintln!("usage: aibench-perf [--dry-run] [--dir <path>]");
        std::process::exit(2);
    });
    let dir = dir.unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."));

    println!("aibench-perf ({SCHEMA_VERSION})");
    println!(
        "threads={}  dir={}",
        aibench_parallel::threads(),
        dir.display()
    );
    println!();

    let mut entries = Vec::new();
    gemm_suite(&mut entries);
    conv_suite(&mut entries);
    reduce_suite(&mut entries);
    trainer_suite(&mut entries);

    let now = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("system clock before 1970")
        .as_secs();
    let snapshot = PerfSnapshot {
        schema: SCHEMA_VERSION.to_string(),
        date: civil_date(now),
        threads: aibench_parallel::threads(),
        entries,
    };

    println!(
        "{:<24} {:>6} {:>14} {:>14} {:>9}",
        "benchmark", "kind", "blocked_ns", "scalar_ns", "speedup"
    );
    for e in &snapshot.entries {
        println!(
            "{:<24} {:>6} {:>14} {:>14} {:>8.2}x",
            e.name, e.kind, e.blocked_ns, e.scalar_ns, e.speedup
        );
    }
    println!();
    for kind in ["gemm", "conv", "reduce", "trainer"] {
        if let Some(g) = snapshot.geomean_speedup(kind) {
            println!("geomean speedup ({kind:>7}): {g:.2}x");
        }
    }

    let prev = latest_snapshot(&dir);
    let mut regressed = false;
    match &prev {
        Some((path, prev_snap)) => {
            let regs = compare(prev_snap, &snapshot);
            println!();
            println!(
                "compared against {} ({} entries, threshold {:.0}%)",
                path.display(),
                prev_snap.entries.len(),
                REGRESSION_THRESHOLD * 100.0
            );
            if regs.is_empty() {
                println!("no regressions.");
            } else {
                regressed = true;
                for r in &regs {
                    println!(
                        "REGRESSION: {} suite geomean speedup {:.2}x -> {:.2}x (-{:.0}%)",
                        r.kind,
                        r.prev_speedup,
                        r.cur_speedup,
                        r.loss_frac * 100.0
                    );
                }
            }
        }
        None => {
            println!();
            println!("no prior BENCH_*.json snapshot found; nothing to compare.");
        }
    }

    if dry_run {
        println!("--dry-run: not writing a snapshot.");
    } else {
        let out = dir.join(format!("BENCH_{}.json", snapshot.date));
        std::fs::write(&out, snapshot.to_json()).expect("write snapshot");
        println!("wrote {}", out.display());
    }

    if regressed {
        eprintln!("aibench-perf: speedup regression beyond threshold; failing.");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        let raw: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_args(&raw)
    }

    #[test]
    fn dry_run_and_dir_parse() {
        assert_eq!(
            parse(&[]),
            Ok(Args {
                dry_run: false,
                dir: None
            })
        );
        assert_eq!(
            parse(&["--dry-run"]),
            Ok(Args {
                dry_run: true,
                dir: None
            })
        );
        assert_eq!(
            parse(&["--dir", "X", "--dry-run"]),
            Ok(Args {
                dry_run: true,
                dir: Some(PathBuf::from("X"))
            })
        );
    }

    #[test]
    fn a_dir_without_a_path_is_an_error() {
        assert!(parse(&["--dir"]).is_err());
        assert!(parse(&["--dir", "--dry-run"]).is_err());
    }

    #[test]
    fn an_unknown_flag_is_an_error() {
        let err = parse(&["--dryrun"]).unwrap_err();
        assert!(err.contains("--dryrun"), "{err}");
        assert!(parse(&["--dry-run", "extra"]).is_err());
    }
}
