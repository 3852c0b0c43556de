//! Shared helpers for the table/figure regeneration benches.
//!
//! Every paper table and figure has a `cargo bench` target in this crate
//! (see `benches/`); each prints the same rows/series the paper reports,
//! regenerated from the reproduction. The helpers here run the scaled
//! training sessions and cache per-benchmark measurements the figures
//! share.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::BTreeMap;

use aibench::registry::Registry;
use aibench::runner::{run_to_quality, RunConfig};

pub mod perf;

/// Standard epoch cap used by every harness ("entire training session").
pub fn session_config() -> RunConfig {
    RunConfig {
        max_epochs: 45,
        eval_every: 1,
        ..RunConfig::default()
    }
}

/// Runs one training session per benchmark (seed 1) and returns the epochs
/// to reach the quality target (the cap for non-converging benchmarks).
pub fn measured_epochs(registry: &Registry) -> BTreeMap<String, f64> {
    let cfg = session_config();
    registry
        .benchmarks()
        .iter()
        .map(|b| {
            let res = run_to_quality(b, 1, &cfg);
            let e = res.epochs_to_target.unwrap_or(cfg.max_epochs) as f64;
            (b.id.code().to_string(), e)
        })
        .collect()
}

/// Prints the standard harness banner naming the paper artifact being
/// regenerated.
pub fn banner(artifact: &str, description: &str) {
    println!();
    println!("=== {artifact} — {description} ===");
    println!("(regenerated by the aibench-rs reproduction; shapes, not absolute numbers,");
    println!(" are expected to match the paper)");
    println!();
}
