//! The layer probes every traced run ends with: small fixed operations of
//! single layers, timed at the workload's thread count, so a change to
//! one layer shows there before it shows in a workload.

use crate::common::{timed, TempDir};
use crate::drive::{self, Probe, Stack};
use crate::report::Report;
use crate::span::{Recorder, NO_SESSION};
use crate::stats::median;

const MIB: f64 = 1024.0 * 1024.0;

/// Median microseconds per operation, after one untimed call.
fn measure(rec: &mut Recorder, mut probe: Probe<'_>) -> f64 {
    let span = rec.enter(probe.name, NO_SESSION);
    (probe.call)();
    let samples: Vec<f64> = (0..probe.reps)
        .map(|_| timed(&mut probe.call).0 * 1e6 / probe.inner as f64)
        .collect();
    rec.exit(span);
    median(&samples)
}

/// Runs every probe and adds its metric to `report`.
pub fn run(stack: &Stack, rec: &mut Recorder, seed: u64, tmp: &mut TempDir, report: &mut Report) {
    let root = rec.enter("probes", NO_SESSION);
    for probe in drive::kernel_probes() {
        let name = probe.name;
        report.push(name, measure(rec, probe), "us");
    }

    let (probes, snapshot_len) = drive::storage_probes(stack, seed);
    for probe in probes {
        let name = probe.name;
        let us = measure(rec, probe);
        if name == "ckpt.snapshot_us" {
            let rate = snapshot_len as f64 / MIB / (us / 1e6);
            report.push("ckpt.snapshot_mb_per_s", rate, "MiB/s");
        } else {
            report.push(name, us, "us");
        }
    }

    // Supervision with a DirSink against the plain runner on C13, whose
    // epochs are small enough for the snapshots to dominate.
    const CODE: &str = "DC-AI-C13";
    let span = rec.enter("fault.c13_overhead_share", NO_SESSION);
    let mut plain = Vec::new();
    let mut supervised = Vec::new();
    for _ in 0..3 {
        plain.push(timed(|| stack.plain(CODE, seed, None)).0);
        let dir = tmp.fresh();
        supervised.push(timed(|| stack.supervised_on_dir(CODE, seed, &dir)).0);
        let _ = std::fs::remove_dir_all(&dir);
    }
    rec.exit(span);
    report.push(
        "fault.c13_overhead_share",
        median(&supervised) / median(&plain) - 1.0,
        "share",
    );
    rec.exit(root);
}
