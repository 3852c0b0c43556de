//! What the benchmark measures — the workloads and metrics that
//! `BENCHMARK.json` declares — and how one run reports them.

use std::fmt::Write as _;

/// Seconds one run measures for; `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 20;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "suite_t1",
        why: "all 17 sessions to quality on 1 thread: tensor, autograd, nn and models do all the work; ckpt, fault, dist, serve and the pool do none",
    },
    Workload {
        name: "suite_t2",
        why: "the same sessions on 2 threads, so the pool dispatches: a dispatch or grain change moves this and leaves suite_t1 alone",
    },
    Workload {
        name: "session_stack",
        why: "small-epoch sessions through supervision, the kill-and-resume loop and distributed training on a DirSink: the session layers do about half the work",
    },
    Workload {
        name: "serve_load",
        why: "ServerCore under closed bursts of the smallest sessions, where per-session serve, fault and ckpt costs weigh most, and an open loop at a fixed rate, where heavy ticks make requests wait",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// The metrics a user of the system sees. Every workload reports each of
/// them from its untraced run.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ttq_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "sessions_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p90_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.2,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// The per-layer metrics every workload's traced run measures. Metrics
/// that exist on one workload only (`models.train_s.<code>`, `fault.*`,
/// `serve.step_s`, ...) are printed by that workload and listed in the
/// README, not here: `BENCHMARK.json` holds one list for all workloads.
pub const PER_LAYER: [PerLayer; 27] = [
    layer("core.build_s", "s", "lower"),
    layer("core.epochs", "count", "lower"),
    layer("models.train_s", "s", "lower"),
    layer("models.eval_s", "s", "lower"),
    layer("parallel.regions", "count", "lower"),
    layer("parallel.chunks", "count", "lower"),
    layer("parallel.imbalance", "share", "lower"),
    layer("parallel.dispatch_us", "us", "lower"),
    layer("tensor.gemm_256_us", "us", "lower"),
    layer("tensor.gemm_64x512x256_us", "us", "lower"),
    layer("tensor.conv3x3_fwd_us", "us", "lower"),
    layer("tensor.conv3x3_bwd_weight_us", "us", "lower"),
    layer("tensor.reduce_1m_us", "us", "lower"),
    layer("tensor.map_200k_us", "us", "lower"),
    layer("autograd.tape_us", "us", "lower"),
    layer("nn.adam_step_us", "us", "lower"),
    layer("fault.c13_overhead_share", "share", "lower"),
    layer("ckpt.snapshot_mb_per_s", "MiB/s", "higher"),
    layer("ckpt.restore_us", "us", "lower"),
    layer("ckpt.kills", "count", "lower"),
    layer("ckpt.bytes_written", "count", "lower"),
    layer("dist.tree_reduce_us", "us", "lower"),
    layer("serve.wire_roundtrip_us", "us", "lower"),
    layer("serve.ticks", "count", "lower"),
    layer("serve.parks", "count", "lower"),
    layer("serve.backlog_end", "count", "lower"),
    layer("trace.overhead_share", "share", "lower"),
];

/// The text of `BENCHMARK.json`, from the tables above.
pub fn manifest_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    let rows = |s: &mut String, key: &str, rows: Vec<String>| {
        let _ = writeln!(s, "  \"{key}\": [");
        let _ = writeln!(s, "    {}", rows.join(",\n    "));
        s.push_str("  ]");
    };
    rows(
        &mut s,
        "workloads",
        WORKLOADS
            .iter()
            .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect(),
    );
    s.push_str(",\n");
    rows(
        &mut s,
        "end_to_end",
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name, m.unit, m.better, m.bound
                )
            })
            .collect(),
    );
    s.push_str(",\n");
    rows(
        &mut s,
        "per_layer",
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name, m.unit, m.better
                )
            })
            .collect(),
    );
    s.push_str("\n}\n");
    s
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run of one workload measured.
#[derive(Debug, Clone)]
pub struct Report {
    pub workload: &'static str,
    pub traced: bool,
    /// Sessions attempted and failed. A session fails if it did not
    /// converge, did not match its reference bits, was rejected, did not
    /// finish, or panicked.
    pub attempted: u64,
    pub failed: u64,
    /// FNV over the loss and quality bits of the workload's results.
    pub fingerprint: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn new(workload: &'static str, traced: bool) -> Self {
        Report {
            workload,
            traced,
            attempted: 0,
            failed: 0,
            fingerprint: 0,
            metrics: Vec::new(),
        }
    }

    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Every metric as `workload metric value unit`, one per line.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(out, "{} {} {} {}", self.workload, m.name, m.value, m.unit);
        }
        let _ = writeln!(
            out,
            "{} failed_share {} share",
            self.workload,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        let _ = writeln!(
            out,
            "{} result_fingerprint {:016x} fnv64",
            self.workload, self.fingerprint
        );
        out
    }

    /// The result line: the declared metrics of this run's kind, and only
    /// those.
    pub fn result_json(&self) -> String {
        let declared: Vec<&str> = if self.traced {
            PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        };
        let metrics: Vec<String> = declared
            .iter()
            .map(|name| {
                let m = self
                    .metrics
                    .iter()
                    .find(|m| m.name == *name)
                    .unwrap_or_else(|| panic!("{} did not measure {name}", self.workload));
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            manifest_json(),
            "regenerate with `aibench-benchmark --print-manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let fits = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(fits(name, "_.-", 64), "{name}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            assert!(fits(unit, "_/%.-", 16), "{unit}");
        }
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
    }

    #[test]
    fn result_line_holds_exactly_the_declared_metrics() {
        let mut report = Report::new("suite_t1", false);
        report.attempted = 17;
        for (i, m) in END_TO_END.iter().enumerate() {
            report.push(m.name, 1.5 + i as f64, m.unit);
        }
        report.push("subset_ttq_s", 1.25, "s");
        let json = report.result_json();
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 17, \"failed\": 0, "));
        assert!(json.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(json.contains("\"peak_rss_mb\": {\"value\": 5.5, \"unit\": \"MiB\"}"));
        assert!(!json.contains("subset_ttq_s"));
        assert!(report.lines().contains("suite_t1 subset_ttq_s 1.25 s\n"));
        assert!(report.lines().contains("suite_t1 failed_share 0 share\n"));

        report.failed = 1;
        assert!(report.result_json().starts_with("{\"correct\": false, "));
    }
}
