//! Support types for the `aibench-perf` performance-trajectory harness.
//!
//! The harness (see `src/bin/aibench-perf.rs`) runs a fixed suite of kernel
//! and trainer measurements, each timed twice in the same process: once on
//! the packed microkernel path ([`aibench_tensor::ops::GemmPath::Blocked`])
//! and once on the scalar-tiled baseline path
//! ([`aibench_tensor::ops::GemmPath::Scalar`]). Every entry therefore
//! carries its own in-process baseline, and the quantity the regression
//! gate compares across commits is the **speedup ratio**
//! `scalar_ns / blocked_ns` of the two minima — a machine-independent
//! number — never absolute nanoseconds, which vary across CI runners.
//!
//! Results are written as a schema-versioned `BENCH_<date>.json` snapshot
//! at the repository root. [`compare`] diffs two snapshots entry-by-entry
//! and reports every benchmark whose speedup ratio fell by more than
//! [`REGRESSION_THRESHOLD`]; the harness exits nonzero when that list is
//! non-empty, which is what fails the CI `perf` job.
//!
//! The JSON writer and reader here are hand-rolled (the workspace is
//! dependency-free by design); the reader accepts exactly the JSON subset
//! the writer emits plus arbitrary whitespace, and is tested by round-trip.

use std::fmt::Write as _;

/// Schema identifier stamped into every snapshot. Bump the `/vN` suffix on
/// any breaking change to the snapshot layout; [`PerfSnapshot::from_json`]
/// rejects snapshots whose schema string does not match.
pub const SCHEMA_VERSION: &str = "aibench-perf/v1";

/// Fractional speedup loss beyond which a suite counts as regressed.
///
/// The gate compares **per-kind geometric-mean speedups** (not individual
/// entries, whose short runtimes make single ratios noisy): kind `K`
/// regresses when `cur.geomean(K) < prev.geomean(K) * (1 - 0.10)`, i.e.
/// the measured advantage of the microkernel path over the in-process
/// scalar baseline shrank by more than 10 % across the suite.
pub const REGRESSION_THRESHOLD: f64 = 0.10;

/// One measured benchmark in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfEntry {
    /// Stable benchmark name (`gemm_256`, `trainer_cnn_epoch`, ...).
    /// Entries are matched across snapshots by this name.
    pub name: String,
    /// Suite the entry belongs to: `gemm`, `conv`, `reduce` or `trainer`.
    pub kind: String,
    /// Number of timed repetitions the minima were taken over.
    pub reps: usize,
    /// Best (minimum) wall time of one repetition on the microkernel
    /// path, in ns. The minimum is the classic noise-robust statistic for
    /// microbenchmarks: one-sided scheduler/frequency noise only ever
    /// inflates samples.
    pub blocked_ns: u64,
    /// Best wall time of one repetition on the scalar baseline, in ns.
    pub scalar_ns: u64,
    /// `scalar_ns / blocked_ns` — the machine-independent gate quantity.
    pub speedup: f64,
}

/// A full `BENCH_<date>.json` snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfSnapshot {
    /// Schema identifier; always [`SCHEMA_VERSION`] for snapshots written
    /// by this build.
    pub schema: String,
    /// Civil date the snapshot was taken (`YYYY-MM-DD`, UTC).
    pub date: String,
    /// Worker-thread count the measurements ran with.
    pub threads: usize,
    /// The measured suite, in suite order.
    pub entries: Vec<PerfEntry>,
}

impl PerfSnapshot {
    /// Serializes the snapshot as pretty-printed JSON (trailing newline
    /// included, ready to write to disk).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema\": {},", json_string(&self.schema));
        let _ = writeln!(s, "  \"date\": {},", json_string(&self.date));
        let _ = writeln!(s, "  \"threads\": {},", self.threads);
        s.push_str("  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            let comma = if i + 1 < self.entries.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "    {{\"name\": {}, \"kind\": {}, \"reps\": {}, \
                 \"blocked_ns\": {}, \"scalar_ns\": {}, \"speedup\": {:.4}}}{}",
                json_string(&e.name),
                json_string(&e.kind),
                e.reps,
                e.blocked_ns,
                e.scalar_ns,
                e.speedup,
                comma
            );
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Parses a snapshot previously written by [`PerfSnapshot::to_json`].
    ///
    /// Returns an error (never panics) on malformed JSON, a missing field,
    /// or a schema string other than [`SCHEMA_VERSION`].
    pub fn from_json(text: &str) -> Result<PerfSnapshot, String> {
        let v = json::parse(text)?;
        let obj = v.as_obj().ok_or("top level is not an object")?;
        let schema = get_str(obj, "schema")?;
        if schema != SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema {schema:?} (this build reads {SCHEMA_VERSION:?})"
            ));
        }
        let entries_v = get(obj, "entries")?
            .as_arr()
            .ok_or("\"entries\" is not an array")?;
        let mut entries = Vec::with_capacity(entries_v.len());
        for ev in entries_v {
            let eo = ev.as_obj().ok_or("entry is not an object")?;
            entries.push(PerfEntry {
                name: get_str(eo, "name")?,
                kind: get_str(eo, "kind")?,
                reps: get_num(eo, "reps")? as usize,
                blocked_ns: get_num(eo, "blocked_ns")? as u64,
                scalar_ns: get_num(eo, "scalar_ns")? as u64,
                speedup: get_num(eo, "speedup")?,
            });
        }
        Ok(PerfSnapshot {
            schema,
            date: get_str(obj, "date")?,
            threads: get_num(obj, "threads")? as usize,
            entries,
        })
    }

    /// Looks up an entry by name.
    pub fn entry(&self, name: &str) -> Option<&PerfEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Geometric-mean speedup over all entries of the given kind, or
    /// `None` if the snapshot has no such entries. This is the headline
    /// number the acceptance gate checks for the `gemm` suite.
    pub fn geomean_speedup(&self, kind: &str) -> Option<f64> {
        let logs: Vec<f64> = self
            .entries
            .iter()
            .filter(|e| e.kind == kind && e.speedup > 0.0)
            .map(|e| e.speedup.ln())
            .collect();
        if logs.is_empty() {
            None
        } else {
            Some((logs.iter().sum::<f64>() / logs.len() as f64).exp())
        }
    }
}

/// One suite (entry `kind`) whose geometric-mean speedup fell by more
/// than [`REGRESSION_THRESHOLD`] between two snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Suite kind (`gemm`, `conv`, `reduce` or `trainer`).
    pub kind: String,
    /// Geomean speedup in the previous (reference) snapshot.
    pub prev_speedup: f64,
    /// Geomean speedup in the current snapshot.
    pub cur_speedup: f64,
    /// Fraction of the previous speedup that was lost, in `[0, 1]`.
    pub loss_frac: f64,
}

/// Diffs `cur` against `prev` and returns every regressed suite.
///
/// Suites (entry kinds) are matched by name; kinds present in only one
/// snapshot are ignored (adding or retiring a suite is not a regression).
/// The comparison is on geometric-mean speedup ratios per kind —
/// machine-independent, and averaged across a suite so one noisy entry
/// cannot flap the gate.
pub fn compare(prev: &PerfSnapshot, cur: &PerfSnapshot) -> Vec<Regression> {
    let mut kinds: Vec<&str> = cur.entries.iter().map(|e| e.kind.as_str()).collect();
    kinds.sort_unstable();
    kinds.dedup();
    let mut out = Vec::new();
    for kind in kinds {
        if let (Some(p), Some(c)) = (prev.geomean_speedup(kind), cur.geomean_speedup(kind)) {
            if p > 0.0 && c < p * (1.0 - REGRESSION_THRESHOLD) {
                out.push(Regression {
                    kind: kind.to_string(),
                    prev_speedup: p,
                    cur_speedup: c,
                    loss_frac: 1.0 - c / p,
                });
            }
        }
    }
    out
}

/// Minimum of a sample set. Panics on an empty slice.
pub fn min_ns(samples: &[u64]) -> u64 {
    *samples.iter().min().expect("min of no samples")
}

/// Converts a Unix timestamp (seconds) to a `YYYY-MM-DD` UTC civil date,
/// using the days-to-civil algorithm (Howard Hinnant, public domain).
pub fn civil_date(unix_secs: u64) -> String {
    let days = (unix_secs / 86_400) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn get<'a>(obj: &'a [(String, json::Value)], key: &str) -> Result<&'a json::Value, String> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing field {key:?}"))
}

fn get_str(obj: &[(String, json::Value)], key: &str) -> Result<String, String> {
    get(obj, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("field {key:?} is not a string"))
}

fn get_num(obj: &[(String, json::Value)], key: &str) -> Result<f64, String> {
    get(obj, key)?
        .as_num()
        .ok_or_else(|| format!("field {key:?} is not a number"))
}

/// Minimal recursive-descent JSON reader: just enough for the snapshots
/// this module writes (objects, arrays, strings, numbers, booleans, null).
mod json {
    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// Any JSON number (integers read exactly up to 2^53).
        Num(f64),
        /// A string.
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object, as insertion-ordered key/value pairs.
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        /// The string payload, if this is a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }
        /// The numeric payload, if this is a number.
        pub fn as_num(&self) -> Option<f64> {
            match self {
                Value::Num(n) => Some(*n),
                _ => None,
            }
        }
        /// The element list, if this is an array.
        pub fn as_arr(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(a) => Some(a),
                _ => None,
            }
        }
        /// The key/value pairs, if this is an object.
        pub fn as_obj(&self) -> Option<&[(String, Value)]> {
            match self {
                Value::Obj(o) => Some(o),
                _ => None,
            }
        }
    }

    /// Parses one JSON document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Value, String> {
        let b = text.as_bytes();
        let mut pos = 0;
        let v = value(b, &mut pos)?;
        skip_ws(b, &mut pos);
        if pos != b.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        if *pos < b.len() && b[*pos] == c {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, *pos))
        }
    }

    fn value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b'{') => object(b, pos),
            Some(b'[') => array(b, pos),
            Some(b'"') => Ok(Value::Str(string(b, pos)?)),
            Some(b't') => literal(b, pos, "true", Value::Bool(true)),
            Some(b'f') => literal(b, pos, "false", Value::Bool(false)),
            Some(b'n') => literal(b, pos, "null", Value::Null),
            Some(_) => number(b, pos),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
        if b[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", *pos))
        }
    }

    fn object(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(b, pos, b'{')?;
        let mut out = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Obj(out));
        }
        loop {
            skip_ws(b, pos);
            let key = string(b, pos)?;
            skip_ws(b, pos);
            expect(b, pos, b':')?;
            out.push((key, value(b, pos)?));
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Obj(out));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
            }
        }
    }

    fn array(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(b, pos, b'[')?;
        let mut out = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Arr(out));
        }
        loop {
            out.push(value(b, pos)?);
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Arr(out));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
            }
        }
    }

    fn string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(b, pos, b'"')?;
        let mut out = String::new();
        loop {
            match b.get(*pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match b.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            out.push(char::from_u32(code).ok_or("non-scalar \\u escape")?);
                            *pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", *pos)),
                    }
                    *pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte sequences are
                    // passed through unchanged).
                    let rest = std::str::from_utf8(&b[*pos..])
                        .map_err(|_| "invalid UTF-8 in string".to_string())?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    *pos += c.len_utf8();
                }
            }
        }
    }

    fn number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
            *pos += 1;
        }
        std::str::from_utf8(&b[start..*pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PerfSnapshot {
        PerfSnapshot {
            schema: SCHEMA_VERSION.to_string(),
            date: "2026-08-07".to_string(),
            threads: 4,
            entries: vec![
                PerfEntry {
                    name: "gemm_256".into(),
                    kind: "gemm".into(),
                    reps: 9,
                    blocked_ns: 1_000_000,
                    scalar_ns: 2_000_000,
                    speedup: 2.0,
                },
                PerfEntry {
                    name: "trainer_cnn_epoch".into(),
                    kind: "trainer".into(),
                    reps: 3,
                    blocked_ns: 50_000_000,
                    scalar_ns: 65_000_000,
                    speedup: 1.3,
                },
            ],
        }
    }

    #[test]
    fn json_round_trips() {
        let snap = sample();
        let text = snap.to_json();
        let back = PerfSnapshot::from_json(&text).unwrap();
        assert_eq!(snap, back);
    }

    /// Snapshots written while the `simd` build feature existed carry a
    /// `"simd"` key; it is read past, like any key this build does not
    /// know.
    #[test]
    fn a_retired_top_level_key_is_ignored() {
        let text = sample()
            .to_json()
            .replace("  \"entries\"", "  \"simd\": false,\n  \"entries\"");
        assert!(text.contains("\"simd\": false"));
        assert_eq!(PerfSnapshot::from_json(&text).unwrap(), sample());
    }

    #[test]
    fn rejects_wrong_schema() {
        let text = sample().to_json().replace("aibench-perf/v1", "other/v9");
        assert!(PerfSnapshot::from_json(&text).is_err());
    }

    #[test]
    fn rejects_malformed_json() {
        assert!(PerfSnapshot::from_json("{").is_err());
        assert!(PerfSnapshot::from_json("").is_err());
        assert!(PerfSnapshot::from_json("{\"schema\": \"aibench-perf/v1\"}").is_err());
    }

    #[test]
    fn compare_flags_only_large_losses() {
        let prev = sample();
        let mut cur = sample();
        // 5 % loss on the gemm suite: within threshold.
        cur.entries[0].speedup = 1.9;
        assert!(compare(&prev, &cur).is_empty());
        // 25 % loss: flagged.
        cur.entries[0].speedup = 1.5;
        let regs = compare(&prev, &cur);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].kind, "gemm");
        assert!((regs[0].loss_frac - 0.25).abs() < 1e-9);
    }

    #[test]
    fn compare_ignores_added_and_removed_kinds() {
        let prev = sample();
        let mut cur = sample();
        cur.entries.remove(1); // retire the whole `trainer` suite
        cur.entries.push(PerfEntry {
            name: "brand_new".into(),
            kind: "newkind".into(),
            reps: 1,
            blocked_ns: 1,
            scalar_ns: 1,
            speedup: 1.0,
        });
        assert!(compare(&prev, &cur).is_empty());
    }

    /// Every committed snapshot still loads — two carry the retired
    /// `simd` key, and the first three carry the retired `dist`/`serve`
    /// suites — and retiring those suites does not trip the gate.
    #[test]
    fn committed_snapshots_load_and_retired_suites_do_not_regress() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut read = 0;
        for entry in std::fs::read_dir(&root).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if name.starts_with("BENCH_") && name.ends_with(".json") {
                let text = std::fs::read_to_string(&path).unwrap();
                PerfSnapshot::from_json(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
                read += 1;
            }
        }
        assert!(read >= 3, "only {read} BENCH_*.json at {}", root.display());

        let text = std::fs::read_to_string(root.join("BENCH_2026-10-03.json")).unwrap();
        let prev = PerfSnapshot::from_json(&text).unwrap();
        let mut cur = prev.clone();
        cur.entries
            .retain(|e| e.kind != "dist" && e.kind != "serve");
        assert_eq!(cur.entries.len(), 14);
        assert!(compare(&prev, &cur).is_empty());
    }

    #[test]
    fn geomean_is_per_kind() {
        let snap = sample();
        let g = snap.geomean_speedup("gemm").unwrap();
        assert!((g - 2.0).abs() < 1e-12);
        let t = snap.geomean_speedup("trainer").unwrap();
        assert!((t - 1.3).abs() < 1e-12);
        assert!(snap.geomean_speedup("conv").is_none());
    }

    #[test]
    fn civil_date_known_values() {
        assert_eq!(civil_date(0), "1970-01-01");
        // 2026-08-07 00:00:00 UTC.
        assert_eq!(civil_date(1_786_060_800), "2026-08-07");
        // Leap day.
        assert_eq!(civil_date(1_709_164_800), "2024-02-29");
    }

    #[test]
    fn min_is_order_insensitive() {
        assert_eq!(min_ns(&[5, 1, 9, 3, 7]), 1);
        assert_eq!(min_ns(&[2]), 2);
    }
}
