//! The in-memory span recorder behind `--trace`.
//!
//! Spans are recorded from outside the repo's crates, around each public
//! call the traced run makes: name, start, end, the span that caused it
//! and the session it belongs to. They stay in memory until the run ends
//! and are then written as one JSON object per line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Session id of a span that belongs to no session (a pass, a probe).
pub const NO_SESSION: u64 = u64::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub session: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span, returned by [`Recorder::enter`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// Per-name totals over a recording.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Rollup {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Records spans when enabled; a disabled recorder only runs the calls,
/// so traced and untraced runs share one driving loop.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span whose parent is the innermost open span.
    pub fn enter(&mut self, name: &'static str, session: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            session,
        });
        let id = self.spans.len() - 1;
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes the innermost open span, which must be `open`.
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// A span around one call.
    pub fn leaf<T>(&mut self, name: &'static str, session: u64, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name, session);
        let out = f();
        self.exit(open);
        out
    }

    /// Self time of every span: its duration minus the part of that
    /// interval its child spans cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, kids)| span.duration_ns() - covered_ns(kids, span.start_ns, span.end_ns))
            .collect()
    }

    /// Count, total and self time per span name.
    pub fn rollup(&self) -> BTreeMap<&'static str, Rollup> {
        let mut out: BTreeMap<&'static str, Rollup> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            let entry = out.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += span.duration_ns();
            entry.self_ns += self_ns;
        }
        out
    }

    /// Total seconds of the spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.total_where_s(name, |_| true)
    }

    /// Total seconds of the spans called `name` whose session passes `keep`.
    pub fn total_where_s(&self, name: &str, keep: impl Fn(u64) -> bool) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && keep(s.session))
            .map(|s| s.duration_ns() as f64 / 1e9)
            .sum()
    }

    /// How many spans are called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Share of `start_ns..end_ns` that root spans cover.
    pub fn root_share(&self, start_ns: u64, end_ns: u64) -> f64 {
        let roots = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        covered_ns(roots, start_ns, end_ns) as f64 / (end_ns - start_ns).max(1) as f64
    }

    /// Nanoseconds since the recorder was made.
    pub fn clock_ns(&self) -> u64 {
        self.now_ns()
    }

    /// One JSON object per span, one per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let session = if span.session == NO_SESSION {
                "null".to_string()
            } else {
                span.session.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"session\": {session}}}",
                span.name, span.start_ns, span.end_ns
            );
        }
        out
    }
}

/// Length of the union of `intervals`, clipped to `lo..hi`.
fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for (start, end) in intervals {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recording(spans: Vec<Span>) -> Recorder {
        Recorder {
            enabled: true,
            origin: Instant::now(),
            spans,
            stack: Vec::new(),
        }
    }

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            session: NO_SESSION,
        }
    }

    #[test]
    fn self_time_is_duration_minus_what_children_cover() {
        let rec = recording(vec![
            span("pass", 0, 100, None),
            span("train", 10, 40, Some(0)),
            span("eval", 40, 60, Some(0)),
            span("kernel", 15, 25, Some(1)),
            // Overlapping and overhanging children count once, clipped.
            span("train", 55, 70, Some(0)),
            span("late", 90, 120, Some(0)),
        ]);
        // pass: 100 - (10..70 = 60) - (90..100 = 10) = 30.
        assert_eq!(rec.self_times_ns(), vec![30, 20, 20, 10, 15, 30]);
        let rollup = rec.rollup();
        assert_eq!(
            rollup["train"],
            Rollup {
                count: 2,
                total_ns: 45,
                self_ns: 35
            }
        );
        assert_eq!(rec.root_share(0, 100), 1.0);
        assert_eq!(rec.root_share(0, 200), 0.5);
    }

    #[test]
    fn recorder_nests_spans_and_disabled_recorder_keeps_none() {
        let mut rec = Recorder::new(true);
        let pass = rec.enter("pass", NO_SESSION);
        let got = rec.leaf("train", 7, || 42);
        rec.exit(pass);
        assert_eq!(got, 42);
        assert_eq!(rec.spans.len(), 2);
        assert_eq!(rec.spans[1].parent, Some(0));
        assert_eq!(rec.spans[1].session, 7);
        assert!(rec.spans[0].end_ns >= rec.spans[1].end_ns);

        let mut off = Recorder::new(false);
        let pass = off.enter("pass", NO_SESSION);
        assert_eq!(off.leaf("train", 7, || 42), 42);
        off.exit(pass);
        assert!(off.spans.is_empty());
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let rec = recording(vec![
            span("pass", 0, 100, None),
            Span {
                session: 3,
                ..span("train", 10, 40, Some(0))
            },
        ]);
        assert_eq!(
            rec.to_jsonl(),
            "{\"id\": 0, \"name\": \"pass\", \"start_ns\": 0, \"end_ns\": 100, \
             \"parent\": null, \"session\": null}\n\
             {\"id\": 1, \"name\": \"train\", \"start_ns\": 10, \"end_ns\": 40, \
             \"parent\": 0, \"session\": 3}\n"
        );
    }
}
