//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed around the benchmark's own calls into each
//! library layer (never per search node), kept in memory, and written out as
//! one JSON file when the run ends. A span's *self time* is its duration
//! minus the time its direct children cover.

use crate::report::json_string;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The operation (mine, refresh, set-up repetition) the span belongs to.
    pub op: u64,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Total and self time of every span with one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotals {
    pub count: u64,
    pub total: Duration,
    pub self_time: Duration,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str, op: u64) -> usize {
        let start = self.origin.elapsed();
        self.push(name, op, start, start);
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Close the span `id` (which must be the innermost open span).
    pub fn close(&mut self, id: usize) {
        let innermost = self.open.pop();
        assert_eq!(innermost, Some(id), "spans must close innermost-first");
        self.spans[id].end = self.origin.elapsed();
    }

    /// Record a child span of the innermost open span from a duration the
    /// library measured and returned itself (a refresh's evidence and
    /// enumeration time) or that a timing wrapper accumulated (score calls).
    /// It is placed at `started`; only its length carries information.
    pub fn record(&mut self, name: &'static str, op: u64, started: Instant, length: Duration) {
        let start = started.saturating_duration_since(self.origin);
        self.push(name, op, start, start + length);
    }

    fn push(&mut self, name: &'static str, op: u64, start: Duration, end: Duration) {
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            op,
            parent,
            start,
            end,
        });
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time of every span, indexed like the spans.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut covered = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.duration();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(span, children)| span.duration().saturating_sub(children))
            .collect()
    }

    /// Totals per span name, over the operations `ops` selects.
    pub fn totals(&self, ops: impl Fn(u64) -> bool) -> BTreeMap<&'static str, NameTotals> {
        let mut totals: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (span, self_time) in self.spans.iter().zip(self.self_times()) {
            if !ops(span.op) {
                continue;
            }
            let entry = totals.entry(span.name).or_default();
            entry.count += 1;
            entry.total += span.duration();
            entry.self_time += self_time;
        }
        totals
    }

    /// Every span as a JSON document, with `header` (already-rendered JSON
    /// members) in front.
    pub fn to_json(&self, header: &str) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{{header},\"spans\":[");
        for (i, (span, self_time)) in self.spans.iter().zip(self.self_times()).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":{},\"op\":{},\"parent\":{parent},\"start_us\":{},\"end_us\":{},\"self_us\":{}}}",
                json_string(span.name),
                span.op,
                span.start.as_micros(),
                span.end.as_micros(),
                self_time.as_micros()
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new();
        let root = t.open("root", 0);
        let child = t.open("child", 0);
        let at = Instant::now();
        t.record("leaf", 0, at, Duration::from_millis(2));
        std::thread::sleep(Duration::from_millis(5));
        t.close(child);
        t.close(root);
        let selfs = t.self_times();
        let span = |i: usize| t.spans[i].duration();
        assert_eq!(selfs[root], span(root) - span(child));
        assert_eq!(selfs[child], span(child) - Duration::from_millis(2));
        assert_eq!(selfs[2], Duration::from_millis(2));
        let totals = t.totals(|_| true);
        assert_eq!(totals["leaf"].count, 1);
    }
}
