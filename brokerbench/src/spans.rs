//! In-memory spans for the traced run.
//!
//! A span is recorded around each call the benchmark makes into a
//! layer's public API: its name, start and end (ns since the run's
//! base instant), the span that caused it, and the id of the operation
//! it belongs to. Spans stay in a preallocated per-thread log and are
//! written out when the run ends.

use crate::stats::Histogram;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the causing span in the same log.
    pub parent: Option<u32>,
    /// Operation id shared by every span one operation produces.
    pub req: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// One thread's span log. Capacity is fixed up front; once full,
/// further spans still cost a store (into `spill`, so tracing costs
/// the same for the whole run) and are counted in `dropped`.
pub struct SpanLog {
    base: Instant,
    spans: Vec<Span>,
    spill: Span,
    dropped: u64,
}

impl SpanLog {
    pub fn new(base: Instant, capacity: usize) -> SpanLog {
        let spill = Span { name: "", start: 0, end: 0, parent: None, req: 0 };
        SpanLog { base, spans: Vec::with_capacity(capacity), spill, dropped: 0 }
    }

    pub fn base(&self) -> Instant {
        self.base
    }

    pub fn now(&self) -> u64 {
        self.at(Instant::now())
    }

    /// `t` as ns since the log's base.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.base).as_nanos() as u64
    }

    fn full(&self) -> bool {
        self.spans.len() == self.spans.capacity()
    }

    /// Opens a span at `start`; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, req: u64, parent: Option<u32>, start: u64) -> u32 {
        self.push(Span { name, start, end: start, parent, req })
    }

    pub fn close(&mut self, idx: u32, end: u64) {
        match self.spans.get_mut(idx as usize) {
            Some(s) => s.end = end,
            None => self.spill.end = end,
        }
    }

    /// Records a finished span and returns its index.
    pub fn push(&mut self, span: Span) -> u32 {
        if self.full() {
            self.spill = span;
            self.dropped += 1;
            return u32::MAX;
        }
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Appends another thread's log, re-basing its parent indices.
    pub fn absorb(&mut self, other: SpanLog) {
        let offset = self.spans.len() as u32;
        self.spans.reserve(other.spans.len());
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
        self.dropped += other.dropped;
    }
}

/// Self time of every span: its duration minus the part of its
/// interval covered by the union of its children's intervals
/// (overlapping children count once; parts outside the parent do not
/// count).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        let Some(p) = s.parent else { continue };
        let Some(parent) = spans.get(p as usize) else { continue };
        let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
        if a < b {
            children[p as usize].push((a, b));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = 0;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur() - covered
        })
        .collect()
}

/// Duration histogram per span name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, Histogram> {
    let mut out: BTreeMap<&'static str, Histogram> = BTreeMap::new();
    for s in spans {
        out.entry(s.name).or_default().record(s.dur());
    }
    out
}

/// p50 duration (ns) of the spans called `name`, 0 when there are none.
pub fn p50(by_name: &BTreeMap<&'static str, Histogram>, name: &str) -> f64 {
    by_name.get(name).and_then(|h| h.quantile(0.5)).unwrap_or(0) as f64
}

/// Writes one JSON object per span.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (s, own) in spans.iter().zip(selfs) {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own},\"parent\":{parent},\"req\":{}}}",
            s.name, s.start, s.end, s.req
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span { name, start, end, parent, req: 1 }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans =
            [span("op", 0, 100, None), span("a", 10, 30, Some(0)), span("b", 50, 60, Some(0))];
        assert_eq!(self_times(&spans), vec![70, 20, 10]);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = [
            span("op", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 40, 70, Some(0)),
            span("c", 20, 30, Some(0)),
        ];
        // Union of [10,50) [40,70) [20,30) is [10,70): 60 covered.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans =
            [span("op", 10, 100, None), span("a", 0, 20, Some(0)), span("b", 90, 150, Some(0))];
        assert_eq!(self_times(&spans)[0], 70);
        let nested =
            [span("op", 0, 100, None), span("a", 0, 100, Some(0)), span("a1", 10, 20, Some(1))];
        assert_eq!(self_times(&nested), vec![0, 90, 10], "grandchildren charge their parent only");
    }

    #[test]
    fn full_log_drops_and_absorb_rebases_parents() {
        let base = Instant::now();
        let mut a = SpanLog::new(base, 2);
        let root = a.open("op", 1, None, 0);
        a.push(span("x", 1, 2, Some(root)));
        assert!(a.full());
        assert_eq!(a.push(span("y", 3, 4, None)), u32::MAX);
        assert_eq!(a.dropped(), 1);
        let mut b = SpanLog::new(base, 2);
        let r = b.open("op", 2, None, 5);
        b.push(span("z", 6, 7, Some(r)));
        a.absorb(b);
        assert_eq!(a.spans()[3].parent, Some(2));
        assert_eq!(a.dropped(), 1);
    }
}
