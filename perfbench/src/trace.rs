//! Spans around the benchmark's calls into each layer's public API.
//!
//! A span records its name, start, end, parent span and the op it
//! belongs to. Spans stay in memory and are written out when the run
//! ends. With tracing off, [`Tracer::span`] returns an inert guard that
//! reads no clock, so the untraced run pays nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Span id (unique within the run, never 0).
    pub id: u64,
    /// Enclosing span, 0 for a root.
    pub parent: u64,
    /// Op this span works for (all spans of one request share it).
    pub op: u64,
    /// `layer.call`, e.g. `web.post_query`.
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
}

impl SpanRecord {
    fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The in-memory span store.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

/// Identifies an open span to its children.
#[derive(Copy, Clone, Debug, Default)]
pub struct Ctx {
    op: u64,
    span: u64,
}

/// Records its span when dropped.
pub struct SpanGuard<'t> {
    tracer: Option<&'t Tracer>,
    record: Option<SpanRecord>,
}

impl SpanGuard<'_> {
    /// Context for spans this one encloses.
    pub fn ctx(&self) -> Ctx {
        self.record.as_ref().map_or_else(Ctx::default, |r| Ctx {
            op: r.op,
            span: r.id,
        })
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let (Some(tracer), Some(mut record)) = (self.tracer, self.record.take()) {
            record.end_ns = tracer.now();
            tracer
                .spans
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .push(record);
        }
    }
}

impl Tracer {
    /// A tracer; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a root span for a new op.
    pub fn op(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard {
                tracer: None,
                record: None,
            };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.open(name, Ctx { op: id, span: 0 }, id)
    }

    /// Open a child span of `parent`.
    pub fn span(&self, name: &'static str, parent: Ctx) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard {
                tracer: None,
                record: None,
            };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.open(name, parent, id)
    }

    fn open(&self, name: &'static str, parent: Ctx, id: u64) -> SpanGuard<'_> {
        let record = SpanRecord {
            id,
            parent: parent.span,
            op: parent.op,
            name,
            start_ns: self.now(),
            end_ns: 0,
        };
        SpanGuard {
            tracer: Some(self),
            record: Some(record),
        }
    }

    /// Every finished span, sorted by start.
    pub fn finished(&self) -> Vec<SpanRecord> {
        let mut spans = self.spans.lock().unwrap_or_else(|p| p.into_inner()).clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.finished() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per-name totals: calls, inclusive time and self time (inclusive minus
/// the part of the interval its children cover).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans of this name.
    pub calls: u64,
    /// Sum of durations, nanoseconds.
    pub total_ns: u64,
    /// Sum of self times, nanoseconds.
    pub self_ns: u64,
}

/// Aggregate spans by name.
pub fn totals(spans: &[SpanRecord]) -> BTreeMap<&'static str, SpanTotals> {
    let mut children: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push(s);
        }
    }
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for s in spans {
        let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += s.duration();
        t.self_ns += s.duration().saturating_sub(covered_ns(s, kids));
    }
    out
}

/// Nanoseconds of `parent`'s interval covered by the union of `kids`.
fn covered_ns(parent: &SpanRecord, kids: &[&SpanRecord]) -> u64 {
    let mut iv: Vec<(u64, u64)> = kids
        .iter()
        .map(|k| (k.start_ns.max(parent.start_ns), k.end_ns.min(parent.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut cursor = 0;
    for (a, b) in iv {
        let a = a.max(cursor);
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            op: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, "op.session", 0, 100),
            span(2, 1, "web.post_query", 10, 60),
            // Overlaps its sibling by 10 ns: counted once.
            span(3, 1, "web.get_keyframe", 50, 70),
        ];
        let t = totals(&spans);
        assert_eq!(
            t["op.session"],
            SpanTotals {
                calls: 1,
                total_ns: 100,
                self_ns: 40
            }
        );
        assert_eq!(t["web.post_query"].self_ns, 50);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        {
            let op = tracer.op("op.x");
            let _child = tracer.span("core.y", op.ctx());
        }
        assert!(tracer.finished().is_empty());
        let tracer = Tracer::new(true);
        {
            let op = tracer.op("op.x");
            let _child = tracer.span("core.y", op.ctx());
        }
        let spans = tracer.finished();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[1].op, spans[0].op);
    }
}
