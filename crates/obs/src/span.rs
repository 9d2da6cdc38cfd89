//! RAII span timing with a bounded, thread-safe collector.
//!
//! A [`Span`] measures one stage of work: it captures a start time on
//! [`Span::enter`] (or [`Span::child`] for nesting) and records itself
//! into its [`TraceCollector`] when dropped. Spans carry structured
//! key–value [`SpanEvent`]s. The collector keeps a bounded ring of
//! finished [`SpanRecord`]s (oldest evicted first, with an eviction
//! counter) so always-on tracing cannot grow memory without bound, and
//! exports as JSONL — one JSON object per line, one line per span.

use crate::export::JsonWriter;
use crate::sync::lock;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Default bound on retained finished spans.
pub const DEFAULT_SPAN_CAPACITY: usize = 4096;

/// A structured key–value event emitted inside a span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Offset from the span's start, seconds.
    pub at_s: f64,
    /// Event key, e.g. `attack_score`.
    pub key: String,
    /// Event value, stringified.
    pub value: String,
}

/// A finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Unique id within the collector.
    pub id: u64,
    /// Parent span id, if nested.
    pub parent: Option<u64>,
    /// Stage name, e.g. `verify` or `distance`.
    pub name: String,
    /// Start offset from the collector's epoch, seconds.
    pub start_s: f64,
    /// Wall-clock duration, seconds.
    pub duration_s: f64,
    /// Structured events, in emission order.
    pub events: Vec<SpanEvent>,
}

impl SpanRecord {
    /// The record as one JSON object: the fields in declaration order,
    /// `parent` as `null` for a root span.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::default();
        w.begin_object().key("id").u64(self.id).key("parent");
        match self.parent {
            Some(p) => w.u64(p),
            None => w.null(),
        };
        w.key("name")
            .str(&self.name)
            .key("start_s")
            .f64(self.start_s)
            .key("duration_s")
            .f64(self.duration_s)
            .key("events")
            .begin_array();
        for e in &self.events {
            w.begin_object()
                .key("at_s")
                .f64(e.at_s)
                .key("key")
                .str(&e.key)
                .key("value")
                .str(&e.value)
                .end_object();
        }
        w.end_array().end_object();
        w.finish()
    }
}

#[derive(Debug)]
struct CollectorInner {
    epoch: Instant,
    next_id: AtomicU64,
    capacity: usize,
    finished: Mutex<Ring>,
}

#[derive(Debug, Default)]
struct Ring {
    records: VecDeque<SpanRecord>,
    evicted: u64,
}

/// A bounded, thread-safe sink of finished spans. Cloning is shallow:
/// clones feed the same ring.
#[derive(Debug, Clone)]
pub struct TraceCollector {
    inner: Arc<CollectorInner>,
}

impl Default for TraceCollector {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_SPAN_CAPACITY)
    }
}

impl TraceCollector {
    /// A collector retaining at most `capacity` finished spans (older
    /// spans are evicted first; see [`TraceCollector::evicted`]).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "span capacity must be positive");
        Self {
            inner: Arc::new(CollectorInner {
                epoch: Instant::now(),
                next_id: AtomicU64::new(1),
                capacity,
                finished: Mutex::new(Ring::default()),
            }),
        }
    }

    /// Opens a root span. Equivalent to [`Span::enter`].
    pub fn span(&self, name: &str) -> Span {
        Span::enter(self, name)
    }

    /// Number of retained finished spans.
    pub fn len(&self) -> usize {
        lock(&self.inner.finished).records.len()
    }

    /// Whether no finished spans are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many finished spans have been evicted by the capacity bound.
    pub fn evicted(&self) -> u64 {
        lock(&self.inner.finished).evicted
    }

    /// Copies of the retained finished spans, oldest first.
    pub fn records(&self) -> Vec<SpanRecord> {
        lock(&self.inner.finished).records.iter().cloned().collect()
    }

    /// Drops all retained spans (the eviction counter is kept).
    pub fn clear(&self) {
        lock(&self.inner.finished).records.clear();
    }

    /// Serializes the retained spans as JSONL (one span per line).
    pub fn export_jsonl(&self) -> String {
        let ring = lock(&self.inner.finished);
        let mut out = String::new();
        for r in &ring.records {
            out.push_str(&r.to_json());
            out.push('\n');
        }
        out
    }

    fn push(&self, record: SpanRecord) {
        let mut ring = lock(&self.inner.finished);
        if ring.records.len() >= self.inner.capacity {
            ring.records.pop_front();
            ring.evicted += 1;
        }
        ring.records.push_back(record);
    }
}

/// An in-flight span. Records itself into the collector on drop.
#[derive(Debug)]
pub struct Span {
    collector: TraceCollector,
    id: u64,
    parent: Option<u64>,
    name: String,
    started: Instant,
    events: Vec<SpanEvent>,
}

impl Span {
    /// Opens a root span named `name` on `collector`.
    pub fn enter(collector: &TraceCollector, name: &str) -> Span {
        Self::open(collector, None, name)
    }

    /// Opens a child span nested under `self`.
    pub fn child(&self, name: &str) -> Span {
        Self::open(&self.collector, Some(self.id), name)
    }

    fn open(collector: &TraceCollector, parent: Option<u64>, name: &str) -> Span {
        Span {
            collector: collector.clone(),
            id: collector.inner.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name: name.to_string(),
            started: Instant::now(),
            events: Vec::new(),
        }
    }

    /// This span's collector-unique id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Time since the span was opened.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Emits a structured key–value event, timestamped relative to the
    /// span start.
    pub fn event(&mut self, key: &str, value: impl std::fmt::Display) {
        self.events.push(SpanEvent {
            at_s: self.started.elapsed().as_secs_f64(),
            key: key.to_string(),
            value: value.to_string(),
        });
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let start_s = self
            .started
            .saturating_duration_since(self.collector.inner.epoch)
            .as_secs_f64();
        self.collector.push(SpanRecord {
            id: self.id,
            parent: self.parent,
            name: std::mem::take(&mut self.name),
            start_s,
            // Clamped to 1 ns: downstream invariants ("every recorded
            // stage took strictly positive time") must hold even on
            // coarse-clock platforms.
            duration_s: self.started.elapsed().as_secs_f64().max(1e-9),
            events: std::mem::take(&mut self.events),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_on_drop_with_nesting() {
        let c = TraceCollector::default();
        {
            let mut root = Span::enter(&c, "verify");
            root.event("k", "v");
            {
                let _child = root.child("distance");
            }
            assert_eq!(c.len(), 1, "only the child has finished so far");
        }
        let records = c.records();
        assert_eq!(records.len(), 2);
        let child = &records[0];
        let root = &records[1];
        assert_eq!(child.name, "distance");
        assert_eq!(root.name, "verify");
        assert_eq!(child.parent, Some(root.id));
        assert_eq!(root.parent, None);
        assert!(child.duration_s > 0.0);
        assert!(root.duration_s >= child.duration_s);
        assert_eq!(root.events.len(), 1);
        assert_eq!(root.events[0].key, "k");
    }

    #[test]
    fn capacity_bounds_retention() {
        let c = TraceCollector::with_capacity(3);
        for i in 0..5 {
            let _ = c.span(&format!("s{i}"));
        }
        assert_eq!(c.len(), 3);
        assert_eq!(c.evicted(), 2);
        let names: Vec<_> = c.records().into_iter().map(|r| r.name).collect();
        assert_eq!(names, vec!["s2", "s3", "s4"], "oldest evicted first");
    }

    #[test]
    fn jsonl_export_is_one_record_per_line() {
        let c = TraceCollector::default();
        {
            let mut s = c.span("stage");
            s.event("score", 1.25);
        }
        let jsonl = c.export_jsonl();
        let lines: Vec<_> = jsonl.lines().collect();
        assert_eq!(lines, vec![c.records()[0].to_json()]);
    }

    #[test]
    fn span_record_json_golden() {
        let root = SpanRecord {
            id: 1,
            parent: None,
            name: "verify".into(),
            start_s: 0.0,
            duration_s: 0.25,
            events: vec![],
        };
        assert_eq!(
            root.to_json(),
            r#"{"id":1,"parent":null,"name":"verify","start_s":0.0,"duration_s":0.25,"events":[]}"#
        );
        let child = SpanRecord {
            id: 7,
            parent: Some(1),
            name: "sld \"dual\"".into(),
            start_s: 1.0,
            duration_s: f64::NAN,
            events: vec![SpanEvent {
                at_s: 3.0,
                key: "path\\key".into(),
                value: "line\nbreak\u{2}".into(),
            }],
        };
        assert_eq!(
            child.to_json(),
            concat!(
                r#"{"id":7,"parent":1,"name":"sld \"dual\"","start_s":1.0,"duration_s":null,"#,
                r#""events":[{"at_s":3.0,"key":"path\\key","value":"line\nbreak\u0002"}]}"#,
            )
        );
    }

    #[test]
    fn clear_keeps_eviction_counter() {
        let c = TraceCollector::with_capacity(1);
        let _ = c.span("a");
        let _ = c.span("b");
        assert_eq!(c.evicted(), 1);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.evicted(), 1);
    }

    #[test]
    fn concurrent_spans_all_land() {
        let c = TraceCollector::with_capacity(10_000);
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for i in 0..100 {
                        let mut s = c.span(&format!("t{t}-{i}"));
                        s.event("i", i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.len(), 400);
        assert_eq!(c.evicted(), 0);
    }
}
