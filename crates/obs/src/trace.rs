//! Per-query hierarchical tracing.
//!
//! A [`TraceCollector`] is created per statement when `SET trace =
//! on|verbose` (and, verbose, for every `EXPLAIN ANALYZE`); engine layers
//! open spans around parse/bind/optimize/execute, each pipeline, and each
//! traversal batch. Spans form a tree via parent ids and are read through
//! one accessor, [`TraceCollector::read`]: rendered as nested JSON
//! (returned through the session API and inline in HTTP responses), as the
//! slow-log summary, and as `EXPLAIN ANALYZE` text.
//!
//! Tracing never alters execution: collectors only append to a
//! mutex-guarded buffer, and the buffer is bounded ([`MAX_SPANS`]) so a
//! pathological plan cannot grow it without limit.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Hard cap on spans per query. Past it, `begin` hands out [`NO_SPAN`] and
/// the span (plus its children) is silently dropped.
pub const MAX_SPANS: usize = 4096;

/// Sentinel id for "no span" (trace off, or the buffer is full).
pub const NO_SPAN: u32 = u32::MAX;

/// Span identifier within one collector.
pub type SpanId = u32;

/// Trace verbosity, settable via `SET trace`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum TraceLevel {
    /// No collection (the default).
    #[default]
    Off,
    /// Phase, pipeline, and traversal spans.
    On,
    /// Everything in `On` plus one span per plan operator.
    Verbose,
}

impl TraceLevel {
    /// Parse a setting value (`off`/`on`/`verbose`, plus the usual boolean
    /// spellings accepted elsewhere in the engine).
    pub fn parse(s: &str) -> Option<TraceLevel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "false" | "0" => Some(TraceLevel::Off),
            "on" | "true" | "1" => Some(TraceLevel::On),
            "verbose" => Some(TraceLevel::Verbose),
            _ => None,
        }
    }

    /// Canonical setting value.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceLevel::Off => "off",
            TraceLevel::On => "on",
            TraceLevel::Verbose => "verbose",
        }
    }

    /// True for `On` and `Verbose`.
    pub fn enabled(self) -> bool {
        self != TraceLevel::Off
    }
}

/// A span attribute value.
#[derive(Debug, Clone)]
pub enum TraceValue {
    /// Rendered as a bare JSON number.
    Int(i64),
    /// Rendered as a JSON string.
    Str(String),
}

impl From<i64> for TraceValue {
    fn from(v: i64) -> TraceValue {
        TraceValue::Int(v)
    }
}

impl From<usize> for TraceValue {
    fn from(v: usize) -> TraceValue {
        TraceValue::Int(v as i64)
    }
}

impl From<&str> for TraceValue {
    fn from(v: &str) -> TraceValue {
        TraceValue::Str(v.to_string())
    }
}

impl From<String> for TraceValue {
    fn from(v: String) -> TraceValue {
        TraceValue::Str(v)
    }
}

#[derive(Debug)]
struct Span {
    parent: u32,
    name: String,
    start_us: u64,
    /// `None` while the span is open.
    dur_us: Option<u64>,
    attrs: Vec<(String, TraceValue)>,
}

/// Collects the span tree for one traced statement.
#[derive(Debug)]
pub struct TraceCollector {
    level: TraceLevel,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    dropped: AtomicU32,
}

impl TraceCollector {
    /// A collector at the given level, with "time zero" = now.
    pub fn new(level: TraceLevel) -> TraceCollector {
        TraceCollector {
            level,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            dropped: AtomicU32::new(0),
        }
    }

    /// The collection level.
    pub fn level(&self) -> TraceLevel {
        self.level
    }

    /// Open a span under `parent` ([`NO_SPAN`] for a root). Returns the new
    /// span's id, or [`NO_SPAN`] when the buffer is full.
    pub fn begin(&self, parent: SpanId, name: &str) -> SpanId {
        let start_us = self.origin.elapsed().as_micros() as u64;
        let mut spans = self.spans.lock().expect("trace poisoned");
        if spans.len() >= MAX_SPANS {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return NO_SPAN;
        }
        let id = spans.len() as u32;
        spans.push(Span {
            parent,
            name: name.to_string(),
            start_us,
            dur_us: None,
            attrs: Vec::new(),
        });
        id
    }

    /// Close a span, recording its duration. No-op for [`NO_SPAN`].
    pub fn end(&self, id: SpanId) {
        self.end_with(id, Vec::new());
    }

    /// Close a span with attributes.
    pub fn end_with(&self, id: SpanId, attrs: Vec<(String, TraceValue)>) {
        if id == NO_SPAN {
            return;
        }
        let now_us = self.origin.elapsed().as_micros() as u64;
        let mut spans = self.spans.lock().expect("trace poisoned");
        if let Some(span) = spans.get_mut(id as usize) {
            span.dur_us = Some(now_us.saturating_sub(span.start_us));
            span.attrs.extend(attrs);
        }
    }

    /// Attach one attribute to an open (or closed) span.
    pub fn attr(&self, id: SpanId, key: &str, value: TraceValue) {
        if id == NO_SPAN {
            return;
        }
        let mut spans = self.spans.lock().expect("trace poisoned");
        if let Some(span) = spans.get_mut(id as usize) {
            span.attrs.push((key.to_string(), value));
        }
    }

    /// Number of spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.spans.lock().expect("trace poisoned").len()
    }

    /// Read the recorded spans as a forest (under the buffer lock). Every
    /// rendering of a trace — the JSON document, the slow-log summary,
    /// `EXPLAIN ANALYZE` — goes through here.
    pub fn read<R>(&self, f: impl FnOnce(&SpanForest<'_>) -> R) -> R {
        let spans = self.spans.lock().expect("trace poisoned");
        let mut children: Vec<Vec<SpanId>> = vec![Vec::new(); spans.len()];
        let mut roots: Vec<SpanId> = Vec::new();
        for (i, span) in spans.iter().enumerate() {
            if span.parent == NO_SPAN || span.parent as usize >= spans.len() {
                roots.push(i as SpanId);
            } else {
                children[span.parent as usize].push(i as SpanId);
            }
        }
        f(&SpanForest { spans: &spans, children, roots })
    }

    /// `(name, dur_us)` of every root span, in start order — the summary
    /// embedded in slow-query-log records.
    pub fn root_summary(&self) -> Vec<(String, u64)> {
        self.read(|forest| {
            let summary = |&id: &SpanId| (forest.name(id).to_string(), forest.dur_us(id));
            forest.roots().iter().map(summary).collect()
        })
    }

    /// Render the span forest as a JSON array of nested span objects:
    /// `[{"name":…,"start_us":…,"dur_us":…,"attrs":{…},"children":[…]}]`.
    /// A span still open renders `"dur_us":null`.
    pub fn to_json(&self) -> String {
        self.read(|forest| {
            let mut out = String::from("[");
            for (i, &root) in forest.roots().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_span(forest, root, &mut out);
            }
            out.push(']');
            out
        })
    }
}

/// A read-only view of one collector's spans: ids are start order, and
/// every child list is in start order too.
pub struct SpanForest<'a> {
    spans: &'a [Span],
    children: Vec<Vec<SpanId>>,
    roots: Vec<SpanId>,
}

impl<'a> SpanForest<'a> {
    /// Spans without a (recorded) parent.
    pub fn roots(&self) -> &[SpanId] {
        &self.roots
    }

    /// The children of `id`.
    pub fn children(&self, id: SpanId) -> &[SpanId] {
        &self.children[id as usize]
    }

    /// The span's name.
    pub fn name(&self, id: SpanId) -> &'a str {
        &self.spans[id as usize].name
    }

    /// The span's duration in microseconds (0 while it is open).
    pub fn dur_us(&self, id: SpanId) -> u64 {
        self.spans[id as usize].dur_us.unwrap_or(0)
    }

    /// The span's attribute `key`, if recorded.
    pub fn attr(&self, id: SpanId, key: &str) -> Option<&'a TraceValue> {
        self.spans[id as usize].attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

fn render_span(forest: &SpanForest<'_>, id: SpanId, out: &mut String) {
    let span = &forest.spans[id as usize];
    let dur = span.dur_us.map_or_else(|| "null".to_string(), |d| d.to_string());
    out.push_str(&format!(
        "{{\"name\":\"{}\",\"start_us\":{},\"dur_us\":{dur}",
        crate::json_escape(&span.name),
        span.start_us,
    ));
    if !span.attrs.is_empty() {
        out.push_str(",\"attrs\":{");
        for (j, (key, value)) in span.attrs.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":", crate::json_escape(key)));
            match value {
                TraceValue::Int(v) => out.push_str(&v.to_string()),
                TraceValue::Str(v) => out.push_str(&format!("\"{}\"", crate::json_escape(v))),
            }
        }
        out.push('}');
    }
    let children = forest.children(id);
    if !children.is_empty() {
        out.push_str(",\"children\":[");
        for (j, &c) in children.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            render_span(forest, c, out);
        }
        out.push(']');
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parses_and_round_trips() {
        assert_eq!(TraceLevel::parse("on"), Some(TraceLevel::On));
        assert_eq!(TraceLevel::parse("OFF"), Some(TraceLevel::Off));
        assert_eq!(TraceLevel::parse("verbose"), Some(TraceLevel::Verbose));
        assert_eq!(TraceLevel::parse("1"), Some(TraceLevel::On));
        assert_eq!(TraceLevel::parse("nope"), None);
        for l in [TraceLevel::Off, TraceLevel::On, TraceLevel::Verbose] {
            assert_eq!(TraceLevel::parse(l.as_str()), Some(l));
        }
        assert!(!TraceLevel::Off.enabled());
        assert!(TraceLevel::Verbose.enabled());
    }

    #[test]
    fn spans_nest_and_render_as_tree() {
        let t = TraceCollector::new(TraceLevel::On);
        let root = t.begin(NO_SPAN, "execute");
        let child = t.begin(root, "pipeline");
        t.end_with(child, vec![("morsels".to_string(), TraceValue::Int(4))]);
        let sibling = t.begin(root, "traversal");
        t.attr(sibling, "kind", TraceValue::from("ch"));
        t.end(sibling);
        t.end(root);
        let json = t.to_json();
        assert!(json.starts_with("[{\"name\":\"execute\""));
        assert!(json.contains("\"children\":[{\"name\":\"pipeline\""));
        assert!(json.contains("\"attrs\":{\"morsels\":4}"));
        assert!(json.contains("{\"name\":\"traversal\""));
        assert!(json.contains("\"attrs\":{\"kind\":\"ch\"}"));
        assert_eq!(t.root_summary().len(), 1);
        assert_eq!(t.root_summary()[0].0, "execute");
        t.read(|forest| {
            assert_eq!(forest.roots(), &[root]);
            assert_eq!(forest.children(root), &[child, sibling]);
            assert_eq!(forest.name(sibling), "traversal");
            assert!(matches!(forest.attr(child, "morsels"), Some(TraceValue::Int(4))));
            assert!(forest.attr(child, "kind").is_none());
        });
    }

    #[test]
    fn open_spans_render_a_null_duration() {
        let t = TraceCollector::new(TraceLevel::On);
        let root = t.begin(NO_SPAN, "statement");
        assert!(t.to_json().contains("\"dur_us\":null"), "{}", t.to_json());
        t.end(root);
        assert!(!t.to_json().contains("null"), "{}", t.to_json());
    }

    #[test]
    fn buffer_is_bounded() {
        let t = TraceCollector::new(TraceLevel::On);
        for _ in 0..MAX_SPANS + 10 {
            let id = t.begin(NO_SPAN, "s");
            t.end(id);
        }
        assert_eq!(t.span_count(), MAX_SPANS);
        // NO_SPAN operations are silent no-ops.
        t.end(NO_SPAN);
        t.attr(NO_SPAN, "k", TraceValue::Int(1));
    }

    #[test]
    fn empty_collector_renders_empty_array() {
        assert_eq!(TraceCollector::new(TraceLevel::On).to_json(), "[]");
    }
}
