//! The benchmark's own spans: `{name, start_ns, end_ns, parent, op_id}`.
//!
//! Spans are recorded here, in the benchmark, around each operation and
//! around a replay of the same inputs through each layer's public calls —
//! the engine gets no new instrumentation (spans inside it are a later
//! change). They stay in memory and are written out once, at exit.
//!
//! A layer's **self time** is its spans' duration minus the part their
//! direct children cover; a layer's share is its self time over the summed
//! duration of the `op` spans of the same operations.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Root span of one real operation (the statement the client waited for).
pub const OP: &str = "op";
/// Root span of the layer-by-layer replay of one operation's inputs.
pub const REPLAY: &str = "replay";

pub type SpanId = u32;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Shared by the `op` span and every replay span of one operation.
    pub op_id: u32,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// All tracers of one run share `epoch`, so per-thread tracers merge
    /// onto one time axis.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer { epoch, spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, op_id: u32) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op_id });
        (self.spans.len() - 1) as SpanId
    }

    pub fn end(&mut self, id: SpanId) -> Duration {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        Duration::from_nanos(end_ns - span.start_ns)
    }

    /// Run `f` inside a span; returns its result and the span's duration.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op_id: u32,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let id = self.begin(name, parent, op_id);
        let out = f();
        (out, self.end(id))
    }

    /// Record a child at the start of `parent` lasting `dur` (clamped to the
    /// parent). Used where a public call is known to contain another layer's
    /// work but exposes no boundary: `Session::plan` parses internally, so
    /// its `parser` child is placed from a standalone parse of the same text
    /// measured just before it.
    pub fn child_at_start(&mut self, name: &'static str, parent: SpanId, dur: Duration) {
        let p = &self.spans[parent as usize];
        let (start_ns, op_id) = (p.start_ns, p.op_id);
        let end_ns = (start_ns + dur.as_nanos() as u64).min(p.end_ns);
        self.spans.push(Span { name, start_ns, end_ns, parent: Some(parent), op_id });
    }

    /// Append another thread's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Summed duration of every span called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.end_ns - s.start_ns).sum()
    }

    /// Self time per span name: duration minus direct children's duration.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(covered) {
            *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(c);
        }
        out
    }

    /// Write every span as one JSON array, one span per line.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op_id\":{}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.op_id
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span { name, start_ns, end_ns, parent, op_id: 0 }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new(Instant::now());
        t.spans = vec![
            span(REPLAY, 0, 100, None),
            span("core.plan", 10, 60, Some(0)),
            span("parser", 10, 25, Some(1)),
            span("graph", 60, 90, Some(0)),
        ];
        let own = t.self_ns();
        assert_eq!(own["core.plan"], 35);
        assert_eq!(own["parser"], 15);
        assert_eq!(own["graph"], 30);
        assert_eq!(own[REPLAY], 20);
        assert_eq!(t.total_ns("core.plan"), 50);
    }

    #[test]
    fn synthetic_child_is_clamped_and_absorb_rebases() {
        let mut a = Tracer::new(Instant::now());
        a.spans = vec![span("core.plan", 100, 110, None)];
        a.child_at_start("parser", 0, Duration::from_nanos(50));
        assert_eq!((a.spans[1].start_ns, a.spans[1].end_ns), (100, 110));
        let mut b = Tracer::new(a.epoch);
        b.spans = vec![span(OP, 0, 5, None)];
        b.absorb(a);
        assert_eq!(b.spans[2].parent, Some(1));
        assert_eq!(b.len(), 3);
    }
}
