//! `EXPLAIN ANALYZE` text, rendered from the statement's verbose span tree —
//! the record `SET trace = verbose` returns — so the two cannot disagree.
//!
//! Below the `execute` span, every span other than `graph_build`,
//! `weights`, `traversal` and `pipeline` is an operator span: named by its
//! plan label, carrying its output `rows`, and nested under its parent
//! operator's span. Each becomes one line, indented by its depth among
//! operator spans. An operator's
//! `graph_build`, `weights` and `traversal` spans become the notes after its
//! timing, in the order they ran; `pipeline` spans become the `Pipeline N:`
//! lines, in the order they ran.

use gsql_obs::{SpanForest, SpanId, TraceValue};
use std::fmt::Write as _;
use std::time::Duration;

/// The `EXPLAIN ANALYZE` text of the statement whose execution is the span
/// `execute`: one line per operator, one per pipeline, and the result line.
pub(crate) fn explain_analyze(forest: &SpanForest<'_>, execute: SpanId) -> String {
    let mut out = String::new();
    let mut pipelines = Vec::new();
    operator_lines(forest, execute, 0, &mut out, &mut pipelines);
    for (i, &p) in pipelines.iter().enumerate() {
        let n = |key| int(forest, p, key);
        let avg_wait = n("queue_wait_us").checked_div(n("morsels")).unwrap_or(0);
        let _ = writeln!(
            out,
            "Pipeline {i}: {} (morsels={}, per-worker min={} max={} of {} worker(s), \
             queue-wait avg={} max={}, time={})",
            text(forest, p, "label"),
            n("morsels"),
            n("min_per_worker"),
            n("max_per_worker"),
            n("workers"),
            fmt_us(avg_wait),
            fmt_us(n("queue_wait_max_us")),
            fmt_us(forest.dur_us(p)),
        );
    }
    let total = Duration::from_micros(forest.dur_us(execute));
    let _ = write!(out, "Result: {} row(s) in {total:?}", int(forest, execute, "rows"));
    out
}

/// One line per operator span below `parent`, depth-first in start order
/// (= plan pre-order); `pipeline` spans are collected for the summary.
fn operator_lines(
    forest: &SpanForest<'_>,
    parent: SpanId,
    depth: usize,
    out: &mut String,
    pipelines: &mut Vec<SpanId>,
) {
    for &id in forest.children(parent) {
        match forest.name(id) {
            "pipeline" => pipelines.push(id),
            "graph_build" | "weights" | "traversal" => {}
            label => {
                let mut tail = String::new();
                notes(forest, id, &mut tail);
                let _ = writeln!(
                    out,
                    "{}{label} (rows={}, time={}{tail})",
                    "  ".repeat(depth),
                    int(forest, id, "rows"),
                    fmt_us(forest.dur_us(id)),
                );
                operator_lines(forest, id, depth + 1, out, pipelines);
            }
        }
    }
}

/// Append the notes of the spans below `parent` (not crossing an operator
/// span): `graph build: …`, `weights: …`, and per traversal the notes of
/// the weights it evaluated, the accelerated search's `settled=N (kind,
/// structure)`, the `index: name` that served the graph, then `traversal:
/// kind (reason)`.
fn notes(forest: &SpanForest<'_>, parent: SpanId, out: &mut String) {
    for &id in forest.children(parent) {
        let ms = forest.dur_us(id) as f64 / 1e3;
        let edges = int(forest, id, "edges");
        let note = match forest.name(id) {
            "graph_build" => format!(
                "graph build: V={}, E={edges}, dict={}, {}{ms:.2} ms",
                int(forest, id, "vertices"),
                text(forest, id, "dict"),
                match text(forest, id, "source") {
                    "extension" => format!("extended by {} row(s), ", int(forest, id, "appended")),
                    _ => String::new(),
                },
            ),
            "weights" if text(forest, id, "cached") == "true" => {
                format!("weights: E={edges}, cached")
            }
            "weights" => format!("weights: E={edges}, evaluated in {ms:.2} ms"),
            "traversal" => {
                notes(forest, id, out);
                let kind = text(forest, id, "kind");
                for key in ["landmarks", "shortcuts", "buckets"] {
                    if forest.attr(id, key).is_some() {
                        let (settled, size) = (int(forest, id, "settled"), int(forest, id, key));
                        let _ = write!(out, ", settled={settled} ({kind}, {key}={size})");
                    }
                }
                if forest.attr(id, "index").is_some() {
                    let _ = write!(out, ", index: {}", text(forest, id, "index"));
                }
                format!("traversal: {kind} ({})", text(forest, id, "reason"))
            }
            _ => continue,
        };
        let _ = write!(out, ", {note}");
    }
}

/// A count attribute (0 when absent).
fn int(forest: &SpanForest<'_>, id: SpanId, key: &str) -> u64 {
    match forest.attr(id, key) {
        Some(TraceValue::Int(v)) => *v as u64,
        _ => 0,
    }
}

/// A string attribute (empty when absent).
fn text<'a>(forest: &SpanForest<'a>, id: SpanId, key: &str) -> &'a str {
    match forest.attr(id, key) {
        Some(TraceValue::Str(v)) => v,
        _ => "",
    }
}

/// Compact human duration (micros below 10ms, millis beyond).
fn fmt_us(us: u64) -> String {
    if us < 10_000 {
        format!("{us}us")
    } else {
        format!("{:.2}ms", us as f64 / 1000.0)
    }
}
