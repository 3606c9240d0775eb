//! # gsql-obs
//!
//! The engine's observability layer, dependency-free like the rest of the
//! workspace. Three pieces, one crate:
//!
//! * [`metrics`] — a process-wide instrument [`Registry`] of sharded atomic
//!   [`Counter`]s, [`Gauge`]s, and fixed-bucket [`Histogram`]s, rendered in
//!   Prometheus text exposition format. The hot path of every instrument is
//!   one relaxed `fetch_add` on a cache-line-padded shard selected by
//!   [`gsql_parallel::thread_slot`]; merging happens on read, never on
//!   write. [`EngineMetrics`] is the typed catalog of engine-wide
//!   instruments (queries by verb/outcome, plan cache, pipelines, per-kind
//!   traversals with settled-vertex histograms).
//! * [`trace`] — per-query hierarchical spans ([`TraceCollector`]) recorded
//!   when `SET trace = on|verbose` and for `EXPLAIN ANALYZE`, read as a
//!   [`SpanForest`] and rendered as a nested JSON tree.
//! * [`slowlog`] — a bounded in-memory ring ([`SlowLog`]) of structured
//!   JSON records for queries that exceeded `SET slow_query_ms`.
//!
//! Determinism contract: nothing in this crate influences query results.
//! Instruments are relaxed atomics plus monotonic clock reads; tracing
//! appends to a mutex-guarded buffer owned by a single query. Engine code
//! must never branch on an instrument's value.

pub mod metrics;
pub mod slowlog;
pub mod trace;

pub use metrics::{
    latency_buckets_us, settled_buckets, Counter, EngineMetrics, Gauge, Histogram,
    HistogramSnapshot, QueryOutcome, QueryVerb, Registry, ACCEL_KINDS,
};
pub use slowlog::{SlowLog, SlowQueryRecord};
pub use trace::{SpanForest, SpanId, TraceCollector, TraceLevel, TraceValue, MAX_SPANS, NO_SPAN};

/// Escape `s` for inclusion inside a double-quoted JSON string.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
