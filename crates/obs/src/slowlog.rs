//! The slow-query log: a bounded in-memory ring of structured records for
//! statements that exceeded `SET slow_query_ms`, exposed at `GET /slowlog`.
//!
//! Records carry a *hash* of the SQL text rather than the text itself, so
//! the log can be shipped without leaking literals embedded in queries.

use std::collections::VecDeque;
use std::sync::Mutex;

/// Default ring capacity.
pub const DEFAULT_CAPACITY: usize = 128;

/// One slow statement.
#[derive(Debug, Clone)]
pub struct SlowQueryRecord {
    /// Wall-clock microseconds since the Unix epoch when the statement
    /// finished.
    pub unix_us: u64,
    /// Hex hash of the SQL text.
    pub sql_hash: String,
    /// Hex hash of the bound/optimized plan (empty when no plan was built,
    /// e.g. a failed parse).
    pub plan_fingerprint: String,
    /// Statement verb label (`select`, `insert`, …).
    pub verb: String,
    /// Outcome label (`ok`, `error`, `timeout`).
    pub outcome: String,
    /// End-to-end latency in microseconds.
    pub elapsed_us: u64,
    /// Session settings in effect, as `(name, value)` pairs.
    pub settings: Vec<(String, String)>,
    /// Top-level trace spans as `(name, dur_us)` — empty when tracing was
    /// off for the statement.
    pub spans: Vec<(String, u64)>,
}

impl SlowQueryRecord {
    /// Render as one JSON object (a single line, no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"unix_us\":{},\"sql_hash\":\"{}\",\"plan_fingerprint\":\"{}\",\
             \"verb\":\"{}\",\"outcome\":\"{}\",\"elapsed_us\":{}",
            self.unix_us,
            crate::json_escape(&self.sql_hash),
            crate::json_escape(&self.plan_fingerprint),
            crate::json_escape(&self.verb),
            crate::json_escape(&self.outcome),
            self.elapsed_us,
        );
        out.push_str(",\"settings\":{");
        for (i, (k, v)) in self.settings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":\"{}\"", crate::json_escape(k), crate::json_escape(v)));
        }
        out.push_str("},\"spans\":{");
        for (i, (name, dur)) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{dur}", crate::json_escape(name)));
        }
        out.push_str("}}");
        out
    }
}

/// Bounded ring of [`SlowQueryRecord`]s; the oldest record is evicted when
/// a push would exceed capacity.
#[derive(Debug)]
pub struct SlowLog {
    capacity: usize,
    inner: Mutex<VecDeque<SlowQueryRecord>>,
}

impl Default for SlowLog {
    fn default() -> SlowLog {
        SlowLog::new(DEFAULT_CAPACITY)
    }
}

impl SlowLog {
    /// A ring of `capacity` records (clamped to at least 1).
    pub fn new(capacity: usize) -> SlowLog {
        SlowLog { capacity: capacity.max(1), inner: Mutex::new(VecDeque::new()) }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Append a record, evicting the oldest at capacity.
    pub fn push(&self, record: SlowQueryRecord) {
        let mut ring = self.inner.lock().expect("slowlog poisoned");
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(record);
    }

    /// Number of resident records.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("slowlog poisoned").len()
    }

    /// True when no record has been logged (or all were evicted).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clone out the resident records, oldest first.
    pub fn entries(&self) -> Vec<SlowQueryRecord> {
        self.inner.lock().expect("slowlog poisoned").iter().cloned().collect()
    }

    /// Render the ring as a JSON object: `{"count":N,"entries":[…]}`.
    pub fn render_json(&self) -> String {
        let entries = self.entries();
        let mut out = format!("{{\"count\":{},\"entries\":[", entries.len());
        for (i, r) in entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&r.to_json());
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(n: u64) -> SlowQueryRecord {
        SlowQueryRecord {
            unix_us: n,
            sql_hash: format!("{n:016x}"),
            plan_fingerprint: String::new(),
            verb: "select".to_string(),
            outcome: "ok".to_string(),
            elapsed_us: n * 1000,
            settings: vec![("threads".to_string(), "4".to_string())],
            spans: vec![("execute".to_string(), n * 900)],
        }
    }

    #[test]
    fn ring_evicts_oldest_at_capacity() {
        let log = SlowLog::new(3);
        for n in 1..=5 {
            log.push(record(n));
        }
        assert_eq!(log.len(), 3);
        let kept: Vec<u64> = log.entries().iter().map(|r| r.unix_us).collect();
        assert_eq!(kept, vec![3, 4, 5]);
    }

    #[test]
    fn record_renders_as_json_line() {
        let json = record(7).to_json();
        assert!(json.starts_with("{\"unix_us\":7,"));
        assert!(json.contains("\"sql_hash\":\"0000000000000007\""));
        assert!(json.contains("\"elapsed_us\":7000"));
        assert!(json.contains("\"settings\":{\"threads\":\"4\"}"));
        assert!(json.contains("\"spans\":{\"execute\":6300}"));
        assert!(!json.contains('\n'));
    }

    #[test]
    fn render_json_wraps_entries() {
        let log = SlowLog::new(8);
        assert_eq!(log.render_json(), "{\"count\":0,\"entries\":[]}");
        log.push(record(1));
        log.push(record(2));
        let json = log.render_json();
        assert!(json.starts_with("{\"count\":2,\"entries\":[{"));
        assert!(log.capacity() == 8 && !log.is_empty());
    }
}
