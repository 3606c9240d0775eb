//! Per-query execution context and session settings.
//!
//! [`ExecContext`] bundles everything a single statement execution needs —
//! catalog, `?` parameter values, index registry, session settings, the
//! metrics registry and the statement's trace collector — and is threaded
//! through binder → executor instead of loose arguments. It is the
//! engine-side counterpart of a [`crate::Session`]. The binder reads only
//! the catalog and the parameters, and the optimizer reads nothing but the
//! plan, so a plan never depends on the session's [`SessionSettings`] or on
//! the index registry — which is what lets every session share one plan
//! cache. The executor asks the registry for indexes as it runs.

use crate::error::{bind_err, Error};
use crate::index::IndexRegistry;
use gsql_obs::{EngineMetrics, SpanId, TraceCollector, TraceLevel, TraceValue, NO_SPAN};
use gsql_storage::{Catalog, Value};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

type Result<T> = std::result::Result<T, Error>;

/// Session-scoped knobs that influence execution — never planning: a plan
/// depends only on the SQL text and the database's schema version.
///
/// Changed with `SET <option> = <value>`, inspected with `SHOW <option>` /
/// `SHOW ALL`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionSettings {
    /// Guard against runaway intermediate results: error as soon as any
    /// operator produces more than this many rows (`SET row_limit = n`;
    /// `0` disables). Default unlimited.
    pub row_limit: Option<u64>,
    /// Degree of parallelism for execution (`SET threads = n`, n ≥ 1).
    /// Source-parallel graph traversals, the morsel pipelines and the
    /// row-parallel breakers (sort, distinct) all use this width; `1` runs
    /// everything inline on the calling thread. The graph build is
    /// sequential at every width. Default: the number of available
    /// hardware threads.
    pub threads: usize,
    /// Per-statement wall-clock budget in milliseconds (`SET timeout_ms =
    /// n`; `0` disables). The deadline starts when statement execution
    /// begins and is checked before every operator and between per-source
    /// traversal groups, so a timed-out statement is interrupted mid-flight
    /// with [`crate::Error::Timeout`] instead of running to completion.
    /// Default unlimited.
    pub timeout_ms: Option<u64>,
    /// Rows per morsel for pipelined execution (`SET morsel_rows = n`,
    /// n ≥ 1). Morsel boundaries depend only on this value and the input
    /// size — never the worker count — so per-morsel partials merged in
    /// morsel-index order are bit-identical at every thread count. Default
    /// [`gsql_parallel::DEFAULT_MORSEL_ROWS`] (65536).
    pub morsel_rows: usize,
    /// Structured query tracing (`SET trace = off|on|verbose`). `on`
    /// records one span per statement phase (parse → bind → optimize →
    /// execute), per pipeline and per traversal batch; `verbose` adds one
    /// span per operator. Tracing never changes plan shape or results —
    /// only observation. Default off.
    pub trace: TraceLevel,
    /// Slow-query threshold in milliseconds (`SET slow_query_ms = n`; `0`
    /// disables). A statement whose wall time meets the threshold emits one
    /// structured record into the database's slow-query ring (`/slowlog`).
    /// Default off.
    pub slow_query_ms: Option<u64>,
}

impl Default for SessionSettings {
    fn default() -> SessionSettings {
        SessionSettings {
            row_limit: None,
            threads: gsql_parallel::default_threads(),
            timeout_ms: None,
            morsel_rows: gsql_parallel::DEFAULT_MORSEL_ROWS,
            trace: TraceLevel::Off,
            slow_query_ms: None,
        }
    }
}

impl SessionSettings {
    /// All option names, in `SHOW ALL` order — kept **sorted** so the
    /// listing is deterministic. A regression test destructures the struct
    /// exhaustively against this list: adding a setting without listing it
    /// here fails the build.
    pub const NAMES: [&'static str; 6] =
        ["morsel_rows", "row_limit", "slow_query_ms", "threads", "timeout_ms", "trace"];

    /// Set an option from its SQL textual value. Errors on unknown options
    /// or unparsable values.
    pub fn set(&mut self, name: &str, value: &str) -> Result<()> {
        let key = name.to_ascii_lowercase();
        match key.as_str() {
            "row_limit" => {
                let n = parse_u64(name, value)?;
                self.row_limit = if n == 0 { None } else { Some(n) };
            }
            "threads" => {
                let n = parse_u64(name, value)?;
                if n == 0 {
                    return Err(bind_err!(
                        "setting 'threads' expects a positive integer (got 0); \
                         use 1 for sequential execution"
                    ));
                }
                if n > gsql_parallel::MAX_THREADS as u64 {
                    return Err(bind_err!(
                        "setting 'threads' is capped at {} (got {n})",
                        gsql_parallel::MAX_THREADS
                    ));
                }
                self.threads = n as usize;
            }
            "timeout_ms" => {
                let n = parse_u64(name, value)?;
                self.timeout_ms = if n == 0 { None } else { Some(n) };
            }
            "trace" => {
                self.trace = TraceLevel::parse(value).ok_or_else(|| {
                    bind_err!("setting 'trace' expects off/on/verbose, got '{value}'")
                })?;
            }
            "slow_query_ms" => {
                let n = parse_u64(name, value)?;
                self.slow_query_ms = if n == 0 { None } else { Some(n) };
            }
            "morsel_rows" => {
                let n = parse_u64(name, value)?;
                if n == 0 {
                    return Err(bind_err!(
                        "setting 'morsel_rows' expects a positive integer (got 0)"
                    ));
                }
                self.morsel_rows = n as usize;
            }
            _ => return Err(bind_err!("unknown setting '{name}'")),
        }
        Ok(())
    }

    /// Read an option's current value as SQL text.
    pub fn get(&self, name: &str) -> Result<String> {
        let key = name.to_ascii_lowercase();
        match key.as_str() {
            "row_limit" => Ok(self.row_limit.unwrap_or(0).to_string()),
            "threads" => Ok(self.threads.to_string()),
            "timeout_ms" => Ok(self.timeout_ms.unwrap_or(0).to_string()),
            "trace" => Ok(self.trace.as_str().to_string()),
            "slow_query_ms" => Ok(self.slow_query_ms.unwrap_or(0).to_string()),
            "morsel_rows" => Ok(self.morsel_rows.to_string()),
            _ => Err(bind_err!("unknown setting '{name}'")),
        }
    }

    /// `(name, value)` pairs for every option (`SHOW ALL`).
    pub fn entries(&self) -> Vec<(&'static str, String)> {
        Self::NAMES.iter().map(|&n| (n, self.get(n).expect("known name"))).collect()
    }
}

fn parse_u64(name: &str, value: &str) -> Result<u64> {
    value
        .parse::<u64>()
        .map_err(|_| bind_err!("setting '{name}' expects a non-negative integer, got '{value}'"))
}

/// The wall-clock budget of one statement execution: the instant after
/// which the executor aborts with [`Error::Timeout`], plus the configured
/// limit for the error message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    /// The instant execution must not run past.
    pub at: Instant,
    /// The configured budget in milliseconds (for error reporting).
    pub limit_ms: u64,
}

impl Deadline {
    /// A deadline `limit_ms` milliseconds from now.
    pub fn starting_now(limit_ms: u64) -> Deadline {
        Deadline { at: Instant::now() + Duration::from_millis(limit_ms), limit_ms }
    }

    /// True once the deadline has passed.
    pub fn expired(&self) -> bool {
        Instant::now() >= self.at
    }
}

/// Everything one statement execution needs, bundled.
///
/// A [`crate::Session`] builds one `ExecContext` per statement; the
/// context is handed to [`crate::bind::Binder`] and
/// [`crate::exec::Executor`].
#[derive(Debug)]
pub struct ExecContext<'a> {
    catalog: &'a Catalog,
    params: &'a [Value],
    indexes: Option<&'a IndexRegistry>,
    settings: SessionSettings,
    deadline: Option<Deadline>,
    /// The engine-wide metrics registry, when attached by a session. All
    /// hot-path instruments are relaxed atomics, so recording never
    /// perturbs results or thread-equivalence.
    metrics: Option<Arc<EngineMetrics>>,
    /// The per-statement trace collector, when `SET trace` is on or the
    /// statement is `EXPLAIN ANALYZE`.
    trace: Option<Arc<TraceCollector>>,
    /// The span new child spans attach under ([`NO_SPAN`] = root). An
    /// atomic so the single-threaded plan walk can save/swap/restore it
    /// through a `&self` borrow.
    trace_parent: AtomicU32,
}

impl<'a> ExecContext<'a> {
    /// A context with default settings, no metrics and no tracing.
    pub fn new(
        catalog: &'a Catalog,
        params: &'a [Value],
        indexes: Option<&'a IndexRegistry>,
    ) -> ExecContext<'a> {
        ExecContext {
            catalog,
            params,
            indexes,
            settings: SessionSettings::default(),
            deadline: None,
            metrics: None,
            trace: None,
            trace_parent: AtomicU32::new(NO_SPAN),
        }
    }

    /// Replace the settings (builder style).
    pub fn with_settings(mut self, settings: SessionSettings) -> ExecContext<'a> {
        self.settings = settings;
        self
    }

    /// Attach a wall-clock deadline (builder style). `None` leaves the
    /// statement unbounded.
    pub fn with_deadline(mut self, deadline: Option<Deadline>) -> ExecContext<'a> {
        self.deadline = deadline;
        self
    }

    /// Attach the engine metrics registry (builder style).
    pub fn with_metrics(mut self, metrics: Option<Arc<EngineMetrics>>) -> ExecContext<'a> {
        self.metrics = metrics;
        self
    }

    /// Attach a per-statement trace collector rooted at `parent` (builder
    /// style).
    pub fn with_trace(
        mut self,
        trace: Option<Arc<TraceCollector>>,
        parent: SpanId,
    ) -> ExecContext<'a> {
        self.trace = trace;
        self.trace_parent = AtomicU32::new(parent);
        self
    }

    /// The catalog to bind and scan against.
    pub fn catalog(&self) -> &'a Catalog {
        self.catalog
    }

    /// Host parameter values for `?` placeholders.
    pub fn params(&self) -> &'a [Value] {
        self.params
    }

    /// The index registry: every index that exists serves the statements
    /// it covers.
    pub fn indexes(&self) -> Option<&'a IndexRegistry> {
        self.indexes
    }

    /// The session settings in effect.
    pub fn settings(&self) -> &SessionSettings {
        &self.settings
    }

    /// The statement deadline, when one is set.
    pub fn deadline(&self) -> Option<Deadline> {
        self.deadline
    }

    /// The raw deadline instant (what long-running runtimes poll).
    pub fn deadline_instant(&self) -> Option<Instant> {
        self.deadline.map(|d| d.at)
    }

    /// Abort with [`Error::Timeout`] once the statement deadline passed.
    /// The executor calls this before every operator; operator bodies with
    /// long internal loops (graph traversal batches) poll the instant
    /// themselves at finer grain.
    pub fn check_deadline(&self) -> Result<()> {
        match self.deadline {
            Some(d) if d.expired() => Err(self.timeout_error()),
            _ => Ok(()),
        }
    }

    /// The timeout error for this statement's configured budget.
    pub(crate) fn timeout_error(&self) -> Error {
        Error::Timeout { limit_ms: self.deadline.map(|d| d.limit_ms).unwrap_or(0) }
    }

    /// The degree of parallelism for this statement's execution.
    pub fn threads(&self) -> usize {
        self.settings.threads.max(1)
    }

    /// Rows per morsel for pipelined execution (at least 1).
    pub fn morsel_rows(&self) -> usize {
        self.settings.morsel_rows.max(1)
    }

    /// The engine metrics registry, when a session attached one.
    pub(crate) fn metrics(&self) -> Option<&Arc<EngineMetrics>> {
        self.metrics.as_ref()
    }

    /// The per-statement trace collector, when tracing is on.
    pub(crate) fn trace(&self) -> Option<&Arc<TraceCollector>> {
        self.trace.as_ref()
    }

    /// True when the statement's collector records one span per operator
    /// ([`TraceLevel::Verbose`]) — the only switch for per-operator
    /// recording.
    pub(crate) fn trace_verbose(&self) -> bool {
        self.trace.as_ref().is_some_and(|t| t.level() == TraceLevel::Verbose)
    }

    /// The span id new child spans attach under ([`NO_SPAN`] = root).
    pub(crate) fn trace_parent(&self) -> SpanId {
        self.trace_parent.load(Ordering::Relaxed)
    }

    /// Re-point the trace parent, returning the previous value so callers
    /// can restore it (the plan walk is single-threaded).
    pub(crate) fn swap_trace_parent(&self, parent: SpanId) -> SpanId {
        self.trace_parent.swap(parent, Ordering::Relaxed)
    }

    /// Open a child span under the current trace parent. Returns `None`
    /// (and does nothing) when tracing is off.
    pub(crate) fn trace_begin(&self, name: &str) -> Option<SpanId> {
        self.trace.as_ref().map(|t| t.begin(self.trace_parent(), name))
    }

    /// Close a span whose work produced a table — an operator's, or the
    /// statement's `execute` — recording the table's `rows` when it
    /// succeeded.
    pub(crate) fn end_op_span(&self, id: SpanId, rows: Option<usize>) {
        if let Some(t) = &self.trace {
            match rows {
                Some(n) => t.end_with(id, vec![("rows".to_string(), TraceValue::from(n))]),
                None => t.end(id),
            }
        }
    }

    /// Attach an attribute to the current trace parent (no-op when tracing
    /// is off).
    pub(crate) fn trace_attr(&self, key: &str, value: TraceValue) {
        if let Some(t) = &self.trace {
            t.attr(self.trace_parent(), key, value);
        }
    }

    /// Enforce the session row limit on one operator's output. The label is
    /// built lazily so the happy path never formats a plan node.
    pub(crate) fn check_row_limit(
        &self,
        rows: usize,
        operator: impl FnOnce() -> String,
    ) -> Result<()> {
        if let Some(limit) = self.settings.row_limit {
            if rows as u64 > limit {
                return Err(Error::Exec(format!(
                    "row limit exceeded: operator {} produced {rows} rows \
                     (SET row_limit = {limit}; 0 disables)",
                    operator()
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settings_set_get_roundtrip() {
        let mut s = SessionSettings::default();
        s.set("row_limit", "100").unwrap();
        assert_eq!(s.row_limit, Some(100));
        s.set("row_limit", "0").unwrap();
        assert_eq!(s.row_limit, None);
        assert_eq!(s.get("row_limit").unwrap(), "0");

        assert!(s.threads >= 1, "default threads must be positive");
        s.set("threads", "4").unwrap();
        assert_eq!(s.threads, 4);
        assert_eq!(s.get("threads").unwrap(), "4");
        s.set("THREADS", "1").unwrap();
        assert_eq!(s.threads, 1);
        let err = s.set("threads", "0").unwrap_err();
        assert!(err.to_string().contains("positive integer"), "{err}");
        let err = s.set("threads", "many").unwrap_err();
        assert!(err.to_string().contains("non-negative integer"), "{err}");
        let err = s.set("threads", "9999999").unwrap_err();
        assert!(err.to_string().contains("capped"), "{err}");
        assert_eq!(s.threads, 1, "failed sets leave the value unchanged");

        s.set("timeout_ms", "250").unwrap();
        assert_eq!(s.timeout_ms, Some(250));
        assert_eq!(s.get("timeout_ms").unwrap(), "250");
        s.set("TIMEOUT_MS", "0").unwrap();
        assert_eq!(s.timeout_ms, None);
        assert_eq!(s.get("timeout_ms").unwrap(), "0");

        assert!(s.morsel_rows >= 1, "default morsel_rows must be positive");
        s.set("morsel_rows", "7").unwrap();
        assert_eq!(s.morsel_rows, 7);
        assert_eq!(s.get("morsel_rows").unwrap(), "7");
        let err = s.set("morsel_rows", "0").unwrap_err();
        assert!(err.to_string().contains("positive integer"), "{err}");
        assert_eq!(s.morsel_rows, 7, "failed sets leave the value unchanged");

        assert_eq!(s.trace, TraceLevel::Off, "no environment variable changes the default");
        s.set("trace", "on").unwrap();
        assert_eq!(s.trace, TraceLevel::On);
        assert_eq!(s.get("trace").unwrap(), "on");
        s.set("TRACE", "verbose").unwrap();
        assert_eq!(s.trace, TraceLevel::Verbose);
        s.set("trace", "off").unwrap();
        assert_eq!(s.trace, TraceLevel::Off);
        let err = s.set("trace", "loud").unwrap_err();
        assert!(err.to_string().contains("off/on/verbose"), "{err}");

        s.set("slow_query_ms", "25").unwrap();
        assert_eq!(s.slow_query_ms, Some(25));
        assert_eq!(s.get("slow_query_ms").unwrap(), "25");
        s.set("SLOW_QUERY_MS", "0").unwrap();
        assert_eq!(s.slow_query_ms, None);
        assert_eq!(s.get("slow_query_ms").unwrap(), "0");

        assert!(s.set("nope", "1").is_err());
        assert!(s.get("nope").is_err());
        // Planning is not a session matter: the index and plan-cache knobs
        // are unknown names.
        for retired in ["graph_index", "path_index", "plan_cache_size"] {
            let err = s.set(retired, "0").unwrap_err();
            assert_eq!(err.to_string(), format!("bind error: unknown setting '{retired}'"));
            assert!(s.get(retired).is_err());
        }
        assert!(s.set("row_limit", "-3").is_err());
        assert_eq!(s.entries().len(), SessionSettings::NAMES.len());
    }

    /// Regression guard for `SHOW ALL`: every settings field must appear in
    /// [`SessionSettings::NAMES`], and the listing must be sorted.
    ///
    /// The destructuring below is **exhaustive on purpose** — adding a new
    /// setting field without updating it (and `FIELDS`, and `NAMES`) is a
    /// compile error, so a setting can never silently go missing from
    /// `SHOW ALL`.
    #[test]
    fn show_all_lists_every_setting_in_sorted_order() {
        let s = SessionSettings::default();
        let SessionSettings {
            row_limit: _,
            threads: _,
            timeout_ms: _,
            morsel_rows: _,
            trace: _,
            slow_query_ms: _,
        } = s;
        const FIELDS: usize = 6;
        assert_eq!(
            SessionSettings::NAMES.len(),
            FIELDS,
            "a settings field is missing from SessionSettings::NAMES / SHOW ALL"
        );
        let mut sorted = SessionSettings::NAMES;
        sorted.sort_unstable();
        assert_eq!(sorted, SessionSettings::NAMES, "NAMES must stay sorted for SHOW ALL");
        // Every listed name is both readable and settable back to itself.
        let mut s = SessionSettings::default();
        for name in SessionSettings::NAMES {
            let value = s.get(name).unwrap_or_else(|_| panic!("SHOW {name} must work"));
            s.set(name, &value).unwrap_or_else(|_| panic!("SET {name} = {value} must round-trip"));
        }
    }

    #[test]
    fn deadline_expiry_and_check() {
        let d = Deadline::starting_now(3_600_000);
        assert!(!d.expired());
        let past = Deadline { at: Instant::now() - Duration::from_millis(1), limit_ms: 5 };
        assert!(past.expired());

        let catalog = Catalog::new();
        let ctx = ExecContext::new(&catalog, &[], None).with_deadline(Some(past));
        let err = ctx.check_deadline().unwrap_err();
        assert!(matches!(err, Error::Timeout { limit_ms: 5 }), "{err}");
        assert!(err.to_string().contains("5ms"), "{err}");
        let ctx = ExecContext::new(&catalog, &[], None);
        ctx.check_deadline().unwrap();
    }

    #[test]
    fn row_limit_guard() {
        let catalog = Catalog::new();
        let ctx = ExecContext::new(&catalog, &[], None)
            .with_settings(SessionSettings { row_limit: Some(2), ..SessionSettings::default() });
        assert!(ctx.check_row_limit(2, || "Scan".to_string()).is_ok());
        let err = ctx.check_row_limit(3, || "Scan".to_string()).unwrap_err();
        assert!(err.to_string().contains("row limit exceeded"));
    }
}
