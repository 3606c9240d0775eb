//! Sessions: the unit of connection state on top of a shared [`Database`].
//!
//! The paper's workload is *repeated* parameterized shortest-path queries
//! over a mostly-static graph. A [`Session`] makes that workload cheap:
//!
//! * a **plan cache** (LRU, keyed by SQL text) holds fully bound and
//!   optimized plans, so a [`PreparedStatement`] executed many times
//!   parses, binds and optimizes exactly once;
//! * cached plans carry the database's **schema version** (catalog DDL +
//!   graph-index registry); any `CREATE`/`DROP` of tables or graph indexes
//!   invalidates them lazily;
//! * **session settings** (`SET` / `SHOW`) control planning and execution:
//!   `graph_index` toggles index usage (visible in `EXPLAIN`), `row_limit`
//!   guards against runaway intermediate results, `plan_cache_size` sizes
//!   the cache, `threads` sets the degree of parallelism for traversals
//!   and row-parallel operators (`1` = exact sequential execution);
//! * `EXPLAIN ANALYZE` executes a query with per-operator statistics
//!   collection and renders the plan annotated with row counts and wall
//!   time.
//!
//! Sessions are cheap; open one per connection/thread. The shared
//! [`Database`] itself is thread-safe.
//!
//! ```
//! use gsql_core::Database;
//! use gsql_storage::Value;
//!
//! let db = Database::new();
//! let session = db.session();
//! session.execute("CREATE TABLE friends (src INTEGER, dst INTEGER)").unwrap();
//! session.execute("INSERT INTO friends VALUES (1, 2), (2, 3)").unwrap();
//! let stmt = session
//!     .prepare("SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER friends EDGE (src, dst)")
//!     .unwrap();
//! for dst in [2i64, 3] {
//!     let t = stmt.query(&session, &[Value::Int(1), Value::Int(dst)]).unwrap();
//!     assert_eq!(t.row_count(), 1);
//! }
//! // One bind (the prepare), two cache hits.
//! assert_eq!(session.cache_stats().misses, 1);
//! assert_eq!(session.cache_stats().hits, 2);
//! ```

use crate::bind::binder::Binder;
use crate::context::{Deadline, ExecContext, SessionSettings};
use crate::database::{Database, QueryResult};
use crate::error::{bind_err, Error};
use crate::exec::executor::Executor;
use crate::index::{IndexSpace, PathIndexKind};
use crate::optimize::optimize_with;
use crate::plan::LogicalPlan;
use gsql_obs::{
    EngineMetrics, QueryOutcome, QueryVerb, SlowQueryRecord, SpanId, TraceCollector, TraceValue,
    NO_SPAN,
};
use gsql_parser::{ast, parse_sql, parse_statement};
use gsql_storage::{ColumnDef, DataType, Schema, Table, Value};
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

type Result<T> = std::result::Result<T, Error>;

/// Counters of a session's plan cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Executions served from a cached plan (no parse/bind/optimize).
    pub hits: u64,
    /// Plans built from scratch (and cached, capacity permitting).
    pub misses: u64,
    /// Cached plans discarded because the schema version moved on.
    pub invalidations: u64,
    /// Plans currently cached.
    pub entries: usize,
}

/// One cached, fully optimized plan.
#[derive(Debug)]
struct CacheEntry {
    plan: Arc<LogicalPlan>,
    /// [`Database::schema_version`] at bind time.
    schema_version: u64,
    /// LRU tick of the last use.
    last_used: u64,
}

/// A small LRU of bound+optimized plans, keyed by SQL text.
#[derive(Debug, Default)]
struct PlanCache {
    map: HashMap<String, CacheEntry>,
    tick: u64,
    hits: u64,
    misses: u64,
    invalidations: u64,
    /// Counter values already pushed to the engine metrics registry (see
    /// [`PlanCache::drain_unsynced`]).
    synced: (u64, u64, u64),
}

impl PlanCache {
    /// A fresh (version-matching) cached plan for `sql`, if any. A stale
    /// entry is discarded and counted as an invalidation.
    fn get(&mut self, sql: &str, schema_version: u64) -> Option<Arc<LogicalPlan>> {
        match self.map.get_mut(sql) {
            Some(entry) if entry.schema_version == schema_version => {
                self.tick += 1;
                entry.last_used = self.tick;
                self.hits += 1;
                Some(Arc::clone(&entry.plan))
            }
            Some(_) => {
                self.map.remove(sql);
                self.invalidations += 1;
                None
            }
            None => None,
        }
    }

    /// Record a freshly built plan (a miss), evicting the least recently
    /// used entry when over capacity. `capacity == 0` disables storage but
    /// still counts the miss.
    fn insert(
        &mut self,
        sql: String,
        plan: Arc<LogicalPlan>,
        schema_version: u64,
        capacity: usize,
    ) {
        self.misses += 1;
        if capacity == 0 {
            return;
        }
        while self.map.len() >= capacity && !self.map.contains_key(&sql) {
            let Some(victim) =
                self.map.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| k.clone())
            else {
                break;
            };
            self.map.remove(&victim);
        }
        self.tick += 1;
        self.map.insert(sql, CacheEntry { plan, schema_version, last_used: self.tick });
    }

    fn clear(&mut self) {
        self.map.clear();
    }

    /// Evict least-recently-used entries until at most `capacity` remain
    /// (used when `plan_cache_size` is lowered mid-session).
    fn shrink_to(&mut self, capacity: usize) {
        while self.map.len() > capacity {
            let Some(victim) =
                self.map.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| k.clone())
            else {
                break;
            };
            self.map.remove(&victim);
        }
    }

    fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits,
            misses: self.misses,
            invalidations: self.invalidations,
            entries: self.map.len(),
        }
    }

    /// Counter movement since the last drain, plus the current entry
    /// count. Sessions push these deltas into the engine metrics registry
    /// after each plan lookup; draining under the cache's own lock (shared
    /// caches) makes the sync exact even with concurrent sessions.
    fn drain_unsynced(&mut self) -> (u64, u64, u64, usize) {
        let (h, m, i) = self.synced;
        let delta = (
            self.hits.saturating_sub(h),
            self.misses.saturating_sub(m),
            self.invalidations.saturating_sub(i),
            self.map.len(),
        );
        self.synced = (self.hits, self.misses, self.invalidations);
        delta
    }
}

/// A thread-safe plan cache shared by any number of sessions over one
/// [`Database`] — the serving tier's cache: N server worker sessions bind
/// and optimize a given query text once, and every later request (from any
/// session) executes the cached plan.
///
/// Unlike the session-local cache, entries are keyed by the SQL text
/// **plus the plan-shaping settings** (`graph_index`, `path_index`), so
/// sessions running with different planning flags never share a plan that
/// was optimized under the other configuration. Invalidation is the same
/// schema-version check as the local cache.
///
/// Obtain the database-wide instance with [`Database::shared_plan_cache`];
/// open sessions that use it with [`Database::shared_session`].
#[derive(Debug, Default)]
pub struct SharedPlanCache {
    inner: Mutex<PlanCache>,
}

impl SharedPlanCache {
    /// An empty shared cache.
    pub fn new() -> SharedPlanCache {
        SharedPlanCache::default()
    }

    /// Global counters across every session using this cache.
    pub fn stats(&self) -> PlanCacheStats {
        self.lock().stats()
    }

    /// Drop every cached plan.
    pub fn clear(&self) {
        self.lock().clear();
    }

    /// Compose the cache key: plan-shaping flags + SQL text.
    fn key(sql: &str, settings: &SessionSettings) -> String {
        format!("g{}p{}|{sql}", settings.graph_index as u8, settings.path_index as u8)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PlanCache> {
        self.inner.lock().expect("shared plan cache poisoned")
    }

    fn get(&self, sql: &str, settings: &SessionSettings, version: u64) -> Option<Arc<LogicalPlan>> {
        self.lock().get(&Self::key(sql, settings), version)
    }

    fn insert(
        &self,
        sql: &str,
        settings: &SessionSettings,
        plan: Arc<LogicalPlan>,
        version: u64,
        capacity: usize,
    ) {
        self.lock().insert(Self::key(sql, settings), plan, version, capacity);
    }
}

/// The plan cache a session consults: its own, or the database-wide shared
/// one (server worker sessions).
#[derive(Debug)]
enum CacheSlot {
    Local(RefCell<PlanCache>),
    Shared(Arc<SharedPlanCache>),
}

impl CacheSlot {
    fn get(&self, sql: &str, settings: &SessionSettings, version: u64) -> Option<Arc<LogicalPlan>> {
        match self {
            CacheSlot::Local(c) => c.borrow_mut().get(sql, version),
            CacheSlot::Shared(c) => c.get(sql, settings, version),
        }
    }

    fn insert(
        &self,
        sql: &str,
        settings: &SessionSettings,
        plan: Arc<LogicalPlan>,
        version: u64,
        capacity: usize,
    ) {
        match self {
            CacheSlot::Local(c) => c.borrow_mut().insert(sql.to_string(), plan, version, capacity),
            CacheSlot::Shared(c) => c.insert(sql, settings, plan, version, capacity),
        }
    }

    /// Count a plan that was built but not keyed (no SQL text).
    fn count_miss(&self) {
        match self {
            CacheSlot::Local(c) => c.borrow_mut().misses += 1,
            CacheSlot::Shared(c) => c.lock().misses += 1,
        }
    }

    /// A plan-shaping setting changed. The local cache is keyed by SQL text
    /// alone, so its plans are stale — drop them. Shared-cache keys carry
    /// the plan-shaping flags, so other sessions' entries stay valid and
    /// nothing needs clearing.
    fn planning_setting_changed(&self) {
        if let CacheSlot::Local(c) = self {
            c.borrow_mut().clear();
        }
    }

    fn shrink_to(&self, capacity: usize) {
        match self {
            CacheSlot::Local(c) => c.borrow_mut().shrink_to(capacity),
            CacheSlot::Shared(c) => c.lock().shrink_to(capacity),
        }
    }

    fn stats(&self) -> PlanCacheStats {
        match self {
            CacheSlot::Local(c) => c.borrow().stats(),
            CacheSlot::Shared(c) => c.stats(),
        }
    }

    /// Push counter movement since the last sync into the engine metrics.
    /// The entries gauge tracks the shared (database-wide) cache only —
    /// per-session local caches are additive on the counters but have no
    /// single meaningful entry count.
    fn sync_metrics(&self, metrics: &EngineMetrics) {
        let (hits, misses, invalidations, entries) = match self {
            CacheSlot::Local(c) => c.borrow_mut().drain_unsynced(),
            CacheSlot::Shared(c) => c.lock().drain_unsynced(),
        };
        metrics.plan_cache_hits.add(hits);
        metrics.plan_cache_misses.add(misses);
        metrics.plan_cache_invalidations.add(invalidations);
        if matches!(self, CacheSlot::Shared(_)) {
            metrics.plan_cache_entries.set(entries as i64);
        }
    }
}

/// A parsed statement bound to no particular session, executable many times
/// with different `?` parameter values.
///
/// Produced by [`Session::prepare`] (which also pre-plans queries into the
/// session's cache) or [`Database::prepare`] (parse only). Executing a
/// prepared *query* through a session consults that session's plan cache:
/// repeated executions skip the whole frontend.
#[derive(Debug, Clone)]
pub struct PreparedStatement {
    sql: String,
    statement: Arc<ast::Statement>,
}

impl PreparedStatement {
    pub(crate) fn parse(sql: &str) -> Result<PreparedStatement> {
        Ok(PreparedStatement { sql: sql.to_string(), statement: Arc::new(parse_statement(sql)?) })
    }

    /// The original SQL text (the plan-cache key).
    pub fn sql(&self) -> &str {
        &self.sql
    }

    /// Execute in `session` with parameter values for each `?`, in textual
    /// order.
    pub fn execute(&self, session: &Session<'_>, params: &[Value]) -> Result<QueryResult> {
        session.run_statement(Some(&self.sql), &self.statement, params)
    }

    /// Execute and unwrap the result set.
    pub fn query(&self, session: &Session<'_>, params: &[Value]) -> Result<Arc<Table>> {
        self.execute(session, params)?.into_table()
    }
}

/// A session over a shared [`Database`]: settings, plan cache, statement
/// execution. See the [module docs](self) for the full picture.
/// How many finished trace JSON documents a session retains.
const TRACE_RING: usize = 16;

#[derive(Debug)]
pub struct Session<'db> {
    db: &'db Database,
    settings: RefCell<SessionSettings>,
    cache: CacheSlot,
    /// Finished trace documents (JSON), newest last, bounded at
    /// [`TRACE_RING`]. Populated only while `SET trace` is on.
    traces: RefCell<VecDeque<String>>,
    /// Parse wall time of the statement about to run (set by the entry
    /// points that parse), surfaced as the `parse_us` trace attribute.
    pending_parse_us: Cell<Option<u64>>,
    /// Plan fingerprint of the statement in flight, captured for the
    /// slow-query log (only computed while `slow_query_ms` is armed).
    pending_fingerprint: Cell<Option<u64>>,
}

impl<'db> Session<'db> {
    /// Open a session with its own plan cache. Equivalent to
    /// [`Database::session`].
    pub fn new(db: &'db Database) -> Session<'db> {
        Session {
            db,
            settings: RefCell::new(SessionSettings::default()),
            cache: CacheSlot::Local(RefCell::new(PlanCache::default())),
            traces: RefCell::new(VecDeque::new()),
            pending_parse_us: Cell::new(None),
            pending_fingerprint: Cell::new(None),
        }
    }

    /// Open a session that consults `cache` instead of a private one, so
    /// plans bound by any participating session serve all of them.
    /// Equivalent to [`Database::shared_session`] for the database-wide
    /// cache.
    pub fn with_shared_cache(db: &'db Database, cache: Arc<SharedPlanCache>) -> Session<'db> {
        Session {
            db,
            settings: RefCell::new(SessionSettings::default()),
            cache: CacheSlot::Shared(cache),
            traces: RefCell::new(VecDeque::new()),
            pending_parse_us: Cell::new(None),
            pending_fingerprint: Cell::new(None),
        }
    }

    /// The underlying shared database.
    pub fn database(&self) -> &'db Database {
        self.db
    }

    /// A snapshot of the current session settings.
    pub fn settings(&self) -> SessionSettings {
        self.settings.borrow().clone()
    }

    /// Change a setting programmatically (same as `SET name = value`).
    pub fn set(&self, name: &str, value: &str) -> Result<()> {
        self.settings.borrow_mut().set(name, value)?;
        // Only graph_index and path_index influence plan *shape*; dropping
        // the cache for execution-time knobs (e.g. row_limit) would throw
        // away good plans. Lowering plan_cache_size evicts down right away
        // so the memory the caller asked to reclaim is actually released.
        if name.eq_ignore_ascii_case("graph_index") || name.eq_ignore_ascii_case("path_index") {
            self.cache.planning_setting_changed();
        } else if name.eq_ignore_ascii_case("plan_cache_size") {
            let capacity = self.settings.borrow().plan_cache_size;
            self.cache.shrink_to(capacity);
        }
        Ok(())
    }

    /// Read a setting's current value (same as `SHOW name`).
    pub fn setting(&self, name: &str) -> Result<String> {
        self.settings.borrow().get(name)
    }

    /// Plan-cache counters — of this session's private cache, or the
    /// global counters when the session uses a shared cache.
    pub fn cache_stats(&self) -> PlanCacheStats {
        self.cache.stats()
    }

    /// The trace JSON of the most recently traced statement, when `SET
    /// trace = on|verbose` was in effect for it. The session retains the
    /// last [`TRACE_RING`] documents.
    pub fn last_trace_json(&self) -> Option<String> {
        self.traces.borrow().back().cloned()
    }

    /// Every retained trace document, oldest first.
    pub fn trace_history(&self) -> Vec<String> {
        self.traces.borrow().iter().cloned().collect()
    }

    /// Execute a single statement without parameters.
    pub fn execute(&self, sql: &str) -> Result<QueryResult> {
        self.execute_with_params(sql, &[])
    }

    /// Execute a single statement with `?` parameter values. The SQL text
    /// doubles as the plan-cache key, so repeating the same query text
    /// skips parse/bind/optimize.
    pub fn execute_with_params(&self, sql: &str, params: &[Value]) -> Result<QueryResult> {
        let t0 = Instant::now();
        let statement = parse_statement(sql)?;
        self.pending_parse_us.set(Some(t0.elapsed().as_micros() as u64));
        self.run_statement(Some(sql), &statement, params)
    }

    /// Execute a single statement under an explicit wall-clock budget,
    /// overriding the `timeout_ms` setting when the explicit budget is
    /// tighter. The deadline is enforced inside execution — checked before
    /// every operator and between traversal groups — so a long statement
    /// is interrupted with [`Error::Timeout`] rather than merely reported
    /// late after it finishes.
    pub fn execute_with_timeout(
        &self,
        sql: &str,
        params: &[Value],
        timeout: Duration,
    ) -> Result<QueryResult> {
        let t0 = Instant::now();
        let statement = parse_statement(sql)?;
        self.pending_parse_us.set(Some(t0.elapsed().as_micros() as u64));
        let limit_ms = u64::try_from(timeout.as_millis()).unwrap_or(u64::MAX);
        let explicit = Deadline::starting_now(limit_ms);
        let deadline = match self.settings.borrow().timeout_ms.map(Deadline::starting_now) {
            Some(configured) if configured.at < explicit.at => configured,
            _ => explicit,
        };
        self.run_statement_at(Some(sql), &statement, params, Some(deadline))
    }

    /// Execute a semicolon-separated script, returning one result per
    /// statement. Stops at the first error.
    pub fn execute_script(&self, sql: &str) -> Result<Vec<QueryResult>> {
        let statements = parse_sql(sql)?;
        let mut results = Vec::with_capacity(statements.len());
        for s in &statements {
            // Key queries by their canonical rendering so re-running a
            // script (e.g. from an interactive shell) hits the plan cache.
            let key = matches!(s, ast::Statement::Query(_)).then(|| s.to_string());
            results.push(self.run_statement(key.as_deref(), s, &[])?);
        }
        Ok(results)
    }

    /// Run a query and return its result set.
    pub fn query(&self, sql: &str) -> Result<Arc<Table>> {
        self.execute(sql)?.into_table()
    }

    /// Run a query with parameters and return its result set.
    pub fn query_with_params(&self, sql: &str, params: &[Value]) -> Result<Arc<Table>> {
        self.execute_with_params(sql, params)?.into_table()
    }

    /// Prepare a statement: parse it, and — for queries — bind, optimize
    /// and cache the plan now, so later executions only execute.
    pub fn prepare(&self, sql: &str) -> Result<PreparedStatement> {
        let prepared = PreparedStatement::parse(sql)?;
        if let ast::Statement::Query(q) = prepared.statement.as_ref() {
            self.cached_plan(Some(sql), q, &[], None)?;
        }
        Ok(prepared)
    }

    /// Parse, bind and optimize a query under the session's settings,
    /// returning its logical plan (what `EXPLAIN` renders).
    pub fn plan(&self, sql: &str) -> Result<LogicalPlan> {
        match parse_statement(sql)? {
            ast::Statement::Query(q)
            | ast::Statement::Explain(q)
            | ast::Statement::ExplainAnalyze(q) => {
                let ctx = self.ctx(&[], None);
                let plan = Binder::new(&ctx).bind_query(&q)?;
                Ok(optimize_with(plan, &ctx))
            }
            _ => Err(bind_err!("plan() expects a query")),
        }
    }

    /// Build the per-statement execution context.
    fn ctx<'a>(&self, params: &'a [Value], deadline: Option<Deadline>) -> ExecContext<'a>
    where
        'db: 'a,
    {
        ExecContext::new(self.db.catalog(), params, Some(self.db.indexes()))
            .with_settings(self.settings.borrow().clone())
            .with_deadline(deadline)
            .with_metrics(Some(Arc::clone(self.db.metrics())))
    }

    /// The bound+optimized plan for a query — from the session cache when
    /// `sql_key` is given and the entry is fresh, otherwise built (and
    /// cached) now. `trace` is the collector plus the statement span to
    /// attach bind/optimize spans under, when tracing.
    fn cached_plan(
        &self,
        sql_key: Option<&str>,
        q: &ast::Query,
        params: &[Value],
        trace: Option<(&TraceCollector, SpanId)>,
    ) -> Result<Arc<LogicalPlan>> {
        let settings = self.settings.borrow().clone();
        let capacity = settings.plan_cache_size;
        let schema_version = self.db.schema_version();
        if let (Some(sql), true) = (sql_key, capacity > 0) {
            if let Some(plan) = self.cache.get(sql, &settings, schema_version) {
                self.cache.sync_metrics(self.db.metrics());
                if let Some((t, root)) = trace {
                    t.attr(root, "plan_cache", TraceValue::from("hit"));
                }
                return Ok(plan);
            }
        }
        let ctx = self.ctx(params, None);
        let span = trace.map(|(t, root)| (t, t.begin(root, "bind")));
        let plan = Binder::new(&ctx).bind_query(q)?;
        if let Some((t, id)) = span {
            t.end(id);
        }
        let span = trace.map(|(t, root)| (t, t.begin(root, "optimize")));
        let plan = Arc::new(optimize_with(plan, &ctx));
        if let Some((t, id)) = span {
            t.end(id);
        }
        match sql_key {
            Some(sql) => {
                self.cache.insert(sql, &settings, Arc::clone(&plan), schema_version, capacity)
            }
            None => self.cache.count_miss(),
        }
        self.cache.sync_metrics(self.db.metrics());
        Ok(plan)
    }

    /// Execute one statement, deriving the deadline (if any) from the
    /// session's `timeout_ms` setting.
    pub(crate) fn run_statement(
        &self,
        sql_key: Option<&str>,
        statement: &ast::Statement,
        params: &[Value],
    ) -> Result<QueryResult> {
        let deadline = self.settings.borrow().timeout_ms.map(Deadline::starting_now);
        self.run_statement_at(sql_key, statement, params, deadline)
    }

    /// Execute one statement under an already-started deadline: the
    /// observability wrapper around the dispatcher. Times the statement,
    /// opens the statement trace span when tracing is on, records the
    /// verb/outcome/latency metrics, and arms the slow-query log.
    fn run_statement_at(
        &self,
        sql_key: Option<&str>,
        statement: &ast::Statement,
        params: &[Value],
        deadline: Option<Deadline>,
    ) -> Result<QueryResult> {
        let t0 = Instant::now();
        let parse_us = self.pending_parse_us.take();
        self.pending_fingerprint.set(None);
        let verb = statement_verb(statement);
        let level = self.settings.borrow().trace;
        let collector = level.enabled().then(|| Arc::new(TraceCollector::new(level)));
        let root = match &collector {
            Some(t) => {
                let id = t.begin(NO_SPAN, "statement");
                t.attr(id, "verb", TraceValue::from(verb.as_str()));
                if let Some(us) = parse_us {
                    t.attr(id, "parse_us", TraceValue::Int(us as i64));
                }
                id
            }
            None => NO_SPAN,
        };
        let result =
            self.dispatch_statement(sql_key, statement, params, deadline, collector.as_ref(), root);
        let elapsed = t0.elapsed();
        let outcome = match &result {
            Ok(_) => QueryOutcome::Ok,
            Err(Error::Timeout { .. }) => QueryOutcome::Timeout,
            Err(_) => QueryOutcome::Error,
        };
        self.db.metrics().record_query(verb, outcome, elapsed.as_micros() as u64);
        if let Some(t) = &collector {
            t.end_with(root, vec![("outcome".to_string(), TraceValue::from(outcome.as_str()))]);
            let mut ring = self.traces.borrow_mut();
            if ring.len() >= TRACE_RING {
                ring.pop_front();
            }
            ring.push_back(t.to_json());
        }
        let armed = self.settings.borrow().slow_query_ms;
        if let Some(threshold_ms) = armed {
            if elapsed >= Duration::from_millis(threshold_ms) {
                self.db.slow_log().push(SlowQueryRecord {
                    unix_us: std::time::SystemTime::now()
                        .duration_since(std::time::UNIX_EPOCH)
                        .map(|d| d.as_micros() as u64)
                        .unwrap_or(0),
                    sql_hash: hex_hash(sql_key.unwrap_or("")),
                    plan_fingerprint: self
                        .pending_fingerprint
                        .take()
                        .map(|h| format!("{h:016x}"))
                        .unwrap_or_default(),
                    verb: verb.as_str().to_string(),
                    outcome: outcome.as_str().to_string(),
                    elapsed_us: elapsed.as_micros() as u64,
                    settings: self
                        .settings
                        .borrow()
                        .entries()
                        .into_iter()
                        .map(|(n, v)| (n.to_string(), v))
                        .collect(),
                    spans: collector.as_ref().map(|t| t.root_summary()).unwrap_or_default(),
                });
            }
        }
        result
    }

    /// Dispatch one statement, bracketing mutating statements on a durable
    /// database in the shared commit lock: apply, then append the WAL
    /// record — so a statement is logged only after it succeeded, and a
    /// concurrent `CHECKPOINT` (which takes the lock exclusively) can never
    /// split a mutation across the snapshot/WAL rotation boundary.
    fn dispatch_statement(
        &self,
        sql_key: Option<&str>,
        statement: &ast::Statement,
        params: &[Value],
        deadline: Option<Deadline>,
        collector: Option<&Arc<TraceCollector>>,
        root: SpanId,
    ) -> Result<QueryResult> {
        if statement_is_mutating(statement) {
            if let Some(guard) = self.db.commit_guard() {
                // Reject parameters the WAL cannot encode *before* the
                // statement applies, so the log never diverges from state.
                if !crate::persist::params_are_loggable(params) {
                    return Err(bind_err!(
                        "path-valued parameters cannot be passed to a mutating statement \
                         on a durable database"
                    ));
                }
                let result =
                    self.dispatch_inner(sql_key, statement, params, deadline, collector, root)?;
                self.db.log_statement(&statement.to_string(), params)?;
                drop(guard);
                return Ok(result);
            }
        }
        self.dispatch_inner(sql_key, statement, params, deadline, collector, root)
    }

    /// The statement dispatcher proper. `collector`/`root` carry the trace
    /// context when `SET trace` is on (`root` is the statement span).
    fn dispatch_inner(
        &self,
        sql_key: Option<&str>,
        statement: &ast::Statement,
        params: &[Value],
        deadline: Option<Deadline>,
        collector: Option<&Arc<TraceCollector>>,
        root: SpanId,
    ) -> Result<QueryResult> {
        let trace = collector.map(|t| (t.as_ref(), root));
        match statement {
            ast::Statement::Query(q) => {
                let plan = self.cached_plan(sql_key, q, params, trace)?;
                if self.settings.borrow().slow_query_ms.is_some() {
                    self.pending_fingerprint.set(Some(plan_fingerprint(&plan)));
                }
                let exec_span = collector.map(|t| (t, t.begin(root, "execute")));
                let mut ctx = self.ctx(params, deadline);
                if let Some((t, id)) = &exec_span {
                    ctx = ctx.with_trace(Some(Arc::clone(t)), *id);
                }
                let table = Executor::new(&ctx).execute(&plan);
                if let Some((t, id)) = exec_span {
                    t.end(id);
                }
                Ok(QueryResult::Table(table?))
            }
            ast::Statement::Explain(q) => {
                let ctx = self.ctx(params, deadline);
                let plan = Binder::new(&ctx).bind_query(q)?;
                let plan = optimize_with(plan, &ctx);
                let text = crate::exec::pipeline::explain_with_pipelines(&plan);
                text_table("plan", text.lines())
            }
            ast::Statement::ExplainAnalyze(q) => {
                let ctx = self.ctx(params, deadline).with_stats();
                let plan = Binder::new(&ctx).bind_query(q)?;
                let plan = optimize_with(plan, &ctx);
                let t0 = std::time::Instant::now();
                let result = Executor::new(&ctx).execute(&plan)?;
                let total = t0.elapsed();
                let stats = ctx.take_stats();
                let mut lines: Vec<String> = stats.render().lines().map(str::to_string).collect();
                lines.push(format!("Result: {} row(s) in {:?}", result.row_count(), total));
                text_table("plan", lines.iter().map(String::as_str))
            }
            ast::Statement::Set { name, value } => {
                self.set(name, &set_value_text(value))?;
                Ok(QueryResult::Ok)
            }
            ast::Statement::Show { name } => {
                let settings = self.settings.borrow();
                let entries: Vec<(String, String)> = match name {
                    Some(n) => vec![(n.to_ascii_lowercase(), settings.get(n)?)],
                    None => {
                        settings.entries().into_iter().map(|(n, v)| (n.to_string(), v)).collect()
                    }
                };
                drop(settings);
                let mut t = Table::empty(Schema::new(vec![
                    ColumnDef::not_null("setting", DataType::Varchar),
                    ColumnDef::not_null("value", DataType::Varchar),
                ]));
                for (n, v) in entries {
                    t.append_row(vec![Value::from(n), Value::from(v)]).map_err(Error::Storage)?;
                }
                Ok(QueryResult::Table(Arc::new(t)))
            }
            ast::Statement::Describe { name } => {
                let table = self.db.catalog().get(name).map_err(Error::Storage)?;
                let mut t = Table::empty(Schema::new(vec![
                    ColumnDef::not_null("column", DataType::Varchar),
                    ColumnDef::not_null("type", DataType::Varchar),
                    ColumnDef::not_null("nullable", DataType::Bool),
                ]));
                for def in table.schema().columns() {
                    t.append_row(vec![
                        Value::from(def.name.clone()),
                        Value::from(def.ty.sql_name()),
                        Value::Bool(def.nullable),
                    ])
                    .map_err(Error::Storage)?;
                }
                Ok(QueryResult::Table(Arc::new(t)))
            }
            ast::Statement::CreateTable { name, columns } => {
                self.db.create_table_from_ast(name, columns)
            }
            ast::Statement::DropTable { name } => self.db.drop_table_stmt(name),
            ast::Statement::Insert { table, columns, source } => {
                let ctx = self.ctx(params, deadline);
                self.db.run_insert(&ctx, table, columns.as_deref(), source)
            }
            ast::Statement::Delete { table, filter } => {
                let ctx = self.ctx(params, deadline);
                self.db.run_delete(&ctx, table, filter.as_ref())
            }
            ast::Statement::Update { table, assignments, filter } => {
                let ctx = self.ctx(params, deadline);
                self.db.run_update(&ctx, table, assignments, filter.as_ref())
            }
            ast::Statement::CreateGraphIndex { name, table, src_col, dst_col } => {
                let ctx = self.ctx(params, deadline).with_trace(collector.cloned(), root);
                self.db.indexes().create(&ctx, name, table, src_col, dst_col, None, false)?;
                Ok(QueryResult::Ok)
            }
            ast::Statement::DropGraphIndex { name } => {
                self.db.indexes().drop_index(IndexSpace::Graph, name, false)?;
                Ok(QueryResult::Ok)
            }
            ast::Statement::CreatePathIndex {
                name,
                table,
                src_col,
                dst_col,
                weight_col,
                method,
                if_not_exists,
            } => {
                let ctx = self.ctx(params, deadline).with_trace(collector.cloned(), root);
                let kind = match method {
                    ast::PathIndexMethod::Landmarks(k) => PathIndexKind::Landmarks(*k),
                    ast::PathIndexMethod::Contraction => PathIndexKind::Contraction,
                };
                let accel = Some((weight_col.as_deref(), kind));
                self.db.indexes().create(
                    &ctx,
                    name,
                    table,
                    src_col,
                    dst_col,
                    accel,
                    *if_not_exists,
                )?;
                Ok(QueryResult::Ok)
            }
            ast::Statement::DropPathIndex { name, if_exists } => {
                self.db.indexes().drop_index(IndexSpace::Path, name, *if_exists)?;
                Ok(QueryResult::Ok)
            }
            ast::Statement::Checkpoint => {
                // Not dispatched under the shared commit lock (see
                // `dispatch_statement`): `Database::checkpoint` takes the
                // commit lock exclusively, and holding the shared side here
                // would self-deadlock.
                let line = match self.db.checkpoint()? {
                    Some(epoch) => format!("checkpoint written (epoch {epoch})"),
                    None => "checkpoint skipped (in-memory database)".to_string(),
                };
                text_table("checkpoint", std::iter::once(line.as_str()))
            }
            ast::Statement::ShowPathIndexes => {
                let mut t = Table::empty(Schema::new(vec![
                    ColumnDef::not_null("name", DataType::Varchar),
                    ColumnDef::not_null("table", DataType::Varchar),
                    ColumnDef::not_null("kind", DataType::Varchar),
                    ColumnDef::not_null("status", DataType::Varchar),
                ]));
                for row in self.db.indexes().list(self.db.catalog()) {
                    t.append_row(vec![
                        Value::from(row.name),
                        Value::from(row.table),
                        Value::from(row.kind),
                        Value::from(row.status),
                    ])
                    .map_err(Error::Storage)?;
                }
                Ok(QueryResult::Table(Arc::new(t)))
            }
        }
    }
}

/// The metrics verb a statement is recorded under.
fn statement_verb(statement: &ast::Statement) -> QueryVerb {
    match statement {
        ast::Statement::Query(_) => QueryVerb::Select,
        ast::Statement::Insert { .. } => QueryVerb::Insert,
        ast::Statement::Update { .. } => QueryVerb::Update,
        ast::Statement::Delete { .. } => QueryVerb::Delete,
        ast::Statement::CreateTable { .. }
        | ast::Statement::DropTable { .. }
        | ast::Statement::CreateGraphIndex { .. }
        | ast::Statement::DropGraphIndex { .. }
        | ast::Statement::CreatePathIndex { .. }
        | ast::Statement::DropPathIndex { .. } => QueryVerb::Ddl,
        ast::Statement::Explain(_)
        | ast::Statement::ExplainAnalyze(_)
        | ast::Statement::Set { .. }
        | ast::Statement::Show { .. }
        | ast::Statement::Describe { .. }
        | ast::Statement::ShowPathIndexes
        | ast::Statement::Checkpoint => QueryVerb::Utility,
    }
}

/// Statements whose success must reach the WAL on a durable database.
fn statement_is_mutating(statement: &ast::Statement) -> bool {
    matches!(
        statement,
        ast::Statement::Insert { .. }
            | ast::Statement::Update { .. }
            | ast::Statement::Delete { .. }
            | ast::Statement::CreateTable { .. }
            | ast::Statement::DropTable { .. }
            | ast::Statement::CreateGraphIndex { .. }
            | ast::Statement::DropGraphIndex { .. }
            | ast::Statement::CreatePathIndex { .. }
            | ast::Statement::DropPathIndex { .. }
    )
}

/// Hex hash of arbitrary text (the slow-log `sql_hash`: correlates repeat
/// offenders without logging raw query text).
fn hex_hash(text: &str) -> String {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    text.hash(&mut h);
    format!("{:016x}", h.finish())
}

/// Structural fingerprint of a bound plan (hash of its debug rendering) —
/// two slow-log records with equal fingerprints executed the same plan
/// shape. Only computed when the slow-query log is armed.
fn plan_fingerprint(plan: &LogicalPlan) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    format!("{plan:?}").hash(&mut h);
    h.finish()
}

/// Render a `SET` value as the settings-layer text.
fn set_value_text(value: &ast::SetValue) -> String {
    match value {
        ast::SetValue::Ident(s) => s.clone(),
        ast::SetValue::Literal(ast::Literal::Int(v)) => v.to_string(),
        ast::SetValue::Literal(ast::Literal::Float(v)) => v.to_string(),
        ast::SetValue::Literal(ast::Literal::Bool(v)) => v.to_string(),
        ast::SetValue::Literal(ast::Literal::String(s)) => s.clone(),
        ast::SetValue::Literal(ast::Literal::Date(s)) => s.clone(),
        ast::SetValue::Literal(ast::Literal::Null) => "null".to_string(),
    }
}

/// One-column VARCHAR result table from text lines.
fn text_table<'l>(column: &str, lines: impl Iterator<Item = &'l str>) -> Result<QueryResult> {
    let mut t = Table::empty(Schema::new(vec![ColumnDef::not_null(column, DataType::Varchar)]));
    for line in lines {
        t.append_row(vec![Value::from(line)]).map_err(Error::Storage)?;
    }
    Ok(QueryResult::Table(Arc::new(t)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db_with_edges() -> Database {
        let db = Database::new();
        db.execute_script(
            "CREATE TABLE e (s INTEGER NOT NULL, d INTEGER NOT NULL); \
             INSERT INTO e VALUES (1, 2), (2, 3), (3, 4);",
        )
        .unwrap();
        db
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut cache = PlanCache::default();
        let plan = Arc::new(LogicalPlan::SingleRow);
        cache.insert("a".into(), Arc::clone(&plan), 0, 2);
        cache.insert("b".into(), Arc::clone(&plan), 0, 2);
        assert!(cache.get("a", 0).is_some()); // refresh a
        cache.insert("c".into(), Arc::clone(&plan), 0, 2); // evicts b
        assert!(cache.get("b", 0).is_none());
        assert!(cache.get("a", 0).is_some());
        assert!(cache.get("c", 0).is_some());
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn stale_entries_are_invalidated() {
        let mut cache = PlanCache::default();
        let plan = Arc::new(LogicalPlan::SingleRow);
        cache.insert("q".into(), plan, 7, 4);
        assert!(cache.get("q", 8).is_none());
        assert_eq!(cache.stats().invalidations, 1);
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn session_set_show_roundtrip() {
        let db = Database::new();
        let session = db.session();
        session.execute("SET row_limit = 9").unwrap();
        let t = session.query("SHOW row_limit").unwrap();
        assert_eq!(t.row(0)[1], Value::from("9"));
        let all = session.query("SHOW ALL").unwrap();
        assert_eq!(all.row_count(), SessionSettings::NAMES.len());
        assert!(session.execute("SET bogus = 1").is_err());
    }

    #[test]
    fn repeated_text_hits_cache_even_without_prepare() {
        let db = db_with_edges();
        let session = db.session();
        let sql = "SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER e EDGE (s, d)";
        for i in 0..3 {
            let t = session.query_with_params(sql, &[Value::Int(1), Value::Int(3)]).unwrap();
            assert_eq!(t.row(0)[0], Value::Int(2), "iteration {i}");
        }
        let stats = session.cache_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 2);
    }

    #[test]
    fn plan_cache_size_zero_disables_caching() {
        let db = db_with_edges();
        let session = db.session();
        session.set("plan_cache_size", "0").unwrap();
        let sql = "SELECT 1 WHERE 1 REACHES 2 OVER e EDGE (s, d)";
        session.query(sql).unwrap();
        session.query(sql).unwrap();
        let stats = session.cache_stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.entries, 0);
    }

    #[test]
    fn row_limit_aborts_oversized_operators() {
        let db = db_with_edges();
        let session = db.session();
        session.execute("SET row_limit = 2").unwrap();
        let err = session.query("SELECT * FROM e").unwrap_err();
        assert!(err.to_string().contains("row limit exceeded"), "{err}");
        session.execute("SET row_limit = 0").unwrap();
        assert_eq!(session.query("SELECT * FROM e").unwrap().row_count(), 3);
    }
}
