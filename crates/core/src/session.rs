//! Sessions: the unit of connection state on top of a shared [`Database`].
//!
//! The paper's workload is *repeated* parameterized shortest-path queries
//! over a mostly-static graph. A [`Session`] makes that workload cheap:
//!
//! * every session consults the database's one **plan cache** (an LRU of
//!   64 fully bound and optimized plans, keyed by SQL text), so a
//!   [`PreparedStatement`] executed many times — or the same text sent by
//!   any number of sessions — parses, binds and optimizes exactly once;
//! * a plan is a function of the SQL text and the database's **schema
//!   version** (table DDL) alone; `CREATE`/`DROP TABLE` invalidates cached
//!   plans lazily. Plans never name an index: a graph operator picks the
//!   index that serves its edge scan each time it runs, so an index that
//!   exists is always used, from the next execution of a cached plan on
//!   (`DROP … INDEX` is how to stop using it);
//! * **session settings** (`SET` / `SHOW`) shape execution only:
//!   `row_limit` guards against runaway intermediate results, `threads`
//!   sets the degree of parallelism for traversals and row-parallel
//!   operators (`1` = exact sequential execution), `timeout_ms`,
//!   `morsel_rows`, `trace` and `slow_query_ms` bound, schedule and observe
//!   a statement;
//! * `EXPLAIN ANALYZE` executes a query under a verbose trace and renders
//!   the span tree as the plan annotated with row counts and wall time.
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
//! // One bind (the prepare), two cache hits — and another session finds
//! // the same plan.
//! assert_eq!(session.cache_stats().misses, 1);
//! assert_eq!(session.cache_stats().hits, 2);
//! stmt.query(&db.session(), &[Value::Int(1), Value::Int(3)]).unwrap();
//! assert_eq!(session.cache_stats().hits, 3);
//! ```

use crate::bind::binder::Binder;
use crate::context::{Deadline, ExecContext, SessionSettings};
use crate::database::{Database, QueryResult};
use crate::error::{bind_err, Error};
use crate::exec::executor::Executor;
use crate::index::{IndexSpace, PathIndexKind};
use crate::optimize::optimize;
use crate::plan::LogicalPlan;
use gsql_obs::{
    EngineMetrics, QueryOutcome, QueryVerb, SlowQueryRecord, SpanId, TraceCollector, TraceLevel,
    TraceValue, NO_SPAN,
};
use gsql_parser::{ast, parse_sql, parse_statement};
use gsql_storage::{ColumnDef, DataType, Schema, Table, Value};
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

type Result<T> = std::result::Result<T, Error>;

/// Counters of the database's plan cache (the `gsql_plan_cache_*`
/// metrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Executions served from a cached plan (no parse/bind/optimize).
    pub hits: u64,
    /// Plans built from scratch (and cached).
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

/// The plan cache of a [`Database`], shared by all of its sessions: an LRU
/// of bound and optimized plans keyed by SQL text. A plan bound by any
/// session serves every later execution of the same text, from any
/// session; an entry bound at an older schema version is discarded on
/// lookup. Its counters live in the engine metrics registry.
#[derive(Debug, Default)]
pub(crate) struct PlanCache {
    lru: Mutex<Lru>,
}

#[derive(Debug, Default)]
struct Lru {
    map: HashMap<String, CacheEntry>,
    tick: u64,
}

impl PlanCache {
    /// How many plans the cache holds.
    const CAPACITY: usize = 64;

    fn lock(&self) -> std::sync::MutexGuard<'_, Lru> {
        self.lru.lock().expect("plan cache poisoned")
    }

    /// A fresh (version-matching) cached plan for `sql`, if any. A stale
    /// entry is discarded and counted as an invalidation.
    fn get(
        &self,
        sql: &str,
        schema_version: u64,
        metrics: &EngineMetrics,
    ) -> Option<Arc<LogicalPlan>> {
        let mut lru = self.lock();
        let lru = &mut *lru;
        match lru.map.get_mut(sql) {
            Some(entry) if entry.schema_version == schema_version => {
                lru.tick += 1;
                entry.last_used = lru.tick;
                metrics.plan_cache_hits.inc();
                Some(Arc::clone(&entry.plan))
            }
            Some(_) => {
                lru.map.remove(sql);
                metrics.plan_cache_invalidations.inc();
                metrics.plan_cache_entries.set(lru.map.len() as i64);
                None
            }
            None => None,
        }
    }

    /// Cache a freshly built plan, evicting the least recently used entry
    /// when full.
    fn insert(
        &self,
        sql: &str,
        plan: Arc<LogicalPlan>,
        schema_version: u64,
        metrics: &EngineMetrics,
    ) {
        let mut lru = self.lock();
        if lru.map.len() >= Self::CAPACITY && !lru.map.contains_key(sql) {
            let victim = lru.map.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| k.clone());
            if let Some(victim) = victim {
                lru.map.remove(&victim);
            }
        }
        lru.tick += 1;
        let last_used = lru.tick;
        lru.map.insert(sql.to_string(), CacheEntry { plan, schema_version, last_used });
        metrics.plan_cache_entries.set(lru.map.len() as i64);
    }
}

/// A parsed statement bound to no particular session, executable many times
/// with different `?` parameter values.
///
/// Produced by [`Session::prepare`] (which also pre-plans queries into the
/// database's plan cache) or [`Database::prepare`] (parse only). Executing
/// a prepared *query* consults that cache: repeated executions skip the
/// whole frontend.
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

/// How many finished trace JSON documents a session retains.
const TRACE_RING: usize = 16;

/// A session over a shared [`Database`]: settings, statement execution and
/// recent traces. See the [module docs](self) for the full picture.
#[derive(Debug)]
pub struct Session<'db> {
    db: &'db Database,
    settings: RefCell<SessionSettings>,
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
    /// Open a session with default settings. Equivalent to
    /// [`Database::session`].
    pub fn new(db: &'db Database) -> Session<'db> {
        Session {
            db,
            settings: RefCell::new(SessionSettings::default()),
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
        self.settings.borrow_mut().set(name, value)
    }

    /// Read a setting's current value (same as `SHOW name`).
    pub fn setting(&self, name: &str) -> Result<String> {
        self.settings.borrow().get(name)
    }

    /// Counters of the database-wide plan cache, which every session of
    /// the database shares.
    pub fn cache_stats(&self) -> PlanCacheStats {
        let m = self.db.metrics();
        PlanCacheStats {
            hits: m.plan_cache_hits.get(),
            misses: m.plan_cache_misses.get(),
            invalidations: m.plan_cache_invalidations.get(),
            entries: m.plan_cache_entries.get() as usize,
        }
    }

    /// The trace JSON of the most recently traced statement, when `SET
    /// trace = on|verbose` was in effect for it. The session retains the
    /// last `TRACE_RING` documents.
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

    /// Parse, bind and optimize a query, returning its logical plan. The
    /// plan cache is not consulted. The plan names no index; the `EXPLAIN`
    /// statement also shows the index that would serve each edge scan.
    pub fn plan(&self, sql: &str) -> Result<LogicalPlan> {
        match parse_statement(sql)? {
            ast::Statement::Query(q)
            | ast::Statement::Explain(q)
            | ast::Statement::ExplainAnalyze(q) => self.build_plan(&q, &[], None),
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

    /// Bind and optimize a query — in `bind` and `optimize` spans under the
    /// statement span when `trace` is given.
    fn build_plan(
        &self,
        q: &ast::Query,
        params: &[Value],
        trace: Option<(&TraceCollector, SpanId)>,
    ) -> Result<LogicalPlan> {
        let ctx = self.ctx(params, None);
        let plan = in_span(trace, "bind", || Binder::new(&ctx).bind_query(q))?;
        Ok(in_span(trace, "optimize", || optimize(plan)))
    }

    /// The bound+optimized plan for a query — from the database's plan
    /// cache when `sql_key` is given and the entry is fresh, otherwise
    /// built (and cached) now.
    fn cached_plan(
        &self,
        sql_key: Option<&str>,
        q: &ast::Query,
        params: &[Value],
        trace: Option<(&TraceCollector, SpanId)>,
    ) -> Result<Arc<LogicalPlan>> {
        let (cache, metrics) = (self.db.plan_cache(), self.db.metrics());
        let schema_version = self.db.schema_version();
        if let Some(plan) = sql_key.and_then(|sql| cache.get(sql, schema_version, metrics)) {
            if let Some((t, root)) = trace {
                t.attr(root, "plan_cache", TraceValue::from("hit"));
            }
            return Ok(plan);
        }
        let plan = Arc::new(self.build_plan(q, params, trace)?);
        metrics.plan_cache_misses.inc();
        if let Some(sql) = sql_key {
            cache.insert(sql, Arc::clone(&plan), schema_version, metrics);
        }
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
    /// opens the statement trace span when tracing is on — and, at operator
    /// grain, for every `EXPLAIN ANALYZE`, which is rendered from it —
    /// records the verb/outcome/latency metrics, and arms the slow-query
    /// log. Only a statement traced by the `trace` setting lands in the
    /// trace ring and the slow-log span summary.
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
        let record = match statement {
            ast::Statement::ExplainAnalyze(_) => TraceLevel::Verbose,
            _ => level,
        };
        let collector = record.enabled().then(|| Arc::new(TraceCollector::new(record)));
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
        }
        let traced = collector.filter(|_| level.enabled());
        if let Some(t) = &traced {
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
                    spans: traced.as_ref().map(|t| t.root_summary()).unwrap_or_default(),
                });
            }
        }
        result
    }

    /// Dispatch one statement. Table changes log themselves (the catalog
    /// writes each one's record as it applies it); index DDL on a durable
    /// database is logged here, as its SQL text, after it succeeded. Index
    /// DDL runs whole under the database's index-DDL lock, which `DROP
    /// TABLE` also takes, so a table cannot be dropped — and its drop
    /// logged — while an index on it is built. On a durable database it
    /// also holds the shared commit lock (taken second) across apply and
    /// append, so a concurrent `CHECKPOINT` (which takes the commit lock
    /// exclusively) can never split it across the snapshot/WAL rotation
    /// boundary.
    fn dispatch_statement(
        &self,
        sql_key: Option<&str>,
        statement: &ast::Statement,
        params: &[Value],
        deadline: Option<Deadline>,
        collector: Option<&Arc<TraceCollector>>,
        root: SpanId,
    ) -> Result<QueryResult> {
        let dispatch =
            || self.dispatch_inner(sql_key, statement, params, deadline, collector, root);
        if !statement_is_index_ddl(statement) {
            return dispatch();
        }
        let _ddl = self.db.lock_index_ddl();
        let Some(store) = self.db.catalog().store() else {
            return dispatch();
        };
        let record = crate::persist::encode_statement_record(&statement.to_string(), params)?;
        let _commit = store.commit_shared();
        let result = dispatch()?;
        self.db.count_logged(store.append(&record).map_err(Error::Storage)?);
        Ok(result)
    }

    /// Execute a query plan in an `execute` span under `root` (carrying the
    /// result's `rows`) when tracing, returning the span id too.
    fn execute_plan(
        &self,
        plan: &LogicalPlan,
        params: &[Value],
        deadline: Option<Deadline>,
        collector: Option<&Arc<TraceCollector>>,
        root: SpanId,
    ) -> (Result<Arc<Table>>, SpanId) {
        let execute = collector.map_or(NO_SPAN, |t| t.begin(root, "execute"));
        let ctx = self.ctx(params, deadline).with_trace(collector.cloned(), execute);
        let table = Executor::new(&ctx).execute(plan);
        ctx.end_op_span(execute, table.as_ref().ok().map(|table| table.row_count()));
        (table, execute)
    }

    /// The statement dispatcher proper. `collector`/`root` carry the trace
    /// context when `SET trace` is on or the statement is `EXPLAIN ANALYZE`
    /// (`root` is the statement span).
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
                let (table, _) = self.execute_plan(&plan, params, deadline, collector, root);
                Ok(QueryResult::Table(table?))
            }
            ast::Statement::Explain(q) => {
                let plan = self.build_plan(q, params, trace)?;
                let text = crate::exec::pipeline::explain_with_pipelines(&plan, self.db.indexes());
                text_table("plan", text.lines())
            }
            ast::Statement::ExplainAnalyze(q) => {
                let plan = self.build_plan(q, params, trace)?;
                let (table, execute) = self.execute_plan(&plan, params, deadline, collector, root);
                table?;
                let t = collector.expect("run_statement_at traces every EXPLAIN ANALYZE");
                let text = t.read(|forest| crate::exec::explain::explain_analyze(forest, execute));
                text_table("plan", text.lines())
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
                // commit lock exclusively.
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

/// The statements logged as SQL text on a durable database (every other
/// change is logged by the catalog as its effect).
fn statement_is_index_ddl(statement: &ast::Statement) -> bool {
    matches!(
        statement,
        ast::Statement::CreateGraphIndex { .. }
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

/// Run `f` in a span named `name` under the statement span, when tracing.
fn in_span<T>(trace: Option<(&TraceCollector, SpanId)>, name: &str, f: impl FnOnce() -> T) -> T {
    let span = trace.map(|(t, root)| (t, t.begin(root, name)));
    let out = f();
    if let Some((t, id)) = span {
        t.end(id);
    }
    out
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
    fn stale_entries_are_invalidated() {
        let (cache, metrics) = (PlanCache::default(), EngineMetrics::default());
        cache.insert("q", Arc::new(LogicalPlan::SingleRow), 7, &metrics);
        assert!(cache.get("q", 8, &metrics).is_none());
        assert_eq!(metrics.plan_cache_invalidations.get(), 1);
        assert_eq!(metrics.plan_cache_entries.get(), 0);
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
