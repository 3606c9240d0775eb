//! The shared database and its convenience API.
//!
//! A [`Database`] owns the catalog and the index registry and is
//! safe to share across threads. All statement execution happens through
//! [`Session`]s (see [`crate::session`]); the `execute`/`query` methods
//! here are thin wrappers that open a temporary session, so simple callers
//! keep working without managing one.

use crate::bind::binder::Binder;
use crate::bind::expr::{type_name_to_datatype, ExprBinder};
use crate::bind::scope::Scope;
use crate::context::ExecContext;
use crate::error::{bind_err, Error};
use crate::exec::executor::Executor;
use crate::exec::expression::{cast_value, eval_column, eval_filter, first_error, Sel};
use crate::index::{IndexRegistry, IndexSpace};
use crate::optimize::optimize;
use crate::plan::{LogicalPlan, PlanColumn, PlanSchema};
use crate::session::{PlanCache, PreparedStatement, Session};
use gsql_obs::{EngineMetrics, SlowLog};
use gsql_parser::ast;
use gsql_storage::{
    Catalog, ColumnDef, DataType, DurableStore, Mutation, Schema, StorageError, Table, Value,
};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

type Result<T> = std::result::Result<T, Error>;

/// The result of executing one statement.
#[derive(Debug, Clone)]
pub enum QueryResult {
    /// A result set (SELECT / EXPLAIN / DESCRIBE / SHOW).
    Table(Arc<Table>),
    /// Rows affected by DML.
    Affected(usize),
    /// DDL or SET succeeded.
    Ok,
}

impl QueryResult {
    /// Unwrap the result set; errors for DDL/DML results.
    pub fn into_table(self) -> Result<Arc<Table>> {
        match self {
            QueryResult::Table(t) => Ok(t),
            other => Err(bind_err!("statement did not produce a result set: {other:?}")),
        }
    }
}

/// An in-memory SQL database with the paper's graph extensions.
///
/// Thread-safe and shared; open a [`Session`] per connection for prepared
/// statements with plan caching, `SET`/`SHOW` settings and
/// `EXPLAIN ANALYZE`. The methods here cover one-shot use:
///
/// ```
/// use gsql_core::Database;
/// use gsql_storage::Value;
///
/// let db = Database::new();
/// db.execute("CREATE TABLE friends (src INTEGER, dst INTEGER)").unwrap();
/// db.execute("INSERT INTO friends VALUES (1, 2), (2, 3)").unwrap();
/// let result = db
///     .query_with_params(
///         "SELECT CHEAPEST SUM(1) AS d WHERE ? REACHES ? OVER friends EDGE (src, dst)",
///         &[Value::Int(1), Value::Int(3)],
///     )
///     .unwrap();
/// assert_eq!(result.row(0)[0], Value::Int(2));
/// ```
#[derive(Debug)]
pub struct Database {
    catalog: Arc<Catalog>,
    indexes: IndexRegistry,
    plan_cache: PlanCache,
    metrics: Arc<EngineMetrics>,
    slow_log: Arc<SlowLog>,
}

impl Default for Database {
    fn default() -> Database {
        fix_malloc_thresholds();
        let catalog = Arc::new(Catalog::new());
        Database {
            indexes: IndexRegistry::new(Arc::clone(&catalog)),
            catalog,
            plan_cache: PlanCache::default(),
            metrics: Arc::default(),
            slow_log: Arc::default(),
        }
    }
}

/// Fix glibc malloc's mmap and trim thresholds, once per process, so that a
/// statement's buffers are reused by the next statement rather than handed
/// back to the kernel and faulted in again.
///
/// Left alone, glibc raises both thresholds to the largest block freed so
/// far, so whether a statement's few megabytes stay resident depends on
/// what the process allocated before and where its heaps happen to end:
/// two builds whose allocations of 100 kB or more are the same sequence
/// read `rel_pipeline` (a scan–join–group statement over a 48 k-row table)
/// at 36 and at 1 400 minor faults per statement, ≈ 9 against 16 ms on a
/// 2-vCPU box. With blocks below 4 MiB served from the heap and a heap
/// trimmed only past 32 MiB free, it reads 13–16.
/// Other allocators and platforms are left as they are. This is the
/// engine's only `unsafe` code: the crate denies it everywhere else.
#[allow(unsafe_code)]
fn fix_malloc_thresholds() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: std::ffi::c_int, value: std::ffi::c_int) -> std::ffi::c_int;
        }
        const M_TRIM_THRESHOLD: std::ffi::c_int = -1;
        const M_MMAP_THRESHOLD: std::ffi::c_int = -3;
        static ONCE: std::sync::Once = std::sync::Once::new();
        // SAFETY: `mallopt` only sets allocator parameters, under glibc's
        // own arena lock; both values are in the ranges glibc accepts.
        ONCE.call_once(|| unsafe {
            mallopt(M_MMAP_THRESHOLD, 4 << 20);
            mallopt(M_TRIM_THRESHOLD, 32 << 20);
        });
    }
}

impl Database {
    /// An empty in-memory database (the same as [`Database::default`]).
    /// [`Database::open`] makes a durable one.
    pub fn new() -> Database {
        Database::default()
    }

    /// Open (or create) a **durable** database rooted at `dir`.
    ///
    /// Recovery runs here: the latest valid snapshot is loaded (tables,
    /// version counters, index definitions, and built path-index
    /// acceleration layers for warm-start), the WAL suffix is replayed
    /// record by record — every change is applied as the effect it logged,
    /// and an index definition is only registered: the first query that
    /// needs it builds it — and a torn tail, a partial record from a crash
    /// mid-append, is truncated. Only then is the store attached
    /// to the catalog, so every later change is logged. The resulting
    /// engine state, including every table's rows, order and version,
    /// [`Database::schema_version`] and every plan-cache invariant, is
    /// identical to a process that never restarted.
    pub fn open(dir: impl AsRef<Path>) -> Result<Database> {
        let (store, recovery) = DurableStore::open(dir.as_ref()).map_err(Error::Storage)?;
        let db = Database::default();
        if let Some(snapshot) = recovery.snapshot {
            crate::persist::restore_snapshot(&db, snapshot)?;
        }
        for record in &recovery.wal_records {
            crate::persist::replay_record(&db, record)?;
        }
        db.metrics.recovery_replayed.set(recovery.wal_records.len() as i64);
        db.catalog.attach(Arc::new(store)).map_err(Error::Storage)?;
        Ok(db)
    }

    /// Whether this database persists to disk.
    pub fn is_durable(&self) -> bool {
        self.catalog.store().is_some()
    }

    /// The data directory of a durable database.
    pub fn data_dir(&self) -> Option<&Path> {
        self.catalog.store().map(|store| store.dir())
    }

    /// Force a snapshot checkpoint (the `CHECKPOINT` statement): the whole
    /// engine state is serialized atomically to a new snapshot epoch and
    /// the WAL is rotated. Returns the new epoch, or `None` for an
    /// in-memory database (a no-op, not an error, so scripts and tests run
    /// unchanged in both modes).
    pub fn checkpoint(&self) -> Result<Option<u64>> {
        let Some(store) = self.catalog.store() else {
            return Ok(None);
        };
        let t0 = Instant::now();
        let epoch =
            store.checkpoint(|| crate::persist::capture_snapshot(self)).map_err(Error::Storage)?;
        self.metrics.checkpoint_duration.observe(t0.elapsed().as_micros() as u64);
        Ok(Some(epoch))
    }

    /// Apply one mutation of table or index `name` through the catalog
    /// (which logs it on a durable database), count what it logged, and
    /// forget what was built for a dropped index or table. Statements,
    /// `import_csv` and recovery all change the catalog through here.
    pub(crate) fn apply(&self, name: &str, mutation: Mutation) -> Result<()> {
        let dropped = matches!(mutation, Mutation::Drop | Mutation::DropIndex(_));
        let logged = self.catalog.apply(name, mutation).map_err(Error::Storage)?;
        self.count_logged(logged);
        if dropped {
            self.indexes.retain_current(None);
        }
        Ok(())
    }

    /// Count one WAL record of `bytes` framed bytes (0: nothing logged).
    pub(crate) fn count_logged(&self, bytes: u64) {
        if bytes > 0 {
            self.metrics.wal_appends.inc();
            self.metrics.wal_bytes.add(bytes);
        }
    }

    /// Open a session (connection state: settings and traces). Every
    /// session shares the database's plan cache.
    pub fn session(&self) -> Session<'_> {
        Session::new(self)
    }

    /// An alias of [`Database::session`]: every session shares the plan
    /// cache. Kept only because the committed benchmark harness
    /// (`benchmark/`) compiles against it.
    pub fn shared_session(&self) -> Session<'_> {
        self.session()
    }

    /// The plan cache every session of this database consults.
    pub(crate) fn plan_cache(&self) -> &PlanCache {
        &self.plan_cache
    }

    /// The engine-wide metrics registry: every session and server layer
    /// records into this one set of instruments, and `/metrics` renders it.
    pub fn metrics(&self) -> &Arc<EngineMetrics> {
        &self.metrics
    }

    /// The bounded slow-query ring (`SET slow_query_ms` arms it per
    /// session; `/slowlog` reads it).
    pub fn slow_log(&self) -> &Arc<SlowLog> {
        &self.slow_log
    }

    /// The catalog of tables and index definitions. A change made through
    /// it is logged on a durable database like a statement's, and a table
    /// dropped through it takes its index definitions with it, as `DROP
    /// TABLE` does.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The graph and path indexes: the catalog's definitions, with what is
    /// built for them.
    pub fn indexes(&self) -> &IndexRegistry {
        &self.indexes
    }

    /// The structural version of the database: changes whenever a table is
    /// created or dropped — through SQL statements or the [`Catalog`] API
    /// directly (e.g. bulk loaders). Cached plans bind to one version and
    /// are invalidated when it moves; index DDL leaves it alone, since
    /// plans never name an index.
    pub fn schema_version(&self) -> u64 {
        self.catalog.ddl_version()
    }

    /// Execute a single statement without parameters.
    pub fn execute(&self, sql: &str) -> Result<QueryResult> {
        self.session().execute(sql)
    }

    /// Execute a single statement with `?` parameter values.
    pub fn execute_with_params(&self, sql: &str, params: &[Value]) -> Result<QueryResult> {
        self.session().execute_with_params(sql, params)
    }

    /// Execute a semicolon-separated script, returning one result per
    /// statement. Stops at the first error.
    pub fn execute_script(&self, sql: &str) -> Result<Vec<QueryResult>> {
        self.session().execute_script(sql)
    }

    /// Run a query and return its result set.
    pub fn query(&self, sql: &str) -> Result<Arc<Table>> {
        self.execute(sql)?.into_table()
    }

    /// Run a query with parameters and return its result set.
    pub fn query_with_params(&self, sql: &str, params: &[Value]) -> Result<Arc<Table>> {
        self.execute_with_params(sql, params)?.into_table()
    }

    /// Parse a statement for repeated execution through a [`Session`].
    ///
    /// Unlike [`Session::prepare`], no plan is built yet: the first
    /// execution binds it into the database's plan cache.
    pub fn prepare(&self, sql: &str) -> Result<PreparedStatement> {
        PreparedStatement::parse(sql)
    }

    /// Bulk-load CSV (with a header row matching the table's columns) into
    /// an existing table. Returns the number of rows inserted.
    pub fn import_csv<R: std::io::BufRead>(&self, table: &str, input: R) -> Result<usize> {
        let schema = self.catalog.get(table).map_err(Error::Storage)?.schema().clone();
        let loaded = gsql_storage::csv::read_csv(schema, input).map_err(Error::Storage)?;
        let n = loaded.row_count();
        if n > 0 {
            self.apply(table, Mutation::Append(loaded.rows().collect()))?;
        }
        Ok(n)
    }

    /// Export a query result as CSV text (header row included).
    pub fn export_csv(&self, sql: &str) -> Result<String> {
        let table = self.query(sql)?;
        gsql_storage::csv::to_csv_string(&table).map_err(Error::Storage)
    }

    /// Parse, bind and optimize a query under default session settings,
    /// returning its logical plan, which names no index.
    pub fn plan(&self, sql: &str) -> Result<LogicalPlan> {
        self.session().plan(sql)
    }

    // ------------------------------------------------------ DDL internals

    pub(crate) fn create_table_from_ast(
        &self,
        name: &str,
        columns: &[ast::ColumnDefAst],
    ) -> Result<QueryResult> {
        if columns.is_empty() {
            return Err(bind_err!("CREATE TABLE requires at least one column"));
        }
        let mut defs = Vec::with_capacity(columns.len());
        for c in columns {
            defs.push(ColumnDef {
                name: c.name.clone(),
                ty: type_name_to_datatype(c.ty),
                nullable: !c.not_null,
            });
        }
        self.apply(name, Mutation::Create(Table::empty(Schema::new(defs))))?;
        Ok(QueryResult::Ok)
    }

    /// `DROP TABLE`, or `DROP GRAPH|PATH INDEX` (`space`) where, with
    /// `if_exists`, a missing name is a no-op.
    pub(crate) fn drop_stmt(
        &self,
        space: Option<IndexSpace>,
        name: &str,
        if_exists: bool,
    ) -> Result<QueryResult> {
        match self.apply(name, space.map_or(Mutation::Drop, Mutation::DropIndex)) {
            Err(Error::Storage(StorageError::IndexNotFound(..))) if if_exists => {}
            result => result?,
        }
        Ok(QueryResult::Ok)
    }

    // ------------------------------------------------------ DML internals

    pub(crate) fn run_insert(
        &self,
        ctx: &ExecContext<'_>,
        table: &str,
        columns: Option<&[String]>,
        source: &ast::Query,
    ) -> Result<QueryResult> {
        let target = self.catalog.get(table).map_err(Error::Storage)?;
        let target_schema = target.schema().clone();
        drop(target);

        // Map source positions to target column ordinals.
        let positions: Vec<usize> = match columns {
            None => (0..target_schema.len()).collect(),
            Some(cols) => {
                let mut seen = std::collections::HashSet::new();
                cols.iter()
                    .map(|c| {
                        let i = target_schema.index_of_ok(c).map_err(Error::Storage)?;
                        if !seen.insert(i) {
                            return Err(bind_err!("duplicate column '{c}' in INSERT"));
                        }
                        Ok(i)
                    })
                    .collect::<Result<_>>()?
            }
        };

        let plan = Binder::new(ctx).bind_query(source)?;
        if plan.schema().len() != positions.len() {
            return Err(bind_err!(
                "INSERT has {} target columns but the source produces {}",
                positions.len(),
                plan.schema().len()
            ));
        }
        let plan = optimize(plan);
        let rows = Executor::new(ctx).execute(&plan)?;

        let mut appended = Vec::with_capacity(rows.row_count());
        for r in 0..rows.row_count() {
            let mut row = vec![Value::Null; target_schema.len()];
            for (src_pos, &tgt_pos) in positions.iter().enumerate() {
                let v = rows.column(src_pos).get(r);
                row[tgt_pos] = coerce_for_storage(v, target_schema.column(tgt_pos).ty)?;
            }
            target_schema.check_row(&row).map_err(Error::Storage)?;
            appended.push(row);
        }
        let inserted = appended.len();
        if inserted > 0 {
            self.apply(table, Mutation::Append(appended))?;
        }
        Ok(QueryResult::Affected(inserted))
    }

    pub(crate) fn run_delete(
        &self,
        ctx: &ExecContext<'_>,
        table: &str,
        filter: Option<&ast::Expr>,
    ) -> Result<QueryResult> {
        self.until_current(table, |snapshot| {
            let positions: Vec<usize> = match filter {
                None => (0..snapshot.row_count()).collect(),
                Some(f) => {
                    let bound = ExprBinder::new(&table_scope(table, snapshot.schema())).bind(f)?;
                    eval_filter(&bound, snapshot, &Sel::all(snapshot), ctx.params())?
                }
            };
            Ok((positions, None))
        })
    }

    pub(crate) fn run_update(
        &self,
        ctx: &ExecContext<'_>,
        table: &str,
        assignments: &[(String, ast::Expr)],
        filter: Option<&ast::Expr>,
    ) -> Result<QueryResult> {
        let params = ctx.params();
        self.until_current(table, |snapshot| {
            let schema = snapshot.schema();
            let scope = table_scope(table, schema);
            let binder = ExprBinder::new(&scope);
            let mut bound_assignments = Vec::with_capacity(assignments.len());
            for (col, e) in assignments {
                let idx = schema.index_of_ok(col).map_err(Error::Storage)?;
                bound_assignments.push((idx, binder.bind(e)?));
            }
            let bound_filter = filter.map(|f| binder.bind(f)).transpose()?;

            // Compute the matched rows' new contents against the snapshot.
            // A failure is re-run row by row, so the error is the first
            // row's, with that row's filter, assignments and storage checks
            // in order.
            let (positions, new_rows) = first_error(&Sel::all(snapshot), |sel| {
                let matched = match &bound_filter {
                    None => (0..sel.len()).map(|slot| sel.row(slot)).collect(),
                    Some(f) => eval_filter(f, snapshot, sel, params)?,
                };
                let matched_sel = Sel::Rows(&matched);
                let values = bound_assignments
                    .iter()
                    .map(|(idx, e)| Ok((*idx, eval_column(e, snapshot, &matched_sel, params)?)))
                    .collect::<Result<Vec<_>>>()?;
                let mut new_rows = Vec::with_capacity(matched.len());
                for (slot, &row) in matched.iter().enumerate() {
                    let mut cells = snapshot.row(row);
                    for (idx, v) in &values {
                        cells[*idx] = coerce_for_storage(v.get(slot), schema.column(*idx).ty)?;
                    }
                    schema.check_row(&cells).map_err(Error::Storage)?;
                    new_rows.push(cells);
                }
                Ok((matched, new_rows))
            })?;
            Ok((positions, Some(new_rows)))
        })
    }

    /// Run a `DELETE` (no new rows) or `UPDATE` (one new row per position)
    /// until it applies: `compute` reads the current snapshot of `table`,
    /// and when another writer changed the table before the mutation
    /// applied, it runs again over the newer snapshot.
    fn until_current(
        &self,
        table: &str,
        compute: impl Fn(&Table) -> Result<(Vec<usize>, Option<Vec<Vec<Value>>>)>,
    ) -> Result<QueryResult> {
        loop {
            let entry = self.catalog.entry(table).map_err(Error::Storage)?;
            let (positions, new_rows) = compute(&entry.table)?;
            let affected = positions.len();
            if affected == 0 {
                return Ok(QueryResult::Affected(0));
            }
            let base_version = entry.version;
            let mutation = match new_rows {
                None => Mutation::Delete { base_version, positions },
                Some(new_rows) => Mutation::Update { base_version, positions, new_rows },
            };
            match self.apply(table, mutation) {
                Err(Error::Storage(StorageError::VersionConflict { .. })) => continue,
                result => return result.map(|()| QueryResult::Affected(affected)),
            }
        }
    }
}

/// Coerce a value for storage into a column of type `ty` (string→date and
/// int→double conversions that SQL permits implicitly on INSERT/UPDATE).
fn coerce_for_storage(
    v: Value,
    ty: DataType,
) -> std::result::Result<Value, gsql_storage::StorageError> {
    match (&v, ty) {
        (Value::Null, _) => Ok(v),
        (Value::Str(_), DataType::Date) | (Value::Int(_), DataType::Double) => {
            cast_value(v, ty).map_err(|e| gsql_storage::StorageError::Internal(e.to_string()))
        }
        _ => Ok(v),
    }
}

/// The scope of a single base table (used by DML binding).
fn table_scope(name: &str, schema: &Schema) -> Scope {
    let mut plan_schema = PlanSchema::default();
    for def in schema.columns() {
        plan_schema.push(PlanColumn {
            qualifier: Some(name.to_string()),
            name: def.name.clone(),
            ty: def.ty,
            nullable: def.nullable,
            nested: None,
        });
    }
    Scope::new(plan_schema)
}
