//! The plan executor.
//!
//! Column-at-a-time over `Arc<Table>` snapshots — the MonetDB execution
//! model the paper's prototype lives in; `Arc` keeps base-table scans and
//! path row-references zero-copy. This module walks the plan and owns the
//! sources (scan, VALUES) and the materializing breakers (sort, DISTINCT,
//! UNION, UNNEST; the graph operators live in `graph_op.rs`). Every
//! streaming shape — filter, project, join, aggregate, limit — runs in the
//! morsel-driven engine of `pipeline.rs`, the only implementation of those
//! operators.
//!
//! The executor is driven by an [`ExecContext`]: catalog, `?` parameters,
//! graph indexes, session settings (row-limit guard, graph-index flag,
//! degree of parallelism) and the statement's trace collector, which at
//! verbose level records one span per operator — the record `EXPLAIN
//! ANALYZE` is rendered from.
//!
//! The plan walk itself is single-threaded; **inside** pipelines and the
//! data-parallel breakers (sort, distinct, graph traversals) work fans out
//! over a scoped pool of `threads` workers and merges back in input order,
//! so results are bit-for-bit identical to `threads = 1`.

use crate::context::ExecContext;
use crate::error::{exec_err, Error};
use crate::exec::expression::{eval, eval_const, eval_to_column};
use crate::exec::pipeline::{self, Extra};
use crate::exec::{graph_op, unnest};
use crate::plan::{BoundExpr, LogicalPlan, SortKey};
use gsql_parallel::Pool;
use gsql_storage::{Column, Table, Value};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

type Result<T> = std::result::Result<T, Error>;

/// Executes logical plans against an [`ExecContext`].
pub struct Executor<'a> {
    ctx: &'a ExecContext<'a>,
}

impl<'a> Executor<'a> {
    /// Create an executor over a context.
    pub fn new(ctx: &'a ExecContext<'a>) -> Executor<'a> {
        Executor { ctx }
    }

    /// The execution context.
    pub fn ctx(&self) -> &'a ExecContext<'a> {
        self.ctx
    }

    /// Execute a plan to a materialized table.
    ///
    /// Under a verbose trace every call records one span named by the
    /// operator's label, nested under its parent operator's span, with its
    /// output `rows`; when a session row limit is set, any operator output
    /// exceeding it aborts the query.
    pub fn execute(&self, plan: &LogicalPlan) -> Result<Arc<Table>> {
        self.execute_with_extras(plan, &[]).map(|(table, _)| table)
    }

    /// [`Executor::execute`], plus one extra column per `extras` entry: the
    /// expression evaluated over the plan's output rows. A pipeline root
    /// evaluates them per morsel inside its fused pass where it can; every
    /// other shape evaluates them over the finished table.
    pub(crate) fn execute_with_extras(
        &self,
        plan: &LogicalPlan,
        extras: &[Extra<'_>],
    ) -> Result<(Arc<Table>, Vec<Column>)> {
        // The statement deadline is checked once per operator here and at
        // finer grain inside the morsel loop and the graph traversal
        // batches, so timeouts interrupt long statements mid-flight.
        self.ctx.check_deadline()?;
        // Verbose tracing opens one span per operator. The plan walk is
        // single-threaded, so save/restore of the parent pointer nests
        // children correctly; the span is closed on both success and error
        // paths so the tree stays balanced.
        let op_span = if self.ctx.trace_verbose() {
            self.ctx.trace_begin(&plan.node_label()).map(|id| (id, self.ctx.swap_trace_parent(id)))
        } else {
            None
        };
        let result = self.execute_inner(plan, extras);
        if let Some((id, prev)) = op_span {
            self.ctx.swap_trace_parent(prev);
            self.ctx.end_op_span(id, result.as_ref().ok().map(|(table, _)| table.row_count()));
        }
        let (out, cols) = result?;
        self.ctx.check_row_limit(out.row_count(), || plan.node_label())?;
        Ok((out, cols))
    }

    fn execute_inner(
        &self,
        plan: &LogicalPlan,
        extras: &[Extra<'_>],
    ) -> Result<(Arc<Table>, Vec<Column>)> {
        let params = self.ctx.params();
        // Set by the pipeline engine when it evaluated `extras` in-pass.
        let mut fused_extras = None;
        let table = match plan {
            LogicalPlan::Filter { .. }
            | LogicalPlan::Project { .. }
            | LogicalPlan::Join { .. }
            | LogicalPlan::Aggregate { .. }
            | LogicalPlan::Limit { .. } => {
                let (table, cols) = pipeline::execute(self, plan, extras)?;
                fused_extras = cols;
                table
            }
            LogicalPlan::SingleRow => {
                let mut t = Table::empty(gsql_storage::Schema::default());
                t.append_row(Vec::new()).map_err(Error::Storage)?;
                Arc::new(t)
            }
            LogicalPlan::Scan { table, .. } => {
                self.ctx.catalog().get(table).map_err(Error::Storage)?
            }
            LogicalPlan::IndexedGraph { table, .. } => {
                // Reached only when a graph operator did not consume the
                // node (or the index was dropped): scan the base table.
                self.ctx.catalog().get(table).map_err(Error::Storage)?
            }
            LogicalPlan::Values { rows, schema } => {
                let mut t = Table::empty(schema.to_storage_schema());
                for row in rows {
                    let values: Vec<Value> =
                        row.iter().map(|e| eval_const(e, params)).collect::<Result<_>>()?;
                    t.append_row(values).map_err(Error::Storage)?;
                }
                Arc::new(t)
            }
            LogicalPlan::GraphSelect { .. } | LogicalPlan::GraphJoin { .. } => {
                graph_op::execute(self, plan)?
            }
            LogicalPlan::Sort { input, keys } => {
                let t = self.execute(input)?;
                Arc::new(sort_table(&t, keys, params, self.ctx.threads())?)
            }
            LogicalPlan::Distinct { input } => {
                let t = self.execute(input)?;
                Arc::new(distinct_table(&t, self.ctx.threads())?)
            }
            LogicalPlan::Union { left, right, all } => {
                let l = self.execute(left)?;
                let r = self.execute(right)?;
                debug_assert!(*all, "binder wraps UNION (distinct) in a Distinct node");
                union_tables(&l, &r)?
            }
            LogicalPlan::Unnest { input, path_col, with_ordinality, preserve_empty, schema } => {
                let t = self.execute(input)?;
                unnest::execute_unnest(&t, *path_col, *with_ordinality, *preserve_empty, schema)?
            }
        };
        let extra_cols = match fused_extras {
            Some(cols) => cols,
            None => extras
                .iter()
                .map(|(e, ty)| eval_to_column(e, &table, params, *ty))
                .collect::<Result<_>>()?,
        };
        Ok((table, extra_cols))
    }
}

/// Sort a table by the given keys (stable; NULLs first, as in
/// [`Value::total_cmp`]).
///
/// With `threads > 1` and enough rows, the argsort becomes a parallel
/// merge sort on the pool's chunk primitives: each contiguous chunk is
/// argsorted independently, then sorted runs merge pairwise (rounds of
/// parallel merges). Chunks are contiguous in row order and ties always
/// take the earlier run, so the result is exactly the stable sequential
/// sort — bit-for-bit, at every thread count.
pub fn sort_table(
    table: &Table,
    keys: &[SortKey],
    params: &[Value],
    threads: usize,
) -> Result<Table> {
    // Evaluate all key columns once (column-at-a-time), then argsort.
    let mut key_cols: Vec<(Column, bool)> = Vec::with_capacity(keys.len());
    for k in keys {
        let ty = k.expr.data_type().unwrap_or(gsql_storage::DataType::Varchar);
        key_cols.push((eval_to_column(&k.expr, table, params, ty)?, k.asc));
    }
    let cmp = |a: usize, b: usize| {
        for (col, asc) in &key_cols {
            let cmp = col.get(a).total_cmp(&col.get(b));
            if cmp != std::cmp::Ordering::Equal {
                return if *asc { cmp } else { cmp.reverse() };
            }
        }
        std::cmp::Ordering::Equal
    };
    let n = table.row_count();
    let pool = Pool::new(threads);
    let order: Vec<usize> = if pool.is_sequential() || pool.chunks(n).len() <= 1 {
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| cmp(a, b));
        order
    } else {
        // Per-chunk stable argsorts, in parallel. Chunk index ranges are
        // contiguous and ascending, so run `i`'s original indices all
        // precede run `i + 1`'s — the invariant the stable merge needs.
        let mut runs: Vec<Vec<usize>> = pool.map_chunks(n, |range| {
            let mut idx: Vec<usize> = range.collect();
            idx.sort_by(|&a, &b| cmp(a, b));
            idx
        });
        // Pairwise merge rounds, each round's merges in parallel.
        while runs.len() > 1 {
            let mut next: Vec<Vec<usize>> =
                pool.map(runs.len() / 2, |i| merge_runs(&runs[2 * i], &runs[2 * i + 1], &cmp));
            if runs.len() % 2 == 1 {
                next.push(runs.pop().expect("odd run out"));
            }
            runs = next;
        }
        runs.pop().unwrap_or_default()
    };
    Ok(table.take(&order))
}

/// Stable two-run merge: on equal keys the left run wins. Every index in
/// `left` originates before every index in `right`, so this reproduces the
/// sequential stable sort exactly.
fn merge_runs(
    left: &[usize],
    right: &[usize],
    cmp: &(impl Fn(usize, usize) -> std::cmp::Ordering + Sync),
) -> Vec<usize> {
    let mut out = Vec::with_capacity(left.len() + right.len());
    let (mut i, mut j) = (0, 0);
    while i < left.len() && j < right.len() {
        if cmp(left[i], right[j]) != std::cmp::Ordering::Greater {
            out.push(left[i]);
            i += 1;
        } else {
            out.push(right[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&left[i..]);
    out.extend_from_slice(&right[j..]);
    out
}

/// Hash one row cell-by-cell into a single `u64` — no per-row key vector is
/// allocated. Uses the deterministic (fixed-key) [`DefaultHasher`] so the
/// parallel pre-hash pass produces the same digests on every thread.
fn hash_row(table: &Table, row: usize) -> u64 {
    use gsql_storage::value::HashableValue;
    let mut h = DefaultHasher::new();
    for col in table.columns() {
        HashableValue(col.get(row)).hash(&mut h);
    }
    h.finish()
}

/// Cell-wise row equality under SQL grouping semantics (NULL == NULL,
/// `Int(1)` == `Double(1.0)` — the [`HashableValue`] contract), without
/// materializing either row.
fn rows_equal(table: &Table, a: usize, b: usize) -> bool {
    use gsql_storage::value::HashableValue;
    table.columns().iter().all(|c| HashableValue(c.get(a)) == HashableValue(c.get(b)))
}

/// Remove duplicate rows (first occurrence wins, order preserved).
///
/// Rows are hashed incrementally into one `u64` digest per row (no
/// per-row `Vec` of values); with `threads > 1` the digest pass — the bulk
/// of the work — runs chunk-parallel, and the first-wins merge stays
/// sequential so the surviving rows are identical to a sequential scan.
/// Digest collisions are resolved by cell-wise comparison.
pub fn distinct_table(table: &Table, threads: usize) -> Result<Table> {
    let n = table.row_count();
    let hashes: Vec<u64> = Pool::new(threads)
        .map_chunks(n, |range| range.map(|i| hash_row(table, i)).collect::<Vec<u64>>())
        .into_iter()
        .flatten()
        .collect();
    // hash -> indices of kept rows with that digest (usually one).
    let mut seen: HashMap<u64, Vec<usize>> = HashMap::with_capacity(n);
    let mut keep = Vec::new();
    for (i, &digest) in hashes.iter().enumerate() {
        let candidates = seen.entry(digest).or_default();
        if candidates.iter().any(|&j| rows_equal(table, i, j)) {
            continue;
        }
        candidates.push(i);
        keep.push(i);
    }
    Ok(table.take(&keep))
}

/// Concatenate two tables **column-at-a-time** (the engine is columnar end
/// to end). Types are already unified by the binder; should a column pair
/// still disagree (e.g. Int vs Double from a VALUES source), that column
/// falls back to per-value pushes, which widen Int→Double.
pub fn union_tables(l: &Table, r: &Table) -> Result<Arc<Table>> {
    if l.schema().len() != r.schema().len() {
        return Err(exec_err!("UNION arity mismatch"));
    }
    let mut columns = Vec::with_capacity(l.schema().len());
    for (i, (lc, rc)) in l.columns().iter().zip(r.columns()).enumerate() {
        let def = l.schema().column(i);
        let col = if lc.data_type() == def.ty && rc.data_type() == def.ty {
            // Columnar fast path: clone left, splice right onto it.
            let mut col = lc.clone();
            col.extend_from(rc).map_err(Error::Storage)?;
            col
        } else {
            // Widening path (e.g. Int values under a Double schema).
            let mut col = Column::empty(def.ty);
            for v in lc.iter().chain(rc.iter()) {
                col.push(v).map_err(Error::Storage)?;
            }
            col
        };
        // Preserve the NOT NULL enforcement of the row-at-a-time path.
        if !def.nullable && col.null_count() > 0 {
            return Err(Error::Storage(gsql_storage::StorageError::NullViolation(
                def.name.clone(),
            )));
        }
        columns.push(col);
    }
    Table::from_columns(l.schema().clone(), columns).map(Arc::new).map_err(Error::Storage)
}

/// Evaluate one projected row (used by DML paths).
pub fn eval_row_exprs(
    exprs: &[BoundExpr],
    table: &Table,
    row: usize,
    params: &[Value],
) -> Result<Vec<Value>> {
    exprs.iter().map(|e| eval(e, table, row, params)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsql_storage::{ColumnDef, DataType, Schema};

    fn mixed_table(rows: usize) -> Table {
        let mut t = Table::empty(Schema::new(vec![
            ColumnDef::new("a", DataType::Int),
            ColumnDef::new("b", DataType::Varchar),
        ]));
        for i in 0..rows {
            let a = if i % 13 == 0 { Value::Null } else { Value::Int((i % 7) as i64) };
            t.append_row(vec![a, Value::from(format!("s{}", i % 5))]).unwrap();
        }
        t
    }

    #[test]
    fn distinct_first_occurrence_wins_in_order() {
        let t = mixed_table(200);
        let d = distinct_table(&t, 1).unwrap();
        // 7 ints + NULL on a, 5 strings on b — at most 40 combinations, and
        // the kept rows must appear in first-seen order.
        assert!(d.row_count() <= 40);
        let mut seen_rows: Vec<Vec<Value>> = Vec::new();
        for i in 0..d.row_count() {
            let row = d.row(i);
            assert!(!seen_rows.contains(&row), "row {i} duplicated");
            seen_rows.push(row);
        }
        // First row of the input survives as the first output row.
        assert_eq!(d.row(0), t.row(0));
    }

    #[test]
    fn distinct_groups_int_and_double_like_hashable_value() {
        // Int(1) and Double(1.0) compare equal under grouping semantics.
        let mut t = Table::empty(Schema::new(vec![ColumnDef::new("x", DataType::Double)]));
        t.append_row(vec![Value::Int(1)]).unwrap();
        t.append_row(vec![Value::Double(1.0)]).unwrap();
        t.append_row(vec![Value::Null]).unwrap();
        t.append_row(vec![Value::Null]).unwrap();
        let d = distinct_table(&t, 1).unwrap();
        assert_eq!(d.row_count(), 2);
    }

    #[test]
    fn parallel_sort_matches_sequential_stably() {
        use crate::plan::BoundExpr;
        // Heavy duplication in the key column so stability is observable:
        // rows with equal keys must keep their input order.
        let t = mixed_table(5000);
        let keys =
            vec![SortKey { expr: BoundExpr::Column { index: 0, ty: DataType::Int }, asc: true }];
        let seq = sort_table(&t, &keys, &[], 1).unwrap();
        for threads in [2, 3, 8] {
            let par = sort_table(&t, &keys, &[], threads).unwrap();
            assert_eq!(par.row_count(), seq.row_count(), "threads {threads}");
            for i in 0..seq.row_count() {
                assert_eq!(par.row(i), seq.row(i), "threads {threads} row {i}");
            }
        }
        // Descending + secondary key, same contract.
        let keys = vec![
            SortKey { expr: BoundExpr::Column { index: 1, ty: DataType::Varchar }, asc: false },
            SortKey { expr: BoundExpr::Column { index: 0, ty: DataType::Int }, asc: true },
        ];
        let seq = sort_table(&t, &keys, &[], 1).unwrap();
        let par = sort_table(&t, &keys, &[], 4).unwrap();
        for i in 0..seq.row_count() {
            assert_eq!(par.row(i), seq.row(i), "desc row {i}");
        }
    }

    #[test]
    fn distinct_parallel_matches_sequential() {
        let t = mixed_table(3000);
        let seq = distinct_table(&t, 1).unwrap();
        for threads in [2, 8] {
            let par = distinct_table(&t, threads).unwrap();
            assert_eq!(par.row_count(), seq.row_count(), "threads {threads}");
            for i in 0..seq.row_count() {
                assert_eq!(par.row(i), seq.row(i), "threads {threads} row {i}");
            }
        }
    }
}
