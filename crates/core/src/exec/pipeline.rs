//! Push-based, morsel-driven pipeline execution — the engine's only
//! implementation of filter, project, join, aggregate and limit.
//!
//! A plan rooted at one of those operators is decomposed into a
//! **pipeline** — a fused chain of streaming operators over one source —
//! terminated by a **sink**. Workers pull fixed-size morsels (contiguous
//! row ranges of the source) from a shared [`MorselQueue`] and run each
//! morsel through the whole fused chain to completion in worker-local
//! state; the sink consumes the per-morsel partials sequentially **in
//! morsel-index order**.
//!
//! Pipelines break at the classic breakers: a join's **build** side is
//! fully executed and hashed before its probe pipeline starts; aggregates
//! and limits are sinks; sort, DISTINCT, UNION, UNNEST and the graph
//! operators are materializing nodes in `executor.rs`/`graph_op.rs`
//! (their *inputs* still execute as pipelines).
//!
//! Determinism contract: morsel boundaries depend only on the input size
//! and `morsel_rows` — never the worker count — and the sink consumes
//! partials in morsel-index order, so every result (including float
//! aggregates) is bit-identical at every thread count. Errors follow the
//! same rule: a failing morsel stops the queue, the morsels already handed
//! out (always a prefix of the morsel sequence) run to completion, and the
//! in-order walk surfaces the error of the **lowest morsel index** — the
//! one `threads = 1` would have hit first. The row-limit guard is evaluated
//! in that walk too, so its message is thread-count independent. Only a
//! statement timeout pre-empts the walk.

use crate::context::ExecContext;
use crate::error::Error;
use crate::exec::expression::{eval_filter, eval_to_column, Sel};
use crate::exec::graph_op::scanned_edge;
use crate::exec::join::{materialize_pairs, JoinProbe};
use crate::exec::{aggregate, Executor};
use crate::index::IndexRegistry;
use crate::plan::{AggCall, BoundExpr, LogicalPlan, PlanSchema};
use gsql_obs::{SpanId, TraceValue};
use gsql_parallel::{MorselQueue, Pool};
use gsql_storage::{Column, DataType, Table, Value};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

type Result<T> = std::result::Result<T, Error>;

/// An extra output column requested alongside a plan's result: an
/// expression over the plan's output rows and its result type. The graph
/// operators derive their source/dest vertex columns this way.
pub(crate) type Extra<'e> = (&'e BoundExpr, DataType);

/// True when `plan` is a shape this module executes as a pipeline root.
pub(crate) fn fusable_root(plan: &LogicalPlan) -> bool {
    fusable_op(plan) || matches!(plan, LogicalPlan::Aggregate { .. } | LogicalPlan::Limit { .. })
}

/// True when `plan` can be a fused (streaming) member of a chain.
fn fusable_op(plan: &LogicalPlan) -> bool {
    matches!(
        plan,
        LogicalPlan::Filter { .. } | LogicalPlan::Project { .. } | LogicalPlan::Join { .. }
    )
}

/// What the pipeline's root does with the stream of morsel outputs.
enum SinkSpec<'p> {
    /// Concatenate morsel outputs into the root's output table.
    Table,
    /// Concatenate until `offset + limit` rows are produced, then stop
    /// upstream morsel production and slice.
    Limit { limit: Option<usize>, offset: usize },
    /// Fold each morsel into an aggregate partial; merge partials in
    /// morsel-index order.
    Agg { group: &'p [BoundExpr], aggs: &'p [AggCall], schema: &'p PlanSchema },
}

/// One fused streaming operator, top-down position `chain[i]`.
struct FusedOp<'p> {
    node: &'p LogicalPlan,
    kind: OpKind<'p>,
    /// Output rows across all morsels run so far, in completion order: the
    /// row-limit guard's early-stop signal only. The guard's verdict and
    /// the reported row counts come from the morsel-ordered walk.
    produced: AtomicUsize,
}

enum OpKind<'p> {
    Filter(&'p BoundExpr),
    Project {
        exprs: &'p [BoundExpr],
        schema: &'p PlanSchema,
    },
    /// Probe against a built join side; the build (right) side plan is
    /// executed as a breaker before the pipeline starts.
    Probe {
        probe: Box<JoinProbe>,
        schema: &'p PlanSchema,
    },
}

/// The static decomposition of a plan into sink + fused chain + source.
struct Decomposed<'p> {
    sink: SinkSpec<'p>,
    /// Chain nodes top-down (outermost first). For a Table sink the root
    /// itself is `chain[0]`; for Aggregate/Limit sinks the chain holds only
    /// nodes strictly below the root.
    chain: Vec<&'p LogicalPlan>,
    source: &'p LogicalPlan,
}

/// Split `plan` into sink, fused chain and source.
fn decompose(plan: &LogicalPlan) -> Decomposed<'_> {
    let (sink, mut node) = match plan {
        LogicalPlan::Aggregate { input, group, aggs, schema } => {
            (SinkSpec::Agg { group, aggs, schema }, &**input)
        }
        LogicalPlan::Limit { input, limit, offset } => {
            (SinkSpec::Limit { limit: *limit, offset: *offset }, &**input)
        }
        _ => (SinkSpec::Table, plan),
    };
    let mut chain = Vec::new();
    while fusable_op(node) {
        chain.push(node);
        node = match node {
            LogicalPlan::Filter { input, .. } | LogicalPlan::Project { input, .. } => input,
            LogicalPlan::Join { left, .. } => left,
            _ => unreachable!("fusable_op covers these shapes"),
        };
    }
    Decomposed { sink, chain, source: node }
}

/// A morsel's data as it flows through the fused chain: row subsets of the
/// pipeline source stay index-based (zero-copy until the sink), while
/// project/probe outputs are materialized morsel-local tables.
enum Batch {
    /// A contiguous source-row range (the morsel as grabbed).
    Range(Range<usize>),
    /// Ascending source-row indices (post-filter).
    Rows(Vec<usize>),
    /// A materialized morsel output (post-project/probe).
    Table(Table),
}

impl Batch {
    fn len(&self) -> usize {
        match self {
            Batch::Range(r) => r.len(),
            Batch::Rows(rows) => rows.len(),
            Batch::Table(t) => t.row_count(),
        }
    }

    /// The table this batch's rows live in, and the selection of them.
    fn view<'a>(&'a self, source: &'a Table) -> (&'a Table, Sel<'a>) {
        match self {
            Batch::Range(r) => (source, Sel::Range(r.clone())),
            Batch::Rows(rows) => (source, Sel::Rows(rows)),
            Batch::Table(t) => (t, Sel::all(t)),
        }
    }
}

/// What the sink keeps of one morsel.
enum Part {
    Batch(Batch),
    Agg(aggregate::AggPartial),
}

/// One morsel's complete outcome, consumed by the morsel-ordered walk.
struct MorselOut {
    part: Part,
    /// The requested [`Extra`] columns over this morsel's output, when they
    /// ride in the fused pass (empty otherwise).
    extras: Vec<Column>,
    /// Output rows of each fused op for this morsel, indexed like the chain.
    op_rows: Vec<usize>,
}

/// Run one morsel through the fused chain (innermost op first), returning
/// the outermost op's batch and every op's output row count.
fn run_chain(
    source: &Table,
    morsel: Range<usize>,
    ops: &[FusedOp<'_>],
    params: &[Value],
) -> Result<(Batch, Vec<usize>)> {
    let mut batch = Batch::Range(morsel);
    let mut op_rows = vec![0; ops.len()];
    for (i, op) in ops.iter().enumerate().rev() {
        let (table, sel) = batch.view(source);
        batch = match &op.kind {
            OpKind::Filter(pred) => {
                let keep = eval_filter(pred, table, &sel, params)?;
                match batch {
                    Batch::Table(t) if keep.len() < t.row_count() => Batch::Table(t.take(&keep)),
                    Batch::Table(t) => Batch::Table(t),
                    _ => Batch::Rows(keep),
                }
            }
            OpKind::Project { exprs, schema } => {
                let storage = schema.to_storage_schema();
                let columns = exprs
                    .iter()
                    .zip(storage.columns())
                    .map(|(e, def)| eval_to_column(e, table, &sel, params, def.ty))
                    .collect::<Result<_>>()?;
                Batch::Table(Table::from_columns(storage, columns).map_err(Error::Storage)?)
            }
            OpKind::Probe { probe, schema } => {
                let pairs = probe.probe(table, &sel, params)?;
                Batch::Table(materialize_pairs(table, &probe.right, &pairs, schema)?)
            }
        };
        op_rows[i] = batch.len();
    }
    Ok((batch, op_rows))
}

/// How one pipeline's morsels were scheduled (trace and `EXPLAIN ANALYZE`
/// detail; never influences results).
struct Schedule {
    /// Morsels processed by each participating worker.
    per_worker: Vec<usize>,
    queue_wait: Duration,
    queue_wait_max: Duration,
}

impl Schedule {
    fn morsels(&self) -> usize {
        self.per_worker.iter().sum()
    }

    fn min_per_worker(&self) -> usize {
        self.per_worker.iter().copied().min().unwrap_or(0)
    }

    fn max_per_worker(&self) -> usize {
        self.per_worker.iter().copied().max().unwrap_or(0)
    }
}

/// The morsel loop: cut `0..rows` into morsels, run `per_morsel` over each
/// on up to `pool` workers, and return every handed-out morsel's outcome in
/// morsel-index order (a prefix of the morsel sequence).
///
/// A failing morsel stops the queue, but morsels already grabbed — always a
/// contiguous prefix, by the queue's atomic cursor — run to completion, so
/// the first `Err` in the returned order is the one a sequential run hits
/// first. `per_morsel` may stop the queue itself once its answer is
/// decided (LIMIT, row-limit guard). Only an expired statement deadline
/// aborts the run outright.
fn run_morsels<T: Send>(
    ctx: &ExecContext<'_>,
    pool: &Pool,
    rows: usize,
    per_morsel: impl Fn(&MorselQueue, Range<usize>) -> Result<T> + Sync,
) -> Result<(Vec<Result<T>>, Schedule)> {
    let queue = MorselQueue::new(rows, ctx.morsel_rows());
    // All morsels exist the moment the queue does (it partitions a row
    // range), so a morsel's queue wait is grab time minus this instant.
    let queue_born = Instant::now();
    let metrics = ctx.metrics().map(Arc::as_ref);
    let deadline = ctx.deadline();
    let workers = pool.threads().min(queue.morsel_count()).max(1);

    type WorkerOut<T> = (Vec<(usize, Result<T>)>, Duration, Duration);
    let worker_results: Vec<Result<WorkerOut<T>>> = pool.broadcast(workers, |_w| {
        let mut local = Vec::new();
        let mut wait_total = Duration::ZERO;
        let mut wait_max = Duration::ZERO;
        while let Some(m) = queue.next() {
            let wait = queue_born.elapsed();
            wait_total += wait;
            wait_max = wait_max.max(wait);
            if let Some(reg) = metrics {
                reg.observe_queue_wait_us(wait.as_micros() as u64);
            }
            if deadline.is_some_and(|d| d.expired()) {
                queue.stop();
                return Err(ctx.timeout_error());
            }
            let outcome = per_morsel(&queue, m.rows);
            if outcome.is_err() {
                queue.stop();
            }
            local.push((m.index, outcome));
        }
        Ok((local, wait_total, wait_max))
    });

    let mut schedule = Schedule {
        per_worker: Vec::with_capacity(worker_results.len()),
        queue_wait: Duration::ZERO,
        queue_wait_max: Duration::ZERO,
    };
    let mut indexed = Vec::new();
    for r in worker_results {
        let (local, wait_total, wait_max) = r?;
        schedule.per_worker.push(local.len());
        indexed.extend(local);
        schedule.queue_wait += wait_total;
        schedule.queue_wait_max = schedule.queue_wait_max.max(wait_max);
    }
    indexed.sort_unstable_by_key(|(idx, _)| *idx);
    Ok((indexed.into_iter().map(|(_, outcome)| outcome).collect(), schedule))
}

/// What a finished pipeline hands back to [`execute`].
struct Finished {
    table: Arc<Table>,
    /// The [`Extra`] columns, when they rode in the fused pass.
    extras: Option<Vec<Column>>,
    /// Output rows of each fused op over the morsels the sink consumed.
    op_rows: Vec<usize>,
    schedule: Schedule,
}

/// Execute a pipeline root (see [`fusable_root`]) together with `extras`.
///
/// The extra columns come back as `Some` when the root's output is the
/// concatenation of materialized morsel outputs — they are then evaluated
/// per morsel in the same fused pass, while the morsel is hot in cache, and
/// the caller is spared a second full-table expression sweep. Otherwise
/// `None`: the caller evaluates them over the returned table.
pub(crate) fn execute(
    ex: &Executor<'_>,
    plan: &LogicalPlan,
    extras: &[Extra<'_>],
) -> Result<(Arc<Table>, Option<Vec<Column>>)> {
    let ctx = ex.ctx();
    let dec = decompose(plan);
    let spans = ChainSpans::open(ctx, &dec, plan);
    let result = execute_decomposed(ex, &dec, plan, extras, &spans);
    spans.close(ctx, result.as_ref().ok().map(|f| f.op_rows.as_slice()));
    let Finished { table, extras, schedule, .. } = result?;
    if let Some(reg) = ctx.metrics() {
        reg.record_pipeline(schedule.morsels() as u64);
    }
    Ok((table, extras))
}

/// The verbose-trace spans of a fused chain's operators. The root's span is
/// the executor's; every chain member below it gets one, opened top-down
/// before anything runs so each nests under the one above it, and the
/// source and each join's build side run with their owning chain span as
/// trace parent — so the span tree has the plan's shape. Empty (and free)
/// unless the statement traces verbosely.
struct ChainSpans {
    /// The trace parent on entry: the root operator's span.
    root: SpanId,
    /// Chain position `i`'s own span; `None` for a table sink's root.
    own: Vec<Option<SpanId>>,
}

impl ChainSpans {
    fn open(ctx: &ExecContext<'_>, dec: &Decomposed<'_>, plan: &LogicalPlan) -> ChainSpans {
        let root = ctx.trace_parent();
        let mut own = Vec::new();
        if let Some(t) = ctx.trace().filter(|_| ctx.trace_verbose()) {
            let mut parent = root;
            for node in &dec.chain {
                let id = (!std::ptr::eq(*node, plan)).then(|| t.begin(parent, &node.node_label()));
                parent = id.unwrap_or(parent);
                own.push(id);
            }
        }
        ChainSpans { root, own }
    }

    /// Run `f` with chain position `pos`'s span as trace parent (`None`:
    /// the innermost, which owns the source).
    fn under<T>(&self, ctx: &ExecContext<'_>, pos: Option<usize>, f: impl FnOnce() -> T) -> T {
        if self.own.is_empty() {
            return f();
        }
        let own = match pos {
            Some(i) => self.own[i],
            None => self.own.last().copied().flatten(),
        };
        let outer = ctx.swap_trace_parent(own.unwrap_or(self.root));
        let result = f();
        ctx.swap_trace_parent(outer);
        result
    }

    /// Close the spans innermost first, with each op's rows on success.
    fn close(&self, ctx: &ExecContext<'_>, op_rows: Option<&[usize]>) {
        for (i, id) in self.own.iter().enumerate().rev() {
            if let Some(id) = id {
                ctx.end_op_span(*id, op_rows.map(|rows| rows[i]));
            }
        }
    }
}

/// [`execute`] body: the source and build sides (breakers), then the
/// morsel loop, in a `pipeline` span that times the loop alone.
fn execute_decomposed(
    ex: &Executor<'_>,
    dec: &Decomposed<'_>,
    plan: &LogicalPlan,
    extras: &[Extra<'_>],
    spans: &ChainSpans,
) -> Result<Finished> {
    let ctx = ex.ctx();
    let source = spans.under(ctx, None, || ex.execute(dec.source))?;
    let pool = Pool::new(ctx.threads());
    let ops = build_fused_ops(ex, dec, spans)?;

    let span = ctx.trace_begin("pipeline");
    let result = run_pipeline(ctx, dec, plan, &source, &ops, &pool, extras);
    if let (Some(t), Some(id)) = (ctx.trace(), span) {
        match &result {
            Ok(Finished { schedule, .. }) => {
                let us = |d: Duration| TraceValue::Int(d.as_micros() as i64);
                t.end_with(
                    id,
                    vec![
                        ("label".to_string(), TraceValue::from(pipeline_label(dec))),
                        ("morsels".to_string(), TraceValue::from(schedule.morsels())),
                        ("workers".to_string(), TraceValue::from(schedule.per_worker.len())),
                        ("min_per_worker".to_string(), TraceValue::from(schedule.min_per_worker())),
                        ("max_per_worker".to_string(), TraceValue::from(schedule.max_per_worker())),
                        ("queue_wait_us".to_string(), us(schedule.queue_wait)),
                        ("queue_wait_max_us".to_string(), us(schedule.queue_wait_max)),
                    ],
                )
            }
            Err(_) => t.end(id),
        }
    }
    result
}

/// The morsel loop over `source` and the morsel-ordered walk into the sink.
fn run_pipeline(
    ctx: &ExecContext<'_>,
    dec: &Decomposed<'_>,
    plan: &LogicalPlan,
    source: &Arc<Table>,
    ops: &[FusedOp<'_>],
    pool: &Pool,
    extras: &[Extra<'_>],
) -> Result<Finished> {
    let params = ctx.params();
    let row_limit = ctx.settings().row_limit;
    let materializing = chain_materializes(&dec.chain);
    let fuse_extras = materializing && matches!(dec.sink, SinkSpec::Table);
    // Rows a LIMIT sink needs before upstream production can stop.
    let limit_target = match &dec.sink {
        SinkSpec::Limit { limit: Some(l), offset } => Some(offset + l),
        _ => None,
    };
    let sunk = AtomicUsize::new(0);

    let (outcomes, schedule) = run_morsels(ctx, pool, source.row_count(), |queue, rows| {
        let (batch, op_rows) = run_chain(source, rows, ops, params)?;
        // Early stops. Both only cut the queue short; the walk below
        // decides, in morsel order, what the morsels that did run mean.
        if let Some(limit) = row_limit {
            for (op, n) in ops.iter().zip(&op_rows) {
                if (op.produced.fetch_add(*n, Ordering::Relaxed) + n) as u64 > limit {
                    queue.stop();
                }
            }
        }
        if let Some(target) = limit_target {
            if sunk.fetch_add(batch.len(), Ordering::Relaxed) + batch.len() >= target {
                queue.stop();
            }
        }
        let mut extra_cols = Vec::new();
        if fuse_extras {
            let Batch::Table(t) = &batch else {
                unreachable!("a materializing chain yields table batches")
            };
            for (e, ty) in extras {
                extra_cols.push(eval_to_column(e, t, &Sel::all(t), params, *ty)?);
            }
        }
        let part = match &dec.sink {
            SinkSpec::Table | SinkSpec::Limit { .. } => Part::Batch(batch),
            SinkSpec::Agg { group, aggs, schema } => {
                let (table, sel) = batch.view(source);
                Part::Agg(aggregate::aggregate_morsel(table, &sel, group, aggs, schema, params)?)
            }
        };
        Ok(MorselOut { part, extras: extra_cols, op_rows })
    })?;

    // The walk: consume outcomes in morsel-index order, exactly as far as a
    // sequential run would have got — up to the first error, the first
    // row-limit violation, or the morsel that satisfies the LIMIT.
    let mut merger = match &dec.sink {
        SinkSpec::Agg { group, aggs, schema } => {
            Some(aggregate::AggMerger::new(aggs, group.len(), schema))
        }
        _ => None,
    };
    let mut batches: Vec<Batch> = Vec::new();
    let mut extra_parts: Vec<Vec<Column>> = Vec::new();
    let mut sunk_rows = 0usize;
    let mut op_rows = vec![0usize; ops.len()];
    for outcome in outcomes {
        if limit_target.is_some_and(|target| sunk_rows >= target) {
            break;
        }
        let out = outcome?;
        for (i, op) in ops.iter().enumerate().rev() {
            op_rows[i] += out.op_rows[i];
            ctx.check_row_limit(op_rows[i], || op.node.node_label())?;
        }
        match (out.part, &mut merger) {
            (Part::Agg(partial), Some(merger)) => merger.push(partial)?,
            (Part::Batch(batch), None) => {
                sunk_rows += batch.len();
                batches.push(batch);
                extra_parts.push(out.extras);
            }
            _ => unreachable!("aggregate sinks fold aggregate partials, the others batches"),
        }
    }

    let mut table = match (&dec.sink, merger) {
        (SinkSpec::Agg { group, schema, .. }, Some(merger)) => {
            merger.finish(group.is_empty(), schema)?
        }
        _ => concat_batches(plan, source, batches, materializing)?,
    };
    if let SinkSpec::Limit { limit, offset } = &dec.sink {
        let n = table.row_count();
        let start = (*offset).min(n);
        let end = limit.map_or(n, |l| (start + l).min(n));
        if start != 0 || end != n {
            table = Arc::new(table.slice_rows(start..end));
        }
    }
    let extras = if fuse_extras {
        let mut cols: Vec<Column> = extras.iter().map(|(_, ty)| Column::empty(*ty)).collect();
        for part in &extra_parts {
            for (c, src) in cols.iter_mut().zip(part) {
                c.extend_from(src).map_err(Error::Storage)?;
            }
        }
        Some(cols)
    } else {
        None
    };
    Ok(Finished { table, extras, op_rows, schedule })
}

/// Instantiate the fused operators for a decomposed chain, executing each
/// join's build (right) side as a breaker under its join's span. Build
/// sides run deepest-join first, after the source.
fn build_fused_ops<'p>(
    ex: &Executor<'_>,
    dec: &Decomposed<'p>,
    spans: &ChainSpans,
) -> Result<Vec<FusedOp<'p>>> {
    let mut ops: Vec<FusedOp<'p>> = Vec::with_capacity(dec.chain.len());
    for (i, &node) in dec.chain.iter().enumerate().rev() {
        let kind = match node {
            LogicalPlan::Filter { predicate, .. } => OpKind::Filter(predicate),
            LogicalPlan::Project { exprs, schema, .. } => OpKind::Project { exprs, schema },
            LogicalPlan::Join { left, right, kind, on, schema } => {
                let built = spans.under(ex.ctx(), Some(i), || ex.execute(right))?;
                let n_left = left.schema().len();
                let probe = JoinProbe::build(built, *kind, on.as_ref(), n_left, ex.ctx().params())?;
                OpKind::Probe { probe: Box::new(probe), schema }
            }
            _ => unreachable!("chain holds fusable ops only"),
        };
        ops.push(FusedOp { node, kind, produced: AtomicUsize::new(0) });
    }
    ops.reverse();
    Ok(ops)
}

/// True when the fused chain changes the row shape (project or probe),
/// i.e. its morsel outputs are materialized tables rather than source-row
/// index sets.
fn chain_materializes(chain: &[&LogicalPlan]) -> bool {
    chain.iter().any(|n| matches!(n, LogicalPlan::Project { .. } | LogicalPlan::Join { .. }))
}

/// Concatenate batches in morsel order. Index batches merge into one
/// gather (with the keep-all fast path returning the source snapshot);
/// table batches splice column-at-a-time.
fn concat_batches(
    plan: &LogicalPlan,
    source: &Arc<Table>,
    batches: Vec<Batch>,
    materializing: bool,
) -> Result<Arc<Table>> {
    if materializing {
        // `Limit::schema()` delegates to its input, so `plan.schema()` is
        // the outermost fused op's output shape for every sink kind.
        let storage = plan.schema().to_storage_schema();
        let mut columns: Vec<Column> =
            storage.columns().iter().map(|d| Column::empty(d.ty)).collect();
        for batch in &batches {
            let Batch::Table(t) = batch else {
                unreachable!("a materializing chain yields table batches")
            };
            for (c, src) in columns.iter_mut().zip(t.columns()) {
                c.extend_from(src).map_err(Error::Storage)?;
            }
        }
        return Table::from_columns(storage, columns).map(Arc::new).map_err(Error::Storage);
    }
    // Index batches: all rows reference the pipeline source.
    let mut indices: Vec<usize> = Vec::new();
    for batch in batches {
        match batch {
            Batch::Range(r) => indices.extend(r),
            Batch::Rows(rows) => indices.extend(rows),
            Batch::Table(_) => unreachable!("a non-materializing chain yields index batches"),
        }
    }
    if indices.len() == source.row_count() {
        // Nothing filtered: reuse the source snapshot.
        return Ok(Arc::clone(source));
    }
    Ok(Arc::new(source.take(&indices)))
}

/// A short human label for the pipeline (`EXPLAIN ANALYZE` detail).
fn pipeline_label(dec: &Decomposed<'_>) -> String {
    let mut parts: Vec<String> = vec![short_label(dec.source)];
    for node in dec.chain.iter().rev() {
        parts.push(short_label(node));
    }
    match dec.sink {
        SinkSpec::Table => {}
        SinkSpec::Limit { .. } => parts.push("limit".to_string()),
        SinkSpec::Agg { .. } => parts.push("aggregate".to_string()),
    }
    parts.join(" -> ")
}

fn short_label(node: &LogicalPlan) -> String {
    match node {
        LogicalPlan::Scan { table, .. } => format!("scan {table}"),
        LogicalPlan::Filter { .. } => "filter".to_string(),
        LogicalPlan::Project { .. } => "project".to_string(),
        LogicalPlan::Join { .. } => "probe".to_string(),
        LogicalPlan::Aggregate { .. } => "aggregate".to_string(),
        other => other.node_label().split_whitespace().next().unwrap_or("op").to_lowercase(),
    }
}

/// `EXPLAIN` rendering with pipeline annotations: members of each pipeline
/// (sink, fused ops, leaf source) carry ` [pipeline N]`; materializing
/// internal nodes carry ` [breaker]`. A graph operator's edge scan that an
/// index in `indexes` serves right now is shown as that index, chosen by
/// the rule the graph operator applies when it runs.
pub fn explain_with_pipelines(plan: &LogicalPlan, indexes: &IndexRegistry) -> String {
    let mut out = String::new();
    let mut next_id = 0usize;
    annotate(plan, indexes, &mut out, 0, &mut next_id);
    out
}

/// A graph operator's edge plan, when an index serves it, with the index's
/// `EXPLAIN` line.
fn served_edge<'p>(
    plan: &'p LogicalPlan,
    indexes: &IndexRegistry,
) -> Option<(&'p LogicalPlan, String)> {
    let (edge, src_key, dst_key, specs) = match plan {
        LogicalPlan::GraphSelect { edge, src_key, dst_key, specs, .. }
        | LogicalPlan::GraphJoin { edge, src_key, dst_key, specs, .. } => {
            (edge.as_ref(), *src_key, *dst_key, specs)
        }
        _ => return None,
    };
    let (table, src, dst) = scanned_edge(edge, src_key, dst_key)?;
    Some((edge, indexes.explain_line(table, src, dst, specs)?))
}

fn annotate(
    plan: &LogicalPlan,
    indexes: &IndexRegistry,
    out: &mut String,
    depth: usize,
    next_id: &mut usize,
) {
    use std::fmt::Write as _;
    if fusable_root(plan) {
        let pid = *next_id;
        *next_id += 1;
        let dec = decompose(plan);
        // Root line (sink or outermost fused op).
        let _ = writeln!(out, "{}{} [pipeline {pid}]", "  ".repeat(depth), plan.node_label());
        let extra = usize::from(!matches!(dec.sink, SinkSpec::Table));
        for (i, node) in dec.chain.iter().enumerate() {
            if std::ptr::eq(*node, plan) {
                continue; // already rendered as the root line
            }
            let d = depth + i + extra;
            let _ = writeln!(out, "{}{} [pipeline {pid}]", "  ".repeat(d), node.node_label());
        }
        let source_depth = depth + dec.chain.len() + extra;
        if dec.source.children().is_empty() {
            let _ = writeln!(
                out,
                "{}{} [pipeline {pid}]",
                "  ".repeat(source_depth),
                dec.source.node_label()
            );
        } else {
            annotate(dec.source, indexes, out, source_depth, next_id);
        }
        // Build sides, deepest join first (execution pre-order).
        for (i, node) in dec.chain.iter().enumerate().rev() {
            if let LogicalPlan::Join { right, .. } = node {
                let d = depth + i + extra + 1;
                annotate(right, indexes, out, d, next_id);
            }
        }
    } else {
        let breaker = matches!(
            plan,
            LogicalPlan::Sort { .. }
                | LogicalPlan::Distinct { .. }
                | LogicalPlan::Union { .. }
                | LogicalPlan::Unnest { .. }
                | LogicalPlan::GraphSelect { .. }
                | LogicalPlan::GraphJoin { .. }
        );
        let suffix = if breaker { " [breaker]" } else { "" };
        let _ = writeln!(out, "{}{}{suffix}", "  ".repeat(depth), plan.node_label());
        let served = served_edge(plan, indexes);
        for child in plan.children() {
            match &served {
                Some((edge, line)) if std::ptr::eq(child, *edge) => {
                    let _ = writeln!(out, "{}{line}", "  ".repeat(depth + 1));
                }
                _ => annotate(child, indexes, out, depth + 1, next_id),
            }
        }
    }
}
