//! Execution of the paper's graph operators.
//!
//! This is the engine-side counterpart of §3.1/§3.2:
//!
//! 1. the edge table expression is materialized;
//! 2. the vertex set `V = S ∪ D` is derived and every vertex value is
//!    translated into the dense domain `H = {0, …, |V|−1}`;
//! 3. a CSR is built over `H` (counting sort + prefix sum);
//! 4. the `X`/`Y` values are mapped into `H` — values that are not vertices
//!    are filtered out ("the values from X and Y are then joined with V,
//!    performing an initial filtering");
//! 5. the external library (gsql-graph, or gsql-accel over a path index)
//!    computes reachability and the requested shortest paths, batching all
//!    pairs with the same source into one traversal. `dispatch` alone
//!    chooses the search and `traverse` runs it once, so several constant
//!    `CHEAPEST SUM`s share one hop traversal;
//! 6. the result set is materialized back: surviving input rows, one cost
//!    column per `CHEAPEST SUM`, and path columns holding row references
//!    into the edge snapshot (§3.3).

use crate::context::ExecContext;
use crate::error::{exec_err, Error};
use crate::exec::executor::Executor;
use crate::exec::expression::{eval_const, eval_to_column, Sel};
use crate::index::{int_slots, AccelIndex, AccelLayer, Served};
use crate::plan::{BoundExpr, CheapestSpec, LogicalPlan, PlanSchema};
use crate::vertex_dict::VertexDict;
use crate::weight_cache::{self, WeightCache};
use gsql_accel::{AltMulti, AltPoint, ChM2m, ChPoint};
use gsql_graph::{
    BidirBfs, Budget, CostValue, Csr, GraphError, PairResult, PreparedWeights, Search,
    SourceSearch, TraversalKind, TraversalObserver, WeightSpec,
};
use gsql_obs::TraceValue;
use gsql_storage::{Column, ColumnBuilder, DataType, PathValue, Table, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

type Result<T> = std::result::Result<T, Error>;

/// A graph materialized from an edge table: the snapshot (for path row
/// references), the CSR, and the value→dense-id dictionary.
///
/// This is also what a `CREATE GRAPH INDEX` caches (paper §6 future work):
/// "these indices will store the full graph, ready to be used when a query
/// matches the edge table that generated the graph". The artifacts are
/// layered — dictionary ⊂ CSR ⊂ reverse CSR ⊂ weight vectors — and the last
/// two are filled in lazily, only on graphs that outlive one statement.
#[derive(Debug)]
pub struct MaterializedGraph {
    /// Edge-table snapshot. Rows with NULL endpoints are excluded, so CSR
    /// edge-row ids index this table directly.
    pub edges: Arc<Table>,
    /// The CSR over dense vertex ids.
    pub csr: Csr,
    /// Vertex value ↔ dense id.
    pub(crate) dict: VertexDict,
    /// Ordinal of the source key column in `edges`.
    pub src_key: usize,
    /// Ordinal of the destination key column in `edges`.
    pub dst_key: usize,
    /// Lazily built reverse CSR, used by the bidirectional-BFS fast path
    /// for indexed single-pair unweighted queries. Building it costs as
    /// much as the forward CSR, so it is only materialized for graphs that
    /// outlive one query (graph indices).
    reverse: std::sync::OnceLock<Csr>,
    /// Prepared `CHEAPEST SUM` weight vectors, see [`WeightCache`]. Like
    /// `reverse`, only used when the graph came from an index.
    weights: WeightCache,
}

impl MaterializedGraph {
    /// Map a vertex value to its dense id, if it is a vertex of the graph
    /// (SQL equality: `Double(3.0)` finds key `3`; NULL finds nothing).
    pub fn lookup(&self, v: &Value) -> Option<u32> {
        self.dict.lookup(v)
    }

    /// The vertex values in dense-id order.
    pub fn vertices(&self) -> Vec<Value> {
        self.dict.values()
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> u32 {
        self.csr.num_vertices()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.csr.num_edges()
    }

    /// The reverse CSR, built on first use and cached for the graph's
    /// lifetime.
    pub fn reverse(&self) -> &Csr {
        self.reverse.get_or_init(|| gsql_graph::reverse_csr(&self.csr))
    }
}

/// The NULL-endpoint filter every materialized graph applies to its edge
/// snapshot: `edges` itself when no endpoint is NULL.
fn null_filtered_edges(edges: Arc<Table>, src_key: usize, dst_key: usize) -> Arc<Table> {
    let src_col = edges.column(src_key);
    let dst_col = edges.column(dst_key);
    if src_col.null_count() == 0 && dst_col.null_count() == 0 {
        return edges;
    }
    let keep: Vec<usize> =
        (0..edges.row_count()).filter(|&i| !src_col.is_null(i) && !dst_col.is_null(i)).collect();
    Arc::new(edges.take(&keep))
}

/// Build a [`MaterializedGraph`] from a materialized edge table.
///
/// This is the construction cost that the paper's evaluation shows
/// dominating single-pair query latency (§4) and that batching (Fig. 1b)
/// and graph indices (§6) amortize: encode the key columns through the
/// vertex dictionary (dense ids in first-seen order), then one sequential
/// counting sort over ids that are in range by construction.
pub fn build_graph(edges: Arc<Table>, src_key: usize, dst_key: usize) -> Result<MaterializedGraph> {
    grow_graph(None, edges, src_key, dst_key)
}

/// The graph of `edges`, built from nothing or extended from `base`: a
/// graph over the same key columns of an earlier version of the same table,
/// which has only had rows appended since. An extension interns only the
/// appended rows and grows both CSRs by one merge pass — the reverse CSR
/// only if `base` had built one — and starts an empty weight cache. Row
/// ids, dictionary ids and every slot are those of a build from nothing
/// ([`VertexDict::intern_rows`], [`Csr::appended`]), so what the graph
/// answers, and what a checkpoint persists of it, cannot tell the two
/// apart.
pub(crate) fn grow_graph(
    base: Option<&MaterializedGraph>,
    edges: Arc<Table>,
    src_key: usize,
    dst_key: usize,
) -> Result<MaterializedGraph> {
    // Exclude edges with NULL endpoints so the snapshot's row ids equal the
    // CSR's edge-row ids.
    let edges = null_filtered_edges(edges, src_key, dst_key);
    // Vertex ids and edge-row ids are u32 throughout the graph library.
    if edges.row_count() > (u32::MAX / 2) as usize {
        return Err(exec_err!(
            "edge table has {} rows; a graph holds at most {}",
            edges.row_count(),
            u32::MAX / 2
        ));
    }
    let (src, dst) = (edges.column(src_key), edges.column(dst_key));
    let empty = Csr::default();
    let (mut dict, csr, reverse) = match base {
        Some(base) => {
            debug_assert!((base.src_key, base.dst_key) == (src_key, dst_key));
            debug_assert!(base.edges.row_count() <= edges.row_count(), "a table that grew");
            (base.dict.clone(), &base.csr, base.reverse.get())
        }
        None => (VertexDict::new(src, dst), &empty, None),
    };
    let appended = csr.num_edges()..edges.row_count();
    let (src_ids, dst_ids) = dict.intern_rows(src, dst, appended);
    let n = dict.len() as u32;
    let csr = csr.appended(n, &src_ids, &dst_ids);
    let slot = std::sync::OnceLock::new();
    if let Some(reverse) = reverse {
        let _ = slot.set(reverse.appended_reverse(n, &src_ids, &dst_ids));
    }
    let weights = WeightCache::default();
    Ok(MaterializedGraph { edges, csr, dict, src_key, dst_key, reverse: slot, weights })
}

/// Alias of [`build_graph`], kept for the committed benchmark, which
/// compiles against this name. The width is ignored: the chunk-parallel
/// counting sort it used to select did not beat the sequential one on any
/// benchmark workload (4.3 vs 2.8 ms at SNB SF 1's 362 k edges on two
/// threads, 193 vs 167 ms at 8.4 M edges; README, "Graph construction") and
/// was deleted.
pub fn build_graph_with_threads(
    edges: Arc<Table>,
    src_key: usize,
    dst_key: usize,
    _threads: usize,
) -> Result<MaterializedGraph> {
    build_graph(edges, src_key, dst_key)
}

/// Who asked for a graph build — the `source` label of
/// `gsql_graph_builds_total` and of the `graph_build` span, unless the
/// build extended an older graph, which is labelled `extension` whoever
/// asked.
#[derive(Debug, Clone, Copy)]
pub(crate) enum BuildSource {
    /// An unindexed statement building its own graph.
    Statement,
    /// `CREATE GRAPH INDEX` or a lazy graph-index rebuild.
    GraphIndex,
    /// `CREATE PATH INDEX` or a lazy path-index rebuild.
    PathIndex,
}

impl BuildSource {
    fn as_str(self) -> &'static str {
        match self {
            BuildSource::Statement => "statement",
            BuildSource::GraphIndex => "graph_index",
            BuildSource::PathIndex => "path_index",
        }
    }
}

/// [`grow_graph`], made visible: a `graph_build` span under the current
/// trace parent (which `EXPLAIN ANALYZE` prints as the graph operator's
/// `graph build: …` note) carrying the rows an extension `appended` (0 for
/// a build from nothing), plus the build counter and duration histogram.
/// Every build the engine runs goes through here.
pub(crate) fn build_graph_observed(
    ctx: &ExecContext<'_>,
    source: BuildSource,
    base: Option<&MaterializedGraph>,
    edges: Arc<Table>,
    src_key: usize,
    dst_key: usize,
) -> Result<MaterializedGraph> {
    let span = ctx.trace_begin("graph_build");
    let t0 = Instant::now();
    let result = grow_graph(base, edges, src_key, dst_key);
    let source = if base.is_some() { "extension" } else { source.as_str() };
    if let Some(m) = ctx.metrics() {
        m.record_graph_build(source, t0.elapsed().as_micros() as u64);
    }
    if let (Some(t), Some(id)) = (ctx.trace(), span) {
        let mut attrs = vec![("source".to_string(), TraceValue::from(source))];
        if let Ok(graph) = &result {
            let appended = base.map_or(0, |base| graph.num_edges() - base.num_edges());
            attrs.push(("edges".to_string(), TraceValue::from(graph.num_edges())));
            attrs.push(("vertices".to_string(), TraceValue::from(graph.num_vertices() as usize)));
            attrs.push(("dict".to_string(), TraceValue::from(graph.dict.kind())));
            attrs.push(("appended".to_string(), TraceValue::from(appended)));
        }
        t.end_with(id, attrs);
    }
    result
}

/// The scale of a constant-weight spec, or `None` for per-edge weights —
/// the one validation of a constant `CHEAPEST SUM` weight (strictly
/// positive and finite). A constant spec runs as a hop search whose count
/// is scaled; `CHEAPEST SUM(1)` is the paper's unweighted shortest path.
fn hop_scale(spec: &CheapestSpec, params: &[Value]) -> Result<Option<Value>> {
    if !spec.weight.is_constant() {
        return Ok(None);
    }
    let v = eval_const(&spec.weight, params)?;
    let positive = match &v {
        Value::Int(x) => *x > 0,
        Value::Double(x) => *x > 0.0 && x.is_finite(),
        _ => false,
    };
    if !positive {
        return Err(Error::Graph(GraphError::NonPositiveWeight {
            edge_row: 0,
            weight: v.to_string(),
        }));
    }
    Ok(Some(v))
}

/// The per-edge weights of `spec` over the graph's edge snapshot, in CSR
/// slot order, recorded as a `weights` span (the `weights: …` note of
/// `EXPLAIN ANALYZE`).
fn prepare_weights(
    spec: &CheapestSpec,
    graph: &MaterializedGraph,
    ctx: &ExecContext<'_>,
    from_index: bool,
) -> Result<Arc<PreparedWeights>> {
    let span = ctx.trace_begin("weights");
    let result = slot_weights(&spec.weight, graph, ctx, from_index, || {
        let weights = edge_weights(&spec.weight, spec.weight_ty, graph, ctx)?;
        PreparedWeights::new(&graph.csr, &weights, ctx.threads()).map_err(Error::Graph)
    });
    let cached = matches!(result, Ok((_, true)));
    if let (Some(t), Some(id)) = (ctx.trace(), span) {
        t.end_with(
            id,
            vec![
                ("cached".to_string(), TraceValue::from(if cached { "true" } else { "false" })),
                ("edges".to_string(), TraceValue::from(graph.num_edges())),
            ],
        );
    }
    result.map(|(weights, _)| weights)
}

/// The weights of `expr` in `graph`'s CSR slot order, and whether they
/// came from the graph's weight cache — what a weighted `CHEAPEST SUM` and
/// a path index's layer read.
///
/// Only graphs that outlive the statement (`from_index`) consult the cache;
/// an ad-hoc graph dies with its statement, so caching on it would be a
/// copy nobody reads. On a miss the weights are `gather`ed — any failure is
/// returned and nothing is stored, so it repeats on the next statement
/// exactly as it did before there was a cache.
pub(crate) fn slot_weights(
    expr: &BoundExpr,
    graph: &MaterializedGraph,
    ctx: &ExecContext<'_>,
    from_index: bool,
    gather: impl FnOnce() -> Result<PreparedWeights>,
) -> Result<(Arc<PreparedWeights>, bool)> {
    let key = if from_index { weight_cache::constants(expr, ctx.params()) } else { None };
    if let Some(constants) = &key {
        let hit = graph.weights.get(expr, constants);
        if let Some(m) = ctx.metrics() {
            m.record_weight_cache(hit.is_some());
        }
        if let Some(weights) = hit {
            return Ok((weights, true));
        }
    }
    let weights = Arc::new(gather()?);
    if let Some(constants) = &key {
        let metrics = ctx.metrics().map(Arc::as_ref);
        graph.weights.insert(expr, constants, Arc::clone(&weights), metrics);
    }
    Ok((weights, false))
}

/// `expr`, of type `ty`, evaluated over every edge of `graph` and
/// NULL-checked, in edge-row order: what [`PreparedWeights::new`] validates
/// strictly positive and gathers into the slot order of `graph`'s CSR or
/// its reverse. Every slot-weight vector the engine holds comes from there.
pub(crate) fn edge_weights(
    expr: &BoundExpr,
    ty: DataType,
    graph: &MaterializedGraph,
    ctx: &ExecContext<'_>,
) -> Result<WeightSpec> {
    let edges = &graph.edges;
    let col = eval_to_column(expr, edges, &Sel::all(edges), ctx.params(), ty)?;
    if col.null_count() > 0 {
        let row = (0..col.len()).find(|&i| col.is_null(i)).expect("a NULL was counted");
        return Err(Error::Graph(GraphError::NullWeight { edge_row: row as u32 }));
    }
    // The evaluated column's buffer moves into the spec: no second copy.
    match col {
        Column::Int(vals, _) => Ok(WeightSpec::Int(vals)),
        Column::Double(vals, _) => Ok(WeightSpec::Float(vals)),
        other => Err(exec_err!("CHEAPEST SUM weight must be numeric, found {}", other.data_type())),
    }
}

/// Bridges every search's reports onto the engine metrics registry and
/// the statement's `traversal` span, while accumulating totals for that
/// span. Called from the traversal worker pool, so the totals are relaxed
/// atomics — nothing here influences results.
struct MetricsObserver<'c> {
    ctx: &'c ExecContext<'c>,
    traversals: AtomicU64,
    settled: AtomicU64,
}

impl<'c> MetricsObserver<'c> {
    fn new(ctx: &'c ExecContext<'c>) -> MetricsObserver<'c> {
        MetricsObserver { ctx, traversals: AtomicU64::new(0), settled: AtomicU64::new(0) }
    }

    fn totals(&self) -> (u64, u64) {
        (self.traversals.load(Ordering::Relaxed), self.settled.load(Ordering::Relaxed))
    }
}

impl TraversalObserver for MetricsObserver<'_> {
    fn traversal(&self, kind: TraversalKind, settled: usize) {
        if let Some(m) = self.ctx.metrics() {
            m.record_traversal(kind.as_str(), settled as u64);
        }
        self.traversals.fetch_add(1, Ordering::Relaxed);
        self.settled.fetch_add(settled as u64, Ordering::Relaxed);
    }

    fn shape(&self, key: &'static str, value: usize) {
        self.ctx.trace_attr(key, TraceValue::from(value));
    }
}

/// How one spec reads its answers over a batch of pairs: its own Dijkstra
/// run, or (`own` is `None`) the route's shared run, scaled at read time by
/// a constant weight's `scale`.
struct SpecResults {
    own: Option<Vec<PairResult>>,
    scale: Option<Value>,
    want_path: bool,
    cost_ty: DataType,
}

impl SpecResults {
    fn cost_of(&self, r: &PairResult) -> Result<Value> {
        let raw = r.cost.ok_or_else(|| exec_err!("cost requested for unreachable pair"))?;
        let v = match (&self.scale, raw) {
            (None, CostValue::Int(c)) => Value::Int(c),
            (None, CostValue::Float(c)) => Value::Double(c),
            (Some(Value::Int(k)), CostValue::Int(hops)) => {
                Value::Int(hops.checked_mul(*k).ok_or(Error::Graph(GraphError::CostOverflow))?)
            }
            (Some(Value::Double(k)), CostValue::Int(hops)) => match hops as f64 * k {
                c if c < f64::MAX => Value::Double(c),
                _ => return Err(Error::Graph(GraphError::CostOverflow)),
            },
            (Some(s), c) => {
                return Err(exec_err!("inconsistent scale {s} for cost {c:?}"));
            }
        };
        // Respect the declared cost type (e.g. `CHEAPEST SUM(1.5)` is
        // Double even though hops are integers).
        match (self.cost_ty, v) {
            (DataType::Double, Value::Int(x)) => Ok(Value::Double(x as f64)),
            (_, v) => Ok(v),
        }
    }

    fn path_of(&self, r: &PairResult, edges: &Arc<Table>) -> Result<Value> {
        let rows = r.path.clone().ok_or_else(|| exec_err!("path requested but not computed"))?;
        Ok(Value::Path(PathValue { edges: Arc::clone(edges), rows }))
    }
}

/// What answers a graph operator's pairs, as [`dispatch`] chose it: one
/// run of `search` answers the bare reachability probe and every constant
/// spec — every spec when `per_edge` (an acceleration layer covers them
/// all) — and each other spec runs its own Dijkstra over its weights.
pub(crate) struct Route<'a> {
    pub search: Box<dyn Search + 'a>,
    pub per_edge: bool,
    /// The kind and reason the `traversal` span reports.
    pub kind: TraversalKind,
    pub reason: &'static str,
}

/// The traversal dispatcher, the one place that decides what answers a
/// graph operator: the [`Route`] for `pairs` pairs and `specs` over the
/// graph `served`, which came from an index or not, with an acceleration
/// layer attached or not (a served layer covers every spec). The first
/// matching rule wins:
///
/// | shape | search | kind | reason |
/// | --- | --- | --- | --- |
/// | a CH layer, one pair | CH point search | `ch` | path index covers every spec |
/// | an ALT layer, one pair with a per-edge weight | ALT point search | `alt` | path index covers every spec |
/// | a layer, more pairs | accelerated many-to-many | `alt-multi` / `ch-m2m` | path index covers every spec |
/// | a spec has per-edge weights | Dijkstra for each such spec; the others by the rules below | `dijkstra` | per-edge weights |
/// | indexed graph, one pair | bidirectional BFS | `bidir-bfs` | indexed single pair, hop weights |
/// | indexed graph, other pair counts | BFS per source | `bfs` | pair batch, hop weights |
/// | graph built for this statement | BFS per source | `bfs` | ad-hoc graph, hop weights |
///
/// A layer covers a spec that asks for no path and whose weight is a
/// constant over a hop index, or the index's own weight column. One pair
/// whose specs are all constant (or absent) skips an ALT layer:
/// bidirectional BFS settles a few vertices where ALT's bound evaluation
/// costs more than it prunes. No pair at all skips any layer.
pub(crate) fn dispatch<'a>(served: &'a Served, pairs: usize, specs: &[CheapestSpec]) -> Route<'a> {
    let hop_point = pairs == 1 && specs.iter().all(|s| s.weight.is_constant());
    let skip_alt = |l: &&AccelLayer| hop_point && matches!(l.accel, AccelIndex::Alt(_));
    if let Some(layer) = served.layer.as_deref().filter(|l| pairs > 0 && !skip_alt(l)) {
        let (forward, backward) = (&layer.graph.csr, layer.graph.reverse());
        let weights = int_slots(&layer.weights);
        let (search, kind): (Box<dyn Search>, _) = match (&layer.accel, pairs == 1) {
            (AccelIndex::Alt(landmarks), true) => {
                (Box::new(AltPoint { forward, backward, weights, landmarks }), TraversalKind::Alt)
            }
            (AccelIndex::Ch(ch), true) => (Box::new(ChPoint(ch)), TraversalKind::Ch),
            (AccelIndex::Alt(landmarks), false) => {
                let weights = weights.map(|(f, _)| f);
                (Box::new(AltMulti { forward, weights, landmarks }), TraversalKind::AltMulti)
            }
            (AccelIndex::Ch(ch), false) => (Box::new(ChM2m(ch)), TraversalKind::ChM2m),
        };
        return Route { search, per_edge: true, kind, reason: "path index covers every spec" };
    }
    let (graph, from_index) = (&*served.graph, served.index.is_some());
    let bidir = from_index && pairs == 1;
    let search: Box<dyn Search> = if bidir {
        Box::new(BidirBfs { forward: &graph.csr, backward: graph.reverse() })
    } else {
        Box::new(SourceSearch::bfs(&graph.csr))
    };
    let (kind, reason) = if specs.iter().any(|s| !s.weight.is_constant()) {
        (TraversalKind::Dijkstra, "per-edge weights")
    } else if bidir {
        (TraversalKind::BidirBfs, "indexed single pair, hop weights")
    } else if from_index {
        (TraversalKind::Bfs, "pair batch, hop weights")
    } else {
        (TraversalKind::Bfs, "ad-hoc graph, hop weights")
    };
    Route { search, per_edge: false, kind, reason }
}

/// Run the [`Route`] [`dispatch`] picks over a pair batch — the one
/// traversal entry point. Once every constant weight is validated, the
/// route's search runs at most once, for the bare reachability probe
/// (paper §3.2) and every spec it covers, with paths if any of them asks;
/// only a per-edge spec it does not cover runs its own Dijkstra. The work
/// runs in one `traversal` span (a `weights` span nests under it) carrying
/// the kind, the reason and the serving index, and every search reports to
/// one [`MetricsObserver`] through its [`Budget`]: the context's width
/// (results in input order, identical to sequential) and the statement
/// deadline, polled between per-vertex searches.
fn traverse(
    ctx: &ExecContext<'_>,
    served: &Served,
    pairs: &[(u32, u32)],
    specs: &[CheapestSpec],
) -> Result<(Vec<bool>, Vec<PairResult>, Vec<SpecResults>)> {
    let (graph, from_index) = (&*served.graph, served.index.is_some());
    let route = dispatch(served, pairs.len(), specs);
    let observer = MetricsObserver::new(ctx);
    let budget = Budget {
        threads: ctx.threads(),
        deadline: ctx.deadline_instant(),
        observer: Some(&observer),
    };
    let run = |search: &dyn Search, want_path| {
        search.run(pairs, &budget, want_path).map_err(|e| graph_err(ctx, e))
    };
    let span = ctx.trace_begin("traversal").map(|id| (id, ctx.swap_trace_parent(id)));
    let result = (|| {
        for spec in specs {
            hop_scale(spec, ctx.params())?;
        }
        let shares = |spec: &CheapestSpec| route.per_edge || spec.weight.is_constant();
        let shared = if specs.is_empty() || specs.iter().any(shares) {
            let want_path = specs.iter().any(|s| shares(s) && s.want_path);
            Some(run(&*route.search, want_path)?)
        } else {
            None
        };
        let mut all = Vec::with_capacity(specs.len());
        for spec in specs {
            let own = if shares(spec) {
                None
            } else {
                let weights = prepare_weights(spec, graph, ctx, from_index)?;
                Some(run(&SourceSearch::new(&graph.csr, &weights), spec.want_path)?)
            };
            let (scale, want_path, cost_ty) =
                (hop_scale(spec, ctx.params())?, spec.want_path, spec.weight_ty);
            all.push(SpecResults { own, scale, want_path, cost_ty });
        }
        // Reachability is weight-independent (all weights finite and
        // positive), so the first answer's flags select the surviving rows.
        let first = shared.as_ref().or_else(|| all[0].own.as_ref()).expect("a search ran");
        Ok((first.iter().map(|r| r.reachable).collect(), shared.unwrap_or_default(), all))
    })();
    if let (Some(t), Some((id, outer))) = (ctx.trace(), span) {
        ctx.swap_trace_parent(outer);
        let (traversals, settled) = observer.totals();
        let mut attrs = vec![
            ("kind".to_string(), TraceValue::from(route.kind.as_str())),
            ("reason".to_string(), TraceValue::from(route.reason)),
            ("pairs".to_string(), TraceValue::from(pairs.len() as i64)),
            ("traversals".to_string(), TraceValue::from(traversals as i64)),
            ("settled".to_string(), TraceValue::from(settled as i64)),
        ];
        if let Some(index) = &served.index {
            attrs.push(("index".to_string(), TraceValue::from(index.as_str())));
        }
        t.end_with(id, attrs);
    }
    result
}

/// Lift a graph-runtime error: an abandoned-deadline batch or build
/// becomes the statement's [`Error::Timeout`]; everything else stays a
/// graph error.
pub(crate) fn graph_err(ctx: &ExecContext<'_>, e: GraphError) -> Error {
    match e {
        GraphError::DeadlineExceeded => ctx.timeout_error(),
        other => Error::Graph(other),
    }
}

/// Execute a `GraphSelect` or `GraphJoin` node.
pub fn execute(ex: &Executor<'_>, plan: &LogicalPlan) -> Result<Arc<Table>> {
    match plan {
        LogicalPlan::GraphSelect { input, edge, src_key, dst_key, source, dest, specs, schema } => {
            execute_graph_select(ex, input, edge, *src_key, *dst_key, source, dest, specs, schema)
        }
        LogicalPlan::GraphJoin {
            left,
            right,
            edge,
            src_key,
            dst_key,
            source,
            dest,
            specs,
            schema,
        } => execute_graph_join(
            ex, left, right, edge, *src_key, *dst_key, source, dest, specs, schema,
        ),
        other => Err(exec_err!("graph_op::execute on non-graph node {other:?}")),
    }
}

/// The `(table, src, dst)` of an edge plan an index may serve: a bare scan
/// of a base table.
pub(crate) fn scanned_edge(
    edge: &LogicalPlan,
    src_key: usize,
    dst_key: usize,
) -> Option<(&str, &str, &str)> {
    let LogicalPlan::Scan { table, schema } = edge else {
        return None;
    };
    Some((table, &schema.column(src_key).name, &schema.column(dst_key).name))
}

/// The graph of an edge plan: served by the index the registry selects for
/// an edge scan when one exists now — with the acceleration layer of a path
/// index that covers every spec — otherwise built from the executed edge
/// plan.
fn obtain_graph(
    ex: &Executor<'_>,
    edge: &LogicalPlan,
    src_key: usize,
    dst_key: usize,
    specs: &[CheapestSpec],
) -> Result<Served> {
    let ctx = ex.ctx();
    if let (Some(registry), Some((table, src, dst))) =
        (ctx.indexes(), scanned_edge(edge, src_key, dst_key))
    {
        if let Some(served) = registry.serve(ctx, table, src, dst, specs)? {
            return Ok(served);
        }
    }
    let edges = ex.execute(edge)?;
    let graph = build_graph_observed(ctx, BuildSource::Statement, None, edges, src_key, dst_key)?;
    Ok(Served { graph: Arc::new(graph), layer: None, index: None })
}

#[allow(clippy::too_many_arguments)]
fn execute_graph_select(
    ex: &Executor<'_>,
    input: &LogicalPlan,
    edge: &LogicalPlan,
    src_key: usize,
    dst_key: usize,
    source: &BoundExpr,
    dest: &BoundExpr,
    specs: &[CheapestSpec],
    schema: &PlanSchema,
) -> Result<Arc<Table>> {
    // The graph comes first because the vertex expressions X/Y are typed by
    // the edge key. They are evaluated together with the input — per morsel
    // inside the input's own fused pass when it is a pipeline, so no second
    // full-table expression sweep runs over an intermediate table — and
    // then mapped into the dense domain, dropping rows whose endpoints are
    // not vertices (the "initial filtering" of §3.1).
    let served = obtain_graph(ex, edge, src_key, dst_key, specs)?;
    let graph = &served.graph;
    let key_ty = graph.edges.schema().column(src_key).ty;
    let (input_table, mut cols) =
        ex.execute_with_extras(input, &[(source, key_ty), (dest, key_ty)])?;
    let y_col = cols.pop().expect("two extra columns");
    let x_col = cols.pop().expect("two extra columns");
    let mut candidates: Vec<usize> = Vec::new();
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    for row in 0..input_table.row_count() {
        let (Some(sid), Some(did)) = (graph.lookup(&x_col.get(row)), graph.lookup(&y_col.get(row)))
        else {
            continue;
        };
        candidates.push(row);
        pairs.push((sid, did));
    }
    let (reachable, shared, spec_results) = traverse(ex.ctx(), &served, &pairs, specs)?;

    let kept: Vec<usize> = (0..pairs.len()).filter(|&i| reachable[i]).collect();
    let kept_input_rows: Vec<usize> = kept.iter().map(|&i| candidates[i]).collect();

    let mut columns: Vec<Column> =
        input_table.columns().iter().map(|c| c.take(&kept_input_rows)).collect();
    append_spec_columns(&mut columns, &shared, &spec_results, &kept, &graph.edges)?;
    output_table(schema, columns, kept.len())
}

#[allow(clippy::too_many_arguments)]
fn execute_graph_join(
    ex: &Executor<'_>,
    left: &LogicalPlan,
    right: &LogicalPlan,
    edge: &LogicalPlan,
    src_key: usize,
    dst_key: usize,
    source: &BoundExpr,
    dest: &BoundExpr,
    specs: &[CheapestSpec],
    schema: &PlanSchema,
) -> Result<Arc<Table>> {
    // GraphJoin is the batched many-to-many shape: the pairs are the whole
    // distinct-source × distinct-dest matrix. Each side evaluates its vertex
    // expression along with its rows (see `execute_graph_select`).
    let served = obtain_graph(ex, edge, src_key, dst_key, specs)?;
    let graph = &served.graph;
    let key_ty = graph.edges.schema().column(src_key).ty;
    let (left_table, mut x_cols) = ex.execute_with_extras(left, &[(source, key_ty)])?;
    let (right_table, mut y_cols) = ex.execute_with_extras(right, &[(dest, key_ty)])?;
    let x_col = x_cols.pop().expect("one extra column");
    let y_col = y_cols.pop().expect("one extra column");

    // Distinct vertex ids on each side, with their row lists.
    let mut left_ids: Vec<(usize, u32)> = Vec::new();
    for row in 0..left_table.row_count() {
        if let Some(sid) = graph.lookup(&x_col.get(row)) {
            left_ids.push((row, sid));
        }
    }
    let mut right_ids: Vec<(usize, u32)> = Vec::new();
    for row in 0..right_table.row_count() {
        if let Some(did) = graph.lookup(&y_col.get(row)) {
            right_ids.push((row, did));
        }
    }
    let mut distinct_src: Vec<u32> = left_ids.iter().map(|&(_, s)| s).collect();
    distinct_src.sort_unstable();
    distinct_src.dedup();
    let mut distinct_dst: Vec<u32> = right_ids.iter().map(|&(_, d)| d).collect();
    distinct_dst.sort_unstable();
    distinct_dst.dedup();

    // One traversal per distinct source over all distinct destinations.
    let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(distinct_src.len() * distinct_dst.len());
    for &s in &distinct_src {
        for &d in &distinct_dst {
            pairs.push((s, d));
        }
    }
    let (reachable, shared, spec_results) = traverse(ex.ctx(), &served, &pairs, specs)?;
    // `pairs` is the row-major product of two sorted, deduplicated arrays,
    // so a pair's position is its endpoints' ranks.
    let rank = |ids: &[u32], id: u32| ids.binary_search(&id).expect("id collected above");
    let right_ranks: Vec<usize> =
        right_ids.iter().map(|&(_, did)| rank(&distinct_dst, did)).collect();

    // Emit matching (left row, right row) pairs.
    let mut left_rows: Vec<usize> = Vec::new();
    let mut right_rows: Vec<usize> = Vec::new();
    let mut kept_pairs: Vec<usize> = Vec::new();
    for &(li, sid) in &left_ids {
        let row_base = rank(&distinct_src, sid) * distinct_dst.len();
        for (&(ri, _), &dst_rank) in right_ids.iter().zip(&right_ranks) {
            let pi = row_base + dst_rank;
            if reachable[pi] {
                left_rows.push(li);
                right_rows.push(ri);
                kept_pairs.push(pi);
            }
        }
    }

    let mut columns: Vec<Column> =
        left_table.columns().iter().map(|c| c.take(&left_rows)).collect();
    columns.extend(right_table.columns().iter().map(|c| c.take(&right_rows)));
    append_spec_columns(&mut columns, &shared, &spec_results, &kept_pairs, &graph.edges)?;
    output_table(schema, columns, kept_pairs.len())
}

/// The operator's result table of `rows` rows. Without any column — a bare
/// `SELECT 1 WHERE x REACHES y …` over no input columns — the row count is
/// all the answer there is, and is set explicitly.
fn output_table(schema: &PlanSchema, columns: Vec<Column>, rows: usize) -> Result<Arc<Table>> {
    let schema = schema.to_storage_schema();
    if columns.is_empty() {
        return Ok(Arc::new(Table::empty(schema).take(&vec![0; rows])));
    }
    Table::from_columns(schema, columns).map(Arc::new).map_err(Error::Storage)
}

/// Append the cost (and path) columns for every spec, read off its own run
/// or the `shared` one.
fn append_spec_columns(
    columns: &mut Vec<Column>,
    shared: &[PairResult],
    spec_results: &[SpecResults],
    kept_pairs: &[usize],
    edges: &Arc<Table>,
) -> Result<()> {
    for sr in spec_results {
        let results = sr.own.as_deref().unwrap_or(shared);
        let mut cost_builder = ColumnBuilder::new(sr.cost_ty);
        for &pi in kept_pairs {
            cost_builder.push(sr.cost_of(&results[pi])?).map_err(Error::Storage)?;
        }
        columns.push(cost_builder.finish());
        if sr.want_path {
            let mut path_builder = ColumnBuilder::new(DataType::Path);
            for &pi in kept_pairs {
                path_builder.push(sr.path_of(&results[pi], edges)?).map_err(Error::Storage)?;
            }
            columns.push(path_builder.finish());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsql_graph::BatchComputer;
    use gsql_storage::{ColumnDef, Schema};

    /// `EngineMetrics::record_traversal` drops labels it does not know, so
    /// the kind the engine passes around must map onto the metric labels
    /// one for one, in order.
    #[test]
    fn traversal_kinds_are_the_metric_labels() {
        let labels: Vec<&str> = TraversalKind::ALL.iter().map(|k| k.as_str()).collect();
        assert_eq!(labels, gsql_obs::ACCEL_KINDS);
    }

    fn edge_table() -> Arc<Table> {
        let mut t = Table::empty(Schema::new(vec![
            ColumnDef::new("src", DataType::Int),
            ColumnDef::new("dst", DataType::Int),
            ColumnDef::new("w", DataType::Int),
        ]));
        // 10 -> 20 -> 30, plus 10 -> 30 expensive direct edge
        for (s, d, w) in [(10, 20, 1), (20, 30, 1), (10, 30, 5)] {
            t.append_row(vec![Value::Int(s), Value::Int(d), Value::Int(w)]).unwrap();
        }
        t.append_row(vec![Value::Null, Value::Int(99), Value::Int(1)]).unwrap(); // NULL endpoint: must be dropped
        Arc::new(t)
    }

    /// An extension grows the reverse CSR only when the old graph had
    /// built one.
    #[test]
    fn an_extension_carries_the_reverse_csr_it_finds() {
        let table = |rows: &[(i64, i64)]| {
            let schema = Schema::new(vec![
                ColumnDef::not_null("s", DataType::Int),
                ColumnDef::not_null("d", DataType::Int),
            ]);
            let mut t = Table::empty(schema);
            t.append_rows(rows.iter().map(|&(s, d)| vec![Value::Int(s), Value::Int(d)]).collect())
                .unwrap();
            Arc::new(t)
        };
        let (old, new) = ([(1, 2), (2, 3)], [(1, 2), (2, 3), (3, 1), (7, 1)]);
        let base = build_graph(table(&old), 0, 1).unwrap();
        let grown = grow_graph(Some(&base), table(&new), 0, 1).unwrap();
        assert!(grown.reverse.get().is_none());
        base.reverse();
        let grown = grow_graph(Some(&base), table(&new), 0, 1).unwrap();
        let built = build_graph(table(&new), 0, 1).unwrap();
        assert_eq!(grown.reverse.get(), Some(built.reverse()));
        assert_eq!((&grown.csr, grown.vertices()), (&built.csr, built.vertices()));
    }

    #[test]
    fn build_graph_maps_values_and_drops_null_edges() {
        let g = build_graph(edge_table(), 0, 1).unwrap();
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_vertices(), 3); // 10, 20, 30 (99 row dropped)
        assert!(g.lookup(&Value::Int(10)).is_some());
        assert!(g.lookup(&Value::Int(99)).is_none());
        assert!(g.lookup(&Value::Null).is_none());
        // Snapshot excludes the NULL row so row ids line up with the CSR.
        assert_eq!(g.edges.row_count(), 3);
    }

    #[test]
    fn dictionary_round_trips_through_csr() {
        let g = build_graph(edge_table(), 0, 1).unwrap();
        let s10 = g.lookup(&Value::Int(10)).unwrap();
        let s30 = g.lookup(&Value::Int(30)).unwrap();
        let computer = BatchComputer::new(&g.csr);
        let r = computer.compute(&[(s10, s30)], &WeightSpec::Unweighted, true).unwrap().remove(0);
        assert!(r.reachable);
        assert_eq!(r.cost.unwrap().as_f64(), 1.0); // direct hop 10->30
    }

    #[test]
    fn weighted_cheapest_avoids_expensive_edge() {
        let g = build_graph(edge_table(), 0, 1).unwrap();
        let s10 = g.lookup(&Value::Int(10)).unwrap();
        let s30 = g.lookup(&Value::Int(30)).unwrap();
        let weights: Vec<i64> = vec![1, 1, 5];
        let computer = BatchComputer::new(&g.csr);
        let r = computer.compute(&[(s10, s30)], &WeightSpec::Int(weights), true).unwrap().remove(0);
        assert_eq!(r.cost.unwrap().as_f64(), 2.0); // via 20
        assert_eq!(r.path.unwrap(), vec![0, 1]); // snapshot row ids
    }
}
