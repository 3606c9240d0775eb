//! Edge indexes — the paper's §6 future work, as layers on one shared
//! graph snapshot.
//!
//! > "We are investigating how to expand our system with the option of
//! > creating special 'graph' indices. These indices will store the full
//! > graph, ready to be used when a query matches the edge table that
//! > generated the graph. Nevertheless, they also need to be amenable to
//! > the updates on the underlying tables."
//!
//! One registry holds both DDL forms. Each entry is a definition — the edge
//! configuration `(table, src, dst)` — plus, for a path index, an
//! acceleration layer `(weight column, LANDMARKS(k) | CONTRACTION)`:
//!
//! * `CREATE GRAPH INDEX name ON t EDGE (s, d)` keeps the
//!   [`MaterializedGraph`] of its edge configuration: dictionary ⊂ CSR ⊂
//!   reverse CSR ⊂ weight vectors (`crate::weight_cache`);
//! * `CREATE PATH INDEX name ON t EDGE (s, d) [WEIGHT w] USING
//!   {LANDMARKS(k) | CONTRACTION}` adds one acceleration layer over that same
//!   graph — landmark distances for goal-directed bidirectional A\* (ALT),
//!   or a contraction hierarchy for bidirectional upward Dijkstra with
//!   stall-on-demand. Both answer with costs bit-identical to plain
//!   Dijkstra.
//!
//! Every entry over one edge configuration shares one graph per table
//! version, so a graph index and a path index over the same edges cost one
//! build and share one weight cache. **One stale-stamp rule** covers graph
//! and layer: both carry the catalog version of the table entry they were
//! built from — read once per build — and any DML makes the next query that
//! needs them rebuild lazily. GRAPH and PATH names are separate name spaces
//! ([`IndexSpace`]).
//!
//! Plans never name an index. **One selection rule** (`serve`, and
//! `explain_line` for `EXPLAIN`) matches a graph operator's edge scan
//! `(table, src, dst)` against the registry each time the operator runs, so
//! creating or dropping an index changes what the next execution of a
//! cached plan reads, without re-planning it.

use crate::context::ExecContext;
use crate::error::{bind_err, Error};
use crate::exec::graph_op::{build_graph_observed, graph_err, BuildSource, MaterializedGraph};
use crate::plan::{BoundExpr, CheapestSpec};
use gsql_accel::{AltMulti, AltPoint, ChM2m, ChPoint, ContractionHierarchy, Landmarks};
use gsql_graph::{Budget, Search, TraversalKind};
use gsql_storage::catalog::TableEntry;
use gsql_storage::{Catalog, Column, DataType};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

type Result<T> = std::result::Result<T, Error>;

/// Upper bound on the landmark count: beyond this the `O(k)` per-vertex
/// bound evaluation starts to cost more than the pruning saves, and the
/// index memory (`2·k·|V|·8` bytes) grows without benefit.
pub const MAX_LANDMARKS: u32 = 64;

/// The two DDL name spaces: a graph index and a path index may share a
/// name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexSpace {
    /// `CREATE GRAPH INDEX`: the graph alone.
    Graph,
    /// `CREATE PATH INDEX`: the graph plus an acceleration layer.
    Path,
}

impl IndexSpace {
    fn noun(self) -> &'static str {
        match self {
            IndexSpace::Graph => "graph index",
            IndexSpace::Path => "path index",
        }
    }
}

/// The preprocessing tier of one path index. Carried from DDL through the
/// registry, the selection rule, `EXPLAIN` labels and the executor's
/// dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathIndexKind {
    /// ALT: `k` landmark distance vectors + goal-directed bidirectional A*.
    Landmarks(u32),
    /// Contraction hierarchy: shortcut overlay + bidirectional upward
    /// Dijkstra with stall-on-demand.
    Contraction,
}

impl PathIndexKind {
    /// Short plan-label form (`EXPLAIN` shows `PathIndex pi ON t (CH)`).
    pub fn label(&self) -> &'static str {
        match self {
            PathIndexKind::Landmarks(_) => "ALT",
            PathIndexKind::Contraction => "CH",
        }
    }
}

impl fmt::Display for PathIndexKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathIndexKind::Landmarks(k) => write!(f, "landmarks({k})"),
            PathIndexKind::Contraction => write!(f, "contraction"),
        }
    }
}

/// The acceleration layer a path index declares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct AccelDef {
    /// Weight column, as declared (`None` = hop distances).
    pub weight_col: Option<String>,
    /// Ordinal of the weight column in the table schema.
    pub weight_key: Option<usize>,
    /// The structure the layer is built as.
    pub kind: PathIndexKind,
}

/// One index definition — what a checkpoint persists of every entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct IndexDef {
    /// Lowercased registry key.
    pub name: String,
    /// Lowercased indexed table.
    pub table: String,
    /// Source key column, as declared.
    pub src_col: String,
    /// Destination key column, as declared.
    pub dst_col: String,
    /// The acceleration layer of a path index; `None` for a graph index.
    pub accel: Option<AccelDef>,
}

impl IndexDef {
    pub(crate) fn space(&self) -> IndexSpace {
        if self.accel.is_some() {
            IndexSpace::Path
        } else {
            IndexSpace::Graph
        }
    }

    /// Whether this index is over `(table, src, dst)`, names matched
    /// case-insensitively.
    fn covers(&self, table: &str, src: &str, dst: &str) -> bool {
        self.table.eq_ignore_ascii_case(table)
            && self.src_col.eq_ignore_ascii_case(src)
            && self.dst_col.eq_ignore_ascii_case(dst)
    }

    fn same_edges(&self, other: &IndexDef) -> bool {
        self.covers(&other.table, &other.src_col, &other.dst_col)
    }
}

/// An artifact with the table version it was built from.
pub(crate) type Stamped<T> = Option<(u64, Arc<T>)>;

/// What an index build yields: the graph, and the acceleration layer of a
/// path index.
type Resolved = (Arc<MaterializedGraph>, Option<Arc<AccelLayer>>);

/// The graph a graph operator reads, and where it came from.
pub(crate) struct Served {
    /// The graph.
    pub graph: Arc<MaterializedGraph>,
    /// The acceleration layer of the serving path index; it covers every
    /// spec of the operator.
    pub layer: Option<Arc<AccelLayer>>,
    /// The name of the serving index; `None` for a graph built for the
    /// statement.
    pub index: Option<String>,
}

/// True when a `CHEAPEST SUM` spec can be answered by an acceleration
/// layer with `weight_key`: no path requested (an accelerated search may
/// legitimately pick a different equal-cost path than Dijkstra, and
/// results must stay byte-identical), and the weight is either constant
/// (hop scaling — only valid over a hop index) or exactly the index's
/// integer weight column.
fn spec_accel_eligible(spec: &CheapestSpec, weight_key: Option<usize>) -> bool {
    if spec.want_path {
        return false;
    }
    if spec.weight.is_constant() {
        return weight_key.is_none();
    }
    matches!(
        spec.weight,
        BoundExpr::Column { index, ty: DataType::Int } if Some(index) == weight_key
    )
}

/// The selection rule: the entry that serves an edge scan over `(table,
/// src, dst)` for `specs`. Of the path indexes whose layer covers every
/// spec, a contraction hierarchy beats a landmark index (near-constant
/// search cones vs goal-directed pruning) and name order breaks ties;
/// otherwise the first graph index by name; otherwise none.
fn select<'e>(
    entries: &'e [Entry],
    table: &str,
    src: &str,
    dst: &str,
    specs: &[CheapestSpec],
) -> Option<&'e Entry> {
    let over = || entries.iter().filter(|e| e.def.covers(table, src, dst));
    let layer_covers = |e: &&Entry| {
        let accel = e.def.accel.as_ref();
        accel.is_some_and(|a| specs.iter().all(|s| spec_accel_eligible(s, a.weight_key)))
    };
    let is_ch =
        |e: &&Entry| e.def.accel.as_ref().is_some_and(|a| a.kind == PathIndexKind::Contraction);
    over()
        .filter(layer_covers)
        .find(is_ch)
        .or_else(|| over().find(layer_covers))
        .or_else(|| over().find(|e| e.def.accel.is_none()))
}

#[derive(Debug)]
struct Entry {
    def: IndexDef,
    /// The graph of the edge configuration, shared with every entry over
    /// the same edges.
    graph: Stamped<MaterializedGraph>,
    /// The acceleration layer (path indexes only), over a graph of the
    /// same version.
    layer: Stamped<AccelLayer>,
}

impl Entry {
    /// What this entry serves at table version `version`, when fresh.
    fn fresh(&self, version: u64) -> Option<Resolved> {
        match (&self.def.accel, &self.graph, &self.layer) {
            (None, Some((v, graph)), _) if *v == version => Some((Arc::clone(graph), None)),
            (Some(_), _, Some((v, layer))) if *v == version => {
                Some((Arc::clone(&layer.graph), Some(Arc::clone(layer))))
            }
            _ => None,
        }
    }
}

/// One row of `SHOW PATH INDEXES`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathIndexListing {
    /// Index name.
    pub name: String,
    /// Indexed table.
    pub table: String,
    /// Kind (`landmarks(k)` / `contraction`).
    pub kind: String,
    /// `built` when the layer matches the table's current version, `stale`
    /// when the next accelerated query will rebuild it.
    pub status: &'static str,
}

/// The registry of graph and path indexes; see the [module docs](self).
#[derive(Debug, Default)]
pub struct IndexRegistry {
    /// Every entry, sorted by name.
    entries: RwLock<Vec<Entry>>,
    /// Acceleration layers built by this process.
    builds: AtomicU64,
}

impl IndexRegistry {
    /// Empty registry.
    pub fn new() -> IndexRegistry {
        IndexRegistry::default()
    }

    fn read(&self) -> RwLockReadGuard<'_, Vec<Entry>> {
        self.entries.read().expect("index registry lock poisoned")
    }

    fn write(&self) -> RwLockWriteGuard<'_, Vec<Entry>> {
        self.entries.write().expect("index registry lock poisoned")
    }

    /// How many acceleration layers (ALT or CH) this process has built —
    /// eager creates plus lazy rebuilds. Restoring built layers from a
    /// snapshot does not count: a warm restart leaves this at zero.
    pub fn builds(&self) -> u64 {
        self.builds.load(Ordering::Acquire)
    }

    /// Names of the indexes in `space`, sorted.
    pub fn index_names(&self, space: IndexSpace) -> Vec<String> {
        let entries = self.read();
        entries.iter().filter(|e| e.def.space() == space).map(|e| e.def.name.clone()).collect()
    }

    /// The `EXPLAIN` line of the index [`serve`](Self::serve) would read for
    /// an edge scan over `(table, src, dst)` and `specs` — `GraphIndex gi ON
    /// t` or `PathIndex pc ON t (CH)` — choosing by the same rule and
    /// building nothing; `None` when the scan would run.
    pub(crate) fn explain_line(
        &self,
        table: &str,
        src: &str,
        dst: &str,
        specs: &[CheapestSpec],
    ) -> Option<String> {
        let entries = self.read();
        let def = &select(&entries, table, src, dst, specs)?.def;
        Some(match &def.accel {
            None => format!("GraphIndex {} ON {table}", def.name),
            Some(a) => format!("PathIndex {} ON {table} ({})", def.name, a.kind.label()),
        })
    }

    /// The graph — and layer, for a path index covering every spec — of the
    /// index that serves an edge scan over `(table, src, dst)` for `specs`,
    /// at the table's current version; a stale one is rebuilt now. `None`
    /// when no index serves it: the caller builds the graph from the scan.
    pub(crate) fn serve(
        &self,
        ctx: &ExecContext<'_>,
        table: &str,
        src: &str,
        dst: &str,
        specs: &[CheapestSpec],
    ) -> Result<Option<Served>> {
        let (def, entry) = {
            let entries = self.read();
            let Some(e) = select(&entries, table, src, dst, specs) else {
                return Ok(None);
            };
            let entry = ctx.catalog().entry(&e.def.table).map_err(Error::Storage)?;
            if let Some((graph, layer)) = e.fresh(entry.version) {
                return Ok(Some(Served { graph, layer, index: Some(e.def.name.clone()) }));
            }
            (e.def.clone(), entry)
        };
        let built = self.build(ctx, &def, &entry)?;
        install(&mut self.write(), &def, entry.version, &built);
        let (graph, layer) = built;
        Ok(Some(Served { graph, layer, index: Some(def.name) }))
    }

    /// `CREATE GRAPH INDEX` (`accel: None`) or `CREATE PATH INDEX`
    /// (`accel: Some((weight column, kind))`): validate the definition,
    /// then build eagerly. The name is checked first, so a duplicate costs
    /// no build; with `if_not_exists` it is a no-op.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn create(
        &self,
        ctx: &ExecContext<'_>,
        name: &str,
        table: &str,
        src_col: &str,
        dst_col: &str,
        accel: Option<(Option<&str>, PathIndexKind)>,
        if_not_exists: bool,
    ) -> Result<()> {
        let space = if accel.is_some() { IndexSpace::Path } else { IndexSpace::Graph };
        if let Some((_, PathIndexKind::Landmarks(k))) = accel {
            if k == 0 || k > MAX_LANDMARKS {
                return Err(bind_err!(
                    "LANDMARKS count must be between 1 and {MAX_LANDMARKS}, got {k}"
                ));
            }
        }
        let key = name.to_ascii_lowercase();
        let taken =
            |entries: &[Entry]| entries.iter().any(|e| e.def.space() == space && e.def.name == key);
        let duplicate = || {
            if if_not_exists {
                Ok(())
            } else {
                Err(bind_err!("{} '{name}' already exists", space.noun()))
            }
        };
        // The write lock below re-checks, closing the create/create race.
        if taken(&self.read()) {
            return duplicate();
        }
        let entry = ctx.catalog().entry(table).map_err(Error::Storage)?;
        let schema = entry.table.schema();
        let column = |c: &str| {
            schema.index_of(c).ok_or_else(|| bind_err!("no column '{c}' in table '{table}'"))
        };
        let s_ty = schema.column(column(src_col)?).ty;
        let d_ty = schema.column(column(dst_col)?).ty;
        if s_ty != d_ty {
            return Err(bind_err!(
                "EDGE columns must have matching types, found {s_ty} and {d_ty}"
            ));
        }
        if !s_ty.is_vertex_key() {
            return Err(bind_err!("type {s_ty} cannot be used as a graph vertex key"));
        }
        let accel = match accel {
            None => None,
            Some((weight_col, kind)) => {
                let weight_key = weight_col.map(column).transpose()?;
                if let Some(ty) = weight_key.map(|k| schema.column(k).ty) {
                    if ty != DataType::Int {
                        return Err(bind_err!(
                            "PATH INDEX WEIGHT column must be INTEGER so accelerated costs stay \
                             exact, found {ty}; CAST the weight into an integer column"
                        ));
                    }
                }
                Some(AccelDef { weight_col: weight_col.map(str::to_string), weight_key, kind })
            }
        };
        let def = IndexDef {
            name: key.clone(),
            table: table.to_ascii_lowercase(),
            src_col: src_col.to_string(),
            dst_col: dst_col.to_string(),
            accel,
        };
        let built = self.build(ctx, &def, &entry)?;
        let mut entries = self.write();
        if taken(&entries) {
            return duplicate();
        }
        insert_sorted(&mut entries, def.clone());
        install(&mut entries, &def, entry.version, &built);
        Ok(())
    }

    /// Build what `def` serves at `entry`'s version — the one build path of
    /// creates and lazy rebuilds. `entry` is read once by the caller: the
    /// graph comes from it (or from an entry over the same edges already
    /// stamped with its version), and the caller stamps the result with its
    /// version.
    fn build(&self, ctx: &ExecContext<'_>, def: &IndexDef, entry: &TableEntry) -> Result<Resolved> {
        let shared =
            self.read().iter().filter(|e| e.def.same_edges(def)).find_map(|e| match &e.graph {
                Some((v, graph)) if *v == entry.version => Some(Arc::clone(graph)),
                _ => None,
            });
        let graph = match shared {
            Some(graph) => graph,
            None => {
                let schema = entry.table.schema();
                let column = |c: &str| {
                    schema
                        .index_of(c)
                        .ok_or_else(|| bind_err!("no column '{c}' in table '{}'", def.table))
                };
                let source = match def.space() {
                    IndexSpace::Graph => BuildSource::GraphIndex,
                    IndexSpace::Path => BuildSource::PathIndex,
                };
                let (src_key, dst_key) = (column(&def.src_col)?, column(&def.dst_col)?);
                let edges = Arc::clone(&entry.table);
                Arc::new(build_graph_observed(ctx, source, edges, src_key, dst_key)?)
            }
        };
        let layer = match &def.accel {
            None => None,
            Some(accel) => {
                let layer = AccelLayer::build(ctx, &graph, accel)?;
                self.builds.fetch_add(1, Ordering::AcqRel);
                Some(Arc::new(layer))
            }
        };
        Ok((graph, layer))
    }

    /// `DROP GRAPH INDEX` / `DROP PATH INDEX`. With `if_exists`, a missing
    /// name is a no-op.
    pub(crate) fn drop_index(&self, space: IndexSpace, name: &str, if_exists: bool) -> Result<()> {
        let mut entries = self.write();
        let before = entries.len();
        entries.retain(|e| !(e.def.space() == space && e.def.name.eq_ignore_ascii_case(name)));
        if entries.len() == before && !if_exists {
            return Err(bind_err!("{} '{name}' does not exist", space.noun()));
        }
        Ok(())
    }

    /// Remove every index over `table` (`DROP TABLE`).
    pub(crate) fn drop_table(&self, table: &str) {
        self.write().retain(|e| !e.def.table.eq_ignore_ascii_case(table));
    }

    /// Every entry of `space` — the definition plus, for a path index, its
    /// stamped layer — sorted by name: what a checkpoint persists. Graphs
    /// are left out; a restored layer brings its own.
    pub(crate) fn snapshot_entries(
        &self,
        space: IndexSpace,
    ) -> Vec<(IndexDef, Stamped<AccelLayer>)> {
        let entries = self.read();
        let entries = entries.iter().filter(|e| e.def.space() == space);
        entries.map(|e| (e.def.clone(), e.layer.clone())).collect()
    }

    /// Re-register an entry from a snapshot, replacing one of the same name,
    /// without building. A restored
    /// layer's graph also serves every entry over the same edges.
    pub(crate) fn restore(&self, def: IndexDef, layer: Stamped<AccelLayer>) {
        let mut entries = self.write();
        entries.retain(|e| !(e.def.space() == def.space() && e.def.name == def.name));
        insert_sorted(&mut entries, def.clone());
        if let Some((version, layer)) = layer {
            install(&mut entries, &def, version, &(Arc::clone(&layer.graph), Some(layer)));
        }
    }

    /// `SHOW PATH INDEXES`: every path index with its kind and freshness,
    /// sorted by name. `stale` means the next accelerated query rebuilds
    /// the layer (the table changed since it was built).
    pub fn list(&self, catalog: &Catalog) -> Vec<PathIndexListing> {
        let entries = self.read();
        entries
            .iter()
            .filter_map(|e| {
                let accel = e.def.accel.as_ref()?;
                let built = match (&e.layer, catalog.entry(&e.def.table)) {
                    (Some((v, _)), Ok(current)) => current.version == *v,
                    _ => false,
                };
                Some(PathIndexListing {
                    name: e.def.name.clone(),
                    table: e.def.table.clone(),
                    kind: accel.kind.to_string(),
                    status: if built { "built" } else { "stale" },
                })
            })
            .collect()
    }
}

fn insert_sorted(entries: &mut Vec<Entry>, def: IndexDef) {
    let at = entries.partition_point(|e| e.def.name < def.name);
    entries.insert(at, Entry { def, graph: None, layer: None });
}

/// Stamp a build of `def` at `version`: the graph on every entry over the
/// same edges, the layer on `def`'s own entry — unless that entry was
/// dropped or redefined while the build ran.
fn install(entries: &mut [Entry], def: &IndexDef, version: u64, (graph, layer): &Resolved) {
    for e in entries.iter_mut().filter(|e| e.def.same_edges(def)) {
        e.graph = Some((version, Arc::clone(graph)));
        if e.def == *def {
            e.layer = layer.as_ref().map(|l| (version, Arc::clone(l)));
        }
    }
}

/// The built structure of an acceleration layer.
#[derive(Debug)]
pub(crate) enum AccelIndex {
    /// An ALT landmark index.
    Alt(Landmarks),
    /// A contraction hierarchy.
    Ch(ContractionHierarchy),
}

/// The acceleration layer of a path index: the structure, the graph it was
/// built over, and that graph's validated slot weights.
#[derive(Debug)]
pub(crate) struct AccelLayer {
    /// The shared graph of the index's edge configuration. Its reverse CSR
    /// is forced at build time, so queries never pay for it.
    pub graph: Arc<MaterializedGraph>,
    /// The landmark index or contraction hierarchy.
    pub accel: AccelIndex,
    /// Weights in forward-CSR slot order (present iff the index declares a
    /// weight column).
    pub weights_fwd: Option<Vec<i64>>,
    /// Weights in reverse-CSR slot order (present iff `weights_fwd` is).
    pub weights_bwd: Option<Vec<i64>>,
}

impl AccelLayer {
    /// Build the layer of `accel` over `graph`: the reverse CSR, the
    /// validated slot weights of the weight column (strictly positive and
    /// integral), and the structure, with the context's `threads` workers
    /// and within the statement deadline ([`Error::Timeout`] past it).
    fn build(
        ctx: &ExecContext<'_>,
        graph: &Arc<MaterializedGraph>,
        accel: &AccelDef,
    ) -> Result<AccelLayer> {
        let threads = ctx.threads();
        let reverse = graph.reverse();
        let (weights_fwd, weights_bwd) = match accel.weight_key {
            None => (None, None),
            Some(wk) => {
                // Row-indexed weights off the NULL-filtered snapshot line up
                // with the CSR's edge-row ids.
                let raw = match graph.edges.column(wk) {
                    Column::Int(vals, validity) => {
                        if let Some(row) = (0..vals.len()).find(|&i| !validity.get(i)) {
                            return Err(Error::Graph(gsql_graph::GraphError::NullWeight {
                                edge_row: row as u32,
                            }));
                        }
                        vals
                    }
                    other => {
                        return Err(bind_err!(
                            "PATH INDEX WEIGHT column must be INTEGER, found {}",
                            other.data_type()
                        ))
                    }
                };
                let permute = |csr: &gsql_graph::Csr| {
                    csr.permute_weights_int_with_threads(raw, threads).map_err(Error::Graph)
                };
                (Some(permute(&graph.csr)?), Some(permute(reverse)?))
            }
        };
        let weights = weights_fwd.as_deref().zip(weights_bwd.as_deref());
        // The build polls the statement deadline between its steps; a
        // timeout returns before anything is installed.
        let budget = Budget { threads, deadline: ctx.deadline_instant(), observer: None };
        let timed_out = |e| graph_err(ctx, e);
        let structure = match accel.kind {
            PathIndexKind::Landmarks(k) => AccelIndex::Alt(
                Landmarks::build_within(&graph.csr, reverse, weights, k as usize, &budget)
                    .map_err(timed_out)?,
            ),
            PathIndexKind::Contraction => AccelIndex::Ch(
                ContractionHierarchy::build_within(&graph.csr, weights_fwd.as_deref(), &budget)
                    .map_err(timed_out)?,
            ),
        };
        Ok(AccelLayer { graph: Arc::clone(graph), accel: structure, weights_fwd, weights_bwd })
    }

    /// Whether the layer is an ALT landmark index.
    pub(crate) fn is_alt(&self) -> bool {
        matches!(self.accel, AccelIndex::Alt(_))
    }

    /// The accelerated search that answers `pairs` pairs over the layer's
    /// native weights (hop distances for an unweighted index), and its
    /// kind. Costs are bit-identical to per-pair Dijkstra at every thread
    /// count.
    ///
    /// One pair runs the point-to-point search. More run the many-to-many
    /// tier: a CH answers the whole matrix bucket-style — one backward
    /// upward search per distinct target filling per-vertex buckets, one
    /// forward upward search per distinct source scanning them, `S + T`
    /// searches for `S × T` pairs — and ALT runs one multi-target
    /// goal-directed search per distinct source (the landmark bound
    /// aggregated over that source's targets).
    pub(crate) fn searcher(&self, pairs: usize) -> (Box<dyn Search + '_>, TraversalKind) {
        let (forward, backward) = (&self.graph.csr, self.graph.reverse());
        let weights = self.weights_fwd.as_deref().zip(self.weights_bwd.as_deref());
        match (&self.accel, pairs == 1) {
            (AccelIndex::Alt(landmarks), true) => {
                (Box::new(AltPoint { forward, backward, weights, landmarks }), TraversalKind::Alt)
            }
            (AccelIndex::Ch(ch), true) => (Box::new(ChPoint(ch)), TraversalKind::Ch),
            (AccelIndex::Alt(landmarks), false) => {
                let weights = self.weights_fwd.as_deref();
                (Box::new(AltMulti { forward, weights, landmarks }), TraversalKind::AltMulti)
            }
            (AccelIndex::Ch(ch), false) => (Box::new(ChM2m(ch)), TraversalKind::ChM2m),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsql_storage::{ColumnDef, Mutation, Schema, Value};

    fn setup() -> (Catalog, IndexRegistry) {
        let catalog = Catalog::new();
        catalog
            .create_table(
                "roads",
                Schema::new(vec![
                    ColumnDef::not_null("a", DataType::Int),
                    ColumnDef::not_null("b", DataType::Int),
                    ColumnDef::not_null("len", DataType::Int),
                ]),
            )
            .unwrap();
        let rows = [(1, 2, 5), (2, 3, 5), (1, 3, 20), (3, 4, 1)]
            .map(|(a, b, len)| vec![Value::Int(a), Value::Int(b), Value::Int(len)]);
        catalog.apply("roads", Mutation::Append(rows.to_vec())).unwrap();
        (catalog, IndexRegistry::new())
    }

    fn ctx(catalog: &Catalog) -> ExecContext<'_> {
        let settings = crate::context::SessionSettings { threads: 2, ..Default::default() };
        ExecContext::new(catalog, &[], None).with_settings(settings)
    }

    fn insert(catalog: &Catalog, a: i64, b: i64, len: i64) {
        let row = vec![Value::Int(a), Value::Int(b), Value::Int(len)];
        catalog.apply("roads", Mutation::Append(vec![row])).unwrap();
    }

    fn graph_index(reg: &IndexRegistry, catalog: &Catalog, name: &str) -> Result<()> {
        reg.create(&ctx(catalog), name, "roads", "a", "b", None, false)
    }

    fn path_index(
        reg: &IndexRegistry,
        catalog: &Catalog,
        name: &str,
        weight: Option<&str>,
        kind: PathIndexKind,
    ) -> Result<()> {
        reg.create(&ctx(catalog), name, "roads", "a", "b", Some((weight, kind)), false)
    }

    fn spec(weight: BoundExpr, want_path: bool) -> CheapestSpec {
        let (cost_name, path_name) = ("cost".to_string(), "path".to_string());
        CheapestSpec { weight, weight_ty: DataType::Int, want_path, cost_name, path_name }
    }

    /// `CHEAPEST SUM(1)`: covered by a hop layer.
    fn hops() -> CheapestSpec {
        spec(BoundExpr::Literal(Value::Int(1)), false)
    }

    /// `CHEAPEST SUM(len)`: covered by a layer weighted by `len`.
    fn by_len() -> CheapestSpec {
        spec(BoundExpr::Column { index: 2, ty: DataType::Int }, false)
    }

    /// `CHEAPEST SUM(1) AS (cost, path)`: covered by no layer.
    fn with_path() -> CheapestSpec {
        spec(BoundExpr::Literal(Value::Int(1)), true)
    }

    /// What serves `roads (a, b)` for one spec.
    fn serve(reg: &IndexRegistry, catalog: &Catalog, spec: CheapestSpec) -> Served {
        let served = reg.serve(&ctx(catalog), "roads", "a", "b", &[spec]).unwrap();
        served.expect("an index serves the edge scan")
    }

    #[test]
    fn graph_index_serves_and_rebuilds_after_a_write() {
        let (catalog, reg) = setup();
        graph_index(&reg, &catalog, "GI").unwrap();
        let first = serve(&reg, &catalog, hops());
        assert!(first.layer.is_none());
        assert_eq!(first.index.as_deref(), Some("gi"));
        assert_eq!(first.graph.num_edges(), 4);
        // Same Arc while the table is unchanged.
        assert!(Arc::ptr_eq(&first.graph, &serve(&reg, &catalog, hops()).graph));
        insert(&catalog, 4, 5, 2);
        let (g2, g3) = (serve(&reg, &catalog, hops()).graph, serve(&reg, &catalog, hops()).graph);
        assert_eq!(g2.num_edges(), 5);
        assert!(!Arc::ptr_eq(&first.graph, &g2) && Arc::ptr_eq(&g2, &g3));
        // Once the index is dropped nothing serves: the executor scans.
        reg.drop_index(IndexSpace::Graph, "gi", false).unwrap();
        assert!(reg.serve(&ctx(&catalog), "roads", "a", "b", &[hops()]).unwrap().is_none());
        assert_eq!(reg.builds(), 0, "a graph index has no layer");
    }

    #[test]
    fn selection_matches_edges_then_prefers_covering_ch_then_name() {
        let (catalog, reg) = setup();
        let line = |table: &str, src: &str, dst: &str, specs: &[CheapestSpec]| {
            reg.explain_line(table, src, dst, specs)
        };
        assert_eq!(line("roads", "a", "b", &[hops()]), None);
        graph_index(&reg, &catalog, "gz").unwrap();
        graph_index(&reg, &catalog, "gi").unwrap();
        assert_eq!(line("ROADS", "A", "B", &[hops()]).unwrap(), "GraphIndex gi ON ROADS");
        path_index(&reg, &catalog, "pb", None, PathIndexKind::Landmarks(2)).unwrap();
        path_index(&reg, &catalog, "pa", Some("len"), PathIndexKind::Landmarks(2)).unwrap();
        assert_eq!(line("roads", "a", "b", &[hops()]).unwrap(), "PathIndex pb ON roads (ALT)");
        assert_eq!(line("roads", "a", "b", &[by_len()]).unwrap(), "PathIndex pa ON roads (ALT)");
        // A layer must cover every spec; a path covers none.
        assert_eq!(line("roads", "a", "b", &[hops(), by_len()]).unwrap(), "GraphIndex gi ON roads");
        assert_eq!(line("roads", "a", "b", &[with_path()]).unwrap(), "GraphIndex gi ON roads");
        // A contraction hierarchy beats landmarks whatever the names.
        path_index(&reg, &catalog, "pz", None, PathIndexKind::Contraction).unwrap();
        assert_eq!(line("roads", "a", "b", &[hops()]).unwrap(), "PathIndex pz ON roads (CH)");
        assert_eq!(line("roads", "a", "b", &[]).unwrap(), "PathIndex pz ON roads (CH)");
        // The reversed direction is a different graph; so is another table.
        assert_eq!(line("roads", "b", "a", &[hops()]), None);
        assert_eq!(line("other", "a", "b", &[hops()]), None);
        // Serving applies the same rule, and hands out the layer it chose.
        let served = serve(&reg, &catalog, hops());
        assert_eq!(served.index.as_deref(), Some("pz"));
        assert!(served.layer.is_some());
        assert_eq!(serve(&reg, &catalog, with_path()).index.as_deref(), Some("gi"));
    }

    #[test]
    fn path_index_layers_answer_exact_distances() {
        let (catalog, reg) = setup();
        // Each create covers the weighted spec, the CH ahead of the ALT.
        for (name, kind) in
            [("pa", PathIndexKind::Landmarks(2)), ("pc", PathIndexKind::Contraction)]
        {
            path_index(&reg, &catalog, name, Some("len"), kind).unwrap();
            let Served { graph, layer, index } = serve(&reg, &catalog, by_len());
            assert_eq!(index.as_deref(), Some(name));
            let layer = layer.expect("a path index has a layer");
            assert!(Arc::ptr_eq(&graph, &layer.graph));
            assert!(layer.weights_fwd.is_some());
            // Exact accelerated distance through the cheap 1→2→3 route, for
            // one pair and for a batch.
            let s = graph.lookup(&Value::Int(1)).unwrap();
            let d = graph.lookup(&Value::Int(3)).unwrap();
            let costs = |pairs: &[(u32, u32)]| -> Vec<Option<f64>> {
                let budget = gsql_graph::Budget { threads: 2, ..Default::default() };
                let results = layer.searcher(pairs.len()).0.run(pairs, &budget, false).unwrap();
                results.iter().map(|r| r.cost.map(|c| c.as_f64())).collect()
            };
            assert_eq!(costs(&[(s, d)]), [Some(10.0)], "{name}");
            assert_eq!(costs(&[(s, d), (d, s), (s, d)]), [Some(10.0), None, Some(10.0)], "{name}");
            let again = serve(&reg, &catalog, by_len()).layer;
            assert!(Arc::ptr_eq(&layer, &again.unwrap()));
        }
        assert_eq!(reg.builds(), 2);
    }

    /// A graph index and a path index over one edge configuration share one
    /// graph per table version — and with it one weight cache. After a
    /// write, whichever reads first builds the graph; the other reuses it,
    /// and the path index builds only its layer.
    #[test]
    fn graph_and_path_indexes_share_one_graph() {
        let (catalog, reg) = setup();
        graph_index(&reg, &catalog, "gi").unwrap();
        path_index(&reg, &catalog, "pc", None, PathIndexKind::Contraction).unwrap();
        // A path spec is served by `gi`, a hop spec by `pc`.
        let shared = |reg: &IndexRegistry| {
            let g = serve(reg, &catalog, with_path()).graph;
            let Served { graph: p, layer, .. } = serve(reg, &catalog, hops());
            assert!(Arc::ptr_eq(&p, &layer.unwrap().graph));
            Arc::ptr_eq(&g, &p)
        };
        assert!(shared(&reg), "the path index reused the graph index's build");
        insert(&catalog, 4, 5, 2);
        assert!(shared(&reg));
        assert_eq!(reg.builds(), 2, "one layer build per table version");
        // The other order: the path index rebuilds first.
        insert(&catalog, 5, 6, 2);
        let p = serve(&reg, &catalog, hops()).graph;
        let g = serve(&reg, &catalog, with_path()).graph;
        assert!(Arc::ptr_eq(&g, &p) && g.num_edges() == 6);
    }

    /// The one create/rebuild path reads the table entry once: whatever a
    /// concurrent writer does, every cached artifact is stamped with the
    /// version it was built from.
    #[test]
    fn builds_are_stamped_with_the_version_they_read() {
        let (catalog, reg) = setup();
        path_index(&reg, &catalog, "pc", Some("len"), PathIndexKind::Contraction).unwrap();
        // Version 1 holds the four setup rows; every later version one more.
        let rows_at = |version: u64| version as usize + 3;
        std::thread::scope(|scope| {
            scope.spawn(|| (0..300).for_each(|i| insert(&catalog, 100 + i, 101 + i, 1)));
            for _ in 0..300 {
                serve(&reg, &catalog, by_len());
                let entries = reg.read();
                let e = &entries[0];
                let (gv, graph) = e.graph.as_ref().unwrap();
                let (lv, layer) = e.layer.as_ref().unwrap();
                assert_eq!(graph.num_edges(), rows_at(*gv), "graph stamped {gv}");
                assert_eq!(layer.graph.num_edges(), rows_at(*lv), "layer stamped {lv}");
            }
        });
    }

    #[test]
    fn validation_errors_and_name_spaces() {
        let (catalog, reg) = setup();
        let lm = Some((None, PathIndexKind::Landmarks(2)));
        let c = ctx(&catalog);
        assert!(reg.create(&c, "pi", "nope", "a", "b", lm, false).is_err());
        assert!(reg.create(&c, "pi", "roads", "zzz", "b", lm, false).is_err());
        assert!(reg.create(&c, "gi", "roads", "a", "zzz", None, false).is_err());
        let weight = |w| Some((Some(w), PathIndexKind::Landmarks(2)));
        assert!(reg.create(&c, "pi", "roads", "a", "b", weight("zzz"), false).is_err());
        for k in [0, MAX_LANDMARKS + 1] {
            let kind = Some((None, PathIndexKind::Landmarks(k)));
            let err = reg.create(&c, "pi", "roads", "a", "b", kind, false).unwrap_err();
            assert!(err.to_string().contains("LANDMARKS count"), "{err}");
        }
        // GRAPH and PATH names are separate name spaces.
        graph_index(&reg, &catalog, "x").unwrap();
        path_index(&reg, &catalog, "X", None, PathIndexKind::Contraction).unwrap();
        let err = graph_index(&reg, &catalog, "X").unwrap_err();
        assert_eq!(err.to_string(), "bind error: graph index 'X' already exists");
        let err = path_index(&reg, &catalog, "x", None, PathIndexKind::Contraction).unwrap_err();
        assert_eq!(err.to_string(), "bind error: path index 'x' already exists");
        reg.drop_index(IndexSpace::Graph, "X", false).unwrap();
        assert!(reg.index_names(IndexSpace::Graph).is_empty());
        assert_eq!(reg.index_names(IndexSpace::Path), ["x"]);
        let err = reg.drop_index(IndexSpace::Graph, "x", false).unwrap_err();
        assert_eq!(err.to_string(), "bind error: graph index 'x' does not exist");
    }

    #[test]
    fn weight_column_must_be_integer_and_positive() {
        let (catalog, reg) = setup();
        catalog
            .create_table(
                "fe",
                Schema::new(vec![
                    ColumnDef::not_null("s", DataType::Int),
                    ColumnDef::not_null("d", DataType::Int),
                    ColumnDef::not_null("w", DataType::Double),
                ]),
            )
            .unwrap();
        let kind = Some((Some("w"), PathIndexKind::Landmarks(2)));
        let err = reg.create(&ctx(&catalog), "pi", "fe", "s", "d", kind, false).unwrap_err();
        assert!(err.to_string().contains("INTEGER"), "{err}");
        insert(&catalog, 9, 10, 0);
        for kind in [PathIndexKind::Landmarks(2), PathIndexKind::Contraction] {
            let err = path_index(&reg, &catalog, "pi", Some("len"), kind).unwrap_err();
            assert!(err.to_string().contains("strictly greater than 0"), "{err}");
        }
        assert!(reg.index_names(IndexSpace::Path).is_empty(), "failed creates register nothing");
    }

    #[test]
    fn if_not_exists_keeps_the_entry_and_drop_table_empties_both_spaces() {
        let (catalog, reg) = setup();
        graph_index(&reg, &catalog, "gi").unwrap();
        path_index(&reg, &catalog, "pi", None, PathIndexKind::Landmarks(2)).unwrap();
        // IF NOT EXISTS over an existing name and IF EXISTS over a missing
        // one are no-ops.
        let kind = Some((None, PathIndexKind::Contraction));
        reg.create(&ctx(&catalog), "PI", "roads", "a", "b", kind, true).unwrap();
        reg.drop_index(IndexSpace::Path, "ghost", true).unwrap();
        assert!(reg.drop_index(IndexSpace::Path, "ghost", false).is_err());
        assert_eq!(reg.list(&catalog)[0].kind, "landmarks(2)");
        reg.drop_table("ROADS");
        assert!(reg.index_names(IndexSpace::Graph).is_empty());
        assert!(reg.index_names(IndexSpace::Path).is_empty());
    }

    #[test]
    fn listing_reports_kind_and_freshness() {
        let (catalog, reg) = setup();
        path_index(&reg, &catalog, "pa", Some("len"), PathIndexKind::Landmarks(2)).unwrap();
        path_index(&reg, &catalog, "pc", None, PathIndexKind::Contraction).unwrap();
        graph_index(&reg, &catalog, "gi").unwrap();
        let status = |reg: &IndexRegistry| -> Vec<(String, String, &'static str)> {
            let rows = reg.list(&catalog);
            rows.into_iter().map(|r| (r.name, r.kind, r.status)).collect()
        };
        let row = |name: &str, kind: &str, status| (name.to_string(), kind.to_string(), status);
        assert_eq!(
            status(&reg),
            [row("pa", "landmarks(2)", "built"), row("pc", "contraction", "built")]
        );
        // A write flips both to stale; a read rebuilds one layer, and a
        // graph-index read rebuilds none.
        insert(&catalog, 8, 9, 1);
        serve(&reg, &catalog, with_path());
        serve(&reg, &catalog, by_len());
        assert_eq!(
            status(&reg),
            [row("pa", "landmarks(2)", "built"), row("pc", "contraction", "stale")]
        );
    }
}
