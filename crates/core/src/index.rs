//! Edge indexes — the paper's §6 future work, as layers on one shared
//! graph snapshot.
//!
//! > "We are investigating how to expand our system with the option of
//! > creating special 'graph' indices. These indices will store the full
//! > graph, ready to be used when a query matches the edge table that
//! > generated the graph. Nevertheless, they also need to be amenable to
//! > the updates on the underlying tables."
//!
//! An index definition is catalog state ([`IndexDef`]: the edge
//! configuration `(table, src, dst)` plus, for a path index, an acceleration
//! layer `(weight column, LANDMARKS(k) | CONTRACTION)`), created and dropped
//! by a [`gsql_storage::Mutation`] under the catalog's lock, and dropped
//! with its table.
//! This registry keeps only what is built for the definitions:
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
//! Every index over one edge configuration shares one graph per table
//! snapshot, so a graph index and a path index over the same edges cost one
//! build and share one weight cache: a path index's weight vector is the
//! graph's cached vector for its weight column, the one a `CHEAPEST SUM`
//! over that column reads, and the layer has no weight code of its own.
//! **One stale-stamp rule** covers graph and layer: an artifact carries the
//! definition it was built for and the identity and version of the table
//! entry it was built from — read once per build — and serves only while
//! the catalog holds that definition over that table at that version. Any DML makes the next query that needs it
//! build lazily; a dropped or re-created table, or a redefined index, is
//! never served an old build. GRAPH and PATH names are separate name spaces
//! ([`IndexSpace`]).
//!
//! That build is how the index stays "amenable to the updates": when the
//! table has only had rows appended since an artifact over the same edges
//! was built ([`TableEntry::rewritten_at`]), the new graph **extends** that
//! artifact's graph — the dictionary interns only the appended rows, both
//! CSRs grow by one merge pass — so an `INSERT` costs its reader
//! `O(|V| + |E|)` copying and `O(appended rows)` hashing, and the graph is
//! identical to one built from scratch. A `DELETE` or `UPDATE` rebuilds
//! the graph from the table; an acceleration layer is always rebuilt, over
//! the new graph, since an inserted edge can shorten any distance its
//! landmarks bound or its shortcuts encode. Each build makes a new
//! immutable graph from immutable inputs, so two statements racing to
//! build one produce identical graphs.
//!
//! Plans never name an index. **One selection rule** (`serve`, and
//! `explain_line` for `EXPLAIN`) matches a graph operator's edge scan
//! `(table, src, dst)` against the catalog's definitions each time the
//! operator runs, so creating or dropping an index changes what the next
//! execution of a cached plan reads, without re-planning it. The registry
//! chooses no search: which one answers over a graph and its `AccelLayer`
//! is the traversal dispatcher's decision (`exec::graph_op::dispatch`).

use crate::bind::binder::edge_key_type;
use crate::context::ExecContext;
use crate::error::{bind_err, Error};
use crate::exec::graph_op::{
    build_graph_observed, edge_weights, graph_err, slot_weights, BuildSource, MaterializedGraph,
};
use crate::plan::{BoundExpr, CheapestSpec};
use gsql_accel::{ContractionHierarchy, Landmarks};
use gsql_graph::{Budget, PreparedWeights};
use gsql_storage::catalog::TableEntry;
use gsql_storage::{AccelDef, Catalog, DataType, IndexDef, Schema, StorageError};
pub use gsql_storage::{IndexSpace, PathIndexKind};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

type Result<T> = std::result::Result<T, Error>;

/// Upper bound on the landmark count: beyond this the `O(k)` per-vertex
/// bound evaluation starts to cost more than the pruning saves, and the
/// index memory (`2·k·|V|·8` bytes) grows without benefit.
pub const MAX_LANDMARKS: u32 = 64;

/// The table entry a build read: its identity and version.
type Stamp = (u64, u64);

fn stamp(entry: &TableEntry) -> Stamp {
    (entry.id, entry.version)
}

/// The ordinals of `def`'s source and destination columns in `schema`, its
/// table's: the key columns a build of `def` reads.
pub(crate) fn key_columns(def: &IndexDef, schema: &Schema) -> Result<(usize, usize)> {
    let column = |c: &str| {
        schema.index_of(c).ok_or_else(|| bind_err!("no column '{c}' in table '{}'", def.table))
    };
    Ok((column(&def.src_col)?, column(&def.dst_col)?))
}

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

/// The selection rule: the definition that serves an edge scan over
/// `(table, src, dst)` for `specs`. Of the path indexes whose layer covers
/// every spec, a contraction hierarchy beats a landmark index (near-constant
/// search cones vs goal-directed pruning) and name order breaks ties;
/// otherwise the first graph index by name; otherwise none.
fn select<'d>(
    defs: &'d [IndexDef],
    table: &str,
    src: &str,
    dst: &str,
    specs: &[CheapestSpec],
) -> Option<&'d IndexDef> {
    let over = || defs.iter().filter(|d| d.covers(table, src, dst));
    let layer_covers = |d: &&IndexDef| {
        let accel = d.accel.as_ref();
        accel.is_some_and(|a| specs.iter().all(|s| spec_accel_eligible(s, a.weight_key)))
    };
    let is_ch =
        |d: &&IndexDef| d.accel.as_ref().is_some_and(|a| a.kind == PathIndexKind::Contraction);
    over()
        .filter(layer_covers)
        .find(is_ch)
        .or_else(|| over().find(layer_covers))
        .or_else(|| over().find(|d| d.accel.is_none()))
}

/// What is built for one index definition.
#[derive(Debug)]
pub(crate) struct Artifact {
    /// The definition it was built for.
    def: IndexDef,
    /// The table entry it was built from.
    stamp: Stamp,
    /// The graph of the edge configuration.
    graph: Arc<MaterializedGraph>,
    /// The acceleration layer of a path index, over `graph`.
    layer: Option<Arc<AccelLayer>>,
}

impl Artifact {
    /// Whether this is a build of `def` from `entry`.
    fn serves(&self, def: &IndexDef, entry: &TableEntry) -> bool {
        self.stamp == stamp(entry) && self.def == *def
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

/// The artifacts built for a catalog's index definitions; see the
/// [module docs](self).
#[derive(Debug)]
pub struct IndexRegistry {
    /// The catalog whose definitions the artifacts are built for.
    catalog: Arc<Catalog>,
    /// At most one artifact per definition, in no order.
    artifacts: RwLock<Vec<Artifact>>,
    /// Acceleration layers built by this process.
    builds: AtomicU64,
}

impl IndexRegistry {
    /// An empty registry over `catalog`'s definitions.
    pub(crate) fn new(catalog: Arc<Catalog>) -> IndexRegistry {
        IndexRegistry { catalog, artifacts: RwLock::default(), builds: AtomicU64::default() }
    }

    fn read(&self) -> RwLockReadGuard<'_, Vec<Artifact>> {
        self.artifacts.read().expect("index registry lock poisoned")
    }

    fn write(&self) -> RwLockWriteGuard<'_, Vec<Artifact>> {
        self.artifacts.write().expect("index registry lock poisoned")
    }

    /// How many acceleration layers (ALT or CH) this process has built —
    /// eager creates plus lazy rebuilds. Restoring built layers from a
    /// snapshot does not count: a warm restart leaves this at zero.
    pub fn builds(&self) -> u64 {
        self.builds.load(Ordering::Acquire)
    }

    /// Names of the indexes in `space`, sorted.
    pub fn index_names(&self, space: IndexSpace) -> Vec<String> {
        let catalog = self.catalog.read();
        let defs = catalog.indexes().iter().filter(|d| d.space() == space);
        defs.map(|d| d.name.clone()).collect()
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
        let catalog = self.catalog.read();
        let def = select(catalog.indexes(), table, src, dst, specs)?;
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
            let catalog = self.catalog.read();
            let Some(def) = select(catalog.indexes(), table, src, dst, specs) else {
                return Ok(None);
            };
            let entry = catalog.entry(&def.table);
            let entry = entry.ok_or_else(|| StorageError::TableNotFound(def.table.clone()))?;
            if let Some(a) = self.read().iter().find(|a| a.serves(def, entry)) {
                let (graph, layer) = (Arc::clone(&a.graph), a.layer.clone());
                return Ok(Some(Served { graph, layer, index: Some(def.name.clone()) }));
            }
            (def.clone(), entry.clone())
        };
        let (graph, layer) = self.build(ctx, &def, &entry)?;
        let index = Some(def.name.clone());
        let served = Served { graph: Arc::clone(&graph), layer: layer.clone(), index };
        self.retain_current(Some(Artifact { def, stamp: stamp(&entry), graph, layer }));
        Ok(Some(served))
    }

    /// `CREATE GRAPH INDEX` (`accel: None`) or `CREATE PATH INDEX`
    /// (`accel: Some((weight column, kind))`): validate the definition,
    /// build it outside any lock, then apply it to the catalog. The name is
    /// checked first, so a duplicate costs no build; with `if_not_exists` it
    /// is a no-op. A table dropped during the build takes the definition
    /// with it: the create returns `Ok` and leaves nothing. Returns the
    /// bytes logged.
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
    ) -> Result<u64> {
        let space = if accel.is_some() { IndexSpace::Path } else { IndexSpace::Graph };
        if let Some((_, PathIndexKind::Landmarks(k))) = accel {
            if k == 0 || k > MAX_LANDMARKS {
                return Err(bind_err!(
                    "LANDMARKS count must be between 1 and {MAX_LANDMARKS}, got {k}"
                ));
            }
        }
        let exists = |e| match e {
            StorageError::IndexExists(..) if if_not_exists => Ok(0),
            e => Err(Error::Storage(e)),
        };
        if self.catalog.read().index(space, name).is_some() {
            return exists(StorageError::IndexExists(space, name.to_string()));
        }
        let entry = self.catalog.entry(table).map_err(Error::Storage)?;
        let schema = entry.table.schema();
        let column = |c: &str| {
            schema.index_of(c).ok_or_else(|| bind_err!("no column '{c}' in table '{table}'"))
        };
        edge_key_type(schema.column(column(src_col)?).ty, schema.column(column(dst_col)?).ty)?;
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
            name: name.to_ascii_lowercase(),
            table: table.to_ascii_lowercase(),
            src_col: src_col.to_string(),
            dst_col: dst_col.to_string(),
            accel,
        };
        let (graph, layer) = self.build(ctx, &def, &entry)?;
        let logged = match self.catalog.create_index(def.clone(), entry.id) {
            Ok(logged) => logged,
            Err(e) => return exists(e),
        };
        self.retain_current(Some(Artifact { def, stamp: stamp(&entry), graph, layer }));
        Ok(logged)
    }

    /// Build what `def` serves at `entry` — the one build path of creates
    /// and lazy rebuilds. `entry` is read once by the caller: the graph
    /// comes from it, and the caller stamps the result with it. An artifact
    /// over the same edges built from `entry` lends its graph as it is; one
    /// built from an older version of the same table that has only grown
    /// since ([`TableEntry::rewritten_at`]) lends its graph to be extended
    /// by the appended rows. The acceleration layer is always built anew.
    fn build(
        &self,
        ctx: &ExecContext<'_>,
        def: &IndexDef,
        entry: &TableEntry,
    ) -> Result<(Arc<MaterializedGraph>, Option<Arc<AccelLayer>>)> {
        let graph = match self.base_graph(def, entry) {
            Some((version, graph)) if version == entry.version => graph,
            base => {
                let source = match def.space() {
                    IndexSpace::Graph => BuildSource::GraphIndex,
                    IndexSpace::Path => BuildSource::PathIndex,
                };
                let (src_key, dst_key) = key_columns(def, entry.table.schema())?;
                let (base, edges) = (base.as_ref().map(|(_, g)| &**g), Arc::clone(&entry.table));
                Arc::new(build_graph_observed(ctx, source, base, edges, src_key, dst_key)?)
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

    /// The newest graph an artifact over `def`'s edges holds that `entry`
    /// derives from, and the version it was built from: one built from
    /// `entry` itself, served as it is, or from an older version of the
    /// same table that has only had rows appended since
    /// ([`TableEntry::rewritten_at`]), to be extended.
    pub(crate) fn base_graph(
        &self,
        def: &IndexDef,
        entry: &TableEntry,
    ) -> Option<(u64, Arc<MaterializedGraph>)> {
        let artifacts = self.read();
        let over = artifacts.iter().filter(|a| {
            let (id, version) = a.stamp;
            id == entry.id
                && (entry.rewritten_at..=entry.version).contains(&version)
                && a.def.covers(&def.table, &def.src_col, &def.dst_col)
        });
        over.max_by_key(|a| a.stamp.1).map(|a| (a.stamp.1, Arc::clone(&a.graph)))
    }

    /// Keep the artifacts the catalog still defines, over the tables they
    /// were built from — with `new`, replacing an older build of its
    /// definition — and forget the rest: their index or table was dropped,
    /// or the table re-created, since they were built.
    pub(crate) fn retain_current(&self, new: Option<Artifact>) {
        let catalog = self.catalog.read();
        let current = |a: &Artifact| {
            catalog.entry(&a.def.table).is_some_and(|e| e.id == a.stamp.0)
                && catalog.index(a.def.space(), &a.def.name) == Some(&a.def)
        };
        let mut artifacts = self.write();
        artifacts.retain(|a| current(a) && new.as_ref().is_none_or(|n| n.def != a.def));
        artifacts.extend(new.filter(|n| current(n)));
    }

    /// The graph built for index `name` in `space` from its table's current
    /// version, if there is one: what the next query the index serves reads
    /// (`None` when that query builds it first).
    pub fn graph(&self, space: IndexSpace, name: &str) -> Option<Arc<MaterializedGraph>> {
        let catalog = self.catalog.read();
        let def = catalog.index(space, name)?;
        let entry = catalog.entry(&def.table)?;
        self.read().iter().find(|a| a.serves(def, entry)).map(|a| Arc::clone(&a.graph))
    }

    /// The layer built for path index `def` from `entry`, if any: what a
    /// checkpoint persists beside the definition.
    pub(crate) fn built_layer(
        &self,
        def: &IndexDef,
        entry: &TableEntry,
    ) -> Option<Arc<AccelLayer>> {
        self.read().iter().find(|a| a.serves(def, entry)).and_then(|a| a.layer.clone())
    }

    /// Install a layer restored from a snapshot for path index `def`,
    /// built from `entry`. Its graph also serves every index over the same
    /// edges.
    pub(crate) fn restore(&self, def: IndexDef, entry: &TableEntry, layer: Arc<AccelLayer>) {
        let graph = Arc::clone(&layer.graph);
        self.retain_current(Some(Artifact { def, stamp: stamp(entry), graph, layer: Some(layer) }));
    }

    /// `SHOW PATH INDEXES`: every path index of `catalog` with its kind and
    /// freshness, sorted by name. `stale` means the next accelerated query
    /// rebuilds the layer (the table changed since it was built).
    pub fn list(&self, catalog: &Catalog) -> Vec<PathIndexListing> {
        let catalog = catalog.read();
        let artifacts = self.read();
        let defs = catalog.indexes().iter();
        defs.filter_map(|def| {
            let kind = def.accel.as_ref()?.kind.to_string();
            let entry = catalog.entry(&def.table)?;
            let built = artifacts.iter().any(|a| a.layer.is_some() && a.serves(def, entry));
            let (name, table) = (def.name.clone(), def.table.clone());
            Some(PathIndexListing {
                name,
                table,
                kind,
                status: if built { "built" } else { "stale" },
            })
        })
        .collect()
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

/// The slot weights of an acceleration layer's weight column: forward, and
/// backward over the reverse CSR.
type LayerWeights = (Arc<PreparedWeights>, PreparedWeights);

/// The integer slots of `weights`, forward and backward.
pub(crate) fn int_slots(weights: &Option<LayerWeights>) -> Option<(&[i64], &[i64])> {
    let (forward, backward) = weights.as_ref()?;
    forward.as_int().zip(backward.as_int())
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
    /// The weight column's slot weights (present iff the index declares
    /// one), from [`AccelLayer::derive_weights`].
    pub weights: Option<LayerWeights>,
}

impl AccelLayer {
    /// The slot weights of `accel`'s weight column over `graph`, or `None`
    /// for a hop index. The column is evaluated once ([`edge_weights`]) and
    /// gathered into the slots of both CSRs by [`PreparedWeights::new`]; the
    /// forward vector is the one in the graph's weight cache — the same
    /// `Arc` a `CHEAPEST SUM` over that column on that graph reads, put
    /// there now on a miss. A NULL or a weight that is not strictly
    /// positive fails as it fails a query.
    pub(crate) fn derive_weights(
        ctx: &ExecContext<'_>,
        graph: &MaterializedGraph,
        accel: &AccelDef,
    ) -> Result<Option<LayerWeights>> {
        let Some(index) = accel.weight_key else { return Ok(None) };
        let column = BoundExpr::Column { index, ty: DataType::Int };
        let weights = edge_weights(&column, DataType::Int, graph, ctx)?;
        let gather = |csr| PreparedWeights::new(csr, &weights, ctx.threads()).map_err(Error::Graph);
        let (forward, _) = slot_weights(&column, graph, ctx, true, || gather(&graph.csr))?;
        Ok(Some((forward, gather(graph.reverse())?)))
    }

    /// Build the layer of `accel` over `graph`: the reverse CSR, the
    /// weights ([`AccelLayer::derive_weights`]), and the structure, with the
    /// context's `threads` workers and within the statement deadline
    /// ([`Error::Timeout`] past it).
    fn build(
        ctx: &ExecContext<'_>,
        graph: &Arc<MaterializedGraph>,
        accel: &AccelDef,
    ) -> Result<AccelLayer> {
        let weights = AccelLayer::derive_weights(ctx, graph, accel)?;
        let slots = int_slots(&weights);
        // The build polls the statement deadline between its steps; a
        // timeout returns before anything is installed.
        let budget =
            Budget { threads: ctx.threads(), deadline: ctx.deadline_instant(), observer: None };
        let timed_out = |e| graph_err(ctx, e);
        let structure = match accel.kind {
            PathIndexKind::Landmarks(k) => AccelIndex::Alt(
                Landmarks::build_within(&graph.csr, graph.reverse(), slots, k as usize, &budget)
                    .map_err(timed_out)?,
            ),
            PathIndexKind::Contraction => AccelIndex::Ch(
                ContractionHierarchy::build_within(&graph.csr, slots.map(|(f, _)| f), &budget)
                    .map_err(timed_out)?,
            ),
        };
        Ok(AccelLayer { graph: Arc::clone(graph), accel: structure, weights })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsql_storage::{ColumnDef, Mutation, Schema, Value};

    fn setup() -> (Arc<Catalog>, IndexRegistry) {
        let catalog = Arc::new(Catalog::new());
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
        let reg = IndexRegistry::new(Arc::clone(&catalog));
        (catalog, reg)
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
        reg.create(&ctx(catalog), name, "roads", "a", "b", None, false).map(drop)
    }

    fn path_index(
        reg: &IndexRegistry,
        catalog: &Catalog,
        name: &str,
        weight: Option<&str>,
        kind: PathIndexKind,
    ) -> Result<()> {
        reg.create(&ctx(catalog), name, "roads", "a", "b", Some((weight, kind)), false).map(drop)
    }

    /// `DROP GRAPH|PATH INDEX name`, as the database runs it.
    fn drop_index(reg: &IndexRegistry, space: IndexSpace, name: &str) -> Result<()> {
        reg.catalog.apply(name, Mutation::DropIndex(space)).map_err(Error::Storage)?;
        reg.retain_current(None);
        Ok(())
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
        // Once the index is dropped nothing serves, the executor scans, and
        // its graph is forgotten.
        drop_index(&reg, IndexSpace::Graph, "gi").unwrap();
        assert!(reg.serve(&ctx(&catalog), "roads", "a", "b", &[hops()]).unwrap().is_none());
        assert!(reg.read().is_empty());
        assert_eq!(reg.builds(), 0, "a graph index has no layer");
    }

    /// An append extends the served graph — its reverse CSR too, when the
    /// old graph had built one — into the graph a build would make; a
    /// delete rebuilds it.
    #[test]
    fn appends_extend_the_graph_and_deletes_rebuild_it() {
        let (catalog, reg) = setup();
        graph_index(&reg, &catalog, "gi").unwrap();
        let first = serve(&reg, &catalog, hops()).graph;
        first.reverse();
        let built = || crate::build_graph(catalog.get("roads").unwrap(), 0, 1).unwrap();
        let same = |graph: &MaterializedGraph, built: &MaterializedGraph| {
            assert_eq!(graph.vertices(), built.vertices());
            assert_eq!((&graph.csr, graph.reverse()), (&built.csr, built.reverse()));
        };
        insert(&catalog, 4, 9, 1);
        insert(&catalog, 9, 1, 1);
        let grown = serve(&reg, &catalog, hops()).graph;
        same(&grown, &built());
        let entry = catalog.entry("roads").unwrap();
        let delete = Mutation::Delete { base_version: entry.version, positions: vec![0] };
        catalog.apply("roads", delete).unwrap();
        let rebuilt = serve(&reg, &catalog, hops()).graph;
        assert!(!Arc::ptr_eq(&rebuilt, &grown));
        same(&rebuilt, &built());
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
            let served = serve(&reg, &catalog, by_len());
            assert_eq!(served.index.as_deref(), Some(name));
            let layer = served.layer.as_ref().expect("a path index has a layer");
            assert!(Arc::ptr_eq(&served.graph, &layer.graph));
            assert!(layer.weights.is_some());
            // Exact accelerated distance through the cheap 1→2→3 route, for
            // one pair and for a batch, on the route the dispatcher picks.
            let s = served.graph.lookup(&Value::Int(1)).unwrap();
            let d = served.graph.lookup(&Value::Int(3)).unwrap();
            let costs = |pairs: &[(u32, u32)]| {
                let budget = gsql_graph::Budget { threads: 2, ..Default::default() };
                let route = crate::exec::graph_op::dispatch(&served, pairs.len(), &[by_len()]);
                let results = route.search.run(pairs, &budget, false).unwrap();
                let costs: Vec<_> = results.iter().map(|r| r.cost.map(|c| c.as_f64())).collect();
                (route.kind.as_str(), costs)
            };
            let (point, batch) = if name == "pa" { ("alt", "alt-multi") } else { ("ch", "ch-m2m") };
            assert_eq!(costs(&[(s, d)]), (point, vec![Some(10.0)]), "{name}");
            let want = vec![Some(10.0), None, Some(10.0)];
            assert_eq!(costs(&[(s, d), (d, s), (s, d)]), (batch, want), "{name}");
            let again = serve(&reg, &catalog, by_len()).layer;
            assert!(Arc::ptr_eq(layer, &again.unwrap()));
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
                let artifacts = reg.read();
                let Artifact { stamp: (_, v), graph, layer, .. } = &artifacts[0];
                assert_eq!(graph.num_edges(), rows_at(*v), "graph stamped {v}");
                assert_eq!(layer.as_ref().unwrap().graph.num_edges(), rows_at(*v), "layer {v}");
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
        assert_eq!(err.to_string(), "graph index 'X' already exists");
        let err = path_index(&reg, &catalog, "x", None, PathIndexKind::Contraction).unwrap_err();
        assert_eq!(err.to_string(), "path index 'x' already exists");
        drop_index(&reg, IndexSpace::Graph, "X").unwrap();
        assert!(reg.index_names(IndexSpace::Graph).is_empty());
        assert_eq!(reg.index_names(IndexSpace::Path), ["x"]);
        let err = drop_index(&reg, IndexSpace::Graph, "x").unwrap_err();
        assert_eq!(err.to_string(), "graph index 'x' does not exist");
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
        // IF NOT EXISTS over an existing name is a no-op that builds nothing.
        let kind = Some((None, PathIndexKind::Contraction));
        assert_eq!(reg.create(&ctx(&catalog), "PI", "roads", "a", "b", kind, true).unwrap(), 0);
        assert_eq!(reg.builds(), 1);
        assert_eq!(reg.list(&catalog)[0].kind, "landmarks(2)");
        catalog.drop_table("ROADS").unwrap();
        assert!(reg.index_names(IndexSpace::Graph).is_empty());
        assert!(reg.index_names(IndexSpace::Path).is_empty());
    }

    /// A build is served only for the definition and the table it was built
    /// from: a table re-created at the same version, or an index redefined
    /// over it, rebuilds, and the next build forgets the old artifacts.
    #[test]
    fn a_build_serves_only_its_definition_over_its_table() {
        let (catalog, reg) = setup();
        path_index(&reg, &catalog, "pc", None, PathIndexKind::Contraction).unwrap();
        let old = serve(&reg, &catalog, hops()).graph;
        let schema = catalog.get("roads").unwrap().schema().clone();
        catalog.drop_table("roads").unwrap();
        catalog.create_table("roads", schema).unwrap();
        let row = [7, 8, 1].map(Value::Int).to_vec();
        catalog.apply("roads", Mutation::Append(vec![row])).unwrap();
        assert_eq!(catalog.entry("roads").unwrap().version, 1, "the old table's version");
        path_index(&reg, &catalog, "pc", None, PathIndexKind::Contraction).unwrap();
        let new = serve(&reg, &catalog, hops()).graph;
        assert!(!Arc::ptr_eq(&old, &new) && new.num_edges() == 1);
        assert_eq!(reg.read().len(), 1, "the old table's artifact is gone");
        // The same name over the other direction is another definition.
        drop_index(&reg, IndexSpace::Path, "pc").unwrap();
        let def = |src: &str, dst: &str| IndexDef {
            name: "pc".into(),
            table: "roads".into(),
            src_col: src.into(),
            dst_col: dst.into(),
            accel: Some(AccelDef {
                weight_col: None,
                weight_key: None,
                kind: PathIndexKind::Contraction,
            }),
        };
        let id = catalog.entry("roads").unwrap().id;
        catalog.create_index(def("b", "a"), id).unwrap();
        assert_eq!(reg.list(&catalog)[0].status, "stale");
        // A definition over a table dropped since it was read is not applied.
        catalog.apply("pc", Mutation::DropIndex(IndexSpace::Path)).unwrap();
        assert_eq!(catalog.create_index(def("a", "b"), id + 1).unwrap(), 0);
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
