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
//! ([`IndexSpace`]); one structural counter, bumped by every create and
//! drop, takes part in
//! [`Database::schema_version`](crate::Database::schema_version), so cached
//! plans that decided for or against an index are re-planned.

use crate::context::ExecContext;
use crate::error::{bind_err, Error};
use crate::exec::graph_op::{build_graph_observed, BuildSource, MaterializedGraph};
use gsql_accel::{
    alt_multi_target, ch_many_to_many, ch_query, AltMultiResult, ContractionHierarchy, Landmarks,
};
use gsql_parallel::Pool;
use gsql_storage::catalog::TableEntry;
use gsql_storage::{Catalog, Column, DataType};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

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
/// registry, the optimizer's choice, `EXPLAIN` labels and the executor's
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

    /// Whether this index is over `(table, src, dst)`: `table` lowercased,
    /// column names matched case-insensitively.
    fn covers(&self, table: &str, src: &str, dst: &str) -> bool {
        self.table == table
            && self.src_col.eq_ignore_ascii_case(src)
            && self.dst_col.eq_ignore_ascii_case(dst)
    }

    fn same_edges(&self, other: &IndexDef) -> bool {
        self.covers(&other.table, &other.src_col, &other.dst_col)
    }
}

/// An artifact with the table version it was built from.
pub(crate) type Stamped<T> = Option<(u64, Arc<T>)>;

/// What an index serves a graph operator: the graph, and the acceleration
/// layer of a path index.
pub(crate) type Resolved = (Arc<MaterializedGraph>, Option<Arc<AccelLayer>>);

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
    /// Structural version: bumped by every create and drop.
    version: AtomicU64,
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

    /// The structural version: bumped on every index create or drop. Used
    /// for plan-cache invalidation.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Restore the structural version recorded in a snapshot, so a reopened
    /// database reports the `schema_version` it had when it was taken.
    pub(crate) fn set_version(&self, version: u64) {
        self.version.store(version, Ordering::Release);
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

    /// The definitions in `space` over `(table, src, dst)`, sorted by name —
    /// what the optimizer chooses among.
    pub(crate) fn covering(
        &self,
        space: IndexSpace,
        table: &str,
        src: &str,
        dst: &str,
    ) -> Vec<IndexDef> {
        let table = table.to_ascii_lowercase();
        let entries = self.read();
        entries
            .iter()
            .filter(|e| e.def.space() == space && e.def.covers(&table, src, dst))
            .map(|e| e.def.clone())
            .collect()
    }

    /// The graph — and layer, for a path index — of the index `name` in
    /// `space` at its table's current version, rebuilding what is stale.
    /// `None` when the index no longer exists: the caller scans instead.
    pub(crate) fn resolve(
        &self,
        ctx: &ExecContext<'_>,
        space: IndexSpace,
        name: &str,
    ) -> Result<Option<Resolved>> {
        let (def, entry) = {
            let entries = self.read();
            let found = entries
                .iter()
                .find(|e| e.def.space() == space && e.def.name.eq_ignore_ascii_case(name));
            let Some(e) = found else {
                return Ok(None);
            };
            let entry = ctx.catalog().entry(&e.def.table).map_err(Error::Storage)?;
            if let Some(hit) = e.fresh(entry.version) {
                return Ok(Some(hit));
            }
            (e.def.clone(), entry)
        };
        let built = self.build(ctx, &def, &entry)?;
        install(&mut self.write(), &def, entry.version, &built);
        Ok(Some(built))
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
        drop(entries);
        self.version.fetch_add(1, Ordering::AcqRel);
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
        let removed = entries.len() != before;
        drop(entries);
        if removed {
            self.version.fetch_add(1, Ordering::AcqRel);
        } else if !if_exists {
            return Err(bind_err!("{} '{name}' does not exist", space.noun()));
        }
        Ok(())
    }

    /// Remove every index over `table` (`DROP TABLE`): one structural bump
    /// per name space that lost an entry.
    pub(crate) fn drop_table(&self, table: &str) {
        let table = table.to_ascii_lowercase();
        let mut entries = self.write();
        let bumps = [IndexSpace::Graph, IndexSpace::Path]
            .into_iter()
            .filter(|&s| entries.iter().any(|e| e.def.space() == s && e.def.table == table))
            .count();
        entries.retain(|e| e.def.table != table);
        drop(entries);
        self.version.fetch_add(bumps as u64, Ordering::AcqRel);
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
    /// without building or bumping the structural version. A restored
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
    /// Ordinal of the weight column in the edge table's schema; `None` for
    /// a hop-distance index.
    pub weight_key: Option<usize>,
    /// Weights in forward-CSR slot order (present iff `weight_key`).
    pub weights_fwd: Option<Vec<i64>>,
    /// Weights in reverse-CSR slot order (present iff `weight_key`).
    pub weights_bwd: Option<Vec<i64>>,
}

/// The outcome of one accelerated search over a batch of pairs.
#[derive(Debug)]
pub(crate) struct AccelRun {
    /// Exact per-pair cost in input order; `None` when unreachable.
    pub dist: Vec<Option<u64>>,
    /// Vertices settled across every search of the run.
    pub settled: usize,
    /// Bucket entries of a many-to-many CH run.
    buckets: usize,
}

impl AccelLayer {
    /// Build the layer of `accel` over `graph`: the reverse CSR, the
    /// validated slot weights of the weight column (strictly positive and
    /// integral), and the structure, with the context's `threads` workers.
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
        let structure = match accel.kind {
            PathIndexKind::Landmarks(k) => {
                AccelIndex::Alt(Landmarks::build(&graph.csr, reverse, weights, k as usize, threads))
            }
            PathIndexKind::Contraction => AccelIndex::Ch(ContractionHierarchy::build(
                &graph.csr,
                weights_fwd.as_deref(),
                threads,
            )),
        };
        Ok(AccelLayer {
            graph: Arc::clone(graph),
            accel: structure,
            weight_key: accel.weight_key,
            weights_fwd,
            weights_bwd,
        })
    }

    /// The metrics label of the tier that answers `pairs` pairs — one of
    /// [`gsql_obs::ACCEL_KINDS`]: the point-to-point search for one pair,
    /// the many-to-many tier otherwise.
    pub(crate) fn kind(&self, pairs: usize) -> &'static str {
        match (&self.accel, pairs == 1) {
            (AccelIndex::Alt(_), true) => "alt",
            (AccelIndex::Ch(_), true) => "ch",
            (AccelIndex::Alt(_), false) => "alt-multi",
            (AccelIndex::Ch(_), false) => "ch-m2m",
        }
    }

    /// Answer every pair over the layer's native weights (hop distances for
    /// an unweighted index), bit-identical to per-pair Dijkstra at every
    /// thread count. `None` when `deadline` expires between per-vertex
    /// search phases (the caller maps that to the statement timeout).
    ///
    /// One pair runs the point-to-point search. More run the many-to-many
    /// tier: a CH answers the whole matrix bucket-style — one backward
    /// upward search per distinct target filling per-vertex buckets, one
    /// forward upward search per distinct source scanning them, `S + T`
    /// searches for `S × T` pairs — and ALT runs one multi-target
    /// goal-directed search per distinct source (the landmark bound
    /// aggregated over that source's targets). Both fan out over `threads`
    /// workers.
    pub(crate) fn search(
        &self,
        pairs: &[(u32, u32)],
        threads: usize,
        deadline: Option<Instant>,
    ) -> Option<AccelRun> {
        let point = |(dist, settled): (Option<u64>, usize)| AccelRun {
            dist: vec![dist],
            settled,
            buckets: 0,
        };
        match (&self.accel, pairs) {
            (AccelIndex::Alt(lm), &[(s, d)]) => {
                let weights = self.weights_fwd.as_deref().zip(self.weights_bwd.as_deref());
                let graph = &self.graph;
                let r =
                    gsql_accel::alt_bidirectional(&graph.csr, graph.reverse(), weights, lm, s, d);
                Some(point((r.dist, r.settled)))
            }
            (AccelIndex::Ch(ch), &[(s, d)]) => {
                let r = ch_query(ch, s, d);
                Some(point((r.dist, r.settled)))
            }
            (AccelIndex::Ch(ch), _) => {
                let distinct = |end: fn(&(u32, u32)) -> u32| {
                    let mut ids: Vec<u32> = pairs.iter().map(end).collect();
                    ids.sort_unstable();
                    ids.dedup();
                    ids
                };
                let (sources, targets) = (distinct(|p| p.0), distinct(|p| p.1));
                let m = ch_many_to_many(ch, &sources, &targets, threads, deadline)?;
                let dist = pairs
                    .iter()
                    .map(|&(s, d)| {
                        let si = sources.binary_search(&s).expect("source in distinct set");
                        let ti = targets.binary_search(&d).expect("target in distinct set");
                        let v = m.dist(si, ti, targets.len());
                        (v != gsql_accel::INF).then_some(v)
                    })
                    .collect();
                Some(AccelRun { dist, settled: m.settled, buckets: m.bucket_entries })
            }
            (AccelIndex::Alt(lm), _) => {
                // Group pairs by source (input indices, like BatchComputer)
                // so each distinct source runs one multi-target search over
                // exactly its own target set.
                let mut order: Vec<usize> = (0..pairs.len()).collect();
                order.sort_unstable_by_key(|&i| pairs[i].0);
                let groups: Vec<&[usize]> =
                    order.chunk_by(|&a, &b| pairs[a].0 == pairs[b].0).collect();
                let expired = AtomicBool::new(false);
                let weights = self.weights_fwd.as_deref();
                let per_group: Vec<AltMultiResult> = Pool::new(threads).map(groups.len(), |gi| {
                    if let Some(deadline) = deadline {
                        if expired.load(Ordering::Relaxed) || Instant::now() >= deadline {
                            expired.store(true, Ordering::Relaxed);
                            return AltMultiResult { dist: Vec::new(), settled: 0 };
                        }
                    }
                    let group = groups[gi];
                    let targets: Vec<u32> = group.iter().map(|&i| pairs[i].1).collect();
                    alt_multi_target(&self.graph.csr, weights, lm, pairs[group[0]].0, &targets)
                });
                if expired.load(Ordering::Relaxed) {
                    return None;
                }
                let mut dist = vec![None; pairs.len()];
                let mut settled = 0usize;
                for (group, r) in groups.iter().zip(per_group) {
                    settled += r.settled;
                    for (&i, &d) in group.iter().zip(&r.dist) {
                        dist[i] = (d != gsql_accel::INF).then_some(d);
                    }
                }
                Some(AccelRun { dist, settled, buckets: 0 })
            }
        }
    }

    /// The size of the structure that answered `run` over `pairs` pairs,
    /// as a `traversal` span attribute: `landmarks` for ALT, `shortcuts`
    /// for a CH point search, `buckets` (entries) for CH many-to-many.
    pub(crate) fn shape(&self, run: &AccelRun, pairs: usize) -> (&'static str, usize) {
        match &self.accel {
            AccelIndex::Alt(lm) => ("landmarks", lm.len()),
            AccelIndex::Ch(ch) if pairs == 1 => ("shortcuts", ch.shortcuts()),
            AccelIndex::Ch(_) => ("buckets", run.buckets),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsql_storage::{ColumnDef, Schema, Value};

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
        catalog
            .update("roads", |t| {
                for (a, b, len) in [(1, 2, 5), (2, 3, 5), (1, 3, 20), (3, 4, 1)] {
                    t.append_row(vec![Value::Int(a), Value::Int(b), Value::Int(len)])?;
                }
                Ok(())
            })
            .unwrap();
        (catalog, IndexRegistry::new())
    }

    fn ctx(catalog: &Catalog) -> ExecContext<'_> {
        let settings = crate::context::SessionSettings { threads: 2, ..Default::default() };
        ExecContext::new(catalog, &[], None).with_settings(settings)
    }

    fn insert(catalog: &Catalog, a: i64, b: i64, len: i64) {
        catalog
            .update("roads", |t| t.append_row(vec![Value::Int(a), Value::Int(b), Value::Int(len)]))
            .unwrap();
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

    fn resolve(reg: &IndexRegistry, catalog: &Catalog, space: IndexSpace, name: &str) -> Resolved {
        reg.resolve(&ctx(catalog), space, name).unwrap().expect("index exists")
    }

    #[test]
    fn graph_index_resolves_and_rebuilds_after_a_write() {
        let (catalog, reg) = setup();
        graph_index(&reg, &catalog, "GI").unwrap();
        let (g1, layer) = resolve(&reg, &catalog, IndexSpace::Graph, "gi");
        assert!(layer.is_none());
        assert_eq!(g1.num_edges(), 4);
        // Same Arc while the table is unchanged.
        let (again, _) = resolve(&reg, &catalog, IndexSpace::Graph, "gi");
        assert!(Arc::ptr_eq(&g1, &again));
        insert(&catalog, 4, 5, 2);
        let (g2, _) = resolve(&reg, &catalog, IndexSpace::Graph, "gi");
        assert_eq!(g2.num_edges(), 5);
        let (g3, _) = resolve(&reg, &catalog, IndexSpace::Graph, "gi");
        assert!(!Arc::ptr_eq(&g1, &g2) && Arc::ptr_eq(&g2, &g3));
        // A dropped index resolves to nothing: the executor scans instead.
        reg.drop_index(IndexSpace::Graph, "gi", false).unwrap();
        assert!(reg.resolve(&ctx(&catalog), IndexSpace::Graph, "gi").unwrap().is_none());
        assert_eq!(reg.builds(), 0, "a graph index has no layer");
    }

    #[test]
    fn covering_matches_the_edge_configuration_and_space() {
        let (catalog, reg) = setup();
        graph_index(&reg, &catalog, "gi").unwrap();
        path_index(&reg, &catalog, "pi", None, PathIndexKind::Landmarks(2)).unwrap();
        let names = |space, table: &str, src: &str, dst: &str| -> Vec<String> {
            reg.covering(space, table, src, dst).into_iter().map(|d| d.name).collect()
        };
        assert_eq!(names(IndexSpace::Graph, "ROADS", "A", "B"), ["gi"]);
        assert_eq!(names(IndexSpace::Path, "roads", "a", "b"), ["pi"]);
        // The reversed direction is a different graph; so is another table.
        assert!(names(IndexSpace::Graph, "roads", "b", "a").is_empty());
        assert!(names(IndexSpace::Path, "other", "a", "b").is_empty());
    }

    #[test]
    fn path_index_layers_answer_exact_distances() {
        let (catalog, reg) = setup();
        for (name, kind) in
            [("pa", PathIndexKind::Landmarks(2)), ("pc", PathIndexKind::Contraction)]
        {
            path_index(&reg, &catalog, name, Some("len"), kind).unwrap();
            let (graph, layer) = resolve(&reg, &catalog, IndexSpace::Path, name);
            let layer = layer.expect("a path index has a layer");
            assert!(Arc::ptr_eq(&graph, &layer.graph));
            assert_eq!(layer.weight_key, Some(2));
            // Exact accelerated distance through the cheap 1→2→3 route, for
            // one pair and for a batch.
            let s = graph.lookup(&Value::Int(1)).unwrap();
            let d = graph.lookup(&Value::Int(3)).unwrap();
            assert_eq!(layer.search(&[(s, d)], 2, None).unwrap().dist, [Some(10)], "{name}");
            let run = layer.search(&[(s, d), (d, s), (s, d)], 2, None).unwrap();
            assert_eq!(run.dist, [Some(10), None, Some(10)], "{name}");
            let (_, again) = resolve(&reg, &catalog, IndexSpace::Path, name);
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
        let shared = |reg: &IndexRegistry| {
            let (g, _) = resolve(reg, &catalog, IndexSpace::Graph, "gi");
            let (p, layer) = resolve(reg, &catalog, IndexSpace::Path, "pc");
            assert!(Arc::ptr_eq(&p, &layer.unwrap().graph));
            Arc::ptr_eq(&g, &p)
        };
        assert!(shared(&reg), "the path index reused the graph index's build");
        insert(&catalog, 4, 5, 2);
        assert!(shared(&reg));
        assert_eq!(reg.builds(), 2, "one layer build per table version");
        // The other order: the path index rebuilds first.
        insert(&catalog, 5, 6, 2);
        let (p, _) = resolve(&reg, &catalog, IndexSpace::Path, "pc");
        let (g, _) = resolve(&reg, &catalog, IndexSpace::Graph, "gi");
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
                resolve(&reg, &catalog, IndexSpace::Path, "pc");
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
        assert_eq!(reg.version(), 0, "failed creates register nothing");
    }

    #[test]
    fn version_counts_creates_and_drops_per_name_space() {
        let (catalog, reg) = setup();
        graph_index(&reg, &catalog, "gi").unwrap();
        path_index(&reg, &catalog, "pi", None, PathIndexKind::Landmarks(2)).unwrap();
        assert_eq!(reg.version(), 2);
        // IF NOT EXISTS over an existing name and IF EXISTS over a missing
        // one are no-ops that leave the version (and cached plans) alone.
        let kind = Some((None, PathIndexKind::Contraction));
        reg.create(&ctx(&catalog), "PI", "roads", "a", "b", kind, true).unwrap();
        reg.drop_index(IndexSpace::Path, "ghost", true).unwrap();
        assert!(reg.drop_index(IndexSpace::Path, "ghost", false).is_err());
        assert_eq!(reg.version(), 2);
        assert_eq!(reg.list(&catalog)[0].kind, "landmarks(2)");
        // DROP TABLE bumps once per name space it empties.
        reg.drop_table("ROADS");
        assert_eq!(reg.version(), 4);
        reg.drop_table("roads");
        assert_eq!(reg.version(), 4);
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
        resolve(&reg, &catalog, IndexSpace::Graph, "gi");
        resolve(&reg, &catalog, IndexSpace::Path, "pa");
        assert_eq!(
            status(&reg),
            [row("pa", "landmarks(2)", "built"), row("pc", "contraction", "stale")]
        );
    }
}
