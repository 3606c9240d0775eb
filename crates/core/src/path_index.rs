//! Path indexes — the catalog layer of the path-acceleration subsystem.
//!
//! A path index, created with `CREATE PATH INDEX name ON table EDGE (s, d)
//! [WEIGHT col] USING {LANDMARKS(k) | CONTRACTION}`, precomputes everything
//! a point-to-point shortest-path query needs:
//!
//! * the [`MaterializedGraph`] (snapshot + dictionary + CSR) and its
//!   reverse CSR;
//! * the per-slot weight arrays of both directions (when a `WEIGHT` column
//!   is given; validated strictly positive and integral at build time);
//! * one **acceleration index** ([`AccelIndex`]) of the declared kind — an
//!   ALT [`Landmarks`] set for goal-directed bidirectional A\*, or a
//!   [`ContractionHierarchy`] for bidirectional upward Dijkstra with
//!   stall-on-demand.
//!
//! Both kinds answer single-pair queries with costs **bit-identical** to
//! plain Dijkstra; they differ only in preprocessing cost and per-query
//! pruning, so the optimizer may pick freely ([`PathIndexKind`] carries the
//! choice through planning, `EXPLAIN` and the executor).
//!
//! Invalidation mirrors the graph-index registry: entries cache against the
//! catalog's per-table **version counter** (any DML bumps it; the next
//! query rebuilds lazily), and the registry's own **structural version**
//! participates in [`Database::schema_version`](crate::Database::
//! schema_version), so cached plans that decided for or against a path
//! index are invalidated by `CREATE`/`DROP PATH INDEX`.

use crate::context::ExecContext;
use crate::error::{bind_err, Error};
use crate::exec::graph_op::{build_graph_observed, BuildSource, MaterializedGraph};
use gsql_accel::{
    alt_multi_target, ch_many_to_many, ch_query, AltMultiResult, ContractionHierarchy, Landmarks,
};
use gsql_parallel::Pool;
use gsql_storage::{Catalog, Column, DataType};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

type Result<T> = std::result::Result<T, Error>;

/// Upper bound on the landmark count: beyond this the `O(k)` per-vertex
/// bound evaluation starts to cost more than the pruning saves, and the
/// index memory (`2·k·|V|·8` bytes) grows without benefit.
pub const MAX_LANDMARKS: u32 = 64;

/// Landmark count used when `GSQL_PATH_INDEX_KIND=landmarks` overrides a
/// `USING CONTRACTION` declaration (no `k` was declared to reuse).
const FORCED_LANDMARKS: u32 = 8;

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

/// CI / experimentation override: `GSQL_PATH_INDEX_KIND=contraction` (or
/// `ch`) builds every path index as a contraction hierarchy regardless of
/// its `USING` clause; `landmarks` / `alt` forces ALT. Unset or anything
/// else honours the DDL. Cached after the first read (mirrors
/// `GSQL_PATH_INDEX` / `GSQL_THREADS`). Declared-kind *validation* (e.g.
/// the landmark-count range) still applies before the override.
fn forced_kind() -> Option<PathIndexKind> {
    static CACHE: OnceLock<Option<PathIndexKind>> = OnceLock::new();
    *CACHE.get_or_init(|| {
        let value = std::env::var("GSQL_PATH_INDEX_KIND")
            .map(|v| v.trim().to_ascii_lowercase())
            .unwrap_or_default();
        match value.as_str() {
            "contraction" | "ch" => Some(PathIndexKind::Contraction),
            "landmarks" | "alt" => Some(PathIndexKind::Landmarks(FORCED_LANDMARKS)),
            _ => None,
        }
    })
}

/// The kind actually built for a declared kind, after the
/// `GSQL_PATH_INDEX_KIND` override. A forced-landmarks override keeps a
/// declared landmark count.
fn effective_kind(declared: PathIndexKind) -> PathIndexKind {
    match (forced_kind(), declared) {
        (Some(PathIndexKind::Landmarks(_)), PathIndexKind::Landmarks(k)) => {
            PathIndexKind::Landmarks(k)
        }
        (Some(forced), _) => forced,
        (None, declared) => declared,
    }
}

/// The built acceleration structure of one path index.
#[derive(Debug)]
pub enum AccelIndex {
    /// An ALT landmark index.
    Alt(Landmarks),
    /// A contraction hierarchy.
    Ch(ContractionHierarchy),
}

/// Everything a query needs from one built path index.
#[derive(Debug)]
pub struct PathIndexData {
    /// The materialized graph (snapshot, CSR, dictionary). Its reverse CSR
    /// is forced at build time, so queries never pay for it.
    pub graph: Arc<MaterializedGraph>,
    /// The acceleration index (ALT landmarks or contraction hierarchy).
    pub accel: AccelIndex,
    /// Ordinal of the weight column in the edge table's schema; `None` for
    /// a hop-distance index.
    pub weight_key: Option<usize>,
    /// Weights in forward-CSR slot order (present iff `weight_key`).
    pub weights_fwd: Option<Vec<i64>>,
    /// Weights in reverse-CSR slot order (present iff `weight_key`).
    pub weights_bwd: Option<Vec<i64>>,
}

impl PathIndexData {
    /// The per-slot weight pair in the form [`gsql_accel::alt_bidirectional`]
    /// consumes (`None` = unit weights).
    pub fn weight_slices(&self) -> Option<(&[i64], &[i64])> {
        match (&self.weights_fwd, &self.weights_bwd) {
            (Some(f), Some(b)) => Some((f.as_slice(), b.as_slice())),
            _ => None,
        }
    }

    /// One accelerated point-to-point search over the index's native
    /// weights (hop distances for an unweighted index): `(exact cost,
    /// settled vertices)`. Dispatches on the built [`AccelIndex`]; either
    /// way the cost is bit-identical to plain Dijkstra.
    pub fn search(&self, source: u32, dest: u32) -> (Option<u64>, usize) {
        match &self.accel {
            AccelIndex::Alt(lm) => {
                let r = gsql_accel::alt_bidirectional(
                    &self.graph.csr,
                    self.graph.reverse(),
                    self.weight_slices(),
                    lm,
                    source,
                    dest,
                );
                (r.dist, r.settled)
            }
            AccelIndex::Ch(ch) => {
                let r = ch_query(ch, source, dest);
                (r.dist, r.settled)
            }
        }
    }

    /// One accelerated **batch** search: every `(source, dest)` pair
    /// answered over the index's native weights, bit-identical to per-pair
    /// Dijkstra at every thread count. Returns `None` when `deadline`
    /// expires between per-vertex search phases (the caller maps that to
    /// the statement timeout).
    ///
    /// A CH index answers the whole batch with the bucket-based
    /// many-to-many algorithm — one backward upward search per distinct
    /// target filling per-vertex buckets, one forward upward search per
    /// distinct source scanning them — so an `S × T` matrix costs `S + T`
    /// upward searches. An ALT index runs one multi-target goal-directed
    /// search per distinct source (the landmark bound aggregated over that
    /// source's target set). Both fan out over a pool of `threads`
    /// workers.
    pub fn search_batch(
        &self,
        pairs: &[(u32, u32)],
        threads: usize,
        deadline: Option<Instant>,
    ) -> Option<BatchSearch> {
        match &self.accel {
            AccelIndex::Ch(ch) => {
                let mut sources: Vec<u32> = pairs.iter().map(|&(s, _)| s).collect();
                sources.sort_unstable();
                sources.dedup();
                let mut targets: Vec<u32> = pairs.iter().map(|&(_, d)| d).collect();
                targets.sort_unstable();
                targets.dedup();
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
                Some(BatchSearch {
                    dist,
                    settled: m.settled,
                    kind: "ch-m2m",
                    detail: format!("settled={} (ch-m2m, buckets={})", m.settled, m.bucket_entries),
                })
            }
            AccelIndex::Alt(lm) => {
                // Group pairs by source (input indices, like BatchComputer)
                // so each distinct source runs one multi-target search over
                // exactly its own target set.
                let mut order: Vec<usize> = (0..pairs.len()).collect();
                order.sort_unstable_by_key(|&i| pairs[i].0);
                let mut groups: Vec<(u32, std::ops::Range<usize>)> = Vec::new();
                let mut g = 0;
                while g < order.len() {
                    let source = pairs[order[g]].0;
                    let mut end = g;
                    while end < order.len() && pairs[order[end]].0 == source {
                        end += 1;
                    }
                    groups.push((source, g..end));
                    g = end;
                }
                let pool = Pool::new(threads);
                let expired = AtomicBool::new(false);
                let weights = self.weights_fwd.as_deref();
                let per_group: Vec<AltMultiResult> = pool.map(groups.len(), |gi| {
                    if let Some(deadline) = deadline {
                        if expired.load(Ordering::Relaxed) || Instant::now() >= deadline {
                            expired.store(true, Ordering::Relaxed);
                            return AltMultiResult { dist: Vec::new(), settled: 0 };
                        }
                    }
                    let (source, ref range) = groups[gi];
                    let targets: Vec<u32> =
                        order[range.clone()].iter().map(|&i| pairs[i].1).collect();
                    alt_multi_target(&self.graph.csr, weights, lm, source, &targets)
                });
                if expired.load(Ordering::Relaxed) {
                    return None;
                }
                let mut dist = vec![None; pairs.len()];
                let mut settled = 0usize;
                for ((_, range), r) in groups.iter().zip(per_group) {
                    settled += r.settled;
                    for (&i, &d) in order[range.clone()].iter().zip(&r.dist) {
                        dist[i] = (d != gsql_accel::INF).then_some(d);
                    }
                }
                Some(BatchSearch {
                    dist,
                    settled,
                    kind: "alt-multi",
                    detail: format!("settled={settled} (alt-multi, landmarks={})", lm.len()),
                })
            }
        }
    }

    /// The metrics label of the point-to-point tier this index serves
    /// queries with — one of [`gsql_obs::ACCEL_KINDS`].
    pub fn kind_name(&self) -> &'static str {
        match &self.accel {
            AccelIndex::Alt(_) => "alt",
            AccelIndex::Ch(_) => "ch",
        }
    }

    /// The `EXPLAIN ANALYZE` detail line for a query that settled
    /// `settled` vertices through this index.
    pub fn analyze_detail(&self, settled: usize) -> String {
        match &self.accel {
            AccelIndex::Alt(lm) => {
                format!("settled={settled} (alt, landmarks={})", lm.len())
            }
            AccelIndex::Ch(ch) => {
                format!("settled={settled} (ch, shortcuts={})", ch.shortcuts())
            }
        }
    }
}

/// The result of one [`PathIndexData::search_batch`] call.
#[derive(Debug)]
pub struct BatchSearch {
    /// Exact per-pair cost in input order; `None` when unreachable.
    pub dist: Vec<Option<u64>>,
    /// Vertices settled across every search of the batch.
    pub settled: usize,
    /// The metrics label of the many-to-many tier that ran — `"ch-m2m"`
    /// or `"alt-multi"` (one of [`gsql_obs::ACCEL_KINDS`]).
    pub kind: &'static str,
    /// The `EXPLAIN ANALYZE` detail line, tier included —
    /// `settled=N (ch-m2m, buckets=B)` or
    /// `settled=N (alt-multi, landmarks=k)`.
    pub detail: String,
}

/// Planner-visible description of a registered path index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathIndexMeta {
    /// Index name (lowercased registry key).
    pub name: String,
    /// Ordinal of the weight column in the table schema, `None` for hops.
    pub weight_key: Option<usize>,
    /// The (effective) kind the index is built as.
    pub kind: PathIndexKind,
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
    /// `built` when the cached data matches the table's current version,
    /// `stale` when the next accelerated query will rebuild it.
    pub status: &'static str,
}

/// The persisted form of one path-index registry entry: the definition
/// plus, when the index was built, the data and the table version the
/// build observed.
#[derive(Debug)]
pub(crate) struct PathIndexSnapshotEntry {
    /// Lowercased registry key.
    pub name: String,
    /// Lowercased indexed table.
    pub table: String,
    /// Source key column, as declared.
    pub src_col: String,
    /// Destination key column, as declared.
    pub dst_col: String,
    /// Weight column, as declared (`None` = hop distances).
    pub weight_col: Option<String>,
    /// Ordinal of the weight column in the table schema.
    pub weight_key: Option<usize>,
    /// The effective kind the index is built as.
    pub kind: PathIndexKind,
    /// `(table version when built, the data)` — `None` when stale.
    pub built: Option<(u64, Arc<PathIndexData>)>,
}

/// One registered path index.
#[derive(Debug)]
struct IndexEntry {
    table: String,
    src_col: String,
    dst_col: String,
    weight_col: Option<String>,
    weight_key: Option<usize>,
    /// The effective kind (declared kind after the CI override).
    kind: PathIndexKind,
    /// `(table version when built, the data)`.
    cached: Option<(u64, Arc<PathIndexData>)>,
}

/// Registry of path indexes, keyed by (lowercased) index name.
///
/// Carries a structural version counter bumped on create/drop, consumed by
/// the session plan cache through `Database::schema_version`.
#[derive(Debug, Default)]
pub struct PathIndexRegistry {
    inner: RwLock<HashMap<String, IndexEntry>>,
    version: AtomicU64,
    /// Full index builds performed by this process (eager creates plus lazy
    /// rebuilds). A warm restart from a matching snapshot leaves this at
    /// zero — the restart benchmark and tests assert on it.
    builds: AtomicU64,
}

impl PathIndexRegistry {
    /// Empty registry.
    pub fn new() -> PathIndexRegistry {
        PathIndexRegistry::default()
    }

    /// Structural version (bumped on every create/drop).
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// How many full acceleration-index builds this process has run
    /// (creates and lazy rebuilds). Restoring built indexes from a
    /// snapshot does not count: that is the warm-start guarantee.
    pub fn builds(&self) -> u64 {
        self.builds.load(Ordering::Acquire)
    }

    fn bump_version(&self) {
        self.version.fetch_add(1, Ordering::AcqRel);
    }

    /// Every index covering `(table, src_col, dst_col)`, sorted by name so
    /// planning is deterministic (matching is case-insensitive). Several
    /// indexes may cover one edge configuration — e.g. a hop index and a
    /// weighted index, or an ALT and a CH index — and the optimizer picks
    /// among the ones whose weight configuration the query's specs can
    /// actually use.
    pub fn find_indexes(&self, table: &str, src_col: &str, dst_col: &str) -> Vec<PathIndexMeta> {
        let table_key = table.to_ascii_lowercase();
        let inner = self.inner.read().expect("registry lock poisoned");
        let mut found: Vec<PathIndexMeta> = inner
            .iter()
            .filter(|(_, e)| {
                e.table == table_key
                    && e.src_col.eq_ignore_ascii_case(src_col)
                    && e.dst_col.eq_ignore_ascii_case(dst_col)
            })
            .map(|(name, e)| PathIndexMeta {
                name: name.clone(),
                weight_key: e.weight_key,
                kind: e.kind,
            })
            .collect();
        found.sort_by(|a, b| a.name.cmp(&b.name));
        found
    }

    /// Fetch the (fresh) data of the index named `name`, rebuilding a stale
    /// cache entry with the context's `threads` workers. `None` when the
    /// index no longer exists — callers fall back to the unaccelerated path.
    pub fn data_by_name(
        &self,
        ctx: &ExecContext<'_>,
        name: &str,
    ) -> Result<Option<Arc<PathIndexData>>> {
        let catalog = ctx.catalog();
        let key = name.to_ascii_lowercase();
        let (table, src_col, dst_col, weight_col, kind) = {
            let inner = self.inner.read().expect("registry lock poisoned");
            let Some(entry) = inner.get(&key) else {
                return Ok(None);
            };
            let current = catalog.entry(&entry.table).map_err(Error::Storage)?;
            if let Some((version, data)) = &entry.cached {
                if *version == current.version {
                    return Ok(Some(Arc::clone(data)));
                }
            }
            (
                entry.table.clone(),
                entry.src_col.clone(),
                entry.dst_col.clone(),
                entry.weight_col.clone(),
                entry.kind,
            )
        };
        // Stale: rebuild outside the read lock.
        let entry = catalog.entry(&table).map_err(Error::Storage)?;
        let data =
            Arc::new(build_data(ctx, &table, &src_col, &dst_col, weight_col.as_deref(), kind)?);
        self.builds.fetch_add(1, Ordering::AcqRel);
        let mut inner = self.inner.write().expect("registry lock poisoned");
        if let Some(e) = inner.get_mut(&key) {
            // Skip the write-back if the index was concurrently dropped and
            // recreated over a different configuration (columns, weight or
            // index kind).
            if e.table == table
                && e.src_col.eq_ignore_ascii_case(&src_col)
                && e.dst_col.eq_ignore_ascii_case(&dst_col)
                && e.weight_col == weight_col
                && e.kind == kind
            {
                e.cached = Some((entry.version, Arc::clone(&data)));
            }
        }
        Ok(Some(data))
    }

    /// Create an index and build its acceleration data eagerly with the
    /// context's `threads` workers. With `if_not_exists`, creating over an
    /// existing name is a no-op (returns `Ok` without building).
    #[allow(clippy::too_many_arguments)]
    pub fn create_index(
        &self,
        ctx: &ExecContext<'_>,
        name: &str,
        table: &str,
        src_col: &str,
        dst_col: &str,
        weight_col: Option<&str>,
        kind: PathIndexKind,
        if_not_exists: bool,
    ) -> Result<()> {
        let catalog = ctx.catalog();
        let key = name.to_ascii_lowercase();
        if let PathIndexKind::Landmarks(k) = kind {
            if k == 0 || k > MAX_LANDMARKS {
                return Err(bind_err!(
                    "LANDMARKS count must be between 1 and {MAX_LANDMARKS}, got {k}"
                ));
            }
        }
        // Reject duplicate names before paying for the build; the write
        // lock below re-checks to close the create/create race.
        if self.inner.read().expect("registry lock poisoned").contains_key(&key) {
            if if_not_exists {
                return Ok(());
            }
            return Err(bind_err!("path index '{name}' already exists"));
        }
        let entry = catalog.entry(table).map_err(Error::Storage)?;
        let schema = entry.table.schema();
        let src_key = schema
            .index_of(src_col)
            .ok_or_else(|| bind_err!("no column '{src_col}' in table '{table}'"))?;
        let dst_key = schema
            .index_of(dst_col)
            .ok_or_else(|| bind_err!("no column '{dst_col}' in table '{table}'"))?;
        let s_ty = schema.column(src_key).ty;
        let d_ty = schema.column(dst_key).ty;
        if s_ty != d_ty {
            return Err(bind_err!(
                "EDGE columns must have matching types, found {s_ty} and {d_ty}"
            ));
        }
        if !s_ty.is_vertex_key() {
            return Err(bind_err!("type {s_ty} cannot be used as a graph vertex key"));
        }
        let weight_key = match weight_col {
            None => None,
            Some(w) => {
                let idx = schema
                    .index_of(w)
                    .ok_or_else(|| bind_err!("no column '{w}' in table '{table}'"))?;
                let ty = schema.column(idx).ty;
                if ty != DataType::Int {
                    return Err(bind_err!(
                        "PATH INDEX WEIGHT column must be INTEGER so accelerated costs stay \
                         exact, found {ty}; CAST the weight into an integer column"
                    ));
                }
                Some(idx)
            }
        };
        let kind = effective_kind(kind);
        let data = Arc::new(build_data(ctx, table, src_col, dst_col, weight_col, kind)?);
        self.builds.fetch_add(1, Ordering::AcqRel);

        let mut inner = self.inner.write().expect("registry lock poisoned");
        if inner.contains_key(&key) {
            if if_not_exists {
                return Ok(());
            }
            return Err(bind_err!("path index '{name}' already exists"));
        }
        inner.insert(
            key,
            IndexEntry {
                table: table.to_ascii_lowercase(),
                src_col: src_col.to_string(),
                dst_col: dst_col.to_string(),
                weight_col: weight_col.map(str::to_string),
                weight_key,
                kind,
                cached: Some((entry.version, data)),
            },
        );
        drop(inner);
        self.bump_version();
        Ok(())
    }

    /// Drop an index. With `if_exists`, dropping a missing name is a no-op.
    pub fn drop_index(&self, name: &str, if_exists: bool) -> Result<()> {
        let key = name.to_ascii_lowercase();
        let mut inner = self.inner.write().expect("registry lock poisoned");
        let removed = inner.remove(&key);
        drop(inner);
        if removed.is_some() {
            self.bump_version();
            Ok(())
        } else if if_exists {
            Ok(())
        } else {
            Err(bind_err!("path index '{name}' does not exist"))
        }
    }

    /// Remove every index defined over `table` (used by `DROP TABLE`).
    pub fn drop_indexes_for_table(&self, table: &str) {
        let key = table.to_ascii_lowercase();
        let mut inner = self.inner.write().expect("registry lock poisoned");
        let before = inner.len();
        inner.retain(|_, e| e.table != key);
        let removed = before != inner.len();
        drop(inner);
        if removed {
            self.bump_version();
        }
    }

    /// Every registered index — definition plus, when built, the cached
    /// data and the table version it was built against — sorted by name.
    /// This is what a snapshot checkpoint serializes: unlike graph indexes,
    /// the built acceleration structures are persisted so a warm restart
    /// answers accelerated queries with zero rebuild work.
    pub(crate) fn snapshot_entries(&self) -> Vec<PathIndexSnapshotEntry> {
        let inner = self.inner.read().expect("registry lock poisoned");
        let mut entries: Vec<PathIndexSnapshotEntry> = inner
            .iter()
            .map(|(name, e)| PathIndexSnapshotEntry {
                name: name.clone(),
                table: e.table.clone(),
                src_col: e.src_col.clone(),
                dst_col: e.dst_col.clone(),
                weight_col: e.weight_col.clone(),
                weight_key: e.weight_key,
                kind: e.kind,
                built: e.cached.as_ref().map(|(v, d)| (*v, Arc::clone(d))),
            })
            .collect();
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        entries
    }

    /// Re-register an index from a snapshot without building or bumping the
    /// structural version. `built` carries restored data stamped with the
    /// table version it matches; `None` (or a version that went stale)
    /// leaves the entry for the usual lazy rebuild.
    pub(crate) fn restore_entry(&self, snap: PathIndexSnapshotEntry) {
        let mut inner = self.inner.write().expect("registry lock poisoned");
        inner.insert(
            snap.name,
            IndexEntry {
                table: snap.table,
                src_col: snap.src_col,
                dst_col: snap.dst_col,
                weight_col: snap.weight_col,
                weight_key: snap.weight_key,
                kind: snap.kind,
                cached: snap.built,
            },
        );
    }

    /// Restore the structural version counter recorded in a snapshot.
    pub(crate) fn set_version(&self, version: u64) {
        self.version.store(version, Ordering::Release);
    }

    /// Names of all indexes, sorted.
    pub fn index_names(&self) -> Vec<String> {
        let inner = self.inner.read().expect("registry lock poisoned");
        let mut names: Vec<String> = inner.keys().cloned().collect();
        names.sort();
        names
    }

    /// All registered indexes with kind and freshness, sorted by name — the
    /// `SHOW PATH INDEXES` result. `stale` means the next accelerated query
    /// will rebuild the data lazily (the table mutated since the build).
    pub fn list(&self, catalog: &Catalog) -> Vec<PathIndexListing> {
        let inner = self.inner.read().expect("registry lock poisoned");
        let mut rows: Vec<PathIndexListing> = inner
            .iter()
            .map(|(name, e)| {
                let status = match &e.cached {
                    Some((version, _)) => match catalog.entry(&e.table) {
                        Ok(current) if current.version == *version => "built",
                        _ => "stale",
                    },
                    None => "stale",
                };
                PathIndexListing {
                    name: name.clone(),
                    table: e.table.clone(),
                    kind: e.kind.to_string(),
                    status,
                }
            })
            .collect();
        rows.sort_by(|a, b| a.name.cmp(&b.name));
        rows
    }
}

/// Build the full per-index data set: graph, reverse CSR, validated slot
/// weights, and the acceleration structure of the requested kind.
fn build_data(
    ctx: &ExecContext<'_>,
    table: &str,
    src_col: &str,
    dst_col: &str,
    weight_col: Option<&str>,
    kind: PathIndexKind,
) -> Result<PathIndexData> {
    let threads = ctx.threads();
    let entry = ctx.catalog().entry(table).map_err(Error::Storage)?;
    let schema = entry.table.schema();
    let src_key = schema
        .index_of(src_col)
        .ok_or_else(|| bind_err!("no column '{src_col}' in table '{table}'"))?;
    let dst_key = schema
        .index_of(dst_col)
        .ok_or_else(|| bind_err!("no column '{dst_col}' in table '{table}'"))?;
    let weight_key = weight_col
        .map(|w| schema.index_of(w).ok_or_else(|| bind_err!("no column '{w}' in table '{table}'")))
        .transpose()?;

    let graph = Arc::new(build_graph_observed(
        ctx,
        BuildSource::PathIndex,
        Arc::clone(&entry.table),
        src_key,
        dst_key,
    )?);
    let reverse = graph.reverse(); // force + cache the reverse CSR now

    let (weights_fwd, weights_bwd) = match weight_key {
        None => (None, None),
        Some(wk) => {
            // Read row-indexed weights off the NULL-filtered snapshot so
            // they line up with the CSR's edge-row ids.
            let col = graph.edges.column(wk);
            let raw: Vec<i64> = match col {
                Column::Int(vals, validity) => {
                    if let Some(row) = (0..vals.len()).find(|&i| !validity.get(i)) {
                        return Err(Error::Graph(gsql_graph::GraphError::NullWeight {
                            edge_row: row as u32,
                        }));
                    }
                    vals.clone()
                }
                other => {
                    return Err(bind_err!(
                        "PATH INDEX WEIGHT column must be INTEGER, found {}",
                        other.data_type()
                    ))
                }
            };
            let fwd =
                graph.csr.permute_weights_int_with_threads(&raw, threads).map_err(Error::Graph)?;
            let bwd =
                reverse.permute_weights_int_with_threads(&raw, threads).map_err(Error::Graph)?;
            (Some(fwd), Some(bwd))
        }
    };

    let accel = match kind {
        PathIndexKind::Landmarks(k) => AccelIndex::Alt(Landmarks::build(
            &graph.csr,
            reverse,
            match (&weights_fwd, &weights_bwd) {
                (Some(f), Some(b)) => Some((f.as_slice(), b.as_slice())),
                _ => None,
            },
            k as usize,
            threads,
        )),
        PathIndexKind::Contraction => {
            AccelIndex::Ch(ContractionHierarchy::build(&graph.csr, weights_fwd.as_deref(), threads))
        }
    };
    Ok(PathIndexData { graph, accel, weight_key, weights_fwd, weights_bwd })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsql_storage::{ColumnDef, Schema, Value};

    fn setup() -> (Catalog, PathIndexRegistry) {
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
        (catalog, PathIndexRegistry::new())
    }

    fn ctx(catalog: &Catalog, threads: usize) -> ExecContext<'_> {
        let settings = crate::context::SessionSettings { threads, ..Default::default() };
        ExecContext::new(catalog, &[], None).with_settings(settings)
    }

    fn create(
        reg: &PathIndexRegistry,
        catalog: &Catalog,
        name: &str,
        weight: Option<&str>,
        kind: PathIndexKind,
    ) -> Result<()> {
        reg.create_index(&ctx(catalog, 2), name, "roads", "a", "b", weight, kind, false)
    }

    #[test]
    fn create_build_and_query_data() {
        let (catalog, reg) = setup();
        for (name, kind) in
            [("pa", PathIndexKind::Landmarks(2)), ("pc", PathIndexKind::Contraction)]
        {
            create(&reg, &catalog, name, Some("len"), kind).unwrap();
            let meta =
                reg.find_indexes("ROADS", "A", "B").into_iter().find(|m| m.name == name).unwrap();
            assert_eq!(meta.weight_key, Some(2));
            let data = reg.data_by_name(&ctx(&catalog, 2), name).unwrap().unwrap();
            assert_eq!(data.graph.num_edges(), 4);
            assert!(data.weight_slices().is_some());
            // Exact accelerated distance through the cheap 1→2→3 route.
            let s = data.graph.lookup(&Value::Int(1)).unwrap();
            let d = data.graph.lookup(&Value::Int(3)).unwrap();
            let (dist, _) = data.search(s, d);
            assert_eq!(dist, Some(10), "{name}");
            // Unchanged table: same Arc on the next fetch.
            let again = reg.data_by_name(&ctx(&catalog, 2), name).unwrap().unwrap();
            assert!(Arc::ptr_eq(&data, &again));
        }
    }

    #[test]
    fn mutation_invalidates_and_rebuilds() {
        let (catalog, reg) = setup();
        create(&reg, &catalog, "pi", None, PathIndexKind::Landmarks(3)).unwrap();
        let d1 = reg.data_by_name(&ctx(&catalog, 1), "pi").unwrap().unwrap();
        catalog
            .update("roads", |t| t.append_row(vec![Value::Int(4), Value::Int(5), Value::Int(2)]))
            .unwrap();
        let d2 = reg.data_by_name(&ctx(&catalog, 1), "pi").unwrap().unwrap();
        assert!(!Arc::ptr_eq(&d1, &d2));
        assert_eq!(d2.graph.num_edges(), 5);
        let d3 = reg.data_by_name(&ctx(&catalog, 1), "pi").unwrap().unwrap();
        assert!(Arc::ptr_eq(&d2, &d3));
    }

    #[test]
    fn validation_errors() {
        let (catalog, reg) = setup();
        let lm = PathIndexKind::Landmarks(2);
        assert!(reg
            .create_index(&ctx(&catalog, 1), "pi", "nope", "a", "b", None, lm, false)
            .is_err());
        assert!(reg
            .create_index(&ctx(&catalog, 1), "pi", "roads", "zzz", "b", None, lm, false)
            .is_err());
        assert!(reg
            .create_index(&ctx(&catalog, 1), "pi", "roads", "a", "b", Some("zzz"), lm, false)
            .is_err());
        let zero = PathIndexKind::Landmarks(0);
        assert!(reg
            .create_index(&ctx(&catalog, 1), "pi", "roads", "a", "b", None, zero, false)
            .is_err());
        let over = PathIndexKind::Landmarks(MAX_LANDMARKS + 1);
        assert!(reg
            .create_index(&ctx(&catalog, 1), "pi", "roads", "a", "b", None, over, false)
            .is_err());
        create(&reg, &catalog, "pi", None, lm).unwrap();
        assert!(create(&reg, &catalog, "PI", None, lm).is_err());
        assert!(reg.drop_index("missing", false).is_err());
        reg.drop_index("pi", false).unwrap();
        assert!(reg.index_names().is_empty());
    }

    #[test]
    fn if_not_exists_and_if_exists_are_noops() {
        let (catalog, reg) = setup();
        create(&reg, &catalog, "pi", None, PathIndexKind::Contraction).unwrap();
        let v = reg.version();
        // Same name again: hard create errors, IF NOT EXISTS is a no-op
        // that leaves the registry version untouched (no plan invalidation).
        assert!(create(&reg, &catalog, "pi", None, PathIndexKind::Contraction).is_err());
        reg.create_index(
            &ctx(&catalog, 1),
            "PI",
            "roads",
            "a",
            "b",
            None,
            PathIndexKind::Landmarks(2),
            true,
        )
        .unwrap();
        assert_eq!(reg.version(), v);
        assert_eq!(reg.index_names(), vec!["pi".to_string()]);
        // IF EXISTS drop of a missing index succeeds without a bump.
        reg.drop_index("ghost", true).unwrap();
        assert_eq!(reg.version(), v);
        reg.drop_index("pi", true).unwrap();
        assert_eq!(reg.version(), v + 1);
    }

    #[test]
    fn listing_reports_kind_and_freshness() {
        let (catalog, reg) = setup();
        create(&reg, &catalog, "pa", Some("len"), PathIndexKind::Landmarks(2)).unwrap();
        create(&reg, &catalog, "pc", None, PathIndexKind::Contraction).unwrap();
        let rows = reg.list(&catalog);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "pa");
        assert_eq!(rows[0].table, "roads");
        assert_eq!(rows[0].status, "built");
        assert_eq!(rows[1].name, "pc");
        // Under GSQL_PATH_INDEX_KIND both entries may report the forced
        // kind; without it they report their declared kinds.
        if forced_kind().is_none() {
            assert_eq!(rows[0].kind, "landmarks(2)");
            assert_eq!(rows[1].kind, "contraction");
        }
        // Mutating the table flips both to stale; fetching rebuilds one.
        catalog
            .update("roads", |t| t.append_row(vec![Value::Int(8), Value::Int(9), Value::Int(1)]))
            .unwrap();
        let rows = reg.list(&catalog);
        assert!(rows.iter().all(|r| r.status == "stale"), "{rows:?}");
        reg.data_by_name(&ctx(&catalog, 1), "pa").unwrap().unwrap();
        let rows = reg.list(&catalog);
        assert_eq!(rows[0].status, "built");
        assert_eq!(rows[1].status, "stale");
    }

    #[test]
    fn weight_column_must_be_integer() {
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
        let err = reg
            .create_index(
                &ctx(&catalog, 1),
                "pi",
                "fe",
                "s",
                "d",
                Some("w"),
                PathIndexKind::Landmarks(2),
                false,
            )
            .unwrap_err();
        assert!(err.to_string().contains("INTEGER"), "{err}");
    }

    #[test]
    fn non_positive_weights_rejected_at_build() {
        let (catalog, reg) = setup();
        catalog
            .update("roads", |t| t.append_row(vec![Value::Int(9), Value::Int(10), Value::Int(0)]))
            .unwrap();
        for kind in [PathIndexKind::Landmarks(2), PathIndexKind::Contraction] {
            let err = create(&reg, &catalog, "pi", Some("len"), kind).unwrap_err();
            assert!(err.to_string().contains("strictly greater than 0"), "{err}");
        }
    }

    #[test]
    fn version_bumps_on_create_and_drop() {
        let (catalog, reg) = setup();
        assert_eq!(reg.version(), 0);
        create(&reg, &catalog, "pi", None, PathIndexKind::Landmarks(2)).unwrap();
        assert_eq!(reg.version(), 1);
        reg.drop_index("pi", false).unwrap();
        assert_eq!(reg.version(), 2);
        create(&reg, &catalog, "pi", None, PathIndexKind::Contraction).unwrap();
        reg.drop_indexes_for_table("roads");
        assert_eq!(reg.version(), 4);
        reg.drop_indexes_for_table("roads");
        assert_eq!(reg.version(), 4);
    }
}
