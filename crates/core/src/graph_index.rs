//! Graph indices — the paper's §6 future work, implemented.
//!
//! > "We are investigating how to expand our system with the option of
//! > creating special 'graph' indices. These indices will store the full
//! > graph, ready to be used when a query matches the edge table that
//! > generated the graph. Nevertheless, they also need to be amenable to
//! > the updates on the underlying tables."
//!
//! A graph index is created with
//! `CREATE GRAPH INDEX name ON table EDGE (src, dst)` and caches the
//! [`MaterializedGraph`] (snapshot + dictionary + CSR) for that base table.
//! The cache is keyed on the catalog's per-table **version counter**: any
//! INSERT/DELETE/UPDATE bumps the version, and the next query that needs
//! the graph rebuilds it (lazy invalidation). What a statement derives from
//! the graph and its edge table alone — the reverse CSR, the prepared weight
//! vectors of `CHEAPEST SUM` expressions ([`crate::weight_cache`]) — lives
//! on the cached graph itself and so shares that lifetime: one table
//! version.

use crate::context::ExecContext;
use crate::error::{bind_err, Error};
use crate::exec::graph_op::{build_graph_observed, BuildSource, MaterializedGraph};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

type Result<T> = std::result::Result<T, Error>;

/// The persisted definition of one graph index (no cached graph).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct GraphIndexSnapshot {
    /// Lowercased registry key.
    pub name: String,
    /// Lowercased indexed table.
    pub table: String,
    /// Source key column, as declared.
    pub src_col: String,
    /// Destination key column, as declared.
    pub dst_col: String,
}

/// One registered graph index.
#[derive(Debug)]
struct IndexEntry {
    table: String,
    src_col: String,
    dst_col: String,
    /// `(table version when built, the graph)`.
    cached: Option<(u64, Arc<MaterializedGraph>)>,
}

/// Registry of graph indices, keyed by index name.
///
/// The registry carries a monotonically increasing **version counter**,
/// bumped whenever the set of indices changes (create/drop). Session plan
/// caches use it — combined with the catalog's DDL version — to invalidate
/// cached plans whose index decisions went stale.
#[derive(Debug, Default)]
pub struct GraphIndexRegistry {
    inner: RwLock<HashMap<String, IndexEntry>>,
    version: AtomicU64,
}

impl GraphIndexRegistry {
    /// Empty registry.
    pub fn new() -> GraphIndexRegistry {
        GraphIndexRegistry::default()
    }

    /// The registry's structural version: bumped on every index create or
    /// drop. Used for plan-cache invalidation.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    fn bump_version(&self) {
        self.version.fetch_add(1, Ordering::AcqRel);
    }

    /// The name of the index covering `(table, src_col, dst_col)`, if one
    /// is registered (planning-time lookup; names are case-insensitive).
    pub fn find_index(&self, table: &str, src_col: &str, dst_col: &str) -> Option<String> {
        let table_key = table.to_ascii_lowercase();
        let inner = self.inner.read().expect("registry lock poisoned");
        inner
            .iter()
            .find(|(_, e)| {
                e.table == table_key
                    && e.src_col.eq_ignore_ascii_case(src_col)
                    && e.dst_col.eq_ignore_ascii_case(dst_col)
            })
            .map(|(name, _)| name.clone())
    }

    /// Fetch the (fresh) graph of the index named `name`, rebuilding a
    /// stale cache entry (observed through `ctx`: span, metrics, `EXPLAIN
    /// ANALYZE` detail). Returns `None` when the index no longer exists —
    /// callers fall back to building the graph from the base table.
    pub fn graph_by_name(
        &self,
        ctx: &ExecContext<'_>,
        name: &str,
    ) -> Result<Option<Arc<MaterializedGraph>>> {
        let catalog = ctx.catalog();
        let key = name.to_ascii_lowercase();
        let (table, src_col, dst_col) = {
            let inner = self.inner.read().expect("registry lock poisoned");
            let Some(entry) = inner.get(&key) else {
                return Ok(None);
            };
            let current = catalog.entry(&entry.table).map_err(Error::Storage)?;
            if let Some((version, graph)) = &entry.cached {
                if *version == current.version {
                    return Ok(Some(Arc::clone(graph)));
                }
            }
            (entry.table.clone(), entry.src_col.clone(), entry.dst_col.clone())
        };
        // Stale: rebuild outside the read lock.
        let entry = catalog.entry(&table).map_err(Error::Storage)?;
        let schema = entry.table.schema();
        let src_key = schema
            .index_of(&src_col)
            .ok_or_else(|| bind_err!("no column '{src_col}' in table '{table}'"))?;
        let dst_key = schema
            .index_of(&dst_col)
            .ok_or_else(|| bind_err!("no column '{dst_col}' in table '{table}'"))?;
        let graph = Arc::new(build_graph_observed(
            ctx,
            BuildSource::GraphIndex,
            Arc::clone(&entry.table),
            src_key,
            dst_key,
        )?);
        let mut inner = self.inner.write().expect("registry lock poisoned");
        if let Some(e) = inner.get_mut(&key) {
            // The index may have been dropped and recreated with a different
            // definition while we rebuilt; only stamp the cache if the entry
            // still describes the configuration this graph was built from.
            if e.table == table
                && e.src_col.eq_ignore_ascii_case(&src_col)
                && e.dst_col.eq_ignore_ascii_case(&dst_col)
            {
                e.cached = Some((entry.version, Arc::clone(&graph)));
            }
        }
        Ok(Some(graph))
    }

    /// Create an index and build its graph eagerly.
    pub fn create_index(
        &self,
        ctx: &ExecContext<'_>,
        name: &str,
        table: &str,
        src_col: &str,
        dst_col: &str,
    ) -> Result<()> {
        let catalog = ctx.catalog();
        let key = name.to_ascii_lowercase();
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
        let graph = Arc::new(build_graph_observed(
            ctx,
            BuildSource::GraphIndex,
            Arc::clone(&entry.table),
            src_key,
            dst_key,
        )?);

        let mut inner = self.inner.write().expect("registry lock poisoned");
        if inner.contains_key(&key) {
            return Err(bind_err!("graph index '{name}' already exists"));
        }
        inner.insert(
            key,
            IndexEntry {
                table: table.to_ascii_lowercase(),
                src_col: src_col.to_string(),
                dst_col: dst_col.to_string(),
                cached: Some((entry.version, graph)),
            },
        );
        drop(inner);
        self.bump_version();
        Ok(())
    }

    /// Drop an index.
    pub fn drop_index(&self, name: &str) -> Result<()> {
        let key = name.to_ascii_lowercase();
        let mut inner = self.inner.write().expect("registry lock poisoned");
        let removed = inner.remove(&key);
        drop(inner);
        if removed.is_some() {
            self.bump_version();
            Ok(())
        } else {
            Err(bind_err!("graph index '{name}' does not exist"))
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

    /// Every registered index definition, sorted by name — what a snapshot
    /// checkpoint persists. Cached graphs are deliberately excluded: they
    /// are cheap to rebuild lazily relative to acceleration indexes.
    pub(crate) fn snapshot_entries(&self) -> Vec<GraphIndexSnapshot> {
        let inner = self.inner.read().expect("registry lock poisoned");
        let mut entries: Vec<GraphIndexSnapshot> = inner
            .iter()
            .map(|(name, e)| GraphIndexSnapshot {
                name: name.clone(),
                table: e.table.clone(),
                src_col: e.src_col.clone(),
                dst_col: e.dst_col.clone(),
            })
            .collect();
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        entries
    }

    /// Re-register an index definition from a snapshot without building its
    /// graph or bumping the structural version (the version counter is
    /// restored wholesale by [`GraphIndexRegistry::set_version`]). The first
    /// query rebuilds the graph lazily.
    pub(crate) fn restore_entry(&self, snap: GraphIndexSnapshot) {
        let mut inner = self.inner.write().expect("registry lock poisoned");
        inner.insert(
            snap.name,
            IndexEntry {
                table: snap.table,
                src_col: snap.src_col,
                dst_col: snap.dst_col,
                cached: None,
            },
        );
    }

    /// Restore the structural version counter recorded in a snapshot, so a
    /// reopened database reports the same `schema_version` it had when the
    /// snapshot was taken.
    pub(crate) fn set_version(&self, version: u64) {
        self.version.store(version, Ordering::Release);
    }

    /// Names of all indices, sorted.
    pub fn index_names(&self) -> Vec<String> {
        let inner = self.inner.read().expect("registry lock poisoned");
        let mut names: Vec<String> = inner.keys().cloned().collect();
        names.sort();
        names
    }

    /// Find a fresh graph for `(table, src, dst)`, rebuilding a stale cache
    /// entry if there is a matching index. Returns `None` when no index
    /// covers this edge configuration.
    pub fn lookup(
        &self,
        ctx: &ExecContext<'_>,
        table: &str,
        src_col: &str,
        dst_col: &str,
        src_key: usize,
        dst_key: usize,
    ) -> Result<Option<Arc<MaterializedGraph>>> {
        let catalog = ctx.catalog();
        let table_key = table.to_ascii_lowercase();
        let name = {
            let inner = self.inner.read().expect("registry lock poisoned");
            let found = inner.iter().find(|(_, e)| {
                e.table == table_key
                    && e.src_col.eq_ignore_ascii_case(src_col)
                    && e.dst_col.eq_ignore_ascii_case(dst_col)
            });
            match found {
                None => return Ok(None),
                Some((name, entry)) => {
                    let current = catalog.entry(table).map_err(Error::Storage)?;
                    if let Some((version, graph)) = &entry.cached {
                        if *version == current.version {
                            return Ok(Some(Arc::clone(graph)));
                        }
                    }
                    name.clone()
                }
            }
        };
        // Stale: rebuild outside the read lock.
        let entry = catalog.entry(table).map_err(Error::Storage)?;
        let graph = Arc::new(build_graph_observed(
            ctx,
            BuildSource::GraphIndex,
            Arc::clone(&entry.table),
            src_key,
            dst_key,
        )?);
        let mut inner = self.inner.write().expect("registry lock poisoned");
        if let Some(e) = inner.get_mut(&name) {
            // Skip the write-back if the index was concurrently dropped and
            // recreated over a different edge configuration.
            if e.table == table_key
                && e.src_col.eq_ignore_ascii_case(src_col)
                && e.dst_col.eq_ignore_ascii_case(dst_col)
            {
                e.cached = Some((entry.version, Arc::clone(&graph)));
            }
        }
        Ok(Some(graph))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsql_storage::{Catalog, ColumnDef, DataType, Schema, Value};

    fn setup() -> (Catalog, GraphIndexRegistry) {
        let catalog = Catalog::new();
        catalog
            .create_table(
                "friends",
                Schema::new(vec![
                    ColumnDef::not_null("src", DataType::Int),
                    ColumnDef::not_null("dst", DataType::Int),
                ]),
            )
            .unwrap();
        catalog
            .update("friends", |t| {
                t.append_row(vec![Value::Int(1), Value::Int(2)])?;
                t.append_row(vec![Value::Int(2), Value::Int(3)])
            })
            .unwrap();
        (catalog, GraphIndexRegistry::new())
    }

    fn ctx(catalog: &Catalog) -> ExecContext<'_> {
        ExecContext::new(catalog, &[], None)
    }

    #[test]
    fn create_and_lookup() {
        let (catalog, reg) = setup();
        reg.create_index(&ctx(&catalog), "gi", "friends", "src", "dst").unwrap();
        let g = reg.lookup(&ctx(&catalog), "friends", "src", "dst", 0, 1).unwrap().unwrap();
        assert_eq!(g.num_edges(), 2);
        // Same Arc is returned while the table is unchanged.
        let g2 = reg.lookup(&ctx(&catalog), "friends", "src", "dst", 0, 1).unwrap().unwrap();
        assert!(Arc::ptr_eq(&g, &g2));
    }

    #[test]
    fn lookup_misses_for_other_columns() {
        let (catalog, reg) = setup();
        reg.create_index(&ctx(&catalog), "gi", "friends", "src", "dst").unwrap();
        // Reversed direction is a different graph: no index hit.
        assert!(reg.lookup(&ctx(&catalog), "friends", "dst", "src", 1, 0).unwrap().is_none());
        assert!(reg.lookup(&ctx(&catalog), "other", "src", "dst", 0, 1).unwrap().is_none());
    }

    #[test]
    fn table_mutation_invalidates() {
        let (catalog, reg) = setup();
        reg.create_index(&ctx(&catalog), "gi", "friends", "src", "dst").unwrap();
        let g1 = reg.lookup(&ctx(&catalog), "friends", "src", "dst", 0, 1).unwrap().unwrap();
        catalog.update("friends", |t| t.append_row(vec![Value::Int(3), Value::Int(4)])).unwrap();
        let g2 = reg.lookup(&ctx(&catalog), "friends", "src", "dst", 0, 1).unwrap().unwrap();
        assert!(!Arc::ptr_eq(&g1, &g2));
        assert_eq!(g2.num_edges(), 3);
        // And the rebuilt graph is cached again.
        let g3 = reg.lookup(&ctx(&catalog), "friends", "src", "dst", 0, 1).unwrap().unwrap();
        assert!(Arc::ptr_eq(&g2, &g3));
    }

    #[test]
    fn version_bumps_on_create_and_drop() {
        let (catalog, reg) = setup();
        assert_eq!(reg.version(), 0);
        reg.create_index(&ctx(&catalog), "gi", "friends", "src", "dst").unwrap();
        assert_eq!(reg.version(), 1);
        reg.drop_index("gi").unwrap();
        assert_eq!(reg.version(), 2);
        // Dropping a missing index does not bump.
        assert!(reg.drop_index("gi").is_err());
        assert_eq!(reg.version(), 2);
        reg.create_index(&ctx(&catalog), "gi", "friends", "src", "dst").unwrap();
        reg.drop_indexes_for_table("friends");
        assert_eq!(reg.version(), 4);
        reg.drop_indexes_for_table("friends"); // nothing left: no bump
        assert_eq!(reg.version(), 4);
    }

    #[test]
    fn find_index_and_graph_by_name() {
        let (catalog, reg) = setup();
        reg.create_index(&ctx(&catalog), "GI", "friends", "src", "dst").unwrap();
        assert_eq!(reg.find_index("FRIENDS", "SRC", "DST"), Some("gi".to_string()));
        assert_eq!(reg.find_index("friends", "dst", "src"), None);
        let g = reg.graph_by_name(&ctx(&catalog), "gi").unwrap().unwrap();
        assert_eq!(g.num_edges(), 2);
        // Mutation invalidates; graph_by_name rebuilds.
        catalog.update("friends", |t| t.append_row(vec![Value::Int(3), Value::Int(4)])).unwrap();
        let g2 = reg.graph_by_name(&ctx(&catalog), "gi").unwrap().unwrap();
        assert_eq!(g2.num_edges(), 3);
        // A dropped index yields None (executor falls back to scanning).
        reg.drop_index("gi").unwrap();
        assert!(reg.graph_by_name(&ctx(&catalog), "gi").unwrap().is_none());
    }

    #[test]
    fn validation_errors() {
        let (catalog, reg) = setup();
        assert!(reg.create_index(&ctx(&catalog), "gi", "nope", "src", "dst").is_err());
        assert!(reg.create_index(&ctx(&catalog), "gi", "friends", "zzz", "dst").is_err());
        reg.create_index(&ctx(&catalog), "gi", "friends", "src", "dst").unwrap();
        assert!(reg.create_index(&ctx(&catalog), "GI", "friends", "src", "dst").is_err());
        assert!(reg.drop_index("missing").is_err());
        reg.drop_index("gi").unwrap();
        assert!(reg.index_names().is_empty());
    }
}
