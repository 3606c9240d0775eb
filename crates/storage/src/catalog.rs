//! The named-table store and its index definitions, and the one place
//! either changes.
//!
//! Every create, drop and data change of a table, and every index
//! definition created or dropped, is a [`Mutation`] installed by
//! [`Catalog::apply`], under one lock. Once a [`DurableStore`] is attached
//! (after recovery), `apply` also writes the mutation's WAL record while it
//! holds the catalog's write lock, and syncs it after releasing that lock
//! and before returning. So the log holds the changes in the order they
//! were applied, readers never wait for an fsync, and no change escapes the
//! log, whoever makes it.

use crate::error::StorageError;
use crate::mutation::Mutation;
use crate::persist::DurableStore;
use crate::schema::Schema;
use crate::table::Table;
use crate::Result;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock, RwLockReadGuard};

/// A catalog entry: the table snapshot plus its identity and version.
///
/// Tables are stored behind `Arc` and mutated copy-on-write, so a running
/// query always sees a consistent snapshot (matching MonetDB's materialized
/// execution). The version number increments on every mutation and is what
/// graph indices (paper §6 future work) use for invalidation; a re-created
/// table restarts at version 0, so the identity tells it apart from the
/// table it replaced.
#[derive(Debug, Clone)]
pub struct TableEntry {
    /// Immutable snapshot of the table contents.
    pub table: Arc<Table>,
    /// Bumped on every `Append`, `Delete` and `Update` of this table.
    pub version: u64,
    /// The last version at which existing rows changed: the create (0), a
    /// `Delete`, an `Update`, or the version a snapshot restored. An
    /// `Append` leaves it, so the table at every version from this one on
    /// is a prefix of the table at `version` — what a graph built at such a
    /// version can be extended from.
    pub rewritten_at: u64,
    /// Unique among the tables this catalog has held, in this process.
    pub id: u64,
}

/// The two index name spaces: a graph index and a path index may share a
/// name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum IndexSpace {
    /// `CREATE GRAPH INDEX`: the graph alone.
    Graph,
    /// `CREATE PATH INDEX`: the graph plus an acceleration layer.
    Path,
}

impl IndexSpace {
    /// `graph index` or `path index`.
    pub fn noun(self) -> &'static str {
        match self {
            IndexSpace::Graph => "graph index",
            IndexSpace::Path => "path index",
        }
    }
}

/// The preprocessing tier of one path index.
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
pub struct AccelDef {
    /// Weight column, as declared (`None` = hop distances).
    pub weight_col: Option<String>,
    /// Ordinal of the weight column in the table schema.
    pub weight_key: Option<usize>,
    /// The structure the layer is built as.
    pub kind: PathIndexKind,
}

/// One index definition: what `CREATE GRAPH|PATH INDEX` declares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexDef {
    /// Lowercased name, unique in its [`IndexSpace`].
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
    /// The name space the definition lives in.
    pub fn space(&self) -> IndexSpace {
        if self.accel.is_some() {
            IndexSpace::Path
        } else {
            IndexSpace::Graph
        }
    }

    /// Whether this index is over `(table, src, dst)`, names matched
    /// case-insensitively.
    pub fn covers(&self, table: &str, src: &str, dst: &str) -> bool {
        self.table.eq_ignore_ascii_case(table)
            && self.src_col.eq_ignore_ascii_case(src)
            && self.dst_col.eq_ignore_ascii_case(dst)
    }
}

/// What an accepted mutation installs.
enum Next {
    Table(TableEntry),
    DropTable,
    Index(IndexDef),
    DropIndex(usize),
}

/// What the catalog holds, under its one lock.
#[derive(Debug, Default)]
struct State {
    tables: HashMap<String, TableEntry>,
    /// Every index definition, sorted by name, then name space.
    indexes: Vec<IndexDef>,
    /// The identity of the table installed last.
    last_id: u64,
}

impl State {
    fn position(&self, space: IndexSpace, name: &str) -> Option<usize> {
        self.indexes.iter().position(|d| d.space() == space && d.name == name)
    }
}

/// A thread-safe catalog of named tables and the index definitions over
/// them.
///
/// Table and index names are case-insensitive (folded to lowercase
/// internally).
///
/// Besides the per-table data versions, the catalog keeps a **structural
/// (DDL) version** — bumped whenever a table is created or dropped,
/// through *any* API path. Plan caches use it to invalidate plans that
/// embedded schema information; index definitions leave it alone, since
/// plans never name an index.
#[derive(Debug, Default)]
pub struct Catalog {
    state: RwLock<State>,
    ddl_version: AtomicU64,
    store: OnceLock<Arc<DurableStore>>,
}

/// One consistent read of a [`Catalog`]: its tables and index definitions
/// as of one moment. Writers wait while it is held.
pub struct CatalogRead<'a>(RwLockReadGuard<'a, State>);

impl CatalogRead<'_> {
    /// The entry of table `name`, if it exists.
    pub fn entry(&self, name: &str) -> Option<&TableEntry> {
        self.0.tables.get(&name.to_ascii_lowercase())
    }

    /// Every index definition, sorted by name, then name space.
    pub fn indexes(&self) -> &[IndexDef] {
        &self.0.indexes
    }

    /// The definition of index `name` in `space`, if it exists.
    pub fn index(&self, space: IndexSpace, name: &str) -> Option<&IndexDef> {
        let name = name.to_ascii_lowercase();
        self.0.position(space, &name).map(|i| &self.0.indexes[i])
    }
}

/// Positions must be strictly ascending and below `rows`.
fn check_positions(positions: &[usize], rows: usize) -> Result<()> {
    let ascending = positions.windows(2).all(|w| w[0] < w[1]);
    if !ascending || positions.last().is_some_and(|&p| p >= rows) {
        return Err(StorageError::Internal(format!(
            "row positions must be strictly ascending and below {rows}"
        )));
    }
    Ok(())
}

/// The table `mutation` (a data change) makes of `entry`.
fn changed(name: &str, entry: &TableEntry, mutation: Mutation) -> Result<Table> {
    let table = &entry.table;
    let current = |base: u64| {
        if base == entry.version {
            return Ok(());
        }
        let current = entry.version;
        Err(StorageError::VersionConflict { table: name.to_string(), base, current })
    };
    match mutation {
        Mutation::Append(rows) => {
            // The copy-on-write copy keeps running queries on the old
            // snapshot and leaves the entry untouched when a row fails. It
            // has room for the new rows, so pushing them copies nothing.
            let mut next = table.with_headroom(rows.len());
            next.append_rows(rows)?;
            Ok(next)
        }
        Mutation::Delete { base_version, positions } => {
            current(base_version)?;
            check_positions(&positions, table.row_count())?;
            let mut doomed = positions.into_iter().peekable();
            let keep: Vec<usize> =
                (0..table.row_count()).filter(|&i| doomed.next_if_eq(&i).is_none()).collect();
            Ok(table.take(&keep))
        }
        Mutation::Update { base_version, positions, new_rows } => {
            current(base_version)?;
            check_positions(&positions, table.row_count())?;
            let mut patch = Table::empty(table.schema().clone());
            patch.append_rows(new_rows)?;
            let mut next = (**table).clone();
            next.scatter_rows(&positions, &patch)?;
            Ok(next)
        }
        _ => unreachable!("structural mutations"),
    }
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// The structural (DDL) version: increments on every table create or
    /// drop.
    pub fn ddl_version(&self) -> u64 {
        self.ddl_version.load(Ordering::Acquire)
    }

    /// Attach the durable store every later [`Catalog::apply`] logs to.
    /// Recovery calls this once, after it has replayed the log.
    pub fn attach(&self, store: Arc<DurableStore>) -> Result<()> {
        self.store
            .set(store)
            .map_err(|_| StorageError::Internal("a durable store is already attached".into()))
    }

    /// The attached durable store, if any.
    pub fn store(&self) -> Option<&Arc<DurableStore>> {
        self.store.get()
    }

    /// Apply one mutation to the table or index `name` — the only way
    /// catalog state changes. A refused mutation changes nothing and logs
    /// nothing; a `Delete` or `Update` computed against an older version of
    /// the table is refused with [`StorageError::VersionConflict`]. Dropping
    /// a table drops the index definitions over it. With a store attached,
    /// the change is visible to readers once its record is written, and
    /// `apply` returns once the record is synced (an error from that sync
    /// is returned, though the change stays installed). Returns the bytes
    /// logged, framing included (0 with no store attached).
    pub fn apply(&self, name: &str, mutation: Mutation) -> Result<u64> {
        self.apply_over(name, mutation, None)
    }

    /// Apply `CreateIndex(def)` over the table `table_id` names (see
    /// [`TableEntry::id`]): the one the definition was validated against.
    /// Once that table is gone — dropped, perhaps re-created — nothing is
    /// applied or logged and 0 is returned: the create counts as having
    /// happened before the drop.
    pub fn create_index(&self, def: IndexDef, table_id: u64) -> Result<u64> {
        let name = def.name.clone();
        self.apply_over(&name, Mutation::CreateIndex(def), Some(table_id))
    }

    fn apply_over(&self, name: &str, mutation: Mutation, table_id: Option<u64>) -> Result<u64> {
        let store = self.store.get();
        let record = store.map(|_| mutation.encode(name)).transpose()?;
        let _commit = store.map(|s| s.commit_shared());
        let key = name.to_ascii_lowercase();
        let mut state = self.state.write().expect("catalog lock poisoned");
        let structural = matches!(mutation, Mutation::Create(_) | Mutation::Drop);
        let next = match mutation {
            Mutation::CreateIndex(def) => {
                let def =
                    IndexDef { name: key.clone(), table: def.table.to_ascii_lowercase(), ..def };
                let table = state.tables.get(&def.table).map(|t| t.id);
                if table_id.is_some_and(|id| table != Some(id)) {
                    return Ok(0);
                }
                if table.is_none() {
                    return Err(StorageError::TableNotFound(def.table));
                }
                if state.position(def.space(), &key).is_some() {
                    return Err(StorageError::IndexExists(def.space(), name.to_string()));
                }
                Next::Index(def)
            }
            Mutation::DropIndex(space) => match state.position(space, &key) {
                Some(at) => Next::DropIndex(at),
                None => return Err(StorageError::IndexNotFound(space, name.to_string())),
            },
            Mutation::Create(table) if !state.tables.contains_key(&key) => {
                state.last_id += 1;
                let (table, id) = (Arc::new(table), state.last_id);
                Next::Table(TableEntry { table, version: 0, rewritten_at: 0, id })
            }
            Mutation::Create(_) => return Err(StorageError::TableExists(name.to_string())),
            Mutation::Drop if state.tables.contains_key(&key) => Next::DropTable,
            data => {
                let entry = state
                    .tables
                    .get(&key)
                    .ok_or_else(|| StorageError::TableNotFound(name.to_string()))?;
                let version = entry.version + 1;
                let rewritten_at =
                    if matches!(data, Mutation::Append(_)) { entry.rewritten_at } else { version };
                let table = Arc::new(changed(name, entry, data)?);
                Next::Table(TableEntry { table, version, rewritten_at, id: entry.id })
            }
        };
        let unsynced = match (store, record) {
            (Some(store), Some(record)) => Some(store.write(&record)?),
            _ => None,
        };
        match next {
            Next::Table(entry) => drop(state.tables.insert(key, entry)),
            Next::DropTable => {
                state.tables.remove(&key);
                state.indexes.retain(|d| d.table != key);
            }
            Next::Index(def) => {
                let at =
                    state.indexes.partition_point(|d| (&d.name, d.space()) < (&key, def.space()));
                state.indexes.insert(at, def);
            }
            Next::DropIndex(at) => drop(state.indexes.remove(at)),
        }
        if structural {
            self.ddl_version.fetch_add(1, Ordering::AcqRel);
        }
        drop(state);
        unsynced.map_or(Ok(0), |u| u.sync())
    }

    /// Create a new empty table. Errors when the name is taken.
    pub fn create_table(&self, name: &str, schema: Schema) -> Result<()> {
        self.apply(name, Mutation::Create(Table::empty(schema))).map(drop)
    }

    /// Register a pre-built table (a bulk loader's path), adopting it.
    pub fn register_table(&self, name: &str, table: Table) -> Result<()> {
        self.apply(name, Mutation::Create(table)).map(drop)
    }

    /// Drop a table and the index definitions over it. Errors when absent.
    pub fn drop_table(&self, name: &str) -> Result<()> {
        self.apply(name, Mutation::Drop).map(drop)
    }

    /// One consistent read of the tables and index definitions.
    pub fn read(&self) -> CatalogRead<'_> {
        CatalogRead(self.state.read().expect("catalog lock poisoned"))
    }

    /// Snapshot of a table (cheap `Arc` clone). Errors when absent.
    pub fn get(&self, name: &str) -> Result<Arc<Table>> {
        Ok(self.entry(name)?.table)
    }

    /// Snapshot plus version, for index invalidation checks.
    pub fn entry(&self, name: &str) -> Result<TableEntry> {
        let entry = self.read().entry(name).cloned();
        entry.ok_or_else(|| StorageError::TableNotFound(name.to_string()))
    }

    /// True when a table with this name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.read().entry(name).is_some()
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.read().0.tables.keys().cloned().collect();
        names.sort();
        names
    }

    /// Every entry as `(name, entry)` pairs, sorted by name. Snapshot
    /// capture uses this; the `Arc` clones are cheap.
    pub fn entries(&self) -> Vec<(String, TableEntry)> {
        let state = self.read();
        let mut out: Vec<(String, TableEntry)> =
            state.0.tables.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Recovery-only: install a table snapshot under an explicit data
    /// version **without** bumping the DDL version. Restoring a snapshot
    /// must leave every version counter exactly where the checkpointed
    /// process had it; [`Catalog::set_ddl_version`] restores the structural
    /// counter separately.
    pub fn restore_table(&self, name: &str, table: Arc<Table>, version: u64) -> Result<()> {
        let key = name.to_ascii_lowercase();
        let mut state = self.state.write().expect("catalog lock poisoned");
        if state.tables.contains_key(&key) {
            return Err(StorageError::TableExists(name.to_string()));
        }
        state.last_id += 1;
        let id = state.last_id;
        state.tables.insert(key, TableEntry { table, version, rewritten_at: version, id });
        Ok(())
    }

    /// Recovery-only: force the structural (DDL) version to the value a
    /// snapshot recorded.
    pub fn set_ddl_version(&self, version: u64) {
        self.ddl_version.store(version, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::schema::ColumnDef;
    use crate::types::DataType;
    use crate::value::Value;

    fn schema() -> Schema {
        Schema::new(vec![ColumnDef::not_null("id", DataType::Int)])
    }

    #[test]
    fn create_get_drop() {
        let cat = Catalog::new();
        cat.create_table("T", schema()).unwrap();
        assert!(cat.contains("t"));
        assert!(cat.get("T").unwrap().is_empty());
        cat.drop_table("t").unwrap();
        assert!(!cat.contains("T"));
        assert!(matches!(cat.get("t"), Err(StorageError::TableNotFound(_))));
    }

    #[test]
    fn duplicate_create_rejected() {
        let cat = Catalog::new();
        cat.create_table("t", schema()).unwrap();
        assert!(matches!(cat.create_table("T", schema()), Err(StorageError::TableExists(_))));
    }

    fn int_rows(vals: &[i64]) -> Vec<Vec<Value>> {
        vals.iter().map(|&v| vec![Value::Int(v)]).collect()
    }

    fn ids(cat: &Catalog) -> Vec<Vec<Value>> {
        cat.get("t").unwrap().rows().collect()
    }

    #[test]
    fn apply_bumps_version_and_is_snapshot_isolated() {
        let cat = Catalog::new();
        cat.create_table("t", schema()).unwrap();
        let before = cat.get("t").unwrap();
        assert_eq!(cat.entry("t").unwrap().version, 0);

        cat.apply("t", Mutation::Append(int_rows(&[1, 2, 3]))).unwrap();
        assert_eq!(cat.entry("t").unwrap().version, 1);
        // The old snapshot is unchanged (copy-on-write).
        assert_eq!(before.row_count(), 0);
        let after_append = cat.get("t").unwrap();

        cat.apply(
            "t",
            Mutation::Update {
                base_version: 1,
                positions: vec![0, 2],
                new_rows: int_rows(&[7, 9]),
            },
        )
        .unwrap();
        assert_eq!(ids(&cat), int_rows(&[7, 2, 9]));
        cat.apply("t", Mutation::Delete { base_version: 2, positions: vec![1] }).unwrap();
        assert_eq!(ids(&cat), int_rows(&[7, 9]));
        assert_eq!(cat.entry("t").unwrap().version, 3);
        assert_eq!(after_append.rows().collect::<Vec<_>>(), int_rows(&[1, 2, 3]));
    }

    /// Appends move the version and leave `rewritten_at`; a delete, an
    /// update and a restore move both. An append's copy has exactly the
    /// room its rows need.
    #[test]
    fn only_appends_leave_the_rewrite_version() {
        let cat = Catalog::new();
        cat.create_table("t", schema()).unwrap();
        let versions = |cat: &Catalog| {
            let e = cat.entry("t").unwrap();
            (e.version, e.rewritten_at)
        };
        assert_eq!(versions(&cat), (0, 0));
        cat.apply("t", Mutation::Append(int_rows(&[1, 2, 3]))).unwrap();
        cat.apply("t", Mutation::Append(int_rows(&[4]))).unwrap();
        assert_eq!(versions(&cat), (2, 0));
        let table = cat.get("t").unwrap();
        let Column::Int(values, _) = table.column(0) else { panic!("an INTEGER column") };
        assert_eq!((values.as_slice(), values.capacity()), ([1, 2, 3, 4].as_slice(), 4));
        let update =
            Mutation::Update { base_version: 2, positions: vec![0], new_rows: int_rows(&[9]) };
        cat.apply("t", update).unwrap();
        assert_eq!(versions(&cat), (3, 3));
        cat.apply("t", Mutation::Append(int_rows(&[5]))).unwrap();
        assert_eq!(versions(&cat), (4, 3));
        cat.apply("t", Mutation::Delete { base_version: 4, positions: vec![1] }).unwrap();
        assert_eq!(versions(&cat), (5, 5));
        let restored = Catalog::new();
        restored.restore_table("t", cat.get("t").unwrap(), 5).unwrap();
        assert_eq!(versions(&restored), (5, 5));
    }

    #[test]
    fn failed_apply_changes_nothing() {
        let cat = Catalog::new();
        cat.create_table("t", schema()).unwrap();
        // The second row violates NOT NULL: the first is not kept either.
        let bad = vec![vec![Value::Int(1)], vec![Value::Null]];
        assert!(matches!(
            cat.apply("t", Mutation::Append(bad)),
            Err(StorageError::NullViolation(_))
        ));
        let unordered = Mutation::Delete { base_version: 0, positions: vec![0] };
        assert!(cat.apply("t", unordered).is_err(), "position out of range");
        assert_eq!(cat.entry("t").unwrap().version, 0);
        assert_eq!(cat.get("t").unwrap().row_count(), 0);
    }

    #[test]
    fn stale_base_version_is_refused() {
        let cat = Catalog::new();
        cat.create_table("t", schema()).unwrap();
        cat.apply("t", Mutation::Append(int_rows(&[1]))).unwrap();
        cat.apply("t", Mutation::Append(int_rows(&[2]))).unwrap();
        let stale = Mutation::Delete { base_version: 1, positions: vec![0] };
        assert_eq!(
            cat.apply("t", stale).unwrap_err(),
            StorageError::VersionConflict { table: "t".into(), base: 1, current: 2 }
        );
        assert_eq!(ids(&cat), int_rows(&[1, 2]));
    }

    #[test]
    fn ddl_version_counts_structural_changes_only() {
        let cat = Catalog::new();
        assert_eq!(cat.ddl_version(), 0);
        cat.create_table("a", schema()).unwrap();
        assert_eq!(cat.ddl_version(), 1);
        cat.register_table("b", Table::empty(schema())).unwrap();
        assert_eq!(cat.ddl_version(), 2);
        // Data mutation does not bump the structural version.
        cat.apply("a", Mutation::Append(int_rows(&[1]))).unwrap();
        cat.apply("a", Mutation::Delete { base_version: 1, positions: vec![0] }).unwrap();
        assert_eq!(cat.ddl_version(), 2);
        cat.drop_table("b").unwrap();
        assert_eq!(cat.ddl_version(), 3);
        // Failed operations do not bump.
        assert!(cat.drop_table("b").is_err());
        assert!(cat.create_table("a", schema()).is_err());
        assert_eq!(cat.ddl_version(), 3);
    }

    #[test]
    fn register_adopts_the_table_without_a_copy() {
        let cat = Catalog::new();
        let mut t = Table::empty(schema());
        t.append_row(vec![Value::Int(42)]).unwrap();
        let cells = t.column(0).as_int_slice().unwrap().0.as_ptr();
        cat.register_table("t", t).unwrap();
        assert_eq!(cat.get("t").unwrap().column(0).as_int_slice().unwrap().0.as_ptr(), cells);
        assert!(matches!(
            cat.apply("missing", Mutation::Append(Vec::new())),
            Err(StorageError::TableNotFound(_))
        ));
    }

    fn index(name: &str, table: &str, kind: Option<PathIndexKind>) -> IndexDef {
        let accel = kind.map(|kind| AccelDef { weight_col: None, weight_key: None, kind });
        let (src_col, dst_col) = ("id".to_string(), "id".to_string());
        IndexDef { name: name.into(), table: table.into(), src_col, dst_col, accel }
    }

    fn index_names(cat: &Catalog) -> Vec<(String, IndexSpace)> {
        cat.read().indexes().iter().map(|d| (d.name.clone(), d.space())).collect()
    }

    #[test]
    fn drop_removes_the_tables_index_definitions() {
        let cat = Catalog::new();
        cat.create_table("a", schema()).unwrap();
        cat.create_table("b", schema()).unwrap();
        for (name, table) in [("ga", "A"), ("gb", "b")] {
            cat.apply(name, Mutation::CreateIndex(index(name, table, None))).unwrap();
        }
        let path = index("pa", "a", Some(PathIndexKind::Contraction));
        cat.apply("PA", Mutation::CreateIndex(path)).unwrap();
        let def = cat.read().index(IndexSpace::Path, "pa").cloned().unwrap();
        assert_eq!((def.name.as_str(), def.table.as_str()), ("pa", "a"), "names fold");
        cat.drop_table("A").unwrap();
        assert_eq!(index_names(&cat), [("gb".to_string(), IndexSpace::Graph)]);
        // A re-created table starts with none.
        cat.create_table("a", schema()).unwrap();
        assert_eq!(index_names(&cat).len(), 1);
    }

    #[test]
    fn duplicate_names_and_missing_tables_are_refused() {
        let cat = Catalog::new();
        cat.create_table("t", schema()).unwrap();
        cat.apply("x", Mutation::CreateIndex(index("x", "t", None))).unwrap();
        let err = cat.apply("X", Mutation::CreateIndex(index("X", "t", None))).unwrap_err();
        assert_eq!(err, StorageError::IndexExists(IndexSpace::Graph, "X".into()));
        assert_eq!(err.to_string(), "graph index 'X' already exists");
        // The other name space is separate.
        let path = index("x", "t", Some(PathIndexKind::Landmarks(2)));
        cat.apply("x", Mutation::CreateIndex(path)).unwrap();
        let orphan = cat.apply("y", Mutation::CreateIndex(index("y", "nope", None)));
        assert_eq!(orphan.unwrap_err(), StorageError::TableNotFound("nope".into()));
        let missing = cat.apply("y", Mutation::DropIndex(IndexSpace::Path)).unwrap_err();
        assert_eq!(missing.to_string(), "path index 'y' does not exist");
        cat.apply("x", Mutation::DropIndex(IndexSpace::Graph)).unwrap();
        assert_eq!(index_names(&cat), [("x".to_string(), IndexSpace::Path)]);
        // A create over a table that is not the one validated against is
        // skipped, logged or not.
        let id = cat.entry("t").unwrap().id;
        assert_eq!(cat.create_index(index("z", "t", None), id + 1).unwrap(), 0);
        assert_eq!(index_names(&cat).len(), 1);
        cat.create_index(index("z", "t", None), id).unwrap();
        assert_eq!(index_names(&cat).len(), 2);
    }

    #[test]
    fn index_definitions_move_no_version() {
        let cat = Catalog::new();
        cat.create_table("t", schema()).unwrap();
        cat.apply("t", Mutation::Append(int_rows(&[1]))).unwrap();
        let before = (cat.ddl_version(), cat.entry("t").unwrap().version);
        cat.apply("g", Mutation::CreateIndex(index("g", "t", None))).unwrap();
        let path = index("p", "t", Some(PathIndexKind::Contraction));
        cat.apply("p", Mutation::CreateIndex(path)).unwrap();
        cat.apply("g", Mutation::DropIndex(IndexSpace::Graph)).unwrap();
        assert_eq!((cat.ddl_version(), cat.entry("t").unwrap().version), before);
    }

    #[test]
    fn a_recreated_table_has_a_new_identity() {
        let cat = Catalog::new();
        cat.create_table("t", schema()).unwrap();
        let first = cat.entry("t").unwrap();
        cat.apply("t", Mutation::Append(int_rows(&[1]))).unwrap();
        assert_eq!(cat.entry("t").unwrap().id, first.id, "data changes keep it");
        cat.drop_table("t").unwrap();
        cat.create_table("t", schema()).unwrap();
        let second = cat.entry("t").unwrap();
        assert_eq!(second.version, first.version);
        assert_ne!(second.id, first.id);
    }

    #[test]
    fn table_names_sorted() {
        let cat = Catalog::new();
        cat.create_table("zeta", schema()).unwrap();
        cat.create_table("Alpha", schema()).unwrap();
        assert_eq!(cat.table_names(), vec!["alpha".to_string(), "zeta".to_string()]);
    }
}
