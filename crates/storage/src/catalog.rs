//! The named-table store, and the one place table state changes.
//!
//! Every create, drop and data change is a [`Mutation`] installed by
//! [`Catalog::apply`]. Once a [`DurableStore`] is attached (after
//! recovery), `apply` also writes the mutation's WAL record while it holds
//! the catalog's write lock, and syncs it after releasing that lock and
//! before returning. So the log holds the changes in the order they were
//! applied, readers never wait for an fsync, and no change escapes the log,
//! whoever makes it.

use crate::error::StorageError;
use crate::mutation::Mutation;
use crate::persist::DurableStore;
use crate::schema::Schema;
use crate::table::Table;
use crate::Result;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// A catalog entry: the table snapshot plus a version counter.
///
/// Tables are stored behind `Arc` and mutated copy-on-write, so a running
/// query always sees a consistent snapshot (matching MonetDB's materialized
/// execution). The version number increments on every mutation and is what
/// graph indices (paper §6 future work) use for invalidation.
#[derive(Debug, Clone)]
pub struct TableEntry {
    /// Immutable snapshot of the table contents.
    pub table: Arc<Table>,
    /// Bumped on every `Append`, `Delete` and `Update` of this table.
    pub version: u64,
}

/// A thread-safe catalog of named tables.
///
/// Table names are case-insensitive (folded to lowercase internally).
///
/// Besides the per-table data versions, the catalog keeps a **structural
/// (DDL) version** — bumped whenever a table is created or dropped,
/// through *any* API path. Plan caches use it to invalidate plans that
/// embedded schema information.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: RwLock<HashMap<String, TableEntry>>,
    ddl_version: AtomicU64,
    store: OnceLock<Arc<DurableStore>>,
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
            // The copy-on-write clone keeps running queries on the old
            // snapshot and leaves the entry untouched when a row fails.
            let mut next = (**table).clone();
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
        Mutation::Create(_) | Mutation::Drop => unreachable!("structural mutations"),
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

    /// Apply one mutation to table `name` — the only way table state
    /// changes. A refused mutation changes nothing and logs nothing; a
    /// `Delete` or `Update` computed against an older version of the table
    /// is refused with [`StorageError::VersionConflict`]. With a store
    /// attached, the change is visible to readers once its record is
    /// written, and `apply` returns once the record is synced (an error
    /// from that sync is returned, though the change stays installed).
    /// Returns the bytes logged, framing included (0 with no store
    /// attached).
    pub fn apply(&self, name: &str, mutation: Mutation) -> Result<u64> {
        let store = self.store.get();
        let record = store.map(|_| mutation.encode(name)).transpose()?;
        let _commit = store.map(|s| s.commit_shared());
        let key = name.to_ascii_lowercase();
        let mut tables = self.tables.write().expect("catalog lock poisoned");
        let structural = matches!(mutation, Mutation::Create(_) | Mutation::Drop);
        let next = match mutation {
            Mutation::Create(table) if !tables.contains_key(&key) => {
                Some(TableEntry { table: Arc::new(table), version: 0 })
            }
            Mutation::Create(_) => return Err(StorageError::TableExists(name.to_string())),
            Mutation::Drop if tables.contains_key(&key) => None,
            data => {
                let entry = tables
                    .get(&key)
                    .ok_or_else(|| StorageError::TableNotFound(name.to_string()))?;
                let table = Arc::new(changed(name, entry, data)?);
                Some(TableEntry { table, version: entry.version + 1 })
            }
        };
        let unsynced = match (store, record) {
            (Some(store), Some(record)) => Some(store.write(&record)?),
            _ => None,
        };
        match next {
            Some(entry) => tables.insert(key, entry),
            None => tables.remove(&key),
        };
        if structural {
            self.ddl_version.fetch_add(1, Ordering::AcqRel);
        }
        drop(tables);
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

    /// Drop a table. Errors when absent.
    pub fn drop_table(&self, name: &str) -> Result<()> {
        self.apply(name, Mutation::Drop).map(drop)
    }

    /// Snapshot of a table (cheap `Arc` clone). Errors when absent.
    pub fn get(&self, name: &str) -> Result<Arc<Table>> {
        Ok(self.entry(name)?.table)
    }

    /// Snapshot plus version, for index invalidation checks.
    pub fn entry(&self, name: &str) -> Result<TableEntry> {
        let key = name.to_ascii_lowercase();
        let tables = self.tables.read().expect("catalog lock poisoned");
        tables.get(&key).cloned().ok_or_else(|| StorageError::TableNotFound(name.to_string()))
    }

    /// True when a table with this name exists.
    pub fn contains(&self, name: &str) -> bool {
        let key = name.to_ascii_lowercase();
        self.tables.read().expect("catalog lock poisoned").contains_key(&key)
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let tables = self.tables.read().expect("catalog lock poisoned");
        let mut names: Vec<String> = tables.keys().cloned().collect();
        names.sort();
        names
    }

    /// Every entry as `(name, entry)` pairs, sorted by name. Snapshot
    /// capture uses this; the `Arc` clones are cheap.
    pub fn entries(&self) -> Vec<(String, TableEntry)> {
        let tables = self.tables.read().expect("catalog lock poisoned");
        let mut out: Vec<(String, TableEntry)> =
            tables.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
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
        let mut tables = self.tables.write().expect("catalog lock poisoned");
        if tables.contains_key(&key) {
            return Err(StorageError::TableExists(name.to_string()));
        }
        tables.insert(key, TableEntry { table, version });
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

    #[test]
    fn table_names_sorted() {
        let cat = Catalog::new();
        cat.create_table("zeta", schema()).unwrap();
        cat.create_table("Alpha", schema()).unwrap();
        assert_eq!(cat.table_names(), vec!["alpha".to_string(), "zeta".to_string()]);
    }
}
