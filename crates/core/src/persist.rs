//! Engine-side persistence: replaying WAL records, and the index sections
//! of a snapshot checkpoint.
//!
//! The storage crate's durability layer ([`gsql_storage::DurableStore`])
//! deliberately knows nothing about engine semantics — it persists the
//! catalog's tables plus opaque named byte sections, and frames opaque WAL
//! records. This module is the other half of that contract:
//!
//! * **WAL records.** Every catalog change is logged by the catalog itself,
//!   as the [`Mutation`] it applied (its effect: rows appended, row
//!   positions deleted, rows replaced, a table created or dropped, an index
//!   defined or dropped). Replay applies those records to the catalog
//!   again, with no session, binder or executor, so a reopened table has the
//!   rows, row order and version the live one had, whatever settings the
//!   writing session used; a replayed index definition is only registered,
//!   and the first query that needs it builds it, within its statement
//!   deadline. Logs written before every change was logged as its effect
//!   hold SQL text ([`STATEMENT_TAG`]: index DDL, and DML before that);
//!   such a record still replays through a session.
//! * **Snapshot sections** serialize the index definitions in two
//!   sections, one per DDL name space. Graph-index entries persist their
//!   definitions only; path-index entries persist the full built
//!   acceleration layer — graph, slot weights, landmark distance vectors or
//!   CH shortcut CSRs — stamped with the owning table's version, so a warm
//!   restart answers accelerated queries with **zero** layer builds, and a
//!   restored layer's graph also serves every graph index over the same
//!   edges. A version mismatch (the snapshot predates later WAL mutations)
//!   simply restores the definition and leaves the usual lazy rebuild to
//!   run. Both section headers are written as 0. Data directories from
//!   before index DDL stopped moving the schema version carry an index
//!   counter there; restore adds both headers into the catalog's DDL
//!   version, so such a directory reopens at the `schema_version` it had.
//!
//! Everything in a layer but its landmark or contraction structure is a
//! function of the edge table, so a restore trusts none of those bytes: it
//! derives the graph from the restored table as a build does ([`build_graph`],
//! or the graph of a layer restored before it over the same edges) and the
//! weights through [`AccelLayer::derive_weights`], in `O(|V| + |E|)` and
//! counting no build. It serves the persisted structure only when the
//! persisted key ordinals, dictionary, CSRs and weights equal the derived
//! ones byte for byte and the structure covers exactly the derived vertices; otherwise,
//! like any malformed or inconsistent bytes, the section is
//! [`StorageError::Corrupt`], never a panic.

use crate::context::ExecContext;
use crate::database::Database;
use crate::error::{exec_err, Error};
use crate::exec::graph_op::{build_graph, MaterializedGraph};
use crate::index::{int_slots, key_columns, AccelIndex, AccelLayer, IndexSpace, PathIndexKind};
use gsql_accel::{ChParts, ContractionHierarchy, Landmarks, UpGraphParts};
use gsql_storage::catalog::TableEntry;
use gsql_storage::mutation::STATEMENT_TAG;
use gsql_storage::persist::{get_value, put_value, ByteReader, ByteWriter};
use gsql_storage::{
    AccelDef, DataType, IndexDef, Mutation, SnapshotData, SnapshotTable, StorageError, Value,
};
use std::sync::Arc;

type Result<T> = std::result::Result<T, Error>;

/// Snapshot section holding the graph indexes.
pub(crate) const GRAPH_SECTION: &str = "graph_indexes";
/// Snapshot section holding the path indexes.
pub(crate) const PATH_SECTION: &str = "path_indexes";

fn corrupt(msg: impl Into<String>) -> Error {
    Error::Storage(StorageError::Corrupt(msg.into()))
}

// ------------------------------------------------------------ WAL records

/// Re-apply one WAL record (recovery). The database has no durable store
/// attached yet, so nothing is logged again.
pub(crate) fn replay_record(db: &Database, bytes: &[u8]) -> Result<()> {
    if bytes.first() != Some(&STATEMENT_TAG) {
        let (table, mutation) = Mutation::decode(bytes)?;
        return db
            .apply(&table, mutation)
            .map_err(|e| corrupt(format!("WAL record of '{table}' failed to replay: {e}")));
    }
    let mut r = ByteReader::new(&bytes[1..]);
    let sql = r.get_str()?;
    let params = r.get_list(get_value)?;
    if !r.is_exhausted() {
        return Err(corrupt("trailing bytes after statement record"));
    }
    db.execute_with_params(&sql, &params)
        .map_err(|e| corrupt(format!("WAL statement failed to replay: {e} (statement: {sql})")))?;
    Ok(())
}

// ------------------------------------------------------ snapshot capture

/// Capture the full engine state for a snapshot checkpoint. Runs under the
/// store's exclusive commit lock, so the catalog and registries are
/// mutually consistent.
pub(crate) fn capture_snapshot(db: &Database) -> std::result::Result<SnapshotData, StorageError> {
    let tables = db
        .catalog()
        .entries()
        .into_iter()
        .map(|(name, e)| SnapshotTable { name, version: e.version, table: e.table })
        .collect();
    let sections = vec![
        (GRAPH_SECTION.to_string(), encode_section(db, IndexSpace::Graph)?),
        (PATH_SECTION.to_string(), encode_section(db, IndexSpace::Path)?),
    ];
    Ok(SnapshotData { ddl_version: db.catalog().ddl_version(), tables, sections })
}

/// One section: every definition in `space`, sorted by name, and for a
/// path index the layer built from its table's current entry, if any.
fn encode_section(db: &Database, space: IndexSpace) -> std::result::Result<Vec<u8>, StorageError> {
    let catalog = db.catalog().read();
    let defs: Vec<&IndexDef> = catalog.indexes().iter().filter(|d| d.space() == space).collect();
    let mut w = ByteWriter::new();
    // The legacy index-counter header.
    w.put_u64(0);
    w.put_usize(defs.len());
    for def in defs {
        let entry = catalog.entry(&def.table);
        let layer = entry.and_then(|e| Some((e.version, db.indexes().built_layer(def, e)?)));
        let built = layer.as_ref().map(|(version, l)| {
            (*version, GraphParts::of(&l.graph, int_slots(&l.weights)), &l.accel)
        });
        encode_entry(&mut w, def, built).map_err(|e| StorageError::Internal(e.to_string()))?;
    }
    Ok(w.into_bytes())
}

/// One entry of a section: the definition and, for a path index, the layer
/// `built` from its table at a version — its graph parts and its structure
/// — if any.
fn encode_entry(
    w: &mut ByteWriter,
    def: &IndexDef,
    built: Option<(u64, GraphParts<'_>, &AccelIndex)>,
) -> Result<()> {
    for s in [&def.name, &def.table, &def.src_col, &def.dst_col] {
        w.put_str(s);
    }
    let Some(accel) = &def.accel else { return Ok(()) };
    accel.encode(w);
    match built {
        None => w.put_u8(0),
        Some((version, parts, accel)) => {
            w.put_u8(1);
            w.put_u64(version);
            parts.encode(w)?;
            encode_accel(w, accel);
        }
    }
    Ok(())
}

/// A CSR's `(offsets, targets, edge_rows)`.
type CsrParts<'a> = (&'a [usize], &'a [u32], &'a [u32]);

/// The parts of a path-index layer a restore derives from the table, in
/// the order a checkpoint writes them ahead of the structure: the key
/// column ordinals, the dictionary values in dense-id order, the forward
/// and reverse CSR arrays, and the forward and backward slot weights.
struct GraphParts<'a> {
    keys: [usize; 2],
    values: Vec<Value>,
    csrs: [CsrParts<'a>; 2],
    weights: [Option<&'a [i64]>; 2],
}

impl GraphParts<'_> {
    fn of<'a>(
        graph: &'a MaterializedGraph,
        weights: Option<(&'a [i64], &'a [i64])>,
    ) -> GraphParts<'a> {
        GraphParts {
            keys: [graph.src_key, graph.dst_key],
            values: graph.vertices(),
            csrs: [graph.csr.raw_parts(), graph.reverse().raw_parts()],
            weights: [weights.map(|(f, _)| f), weights.map(|(_, b)| b)],
        }
    }

    fn encode(&self, w: &mut ByteWriter) -> Result<()> {
        for key in self.keys {
            w.put_usize(key);
        }
        w.put_usize(self.values.len());
        for v in &self.values {
            put_value(w, v)?;
        }
        for (offsets, targets, edge_rows) in self.csrs {
            w.put_list(offsets, |w, &o| w.put_usize(o));
            w.put_list(targets, |w, &v| w.put_u32(v));
            w.put_list(edge_rows, |w, &v| w.put_u32(v));
        }
        for weights in self.weights {
            w.put_u8(weights.is_some() as u8);
            if let Some(weights) = weights {
                w.put_list(weights, |w, &v| w.put_i64(v));
            }
        }
        Ok(())
    }

    /// Consume the parts [`GraphParts::encode`] wrote, keeping none of
    /// them.
    fn skip(r: &mut ByteReader<'_>) -> Result<()> {
        r.get_usize()?;
        r.get_usize()?;
        r.get_list(|r| get_value(r).map(drop))?;
        for _ in 0..2 {
            r.get_list(|r| r.get_usize().map(drop))?;
            r.get_list(|r| r.get_u32().map(drop))?;
            r.get_list(|r| r.get_u32().map(drop))?;
        }
        for _ in 0..2 {
            if r.get_u8()? != 0 {
                r.get_list(|r| r.get_i64().map(drop))?;
            }
        }
        Ok(())
    }
}

fn encode_accel(w: &mut ByteWriter, accel: &AccelIndex) {
    match accel {
        AccelIndex::Alt(lm) => {
            w.put_u8(0);
            let (landmarks, fwd, bwd) = lm.to_parts();
            w.put_list(&landmarks, |w, &v| w.put_u32(v));
            for vectors in [&fwd, &bwd] {
                w.put_list(vectors, |w, v| w.put_list(v, |w, &d| w.put_u64(d)));
            }
        }
        AccelIndex::Ch(ch) => {
            w.put_u8(1);
            let parts = ch.to_parts();
            w.put_list(&parts.rank, |w, &v| w.put_u32(v));
            for g in [&parts.fwd, &parts.bwd] {
                w.put_list(&g.offsets, |w, &o| w.put_usize(o));
                w.put_list(&g.targets, |w, &v| w.put_u32(v));
                w.put_list(&g.weights, |w, &v| w.put_u64(v));
            }
            w.put_u64(parts.shortcuts);
        }
    }
}

// ------------------------------------------------------ snapshot restore

/// Restore engine state from a decoded snapshot into a freshly constructed
/// (empty, in-memory) database: tables and version counters exactly as
/// captured, graph-index definitions, and path indexes with their built
/// acceleration structures when the owning table's version still matches.
pub(crate) fn restore_snapshot(db: &Database, snap: SnapshotData) -> Result<()> {
    for t in snap.tables {
        db.catalog().restore_table(&t.name, t.table, t.version)?;
    }
    let mut version = snap.ddl_version;
    for (name, bytes) in &snap.sections {
        let header = match name.as_str() {
            GRAPH_SECTION => restore_section(db, bytes, IndexSpace::Graph)?,
            PATH_SECTION => restore_section(db, bytes, IndexSpace::Path)?,
            other => return Err(corrupt(format!("unknown snapshot section '{other}'"))),
        };
        version = version.checked_add(header).ok_or_else(|| corrupt("DDL version overflow"))?;
    }
    db.catalog().set_ddl_version(version);
    Ok(())
}

/// Re-register one section's entries; returns the legacy index counter its
/// header carries.
fn restore_section(db: &Database, bytes: &[u8], space: IndexSpace) -> Result<u64> {
    let mut r = ByteReader::new(bytes);
    let version = r.get_u64()?;
    let count = r.get_usize()?;
    for _ in 0..count {
        let mut def = IndexDef {
            name: r.get_str()?,
            table: r.get_str()?,
            src_col: r.get_str()?,
            dst_col: r.get_str()?,
            accel: None,
        };
        let mut built = None;
        if space == IndexSpace::Path {
            let accel = AccelDef::decode(&mut r)?;
            if r.get_u8()? != 0 {
                let table_version = r.get_u64()?;
                built = decode_layer(db, &def, &accel, table_version, &mut r)?;
            }
            def.accel = Some(accel);
        }
        db.apply(&def.name, Mutation::CreateIndex(def.clone())).map_err(|e| match e {
            Error::Storage(StorageError::TableNotFound(t)) => {
                corrupt(format!("{} references missing table '{t}'", space.noun()))
            }
            e => e,
        })?;
        if let Some((entry, layer)) = built {
            db.indexes().restore(def, &entry, Arc::new(layer));
        }
    }
    if !r.is_exhausted() {
        let section = if space == IndexSpace::Graph { "graph-index" } else { "path-index" };
        return Err(corrupt(format!("trailing bytes in {section} section")));
    }
    Ok(version)
}

/// Decode one persisted layer of path index `def`. The payload is always
/// consumed (so the reader stays aligned for the next entry); the result
/// is `None` — restore the definition, rebuild lazily — when the owning
/// table's version moved past the one the layer was built against.
/// Otherwise the layer is the persisted structure over the graph and
/// weights derived from the table (see the [module docs](self)), with the
/// table entry they came from.
fn decode_layer(
    db: &Database,
    def: &IndexDef,
    accel_def: &AccelDef,
    table_version: u64,
    r: &mut ByteReader<'_>,
) -> Result<Option<(TableEntry, AccelLayer)>> {
    let Ok(entry) = db.catalog().entry(&def.table) else {
        return Err(corrupt(format!("path index references missing table '{}'", def.table)));
    };
    // Stale built data (WAL mutations past the snapshot): consume the bytes
    // unchecked, so decoding continues, and fall back to the lazy rebuild.
    if entry.version != table_version {
        GraphParts::skip(r)?;
        let _ = decode_structure(r, accel_def, 0)?;
        return Ok(None);
    }

    let name = &def.name;
    let derive = || -> Result<_> {
        let schema = entry.table.schema();
        let (src_key, dst_key) = key_columns(def, schema)?;
        let weight = accel_def.weight_col.as_deref().map(|c| schema.index_of(c));
        let is_int = |k: usize| schema.column(k).ty == DataType::Int;
        if weight != accel_def.weight_key.map(Some) || !accel_def.weight_key.is_none_or(is_int) {
            return Err(exec_err!("its weight column is not an INTEGER column of the table"));
        }
        let graph = match db.indexes().base_graph(def, &entry) {
            Some((version, graph)) if version == entry.version => graph,
            _ => Arc::new(build_graph(Arc::clone(&entry.table), src_key, dst_key)?),
        };
        let ctx =
            ExecContext::new(db.catalog(), &[], None).with_metrics(Some(Arc::clone(db.metrics())));
        let weights = AccelLayer::derive_weights(&ctx, &graph, accel_def)?;
        Ok((graph, weights))
    };
    let (graph, weights) =
        derive().map_err(|e| corrupt(format!("path index '{name}' cannot be restored: {e}")))?;
    // Byte for byte: `Value`'s `==` is SQL equality, under which `3 = 3.0`.
    let mut derived = ByteWriter::new();
    GraphParts::of(&graph, int_slots(&weights)).encode(&mut derived)?;
    let derived = derived.into_bytes();
    if r.remaining() < derived.len() || r.get_raw(derived.len())? != derived {
        let table = &def.table;
        return Err(corrupt(format!(
            "path index '{name}' persisted a graph that differs from the one table '{table}' derives"
        )));
    }
    let accel = decode_structure(r, accel_def, graph.num_vertices())?
        .map_err(|e| corrupt(format!("path index '{name}': {e}")))?;
    Ok(Some((entry, AccelLayer { graph, accel, weights })))
}

/// Decode the persisted landmark or contraction structure of `accel_def`,
/// and check that it covers exactly `n` vertices (the inner error says how
/// it does not).
fn decode_structure(
    r: &mut ByteReader<'_>,
    accel_def: &AccelDef,
    n: u32,
) -> Result<std::result::Result<AccelIndex, String>> {
    let tag = r.get_u8()?;
    // Kind/data agreement: a corrupt file must not smuggle a CH payload
    // into an entry the planner believes is ALT (or vice versa).
    let tag_matches = match accel_def.kind {
        PathIndexKind::Landmarks(_) => tag == 0,
        PathIndexKind::Contraction => tag == 1,
    };
    let structure = match tag {
        0 => {
            let landmarks = r.get_list(ByteReader::get_u32)?;
            let fwd = r.get_list(|r| r.get_list(ByteReader::get_u64))?;
            let bwd = r.get_list(|r| r.get_list(ByteReader::get_u64))?;
            Landmarks::from_parts(n, landmarks, fwd, bwd).map(AccelIndex::Alt)
        }
        1 => {
            let rank = r.get_list(ByteReader::get_u32)?;
            let (fwd, bwd) = (decode_up_graph(r)?, decode_up_graph(r)?);
            let parts = ChParts { rank, fwd, bwd, shortcuts: r.get_u64()? };
            ContractionHierarchy::from_parts(n, parts).map(AccelIndex::Ch)
        }
        other => return Err(corrupt(format!("unknown accel tag {other}"))),
    };
    if !tag_matches {
        return Err(corrupt("path-index accel payload does not match declared kind"));
    }
    Ok(structure)
}

fn decode_up_graph(r: &mut ByteReader<'_>) -> Result<UpGraphParts> {
    let offsets = r.get_list(ByteReader::get_usize)?;
    let targets = r.get_list(ByteReader::get_u32)?;
    Ok(UpGraphParts { offsets, targets, weights: r.get_list(ByteReader::get_u64)? })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsql_graph::Csr;

    /// An in-memory database with one built path index of each kind over an
    /// `INTEGER`-keyed and a `VARCHAR`-keyed edge table.
    fn indexed_db() -> Database {
        let db = Database::new();
        for sql in [
            "CREATE TABLE roads (a INTEGER, b INTEGER, len INTEGER NOT NULL)",
            "INSERT INTO roads VALUES (1001, 1002, 5), (1002, 1003, 5), (1001, 1003, 20), \
             (1003, 1004, 1), (NULL, 1001, 1)",
            "CREATE TABLE flights (org VARCHAR, dst VARCHAR, mins INTEGER NOT NULL)",
            "INSERT INTO flights VALUES ('AMS', 'LIS', 170), ('LIS', 'JFK', 420), \
             ('AMS', 'JFK', 500), ('JFK', 'AMS', 430)",
            "CREATE PATH INDEX ri ON roads EDGE (a, b) WEIGHT len USING CONTRACTION",
            "CREATE PATH INDEX fi ON flights EDGE (org, dst) WEIGHT mins USING LANDMARKS(2)",
        ] {
            db.execute(sql).unwrap();
        }
        db
    }

    /// A database holding `db`'s tables, at their versions, and no index.
    fn tables_of(db: &Database) -> Database {
        let fresh = Database::new();
        let mut snapshot = capture_snapshot(db).unwrap();
        snapshot.sections.clear();
        restore_snapshot(&fresh, snapshot).unwrap();
        fresh
    }

    #[test]
    fn path_section_encode_decode_encode_is_byte_stable() {
        let db = indexed_db();
        let first = encode_section(&db, IndexSpace::Path).unwrap();
        // Decoding registers both definitions from the bytes alone; their
        // tables are unchanged, so the built layer is installed, not dropped.
        let restored = tables_of(&db);
        assert_eq!(restore_section(&restored, &first, IndexSpace::Path).unwrap(), 0);
        let catalog = restored.catalog().read();
        assert_eq!(catalog.indexes().len(), 2);
        for def in catalog.indexes() {
            let entry = catalog.entry(&def.table).unwrap();
            let layer = restored.indexes().built_layer(def, entry).expect("restored built");
            let want = if def.name == "ri" { "int" } else { "generic" };
            assert_eq!(layer.graph.dict.kind(), want, "{}", def.name);
        }
        drop(catalog);
        assert_eq!(encode_section(&restored, IndexSpace::Path).unwrap(), first);
    }

    #[test]
    fn repeated_dictionary_value_is_corrupt_not_a_panic() {
        let db = indexed_db();
        let mut bytes = encode_section(&db, IndexSpace::Path).unwrap();
        for (first, second) in [(Value::Int(1001), Value::Int(1002)), ("AMS".into(), "LIS".into())]
        {
            let (mut pair, mut repeated) = (ByteWriter::new(), ByteWriter::new());
            put_value(&mut pair, &first).unwrap();
            put_value(&mut pair, &second).unwrap();
            put_value(&mut repeated, &first).unwrap();
            put_value(&mut repeated, &first).unwrap();
            let (pair, repeated) = (pair.into_bytes(), repeated.into_bytes());
            assert_eq!(pair.len(), repeated.len(), "same-width keys keep the framing intact");
            let at = bytes
                .windows(pair.len())
                .position(|w| w == pair.as_slice())
                .expect("dictionary values are stored in id order");
            let saved = bytes[at..at + pair.len()].to_vec();
            bytes[at..at + pair.len()].copy_from_slice(&repeated);
            let err = restore_section(&tables_of(&db), &bytes, IndexSpace::Path).unwrap_err();
            assert!(
                matches!(&err, Error::Storage(StorageError::Corrupt(m)) if m.contains(DIFFERS)),
                "{first}: {err}"
            );
            bytes[at..at + pair.len()].copy_from_slice(&saved);
        }
        restore_section(&tables_of(&db), &bytes, IndexSpace::Path).unwrap();
    }

    /// Path index `name` of `db`: its definition, its table's version and
    /// its built layer.
    fn built(db: &Database, name: &str) -> (IndexDef, u64, Arc<AccelLayer>) {
        let catalog = db.catalog().read();
        let def = catalog.index(IndexSpace::Path, name).expect("defined").clone();
        let entry = catalog.entry(&def.table).expect("its table");
        let layer = db.indexes().built_layer(&def, entry).expect("built");
        (def, entry.version, layer)
    }

    /// The graph parts of `layer`.
    fn parts_of(layer: &AccelLayer) -> GraphParts<'_> {
        GraphParts::of(&layer.graph, int_slots(&layer.weights))
    }

    /// A path section holding `def` and a layer of `parts` and `accel`
    /// built at `version`.
    fn section(def: &IndexDef, version: u64, parts: GraphParts<'_>, accel: &AccelIndex) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u64(0);
        w.put_usize(1);
        encode_entry(&mut w, def, Some((version, parts, accel))).unwrap();
        w.into_bytes()
    }

    /// Restore `bytes` into a database holding `db`'s tables, expecting
    /// `Corrupt` saying `what`; returns that database (which holds no index).
    fn restore_corrupt(db: &Database, bytes: &[u8], what: &str) -> Database {
        let restored = tables_of(db);
        let err = restore_section(&restored, bytes, IndexSpace::Path).unwrap_err();
        assert!(
            matches!(&err, Error::Storage(StorageError::Corrupt(m)) if m.contains(what)),
            "{what}: {err}"
        );
        assert!(restored.catalog().read().indexes().is_empty(), "{what}: nothing registered");
        restored
    }

    /// The rows of `sql` over `db`, rendered.
    fn answer(db: &Database, sql: &str) -> Vec<String> {
        let t = db.query(sql).unwrap();
        t.rows().map(|row| row.iter().map(|v| format!("{v} ")).collect()).collect()
    }

    /// `sql` answers over `restored` as over an unindexed copy of `db`'s
    /// tables, and it is not empty.
    fn answers_unindexed(restored: &Database, db: &Database, sql: &str) {
        let want = answer(&tables_of(db), sql);
        assert!(!want.is_empty(), "{sql}");
        assert_eq!(answer(restored, sql), want, "{sql}");
    }

    const FLIGHT: &str = "SELECT CHEAPEST SUM(f: f.mins) AS cost \
                          WHERE 'AMS' REACHES 'JFK' OVER flights f EDGE (org, dst)";

    /// What a restore reports for a layer whose graph parts were changed.
    const DIFFERS: &str = "persisted a graph that differs";

    #[test]
    fn a_key_ordinal_past_the_table_is_corrupt() {
        let db = indexed_db();
        let (def, version, layer) = built(&db, "ri");
        let mut parts = parts_of(&layer);
        parts.keys[0] = 3;
        restore_corrupt(&db, &section(&def, version, parts, &layer.accel), DIFFERS);
    }

    #[test]
    fn a_dictionary_value_of_another_type_is_corrupt() {
        let db = indexed_db();
        let (def, version, layer) = built(&db, "ri");
        let mut parts = parts_of(&layer);
        // `1001 = 1001.0` in SQL, but the bytes differ.
        let Value::Int(key) = parts.values[0] else { panic!("ri has INTEGER keys") };
        parts.values[0] = Value::Double(key as f64);
        restore_corrupt(&db, &section(&def, version, parts, &layer.accel), DIFFERS);
    }

    #[test]
    fn a_weight_ordinal_past_the_table_is_corrupt() {
        let db = indexed_db();
        let (mut def, version, layer) = built(&db, "ri");
        def.accel.as_mut().unwrap().weight_key = Some(7);
        let bytes = section(&def, version, parts_of(&layer), &layer.accel);
        restore_corrupt(&db, &bytes, "weight column");
    }

    #[test]
    fn an_edge_row_past_the_table_is_corrupt() {
        let db = indexed_db();
        let (def, version, layer) = built(&db, "ri");
        let mut parts = parts_of(&layer);
        let mut rows = parts.csrs[0].2.to_vec();
        rows[0] = 99;
        parts.csrs[0].2 = &rows;
        let restored = restore_corrupt(&db, &section(&def, version, parts, &layer.accel), DIFFERS);
        // A weighted path query over a graph index on the same edges.
        restored.execute("CREATE GRAPH INDEX rg ON roads EDGE (a, b)").unwrap();
        let sql = "SELECT CHEAPEST SUM(f: f.len) AS (cost, path) \
                   WHERE 1001 REACHES 1004 OVER roads f EDGE (a, b)";
        answers_unindexed(&restored, &db, sql);
    }

    #[test]
    fn landmark_vectors_short_of_the_vertices_are_corrupt() {
        let db = indexed_db();
        let (def, version, layer) = built(&db, "fi");
        let AccelIndex::Alt(landmarks) = &layer.accel else { panic!("fi is ALT") };
        let n = layer.graph.num_vertices();
        let (ids, mut fwd, mut bwd) = landmarks.to_parts();
        for v in fwd.iter_mut().chain(&mut bwd) {
            v.pop();
        }
        let ids = ids.iter().map(|&id| id.min(n - 2)).collect();
        let short = AccelIndex::Alt(Landmarks::from_parts(n - 1, ids, fwd, bwd).unwrap());
        let bytes = section(&def, version, parts_of(&layer), &short);
        let restored = restore_corrupt(&db, &bytes, "cover");
        answers_unindexed(&restored, &db, FLIGHT);
    }

    #[test]
    fn negated_weights_are_corrupt() {
        let db = indexed_db();
        let (def, version, layer) = built(&db, "fi");
        let mut parts = parts_of(&layer);
        let negated = parts.weights.map(|w| w.unwrap().iter().map(|w| -w).collect::<Vec<_>>());
        parts.weights = [Some(&negated[0]), Some(&negated[1])];
        let restored = restore_corrupt(&db, &section(&def, version, parts, &layer.accel), DIFFERS);
        answers_unindexed(&restored, &db, FLIGHT);
    }

    #[test]
    fn a_hierarchy_short_of_the_vertices_is_corrupt() {
        let db = indexed_db();
        let (def, version, layer) = built(&db, "ri");
        let n = layer.graph.num_vertices();
        let fewer = Csr::from_edges(n - 1, &[], &[]).unwrap();
        let short = AccelIndex::Ch(ContractionHierarchy::build(&fewer, None, 1));
        restore_corrupt(&db, &section(&def, version, parts_of(&layer), &short), "ranks");
    }
}
