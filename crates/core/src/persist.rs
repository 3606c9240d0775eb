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
//!   acceleration layer — graph, landmark distance vectors or CH shortcut
//!   CSRs — stamped with the owning table's version, so a warm restart
//!   answers accelerated queries with **zero** rebuild work, and a restored
//!   layer's graph also serves every graph index over the same edges. A
//!   version mismatch (the snapshot predates later WAL mutations) simply
//!   restores the definition and leaves the usual lazy rebuild to run. Both
//!   section headers are written as 0. Data directories from before index
//!   DDL stopped moving the schema version carry an index counter there;
//!   restore adds both headers into the catalog's DDL version, so such a
//!   directory reopens at the `schema_version` it had.
//!   The weight vectors a graph caches for `CHEAPEST SUM`
//!   ([`crate::weight_cache`]) are not written by either section: every
//!   restored graph starts with an empty cache and the first weighted
//!   query after a reopen evaluates its expression again.
//!
//! Every decode path is bounds-checked and cross-validated (vector
//! lengths, CSR invariants, kind tags); corrupt bytes surface as
//! [`StorageError::Corrupt`], never as a panic.

use crate::database::Database;
use crate::error::Error;
use crate::exec::graph_op::{null_filtered_edges, MaterializedGraph};
use crate::index::{AccelIndex, AccelLayer, IndexSpace, PathIndexKind};
use crate::vertex_dict::VertexDict;
use gsql_accel::{ChParts, ContractionHierarchy, Landmarks, UpGraphParts};
use gsql_graph::Csr;
use gsql_storage::catalog::TableEntry;
use gsql_storage::mutation::STATEMENT_TAG;
use gsql_storage::persist::{get_value, put_value, ByteReader, ByteWriter};
use gsql_storage::{AccelDef, IndexDef, Mutation, SnapshotData, SnapshotTable, StorageError};
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
        for s in [&def.name, &def.table, &def.src_col, &def.dst_col] {
            w.put_str(s);
        }
        let Some(accel) = &def.accel else { continue };
        accel.encode(&mut w);
        let entry = catalog.entry(&def.table);
        match entry.and_then(|entry| Some((entry, db.indexes().built_layer(def, entry)?))) {
            None => w.put_u8(0),
            Some((entry, layer)) => {
                w.put_u8(1);
                w.put_u64(entry.version);
                encode_layer(&mut w, &layer).map_err(|e| StorageError::Internal(e.to_string()))?;
            }
        }
    }
    Ok(w.into_bytes())
}

fn encode_layer(w: &mut ByteWriter, data: &AccelLayer) -> Result<()> {
    let graph = &data.graph;
    w.put_usize(graph.src_key);
    w.put_usize(graph.dst_key);
    // Dictionary values in dense-id order (ids are 0..n contiguous).
    let vals = graph.dict.values();
    w.put_usize(vals.len());
    for v in &vals {
        put_value(w, v)?;
    }
    encode_csr(w, &graph.csr);
    encode_csr(w, graph.reverse());
    for weights in [&data.weights_fwd, &data.weights_bwd] {
        w.put_u8(weights.is_some() as u8);
        if let Some(weights) = weights {
            w.put_list(weights, |w, &v| w.put_i64(v));
        }
    }
    match &data.accel {
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
    Ok(())
}

fn encode_csr(w: &mut ByteWriter, csr: &Csr) {
    let (offsets, targets, edge_rows) = csr.raw_parts();
    w.put_list(offsets, |w, &o| w.put_usize(o));
    w.put_list(targets, |w, &v| w.put_u32(v));
    w.put_list(edge_rows, |w, &v| w.put_u32(v));
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
                built = decode_layer(db, &def.table, &accel, table_version, &mut r)?;
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

/// Decode one persisted layer. The payload is always consumed (so the
/// reader stays aligned for the next entry); the result is `None` — restore
/// the definition, rebuild lazily — when the owning table's version moved
/// past the one the layer was built against. Otherwise it comes with the
/// table entry it was built from.
fn decode_layer(
    db: &Database,
    table: &str,
    accel_def: &AccelDef,
    table_version: u64,
    r: &mut ByteReader<'_>,
) -> Result<Option<(TableEntry, AccelLayer)>> {
    let src_key = r.get_usize()?;
    let dst_key = r.get_usize()?;
    let vals = r.get_list(get_value)?;
    let (csr, reverse) = (decode_csr(r)?, decode_csr(r)?);
    let (weights_fwd, weights_bwd) = (get_weights(r)?, get_weights(r)?);
    let accel = match r.get_u8()? {
        0 => {
            let landmarks = r.get_list(ByteReader::get_u32)?;
            let fwd = r.get_list(|r| r.get_list(ByteReader::get_u64))?;
            let bwd = r.get_list(|r| r.get_list(ByteReader::get_u64))?;
            AccelIndex::Alt(Landmarks::from_parts(landmarks, fwd, bwd).map_err(corrupt)?)
        }
        1 => {
            let rank = r.get_list(ByteReader::get_u32)?;
            let (fwd, bwd) = (decode_up_graph(r)?, decode_up_graph(r)?);
            let shortcuts = r.get_u64()?;
            AccelIndex::Ch(
                ContractionHierarchy::from_parts(ChParts { rank, fwd, bwd, shortcuts })
                    .map_err(corrupt)?,
            )
        }
        other => return Err(corrupt(format!("unknown accel tag {other}"))),
    };

    // Kind/data agreement: a corrupt file must not smuggle a CH payload
    // into an entry the planner believes is ALT (or vice versa).
    let tag_matches = matches!(
        (&accel, accel_def.kind),
        (AccelIndex::Alt(_), PathIndexKind::Landmarks(_))
            | (AccelIndex::Ch(_), PathIndexKind::Contraction)
    );
    if !tag_matches {
        return Err(corrupt("path-index accel payload does not match declared kind"));
    }

    // Stale built data (WAL mutations past the snapshot): fall back to the
    // lazy rebuild. The bytes were consumed above, so decoding continues.
    let Ok(current) = db.catalog().entry(table) else {
        return Err(corrupt(format!("path index references missing table '{table}'")));
    };
    if current.version != table_version {
        return Ok(None);
    }

    // Recompute the NULL-filtered edge snapshot off the restored base table
    // — deterministic for a matching version, and not index-build work.
    let edges = null_filtered_edges(Arc::clone(&current.table), src_key, dst_key);
    if csr.num_edges() != edges.row_count() {
        return Err(corrupt(format!(
            "persisted CSR has {} edges but table '{table}' yields {}",
            csr.num_edges(),
            edges.row_count()
        )));
    }
    if csr.num_vertices() as usize != vals.len() {
        return Err(corrupt("persisted dictionary size disagrees with CSR vertex count"));
    }
    if reverse.num_vertices() != csr.num_vertices() || reverse.num_edges() != csr.num_edges() {
        return Err(corrupt("persisted reverse CSR disagrees with forward CSR"));
    }
    if let Some((f, b)) = weights_fwd.as_ref().zip(weights_bwd.as_ref()) {
        if f.len() != csr.num_edges() || b.len() != csr.num_edges() {
            return Err(corrupt("persisted weight arrays disagree with CSR edge count"));
        }
    }
    if accel_def.weight_key.is_some() != weights_fwd.is_some() {
        return Err(corrupt("persisted weights disagree with the declared weight column"));
    }
    let key_type = edges.schema().column(src_key).ty;
    let dict = VertexDict::from_values(key_type, vals).map_err(corrupt)?;
    let graph =
        Arc::new(MaterializedGraph::from_saved(edges, csr, reverse, dict, src_key, dst_key));
    Ok(Some((current, AccelLayer { graph, accel, weights_fwd, weights_bwd })))
}

fn decode_csr(r: &mut ByteReader<'_>) -> Result<Csr> {
    let offsets = r.get_list(ByteReader::get_usize)?;
    let (targets, edge_rows) = (r.get_list(ByteReader::get_u32)?, r.get_list(ByteReader::get_u32)?);
    Csr::from_raw_parts(offsets, targets, edge_rows).map_err(|e| corrupt(e.to_string()))
}

fn decode_up_graph(r: &mut ByteReader<'_>) -> Result<UpGraphParts> {
    let offsets = r.get_list(ByteReader::get_usize)?;
    let targets = r.get_list(ByteReader::get_u32)?;
    Ok(UpGraphParts { offsets, targets, weights: r.get_list(ByteReader::get_u64)? })
}

fn get_weights(r: &mut ByteReader<'_>) -> Result<Option<Vec<i64>>> {
    Ok(match r.get_u8()? {
        0 => None,
        _ => Some(r.get_list(ByteReader::get_i64)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsql_storage::Value;

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
                matches!(&err, Error::Storage(StorageError::Corrupt(m)) if m.contains("duplicate")),
                "{first}: {err}"
            );
            bytes[at..at + pair.len()].copy_from_slice(&saved);
        }
        restore_section(&tables_of(&db), &bytes, IndexSpace::Path).unwrap();
    }
}
