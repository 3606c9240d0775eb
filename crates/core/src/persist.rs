//! Engine-side persistence: replaying WAL records, the index DDL record,
//! and the registry/index sections of a snapshot checkpoint.
//!
//! The storage crate's durability layer ([`gsql_storage::DurableStore`])
//! deliberately knows nothing about engine semantics — it persists the
//! catalog's tables plus opaque named byte sections, and frames opaque WAL
//! records. This module is the other half of that contract:
//!
//! * **WAL records.** Every table change is logged by the catalog itself,
//!   as the [`Mutation`] it applied (its effect: rows appended, row
//!   positions deleted, rows replaced, a table created or dropped). Replay
//!   applies those records to the catalog again, with no session, binder
//!   or executor, so a reopened table has the rows, row order and version
//!   the live one had, whatever settings the writing session used. Index
//!   DDL (`CREATE`/`DROP GRAPH|PATH INDEX`) is logged as its SQL text
//!   ([`STATEMENT_TAG`]) and replayed through a session; logs written
//!   before DML was logged as its effect hold DML in that record too, and
//!   still replay.
//! * **Snapshot sections** serialize the index registry in two sections,
//!   one per DDL name space. Graph-index entries persist their definitions
//!   only; path-index entries persist the full built acceleration layer —
//!   graph, landmark distance vectors or CH shortcut CSRs — stamped with
//!   the owning table's version, so a warm restart answers accelerated
//!   queries with **zero** rebuild work, and a restored layer's graph also
//!   serves every graph index over the same edges. A version mismatch (the
//!   snapshot predates later WAL mutations) simply restores the definition
//!   and leaves the usual lazy rebuild to run. Both section headers are
//!   written as 0. Data directories from before index DDL stopped moving
//!   the schema version carry an index counter there; restore adds both
//!   headers into the catalog's DDL version, so such a directory reopens at
//!   the `schema_version` it had.
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
use crate::index::{
    AccelDef, AccelIndex, AccelLayer, IndexDef, IndexRegistry, IndexSpace, PathIndexKind, Stamped,
};
use crate::vertex_dict::VertexDict;
use gsql_accel::{ChParts, ContractionHierarchy, Landmarks, UpGraphParts};
use gsql_graph::Csr;
use gsql_storage::mutation::STATEMENT_TAG;
use gsql_storage::persist::{get_value, put_value, ByteReader, ByteWriter};
use gsql_storage::{Mutation, SnapshotData, SnapshotTable, StorageError, Value};
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

/// The WAL record of an index DDL statement: its SQL text and parameters.
pub(crate) fn encode_statement_record(sql: &str, params: &[Value]) -> Result<Vec<u8>> {
    let mut w = ByteWriter::new();
    w.put_u8(STATEMENT_TAG);
    w.put_str(sql);
    w.put_usize(params.len());
    for p in params {
        put_value(&mut w, p).map_err(Error::Storage)?;
    }
    Ok(w.into_bytes())
}

/// Re-apply one WAL record (recovery). The database has no durable store
/// attached yet, so nothing is logged again.
pub(crate) fn replay_record(db: &Database, bytes: &[u8]) -> Result<()> {
    if bytes.first() != Some(&STATEMENT_TAG) {
        let (table, mutation) = Mutation::decode(bytes).map_err(Error::Storage)?;
        return db
            .apply(&table, mutation)
            .map_err(|e| corrupt(format!("WAL record of '{table}' failed to replay: {e}")));
    }
    let mut r = ByteReader::new(&bytes[1..]);
    let sql = r.get_str().map_err(Error::Storage)?;
    let n = r.get_usize().map_err(Error::Storage)?;
    let mut params = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        params.push(get_value(&mut r).map_err(Error::Storage)?);
    }
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
        (GRAPH_SECTION.to_string(), encode_graph_section(db.indexes())),
        (PATH_SECTION.to_string(), encode_path_section(db.indexes())?),
    ];
    Ok(SnapshotData { ddl_version: db.catalog().ddl_version(), tables, sections })
}

/// The definition prefix every entry of both sections starts with.
fn put_def(w: &mut ByteWriter, def: &IndexDef) {
    w.put_str(&def.name);
    w.put_str(&def.table);
    w.put_str(&def.src_col);
    w.put_str(&def.dst_col);
}

fn encode_graph_section(reg: &IndexRegistry) -> Vec<u8> {
    let entries = reg.snapshot_entries(IndexSpace::Graph);
    let mut w = ByteWriter::new();
    // The legacy index-counter header.
    w.put_u64(0);
    w.put_usize(entries.len());
    for (def, _) in &entries {
        put_def(&mut w, def);
    }
    w.into_bytes()
}

fn encode_path_section(reg: &IndexRegistry) -> std::result::Result<Vec<u8>, StorageError> {
    let entries = reg.snapshot_entries(IndexSpace::Path);
    let mut w = ByteWriter::new();
    // The legacy index-counter header.
    w.put_u64(0);
    w.put_usize(entries.len());
    for (def, built) in &entries {
        put_def(&mut w, def);
        let accel = def.accel.as_ref().expect("a path index declares its layer");
        put_opt_str(&mut w, accel.weight_col.as_deref());
        match accel.weight_key {
            None => w.put_u8(0),
            Some(k) => {
                w.put_u8(1);
                w.put_usize(k);
            }
        }
        match accel.kind {
            PathIndexKind::Landmarks(k) => {
                w.put_u8(0);
                w.put_u32(k);
            }
            PathIndexKind::Contraction => w.put_u8(1),
        }
        match built {
            None => w.put_u8(0),
            Some((table_version, layer)) => {
                w.put_u8(1);
                w.put_u64(*table_version);
                encode_layer(&mut w, layer).map_err(|e| StorageError::Internal(e.to_string()))?;
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
        put_value(w, v).map_err(Error::Storage)?;
    }
    encode_csr(w, &graph.csr);
    encode_csr(w, graph.reverse());
    put_opt_i64s(w, data.weights_fwd.as_deref());
    put_opt_i64s(w, data.weights_bwd.as_deref());
    match &data.accel {
        AccelIndex::Alt(lm) => {
            w.put_u8(0);
            let (landmarks, fwd, bwd) = lm.to_parts();
            put_u32s(w, &landmarks);
            w.put_usize(fwd.len());
            for v in &fwd {
                put_u64s(w, v);
            }
            w.put_usize(bwd.len());
            for v in &bwd {
                put_u64s(w, v);
            }
        }
        AccelIndex::Ch(ch) => {
            w.put_u8(1);
            let parts = ch.to_parts();
            put_u32s(w, &parts.rank);
            encode_up_graph(w, &parts.fwd);
            encode_up_graph(w, &parts.bwd);
            w.put_u64(parts.shortcuts);
        }
    }
    Ok(())
}

fn encode_csr(w: &mut ByteWriter, csr: &Csr) {
    let (offsets, targets, edge_rows) = csr.raw_parts();
    w.put_usize(offsets.len());
    for &o in offsets {
        w.put_usize(o);
    }
    put_u32s(w, targets);
    put_u32s(w, edge_rows);
}

fn encode_up_graph(w: &mut ByteWriter, g: &UpGraphParts) {
    w.put_usize(g.offsets.len());
    for &o in &g.offsets {
        w.put_usize(o);
    }
    put_u32s(w, &g.targets);
    put_u64s(w, &g.weights);
}

fn put_u32s(w: &mut ByteWriter, vals: &[u32]) {
    w.put_usize(vals.len());
    for &v in vals {
        w.put_u32(v);
    }
}

fn put_u64s(w: &mut ByteWriter, vals: &[u64]) {
    w.put_usize(vals.len());
    for &v in vals {
        w.put_u64(v);
    }
}

fn put_opt_str(w: &mut ByteWriter, s: Option<&str>) {
    match s {
        None => w.put_u8(0),
        Some(s) => {
            w.put_u8(1);
            w.put_str(s);
        }
    }
}

fn put_opt_i64s(w: &mut ByteWriter, vals: Option<&[i64]>) {
    match vals {
        None => w.put_u8(0),
        Some(vals) => {
            w.put_u8(1);
            w.put_usize(vals.len());
            for &v in vals {
                w.put_i64(v);
            }
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
        db.catalog().restore_table(&t.name, t.table, t.version).map_err(Error::Storage)?;
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
    let version = r.get_u64().map_err(Error::Storage)?;
    let count = r.get_usize().map_err(Error::Storage)?;
    for _ in 0..count {
        let mut def = IndexDef {
            name: r.get_str().map_err(Error::Storage)?,
            table: r.get_str().map_err(Error::Storage)?,
            src_col: r.get_str().map_err(Error::Storage)?,
            dst_col: r.get_str().map_err(Error::Storage)?,
            accel: None,
        };
        let mut built = None;
        if space == IndexSpace::Path {
            let weight_col = match r.get_u8().map_err(Error::Storage)? {
                0 => None,
                _ => Some(r.get_str().map_err(Error::Storage)?),
            };
            let weight_key = match r.get_u8().map_err(Error::Storage)? {
                0 => None,
                _ => Some(r.get_usize().map_err(Error::Storage)?),
            };
            let kind = match r.get_u8().map_err(Error::Storage)? {
                0 => PathIndexKind::Landmarks(r.get_u32().map_err(Error::Storage)?),
                1 => PathIndexKind::Contraction,
                other => return Err(corrupt(format!("unknown path-index kind tag {other}"))),
            };
            if r.get_u8().map_err(Error::Storage)? != 0 {
                let table_version = r.get_u64().map_err(Error::Storage)?;
                built = decode_layer(db, &def.table, kind, weight_key, table_version, &mut r)?;
            }
            def.accel = Some(AccelDef { weight_col, weight_key, kind });
        }
        db.indexes().restore(def, built);
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
/// past the one the layer was built against.
fn decode_layer(
    db: &Database,
    table: &str,
    kind: PathIndexKind,
    weight_key: Option<usize>,
    table_version: u64,
    r: &mut ByteReader<'_>,
) -> Result<Stamped<AccelLayer>> {
    let src_key = r.get_usize().map_err(Error::Storage)?;
    let dst_key = r.get_usize().map_err(Error::Storage)?;
    let n = r.get_usize().map_err(Error::Storage)?;
    let mut vals = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        vals.push(get_value(r).map_err(Error::Storage)?);
    }
    let csr = decode_csr(r)?;
    let reverse = decode_csr(r)?;
    let weights_fwd = get_opt_i64s(r)?;
    let weights_bwd = get_opt_i64s(r)?;
    let accel = match r.get_u8().map_err(Error::Storage)? {
        0 => {
            let landmarks = get_u32s(r)?;
            let k = r.get_usize().map_err(Error::Storage)?;
            let mut fwd = Vec::with_capacity(k.min(1024));
            for _ in 0..k {
                fwd.push(get_u64s(r)?);
            }
            let k = r.get_usize().map_err(Error::Storage)?;
            let mut bwd = Vec::with_capacity(k.min(1024));
            for _ in 0..k {
                bwd.push(get_u64s(r)?);
            }
            AccelIndex::Alt(Landmarks::from_parts(landmarks, fwd, bwd).map_err(corrupt)?)
        }
        1 => {
            let rank = get_u32s(r)?;
            let fwd = decode_up_graph(r)?;
            let bwd = decode_up_graph(r)?;
            let shortcuts = r.get_u64().map_err(Error::Storage)?;
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
        (&accel, kind),
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
    if weight_key.is_some() != weights_fwd.is_some() {
        return Err(corrupt("persisted weights disagree with the declared weight column"));
    }
    let key_type = edges.schema().column(src_key).ty;
    let dict = VertexDict::from_values(key_type, vals).map_err(corrupt)?;
    let graph =
        Arc::new(MaterializedGraph::from_saved(edges, csr, reverse, dict, src_key, dst_key));
    let layer = AccelLayer { graph, accel, weights_fwd, weights_bwd };
    Ok(Some((table_version, Arc::new(layer))))
}

fn decode_csr(r: &mut ByteReader<'_>) -> Result<Csr> {
    let n = r.get_usize().map_err(Error::Storage)?;
    let mut offsets = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        offsets.push(r.get_usize().map_err(Error::Storage)?);
    }
    let targets = get_u32s(r)?;
    let edge_rows = get_u32s(r)?;
    Csr::from_raw_parts(offsets, targets, edge_rows).map_err(|e| corrupt(e.to_string()))
}

fn decode_up_graph(r: &mut ByteReader<'_>) -> Result<UpGraphParts> {
    let n = r.get_usize().map_err(Error::Storage)?;
    let mut offsets = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        offsets.push(r.get_usize().map_err(Error::Storage)?);
    }
    let targets = get_u32s(r)?;
    let weights = get_u64s(r)?;
    Ok(UpGraphParts { offsets, targets, weights })
}

fn get_u32s(r: &mut ByteReader<'_>) -> Result<Vec<u32>> {
    let n = r.get_usize().map_err(Error::Storage)?;
    let mut vals = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        vals.push(r.get_u32().map_err(Error::Storage)?);
    }
    Ok(vals)
}

fn get_u64s(r: &mut ByteReader<'_>) -> Result<Vec<u64>> {
    let n = r.get_usize().map_err(Error::Storage)?;
    let mut vals = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        vals.push(r.get_u64().map_err(Error::Storage)?);
    }
    Ok(vals)
}

fn get_opt_i64s(r: &mut ByteReader<'_>) -> Result<Option<Vec<i64>>> {
    match r.get_u8().map_err(Error::Storage)? {
        0 => Ok(None),
        _ => {
            let n = r.get_usize().map_err(Error::Storage)?;
            let mut vals = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                vals.push(r.get_i64().map_err(Error::Storage)?);
            }
            Ok(Some(vals))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn path_section_encode_decode_encode_is_byte_stable() {
        let db = indexed_db();
        let first = encode_path_section(db.indexes()).unwrap();
        // Decoding re-registers both entries from the bytes alone; their
        // tables are unchanged, so the built layer is installed, not dropped.
        assert_eq!(restore_section(&db, &first, IndexSpace::Path).unwrap(), 0);
        let entries = db.indexes().snapshot_entries(IndexSpace::Path);
        assert_eq!(entries.len(), 2);
        for (def, layer) in &entries {
            let (_, layer) = layer.as_ref().expect("restored built");
            let want = if def.name == "ri" { "int" } else { "generic" };
            assert_eq!(layer.graph.dict.kind(), want, "{}", def.name);
        }
        assert_eq!(encode_path_section(db.indexes()).unwrap(), first);
    }

    #[test]
    fn repeated_dictionary_value_is_corrupt_not_a_panic() {
        let db = indexed_db();
        let mut bytes = encode_path_section(db.indexes()).unwrap();
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
            let err = restore_section(&db, &bytes, IndexSpace::Path).unwrap_err();
            assert!(
                matches!(&err, Error::Storage(StorageError::Corrupt(m)) if m.contains("duplicate")),
                "{first}: {err}"
            );
            bytes[at..at + pair.len()].copy_from_slice(&saved);
        }
        restore_section(&db, &bytes, IndexSpace::Path).unwrap();
    }
}
