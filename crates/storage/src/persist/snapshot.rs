//! The versioned on-disk snapshot format.
//!
//! A snapshot is a single self-contained file:
//!
//! ```text
//! [8-byte magic "GSQLSNP1"][u32 format_version]
//! [payload]                 (catalog + tables + opaque sections)
//! [u32 crc32(payload)]
//! ```
//!
//! The payload serializes the catalog's structural version, every table
//! (name, data version, schema, columns with validity bitmaps) and a list
//! of named **opaque sections** — byte blobs the engine above uses to
//! persist registry state and built acceleration indexes without this
//! crate knowing their shape. Snapshots are always written to a temp file,
//! fsynced, and renamed into place (see [`super::store`]), so a file that
//! exists under its final name is complete; the trailing CRC guards
//! against bit rot, not torn writes.

use super::codec::{crc32, ByteReader, ByteWriter};
use crate::column::Column;
use crate::error::StorageError;
use crate::schema::{ColumnDef, Schema};
use crate::table::Table;
use crate::types::DataType;
use crate::Result;
use std::sync::Arc;

/// Magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"GSQLSNP1";

/// Current snapshot format version.
pub const SNAPSHOT_FORMAT: u32 = 1;

/// One table captured in a snapshot.
#[derive(Debug, Clone)]
pub struct SnapshotTable {
    /// Catalog name (lowercase).
    pub name: String,
    /// The table's data version at capture time.
    pub version: u64,
    /// The table contents.
    pub table: Arc<Table>,
}

/// Everything a snapshot carries.
#[derive(Debug, Default)]
pub struct SnapshotData {
    /// The catalog's structural (DDL) version at capture time.
    pub ddl_version: u64,
    /// Every table, sorted by name for deterministic bytes.
    pub tables: Vec<SnapshotTable>,
    /// Named opaque sections (engine registry state, serialized indexes).
    pub sections: Vec<(String, Vec<u8>)>,
}

fn type_tag(ty: DataType) -> Result<u8> {
    Ok(match ty {
        DataType::Int => 0,
        DataType::Double => 1,
        DataType::Varchar => 2,
        DataType::Bool => 3,
        DataType::Date => 4,
        DataType::Path => {
            return Err(StorageError::Internal(
                "PATH columns cannot be persisted (they only exist in query results)".into(),
            ))
        }
    })
}

fn tag_type(tag: u8) -> Result<DataType> {
    Ok(match tag {
        0 => DataType::Int,
        1 => DataType::Double,
        2 => DataType::Varchar,
        3 => DataType::Bool,
        4 => DataType::Date,
        other => return Err(StorageError::Corrupt(format!("unknown column type tag {other}"))),
    })
}

/// Pack `len` booleans into bytes, LSB-first (8 per byte).
fn put_bools(w: &mut ByteWriter, len: usize, bools: impl Iterator<Item = bool>) {
    w.put_usize(len);
    let mut byte = 0u8;
    let mut filled = 0u8;
    let mut written = 0usize;
    for b in bools.take(len) {
        written += 1;
        if b {
            byte |= 1 << filled;
        }
        filled += 1;
        if filled == 8 {
            w.put_u8(byte);
            byte = 0;
            filled = 0;
        }
    }
    if filled > 0 {
        w.put_u8(byte);
    }
    debug_assert_eq!(written, len, "bitmap iterator shorter than its declared length");
}

fn get_bools(r: &mut ByteReader<'_>) -> Result<Vec<bool>> {
    let len = r.get_usize()?;
    let mut out = Vec::with_capacity(len.min(1 << 24));
    let mut byte = 0u8;
    for i in 0..len {
        if i % 8 == 0 {
            byte = r.get_u8()?;
        }
        out.push(byte & (1 << (i % 8)) != 0);
    }
    Ok(out)
}

fn encode_column(w: &mut ByteWriter, col: &Column) -> Result<()> {
    w.put_u8(type_tag(col.data_type())?);
    let (Column::Int(_, validity)
    | Column::Double(_, validity)
    | Column::Str(_, validity)
    | Column::Bool(_, validity)
    | Column::Date(_, validity)) = col
    else {
        unreachable!("rejected by type_tag")
    };
    put_bools(w, validity.len(), validity.iter());
    match col {
        Column::Int(vals, _) => w.put_list(vals, |w, &v| w.put_i64(v)),
        Column::Double(vals, _) => w.put_list(vals, |w, &v| w.put_f64(v)),
        Column::Str(vals, _) => w.put_list(vals, |w, v| w.put_str(v)),
        Column::Bool(vals, _) => put_bools(w, vals.len(), vals.iter().copied()),
        Column::Date(vals, _) => w.put_list(vals, |w, &v| w.put_i32(v)),
        Column::Path(_) => unreachable!("rejected by type_tag"),
    }
    Ok(())
}

fn decode_column(r: &mut ByteReader<'_>) -> Result<Column> {
    let ty = tag_type(r.get_u8()?)?;
    let validity: crate::bitmap::Bitmap = get_bools(r)?.into_iter().collect();
    let validity_len = validity.len();
    let col = match ty {
        DataType::Int => Column::Int(r.get_list(ByteReader::get_i64)?, validity),
        DataType::Double => Column::Double(r.get_list(ByteReader::get_f64)?, validity),
        DataType::Varchar => Column::Str(r.get_list(ByteReader::get_str)?, validity),
        DataType::Bool => Column::Bool(get_bools(r)?, validity),
        DataType::Date => Column::Date(r.get_list(ByteReader::get_i32)?, validity),
        DataType::Path => unreachable!("rejected by tag_type"),
    };
    if col.len() != validity_len {
        return Err(StorageError::Corrupt(format!(
            "column of {} values has {validity_len} validity bits",
            col.len()
        )));
    }
    Ok(col)
}

/// Write a table: its schema, its row count, then each column. Snapshots
/// and the WAL's `Create` record share this layout.
pub(crate) fn encode_table(w: &mut ByteWriter, table: &Table) -> Result<()> {
    let schema = table.schema();
    w.put_usize(schema.len());
    for def in schema.columns() {
        w.put_str(&def.name);
        w.put_u8(type_tag(def.ty)?);
        w.put_u8(def.nullable as u8);
    }
    w.put_usize(table.row_count());
    for col in table.columns() {
        encode_column(w, col)?;
    }
    Ok(())
}

/// Read a table written by [`encode_table`].
pub(crate) fn decode_table(r: &mut ByteReader<'_>) -> Result<Table> {
    let defs = r.get_list(|r| {
        let (name, ty) = (r.get_str()?, tag_type(r.get_u8()?)?);
        Ok(ColumnDef { name, ty, nullable: r.get_u8()? != 0 })
    })?;
    let row_count = r.get_usize()?;
    let mut columns = Vec::with_capacity(defs.len());
    for def in &defs {
        let col = decode_column(r)?;
        if col.len() != row_count {
            return Err(StorageError::Corrupt(format!(
                "column '{}' has {} rows, expected {row_count}",
                def.name,
                col.len()
            )));
        }
        columns.push(col);
    }
    Table::from_columns(Schema::new(defs), columns).map_err(|e| match e {
        StorageError::Corrupt(_) => e,
        other => StorageError::Corrupt(other.to_string()),
    })
}

/// Serialize a snapshot to its complete file bytes (magic + version +
/// payload + trailing CRC).
pub fn encode_snapshot(snap: &SnapshotData) -> Result<Vec<u8>> {
    let mut w = ByteWriter::new();
    w.put_u64(snap.ddl_version);
    w.put_usize(snap.tables.len());
    for t in &snap.tables {
        w.put_str(&t.name);
        w.put_u64(t.version);
        encode_table(&mut w, &t.table)?;
    }
    w.put_list(&snap.sections, |w, (name, bytes)| {
        w.put_str(name);
        w.put_bytes(bytes);
    });
    let payload = w.into_bytes();
    let mut out = Vec::with_capacity(payload.len() + 16);
    out.extend_from_slice(SNAPSHOT_MAGIC);
    out.extend_from_slice(&SNAPSHOT_FORMAT.to_le_bytes());
    out.extend_from_slice(&payload);
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    Ok(out)
}

/// Parse and validate complete snapshot file bytes.
pub fn decode_snapshot(bytes: &[u8]) -> Result<SnapshotData> {
    if bytes.len() < SNAPSHOT_MAGIC.len() + 8 || &bytes[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
        return Err(StorageError::Corrupt("not a snapshot file (bad magic)".into()));
    }
    let format = u32::from_le_bytes(
        bytes[SNAPSHOT_MAGIC.len()..SNAPSHOT_MAGIC.len() + 4].try_into().unwrap(),
    );
    if format != SNAPSHOT_FORMAT {
        return Err(StorageError::Corrupt(format!(
            "snapshot format {format} is not supported (expected {SNAPSHOT_FORMAT})"
        )));
    }
    let payload = &bytes[SNAPSHOT_MAGIC.len() + 4..bytes.len() - 4];
    let stored_crc = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
    if crc32(payload) != stored_crc {
        return Err(StorageError::Corrupt("snapshot checksum mismatch".into()));
    }
    let mut r = ByteReader::new(payload);
    let ddl_version = r.get_u64()?;
    let tables = r.get_list(|r| {
        let (name, version) = (r.get_str()?, r.get_u64()?);
        Ok(SnapshotTable { name, version, table: Arc::new(decode_table(r)?) })
    })?;
    let sections = r.get_list(|r| Ok((r.get_str()?, r.get_bytes()?)))?;
    if !r.is_exhausted() {
        return Err(StorageError::Corrupt("trailing bytes after snapshot payload".into()));
    }
    Ok(SnapshotData { ddl_version, tables, sections })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn sample_table() -> Table {
        let schema = Schema::new(vec![
            ColumnDef::not_null("id", DataType::Int),
            ColumnDef::new("score", DataType::Double),
            ColumnDef::new("label", DataType::Varchar),
            ColumnDef::new("flag", DataType::Bool),
            ColumnDef::new("day", DataType::Date),
        ]);
        let mut t = Table::empty(schema);
        t.append_row(vec![
            Value::Int(1),
            Value::Double(1.5),
            Value::Str("a".into()),
            Value::Bool(true),
            Value::Date(crate::Date(19000)),
        ])
        .unwrap();
        t.append_row(vec![Value::Int(2), Value::Null, Value::Null, Value::Null, Value::Null])
            .unwrap();
        t
    }

    #[test]
    fn snapshot_round_trips_tables_and_sections() {
        let snap = SnapshotData {
            ddl_version: 7,
            tables: vec![SnapshotTable {
                name: "t".into(),
                version: 3,
                table: Arc::new(sample_table()),
            }],
            sections: vec![("idx".into(), vec![1, 2, 3]), ("empty".into(), Vec::new())],
        };
        let bytes = encode_snapshot(&snap).unwrap();
        let back = decode_snapshot(&bytes).unwrap();
        assert_eq!(back.ddl_version, 7);
        assert_eq!(back.tables.len(), 1);
        assert_eq!(back.tables[0].name, "t");
        assert_eq!(back.tables[0].version, 3);
        let orig = sample_table();
        let got = &back.tables[0].table;
        assert_eq!(got.row_count(), orig.row_count());
        for i in 0..orig.row_count() {
            assert_eq!(got.row(i), orig.row(i), "row {i}");
        }
        assert_eq!(back.sections, snap.sections);
    }

    #[test]
    fn corrupt_byte_is_detected() {
        let snap = SnapshotData {
            ddl_version: 1,
            tables: vec![SnapshotTable {
                name: "t".into(),
                version: 0,
                table: Arc::new(sample_table()),
            }],
            sections: Vec::new(),
        };
        let mut bytes = encode_snapshot(&snap).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(decode_snapshot(&bytes), Err(StorageError::Corrupt(_))));
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let bytes = encode_snapshot(&SnapshotData::default()).unwrap();
        let back = decode_snapshot(&bytes).unwrap();
        assert_eq!(back.ddl_version, 0);
        assert!(back.tables.is_empty());
        assert!(back.sections.is_empty());
    }
}
