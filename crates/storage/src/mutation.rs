//! Catalog mutations: the one value every change to catalog state is.
//!
//! [`crate::Catalog::apply`] is the only way a table is created, dropped
//! or changed, and the only way an index definition is created or dropped,
//! and it takes a [`Mutation`]. On a durable catalog the same value,
//! encoded by [`Mutation::encode`], is the WAL record: it is written in the
//! critical section that installs the change, so the log holds the changes
//! in the order they were applied. Recovery decodes each record with
//! [`Mutation::decode`] and applies it again — no SQL is re-executed and no
//! index is built, so a replayed table has the rows, row order and version
//! the live one had.
//!
//! Record layout (little-endian; strings and lists are length-prefixed,
//! cells are [`put_value`]'s tagged encoding):
//!
//! ```text
//! tag 2  Append       [table][u64 rows][u64 columns][cells, row-major]
//! tag 3  Create       [table][schema, row count, columns — a snapshot table]
//! tag 4  Drop         [table]
//! tag 5  Delete       [table][u64 base version][positions]
//! tag 6  Update       [table][u64 base version][positions][u64 columns][cells, row-major]
//! tag 7  CreateIndex  [index][table][src][dst][u8 0 | u8 1, layer]
//! tag 8  DropIndex    [index][u8 0 graph | 1 path]
//! ```
//!
//! A path index's layer is `[weight column?][weight ordinal?][kind]`
//! ([`AccelDef::encode`]), the layout its snapshot section has too. Tag 2
//! is the layout `import_csv` has always logged, so older logs decode
//! unchanged. Tag 1 ([`STATEMENT_TAG`]) is legacy and read-only: logs
//! written before index DDL was logged as its effect hold SQL text there,
//! which recovery still replays; [`Mutation::decode`] refuses it like any
//! unknown tag.

use crate::catalog::{AccelDef, IndexDef, IndexSpace, PathIndexKind};
use crate::error::StorageError;
use crate::persist::codec::{get_value, put_value, ByteReader, ByteWriter};
use crate::persist::snapshot::{decode_table, encode_table};
use crate::table::Table;
use crate::value::Value;
use crate::Result;

/// First byte of the legacy SQL statement record; no mutation uses it.
pub const STATEMENT_TAG: u8 = 1;
const APPEND: u8 = 2;
const CREATE: u8 = 3;
const DROP: u8 = 4;
const DELETE: u8 = 5;
const UPDATE: u8 = 6;
const CREATE_INDEX: u8 = 7;
const DROP_INDEX: u8 = 8;

/// One change to one table or index. Its name travels beside it (see
/// [`crate::Catalog::apply`]).
#[derive(Debug, Clone)]
pub enum Mutation {
    /// Create the table with this schema and these initial rows
    /// (`CREATE TABLE`: none; a bulk loader: all of them). The table is
    /// adopted, not copied. The new table's version is 0.
    Create(Table),
    /// Drop the table.
    Drop,
    /// Append rows (`INSERT`, `import_csv`).
    Append(Vec<Vec<Value>>),
    /// Delete the rows at `positions` (strictly ascending) of the table as
    /// it was at `base_version`.
    Delete {
        /// The table version the positions were computed against.
        base_version: u64,
        /// Row positions, strictly ascending.
        positions: Vec<usize>,
    },
    /// Replace the rows at `positions` (strictly ascending) of the table
    /// as it was at `base_version` with `new_rows`, one per position.
    Update {
        /// The table version the positions were computed against.
        base_version: u64,
        /// Row positions, strictly ascending.
        positions: Vec<usize>,
        /// The complete new row for each position.
        new_rows: Vec<Vec<Value>>,
    },
    /// Define an index over an existing table; nothing is built.
    CreateIndex(IndexDef),
    /// Drop the definition of the index in this name space.
    DropIndex(IndexSpace),
}

fn put_rows(w: &mut ByteWriter, rows: &[Vec<Value>]) -> Result<()> {
    w.put_usize(rows.first().map_or(0, Vec::len));
    for row in rows {
        for v in row {
            put_value(w, v)?;
        }
    }
    Ok(())
}

fn get_rows(r: &mut ByteReader<'_>, nrows: usize) -> Result<Vec<Vec<Value>>> {
    let ncols = r.get_usize()?;
    if ncols == 0 && nrows > 0 {
        return Err(StorageError::Corrupt(format!("{nrows} rows of no columns")));
    }
    let mut rows = Vec::with_capacity(nrows.min(1 << 20));
    for _ in 0..nrows {
        let mut row = Vec::with_capacity(ncols.min(1 << 12));
        for _ in 0..ncols {
            row.push(get_value(r)?);
        }
        rows.push(row);
    }
    Ok(rows)
}

impl AccelDef {
    /// `[weight column?][weight ordinal?][kind]`: a path index's layer in a
    /// WAL record and in a snapshot's path-index section.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.put_u8(self.weight_col.is_some() as u8);
        if let Some(col) = &self.weight_col {
            w.put_str(col);
        }
        w.put_u8(self.weight_key.is_some() as u8);
        if let Some(key) = self.weight_key {
            w.put_usize(key);
        }
        match self.kind {
            PathIndexKind::Landmarks(k) => {
                w.put_u8(0);
                w.put_u32(k);
            }
            PathIndexKind::Contraction => w.put_u8(1),
        }
    }

    /// Decode what [`AccelDef::encode`] wrote.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<AccelDef> {
        let weight_col = if r.get_u8()? != 0 { Some(r.get_str()?) } else { None };
        let weight_key = if r.get_u8()? != 0 { Some(r.get_usize()?) } else { None };
        let kind = match r.get_u8()? {
            0 => PathIndexKind::Landmarks(r.get_u32()?),
            1 => PathIndexKind::Contraction,
            other => {
                return Err(StorageError::Corrupt(format!("unknown path-index kind tag {other}")))
            }
        };
        Ok(AccelDef { weight_col, weight_key, kind })
    }
}

impl Mutation {
    /// The WAL record of this mutation of the table or index `table`. Fails
    /// only for a value with no stored form (a PATH cell).
    pub fn encode(&self, table: &str) -> Result<Vec<u8>> {
        let mut w = ByteWriter::new();
        match self {
            Mutation::Append(rows) => {
                w.put_u8(APPEND);
                w.put_str(table);
                w.put_usize(rows.len());
                put_rows(&mut w, rows)?;
            }
            Mutation::Create(rows) => {
                w.put_u8(CREATE);
                w.put_str(table);
                encode_table(&mut w, rows)?;
            }
            Mutation::Drop => {
                w.put_u8(DROP);
                w.put_str(table);
            }
            Mutation::Delete { base_version, positions } => {
                w.put_u8(DELETE);
                w.put_str(table);
                w.put_u64(*base_version);
                w.put_list(positions, |w, &p| w.put_usize(p));
            }
            Mutation::Update { base_version, positions, new_rows } => {
                w.put_u8(UPDATE);
                w.put_str(table);
                w.put_u64(*base_version);
                w.put_list(positions, |w, &p| w.put_usize(p));
                put_rows(&mut w, new_rows)?;
            }
            Mutation::CreateIndex(def) => {
                w.put_u8(CREATE_INDEX);
                w.put_str(table);
                w.put_str(&def.table);
                w.put_str(&def.src_col);
                w.put_str(&def.dst_col);
                w.put_u8(def.accel.is_some() as u8);
                if let Some(accel) = &def.accel {
                    accel.encode(&mut w);
                }
            }
            Mutation::DropIndex(space) => {
                w.put_u8(DROP_INDEX);
                w.put_str(table);
                w.put_u8((*space == IndexSpace::Path) as u8);
            }
        }
        Ok(w.into_bytes())
    }

    /// Decode a record written by [`Mutation::encode`] into the table or
    /// index name and the mutation. Truncated bytes, trailing bytes and unknown tags
    /// are [`StorageError::Corrupt`].
    pub fn decode(bytes: &[u8]) -> Result<(String, Mutation)> {
        let mut r = ByteReader::new(bytes);
        let tag = r.get_u8()?;
        if !(APPEND..=DROP_INDEX).contains(&tag) {
            return Err(StorageError::Corrupt(format!("unknown WAL record tag {tag}")));
        }
        let name = r.get_str()?;
        let mutation = match tag {
            APPEND => {
                let nrows = r.get_usize()?;
                Mutation::Append(get_rows(&mut r, nrows)?)
            }
            CREATE => Mutation::Create(decode_table(&mut r)?),
            DROP => Mutation::Drop,
            DELETE => {
                let base_version = r.get_u64()?;
                Mutation::Delete { base_version, positions: r.get_list(ByteReader::get_usize)? }
            }
            UPDATE => {
                let base_version = r.get_u64()?;
                let positions = r.get_list(ByteReader::get_usize)?;
                let new_rows = get_rows(&mut r, positions.len())?;
                Mutation::Update { base_version, positions, new_rows }
            }
            CREATE_INDEX => {
                let (table, src_col, dst_col) = (r.get_str()?, r.get_str()?, r.get_str()?);
                let accel = if r.get_u8()? != 0 { Some(AccelDef::decode(&mut r)?) } else { None };
                Mutation::CreateIndex(IndexDef {
                    name: name.clone(),
                    table,
                    src_col,
                    dst_col,
                    accel,
                })
            }
            DROP_INDEX => match r.get_u8()? {
                0 => Mutation::DropIndex(IndexSpace::Graph),
                _ => Mutation::DropIndex(IndexSpace::Path),
            },
            _ => unreachable!("tag range checked above"),
        };
        if !r.is_exhausted() {
            return Err(StorageError::Corrupt(format!(
                "trailing bytes after a record of '{name}'"
            )));
        }
        Ok((name, mutation))
    }
}
