//! Table mutations: the one value every change to table state is.
//!
//! [`crate::Catalog::apply`] is the only way a table is created, dropped
//! or changed, and it takes a [`Mutation`]. On a durable catalog the same
//! value, encoded by [`Mutation::encode`], is the WAL record: it is written
//! in the critical section that installs the change, so the log holds the
//! changes in the order they were applied. Recovery decodes each record
//! with [`Mutation::decode`] and applies it again — no SQL is re-executed,
//! so a replayed table has the rows, row order and version the live one
//! had.
//!
//! Record layout (little-endian; strings and lists are length-prefixed,
//! cells are [`put_value`]'s tagged encoding):
//!
//! ```text
//! tag 2  Append  [table][u64 rows][u64 columns][cells, row-major]
//! tag 3  Create  [table][schema, row count, columns — a snapshot table]
//! tag 4  Drop    [table]
//! tag 5  Delete  [table][u64 base version][positions]
//! tag 6  Update  [table][u64 base version][positions][u64 columns][cells, row-major]
//! ```
//!
//! Tag 2 is the layout `import_csv` has always logged, so older logs decode
//! unchanged. Tag 1 ([`STATEMENT_TAG`]) belongs to the engine's own SQL
//! record (index DDL); [`Mutation::decode`] refuses it like any unknown tag.

use crate::error::StorageError;
use crate::persist::codec::{get_value, put_value, ByteReader, ByteWriter};
use crate::persist::snapshot::{decode_table, encode_table};
use crate::table::Table;
use crate::value::Value;
use crate::Result;

/// First byte of the engine's SQL statement record; no mutation uses it.
pub const STATEMENT_TAG: u8 = 1;
const APPEND: u8 = 2;
const CREATE: u8 = 3;
const DROP: u8 = 4;
const DELETE: u8 = 5;
const UPDATE: u8 = 6;

/// One change to one table. The table's name travels beside it (see
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

fn put_positions(w: &mut ByteWriter, positions: &[usize]) {
    w.put_usize(positions.len());
    for &p in positions {
        w.put_usize(p);
    }
}

fn get_positions(r: &mut ByteReader<'_>) -> Result<Vec<usize>> {
    let n = r.get_usize()?;
    let mut positions = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        positions.push(r.get_usize()?);
    }
    Ok(positions)
}

impl Mutation {
    /// The WAL record of this mutation of `table`. Fails only for a value
    /// with no stored form (a PATH cell).
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
                put_positions(&mut w, positions);
            }
            Mutation::Update { base_version, positions, new_rows } => {
                w.put_u8(UPDATE);
                w.put_str(table);
                w.put_u64(*base_version);
                put_positions(&mut w, positions);
                put_rows(&mut w, new_rows)?;
            }
        }
        Ok(w.into_bytes())
    }

    /// Decode a record written by [`Mutation::encode`] into the table name
    /// and the mutation. Truncated bytes, trailing bytes and unknown tags
    /// are [`StorageError::Corrupt`].
    pub fn decode(bytes: &[u8]) -> Result<(String, Mutation)> {
        let mut r = ByteReader::new(bytes);
        let tag = r.get_u8()?;
        if !(APPEND..=UPDATE).contains(&tag) {
            return Err(StorageError::Corrupt(format!("unknown WAL record tag {tag}")));
        }
        let table = r.get_str()?;
        let mutation = match tag {
            APPEND => {
                let nrows = r.get_usize()?;
                Mutation::Append(get_rows(&mut r, nrows)?)
            }
            CREATE => Mutation::Create(decode_table(&mut r)?),
            DROP => Mutation::Drop,
            DELETE => {
                let base_version = r.get_u64()?;
                Mutation::Delete { base_version, positions: get_positions(&mut r)? }
            }
            UPDATE => {
                let base_version = r.get_u64()?;
                let positions = get_positions(&mut r)?;
                let new_rows = get_rows(&mut r, positions.len())?;
                Mutation::Update { base_version, positions, new_rows }
            }
            _ => unreachable!("tag range checked above"),
        };
        if !r.is_exhausted() {
            return Err(StorageError::Corrupt(format!(
                "trailing bytes after a record of '{table}'"
            )));
        }
        Ok((table, mutation))
    }
}
