//! Materialized relations: a schema plus equal-length columns.

use crate::column::Column;
use crate::error::StorageError;
use crate::schema::Schema;
use crate::value::Value;
use crate::Result;
use std::fmt;

/// A fully materialized relation.
///
/// Invariants: `columns.len() == schema.len()` and all columns have equal
/// row counts. Used both for base tables in the [`crate::Catalog`] and for
/// every intermediate result in the engine (full-materialization model).
#[derive(Debug, Clone)]
pub struct Table {
    schema: Schema,
    columns: Vec<Column>,
    row_count: usize,
}

impl Table {
    /// An empty table with the given schema.
    pub fn empty(schema: Schema) -> Table {
        let columns = schema.columns().iter().map(|c| Column::empty(c.ty)).collect();
        Table { schema, columns, row_count: 0 }
    }

    /// Build a table from a schema and pre-built columns.
    ///
    /// Errors when arity or column lengths are inconsistent, or a column's
    /// type does not match its definition.
    pub fn from_columns(schema: Schema, columns: Vec<Column>) -> Result<Table> {
        if schema.len() != columns.len() {
            return Err(StorageError::ArityMismatch {
                expected: schema.len(),
                found: columns.len(),
            });
        }
        for (def, col) in schema.columns().iter().zip(&columns) {
            if def.ty != col.data_type() {
                return Err(StorageError::TypeMismatch {
                    expected: def.ty.sql_name().to_string(),
                    found: col.data_type().sql_name().to_string(),
                });
            }
        }
        let row_count = columns.first().map(Column::len).unwrap_or(0);
        if columns.iter().any(|c| c.len() != row_count) {
            return Err(StorageError::Internal("ragged columns in table".to_string()));
        }
        Ok(Table { schema, columns, row_count })
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The table's columns in schema order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Column at ordinal `i`.
    #[inline]
    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// Number of rows.
    #[inline]
    pub fn row_count(&self) -> usize {
        self.row_count
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.row_count == 0
    }

    /// Append one row of values, enforcing arity, types and NOT NULL
    /// ([`Schema::check_row`]). A failed append leaves the table unchanged.
    pub fn append_row(&mut self, row: Vec<Value>) -> Result<()> {
        self.schema.check_row(&row)?;
        for (i, value) in row.into_iter().enumerate() {
            self.columns[i].push(value).expect("types validated above");
        }
        self.row_count += 1;
        Ok(())
    }

    /// Append many rows.
    pub fn append_rows(&mut self, rows: Vec<Vec<Value>>) -> Result<()> {
        for row in rows {
            self.append_row(row)?;
        }
        Ok(())
    }

    /// A copy with room for `extra` more rows in every column, so
    /// appending them reallocates nothing.
    pub fn with_headroom(&self, extra: usize) -> Table {
        let columns = self.columns.iter().map(|c| c.with_headroom(extra)).collect();
        Table { schema: self.schema.clone(), columns, row_count: self.row_count }
    }

    /// Row `i` as a vector of values.
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.get(i)).collect()
    }

    /// Iterator over all rows.
    pub fn rows(&self) -> impl Iterator<Item = Vec<Value>> + '_ {
        (0..self.row_count).map(move |i| self.row(i))
    }

    /// Gather the rows at `indices` into a new table (positional selection).
    pub fn take(&self, indices: &[usize]) -> Table {
        let columns: Vec<Column> = self.columns.iter().map(|c| c.take(indices)).collect();
        Table { schema: self.schema.clone(), columns, row_count: indices.len() }
    }

    /// Copy the contiguous row range `range` into a new table — the
    /// `LIMIT`/`OFFSET` fast path: no index vector is materialized and each
    /// column is a straight slice copy.
    ///
    /// # Panics
    /// Panics when the range extends past the table.
    pub fn slice_rows(&self, range: std::ops::Range<usize>) -> Table {
        assert!(range.end <= self.row_count, "slice {range:?} out of range {}", self.row_count);
        let columns: Vec<Column> =
            self.columns.iter().map(|c| c.slice_rows(range.clone())).collect();
        Table { schema: self.schema.clone(), columns, row_count: range.len() }
    }

    /// Overwrite the rows at `positions` with the rows of `patch`, in
    /// order (`UPDATE`): column by column, with no per-row values.
    /// `patch` must have this table's column types and one row per
    /// position; every position must be in range.
    pub fn scatter_rows(&mut self, positions: &[usize], patch: &Table) -> Result<()> {
        if patch.row_count != positions.len() || patch.columns.len() != self.columns.len() {
            return Err(StorageError::Internal(format!(
                "a patch of {} rows x {} columns does not fit {} positions x {} columns",
                patch.row_count,
                patch.columns.len(),
                positions.len(),
                self.columns.len()
            )));
        }
        if let Some(&p) = positions.iter().find(|&&p| p >= self.row_count) {
            return Err(StorageError::Internal(format!(
                "row position {p} is out of range for {} rows",
                self.row_count
            )));
        }
        for (col, src) in self.columns.iter_mut().zip(&patch.columns) {
            col.scatter(positions, src)?;
        }
        Ok(())
    }

    /// Render the table in a simple aligned-text format (for the shell and
    /// examples).
    pub fn to_pretty_string(&self) -> String {
        let headers: Vec<String> = self.schema.names().map(str::to_string).collect();
        let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
        let rendered: Vec<Vec<String>> =
            self.rows().map(|row| row.iter().map(Value::to_string).collect::<Vec<_>>()).collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let sep = |out: &mut String| {
            out.push('+');
            for w in &widths {
                out.push_str(&"-".repeat(w + 2));
                out.push('+');
            }
            out.push('\n');
        };
        sep(&mut out);
        out.push('|');
        for (h, w) in headers.iter().zip(&widths) {
            out.push_str(&format!(" {h:<w$} |"));
        }
        out.push('\n');
        sep(&mut out);
        for row in &rendered {
            out.push('|');
            for (cell, w) in row.iter().zip(&widths) {
                out.push_str(&format!(" {cell:<w$} |"));
            }
            out.push('\n');
        }
        sep(&mut out);
        out.push_str(&format!(
            "{} row{}\n",
            self.row_count,
            if self.row_count == 1 { "" } else { "s" }
        ));
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_pretty_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::types::DataType;

    fn persons_schema() -> Schema {
        Schema::new(vec![
            ColumnDef::not_null("id", DataType::Int),
            ColumnDef::new("name", DataType::Varchar),
        ])
    }

    #[test]
    fn append_and_read_rows() {
        let mut t = Table::empty(persons_schema());
        t.append_row(vec![Value::Int(1), Value::from("ada")]).unwrap();
        t.append_row(vec![Value::Int(2), Value::Null]).unwrap();
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.row(0), vec![Value::Int(1), Value::from("ada")]);
        assert!(t.row(1)[1].is_null());
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut t = Table::empty(persons_schema());
        let err = t.append_row(vec![Value::Int(1)]).unwrap_err();
        assert!(matches!(err, StorageError::ArityMismatch { expected: 2, found: 1 }));
        assert_eq!(t.row_count(), 0);
    }

    #[test]
    fn not_null_enforced() {
        let mut t = Table::empty(persons_schema());
        let err = t.append_row(vec![Value::Null, Value::from("x")]).unwrap_err();
        assert!(matches!(err, StorageError::NullViolation(_)));
        assert_eq!(t.row_count(), 0);
    }

    #[test]
    fn failed_append_leaves_table_unchanged() {
        let mut t = Table::empty(persons_schema());
        t.append_row(vec![Value::Int(1), Value::from("a")]).unwrap();
        // Second column has wrong type; first column must not grow.
        let err = t.append_row(vec![Value::Int(2), Value::Bool(true)]).unwrap_err();
        assert!(matches!(err, StorageError::TypeMismatch { .. }));
        assert_eq!(t.row_count(), 1);
        assert_eq!(t.column(0).len(), 1);
        assert_eq!(t.column(1).len(), 1);
    }

    #[test]
    fn take_selects_rows() {
        let mut t = Table::empty(persons_schema());
        for i in 0..5 {
            t.append_row(vec![Value::Int(i), Value::from(format!("p{i}"))]).unwrap();
        }
        let s = t.take(&[4, 0]);
        assert_eq!(s.row_count(), 2);
        assert_eq!(s.row(0)[0], Value::Int(4));
        assert_eq!(s.row(1)[0], Value::Int(0));
    }

    #[test]
    fn slice_rows_matches_take_on_contiguous_ranges() {
        let mut t = Table::empty(persons_schema());
        for i in 0..100 {
            t.append_row(vec![Value::Int(i), Value::from(format!("p{i}"))]).unwrap();
        }
        for (start, end) in [(0usize, 0usize), (0, 100), (3, 70), (99, 100), (64, 96)] {
            let sliced = t.slice_rows(start..end);
            let taken = t.take(&(start..end).collect::<Vec<_>>());
            assert_eq!(sliced.row_count(), taken.row_count(), "{start}..{end}");
            for r in 0..sliced.row_count() {
                assert_eq!(sliced.row(r), taken.row(r), "{start}..{end} row {r}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slice_rows_out_of_range_panics() {
        let mut t = Table::empty(persons_schema());
        t.append_row(vec![Value::Int(1), Value::from("a")]).unwrap();
        t.slice_rows(0..2);
    }

    #[test]
    fn scatter_rows_overwrites_positions() {
        let mut t = Table::empty(persons_schema());
        for i in 0..4 {
            t.append_row(vec![Value::Int(i), Value::from("x")]).unwrap();
        }
        let mut patch = Table::empty(persons_schema());
        patch.append_row(vec![Value::Int(10), Value::Null]).unwrap();
        patch.append_row(vec![Value::Int(30), Value::from("z")]).unwrap();
        t.scatter_rows(&[1, 3], &patch).unwrap();
        let firsts: Vec<Value> = t.rows().map(|r| r[0].clone()).collect();
        assert_eq!(firsts, [0, 10, 2, 30].map(Value::Int));
        assert_eq!(t.row(1)[1], Value::Null);
        assert_eq!(t.row(3)[1], Value::from("z"));
        assert!(t.scatter_rows(&[4], &patch.slice_rows(0..1)).is_err(), "out of range");
        assert!(t.scatter_rows(&[0], &patch).is_err(), "one row per position");
    }

    #[test]
    fn from_columns_validates() {
        let schema = persons_schema();
        let ok = Table::from_columns(
            schema.clone(),
            vec![Column::from_ints(vec![1]), Column::from_strs(vec!["a".into()])],
        );
        assert!(ok.is_ok());
        let ragged = Table::from_columns(
            schema.clone(),
            vec![Column::from_ints(vec![1, 2]), Column::from_strs(vec!["a".into()])],
        );
        assert!(ragged.is_err());
        let wrong_type = Table::from_columns(
            schema,
            vec![Column::from_ints(vec![1]), Column::from_ints(vec![2])],
        );
        assert!(wrong_type.is_err());
    }

    #[test]
    fn pretty_print_contains_headers_and_rows() {
        let mut t = Table::empty(persons_schema());
        t.append_row(vec![Value::Int(7), Value::from("grace")]).unwrap();
        let s = t.to_pretty_string();
        assert!(s.contains("id"));
        assert!(s.contains("grace"));
        assert!(s.contains("1 row"));
    }
}
