//! Typed, contiguous columns — the engine's unit of bulk data, analogous to
//! MonetDB BATs.

use crate::bitmap::Bitmap;
use crate::error::StorageError;
use crate::types::DataType;
use crate::value::{PathValue, Value};
use crate::Result;

/// A typed column of values plus a validity bitmap (bit set = non-NULL).
///
/// All operators in the engine are column-at-a-time: they consume whole
/// columns and produce whole columns, mirroring the MonetDB execution model
/// the paper's prototype was embedded in.
#[derive(Debug, Clone)]
pub enum Column {
    /// `INTEGER` column.
    Int(Vec<i64>, Bitmap),
    /// `DOUBLE` column.
    Double(Vec<f64>, Bitmap),
    /// `VARCHAR` column.
    Str(Vec<String>, Bitmap),
    /// `BOOLEAN` column.
    Bool(Vec<bool>, Bitmap),
    /// `DATE` column (days since epoch).
    Date(Vec<i32>, Bitmap),
    /// Nested-table path column. NULL entries are `None`.
    Path(Vec<Option<PathValue>>),
}

impl Column {
    /// An empty column of the given type.
    pub fn empty(ty: DataType) -> Column {
        match ty {
            DataType::Int => Column::Int(Vec::new(), Bitmap::new()),
            DataType::Double => Column::Double(Vec::new(), Bitmap::new()),
            DataType::Varchar => Column::Str(Vec::new(), Bitmap::new()),
            DataType::Bool => Column::Bool(Vec::new(), Bitmap::new()),
            DataType::Date => Column::Date(Vec::new(), Bitmap::new()),
            DataType::Path => Column::Path(Vec::new()),
        }
    }

    /// Column of `len` NULLs of the given type.
    pub fn nulls(ty: DataType, len: usize) -> Column {
        match ty {
            DataType::Int => Column::Int(vec![0; len], Bitmap::with_value(len, false)),
            DataType::Double => Column::Double(vec![0.0; len], Bitmap::with_value(len, false)),
            DataType::Varchar => {
                Column::Str(vec![String::new(); len], Bitmap::with_value(len, false))
            }
            DataType::Bool => Column::Bool(vec![false; len], Bitmap::with_value(len, false)),
            DataType::Date => Column::Date(vec![0; len], Bitmap::with_value(len, false)),
            DataType::Path => Column::Path(vec![None; len]),
        }
    }

    /// Build an `Int` column with no NULLs from raw values.
    pub fn from_ints(values: Vec<i64>) -> Column {
        let n = values.len();
        Column::Int(values, Bitmap::with_value(n, true))
    }

    /// Build a `Double` column with no NULLs from raw values.
    pub fn from_doubles(values: Vec<f64>) -> Column {
        let n = values.len();
        Column::Double(values, Bitmap::with_value(n, true))
    }

    /// Build a `Str` column with no NULLs from raw values.
    pub fn from_strs(values: Vec<String>) -> Column {
        let n = values.len();
        Column::Str(values, Bitmap::with_value(n, true))
    }

    /// The column's data type.
    #[inline]
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Int(..) => DataType::Int,
            Column::Double(..) => DataType::Double,
            Column::Str(..) => DataType::Varchar,
            Column::Bool(..) => DataType::Bool,
            Column::Date(..) => DataType::Date,
            Column::Path(..) => DataType::Path,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            Column::Int(v, _) => v.len(),
            Column::Double(v, _) => v.len(),
            Column::Str(v, _) => v.len(),
            Column::Bool(v, _) => v.len(),
            Column::Date(v, _) => v.len(),
            Column::Path(v) => v.len(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when row `i` is NULL.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        match self {
            Column::Int(_, b)
            | Column::Double(_, b)
            | Column::Str(_, b)
            | Column::Bool(_, b)
            | Column::Date(_, b) => !b.get(i),
            Column::Path(v) => v[i].is_none(),
        }
    }

    /// Number of NULL rows.
    pub fn null_count(&self) -> usize {
        match self {
            Column::Int(_, b)
            | Column::Double(_, b)
            | Column::Str(_, b)
            | Column::Bool(_, b)
            | Column::Date(_, b) => b.len() - b.count_ones(),
            Column::Path(v) => v.iter().filter(|p| p.is_none()).count(),
        }
    }

    /// Cell value at row `i` (boxed into a [`Value`]).
    #[inline]
    pub fn get(&self, i: usize) -> Value {
        match self {
            Column::Int(v, b) => {
                if b.get(i) {
                    Value::Int(v[i])
                } else {
                    Value::Null
                }
            }
            Column::Double(v, b) => {
                if b.get(i) {
                    Value::Double(v[i])
                } else {
                    Value::Null
                }
            }
            Column::Str(v, b) => {
                if b.get(i) {
                    Value::Str(v[i].clone())
                } else {
                    Value::Null
                }
            }
            Column::Bool(v, b) => {
                if b.get(i) {
                    Value::Bool(v[i])
                } else {
                    Value::Null
                }
            }
            Column::Date(v, b) => {
                if b.get(i) {
                    Value::Date(crate::Date(v[i]))
                } else {
                    Value::Null
                }
            }
            Column::Path(v) => match &v[i] {
                Some(p) => Value::Path(p.clone()),
                None => Value::Null,
            },
        }
    }

    /// Append a [`Value`], type-checking against the column type.
    pub fn push(&mut self, value: Value) -> Result<()> {
        let mismatch = |c: &Column, v: &Value| StorageError::TypeMismatch {
            expected: c.data_type().sql_name().to_string(),
            found: v
                .data_type()
                .map(|t| t.sql_name().to_string())
                .unwrap_or_else(|| "NULL".to_string()),
        };
        match (&mut *self, value) {
            (Column::Int(v, b), Value::Int(x)) => {
                v.push(x);
                b.push(true);
            }
            (Column::Int(v, b), Value::Null) => {
                v.push(0);
                b.push(false);
            }
            (Column::Double(v, b), Value::Double(x)) => {
                v.push(x);
                b.push(true);
            }
            // SQL numeric widening: an INTEGER literal may be stored in a
            // DOUBLE column.
            (Column::Double(v, b), Value::Int(x)) => {
                v.push(x as f64);
                b.push(true);
            }
            (Column::Double(v, b), Value::Null) => {
                v.push(0.0);
                b.push(false);
            }
            (Column::Str(v, b), Value::Str(x)) => {
                v.push(x);
                b.push(true);
            }
            (Column::Str(v, b), Value::Null) => {
                v.push(String::new());
                b.push(false);
            }
            (Column::Bool(v, b), Value::Bool(x)) => {
                v.push(x);
                b.push(true);
            }
            (Column::Bool(v, b), Value::Null) => {
                v.push(false);
                b.push(false);
            }
            (Column::Date(v, b), Value::Date(x)) => {
                v.push(x.0);
                b.push(true);
            }
            (Column::Date(v, b), Value::Null) => {
                v.push(0);
                b.push(false);
            }
            (Column::Path(v), Value::Path(p)) => v.push(Some(p)),
            (Column::Path(v), Value::Null) => v.push(None),
            (c, v) => return Err(mismatch(c, &v)),
        }
        Ok(())
    }

    /// Gather rows at `indices` into a new column (the positional join /
    /// projection primitive of a materializing engine).
    pub fn take(&self, indices: &[usize]) -> Column {
        match self {
            Column::Int(v, b) => {
                Column::Int(indices.iter().map(|&i| v[i]).collect(), b.take(indices))
            }
            Column::Double(v, b) => {
                Column::Double(indices.iter().map(|&i| v[i]).collect(), b.take(indices))
            }
            Column::Str(v, b) => {
                Column::Str(indices.iter().map(|&i| v[i].clone()).collect(), b.take(indices))
            }
            Column::Bool(v, b) => {
                Column::Bool(indices.iter().map(|&i| v[i]).collect(), b.take(indices))
            }
            Column::Date(v, b) => {
                Column::Date(indices.iter().map(|&i| v[i]).collect(), b.take(indices))
            }
            Column::Path(v) => Column::Path(indices.iter().map(|&i| v[i].clone()).collect()),
        }
    }

    /// Gather rows at `indices` into a new column, `None` giving a NULL —
    /// the NULL-extending gather of an outer join.
    pub fn take_or_null(&self, indices: &[Option<usize>]) -> Column {
        fn gather<T: Clone + Default>(v: &[T], indices: &[Option<usize>]) -> Vec<T> {
            indices.iter().map(|i| i.map_or_else(T::default, |i| v[i].clone())).collect()
        }
        let valid = |b: &Bitmap| indices.iter().map(|i| i.is_some_and(|i| b.get(i))).collect();
        match self {
            Column::Int(v, b) => Column::Int(gather(v, indices), valid(b)),
            Column::Double(v, b) => Column::Double(gather(v, indices), valid(b)),
            Column::Str(v, b) => Column::Str(gather(v, indices), valid(b)),
            Column::Bool(v, b) => Column::Bool(gather(v, indices), valid(b)),
            Column::Date(v, b) => Column::Date(gather(v, indices), valid(b)),
            Column::Path(v) => Column::Path(gather(v, indices)),
        }
    }

    /// Copy the contiguous row range `range` into a new column. Unlike
    /// [`Column::take`] this is a straight memcpy of the value slice (plus a
    /// word-level bitmap copy) — the `LIMIT`/`OFFSET` fast path.
    ///
    /// # Panics
    /// Panics when the range extends past the column.
    pub fn slice_rows(&self, range: std::ops::Range<usize>) -> Column {
        match self {
            Column::Int(v, b) => Column::Int(v[range.clone()].to_vec(), b.slice(range)),
            Column::Double(v, b) => Column::Double(v[range.clone()].to_vec(), b.slice(range)),
            Column::Str(v, b) => Column::Str(v[range.clone()].to_vec(), b.slice(range)),
            Column::Bool(v, b) => Column::Bool(v[range.clone()].to_vec(), b.slice(range)),
            Column::Date(v, b) => Column::Date(v[range.clone()].to_vec(), b.slice(range)),
            Column::Path(v) => Column::Path(v[range].to_vec()),
        }
    }

    /// A copy with room for `extra` more cells, so pushing them
    /// reallocates nothing.
    pub fn with_headroom(&self, extra: usize) -> Column {
        fn copy<T: Clone>(v: &[T], extra: usize) -> Vec<T> {
            let mut out = Vec::with_capacity(v.len() + extra);
            out.extend_from_slice(v);
            out
        }
        match self {
            Column::Int(v, b) => Column::Int(copy(v, extra), b.with_headroom(extra)),
            Column::Double(v, b) => Column::Double(copy(v, extra), b.with_headroom(extra)),
            Column::Str(v, b) => Column::Str(copy(v, extra), b.with_headroom(extra)),
            Column::Bool(v, b) => Column::Bool(copy(v, extra), b.with_headroom(extra)),
            Column::Date(v, b) => Column::Date(copy(v, extra), b.with_headroom(extra)),
            Column::Path(v) => Column::Path(copy(v, extra)),
        }
    }

    /// Append all rows of `other` (must have the same type).
    pub fn extend_from(&mut self, other: &Column) -> Result<()> {
        if self.data_type() != other.data_type() {
            return Err(StorageError::TypeMismatch {
                expected: self.data_type().sql_name().to_string(),
                found: other.data_type().sql_name().to_string(),
            });
        }
        match (self, other) {
            (Column::Int(v, b), Column::Int(ov, ob)) => {
                v.extend_from_slice(ov);
                b.extend_from(ob);
            }
            (Column::Double(v, b), Column::Double(ov, ob)) => {
                v.extend_from_slice(ov);
                b.extend_from(ob);
            }
            (Column::Str(v, b), Column::Str(ov, ob)) => {
                v.extend_from_slice(ov);
                b.extend_from(ob);
            }
            (Column::Bool(v, b), Column::Bool(ov, ob)) => {
                v.extend_from_slice(ov);
                b.extend_from(ob);
            }
            (Column::Date(v, b), Column::Date(ov, ob)) => {
                v.extend_from_slice(ov);
                b.extend_from(ob);
            }
            (Column::Path(v), Column::Path(ov)) => v.extend_from_slice(ov),
            _ => unreachable!("type equality checked above"),
        }
        Ok(())
    }

    /// Overwrite the cells at `positions` with `src`'s cells, in order (the
    /// positional scatter `UPDATE` applies). `src` must have this column's
    /// type and one cell per position.
    pub fn scatter(&mut self, positions: &[usize], src: &Column) -> Result<()> {
        fn put<T: Clone>(v: &mut [T], b: &mut Bitmap, at: &[usize], sv: &[T], sb: &Bitmap) {
            for (j, &p) in at.iter().enumerate() {
                v[p] = sv[j].clone();
                b.set(p, sb.get(j));
            }
        }
        if self.data_type() != src.data_type() {
            return Err(StorageError::TypeMismatch {
                expected: self.data_type().sql_name().to_string(),
                found: src.data_type().sql_name().to_string(),
            });
        }
        match (self, src) {
            (Column::Int(v, b), Column::Int(sv, sb)) => put(v, b, positions, sv, sb),
            (Column::Double(v, b), Column::Double(sv, sb)) => put(v, b, positions, sv, sb),
            (Column::Str(v, b), Column::Str(sv, sb)) => put(v, b, positions, sv, sb),
            (Column::Bool(v, b), Column::Bool(sv, sb)) => put(v, b, positions, sv, sb),
            (Column::Date(v, b), Column::Date(sv, sb)) => put(v, b, positions, sv, sb),
            (Column::Path(v), Column::Path(sv)) => {
                for (j, &p) in positions.iter().enumerate() {
                    v[p] = sv[j].clone();
                }
            }
            _ => unreachable!("type equality checked above"),
        }
        Ok(())
    }

    /// Iterator over all cells as [`Value`]s.
    pub fn iter(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Borrow the raw i64 data and validity of an `Int` column.
    pub fn as_int_slice(&self) -> Option<(&[i64], &Bitmap)> {
        match self {
            Column::Int(v, b) => Some((v, b)),
            _ => None,
        }
    }

    /// Borrow the raw f64 data and validity of a `Double` column.
    pub fn as_double_slice(&self) -> Option<(&[f64], &Bitmap)> {
        match self {
            Column::Double(v, b) => Some((v, b)),
            _ => None,
        }
    }
}

/// Incremental builder for a [`Column`] of a known type.
#[derive(Debug)]
pub struct ColumnBuilder {
    column: Column,
}

impl ColumnBuilder {
    /// Start building a column of type `ty`.
    pub fn new(ty: DataType) -> ColumnBuilder {
        ColumnBuilder { column: Column::empty(ty) }
    }

    /// Append one value.
    pub fn push(&mut self, value: Value) -> Result<()> {
        self.column.push(value)
    }

    /// Current number of rows.
    pub fn len(&self) -> usize {
        self.column.len()
    }

    /// True when no rows have been appended.
    pub fn is_empty(&self) -> bool {
        self.column.is_empty()
    }

    /// Finish and return the column.
    pub fn finish(self) -> Column {
        self.column
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::date::Date;

    #[test]
    fn push_and_get_round_trip_all_types() {
        let cases: Vec<(DataType, Vec<Value>)> = vec![
            (DataType::Int, vec![Value::Int(1), Value::Null, Value::Int(-7)]),
            (DataType::Double, vec![Value::Double(1.5), Value::Null]),
            (DataType::Varchar, vec![Value::from("a"), Value::Null, Value::from("")]),
            (DataType::Bool, vec![Value::Bool(true), Value::Null, Value::Bool(false)]),
            (DataType::Date, vec![Value::Date(Date(15000)), Value::Null]),
        ];
        for (ty, values) in cases {
            let mut col = Column::empty(ty);
            for v in &values {
                col.push(v.clone()).unwrap();
            }
            assert_eq!(col.len(), values.len());
            for (i, v) in values.iter().enumerate() {
                assert_eq!(&col.get(i), v, "type {ty} row {i}");
            }
        }
    }

    #[test]
    fn int_widens_into_double_column() {
        let mut col = Column::empty(DataType::Double);
        col.push(Value::Int(3)).unwrap();
        assert_eq!(col.get(0), Value::Double(3.0));
    }

    #[test]
    fn type_mismatch_is_rejected() {
        let mut col = Column::empty(DataType::Int);
        let err = col.push(Value::from("oops")).unwrap_err();
        assert!(matches!(err, StorageError::TypeMismatch { .. }));
    }

    #[test]
    fn take_gathers_rows_with_nulls() {
        let mut col = Column::empty(DataType::Int);
        for v in [Value::Int(10), Value::Null, Value::Int(30), Value::Int(40)] {
            col.push(v).unwrap();
        }
        let taken = col.take(&[3, 1, 0]);
        assert_eq!(taken.get(0), Value::Int(40));
        assert!(taken.get(1).is_null());
        assert_eq!(taken.get(2), Value::Int(10));
    }

    #[test]
    fn take_or_null_extends_with_nulls() {
        let mut col = Column::empty(DataType::Varchar);
        for v in [Value::from("a"), Value::Null, Value::from("c")] {
            col.push(v).unwrap();
        }
        let taken = col.take_or_null(&[Some(2), None, Some(1), Some(0)]);
        let want = [Value::from("c"), Value::Null, Value::Null, Value::from("a")];
        assert_eq!(taken.iter().collect::<Vec<_>>(), want);
        assert_eq!(Column::empty(DataType::Int).take_or_null(&[None]).null_count(), 1);
    }

    #[test]
    fn extend_concatenates_and_checks_type() {
        let mut a = Column::from_ints(vec![1, 2]);
        let b = Column::from_ints(vec![3]);
        a.extend_from(&b).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a.get(2), Value::Int(3));

        let c = Column::from_strs(vec!["x".into()]);
        assert!(a.extend_from(&c).is_err());
    }

    #[test]
    fn nulls_constructor() {
        let col = Column::nulls(DataType::Varchar, 5);
        assert_eq!(col.len(), 5);
        assert_eq!(col.null_count(), 5);
        assert!(col.get(4).is_null());
    }

    #[test]
    fn null_count_mixed() {
        let mut col = Column::empty(DataType::Int);
        for v in [Value::Int(1), Value::Null, Value::Null, Value::Int(2)] {
            col.push(v).unwrap();
        }
        assert_eq!(col.null_count(), 2);
    }

    #[test]
    fn builder_finishes_into_column() {
        let mut b = ColumnBuilder::new(DataType::Bool);
        assert!(b.is_empty());
        b.push(Value::Bool(true)).unwrap();
        b.push(Value::Null).unwrap();
        assert_eq!(b.len(), 2);
        let col = b.finish();
        assert_eq!(col.get(0), Value::Bool(true));
        assert!(col.get(1).is_null());
    }
}
