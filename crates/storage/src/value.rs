//! Dynamically typed cell values.

use crate::date::Date;
use crate::table::Table;
use crate::types::DataType;
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// A shortest path, represented as the paper's §3.3 nested table: a list of
/// **references to rows of the (materialized) edge table** that produced it.
///
/// `UNNEST` materializes the referenced rows; until then the path is a single
/// opaque component, satisfying the projection-operator contract ("the
/// function has to return a single component per tuple").
#[derive(Debug, Clone)]
pub struct PathValue {
    /// Snapshot of the edge table the row ids refer to. Shared by every path
    /// produced by one `CHEAPEST SUM` evaluation.
    pub edges: Arc<Table>,
    /// Row ids into `edges`, ordered from source to destination. Empty when
    /// source equals destination (cost 0).
    pub rows: Vec<u32>,
}

impl PathValue {
    /// Number of edges (hops) in the path.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True for the zero-hop path (source == destination).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl PartialEq for PathValue {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.edges, &other.edges) && self.rows == other.rows
    }
}

impl fmt::Display for PathValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[path: {} edge{}]", self.rows.len(), if self.rows.len() == 1 { "" } else { "s" })
    }
}

/// A single dynamically typed SQL value.
///
/// `Value` is used at cell granularity (literals, parameters, row access);
/// bulk data lives in [`crate::Column`]s.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL (typeless).
    Null,
    /// `INTEGER` value.
    Int(i64),
    /// `DOUBLE` value.
    Double(f64),
    /// `VARCHAR` value.
    Str(String),
    /// `BOOLEAN` value.
    Bool(bool),
    /// `DATE` value.
    Date(Date),
    /// Nested-table shortest path (paper §3.3).
    Path(PathValue),
}

impl Value {
    /// The value's data type; `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Double(_) => Some(DataType::Double),
            Value::Str(_) => Some(DataType::Varchar),
            Value::Bool(_) => Some(DataType::Bool),
            Value::Date(_) => Some(DataType::Date),
            Value::Path(_) => Some(DataType::Path),
        }
    }

    /// True for SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Integer content, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Floating content, promoting `Int` to `Double` (SQL numeric widening).
    pub fn as_double(&self) -> Option<f64> {
        match self {
            Value::Double(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// String content, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Path content, if this is a `Path`.
    pub fn as_path(&self) -> Option<&PathValue> {
        match self {
            Value::Path(p) => Some(p),
            _ => None,
        }
    }

    /// SQL equality (`=`): NULL compared with anything is not equal here;
    /// three-valued logic is handled by the expression evaluator, which
    /// checks for NULL before calling this.
    pub fn sql_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Double(a), Value::Double(b)) => a == b,
            (Value::Int(a), Value::Double(b)) | (Value::Double(b), Value::Int(a)) => {
                (*a as f64) == *b
            }
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Date(a), Value::Date(b)) => a == b,
            (Value::Path(a), Value::Path(b)) => a == b,
            _ => false,
        }
    }

    /// Total ordering used for ORDER BY and sort-based operators.
    ///
    /// NULL sorts first; cross-type numeric comparisons widen to double;
    /// otherwise values of different types order by type tag (this can only
    /// be observed through engine bugs, never through well-typed plans).
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(b),
            (Double(a), Double(b)) => a.total_cmp(b),
            (Int(a), Double(b)) => (*a as f64).total_cmp(b),
            (Double(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            (Path(a), Path(b)) => a.rows.cmp(&b.rows),
            (a, b) => type_rank(a).cmp(&type_rank(b)),
        }
    }
}

fn type_rank(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Int(_) | Value::Double(_) => 1,
        Value::Str(_) => 2,
        Value::Bool(_) => 3,
        Value::Date(_) => 4,
        Value::Path(_) => 5,
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            _ => self.sql_eq(other),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Double(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Value::Str(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Date(d) => write!(f, "{d}"),
            Value::Path(p) => write!(f, "{p}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Double(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}
impl From<Date> for Value {
    fn from(v: Date) -> Value {
        Value::Date(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_types() {
        assert_eq!(Value::Null.data_type(), None);
        assert_eq!(Value::Int(1).data_type(), Some(DataType::Int));
        assert_eq!(Value::from("x").data_type(), Some(DataType::Varchar));
    }

    #[test]
    fn numeric_cross_type_equality() {
        assert!(Value::Int(3).sql_eq(&Value::Double(3.0)));
        assert!(!Value::Int(3).sql_eq(&Value::Double(3.5)));
    }

    #[test]
    fn total_ordering_nulls_first() {
        let mut vals = [Value::Int(2), Value::Null, Value::Int(1)];
        vals.sort_by(|a, b| a.total_cmp(b));
        assert!(vals[0].is_null());
        assert_eq!(vals[1].as_int(), Some(1));
        assert_eq!(vals[2].as_int(), Some(2));
    }

    #[test]
    fn cross_type_numeric_ordering() {
        assert_eq!(Value::Int(1).total_cmp(&Value::Double(1.5)), Ordering::Less);
        assert_eq!(Value::Double(2.5).total_cmp(&Value::Int(2)), Ordering::Greater);
        assert_eq!(Value::Int(2).total_cmp(&Value::Double(2.0)), Ordering::Equal);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::Double(1.5).to_string(), "1.5");
        assert_eq!(Value::Double(2.0).to_string(), "2.0");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::from("hi").to_string(), "hi");
    }

    #[test]
    fn as_double_widens_int() {
        assert_eq!(Value::Int(7).as_double(), Some(7.0));
        assert_eq!(Value::Str("x".into()).as_double(), None);
    }
}
