//! Schemas: named, typed column metadata.

use crate::error::StorageError;
use crate::types::DataType;
use crate::value::Value;
use crate::Result;
use std::fmt;

/// Definition of one column: a name, a type and a nullability flag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name (matched case-insensitively, stored as written).
    pub name: String,
    /// Column data type.
    pub ty: DataType,
    /// Whether NULLs are permitted.
    pub nullable: bool,
}

impl ColumnDef {
    /// A nullable column definition.
    pub fn new(name: impl Into<String>, ty: DataType) -> ColumnDef {
        ColumnDef { name: name.into(), ty, nullable: true }
    }

    /// A NOT NULL column definition.
    pub fn not_null(name: impl Into<String>, ty: DataType) -> ColumnDef {
        ColumnDef { name: name.into(), ty, nullable: false }
    }
}

impl fmt::Display for ColumnDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.name, self.ty)?;
        if !self.nullable {
            write!(f, " NOT NULL")?;
        }
        Ok(())
    }
}

/// An ordered list of column definitions.
///
/// SQL identifiers are case-insensitive in this engine (they are folded at
/// lookup time, not at storage time, so `DESCRIBE` output keeps the original
/// spelling).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    columns: Vec<ColumnDef>,
}

impl Schema {
    /// Schema from a list of column definitions.
    pub fn new(columns: Vec<ColumnDef>) -> Schema {
        Schema { columns }
    }

    /// The column definitions in order.
    pub fn columns(&self) -> &[ColumnDef] {
        &self.columns
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True when the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Column definition at ordinal `i`.
    pub fn column(&self, i: usize) -> &ColumnDef {
        &self.columns[i]
    }

    /// Case-insensitive lookup of a column ordinal by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Case-insensitive lookup, erroring when absent.
    pub fn index_of_ok(&self, name: &str) -> Result<usize> {
        self.index_of(name).ok_or_else(|| StorageError::ColumnNotFound(name.to_string()))
    }

    /// Append a column definition (builder-style).
    pub fn push(&mut self, def: ColumnDef) {
        self.columns.push(def);
    }

    /// Iterator over the column names.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.columns.iter().map(|c| c.name.as_str())
    }

    /// Check that `row` can be stored under this schema: its arity, then
    /// NOT NULL, then every value's type.
    pub fn check_row(&self, row: &[Value]) -> Result<()> {
        if row.len() != self.len() {
            return Err(StorageError::ArityMismatch { expected: self.len(), found: row.len() });
        }
        for (def, value) in self.columns.iter().zip(row) {
            if value.is_null() && !def.nullable {
                return Err(StorageError::NullViolation(def.name.clone()));
            }
        }
        for (def, value) in self.columns.iter().zip(row) {
            if let Some(vt) = value.data_type() {
                if !vt.coerces_to(def.ty) {
                    return Err(StorageError::TypeMismatch {
                        expected: def.ty.sql_name().to_string(),
                        found: vt.sql_name().to_string(),
                    });
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::new(vec![
            ColumnDef::not_null("id", DataType::Int),
            ColumnDef::new("firstName", DataType::Varchar),
            ColumnDef::new("weight", DataType::Double),
        ])
    }

    #[test]
    fn index_lookup_is_case_insensitive() {
        let s = sample();
        assert_eq!(s.index_of("ID"), Some(0));
        assert_eq!(s.index_of("firstname"), Some(1));
        assert_eq!(s.index_of("FIRSTNAME"), Some(1));
        assert_eq!(s.index_of("missing"), None);
    }

    #[test]
    fn index_of_ok_errors_when_absent() {
        let s = sample();
        assert!(matches!(s.index_of_ok("nope"), Err(StorageError::ColumnNotFound(_))));
    }

    #[test]
    fn display_includes_not_null() {
        let s = sample();
        assert_eq!(s.to_string(), "(id INTEGER NOT NULL, firstName VARCHAR, weight DOUBLE)");
    }

    #[test]
    fn names_iterate_in_order() {
        let s = sample();
        assert_eq!(s.names().collect::<Vec<_>>(), vec!["id", "firstName", "weight"]);
    }
}
