//! Error type for the storage layer.

use crate::catalog::IndexSpace;
use std::fmt;

/// Errors raised by the storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A table with this name already exists in the catalog.
    TableExists(String),
    /// No table with this name exists in the catalog.
    TableNotFound(String),
    /// An index with this name already exists in this name space.
    IndexExists(IndexSpace, String),
    /// No index with this name exists in this name space.
    IndexNotFound(IndexSpace, String),
    /// No column with this name exists in the schema.
    ColumnNotFound(String),
    /// A value's type does not match the column type it is stored into.
    TypeMismatch {
        /// Type expected by the column.
        expected: String,
        /// Type actually supplied.
        found: String,
    },
    /// A NULL was stored into a column declared NOT NULL.
    NullViolation(String),
    /// Row arity differs from the schema arity.
    ArityMismatch {
        /// Number of columns in the schema.
        expected: usize,
        /// Number of values supplied.
        found: usize,
    },
    /// A date literal could not be parsed.
    InvalidDate(String),
    /// An I/O failure in the durability layer (message carries the path and
    /// the OS error; `std::io::Error` itself is not `Clone`).
    Io(String),
    /// On-disk bytes failed validation (bad magic, checksum mismatch,
    /// truncated structure). Torn WAL tails are *not* errors — they are
    /// truncated silently — so this only surfaces for snapshot files or
    /// structurally impossible record contents.
    Corrupt(String),
    /// A `Delete` or `Update` mutation was computed against an older
    /// version of its table than the catalog now holds. Nothing changed;
    /// the statement re-reads the table and tries again.
    VersionConflict {
        /// The table.
        table: String,
        /// The version the mutation was computed against.
        base: u64,
        /// The version the catalog holds.
        current: u64,
    },
    /// Catch-all for internal invariant violations.
    Internal(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::TableExists(name) => write!(f, "table '{name}' already exists"),
            StorageError::TableNotFound(name) => write!(f, "table '{name}' does not exist"),
            StorageError::IndexExists(space, name) => {
                write!(f, "{} '{name}' already exists", space.noun())
            }
            StorageError::IndexNotFound(space, name) => {
                write!(f, "{} '{name}' does not exist", space.noun())
            }
            StorageError::ColumnNotFound(name) => write!(f, "column '{name}' does not exist"),
            StorageError::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
            StorageError::NullViolation(col) => {
                write!(f, "NULL value in NOT NULL column '{col}'")
            }
            StorageError::ArityMismatch { expected, found } => {
                write!(f, "row has {found} values but schema has {expected} columns")
            }
            StorageError::InvalidDate(s) => write!(f, "invalid date literal '{s}'"),
            StorageError::Io(msg) => write!(f, "storage I/O error: {msg}"),
            StorageError::Corrupt(msg) => write!(f, "corrupt storage file: {msg}"),
            StorageError::VersionConflict { table, base, current } => write!(
                f,
                "table '{table}' changed while the statement ran (read version {base}, now {current})"
            ),
            StorageError::Internal(msg) => write!(f, "internal storage error: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert_eq!(StorageError::TableExists("t".into()).to_string(), "table 't' already exists");
        assert_eq!(
            StorageError::TypeMismatch { expected: "INTEGER".into(), found: "VARCHAR".into() }
                .to_string(),
            "type mismatch: expected INTEGER, found VARCHAR"
        );
        assert_eq!(
            StorageError::ArityMismatch { expected: 3, found: 2 }.to_string(),
            "row has 2 values but schema has 3 columns"
        );
    }
}
