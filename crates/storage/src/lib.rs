//! # gsql-storage
//!
//! Columnar storage substrate for the `gsql` engine — the stand-in for the
//! MonetDB kernel used by the paper *Extending SQL for Computing Shortest
//! Paths* (De Leo & Boncz, GRADES'17).
//!
//! The engine follows MonetDB's execution model: every intermediate result is
//! **fully materialized** as a set of typed columns. This crate provides:
//!
//! * [`DataType`] — the SQL type system (including the nested-table `Path`
//!   type introduced by the paper, §3.3);
//! * [`Value`] — a dynamically typed cell value;
//! * [`Column`] — a typed, contiguous column with a validity bitmap;
//! * [`Schema`] / [`ColumnDef`] — named, typed column metadata;
//! * [`Table`] — a materialized relation (schema + equal-length columns);
//! * [`Catalog`] — the named-table store with version counters used for
//!   graph-index invalidation, and the index definitions ([`IndexDef`])
//!   over its tables;
//! * [`Mutation`] — the one value every catalog change is: what
//!   [`Catalog::apply`] installs and what the WAL records;
//! * [`PathValue`] — a shortest path represented as *references to rows of
//!   the edge table that generated it*, exactly the representation described
//!   in §3.3 of the paper.

#![forbid(unsafe_code)]

pub mod bitmap;
pub mod catalog;
pub mod column;
pub mod csv;
pub mod date;
pub mod error;
pub mod mutation;
pub mod persist;
pub mod schema;
pub mod table;
pub mod types;
pub mod value;

pub use bitmap::Bitmap;
pub use catalog::{AccelDef, Catalog, IndexDef, IndexSpace, PathIndexKind};
pub use column::{Column, ColumnBuilder};
pub use date::Date;
pub use error::StorageError;
pub use mutation::Mutation;
pub use persist::{DurableStore, Recovery, SnapshotData, SnapshotTable};
pub use schema::{ColumnDef, Schema};
pub use table::Table;
pub use types::DataType;
pub use value::{PathValue, Value};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StorageError>;
