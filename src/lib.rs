//! # gsql
//!
//! A SQL engine with first-class reachability and shortest-path queries —
//! a from-scratch Rust reproduction of *Extending SQL for Computing
//! Shortest Paths* (Dean De Leo & Peter Boncz, GRADES'17, the graph-data
//! workshop of SIGMOD/PODS 2017).
//!
//! ```sql
//! SELECT p1.firstName, p2.firstName, CHEAPEST SUM(f: weight) AS (cost, path)
//! FROM persons p1, persons p2
//! WHERE p1.id = ? AND p2.id = ?
//!   AND p1.id REACHES p2.id OVER friends f EDGE (src, dst)
//! ```
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`Database`] — the shared engine entry point (from `gsql-core`);
//! * [`Session`] — per-connection state: `SET`/`SHOW` settings, prepared
//!   statements over the database's version-invalidated plan cache,
//!   `EXPLAIN ANALYZE`;
//! * [`storage`] — columnar tables, values, the catalog;
//! * [`parser`] — the SQL front-end with the paper's grammar extensions;
//! * [`graph`] — CSR, BFS, Dijkstra + radix queue;
//! * [`datagen`] — the LDBC-SNB-like dataset generator.
//!
//! ## Quickstart
//!
//! ```
//! use gsql::{Database, Value};
//!
//! let db = Database::new();
//! db.execute_script(
//!     "CREATE TABLE friends (src INTEGER NOT NULL, dst INTEGER NOT NULL);
//!      INSERT INTO friends VALUES (1, 2), (2, 3), (3, 4), (1, 4);",
//! )
//! .unwrap();
//!
//! let hops = db
//!     .query_with_params(
//!         "SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER friends EDGE (src, dst)",
//!         &[Value::Int(1), Value::Int(3)],
//!     )
//!     .unwrap();
//! assert_eq!(hops.row(0)[0], Value::Int(2));
//! ```

pub use gsql_core::{
    Database, Deadline, Error, ExecContext, IndexRegistry, IndexSpace, LogicalPlan, PlanCacheStats,
    PreparedStatement, QueryResult, Result, Session, SessionSettings,
};
pub use gsql_storage::{Column, DataType, Date, PathValue, Schema, Table, Value};

/// The columnar storage substrate.
pub use gsql_storage as storage;

/// The SQL front-end.
pub use gsql_parser as parser;

/// The graph runtime (CSR, BFS, Dijkstra with radix queue).
pub use gsql_graph as graph;

/// The query engine internals (binder, plans, executor).
pub use gsql_core as engine;

/// Synthetic dataset generators (LDBC-SNB-like social network, road grids).
pub use gsql_datagen as datagen;
