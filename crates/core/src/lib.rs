//! # gsql-core
//!
//! The query engine of the reproduction of *Extending SQL for Computing
//! Shortest Paths* (De Leo & Boncz, GRADES'17): an in-memory, fully
//! materializing, column-at-a-time SQL engine — the MonetDB stand-in — with
//! the paper's language extension implemented end to end:
//!
//! * the `REACHES … OVER … EDGE (S, D)` reachability predicate, compiled to
//!   the **graph select** operator (§3.1);
//! * the rewriter that unfolds cross product + graph select into a
//!   **graph join** (§3.1);
//! * `CHEAPEST SUM([e:] expr) [AS (cost, path)]` shortest-path summaries
//!   backed by BFS / Dijkstra-with-radix-queue in `gsql-graph` (§3.2);
//! * nested-table path values stored as edge-row references, flattened by
//!   `UNNEST [WITH ORDINALITY]` (§3.3 — ordinality is listed as
//!   unimplemented in the paper; we support it);
//! * `CREATE GRAPH INDEX` / `CREATE PATH INDEX` — the §6 future-work graph
//!   index with version-based invalidation, and acceleration layers (ALT,
//!   contraction hierarchies) on the same shared graph.
//!
//! ## Entry points
//!
//! A [`Database`] is the shared, thread-safe store (catalog + index
//! registry, plus one plan cache keyed by SQL text and invalidated by
//! [`Database::schema_version`]). Work happens through a [`Session`], which
//! owns connection state: `SET`/`SHOW` settings and statement traces (which
//! `EXPLAIN ANALYZE` renders). [`Session::prepare`] returns a [`PreparedStatement`] whose
//! repeated executions skip parse/bind/optimize entirely — the shape the
//! paper's repeated parameterized shortest-path workload wants.
//!
//! ```
//! use gsql_core::Database;
//! use gsql_storage::Value;
//!
//! let db = Database::new();
//! let session = db.session();
//! session
//!     .execute_script(
//!         "CREATE TABLE friends (src INTEGER NOT NULL, dst INTEGER NOT NULL); \
//!          INSERT INTO friends VALUES (1, 2), (2, 3), (1, 3); \
//!          CREATE GRAPH INDEX gi ON friends EDGE (src, dst);",
//!     )
//!     .unwrap();
//! let stmt = session
//!     .prepare("SELECT CHEAPEST SUM(1) AS hops WHERE ? REACHES ? OVER friends EDGE (src, dst)")
//!     .unwrap();
//! let out = stmt.query(&session, &[Value::Int(1), Value::Int(3)]).unwrap();
//! assert_eq!(out.row(0)[0], Value::Int(1));
//! // Executed from the cached plan: no re-parse, no re-bind.
//! assert_eq!(session.cache_stats().hits, 1);
//! ```
//!
//! [`Database::execute`] / [`Database::query`] remain as one-shot
//! conveniences that open a temporary session internally.

#![deny(unsafe_code)]

pub mod bind;
pub mod context;
pub mod database;
pub mod error;
pub mod exec;
pub mod index;
pub mod optimize;
pub(crate) mod persist;
pub mod plan;
pub mod session;
pub(crate) mod vertex_dict;
pub(crate) mod weight_cache;

pub use context::{Deadline, ExecContext, SessionSettings};
pub use database::{Database, QueryResult};
pub use error::Error;
pub use exec::{build_graph, build_graph_with_threads, MaterializedGraph};
pub use index::{IndexRegistry, IndexSpace, PathIndexKind};
pub use plan::LogicalPlan;
pub use session::{PlanCacheStats, PreparedStatement, Session};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;
