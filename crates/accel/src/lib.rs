//! # gsql-accel
//!
//! The path-acceleration subsystem: preprocessing that makes repeated
//! **point-to-point** shortest-path queries fast.
//!
//! The paper's §6 graph index removes the per-query CSR construction cost,
//! but every point-to-point query still explores the graph *blindly* from
//! the source: plain Dijkstra settles every vertex cheaper than the
//! destination. This crate adds the standard goal-directed remedy — **ALT**
//! (A\*, Landmarks, Triangle inequality; Goldberg & Harrelson, SODA'05):
//!
//! * [`Landmarks`] precomputes, for `k` landmark vertices chosen by
//!   farthest-point selection, the exact forward (`d(L, v)`) and backward
//!   (`d(v, L)`) distance vectors — one BFS/Dijkstra per vector, fanned out
//!   over the `gsql-parallel` worker pool;
//! * the triangle inequality turns those vectors into admissible,
//!   *consistent* lower bounds `lb(u, v) ≤ d(u, v)`;
//! * [`alt_bidirectional`] runs a bidirectional A\* whose forward and
//!   backward searches are guided by those bounds (average-potential
//!   formulation, so the two searches stay consistent with each other) and
//!   reports how many vertices each query actually **settled** — the
//!   pruning the preprocessing buys.
//!
//! Distances are computed in exact integer arithmetic (doubled potentials,
//! never halved until the final division), so the returned cost is
//! **bit-identical** to what plain Dijkstra over the same weights returns.
//! Unreachability is also exact: either a landmark bound proves it upfront
//! or both frontiers exhaust.
//!
//! On top of landmarks sits the second standard preprocessing tier,
//! **contraction hierarchies** (Geisberger et al., WEA'08):
//!
//! * [`ContractionHierarchy`] contracts vertices in an edge-difference +
//!   deleted-neighbours order, inserting witness-checked shortcuts, and
//!   materializes the upward/downward search graphs;
//! * [`ch_query()`] answers point-to-point queries with a bidirectional
//!   upward Dijkstra plus stall-on-demand, settling a near-constant cone
//!   on road-like graphs.
//!
//! Shortcut weights are exact integer sums, so CH costs are bit-identical
//! to plain Dijkstra too — the same guarantee ALT gives, which is what
//! lets the SQL layer swap either in transparently.
//!
//! Batched (many-to-many) workloads get their own drivers in [`m2m`]:
//! [`ch_many_to_many`] shares the target side of the matrix through
//! per-vertex buckets (`S + T` upward searches instead of `S` full
//! Dijkstras) and [`alt_multi_target`] answers one source's whole target
//! set with a single goal-directed search — both exact and bit-identical at
//! every thread count.
//!
//! The engine reaches all four through `gsql-graph`'s one
//! [`Search`](gsql_graph::Search) interface: [`AltPoint`], [`ChPoint`],
//! [`AltMulti`] and [`ChM2m`] each answer a pair batch within a
//! [`Budget`](gsql_graph::Budget) — fanning out over its workers, timing
//! out only with `GraphError::DeadlineExceeded`, and reporting their
//! `TraversalKind`, settled count and shape (`landmarks`, `shortcuts` or
//! `buckets`) to its observer. They compute costs only: every returned
//! `path` is `None`. Landmark selection and contraction stay builders.

pub mod alt;
pub mod ch;
pub mod ch_query;
pub mod landmarks;
pub mod m2m;

pub use alt::{alt_bidirectional, AltPoint, AltResult};
pub use ch::{ChParts, ContractionHierarchy, UpGraphParts};
pub use ch_query::{ch_query, ChPoint, ChResult};
pub use landmarks::Landmarks;
pub use m2m::{alt_multi_target, ch_many_to_many, AltMulti, ChM2m, M2mResult};

use gsql_graph::{CostValue, PairResult};

/// Sentinel distance meaning "unreachable" (matches the graph runtime's
/// Dijkstra contract).
pub const INF: u64 = u64::MAX;

/// The pair result of an exact distance ([`INF`] = unreachable): a cost, no
/// path.
fn answer(dist: u64) -> PairResult {
    if dist == INF {
        PairResult::UNREACHABLE
    } else {
        PairResult::reached(CostValue::Int(dist as i64), None)
    }
}
