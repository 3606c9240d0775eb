//! # gsql-graph
//!
//! The graph runtime of the reproduction — the counterpart of the paper's
//! "external library" (§3.2) that MonetDB's generated MAL code invokes.
//!
//! The library operates purely on **dense vertex ids** `0..n`: the query
//! engine (gsql-core) is responsible for translating arbitrary SQL values
//! from the edge table's `S`/`D` columns and the filter columns `X`/`Y` into
//! this domain ("all the values from X, Y, S and D are translated into
//! integers from the domain H = {0, …, |V|−1}", §3.1).
//!
//! Provided here:
//!
//! * [`Csr`] — the Compressed Sparse Row representation built by counting
//!   sort + prefix sum, storing for every CSR slot the **original edge-table
//!   row id**, which is what paths are made of (§3.3);
//! * [`bfs()`] — breadth-first search for unweighted shortest paths;
//! * [`dijkstra_int`] — Dijkstra with a **radix heap** (Ahuja et al. \[11\])
//!   for strictly positive integer weights;
//! * [`dijkstra_float_into`] — Dijkstra with a binary heap for strictly
//!   positive floating-point weights;
//! * [`Search`] — the one library call every traversal kind answers:
//!   `run(pairs, &Budget, want_path)` returns per-pair reachability, cost
//!   and path ([`PairResult`]). A [`Budget`] carries the worker-pool width,
//!   the statement deadline (the only timeout is
//!   [`GraphError::DeadlineExceeded`]) and the [`TraversalObserver`] that
//!   hears each traversal's [`TraversalKind`] and settled count. Here:
//!   [`SourceSearch`] — one BFS or Dijkstra per distinct source with
//!   multi-destination early exit, which is what makes Figure 1b's batching
//!   amortization work — and [`BidirBfs`]; `gsql-accel` adds the
//!   accelerated kinds. [`BatchComputer`] is the builder-style entry point
//!   to [`SourceSearch`].
//!
//! The runtime is **source-parallel**: distinct-source groups spread across
//! a scoped worker pool (gsql-parallel) with per-worker scratch arenas, and
//! the weight gather chunks over CSR slots. Every parallel path produces
//! output bit-for-bit identical to its sequential form, and one thread
//! restores the sequential code exactly. CSR construction and reversal are
//! one sequential counting sort each.

pub mod batch;
pub mod bfs;
pub mod bidir;
pub mod csr;
pub mod dijkstra;
pub mod error;
pub mod path;
pub mod radix_heap;
pub mod search;

pub use batch::{BatchComputer, CostValue, PairResult, PreparedWeights, SourceSearch, WeightSpec};
pub use bfs::{bfs, bfs_into, BfsResult, BfsScratch};
pub use bidir::{bidirectional_bfs, reverse_csr, BidirBfs, BidirResult};
pub use csr::Csr;
pub use dijkstra::{
    dijkstra_float_into, dijkstra_int, dijkstra_int_into, DijkstraFloatScratch, DijkstraIntResult,
    DijkstraIntScratch,
};
pub use error::GraphError;
pub use path::reconstruct_path;
pub use radix_heap::RadixHeap;
pub use search::{check_vertices, Budget, Search};

/// The traversal algorithm a [`TraversalObserver`] is being told about —
/// one per [`Search`] implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraversalKind {
    /// Unweighted BFS (one per distinct source in a batch).
    Bfs,
    /// Weighted Dijkstra (radix or binary heap).
    Dijkstra,
    /// Single-pair bidirectional BFS.
    BidirBfs,
    /// ALT point-to-point search (goal-directed bidirectional A\*).
    Alt,
    /// Contraction-hierarchy point-to-point search.
    Ch,
    /// Multi-target ALT: one goal-directed search per distinct source.
    AltMulti,
    /// Bucket-based contraction-hierarchy many-to-many.
    ChM2m,
}

impl TraversalKind {
    /// Every kind, in metric-label order.
    pub const ALL: [TraversalKind; 7] = [
        TraversalKind::Bfs,
        TraversalKind::Dijkstra,
        TraversalKind::BidirBfs,
        TraversalKind::Alt,
        TraversalKind::Ch,
        TraversalKind::AltMulti,
        TraversalKind::ChM2m,
    ];

    /// The metric label for this kind.
    pub fn as_str(self) -> &'static str {
        ["bfs", "dijkstra", "bidir-bfs", "alt", "ch", "alt-multi", "ch-m2m"][self as usize]
    }
}

/// Callback for traversal accounting (settled-vertex counts), implemented
/// by the engine's metrics layer. The trait lives here so this crate — and
/// `gsql-accel` above it — stay free of any observability dependency: the
/// engine hands a trait object down in a [`Budget`].
///
/// Implementations must be cheap and side-effect-free with respect to
/// query results; they are invoked from parallel workers (hence `Sync`).
pub trait TraversalObserver: Sync {
    /// One traversal of `kind` finished having settled/labelled `settled`
    /// vertices.
    fn traversal(&self, kind: TraversalKind, settled: usize);

    /// The structure that answered an accelerated run has `value` of `key`
    /// (`landmarks`, `shortcuts` or `buckets`). Ignored by default.
    fn shape(&self, _key: &'static str, _value: usize) {}
}

/// Sentinel vertex id meaning "no vertex" / "unreachable".
pub const NO_VERTEX: u32 = u32::MAX;

/// Sentinel CSR slot meaning "no parent edge".
pub const NO_EDGE: u32 = u32::MAX;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, GraphError>;
