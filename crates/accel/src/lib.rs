//! # gsql-accel
//!
//! The path-acceleration subsystem: preprocessing that makes repeated
//! **point-to-point** shortest-path queries fast. The paper's §6 graph
//! index removes the per-query CSR build, but plain Dijkstra still settles
//! every vertex cheaper than the destination. Two standard tiers prune it:
//!
//! * **ALT** (A\*, Landmarks, Triangle inequality; Goldberg & Harrelson,
//!   SODA'05): [`Landmarks`] precomputes exact forward and backward
//!   distance vectors of `k` farthest-point landmarks (one BFS/Dijkstra
//!   each, fanned out over the `gsql-parallel` pool), whose triangle
//!   inequalities are *consistent* lower bounds `lb(u, v) ≤ d(u, v)`;
//!   [`alt_bidirectional`] runs a bidirectional A\* over them in the
//!   average-potential formulation, in doubled integer space, and proves
//!   unreachability exactly (a landmark bound, or both frontiers exhaust);
//! * **contraction hierarchies** (Geisberger et al., WEA'08):
//!   [`ContractionHierarchy`] contracts vertices in an edge-difference +
//!   deleted-neighbours order, inserting witness-checked shortcuts, and
//!   [`ch_query()`] runs a bidirectional upward Dijkstra with
//!   stall-on-demand, settling a near-constant cone on road-like graphs.
//!
//! Batched workloads get their own drivers in [`m2m`]: [`ch_many_to_many`]
//! shares the target side of the matrix through buckets (`S + T` upward
//! searches instead of `S` Dijkstras) and [`alt_multi_target`] answers one
//! source's targets with a single goal-directed search. Every cost is an
//! exact integer sum, bit-identical to plain Dijkstra at every thread
//! count — which is what lets the SQL layer swap any of them in.
//!
//! Every query keeps its labels in one `Scratch` of [`gsql_graph::Labels`],
//! leased from a [`gsql_graph::Spares`] pool at entry and handed back
//! cleared, so no query allocates `O(|V|)` memory.
//!
//! The engine reaches all four through `gsql-graph`'s one
//! [`Search`](gsql_graph::Search) interface: [`AltPoint`], [`ChPoint`],
//! [`AltMulti`] and [`ChM2m`] each answer a pair batch within a
//! [`Budget`](gsql_graph::Budget) — fanning out over its workers, timing
//! out only with `GraphError::DeadlineExceeded`, and reporting their
//! `TraversalKind`, settled count and shape (`landmarks`, `shortcuts` or
//! `buckets`) to its observer. The point searches fan out through the
//! budget's one per-pair call, `Budget::per_pair`, as bidirectional BFS
//! does; the batched ones through `Budget::per_source` or their own
//! bucket sweep. They compute costs only: every returned `path` is `None`.
//! Which of them answers a statement is the engine's choice, made in one
//! place (its traversal dispatcher). Landmark selection and contraction
//! stay builders.

#![forbid(unsafe_code)]

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

use gsql_graph::{Arena, CostValue, GraphError, Labels, PairResult, Spares};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Sentinel distance meaning "unreachable" (matches the graph runtime's
/// Dijkstra contract).
pub const INF: u64 = u64::MAX;

/// Refuse slot `weights` totalling above `limit`, what a layer's arithmetic
/// holds: a label of its searches is a simple path's cost, at most the total.
fn check_total(weights: Option<&[i64]>, limit: u64) -> Result<(), GraphError> {
    let total = weights.unwrap_or_default().iter().map(|&w| w as u128).sum();
    let fits = total <= u128::from(limit);
    fits.then_some(()).ok_or(GraphError::WeightTotalTooLarge { total, limit })
}

/// One direction of a label-setting search: tentative distances, the queue
/// keyed by `K`, and how many vertices it settled. A vertex is queued only
/// when its label strictly improves, so a popped entry is stale exactly when
/// its key is above its label's: the one pop that is not settles it.
#[derive(Debug)]
struct Side<K> {
    dist: Labels<u64>,
    heap: BinaryHeap<Reverse<(K, u32)>>,
    settled: usize,
}

impl<K: Ord> Side<K> {
    /// Forget the last search, in the time it took.
    fn clear(&mut self) {
        self.dist.clear();
        self.heap.clear();
        self.settled = 0;
    }

    /// Forget the last search, cover `n` vertices and queue `root` at
    /// distance 0 under `key`.
    fn start(&mut self, n: usize, root: u32, key: K) {
        self.clear();
        self.dist.fit(n);
        self.dist.set(root, 0);
        self.heap.push(Reverse((key, root)));
    }
}

/// A memoized potential not yet evaluated (an equal bound is re-evaluated).
const UNKNOWN: u64 = INF - 1;

/// The memoized potential of `v`: `eval` runs once per vertex and search.
fn potential(memo: &mut Labels<u64>, v: u32, eval: impl FnOnce(u32) -> u64) -> u64 {
    match memo[v as usize] {
        UNKNOWN => {
            let p = eval(v);
            memo.set(v, p);
            p
        }
        p => p,
    }
}

/// The working memory of every accelerated query, leased at its entry:
/// two search directions (labels, queue and settled count each) and two
/// potentials, of which a search uses what it needs.
#[derive(Debug)]
struct Scratch<K> {
    sides: [Side<K>; 2],
    potentials: [Labels<u64>; 2],
}

impl<K: Ord> Default for Scratch<K> {
    fn default() -> Scratch<K> {
        let side = || Side { dist: Labels::new(INF), heap: BinaryHeap::new(), settled: 0 };
        Scratch {
            sides: [side(), side()],
            potentials: [Labels::new(UNKNOWN), Labels::new(UNKNOWN)],
        }
    }
}

impl<K: Ord> Arena for Scratch<K> {
    fn clear(&mut self) {
        self.sides.iter_mut().for_each(Side::clear);
        self.potentials.iter_mut().for_each(Labels::clear);
    }
}

/// The idle scratches of the CH searches and multi-target ALT.
static SCRATCH: Spares<Scratch<u64>> = Spares::new();
/// The idle scratches of point-to-point ALT, whose keys may be negative.
static ALT_SCRATCH: Spares<Scratch<i128>> = Spares::new();

/// The pair result of an exact distance ([`INF`] = unreachable): a cost, no
/// path.
fn answer(dist: u64) -> PairResult {
    if dist == INF {
        PairResult::UNREACHABLE
    } else {
        PairResult::reached(CostValue::Int(dist as i64), None)
    }
}
